"""Randomized structural check suites.

Each suite samples configurations and tests one inequality or equivalence
from the analysis behind the greedy.  Suites marked advisory record how
often a claimed identity matches observation instead of asserting it; the
others are meant to hold and any counterexample is written out as an
edge-list file with the offending sets in comments.

Fair warning, encoded in the suites themselves: `monotone` and `lemma3`
test claims that are false in general (see the README notes); on honest
sampling they will report failures and produce counterexample files.

The attachment and second-order diagnostics that the advisory `result1`
and `mu-bounds` suites measure live here, next to those suites.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

from .fileio import write_edge_list
from .generator import GenerationFailed, GenSpec, default_radius, gen_geometric, gen_hpath
from .graph import (
    EarDecompositionError,
    Graph,
    _check_subset,
    ear_decomposition,
    induced_components,
    is_biconnected,
    new_graph,
    split_counts,
)
from .oracle import check_lemma_inequality, naive_snapshot
from .potential import Color, color_of, gain, snapshot


@dataclass
class SuiteReport:
    name: str
    samples: int
    passes: int
    failures: int
    advisory: bool = False
    counterexample_paths: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.advisory or self.failures == 0


def _dump(dump_dir, name, g: Graph, context: dict):
    if dump_dir is None:
        return None
    os.makedirs(dump_dir, exist_ok=True)
    path = os.path.join(dump_dir, f"{name}.edges")
    comments = [f"{k} = {v}" for k, v in context.items()]
    write_edge_list(path, g, comments=comments)
    return path


def _random_host(rng: random.Random, lo: int = 4, hi: int = 16) -> Graph:
    """A random biconnected graph; mostly glued-path builds, sometimes a
    geometric one for shape variety."""
    if rng.random() < 0.25 and hi >= 6:
        n = rng.randint(max(lo, 6), hi)
        try:
            return gen_geometric(
                GenSpec(
                    kind="geometric",
                    n=n,
                    seed=rng.getrandbits(63),
                    radius=min(1.0, default_radius(n) * 1.3),
                )
            )
        except GenerationFailed:
            pass
    n = rng.randint(lo, hi)
    return gen_hpath(
        GenSpec(kind="hpath", n=n, seed=rng.getrandbits(63), extra=rng.randint(0, 3))
    )


def _mutate(g: Graph, rng: random.Random) -> Graph:
    """Knock a biconnected graph about so samples mix in non-biconnected
    shapes: drop edges or hang a pendant vertex."""
    op = rng.randrange(4)
    edges = list(g.edges())
    if op == 0:
        return g
    if op == 1 and len(edges) > 1:
        edges.pop(rng.randrange(len(edges)))
        return new_graph(g.n, edges)
    if op == 2 and len(edges) > 2:
        edges.pop(rng.randrange(len(edges)))
        edges.pop(rng.randrange(len(edges)))
        return new_graph(g.n, edges)
    edges.append((rng.randrange(g.n), g.n))
    return new_graph(g.n + 1, edges)


def _random_subset(rng: random.Random, n: int, allow_empty: bool = True) -> set:
    k = rng.randint(0 if allow_empty else 1, n - 1)
    return set(rng.sample(range(n), k))


def _random_induced_path(g: Graph, rng: random.Random, max_edges: int = 6):
    """A chordless path, grown greedily; falls back to a random edge."""
    for _ in range(30):
        path = [rng.randrange(g.n)]
        used = {path[0]}
        target = rng.randint(1, max_edges)
        while len(path) <= target:
            tail = path[-1]
            cands = [
                w
                for w in g.adj[tail]
                if w not in used and not any(g.has_edge(w, u) for u in path[:-1])
            ]
            if not cands:
                break
            w = rng.choice(cands)
            path.append(w)
            used.add(w)
        if len(path) >= 2:
            return tuple(path)
    u = rng.randrange(g.n)
    return (u, g.adj[u][0])


def run_monotone(samples: int, seed: int, dump_dir=None, m_fold: int = 2) -> SuiteReport:
    """Is the potential drop of every candidate non-negative?"""
    rng = random.Random(seed)
    rep = SuiteReport(name="monotone", samples=samples, passes=0, failures=0)
    for i in range(samples):
        g = _random_host(rng)
        c = _random_subset(rng, g.n)
        y = rng.choice(sorted(set(range(g.n)) - c))
        gb = gain(g, c, y, m_fold)
        if gb.total >= 0:
            rep.passes += 1
        else:
            rep.failures += 1
            if len(rep.counterexample_paths) < 5:
                path = _dump(
                    dump_dir,
                    f"monotone-{seed}-{i}",
                    g,
                    {
                        "set": sorted(c),
                        "candidate": y,
                        "candidate_color": gb.candidate_color.value,
                        "d_worst_parts": gb.d_worst_parts,
                        "d_closed_parts": gb.d_closed_parts,
                        "d_under_dominated": gb.d_under_dominated,
                        "d_total": gb.total,
                    },
                )
                if path:
                    rep.counterexample_paths.append(path)
    return rep


def run_lemma3(samples: int, seed: int, dump_dir=None, m_fold: int = 2) -> SuiteReport:
    """Does the gain on a union with an induced path exceed the base gain by
    more than one?"""
    rng = random.Random(seed)
    rep = SuiteReport(name="lemma3", samples=samples, passes=0, failures=0)
    for i in range(samples):
        g = _random_host(rng, lo=5, hi=18)
        a = _random_subset(rng, g.n)
        b_path = _random_induced_path(g, rng)
        pool = sorted(set(range(g.n)) - a)
        y = rng.choice(pool) if pool else 0
        res = check_lemma_inequality(g, a, b_path, y, m_fold)
        if res.holds:
            rep.passes += 1
        else:
            rep.failures += 1
            if len(rep.counterexample_paths) < 5:
                path = _dump(
                    dump_dir,
                    f"lemma3-{seed}-{i}",
                    g,
                    {
                        "a": sorted(a),
                        "b_path": list(b_path),
                        "candidate": y,
                        "gain_on_a": res.gain_on_a,
                        "gain_on_union": res.gain_on_union,
                    },
                )
                if path:
                    rep.counterexample_paths.append(path)
    return rep


def run_phat_oracle(samples: int, seed: int, dump_dir=None, m_fold: int = 2) -> SuiteReport:
    """Fast snapshot versus the deletion-by-deletion oracle, all fields."""
    rng = random.Random(seed)
    rep = SuiteReport(name="phat-oracle", samples=samples, passes=0, failures=0)
    for i in range(samples):
        g = _mutate(_random_host(rng, lo=4, hi=14), rng)
        c = _random_subset(rng, g.n)
        fast = snapshot(g, c, m_fold)
        slow = naive_snapshot(g, c, m_fold)
        if fast == slow:
            rep.passes += 1
        else:
            rep.failures += 1
            if len(rep.counterexample_paths) < 5:
                path = _dump(
                    dump_dir,
                    f"phat-oracle-{seed}-{i}",
                    g,
                    {"set": sorted(c), "fast": fast, "slow": slow},
                )
                if path:
                    rep.counterexample_paths.append(path)
    return rep


def run_split_identity(samples: int, seed: int, dump_dir=None) -> SuiteReport:
    """Deleting x from s must change the component count by exactly
    split_count(x) - 1."""
    rng = random.Random(seed)
    rep = SuiteReport(name="split-identity", samples=samples, passes=0, failures=0)
    for i in range(samples):
        g = _mutate(_random_host(rng, lo=4, hi=16), rng)
        s = _random_subset(rng, g.n, allow_empty=False) | {rng.randrange(g.n)}
        x = rng.choice(sorted(s))
        before = induced_components(g, s).count
        after = induced_components(g, s - {x}).count
        predicted = before - 1 + split_counts(g, s)[x]
        if after == predicted:
            rep.passes += 1
        else:
            rep.failures += 1
            if len(rep.counterexample_paths) < 5:
                path = _dump(
                    dump_dir,
                    f"split-identity-{seed}-{i}",
                    g,
                    {"set": sorted(s), "deleted": x, "after": after, "predicted": predicted},
                )
                if path:
                    rep.counterexample_paths.append(path)
    return rep


def run_ear_equiv(samples: int, seed: int, dump_dir=None) -> SuiteReport:
    """Ear decomposition succeeds exactly on biconnected graphs, and a
    successful decomposition passes the structural validity checks."""
    rng = random.Random(seed)
    rep = SuiteReport(name="ear-equiv", samples=samples, passes=0, failures=0)
    for i in range(samples):
        g = _mutate(_random_host(rng, lo=3, hi=16), rng)
        expected = is_biconnected(g, range(g.n))
        try:
            ears = ear_decomposition(g)
            succeeded = True
        except EarDecompositionError:
            succeeded = False
        bad = succeeded is not expected
        if succeeded and not bad:
            try:
                validate_ear_decomposition(g, ears)
            except ValueError:
                bad = True
        if bad:
            rep.failures += 1
            if len(rep.counterexample_paths) < 5:
                path = _dump(
                    dump_dir,
                    f"ear-equiv-{seed}-{i}",
                    g,
                    {"is_biconnected": expected, "decomposition_succeeded": succeeded},
                )
                if path:
                    rep.counterexample_paths.append(path)
        else:
            rep.passes += 1
    return rep


def validate_ear_decomposition(g: Graph, ears) -> None:
    """Raise ValueError unless ears is a well-formed open ear decomposition
    of a subgraph of g covering every vertex."""
    if not ears:
        raise ValueError("no ears")
    cycle = ears[0]
    if len(cycle) < 3 or len(set(cycle)) != len(cycle):
        raise ValueError(f"first element is not a simple cycle: {cycle}")
    for u, w in zip(cycle, cycle[1:] + cycle[:1]):
        if not g.has_edge(u, w):
            raise ValueError(f"cycle edge ({u}, {w}) missing from the graph")
    seen = set(cycle)
    for ear in ears[1:]:
        if len(ear) < 2:
            raise ValueError(f"degenerate ear {ear}")
        if ear[0] not in seen or ear[-1] not in seen:
            raise ValueError(f"ear {ear} does not start and end on earlier elements")
        interior = ear[1:-1]
        if any(v in seen for v in interior) or len(set(ear)) != len(ear):
            raise ValueError(f"ear {ear} reuses vertices")
        for u, w in zip(ear, ear[1:]):
            if not g.has_edge(u, w):
                raise ValueError(f"ear edge ({u}, {w}) missing from the graph")
        seen.update(ear)
    if seen != set(range(g.n)):
        raise ValueError("decomposition does not cover every vertex")


@dataclass(frozen=True)
class AlphaBetaGamma:
    """How a candidate y attaches to a set A, seen from A's critical vertex.

    split_pieces: components of the critical component minus its critical
    vertex.  attached_other_components: components of A outside the critical
    one that contain a neighbor of y.  attached_split_pieces: split pieces
    containing a neighbor of y.
    """

    split_pieces: int
    attached_other_components: int
    attached_split_pieces: int
    critical_vertex: int

    def __post_init__(self):
        assert self.attached_split_pieces <= self.split_pieces


def alpha_beta_gamma(g: Graph, a, y: int) -> AlphaBetaGamma:
    a = _check_subset(g, a)
    if not a:
        raise ValueError("empty set has no critical vertex")
    if y in a:
        raise ValueError(f"candidate {y} is already in the set")
    split = split_counts(g, a)
    worst = max(split.values())
    r = min(v for v in a if split[v] == worst)
    parts = induced_components(g, a)
    critical_comp = parts.members[parts.ids[r]]
    nbrs = set(g.adj[y])

    pieces = induced_components(g, critical_comp - {r})
    alpha = pieces.count
    gamma = sum(1 for piece in pieces.members if piece & nbrs)
    beta = 0
    for comp in parts.members:
        if comp is critical_comp:
            continue
        if comp & nbrs:
            beta += 1
    return AlphaBetaGamma(
        split_pieces=alpha,
        attached_other_components=beta,
        attached_split_pieces=gamma,
        critical_vertex=r,
    )


def result1_delta_phat(abg: AlphaBetaGamma) -> int:
    """Predicted drop in worst_deletion_parts when y joins A:
    min(split_pieces, attached_other_components + attached_split_pieces) - 1.
    Exact in the intended configuration; the check suite records where it
    diverges from the measured drop.
    """
    return (
        min(
            abg.split_pieces,
            abg.attached_other_components + abg.attached_split_pieces,
        )
        - 1
    )


def predicted_worst_after(abg: AlphaBetaGamma) -> int:
    """Companion prediction: worst_deletion_parts of A plus y, as
    max(split_pieces - attached_split_pieces, attached_other_components) + 1.
    """
    return (
        max(
            abg.split_pieces - abg.attached_split_pieces,
            abg.attached_other_components,
        )
        + 1
    )


def run_result1(samples: int, seed: int, dump_dir=None) -> SuiteReport:
    """Advisory: how often the attachment formula predicts the measured
    worst-deletion drop, overall and in its intended configuration (y
    attached to the set, a unique critical component)."""
    rng = random.Random(seed)
    rep = SuiteReport(
        name="result1", samples=samples, passes=0, failures=0, advisory=True
    )
    matched_intended = 0
    seen_intended = 0
    for i in range(samples):
        g = _random_host(rng)
        a = _random_subset(rng, g.n, allow_empty=False)
        y = rng.choice(sorted(set(range(g.n)) - a))
        abg = alpha_beta_gamma(g, a, y)
        predicted = result1_delta_phat(abg)
        gb = gain(g, a, y)
        after = snapshot(g, a | {y}).worst_deletion_parts
        exact = predicted == gb.d_worst_parts and predicted_worst_after(abg) == after

        split = split_counts(g, a)
        worst = max(split.values())
        parts = induced_components(g, a)
        crit_comps = {parts.ids[v] for v in a if split[v] == worst}
        intended = len(crit_comps) == 1 and any(w in a for w in g.adj[y])
        if intended:
            seen_intended += 1
            if exact:
                matched_intended += 1

        if exact:
            rep.passes += 1
        else:
            rep.failures += 1
            if len(rep.counterexample_paths) < 5:
                path = _dump(
                    dump_dir,
                    f"result1-{seed}-{i}",
                    g,
                    {
                        "a": sorted(a),
                        "candidate": y,
                        "split_pieces": abg.split_pieces,
                        "attached_other_components": abg.attached_other_components,
                        "attached_split_pieces": abg.attached_split_pieces,
                        "predicted_drop": predicted,
                        "measured_drop": gb.d_worst_parts,
                        "intended_configuration": intended,
                    },
                )
                if path:
                    rep.counterexample_paths.append(path)
    rep.notes.append(
        f"intended configuration: {matched_intended}/{seen_intended} exact"
    )
    return rep


@dataclass(frozen=True)
class MuDiagnostics:
    """Second-order gain differences between a base set A and A union B.

    mu_* = (gain of y on A union B) - (gain of y on A), per term.  The
    helper counts s_union and s_b_only resolve the two readings of the set S
    of y-neighbors that are white for A yet red for the enlarged set: red
    measured against A union B, or against B alone.
    """

    mu_worst_parts: int
    mu_closed_parts: int
    mu_under_dominated: int
    mu_total: int
    s_union: int
    s_b_only: int
    y_gray_for_union_not_for_a: bool
    y_adjacent_to_b: bool

    def __post_init__(self):
        assert self.mu_total == (
            self.mu_worst_parts + self.mu_closed_parts + self.mu_under_dominated
        )


def mu_diagnostics(g: Graph, a, b, y: int, m_fold: int = 2) -> MuDiagnostics:
    a = _check_subset(g, a)
    b = _check_subset(g, b)
    if y in a | b:
        raise ValueError(f"candidate {y} is inside the sets under test")
    union = a | b
    gain_a = gain(g, a, y, m_fold)
    gain_u = gain(g, union, y, m_fold)
    s_union = 0
    s_b_only = 0
    for w in g.adj[y]:
        if color_of(g, a, w, m_fold) is not Color.WHITE:
            continue
        if color_of(g, union, w, m_fold) is Color.RED:
            s_union += 1
        if color_of(g, b, w, m_fold) is Color.RED:
            s_b_only += 1
    return MuDiagnostics(
        mu_worst_parts=gain_u.d_worst_parts - gain_a.d_worst_parts,
        mu_closed_parts=gain_u.d_closed_parts - gain_a.d_closed_parts,
        mu_under_dominated=gain_u.d_under_dominated - gain_a.d_under_dominated,
        mu_total=gain_u.total - gain_a.total,
        s_union=s_union,
        s_b_only=s_b_only,
        y_gray_for_union_not_for_a=(
            color_of(g, union, y, m_fold) is Color.GRAY
            and color_of(g, a, y, m_fold) is not Color.GRAY
        ),
        y_adjacent_to_b=any(w in b for w in g.adj[y]),
    )


def run_mu_bounds(samples: int, seed: int, dump_dir=None, m_fold: int = 2) -> SuiteReport:
    """Advisory: the second-order term bounds, plus which reading of the set
    S matches the domination difference."""
    rng = random.Random(seed)
    rep = SuiteReport(
        name="mu-bounds", samples=samples, passes=0, failures=0, advisory=True
    )
    m_match_union = 0
    m_match_b_only = 0
    q_bound_union = 0
    evaluated = 0
    for i in range(samples):
        g = _random_host(rng, lo=5, hi=16)
        a = _random_subset(rng, g.n)
        b_path = _random_induced_path(g, rng)
        pool = sorted(set(range(g.n)) - a - set(b_path))
        if not pool:
            continue
        y = rng.choice(pool)
        mu = mu_diagnostics(g, a, set(b_path), y, m_fold)
        evaluated += 1

        phat_ok = (
            mu.mu_worst_parts <= 1
            if mu.y_adjacent_to_b
            else mu.mu_worst_parts == 0
        )
        if phat_ok:
            rep.passes += 1
        else:
            rep.failures += 1
            if len(rep.counterexample_paths) < 5:
                path = _dump(
                    dump_dir,
                    f"mu-bounds-{seed}-{i}",
                    g,
                    {
                        "a": sorted(a),
                        "b_path": list(b_path),
                        "candidate": y,
                        "mu_worst_parts": mu.mu_worst_parts,
                        "y_adjacent_to_b": mu.y_adjacent_to_b,
                    },
                )
                if path:
                    rep.counterexample_paths.append(path)

        for s, counter in ((mu.s_union, "union"), (mu.s_b_only, "b")):
            expected = s - 1 if mu.y_gray_for_union_not_for_a else s
            if mu.mu_under_dominated == expected:
                if counter == "union":
                    m_match_union += 1
                else:
                    m_match_b_only += 1
        s = mu.s_union
        if mu.mu_closed_parts <= (-s if mu.y_adjacent_to_b else -(s - 1)):
            q_bound_union += 1
    rep.notes.append(
        f"domination difference matches: s-vs-union {m_match_union}/{evaluated}, "
        f"s-vs-b {m_match_b_only}/{evaluated}"
    )
    rep.notes.append(f"spanning bound holds with s-vs-union: {q_bound_union}/{evaluated}")
    rep.samples = evaluated
    return rep


SUITES = {
    "monotone": run_monotone,
    "lemma3": run_lemma3,
    "result1": run_result1,
    "phat-oracle": run_phat_oracle,
    "split-identity": run_split_identity,
    "ear-equiv": run_ear_equiv,
    "mu-bounds": run_mu_bounds,
}

"""Two-phase backbone construction.

Phase 1 greedily adds the vertex with the largest potential drop until no
candidate drops the potential any further; a candidate's drop is read off a
`PotentialState`, counters and an insert-only block forest that follow the
set as it grows.  Phase 2 continues on the same state, and welds the
leftover pieces into one biconnected component: preferably by
adding two common outside neighbors of a component pair, with repair and
shortest-path fallbacks for the configurations the greedy can actually
leave behind (undersized components, cut vertices, component pairs without
a common neighbor pair).  Every fallback is recorded on the solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graph import (
    Graph,
    OnlineBlockForest,
    _check_subset,
    _dfs_splits,
    induced_components,
    restricted_shortest_path,
    split_counts,  # not called here, nor is snapshot: perfbench hooks both names
)
from .potential import GainBreakdown, _color_from_count, _recount, snapshot
from .verify import Certificate, verify_certificate


class NotBiconnectedInputError(ValueError):
    """The host graph is not biconnected, so the guarantees do not apply."""


class InfeasibleError(RuntimeError):
    """Phase 2 ran out of moves; cannot happen on a biconnected host."""


@dataclass(frozen=True)
class SolveConfig:
    m_fold: int = 2
    record_trace: bool = True

    def __post_init__(self):
        if self.m_fold < 2:
            raise ValueError("m_fold must be at least 2")


@dataclass(frozen=True)
class TraceStep:
    phase: int
    chosen: tuple[int, ...]
    gain: GainBreakdown | None  # phase-1 steps only
    note: str
    f_after: int


@dataclass(frozen=True)
class Solution:
    nodes: frozenset[int]
    trace: tuple[TraceStep, ...]
    t_phase1: int
    phase1_nodes: frozenset[int]
    phase1_under_dominated: int
    phase1_all_components_biconnected: bool
    phase1_component_sizes: tuple[int, ...]
    phase2_added: int
    fallback_used: bool
    certificate: Certificate
    m_fold: int


def _require_biconnected_host(g: Graph) -> None:
    if g.n < 3:
        raise NotBiconnectedInputError("input graph has fewer than 3 vertices")
    split, comps, _ = _dfs_splits(g, frozenset(range(g.n)), want_blocks=False)
    if comps != 1:
        raise NotBiconnectedInputError("input graph is disconnected")
    cuts = [v for v, sv in enumerate(split) if sv >= 2]
    if cuts:
        raise NotBiconnectedInputError(f"input graph has a cut vertex: {cuts[0]}")


class PotentialState:
    """What each outside candidate's joining would change, kept up to date as
    C grows one vertex at a time, from the first phase-1 pick to the last
    phase-2 move.

    `forest`, an `OnlineBlockForest` that `add` feeds first, is the one owner
    of C and of the components of G[C] (`in_c`, `comp`, `members`, `count`).
    C only grows, so the parts of the spanning subgraph (the edges with an
    end in C) only ever merge: `add` merges those met by N[y] into the
    largest and moves only the smaller ones' members, so a whole run
    costs O(m log n) updates.  For every outside vertex y it keeps:

    - `hits[y]`: {forest component id: y's neighbors in it}, so y touches
      `len(hits[y])` components;
    - `label_counts[y]`: {part label of the spanning subgraph: vertices of
      N[y] carrying it}, so y's joining merges `len(label_counts[y])` parts
      into one;
    - `d_m[y]`: the under-dominated vertices y's joining removes: y itself
      while it has fewer than m_fold neighbors in C, and every outside
      neighbor one short of m_fold;
    - `key[y]`: `len(hits[y]) + len(label_counts[y]) - 1 + d_m[y]`, the
      local part of the phase-1 pruning bound, and y's place in
      `buckets[key[y]]`, a set per key value.  Every step that changes one
      of the three terms marks y in `dirty`, and the end of `add` moves the
      marked vertices to their new buckets.

    It also keeps `touchers[k]`, the outside vertices with a neighbor in
    component k.  The `hits`, `label_counts` and `key` entries of members
    of C are None.  Component ids and part labels are arbitrary and no
    result depends on them.  The state starts from the vertices of `s`,
    added in id order.
    """

    def __init__(self, g: Graph, m_fold: int, s=()):
        n = g.n
        self.g = g
        self.m_fold = m_fold
        self.forest = OnlineBlockForest(g)
        self.in_c = self.forest.in_c
        self.cnt = [0] * n  # neighbors in C, for every vertex
        self.under = n  # outside vertices with cnt < m_fold
        self.d_m = [1] * n
        self.hits: list[dict[int, list[int]] | None] = [{} for _ in range(n)]
        # part label of the spanning subgraph -> its vertices
        self.label_members: dict[int, list[int]] = {v: [v] for v in range(n)}
        self.label_counts: list[dict[int, int] | None] = [
            dict.fromkeys((y, *g.adj[y]), 1) for y in range(n)
        ]
        self.touchers: dict[int, set[int]] = {}
        # with C empty, y's key is its degree plus itself as under-dominated;
        # a key never exceeds a_cnt + d_q + d_m <= 3 * degree + 1
        self.key: list[int | None] = [len(a) + 1 for a in g.adj]
        self.buckets: list[set[int]] = [set() for _ in range(3 * g.max_degree + 2)]
        for y, k in enumerate(self.key):
            self.buckets[k].add(y)
        self.dirty: set[int] = set()
        for v in sorted(_check_subset(g, s)):
            self.add(v)

    @property
    def closed_parts(self) -> int:
        """Components of the spanning subgraph of C."""
        return len(self.label_members)

    def add(self, y: int) -> None:
        self.forest.add(y)  # raises, changing nothing, if y is already in C
        in_c, hits, counts, d_m, key, buckets = (
            self.in_c, self.hits, self.label_counts, self.d_m, self.key, self.buckets
        )
        buckets[key[y]].discard(y)
        key[y] = None
        self._cover(y)
        self._merge_components(y)
        self._merge_parts(y)
        # move every vertex marked in `dirty` to the bucket of its key; the
        # marks may name members of C, which have no bucket
        for u in self.dirty:
            if in_c[u]:
                continue
            k = len(hits[u]) + len(counts[u]) - 1 + d_m[u]
            if k != key[u]:
                buckets[key[u]].discard(u)
                buckets[k].add(u)
                key[u] = k
        self.dirty.clear()

    def _cover(self, y: int) -> None:
        # d_m[u] counts u itself while cnt[u] < m_fold, and each outside
        # neighbor w with cnt[w] == m_fold - 1; it only changes where some
        # count crosses m_fold - 2 -> m_fold - 1 or m_fold - 1 -> m_fold, or
        # where such a neighbor joins C
        adj, in_c, cnt, d_m, m = self.g.adj, self.in_c, self.cnt, self.d_m, self.m_fold
        dirty = self.dirty
        if cnt[y] < m:
            self.under -= 1
            if cnt[y] == m - 1:
                for u in adj[y]:
                    if not in_c[u]:
                        d_m[u] -= 1
                dirty.update(adj[y])
        for w in adj[y]:
            c = cnt[w] = cnt[w] + 1
            if in_c[w]:
                continue
            if c == m:
                self.under -= 1
                d_m[w] -= 1
                dirty.add(w)
                step = -1
            elif c == m - 1:
                step = 1
            else:
                continue
            for u in adj[w]:
                if not in_c[u]:
                    d_m[u] += step
            dirty.update(adj[w])

    def _merge_components(self, y: int) -> None:
        # the forest has merged y's touched components into one; its first
        # link hangs y's lone tree below a touched one, so the merged id is
        # one of the touched ids, or y's own when y touches none
        adj, hits, touchers, dirty = self.g.adj, self.hits, self.touchers, self.dirty
        touched = hits[y]
        hits[y] = None
        big = self.forest.comp[y]
        if touched:
            for k in touched:
                if k == big:
                    continue
                for u in touchers.pop(k):
                    hu = hits[u]
                    if hu is None:
                        continue  # y itself
                    nbrs = hu.pop(k)
                    if big in hu:
                        hu[big].extend(nbrs)
                        dirty.add(u)  # u touches one component fewer
                    else:
                        hu[big] = nbrs
                        touchers[big].add(u)
            touchers[big].discard(y)
        else:
            touchers[big] = set()
        for u in adj[y]:
            hu = hits[u]
            if hu is not None:
                if big in hu:
                    hu[big].append(y)
                else:
                    hu[big] = [y]
                    touchers[big].add(u)
                    dirty.add(u)

    def _merge_parts(self, y: int) -> None:
        # every edge at y is now kept, so the parts met by N[y] become one
        adj, members, counts, dirty = self.g.adj, self.label_members, self.label_counts, self.dirty
        met = counts[y]
        counts[y] = None
        big = max(met, key=lambda k: len(members[k]))
        for k in met:
            if k == big:
                continue
            moved = members.pop(k)
            members[big].extend(moved)
            for v in moved:
                dirty.add(v)
                dirty.update(adj[v])
                # v lies in N[u] exactly for u in N[v]
                for u in (v, *adj[v]):
                    lu = counts[u]
                    if lu is None:
                        continue
                    left = lu[k] - 1
                    if left:
                        lu[k] = left
                    else:
                        del lu[k]
                    lu[big] = lu.get(big, 0) + 1


def _checked_terms(g: Graph, state: PotentialState, c_set) -> tuple[int, int, int]:
    """The potential's worst-deletion, closed-part and under-dominated terms
    of the non-empty c_set, from one low-link pass and one `_recount`,
    checked against the state and its forest, fed the same vertices."""
    split, p, _ = _dfs_splits(g, c_set, want_blocks=False)
    cnt, q, under = _recount(g, c_set, state.m_fold)
    forest = state.forest
    if p != forest.count or split != forest.split:
        wrong = [v for v in range(g.n) if forest.split[v] != split[v]]
        raise RuntimeError(
            f"block forest diverged: {forest.count} components, recomputed "
            f"{p}; split counts differ at {wrong[:5]}"
        )
    if cnt != state.cnt or (q, under) != (state.closed_parts, state.under):
        raise RuntimeError(
            "potential bookkeeping diverged: recomputed (closed, under-dominated) = "
            f"{(q, under)}, state {(state.closed_parts, state.under)}, coverage "
            f"counts {'match' if cnt == state.cnt else 'differ'}"
        )
    return p - 1 + max(split), q, under


def greedy_phase1(g: Graph, cfg: SolveConfig = SolveConfig()):
    """Run the greedy until no candidate still lowers the potential.

    Returns (chosen set, trace steps).  Each pick goes to `state.add` and to
    `c_set`, the independent input of the from-scratch check.  The
    `PotentialState` keeps, for every outside candidate, the components of
    G[C] it touches, the parts of the spanning subgraph it would merge and
    the under-dominated vertices it would cover, so those terms of its gain
    are read in O(1).  The state's `OnlineBlockForest` keeps the components,
    split counts and cut vertices of G[C]: a candidate's exact
    worst-deletion term comes from those counts, the forest's `pieces_hit`,
    and the components with a cut vertex ranked by their largest split.  A
    cheap bound on the gain prunes candidates that cannot beat the current
    best, and ties go to the smallest vertex id.

    With C empty every vertex is looked at.  Afterwards let x* be a vertex
    of the largest split M.  When M >= 2, a candidate meeting at most one
    piece of (component of x*) - x* gains at most its state key minus one,
    and the others are among `forest.small_piece_touchers(x*)`, so each
    iteration looks at those first; when M <= 1 every candidate is so
    bounded.  Then it looks at the rest by falling key in id order, and
    stops at the first bucket whose key cannot beat the best gain found.
    Every iteration after the first recomputes each potential term from
    scratch with `_checked_terms`, and checks it against the state, the
    forest and the value tracked through the gains.
    """
    _, c, trace = _phase1(g, cfg)
    return c, trace


def _phase1(g: Graph, cfg: SolveConfig):
    """`greedy_phase1`, returning (state, chosen set, trace steps)."""
    _require_biconnected_host(g)
    n = g.n
    m_fold = cfg.m_fold
    state = PotentialState(g, m_fold)
    cnt, d_ms, hits_of, labels_of = state.cnt, state.d_m, state.hits, state.label_counts
    buckets, forest = state.buckets, state.forest
    split = forest.split
    c_set: set[int] = set()
    trace: list[TraceStep] = []
    # worst-deletion, closed-part and under-dominated terms, tracked through
    # the gains of the chosen vertices
    tracked = (0, n, n)

    def look(y):
        # y's gain, unless its bound shows it cannot beat the best so far:
        # a larger gain, or an equal one at a smaller id
        nonlocal best, best_total, best_y
        hits = hits_of[y]
        d_m = d_ms[y]
        d_q = len(labels_of[y]) - 1
        a_cnt = len(hits)
        p_new = p - a_cnt + 1
        unaff_max = rest_max
        for k in comp_order:
            if k not in hits:
                unaff_max = comp_max[k]
                break
        # optimistic d_worst bound: the merged component splits at least
        # once unless it is the lone new vertex
        floor_new = p_new - 1 + max(unaff_max, 1 if a_cnt else 0)
        bound = (phat - floor_new) + d_q + d_m
        if bound < best_total or (bound == best_total and y > best_y):
            return

        # worst split of the merged component K' = y + touched components.
        # y splits K' into its a_cnt components.  For x in a touched K,
        # the pieces of K - x holding a neighbor of y fuse through y, so
        # x splits K' into split(x) - h(x) + 1 pieces, h(x) the number of
        # fused pieces: 0 only for the lone neighbor of y in K, 1 for
        # every non-cut vertex otherwise, and read off the block
        # forest for cut vertices.
        top = max(unaff_max, a_cnt)
        for k, nbrs in hits.items():
            if len(nbrs) == 1 and split[nbrs[0]] + 1 > top:
                top = split[nbrs[0]] + 1
            for x in comp_cuts.get(k, ()):
                sx = split[x]
                if sx <= top:
                    break  # no later cut vertex of K can beat top
                h = forest.pieces_hit(x, nbrs)
                if sx + 1 - h > top:
                    top = sx + 1 - h
        phat_new = p_new - 1 + top
        total = (phat - phat_new) + d_q + d_m
        if total > best_total or (total == best_total and y < best_y):
            best_total = total
            best_y = y
            best = (phat - phat_new, d_q, d_m)

    for _ in range(2 * n):
        if c_set:
            direct = _checked_terms(g, state, c_set)
            if direct != tracked:
                raise RuntimeError(
                    "potential bookkeeping diverged: recomputed (worst-deletion, "
                    f"closed, under-dominated) = {direct}, tracked {tracked}"
                )
            if sum(direct) < 2:
                raise RuntimeError("potential fell below its floor of 2")
            p, phat = forest.count, direct[0]
            # the cut vertices of each component that has one, by falling
            # split, and those components by falling max split; any other
            # component's max split is 1, or 0 for a lone vertex
            comp_cuts = {
                k: sorted(cuts, key=split.__getitem__, reverse=True)
                for k, cuts in forest.cuts.items()
            }
            comp_max = {k: split[cuts[0]] for k, cuts in comp_cuts.items()}
            comp_order = sorted(comp_max, key=comp_max.__getitem__, reverse=True)
            # a look falls back on this when y touches every component with
            # a cut vertex: the max split of the others, 1 unless all are
            # lone vertices.  It can overstate only when y touches a
            # component, and then every use takes its max with 1 or a_cnt.
            rest_max = 1 if len(c_set) > p else 0
        else:
            p = phat = rest_max = 0
            comp_order = []

        # the best gain, its vertex and its terms; with no best yet, a zero
        # gain never wins the tie
        best_total, best_y, best = 0, -1, None
        if c_set:
            # with max split M >= 2 at x*, a candidate meeting at most one
            # piece of (component of x*) - x* leaves x* split M ways, so its
            # total is at most its key minus one; the others are next to a
            # piece the search finishes
            looked = set()
            if comp_order:
                looked = forest.small_piece_touchers(comp_cuts[comp_order[0]][0])
            for y in sorted(looked):
                look(y)
            # every other candidate's bound is at most its key minus one
            for key in reversed(range(len(buckets))):
                if key - 1 < best_total:
                    break
                if not buckets[key]:
                    continue
                for y in sorted(buckets[key]):
                    if key - 1 < best_total or (key - 1 == best_total and y > best_y):
                        break
                    if y not in looked:
                        look(y)
        else:
            for y in range(n):
                look(y)

        if best_y < 0:
            break
        y = best_y
        d_phat, d_q, d_m = best
        color = _color_from_count(cnt[y], m_fold)
        state.add(y)
        c_set.add(y)
        tracked = (tracked[0] - d_phat, tracked[1] - d_q, tracked[2] - d_m)
        if cfg.record_trace:
            breakdown = GainBreakdown(
                candidate=y,
                candidate_color=color,
                d_worst_parts=d_phat,
                d_closed_parts=d_q,
                d_under_dominated=d_m,
                total=best_total,
            )
            trace.append(TraceStep(phase=1, chosen=(y,), gain=breakdown, note="", f_after=sum(tracked)))
    else:
        raise RuntimeError("phase 1 did not terminate within its step budget")

    return state, frozenset(c_set), trace


def phase2_merge(g: Graph, c, cfg: SolveConfig = SolveConfig()):
    """Grow c until it is one biconnected, m_fold-dominating component.

    Move priority per round: grow an undersized lone component, repair a cut
    vertex, merge two components, then top up domination.  Each move adds at
    least one vertex, so the loop converges (the whole vertex set is always
    a valid end state on a biconnected host).  Returns (set, steps,
    fallback_used) where steps are TraceSteps, one per move and empty unless
    cfg.record_trace, and fallback_used flags any move that needed a
    connecting path instead of the pair/repair vertex the construction
    expects to find.

    The moves grow a `PotentialState` built from c (`solve` continues on
    phase 1's), which answers every rule and the trace's potential.  A
    repair at the smallest cut vertex x adds the smallest outside vertex
    next to two pieces of (component of x) - x, found among the forest's
    `small_piece_touchers(x)` with `pieces_hit`.  The end checks every term
    with `_checked_terms`.
    """
    c = set(_check_subset(g, c))
    if not c:
        raise ValueError("phase 2 needs a non-empty starting set")
    return _phase2(g, PotentialState(g, cfg.m_fold, c), c, cfg)


def _phase2(g: Graph, state: PotentialState, c, cfg: SolveConfig):
    """`phase2_merge` on a state holding exactly the vertices of c."""
    c = set(c)
    n = g.n
    m_fold = cfg.m_fold
    forest, in_c, cnt, hits = state.forest, state.in_c, state.cnt, state.hits
    steps: list[TraceStep] = []
    fallback = False
    # C and every coverage count only grow, so the smallest under-dominated
    # outside vertex `lo` only moves up
    lo = 0

    def grow(added, note):
        c.update(added)
        for v in added:
            state.add(v)
        if not cfg.record_trace:
            return
        # the worst deletion splits a cut vertex's component, or else a
        # component of 2 or more vertices in two, or a lone vertex in none
        top = max(
            (forest.split[x] for cuts in forest.cuts.values() for x in cuts),
            default=1 if len(c) > forest.count else 0,
        )
        f_after = forest.count - 1 + top + state.closed_parts + state.under
        steps.append(
            TraceStep(phase=2, chosen=tuple(sorted(added)), gain=None, note=note, f_after=f_after)
        )

    for _ in range(n + 2):
        if forest.count == 1 and len(c) < 3:
            w = min(w for v in c for w in g.adj[v] if not in_c[w])
            grow((w,), "grow-small")
            continue

        x = forest.smallest_cut()
        if x is not None:
            # the smallest outside vertex next to two pieces of (component
            # of x) - x; each such vertex is next to a small piece
            k = forest.comp[x]  # forest.comp is -1 outside c
            y = next(
                (
                    y
                    for y in sorted(forest.small_piece_touchers(x))
                    if forest.pieces_hit(x, [w for w in g.adj[y] if forest.comp[w] == k]) >= 2
                ),
                None,
            )
            if y is not None:
                grow((y,), f"repair at {x}")
                continue
            # no single outside vertex spans two pieces; route the smallest
            # piece to the rest of the component, relaying anywhere outside it
            comp = frozenset(forest.component(x))
            pieces = induced_components(g, comp - {x})
            path = restricted_shortest_path(
                g,
                pieces.members[0],
                comp - {x} - pieces.members[0],
                frozenset(range(n)) - comp,
            )
            added = [v for v in path if v not in c]
            if not added:
                raise InfeasibleError(f"repair at {x} found no usable path")
            fallback = True
            grow(added, f"repair-path at {x}")
            continue

        if forest.count > 1:
            # components ranked by smallest member name the pair-merge notes
            order = sorted(forest.members, key=lambda k: min(forest.members[k]))
            rank = {k: i for i, k in enumerate(order)}
            pair_candidates: dict[tuple[int, int], list[int]] = {}
            for y, touched in enumerate(hits):
                for pair in combinations(sorted(rank[k] for k in touched or ()), 2):
                    pair_candidates.setdefault(pair, []).append(y)
            pair = next((ij for ij in sorted(pair_candidates) if len(pair_candidates[ij]) >= 2), None)
            if pair is not None:
                grow(pair_candidates[pair][:2], f"pair-merge {pair[0]}+{pair[1]}")
                continue

            # no component pair has two common outside neighbors; connect the
            # hop-closest pair through outside vertices
            members = [forest.members[k] for k in order]
            outside = frozenset(range(n)) - c
            best = None
            for a, b in combinations(members, 2):
                path = restricted_shortest_path(g, a, b, outside)
                if path and (best is None or len(path) < len(best)):
                    best = path
            if best is None:
                # pairs only reach each other through other components
                best = restricted_shortest_path(
                    g,
                    members[0],
                    members[1],
                    frozenset(range(n)).difference(members[0], members[1]),
                )
            added = [v for v in best if v not in c]
            if not added:
                raise InfeasibleError("component connection added no vertices")
            fallback = True
            grow(added, "path-connect")
            continue

        # the smallest under-dominated outside vertex, if any
        while lo < n and (in_c[lo] or cnt[lo] >= m_fold):
            lo += 1
        if lo < n:
            w = next((w for w in g.adj[lo] if not in_c[w]), None)
            if w is not None:
                grow((w,), f"dominate {lo}")
            else:
                # every neighbor is already in; only membership can fix it
                grow((lo,), f"absorb {lo}")
            continue

        break
    else:
        raise InfeasibleError("phase 2 exceeded its growth budget")

    _checked_terms(g, state, c)
    return frozenset(c), steps, fallback


def solve(g: Graph, cfg: SolveConfig = SolveConfig()) -> Solution:
    """Phase 1, phase 2 on phase 1's state, certificate."""
    state, c1, trace1 = _phase1(g, cfg)
    forest = state.forest
    # phase 1's summary, read off the state before phase 2 grows it
    sizes = tuple(sorted(len(m) for m in forest.members.values()))
    t_phase1, under1, biconnected = (
        forest.count, state.under, not forest.cuts and all(k >= 3 for k in sizes)
    )
    c2, trace2, fallback = _phase2(g, state, c1, cfg)
    cert = verify_certificate(g, c2, cfg.m_fold)
    return Solution(
        nodes=c2,
        trace=tuple(trace1) + tuple(trace2) if cfg.record_trace else (),
        t_phase1=t_phase1,
        phase1_nodes=c1,
        phase1_under_dominated=under1,
        phase1_all_components_biconnected=biconnected,
        phase1_component_sizes=sizes,
        phase2_added=len(c2) - len(c1),
        fallback_used=fallback,
        certificate=cert,
        m_fold=cfg.m_fold,
    )

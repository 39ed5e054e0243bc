"""Two-phase backbone construction.

Phase 1 greedily adds the vertex with the largest potential drop until no
candidate drops the potential any further; a candidate's drop is read off
the split counts and the block-cut forest of the current set.  Phase 2
welds the leftover pieces into one biconnected component: preferably by
adding two common outside neighbors of a component pair, with repair and
shortest-path fallbacks for the configurations the greedy can actually
leave behind (undersized components, cut vertices, component pairs without
a common neighbor pair).  Every fallback is recorded on the solution.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .graph import (
    BlockCutForest,
    Graph,
    _check_subset,
    _dfs_splits,
    induced_components,
    is_biconnected,
    restricted_shortest_path,
    split_counts,
)
from .potential import Color, GainBreakdown, snapshot
from .verify import Certificate, verify_certificate


class NotBiconnectedInputError(ValueError):
    """The host graph is not biconnected, so the guarantees do not apply."""


class InfeasibleError(RuntimeError):
    """Phase 2 ran out of moves; cannot happen on a biconnected host."""


@dataclass(frozen=True)
class SolveConfig:
    m_fold: int = 2
    tie_break: str = "min-id"
    phase2_strategy: str = "pair-merge"
    record_trace: bool = True

    def __post_init__(self):
        if self.m_fold < 2:
            raise ValueError("m_fold must be at least 2")
        if self.tie_break != "min-id":
            raise ValueError(f"unsupported tie_break {self.tie_break!r}")
        if self.phase2_strategy != "pair-merge":
            raise ValueError(f"unsupported phase2_strategy {self.phase2_strategy!r}")


@dataclass(frozen=True)
class TraceStep:
    phase: int
    chosen: tuple[int, ...]
    gain: GainBreakdown | None  # phase-1 steps only
    note: str
    f_after: int
    residual: int  # f_after - 2, the distance still to cover

    def __post_init__(self):
        assert self.residual == self.f_after - 2


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
    cuts = sorted(v for v in split if split[v] >= 2)
    if cuts:
        raise NotBiconnectedInputError(f"input graph has a cut vertex: {cuts[0]}")


def _color_from_count(hits: int, m_fold: int) -> Color:
    if hits >= m_fold:
        return Color.GRAY
    if hits == 0:
        return Color.WHITE
    return Color.RED


def greedy_phase1(g: Graph, cfg: SolveConfig = SolveConfig()):
    """Run the greedy until no candidate still lowers the potential.

    Returns (chosen set, trace steps).  Each iteration makes one low-link
    pass over G[C], builds the block-cut forest of G[C] from its blocks, and
    evaluates every outside candidate against that structure without a
    search of its own: a candidate's exact worst-deletion term comes from
    the split counts, the forest, and the components ranked by their largest
    split.  A cheap lower bound on that term first prunes candidates that
    cannot beat the current best.  Ties go to the smallest vertex id.  The
    tracked potential is cross-checked against a direct recomputation every
    iteration.
    """
    _require_biconnected_host(g)
    n = g.n
    m_fold = cfg.m_fold
    in_c = [False] * n
    c_set: set[int] = set()
    trace: list[TraceStep] = []
    f_tracked = 2 * n

    for _ in range(2 * n):
        # component structure of the current set
        comp_id = [-1] * n
        p = 0
        for v in sorted(c_set):
            if comp_id[v] != -1:
                continue
            comp_id[v] = p
            dq = deque([v])
            while dq:
                u = dq.popleft()
                for w in g.adj[u]:
                    if in_c[w] and comp_id[w] == -1:
                        comp_id[w] = p
                        dq.append(w)
            p += 1

        if c_set:
            # the one low-link pass of the iteration; everything the
            # candidates need is read off its split counts and blocks
            split, _, blocks = _dfs_splits(g, frozenset(c_set), want_blocks=True)
            forest = BlockCutForest(split, blocks)
            comp_max = [0] * p
            comp_cuts: list[list[int]] = [[] for _ in range(p)]
            for v in c_set:
                cid = comp_id[v]
                sv = split[v]
                if sv > comp_max[cid]:
                    comp_max[cid] = sv
                if sv >= 2:
                    comp_cuts[cid].append(v)
            for cuts in comp_cuts:
                cuts.sort(key=split.__getitem__, reverse=True)
            # components by falling max split: the largest untouched one is
            # found after skipping at most the touched ones
            comp_order = sorted(range(p), key=comp_max.__getitem__, reverse=True)
            phat = p - 1 + comp_max[comp_order[0]]
        else:
            comp_max = []
            comp_order = []
            phat = 0

        # spanning-subgraph component labels over all n vertices
        label = [-1] * n
        q = 0
        for s0 in range(n):
            if label[s0] != -1:
                continue
            label[s0] = q
            dq = deque([s0])
            while dq:
                u = dq.popleft()
                u_in = in_c[u]
                for w in g.adj[u]:
                    if (u_in or in_c[w]) and label[w] == -1:
                        label[w] = q
                        dq.append(w)
            q += 1

        cnt = [0] * n
        for v in c_set:
            for w in g.adj[v]:
                cnt[w] += 1
        m_count = sum(1 for v in range(n) if not in_c[v] and cnt[v] < m_fold)

        f_direct = phat + q + m_count
        if f_direct != f_tracked:
            raise RuntimeError(
                f"potential bookkeeping diverged: recomputed {f_direct}, tracked {f_tracked}"
            )
        if c_set and f_direct < 2:
            raise RuntimeError("potential fell below its floor of 2")

        best_total = 0
        best = None
        for y in range(n):
            if in_c[y]:
                continue
            d_m = 1 if cnt[y] < m_fold else 0
            lbls = {label[y]}
            hits: dict[int, list[int]] = {}  # touched component -> y's neighbors in it
            for w in g.adj[y]:
                lbls.add(label[w])
                if in_c[w]:
                    cid = comp_id[w]
                    if cid in hits:
                        hits[cid].append(w)
                    else:
                        hits[cid] = [w]
                elif cnt[w] == m_fold - 1:
                    d_m += 1
            d_q = len(lbls) - 1

            a_cnt = len(hits)
            p_new = p - a_cnt + 1
            unaff_max = 0
            for cid in comp_order:
                if cid not in hits:
                    unaff_max = comp_max[cid]
                    break
            # optimistic d_worst bound: the merged component splits at least
            # once unless it is the lone new vertex
            floor_new = p_new - 1 + max(unaff_max, 1 if a_cnt else 0)
            if (phat - floor_new) + d_q + d_m <= best_total:
                continue

            # worst split of the merged component K' = y + touched components.
            # y splits K' into its a_cnt components.  For x in a touched K,
            # the pieces of K - x holding a neighbor of y fuse through y, so
            # x splits K' into split(x) - h(x) + 1 pieces, h(x) the number of
            # fused pieces: 0 only for the lone neighbor of y in K, 1 for
            # every non-cut vertex otherwise, and read off the block-cut
            # forest for cut vertices.
            top = max(unaff_max, a_cnt)
            for cid, nbrs in hits.items():
                if len(nbrs) == 1 and split[nbrs[0]] + 1 > top:
                    top = split[nbrs[0]] + 1
                for x in comp_cuts[cid]:
                    sx = split[x]
                    if sx <= top:
                        break  # no later cut vertex of K can beat top
                    h = forest.pieces_hit(x, nbrs)
                    if sx + 1 - h > top:
                        top = sx + 1 - h
            phat_new = p_new - 1 + top
            total = (phat - phat_new) + d_q + d_m
            if total > best_total:
                best_total = total
                best = (y, phat - phat_new, d_q, d_m)

        if best is None:
            break
        y, d_phat, d_q, d_m = best
        color = _color_from_count(cnt[y], m_fold)
        in_c[y] = True
        c_set.add(y)
        f_tracked -= best_total
        if cfg.record_trace:
            breakdown = GainBreakdown(
                candidate=y,
                candidate_color=color,
                d_worst_parts=d_phat,
                d_closed_parts=d_q,
                d_under_dominated=d_m,
                total=best_total,
            )
            trace.append(
                TraceStep(
                    phase=1,
                    chosen=(y,),
                    gain=breakdown,
                    note="",
                    f_after=f_tracked,
                    residual=f_tracked - 2,
                )
            )
    else:
        raise RuntimeError("phase 1 did not terminate within its step budget")

    return frozenset(c_set), trace


def _find_repair_vertex(g: Graph, c: set, pieces) -> int | None:
    """Smallest outside vertex adjacent to at least two pieces."""
    for y in range(g.n):
        if y in c:
            continue
        touched = 0
        for piece in pieces.members:
            if any(w in piece for w in g.adj[y]):
                touched += 1
                if touched == 2:
                    return y
    return None


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
    """
    c = set(_check_subset(g, c))
    if not c:
        raise ValueError("phase 2 needs a non-empty starting set")
    n = g.n
    m_fold = cfg.m_fold
    steps: list[TraceStep] = []
    fallback = False

    def record(added, note):
        if not cfg.record_trace:
            return
        after = snapshot(g, c, m_fold).total
        steps.append(
            TraceStep(
                phase=2,
                chosen=tuple(sorted(added)),
                gain=None,
                note=note,
                f_after=after,
                residual=after - 2,
            )
        )

    for _ in range(n + 2):
        parts = induced_components(g, c)

        if parts.count == 1 and len(parts.members[0]) < 3:
            comp = parts.members[0]
            w = min(w for v in comp for w in g.adj[v] if w not in c)
            c.add(w)
            record((w,), "grow-small")
            continue

        split = split_counts(g, c)
        cuts = sorted(v for v in c if split[v] >= 2)
        if cuts:
            x = cuts[0]
            comp = parts.members[parts.ids[x]]
            pieces = induced_components(g, comp - {x})
            y = _find_repair_vertex(g, c, pieces)
            if y is not None:
                c.add(y)
                record((y,), f"repair at {x}")
                continue
            # no single outside vertex spans two pieces; route the smallest
            # piece to the rest of the component, relaying anywhere outside it
            path = restricted_shortest_path(
                g,
                pieces.members[0],
                comp - {x} - pieces.members[0],
                frozenset(range(n)) - comp,
            )
            added = [v for v in path if v not in c]
            if not added:
                raise InfeasibleError(f"repair at {x} found no usable path")
            c.update(added)
            fallback = True
            record(added, f"repair-path at {x}")
            continue

        if parts.count > 1:
            pair_candidates: dict[tuple[int, int], list[int]] = {}
            for y in range(n):
                if y in c:
                    continue
                touched = sorted({parts.ids[w] for w in g.adj[y] if w in c})
                for a in range(len(touched)):
                    for b in range(a + 1, len(touched)):
                        pair_candidates.setdefault((touched[a], touched[b]), []).append(y)
            merged = False
            for i, j in sorted(pair_candidates):
                ys = pair_candidates[(i, j)]
                if len(ys) >= 2:
                    picked = ys[:2]
                    c.update(picked)
                    record(picked, f"pair-merge {i}+{j}")
                    merged = True
                    break
            if merged:
                continue

            # no component pair has two common outside neighbors; connect the
            # hop-closest pair through outside vertices
            outside = frozenset(range(n)) - c
            best = None
            for i in range(parts.count):
                for j in range(i + 1, parts.count):
                    path = restricted_shortest_path(
                        g, parts.members[i], parts.members[j], outside
                    )
                    if path and (best is None or len(path) < len(best)):
                        best = path
            if best is None:
                # pairs only reach each other through other components
                best = restricted_shortest_path(
                    g,
                    parts.members[0],
                    parts.members[1],
                    frozenset(range(n)) - parts.members[0] - parts.members[1],
                )
            added = [v for v in best if v not in c]
            if not added:
                raise InfeasibleError("component connection added no vertices")
            c.update(added)
            fallback = True
            record(added, "path-connect")
            continue

        deficient = [
            v
            for v in range(n)
            if v not in c and sum(1 for w in g.adj[v] if w in c) < m_fold
        ]
        if deficient:
            v = deficient[0]
            outside_nb = [w for w in g.adj[v] if w not in c]
            if outside_nb:
                c.add(outside_nb[0])
                record((outside_nb[0],), f"dominate {v}")
            else:
                # every neighbor is already in; only membership can fix it
                c.add(v)
                record((v,), f"absorb {v}")
            continue

        break
    else:
        raise InfeasibleError("phase 2 exceeded its growth budget")

    return frozenset(c), steps, fallback


def solve(g: Graph, cfg: SolveConfig = SolveConfig()) -> Solution:
    """Phase 1, phase 2, certificate."""
    c1, trace1 = greedy_phase1(g, cfg)
    parts = induced_components(g, c1)
    snap1 = snapshot(g, c1, cfg.m_fold)
    c2, trace2, fallback = phase2_merge(g, c1, cfg)
    cert = verify_certificate(g, c2, cfg.m_fold, fallback_used=fallback)
    return Solution(
        nodes=c2,
        trace=tuple(trace1) + tuple(trace2) if cfg.record_trace else (),
        t_phase1=parts.count,
        phase1_nodes=c1,
        phase1_under_dominated=snap1.under_dominated,
        phase1_all_components_biconnected=all(
            is_biconnected(g, m) for m in parts.members
        ),
        phase1_component_sizes=tuple(sorted(len(m) for m in parts.members)),
        phase2_added=len(c2) - len(c1),
        fallback_used=fallback,
        certificate=cert,
        m_fold=cfg.m_fold,
    )

"""Brute-force ground truth.

Everything in here recomputes from the definitions with its own traversal
code: the exact minimum backbone by subset enumeration over bitmasks, a
naive potential snapshot that deletes vertices one by one instead of using
split counts, and a literal check of the union inequality for gains.  The
point is independence from the fast implementations, so this module only
borrows the Graph and PotentialSnapshot containers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .graph import Graph
from .potential import PotentialSnapshot

ENUMERATION_CAP = 20


class TooLargeError(ValueError):
    """Instance exceeds the exact-enumeration cap."""


def _component_count(adj_lists, vertices) -> int:
    """Plain BFS component count of a subgraph given as adjacency lists
    restricted to `vertices`."""
    vertices = set(vertices)
    seen = set()
    count = 0
    for start in vertices:
        if start in seen:
            continue
        count += 1
        seen.add(start)
        frontier = [start]
        while frontier:
            nxt = []
            for u in frontier:
                for w in adj_lists[u]:
                    if w in vertices and w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
    return count


def naive_snapshot(g: Graph, c, m_fold: int = 2) -> PotentialSnapshot:
    """Potential snapshot straight from the definitions.

    The worst-deletion term really deletes each vertex of c in turn and
    recounts, the spanning term materializes the subgraph edge list, and the
    domination term counts neighbors per outside vertex.
    """
    c = set(c)
    for v in c:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} is not in 0..{g.n - 1}")

    parts = _component_count(g.adj, c)

    worst = 0
    critical = None
    if c:
        left = {x: _component_count(g.adj, c - {x}) for x in c}
        worst = max(left.values())
        critical = min(x for x in c if left[x] == worst)

    spanning: list[list[int]] = [[] for _ in range(g.n)]
    for u in range(g.n):
        for w in g.adj[u]:
            if u < w and (u in c or w in c):
                spanning[u].append(w)
                spanning[w].append(u)
    q = _component_count(spanning, range(g.n))

    under = 0
    for v in range(g.n):
        if v in c:
            continue
        if sum(1 for w in g.adj[v] if w in c) < m_fold:
            under += 1

    return PotentialSnapshot(
        parts=parts,
        worst_deletion_parts=worst,
        closed_parts=q,
        under_dominated=under,
        total=worst + q + under,
        critical_vertex=critical,
    )


@dataclass(frozen=True)
class ExactResult:
    optimum: frozenset[int] | None
    theta: int | None
    subsets_examined: int
    seconds: float


def _mask_connected(adj_mask, mask: int) -> bool:
    if mask == 0:
        return False
    start = mask & -mask
    seen = start
    frontier = start
    while frontier:
        reach = 0
        m = frontier
        while m:
            low = m & -m
            reach |= adj_mask[low.bit_length() - 1]
            m ^= low
        frontier = reach & mask & ~seen
        seen |= frontier
    return seen == mask


def _mask_valid(g: Graph, adj_mask, mask: int, m_fold: int) -> bool:
    for v in range(g.n):
        if mask >> v & 1:
            continue
        if (adj_mask[v] & mask).bit_count() < m_fold:
            return False
    if not _mask_connected(adj_mask, mask):
        return False
    for v in range(g.n):
        bit = 1 << v
        if mask & bit and not _mask_connected(adj_mask, mask & ~bit):
            return False
    return True


def exact_min_cds(g: Graph, m_fold: int = 2, node_budget: int | None = None) -> ExactResult:
    """Smallest backbone by exhaustive search, lexicographically smallest
    among the optima.  optimum is None when no subset up to the budget works
    (non-biconnected hosts can be genuinely infeasible).
    """
    if m_fold < 2:
        raise ValueError("m_fold must be at least 2")
    if g.n > ENUMERATION_CAP:
        raise TooLargeError(f"n={g.n} exceeds the exact cap of {ENUMERATION_CAP}")
    from itertools import combinations

    budget = g.n if node_budget is None else min(node_budget, g.n)
    adj_mask = [0] * g.n
    for u in range(g.n):
        for w in g.adj[u]:
            adj_mask[u] |= 1 << w

    # any vertex with degree below m_fold can never be dominated from outside
    forced = [v for v in range(g.n) if g.degree(v) < m_fold]
    forced_mask = 0
    for v in forced:
        forced_mask |= 1 << v
    free = [v for v in range(g.n) if not forced_mask >> v & 1]

    start = time.perf_counter()
    examined = 0
    for k in range(max(3, len(forced)), budget + 1):
        for combo in combinations(free, k - len(forced)):
            mask = forced_mask
            for v in combo:
                mask |= 1 << v
            examined += 1
            if _mask_valid(g, adj_mask, mask, m_fold):
                chosen = frozenset(v for v in range(g.n) if mask >> v & 1)
                return ExactResult(
                    optimum=chosen,
                    theta=k,
                    subsets_examined=examined,
                    seconds=time.perf_counter() - start,
                )
    return ExactResult(
        optimum=None,
        theta=None,
        subsets_examined=examined,
        seconds=time.perf_counter() - start,
    )


@dataclass(frozen=True)
class LemmaCheck:
    holds: bool
    gain_on_a: int
    gain_on_union: int


def check_lemma_inequality(g: Graph, a, b_path, y: int, m_fold: int = 2) -> LemmaCheck:
    """Does the gain of y on A-union-B exceed the gain on A by more than one?

    b_path must induce a simple path in g (consecutive vertices adjacent, no
    repeats, no chords).  Gains are evaluated with naive snapshots.
    """
    a = frozenset(a)
    b_path = tuple(b_path)
    if not b_path:
        raise ValueError("a path has at least one vertex")
    if len(set(b_path)) != len(b_path):
        raise ValueError("path repeats a vertex")
    for u, w in zip(b_path, b_path[1:]):
        if not g.has_edge(u, w):
            raise ValueError(f"({u}, {w}) is not an edge, not a path")
    for i, u in enumerate(b_path):
        for w in b_path[i + 2:]:
            if g.has_edge(u, w):
                raise ValueError(f"chord ({u}, {w}) means the set is not an induced path")

    b = frozenset(b_path)

    def d_f(base: frozenset[int]) -> int:
        if y in base:
            return 0
        before = naive_snapshot(g, base, m_fold)
        after = naive_snapshot(g, base | {y}, m_fold)
        return before.total - after.total

    ga = d_f(a)
    gu = d_f(a | b)
    return LemmaCheck(holds=gu <= ga + 1, gain_on_a=ga, gain_on_union=gu)

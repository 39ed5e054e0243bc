"""Measurement layer for the greedy: node colors, the potential value of a
candidate backbone set, and per-candidate gains.

The potential of a set C is the sum of three deficits: the worst component
count left by deleting a single vertex of C, the component count of the
spanning subgraph keeping edges that touch C, and the number of outside
vertices with fewer than m_fold backbone neighbors.  A valid backbone has
value exactly 2, and the greedy grows C by the vertex that lowers the value
the most.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .graph import Graph, _check_subset, _dfs_splits


class Color(Enum):
    BLACK = "black"
    GRAY = "gray"
    RED = "red"
    WHITE = "white"


def _color_from_count(hits: int, m_fold: int) -> Color:
    """Color of an outside vertex with `hits` backbone neighbors."""
    if hits >= m_fold:
        return Color.GRAY
    if hits == 0:
        return Color.WHITE
    return Color.RED


def color_of(g: Graph, c, v: int, m_fold: int = 2) -> Color:
    """Black inside c; outside vertices by backbone-neighbor count:
    gray >= m_fold, white 0, red in between."""
    c = _check_subset(g, c)
    if v in c:
        return Color.BLACK
    return _color_from_count(sum(1 for w in g.adj[v] if w in c), m_fold)


def color_map(g: Graph, c, m_fold: int = 2) -> list[Color]:
    c = _check_subset(g, c)
    return [
        Color.BLACK
        if v in c
        else _color_from_count(sum(1 for w in g.adj[v] if w in c), m_fold)
        for v in range(g.n)
    ]


@dataclass(frozen=True)
class PotentialSnapshot:
    parts: int                 # components of G[C]
    worst_deletion_parts: int  # max over x in C of components of G[C - x]
    closed_parts: int          # components of the spanning subgraph of C
    under_dominated: int       # outside vertices with < m_fold neighbors in C
    total: int
    critical_vertex: int | None

    def __post_init__(self):
        assert self.total == (
            self.worst_deletion_parts + self.closed_parts + self.under_dominated
        ), "potential fields out of sync"


def _recount(g: Graph, c, m_fold: int) -> tuple[list[int], int, int]:
    """From scratch: every vertex's number of neighbors in c, the component
    count of the spanning subgraph of c, as n minus the merges made by a
    union-find over the edges with an end in c, and the outside vertices
    with fewer than m_fold neighbors in c."""
    cnt = [0] * g.n
    root = list(range(g.n))
    q = g.n
    for v in c:
        # every merge below hangs a root under v's root, so it stays a root
        a = v
        while root[a] != a:
            root[a] = a = root[root[a]]
        for w in g.adj[v]:
            cnt[w] += 1
            b = w
            while root[b] != b:
                root[b] = b = root[root[b]]
            if a != b:
                root[b] = a
                q -= 1
    under = sum(1 for r in cnt if r < m_fold) - sum(1 for v in c if cnt[v] < m_fold)
    return cnt, q, under


def snapshot(g: Graph, c, m_fold: int = 2) -> PotentialSnapshot:
    """Every potential term of c from scratch: one low-link pass over G[c]
    and one `_recount`."""
    c = _check_subset(g, c)
    split, parts, _ = _dfs_splits(g, c, want_blocks=False)
    _, q, under = _recount(g, c, m_fold)
    worst_split = max(split)
    worst = parts - 1 + worst_split if c else 0
    return PotentialSnapshot(
        parts=parts,
        worst_deletion_parts=worst,
        closed_parts=q,
        under_dominated=under,
        total=worst + q + under,
        critical_vertex=min((v for v in c if split[v] == worst_split), default=None),
    )


@dataclass(frozen=True)
class GainBreakdown:
    """Drop in each potential term when one candidate joins C.

    Positive means the term went down.  total is the full potential drop.
    """

    candidate: int
    candidate_color: Color
    d_worst_parts: int
    d_closed_parts: int
    d_under_dominated: int
    total: int

    def __post_init__(self):
        assert self.total == (
            self.d_worst_parts + self.d_closed_parts + self.d_under_dominated
        ), "gain fields out of sync"


def gain(g: Graph, c, y: int, m_fold: int = 2) -> GainBreakdown:
    c = _check_subset(g, c)
    if y in c:
        return GainBreakdown(y, Color.BLACK, 0, 0, 0, 0)
    before = snapshot(g, c, m_fold)
    after = snapshot(g, c | {y}, m_fold)
    return GainBreakdown(
        candidate=y,
        candidate_color=color_of(g, c, y, m_fold),
        d_worst_parts=before.worst_deletion_parts - after.worst_deletion_parts,
        d_closed_parts=before.closed_parts - after.closed_parts,
        d_under_dominated=before.under_dominated - after.under_dominated,
        total=before.total - after.total,
    )

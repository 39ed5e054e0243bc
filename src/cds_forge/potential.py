"""Measurement layer for the greedy: node colors, the potential value of a
candidate backbone set, per-candidate gains, and the decomposition
diagnostics the structural check suites poke at.

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

from .graph import Graph, _check_subset, closed_components, induced_components, split_counts


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


def snapshot(g: Graph, c, m_fold: int = 2) -> PotentialSnapshot:
    c = _check_subset(g, c)
    parts = induced_components(g, c).count
    if c:
        split = split_counts(g, c)
        worst_split = max(split.values())
        critical = min(v for v in c if split[v] == worst_split)
        worst = parts - 1 + worst_split
    else:
        worst = 0
        critical = None
    q = closed_components(g, c).count
    under = 0
    for v in range(g.n):
        if v in c:
            continue
        hits = sum(1 for w in g.adj[v] if w in c)
        if hits < m_fold:
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

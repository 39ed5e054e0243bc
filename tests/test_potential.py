import random

import pytest
from hypothesis import given, strategies as st

from cds_forge import (
    Color,
    GenSpec,
    color_map,
    color_of,
    gain,
    generate,
    new_graph,
    snapshot,
)
from cds_forge.checks import (
    alpha_beta_gamma,
    mu_diagnostics,
    predicted_worst_after,
    result1_delta_phat,
)

from conftest import cycle_edges


def test_snapshot_empty(p8):
    s = snapshot(p8, set())
    assert (s.parts, s.worst_deletion_parts, s.closed_parts, s.under_dominated) == (
        0,
        0,
        8,
        8,
    )
    assert s.total == 2 * p8.n
    assert s.critical_vertex is None


def test_snapshot_single(p8):
    s = snapshot(p8, {3})
    assert (s.worst_deletion_parts, s.closed_parts, s.under_dominated) == (0, 4, 7)
    assert s.total == 11
    assert s.critical_vertex == 3


def test_snapshot_full(p8):
    s = snapshot(p8, range(8))
    assert (s.worst_deletion_parts, s.closed_parts, s.under_dominated) == (1, 1, 0)
    assert s.total == 2
    assert s.critical_vertex == 0  # every vertex ties at split 1, smallest id wins


def test_snapshot_stall_set(p8):
    # where the first phase stops on the reference graph
    s = snapshot(p8, {0, 3, 4, 6})
    assert s.parts == 3
    assert s.under_dominated == 0
    assert s.total == 4


def test_gain_first_step(p8):
    gb = gain(p8, set(), 3)
    assert (gb.d_worst_parts, gb.d_closed_parts, gb.d_under_dominated) == (0, 4, 1)
    assert gb.total == 5
    assert gb.candidate_color is Color.WHITE


def test_gain_on_empty_is_degree_plus_one(p8, c5, k4):
    for g in (p8, c5, k4):
        for y in range(g.n):
            assert gain(g, set(), y).total == g.degree(y) + 1


def test_gain_of_member_is_zero(p8):
    gb = gain(p8, {3, 4}, 3)
    assert gb.total == 0
    assert gb.candidate_color is Color.BLACK


def test_gain_can_be_negative(c4):
    # 4-cycle with the two opposite vertices taken: adding a dominated vertex
    # creates a cut vertex and pays for nothing
    gb = gain(c4, {0, 2}, 1)
    assert gb.total == -1
    assert gb.d_worst_parts == -1
    assert gb.d_closed_parts == 0
    assert gb.d_under_dominated == 0
    assert gb.candidate_color is Color.GRAY


def test_colors(p8):
    c = {3}
    assert color_of(p8, c, 3) is Color.BLACK
    for v in (1, 2, 4, 7):
        assert color_of(p8, c, v) is Color.RED
    for v in (0, 5, 6):
        assert color_of(p8, c, v) is Color.WHITE
    cm = color_map(p8, {0, 1, 2, 3})
    assert cm[0] is Color.BLACK
    assert cm[6] is Color.RED   # one backbone neighbor
    assert cm[5] is Color.WHITE


def test_color_threshold_tracks_m_fold(k5):
    assert color_of(k5, {0, 1}, 2, m_fold=2) is Color.GRAY
    assert color_of(k5, {0, 1}, 2, m_fold=3) is Color.RED


def test_alpha_beta_gamma_path_plus_closer():
    # path 0-1-2 with candidate 3 adjacent to both ends
    g = new_graph(4, [(0, 1), (1, 2), (0, 3), (2, 3)])
    abg = alpha_beta_gamma(g, {0, 1, 2}, 3)
    assert abg.critical_vertex == 1
    assert (abg.split_pieces, abg.attached_other_components, abg.attached_split_pieces) == (2, 0, 2)
    assert result1_delta_phat(abg) == 1
    assert gain(g, {0, 1, 2}, 3).d_worst_parts == 1
    assert predicted_worst_after(abg) == 1
    assert snapshot(g, {0, 1, 2, 3}).worst_deletion_parts == 1


def test_alpha_beta_gamma_pendant_at_critical():
    g = new_graph(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
    abg = alpha_beta_gamma(g, {0, 1, 2}, 3)
    assert abg.critical_vertex == 0
    assert (abg.split_pieces, abg.attached_other_components, abg.attached_split_pieces) == (1, 0, 0)
    assert result1_delta_phat(abg) == -1
    assert gain(g, {0, 1, 2}, 3).d_worst_parts == -1


def test_alpha_beta_gamma_pendant_elsewhere_diverges():
    # hanging the candidate off a non-critical vertex moves the critical
    # vertex, and the prediction misses the measured drop
    g = new_graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    abg = alpha_beta_gamma(g, {0, 1, 2}, 3)
    assert (abg.split_pieces, abg.attached_other_components, abg.attached_split_pieces) == (1, 0, 1)
    assert result1_delta_phat(abg) == 0
    assert gain(g, {0, 1, 2}, 3).d_worst_parts == -1


def test_alpha_beta_gamma_with_other_components():
    # path 0-1-2 plus isolated 3; candidate 4 touches both sides
    g = new_graph(5, [(0, 1), (1, 2), (0, 4), (2, 4), (3, 4)])
    abg = alpha_beta_gamma(g, {0, 1, 2, 3}, 4)
    assert abg.critical_vertex == 1
    assert (abg.split_pieces, abg.attached_other_components, abg.attached_split_pieces) == (2, 1, 2)
    assert result1_delta_phat(abg) == 1
    assert gain(g, {0, 1, 2, 3}, 4).d_worst_parts == 1
    assert predicted_worst_after(abg) == 2
    assert snapshot(g, range(5)).worst_deletion_parts == 2


def test_alpha_beta_gamma_validation(p8):
    with pytest.raises(ValueError):
        alpha_beta_gamma(p8, set(), 1)
    with pytest.raises(ValueError):
        alpha_beta_gamma(p8, {1, 2}, 1)


def test_mu_diagnostics_union_jump(c5):
    # the union gain can exceed the base gain by two
    mu = mu_diagnostics(c5, {0, 2}, {3, 4}, 1)
    assert mu.mu_total == 2
    assert mu.y_adjacent_to_b is False


def test_mu_diagnostics_validation(c5):
    with pytest.raises(ValueError):
        mu_diagnostics(c5, {0, 2}, {3, 4}, 4)
    with pytest.raises(ValueError):
        mu_diagnostics(c5, {0, 2}, {3, 4}, 0)


def test_mu_s_counts():
    # star-ish example where the two readings of S differ: w is white for A,
    # red for B alone, gray for the union
    g = new_graph(
        6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 0), (5, 4), (5, 3)]
    )
    mu = mu_diagnostics(g, {0}, {3}, 5)
    assert mu.s_b_only >= mu.s_union


def _random_subset(rng, n):
    k = rng.randint(0, n - 1)
    return set(rng.sample(range(n), k))


@given(st.integers(min_value=0, max_value=3000))
def test_gain_term_invariants(seed):
    # the domination and spanning terms never get worse when a vertex joins;
    # the deletion term drops by at most one
    g = generate(GenSpec(kind="hpath", n=4 + seed % 13, seed=seed, extra=seed % 4))
    rng = random.Random(seed)
    c = _random_subset(rng, g.n)
    outside = sorted(set(range(g.n)) - c)
    y = rng.choice(outside)
    gb = gain(g, c, y)
    assert gb.d_closed_parts >= 0
    assert gb.d_under_dominated >= 0
    assert gb.d_worst_parts >= -1
    assert gb.total >= -1


@given(st.integers(min_value=0, max_value=3000))
def test_snapshot_total_is_sum_and_floor(seed):
    g = generate(GenSpec(kind="hpath", n=4 + seed % 13, seed=seed, extra=1))
    rng = random.Random(seed + 7)
    c = _random_subset(rng, g.n) | {rng.randrange(g.n)}
    s = snapshot(g, c)
    assert s.total == s.worst_deletion_parts + s.closed_parts + s.under_dominated
    assert s.total >= 2  # one spanning component and one deletion part at least
    assert s.critical_vertex in c


def test_cycle_snapshot_values():
    c6 = new_graph(6, cycle_edges(6))
    s = snapshot(c6, {0, 2, 4})
    assert s.parts == 3
    assert s.worst_deletion_parts == 2
    assert s.closed_parts == 1
    assert s.under_dominated == 0
    assert s.total == 3

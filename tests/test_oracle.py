import random

import pytest
from hypothesis import given, strategies as st

from cds_forge import (
    ENUMERATION_CAP,
    GenSpec,
    TooLargeError,
    check_lemma_inequality,
    exact_min_cds,
    gain,
    generate,
    naive_snapshot,
    new_graph,
    snapshot,
    verify_certificate,
)

from conftest import cycle_edges


def test_naive_matches_fast_on_reference(p8, c4):
    for g, c in [
        (p8, set()),
        (p8, {3}),
        (p8, set(range(8))),
        (p8, {0, 3, 4, 6}),
        (c4, {0, 2}),
    ]:
        assert naive_snapshot(g, c) == snapshot(g, c)


def test_exact_reference(p8):
    res = exact_min_cds(p8)
    assert res.theta == 7
    assert res.optimum == frozenset(range(7))
    assert res.subsets_examined > 0
    assert res.seconds >= 0.0


def test_exact_small_graphs(triangle, c5, c6, k4):
    assert exact_min_cds(triangle).theta == 3
    assert exact_min_cds(c5).theta == 5
    assert exact_min_cds(c6).theta == 6
    res = exact_min_cds(k4)
    assert res.theta == 3
    assert res.optimum == frozenset({0, 1, 2})  # lexicographically smallest


def test_exact_higher_fold(k5):
    res = exact_min_cds(k5, m_fold=3)
    assert res.theta == 3
    assert res.optimum == frozenset({0, 1, 2})


def test_exact_optimum_is_valid(p8, c6):
    for g in (p8, c6):
        res = exact_min_cds(g)
        assert verify_certificate(g, res.optimum).valid


def test_exact_infeasible():
    # two triangles sharing nothing: no subset is biconnected and 2-fold
    # dominating at the same time
    g = new_graph(6, cycle_edges(3) + [(3, 4), (4, 5), (5, 3)])
    res = exact_min_cds(g)
    assert res.theta is None
    assert res.optimum is None


def test_exact_too_large():
    g = generate(GenSpec(kind="hpath", n=ENUMERATION_CAP + 1, seed=1))
    with pytest.raises(TooLargeError):
        exact_min_cds(g)


@pytest.mark.parametrize("m_fold", [0, 1])
def test_exact_rejects_m_fold_below_two(k4, m_fold):
    with pytest.raises(ValueError, match="m_fold must be at least 2"):
        exact_min_cds(k4, m_fold)


def test_exact_respects_budget(p8):
    res = exact_min_cds(p8, node_budget=5)
    assert res.theta is None  # optimum has 7 nodes, out of reach under 5


def test_lemma_inequality_counterexample(c5):
    res = check_lemma_inequality(c5, {0, 2}, (3, 4), 1)
    assert res.gain_on_a == -1
    assert res.gain_on_union == 1
    assert not res.holds


def test_lemma_inequality_holding_case(p8):
    res = check_lemma_inequality(p8, {3}, (4, 5), 6)
    assert res.holds
    assert res.gain_on_union <= res.gain_on_a + 1


def test_lemma_inequality_candidate_inside(p8):
    # a candidate already in the base set gains nothing either way
    res = check_lemma_inequality(p8, {3, 4}, (5, 6), 3)
    assert res.gain_on_a == 0
    assert res.holds


def test_lemma_inequality_path_validation(p8, triangle):
    with pytest.raises(ValueError):
        check_lemma_inequality(p8, {0}, (4, 4), 1)        # repeated vertex
    with pytest.raises(ValueError):
        check_lemma_inequality(p8, {0}, (4, 6), 1)        # not an edge
    with pytest.raises(ValueError):
        check_lemma_inequality(triangle, set(), (0, 1, 2), 0)  # chord 0-2
    with pytest.raises(ValueError):
        check_lemma_inequality(p8, {0}, (), 1)            # empty


def _random_subset(rng, n):
    k = rng.randint(0, n - 1)
    return set(rng.sample(range(n), k))


@given(st.integers(min_value=0, max_value=2000))
def test_naive_matches_fast_on_random_sets(seed):
    g = generate(GenSpec(kind="hpath", n=4 + seed % 11, seed=seed, extra=seed % 3))
    rng = random.Random(seed)
    c = _random_subset(rng, g.n)
    assert naive_snapshot(g, c) == snapshot(g, c)


@given(st.integers(min_value=0, max_value=800))
def test_lemma_holds_when_candidate_inside_union(seed):
    # adding a vertex of the union itself can never violate the inequality
    g = generate(GenSpec(kind="hpath", n=5 + seed % 9, seed=seed, extra=1))
    rng = random.Random(seed)
    a = _random_subset(rng, g.n)
    u = rng.randrange(g.n)
    nbrs = [w for w in g.adj[u]]
    b_path = (u, nbrs[0])
    y = u
    res = check_lemma_inequality(g, a, b_path, y)
    assert res.holds


def test_gain_agrees_with_naive_difference(p8):
    for c, y in [(set(), 3), ({3}, 6), ({3, 6}, 0), ({0, 3, 6}, 4)]:
        gb = gain(p8, c, y)
        before = naive_snapshot(p8, c)
        after = naive_snapshot(p8, c | {y})
        assert gb.total == before.total - after.total

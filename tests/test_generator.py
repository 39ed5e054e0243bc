import math

import pytest
from hypothesis import given, strategies as st

from cds_forge import (
    GenSpec,
    GenerationFailed,
    default_radius,
    generate,
    is_biconnected,
)
from cds_forge.generator import gen_geometric, gen_hpath


def test_spec_validation():
    with pytest.raises(ValueError):
        GenSpec(kind="grid", n=5, seed=0)
    with pytest.raises(ValueError):
        GenSpec(kind="hpath", n=2, seed=0)
    with pytest.raises(ValueError):
        GenSpec(kind="geometric", n=5, seed=0, radius=0.0)
    with pytest.raises(ValueError):
        GenSpec(kind="geometric", n=5, seed=0, radius=2.0)
    with pytest.raises(ValueError, match="extra must be at least 0"):
        GenSpec(kind="hpath", n=5, seed=0, extra=-1)


def test_hpath_minimum_is_triangle():
    g = gen_hpath(GenSpec(kind="hpath", n=3, seed=5))
    assert g.n == 3
    assert g.edge_count == 3


def test_hpath_deterministic():
    a = gen_hpath(GenSpec(kind="hpath", n=14, seed=99, extra=2))
    b = gen_hpath(GenSpec(kind="hpath", n=14, seed=99, extra=2))
    assert a.adj == b.adj
    c = gen_hpath(GenSpec(kind="hpath", n=14, seed=100, extra=2))
    assert a.adj != c.adj


def test_hpath_always_biconnected():
    for seed in range(40):
        g = gen_hpath(GenSpec(kind="hpath", n=5 + seed % 20, seed=seed, extra=seed % 4))
        assert g.n == 5 + seed % 20
        assert is_biconnected(g, range(g.n))


def test_geometric_deterministic_and_biconnected():
    spec = GenSpec(kind="geometric", n=25, seed=4, radius=0.4)
    a = gen_geometric(spec)
    b = gen_geometric(spec)
    assert a.adj == b.adj
    assert a.n == 25
    assert is_biconnected(a, range(a.n))


def test_geometric_gives_up_on_tiny_radius():
    with pytest.raises(GenerationFailed):
        gen_geometric(GenSpec(kind="geometric", n=30, seed=0, radius=0.01))


def test_generate_dispatch():
    g = generate(GenSpec(kind="hpath", n=6, seed=1))
    assert g.n == 6
    h = generate(GenSpec(kind="geometric", n=12, seed=1, radius=0.6))
    assert h.n == 12


def test_default_radius():
    assert default_radius(20) > default_radius(100)
    assert default_radius(10 ** 5) == pytest.approx(0.16)
    n = 50
    expected = max(0.16, 1.6 * math.sqrt(math.log(n) / (math.pi * n)))
    assert default_radius(n) == pytest.approx(expected)
    # the default works in practice at moderate sizes
    g = gen_geometric(GenSpec(kind="geometric", n=60, seed=2, radius=default_radius(60)))
    assert is_biconnected(g, range(g.n))


@given(st.integers(min_value=0, max_value=5000))
def test_hpath_property(seed):
    n = 4 + seed % 25
    g = gen_hpath(GenSpec(kind="hpath", n=n, seed=seed, extra=seed % 5))
    assert g.n == n
    assert is_biconnected(g, range(n))
    assert g.edge_count >= n

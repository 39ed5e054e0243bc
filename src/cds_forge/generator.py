"""Instance factories.

Two families: `hpath` grows a random cycle by repeatedly gluing on paths
whose endpoints already exist (so the result is biconnected by
construction), `geometric` scatters points in the unit square and connects
pairs within a radius, rejecting draws until one is biconnected.  Both are
deterministic in the seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .graph import Graph, is_biconnected, new_graph

_SEED_MIX = 0x9E3779B97F4A7C15


class GenerationFailed(ValueError):
    """No biconnected draw within the retry budget."""


@dataclass(frozen=True)
class GenSpec:
    kind: str  # "hpath" or "geometric"
    n: int
    seed: int
    extra: int = 0       # hpath: extra chord attempts after reaching n
    radius: float = 0.0  # geometric only

    def __post_init__(self):
        if self.kind not in ("hpath", "geometric"):
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.n < 3:
            raise ValueError("need n >= 3")
        if self.kind == "geometric" and not 0.0 < self.radius <= math.sqrt(2.0):
            raise ValueError("geometric radius must be in (0, sqrt(2)]")


def gen_hpath(spec: GenSpec) -> Graph:
    if spec.kind != "hpath":
        raise ValueError("spec is not an hpath spec")
    rng = random.Random(spec.seed)
    n = spec.n
    cycle_len = rng.randint(3, n)
    edges = [(i, (i + 1) % cycle_len) for i in range(cycle_len)]
    edge_set = {frozenset(e) for e in edges}
    vcount = cycle_len

    def add_chord():
        u = rng.randrange(vcount)
        w = rng.randrange(vcount)
        if u != w and frozenset((u, w)) not in edge_set:
            edges.append((u, w))
            edge_set.add(frozenset((u, w)))

    while vcount < n:
        u = rng.randrange(vcount)
        w = rng.randrange(vcount)
        while w == u:
            w = rng.randrange(vcount)
        internal = rng.randint(0, min(4, n - vcount))
        if internal == 0:
            if frozenset((u, w)) not in edge_set:
                edges.append((u, w))
                edge_set.add(frozenset((u, w)))
            continue
        chain = [u] + list(range(vcount, vcount + internal)) + [w]
        vcount += internal
        for a, b in zip(chain, chain[1:]):
            edges.append((a, b))
            edge_set.add(frozenset((a, b)))
    for _ in range(spec.extra):
        add_chord()

    g = new_graph(n, edges)
    assert is_biconnected(g, range(n)), "ear construction broke biconnectivity"
    return g


def gen_geometric(spec: GenSpec) -> Graph:
    if spec.kind != "geometric":
        raise ValueError("spec is not a geometric spec")
    n = spec.n
    rr = spec.radius * spec.radius
    for attempt in range(100):
        sub_seed = (spec.seed * _SEED_MIX + attempt) & 0xFFFFFFFFFFFFFFFF
        rng = random.Random(sub_seed)
        pts = [(rng.random(), rng.random()) for _ in range(n)]
        edges = []
        for u in range(n):
            xu, yu = pts[u]
            for w in range(u + 1, n):
                dx = xu - pts[w][0]
                dy = yu - pts[w][1]
                if dx * dx + dy * dy <= rr:
                    edges.append((u, w))
        if len(edges) < n:
            continue  # cannot be biconnected, skip the full check
        g = new_graph(n, edges)
        if is_biconnected(g, range(n)):
            return g
    raise GenerationFailed(
        f"no biconnected draw in 100 tries (n={n}, radius={spec.radius:g}, seed={spec.seed})"
    )


def generate(spec: GenSpec) -> Graph:
    if spec.kind == "hpath":
        return gen_hpath(spec)
    return gen_geometric(spec)


def default_radius(n: int) -> float:
    """Radius that keeps random geometric draws biconnected with decent
    probability without making them dense: the usual connectivity threshold
    scaling with a safety factor, floored for small n."""
    return max(0.16, 1.6 * math.sqrt(math.log(n) / (math.pi * n)))


def geometric_with_retry(n: int, seed: int, radius: float = 0.0) -> Graph:
    """Geometric instance at `radius` (default_radius(n) when 0), clamped to
    sqrt(2); when no biconnected draw comes out, retry at 1.25x the radius,
    three tries in all, then raise GenerationFailed."""
    r = radius if radius > 0 else default_radius(n)
    for _ in range(3):
        try:
            return generate(
                GenSpec(kind="geometric", n=n, seed=seed, radius=min(r, math.sqrt(2.0)))
            )
        except GenerationFailed:
            r *= 1.25
    raise GenerationFailed(f"no biconnected geometric draw at 3 radii (n={n}, seed={seed})")

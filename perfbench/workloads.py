"""Instance pools, one per workload, made from the run seed alone.

Every pool is a fixed ladder of sizes, the same for every seed; the seed
picks the graphs at those sizes.  Instance cost grows steeply with size
(phase 1 scales about as n^2.8 on hpath graphs, the oracle as 2^n), so if the
seed drew the sizes too, a pool's median time would swing from seed to seed
by far more than any change worth detecting.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from cds_forge import GenerationFailed, GenSpec, default_radius, generate, new_graph


@dataclass(frozen=True)
class Spec:
    """One pool entry: how to build the graph and which m_fold to solve at."""

    family: str  # hpath, geometric, grid, ladder, wheel
    n: int       # target vertex count (grid and ladder round it)
    m_fold: int
    gen_seed: int = 0
    extra: int = 0
    band: int | None = None  # sparse-hpath: the CYCLE_BANDS entry the graph must fall in


# Workload name -> whether its instance operation adds exact_min_cds and
# ratio_report.  Why each workload exists: BENCHMARK.json and README.md.
EXACT = {
    "sparse-hpath": False,
    "dense-geometric": False,
    "structured-phase2": False,
    "small-exact": True,
}


# The 16-quantiles of the cyclomatic ratio (m - n + 1) / n of hpath graphs
# with n = 150..300, from 4000 draws.  At a given n, solve time rises about
# sixfold from the lowest band to the highest, so each sparse-hpath slot is
# assigned a band and its graph is drawn inside it.
CYCLE_BANDS = (
    0.0, 0.052, 0.084, 0.113, 0.145, 0.176, 0.204, 0.234, 0.265,
    0.296, 0.326, 0.358, 0.389, 0.416, 0.448, 0.481, 1.0,
)


def _ladder(k: int, lo: int, hi: int) -> list[int]:
    """k sizes spread evenly over lo..hi, the midpoints of k equal strata."""
    width = hi - lo + 1
    return [lo + int(width * (i + 0.5) / k) for i in range(k)]


def specs(workload: str, seed: int) -> list[Spec]:
    """The pool of one workload for one seed; the same seed gives the same pool."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "sparse-hpath":
        # About one instance in four at m_fold 3, whose merged components are
        # larger.  Sizes and cycle bands run against each other, the smallest
        # graphs in the densest band, so that every instance costs about the
        # same: when costs span 50x, the pool's quantiles jump with whichever
        # instances land near them.  An m_fold 3 solve costs about 2.2x an
        # m_fold 2 solve of the same graph, so those stay in the sparser
        # bands and below n = 225.
        out = []
        for m_fold, count, top, densest in ((2, 54, 300, 15), (3, 18, 225, 6)):
            for i, n in enumerate(_ladder(count, 150, top)):
                band = densest - i * (densest + 1) // count
                out.append(Spec("hpath", n, m_fold, rng.getrandbits(32), rng.randint(0, 3), band))
        return out
    if workload == "dense-geometric":
        return [Spec("geometric", n, 2, rng.getrandbits(32)) for n in _ladder(44, 600, 1000)]
    if workload == "structured-phase2":
        # These families have one graph per size, so the seed picks how the
        # vertices are numbered, among numberings that keep the rows and the
        # rim in order: a random numbering breaks the checkerboard stall this
        # workload exists for.  Wheels stop at 300: their repair-path moves
        # scale about as n^3.
        return (
            [Spec("grid", n, 2, rng.getrandbits(32)) for n in _ladder(14, 150, 400)]
            + [Spec("ladder", n, 2, rng.getrandbits(32)) for n in _ladder(14, 150, 400)]
            + [Spec("wheel", n, 2, rng.getrandbits(32)) for n in _ladder(14, 150, 300)]
        )
    if workload == "small-exact":
        # Every family at both m_fold values.  The groups whose oracle cost is
        # nearly fixed by n (hpath and grids at m_fold 2) get the most
        # instances, so the median and the tail fall among them; geometric
        # graphs are cheaper or dearer by up to 10x at the same n.
        out = []
        for family, m_fold, count in (
            ("hpath", 2, 30), ("grid", 2, 30), ("hpath", 3, 12),
            ("geometric", 2, 12), ("geometric", 3, 12), ("grid", 3, 12),
        ):
            for n in _ladder(count, 14, 20):
                out.append(Spec(family, n, m_fold, rng.getrandbits(32), rng.randint(0, 3)))
        return out
    raise ValueError(f"unknown workload {workload!r}")


def _numbered(n: int, edges, order):
    return new_graph(n, [(order[u], order[v]) for u, v in edges])


def _grid(rows: int, cols: int, turn: int = 0):
    """rows x cols grid numbered row by row; turn 1 numbers it backwards,
    turn 2 column by column."""
    n = rows * cols
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    order = (
        range(n),
        range(n - 1, -1, -1),
        [(v % cols) * rows + v // cols for v in range(n)],
    )[turn % 3]
    return _numbered(n, edges, order)


def _wheel(n: int, shift: int):
    """Hub 0 and a rim 1..n-1 whose numbering starts `shift` places along."""
    rim = n - 1
    edges = [(0, i) for i in range(1, n)] + [(i, i % rim + 1) for i in range(1, n)]
    return _numbered(n, edges, [0] + [(v - 1 + shift) % rim + 1 for v in range(1, n)])


def _hpath(spec: Spec):
    """First hpath draw whose cyclomatic ratio falls in the spec's band; the
    closest draw if 400 tries miss it."""
    if spec.band is None:
        return generate(GenSpec("hpath", spec.n, spec.gen_seed, extra=spec.extra))
    lo, hi = CYCLE_BANDS[spec.band], CYCLE_BANDS[spec.band + 1]
    best = None
    for attempt in range(400):
        g = generate(GenSpec("hpath", spec.n, spec.gen_seed + attempt, extra=spec.extra))
        ratio = (g.edge_count - g.n + 1) / g.n
        if lo <= ratio < hi:
            return g
        miss = min(abs(ratio - lo), abs(ratio - hi))
        if best is None or miss < best[0]:
            best = (miss, g)
    return best[1]


def _geometric(n: int, seed: int):
    """Default radius with the x1.25 retry of the CLI bench; a fresh
    sub-seed if all three radii fail."""
    for attempt in range(10):
        r = default_radius(n)
        for _ in range(3):
            try:
                return generate(
                    GenSpec("geometric", n, seed + attempt, radius=min(r, math.sqrt(2.0)))
                )
            except GenerationFailed:
                r *= 1.25
    raise GenerationFailed(f"no biconnected geometric draw for n={n}, seed={seed}")


def build(spec: Spec):
    """The graph of one pool entry.  Only hpath and geometric go through
    cds_forge.generate, which has no structured kinds."""
    if spec.family == "hpath":
        return _hpath(spec)
    if spec.family == "geometric":
        return _geometric(spec.n, spec.gen_seed)
    if spec.family == "grid":
        rows = max(3, round(math.sqrt(spec.n)))
        return _grid(rows, round(spec.n / rows), spec.gen_seed)
    if spec.family == "ladder":
        return _grid(2, spec.n // 2, spec.gen_seed % 2)
    if spec.family == "wheel":
        return _wheel(spec.n, spec.gen_seed)
    raise ValueError(f"unknown family {spec.family!r}")

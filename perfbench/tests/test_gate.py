"""Checks on the benchmark's own gate and statistics."""

import dataclasses
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402  (puts the checkout's src/ on the path)
import spans  # noqa: E402

import cds_forge  # noqa: E402
import cds_forge.solver  # noqa: E402


def _instance(tmp_path, g, m_fold=2):
    path = str(tmp_path / "g.edges")
    cds_forge.write_edge_list(path, g)
    return run.Instance(path, m_fold, g.edge_count, None)


def test_dropped_backbone_vertex_counts_as_failed(tmp_path, monkeypatch):
    inst = _instance(tmp_path, cds_forge.generate(cds_forge.GenSpec("hpath", 40, 7)))
    tally = run.Tally()
    run.timed(inst, False, tally)
    assert (tally.attempted, tally.failed) == (1, 0)

    real_solve = cds_forge.solve

    def lossy_solve(g, cfg):
        sol = real_solve(g, cfg)
        return dataclasses.replace(sol, nodes=sol.nodes - {min(sol.nodes)})

    monkeypatch.setattr(cds_forge, "solve", lossy_solve)
    run.timed(inst, False, tally)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "invalid certificate" in tally.notes[0]
    assert "differs from this instance's first run" in tally.notes[0]


def test_exact_gate_passes_on_a_correct_solve(tmp_path):
    grid = cds_forge.new_graph(16, [(v, v + 1) for v in range(16) if v % 4 != 3]
                               + [(v, v + 4) for v in range(12)])
    tally = run.Tally()
    _, out = run.timed(_instance(tmp_path, grid), True, tally)
    assert tally.failed == 0
    assert out.exact.theta <= len(out.sol.nodes)


@pytest.mark.parametrize(
    "count, expected",
    [(20, 50.0), (39, 50.0), (40, 75.0), (44, 75.0), (100, 90.0), (144, 90.0),
     (200, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert run.tail_percentile(count) == expected


def test_tail_percentile_needs_twenty_samples():
    with pytest.raises(ValueError):
        run.tail_percentile(19)


def test_percentile_is_nearest_rank():
    values = list(range(1, 45))
    assert run.percentile(values, 75.0) == 33  # 11 samples above it
    assert run.percentile(values, 50.0) == 22


def test_missing_hook_leaves_its_metrics_absent(monkeypatch):
    monkeypatch.delattr(cds_forge.solver, "snapshot")
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["snapshot"]
    metrics = run.per_layer(tracer, [], [1.0], [1.0], {}, 0.0, 0)
    assert not [name for name in metrics if name.startswith("potential.")]
    assert "solver.phase1_ms" in metrics

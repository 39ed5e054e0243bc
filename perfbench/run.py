"""Solve benchmark for cds-forge: edge-list file in, certified backbone out.

    python3 perfbench/run.py --workload sparse-hpath --seed 1 --seconds 20 --trace 0

Set-up generates the workload's instance pool from the seed and writes each
instance as an edge-list file.  The timed instance operation is
read_edge_list -> solve -> an independent verify_certificate, plus
exact_min_cds and ratio_report on small-exact.  Every output is checked, and
the last line of standard output is one JSON object with the metrics:
end-to-end ones with --trace 0, per-layer ones with --trace 1.  See
perfbench/README.md for what each metric means and which layer moves it.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

_t_import = perf_counter()
try:
    import cds_forge
    import cds_forge.solver
    import cds_forge.verify
except ImportError as exc:
    sys.exit(f"perfbench needs the package source in {ROOT / 'src'}: {exc}")
IMPORT_SECONDS = perf_counter() - _t_import

from spans import Tracer  # noqa: E402
from workloads import EXACT, build, specs  # noqa: E402

GOLDEN = BENCH_DIR / "golden.json"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MOVE_KINDS = (
    "grow-small", "repair", "repair-path", "pair-merge", "path-connect", "dominate", "absorb",
)


@dataclass(frozen=True)
class Instance:
    path: str
    m_fold: int
    edges: int
    expected: str | None  # golden fingerprint, known only for the golden seed


@dataclass
class Outcome:
    g: object
    labels: tuple
    sol: object
    cert: object
    exact: object = None
    ratio: object = None


def tail_percentile(count: int) -> float:
    """Highest percentile of TAIL_LADDER with at least ten of `count`
    samples above its nearest-rank position."""
    fits = [p for p in TAIL_LADDER if count - math.ceil(p * count / 100) >= 10]
    if not fits:
        raise ValueError(f"{count} samples leave fewer than 10 beyond the median")
    return fits[-1]


def percentile(sorted_values, p: float):
    return sorted_values[math.ceil(p * len(sorted_values) / 100) - 1]


def fingerprint(labels, nodes) -> str:
    """Hash of the sorted backbone, in the vertex ids of the written file."""
    text = ",".join(str(v) for v in sorted(int(labels[u]) for u in nodes))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def digest(fingerprints) -> str:
    return hashlib.sha256("\n".join(fingerprints).encode()).hexdigest()[:16]


def operate(inst: Instance, exact: bool, record_trace: bool = False) -> Outcome:
    """The instance operation.  Calls go through the package's attributes so
    that a traced pass sees them."""
    g, labels = cds_forge.read_edge_list(inst.path)
    sol = cds_forge.solve(g, cds_forge.SolveConfig(m_fold=inst.m_fold, record_trace=record_trace))
    out = Outcome(g, labels, sol, cds_forge.verify_certificate(g, sol.nodes, inst.m_fold))
    if exact:
        out.exact = cds_forge.exact_min_cds(g, inst.m_fold)
        out.ratio = cds_forge.ratio_report(
            g.n, g.max_degree, len(sol.nodes), out.exact.theta, inst.m_fold
        )
    return out


def failures(inst: Instance, out: Outcome) -> list[str]:
    """Why this outcome is wrong; empty when it passes every gate."""
    reasons = []
    if not out.cert.valid:
        reasons.append("invalid certificate: " + "; ".join(out.cert.reasons))
    if not out.sol.certificate.valid:
        reasons.append("solver's own certificate is invalid")
    if out.exact is not None:
        theta = out.exact.theta
        if theta is None:
            reasons.append("oracle found no backbone")
        else:
            if len(out.sol.nodes) < theta:
                reasons.append(f"greedy size {len(out.sol.nodes)} below theta {theta}")
            # the module's own name, so a traced pass does not count this check
            if not cds_forge.verify.verify_certificate(out.g, out.exact.optimum, inst.m_fold).valid:
                reasons.append("oracle optimum fails its certificate")
    if inst.expected is not None and fingerprint(out.labels, out.sol.nodes) != inst.expected:
        reasons.append("fingerprint differs from the golden file")
    return reasons


class Tally:
    """Attempted and failed operations, with the first few reasons kept."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.first_fp: dict[str, str] = {}  # path -> fingerprint of its first run

    def add(self, inst: Instance, reasons: list[str]) -> None:
        self.attempted += 1
        if reasons:
            self.failed += 1
            if len(self.notes) < 5:
                self.notes.append(f"{inst.path}: {'; '.join(reasons)}")


def timed(inst: Instance, exact: bool, tally: Tally, record_trace: bool = False):
    """Run and check one operation; returns (seconds, outcome or None)."""
    gc.collect()
    t0 = perf_counter()
    try:
        out = operate(inst, exact, record_trace)
    except Exception:
        dt = perf_counter() - t0
        tally.add(inst, ["exception: " + traceback.format_exc(limit=3).strip().splitlines()[-1]])
        return dt, None
    dt = perf_counter() - t0
    reasons = failures(inst, out)
    fp = fingerprint(out.labels, out.sol.nodes)
    if tally.first_fp.setdefault(inst.path, fp) != fp:
        reasons.append("backbone differs from this instance's first run")
    tally.add(inst, reasons)
    return dt, out


def golden_fingerprints(workload: str, seed: int):
    if not GOLDEN.exists():
        return None
    data = json.loads(GOLDEN.read_text())
    if data["seed"] != seed:
        return None
    return data["fingerprints"].get(workload)


def set_up(workload: str, seed: int, workdir: Path, tally: Tally, expected=None):
    """Build the pool, write it as edge lists and warm up, SETUP_REPEATS
    times.  `expected` holds golden fingerprints in pool order, if known.
    Returns (pool, median set-up seconds, median generation ms)."""
    pool_specs = specs(workload, seed)
    if expected is not None and len(expected) != len(pool_specs):
        raise SystemExit(f"{GOLDEN} does not match the {workload} pool; rewrite it")
    exact = EXACT[workload]
    workdir.mkdir(parents=True, exist_ok=True)
    setup_s, gen_ms = [], []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        gen = 0.0
        pool = []
        for i, spec in enumerate(pool_specs):
            t_gen = perf_counter()
            g = build(spec)
            gen += perf_counter() - t_gen
            path = str(workdir / f"{i:03d}.edges")
            cds_forge.write_edge_list(path, g, comments=(f"{spec} m_fold={spec.m_fold}",))
            pool.append(Instance(path, spec.m_fold, g.edge_count, expected[i] if expected else None))
        timed(pool[0], exact, tally)
        setup_s.append(IMPORT_SECONDS + perf_counter() - t0)
        gen_ms.append(gen * 1000.0)
    return pool, statistics.median(setup_s), statistics.median(gen_ms)


def one_pass(pool, exact: bool, tally: Tally, record_trace: bool = False):
    """Each instance once, in pool order: (seconds per instance, outcomes
    reduced to what the metrics need)."""
    seconds, kept = [], []
    for inst in pool:
        dt, out = timed(inst, exact, tally, record_trace)
        seconds.append(dt)
        kept.append(None if out is None else summarize(out))
    return seconds, kept


def summarize(out: Outcome) -> dict:
    s = {
        "n": out.g.n,
        "backbone": len(out.sol.nodes),
        "phase1": len(out.sol.phase1_nodes),
        "fp": fingerprint(out.labels, out.sol.nodes),
        "moves": [step.note.split()[0] for step in out.sol.trace if step.phase == 2],
    }
    if out.exact is not None:
        s["subsets"] = out.exact.subsets_examined
        s["ratio"] = out.ratio.ratio
    return s


def end_to_end(per_instance_s, total_s, setup_s, first) -> tuple[dict, dict]:
    medians = sorted(statistics.median(ts) * 1000.0 for ts in per_instance_s)
    tail_p = tail_percentile(len(medians))
    metrics = {
        "instance_ms_p50": (statistics.median(medians), "ms"),
        "instance_ms_tail": (percentile(medians, tail_p), "ms"),
        "instances_per_s": (sum(len(ts) for ts in per_instance_s) / total_s, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "backbone_nodes_total": (sum(s["backbone"] for s in first if s), "count"),
    }
    notes = {
        "instance_ms_tail_percentile": tail_p,
        "instance_ms_tail_samples": len(medians),
        "repeats_per_instance": min(len(ts) for ts in per_instance_s),
        "instance_ms": [statistics.median(ts) * 1000.0 for ts in per_instance_s],
    }
    ratios = [s["ratio"] for s in first if s and s.get("ratio") is not None]
    if ratios:
        notes["ratio_to_theta_mean"] = statistics.fmean(ratios)
        notes["ratio_to_theta_max"] = max(ratios)
    return metrics, notes


def per_layer(tracer: Tracer, traced, untraced_s, traced_s, hist, gen_ms, edges) -> dict:
    """Per-layer metrics of one traced pass over the pool."""
    ms, calls, self_ms = tracer.ms, tracer.calls, tracer.self_ms
    done = [s for s in traced if s]
    sizes = [(s["n"], s["phase1"]) for s in done]
    candidates = sum((c + 1) * n - c * (c + 1) // 2 for n, c in sizes)
    # _dfs_splits in phase 1: one host check, one rebuild per non-empty
    # iteration, and one evaluation per candidate that survives pruning
    evals = tracer.calls_under[("greedy_phase1", "_dfs_splits")] - sum(1 + c for _, c in sizes)
    read_s = ms["read_edge_list"] / 1000.0
    exact_s = ms["exact_min_cds"] / 1000.0
    subsets = sum(s.get("subsets", 0) for s in done)
    ratios = [s["ratio"] for s in done if s.get("ratio") is not None]
    metrics = {
        "solver.phase1_ms": (ms["greedy_phase1"], "ms"),
        "solver.phase1_self_ms": (self_ms["greedy_phase1"], "ms"),
        "solver.phase1_iterations": (sum(c + 1 for _, c in sizes), "count"),
        "solver.phase1_candidates": (candidates, "count"),
        "solver.phase1_dfs_evals": (evals, "count"),
        "solver.phase1_prune_ratio": (1.0 - evals / candidates if candidates else 0.0, "ratio"),
        "graph.dfs_splits_calls": (calls["_dfs_splits"], "count"),
        "graph.dfs_splits_vertices": (tracer.dfs_vertices, "count"),
        "graph.dfs_splits_ms": (ms["_dfs_splits"], "ms"),
        "solver.phase2_ms": (ms["phase2_merge"], "ms"),
        "solver.phase2_self_ms": (self_ms["phase2_merge"], "ms"),
        "solver.phase2_moves": (sum(hist.values()), "count"),
        **{f"solver.phase2_moves.{k}": (hist.get(k, 0), "count") for k in MOVE_KINDS},
        "potential.snapshot_calls": (calls["snapshot"], "count"),
        "potential.snapshot_ms": (ms["snapshot"], "ms"),
        "verify.certificate_ms": (ms["verify_certificate"], "ms"),
        "oracle.exact_ms": (ms["exact_min_cds"], "ms"),
        "oracle.subsets_examined": (subsets, "count"),
        "oracle.subsets_per_s": (subsets / exact_s if exact_s else 0.0, "1/s"),
        "oracle.ratio_to_theta_mean": (statistics.fmean(ratios) if ratios else 0.0, "ratio"),
        "oracle.ratio_to_theta_max": (max(ratios, default=0.0), "ratio"),
        "fileio.read_ms": (ms["read_edge_list"], "ms"),
        "fileio.edges_per_s": (edges / read_s if read_s else 0.0, "1/s"),
        "generator.generate_ms": (gen_ms, "ms"),
        "trace.overhead_ratio": (statistics.median(traced_s) / statistics.median(untraced_s), "ratio"),
    }
    for kernel in ("induced_components", "split_counts", "restricted_shortest_path"):
        metrics[f"graph.{kernel}_ms"] = (ms[kernel], "ms")
        metrics[f"graph.{kernel}_calls"] = (calls[kernel], "count")
    # a hook the package no longer has leaves its metrics absent
    absent = {
        "_dfs_splits": ("graph.dfs_splits_", "solver.phase1_dfs_evals", "solver.phase1_prune_ratio"),
        "greedy_phase1": ("solver.phase1_",),
        "phase2_merge": ("solver.phase2_ms", "solver.phase2_self_ms"),
        "snapshot": ("potential.",),
        "verify_certificate": ("verify.",),
        "exact_min_cds": ("oracle.exact_ms", "oracle.subsets_per_s"),
        "read_edge_list": ("fileio.",),
        "induced_components": ("graph.induced_components_",),
        "split_counts": ("graph.split_counts_",),
        "restricted_shortest_path": ("graph.restricted_shortest_path_",),
    }
    for hook in tracer.missing:
        for prefix in absent.get(hook, ()):
            for name in [k for k in metrics if k.startswith(prefix)]:
                del metrics[name]
    return metrics


def run_context(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    exact = EXACT[workload]
    tally = Tally()
    workdir = WORK / f"{workload}-{os.getpid()}"
    try:
        return _measure(workload, seed, seconds, trace, exact, tally, workdir)
    finally:
        # outside every timed region: on some file systems each unlink costs
        # tens of milliseconds
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(workload, seed, seconds, trace, exact, tally, workdir) -> dict:
    expected = golden_fingerprints(workload, seed)
    pool, setup_s, gen_ms = set_up(workload, seed, workdir, tally, expected)
    first_s, first = one_pass(pool, exact, tally)
    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced_s, traced = one_pass(pool, exact, tally)
        finally:
            tracer.uninstall()
        # the move histogram comes from solves that record their trace; the
        # tally checks that recording does not change a backbone
        _, recorded = one_pass(pool, False, tally, record_trace=True)
        hist = Counter(kind for s in recorded if s for kind in s["moves"])
        edges = sum(inst.edges for inst in pool)
        metrics = per_layer(tracer, traced, first_s, traced_s, hist, gen_ms, edges)
        notes = {"absent_hooks": tracer.missing}
    else:
        per_instance = [[t] for t in first_s]
        elapsed = sum(first_s)
        passes = 1
        while elapsed * (passes + 1) / passes <= seconds:
            again_s, _ = one_pass(pool, exact, tally)
            for ts, t in zip(per_instance, again_s):
                ts.append(t)
            elapsed += sum(again_s)
            passes += 1
        metrics, notes = end_to_end(per_instance, elapsed, setup_s, first)
    fps = [s["fp"] if s else "error" for s in first]
    notes.update(
        workload=workload,
        instances=len(pool),
        fingerprint_digest=digest(fps),
        fingerprints=fps,
        failed_share=tally.failed / tally.attempted,
        failures=tally.notes,
        **run_context(seed),
    )
    return {"tally": tally, "metrics": metrics, "notes": notes}


def write_golden(seed: int) -> None:
    data = {"seed": seed, "digests": {}, "fingerprints": {}}
    for workload in EXACT:
        tally = Tally()
        workdir = WORK / f"{workload}-{os.getpid()}"
        try:
            pool, _, _ = set_up(workload, seed, workdir, tally)
            _, first = one_pass(pool, EXACT[workload], tally)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if tally.failed:
            raise SystemExit(f"{workload}: {tally.failed} failed operations, golden not written")
        fps = [s["fp"] for s in first]
        data["digests"][workload] = digest(fps)
        data["fingerprints"][workload] = fps
    GOLDEN.write_text(json.dumps(data, indent=1) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(EXACT))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-golden", action="store_true",
                    help="record the fingerprints of --seed as the golden file and exit")
    args = ap.parse_args(argv)
    src = (ROOT / "src").resolve()
    if src not in Path(cds_forge.__file__).resolve().parents:
        print(f"cds_forge was imported from {cds_forge.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.write_golden:
        write_golden(args.seed)
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    tally, notes = result["tally"], result["notes"]
    WORK.mkdir(exist_ok=True)
    report = WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps({**result, "tally": vars(tally)}, indent=1, default=str) + "\n")
    for key in ("workload", "seed", "python", "nproc", "cpu_model", "instances",
                "fingerprint_digest", "failed_share"):
        print(f"{key}: {notes[key]}")
    for key in ("instance_ms_tail_percentile", "instance_ms_tail_samples",
                "repeats_per_instance", "ratio_to_theta_mean", "ratio_to_theta_max"):
        if key in notes:
            print(f"{key}: {notes[key]}")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name}: {value} {unit}")
    for note in tally.notes:
        print(f"FAILED {note}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

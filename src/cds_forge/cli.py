"""Command-line front end.

Subcommands: solve (greedy + certificate + JSON report), exact (exhaustive
optimum), gen (instance generator), bench (batch harness with CSV output),
check (randomized structural suites).

Exit codes: 0 success/valid; 1 input, option or generation error, an
output file that cannot be written, an infeasible `exact` or a failing
`check` suite; 2 invalid certificate or benchmark violations.  `bench` runs
its instances one after another.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import random
import sys
import time
from dataclasses import asdict

from .checks import SUITES
from .fileio import format_edge_list, read_edge_list, write_dot, write_edge_list
from .generator import GenerationFailed, GenSpec, default_radius, generate, geometric_with_retry
from .oracle import ENUMERATION_CAP, exact_min_cds
from .solver import NotBiconnectedInputError, SolveConfig, solve
from .verify import ratio_report

log = logging.getLogger(__name__)

CSV_HEADER = [
    "seed",
    "n",
    "max_degree",
    "greedy_size",
    "theta",
    "ratio",
    "bound_asymptotic",
    "t_phase1",
    "phase2_added",
    "fallback_used",
    "ms_solve",
    "error",
]


def _certificate_dict(cert) -> dict:
    return {
        "backbone_biconnected": cert.backbone_biconnected,
        "domination_ok": cert.domination_ok,
        "min_outside_coverage": cert.min_outside_coverage,
        "size": cert.size,
        "m_fold": cert.m_fold,
        "valid": cert.valid,
        "reasons": list(cert.reasons),
    }


def _trace_dict(step, labels) -> dict:
    out = {
        "phase": step.phase,
        "chosen": [labels[v] for v in step.chosen],
        "note": step.note,
        "f_after": step.f_after,
        "gain": None,
    }
    if step.gain is not None:
        gb = step.gain
        out["gain"] = {
            "candidate": labels[gb.candidate],
            "candidate_color": gb.candidate_color.value,
            "d_worst_parts": gb.d_worst_parts,
            "d_closed_parts": gb.d_closed_parts,
            "d_under_dominated": gb.d_under_dominated,
            "total": gb.total,
        }
    return out


def cmd_solve(args) -> int:
    try:
        g, labels = read_edge_list(args.path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.exact and g.n > ENUMERATION_CAP:
        print(
            f"error: --exact needs n <= {ENUMERATION_CAP}, got n = {g.n}",
            file=sys.stderr,
        )
        return 1
    try:
        cfg = SolveConfig(m_fold=args.m_fold, record_trace=args.trace)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    t0 = time.perf_counter()
    try:
        sol = solve(g, cfg)
    except NotBiconnectedInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    ms_solve = int((time.perf_counter() - t0) * 1000)

    report = {
        "schema": 3,
        "input": {
            "path": args.path,
            "n": g.n,
            "edges": g.edge_count,
            "max_degree": g.max_degree,
            "labels": list(labels),
        },
        "config": {
            "m_fold": args.m_fold,
            "seed": None,
        },
        "solution": {
            "nodes": [labels[v] for v in sorted(sol.nodes)],
            "size": len(sol.nodes),
            "t_phase1": sol.t_phase1,
            "phase2_added": sol.phase2_added,
            "fallback_used": sol.fallback_used,
        },
        "certificate": _certificate_dict(sol.certificate),
        "ratio_report": None,
        "timings": {"ms_solve": ms_solve},
    }
    if args.trace:
        report["trace"] = [_trace_dict(s, labels) for s in sol.trace]

    theta = None
    if args.exact:
        t1 = time.perf_counter()
        res = exact_min_cds(g, args.m_fold)
        report["timings"]["ms_exact"] = int((time.perf_counter() - t1) * 1000)
        theta = res.theta
        report["exact"] = {
            "theta": res.theta,
            "optimum": None
            if res.optimum is None
            else [labels[v] for v in sorted(res.optimum)],
            "subsets_examined": res.subsets_examined,
        }
    if len(sol.nodes) >= 3:
        report["ratio_report"] = asdict(
            ratio_report(g.n, g.max_degree, len(sol.nodes), theta, args.m_fold)
        )

    text = json.dumps(report, indent=2) + "\n"
    try:
        if args.json:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        if args.dot:
            write_dot(args.dot, g, sol.nodes, labels, args.m_fold)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if sol.certificate.valid else 2


def cmd_exact(args) -> int:
    try:
        g, labels = read_edge_list(args.path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        res = exact_min_cds(g, args.m_fold)
    except ValueError as exc:  # TooLargeError or a bad m_fold
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if res.optimum is None:
        print("infeasible: no valid backbone exists", file=sys.stderr)
        return 1
    print(f"theta={res.theta}")
    print("optimum=" + " ".join(labels[v] for v in sorted(res.optimum)))
    print(f"subsets_examined={res.subsets_examined}")
    return 0


def cmd_gen(args) -> int:
    if not args.radius >= 0:  # false for nan too
        print(f"error: --radius must be at least 0 (0 = auto), got {args.radius:g}", file=sys.stderr)
        return 1
    radius = 0.0
    if args.kind == "geometric":
        radius = args.radius if args.radius > 0 else default_radius(args.n)
        radius = min(radius, math.sqrt(2.0))
    try:
        spec = GenSpec(
            kind=args.kind, n=args.n, seed=args.seed, extra=args.extra, radius=radius
        )
        g = generate(spec)
    except (GenerationFailed, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    stats = f"n={g.n} edges={g.edge_count} max_degree={g.max_degree}"
    if args.out:
        try:
            write_edge_list(args.out, g)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(stats)
    else:
        sys.stdout.write(format_edge_list(g))
        print(stats, file=sys.stderr)
    return 0


def _bench_row(args, cfg: SolveConfig, i: int) -> dict:
    """Generate, solve, and optionally exact-solve the i-th bench instance."""
    inst_seed = args.seed + i
    rng = random.Random(inst_seed)
    n = rng.randint(*args.n_range)
    extra = rng.randint(0, 3)
    kind = args.kind
    if kind == "mixed":
        kind = "hpath" if i % 2 == 0 else "geometric"
    row = {k: "" for k in CSV_HEADER}
    row["seed"] = inst_seed
    row["n"] = n

    if kind == "hpath":
        g = generate(GenSpec(kind="hpath", n=n, seed=inst_seed, extra=extra))
    else:
        try:
            g = geometric_with_retry(n, inst_seed, args.radius)
        except GenerationFailed:
            row["error"] = "genfail"
            return row

    t0 = time.perf_counter()
    sol = solve(g, cfg)
    row["ms_solve"] = int((time.perf_counter() - t0) * 1000)
    row["max_degree"] = g.max_degree
    row["greedy_size"] = len(sol.nodes)
    row["t_phase1"] = sol.t_phase1
    row["phase2_added"] = sol.phase2_added
    row["fallback_used"] = int(sol.fallback_used)
    if not sol.certificate.valid:
        row["error"] = "invalid-certificate"
    theta = None
    if 0 < args.exact_max_n and n <= args.exact_max_n and n <= ENUMERATION_CAP:
        theta = exact_min_cds(g, cfg.m_fold).theta
    rep = ratio_report(g.n, g.max_degree, len(sol.nodes), theta, cfg.m_fold)
    row["bound_asymptotic"] = f"{rep.bound_asymptotic:.6f}"
    if rep.ratio is not None:
        row["theta"] = theta
        row["ratio"] = f"{rep.ratio:.6f}"
    return row


def _parse_n_range(text: str):
    try:
        lo_s, hi_s = text.split("..")
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A..B, got {text!r}")
    if lo < 3 or hi < lo:
        raise argparse.ArgumentTypeError(f"need 3 <= A <= B, got {text!r}")
    return lo, hi


def cmd_bench(args) -> int:
    if args.count < 0:
        print(f"error: --count must be at least 0, got {args.count}", file=sys.stderr)
        return 1
    if not args.radius >= 0:  # false for nan too
        print(f"error: --radius must be at least 0 (0 = auto), got {args.radius:g}", file=sys.stderr)
        return 1
    try:
        cfg = SolveConfig(m_fold=args.m_fold, record_trace=False)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        out = open(args.csv, "w", encoding="utf-8", newline="") if args.csv else sys.stdout
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        rows = [_bench_row(args, cfg, i) for i in range(args.count)]
        writer = csv.DictWriter(out, fieldnames=CSV_HEADER, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if args.csv:
            out.close()

    ratios = [float(r["ratio"]) for r in rows if r["ratio"] != ""]
    fallbacks = sum(1 for r in rows if r["fallback_used"] == 1)
    errors = sum(1 for r in rows if r["error"] != "")
    violations = sum(
        1
        for r in rows
        if r["ratio"] != "" and float(r["ratio"]) > float(r["bound_asymptotic"]) + 1e-9
    ) + sum(1 for r in rows if r["error"] == "invalid-certificate")
    max_ratio = f"{max(ratios):.6f}" if ratios else "n/a"
    mean_ratio = f"{sum(ratios) / len(ratios):.6f}" if ratios else "n/a"
    print(
        f"instances={len(rows)} max_ratio={max_ratio} mean_ratio={mean_ratio} "
        f"fallbacks={fallbacks} errors={errors} violations={violations}",
        file=sys.stderr if not args.csv else sys.stdout,
    )
    return 2 if violations else 0


def cmd_check(args) -> int:
    if args.samples < 1:
        # a suite that checks nothing must not pass
        print(f"error: --samples must be at least 1, got {args.samples}", file=sys.stderr)
        return 1
    suite = SUITES[args.suite]
    try:
        rep = suite(args.samples, args.seed, dump_dir=args.dump_dir)
    except OSError as exc:  # a counterexample that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(
        f"suite={rep.name} samples={rep.samples} passes={rep.passes} "
        f"failures={rep.failures} advisory={'yes' if rep.advisory else 'no'}"
    )
    for note in rep.notes:
        print(f"note: {note}")
    for p in rep.counterexample_paths:
        print(f"counterexample: {p}")
    return 0 if rep.ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cds-forge",
        description="Approximate minimum 2-connected m-fold dominating sets.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="run the two-phase greedy on an edge-list file")
    ps.add_argument("path")
    ps.add_argument("--m-fold", type=int, default=2)
    ps.add_argument("--exact", action="store_true", help="also compute the optimum (n <= 20)")
    ps.add_argument("--trace", action="store_true", help="include per-step trace in the report")
    ps.add_argument("--dot", metavar="OUT", help="write a DOT rendering of the result")
    ps.add_argument("--json", metavar="OUT", help="write the JSON report here instead of stdout")
    ps.set_defaults(func=cmd_solve)

    pe = sub.add_parser("exact", help="exhaustive minimum backbone (n <= 20)")
    pe.add_argument("path")
    pe.add_argument("--m-fold", type=int, default=2)
    pe.set_defaults(func=cmd_exact)

    pg = sub.add_parser("gen", help="generate a biconnected instance")
    pg.add_argument("--kind", choices=["hpath", "geometric"], default="hpath")
    pg.add_argument("--n", type=int, required=True)
    pg.add_argument("--radius", type=float, default=0.0, help="geometric radius, 0 = auto")
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("--extra", type=int, default=0, help="extra chord attempts (hpath)")
    pg.add_argument("--out", metavar="FILE", help="write here instead of stdout")
    pg.set_defaults(func=cmd_gen)

    pb = sub.add_parser("bench", help="batch-solve random instances, emit CSV")
    pb.add_argument("--count", type=int, default=100)
    pb.add_argument("--n-range", type=_parse_n_range, default=(8, 12), metavar="A..B")
    pb.add_argument("--kind", choices=["hpath", "geometric", "mixed"], default="mixed")
    pb.add_argument("--seed", type=int, default=0)
    pb.add_argument("--exact-max-n", type=int, default=0, help="exact-solve instances up to this n")
    pb.add_argument("--csv", metavar="OUT", help="write CSV here instead of stdout")
    pb.add_argument("--m-fold", type=int, default=2)
    pb.add_argument("--radius", type=float, default=0.0, help="geometric radius, 0 = auto")
    pb.set_defaults(func=cmd_bench)

    pc = sub.add_parser("check", help="run a randomized structural suite")
    pc.add_argument("--suite", choices=sorted(SUITES), required=True)
    pc.add_argument("--samples", type=int, default=500)
    pc.add_argument("--seed", type=int, default=0)
    pc.add_argument("--dump-dir", default="counterexamples")
    pc.set_defaults(func=cmd_check)
    return p


def main(argv=None) -> int:
    if not logging.getLogger().handlers:
        logging.basicConfig(level=logging.WARNING, format="%(levelname)s: %(message)s")
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

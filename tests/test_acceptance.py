"""Acceptance run.

One test per shipping criterion, each printing a single verdict line
("criterion N: PASS/FAIL (...)").  Three criteria assert claims that are
false in general; they fail here honestly and every counterexample found on
the way is written to acceptance_artifacts/ as an edge-list file.  The
README walks through why those claims cannot hold.
"""

import hashlib
import json
import math
import os
import time

import pytest

from cds_forge import (
    GenSpec,
    SolveConfig,
    default_radius,
    exact_min_cds,
    gain,
    generate,
    read_edge_list,
    snapshot,
    solve,
    write_edge_list,
)
from cds_forge.checks import (
    run_ear_equiv,
    run_lemma3,
    run_monotone,
    run_phat_oracle,
    run_split_identity,
)
from cds_forge.generator import geometric_with_retry

BASE = 20260814
ARTIFACTS = os.path.join(os.path.dirname(__file__), "..", "acceptance_artifacts")
GOLDEN_CORPUS = os.path.join(os.path.dirname(__file__), "golden_corpus.json")

CORPUS_SIZE = 1000
SAMPLES = 10000


def _verdict(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def _gen_instance(seed, n, kind):
    if kind == "hpath":
        return generate(GenSpec(kind="hpath", n=n, seed=seed, extra=seed % 4))
    return geometric_with_retry(n, seed)


def _solve_corpus():
    import random

    rng = random.Random(BASE)
    rows = []
    for i in range(CORPUS_SIZE):
        seed = BASE + i
        n = rng.randint(10, 100)
        kind = "hpath" if i % 2 == 0 else "geometric"
        g = _gen_instance(seed, n, kind)
        rows.append((seed, g, solve(g)))
    return rows


def _corpus_digests(rows):
    """One digest of (phase-1 set, backbone) per corpus seed."""
    return {
        str(seed): hashlib.sha256(
            f"{sorted(sol.phase1_nodes)}|{sorted(sol.nodes)}".encode()
        ).hexdigest()[:16]
        for seed, _, sol in rows
    }


@pytest.fixture(scope="session")
def solved_corpus():
    os.makedirs(ARTIFACTS, exist_ok=True)
    t0 = time.perf_counter()
    rows = _solve_corpus()
    elapsed = time.perf_counter() - t0
    return rows, elapsed


def test_criterion_01_corpus_all_valid(solved_corpus):
    rows, elapsed = solved_corpus
    invalid = [seed for seed, _, sol in rows if not sol.certificate.valid]
    ok = _verdict(
        1,
        not invalid and elapsed < 300,
        f"{len(rows) - len(invalid)}/{len(rows)} valid certificates "
        f"in {elapsed:.1f}s",
    )
    assert ok


def test_corpus_choices_match_golden(solved_corpus):
    # determinism guard: a change that keeps every greedy choice keeps every
    # digest; one that changes choices on purpose rewrites the file with
    # `PYTHONPATH=src python tests/test_acceptance.py --write-golden`
    rows, _ = solved_corpus
    with open(GOLDEN_CORPUS) as fh:
        golden = json.load(fh)
    got = _corpus_digests(rows)
    changed = sorted(seed for seed in got if golden.get(seed) != got[seed])
    assert got.keys() == golden.keys()
    assert not changed, f"{len(changed)} seeds changed their choices, first {changed[:5]}"


def test_criterion_02_phase1_postconditions(solved_corpus):
    rows, _ = solved_corpus
    dominated = sum(1 for _, _, sol in rows if sol.phase1_under_dominated == 0)
    biconnected = sum(
        1 for _, _, sol in rows if sol.phase1_all_components_biconnected
    )
    for kind, keep in (
        ("underdominated", lambda sol: sol.phase1_under_dominated > 0),
        ("nonbiconnected", lambda sol: not sol.phase1_all_components_biconnected),
    ):
        shipped = 0
        for seed, g, sol in rows:
            if shipped == 3 or not keep(sol):
                continue
            write_edge_list(
                os.path.join(ARTIFACTS, f"phase1-{kind}-{seed}.edges"),
                g,
                comments=(
                    f"phase-1 endpoint {sorted(sol.phase1_nodes)}",
                    f"under-dominated outsiders: {sol.phase1_under_dominated}",
                    f"component sizes: {sol.phase1_component_sizes}",
                ),
            )
            shipped += 1
    ok = _verdict(
        2,
        dominated == len(rows) and biconnected == len(rows),
        f"everything dominated at phase-1 end on {dominated}/{len(rows)}, "
        f"all stall components biconnected on {biconnected}/{len(rows)}",
    )
    assert ok


def test_criterion_03_monotonicity(solved_corpus):
    rep = run_monotone(SAMPLES, BASE, dump_dir=ARTIFACTS)
    rows, _ = solved_corpus
    accepted_ok = all(
        step.gain.total >= 1
        for _, _, sol in rows
        for step in sol.trace
        if step.phase == 1
    )
    ok = _verdict(
        3,
        rep.failures == 0 and accepted_ok,
        f"gain nonnegative on {rep.passes}/{rep.samples} random samples; "
        f"every accepted step gained >= 1: {'yes' if accepted_ok else 'no'}",
    )
    assert ok


def test_criterion_04_union_path_inequality():
    rep = run_lemma3(SAMPLES, BASE, dump_dir=ARTIFACTS)
    ok = _verdict(
        4,
        rep.failures == 0,
        f"union gain within base gain + 1 on {rep.passes}/{rep.samples} samples",
    )
    assert ok


def test_criterion_05_oracle_equivalence():
    rep = run_phat_oracle(SAMPLES, BASE, dump_dir=ARTIFACTS)
    ok = _verdict(
        5,
        rep.failures == 0,
        f"fast snapshot equals the naive one on {rep.passes}/{rep.samples} samples",
    )
    assert ok


def test_criterion_06_ratio_bound():
    import random

    rng = random.Random(BASE + 10_000)
    worst = 0.0
    total = 0.0
    count = 200
    for i in range(count):
        seed = BASE + 10_000 + i
        n = rng.randint(8, 12)
        kind = "hpath" if i % 2 == 0 else "geometric"
        g = _gen_instance(seed, n, kind)
        sol = solve(g, SolveConfig(record_trace=False))
        theta = exact_min_cds(g).theta
        ratio = len(sol.nodes) / theta
        bound = 3 + math.log(g.max_degree + 2)
        assert ratio <= bound + 1e-9, f"seed {seed}: ratio {ratio} above {bound}"
        worst = max(worst, ratio)
        total += ratio
    ok = _verdict(
        6,
        True,
        f"{count}/{count} instances within 3+ln(max_degree+2); "
        f"max ratio {worst:.3f}, mean {total / count:.3f}",
    )
    assert ok


def test_criterion_07_phase2_budget(solved_corpus):
    rows, _ = solved_corpus
    fallbacks = [(seed, g, sol) for seed, g, sol in rows if sol.fallback_used]
    over_budget = [
        (seed, g, sol)
        for seed, g, sol in rows
        if not sol.fallback_used and sol.phase2_added > 2 * sol.t_phase1
    ]
    for tag, bad in (("fallback", fallbacks), ("overbudget", over_budget)):
        for seed, g, sol in bad[:3]:
            write_edge_list(
                os.path.join(ARTIFACTS, f"phase2-{tag}-{seed}.edges"),
                g,
                comments=(
                    f"t_phase1={sol.t_phase1} phase2_added={sol.phase2_added} "
                    f"fallback={sol.fallback_used}",
                ),
            )
    ok = _verdict(
        7,
        not over_budget,
        f"additions within twice the stall component count on "
        f"{len(rows) - len(over_budget) - len(fallbacks)}/{len(rows) - len(fallbacks)} "
        f"fallback-free instances; fallback used on {len(fallbacks)}/{len(rows)}",
    )
    assert ok


def test_criterion_08_reference_graph(tmp_path):
    path = tmp_path / "reference.edges"
    path.write_text(
        "8 10\n1 2\n1 3\n2 4\n3 4\n4 5\n5 6\n6 7\n2 7\n7 8\n4 8\n"
    )
    g, labels = read_edge_list(str(path))
    assert snapshot(g, set()).total == 16
    sol = solve(g)
    first = next(s for s in sol.trace if s.phase == 1)
    first_label = labels[first.chosen[0]]
    res = exact_min_cds(g)
    optimum_labels = {labels[v] for v in res.optimum}
    ok = _verdict(
        8,
        first_label == "4"
        and first.gain.total == 5
        and res.theta == 7
        and optimum_labels == {"1", "2", "3", "4", "5", "6", "7"}
        and sol.certificate.valid,
        f"first pick {first_label} with gain {first.gain.total}, "
        f"theta {res.theta}, certificate valid {sol.certificate.valid}",
    )
    assert ok


def test_criterion_09_structural_equivalences():
    ears = run_ear_equiv(1000, BASE, dump_dir=ARTIFACTS)
    splits = run_split_identity(SAMPLES, BASE, dump_dir=ARTIFACTS)
    ok = _verdict(
        9,
        ears.failures == 0 and splits.failures == 0,
        f"ear decomposition matched biconnectivity on {ears.passes}/{ears.samples}; "
        f"split reconstruction matched deletion on {splits.passes}/{splits.samples}",
    )
    assert ok


def test_criterion_10_performance():
    g = generate(GenSpec(kind="geometric", n=500, seed=9, radius=default_radius(500)))
    t0 = time.perf_counter()
    sol = solve(g, SolveConfig(record_trace=False))
    solve_s = time.perf_counter() - t0
    assert sol.certificate.valid

    g14 = generate(GenSpec(kind="hpath", n=14, seed=3, extra=2))
    t1 = time.perf_counter()
    res = exact_min_cds(g14)
    exact_s = time.perf_counter() - t1
    ok = _verdict(
        10,
        solve_s < 10 and exact_s < 60,
        f"n=500 greedy in {solve_s:.2f}s, n=14 exact in {exact_s:.2f}s "
        f"(theta {res.theta})",
    )
    assert ok


if __name__ == "__main__":
    import sys

    if sys.argv[1:] != ["--write-golden"]:
        sys.exit("usage: python tests/test_acceptance.py --write-golden")
    with open(GOLDEN_CORPUS, "w") as fh:
        json.dump(_corpus_digests(_solve_corpus()), fh, indent=0, sort_keys=True)
        fh.write("\n")

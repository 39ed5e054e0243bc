import json
import subprocess
import sys

import pytest

from cds_forge import is_biconnected, read_edge_list

P8_FILE = """8 10
1 2
1 3
2 4
3 4
4 5
5 6
6 7
2 7
7 8
4 8
"""


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "cds_forge.cli", *args],
        capture_output=True,
        text=True,
    )


@pytest.fixture
def p8_path(tmp_path):
    path = tmp_path / "p8.edges"
    path.write_text(P8_FILE)
    return str(path)


def test_solve_report(p8_path, tmp_path):
    out = tmp_path / "report.json"
    res = run_cli("solve", p8_path, "--exact", "--trace", "--json", str(out))
    assert res.returncode == 0, res.stderr
    rep = json.loads(out.read_text())
    assert rep["schema"] == 3
    assert rep["input"]["n"] == 8
    assert rep["input"]["max_degree"] == 4
    assert rep["solution"]["nodes"] == ["1", "2", "3", "4", "5", "6", "7"]
    assert rep["solution"]["size"] == 7
    assert rep["certificate"]["valid"] is True
    assert rep["exact"]["theta"] == 7
    assert rep["exact"]["optimum"] == ["1", "2", "3", "4", "5", "6", "7"]
    assert rep["ratio_report"]["ratio"] == pytest.approx(1.0)
    # original labels all the way down, first pick included
    first = rep["trace"][0]
    assert first["phase"] == 1
    assert first["chosen"] == ["4"]
    assert first["gain"]["total"] == 5


def test_solve_prints_to_stdout_without_json_flag(p8_path):
    res = run_cli("solve", p8_path)
    assert res.returncode == 0
    rep = json.loads(res.stdout)
    assert rep["schema"] == 3
    assert "trace" not in rep
    assert "exact" not in rep


def test_solve_dot_output(tmp_path):
    path = tmp_path / "tri.edges"
    path.write_text("3 3\na b\nb c\nc a\n")
    dot = tmp_path / "tri.dot"
    res = run_cli("solve", str(path), "--dot", str(dot))
    assert res.returncode == 0
    text = dot.read_text()
    assert text.count("fillcolor=black") == 3


def test_solve_input_errors(tmp_path):
    loop = tmp_path / "loop.edges"
    loop.write_text("3 3\na b\nb b\nb c\n")
    res = run_cli("solve", str(loop))
    assert res.returncode == 1
    assert "loop.edges:3" in res.stderr

    cut = tmp_path / "cut.edges"
    cut.write_text("4 4\n0 1\n1 2\n2 3\n3 1\n")
    res = run_cli("solve", str(cut))
    assert res.returncode == 1
    assert "cut vertex" in res.stderr

    res = run_cli("solve", str(tmp_path / "missing.edges"))
    assert res.returncode == 1

    res = run_cli("solve", str(cut), "--m-fold", "1")
    assert res.returncode == 1


def test_solve_exact_cap(tmp_path):
    gen = run_cli("gen", "--n", "25", "--seed", "1", "--out", str(tmp_path / "g.edges"))
    assert gen.returncode == 0
    res = run_cli("solve", str(tmp_path / "g.edges"), "--exact")
    assert res.returncode == 1
    assert "n <= 20" in res.stderr


def test_exact_command(p8_path):
    res = run_cli("exact", p8_path)
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert lines[0] == "theta=7"
    assert lines[1] == "optimum=1 2 3 4 5 6 7"


def test_exact_infeasible(tmp_path):
    path = tmp_path / "twotri.edges"
    path.write_text("6 6\n0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n")
    res = run_cli("exact", str(path))
    assert res.returncode == 1
    assert "infeasible" in res.stderr


def test_exact_too_large(tmp_path):
    run_cli("gen", "--n", "25", "--seed", "2", "--out", str(tmp_path / "big.edges"))
    res = run_cli("exact", str(tmp_path / "big.edges"))
    assert res.returncode == 1
    assert "exceeds" in res.stderr


@pytest.mark.parametrize("m_fold", ["0", "1"])
def test_exact_rejects_bad_m_fold(tmp_path, m_fold):
    path = tmp_path / "chorded_c4.edges"
    path.write_text("4 5\n1 2\n2 3\n3 4\n4 1\n1 3\n")
    res = run_cli("exact", str(path), "--m-fold", m_fold)
    assert res.returncode == 1
    assert "error: m_fold must be at least 2" in res.stderr
    assert "Traceback" not in res.stderr
    assert res.stdout == ""


def test_gen_writes_biconnected_instances(tmp_path):
    out = tmp_path / "h.edges"
    res = run_cli("gen", "--kind", "hpath", "--n", "15", "--seed", "3", "--out", str(out))
    assert res.returncode == 0
    assert "n=15" in res.stdout
    g, _ = read_edge_list(str(out))
    assert g.n == 15
    assert is_biconnected(g, range(g.n))

    twice = tmp_path / "h2.edges"
    run_cli("gen", "--kind", "hpath", "--n", "15", "--seed", "3", "--out", str(twice))
    assert out.read_text() == twice.read_text()


def test_gen_stdout_and_failure(tmp_path):
    res = run_cli("gen", "--kind", "geometric", "--n", "12", "--seed", "5")
    assert res.returncode == 0
    assert res.stdout.startswith("12 ")

    res = run_cli("gen", "--kind", "geometric", "--n", "30", "--radius", "0.01", "--seed", "5")
    assert res.returncode == 1


def test_bench_csv(tmp_path):
    out = tmp_path / "b.csv"
    res = run_cli(
        "bench", "--count", "5", "--n-range", "8..12", "--exact-max-n", "12",
        "--seed", "7", "--csv", str(out),
    )
    assert res.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == (
        "seed,n,max_degree,greedy_size,theta,ratio,bound_asymptotic,"
        "t_phase1,phase2_added,fallback_used,ms_solve,error"
    )
    assert len(lines) == 6
    seeds = [int(l.split(",")[0]) for l in lines[1:]]
    assert seeds == sorted(seeds)
    assert "violations=0" in res.stdout


def test_bench_empty(tmp_path):
    out = tmp_path / "empty.csv"
    res = run_cli("bench", "--count", "0", "--csv", str(out))
    assert res.returncode == 0
    assert out.read_text().splitlines() == [
        "seed,n,max_degree,greedy_size,theta,ratio,bound_asymptotic,"
        "t_phase1,phase2_added,fallback_used,ms_solve,error"
    ]


BENCH_GOLDEN = """\
seed,n,max_degree,greedy_size,theta,ratio,bound_asymptotic,t_phase1,phase2_added,fallback_used,error
3,11,4,11,8,1.375000,4.791759,5,6,0,
4,11,6,8,8,1.000000,5.079442,1,3,1,
5,14,3,11,,,4.609438,1,0,0,
6,14,,,,,,,,,genfail
7,12,3,12,11,1.090909,4.609438,3,4,0,
8,11,,,,,,,,,genfail
9,13,5,11,,,4.945910,1,2,0,
10,14,9,7,,,5.397895,2,2,0,
11,13,4,13,,,4.791759,6,7,1,
12,13,,,,,,,,,genfail
13,12,7,9,8,1.125000,5.197225,4,5,0,
14,10,,,,,,,,,genfail
"""


def test_bench_golden_rows():
    # hpath rows (odd seeds), geometric rows of which seeds 4 and 10 need the
    # third radius, genfail rows, theta/ratio rows and fallback_used=1 rows
    res = run_cli(
        "bench", "--kind", "mixed", "--radius", "0.21", "--n-range", "10..14",
        "--seed", "3", "--count", "12", "--exact-max-n", "12",
    )
    assert res.returncode == 0, res.stderr
    rows = []
    for line in res.stdout.splitlines():
        cols = line.split(",")
        del cols[10]
        rows.append(",".join(cols) + "\n")
    assert "".join(rows) == BENCH_GOLDEN
    assert res.stderr.splitlines() == [
        "instances=12 max_ratio=1.375000 mean_ratio=1.147727 "
        "fallbacks=2 errors=4 violations=0"
    ]


def test_bench_rejects_bad_m_fold():
    res = run_cli("bench", "--count", "2", "--m-fold", "1")
    assert res.returncode == 1
    assert "error: m_fold must be at least 2" in res.stderr
    assert "Traceback" not in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize(
    "args, want",
    [
        ("check --suite ear-equiv --samples -3", "--samples must be at least 1, got -3"),
        ("check --suite phat-oracle --samples 0", "--samples must be at least 1, got 0"),
        ("bench --count -2", "--count must be at least 0, got -2"),
    ],
    ids=["check-negative", "check-zero", "bench-negative"],
)
def test_counts_that_run_nothing_are_rejected(tmp_path, args, want):
    # `bench --count 0` stays valid: it writes the bare header (test_bench_empty)
    res = run_cli(*args.split(), *(["--dump-dir", str(tmp_path)] if "check" in args else []))
    assert res.returncode == 1
    assert res.stderr == f"error: {want}\n"
    assert res.stdout == ""


@pytest.mark.parametrize(
    "args",
    [
        ("solve", "{p8}", "--json", "{missing}/x.json"),
        ("solve", "{p8}", "--dot", "{missing}/x.dot"),
        ("bench", "--count", "2", "--csv", "{missing}/x.csv"),
        ("gen", "--n", "10", "--out", "{missing}/x.txt"),
    ],
    ids=["solve-json", "solve-dot", "bench-csv", "gen-out"],
)
def test_unwritable_output_path(p8_path, tmp_path, args):
    missing = tmp_path / "missing"
    res = run_cli(*(a.format(p8=p8_path, missing=missing) for a in args))
    assert res.returncode == 1
    assert res.stderr.startswith("error: ")
    assert "Traceback" not in res.stderr
    assert not missing.exists()


def test_check_passing_suite(tmp_path):
    res = run_cli(
        "check", "--suite", "phat-oracle", "--samples", "150", "--seed", "3",
        "--dump-dir", str(tmp_path / "dumps"),
    )
    assert res.returncode == 0
    assert "failures=0" in res.stdout


def test_check_monotone_reports_honestly(tmp_path):
    dumps = tmp_path / "dumps"
    res = run_cli(
        "check", "--suite", "monotone", "--samples", "60", "--seed", "11",
        "--dump-dir", str(dumps),
    )
    assert res.returncode == 1
    assert "advisory=no" in res.stdout
    assert "counterexample:" in res.stdout
    assert list(dumps.glob("monotone-11-*.edges"))


def test_check_advisory_suite_exits_zero(tmp_path):
    res = run_cli(
        "check", "--suite", "result1", "--samples", "60", "--seed", "3",
        "--dump-dir", str(tmp_path / "dumps"),
    )
    assert res.returncode == 0
    assert "advisory=yes" in res.stdout

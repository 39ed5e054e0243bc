import json
import os
import subprocess
import sys

import pytest

from cds_forge import is_biconnected, read_edge_list
from cds_forge.cli import _bench_workers

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


def run_cli(*args, env_extra=None, cwd=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "cds_forge.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
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
    assert rep["schema"] == 2
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
    assert rep["schema"] == 2
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


def _strip_ms(path):
    rows = []
    for line in path.read_text().splitlines():
        cols = line.split(",")
        del cols[10]
        rows.append(",".join(cols))
    return rows


def test_bench_parallel_matches_serial(tmp_path):
    a, b = tmp_path / "serial.csv", tmp_path / "par.csv"
    args = ["bench", "--count", "6", "--n-range", "8..14", "--exact-max-n", "10", "--seed", "21"]
    assert run_cli(*args, "--csv", str(a)).returncode == 0
    assert run_cli(*args, "--csv", str(b), env_extra={"CDS_FORGE_THREADS": "3"}).returncode == 0
    assert _strip_ms(a) == _strip_ms(b)


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


def test_bench_workers_parsing():
    # only the parser is called, so no pool is ever started
    for bad in ("0", "-3", "abc"):
        with pytest.raises(ValueError, match="CDS_FORGE_THREADS"):
            _bench_workers(bad, 6)
    assert _bench_workers("100000", 6) == min(os.cpu_count() or 1, 6)
    assert _bench_workers("100000", 1) == 1
    assert _bench_workers(None, 6) == 1


def test_bench_rejects_bad_thread_count():
    res = run_cli("bench", "--count", "2", env_extra={"CDS_FORGE_THREADS": "abc"})
    assert res.returncode == 2
    assert "CDS_FORGE_THREADS" in res.stderr
    assert "Traceback" not in res.stderr

import csv
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import dillab
from dillab.cli import main
from dillab.errors import DomainError
from dillab.intmatrix import IntMatrix, pf_enclosure


@pytest.fixture
def fib_file(tmp_path):
    path = tmp_path / "fib.txt"
    path.write_text("2\n0 1\n1 1\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_pf_stdout_json(capsys, fib_file):
    code, out, err = run(capsys, "pf", fib_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["k"] == 2
    assert payload["irreducible"] is True
    assert payload["positive"] is False
    enc = payload["enclosure"]
    assert enc["lo_decimal"].startswith("1.6180339")
    assert enc["hi_decimal"].startswith("1.6180339")
    # canonical form: compact separators, sorted keys, trailing newline
    assert out.endswith("\n")
    assert '", "' not in out
    assert list(payload) == sorted(payload)


def test_pf_out_file(tmp_path, capsys, fib_file):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "pf", fib_file, "--out", str(out_path))
    assert code == 0
    assert out == ""
    assert json.loads(out_path.read_text())["k"] == 2


def test_pf_reducible_matrix_reports_without_enclosure(capsys, tmp_path):
    path = tmp_path / "red.txt"
    path.write_text("2\n1 1\n0 1\n")
    code, out, _ = run(capsys, "pf", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["irreducible"] is False
    assert "enclosure" not in payload


def test_pf_missing_file_is_io_error(capsys):
    code, _, err = run(capsys, "pf", "/nonexistent/matrix.txt")
    assert code == 3
    assert "io error" in err


def test_pf_malformed_matrix_exit_1(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2\n1 2\n3\n")
    code, _, err = run(capsys, "pf", str(path))
    assert code == 1


def test_pf_rejects_placeholder_enclosures(capsys, tmp_path):
    # mu = 5; a run of zero iterations would report the placeholder [1, 1]
    m = IntMatrix(((0, 5), (5, 0)))
    for kwargs in ({"max_iters": 0}, {"rel_width": 0}, {"rel_width": Fraction(-1, 2)}):
        with pytest.raises(DomainError):
            pf_enclosure(m, **kwargs)
    path = tmp_path / "swap.txt"
    path.write_text("2\n0 5\n5 0\n")
    for flags in (["--max-iters", "0"], ["--rel-width", "0"], ["--rel-width=-1/2"]):
        code, out, _ = run(capsys, "pf", str(path), *flags)
        assert code == 2 and out == "", flags


def test_paths_counts_and_check(capsys, fib_file):
    code, out, _ = run(capsys, "paths", fib_file, "--vertex", "1", "--d-max", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["counts"] == ["1", "1", "2", "3", "5", "8", "13", "21"]
    code, out, _ = run(
        capsys, "paths", fib_file, "-i", "1", "-d", "60", "--check"
    )
    payload = json.loads(out)
    assert payload["limit_check"]["converged"] is True


def test_paths_bad_vertex_exit_1(capsys, fib_file):
    code, _, _ = run(capsys, "paths", fib_file, "--vertex", "9", "--d-max", "5")
    assert code == 1


def test_subdivide_text_format(capsys, fib_file):
    code, out, _ = run(capsys, "subdivide", fib_file, "--vertex", "1")
    assert code == 0
    assert out == "3\n0 0 1\n1 1 0\n0 1 0\n"


def test_subdivide_json_format(capsys, fib_file):
    code, out, _ = run(
        capsys, "subdivide", fib_file, "-i", "1", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["k"] == 3
    assert payload["rows"] == [[0, 0, 1], [1, 1, 0], [0, 1, 0]]


def test_subdivide_degree_violation_exit_1(capsys, fib_file):
    code, _, err = run(capsys, "subdivide", fib_file, "--vertex", "2")
    assert code == 1
    assert "multiplicity" in err


def test_hk_root_m_mode(capsys):
    code, out, _ = run(capsys, "hk-root", "--m", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["m"] == 5
    rep = payload["bound_report"]
    assert rep["bound_holds"] is True
    assert rep["ineq1"] is True
    assert rep["ineq2"] is True
    assert rep["ineq3"] is True
    assert float(payload["root"]["hi_decimal"]) < float(rep["m_power_lo"])


def test_hk_root_st_mode(capsys):
    code, out, _ = run(capsys, "hk-root", "--s", "1", "--t", "1")
    assert code == 0
    payload = json.loads(out)
    # largest root of the quartic is (3 + sqrt 5)/2 = 2.6180339...
    assert payload["root"]["lo_decimal"].startswith("2.6180339")


def test_hk_root_rejects_nonpositive_width():
    # a subprocess with a timeout, because a width of 0 once bisected forever
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(dillab.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    for flags in (["--rel-width", "0"], ["--rel-width=-1/2"], ["--rel-width", "abc"]):
        proc = subprocess.run(
            [sys.executable, "-m", "dillab", "hk-root", "--s", "1", "--t", "1", *flags],
            capture_output=True,
            text=True,
            env=env,
            timeout=30,
        )
        assert proc.returncode == 2, (flags, proc.stderr)
        assert proc.stdout == "" and "Traceback" not in proc.stderr


def test_hk_root_flag_conflicts(capsys):
    code, _, err = run(capsys, "hk-root", "--m", "5", "--s", "1", "--t", "1")
    assert code == 2
    code, _, _ = run(capsys, "hk-root", "--s", "1")
    assert code == 2
    code, _, _ = run(capsys, "hk-root")
    assert code == 2


def test_torus_matrix_text(capsys):
    code, out, _ = run(capsys, "torus-matrix", "--n", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "10"
    assert lines[1] == "1 1 0 1 0 0 0 0 0 0"


def test_torus_matrix_verify(capsys):
    code, out, _ = run(
        capsys, "torus-matrix", "--n", "6", "--verify", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 6
    assert payload["report"]["max_col_sum"] == 9
    assert payload["report"]["max_row_sum"] == 11
    assert payload["matrix"]["k"] == 12
    code, _, _ = run(capsys, "torus-matrix", "--n", "3")
    assert code == 1


def test_cover_bound_json(capsys):
    code, out, _ = run(capsys, "cover-bound", "--g", "2", "--n", "31")
    assert code == 0
    payload = json.loads(out)
    assert payload["m"] == 5 and payload["c"] == 0
    assert float(payload["log_root_hi"]) <= float(payload["closed_form_m_hi"])


def test_cover_bound_csv_append_header_once(capsys, tmp_path):
    csv_path = tmp_path / "bounds.csv"
    for n in ("31", "32"):
        code, _, _ = run(
            capsys, "cover-bound", "--g", "2", "--n", n, "--csv", str(csv_path)
        )
        assert code == 0
    rows = list(csv.reader(io.StringIO(csv_path.read_text())))
    assert rows[0] == ["g", "n", "m", "c", "certified_log_root_hi", "closed_form_bound"]
    assert len(rows) == 3
    assert [r[1] for r in rows[1:]] == ["31", "32"]


_APPENDER = """
import os, sys, time
from dillab.cli import main
go, csv_path, n = sys.argv[1:]
open(go + "." + n, "w").close()
while not os.path.exists(go):
    time.sleep(0.001)
sys.exit(main(["cover-bound", "--g", "2", "--n", n, "--csv", csv_path]))
"""


def test_cover_bound_csv_concurrent_appends_keep_every_row(tmp_path):
    # more appenders than cores, released together once each has imported
    # dillab, so that their appends overlap
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(dillab.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    csv_path = tmp_path / "race.csv"
    go = tmp_path / "go"
    ns = [str(31 + i) for i in range(8)]
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _APPENDER, str(go), str(csv_path), n],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        for n in ns
    ]
    try:
        deadline = time.monotonic() + 60
        while not all((tmp_path / f"go.{n}").exists() for n in ns):
            assert time.monotonic() < deadline, "appenders did not start"
            time.sleep(0.01)
        go.touch()
        for proc in procs:
            _, err = proc.communicate(timeout=60)
            assert proc.returncode == 0, err
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
    rows = list(csv.reader(io.StringIO(csv_path.read_text())))
    assert rows[0] == ["g", "n", "m", "c", "certified_log_root_hi", "closed_form_bound"]
    assert sorted(r[1] for r in rows[1:]) == ns


def test_cover_bound_csv_header_mismatch_exit_1(capsys, tmp_path):
    csv_path = tmp_path / "other.csv"
    csv_path.write_text("completely,different,header\n")
    code, _, err = run(
        capsys, "cover-bound", "--g", "2", "--n", "31", "--csv", str(csv_path)
    )
    assert code == 1


def test_bounds_table_row_count(capsys):
    code, out, _ = run(capsys, "bounds", "table", "--g", "2", "--n", "31:100")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["g", "n", "lower_lo", "upper_hi", "lower_source", "upper_source"]
    assert len(rows) == 71
    for r in rows[1:]:
        assert float(r[2]) < float(r[3])


def test_bounds_table_json_and_sample(capsys):
    code, out, _ = run(
        capsys,
        "bounds", "table", "--g", "2", "--n", "31:500",
        "--sample", "10", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["rows"]) >= 10
    assert payload["rows"][0]["n"] == 31
    assert payload["rows"][-1]["n"] == 500


def test_bounds_table_bad_range(capsys):
    code, _, _ = run(capsys, "bounds", "table", "--g", "2", "--n", "31-100")
    assert code == 2


def test_lefschetz_command(capsys):
    code, out, _ = run(capsys, "lefschetz", "--g", "2", "--twists", "a1:3,a2:-1")
    assert code == 0
    payload = json.loads(out)
    assert payload["trace"] == 4
    assert payload["lefschetz_number"] == -2
    assert payload["g"] == 2


def test_lefschetz_separating_curve(capsys):
    code, out, _ = run(capsys, "lefschetz", "--g", "3", "--twists", "0:5,b2:2")
    assert code == 0
    payload = json.loads(out)
    assert payload["lefschetz_number"] == -4


def test_lefschetz_grammar_errors(capsys):
    code, _, err = run(capsys, "lefschetz", "--g", "2", "--twists", "a1")
    assert code == 2
    code, _, _ = run(capsys, "lefschetz", "--g", "2", "--twists", "a9:1")
    assert code == 2
    code, _, _ = run(capsys, "lefschetz", "--g", "2", "--twists", "a1:zero")
    assert code == 2
    # crossing classes are a domain failure, not a usage failure
    code, _, _ = run(capsys, "lefschetz", "--g", "2", "--twists", "a1:1,b1:1")
    assert code == 1


def test_verify_list(capsys):
    code, out, _ = run(capsys, "verify", "--list")
    assert code == 0
    assert "diag-power" in out
    assert "sandwich" in out


def test_verify_single_suite_passes(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "congruence-index", "--seed", "7"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    assert payload["suites"][0]["suite"] == "congruence-index"


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--suite", "bogus")
    assert code == 2
    assert "verify --list" in err


def test_verify_requires_selection(capsys):
    code, _, _ = run(capsys, "verify")
    assert code == 2


def test_verify_subdivision_suite_red(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "subdivision", "--cases", "5", "--seed", "7"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["all_passed"] is False
    assert payload["suites"][0]["shift_law_holds"] is False


def test_verify_deterministic_output(capsys):
    args = ["verify", "--suite", "multitwist", "--cases", "20", "--seed", "7"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_out_file_and_summary(capsys, tmp_path):
    out_path = tmp_path / "verify.json"
    code, out, _ = run(
        capsys,
        "verify", "--suite", "quartic-root", "--seed", "7", "--out", str(out_path),
    )
    assert code == 0
    assert "quartic-root: PASS" in out
    payload = json.loads(out_path.read_text())
    assert payload["all_passed"] is True
    assert payload["seed"] == 7


def test_verify_jobs_env(capsys, monkeypatch):
    monkeypatch.setenv("DILLAB_JOBS", "not-a-number")
    code, _, err = run(capsys, "verify", "--suite", "congruence-index")
    assert code == 2
    assert "DILLAB_JOBS" in err
    monkeypatch.setenv("DILLAB_JOBS", "0")
    code, _, _ = run(capsys, "verify", "--suite", "congruence-index")
    assert code == 2
    monkeypatch.setenv("DILLAB_JOBS", "2")
    code, _, _ = run(capsys, "verify", "--suite", "congruence-index")
    assert code == 0


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--suite", "congruence-index", "--jobs", "-3"),
        ("verify", "--suite", "congruence-index", "--jobs", "0"),
        ("verify", "--suite", "congruence-index", "--cases", "0"),
        ("bounds", "table", "--g", "2", "--n", "31:100", "--sample", "0"),
        ("bounds", "table", "--g", "2", "--n", "31:100", "--sample", "-2"),
    ],
)
def test_count_arguments_below_one_are_usage_errors(capsys, monkeypatch, argv):
    monkeypatch.delenv("DILLAB_JOBS", raising=False)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error:")


def test_version_and_no_subcommand(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    code, _, _ = run(capsys)
    assert code == 2

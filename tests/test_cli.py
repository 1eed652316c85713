import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import dillab
from dillab import bounds, cli
from dillab.cli import main
from dillab.errors import DomainError
from dillab.intmatrix import IntMatrix, parse_matrix_text, pf_enclosure


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


def test_paths_check_sweeps_once(capsys, monkeypatch, tmp_path):
    # --check resumes from the vector the count series left in the matrix's
    # count slot, so past the series' d_max products only the spectral
    # enclosure multiplies
    path = tmp_path / "graph.txt"
    path.write_text("4\n0 2 1 0\n1 0 0 1\n0 3 1 0\n1 0 0 2\n")
    argv = ("paths", str(path), "-i", "3", "-d", "40", "--check")
    code, fresh, _ = run(capsys, *argv)
    assert code == 0
    graph = cli.load_matrix(str(path))
    times = graph._times
    products = []

    def counted(v):
        products.append(len(v))
        return times(v)

    graph.__dict__["_times"] = counted
    monkeypatch.setattr(cli, "load_matrix", lambda _: graph)
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out == fresh
    iterations = pf_enclosure(IntMatrix(graph.entries)).iterations
    assert len(products) == 40 + iterations


def test_roots_too_large_to_hold_exit_1(capsys):
    # both once ended in a MemoryError traceback while shifting m**3 left by
    # 48 m bits; the refusal comes before the shift
    for argv, shift in (
        (("hk-root", "--m", str(10**11)), 48 * 10**11),
        (("cover-bound", "--g", "2", "--n", str(10**12)), 9599999999904),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "", argv
        assert err == f"error: nth_root_enclosure: n * bits = {shift} exceeds the budget of 1073741824 bits\n"


def test_pf_non_int_matrix_file_exit_1(capsys, tmp_path):
    # 1.7 and true used to be read as 1, so pf certified mu = 2 for a matrix
    # the file does not hold
    for entries in ("[[1.7, 1], [1, true]]", "[[1, 1], [1, true]]", '[[1, "3"], [1, 1]]'):
        path = tmp_path / "bad.json"
        path.write_text('{"k": 2, "rows": %s}' % entries)
        code, out, err = run(capsys, "pf", str(path))
        assert code == 1 and out == "", entries
        assert err.startswith("error: entries must be int")


def test_non_list_json_rows_exit_1(capsys, tmp_path):
    # len() of a non-list row once raised a TypeError, which main does not
    # catch, so the command died with a traceback
    path = tmp_path / "bad.json"
    for rows in ("[[0, 1], 5]", "5"):
        path.write_text('{"k": 2, "rows": %s}' % rows)
        for argv in (["pf", str(path)], ["paths", str(path), "-i", "1", "-d", "5"], ["subdivide", str(path), "-i", "1"]):
            code, out, err = run(capsys, *argv)
            assert code == 1 and out == "", (rows, argv)
            assert err.startswith("error: rows must be a list"), (rows, argv)


def test_bad_json_k_or_missing_field_exit_1(capsys, tmp_path):
    # a missing key once printed just "error: 'k'"
    path = tmp_path / "bad.json"
    for text, message in (
        ('{"k": true, "rows": [[1]]}', "error: k must be int, got bool"),
        ('{"k": 1.0, "rows": [[1]]}', "error: k must be int, got float"),
        ('{"k": "2", "rows": [[1, 1], [1, 1]]}', "error: k must be int, got str"),
        ('{"rows": [[1]]}', "error: matrix JSON lacks the field 'k'"),
        ('{"k": 1}', "error: matrix JSON lacks the field 'rows'"),
    ):
        path.write_text(text)
        code, out, err = run(capsys, "pf", str(path))
        assert code == 1 and out == "", text
        assert err.startswith(message), (text, err)


def test_json_that_is_not_an_object_exit_1(capsys, tmp_path):
    # a file holding [[1]] was once read as matrix text, and failed with
    # "invalid literal for int()"
    path = tmp_path / "bad.json"
    for text in ("[[1]]", " \n[[0, 1], [1, 1]]\n", "[]", '[{"k": 1, "rows": [[1]]}]'):
        path.write_text(text)
        for argv in (["pf", str(path)], ["paths", str(path), "-i", "1", "-d", "5"], ["subdivide", str(path), "-i", "1"]):
            code, out, err = run(capsys, *argv)
            assert code == 1 and out == "", (text, argv)
            assert err == "error: matrix JSON must be an object with the fields 'k' and 'rows'\n", (text, argv)


@pytest.mark.parametrize(
    "data, message",
    [
        (b"2\n1 1\n\n1 x\n", "error: line 4: expected integers, got '1 x'\n"),
        (b'{"k": 2 "rows": [[1, 1], [1, 0]]}', "error: cannot read matrix JSON: Expecting ',' delimiter"),
        (b"2\n1 1\n1 0\n\xd0\xff\n", "is not UTF-8 text"),
    ],
    ids=["token", "json-syntax", "not-utf-8"],
)
def test_a_matrix_file_that_does_not_read_exit_1(capsys, tmp_path, data, message):
    # each once printed the bare text of the stdlib's ValueError
    path = tmp_path / "bad.txt"
    path.write_bytes(data)
    code, out, err = run(capsys, "pf", str(path))
    assert code == 1 and out == "", err
    assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1, err
    assert message in err, err


@pytest.fixture
def digit_limit():
    """Python's default 4,300-digit limit on str(int) and int(str), set for
    the test and restored after it."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no integer string limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)


@pytest.mark.parametrize(
    "argv, digits",
    [
        # [[10**100]]: the count at d is 10**(100 d), 4,201 digits at d = 42
        (["paths", "{big}", "-i", "1", "-d", "42"], 4201),
        (["paths", "{big}", "-i", "1", "-d", "43"], 4301),
        # the JSON field alpha = theta(g) passes 4,300 digits from g = 67 on
        (["bounds", "table", "--g", "66", "--n", "3000:3001", "--format", "json"], 4189),
        (["bounds", "table", "--g", "67", "--n", "3000:3001", "--format", "json"], 4316),
        (["pf", "{wide}"], 4400),
    ],
    ids=["paths-d42", "paths-d43", "table-g66", "table-g67", "pf-4400-digits"],
)
def test_integers_past_the_digit_limit_print(capsys, tmp_path, digit_limit, argv, digits):
    # every one of these values is certified; at the limit only printing it
    # failed, with a ValueError traceback
    (tmp_path / "big.txt").write_text(f"1\n{10**100}\n")
    (tmp_path / "wide.txt").write_text("1\n" + "7" * 4400 + "\n")
    argv = [arg.format(big=tmp_path / "big.txt", wide=tmp_path / "wide.txt") for arg in argv]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == digit_limit
    sys.set_int_max_str_digits(0)
    payload = json.loads(out)
    longest = {
        "paths": lambda: payload["counts"][-1],
        "bounds": lambda: str(payload["alpha"]),
        "pf": lambda: payload["enclosure"]["lo_num"],
    }[argv[0]]()
    assert len(longest) == digits


def test_a_text_matrix_past_the_digit_limit_names_it(digit_limit):
    # from Python, where the limit holds, the message names it and does not
    # echo the line; any other bad token keeps its message
    with pytest.raises(DomainError, match=r"^line 2: Exceeds the limit \(4300 digits\)") as info:
        parse_matrix_text("1\n" + "7" * 4400 + "\n")
    assert "7777" not in str(info.value)
    with pytest.raises(DomainError, match=r"^line 2: expected integers, got '1 x'$"):
        parse_matrix_text("2\n1 x\n1 1\n")


@pytest.mark.parametrize("bug", [TypeError, ValueError, KeyError, AssertionError])
def test_a_library_bug_is_not_reported_as_a_refusal(capsys, monkeypatch, bug):
    # exit 1 means a DillabError; any other exception is a bug, and keeps its
    # traceback instead of an error line
    def broken(n):
        raise bug("a bug")

    monkeypatch.setattr(cli, "torus_matrix", broken)
    with pytest.raises(bug, match="a bug"):
        main(["torus-matrix", "--n", "6"])
    assert "error:" not in capsys.readouterr().err


def test_paths_negative_tol_is_usage_error(capsys, tmp_path):
    path = tmp_path / "ones.txt"
    path.write_text("2\n1 1\n1 1\n")
    for tol in ("--tol=-1/100", "--tol=-1/1000000"):
        code, out, err = run(capsys, "paths", str(path), "-i", "1", "-d", "8", "--check", tol)
        assert code == 2 and out == "", tol
        assert err.startswith("usage error:")
    code, out, _ = run(capsys, "paths", str(path), "-i", "1", "-d", "8", "--check", "--tol", "0")
    assert code == 0 and json.loads(out)["limit_check"]["converged"] is True


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


def test_decimals_round_outward():
    # every decimal is printed to 30 places, lower ends down and upper ends up
    third = "3" * 29
    assert cli._floor(Fraction(1, 3)) == f"0.{third}3"
    assert cli._ceil(Fraction(1, 3)) == f"0.{third}4"
    assert cli._floor(Fraction(-1, 3)) == f"-0.{third}4"
    assert cli._floor(Fraction(5, 4)) == cli._ceil(Fraction(5, 4)) == "1.25" + "0" * 28


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


def test_hk_root_refuses_root_flags_with_certified_m(capsys):
    # --m >= 5 certifies at verify_lroot's own width, so a flag that would be
    # ignored is a usage error instead
    for m in ("5", "10"):
        code, out, err = run(capsys, "hk-root", "--m", m, "--rel-width", "1/1000")
        assert code == 2, m
        assert out == "" and "--m >= 5" in err
    # below 5 and in --s/--t mode --rel-width applies, with default 1/10**10
    _, coarse, _ = run(capsys, "hk-root", "--m", "4", "--rel-width", "1/1000")
    _, default, _ = run(capsys, "hk-root", "--m", "4")
    assert coarse != default
    _, explicit, _ = run(capsys, "hk-root", "--m", "4", "--rel-width", "1/10000000000")
    assert explicit == default
    _, default, _ = run(capsys, "hk-root", "--s", "2", "--t", "3")
    _, explicit, _ = run(capsys, "hk-root", "--s", "2", "--t", "3", "--rel-width", "1/10000000000")
    assert explicit == default
    # the search bound is fixed: T(3) > 0, so the root lies below 4
    for argv in (["--s", "2", "--t", "3"], ["--m", "4"], ["--m", "5"]):
        code, out, _ = run(capsys, "hk-root", *argv, "--search-hi", "3")
        assert code == 2 and out == "", argv


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
    # a file that is not UTF-8 has no header of ours either
    for data in (b"completely,different,header\n", b"\xd0\xff,header\n"):
        csv_path.write_bytes(data)
        code, _, err = run(
            capsys, "cover-bound", "--g", "2", "--n", "31", "--csv", str(csv_path)
        )
        assert code == 1
        assert err.startswith("error: ") and "different header" in err, err


def test_cover_bound_csv_refuses_a_header_that_only_starts_with_its_own(capsys, tmp_path):
    # a seventh column after the six is another header: no six-field row
    # goes under it, and the file is left as it was
    csv_path = tmp_path / "bounds.csv"
    data = b"g,n,m,c,certified_log_root_hi,closed_form_bound,note\n2,31,5,0,1,2,x\n"
    csv_path.write_bytes(data)
    code, _, err = run(capsys, "cover-bound", "--g", "2", "--n", "31", "--csv", str(csv_path))
    assert code == 1
    assert err.startswith("error: ") and "exists with a different header" in err, err
    assert csv_path.read_bytes() == data


def test_cover_bound_csv_ends_an_unterminated_last_line_first(capsys, tmp_path):
    # a header alone, or a last row, without its newline gets one before the row
    header = b"g,n,m,c,certified_log_root_hi,closed_form_bound"
    csv_path = tmp_path / "bounds.csv"
    for data in (header, header + b"\n2,31,5,0,1,2"):
        csv_path.write_bytes(data)
        code, _, err = run(capsys, "cover-bound", "--g", "2", "--n", "32", "--csv", str(csv_path))
        assert code == 0, err
        written = csv_path.read_bytes()
        assert written.startswith(data + b"\n2,32,") and written.count(b"\n") == data.count(b"\n") + 2


def test_cover_bound_csv_append_reads_a_bounded_number_of_bytes(capsys, monkeypatch, tmp_path):
    # the header check reads the header's length from the start and the last
    # byte, not the whole file, while it holds the lock
    header = b"g,n,m,c,certified_log_root_hi,closed_form_bound\n"
    csv_path = tmp_path / "bounds.csv"
    csv_path.write_bytes(header + b"2,31,5,0,1,2\n" * 10_000)
    read = []

    def counted(real):
        def call(*args):
            data = real(*args)
            read.append(len(data))
            return data

        return call

    monkeypatch.setattr(os, "read", counted(os.read))
    monkeypatch.setattr(os, "pread", counted(os.pread))
    code, _, err = run(capsys, "cover-bound", "--g", "2", "--n", "32", "--csv", str(csv_path))
    assert code == 0, err
    assert sum(read) < 2 * len(header)
    lines = csv_path.read_bytes().split(b"\n")
    assert len(lines) == 10_003 and lines[-1] == b""
    assert lines[-3] == b"2,31,5,0,1,2" and lines[-2].startswith(b"2,32,5,1,")


def test_bounds_table_row_count(capsys):
    code, out, _ = run(capsys, "bounds", "table", "--g", "2", "--n", "31:100")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["g", "n", "lower_lo", "upper_hi", "lower_source", "upper_source"]
    assert len(rows) == 71
    for r in rows[1:]:
        assert float(r[2]) < float(r[3])


def test_bounds_table_source_labels(capsys):
    code, out, _ = run(capsys, "bounds", "table", "--g", "2", "--n", "28:35")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [int(r["n"]) for r in rows] == list(range(28, 36))
    for r in rows:
        if int(r["n"]) >= 31:
            assert r["upper_hi"] != ""
            assert r["upper_source"] == "balanced-cover-root"
        else:
            assert r["upper_hi"] == ""
            assert r["upper_source"] == "none (below construction threshold)"
        assert r["lower_source"] == "congruence-two-branch-min"
    code, out, _ = run(capsys, "bounds", "table", "--g", "2", "--n", "28:35", "--format", "json")
    assert [r["upper_hi"] is None for r in json.loads(out)["rows"]] == [True] * 3 + [False] * 5


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


def test_bounds_table_streams_csv_and_text_rows(monkeypatch):
    # each row is certified after the header and every earlier row are
    # written, so the table is never held; JSON is one document, written
    # once every row is in
    lower = bounds.thm34_lower
    for fmt, written in (("csv", list(range(1, 34))), ("text", list(range(1, 34))), ("json", [0] * 33)):
        out, seen = io.StringIO(), []
        monkeypatch.setattr(sys, "stdout", out)
        monkeypatch.setattr(
            bounds, "thm34_lower", lambda g, n, alpha: seen.append(out.getvalue().count("\n")) or lower(g, n, alpha)
        )
        assert main(["bounds", "table", "--g", "2", "--n", "28:60", "--format", fmt]) == 0, fmt
        assert seen == written, fmt
        monkeypatch.undo()


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
    # "²" is a digit that int() does not read, and an index of 5,000 digits
    # is above g
    for twists in ("a\u00b2:1", "a" + "1" * 5000 + ":1"):
        code, _, err = run(capsys, "lefschetz", "--g", "2", "--twists", twists)
        assert code == 2 and err.startswith("usage error: "), err
    # crossing classes are a domain failure, not a usage failure
    code, _, _ = run(capsys, "lefschetz", "--g", "2", "--twists", "a1:1,b1:1")
    assert code == 1


@pytest.mark.parametrize(
    "twists, err",
    [
        ("a1:0", "error: twist 0: power must be a nonzero integer\n"),
        ("a1:1,b1:1", "error: classes 0 and 1 pair to 1 != 0\n"),
    ],
)
def test_lefschetz_error_lines_are_pinned(capsys, twists, err):
    assert run(capsys, "lefschetz", "--g", "1", "--twists", twists) == (1, "", err)


@pytest.mark.parametrize("g, twists", [("0", "a1:1"), ("0", "0:1"), ("-2", "b1:1")])
def test_lefschetz_refuses_a_genus_below_1_before_reading_the_twists(capsys, g, twists):
    # the genus is refused before any twist is read, so neither a basis
    # curve's index (a usage error) nor a separating curve picks the message
    code, out, err = run(capsys, "lefschetz", "--g", g, "--twists", twists)
    assert (code, out) == (1, "")
    assert err == f"error: multitwist_action requires an int g >= 1, got {g}\n"


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


def test_verify_all_opens_one_pool(capsys, monkeypatch):
    from concurrent.futures import ProcessPoolExecutor

    from dillab import suites

    opened = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            opened.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(suites, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    reports = {}
    for jobs in (1, 2):
        opened.clear()
        code, out, _ = run(capsys, "verify", "--all", "--seed", "7", "--jobs", str(jobs))
        reports[jobs] = (code, out.encode())
        assert opened == ([] if jobs == 1 else [2])
    assert reports[1] == reports[2]


def test_verify_all_report_bytes_pinned(capsys, tmp_path):
    # the whole report at the default seed, serial and pooled; the red
    # subdivision suite makes the exit status 1
    for jobs in ("1", "2"):
        out_path = tmp_path / f"verify-{jobs}.json"
        code, out, _ = run(capsys, "verify", "--all", "--seed", "7", "--jobs", jobs, "--out", str(out_path))
        assert code == 1, jobs
        assert [line.split(":")[0] for line in out.splitlines() if "FAIL" in line] == ["subdivision"]
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == (
            "c220486c405fb5dd14d99a949e88bf129275ba544957f4e24779f95ac7c545ea"
        ), jobs


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
def test_count_arguments_below_one_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error:")


def test_version_and_no_subcommand(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    code, _, _ = run(capsys)
    assert code == 2


# Every subcommand's stdout, and the cover-bound CSV file, recorded byte for
# byte. Files are named by placeholder so no temporary path reaches a pinned
# output. The verify runs are small: they pin the "p/q" strings each suite
# carries from its worker processes into the report.
_PINNED_ARGV = (
    ("pf", "{fib}"),
    ("pf", "{fib}", "--rel-width", "1/1000", "--max-iters", "5"),
    ("pf", "{fib}", "--rel-width", "1/10000000000", "--max-iters", "2"),
    ("pf", "{reducible}"),
    ("paths", "{fib}", "-i", "1", "-d", "60", "--check"),
    ("subdivide", "{fib}", "-i", "1"),
    ("subdivide", "{fib}", "-i", "1", "--format", "json"),
    ("hk-root", "--m", "4"),
    ("hk-root", "--m", "5"),
    ("hk-root", "--m", "37"),
    ("hk-root", "--s", "2", "--t", "3", "--rel-width", "1/1000000"),
    ("torus-matrix", "--n", "6"),
    ("torus-matrix", "--n", "6", "--format", "json"),
    ("torus-matrix", "--n", "6", "--verify"),
    ("cover-bound", "--g", "2", "--n", "40", "--csv", "{csv}"),
    ("cover-bound", "--g", "3", "--n", "100", "--csv", "{csv}"),
    ("bounds", "table", "--g", "2", "--n", "28:35"),
    ("bounds", "table", "--g", "2", "--n", "28:35", "--format", "json"),
    ("bounds", "table", "--g", "2", "--n", "28:35", "--format", "text"),
    ("bounds", "table", "--g", "2", "--n", "31:2000", "--sample", "8", "--format", "json"),
    ("lefschetz", "--g", "2", "--twists", "a1:3,b2:-1,0:2"),
    ("verify", "--list"),
    ("verify", "--suite", "quartic-root", "--suite", "congruence-index"),
    ("verify", "--suite", "root-bound", "--cases", "12"),
    ("verify", "--suite", "torus-family", "--cases", "8"),
    ("verify", "--suite", "path-growth", "--cases", "3"),
    ("verify", "--suite", "path-growth", "--suite", "root-bound", "--suite", "torus-family",
     "--cases", "6", "--jobs", "2"),
)

_PINNED_SHA256 = {
    "pf {fib}": "06a28a54f231a7913f7529db6f5bc93078145efa9634e70de46618c7fec6cb50",
    "pf {fib} --rel-width 1/1000 --max-iters 5": "80934a9cd47ede36509d6fdcfe40af59004926c3ac2051ce2bfc3200e0326c8e",
    "pf {fib} --rel-width 1/10000000000 --max-iters 2": "192aafe306323ffce1c359c282955ebcd53c5786fa6eca6a448d51458ec3a6ef",
    "pf {reducible}": "2a347af24d7b6ed911af4704edf762815e00eda2c898619fa0b91e2e3746d67f",
    "paths {fib} -i 1 -d 60 --check": "26343b78ea6afaf28c85534d4ea728ed78ad201707bd24a99dd3692be871a624",
    "subdivide {fib} -i 1": "228925d49bcf0a18a81418ff601eb913317782f9f774474da8236cd2485e63c7",
    "subdivide {fib} -i 1 --format json": "f36badfecf8590d2bdd1a7235302aebe9157b8a82f748651716b4ded704d5db8",
    "hk-root --m 4": "0fab51d5c6dbe70fe1d12d3898709120c91a896f203230e25a82c1c072b5d6f6",
    "hk-root --m 5": "c52c4ce87a19a44c368a94d96ecb2a1ba5c5e96f912d51ae4425908c62254b07",
    "hk-root --m 37": "01a85662c91011120246e4d9707bb534322591a9638d90cedd38fedae1bd1aeb",
    "hk-root --s 2 --t 3 --rel-width 1/1000000": "853557a6a2f7fe4972002eb8802fa77cb4293d0b9145b90afc74e4ee1fd3735b",
    "torus-matrix --n 6": "0e1790a2ccaf00c62b3fad203924004db168cca7e9f57e608e07756f43229d00",
    "torus-matrix --n 6 --format json": "a58f000063ee9987399ae0bc17fb592bf0b95aee29874604cdb3ee483d6df457",
    "torus-matrix --n 6 --verify": "ab65df8b3f2636cc787bb0a5de5f3499ea08f940604c1b0a3ff4f1742a299362",
    "cover-bound --g 2 --n 40 --csv {csv}": "b31891e0ae87dc9649666074e9a0648311a12e204c9a551e170b236fb56b498e",
    "cover-bound --g 3 --n 100 --csv {csv}": "e88b5d57d3bc04da922b3749bc21c7998a71e5ac147e21d2561eadf8582b1a1c",
    "bounds table --g 2 --n 28:35": "ed8a8328796868ff69ad3b74b8eabd1e1f5c8070f548b5bca4b92eeec11e732f",
    "bounds table --g 2 --n 28:35 --format json": "c27485ea8327100e81e688fcd604d9f154ed4aef8dda60a76dd9b241c0e54a28",
    "bounds table --g 2 --n 28:35 --format text": "27380d543ce83fe5c952884db275d774a24e2041a0d5b685d4f35043331fe929",
    "bounds table --g 2 --n 31:2000 --sample 8 --format json": "207bf6f6f1453e46ea1524d3400c7a4dc27a090cdc47a18f56dfdf973c3b3be5",
    "lefschetz --g 2 --twists a1:3,b2:-1,0:2": "84857338ea9db4eb10639e293f39730dbcf2475b129b58ca34983e2fccf9d14b",
    "verify --list": "a799f4c000132362987a0b5a4ef0bb07356f41a3f4027ae13f6e4bd389d27d21",
    "verify --suite quartic-root --suite congruence-index": "2a8c3813237018116101eea501e203575c7421b94af55bc0958cd9da3032a469",
    "verify --suite root-bound --cases 12": "43c0cd3d34b1b51f157545b8eebf5e009f3bc8a20ac425ef4b9cf10be06ce0fc",
    "verify --suite torus-family --cases 8": "28327bd3f3542d4841a5a8de95d2e20c51d54237d362d98337565e95405df5ef",
    "verify --suite path-growth --cases 3": "5eaaf6753fa03c0d10cc1b58c7ef109d416f1b66c5e0b96a629a5eb4aff97e7c",
    "verify --suite path-growth --suite root-bound --suite torus-family --cases 6 --jobs 2": "8b29da3dc04d4ede6a6bcdf696f730322db319fa2d62274e11f3c8bf1ff4fb6c",
    "{csv} file": "84e87a9da4fae46ce2bd85471bd2ae81cad71f43e618f6df7e015b487410388d",
}


def _pinned_outputs(capsys, tmp_path) -> dict:
    files = {
        "fib": tmp_path / "fib.txt",
        "reducible": tmp_path / "reducible.txt",
        "csv": tmp_path / "cover.csv",
    }
    files["fib"].write_text("2\n0 1\n1 1\n")
    files["reducible"].write_text("2\n1 1\n0 1\n")
    outputs = {}
    for argv in _PINNED_ARGV:
        code, out, err = run(capsys, *(a.format(**files) for a in argv))
        assert code == 0, (argv, err)
        outputs[" ".join(argv)] = out
    outputs["{csv} file"] = files["csv"].read_text()
    return outputs


def test_cli_output_bytes_pinned(capsys, tmp_path):
    outputs = _pinned_outputs(capsys, tmp_path)
    got = {key: hashlib.sha256(text.encode()).hexdigest() for key, text in outputs.items()}
    assert got == _PINNED_SHA256


def test_bounds_table_bytes_pinned_at_large_m(capsys):
    # rows at m = 19,798..19,800, where every sign of T_m and every m^(3/m)
    # cell is decided in dyadic intervals; the digest is the exact route's
    code, out, err = run(capsys, "bounds", "table", "--g", "2", "--n", "99000:99010")
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "4dc5f8cb6322630115c9ecce4af3968d4dce608e4ae8c12b31c50c7d906792ed"
    )


def test_matrix_json_nested_too_deeply_exit_1(capsys, tmp_path):
    # json.loads once raised a RecursionError here, which main does not catch
    path = tmp_path / "deep.json"
    path.write_text('{"k": 1, "rows": ' + "[" * 100_000 + "]" * 100_000 + "}")
    code, out, err = run(capsys, "pf", str(path))
    assert code == 1 and out == ""
    assert err == "error: cannot read matrix JSON: nested too deeply\n"

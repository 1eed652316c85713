"""Command-line front end, and the one module that formats output.

One binary, subcommand style, sharing the exact-arithmetic core. The library
returns exact values; the renderers here print them. Output is canonical
JSON (sorted keys, compact separators, trailing newline) unless a command is
a matrix/CSV emitter. Decimals are rounded outward, lower ends down and
upper ends up, so a printed bound is still a bound. The `pf` enclosure and
root endpoints also carry their exact numerator/denominator; every other
decimal field (lower_lo, upper_hi, log_root_*, closed_form_*, m_power_*,
omega_hi, kappa_prime, the torus bounds) is a directed-rounded decimal
only. File writes go through a temp file and os.replace; CSV appends take
an exclusive lock.

Exit status: 0 success, 1 a DillabError (a refused input or a failed
certificate), 2 usage error, 3 IO error. Any other exception is a bug and
keeps its traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import fcntl
import io
import json
import os
import sys
import tempfile
from fractions import Fraction

from .bounds import _sandwich_rows
from .dilpoly import DEFAULT_ROOT_REL_WIDTH, build_T, build_Tm, largest_root, verify_lroot
from .enclosures import _require_int
from .errors import DillabError
from .families import cover_upper_bound, torus_matrix, verify_torus_bounds
from .intmatrix import (
    DEFAULT_MAX_ITERS,
    DEFAULT_REL_WIDTH,
    is_irreducible,
    is_positive,
    load_matrix,
    pf_enclosure,
    render_matrix_json,
    render_matrix_text,
)
from .lefschetz import HomologyClass, multitwist_action
from .suites import SUITES, run_suite, shared_pool
from .transgraph import dilatation_limit_check, path_count_series, subdivide_out_edge

COVER_CSV_HEADER = ("g", "n", "m", "c", "certified_log_root_hi", "closed_form_bound")
SANDWICH_CSV_HEADER = ("g", "n", "lower_lo", "upper_hi", "lower_source", "upper_source")

LOWER_SOURCE = "congruence-two-branch-min"
UPPER_SOURCE = "balanced-cover-root"
NO_UPPER_SOURCE = "none (below construction threshold)"


class UsageError(Exception):
    """Bad argument values discovered after flag parsing."""


def _canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


@contextlib.contextmanager
def _output(ns: argparse.Namespace):
    """The stream a command writes to: stdout, or a temp file beside --out
    that replaces it once the command has written everything."""
    path = getattr(ns, "out", None)
    if not path:
        yield sys.stdout
        return
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".dillab-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _emit(ns: argparse.Namespace, text: str) -> None:
    with _output(ns) as fh:
        fh.write(text)


def _csv_line(row) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(row)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# renderers
# ---------------------------------------------------------------------------


_PLACES = 10**30  # every decimal is printed to 30 places


def _floor(x: Fraction) -> str:
    """x rounded toward -inf, so a printed lower end is still a lower bound."""
    return _decimal(x.numerator * _PLACES // x.denominator)


def _ceil(x: Fraction) -> str:
    """x rounded toward +inf, so a printed upper end is still an upper bound."""
    return _decimal(-(-x.numerator * _PLACES // x.denominator))


def _decimal(q: int) -> str:
    """The integer q / 10**30 written with all 30 places."""
    whole, frac = divmod(abs(q), _PLACES)
    return f"{'-' if q < 0 else ''}{whole}.{frac:030d}"


def _enclosure_json(lo: Fraction, hi: Fraction, **extra) -> dict:
    """Both endpoints as outward decimals and as exact numerator/denominator."""
    return {
        "lo_decimal": _floor(lo),
        "lo_num": str(lo.numerator),
        "lo_den": str(lo.denominator),
        "hi_decimal": _ceil(hi),
        "hi_num": str(hi.numerator),
        "hi_den": str(hi.denominator),
        **extra,
    }


def _root_json(root) -> dict:
    """A largest_root bracket, with the signs of p at its ends that
    largest_root guarantees: p(lo) < 0 < p(hi)."""
    return _enclosure_json(root.lo, root.hi, sign_lo=-1, sign_hi=1)


def _sandwich_row(row) -> tuple:
    """One table row in SANDWICH_CSV_HEADER order; upper_hi is "" below the
    cover family's threshold."""
    if row.upper is None:
        return (row.g, row.n, _floor(row.lower), "", LOWER_SOURCE, NO_UPPER_SOURCE)
    return (row.g, row.n, _floor(row.lower), _ceil(row.upper), LOWER_SOURCE, UPPER_SOURCE)


def _emit_matrix(ns: argparse.Namespace, matrix) -> None:
    if ns.format == "json":
        _emit(ns, _canonical_json(render_matrix_json(matrix)))
    else:
        _emit(ns, render_matrix_text(matrix))


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r} ({exc})") from None


def _parse_range(text: str) -> tuple[int, int]:
    """'31:100' -> (31, 100); a single integer means a one-point range."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            v = int(parts[0])
            return (v, v)
        if len(parts) == 2:
            return (int(parts[0]), int(parts[1]))
    except ValueError:
        pass
    raise UsageError(f"expected LO:HI or a single integer, got {text!r}")


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------


def _cmd_pf(ns: argparse.Namespace) -> int:
    if ns.rel_width <= 0 or ns.max_iters < 1:
        raise UsageError("need --rel-width > 0 and --max-iters >= 1")
    matrix = load_matrix(ns.matrix)
    payload = {
        "k": matrix.k,
        "irreducible": is_irreducible(matrix),
        "positive": is_positive(matrix),
    }
    if payload["irreducible"]:
        enc = pf_enclosure(matrix, rel_width=ns.rel_width, max_iters=ns.max_iters)
        payload["enclosure"] = _enclosure_json(
            enc.lo, enc.hi, iterations=enc.iterations, stop=enc.stop, steered=enc.steered
        )
    _emit(ns, _canonical_json(payload))
    return 0


def _cmd_paths(ns: argparse.Namespace) -> int:
    if ns.tol < 0:
        raise UsageError("need --tol >= 0")
    graph = load_matrix(ns.graph)
    counts = path_count_series(graph, ns.vertex, ns.d_max)
    payload = {
        "vertex": ns.vertex,
        "d_max": ns.d_max,
        "counts": [str(c) for c in counts],
    }
    if ns.check:
        rep = dilatation_limit_check(graph, ns.vertex, ns.d_max, ns.tol)
        payload["limit_check"] = {
            "converged": rep.converged,
            "last_gap": str(rep.last_gap),
            "d": rep.d,
            "vertex": rep.vertex,
            "root_lo": str(rep.root_interval.lo),
            "root_hi": str(rep.root_interval.hi),
            "spectral_lo": str(rep.spectral_interval.lo),
            "spectral_hi": str(rep.spectral_interval.hi),
        }
    _emit(ns, _canonical_json(payload))
    return 0


def _cmd_subdivide(ns: argparse.Namespace) -> int:
    _emit_matrix(ns, subdivide_out_edge(load_matrix(ns.graph), ns.vertex))
    return 0


def _cmd_hk_root(ns: argparse.Namespace) -> int:
    if ns.m is None and (ns.s is None or ns.t is None):
        raise UsageError("need --m, or both --s and --t")
    if ns.m is not None and (ns.s is not None or ns.t is not None):
        raise UsageError("--m conflicts with --s/--t")
    certify = ns.m is not None and ns.m >= 5
    if certify and ns.rel_width is not None:
        raise UsageError("--m >= 5 certifies at a fixed width; drop --rel-width")
    rel_width = DEFAULT_ROOT_REL_WIDTH if ns.rel_width is None else ns.rel_width
    if rel_width <= 0:
        raise UsageError("need --rel-width > 0")
    payload: dict = {}
    if ns.m is not None:
        poly = build_Tm(ns.m)
        payload["m"] = ns.m
    else:
        poly = build_T(ns.s, ns.t)
        payload["s"], payload["t"] = ns.s, ns.t
    if certify:
        rep = verify_lroot(ns.m)
        root = rep.root
        payload["bound_report"] = {
            "bound_holds": rep.bound_holds,
            "ineq1": rep.ineq1,
            "ineq2": rep.ineq2,
            "ineq3": rep.ineq3,
            "m_power_lo": _floor(rep.m_power_enclosure.lo),
            "m_power_hi": _ceil(rep.m_power_enclosure.hi),
        }
    else:
        # T(3) > 0 for every T(s, t), so its one root above 1 lies below 4
        root = largest_root(poly, 4, rel_width=rel_width)
    payload["polynomial"] = {"coeffs": {str(e): str(c) for e, c in poly.coeffs}}
    payload["root"] = _root_json(root)
    _emit(ns, _canonical_json(payload))
    return 0


def _cmd_torus_matrix(ns: argparse.Namespace) -> int:
    spec = torus_matrix(ns.n)
    if ns.verify:
        report = verify_torus_bounds(spec)
        payload = {
            "n": ns.n,
            "matrix": render_matrix_json(spec.matrix),
            "report": {
                "n": report.n,
                "max_col_sum": report.max_col_sum,
                "max_row_sum": report.max_row_sum,
                "irreducible": report.irreducible,
                "log_dil_bound": _ceil(report.log_dil_bound),
                "sharper_log_bound": _ceil(report.sharper_log_bound),
            },
        }
        _emit(ns, _canonical_json(payload))
    else:
        _emit_matrix(ns, spec.matrix)
    return 0


def _cmd_cover_bound(ns: argparse.Namespace) -> int:
    rep = cover_upper_bound(ns.g, ns.n)
    if ns.csv:
        row = (rep.g, rep.n, rep.m, rep.c, _ceil(rep.log_root.hi), _ceil(rep.closed_form_m.hi))
        _append_csv_row(ns.csv, COVER_CSV_HEADER, row)
    payload = {
        "g": rep.g,
        "n": rep.n,
        "m": rep.m,
        "c": rep.c,
        "root": _root_json(rep.root),
        "log_root_lo": _floor(rep.log_root.lo),
        "log_root_hi": _ceil(rep.log_root.hi),
        "closed_form_m_hi": _ceil(rep.closed_form_m.hi),
        "closed_form_n_hi": _ceil(rep.closed_form_n.hi),
    }
    _emit(ns, _canonical_json(payload))
    return 0


def _append_csv_row(path: str, header, row) -> None:
    """Append one row under the header, written first into an empty file.

    The header check and the single O_APPEND write both run under an
    exclusive flock, so concurrent appenders neither lose rows nor repeat
    the header. Only the header's length from the start and the last byte
    are read, whatever the file's size. Closing the descriptor releases the
    lock."""
    header_line = _csv_line(header).encode()
    fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o666)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        size = os.fstat(fd).st_size
        head = os.pread(fd, len(header_line), 0)
        if not size:
            prefix = header_line
        elif head == header_line or (head == header_line[:-1] and size == len(head)):
            prefix = b"" if os.pread(fd, 1, size - 1) == b"\n" else b"\n"
        else:
            raise DillabError(f"{path} exists with a different header")
        data = prefix + _csv_line(row).encode()
        if os.write(fd, data) != len(data):
            raise OSError(f"short write appending to {path}")
    finally:
        os.close(fd)


def _cmd_bounds_table(ns: argparse.Namespace) -> int:
    n_lo, n_hi = _parse_range(ns.n)
    if ns.sample is not None and ns.sample < 1:
        raise UsageError("--sample must be >= 1")
    alpha, omega, kappa, rows = _sandwich_rows(ns.g, n_lo, n_hi, ns.sample)
    # each row is certified and rendered as it is written: CSV and text hold no copy of the table
    rows = map(_sandwich_row, rows)
    with _output(ns) as fh:
        if ns.format == "json":
            payload = {
                "g": ns.g,
                "alpha": alpha,
                "omega_hi": _ceil(omega.hi),
                "kappa_prime": None if kappa is None else _ceil(kappa),
                "rows": [
                    {**dict(zip(SANDWICH_CSV_HEADER, row)), "upper_hi": row[3] or None} for row in rows
                ],
            }
            fh.write(_canonical_json(payload))
        elif ns.format == "text":
            fh.write("  ".join(SANDWICH_CSV_HEADER) + "\n")
            for row in rows:
                fh.write("  ".join(map(str, row)) + "\n")
        else:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(SANDWICH_CSV_HEADER)
            writer.writerows(rows)
    return 0


def _parse_twists(spec_text: str, g: int):
    """Grammar: comma-separated CLASS:POWER tokens. CLASS is a<i> or b<i>
    (1-based basis curves) or 0 for a separating (homologically trivial)
    curve; POWER is a nonzero integer."""
    twists = []
    echo = []
    for token in spec_text.split(","):
        token = token.strip()
        if not token:
            continue
        name, sep, power_text = token.partition(":")
        if not sep:
            raise UsageError(f"twist {token!r}: expected CLASS:POWER")
        try:
            power = int(power_text)
        except ValueError:
            raise UsageError(f"twist {token!r}: power must be an integer") from None
        name = name.strip()
        if name == "0":
            cls = HomologyClass.zero(g)
        elif name[:1] in ("a", "b") and name[1:].isdecimal():
            index = int(name[1:])
            if not 1 <= index <= g:
                raise UsageError(f"twist {token!r}: index outside 1..{g}")
            maker = HomologyClass.alpha if name[0] == "a" else HomologyClass.beta
            cls = maker(index, g)
        else:
            raise UsageError(f"twist {token!r}: class must be a<i>, b<i>, or 0")
        twists.append((cls, power))
        echo.append([name, power])
    if not twists:
        raise UsageError("no twists given")
    return twists, echo


def _cmd_lefschetz(ns: argparse.Namespace) -> int:
    _require_int("multitwist_action", "g", ns.g, 1)  # before a twist names a class of genus g
    twists, echo = _parse_twists(ns.twists, ns.g)
    action = multitwist_action(twists, ns.g)
    payload = {
        "g": ns.g,
        "twists": echo,
        "matrix": [list(row) for row in action.matrix],
        "trace": action.trace,
        "lefschetz_number": action.lefschetz_number,
    }
    _emit(ns, _canonical_json(payload))
    return 0


def _cmd_verify(ns: argparse.Namespace) -> int:
    if ns.jobs < 1:
        raise UsageError("--jobs must be >= 1")
    if ns.cases is not None and ns.cases < 1:
        raise UsageError("--cases must be >= 1")
    if ns.list:
        for name, spec in SUITES.items():
            sys.stdout.write(f"{name}: {spec.summary} (default {spec.default_cases} {spec.cases_meaning})\n")
        return 0
    if ns.all:
        names = list(SUITES)
    elif ns.suite:
        names = []
        for name in ns.suite:
            if name not in SUITES:
                raise UsageError(f"unknown suite {name!r}; see `verify --list`")
            names.append(name)
    else:
        raise UsageError("need --all or --suite NAME")
    with shared_pool(ns.jobs):
        reports = [run_suite(name, seed=ns.seed, cases=ns.cases) for name in names]
    payload = {
        "seed": ns.seed,
        "suites": reports,
        "all_passed": all(r["passed"] for r in reports),
    }
    _emit(ns, _canonical_json(payload))
    if ns.out:
        for rep in reports:
            status = "PASS" if rep["passed"] else "FAIL"
            sys.stdout.write(f"{rep['suite']}: {status} ({rep['failure_count']} failures / {rep['cases']} cases)\n")
    return 0 if payload["all_passed"] else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dillab",
        description="Certified dilatation bounds, transition-graph spectra, and Lefschetz numbers.",
    )
    from . import __version__

    parser.add_argument("--version", action="version", version=f"dillab {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("pf", help="spectral enclosure of a nonnegative integer matrix file")
    p.add_argument("matrix", help="matrix file, text or JSON")
    p.add_argument("--rel-width", type=_parse_fraction, default=DEFAULT_REL_WIDTH)
    p.add_argument("--max-iters", type=int, default=DEFAULT_MAX_ITERS)
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(func=_cmd_pf)

    p = sub.add_parser("paths", help="path counts from a vertex of a transition graph")
    p.add_argument("graph", help="graph file (matrix formats)")
    p.add_argument("--vertex", "-i", type=int, required=True)
    p.add_argument("--d-max", "-d", type=int, required=True)
    p.add_argument("--check", action="store_true", help="compare the d-th root against the spectral enclosure")
    p.add_argument("--tol", type=_parse_fraction, default=Fraction(1, 20))
    p.add_argument("--out")
    p.set_defaults(func=_cmd_paths)

    p = sub.add_parser("subdivide", help="subdivide the out-edge of a degree-(1,1) vertex")
    p.add_argument("graph")
    p.add_argument("--vertex", "-i", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_subdivide)

    p = sub.add_parser("hk-root", help="largest root of a balanced dilatation polynomial")
    p.add_argument("--m", type=int, help="balanced index; m >= 5 adds the m^(3/m) bound report")
    p.add_argument("--s", type=int, help="first exponent (with --t)")
    p.add_argument("--t", type=int, help="second exponent (with --s)")
    p.add_argument("--rel-width", type=_parse_fraction, help=f"default {DEFAULT_ROOT_REL_WIDTH}; not with --m >= 5")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_hk_root)

    p = sub.add_parser("torus-matrix", help="marked-torus cover transition matrix for a given n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--verify", action="store_true", help="check the reconstruction contract and report log bounds")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_torus_matrix)

    p = sub.add_parser("cover-bound", help="certified upper dilatation bound from the branched cover family")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--csv", help="append the row to this CSV file (created with header if missing)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_cover_bound)

    p = sub.add_parser("bounds", help="bound tables")
    bounds_sub = p.add_subparsers(dest="bounds_command", metavar="SUBCOMMAND")
    t = bounds_sub.add_parser("table", help="two-sided certified table over a range of n")
    t.add_argument("--g", type=int, required=True)
    t.add_argument("--n", required=True, help="range LO:HI")
    t.add_argument("--sample", type=int, default=None, help="log-uniform sample size instead of every n")
    t.add_argument("--format", choices=("csv", "json", "text"), default="csv")
    t.add_argument("--out")
    t.set_defaults(func=_cmd_bounds_table)

    p = sub.add_parser("lefschetz", help="Lefschetz number of a multitwist")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--twists", required=True, help='e.g. "a1:3,a2:-1"; 0:P twists a separating curve')
    p.add_argument("--out")
    p.set_defaults(func=_cmd_lefschetz)

    p = sub.add_parser("verify", help="run verification suites; nonzero exit on any failure")
    p.add_argument("--all", action="store_true", help="every suite in the registry")
    p.add_argument("--suite", action="append", help="suite name (repeatable)")
    p.add_argument("--list", action="store_true", help="list suites and exit")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--cases", type=int, default=None, help="override each suite's default case count")
    p.add_argument("--jobs", type=int, default=1, help="worker processes, capped at the CPU count")
    p.add_argument("--out", help="write the JSON report here and print a summary")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        ns = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not hasattr(ns, "func"):
        sys.stderr.write("error: missing subcommand (try --help)\n")
        return 2
    # a certified integer may pass Python's 4,300-digit str(int) limit: lift
    # it for this command and give an in-process caller back its own
    digits = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if digits is not None:
        sys.set_int_max_str_digits(0)
    try:
        return int(ns.func(ns) or 0)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return 3
    except DillabError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    finally:
        if digits is not None:
            sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())

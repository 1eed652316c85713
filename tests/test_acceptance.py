"""Acceptance gate: one test per required behavior, each printing a single
[ACCEPT] line with its verdict. Tolerances and runtime budgets are pinned
here and nowhere else; do not relax them to make a failure go away.

The subdivision battery is expected to fail: the literal path-shift claim it
pins is false (see the test's own message), while the weaker interval and
exact spectral comparisons it also pins do hold and are checked first.
"""

import time
from fractions import Fraction

import pytest

from dillab.bounds import count_sl2_z3, theta
from dillab.cli import main
from dillab.dilpoly import (
    IntPoly,
    build_T,
    build_Tm,
    isolate_largest_real_root,
    largest_root,
    verify_lroot,
)
from dillab.enclosures import RatInterval, interval_gap, log_enclosure
from dillab.families import torus_matrix, verify_torus_bounds
from dillab.intmatrix import pf_enclosure
from dillab.suites import run_suite

SEED = 7


def announce(capsys, name: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"[ACCEPT] {name}: {'PASS' if ok else 'FAIL'}{suffix}")


def test_quartic_root_certificate(capsys):
    t0 = time.monotonic()
    enc = largest_root(build_T(1, 1), search_hi=4, rel_width=Fraction(1, 10 ** 10))
    width = enc.hi - enc.lo
    # (3 + sqrt 5)/2 is the larger root of the palindromic factor
    factor = IntPoly.from_dict({0: 1, 1: -3, 2: 1})
    contains = factor(enc.lo) < 0 < factor(enc.hi)
    oracle = isolate_largest_real_root(factor, hi_bound=4)
    agree = interval_gap(RatInterval(enc.lo, enc.hi), oracle) == 0
    elapsed = time.monotonic() - t0
    ok = width <= Fraction(1, 10 ** 9) and contains and agree and elapsed < 1.0
    announce(
        capsys,
        "quartic-root-certificate",
        ok,
        f"width {float(width):.2e}, {elapsed:.2f}s",
    )
    assert width <= Fraction(1, 10 ** 9)
    assert contains
    assert agree
    assert elapsed < 1.0


def test_balanced_root_bound_sweep(capsys):
    t0 = time.monotonic()
    bad = []
    for m in range(5, 201):
        rep = verify_lroot(m)
        if not (rep.bound_holds and rep.ineq1 and rep.ineq2 and rep.ineq3):
            bad.append(m)
        if build_Tm(m)(1) != -4:
            bad.append(m)
    elapsed = time.monotonic() - t0
    ok = not bad and elapsed < 120.0
    announce(
        capsys,
        "balanced-root-bound-sweep",
        ok,
        f"m=5..200, {elapsed:.1f}s",
    )
    assert bad == []
    assert elapsed < 120.0


def test_torus_family_contract(capsys):
    t0 = time.monotonic()
    bad = []
    log9, log11 = log_enclosure(9), log_enclosure(11)
    for n in range(5, 201):
        spec = torus_matrix(n)
        rep = verify_torus_bounds(spec)  # raises on any contract miss
        col_route = pf_enclosure(spec.matrix.transpose(), hi_target=Fraction(9))
        if not col_route.hi <= 9 <= 11:
            bad.append(n)
        # log lambda <= log(11)/n as an interval fact, via the sharper 9
        if not log9.hi / n <= log11.hi / n == rep.log_dil_bound:
            bad.append(n)
    elapsed = time.monotonic() - t0
    ok = not bad and elapsed < 300.0
    announce(capsys, "torus-family-contract", ok, f"n=5..200, {elapsed:.1f}s")
    assert bad == []
    assert elapsed < 300.0


def test_diagonal_power_battery(capsys):
    rep = run_suite("diag-power", seed=SEED, cases=200)
    announce(
        capsys,
        "diagonal-power-battery",
        rep["passed"],
        f"{rep['failure_count']} failures / 200 cases",
    )
    assert rep["failure_count"] == 0
    assert rep["passed"]


def test_path_growth_battery(capsys):
    rep = run_suite("path-growth", seed=SEED, cases=50)
    max_gap = Fraction(rep["max_gap"])
    ok = rep["passed"] and max_gap <= Fraction(1, 20) and rep["d"] == 200
    announce(
        capsys,
        "path-growth-battery",
        ok,
        f"max gap {float(max_gap):.4f} at d=200, 50 graphs, every vertex",
    )
    assert rep["d"] == 200
    assert max_gap <= Fraction(1, 20)
    assert rep["passed"]


def test_subdivision_battery(capsys):
    rep = run_suite("subdivision", seed=SEED, cases=100)
    # the two claims that are actually true must hold on all 100 instances
    assert rep["interval_failure_count"] == 0, rep["failures"][:3]
    shift_ok = rep["shift_law_holds"]
    announce(
        capsys,
        "subdivision-battery",
        shift_ok and rep["passed"],
        f"interval failures {rep['interval_failure_count']}, "
        f"shift-law failures {rep['shift_failure_count']} / 100",
    )
    # The literal claim: subdividing an out-edge shifts every path count by
    # one for all d <= 20. That is false. Splicing vertex w into i -> j
    # lengthens every path through the new edge pair, so the counts from i
    # agree only until paths first return to i; past the first return the
    # subdivided graph lags by one step per visit and the counts diverge.
    # Smallest witness: the two-vertex graph [[0,1],[1,1]] subdivided at
    # vertex 1 satisfies the shift for d <= 3 and breaks at d = 4 (5 paths
    # in the original, 4 in the subdivision at d+1 = 5). The certified and
    # exact spectral comparisons above, which is what the subdivision is
    # good for, hold on every instance.
    assert shift_ok, (
        f"path-shift law fails beyond the first return to the subdivided "
        f"vertex on {rep['shift_failure_count']}/100 instances; "
        f"first witness: {rep['shift_counterexample']}"
    )


def test_multitwist_battery(capsys):
    rep = run_suite("multitwist", seed=SEED, cases=200)
    announce(
        capsys,
        "multitwist-battery",
        rep["passed"],
        f"{rep['failure_count']} failures / 200 systems, g <= 6",
    )
    assert rep["failure_count"] == 0
    assert rep["passed"]


def test_local_index_models(capsys):
    # case 0 runs the three-model battery; the other 50 cases are random
    # linear maps with det(A - I) != 0
    rep = run_suite("local-index", seed=SEED, cases=51)
    announce(
        capsys,
        "local-index-models",
        rep["passed"],
        "battery (+1, +1, -1) plus 50 random vs oracle",
    )
    assert rep["failure_count"] == 0
    assert rep["passed"]


def test_congruence_index_constants(capsys):
    t0 = time.monotonic()
    enumerated = count_sl2_z3()
    ok = enumerated == 24 == theta(1) and theta(2) == 51840
    elapsed = time.monotonic() - t0
    announce(
        capsys,
        "congruence-index-constants",
        ok and elapsed < 1.0,
        f"enumerated {enumerated}, theta(2) {theta(2)}, {elapsed:.3f}s",
    )
    assert enumerated == 24
    assert theta(1) == 24
    assert theta(2) == 51840
    assert elapsed < 1.0


def test_two_sided_sandwich(capsys):
    from dillab.bounds import sandwich_table

    t0 = time.monotonic()
    rep = sandwich_table(2, 31, 10 ** 4, sample=50)
    bad = []
    for row in rep.rows:
        if not row.lower > 0:
            bad.append((row.n, "lower"))
        if row.upper is None:
            bad.append((row.n, "upper missing"))
            continue
        if not row.lower < row.upper:
            bad.append((row.n, "ordering"))
        # upper * n / log n below the certified constant, outward rounding
        if not row.upper * row.n / log_enclosure(row.n).lo <= rep.kappa_prime:
            bad.append((row.n, "kappa"))
    elapsed = time.monotonic() - t0
    ok = len(rep.rows) >= 50 and not bad and elapsed < 300.0
    announce(
        capsys,
        "two-sided-sandwich",
        ok,
        f"{len(rep.rows)} points, n=31..10^4, {elapsed:.1f}s",
    )
    assert len(rep.rows) >= 50
    assert bad == []
    assert elapsed < 300.0


def test_verify_determinism(capsys):
    argv = ["verify", "--all", "--seed", "7"]
    code1 = main(list(argv))
    out1 = capsys.readouterr().out
    code2 = main(list(argv))
    out2 = capsys.readouterr().out
    identical = out1.encode() == out2.encode() and code1 == code2
    announce(
        capsys,
        "verify-determinism",
        identical,
        f"{len(out1.encode())} bytes, exit {code1} both runs",
    )
    assert out1.encode() == out2.encode()
    assert code1 == code2
    # sanity: the run exercised every suite and reported them
    assert '"all_passed"' in out1

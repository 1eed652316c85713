import hashlib
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dillab import bounds
from dillab.bounds import (
    count_sl2_z3,
    kappa_upper_constant,
    log_uniform_sample,
    omega_constants,
    sandwich_table,
    theta,
    thm34_lower,
)
from dillab.enclosures import RatInterval, log_enclosure
from dillab.errors import AlphaOutOfRange, DomainError, ValidationFailed
from dillab.families import cover_index, cover_threshold, cover_upper_bound


def test_theta_values():
    assert theta(1) == 24
    assert theta(2) == 51840
    assert theta(3) == 3 ** 9 * 8 * 80 * 728
    with pytest.raises(DomainError):
        theta(0)


def test_theta_against_enumeration():
    assert count_sl2_z3() == 24
    assert theta(1) == count_sl2_z3()


def test_thm34_lower_exact_alpha_scaling():
    # both branches are linear in 1/alpha, so the min scales exactly
    base = thm34_lower(2, 10, 1)
    assert thm34_lower(2, 10, 7) == base / 7
    assert thm34_lower(2, 10, theta(2)) == base / theta(2)
    assert base > 0


def test_thm34_lower_branch_values():
    # g=2, n=0: branch1 = log2/12, branch2 = log18/36; branch1 is smaller
    lo = thm34_lower(2, 0, 1)
    log2 = log_enclosure(2)
    assert lo == log2.lo / 12
    assert lo < Fraction(578, 10 ** 4)


def test_thm34_lower_validation():
    with pytest.raises(DomainError):
        thm34_lower(1, 0, 1)
    with pytest.raises(DomainError):
        thm34_lower(2, -1, 1)
    with pytest.raises(AlphaOutOfRange):
        thm34_lower(2, 0, 0)
    with pytest.raises(AlphaOutOfRange):
        thm34_lower(2, 0, theta(2) + 1)


def test_thm34_lower_refuses_a_bool_alpha():
    assert thm34_lower(2, 40, 1) > 0
    with pytest.raises(AlphaOutOfRange):
        thm34_lower(2, 40, True)


def test_omega_constants_g2():
    oc = omega_constants(2, 1)
    # omega' = 12 log3 / (3 log2) = 4 log3/log2 = 6.339...
    assert oc.omega_prime.lo < Fraction(634, 100) < oc.omega_prime.hi * 2
    assert float(oc.omega_prime.lo) == pytest.approx(6.33985, abs=1e-3)
    # the 48-alpha term dominates at alpha = 1
    assert oc.omega.lo >= 48
    assert oc.omega.hi < 49
    # exact linearity in alpha
    oc7 = omega_constants(2, 7)
    assert oc7.omega.hi == oc.omega.hi * 7
    with pytest.raises(DomainError):
        omega_constants(1, 1)


def test_omega_full_alpha_is_48_theta():
    # at g = 2 the max term is 48 alpha exactly for every alpha
    oc = omega_constants(2, theta(2))
    assert oc.omega.lo == 48 * 51840 == 2488320


def test_omega_constants_bytes_pinned():
    # digests of the reprs that RatInterval arithmetic on log_enclosure gave;
    # the integer log ends must give the same bytes
    reprs = [repr(omega_constants(g, a)) for g in range(2, 9) for a in (1, 2, 3, 48, theta(g))]
    digest = hashlib.sha256("\n".join(reprs).encode()).hexdigest()
    assert digest == "8e088c8c77969223f854ef11d469e43aa49037a706f1fa23c61098144a8f2b2e"
    branch1 = [repr(bounds._branch1_lo(g, a)) for g in range(2, 9) for a in (1, 2, 3, 48, theta(g))]
    digest = hashlib.sha256("\n".join(branch1).encode()).hexdigest()
    assert digest == "ac39fbecb09a9c9b0abc958f4b7a222b47aca4dd1d16494036c2c7e42e1e7242"


def test_omega_constants_refuses_a_bool_alpha():
    assert omega_constants(2, 1).alpha == 1
    with pytest.raises(DomainError):
        omega_constants(2, True)


def test_kappa_upper_constant_small_range():
    rep = kappa_upper_constant(2)
    assert rep.kappa_prime == 15
    # the bound it certifies: 3 log m / m <= kappa' log n / n at n = 31, m = 5
    lhs = log_enclosure(5).hi * 3 / 5
    rhs = rep.kappa_prime * log_enclosure(31).lo / 31
    assert lhs <= rhs
    with pytest.raises(DomainError):
        kappa_upper_constant(1)


def test_kappa_prime_is_the_closed_form_with_its_witness(monkeypatch):
    def refuse(n):
        raise AssertionError("log_enclosure called")

    # the proof compares integers only
    monkeypatch.setattr(bounds, "log_enclosure", refuse)
    for g in (2, 3, 4, 5, 8):
        rep = kappa_upper_constant(g)
        assert (rep.g, rep.kappa_prime) == (g, 3 * (2 * g + 1))
        assert rep.witness_n == cover_threshold(g)


def test_kappa_refuses_a_threshold_where_the_integer_inequality_fails(monkeypatch):
    # q = 5: 5**11 < 11**10, so the inequality has no witness at n = 11
    monkeypatch.setattr(bounds, "cover_threshold", lambda g: 11)
    with pytest.raises(ValidationFailed):
        kappa_upper_constant(2)
    # 5**1 >= 1**10 holds, but at n = 1 < 5q the cover index is below e
    monkeypatch.setattr(bounds, "cover_threshold", lambda g: 1)
    with pytest.raises(ValidationFailed):
        kappa_upper_constant(2)


# n drawn evenly over its bit lengths, so large n, where one cover bound
# costs about a second, stay a few draws in each run
_genus_and_n = st.integers(2, 5).flatmap(
    lambda g: st.tuples(
        st.just(g),
        st.integers(cover_threshold(g).bit_length(), (10**5).bit_length()).flatmap(
            lambda b: st.integers(max(cover_threshold(g), 1 << (b - 1)), min(10**5, (1 << b) - 1))
        ),
    )
)


@settings(max_examples=25, deadline=None)
@given(_genus_and_n)
def test_cover_bound_below_the_proved_kappa(g_n):
    g, n = g_n
    upper = cover_upper_bound(g, n).log_root.hi
    assert upper <= 3 * (2 * g + 1) * log_enclosure(n).hi / n


def test_log_uniform_sample_properties():
    pts = log_uniform_sample(31, 10 ** 4, 50)
    assert len(pts) >= 50
    assert pts[0] == 31 and pts[-1] == 10 ** 4
    assert list(pts) == sorted(set(pts))
    # geometric spread: the top decade holds far fewer points than linear
    # spacing would put there
    top = [p for p in pts if p > 5000]
    assert len(top) < len(pts) // 2
    assert log_uniform_sample(7, 7, 1) == (7,)
    # tiny span collapses to the full range
    assert log_uniform_sample(5, 8, 4) == (5, 6, 7, 8)
    with pytest.raises(DomainError):
        log_uniform_sample(10, 12, 9)
    with pytest.raises(DomainError):
        log_uniform_sample(0, 5, 2)


def test_log_uniform_sample_deterministic():
    assert log_uniform_sample(31, 10 ** 4, 50) == log_uniform_sample(31, 10 ** 4, 50)


def test_sandwich_table_dense_small():
    rep = sandwich_table(2, 28, 35)
    assert rep.alpha == 51840
    assert [row.n for row in rep.rows] == list(range(28, 36))
    for row in rep.rows:
        assert row.lower > 0
        if row.n >= 31:
            assert row.upper is not None
            assert row.lower < row.upper
        else:
            assert row.upper is None


def test_sandwich_table_sampled():
    rep = sandwich_table(2, 31, 2000, sample=12)
    assert len(rep.rows) >= 12
    ns = [row.n for row in rep.rows]
    assert ns == sorted(ns)
    assert ns[0] == 31 and ns[-1] == 2000
    assert rep.kappa_prime is not None
    for row in rep.rows:
        assert row.upper is not None
        # kappa calibration holds row by row
        assert row.upper <= rep.kappa_prime * log_enclosure(row.n).hi / row.n


@pytest.mark.parametrize("sample", [None, 9])
def test_sandwich_table_isolates_each_index_once(monkeypatch, sample):
    # the ns ascend and cover_index never falls along them, so keeping the
    # latest report serves every row
    assert log_uniform_sample(31, 400, 9) == tuple(sorted(log_uniform_sample(31, 400, 9)))
    calls = []

    def counted(g, n):
        calls.append(cover_index(g, n))
        return cover_upper_bound(g, n)

    monkeypatch.setattr(bounds, "cover_upper_bound", counted)
    rep = sandwich_table(2, 28, 400, sample=sample)
    assert calls == sorted(set(calls))
    assert calls == sorted({cover_index(2, row.n) for row in rep.rows if row.n >= 31})
    for row in rep.rows:
        expected = cover_upper_bound(2, row.n).log_root.hi if row.n >= 31 else None
        assert row.upper == expected
        assert row.lower == thm34_lower(2, row.n, theta(2))


def test_sandwich_table_takes_the_log_2_branch_once(monkeypatch):
    # thm34_lower's branch log 2 / (alpha (12g - 12)) does not depend on n:
    # the log 2 enclosures a table asks for do not grow with its rows
    asked = []
    monkeypatch.setattr(bounds, "log_enclosure", lambda x: asked.append(x) or log_enclosure(x))
    counts = []
    for n_hi in (40, 400):
        asked.clear()
        rep = sandwich_table(2, 31, n_hi)
        counts.append(asked.count(2))
        assert [row.lower for row in rep.rows] == [thm34_lower(2, n, theta(2)) for n in range(31, n_hi + 1)]
    assert counts[0] == counts[1] <= 2


def test_sandwich_table_computes_each_lower_bound_through_thm34_lower(monkeypatch):
    # one code path for the row's lower bound, so a wrapper on the public
    # name sees every row, and the rows do not move
    plain = sandwich_table(2, 31, 60)
    calls = []

    def counted(g, n, alpha):
        calls.append((g, n, alpha))
        return thm34_lower(g, n, alpha)

    monkeypatch.setattr(bounds, "thm34_lower", counted)
    rep = sandwich_table(2, 31, 60)
    assert calls == [(2, n, theta(2)) for n in range(31, 61)]
    assert rep == plain


def test_sandwich_rows_certify_each_row_as_it_is_taken(monkeypatch):
    calls = []
    lower = bounds.thm34_lower
    monkeypatch.setattr(bounds, "thm34_lower", lambda g, n, alpha: calls.append(n) or lower(g, n, alpha))
    alpha, omega, kappa, rows = bounds._sandwich_rows(2, 28, 10**6, None)
    assert calls == []
    taken = [next(rows) for _ in range(5)]
    assert calls == [28, 29, 30, 31, 32]
    # sandwich_table is the same rows, collected, with the same constants
    report = sandwich_table(2, 28, 32)
    assert report.rows == tuple(taken)
    assert (report.alpha, report.omega, report.kappa_prime) == (alpha, omega, kappa)
    # the arguments are refused before any row is asked for
    with pytest.raises(DomainError):
        bounds._sandwich_rows(2, 40, 39, None)


def test_sandwich_table_validation():
    with pytest.raises(DomainError):
        sandwich_table(1, 31, 40)
    with pytest.raises(DomainError):
        sandwich_table(2, 2, 40)
    with pytest.raises(DomainError):
        sandwich_table(2, 50, 40)


def test_sandwich_calibration_failure_raises_validation_failed(monkeypatch):
    tiny = RatInterval.point(Fraction(1, 10**12))
    monkeypatch.setattr(bounds, "omega_constants", lambda g, alpha: SimpleNamespace(omega=tiny))
    with pytest.raises(ValidationFailed, match="n=31"):
        sandwich_table(2, 31, 40)


@pytest.mark.parametrize(
    "call, args",
    [
        (cover_threshold, (2.0,)),
        (cover_threshold, (True,)),
        (theta, (True,)),
        (theta, (2.0,)),
        (thm34_lower, (2.0, 31, 1)),
        (thm34_lower, (2, 31.5, 1)),
        (thm34_lower, (2, True, 1)),
        (omega_constants, (2.0, 1)),
        (kappa_upper_constant, (2.0,)),
        (kappa_upper_constant, (True,)),
        (sandwich_table, (2.0, 31, 40)),
        (sandwich_table, (2, 31.0, 40)),
        (sandwich_table, (2, 31, "40")),
        (sandwich_table, (2, 31, 40, 3.0)),
        (log_uniform_sample, (1.5, 10, 3)),
        (log_uniform_sample, (1, 10.0, 3)),
        (log_uniform_sample, (1, 10, True)),
    ],
)
def test_integer_parameters_refuse_every_other_type(call, args):
    # a float, str or bool is refused, never read as the integer it equals
    with pytest.raises(DomainError, match="requires an int"):
        call(*args)


@pytest.mark.parametrize("count", [0, -1])
def test_a_sample_below_one_is_refused(count):
    # `bounds table --sample 0` is a usage error; the library refuses it too
    with pytest.raises(DomainError, match="requires an int count >= 1"):
        log_uniform_sample(31, 40, count)
    with pytest.raises(DomainError, match="requires an int sample >= 1"):
        sandwich_table(2, 31, 40, sample=count)

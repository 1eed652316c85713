import math
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import dillab
from dense_reference import faddeev_leverrier_rows, identity
from dillab import dilpoly, enclosures, suites
from dillab.dilpoly import (
    IntPoly,
    RootEnclosure,
    _bisect,
    _float_root,
    _steered_cell,
    build_T,
    build_Tm,
    char_poly,
    compare_largest_roots,
    count_real_roots_above,
    isolate_largest_real_root,
    largest_root,
    m_cubed_root_enclosure,
    mu_compare,
    verify_lroot,
)
from dillab.errors import DomainError, NoSignChange
from dillab.families import cover_upper_bound
from dillab.intmatrix import IntMatrix, _cw_compare, _scaled_plan


def test_intpoly_basics():
    p = IntPoly.from_dict({0: -1, 1: -1, 2: 1})
    assert p.degree == 2
    assert p.leading_coefficient == 1
    assert p(2) == 1
    assert p(Fraction(3, 2)) == Fraction(-1, 4)
    assert p.sign_at(1) == -1 and p.sign_at(2) == 1
    assert IntPoly(()).degree == -1
    # zero coefficients are dropped, duplicates rejected
    assert IntPoly(((3, 0), (1, 2))).coeffs == ((1, 2),)
    with pytest.raises(ValueError):
        IntPoly(((1, 2), (1, 3)))
    with pytest.raises(ValueError):
        IntPoly(((-1, 2),))


@pytest.mark.parametrize(
    "coeffs",
    [{2: 1.5, 0: -2}, {"2": 1}, {2: True}, {True: 1}, {2: 1.0}],
    ids=["float-value", "str-key", "bool-value", "bool-key", "integral-float"],
)
def test_from_dict_refuses_what_is_not_of_type_int(coeffs):
    # coerced with int(), {2: 1.5, 0: -2} would read as x^2 - 2, and a root
    # bracket would certify another polynomial than the one given
    with pytest.raises(ValueError):
        IntPoly.from_dict(coeffs)


def test_intpoly_refuses_bool_exponents_and_coefficients():
    for coeffs in (((2, True),), ((True, 1),), ((0, -2), (2, False))):
        with pytest.raises(ValueError):
            IntPoly(coeffs)
    assert IntPoly.from_dict({2: 10**40, 1: 0, 0: -1}).coeffs == ((0, -1), (2, 10**40))


def test_build_T_shape_and_symmetry():
    p = build_T(1, 1)
    # x^4 - x^3 - 4x^2 - x + 1
    assert p.coeffs == ((0, 1), (1, -1), (2, -4), (3, -1), (4, 1))
    assert build_T(2, 5) == build_T(5, 2)
    assert build_T(3, 4)(1) == -4
    assert build_T(7, 7)(1) == -4
    with pytest.raises(DomainError):
        build_T(0, 1)


def test_build_T_equals_the_checked_construction():
    # build_T lays its terms out sorted and merged by hand; the checked
    # constructor sorts, merges and drops zeros itself
    for s in range(1, 61):
        for t in range(1, 61):
            terms = {}
            for e, c in ((s + t + 2, 1), (s + t + 1, -1), (s + 1, -2), (t + 1, -2), (1, -1), (0, 1)):
                terms[e] = terms.get(e, 0) + c
            assert build_T(s, t) == IntPoly(tuple(terms.items())), (s, t)


def test_build_Tm_balanced_split():
    assert build_Tm(2) == build_T(1, 1)
    assert build_Tm(7) == build_T(3, 4)
    assert build_Tm(10) == build_T(5, 5)
    for m in range(2, 30):
        assert build_Tm(m)(1) == -4
        assert build_Tm(m).degree == m + 2
    with pytest.raises(DomainError):
        build_Tm(1)


def test_largest_root_quartic_silver_mean():
    # largest root of T_{1,1} = (x^2 - 3x + 1)(x + 1)^2 is (3 + sqrt 5)/2
    enc = largest_root(build_T(1, 1), search_hi=4, rel_width=Fraction(1, 10 ** 12))
    assert enc.sign_lo == -1 and enc.sign_hi == 1
    # exact membership test against x^2 - 3x + 1
    q = IntPoly.from_dict({0: 1, 1: -3, 2: 1})
    assert q(enc.lo) < 0 < q(enc.hi)
    assert enc.hi - enc.lo <= Fraction(1, 10 ** 9)


def test_largest_root_preconditions():
    with pytest.raises(DomainError):
        largest_root(IntPoly.from_dict({2: -1, 0: 1}), search_hi=2)
    # p(1) > 0: not in domain
    with pytest.raises(DomainError):
        largest_root(IntPoly.from_dict({2: 1, 0: 1}), search_hi=2)
    # no sign change below the cap
    with pytest.raises(NoSignChange):
        largest_root(IntPoly.from_dict({2: 1, 0: -2}), search_hi=Fraction(6, 5))
    # (x-2)(x-5)(x-6): three sign variations, refused before any sign
    class Unevaluated(IntPoly):
        def sign_at(self, x):
            raise AssertionError(f"evaluated at {x}")

    with pytest.raises(DomainError, match="isolate_largest_real_root"):
        largest_root(Unevaluated(((0, -60), (1, 52), (2, -13), (3, 1))), search_hi=3)
    # a search bound at or below 1 brackets nothing
    for search_hi in (1, Fraction(1, 2)):
        with pytest.raises(DomainError, match="search_hi > 1"):
            largest_root(IntPoly.from_dict({2: 2, 1: -6, 0: 3}), search_hi=search_hi)


def _bisected(p: IntPoly, search_hi, rel_width) -> RootEnclosure:
    """Plain sign-change bisection of (1, search_hi), one level at a time:
    the bracket largest_root must reproduce on the Descartes route."""
    lo, hi = Fraction(1), Fraction(search_hi)
    while hi - lo > rel_width * lo:
        lo, hi, _ = _bisect(p, lo, hi, None)
    return RootEnclosure(lo=lo, hi=hi, sign_lo=-1, sign_hi=1)


def _production_search_hi(m: int) -> Fraction:
    return m_cubed_root_enclosure(m).hi + 1


def test_steered_bracket_equals_plain_bisection_for_every_Tm():
    width = Fraction(1, 10**10)
    for m in range(5, 401):
        hi = _production_search_hi(m)
        assert largest_root(build_Tm(m), hi) == _bisected(build_Tm(m), hi, width), m


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 300),
    st.integers(1, 300),
    st.fractions(min_value=3, max_value=40, max_denominator=64),
    st.integers(1, 10**6),
    st.integers(0, 40),
)
def test_steered_bracket_equals_plain_bisection_on_drawn_T(s, t, search_hi, num, digits):
    # T(s, t)(3) = 2 * 3^(s+t+1) - 2 * (3^(s+1) + 3^(t+1)) - 2 > 0, so its one
    # root above 1 lies below every drawn search_hi
    p, rel_width = build_T(s, t), Fraction(num, 10**digits)
    assert largest_root(p, search_hi, rel_width) == _bisected(p, search_hi, rel_width)


def test_steered_bracket_falls_back_to_the_full_range():
    # a coefficient beyond float range: no float root, bisection from the top
    p = IntPoly.from_dict({2: 10**400, 0: -2 * 10**400})
    assert _steered_cell(p, Fraction(2), Fraction(1, 10**10)) == (1, 2)
    assert largest_root(p, 2) == _bisected(p, 2, Fraction(1, 10**10))
    # K(x - 1)^2 - 1, root 1 + 10^-10: the float quotient cancels to noise,
    # its root lands outside the root's cell, and the two signs refuse it
    p = IntPoly.from_dict({2: 10**20, 1: -2 * 10**20, 0: 10**20 - 1})
    assert _steered_cell(p, Fraction(2), Fraction(1, 10**10)) == (1, 2)
    assert largest_root(p, 2) == _bisected(p, 2, Fraction(1, 10**10))
    # a width finer than a float resolves: the steered cell is coarser, and
    # bisection finishes the request from it
    width = Fraction(1, 10**40)
    for p, hi in ((build_T(1, 1), 4), (build_Tm(50), _production_search_hi(50))):
        lo_cell, hi_cell = _steered_cell(p, Fraction(hi), width)
        assert hi_cell - lo_cell > width * lo_cell
        assert largest_root(p, hi, width) == _bisected(p, hi, width)


def test_steered_bracket_work_at_m_1998():
    calls = []

    class Counted(IntPoly):
        def sign_at(self, x):
            calls.append(x)
            return super().sign_at(x)

    p = Counted(build_Tm(1998).coeffs)
    hi = _production_search_hi(1998)
    assert largest_root(p, hi) == _bisected(build_Tm(1998), hi, Fraction(1, 10**10))
    # bisection below the steered cell alone: p(1) is the coefficient sum,
    # and the cell's two signs (and the p(search_hi) > 0 they imply) go to
    # IntPoly._sign without sign_at
    assert len(calls) <= 6


def test_steered_bracket_recovers_a_float_one_cell_off(monkeypatch):
    # a float in the cell just below the root's names a cell whose top end
    # lies below the root, at any depth the walk reaches; a sign refuses it,
    # so the start is (1, search_hi), and bisection from the top returns the
    # same bracket
    width = Fraction(1, 10**14)
    for m in (1036, 1254, 1627, 1875, 1937, 2860, 2998):
        hi = _production_search_hi(m)
        cell = _bisected(build_Tm(m), hi, max(width, dilpoly._FLOAT_CELL))
        below = float(cell.lo - (cell.hi - cell.lo) / 2)
        monkeypatch.setattr(dilpoly, "_float_root", lambda p, search_hi: below)
        assert _steered_cell(build_Tm(m), hi, width) == (1, hi), m
        assert largest_root(build_Tm(m), hi, width) == _bisected(build_Tm(m), hi, width), m


def test_steered_cell_signs_are_taken_on_integers_at_m_1998(monkeypatch):
    # the cell's two signs go to IntPoly._sign on its unreduced integers,
    # p(1) is read from the coefficients, and the proven cell makes
    # p(search_hi) > 0 a consequence rather than a third sign
    calls = []
    sign = IntPoly._sign
    monkeypatch.setattr(IntPoly, "_sign", lambda self, n, q: calls.append((n, q)) or sign(self, n, q))
    hi = _production_search_hi(1998)
    root = largest_root(build_Tm(1998), hi)
    lo_n, den = calls[0]
    assert len(calls) == 2 and calls[1] == (lo_n + hi.numerator - hi.denominator, den)
    assert (root.lo, root.hi) == (Fraction(lo_n, den), Fraction(calls[1][0], den))


def _linear_walk(search_hi: Fraction, r: float, target: Fraction) -> tuple[int, int]:
    """(k, j) of the cell walk from depth 0, one depth at a time."""
    sd = search_hi.denominator
    sn = search_hi.numerator - sd
    rn, rd = r.as_integer_ratio()
    tn, td = (rn - rd) * sd, rd * sn
    k = j = 0
    while sn * target.denominator > target.numerator * ((sd << k) + sn * j):
        k += 1
        j = (tn << k) // td
    return k, j


class _Signs:
    """A polynomial stand-in that records the integers _steered_cell asks
    signs at and proves every cell it is offered."""

    def __init__(self):
        self.calls = []

    def _sign(self, n, q):
        self.calls.append((n, q))
        return -1 if len(self.calls) == 1 else 1


@settings(max_examples=300, deadline=None)
@given(
    st.fractions(min_value=Fraction(1, 1) + Fraction(1, 10**6), max_value=64, max_denominator=10**9),
    st.integers(1, 60),
    st.data(),
    st.integers(-3, 3),
    st.integers(1, 10**6),
    st.integers(6, 44),
)
def test_walk_start_depth_gives_the_linear_walk_cell(search_hi, depth, data, ulps, num, exp):
    # the float sits on a cell edge of the dyadic tree over (1, search_hi),
    # a few ulps either side, and the width runs from 1e-6 down to 2^-44
    # and below, where _FLOAT_CELL takes over
    span = search_hi - 1
    j = data.draw(st.integers(1, (1 << depth) - 1))
    r = float(1 + span * Fraction(j, 1 << depth))
    for _ in range(abs(ulps)):
        r = math.nextafter(r, math.inf if ulps > 0 else 1.0)
    width = Fraction(num, 10**6) * Fraction(1, 2**exp)
    assume(1 < r < search_hi)
    k, j = _linear_walk(search_hi, r, max(width, dilpoly._FLOAT_CELL))
    p = _Signs()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dilpoly, "_float_root", lambda p, search_hi: r)
        got = _steered_cell(p, search_hi, width)
    sd = search_hi.denominator
    den, sn = sd << k, search_hi.numerator - sd
    assert p.calls == [(den + sn * j, den), (den + sn * (j + 1), den)]
    assert got == (Fraction(den + sn * j, den), Fraction(den + sn * (j + 1), den))


def test_search_hi_sign_is_taken_only_from_the_top(monkeypatch):
    # where the float names a neighbour of the root's cell, bisection starts
    # from (1, search_hi), and only that path evaluates p(search_hi); the
    # bracket is bisection's either way
    calls = []
    sign = IntPoly._sign
    monkeypatch.setattr(IntPoly, "_sign", lambda self, n, q: calls.append((n, q)) or sign(self, n, q))
    width, from_top = Fraction(1, 10**14), []
    for m in (1036, 1225, 1254, 1503, 1627, 1875, 1937, 2091, 2860, 2998):
        hi = _production_search_hi(m)
        want = _bisected(build_Tm(m), hi, width)
        top = _steered_cell(build_Tm(m), hi, width) == (1, hi)
        calls.clear()
        assert largest_root(build_Tm(m), hi, width) == want, m
        assert (hi.as_integer_ratio() in calls) == top, m
        from_top.append(top)
    assert any(from_top) and not all(from_top)


def test_a_search_hi_at_or_below_the_root_still_raises_no_sign_change():
    # steering first refuses nothing new: no cell inside (1, search_hi] can
    # prove a root there, so the sign of p(search_hi) is taken and refuses
    cases = [(IntPoly.from_dict({2: 1, 0: -4}), Fraction(2))]  # p(search_hi) = 0
    for m in (5, 50, 1998):
        p = build_Tm(m)
        root = largest_root(p, _production_search_hi(m))
        cases += [(p, root.lo), (p, (1 + root.lo) / 2)]
    for p, search_hi in cases:
        message = f"p(search_hi) <= 0 at search_hi={search_hi}; enlarge search_hi"
        with pytest.raises(NoSignChange, match=re.escape(message)):
            largest_root(p, search_hi)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 200), st.integers(1, 200), st.integers(6, 30), st.integers(1, 9), st.booleans())
def test_largest_root_width_test_equals_plain_bisection(s, t, digits, lead, on_a_cell):
    # widths from 1e-6 to 1e-30, and widths met with equality by a cell of
    # bisection, where the cross-multiplied test must stop as hi - lo <= w * lo
    p, search_hi = build_T(s, t), 3
    width = Fraction(lead, 10**digits)
    if on_a_cell:
        cell = _bisected(p, search_hi, width)
        width = (cell.hi - cell.lo) / cell.lo
    assert largest_root(p, search_hi, width) == _bisected(p, search_hi, width)


def test_steered_bracket_equals_plain_bisection_on_a_stride_to_2000():
    width = Fraction(1, 10**10)
    for m in range(401, 2001, 13):
        hi = _production_search_hi(m)
        assert largest_root(build_Tm(m), hi) == _bisected(build_Tm(m), hi, width), m


def test_float_steer_evaluations_per_call(monkeypatch):
    # _float_root checks every value it computes with math.isfinite, once;
    # float bisection of the same quotient took 52.1 values a call here
    inputs = [(build_Tm(m), _production_search_hi(m)) for m in range(5, 2001)]
    values = []
    isfinite = math.isfinite
    monkeypatch.setattr(dilpoly.math, "isfinite", lambda v: values.append(v) or isfinite(v))
    roots = [_float_root(p, hi) for p, hi in inputs]
    monkeypatch.undo()
    assert all(1 < r < hi for r, (_, hi) in zip(roots, inputs))
    assert len(values) <= 30 * len(inputs)


@pytest.mark.parametrize(
    "search_hi, rel_width",
    [
        (3, True),
        ("3", Fraction(1, 10**10)),
        (math.nan, Fraction(1, 10**10)),
        (math.inf, Fraction(1, 10**10)),
        (None, Fraction(1, 10**10)),
        (3, math.nan),
        (3, math.inf),
        (3, None),
    ],
)
def test_largest_root_refuses_what_is_not_a_finite_number(search_hi, rel_width):
    with pytest.raises(DomainError, match="must be a finite number"):
        largest_root(build_Tm(5), search_hi, rel_width)


@pytest.mark.parametrize("bad", ["4", "1/2", True, math.nan, math.inf, None])
def test_oracle_bounds_and_evaluation_refuse_what_is_not_a_finite_number(bad):
    p = IntPoly.from_dict({0: -2, 2: 1})
    for call in (
        lambda: isolate_largest_real_root(p, bad),
        lambda: count_real_roots_above(p, bad),
        lambda: compare_largest_roots(p, p, bad, 4),
        lambda: compare_largest_roots(p, p, 4, bad),
        lambda: p.sign_at(bad),
        lambda: p(bad),
    ):
        with pytest.raises(DomainError, match="must be a finite number"):
            call()


def test_oracle_bounds_and_evaluation_read_ints_fractions_and_floats_exactly():
    p = IntPoly.from_dict({0: -2, 2: 1})
    assert isolate_largest_real_root(p, 4) == isolate_largest_real_root(p, 4.0)
    assert count_real_roots_above(p, 0.5) == count_real_roots_above(p, Fraction(1, 2)) == 1
    assert compare_largest_roots(p, p, 4.0, Fraction(4)) == 0
    assert (p.sign_at(0.5), p(0.5)) == (p.sign_at(Fraction(1, 2)), Fraction(-7, 4))


def test_largest_root_reads_ints_fractions_and_finite_floats_exactly():
    p = build_Tm(5)
    expected = largest_root(p, Fraction(3), Fraction(1e-10))
    assert largest_root(p, 3, Fraction(1e-10)) == largest_root(p, 3.0, 1e-10) == expected


@pytest.mark.parametrize("s, t", [(1.5, 2), (2, 2.0), (True, 2), (2, "3")])
def test_build_T_refuses_parameters_not_of_type_int(s, t):
    with pytest.raises(DomainError, match="requires an int [st] >= 1"):
        build_T(s, t)


@pytest.mark.parametrize("m", [5.0, True, "5"])
def test_build_Tm_refuses_an_index_not_of_type_int(m):
    with pytest.raises(DomainError, match="int m >= 2"):
        build_Tm(m)


@pytest.mark.parametrize("m", [5.0, True, Fraction(5)])
def test_m_cubed_root_enclosure_refuses_an_index_not_of_type_int(m):
    with pytest.raises(DomainError, match="requires an int m >= 1"):
        m_cubed_root_enclosure(m)


@pytest.mark.parametrize("m", [5.0, True, Fraction(5)])
def test_verify_lroot_refuses_an_index_not_of_type_int(m):
    with pytest.raises(DomainError, match="int m >= 5"):
        verify_lroot(m)


_sparse_polys = st.dictionaries(
    st.integers(0, 60), st.integers(-(10**30), 10**30), max_size=8
).map(IntPoly.from_dict)


@settings(max_examples=200, deadline=None)
@given(_sparse_polys, st.integers(-(10**20), 10**20), st.integers(1, 10**20))
def test_homogenised_horner_matches_the_term_sum(p, n, q):
    d = p.degree
    assert p._homogenised(n, q) == sum(c * n**e * q ** (d - e) for e, c in p.coeffs)


def _exact_sign(p: IntPoly, x: Fraction) -> int:
    num = p._homogenised(*Fraction(x).as_integer_ratio())
    return (num > 0) - (num < 0)


def _assert_signs_agree(p: IntPoly, x: Fraction) -> int | None:
    """sign_at is the exact sign; the interval sign is that too, or None."""
    exact = _exact_sign(p, x)
    assert p.sign_at(x) == exact, x
    sign = p._interval_sign(*Fraction(x).as_integer_ratio())
    assert sign in (None, exact), x
    return sign


_ULP60 = Fraction(1, 2**60)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 1500), st.integers(1, 1500))
def test_interval_sign_is_the_exact_sign_on_T(s, t):
    # T(s, t)(3) > 0, so its root above 1 lies in (1, 3); the fine bracket's
    # ends lie within 2^-62 of it
    p = build_T(s, t)
    coarse = largest_root(p, 3)
    fine = largest_root(p, 3, Fraction(1, 2**62))
    points = [1, 3, coarse.lo, coarse.hi, (coarse.lo + coarse.hi) / 2, coarse.lo - _ULP60]
    points += [fine.lo, fine.hi, fine.lo - _ULP60, fine.hi + _ULP60]
    for x in points:
        _assert_signs_agree(p, x)


def test_interval_signs_decide_every_Tm_probe():
    # both bracket ends, the midpoint, 2^-60 below the bracket, search_hi
    # and 1: no probe of a balanced T_m needs the exact route
    for m in list(range(5, 400, 3)) + [997, 2000, 5000]:
        p, hi = build_Tm(m), _production_search_hi(m)
        enc = largest_root(p, hi)
        for x in (enc.lo, enc.hi, (enc.lo + enc.hi) / 2, enc.lo - _ULP60, hi, Fraction(1)):
            assert _assert_signs_agree(p, x) is not None, (m, x)


_high_degree_polys = st.dictionaries(
    st.integers(0, 600), st.integers(-(10**30), 10**30), min_size=1, max_size=8
).map(IntPoly.from_dict)


@settings(max_examples=60, deadline=None)
@given(_high_degree_polys, st.integers(1, 2**70), st.integers(0, 64), st.sampled_from([-1, 0, 1]))
def test_interval_sign_is_the_exact_sign_next_to_a_root(p, n, k, side):
    # q = (2^k x - n) p has the exact root a = n / 2^k; x sits on it or
    # 2^-60 to one side
    a = Fraction(n, 2**k)
    acc: dict[int, int] = {}
    for e, c in p.coeffs:
        acc[e + 1] = acc.get(e + 1, 0) + (c << k)
        acc[e] = acc.get(e, 0) - c * n
    q = IntPoly.from_dict(acc)
    x = a + side * _ULP60
    sign = _assert_signs_agree(q, x)
    if side == 0:
        assert q.sign_at(x) == 0 and sign is None


def test_sign_at_falls_back_to_the_exact_route_on_a_tie(monkeypatch):
    calls = []
    homogenised = IntPoly._homogenised
    monkeypatch.setattr(
        IntPoly, "_homogenised", lambda self, n, q: calls.append(n) or homogenised(self, n, q)
    )
    p = IntPoly.from_dict({5000: 1, 0: -(2**5000)})
    assert p._interval_sign(2, 1) is None
    assert p.sign_at(2) == 0 and calls == [2]
    assert p.sign_at(2 + _ULP60) == 1 and p.sign_at(2 - _ULP60) == -1
    assert len(calls) == 1
    # a low-degree probe stays on the exact route
    assert build_T(3, 4).sign_at(Fraction(3, 2)) == _exact_sign(build_T(3, 4), Fraction(3, 2))
    assert len(calls) == 3


def _large_m_reports():
    return cover_upper_bound(2, 100000), verify_lroot(2000)


def test_large_m_roots_make_no_exact_evaluation(monkeypatch):
    exact = {"signs": 0, "roots": 0}
    homogenised, exact_root = IntPoly._homogenised, enclosures._exact_root

    def count(key, fn):
        def counted(*args):
            exact[key] += 1
            return fn(*args)

        return counted

    monkeypatch.setattr(IntPoly, "_homogenised", count("signs", homogenised))
    monkeypatch.setattr(enclosures, "_exact_root", count("roots", exact_root))
    cover, lroot = _large_m_reports()
    assert cover.m == 19998 and lroot.bound_holds
    assert exact == {"signs": 0, "roots": 0}
    # with both interval routes shut, the exact ones give the same reports
    monkeypatch.setattr(dilpoly, "_INTERVAL_DEGREE", math.inf)
    monkeypatch.setattr(enclosures, "_float_named_root", lambda x, n: None)
    assert _large_m_reports() == (cover, lroot)
    assert exact["signs"] > 0 and exact["roots"] == 2


_WIDTH_CHECK = """
from fractions import Fraction
from dillab.dilpoly import build_T, largest_root
from dillab.errors import DomainError

for width in (0, Fraction(-1, 2)):
    try:
        largest_root(build_T(1, 1), 4, rel_width=width)
    except DomainError:
        continue
    raise SystemExit(f"width {width} accepted")
"""


def test_nonpositive_widths_raise_domain_error():
    # in a child with a timeout, because such a width once bisected forever
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(dillab.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", _WIDTH_CHECK], capture_output=True, text=True, env=env, timeout=30
    )
    assert proc.returncode == 0, proc.stderr


def test_largest_root_proves_maximality_beyond_a_sign_change():
    # (x-2)(100x-301)(50x-151): p > 0 on (2, 3.01), which once hid the
    # largest root 151/50 from a sampling check above the first sign change.
    # (x-2)(x-3)^2: the largest root is double, p keeps its sign across it.
    # Both show three sign variations, so largest_root refuses them, and the
    # Sturm bisection of isolate_largest_real_root brackets the largest root
    for coeffs, root in (
        ({0: -90902, 1: 105751, 2: -40150, 3: 5000}, Fraction(151, 50)),
        ({3: 1, 2: -8, 1: 21, 0: -18}, Fraction(3)),
    ):
        p = IntPoly.from_dict(coeffs)
        with pytest.raises(DomainError, match="isolate_largest_real_root"):
            largest_root(p, search_hi=4)
        iv = isolate_largest_real_root(p, 4)
        assert iv.lo < root < iv.hi
        assert count_real_roots_above(p, iv.lo) == 1 and count_real_roots_above(p, iv.hi) == 0


def test_sturm_count_known_roots():
    # (x-1)(x-2)(x-3)
    p = IntPoly.from_dict({3: 1, 2: -6, 1: 11, 0: -6})
    assert count_real_roots_above(p, Fraction(0)) == 3
    assert count_real_roots_above(p, Fraction(3, 2)) == 2
    assert count_real_roots_above(p, Fraction(5, 2)) == 1
    assert count_real_roots_above(p, Fraction(4)) == 0


def test_sturm_repeated_roots_counted_once():
    # (x-2)^2 (x-5): the chain of p and p' counts the distinct roots {2, 5}
    # once each
    p = IntPoly.from_dict({3: 1, 2: -9, 1: 24, 0: -20})
    assert count_real_roots_above(p, Fraction(0)) == 2
    assert count_real_roots_above(p, Fraction(3)) == 1
    assert count_real_roots_above(p, Fraction(6)) == 0


def test_sturm_interior_zero_coefficient_regression():
    # x^7 - 8x^5 - 6x^4 - 39x^3 - 39x^2: double root at 0, largest real
    # root just below 3.3; its interior zero coefficient must keep its place
    # in the dense chain members
    p = IntPoly.from_dict({7: 1, 5: -8, 4: -6, 3: -39, 2: -39})
    assert count_real_roots_above(p, Fraction(8)) == 0
    assert count_real_roots_above(p, Fraction(3)) == 1
    assert count_real_roots_above(p, Fraction(1)) == 1
    # counting at an exact root (0 here) is out of contract
    with pytest.raises(ValueError):
        count_real_roots_above(p, Fraction(0))


def _from_roots(c: int, roots: dict) -> IntPoly:
    """c * prod (x - r)^e over the items r: e of roots."""
    coeffs = [c]
    for r, e in roots.items():
        for _ in range(e):
            coeffs = [
                (coeffs[i - 1] if i else 0) - r * (coeffs[i] if i < len(coeffs) else 0)
                for i in range(len(coeffs) + 1)
            ]
    return IntPoly(tuple(enumerate(coeffs)))


_factored = st.tuples(
    st.integers(-6, 6).filter(bool),
    st.dictionaries(st.integers(-6, 6), st.integers(1, 3), min_size=1, max_size=4),
)
_non_root = st.builds(Fraction, st.integers(-50, 50), st.sampled_from([2, 3, 7])).filter(
    lambda a: a.denominator != 1
)


@settings(max_examples=80, deadline=None)
@given(_factored, _factored, _non_root)
def test_integer_sturm_chains_on_factored_polynomials(fa, fb, a):
    # negative leading coefficients, content and multiplicity all reach the
    # integer chains; every count is of distinct roots
    (ca, ra), (cb, rb) = fa, fb
    pa, pb = _from_roots(ca, ra), _from_roots(cb, rb)
    assert count_real_roots_above(pa, a) == sum(1 for r in ra if r > a)
    iv = isolate_largest_real_root(pa, 7)
    assert iv.lo < max(ra) < iv.hi
    diff = max(ra) - max(rb)
    assert compare_largest_roots(pa, pb, 7, 7) == (diff > 0) - (diff < 0)


def test_isolate_largest_real_root():
    p = IntPoly.from_dict({2: 1, 0: -2})
    iv = isolate_largest_real_root(p, hi_bound=Fraction(2))
    assert iv.lo ** 2 < 2 < iv.hi ** 2
    assert iv.width <= Fraction(1, 2 ** 80)
    with pytest.raises(DomainError):
        isolate_largest_real_root(p, hi_bound=Fraction(1))


def test_compare_largest_roots_trichotomy():
    a = IntPoly.from_dict({2: 1, 0: -2})  # sqrt 2
    b = IntPoly.from_dict({2: 1, 0: -3})  # sqrt 3
    assert compare_largest_roots(a, b, Fraction(2), Fraction(2)) == -1
    assert compare_largest_roots(b, a, Fraction(2), Fraction(2)) == 1
    # equality through different presentations of the same algebraic number
    c = IntPoly.from_dict({4: 1, 2: -4, 0: 4})  # (x^2 - 2)^2
    assert compare_largest_roots(a, c, Fraction(2), Fraction(2)) == 0


def _pell_convergents(bits):
    """Consecutive convergents p/q of sqrt 2 with p^2 - 2q^2 = +-1 and
    q > 2^bits, so that |p/q - sqrt 2| = 1/(q(p + q sqrt 2)) < 2^-(2 bits)."""
    p, q = 1, 1
    while q <= 2**bits:
        p, q = p + 2 * q, p + q
    return (p, q), (p + 2 * q, p + q)


def test_compare_separates_roots_closer_than_any_fixed_width():
    # |p/q - sqrt 2| < 2^-122: the compare loop must refine past 2^-80
    sqrt2 = IntPoly.from_dict({2: 1, 0: -2})
    for p, q in _pell_convergents(61):
        assert abs(p * p - 2 * q * q) == 1
        linear = IntPoly.from_dict({1: q, 0: -p})
        expect = 1 if p * p > 2 * q * q else -1  # sign of p/q - sqrt 2
        assert compare_largest_roots(linear, sqrt2, 2, 2) == expect
        assert compare_largest_roots(sqrt2, linear, 2, 2) == -expect


def test_compare_equal_largest_roots_with_different_smaller_roots():
    a = IntPoly.from_dict({3: 1, 2: 5, 1: -2, 0: -10})  # (x^2 - 2)(x + 5)
    b = IntPoly.from_dict({3: 1, 2: -1, 1: -2, 0: 2})  # (x^2 - 2)(x - 1)
    assert compare_largest_roots(a, b, 2, 2) == 0
    assert compare_largest_roots(b, a, 2, 2) == 0
    # a shared root below both largest roots does not make them equal
    c = IntPoly.from_dict({3: 1, 2: -1, 1: -3, 0: 3})  # (x^2 - 3)(x - 1)
    assert compare_largest_roots(b, c, 2, 2) == -1
    assert compare_largest_roots(c, b, 2, 2) == 1


def _outcome(call):
    try:
        return call()
    except Exception as exc:  # a refusal is compared by type and message
        return type(exc), str(exc)


def _in_range(roots: dict, hi: int) -> bool:
    """Whether hi is a bound compare_largest_roots accepts for a polynomial
    with these real roots: the largest lies in (-|hi| - 1, hi), and
    -|hi| - 1 is no root."""
    low = -abs(hi) - 1
    return low < max(roots) < hi and low not in roots


def _times_x2_plus_1(p: IntPoly, power: int) -> IntPoly:
    """p * (x^2 + 1)**power: roots that are not real."""
    for _ in range(power):
        acc: dict[int, int] = {}
        for e, c in p.coeffs:
            acc[e] = acc.get(e, 0) + c
            acc[e + 2] = acc.get(e + 2, 0) + c
        p = IntPoly.from_dict(acc)
    return p


_oracle_polys = st.tuples(_factored, st.integers(0, 1))
# 7 dominates every root of _factored; the others also put hi_bound below a
# root, on one, or put -|hi_bound| - 1 on one or above them all
_bounds = st.one_of(st.just(7), st.integers(-8, 8))


@settings(max_examples=150, deadline=None)
@given(_oracle_polys, _oracle_polys, st.booleans(), _bounds, _bounds)
@example(((1, {5: 1}), 0), ((1, {2: 1}), 0), False, 3, 7)  # hi_a below a root
@example(((1, {3: 1}), 0), ((1, {2: 1}), 0), False, 3, 7)  # a root at hi_a
@example(((1, {-3: 1, 1: 1}), 0), ((1, {2: 1}), 0), False, 2, 7)  # a root at -|hi_a| - 1
@example(((1, {-5: 1}), 0), ((1, {2: 1}), 0), False, 2, 7)  # real roots only below it
@example(((1, {2: 1}), 0), ((-1, {-4: 1}), 1), False, 7, 3)  # and for pb
@example(((2, {2: 2, -1: 1}), 1), ((3, {2: 1}), 0), True, 7, 7)  # equal, one double
def test_compare_decides_or_refuses_drawn_polynomials(fa, fb, share, hi_a, hi_b):
    # repeated roots, equal largest roots (share), complex pairs, negative
    # leading coefficients, and the bounds the oracle refuses
    ((ca, ra), pair_a), ((cb, rb), pair_b) = fa, fb
    if share:
        top = max(ra)
        rb = {**rb, top: rb.get(top, 0) + 1}
    pa = _times_x2_plus_1(_from_roots(ca, ra), pair_a)
    pb = _times_x2_plus_1(_from_roots(cb, rb), pair_b)
    got = _outcome(lambda: compare_largest_roots(pa, pb, hi_a, hi_b))
    if _in_range(ra, hi_a) and _in_range(rb, hi_b):
        diff = max(ra) - max(rb)
        assert got == (diff > 0) - (diff < 0)
    else:
        assert got[0] is DomainError, got


def test_compare_refuses_a_root_just_past_a_bound():
    # a root just past hi_bound (root 3 + 2^-41, hi_bound 3) or just past
    # -|hi_bound| - 1 (root -4 - 2^-41) is refused, in either argument
    near_hi = IntPoly.from_dict({1: 2**41, 0: -(3 * 2**41 + 1)})
    near_lo = IntPoly.from_dict({1: 2**41, 0: 4 * 2**41 + 1})
    two = IntPoly.from_dict({1: 1, 0: -2})
    for p in (near_hi, near_lo):
        for pair in ((p, two, 3, 7), (two, p, 7, 3)):
            got = _outcome(lambda: compare_largest_roots(*pair))
            assert got[0] is DomainError, (p, got)


def test_a_root_on_a_bound_is_refused_by_name():
    # the Sturm count is undefined at a root, so a root on hi_bound (x - 2)
    # or on -|hi_bound| - 1 (x + 3) is refused with the bound it sits on
    sqrt3 = IntPoly.from_dict({2: 1, 0: -3})
    for root, name in ((2, "at hi_bound"), (-3, r"at -\|hi_bound\| - 1")):
        p = IntPoly.from_dict({1: 1, 0: -root})
        with pytest.raises(DomainError, match=name):
            isolate_largest_real_root(p, hi_bound=2)
        with pytest.raises(DomainError, match=name):
            compare_largest_roots(p, sqrt3, 2, 2)
        with pytest.raises(DomainError, match=name):
            compare_largest_roots(sqrt3, p, 2, 2)


@st.composite
def _nonnegative_matrices(draw):
    """Nonnegative matrices, k <= 6, reducible ones and the zero matrix
    among them; half are periodic, with no edge inside either part of a
    bipartition, so that -mu is a root too."""
    k = draw(st.integers(min_value=1, max_value=6))
    rows = [[draw(st.sampled_from([0, 0, 0, 1, 2, 3])) for _ in range(k)] for _ in range(k)]
    if draw(st.booleans()):
        split = draw(st.integers(0, k))
        rows = [
            [x * ((i < split) != (j < split)) for j, x in enumerate(row)]
            for i, row in enumerate(rows)
        ]
    return rows


def _exact_route(a: IntMatrix, b: IntMatrix) -> int:
    """mu_compare's exact route alone, with no Collatz-Wielandt filter."""
    hi_a, hi_b = max(a.row_sums()) + 1, max(b.row_sums()) + 1
    return compare_largest_roots(char_poly(a), char_poly(b), hi_a, hi_b)


@settings(max_examples=100, deadline=None)
@given(_nonnegative_matrices(), _nonnegative_matrices(), st.data())
def test_mu_compare_conjugates_equal_and_exact_route_antisymmetric(rows, other, data):
    k = len(rows)
    a, b = IntMatrix.from_rows(rows), IntMatrix.from_rows(other)
    perm = data.draw(st.permutations(range(k)))
    conj = IntMatrix.from_rows([[rows[perm[i]][perm[j]] for j in range(k)] for i in range(k)])
    assert mu_compare(a, conj) == 0
    # the exact route alone: mu_compare's filter decides most unequal radii
    assert _exact_route(a, b) == -_exact_route(b, a)


def _subdivision_pairs(monkeypatch, cases: int) -> list:
    """The (sub, graph) pairs that the subdivision suite's first cases at
    seed 7 pass to mu_compare: a random irreducible graph on 2..7 vertices
    with a vertex spliced in, and its subdivision."""
    pairs = []
    with monkeypatch.context() as mp:
        mp.setattr(suites, "mu_compare", lambda a, b: pairs.append((a, b)) or -1)
        for idx in range(cases):
            suites._subdivision_case(("subdivision", 7, idx))
    return pairs


def test_mu_compare_work_count_on_spliced_graphs(monkeypatch):
    # the characteristic polynomials have degree 3..9. Sturm bisection
    # isolates both Perron roots in overlapping cells, one gcd shows no
    # common root there, and refinement separates them: 21..32 Sturm counts
    # per call, the gcd's two included
    pairs = _subdivision_pairs(monkeypatch, 36)
    counter, poly_gcd = dilpoly._sturm_counter, dilpoly._poly_gcd
    evals, gcds, calls = [], [], []

    def counting_counter(p):
        roots_above = counter(p)

        def counted(a):
            evals.append(a)
            return roots_above(a)

        return counted

    monkeypatch.setattr(dilpoly, "_sturm_counter", counting_counter)
    monkeypatch.setattr(dilpoly, "_poly_gcd", lambda a, b: gcds.append(1) or poly_gcd(a, b))
    for sub, graph in pairs:
        before = len(evals)
        result = _exact_route(sub, graph)
        calls.append((sub.k, graph.k, result, len(evals) - before))
    assert len(calls) == 36
    assert {k for a_k, b_k, _, _ in calls for k in (a_k, b_k)} == set(range(3, 10))
    assert [result for _, _, result, _ in calls] == [-1] * 36
    assert min(n for *_, n in calls) == 21 and max(n for *_, n in calls) == 32
    assert len(evals) == 892 and len(gcds) == 36


def test_the_sturm_route_reads_p_sign_from_its_chain(monkeypatch):
    # p is the Sturm chain's first member, so neither a probe nor a bound
    # evaluates p on its own: equal radii, which only the exact route
    # decides, make no sign_at call
    pairs = _subdivision_pairs(monkeypatch, 6)
    signs = []
    sign_at = IntPoly.sign_at
    monkeypatch.setattr(IntPoly, "sign_at", lambda p, x: signs.append(x) or sign_at(p, x))
    for sub, graph in pairs:
        for g in (sub, graph):
            rows = g.entries
            back = range(g.k - 1, -1, -1)
            conj = IntMatrix.from_rows([[rows[i][j] for j in back] for i in back])
            assert mu_compare(g, conj) == 0
    assert signs == []


def test_a_probe_on_a_root_moves_to_the_next_point(monkeypatch):
    # (2x + 1)(x - 2) vanishes at -1/2, the midpoint of (-4, 3): the Sturm
    # count there is None, and the probe moves on to -4 + 7 * 3/7 = -1
    p = IntPoly.from_dict({2: 2, 1: -3, 0: -2})
    counter = dilpoly._sturm_counter(p)
    probes = []
    assert counter(Fraction(-1, 2)) is None
    with pytest.raises(ValueError, match="requires p"):
        count_real_roots_above(p, Fraction(-1, 2))
    counted = lambda a: probes.append(a) or counter(a)
    assert dilpoly._isolate(p, Fraction(3), counted) == (1, 3)
    assert probes == [3, -4, Fraction(-1, 2), -1, 1]


def test_mu_compare_filter_decides_spliced_graphs(monkeypatch):
    # Collatz-Wielandt bounds separate every one of those 36 pairs, so
    # mu_compare builds no characteristic polynomial
    pairs = _subdivision_pairs(monkeypatch, 36)
    built = []
    monkeypatch.setattr(dilpoly, "char_poly", lambda m: built.append(m) or char_poly(m))
    assert [mu_compare(sub, graph) for sub, graph in pairs] == [-1] * 36
    assert not built


@settings(max_examples=100, deadline=None)
@given(_nonnegative_matrices(), _nonnegative_matrices(), st.data())
def test_mu_compare_filter_agrees_with_the_exact_route(rows, other, data):
    # reducible, periodic and zero matrices: the filter needs no
    # irreducibility, and equal radii never get a sign from it
    k = len(rows)
    a, b = IntMatrix.from_rows(rows), IntMatrix.from_rows(other)
    exact = _exact_route(a, b)
    assert mu_compare(a, b) == exact and mu_compare(b, a) == -exact
    perm = data.draw(st.permutations(range(k)))
    conj = IntMatrix.from_rows([[rows[perm[i]][perm[j]] for j in range(k)] for i in range(k)])
    assert _cw_compare(a, conj) is None and _cw_compare(conj, a) is None


def test_mu_compare_filter_with_a_zero_row():
    # mu = 1, and the zero row pins the lower bound at 0: the filter can
    # only prove this matrix the smaller one, in either order
    lower = IntMatrix(((0, 0), (1, 1)))
    fib = IntMatrix(((0, 1), (1, 1)))
    assert _cw_compare(lower, fib) == -1 and _cw_compare(fib, lower) == 1
    assert mu_compare(lower, fib) == -1 and mu_compare(fib, lower) == 1
    assert _cw_compare(lower, IntMatrix(((1,),))) is None
    assert mu_compare(lower, IntMatrix(((1,),))) == 0


def test_mu_compare_filter_with_entries_past_the_repeat_cap():
    # repeating 2**1100 would gather far more items than scaling it, so the
    # kernel takes its scaled route; mu is 2**1100 + sqrt(2) against 2**1100,
    # separated at the first step, and 2**1100 + 1 twice, which only the
    # exact route can call equal
    big = 2**1100
    a = IntMatrix(((big, 1), (2, big)))
    diagonal = IntMatrix(((big, 0), (0, big)))
    assert _cw_compare(a, diagonal) == 1 and _cw_compare(diagonal, a) == -1
    assert mu_compare(a, diagonal) == 1 == _exact_route(a, diagonal)
    twin = IntMatrix(((big, 1), (1, big)))
    single = IntMatrix(((big + 1,),))
    assert _cw_compare(twin, single) is None
    assert mu_compare(twin, single) == 0 == _exact_route(twin, single)


_small_dense_polys = st.lists(st.integers(-100, 100), min_size=1, max_size=9).map(
    lambda c: IntPoly(tuple(enumerate(c)))
)


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(
        st.tuples(_factored, _factored).map(lambda f: tuple(_from_roots(*x) for x in f)),
        st.tuples(_small_dense_polys, _small_dense_polys),
    )
)
def test_unchecked_chain_and_gcd_members_are_canonical(pair):
    # members built by IntPoly._of skip validation; they must equal the
    # validated polynomial: sorted, no zero coefficient, the same hash
    pa, pb = pair
    members = dilpoly._sturm_chain(pa) + dilpoly._sturm_chain(pb)
    members.append(dilpoly._sparse(dilpoly._poly_gcd(dilpoly._dense(pa), dilpoly._dense(pb))))
    for member in members:
        checked = IntPoly(member.coeffs)
        assert member.coeffs == checked.coeffs
        assert member == checked and hash(member) == hash(checked)


@st.composite
def _irreducible_matrices(draw):
    """Irreducible nonnegative matrices, k <= 7: a weighted k-cycle plus
    random entries."""
    k = draw(st.integers(min_value=1, max_value=7))
    rows = [[draw(st.sampled_from([0, 0, 0, 1, 2])) for _ in range(k)] for _ in range(k)]
    for i in range(k):
        rows[i][(i + 1) % k] += 1
    return rows


@settings(max_examples=60, deadline=None)
@given(_irreducible_matrices(), _irreducible_matrices(), st.data())
def test_mu_compare_exact_properties(rows, other, data):
    k = len(rows)
    a, b = IntMatrix.from_rows(rows), IntMatrix.from_rows(other)
    assert mu_compare(a, a) == 0
    perm = data.draw(st.permutations(range(k)))
    conj = IntMatrix.from_rows([[rows[perm[i]][perm[j]] for j in range(k)] for i in range(k)])
    assert mu_compare(a, conj) == 0
    # mu strictly increases with any entry of an irreducible matrix
    i, j = data.draw(st.integers(0, k - 1)), data.draw(st.integers(0, k - 1))
    bumped = [list(row) for row in rows]
    bumped[i][j] += 1
    assert mu_compare(a, IntMatrix.from_rows(bumped)) == -1
    assert mu_compare(IntMatrix.from_rows(bumped), a) == 1
    assert mu_compare(a, b) == -mu_compare(b, a)


def test_char_poly_fibonacci():
    p = char_poly(IntMatrix(((0, 1), (1, 1))))
    assert p == IntPoly.from_dict({2: 1, 1: -1, 0: -1})


def test_char_poly_companion():
    # companion matrix of x^3 - 2x^2 - 7x - 5
    m = IntMatrix(((0, 1, 0), (0, 0, 1), (5, 7, 2)))
    assert char_poly(m) == IntPoly.from_dict({3: 1, 2: -2, 1: -7, 0: -5})
    assert char_poly(identity(3)) == IntPoly.from_dict(
        {3: 1, 2: -3, 1: 3, 0: -1}
    )


# (matrix, whether IntMatrix._times takes the scaled route on it)
_CHAR_POLY_ROUTES = [
    (IntMatrix(((7,),)), True),  # k = 1, an entry of 7: 6 extra items against 2 + 2
    (IntMatrix(((0,),)), False),  # k = 1, an empty row
    (IntMatrix(((0, 2**70), (1, 3))), True),
    (IntMatrix(((2, 3, 1), (3, 2, 3), (1, 3, 2))), False),  # small dense entries repeat
    (IntMatrix([[4] * 8] * 8), True),  # dense entries of 4 scale
    (IntMatrix(((0, 1, 0), (0, 0, 1), (1, 1, 0))), False),
]


def test_char_poly_equals_the_row_loop_on_both_product_routes():
    for m, scaled in _CHAR_POLY_ROUTES:
        assert (_scaled_plan(m.rows) is not None) is scaled, m
        assert char_poly(m) == faddeev_leverrier_rows(m), m


@st.composite
def _char_poly_matrices(draw):
    k = draw(st.integers(min_value=1, max_value=7))
    top = draw(st.sampled_from((1, 3, 4, 5, 2**70)))
    return IntMatrix([[draw(st.integers(min_value=0, max_value=top)) for _ in range(k)] for _ in range(k)])


@given(_char_poly_matrices())
@settings(max_examples=150, deadline=None)
def test_char_poly_on_the_exact_product_equals_the_row_loop(m):
    # char_poly multiplies the iterate's columns by IntMatrix._times; the
    # reference multiplies its rows by hand, as char_poly once did
    assert char_poly(m) == faddeev_leverrier_rows(m)


def test_mu_compare_known_pairs():
    fib = IntMatrix(((0, 1), (1, 1)))
    double = IntMatrix(((2,),))
    assert mu_compare(fib, double) == -1
    assert mu_compare(double, fib) == 1
    assert mu_compare(fib, fib) == 0
    # same spectral radius, different dimension
    perm = IntMatrix(((0, 2, 0), (0, 0, 2), (2, 0, 0)))
    assert mu_compare(double, perm) == 0


def test_m_cubed_root_enclosure():
    for m in (5, 9, 50):
        iv = m_cubed_root_enclosure(m)
        assert iv.lo ** m < m ** 3 < iv.hi ** m
    # m = 1: 1^3 = 1 exactly
    iv = m_cubed_root_enclosure(1)
    assert iv.lo <= 1 <= iv.hi
    with pytest.raises(DomainError):
        m_cubed_root_enclosure(0)


def test_verify_lroot_small_range():
    for m in range(5, 13):
        rep = verify_lroot(m)
        assert rep.bound_holds, m
        assert rep.ineq1 and rep.ineq2 and rep.ineq3, m
        assert rep.root.hi < rep.m_power_enclosure.lo
        # certified cap: root^m < m^3 exactly
        assert rep.root.hi ** m < m ** 3
    with pytest.raises(DomainError):
        verify_lroot(4)


def test_verify_lroot_root_decreases():
    # the largest root decays toward 1 as m grows
    prev = None
    for m in (5, 20, 80):
        hi = verify_lroot(m).root.hi
        if prev is not None:
            assert hi < prev
        prev = hi

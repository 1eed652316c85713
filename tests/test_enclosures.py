from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dillab.enclosures import (
    RatInterval,
    decimal_str,
    interval_gap,
    log_enclosure,
    log_interval,
    nth_root_enclosure,
)


def test_interval_basics():
    iv = RatInterval(Fraction(1, 3), Fraction(1, 2))
    assert iv.width == Fraction(1, 6)
    assert iv.contains(Fraction(2, 5))
    assert not iv.contains(Fraction(2, 3))
    assert RatInterval.point(Fraction(7)).width == 0
    with pytest.raises(ValueError):
        RatInterval(Fraction(1), Fraction(0))


def test_interval_arithmetic():
    a = RatInterval(Fraction(1), Fraction(2))
    b = RatInterval(Fraction(3), Fraction(5))
    assert (a + b).lo == 4 and (a + b).hi == 7
    assert (b - a).lo == 1 and (b - a).hi == 4
    assert a.scale(Fraction(3)).hi == 6


def test_interval_gap():
    a = RatInterval(Fraction(0), Fraction(1))
    b = RatInterval(Fraction(3, 2), Fraction(2))
    assert interval_gap(a, b) == Fraction(1, 2)
    assert interval_gap(b, a) == Fraction(1, 2)
    assert interval_gap(a, RatInterval(Fraction(1, 2), Fraction(3))) == 0


def test_nth_root_enclosure_exact_power():
    iv = nth_root_enclosure(Fraction(32), 5)
    assert iv.lo == iv.hi == 2


def test_nth_root_enclosure_sqrt2():
    iv = nth_root_enclosure(Fraction(2), 2, bits=48)
    assert iv.lo ** 2 < 2 < iv.hi ** 2
    assert iv.width <= Fraction(1, 2 ** 47)


def test_log_enclosure_log2():
    # ln 2 = 0.693147180559945...
    enc = log_enclosure(2)
    assert enc.lo < Fraction(693147180559946, 10 ** 15)
    assert enc.hi > Fraction(693147180559945, 10 ** 15)
    assert enc.hi - enc.lo <= Fraction(1, 10 ** 12)


def test_log_enclosure_known_values():
    # ln 10 = 2.302585092994046, ln(1/2) = -ln 2
    enc10 = log_enclosure(10)
    assert enc10.lo < Fraction(2302585093, 10 ** 9)
    assert enc10.hi > Fraction(2302585092, 10 ** 9)
    half = log_enclosure(Fraction(1, 2))
    two = log_enclosure(2)
    assert half.lo <= -two.lo and half.hi >= -two.hi


def test_log_interval_monotone():
    iv = log_interval(RatInterval(Fraction(2), Fraction(10)))
    assert iv.lo < Fraction(6932, 10 ** 4)
    assert iv.hi > Fraction(23025, 10 ** 4)


def test_decimal_str_rounding():
    x = Fraction(1, 3)
    assert decimal_str(x, digits=5, rounding="floor") == "0.33333"
    assert decimal_str(x, digits=5, rounding="ceil") == "0.33334"
    assert decimal_str(Fraction(-1, 3), digits=3, rounding="floor") == "-0.334"
    assert decimal_str(Fraction(5, 4), digits=2) == "1.25"


@given(st.integers(min_value=2, max_value=10 ** 6), st.integers(min_value=2, max_value=12))
@settings(max_examples=60, deadline=None)
def test_nth_root_enclosure_encloses(q, n):
    iv = nth_root_enclosure(Fraction(q), n, bits=32)
    assert iv.lo ** n <= q <= iv.hi ** n
    assert iv.lo > 0


@given(
    st.fractions(min_value=Fraction(1, 50), max_value=Fraction(50)),
    st.fractions(min_value=Fraction(1, 50), max_value=Fraction(50)),
)
@settings(max_examples=50, deadline=None)
def test_log_additivity_encloses(a, b):
    # log(ab) must land inside the sum of the two enclosures (outward widths)
    la, lb, lab = log_enclosure(a), log_enclosure(b), log_enclosure(a * b)
    assert lab.lo >= la.lo + lb.lo - Fraction(1, 10 ** 10)
    assert lab.hi <= la.hi + lb.hi + Fraction(1, 10 ** 10)


@given(st.fractions(min_value=Fraction(1, 30), max_value=Fraction(30)))
@settings(max_examples=40, deadline=None)
def test_log_sign_convention(q):
    enc = log_enclosure(q)
    if q > 1:
        assert enc.lo > 0
    elif q < 1:
        assert enc.hi < 0
    else:
        assert enc.lo <= 0 <= enc.hi

import hashlib
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dillab import enclosures
from dillab.enclosures import (
    RatInterval,
    _exact_root,
    _float_named_root,
    dyadic_enclosure,
    dyadic_mul,
    dyadic_pow,
    dyadic_sum_sign,
    inth_root,
    interval_gap,
    log_enclosure,
    log_interval,
    nth_root_enclosure,
)
from dillab.errors import DomainError


def test_interval_basics():
    iv = RatInterval(Fraction(1, 3), Fraction(1, 2))
    assert iv.width == Fraction(1, 6)
    assert iv.contains(Fraction(2, 5))
    assert not iv.contains(Fraction(2, 3))
    assert iv.contains(0.5) and not iv.contains(1)
    assert RatInterval.point(Fraction(7)).width == 0
    with pytest.raises(ValueError):
        RatInterval(Fraction(1), Fraction(0))


def test_interval_arithmetic():
    # an interval carries no arithmetic: its callers compute each end in
    # integers (enclosures._log_ints) and build it once
    a = RatInterval(Fraction(1), Fraction(2))
    for name in ("__add__", "scale", "div_positive", "imax"):
        assert not hasattr(a, name), name
    assert RatInterval(1, 2) == a and type(RatInterval(1, 2).lo) is Fraction


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


def _assert_floor_root(x, n):
    r = inth_root(x, n)
    assert r >= 0
    assert r**n <= x < (r + 1) ** n
    return r


# bit lengths up to 3,000 with n up to 3,000, so n often exceeds bits(x)
_radicands = st.one_of(
    st.sampled_from([0, 1]),
    st.integers(min_value=0, max_value=3000).flatmap(
        lambda bits: st.integers(min_value=0, max_value=2**bits)
    ),
)


@given(_radicands, st.integers(min_value=1, max_value=3000))
@settings(max_examples=200, deadline=None)
def test_inth_root_is_floor_root(x, n):
    _assert_floor_root(x, n)


@given(
    st.integers(min_value=1, max_value=2**64),
    st.integers(min_value=1, max_value=300),
    st.sampled_from([-1, 0, 1]),
)
@settings(max_examples=150, deadline=None)
def test_inth_root_next_to_perfect_powers(t, n, d):
    r = _assert_floor_root(t**n + d, n)
    if d == 0:
        assert r == t


@pytest.mark.parametrize("m", [5, 400, 1998])
def test_inth_root_m_cubed_radicand(m):
    # the radicand behind the m^(3/m) enclosure at 48 bits
    _assert_floor_root((m**3) << (48 * m), m)


def _reference_atanh(r, width):
    # the earlier kernel: the atanh series one Fraction term at a time
    u = (r - 1) / (r + 1)
    u2 = u * u
    s = Fraction(0)
    upow = u
    j = 0
    one_minus = 1 - u2
    while True:
        s += upow / (2 * j + 1)
        j += 1
        upow *= u2
        tail = abs(upow) / ((2 * j + 1) * one_minus)
        if 2 * tail <= width / 2:
            return 2 * s - 2 * tail, 2 * s + 2 * tail


def _reference_log(q, width):
    # the earlier reduction, halving or doubling into [3/4, 3/2), plus k log 2
    k = 0
    r = Fraction(q)
    while r >= Fraction(3, 2):
        r /= 2
        k += 1
    while r < Fraction(3, 4):
        r *= 2
        k -= 1
    lo, hi = _reference_atanh(r, Fraction(width))
    if k == 0:
        return lo, hi
    log2_lo, log2_hi = _reference_atanh(Fraction(2), Fraction(1, 10**40))
    if k > 0:
        return lo + k * log2_lo, hi + k * log2_hi
    return lo + k * log2_hi, hi + k * log2_lo


# q at, or just either side of, 2**e, 3/4 * 2**e and 3/2 * 2**e
_near = st.sampled_from([0, Fraction(1, 2**60), Fraction(-1, 2**60), Fraction(1, 10**9)])
_widths = st.sampled_from([Fraction(1, 10**3), Fraction(1, 10**12), Fraction(1, 10**30)])
_log_args = st.one_of(
    st.builds(Fraction, st.integers(1, 10**30), st.integers(1, 10**30)),
    st.fractions(min_value=Fraction(1, 10**6), max_value=1).filter(lambda q: 0 < q < 1),
    st.builds(
        lambda base, e, d: (base + d) * Fraction(2) ** e,
        st.sampled_from([Fraction(1), Fraction(3, 4), Fraction(3, 2)]),
        st.integers(-80, 80),
        _near,
    ),
)


@given(_log_args, _widths)
# a width exactly at the stopping bound after two terms: u = 1/9, tail = width / 4
@example(Fraction(5, 4), 4 * Fraction(1, 9) ** 5 / (5 * (1 - Fraction(1, 81))))
@settings(max_examples=300, deadline=None)
def test_log_enclosure_matches_reference(q, width):
    enc = log_enclosure(q, width)
    assert (enc.lo, enc.hi) == _reference_log(q, width)


def test_enclosure_preconditions_raise_domain_error():
    unit = RatInterval(Fraction(1), Fraction(2))
    for call in (
        lambda: log_enclosure(2, 0),
        lambda: log_enclosure(2, Fraction(-1, 10)),
        lambda: log_interval(unit, 0),
        lambda: nth_root_enclosure(2, 0),
        lambda: nth_root_enclosure(2, -3),
        lambda: nth_root_enclosure(2, 2, bits=-1),
        lambda: inth_root(2, 0),
        lambda: inth_root(-1, 2),
    ):
        with pytest.raises(DomainError):
            call()
    # the least valid values are answered
    assert inth_root(0, 5) == 0 and inth_root(7, 1) == 7


def test_nth_root_refuses_an_oversized_radicand_before_building_it():
    # hk-root --m 10**11 asks for the m-th root of m**3 at 48 bits, read
    # from m**3 << 4.8e12: a 600 GB integer, refused before any of it exists
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="exceeds the budget of 1073741824 bits"):
            nth_root_enclosure(10**33, 10**11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # n * bits = 2**30 is answered, one more bit is not; q = 0 keeps the
    # shifted radicand empty
    assert nth_root_enclosure(0, 1 << 24, bits=64) == RatInterval.point(0)
    with pytest.raises(DomainError):
        nth_root_enclosure(0, (1 << 24) + 1, bits=64)


def _dyadic_holds(a, x: Fraction) -> bool:
    lo, hi, e = a
    return lo * Fraction(2) ** e <= x <= hi * Fraction(2) ** e


@given(st.integers(1, 2**200), st.integers(1, 2**200), st.integers(0, 700))
@settings(max_examples=200, deadline=None)
def test_dyadic_powers_hold_the_exact_power(n, q, k):
    x = dyadic_enclosure(n, q)
    assert _dyadic_holds(x, Fraction(n, q))
    assert _dyadic_holds(dyadic_pow(x, k), Fraction(n, q) ** k)


@given(st.integers(1, 2**96 - 1), st.integers(0, 200))
def test_dyadic_enclosure_is_exact_on_short_dyadics(n, k):
    lo, hi, e = dyadic_enclosure(n, 2**k)
    assert lo == hi and lo * Fraction(2) ** e == Fraction(n, 2**k)


_terms = st.lists(
    st.tuples(st.integers(-(10**30), 10**30), st.integers(1, 2**64), st.integers(0, 300)),
    min_size=1,
    max_size=6,
)


@given(_terms, st.integers(1, 2**64), st.integers(1, 2**64))
@settings(max_examples=200, deadline=None)
def test_dyadic_sum_sign_is_the_exact_sign_or_none(terms, n, q):
    # the first term appears once more with its sign flipped, so one-term
    # lists sum to exactly 0
    x = dyadic_enclosure(n, q)
    c0, a0, k0 = terms[0]
    terms = terms + [(-c0, a0, k0)]
    exact = sum(c * a * Fraction(n, q) ** k for c, a, k in terms)
    sign = dyadic_sum_sign([(c, dyadic_mul((a, a, 0), dyadic_pow(x, k))) for c, a, k in terms])
    assert sign in (None, (exact > 0) - (exact < 0))
    if exact == 0:
        assert sign is None


@given(_radicands.filter(lambda x: x > 0), st.integers(min_value=2, max_value=3000))
@settings(max_examples=200, deadline=None)
def test_float_named_root_is_the_exact_root_or_none(x, n):
    r = _float_named_root(x, n)
    assert r is None or r == _exact_root(x, n)


@given(st.integers(1, 2**40), st.integers(0, 8), st.integers(2, 300))
@settings(max_examples=100, deadline=None)
def test_perfect_power_falls_back_to_the_exact_point(a, k, n):
    calls = []
    exact_root = enclosures._exact_root
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(enclosures, "_exact_root", lambda x, n: calls.append(n) or exact_root(x, n))
        iv = nth_root_enclosure(Fraction(a**n, 2 ** (k * n)), n)
    assert iv == RatInterval.point(Fraction(a, 2**k))
    assert calls == [n]


@pytest.mark.parametrize("q, n, point", [(4, 2, 2), (Fraction(1, 8), 3, Fraction(1, 2))])
def test_an_exact_power_makes_one_float_attempt(q, n, point):
    # the float route names no exact power; the exact route follows at once,
    # without a second float attempt
    calls = []
    named = enclosures._float_named_root
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(enclosures, "_float_named_root", lambda x, n: calls.append(n) or named(x, n))
        assert nth_root_enclosure(q, n) == RatInterval.point(Fraction(point))
    assert calls == [n]


def test_the_exact_route_takes_zero_one_and_the_first_root():
    assert [_exact_root(x, 5) for x in (0, 1)] == [0, 1]
    assert _exact_root(10**40 + 3, 1) == 10**40 + 3
    assert nth_root_enclosure(0, 3) == RatInterval.point(0)
    assert nth_root_enclosure(Fraction(3, 4), 1, bits=2) == RatInterval.point(Fraction(3, 4))


def test_m_cubed_radicands_are_decided_in_intervals():
    for m in list(range(5, 400)) + [1998, 2999, 19998]:
        x = (m**3) << (48 * m)
        r = _float_named_root(x, m)
        assert r is not None and r**m < x < (r + 1) ** m, m


@pytest.mark.parametrize(
    "q, width",
    [
        (True, Fraction(1, 10**12)),
        ("3", Fraction(1, 10**12)),
        (3, True),
        (3, "1/1000"),
        (math.nan, Fraction(1, 10**12)),
        (math.inf, Fraction(1, 10**12)),
        (None, Fraction(1, 10**12)),
        (3, math.nan),
        (3, math.inf),
        (3, None),
    ],
)
def test_log_enclosure_refuses_what_is_not_a_finite_number(q, width):
    with pytest.raises(DomainError, match="must be a finite number"):
        log_enclosure(q, width)


@pytest.mark.parametrize("lo, hi", [("1/3", 1), (Fraction(1, 3), True), (math.nan, 1), (0, math.inf), (None, 1)])
def test_rat_interval_refuses_ends_that_are_not_finite_numbers(lo, hi):
    with pytest.raises(DomainError, match="must be a finite number"):
        RatInterval(lo, hi)


@pytest.mark.parametrize("x", ["2", True, math.nan, None])
def test_rat_interval_point_refuses_what_is_not_a_finite_number(x):
    with pytest.raises(DomainError, match="must be a finite number"):
        RatInterval.point(x)


def test_rat_interval_reads_ints_fractions_and_finite_floats_exactly():
    assert RatInterval(1, 0.5 + 1) == RatInterval(Fraction(1), Fraction(3, 2))
    assert RatInterval.point(0.25) == RatInterval(Fraction(1, 4), Fraction(1, 4))


def test_log_interval_refuses_a_width_that_is_not_a_finite_number():
    for width in (True, "1/1000", math.nan, None):
        with pytest.raises(DomainError, match="must be a finite number"):
            log_interval(RatInterval(Fraction(1), Fraction(2)), width)


def test_log_enclosure_reads_ints_fractions_and_finite_floats_exactly():
    assert log_enclosure(3) == log_enclosure(Fraction(3)) == log_enclosure(3.0)
    assert log_enclosure(0.1, 1e-9) == log_enclosure(Fraction(0.1), Fraction(1e-9))


@pytest.mark.parametrize("n, bits", [(True, 48), (2.5, 48), (2, 2.5), (2, True), (2.0, 48)])
def test_nth_root_enclosure_refuses_n_and_bits_not_of_type_int(n, bits):
    with pytest.raises(DomainError, match="int"):
        nth_root_enclosure(2, n, bits)


_positive_fractions = st.fractions(min_value=Fraction(1, 10**9), max_value=10**9).filter(lambda x: x > 0)


@given(_positive_fractions, st.one_of(st.just(Fraction(0)), _positive_fractions), _widths)
@settings(max_examples=200, deadline=None)
def test_log_interval_is_the_outer_ends_of_two_enclosures(lo, delta, width):
    iv = RatInterval(lo, lo + delta)
    expected = RatInterval(log_enclosure(iv.lo, width).lo, log_enclosure(iv.hi, width).hi)
    assert log_interval(iv, width) == expected


_PIN_WIDTHS = (Fraction(1, 10**3), Fraction(1, 10**12), Fraction(1, 10**40))


def _log_pin_digest() -> str:
    """sha256 of both ends of log_enclosure over the ints 1..3000, the cover
    family's q = (n - 4g - 3)/(2g + 1) for g = 2..4, and j/3001 (k <= 0),
    and of log_interval over the T_m brackets for m = 5..400, at each width."""
    from dillab.dilpoly import build_Tm, largest_root, m_cubed_root_enclosure
    from dillab.families import cover_threshold

    args = [Fraction(x) for x in range(1, 3001)]
    args += [Fraction(n - 4 * g - 3, 2 * g + 1) for g in (2, 3, 4) for n in range(cover_threshold(g), 2001, 3)]
    args += [Fraction(j, 3001) for j in range(1, 3001)]
    brackets = [
        largest_root(build_Tm(m), m_cubed_root_enclosure(m).hi + 1).interval for m in range(5, 401)
    ]
    digest = hashlib.sha256()
    for width in _PIN_WIDTHS:
        for q in args:
            enc = log_enclosure(q, width)
            digest.update(f"{q} {enc.lo} {enc.hi}\n".encode())
        for iv in brackets:
            enc = log_interval(iv, width)
            digest.update(f"{iv.lo} {iv.hi} {enc.lo} {enc.hi}\n".encode())
    return digest.hexdigest()


def test_log_enclosure_bytes_pinned():
    # recorded on the Fraction-sum kernel: an integer kernel must name the
    # same Fraction at every end
    assert _log_pin_digest() == "c16f5a4e6e28ceacb68ab217178ed1fd55164cd76212a88c0a7f5ca8316dad4c"

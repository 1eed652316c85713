"""Exact rational interval primitives shared by the certified modules.

Everything here is Fraction-in, Fraction-out, with exact integer arithmetic
inside. Each enclosure carries its own validity: an interval [lo, hi] is only
ever produced together with the reason it contains the target value (series
tail bound, integer root bracketing), so downstream comparisons of lo/hi
endpoints are certificates, not approximations. The outward dyadic intervals
(`dyadic_*`) keep 96 bits and round every bound away from the exact value,
so an order they decide is proved as well; the callers go exact on a tie.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd, lcm, ldexp

from ._record import record
from .errors import DomainError

_DEFAULT_LOG_WIDTH = Fraction(1, 10**12)


@record
class RatInterval:
    """Closed rational interval [lo, hi]."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if not (isinstance(self.lo, Fraction) and isinstance(self.hi, Fraction)):
            object.__setattr__(self, "lo", _finite_fraction("lo", self.lo))
            object.__setattr__(self, "hi", _finite_fraction("hi", self.hi))
        if self.lo > self.hi:
            raise DomainError(f"empty interval: {self.lo} > {self.hi}")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, x) -> bool:
        x = _finite_fraction("x", x)
        return self.lo <= x <= self.hi

    @staticmethod
    def point(x) -> "RatInterval":
        x = _finite_fraction("x", x)
        return RatInterval(x, x)


# Outward dyadic intervals. A triple (lo, hi, e) of integers 0 <= lo <= hi
# stands for [lo * 2**e, hi * 2**e]. Every product is cut back to
# _DYADIC_BITS bits of hi, rounding lo down and hi up, so an interval only
# ever grows around its exact value, and an order it decides is a proof.
_DYADIC_BITS = 96
DYADIC_ONE = (1, 1, 0)


def _round_out(lo: int, hi: int, e: int) -> tuple[int, int, int]:
    s = hi.bit_length() - _DYADIC_BITS
    if s <= 0:
        return lo, hi, e
    return lo >> s, -(-hi >> s), e + s


def dyadic_enclosure(n: int, q: int) -> tuple[int, int, int]:
    """Outward dyadic interval around n/q, for integers n >= 0 and q > 0.
    Exact when n/q is a dyadic rational of at most _DYADIC_BITS bits."""
    k = _DYADIC_BITS - n.bit_length() + q.bit_length()
    lo, rem = divmod(n << k, q) if k >= 0 else divmod(n, q << -k)
    return _round_out(lo, lo + (rem > 0), -k)


def dyadic_mul(a: tuple[int, int, int], b: tuple[int, int, int]) -> tuple[int, int, int]:
    return _round_out(a[0] * b[0], a[1] * b[1], a[2] + b[2])


def dyadic_pow(a: tuple[int, int, int], k: int) -> tuple[int, int, int]:
    """a**k for k >= 0, by squaring."""
    lo, hi, e = a
    r_lo, r_hi, r_e = DYADIC_ONE
    while k:
        if k & 1:
            r_lo, r_hi, r_e = _round_out(r_lo * lo, r_hi * hi, r_e + e)
        k >>= 1
        if k:
            lo, hi, e = _round_out(lo * lo, hi * hi, 2 * e)
    return r_lo, r_hi, r_e


def dyadic_sum_sign(terms) -> int | None:
    """Sign of the sum of c * a over (c, a) pairs, integer c and dyadic a, or
    None if the outward sum holds 0.

    Every term is aligned to 8 bits more than _DYADIC_BITS below the largest
    bound, the lower end rounded down and the upper end up."""
    top = max((c.bit_length() + hi.bit_length() + e for c, (_, hi, e) in terms), default=0)
    base = top - _DYADIC_BITS - 8
    lo_sum = hi_sum = 0
    for c, (lo, hi, e) in terms:
        lo, hi = (c * lo, c * hi) if c > 0 else (c * hi, c * lo)
        if e >= base:
            lo_sum += lo << (e - base)
            hi_sum += hi << (e - base)
        else:
            lo_sum += lo >> (base - e)
            hi_sum -= -hi >> (base - e)
    return 1 if lo_sum > 0 else -1 if hi_sum < 0 else None


def _power_order(r: int, n: int, x: int) -> int | None:
    """Sign of r**n - x for integers r, x >= 0 and n >= 1, or None if the
    outward interval around r**n holds x."""
    lo, hi, e = dyadic_pow((r, r, 0), n)
    if e < 0:
        x, e = x << -e, 0
    # lo * 2**e > x exactly when lo > floor(x / 2**e), hi * 2**e < x when
    # hi < ceil(x / 2**e)
    return 1 if lo > x >> e else -1 if hi < -(-x >> e) else None


def _float_named_root(x: int, n: int) -> int | None:
    """floor(x ** (1/n)) for x >= 0 and n >= 1 when the root has at most 52
    bits and outward powers prove r**n < x < (r + 1)**n; else None, which an
    exact n-th power, 0 and 1 included, always gives.

    With b = bits(x), the float guess is 2**((b - 1) / n) * f**(1/n) for
    f = x / 2**(b - 1) in [1, 2], within about two units of the root when it
    has 52 bits. A guess one too high or too low moves one step."""
    b = x.bit_length()
    if b > 52 * n:
        return None
    s = max(b - 64, 0)
    f = ldexp(float(x >> s), s + 1 - b)
    whole, rem = divmod(b - 1, n)
    r = int(ldexp(2.0 ** (rem / n) * f ** (1.0 / n), whole))
    lower = _power_order(r, n, x)
    if lower == 1:
        r, upper, lower = r - 1, lower, _power_order(r - 1, n, x)
    else:
        upper = _power_order(r + 1, n, x)
        if upper == -1:
            r, lower, upper = r + 1, upper, _power_order(r + 2, n, x)
    return r if lower == -1 and upper == 1 else None


def _exact_root(x: int, n: int) -> int:
    """floor(x ** (1/n)) for integers x >= 0 and n >= 1, in integers.

    x <= 1 and n = 1 are their own roots. Otherwise the root has
    c = ceil(bits(x) / n) bits. Its top min(c, n.bit_length() + 2) bits t
    are bisected on y = x >> (n * s), s the remaining low bits, which keeps
    lo**n <= x < hi**n for the root's bounds lo = t << s and
    hi = (t + 1) << s. Newton's iteration then runs from above, from hi: its
    relative error is below 1/(2n), so the steps converge quadratically at
    once instead of shrinking r by about 1 - 1/n each from a power of two.
    Two exact correction loops settle the last unit.
    """
    if x <= 1 or n == 1:
        return x
    c = (x.bit_length() + n - 1) // n
    s = max(c - n.bit_length() - 2, 0)
    y = x >> (n * s)
    lo, hi = 1 << (c - s - 1), 1 << (c - s)  # lo**n <= y < hi**n
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid**n <= y:
            lo = mid
        else:
            hi = mid
    r = hi << s
    while True:
        nr = ((n - 1) * r + x // r ** (n - 1)) // n
        if nr >= r:
            break
        r = nr
    while r**n > x:
        r -= 1
    while (r + 1) ** n <= x:
        r += 1
    return r


def inth_root(x: int, n: int) -> int:
    """floor(x ** (1/n)) for integers x >= 0, n >= 1, exactly.

    A root of at most 52 bits is named by a float and proved in outward
    dyadic intervals (_float_named_root). A longer root, an exact power, or
    a guess the intervals do not prove goes the exact integer route,
    bisection then Newton (_exact_root).
    """
    _require_int("inth_root", "x", x, 0)
    _require_int("inth_root", "n", n, 1)
    r = _float_named_root(x, n)
    return _exact_root(x, n) if r is None else r


def _finite_fraction(name: str, x) -> Fraction:
    """x as an exact Fraction, x itself when it is one. DomainError for None,
    a bool, a str (neither is read as a number) and anything Fraction
    refuses: NaN, an infinity or a non-number."""
    if type(x) is Fraction:
        return x
    if x is None or isinstance(x, (bool, str)):
        raise DomainError(f"{name} must be a finite number, got {type(x).__name__}")
    try:
        return Fraction(x)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{name} must be a finite number, got {x!r}") from None


def _require_int(where: str, name: str, value, least: int | None = None) -> None:
    """DomainError unless value is of type int exactly and, when least is
    given, value >= least: a bool, float or str is refused, never read as
    an integer."""
    if type(value) is not int or (least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise DomainError(f"{where} requires an int {name}{bound}, got {value!r}")


def _require_type(kind, **values) -> None:
    """DomainError unless every value is an instance of kind: a type, or a
    tuple of types as isinstance takes them."""
    for name, value in values.items():
        if not isinstance(value, kind):
            kinds = " or ".join([k.__name__ for k in (kind if isinstance(kind, tuple) else (kind,))])
            raise DomainError(f"{name} must be of type {kinds}, got {type(value).__name__}")


def nth_root_enclosure(q, n: int, bits: int = 48) -> RatInterval:
    """Rational [a, b] with a**n <= q <= b**n and b - a <= 2**-bits.

    For irrational roots both bounds are strict; if q is an exact n-th power
    of a dyadic rational the interval degenerates to the exact point. q must
    be a finite number (_finite_fraction), n and bits of type int.
    """
    q = _finite_fraction("q", q)
    if q < 0:
        raise DomainError("nth_root_enclosure requires q >= 0")
    _require_int("nth_root_enclosure", "n", n, 1)
    _require_int("nth_root_enclosure", "bits", bits, 0)
    scaled = q.numerator << (n * bits)
    # dividing a long integer by 1 still costs a pass over it
    y = scaled if q.denominator == 1 else scaled // q.denominator
    den = 1 << bits
    # a float root proved strictly, t**n < y < (t + 1)**n, also proves that
    # q is no exact power; only the exact route can find the point
    t = _float_named_root(y, n)
    if t is None:
        t = _exact_root(y, n)
        if t**n * q.denominator == scaled:
            return RatInterval.point(Fraction(t, den))
    return RatInterval(Fraction(t, den), Fraction(t + 1, den))


def _atanh_core(num: int, den: int, width: Fraction) -> tuple[int, int, int]:
    # log r for r = num/den in [3/4, 3/2) via log r = 2 atanh(u), with
    # u = a/b = (r-1)/(r+1) in lowest terms, |u| <= 1/5 here. Partial sum plus
    # a geometric tail bound gives the two-sided certificate regardless of the
    # sign of u, as (lo_n, hi_n, common): log r in [lo_n, hi_n] / common. J is
    # the least term count with 2 * tail <= width / 2, where
    # tail = |u|^(2J+1) / ((2J+1)(1 - u^2)), cross-multiplied into integers.
    a, b = num - den, num + den
    g = gcd(a, b)
    a, b = a // g, b // g
    a2, b2 = a * a, b * b
    one_minus = b2 - a2  # (1 - u^2) * b^2
    wn, wd = width.numerator, width.denominator
    j, apow, bpow = 1, abs(a) ** 3, b  # J, |a|^(2J+1), b^(2J-1)
    while 4 * apow * wd > wn * bpow * (2 * j + 1) * one_minus:
        j, apow, bpow = j + 1, apow * a2, bpow * b2
    # s = sum_{i<J} u^(2i+1) / (2i+1) over the denominator b^(2J-1) * odd,
    # odd = lcm(1, 3, ..., 2J-1), by Horner in b^2
    odd = lcm(*range(1, 2 * j, 2))
    total, term = 0, a
    for i in range(j):
        total = total * b2 + term * (odd // (2 * i + 1))
        term *= a2
    # 2 * (s -+ tail) for s = total / (odd * bpow), over one denominator
    tail_den = (2 * j + 1) * one_minus
    mid, rad = 2 * total * tail_den, 2 * apow * odd
    return mid - rad, mid + rad, odd * bpow * tail_den


@functools.cache
def _log2_ints() -> tuple[int, int, int]:
    # log 2 = 2 atanh(1/3); cached far tighter than any requested width
    return _atanh_core(2, 1, Fraction(1, 10**40))


def _log_ints(qn: int, qd: int, width: Fraction = _DEFAULT_LOG_WIDTH) -> tuple[int, int, int]:
    """(lo_n, hi_n, common) with log(qn/qd) in [lo_n, hi_n] / common, for
    integers qn, qd > 0 and width > 0: the integers of log_enclosure, which
    builds each end from them with one Fraction."""
    k = qn.bit_length() - qd.bit_length()
    while True:  # r = num/den = q / 2**k
        num, den = (qn, qd << k) if k >= 0 else (qn << -k, qd)
        if 2 * num >= 3 * den:
            k += 1
        elif 4 * num < 3 * den:
            k -= 1
        else:
            break
    lo_n, hi_n, common = _atanh_core(num, den, width)
    if k == 0:
        return lo_n, hi_n, common
    # k * log 2 over the product of the two denominators; for k < 0 the
    # upper end of log 2 lowers the sum, so the ends trade places
    l2_lo, l2_hi, l2_common = _log2_ints()
    if k < 0:
        l2_lo, l2_hi = l2_hi, l2_lo
    return (
        lo_n * l2_common + k * l2_lo * common,
        hi_n * l2_common + k * l2_hi * common,
        common * l2_common,
    )


def _log_end(qn: int, qd: int, upper: bool, width: Fraction = _DEFAULT_LOG_WIDTH) -> Fraction:
    """The upper (or lower) end of log_enclosure(qn/qd, width), alone."""
    lo_n, hi_n, common = _log_ints(qn, qd, width)
    return Fraction(hi_n if upper else lo_n, common)


def log_enclosure(q, width=_DEFAULT_LOG_WIDTH) -> RatInterval:
    """Certified enclosure of log(q) for rational q > 0, of width <= width.

    Argument reduction q = 2**k * r with r in [3/4, 3/2): k is first taken
    from the bit lengths of q's numerator and denominator, then fixed by
    exact integer comparisons with 3/4 and 3/2. The atanh series for log r
    is summed in integers over one common denominator, with an explicit tail
    bound, and k * log 2 is added over that denominator times log 2's, so
    each end is normalised once, by a single Fraction: the one that adding
    the interval k * log 2 to the reduced ends would give. The log 2
    enclosure is cached at width 1e-40, so the k * log2 contribution is
    negligible against any practical width request. q and width must be
    finite numbers (_finite_fraction).
    """
    q = _finite_fraction("q", q)
    if q <= 0:
        raise DomainError("log_enclosure requires q > 0")
    width = _finite_fraction("width", width)
    if width <= 0:
        raise DomainError("log_enclosure requires width > 0")
    lo_n, hi_n, common = _log_ints(q.numerator, q.denominator, width)
    return RatInterval(Fraction(lo_n, common), Fraction(hi_n, common))


def log_interval(iv: RatInterval, width=_DEFAULT_LOG_WIDTH) -> RatInterval:
    """Enclosure of {log x : x in iv} for a positive rational interval: the
    lower end of log(iv.lo) and the upper end of log(iv.hi), each computed
    alone (_log_end)."""
    _require_type(RatInterval, iv=iv)
    if iv.lo <= 0:
        raise DomainError("log_interval requires a positive interval")
    width = _finite_fraction("width", width)
    if width <= 0:
        raise DomainError("log_interval requires width > 0")
    lo, hi = iv.lo, iv.hi
    return RatInterval(
        _log_end(lo.numerator, lo.denominator, False, width), _log_end(hi.numerator, hi.denominator, True, width)
    )


def interval_gap(a: RatInterval, b: RatInterval) -> Fraction:
    """Separation between two intervals; 0 exactly when they overlap."""
    _require_type(RatInterval, a=a, b=b)
    return max(Fraction(0), a.lo - b.hi, b.lo - a.hi)

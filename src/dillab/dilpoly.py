"""Integer polynomials, certified largest-root enclosures, and the
stretch-factor bound family T.

Every root bracket is a cell of one bisection, `_bisect`, which probes at
a rational where p does not vanish and keeps the half that holds the
largest real root. What decides the half is a proof, never a sample:

* `largest_root` is the production path, for polynomials whose
  coefficients show at most two sign variations; it refuses any other. Its
  preconditions leave an odd number of roots above 1, Descartes' rule of
  signs leaves exactly one, and the sign of p at the probe decides. Every
  T(s, t) is of this kind. A float root steers: the bisection cell that
  holds the float is computed in integers and proved by two signs,
  p(lo) < 0 < p(hi), so bisection starts there instead of at
  (1, search_hi) and returns the bracket that bisecting from the top would.
* A sign of a polynomial above degree _INTERVAL_DEGREE is decided in
  outward 96-bit dyadic intervals (`enclosures.dyadic_*`), and exactly, by
  integer Horner, only on a tie; the m**(3/m) cell likewise comes from a
  float root proved in intervals (`enclosures.nth_root_enclosure`). Either
  way the sign, the cell and so every bracket are the exact route's.
* `mu_compare` is a filtered exact predicate (Bronnimann, Burnikel and
  Pion, Discrete Appl. Math. 109, 2001): exact Collatz-Wielandt bounds of
  both matrices, stepped in lockstep (`intmatrix._cw_compare`), give the
  sign once they separate. A pair they leave undecided goes on to the exact
  oracle route, and so does every pair of equal radii, which alone can
  compare 0.
* The Sturm-chain machinery (`char_poly`, `count_real_roots_above`,
  `isolate_largest_real_root`, `compare_largest_roots`) is that exact
  oracle route, also used to cross-check spectral enclosures. Its proofs
  are in integers: Faddeev-LeVerrier on the matrix's exact product, and
  primitive integer Sturm chains of p and p', evaluated at each probe's
  numerator and denominator. No float enters this route: Sturm bisection
  (`_isolate`) isolates each largest root (one root per interval), then a
  comparison decides, then refines. `isolate_largest_real_root`, the
  bracket for a polynomial that `largest_root` refuses, bisects the same
  way, so every bracket it returns is a bisection cell.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd

from ._record import record
from .enclosures import (
    DYADIC_ONE,
    RatInterval,
    _finite_fraction,
    _require_int,
    _require_type,
    dyadic_enclosure,
    dyadic_mul,
    dyadic_pow,
    dyadic_sum_sign,
    log_enclosure,
    nth_root_enclosure,
)
from .errors import DomainError, NoSignChange, ValidationFailed
from .intmatrix import IntMatrix, _cw_compare

DEFAULT_ROOT_REL_WIDTH = Fraction(1, 10**10)
_ISOLATE_WIDTH = Fraction(1, 2**80)
# the finest cell a float root steers to: about 256 ulps, so that a float
# root a few rounding errors off still falls in the cell it names
_FLOAT_CELL = Fraction(1, 2**44)
# the degree above which sign_at tries outward intervals first: the exact
# integers grow with the degree, the intervals' stay at 96 bits. On T_m's
# signs (at search_hi and at a cell's ends) the two routes cost the same
# near degree 64
_INTERVAL_DEGREE = 64


@record
class IntPoly:
    """Sparse integer polynomial: sorted tuple of (exponent, coefficient)."""

    coeffs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        _require_type((tuple, list), coeffs=self.coeffs)
        seen = {}
        for term in self.coeffs:
            if not isinstance(term, (tuple, list)) or len(term) != 2:
                raise DomainError("terms must be (exponent, coefficient) pairs")
            e, c = term
            if type(e) is not int or type(c) is not int:  # bool too: True is not read as 1
                raise DomainError("exponents and coefficients must be int")
            if e < 0:
                raise DomainError("exponents must be >= 0")
            if c == 0:
                continue
            if e in seen:
                raise DomainError(f"duplicate exponent {e}")
            seen[e] = c
        object.__setattr__(self, "coeffs", tuple(sorted(seen.items())))

    @staticmethod
    def from_dict(d: dict) -> "IntPoly":
        """From {exponent: coefficient}, both of type int exactly: a bool,
        float or str is refused, never coerced."""
        _require_type(dict, d=d)
        return IntPoly(tuple(d.items()))

    @property
    def degree(self) -> int:
        return self.coeffs[-1][0] if self.coeffs else -1

    @property
    def leading_coefficient(self) -> int:
        return self.coeffs[-1][1] if self.coeffs else 0

    def _homogenised(self, n: int, q: int) -> int:
        """q**d * p(n/q) for q > 0 and d the degree: an integer with the sign
        of p(n/q).

        Horner over the sparse exponents, highest first: each gap multiplies
        the accumulator by n**gap and the running power of q by q**gap."""
        if not self.coeffs:
            return 0
        terms = reversed(self.coeffs)
        e, acc = next(terms)
        q_pow = 1
        for e_next, c in terms:
            gap = e - e_next
            q_pow *= q**gap
            acc = acc * n**gap + c * q_pow
            e = e_next
        return acc * n**e

    def __call__(self, x) -> Fraction:
        n, q = _finite_fraction("x", x).as_integer_ratio()
        return Fraction(self._homogenised(n, q), q ** max(self.degree, 0))

    def sign_at(self, x) -> int:
        """Exact sign of p(x) at a rational point.

        Above degree _INTERVAL_DEGREE and for x > 0, the terms are first
        summed in outward dyadic intervals, and their sign is returned if the
        sum excludes 0. Otherwise, a tie included, it is the sign of the
        integer _homogenised. Low-degree probes, such as the oracle's Sturm
        bisection on characteristic polynomials, stay exact."""
        if type(x) is not Fraction and type(x) is not int:
            x = _finite_fraction("x", x)
        return self._sign(*x.as_integer_ratio())

    def _sign(self, n: int, q: int) -> int:
        """sign_at(n / q) for integers n and q > 0, not necessarily coprime."""
        if n > 0 and self.degree > _INTERVAL_DEGREE:
            sign = self._interval_sign(n, q)
            if sign is not None:
                return sign
        num = self._homogenised(n, q)
        return (num > 0) - (num < 0)

    def _interval_sign(self, n: int, q: int) -> int | None:
        # each power of x = n/q comes from the one below it, times x to the
        # gap; T(s, t) has the gap s twice, so each gap's power is kept
        x = dyadic_enclosure(n, q)
        power, e_prev, terms, steps = DYADIC_ONE, 0, [], {}
        for e, c in self.coeffs:
            gap = e - e_prev
            if gap not in steps:
                steps[gap] = dyadic_pow(x, gap)
            power = dyadic_mul(power, steps[gap])
            terms.append((c, power))
            e_prev = e
        return dyadic_sum_sign(terms)


@record
class LrootReport:
    m: int
    bound_holds: bool
    ineq1: bool
    ineq2: bool
    ineq3: bool
    root: RatInterval  # largest_root's bracket of T_m's largest root
    m_power_enclosure: RatInterval  # certified enclosure of m**(3/m)


def build_T(s: int, t: int) -> IntPoly:
    """(x-1)x^(s+t+1) - 2(x^(s+1) + x^(t+1)) - (x-1), for s, t >= 1.

    Symmetric in (s, t); value at 1 is -4 identically.
    """
    _require_int("build_T", "s", s, 1)
    _require_int("build_T", "t", t, 1)
    # exponents 0 < 1 < a + 1 <= b + 1 < a + b + 1 < a + b + 2: sorted, and
    # distinct but for a = b, where the two middle terms merge
    a, b = min(s, t), max(s, t)
    middle = ((a + 1, -4),) if a == b else ((a + 1, -2), (b + 1, -2))
    return IntPoly._of(((0, 1), (1, -1)) + middle + ((a + b + 1, -1), (a + b + 2, 1)))


def build_Tm(m: int) -> IntPoly:
    """Balanced member T_m = T(floor(m/2), ceil(m/2)), m >= 2."""
    _require_int("build_Tm", "m", m, 2)
    return build_T(m // 2, (m + 1) // 2)


def _bisect(p: IntPoly, lo: Fraction, hi: Fraction, roots_above):
    """One bisection step that keeps the largest real root of p in (lo, hi).

    Probes at the first of a fixed sequence of points inside (lo, hi) where
    p does not vanish and returns (lo, hi, n): the half holding the largest
    root, and the number n of distinct roots above the probe, which is the
    new lo when n > 0. roots_above(x) counts them exactly, and is None where
    p(x) = 0 (_sturm_counter), so p's sign comes with the count; when
    roots_above is None, p must have exactly one root above lo, a simple
    one, so that p < 0 at the probe exactly when the root lies above it.
    """
    span = hi - lo
    for num, den in ((1, 2), (3, 7), (5, 9), (4, 13), (9, 17), (11, 23), (13, 31)):
        mid = lo + span * Fraction(num, den)
        if roots_above is None:
            s = p.sign_at(mid)
            n = None if s == 0 else int(s < 0)
        else:
            n = roots_above(mid)
        if n is not None:
            return (mid, hi, n) if n else (lo, mid, n)
    raise NoSignChange("could not find a non-root sample point; interval saturated with roots")


def _float_root(p: IntPoly, search_hi: Fraction) -> float | None:
    """A float near the root of p in (1, search_hi), by Illinois false
    position (Dowell and Jarratt, BIT 11, 1971) on p(x) / x**d, or None if a
    value is not finite.

    False position keeps a bracket lo < hi with f(lo) < 0 < f(hi) and
    probes where the chord through both ends crosses 0; Illinois halves the
    value kept at an end that two probes in a row have left in place, so
    that both ends close in. Whenever three probes together fail to halve
    the bracket, the next one is its midpoint, and so is every probe that
    the chord does not put strictly inside it. The float returned is the
    bracket's midpoint once hi - lo <= lo * _FLOAT_CELL / 4, or a probe
    where f is 0: a cell of the walk in _steered_cell is at least about
    _FLOAT_CELL / 2 relative, so a float that close names the root's cell
    or, rarely, a neighbour that the cell's exact signs refuse. For x >= 1
    no term c * x**(e - d) of the quotient exceeds |c|, so it stays finite
    where p(x) itself would overflow; a coefficient or search_hi beyond
    float range gives None as well. It only steers: the caller proves."""
    d = p.degree
    try:
        terms = [(e - d, float(c)) for e, c in p.coeffs]
        lo, hi = 1.0, float(search_hi)
    except OverflowError:
        return None
    f_lo = sum([c for _, c in terms])
    f_hi = sum([c * hi**e for e, c in terms])
    if not (math.isfinite(f_lo) and math.isfinite(f_hi)):
        return None
    cell = float(_FLOAT_CELL) / 4
    kept = 0  # the end the last probe left in place: -1 lo, 1 hi, 0 none
    probes, width = 0, hi - lo
    while hi - lo > lo * cell:
        x = lo + (hi - lo) / 2
        if probes < 3 and f_lo < 0 < f_hi:
            chord = hi - f_hi * (hi - lo) / (f_hi - f_lo)
            if lo < chord < hi:
                x = chord
        value = sum([c * x**e for e, c in terms])
        if not math.isfinite(value):
            return None
        if value == 0:
            return x
        if value < 0:
            if kept == 1:
                f_hi /= 2
            lo, f_lo, kept = x, value, 1
        else:
            if kept == -1:
                f_lo /= 2
            hi, f_hi, kept = x, value, -1
        probes += 1
        if hi - lo <= width / 2:
            probes, width = 0, hi - lo
    return lo + (hi - lo) / 2


def _steered_cell(p: IntPoly, search_hi: Fraction, rel_width: Fraction):
    """The cell of bisection's dyadic tree over (1, search_hi) at which
    bisection of p stops, or a coarser ancestor of it, or (1, search_hi).

    Requires largest_root's preconditions up to p(1) < 0, so p has exactly
    one root above 1, a simple one, and p < 0 exactly on (1, root). The
    cell holding the float root r sits at depth k at index
    j_k = floor(t * 2**k), t = (r - 1) / span; the walk stops at the first
    depth that meets bisection's own test hi - lo <= rel_width * lo, with
    rel_width raised to _FLOAT_CELL if it is finer than a float resolves.
    As j_k <= t * 2**k, the test needs span / 2**k <= that width times r, so
    the walk starts at the first depth bit lengths leave open. It runs on
    integers: with search_hi = sn / sd and r = rn / rd, span is
    (sn - sd) / sd, the unreduced t = (rn - rd) * sd / (rd * (sn - sd)), the
    cell's ends share the denominator sd * 2**k. Two exact signs on those
    integers, p(lo) < 0 < p(hi) (IntPoly._sign), prove the root strictly
    inside the cell, hence inside every ancestor and off every ancestor's
    midpoint: bisection from the top takes exactly this path. Only then are
    lo and hi built, one Fraction each. A proven cell inside (1, search_hi]
    also proves p(search_hi) > 0: p has one root above 1, and the cell holds
    it. If there is no float, or the cell it names reaches past search_hi,
    or a sign refuses it (a float a cell off), the start is (1, search_hi),
    and only then is p(search_hi) > 0 checked (else NoSignChange)."""
    sd = search_hi.denominator
    sn = search_hi.numerator - sd  # span = sn / sd
    r = _float_root(p, search_hi)
    if r is not None:
        target = max(rel_width, _FLOAT_CELL)
        wn, wd = target.numerator, target.denominator
        rn, rd = r.as_integer_ratio()
        tn, td = (rn - rd) * sd, rd * sn
        # at depth k the cell is 1 + span * (j, j + 1) / 2**k; stop once
        # span / 2**k <= target * (1 + span * j / 2**k), cross-multiplied
        k = max(0, (sn * wd * rd).bit_length() - (wn * sd * rn).bit_length())
        j = (tn << k) // td if k else 0
        while sn * wd > wn * ((sd << k) + sn * j):
            k += 1
            j = (tn << k) // td
        den = sd << k
        lo_n = den + sn * j
        if j < 1 << k and p._sign(lo_n, den) < 0 < p._sign(lo_n + sn, den):
            return Fraction(lo_n, den), Fraction(lo_n + sn, den)
    if p._sign(search_hi.numerator, sd) <= 0:
        raise NoSignChange(f"p(search_hi) <= 0 at search_hi={search_hi}; enlarge search_hi")
    return Fraction(1), search_hi


def largest_root(p: IntPoly, search_hi, rel_width: Fraction = DEFAULT_ROOT_REL_WIDTH) -> RatInterval:
    """Bracket [lo, hi] for the largest real root of p, which lies in
    (1, search_hi), with p(lo) < 0 < p(hi) exactly.

    Preconditions: rel_width > 0, search_hi > 1, a positive leading
    coefficient, at most two sign variations in p's coefficients and
    p(1) < 0 (else DomainError), and p(search_hi) > 0 (else NoSignChange,
    the caller must enlarge). isolate_largest_real_root brackets the largest
    root of a polynomial refused here. p then has an odd number of roots
    above 1, and Descartes' rule leaves exactly one, a simple one, in
    (1, search_hi); sign-change bisection keeps it. A float root names the
    cell where that bisection would stop, and two exact signs prove it
    (_steered_cell), so bisection starts there. Such a cell holds the one
    root above 1, so p(search_hi) > 0 is evaluated only when bisection
    starts from (1, search_hi) instead. The bracket is the one that
    bisecting (1, search_hi) until hi - lo <= rel_width * lo returns.
    """
    _require_type(IntPoly, p=p)
    search_hi = _finite_fraction("search_hi", search_hi)
    rel_width = _finite_fraction("rel_width", rel_width)
    if rel_width <= 0:
        raise DomainError("largest_root requires rel_width > 0")
    if search_hi <= 1:
        raise DomainError("largest_root requires search_hi > 1")
    if p.leading_coefficient <= 0:
        raise DomainError("largest_root requires a positive leading coefficient")
    if _sign_changes([c for _, c in p.coeffs]) > 2:
        raise DomainError("largest_root requires at most two coefficient sign changes; use isolate_largest_real_root")
    if sum([c for _, c in p.coeffs]) >= 0:  # the coefficient sum is p(1)
        raise DomainError("largest_root requires p(1) < 0")
    lo, hi = _steered_cell(p, search_hi, rel_width)
    wn, wd = rel_width.numerator, rel_width.denominator  # hi - lo > rel_width * lo, cross-multiplied:
    while hi.numerator * lo.denominator * wd > lo.numerator * hi.denominator * (wd + wn):
        lo, hi, _ = _bisect(p, lo, hi, None)
    # p < 0 on (1, root) and p > 0 above it
    return RatInterval._of(lo, hi)


def m_cubed_root_enclosure(m: int) -> RatInterval:
    """Certified rational enclosure [a, b] with a**m < m**3 < b**m."""
    _require_int("m_cubed_root_enclosure", "m", m, 1)
    return nth_root_enclosure(m**3, m)


def verify_lroot(m: int) -> LrootReport:
    """Certify that the largest root of T_m is below m**(3/m), for m >= 5,
    together with the three inequalities the bound's proof rests on.

    All checks quantify over x >= m**(3/m). (1) is transcendental and is
    checked outward at the enclosure's conservative endpoint; (2) and (3)
    attain their supremum exactly at x = m**(3/m), where the power collapses
    to an integer identity ((m^(3/m))^(-m) = m^(-3)), so they reduce to the
    exact integer tests 3*floor(m/2) >= m and m*m >= 25. At m = 5, (3) is an
    equality, which is why the endpoint is evaluated exactly rather than
    through an outward interval.
    """
    _require_int("verify_lroot", "m", m, 5)
    mp = m_cubed_root_enclosure(m)
    root = largest_root(build_Tm(m), search_hi=mp.hi + 1)
    bound_holds = root.hi < mp.lo

    logm = log_enclosure(m)
    # (1) x - 1 > 3 log(m)/m for all x >= m^(3/m), worst case at the endpoint;
    #     and 3 log(m)/m >= 9/(2m), i.e. log m >= 3/2.
    ineq1 = (mp.lo - 1) * m > 3 * logm.hi and logm.lo >= Fraction(3, 2)
    # (2) x^(floor(m/2)-m) <= x^(ceil(m/2)-m) <= 1/m on x >= m^(3/m) > 1
    ineq2 = mp.lo > 1 and 3 * (m // 2) >= m
    # (3) x^(-m) <= 1/(25m) on x >= m^(3/m), equality at m = 5
    ineq3 = m * m >= 25
    return LrootReport(
        m=m,
        bound_holds=bound_holds,
        ineq1=ineq1,
        ineq2=ineq2,
        ineq3=ineq3,
        root=root,
        m_power_enclosure=mp,
    )


# ---------------------------------------------------------------------------
# Exact characteristic-polynomial machinery (oracle route)
# ---------------------------------------------------------------------------


def char_poly(matrix: IntMatrix) -> IntPoly:
    """Characteristic polynomial det(xI - M), exact, by Faddeev-LeVerrier.

    Each iterate N is a coefficient of adj(xI - M), so an integer matrix, and
    each trace divides exactly by i: the loop never leaves the integers. N is
    held by columns, so M N is the matrix's exact product IntMatrix._times
    on each of them.
    """
    _require_type(IntMatrix, matrix=matrix)
    k = matrix.k
    times = matrix._times
    cols = [[int(i == t) for i in range(k)] for t in range(k)]
    coeffs = [0] * k + [1]
    for i in range(1, k + 1):
        cols = [times(col) for col in cols]
        ci, rem = divmod(-sum([cols[t][t] for t in range(k)]), i)
        if rem:
            raise ValidationFailed("Faddeev-LeVerrier produced a non-integer coefficient")
        coeffs[k - i] = ci
        for t in range(k):
            cols[t][t] += ci
    return _sparse(coeffs)


# Oracle polynomials are dense int lists, lowest degree first. Every Sturm
# chain member and gcd below is a positive multiple of the one that exact
# rational division would give, so every sign, and every sign count, agrees.


def _dense(p: IntPoly) -> list[int]:
    c = [0] * (p.degree + 1)
    for e, coef in p.coeffs:
        c[e] = coef
    return c


def _sparse(c: list[int]) -> IntPoly:
    return IntPoly._of(tuple([(e, x) for e, x in enumerate(c) if x]))


def _poly_rem(a: list[int], b: list[int]) -> list[int]:
    """A positive multiple of the remainder of a by b, divided by its content.

    Each step scales a by |lc(b)| > 0 before cancelling its leading term."""
    db, lb = len(b) - 1, b[-1]
    scale, sign_b = abs(lb), (lb > 0) - (lb < 0)
    while len(a) > db:
        factor = a[-1] * sign_b
        shift = len(a) - 1 - db
        a = [scale * x for x in a]
        for i in range(len(b)):
            a[shift + i] -= factor * b[i]
        a.pop()
        while a and a[-1] == 0:
            a.pop()
    content = gcd(*a)
    return [x // content for x in a] if a else a


def _poly_gcd(a: list[int], b: list[int]) -> list[int]:
    """gcd(a, b), primitive, with a positive leading coefficient."""
    while b:
        a, b = b, _poly_rem(a, b)
    if a:
        content = gcd(*a) * ((a[-1] > 0) - (a[-1] < 0))
        a = [x // content for x in a]
    return a


def _sturm_chain(p: IntPoly) -> list[IntPoly]:
    c = _dense(p)
    chain = [c, [c[i] * i for i in range(1, len(c))]]
    while chain[-1]:
        rem = _poly_rem(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-x for x in rem])
    return [_sparse(q) for q in chain if q]


def _sign_changes(values: list[int]) -> int:
    signs = [(v > 0) - (v < 0) for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _sturm_counter(p: IntPoly):
    """Counter of the distinct real roots of p above a rational a, or None
    where p(a) = 0. The Sturm chain of p, p' is built once, here, and
    compared against the signs at +infinity (leading coefficients). Its
    members share the factor gcd(p, p'), nonzero wherever p is, so it
    changes no count. p is the chain's first member, so its value at a
    tells the root apart with no evaluation of its own."""
    _require_type(IntPoly, p=p)
    chain = _sturm_chain(p)
    at_inf = _sign_changes([q.leading_coefficient for q in chain])

    def roots_above(a: Fraction) -> int | None:
        n, q = a.as_integer_ratio()
        values = [member._homogenised(n, q) for member in chain]
        if not values or values[0] == 0:
            return None
        return _sign_changes(values) - at_inf

    return roots_above


def count_real_roots_above(p: IntPoly, a: Fraction) -> int:
    """Number of distinct real roots of p strictly above the rational a.

    Requires p(a) != 0 (else DomainError) and a finite number a
    (_finite_fraction). Sturm chain of p and p'.
    """
    n = _sturm_counter(p)(_finite_fraction("a", a))
    if n is None:
        raise DomainError("count_real_roots_above requires p(a) != 0")
    return n


def _isolate(p: IntPoly, hi_bound: Fraction, roots_above):
    """The first bisection interval (lo, hi) of (-|hi_bound| - 1, hi_bound)
    holding the largest real root of p and no other root, bisected on p's
    Sturm counter roots_above. DomainError unless p vanishes at neither end,
    has no root above hi_bound and has one above -|hi_bound| - 1."""
    lo, hi = -abs(hi_bound) - 1, hi_bound
    above_hi, above_lo = roots_above(hi), roots_above(lo)
    for n, name in ((above_hi, "hi_bound"), (above_lo, "-|hi_bound| - 1")):
        if n is None:
            raise DomainError(f"polynomial vanishes at {name}")
    if above_hi != 0:
        raise DomainError("hi_bound does not dominate all real roots")
    if above_lo < 1:
        raise DomainError("polynomial has no real root in range")
    while above_lo != 1:
        lo, hi, n = _bisect(p, lo, hi, roots_above)
        above_lo = n or above_lo
    return lo, hi


def isolate_largest_real_root(p: IntPoly, hi_bound) -> RatInterval:
    """Isolating interval, no wider than _ISOLATE_WIDTH, for the largest real
    root of any p with no real root at or above hi_bound and at least one
    above -|hi_bound| - 1, where p must not vanish either (else DomainError).
    hi_bound must be a finite number (_finite_fraction).

    Bisection on the exact Sturm count of roots above the probe isolates the
    root first, then refines the interval.
    """
    roots_above = _sturm_counter(p)
    lo, hi = _isolate(p, _finite_fraction("hi_bound", hi_bound), roots_above)
    while hi - lo > _ISOLATE_WIDTH:
        lo, hi, _ = _bisect(p, lo, hi, roots_above)
    return RatInterval(lo, hi)


def compare_largest_roots(pa: IntPoly, pb: IntPoly, hi_a, hi_b) -> int:
    """Exact trichotomy for the largest real roots: -1, 0, or +1.

    Each of hi_a, hi_b is a bound on the terms of isolate_largest_real_root:
    no real root of its polynomial at or above it, at least one above
    -|bound| - 1, neither point a root, and each a finite number
    (_finite_fraction), else DomainError. Isolate, then
    decide, then refine. Sturm bisection from (-|hi| - 1, hi) gives each
    largest root the first cell that holds it and no other root of its
    polynomial (_isolate). Disjoint cells decide at once. For overlapping
    cells the roots are equal exactly when gcd(pa, pb) has a root in the
    overlap, since a common root there is both largest roots; otherwise both
    cells are bisected until they separate.
    """
    above_a, above_b = _sturm_counter(pa), _sturm_counter(pb)
    a_lo, a_hi = _isolate(pa, _finite_fraction("hi_a", hi_a), above_a)
    b_lo, b_hi = _isolate(pb, _finite_fraction("hi_b", hi_b), above_b)
    if a_hi < b_lo or b_hi < a_lo:
        return -1 if a_hi < b_lo else 1
    above_g = _sturm_counter(_sparse(_poly_gcd(_dense(pa), _dense(pb))))
    if above_g(max(a_lo, b_lo)) > above_g(min(a_hi, b_hi)):
        return 0
    while max(a_hi - a_lo, b_hi - b_lo) > Fraction(1, 2**4000):
        if a_hi < b_lo:
            return -1
        if b_hi < a_lo:
            return 1
        a_lo, a_hi, _ = _bisect(pa, a_lo, a_hi, above_a)
        b_lo, b_hi, _ = _bisect(pb, b_lo, b_hi, above_b)
    raise ValidationFailed("compare_largest_roots failed to separate unequal roots")


def mu_compare(a: IntMatrix, b: IntMatrix) -> int:
    """Exact comparison of spectral radii of nonnegative matrices: -1 if
    mu(a) < mu(b), 0 if equal, +1 if greater.

    Collatz-Wielandt bounds decide first (intmatrix._cw_compare), with no
    polynomial built. Equal radii never separate there, nor may a close
    pair within the filter's step budget; those go on to the characteristic
    polynomials. The Perron root is the largest real root of the
    characteristic polynomial, and max row sum + 1 lies above every root's
    modulus, so it is a bound compare_largest_roots accepts. There Sturm
    bisection isolates both Perron roots, and only the sign of the
    comparison comes back.
    """
    _require_type(IntMatrix, a=a, b=b)
    sign = _cw_compare(a, b)
    if sign is not None:
        return sign
    pa, pb = char_poly(a), char_poly(b)
    hi_a = max(a.row_sums()) + 1
    hi_b = max(b.row_sums()) + 1
    return compare_largest_roots(pa, pb, hi_a, hi_b)

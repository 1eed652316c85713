"""Closed-form inequality machinery: the congruence-subgroup counting
constant, the two-branch lower bound, the omega and kappa constants that
calibrate the sandwich, and the sandwich-table generator itself.

Every numeric output is an exact rational endpoint of a certified enclosure.
Lower bounds always ship their lo endpoint, upper bounds their hi endpoint,
so rounding error can only make published claims weaker, never wrong.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import record
from .enclosures import RatInterval, _log2_ints, _log_end, _log_ints, _require_int, log_enclosure, nth_root_enclosure
from .errors import AlphaOutOfRange, DomainError, ValidationFailed
from .families import cover_index, cover_threshold, cover_upper_bound


def theta(g: int) -> int:
    """Order of the symplectic group over the field with three elements,
    3**(g*g) * prod(3**(2i) - 1), as an exact integer.

    This is the index of the kernel of the mod-3 homology action, assuming
    the action surjects onto the full symplectic group (standard; recorded
    as an assumption in the README). g = 1 is cross-checked against brute
    enumeration by count_sl2_z3.
    """
    _require_int("theta", "g", g, 1)
    out = 3 ** (g * g)
    for i in range(1, g + 1):
        out *= 3 ** (2 * i) - 1
    return out


def count_sl2_z3() -> int:
    """Exhaustive count of 2x2 matrices over Z/3 with determinant 1.

    Independent oracle for theta(1); 81 candidates, no shortcuts.
    """
    count = 0
    for a in range(3):
        for b in range(3):
            for c in range(3):
                for d in range(3):
                    if (a * d - b * c) % 3 == 1:
                        count += 1
    return count


def thm34_lower(g: int, n: int, alpha: int) -> Fraction:
    """Certified lower bound: lo of the interval minimum of the two branches
    log(2)/(alpha*(12g-12)) and log(18g+6n-18)/(2*alpha*(18g+6n-18)).

    alpha is the congruence-cover degree parameter; passing alpha = theta(g)
    gives the universal worst case. The first branch's lo comes from the
    cached ends of log 2, the second's from the lower end of log x alone.
    """
    _require_int("thm34_lower", "g", g, 2)
    _require_int("thm34_lower", "n", n, 0)
    if type(alpha) is not int or not 1 <= alpha <= theta(g):  # bool too
        raise AlphaOutOfRange(f"alpha must be an integer in [1, theta({g})]")
    x = 18 * g + 6 * n - 18
    return min(_branch1_lo(g, alpha), _log_end(x, 1, False) / (2 * alpha * x))


def _branch1_lo(g: int, alpha: int) -> Fraction:
    """lo of thm34_lower's n-independent branch, log(2)/(alpha*(12g-12))."""
    lo_n, _, common = _log2_ints()
    return Fraction(lo_n, common * alpha * (12 * g - 12))


@record
class OmegaConstants:
    g: int
    alpha: int
    omega_prime: RatInterval
    omega: RatInterval


def omega_constants(g: int, alpha: int) -> OmegaConstants:
    """The two calibration constants for the lower half of the sandwich.

    omega_prime = alpha*(12g-12) * log(3) / (3*log(2)); omega is the interval
    maximum of omega_prime, 48*alpha, and
    48*alpha*(g-1)*log(3)/(3*log(24*(g-1))). Every term is linear in alpha.
    Each end of c*log(3)/(3*log(y)) comes from the integer log ends
    (_log_ints) with one Fraction: lo(log 3) over hi(log y), and hi over lo.
    """
    _require_int("omega_constants", "g", g, 2)
    _require_int("omega_constants", "alpha", alpha, 1)
    l3_lo, l3_hi, l3_common = _log_ints(3, 1)

    def log3_over(c: int, y: int) -> RatInterval:
        lo_n, hi_n, common = _log_ints(y, 1)
        den = 3 * l3_common
        return RatInterval(Fraction(c * l3_lo * common, den * hi_n), Fraction(c * l3_hi * common, den * lo_n))

    omega_prime = log3_over(alpha * (12 * g - 12), 2)
    term2 = Fraction(48 * alpha)
    term3 = log3_over(48 * alpha * (g - 1), 24 * (g - 1))
    omega = RatInterval(max(omega_prime.lo, term2, term3.lo), max(omega_prime.hi, term2, term3.hi))
    return OmegaConstants(g=g, alpha=alpha, omega_prime=omega_prime, omega=omega)


@record
class KappaReport:
    g: int
    kappa_prime: Fraction
    witness_n: int


def kappa_upper_constant(g: int) -> KappaReport:
    """kappa' = 3(2g+1), proved to satisfy 3*log(m(n))/m(n) <= kappa' * log(n)/n
    for every n >= cover_threshold(g); the certified cover value sits below
    that closed form (the root lemma verify_lroot checks), and sandwich_table
    tests it row by row.

    With q = 2g+1, m = floor((n-1)/q) - 1 >= x = (n-2q)/q, and x >= 3 > e
    once n >= 5q. log(x)/x is proved decreasing for x >= e, so
    3 log(m)/m <= 3q log(x)/(n-2q) <= 3q log(n)/n whenever q**n >= n**(2q).
    n log q - 2q log n is proved increasing for n >= 2q, so both conditions
    hold for every n >= witness_n = cover_threshold(g) once two exact integer
    comparisons hold there; if either fails, ValidationFailed. No monotonicity
    is assumed and no log is evaluated."""
    _require_int("kappa_upper_constant", "g", g, 2)
    threshold = cover_threshold(g)
    q = 2 * g + 1
    if not (threshold >= 5 * q and q**threshold >= threshold ** (2 * q)):
        raise ValidationFailed(f"g={g}: q**n >= n**(2q) with n >= 5q fails at n={threshold}")
    return KappaReport(g=g, kappa_prime=Fraction(3 * q), witness_n=threshold)


@record
class BoundRow:
    """lower is the congruence two-branch minimum; upper is the certified
    cover value, None below the construction threshold."""

    g: int
    n: int
    lower: Fraction
    upper: Fraction | None


@record
class SandwichReport:
    g: int
    alpha: int
    rows: tuple[BoundRow, ...]
    omega: RatInterval
    kappa_prime: Fraction | None


def log_uniform_sample(n_lo: int, n_hi: int, count: int) -> tuple[int, ...]:
    """At least `count` distinct integers spread geometrically over
    [n_lo, n_hi], endpoints included, fully deterministic (no floats)."""
    _require_int("log_uniform_sample", "n_lo", n_lo, 1)
    _require_int("log_uniform_sample", "n_hi", n_hi)
    _require_int("log_uniform_sample", "count", count, 1)
    if n_hi < n_lo:
        raise DomainError("need 1 <= n_lo <= n_hi")
    span = n_hi - n_lo + 1
    if count > span:
        raise DomainError(f"cannot pick {count} distinct integers from {span}")
    if n_lo == n_hi:
        return (n_lo,)
    t = max(count, 2)
    while True:
        if t >= 4 * span:
            return tuple(range(n_lo, n_hi + 1))
        ratio = nth_root_enclosure(Fraction(n_hi, n_lo), t - 1, bits=32).hi
        points = {n_lo, n_hi}
        x = Fraction(n_lo)
        for _ in range(t - 1):
            x *= ratio
            points.add(min(int(x), n_hi))
        if len(points) >= count:
            return tuple(sorted(points))
        t *= 2


def sandwich_table(
    g: int,
    n_lo: int,
    n_hi: int,
    sample: int | None = None,
) -> SandwichReport:
    """Per-n certified lower and upper bounds, with the calibration claims
    checked on every row.

    lower = thm34_lower(g, n, theta(g)), called on every row, so the row's
    lower bound has one code path; upper = the certified cover value
    where the construction applies (n above its threshold), None below it.
    Each applicable row asserts lower < upper, lower >= lo(log n)/(omega_hi*n),
    and upper <= kappa' * hi(log n)/n; a failure raises ValidationFailed
    naming n. It collects the rows of _sandwich_rows.
    """
    alpha, omega, kappa, rows = _sandwich_rows(g, n_lo, n_hi, sample)
    return SandwichReport(g=g, alpha=alpha, rows=tuple(rows), omega=omega, kappa_prime=kappa)


def _sandwich_rows(g: int, n_lo: int, n_hi: int, sample: int | None):
    """(alpha, omega, kappa', rows) of sandwich_table, with the arguments
    checked and the constants computed here, and rows an iterator that
    certifies each row as it is taken, so a caller that writes rows as
    they come holds one at a time."""
    _require_int("sandwich_table", "g", g, 2)
    _require_int("sandwich_table", "n_lo", n_lo, 3)
    _require_int("sandwich_table", "n_hi", n_hi)
    if sample is not None:
        _require_int("sandwich_table", "sample", sample, 1)
    if n_hi < n_lo:
        raise DomainError("need 3 <= n_lo <= n_hi")
    alpha = theta(g)
    threshold = cover_threshold(g)
    ns = range(n_lo, n_hi + 1) if sample is None else log_uniform_sample(n_lo, n_hi, sample)
    omega = omega_constants(g, alpha).omega
    kappa = kappa_upper_constant(g).kappa_prime if n_hi >= threshold else None

    def rows():
        cover = None  # (m, report) of the latest row: m never falls along the ascending ns
        for n in ns:
            lower = thm34_lower(g, n, alpha)
            logn = log_enclosure(n)
            if lower < logn.lo / (omega.hi * n):
                raise ValidationFailed(f"n={n}: lower bound fell below its omega calibration")
            upper = None
            if n >= threshold:
                # the certified upper value depends on n only through m,
                # so one root isolation per distinct m serves every row
                m = cover_index(g, n)
                if cover is None or cover[0] != m:
                    cover = (m, cover_upper_bound(g, n))
                upper = cover[1].log_root.hi
                if not lower < upper:
                    raise ValidationFailed(f"n={n}: lower bound not strictly below upper bound")
                if not upper <= kappa * logn.hi / n:
                    raise ValidationFailed(f"n={n}: upper bound exceeded its kappa calibration")
            yield BoundRow(g=g, n=n, lower=lower, upper=upper)

    return alpha, omega, kappa, rows()

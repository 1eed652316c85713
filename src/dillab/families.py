"""Explicit families with certified dilatation bounds.

Two generators live here. The branched-cover family turns (genus, marked
points) into the balanced polynomial index m and certifies the log of its
largest root against two closed-form ceilings. The marked-torus family
builds the 2n x 2n transition matrix whose printed template is pinned by
five hard constraints (explicit boundary rows, the shift-by-2 band, max row
sum 11, max column sum 9, irreducibility); verify_torus_bounds re-checks
those constraints on every instance rather than trusting the generator.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from ._record import record
from .dilpoly import RootEnclosure, build_Tm, largest_root, m_cubed_root_enclosure
from .enclosures import RatInterval, _log_end, _log_ints, _require_int, _require_type, log_enclosure
from .errors import DomainError, ValidationFailed
from .intmatrix import IntMatrix, is_irreducible

__all__ = [
    "CoverBoundReport",
    "TorusMatrixSpec",
    "TorusBoundsReport",
    "cover_index",
    "cover_threshold",
    "cover_upper_bound",
    "torus_matrix",
    "verify_torus_bounds",
]


def cover_threshold(g: int) -> int:
    """Smallest n the branched-cover family accepts at genus g: the n whose
    index m is 5, the first m with a certified m^(3/m) ceiling."""
    _require_int("cover_threshold", "g", g, 2)
    return 6 * (2 * g + 1) + 1


def cover_index(g: int, n: int) -> int:
    """Index m of the balanced polynomial T_m certifying (g, n); the bound
    depends on n only through m. Below cover_threshold(g), where no
    certificate exists, DomainError."""
    _require_int("cover_index", "g", g, 2)
    _require_int("cover_index", "n", n)
    threshold = cover_threshold(g)
    if n < threshold:
        raise DomainError(f"cover family requires n >= {threshold} for g={g}")
    return (n - 1) // (2 * g + 1) - 1


@record
class CoverBoundReport:
    g: int
    n: int
    m: int
    c: int
    root: RootEnclosure
    log_root: RatInterval
    closed_form_m: RatInterval  # 3 log(m) / m
    closed_form_n: RatInterval  # 3 log(q) / q at q = (n - 4g - 3)/(2g + 1)


def cover_upper_bound(g: int, n: int) -> CoverBoundReport:
    """Certified upper bound on the least log-dilatation with g handles and
    n marked points, from the balanced polynomial of index m.

    The certificate chain: the largest root of T_m sits below m**(3/m)
    (checked exactly), so log of the root enclosure upper-bounds the family's
    log-dilatation, and that in turn must fall under both closed forms
    3 log(m)/m and 3 log(q)/q, q = (n-4g-3)/(2g+1). Both comparisons are
    asserted endpoint-to-endpoint before the report is returned.
    """
    _require_int("cover_upper_bound", "g", g, 2)
    _require_int("cover_upper_bound", "n", n)
    # n = (2g+1)(m+1) + 1 + c with 0 <= c <= 2g; the c leftover marked points
    # ride along without increasing the dilatation, so the bound is a
    # function of m alone
    m, c = cover_index(g, n), (n - 1) % (2 * g + 1)
    mp = m_cubed_root_enclosure(m)
    root = largest_root(build_Tm(m), search_hi=mp.hi + 1)
    log_root = RatInterval._of(_log_end(*root.lo.as_integer_ratio(), False), _log_end(*root.hi.as_integer_ratio(), True))
    # the closed forms from log_enclosure's integers, one Fraction per end:
    # log m / m over m * common, and log q / q = log q * qd / qn over
    # common * qn. Both logs are positive (m >= 5, q >= 4 from the
    # threshold on), so dividing keeps each end's side
    lo_n, hi_n, common = _log_ints(m, 1)
    closed_m = RatInterval(Fraction(3 * lo_n, m * common), Fraction(3 * hi_n, m * common))
    qn, qd = n - 4 * g - 3, 2 * g + 1
    lo_n, hi_n, common = _log_ints(qn, qd)
    closed_n = RatInterval(Fraction(3 * lo_n * qd, common * qn), Fraction(3 * hi_n * qd, common * qn))
    if not log_root.hi <= closed_m.lo:
        raise ValidationFailed(f"certified log root exceeds 3 log(m)/m at g={g}, n={n}")
    if not log_root.hi <= closed_n.lo:
        raise ValidationFailed(f"certified log root exceeds the n-form ceiling at g={g}, n={n}")
    return CoverBoundReport(
        g=g,
        n=n,
        m=m,
        c=c,
        root=root,
        log_root=log_root,
        closed_form_m=closed_m,
        closed_form_n=closed_n,
    )


@record
class TorusMatrixSpec:
    n: int
    matrix: IntMatrix

    def __post_init__(self) -> None:
        _require_int("TorusMatrixSpec", "n", self.n, 5)
        _require_type(IntMatrix, matrix=self.matrix)
        if self.matrix.k != 2 * self.n:
            raise DomainError(f"matrix must be {2 * self.n}x{2 * self.n}")


def torus_matrix(n: int) -> TorusMatrixSpec:
    """The 2n x 2n transition matrix of the marked-torus family, n >= 5.

    Layout (rows and columns 1-based): band pairs j = 1..n-1 put
      row 2j-1: 1 at columns 2j-1, 2j, 2j+2
      row 2j:   1,1,1,3 at columns 2j-3..2j and 1 at column 2j+2  (j >= 2)
    and four rows carry the wrap-around terms instead of the plain band:
      row 2    : 1@1  2@2  1@4  1@(2n-1)
      row 2n-1 : 1@1  2@2  1@4  2@(2n-1) 1@(2n)
      row 2n   : 1@1  2@2  1@4  1@(2n-3) 1@(2n-2) 2@(2n-1) 3@(2n)
    """
    _require_int("torus_matrix", "n", n, 5)
    k = 2 * n
    # 0-based: band pair j starts at c = 2j - 2; the rows below are sorted
    # sparse rows by construction, and verify_torus_bounds checks the contract
    head = ((0, 1), (1, 2), (3, 1))
    rows = [((0, 1), (1, 1), (3, 1)), head + ((k - 2, 1),)]
    for c in range(2, k - 2, 2):
        rows.append(((c, 1), (c + 1, 1), (c + 3, 1)))
        rows.append(((c - 2, 1), (c - 1, 1), (c, 1), (c + 1, 3), (c + 3, 1)))
    rows.append(head + ((k - 2, 2), (k - 1, 1)))
    rows.append(head + ((k - 4, 1), (k - 3, 1), (k - 2, 2), (k - 1, 3)))
    matrix = IntMatrix._of(tuple(rows))
    return TorusMatrixSpec(n=n, matrix=matrix)


@record
class TorusBoundsReport:
    n: int
    max_col_sum: int
    max_row_sum: int
    irreducible: bool
    log_dil_bound: Fraction  # hi of log(11)/n
    sharper_log_bound: Fraction  # hi of log(9)/n, from the column sums


def verify_torus_bounds(spec: TorusMatrixSpec) -> TorusBoundsReport:
    """Re-check the validation contract of the torus reconstruction.

    Requires max column sum exactly 9, max row sum exactly 11, and
    irreducibility; any miss raises ValidationFailed naming every failed
    claim. Max row and column sums bound mu (Collatz-Wielandt, v = 1 on M
    and its transpose): the log bounds divide log enclosures of 11 and 9 by n.
    """
    _require_type(TorusMatrixSpec, spec=spec)
    m = spec.matrix
    max_col = max(m.col_sums())
    max_row = max(m.row_sums())
    irr = is_irreducible(m)
    failures = []
    if max_col != 9:
        failures.append(f"max column sum is {max_col}, expected 9")
    if max_row != 11:
        failures.append(f"max row sum is {max_row}, expected 11")
    if not irr:
        failures.append("matrix is not irreducible")
    if failures:
        raise ValidationFailed("; ".join(failures))
    log11, log9 = _log_caps()
    return TorusBoundsReport(
        n=spec.n,
        max_col_sum=max_col,
        max_row_sum=max_row,
        irreducible=irr,
        log_dil_bound=log11 / spec.n,
        sharper_log_bound=log9 / spec.n,
    )


@functools.cache
def _log_caps() -> tuple[Fraction, Fraction]:
    # hi ends of log 11 and log 9: constants of the family, the same for every n
    return log_enclosure(11).hi, log_enclosure(9).hi

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

from dataclasses import dataclass
from fractions import Fraction

from .dilpoly import RootEnclosure, build_Tm, largest_root, m_cubed_root_enclosure
from .enclosures import RatInterval, log_enclosure, log_interval
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
    return 6 * (2 * g + 1) + 1


def cover_index(g: int, n: int) -> int:
    """Index m of the balanced polynomial T_m certifying (g, n); the bound
    depends on n only through m."""
    return (n - 1) // (2 * g + 1) - 1


@dataclass(frozen=True)
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
    if g < 2:
        raise DomainError("cover family requires genus >= 2")
    if n < cover_threshold(g):
        raise DomainError(f"cover family requires n >= {cover_threshold(g)} for g={g}")
    # n = (2g+1)(m+1) + 1 + c with 0 <= c <= 2g; the c leftover marked points
    # ride along without increasing the dilatation, so the bound is a
    # function of m alone
    m, c = cover_index(g, n), (n - 1) % (2 * g + 1)
    mp = m_cubed_root_enclosure(m)
    root = largest_root(build_Tm(m), search_hi=mp.hi + 1)
    log_root = log_interval(root.interval)
    logm = log_enclosure(m)
    closed_m = logm.scale(Fraction(3, m))
    q = Fraction(n - 4 * g - 3, 2 * g + 1)
    logq = log_enclosure(q)
    closed_n = logq.scale(3).div_positive(RatInterval.point(q))
    if not log_root.hi <= closed_m.lo:
        raise AssertionError(f"certified log root exceeds 3 log(m)/m at g={g}, n={n}")
    if not log_root.hi <= closed_n.lo:
        raise AssertionError(f"certified log root exceeds the n-form ceiling at g={g}, n={n}")
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


@dataclass(frozen=True)
class TorusMatrixSpec:
    n: int
    matrix: IntMatrix

    def __post_init__(self) -> None:
        if self.n < 5:
            raise DomainError("torus family matrix is defined for n >= 5")
        if self.matrix.k != 2 * self.n:
            raise ValueError(f"matrix must be {2 * self.n}x{2 * self.n}")


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
    if n < 5:
        raise DomainError("torus family matrix is defined for n >= 5")
    k = 2 * n
    rows: list[dict[int, int]] = [{} for _ in range(k)]

    def put(r: int, c: int, v: int) -> None:
        rows[r - 1][c - 1] = v

    for j in range(1, n):
        r = 2 * j - 1
        put(r, 2 * j - 1, 1)
        put(r, 2 * j, 1)
        put(r, 2 * j + 2, 1)
        if j >= 2:
            r = 2 * j
            put(r, 2 * j - 3, 1)
            put(r, 2 * j - 2, 1)
            put(r, 2 * j - 1, 1)
            put(r, 2 * j, 3)
            put(r, 2 * j + 2, 1)
    put(2, 1, 1)
    put(2, 2, 2)
    put(2, 4, 1)
    put(2, k - 1, 1)
    put(k - 1, 1, 1)
    put(k - 1, 2, 2)
    put(k - 1, 4, 1)
    put(k - 1, k - 1, 2)
    put(k - 1, k, 1)
    put(k, 1, 1)
    put(k, 2, 2)
    put(k, 4, 1)
    put(k, k - 3, 1)
    put(k, k - 2, 1)
    put(k, k - 1, 2)
    put(k, k, 3)
    # sorted dict items are valid sparse rows by construction;
    # verify_torus_bounds checks the contract
    matrix = IntMatrix._of(tuple([tuple(sorted(r.items())) for r in rows]))
    return TorusMatrixSpec(n=n, matrix=matrix)


@dataclass(frozen=True)
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
    return TorusBoundsReport(
        n=spec.n,
        max_col_sum=max_col,
        max_row_sum=max_row,
        irreducible=irr,
        log_dil_bound=log_enclosure(11).hi / spec.n,
        sharper_log_bound=log_enclosure(9).hi / spec.n,
    )

"""Path counting, growth-rate checks and out-edge subdivision on IntMatrix.

A transition matrix is read as a directed multigraph: vertices are labeled
1..k (the row/column index plus one), and entry [i-1][j-1] is the
multiplicity of the edge i -> j. Every operation that takes a vertex uses
that labeling. The graph carries no data beyond the matrix, so
serialization is simply the matrix formats of intmatrix.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import record
from .enclosures import RatInterval, _finite_fraction, _require_int, _require_type, interval_gap, nth_root_enclosure
from .errors import DegreePreconditionViolated, DomainError, NotIrreducible, VertexOutOfRange
from .intmatrix import IntMatrix, is_irreducible, pf_enclosure

__all__ = [
    "LimitCheckReport",
    "from_matrix",
    "to_matrix",
    "path_count",
    "path_count_series",
    "dilatation_limit_check",
    "subdivide_out_edge",
]


@record
class LimitCheckReport:
    converged: bool
    last_gap: Fraction
    d: int
    vertex: int
    root_interval: RatInterval
    spectral_interval: RatInterval


def from_matrix(matrix: IntMatrix) -> IntMatrix:
    """Compatibility name: a matrix is already its own transition graph."""
    _require_type(IntMatrix, matrix=matrix)
    return matrix


def to_matrix(graph: IntMatrix) -> IntMatrix:
    """Compatibility name: a transition graph is already its own matrix."""
    _require_type(IntMatrix, graph=graph)
    return graph


def _check_vertex(matrix: IntMatrix, i: int) -> None:
    _require_type(IntMatrix, matrix=matrix)
    # a vertex is of type int exactly: True is not vertex 1
    if type(i) is not int or not 1 <= i <= matrix.k:
        raise VertexOutOfRange(f"vertex {i!r} outside the int labels 1..{matrix.k}")


def path_count(matrix: IntMatrix, i: int, d: int) -> int:
    """Number of directed paths of length d starting at vertex i, exactly.

    This is the i-th row sum of the d-th matrix power; the empty path counts,
    so d = 0 gives 1. It is read from the matrix's count slot, which resumes
    from the latest length asked for when that is at most d, so a call with
    d one above the last costs one matrix-vector product.
    """
    _check_vertex(matrix, i)
    _require_int("path_count", "d", d, 0)
    return matrix._counts(d)[i - 1]


def path_count_series(matrix: IntMatrix, i: int, d_max: int) -> tuple[int, ...]:
    """path_count(matrix, i, d) for every d = 0..d_max, in one sweep that
    leaves M^d_max 1 in the matrix's count slot."""
    _check_vertex(matrix, i)
    _require_int("path_count_series", "d_max", d_max, 0)
    return tuple([matrix._counts(d)[i - 1] for d in range(d_max + 1)])


def dilatation_limit_check(matrix: IntMatrix, i: int, d_max: int, tol) -> LimitCheckReport:
    """Compare the d-th root of the path count against the certified
    spectral enclosure, pf_enclosure at its defaults.

    The d-th root of P(i, d) is bracketed by exact integer root extraction
    (no floating point), and convergence means that bracket overlaps the
    spectral enclosure widened by tol >= 0 on each side; tol is read exactly,
    and a bool, a str, NaN or an infinity raises DomainError. last_gap is
    the distance between the two unwidened intervals, 0 when they already
    overlap.
    """
    _check_vertex(matrix, i)
    return _limit_checks(matrix, (i,), d_max, tol)[0]


def _limit_checks(matrix: IntMatrix, vertices, d_max: int, tol) -> list:
    """dilatation_limit_check for each of the given vertices, from one
    path-count vector (M^d 1 holds P(i, d) for every i at once, and resumes
    from the matrix's count slot) and one spectral enclosure."""
    _require_int("dilatation_limit_check", "d_max", d_max, 1)
    tol = _finite_fraction("tol", tol)
    if tol < 0:
        raise DomainError("tol must be >= 0")
    if not is_irreducible(matrix):
        raise NotIrreducible("dilatation_limit_check requires an irreducible graph")
    counts = matrix._counts(d_max)
    mu = pf_enclosure(matrix)
    mu_iv = RatInterval(mu.lo, mu.hi)
    widened = RatInterval(mu.lo - tol, mu.hi + tol)
    reports = []
    for i in vertices:
        root_iv = nth_root_enclosure(counts[i - 1], d_max)
        reports.append(
            LimitCheckReport(
                converged=interval_gap(root_iv, widened) == 0,
                last_gap=interval_gap(root_iv, mu_iv),
                d=d_max,
                vertex=i,
                root_interval=root_iv,
                spectral_interval=mu_iv,
            )
        )
    return reports


def subdivide_out_edge(matrix: IntMatrix, i: int) -> IntMatrix:
    """Replace the unique out-edge i -> j by i -> w -> j through a fresh
    vertex w, appended with the next index.

    Requires vertex i to have total in-multiplicity 1 (column sum) and total
    out-multiplicity 1 (row sum). A self-loop at i qualifies and becomes the
    2-cycle i -> w -> i.
    """
    _check_vertex(matrix, i)
    row = matrix.rows[i - 1]
    in_mult = matrix.col_sums()[i - 1]
    out_mult = sum([m for _, m in row])
    if in_mult != 1 or out_mult != 1:
        raise DegreePreconditionViolated(
            f"vertex {i} needs in-multiplicity 1 and out-multiplicity 1, "
            f"got in={in_mult} out={out_mult}"
        )
    k = matrix.k
    rows = list(matrix.rows)
    rows[i - 1] = ((k, 1),)
    rows.append(row)
    return IntMatrix.from_sparse(rows)

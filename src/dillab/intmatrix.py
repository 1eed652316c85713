"""Exact nonnegative integer matrices and certified spectral enclosures.

The central certificate is Collatz-Wielandt: for an irreducible nonnegative
matrix M and any strictly positive vector v,

    min_i (Mv)_i / v_i  <=  mu(M)  <=  max_i (Mv)_i / v_i,

where mu is the spectral radius. Power iteration only steers v toward the
dominant eigenvector; the returned [lo, hi] is exact for whichever positive
iterate we stopped at, so the enclosure is valid even when the loop exits on
the iteration cap rather than on convergence.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, NoDiagonalEntry, NotIrreducible

__all__ = [
    "IntMatrix",
    "PFEnclosure",
    "DiagonalBoundReport",
    "mat_power",
    "is_irreducible",
    "is_positive",
    "pf_enclosure",
    "verify_diagonal_bound",
    "parse_matrix_text",
    "render_matrix_text",
    "parse_matrix_json",
    "render_matrix_json",
    "load_matrix",
]

DEFAULT_REL_WIDTH = Fraction(1, 10**9)
DEFAULT_MAX_ITERS = 10**6


@dataclass(frozen=True)
class IntMatrix:
    """Dense square matrix of nonnegative arbitrary-precision integers."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        k = len(self.entries)
        if k == 0:
            raise ValueError("matrix must have dimension >= 1")
        rows = []
        for row in self.entries:
            if len(row) != k:
                raise ValueError("matrix must be square")
            for x in row:
                if not isinstance(x, int):
                    raise ValueError(f"entries must be int, got {type(x).__name__}")
                if x < 0:
                    raise ValueError("entries must be nonnegative")
            rows.append(tuple(row))
        object.__setattr__(self, "entries", tuple(rows))

    @property
    def k(self) -> int:
        return len(self.entries)

    # The digraph view: vertices 1..k, and an edge i -> j of multiplicity
    # entries[i-1][j-1] wherever that entry is nonzero.
    vertex_count = k

    # Tuples here are built from lists: tuple(<generator>) grows its result
    # by resizing, which churns CPython's free lists and lets peak memory
    # creep upward over many constructions.

    @property
    def edges(self) -> tuple[tuple[int, int, int], ...]:
        """Sorted 1-based (i, j, multiplicity) for every nonzero entry."""
        return tuple([(i + 1, j + 1, m) for i, row in enumerate(_sparse_rows(self)) for j, m in row])

    @staticmethod
    def from_rows(rows) -> "IntMatrix":
        return IntMatrix(tuple([tuple([int(x) for x in row]) for row in rows]))

    @staticmethod
    def identity(k: int) -> "IntMatrix":
        return IntMatrix(tuple([tuple([int(i == j) for j in range(k)]) for i in range(k)]))

    def row_sums(self) -> tuple[int, ...]:
        return tuple([sum(row) for row in self.entries])

    def col_sums(self) -> tuple[int, ...]:
        return tuple([sum(col) for col in zip(*self.entries)])

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(list(zip(*self.entries))))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.k != other.k:
            raise ValueError("dimension mismatch")
        cols = list(zip(*other.entries))
        rows = [tuple([sum(a * b for a, b in zip(row, col)) for col in cols]) for row in self.entries]
        return IntMatrix(tuple(rows))


@dataclass(frozen=True)
class PFEnclosure:
    """Certified spectral-radius enclosure lo <= mu <= hi with exact rationals."""

    lo: Fraction
    hi: Fraction
    iterations: int

    @property
    def rel_width(self) -> Fraction:
        return (self.hi - self.lo) / self.lo


@dataclass(frozen=True)
class DiagonalBoundReport:
    positive_power: bool
    mu_bound_holds: bool


def mat_power(matrix: IntMatrix, r: int) -> IntMatrix:
    """Exact matrix power by repeated squaring, r >= 0."""
    if r < 0:
        raise ValueError("power must be >= 0")
    result = IntMatrix.identity(matrix.k)
    base = matrix
    while r:
        if r & 1:
            result = result @ base
        base = base @ base if r > 1 else base
        r >>= 1
    return result


def _sparse_rows(matrix: IntMatrix) -> list[list[tuple[int, int]]]:
    """Per row, the (column, entry) pairs of its nonzero entries, 0-based."""
    return [[(j, m) for j, m in enumerate(row) if m] for row in matrix.entries]


def _reach(adj: list[list[int]], start: int) -> int:
    seen = [False] * len(adj)
    seen[start] = True
    stack = [start]
    count = 1
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if not seen[w]:
                seen[w] = True
                count += 1
                stack.append(w)
    return count


def is_irreducible(matrix: IntMatrix) -> bool:
    """Strong connectivity of the digraph i -> j iff entries[i][j] > 0.

    The 1x1 matrix [0] is reducible by convention; [n] with n >= 1 is
    irreducible (the vertex carries a loop).
    """
    k = matrix.k
    if k == 1:
        return matrix.entries[0][0] > 0
    fwd = [[j for j, _ in row] for row in _sparse_rows(matrix)]
    rev = [[] for _ in range(k)]
    for i in range(k):
        for j in fwd[i]:
            rev[j].append(i)
    return _reach(fwd, 0) == k and _reach(rev, 0) == k


def is_positive(matrix: IntMatrix) -> bool:
    return all(x > 0 for row in matrix.entries for x in row)


def pf_enclosure(
    matrix: IntMatrix,
    rel_width: Fraction = DEFAULT_REL_WIDTH,
    max_iters: int = DEFAULT_MAX_ITERS,
    hi_target: Fraction | None = None,
) -> PFEnclosure:
    """Certified Collatz-Wielandt enclosure of the spectral radius.

    The quotients (Mv)_i / v_i are taken at each iterate, but the iterate
    itself advances by v <- Mv + v. Adding the identity leaves every quotient
    bound valid and makes the iteration matrix primitive even when M is
    irreducible but periodic, where plain power iteration oscillates forever
    and the quotient interval never tightens.

    The iterate is carried as an integer vector (scaling cancels out of the
    quotients); when the entries outgrow a bit cap they are right-shifted by
    a common amount (floor). The shifted vector is still strictly positive,
    and the bounds are exact for whatever positive vector is current, so
    truncation costs a little convergence speed and no soundness. Stops when
    (hi - lo)/lo <= rel_width or after max_iters; either way the returned
    enclosure is valid, the caller inspects the width. rel_width <= 0 or
    max_iters < 1 raises DomainError: the first never stops, the second
    certifies nothing.

    hi_target, when given, stops the iteration the moment the certified
    upper bound reaches it, useful when only a one-sided threshold matters
    and a tight enclosure would be wasted work.
    """
    rel_width = Fraction(rel_width)
    if rel_width <= 0 or max_iters < 1:
        raise DomainError("pf_enclosure requires rel_width > 0 and max_iters >= 1")
    if not is_irreducible(matrix):
        raise NotIrreducible("pf_enclosure requires an irreducible matrix")
    k = matrix.k
    sparse = _sparse_rows(matrix)
    u = [1] * k
    lo_n = lo_d = hi_n = hi_d = 1
    iterations = 0
    for iterations in range(1, max_iters + 1):
        w = [sum(m * u[j] for j, m in row) for row in sparse]
        # min/max quotients w_i/u_i by cross-multiplication (denominators > 0)
        lo_n, lo_d = w[0], u[0]
        hi_n, hi_d = w[0], u[0]
        for i in range(1, k):
            wn, ud = w[i], u[i]
            if wn * lo_d < lo_n * ud:
                lo_n, lo_d = wn, ud
            if wn * hi_d > hi_n * ud:
                hi_n, hi_d = wn, ud
        # (hi - lo) <= rel_width * lo, cross-multiplied
        if (hi_n * lo_d - lo_n * hi_d) * rel_width.denominator <= (
            rel_width.numerator * lo_n * hi_d
        ):
            break
        if hi_target is not None and hi_n * hi_target.denominator <= hi_target.numerator * hi_d:
            break
        nxt = [w[i] + u[i] for i in range(k)]
        top = max(x.bit_length() for x in nxt)
        if top > 192:
            # keep ~96 bits: truncation noise ~2^-96 relative, far below any
            # usable rel_width, and small ints keep the row products cheap
            shift = min(top - 96, min(x.bit_length() for x in nxt) - 1)
            if shift > 0:
                nxt = [x >> shift for x in nxt]
        u = nxt
    return PFEnclosure(lo=Fraction(lo_n, lo_d), hi=Fraction(hi_n, hi_d), iterations=iterations)


def verify_diagonal_bound(matrix: IntMatrix) -> DiagonalBoundReport:
    """For irreducible M with a nonzero diagonal entry: M^(2k) is positive
    and the certified lower bound satisfies lo(mu)^(2k) >= k, both exact."""
    if not is_irreducible(matrix):
        raise NotIrreducible("verify_diagonal_bound requires an irreducible matrix")
    k = matrix.k
    if all(matrix.entries[i][i] == 0 for i in range(k)):
        raise NoDiagonalEntry("verify_diagonal_bound requires a nonzero diagonal entry")
    power = mat_power(matrix, 2 * k)
    enclosure = pf_enclosure(matrix)
    return DiagonalBoundReport(
        positive_power=is_positive(power),
        mu_bound_holds=enclosure.lo ** (2 * k) >= k,
    )


def parse_matrix_text(text: str) -> IntMatrix:
    """Line 1: dimension k; then k lines of k space-separated integers."""
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty matrix text")
    k = int(lines[0])
    if len(lines) != k + 1:
        raise ValueError(f"expected {k} rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        row = [int(tok) for tok in ln.split()]
        if len(row) != k:
            raise ValueError(f"expected {k} entries per row, found {len(row)}")
        rows.append(row)
    return IntMatrix.from_rows(rows)


def render_matrix_text(matrix: IntMatrix) -> str:
    lines = [str(matrix.k)]
    lines.extend(" ".join(str(x) for x in row) for row in matrix.entries)
    return "\n".join(lines) + "\n"


def parse_matrix_json(obj) -> IntMatrix:
    """Accepts {"k": int, "rows": [[int, ...], ...]} or its JSON text."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    k = obj["k"]
    rows = obj["rows"]
    if len(rows) != k:
        raise ValueError(f"k={k} but {len(rows)} rows given")
    return IntMatrix.from_rows(rows)


def render_matrix_json(matrix: IntMatrix) -> dict:
    return {"k": matrix.k, "rows": [list(row) for row in matrix.entries]}


def load_matrix(path: str) -> IntMatrix:
    """Load either format; JSON is detected by a leading '{'."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return parse_matrix_json(stripped)
    return parse_matrix_text(text)

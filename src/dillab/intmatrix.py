"""Exact nonnegative integer matrices and certified spectral enclosures.

The central certificate is Collatz-Wielandt: for an irreducible nonnegative
matrix M and any strictly positive vector v,

    min_i (Mv)_i / v_i  <=  mu(M)  <=  max_i (Mv)_i / v_i,

where mu is the spectral radius. Floats steer, integers certify: power
iteration, and float inverse iteration when that is slow, only choose v;
the returned [lo, hi] is computed in integers for whichever positive
iterate we stopped at, so the enclosure is valid even when the loop exits
on the iteration cap rather than on convergence, and whatever the floats
did.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain, repeat, starmap
from operator import add, itemgetter, mul, or_

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

# Tuples here are built from lists: tuple(<generator>) grows its result by
# resizing, which churns CPython's free lists and lets peak memory creep
# upward over many constructions.


@dataclass(frozen=True, init=False, repr=False)
class IntMatrix:
    """Square matrix of nonnegative arbitrary-precision integers.

    Stored as sparse rows: rows[i] holds the (column, entry) pairs of row i's
    nonzero entries, 0-based and by increasing column, so equal matrices have
    equal rows and equal hashes. IntMatrix(entries) takes the dense tuple of
    tuples of entries of type int exactly: a bool, float or str is refused,
    never coerced. `entries` rebuilds that tuple on every access.
    """

    rows: tuple[tuple[tuple[int, int], ...], ...]

    def __init__(self, entries) -> None:
        k = len(entries)
        if k == 0:
            raise ValueError("matrix must have dimension >= 1")
        rows = []
        for row in entries:
            if len(row) != k:
                raise ValueError("matrix must be square")
            for x in row:
                if type(x) is not int:  # bool too: true is not read as 1
                    raise ValueError(f"entries must be int, got {type(x).__name__}")
            if min(row) < 0:
                raise ValueError("entries must be nonnegative")
            rows.append(tuple([(j, x) for j, x in enumerate(row) if x]))
        object.__setattr__(self, "rows", tuple(rows))

    @staticmethod
    def from_sparse(rows) -> "IntMatrix":
        """Build from sparse rows of (column, entry) pairs, 0-based, columns
        strictly increasing and entries positive; the dimension is the number
        of rows."""
        k = len(rows)
        if k == 0:
            raise ValueError("matrix must have dimension >= 1")
        out = []
        for row in rows:
            row = tuple([(j, m) for j, m in row])
            last = -1
            for j, m in row:
                if type(j) is not int or type(m) is not int:
                    raise ValueError("sparse rows hold int (column, entry) pairs")
                if not last < j < k:
                    raise ValueError("sparse columns must increase within 0..k-1")
                if m <= 0:
                    raise ValueError("sparse entries must be positive")
                last = j
            out.append(row)
        return IntMatrix._of(tuple(out))

    @staticmethod
    def _of(rows: tuple) -> "IntMatrix":
        """Wrap sparse rows that are valid by construction, unchecked."""
        matrix = object.__new__(IntMatrix)
        object.__setattr__(matrix, "rows", rows)
        return matrix

    @property
    def k(self) -> int:
        return len(self.rows)

    # The digraph view: vertices 1..k, and an edge i -> j of multiplicity
    # entries[i-1][j-1] wherever that entry is nonzero.
    vertex_count = k

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        """The dense tuple of tuples, rebuilt on each access."""
        k = self.k
        dense = []
        for row in self.rows:
            line = [0] * k
            for j, m in row:
                line[j] = m
            dense.append(tuple(line))
        return tuple(dense)

    def __repr__(self) -> str:
        return f"IntMatrix(entries={self.entries!r})"

    @property
    def edges(self) -> tuple[tuple[int, int, int], ...]:
        """Sorted 1-based (i, j, multiplicity) for every nonzero entry."""
        return tuple([(i + 1, j + 1, m) for i, row in enumerate(self.rows) for j, m in row])

    @staticmethod
    def from_rows(rows) -> "IntMatrix":
        """IntMatrix(rows), for rows given as any sequences of int entries."""
        return IntMatrix(rows)

    @staticmethod
    def identity(k: int) -> "IntMatrix":
        return IntMatrix.from_sparse([((i, 1),) for i in range(k)])

    def row_sums(self) -> tuple[int, ...]:
        return tuple([sum([m for _, m in row]) for row in self.rows])

    def col_sums(self) -> tuple[int, ...]:
        sums = [0] * self.k
        for row in self.rows:
            for j, m in row:
                sums[j] += m
        return tuple(sums)

    def __reduce__(self):
        # only the rows travel: _times is a closure, and neither it nor the
        # count slot is part of the value
        return IntMatrix._of, (self.rows,)

    @cached_property
    def _times(self):
        """The exact product v -> M v (_multiplier), built once per matrix."""
        return _multiplier(self.rows)

    def _counts(self, d: int) -> list[int]:
        """M^d 1, whose i-th entry counts the paths of length d from vertex
        i + 1. The count slot holds the latest (e, M^e 1) asked for: a call
        resumes from it when e <= d, restarts from 1 otherwise, and leaves
        (d, M^d 1) in its place. The list is shared; do not mutate it."""
        slot = self.__dict__.get("_count_slot")
        e, v = slot if slot is not None and slot[0] <= d else (0, [1] * self.k)
        times = self._times
        for _ in range(d - e):
            v = times(v)
        self.__dict__["_count_slot"] = (d, v)
        return v

    @cached_property
    def _irreducible(self) -> bool:
        k = self.k
        if k == 1:
            return bool(self.rows[0])
        fwd = [[j for j, _ in row] for row in self.rows]
        rev = [[] for _ in range(k)]
        for i in range(k):
            for j in fwd[i]:
                rev[j].append(i)
        return _reach(fwd, 0) == k and _reach(rev, 0) == k

    def transpose(self) -> "IntMatrix":
        cols = [[] for _ in range(self.k)]
        for i, row in enumerate(self.rows):
            for j, m in row:
                cols[j].append((i, m))
        out = IntMatrix._of(tuple([tuple(col) for col in cols]))
        if "_irreducible" in self.__dict__:  # reversing every edge keeps it
            out.__dict__["_irreducible"] = self._irreducible
        return out

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.k != other.k:
            raise ValueError("dimension mismatch")
        out = []
        for row in self.rows:
            acc: dict[int, int] = {}
            for l, a in row:
                for j, b in other.rows[l]:
                    acc[j] = acc.get(j, 0) + a * b
            out.append(tuple(sorted(acc.items())))
        return IntMatrix._of(tuple(out))


@dataclass(frozen=True)
class PFEnclosure:
    """Certified spectral-radius enclosure lo <= mu <= hi with exact rationals.

    stop says why the iteration ended: "converged" (the width target was
    met), "hi_target" (hi reached the caller's threshold) or "max_iters".
    steered says whether a float inverse-iteration vector replaced the
    integer iterate on the way.
    """

    lo: Fraction
    hi: Fraction
    iterations: int
    stop: str
    steered: bool

    @property
    def rel_width(self) -> Fraction:
        return (self.hi - self.lo) / self.lo


@dataclass(frozen=True)
class DiagonalBoundReport:
    """For irreducible k x k M with a nonzero diagonal entry: M^(2k) > 0,
    which Holladay-Varga (Proc. AMS 9, 1958) prove, so only a code bug gives
    False; and M^(2k) 1 >= k, which proves mu(M)^(2k) = mu(M^(2k)) >= k, as a
    least row sum bounds a spectral radius below (Collatz-Wielandt, v = 1)."""

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


# An entry up to this is gathered as its column repeated that many times; a
# larger one is multiplied in, so memory stays O(nnz) for entries like 2**1100.
_REPEAT_MAX = 4


def _gather(row):
    """v -> a sequence holding v[j] m times for each pair (j, m) of row.
    itemgetter of one index returns the bare item, so a row that names one
    item or none reads a slice instead."""
    if len(row) > 1 or row and row[0][1] > 1:
        return itemgetter(*list(chain.from_iterable(starmap(repeat, row))))
    return itemgetter(slice(row[0][0], row[0][0] + 1) if row else slice(0, 0))


def _multiplier(rows):
    """The exact product v -> M v for a matrix M given by its sparse rows,
    on a list of ints; an empty row gives 0.

    Each row becomes one itemgetter over its columns, each column repeated
    as often as its entry, so that sum(g(v)) computes the row's value in C.
    Entries above _REPEAT_MAX are multiplied in with map(mul) instead. Ints
    only: on floats x + x + x rounds differently from 3 * x.
    """
    scaled = []  # (row, gather, entries) of the entries above _REPEAT_MAX
    if max(map(itemgetter(1), chain.from_iterable(rows)), default=0) > _REPEAT_MAX:
        small = []
        for i, row in enumerate(rows):
            big = [(j, m) for j, m in row if m > _REPEAT_MAX]
            if big:
                scaled.append((i, _gather([(j, 1) for j, _ in big]), [m for _, m in big]))
            small.append([(j, m) for j, m in row if m <= _REPEAT_MAX])
        rows = small
    gathers = [_gather(row) for row in rows]

    def times(v: list) -> list:
        w = [sum(g(v)) for g in gathers]
        for i, g, entries in scaled:
            w[i] += sum(map(mul, entries, g(v)))
        return w

    return times


def _power_pattern(matrix: IntMatrix, r: int) -> list[int]:
    """M^r's zero pattern: bit j of entry i is set iff (M^r)[i][j] > 0."""
    reach = [1 << i for i in range(matrix.k)]
    for _ in range(r):
        reach = [reduce(or_, [reach[j] for j, _ in row], 0) for row in matrix.rows]
    return reach


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
    """Strong connectivity of the digraph i -> j iff entries[i][j] > 0,
    decided on the first call for a matrix and remembered on it.

    The 1x1 matrix [0] is reducible by convention; [n] with n >= 1 is
    irreducible (the vertex carries a loop).
    """
    return matrix._irreducible


def is_positive(matrix: IntMatrix) -> bool:
    k = matrix.k
    return all([len(row) == k for row in matrix.rows])


# Float steering: at most this many shifted solves, stopping early once the
# float quotients agree to about 2^-44 relative or stop narrowing.
_STEER_ROUNDS = 8
_STEER_TOL = 2.0**-44
_STEER_SCALE = 2.0**62  # steered vectors become integers in 1..2^62


def _steer_at(rows) -> int:
    """The iteration after which pf_enclosure steers: the first at which the
    exact loop's multiply-adds (one per nonzero entry and step) pay for
    _STEER_ROUNDS eliminations.

    Elimination without pivoting fills only inside the matrix's envelope:
    row r of L starts at row r's first nonzero column, column c of U at
    column c's first nonzero row. Pivot i therefore updates at most
    L_i * U_i entries, where L_i counts the rows r > i that start at or
    before i and U_i the columns c > i that do. A banded matrix with a few
    wrap-around rows costs O(k); a dense one k^3 / 3.
    """
    k = len(rows)
    first_row = [k] * k
    rise = [0] * (k + 1)  # difference arrays of L_i and U_i over i
    fall = [0] * (k + 1)
    for r, row in enumerate(rows):
        if row and row[0][0] < r:
            rise[row[0][0]] += 1
            rise[r] -= 1
        for j, _ in row:
            if r < first_row[j]:
                first_row[j] = r
    for c, r in enumerate(first_row):
        if r < c:
            fall[r] += 1
            fall[c] -= 1
    work = lower = upper = 0
    for i in range(k):
        lower += rise[i]
        upper += fall[i]
        work += lower * upper
    nnz = sum([len(row) for row in rows])
    return -(-_STEER_ROUNDS * (work + nnz) // nnz)


def _shifted_solve(a: list, sigma: float, b: list) -> list | None:
    """Solve (sigma I - A) y = b by sparse Gaussian elimination without
    pivoting, on rows held as dicts; None unless every pivot and every
    component of y is positive and finite.

    With sigma above the spectral radius of the nonnegative irreducible A,
    sigma I - A is a nonsingular M-matrix: its pivots are positive, and a
    positive b gives a positive y. Rounding can break either near the
    singular end, which the checks catch.
    """
    k = len(a)
    rows = []
    below = [[] for _ in range(k)]  # below[c]: rows r > c with an entry at c
    for r, row in enumerate(a):
        d = {j: -m for j, m in row}
        d[r] = d.get(r, 0.0) + sigma
        rows.append(d)
        for j in d:
            if j < r:
                below[j].append(r)
    b = list(b)
    pivots = [0.0] * k
    for i in range(k):
        upper = rows[i]  # columns >= i only: the earlier ones are eliminated
        piv = pivots[i] = upper.pop(i)
        if not 0.0 < piv < math.inf:
            return None
        for r in below[i]:
            target = rows[r]
            f = target.pop(i) / piv
            for j, v in upper.items():
                if j in target:
                    target[j] -= f * v
                else:
                    target[j] = -f * v
                    if j < r:
                        below[j].append(r)
            b[r] -= f * b[i]
    y = [0.0] * k
    for i in range(k - 1, -1, -1):
        s = b[i]
        for j, v in rows[i].items():
            s -= v * y[j]
        y[i] = s / pivots[i]
        if not 0.0 < y[i] < math.inf:
            return None
    return y


def _steer(rows, u: list[int], hi: Fraction) -> list[int] | None:
    """A positive integer vector near the Perron vector, or None.

    Noda's inverse iteration in floats: solve (sigma I - M) y = x with sigma
    the current Collatz-Wielandt upper bound (hi first, then the float
    quotients' maximum), normalise, repeat. The result is scaled to 62-bit
    integers; it only steers, the caller certifies it exactly. Any overflow,
    non-finite value or nonpositive pivot or component gives up (None), or
    keeps the last vector that passed.
    """
    try:
        a = [[(j, float(m)) for j, m in row] for row in rows]
        sigma = hi.numerator / hi.denominator
        top = max(u)
        x = [v / top for v in u]
    except OverflowError:
        return None
    best = None
    width = math.inf
    for _ in range(_STEER_ROUNDS):
        y = _shifted_solve(a, sigma, x)
        if y is None:
            break
        top = max(y)
        x = [v / top for v in y]
        if not all([v > 0.0 for v in x]):
            break
        q = [sum([m * x[j] for j, m in row]) / x[i] for i, row in enumerate(a)]
        lo, new_sigma = min(q), max(q)
        if not 0.0 < lo <= new_sigma < math.inf:
            break
        new_width = (new_sigma - lo) / lo
        if new_width >= width:
            break
        best, width, sigma = x, new_width, new_sigma
        if width <= _STEER_TOL:
            break
    if best is None:
        return None
    return [max(1, int(v * _STEER_SCALE)) for v in best]


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
    quotients). Mv comes from the matrix's exact product IntMatrix._times
    (_multiplier, built once per matrix and shared with the path counts,
    whose latest M^d 1 sits in its count slot), which sums each row in C;
    the quotients are compared by exact cross-multiplication.
    When the entries outgrow a bit cap they are right-shifted by a common
    amount (floor). The shifted vector is still strictly positive, and the
    bounds are exact for whatever positive vector is current, so truncation
    costs a little convergence speed and no soundness. Stops when
    (hi - lo)/lo <= rel_width or after max_iters; either way the returned
    enclosure is valid, the caller inspects the width. rel_width <= 0 or
    max_iters < 1 raises DomainError: the first never stops, the second
    certifies nothing.

    Power iteration converges slowly when the subdominant eigenvalues crowd
    the Perron root (the torus family's close in like 1/n^2). So if the loop
    has not stopped by the iteration at which it has spent as much
    arithmetic as a steer may (_steer_at), the next iterate comes from float
    inverse iteration instead (_steer); the exact loop then evaluates it and
    goes on as before, and a failed steer leaves the integer iterate in
    place. The steer is tried again each time the iteration count doubles,
    while the width is still above what floats resolve (_STEER_TOL): an
    early start can leave the vector short of float precision on a large
    matrix. The iterations at which this happens depend on the input alone.
    A matrix that power iteration settles sooner never steers, and the
    steers together never cost more than the loop has spent.

    hi_target, when given, stops the iteration the moment the certified
    upper bound reaches it, useful when only a one-sided threshold matters
    and a tight enclosure would be wasted work. No library caller passes it;
    it is kept for the benchmark's column-route instance (perfbench).
    """
    rel_width = Fraction(rel_width)
    if rel_width <= 0 or max_iters < 1:
        raise DomainError("pf_enclosure requires rel_width > 0 and max_iters >= 1")
    if not is_irreducible(matrix):
        raise NotIrreducible("pf_enclosure requires an irreducible matrix")
    k = matrix.k
    sparse = matrix.rows
    times = matrix._times
    u = [1] * k
    lo_n = lo_d = hi_n = hi_d = 1
    iterations = 0
    stop = "max_iters"
    steered = False
    steer_at = None
    steer_tol = _STEER_TOL.as_integer_ratio()
    for iterations in range(1, max_iters + 1):
        w = times(u)
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
            stop = "converged"
            break
        if hi_target is not None and hi_n * hi_target.denominator <= hi_target.numerator * hi_d:
            stop = "hi_target"
            break
        if steer_at is None:  # costed only once the loop goes on
            steer_at = _steer_at(sparse)
        if iterations == steer_at and iterations < max_iters:
            steer_at *= 2
            # (hi - lo) > _STEER_TOL * lo: floats can still narrow it
            gap = (hi_n * lo_d - lo_n * hi_d) * steer_tol[1]
            if not steered or gap > steer_tol[0] * lo_n * hi_d:
                guess = _steer(sparse, u, Fraction(hi_n, hi_d))
                if guess is not None:
                    u = guess
                    steered = True
                    continue
        nxt = list(map(add, w, u))
        top = max(nxt).bit_length()
        if top > 192:
            # keep ~96 bits: truncation noise ~2^-96 relative, far below any
            # usable rel_width, and small ints keep the row products cheap
            shift = min(top - 96, min(nxt).bit_length() - 1)
            if shift > 0:
                nxt = [x >> shift for x in nxt]
        u = nxt
    return PFEnclosure(
        lo=Fraction(lo_n, lo_d),
        hi=Fraction(hi_n, hi_d),
        iterations=iterations,
        stop=stop,
        steered=steered,
    )


def verify_diagonal_bound(matrix: IntMatrix) -> DiagonalBoundReport:
    """Both facts of DiagonalBoundReport, exact, with no enclosure."""
    if not is_irreducible(matrix):
        raise NotIrreducible("verify_diagonal_bound requires an irreducible matrix")
    k = matrix.k
    if not any([j == i for i, row in enumerate(matrix.rows) for j, _ in row]):
        raise NoDiagonalEntry("verify_diagonal_bound requires a nonzero diagonal entry")
    return DiagonalBoundReport(
        positive_power=_power_pattern(matrix, 2 * k) == [(1 << k) - 1] * k,
        mu_bound_holds=min(matrix._counts(2 * k)) >= k,
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
    for field in ("k", "rows"):
        if field not in obj:
            raise ValueError(f"matrix JSON lacks the field {field!r}")
    k = obj["k"]
    rows = obj["rows"]
    if type(k) is not int:  # bool too: true is not read as 1
        raise ValueError(f"k must be int, got {type(k).__name__}")
    if type(rows) is not list or any(type(row) is not list for row in rows):
        raise ValueError("rows must be a list of lists of int")
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

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

import math
import os
from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain, repeat, starmap
from operator import add, itemgetter, mul, or_

from ._record import record
from .enclosures import _finite_fraction, _require_int, _require_type
from .errors import DomainError, NoDiagonalEntry, NotIrreducible

DEFAULT_REL_WIDTH = Fraction(1, 10**9)
DEFAULT_MAX_ITERS = 10**6

# Tuples here are built from lists: tuple(<generator>) grows its result by
# resizing, which churns CPython's free lists and lets peak memory creep
# upward over many constructions.


@record
class IntMatrix:
    """Square matrix of nonnegative arbitrary-precision integers.

    Stored as sparse rows: rows[i] holds the (column, entry) pairs of row i's
    nonzero entries, 0-based and by increasing column, so equal matrices have
    equal rows and equal hashes. IntMatrix(entries), the one checked
    constructor, takes the dense tuple of tuples of entries of type int
    exactly: a bool, float or str is refused, never coerced. `entries`
    rebuilds that tuple on every access.
    """

    rows: tuple[tuple[tuple[int, int], ...], ...]

    def __init__(self, entries) -> None:
        _require_type((tuple, list), entries=entries)
        k = len(entries)
        if k == 0:
            raise DomainError("matrix must have dimension >= 1")
        rows = []
        for row in entries:
            if not isinstance(row, (tuple, list)):
                raise DomainError(f"rows must be of type tuple or list, got {type(row).__name__}")
            if len(row) != k:
                raise DomainError("matrix must be square")
            nonzero = []
            negative = False  # raised after the loop: a later non-int wins
            for j, x in enumerate(row):
                if type(x) is not int:  # bool too: true is not read as 1
                    raise DomainError(f"entries must be int, got {type(x).__name__}")
                if x:
                    if x < 0:
                        negative = True
                    nonzero.append((j, x))
            if negative:
                raise DomainError("entries must be nonnegative")
            rows.append(tuple(nonzero))
        object.__setattr__(self, "rows", tuple(rows))

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
        """IntMatrix(rows), with the same checks. No library module calls it;
        it stays while perfbench calls and traces this name."""
        return IntMatrix(rows)

    def row_sums(self) -> tuple[int, ...]:
        return tuple([sum([m for _, m in row]) for row in self.rows])

    def col_sums(self) -> tuple[int, ...]:
        sums = [0] * self.k
        for row in self.rows:
            for j, m in row:
                sums[j] += m
        return tuple(sums)

    @cached_property
    def _times(self):
        """The exact product v -> M v (_multiplier), built once per matrix
        on the route _scaled_plan picks in one pass over its rows."""
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


@record
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


@record
class DiagonalBoundReport:
    """For irreducible k x k M with a nonzero diagonal entry: M^(2k) > 0,
    which Holladay-Varga (Proc. AMS 9, 1958) prove, so only a code bug gives
    False; and M^(2k) 1 >= k, which proves mu(M)^(2k) = mu(M^(2k)) >= k, as a
    least row sum bounds a spectral radius below (Collatz-Wielandt, v = 1)."""

    positive_power: bool
    mu_bound_holds: bool


def _gather(indices: list):
    """v -> a sequence holding v[i] for each i of indices. itemgetter of one
    index returns the bare item, so one index or none reads a slice instead."""
    if len(indices) > 1:
        return itemgetter(*indices)
    return itemgetter(slice(indices[0], indices[0] + 1) if indices else slice(0, 0))


def _scaled_plan(rows) -> tuple[list, list, list] | None:
    """The scaled route for these sparse rows, laid out in one pass over
    their entries: each row's gather indices into v's extended copy, and the
    column and factor of each distinct pair (j, m > 1) in slot order k,
    k + 1, ...; or None, where the repeat route gathers no more items.

    The repeat route gathers sum(m) items, m over the nonzero entries. The
    scaled route gathers nnz, each entry once; two more for each distinct
    pair, keyed by the int m * k + j (v[j] to scale, and m * v[j] into v's
    copy); and 2k: k for the copy of v, and k more for its set-up, which
    small graphs (the oracle's 3..9 vertices) and the sparse torus family
    would not earn back. So the repeat route is taken only when sum(m) <=
    nnz + 2 * pairs + 2k <= 3 * nnz + 2k, and its memory stays O(nnz + k):
    an entry like 2**1100 scales by the count alone.
    """
    k = len(rows)
    slot = {}  # m * k + j -> the index of m * v[j] in v's extended copy
    cols, factors, lists = [], [], []
    extra = 0  # sum(m - 1): the items the repeat route gathers beyond nnz
    for row in rows:
        at = []
        for j, m in row:
            if m == 1:
                at.append(j)
                continue
            extra += m - 1
            key = m * k + j
            s = slot.get(key)
            if s is None:
                s = slot[key] = k + len(cols)
                cols.append(j)
                factors.append(m)
            at.append(s)
        lists.append(at)
    if extra > 2 * (len(cols) + k):
        return lists, cols, factors
    return None


def _multiplier(rows):
    """The exact product v -> M v for a matrix M given by its sparse rows,
    on a list of ints; an empty row gives 0.

    Each row becomes one itemgetter, so that sum(g(v)) computes the row's
    value in C, on one of two routes (_scaled_plan chooses). The repeat
    route gathers each column as often as its entry. The scaled route
    computes m * v[j] once per product for each distinct pair (j, m > 1),
    appends these values to v, and gathers every nonzero entry exactly once.
    Ints only: on floats x + x + x rounds differently from 3 * x.
    """
    plan = _scaled_plan(rows)
    if plan is None:
        gathers = [_gather(list(chain.from_iterable(starmap(repeat, row)))) for row in rows]
        return lambda v: [sum(g(v)) for g in gathers]
    lists, cols, factors = plan
    gathers = [_gather(at) for at in lists]
    scale = _gather(cols)

    def times(v: list) -> list:
        ext = v + list(map(mul, factors, scale(v)))
        return [sum(g(ext)) for g in gathers]

    return times


def _power_pattern(matrix: IntMatrix, r: int) -> list[int]:
    """M^r's zero pattern: bit j of entry i is set iff (M^r)[i][j] > 0."""
    reach = [1 << i for i in range(matrix.k)]
    for _ in range(r):
        reach = [reduce(or_, [reach[j] for j, _ in row], 0) for row in matrix.rows]
    return reach


def _reach(adj: list[list[int]], start: int) -> int:
    """The vertices reachable from start over adj, counted until all are seen."""
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
                if count == len(adj):
                    return count
                stack.append(w)
    return count


def is_irreducible(matrix: IntMatrix) -> bool:
    """Strong connectivity of the digraph i -> j iff entries[i][j] > 0,
    decided on the first call for a matrix and remembered on it.

    The 1x1 matrix [0] is reducible by convention; [n] with n >= 1 is
    irreducible (the vertex carries a loop).
    """
    _require_type(IntMatrix, matrix=matrix)
    return matrix._irreducible


def is_positive(matrix: IntMatrix) -> bool:
    _require_type(IntMatrix, matrix=matrix)
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
    column c's first nonzero row, sought until every column has one. So
    pivot i updates at most L_i * U_i entries, L_i counting the rows r > i
    that start at or before i and U_i the columns c > i that do: O(k) for a
    band with a few wrap-around rows, k^3 / 3 for a dense matrix.
    """
    k = len(rows)
    first_row, unseen = [k] * k, k  # unseen: the columns with no first row yet
    rise = [0] * (k + 1)  # difference arrays of L_i and U_i over i
    fall = [0] * (k + 1)
    for r, row in enumerate(rows):
        if row and row[0][0] < r:
            rise[row[0][0]] += 1
            rise[r] -= 1
        if unseen:
            for j, _ in row:
                if r < first_row[j]:
                    first_row[j] = r
                    unseen -= 1
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


def _cw_bounds(w: list, u: list) -> tuple[int, int, int, int, int, int]:
    """(lo_n, lo_d, hi_n, hi_d, lo_at, hi_at): the least and the greatest
    quotient w_i / u_i, for u > 0, compared by exact cross-multiplication,
    and the positions they sit at; a tie keeps the first."""
    lo_n, lo_d = hi_n, hi_d = w[0], u[0]
    lo_at = hi_at = 0
    for i in range(1, len(w)):
        wn, ud = w[i], u[i]
        if wn * lo_d < lo_n * ud:
            lo_n, lo_d, lo_at = wn, ud, i
        if wn * hi_d > hi_n * ud:
            hi_n, hi_d, hi_at = wn, ud, i
    return lo_n, lo_d, hi_n, hi_d, lo_at, hi_at


def _cw_advance(w: list, u: list) -> list:
    """The next iterate w + u, for w = Mu >= 0 and u > 0, so still > 0.

    Past 192 bits it is right-shifted to keep ~96: truncation noise ~2^-96
    relative, far below any usable width, and small ints keep the row
    products cheap. The shift is capped at min.bit_length() - 1, so the
    least entry stays >= 1."""
    nxt = list(map(add, w, u))
    top = max(nxt).bit_length()
    if top > 192:
        shift = min(top - 96, min(nxt).bit_length() - 1)
        if shift > 0:
            nxt = [x >> shift for x in nxt]
    return nxt


# The Collatz-Wielandt filter of mu_compare gives up after this many steps.
# A step pair, two products and two quotient scans, costs about 9 us on the
# oracle's 3..9-vertex graphs (2-vCPU host, Python 3.11): the whole budget
# is an eighth of the exact route's 0.85-1.2 ms per unequal spliced pair.
# 97% of spliced-graph pairs separate within it, in 4..16 steps; equal
# radii never do, and pay it on top of the exact route.
_FILTER_STEPS = 16


def _cw_compare(a: IntMatrix, b: IntMatrix) -> int | None:
    """-1 if mu(a) < mu(b) or 1 if mu(a) > mu(b), once Collatz-Wielandt
    bounds of the two separate; None if they have not after _FILTER_STEPS
    lockstep steps v <- Mv + v from v = 1. Never 0: equal radii never
    separate. The bounds hold for every nonnegative M and positive v
    (Mv >= c v gives M^n v >= c^n v, and Mv <= C v gives M^n v <= C^n v),
    so a zero row, a periodic or a reducible matrix is sound here.
    """
    times_a, times_b = a._times, b._times
    u, v = [1] * a.k, [1] * b.k
    for _ in range(_FILTER_STEPS):
        wa, wb = times_a(u), times_b(v)
        a_lo_n, a_lo_d, a_hi_n, a_hi_d, _, _ = _cw_bounds(wa, u)
        b_lo_n, b_lo_d, b_hi_n, b_hi_d, _, _ = _cw_bounds(wb, v)
        if a_hi_n * b_lo_d < b_lo_n * a_hi_d:
            return -1
        if b_hi_n * a_lo_d < a_lo_n * b_hi_d:
            return 1
        u, v = _cw_advance(wa, u), _cw_advance(wb, v)
    return None


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
    whose latest M^d 1 sits in its count slot), which sums each row in C:
    where that gathers fewer items (_scaled_plan), it gathers each nonzero
    entry m once, from the values m v_j scaled once per product; elsewhere
    it gathers column j m times. The quotients are compared by exact
    cross-multiplication.
    Only the full quotient scan (_cw_bounds) can stop the loop, so it runs
    behind a filter (a filtered exact predicate: Bronnimann, Burnikel and
    Pion, Discrete Appl. Math. 109, 2001). The loop keeps the positions of
    the last scan's least and greatest quotient; when the two quotients now
    at those positions differ by more than rel_width times the lesser, so
    do hi and lo, and the iteration cannot stop. Four exact products prove
    this in either order of the two. The scan runs where they do not, at
    the steer, on the last iteration max_iters allows, and on every
    iteration when hi_target is given, so every stop, steer and bound is
    the one a scan on every iteration gives.
    When the entries outgrow a bit cap they are right-shifted by a common
    amount (floor). The shifted vector is still strictly positive, and the
    bounds are exact for whatever positive vector is current, so truncation
    costs a little convergence speed and no soundness. Stops when
    (hi - lo)/lo <= rel_width or after max_iters; either way the returned
    enclosure is valid, the caller inspects the width. rel_width <= 0 or
    max_iters < 1 raises DomainError: the first never stops, the second
    certifies nothing. rel_width and hi_target are read exactly; a bool, a
    str, NaN, an infinity or a None rel_width raises DomainError too.

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
    rel_width = _finite_fraction("rel_width", rel_width)
    if hi_target is not None:
        hi_target = _finite_fraction("hi_target", hi_target)
    _require_int("pf_enclosure", "max_iters", max_iters, 1)
    if rel_width <= 0:
        raise DomainError("pf_enclosure requires rel_width > 0")
    if not is_irreducible(matrix):
        raise NotIrreducible("pf_enclosure requires an irreducible matrix")
    sparse = matrix.rows
    times = matrix._times
    u = [1] * matrix.k
    lo_n = lo_d = hi_n = hi_d = 1
    lo_at = hi_at = 0  # where the last scan found its least and greatest quotient
    rel_n, rel_d = rel_width.numerator, rel_width.denominator
    iterations = 0
    stop = "max_iters"
    steered = False
    steer_at = None
    steer_tol = _STEER_TOL.as_integer_ratio()
    for iterations in range(1, max_iters + 1):
        w = times(u)
        # the quotients now at lo_at and hi_at over a common denominator
        # u[lo_at] * u[hi_at]: big is the greater numerator, small the lesser
        big, small = w[lo_at] * u[hi_at], w[hi_at] * u[lo_at]
        if big < small:
            big, small = small, big
        # when they differ by more than rel_width * the lesser, so do hi and
        # lo, and nothing but a steer, the cap or hi_target needs the scan
        if (
            (big - small) * rel_d > rel_n * small
            and iterations != steer_at
            and iterations != max_iters
            and hi_target is None
        ):
            u = _cw_advance(w, u)
            continue
        lo_n, lo_d, hi_n, hi_d, lo_at, hi_at = _cw_bounds(w, u)
        # (hi - lo) <= rel_width * lo, cross-multiplied
        if (hi_n * lo_d - lo_n * hi_d) * rel_d <= rel_n * lo_n * hi_d:
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
        u = _cw_advance(w, u)
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
    """Line 1: dimension k; then k lines of k space-separated integers.
    Blank lines are skipped; a line with anything else is refused by number."""
    _require_type(str, text=text)
    lines = []
    for number, line in enumerate(text.splitlines(), 1):
        try:
            row = [int(tok) for tok in line.split()]
        except ValueError:
            raise DomainError(f"line {number}: expected integers, got {line.strip()!r}") from None
        if row:
            lines.append(row)
    if not lines:
        raise DomainError("empty matrix text")
    if len(lines[0]) != 1:
        raise DomainError(f"the first line must hold k alone, found {len(lines[0])} numbers")
    k = lines[0][0]
    if len(lines) != k + 1:
        raise DomainError(f"expected {k} rows, found {len(lines) - 1}")
    for row in lines[1:]:
        if len(row) != k:
            raise DomainError(f"expected {k} entries per row, found {len(row)}")
    return IntMatrix(lines[1:])


def render_matrix_text(matrix: IntMatrix) -> str:
    _require_type(IntMatrix, matrix=matrix)
    lines = [str(matrix.k)]
    lines.extend(" ".join(str(x) for x in row) for row in matrix.entries)
    return "\n".join(lines) + "\n"


def parse_matrix_json(obj) -> IntMatrix:
    """Accepts {"k": int, "rows": [[int, ...], ...]} or its JSON text."""
    if isinstance(obj, str):
        import json  # imported here, so that `import dillab` does not load it

        try:
            obj = json.loads(obj)
        except ValueError as exc:
            raise DomainError(f"cannot read matrix JSON: {exc}") from None
        except RecursionError:
            raise DomainError("cannot read matrix JSON: nested too deeply") from None
    if not isinstance(obj, dict):
        raise DomainError("matrix JSON must be an object with the fields 'k' and 'rows'")
    for field in ("k", "rows"):
        if field not in obj:
            raise DomainError(f"matrix JSON lacks the field {field!r}")
    k = obj["k"]
    rows = obj["rows"]
    if type(k) is not int:  # bool too: true is not read as 1
        raise DomainError(f"k must be int, got {type(k).__name__}")
    if type(rows) is not list or any(type(row) is not list for row in rows):
        raise DomainError("rows must be a list of lists of int")
    if len(rows) != k:
        raise DomainError(f"k={k} but {len(rows)} rows given")
    return IntMatrix(rows)


def render_matrix_json(matrix: IntMatrix) -> dict:
    _require_type(IntMatrix, matrix=matrix)
    return {"k": matrix.k, "rows": [list(row) for row in matrix.entries]}


def load_matrix(path: str) -> IntMatrix:
    """Load either format from UTF-8 text; JSON is detected by a leading '{' or '['."""
    _require_type((str, os.PathLike), path=path)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise DomainError(f"{path} is not UTF-8 text ({exc.reason})") from None
    stripped = text.lstrip()
    if stripped.startswith(("{", "[")):
        return parse_matrix_json(stripped)
    return parse_matrix_text(text)

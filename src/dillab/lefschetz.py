"""Lefschetz numbers of multitwists through their symplectic homology action,
and the local fixed-point index of linear plane models by winding numbers.

Both are exact: the multitwist path is integer linear algebra end to end, and
the winding number is a signed crossing count on rational corner points. The
suites cross-check the winding number against the sign(det(A - I)) oracle.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import record
from .enclosures import _finite_fraction, _require_int, _require_type
from .errors import (
    DomainError,
    FixedPointOnCircle,
    GenusMismatch,
    NotPairwiseOrthogonal,
)


@record
class HomologyClass:
    """Integer vector in the basis (a_1..a_g, b_1..b_g) with <a_i, b_j> = delta_ij.

    The zero vector is allowed; it is how a separating curve enters (its twist
    acts trivially on first homology).
    """

    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        _require_type((tuple, list), coords=self.coords)
        if len(self.coords) == 0 or len(self.coords) % 2 != 0:
            raise DomainError("coordinates must have even positive length 2g")
        if not all(type(x) is int for x in self.coords):  # bool too
            raise DomainError("coordinates must be integers")
        object.__setattr__(self, "coords", tuple(self.coords))

    @property
    def g(self) -> int:
        return len(self.coords) // 2

    @staticmethod
    def zero(g: int) -> "HomologyClass":
        _require_int("HomologyClass.zero", "g", g, 1)
        return HomologyClass((0,) * (2 * g))

    @staticmethod
    def alpha(i: int, g: int) -> "HomologyClass":
        _require_int("HomologyClass.alpha", "i", i)
        _require_int("HomologyClass.alpha", "g", g)
        if not 1 <= i <= g:
            raise DomainError(f"alpha index {i} outside 1..{g}")
        return HomologyClass(tuple(1 if t == i - 1 else 0 for t in range(2 * g)))

    @staticmethod
    def beta(i: int, g: int) -> "HomologyClass":
        _require_int("HomologyClass.beta", "i", i)
        _require_int("HomologyClass.beta", "g", g)
        if not 1 <= i <= g:
            raise DomainError(f"beta index {i} outside 1..{g}")
        return HomologyClass(tuple(1 if t == g + i - 1 else 0 for t in range(2 * g)))


def symp_form(u: HomologyClass, v: HomologyClass) -> int:
    """The standard symplectic pairing u^T J v, exactly."""
    _require_type(HomologyClass, u=u, v=v)
    if u.g != v.g:
        raise GenusMismatch(f"genus mismatch: {u.g} vs {v.g}")
    a, b, g = u.coords, v.coords, u.g
    return sum(a[t] * b[g + t] - a[g + t] * b[t] for t in range(g))


@record
class SympAction:
    """2g x 2g integer matrix preserving the standard symplectic form.

    Construction checks A^T J A = J exactly and refuses anything else, so a
    SympAction in hand is itself the certificate. `identity` and `twist`
    keep the form by a theorem and build their result unchecked, by `_of`.
    """

    g: int
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        _require_int("SympAction", "g", self.g, 1)
        _require_type((tuple, list), matrix=self.matrix)
        n = 2 * self.g
        if len(self.matrix) != n or any(
            not isinstance(row, (tuple, list)) or len(row) != n for row in self.matrix
        ):
            raise DomainError(f"matrix must be {n}x{n}")
        if not all(type(x) is int for row in self.matrix for x in row):  # bool too
            raise DomainError("matrix entries must be integers")
        object.__setattr__(self, "matrix", tuple(tuple(row) for row in self.matrix))
        g = self.g
        cols = list(zip(*self.matrix))
        # <u, v> = u . Jv with Jv = (v_b, -v_a); the form is alternating, so
        # <col_a, col_b> = J[a][b] for a < b is the whole of A^T J A = J
        j_cols = [col[g:] + tuple([-x for x in col[:g]]) for col in cols]
        for a in range(n):
            for b in range(a + 1, n):
                want = 1 if b == a + g else 0
                if sum([x * y for x, y in zip(cols[a], j_cols[b])]) != want:
                    raise DomainError("matrix does not preserve the symplectic form")

    @staticmethod
    def identity(g: int) -> "SympAction":
        _require_int("SympAction.identity", "g", g, 1)
        n = 2 * g
        return SympAction._of(
            g, tuple(tuple(1 if r == c else 0 for c in range(n)) for r in range(n))
        )

    @property
    def trace(self) -> int:
        return sum(self.matrix[t][t] for t in range(2 * self.g))

    @property
    def lefschetz_number(self) -> int:
        """The Lefschetz number of a surface map acting so on H_1: degrees
        0 and 2 contribute a trace of 1 each, degree 1 minus this trace. A
        multitwist (multitwist_action) has trace 2g, so this is 2 - 2g."""
        return 2 - self.trace

    def twist(self, gamma: HomologyClass, power: int) -> "SympAction":
        """The product of self and the transvection (twist action)
        v -> v + power * <v, gamma> * gamma, as a rank-one update; from
        SympAction.identity it is that transvection, symplectic for every
        power, and the identity for the zero class or power 0.

        The transvection is I + power * gamma w^T with w^T v = <v, gamma>,
        so the product is A + power * (A gamma) w^T: one matrix-vector
        product and one update, O(n^2) where a dense product is O(n^3).
        power is any int, 0 included; a bool, float or str raises DomainError.
        """
        _require_int("SympAction.twist", "power", power)
        _require_type(HomologyClass, gamma=gamma)
        g = self.g
        if g != gamma.g:
            raise GenusMismatch(f"genus mismatch: {g} vs {gamma.g}")
        coords = gamma.coords
        w = coords[g:] + tuple([-x for x in coords[:g]])
        out = []
        for row in self.matrix:
            s = power * sum([a * b for a, b in zip(row, coords)])
            out.append(tuple([a + s * b for a, b in zip(row, w)]) if s else row)
        return SympAction._of(g, tuple(out))

    def apply(self, v: HomologyClass) -> HomologyClass:
        _require_type(HomologyClass, v=v)
        if self.g != v.g:
            raise GenusMismatch(f"genus mismatch: {self.g} vs {v.g}")
        return HomologyClass(
            tuple(sum(a * b for a, b in zip(row, v.coords)) for row in self.matrix)
        )


def multitwist_action(twists, g: int) -> SympAction:
    """Product of the transvections of a pairwise-orthogonal twist system,
    each applied as a rank-one update (SympAction.twist, which checks its
    class and power), checked once through the public constructor. The same
    loop refuses power 0 and a class pairing nonzero with an earlier one;
    of several faults, the first one met is raised."""
    _require_int("multitwist_action", "g", g, 1)
    _require_type((tuple, list), twists=twists)
    action = SympAction.identity(g)
    classes = []
    for idx, twist in enumerate(twists):
        if not (isinstance(twist, (tuple, list)) and len(twist) == 2):
            raise DomainError(f"twist {idx} must be a (HomologyClass, power) pair")
        gamma, power = twist
        action = action.twist(gamma, power)
        if power == 0:
            raise DomainError(f"twist {idx}: power must be a nonzero integer")
        for a, earlier in enumerate(classes):
            x = symp_form(earlier, gamma)
            if x != 0:
                raise NotPairwiseOrthogonal(f"classes {a} and {idx} pair to {x} != 0")
        classes.append(gamma)
    return SympAction(g, action.matrix)


# ---------------------------------------------------------------------------
# Local fixed-point index of plane models
# ---------------------------------------------------------------------------


@record
class LinearPlaneMap:
    """Plane map (x, y) -> (a x + b y, c x + d y) with an isolated fixed
    point at the origin when det(A - I) != 0.

    Entries are stored as Fractions; int, float and Fraction input converts
    exactly, so a float entry means the rational value of that float. A bool,
    a str, NaN or an infinity raises DomainError (_finite_fraction).
    """

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def __post_init__(self) -> None:
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, _finite_fraction(name, getattr(self, name)))

    def det_minus_identity(self) -> Fraction:
        return (self.a - 1) * (self.d - 1) - self.b * self.c


_SQUARE = ((1, 1), (-1, 1), (-1, -1), (1, -1))


def local_index(model: LinearPlaneMap) -> int:
    """Index of the fixed point at the origin: the winding number of
    z -> f(z) - z around the square with corners (+-1, +-1).

    B = A - I is linear, so it maps the square's edges onto the edges of the
    quadrilateral through the four corner images, and the winding number of
    that closed polygon about the origin is its signed count of crossings of
    the positive x-axis (Hormann & Agathos, Comput. Geom. 20, 2001), decided
    by exact cross products. The origin lies on an edge exactly when B is
    singular, that is when det(A - I) = 0, and then there is no index.
    """
    _require_type(LinearPlaneMap, model=model)
    p, q, r, s = model.a - 1, model.b, model.c, model.d - 1
    corners = [(p * x + q * y, r * x + s * y) for x, y in _SQUARE]
    winding = 0
    for (x0, y0), (x1, y1) in zip(corners, corners[1:] + corners[:1]):
        # cross > 0 exactly when the origin lies to the left of the edge
        cross = x0 * y1 - x1 * y0
        if cross == 0 and x0 * x1 + y0 * y1 <= 0:
            raise FixedPointOnCircle(
                f"f(z) = z on the square's boundary: B maps its edge to "
                f"({x0}, {y0})-({x1}, {y1}) through the origin"
            )
        if y0 <= 0 < y1 and cross > 0:
            winding += 1
        elif y1 <= 0 < y0 and cross < 0:
            winding -= 1
    return winding


def linear_index_oracle(model: LinearPlaneMap) -> int:
    """Independent classical identity: for linear A with det(A - I) != 0 the
    index at the origin is the sign of det(A - I)."""
    _require_type(LinearPlaneMap, model=model)
    d = model.det_minus_identity()
    if d > 0:
        return 1
    if d < 0:
        return -1
    return 0

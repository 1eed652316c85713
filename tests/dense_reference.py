"""Dense reference arithmetic that the tests compare the library against.

The library multiplies only through IntMatrix._times and builds no matrix
product; these are the plain definitions: the matrix product, its powers by
repeated squaring, the product of symplectic actions, and Faddeev-LeVerrier
on a matrix's rows, the loop char_poly ran before it went through _times.
"""

from dillab.dilpoly import IntPoly
from dillab.intmatrix import IntMatrix
from dillab.lefschetz import SympAction


def identity(k: int) -> IntMatrix:
    return IntMatrix.from_sparse([((i, 1),) for i in range(k)])


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """The exact product a b, on sparse rows."""
    if a.k != b.k:
        raise ValueError("dimension mismatch")
    out = []
    for row in a.rows:
        acc: dict[int, int] = {}
        for l, x in row:
            for j, y in b.rows[l]:
                acc[j] = acc.get(j, 0) + x * y
        out.append(tuple(sorted(acc.items())))
    return IntMatrix.from_sparse(out)


def mat_power(matrix: IntMatrix, r: int) -> IntMatrix:
    """Exact matrix power by repeated squaring, r >= 0."""
    if r < 0:
        raise ValueError("power must be >= 0")
    result = identity(matrix.k)
    base = matrix
    while r:
        if r & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base) if r > 1 else base
        r >>= 1
    return result


def symp_mul(a: SympAction, b: SympAction) -> SympAction:
    """The product a b of two actions of one genus, checked by the public
    constructor."""
    assert a.g == b.g
    cols = list(zip(*b.matrix))
    return SympAction(a.g, tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a.matrix))


def faddeev_leverrier_rows(matrix: IntMatrix) -> IntPoly:
    """det(xI - M) by Faddeev-LeVerrier, each iterate multiplied row by row."""
    k = matrix.k
    n = [[int(i == j) for j in range(k)] for i in range(k)]
    coeffs = [0] * k + [1]
    for i in range(1, k + 1):
        prod = []
        for row in matrix.rows:
            acc = [0] * k
            for l, m in row:
                acc = [a + m * b for a, b in zip(acc, n[l])]
            prod.append(acc)
        n = prod
        ci, rem = divmod(-sum(n[t][t] for t in range(k)), i)
        assert rem == 0
        coeffs[k - i] = ci
        for t in range(k):
            n[t][t] += ci
    return IntPoly.from_dict({e: c for e, c in enumerate(coeffs) if c})

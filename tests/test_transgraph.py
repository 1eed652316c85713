import random
from fractions import Fraction

import pytest

from dillab.dilpoly import IntPoly, char_poly, mu_compare
from dillab.errors import (
    DegreePreconditionViolated,
    DomainError,
    NotIrreducible,
    VertexOutOfRange,
)
from dillab.enclosures import nth_root_enclosure
from dillab.intmatrix import IntMatrix, mat_power, pf_enclosure
from dillab.suites import random_irreducible_rows
from dillab.transgraph import (
    _limit_checks,
    dilatation_limit_check,
    from_matrix,
    path_count,
    path_count_series,
    subdivide_out_edge,
    to_matrix,
)

FIB = IntMatrix(((0, 1), (1, 1)))


def test_matrix_round_trip():
    # the compatibility names hand back the matrix itself
    assert from_matrix(FIB) is FIB
    assert to_matrix(FIB) is FIB
    assert from_matrix is not to_matrix
    # the digraph view: sorted 1-based (i, j, multiplicity), zeros left out
    wide = IntMatrix(((0, 3, 0), (0, 0, 2), (1, 0, 1)))
    assert wide.vertex_count == 3
    assert wide.edges == ((1, 2, 3), (2, 3, 2), (3, 1, 1), (3, 3, 1))
    assert FIB.edges == ((1, 2, 1), (2, 1, 1), (2, 2, 1))


def test_path_count_fibonacci():
    # row sums of Fibonacci powers follow the Fibonacci recurrence
    assert path_count(FIB, 1, 0) == 1
    assert [path_count(FIB, 1, d) for d in range(8)] == [1, 1, 2, 3, 5, 8, 13, 21]
    assert [path_count(FIB, 2, d) for d in range(8)] == [1, 2, 3, 5, 8, 13, 21, 34]
    assert path_count_series(FIB, 2, 7) == (1, 2, 3, 5, 8, 13, 21, 34)
    with pytest.raises(DomainError):
        path_count(FIB, 1, -1)
    for vertex in (0, 3):
        with pytest.raises(VertexOutOfRange):
            path_count(FIB, vertex, 2)


def test_path_count_matches_matrix_power():
    m = IntMatrix(((0, 2, 1), (1, 0, 0), (3, 1, 0)))
    for d in (0, 1, 2, 5, 9):
        p = mat_power(m, d)
        for i in (1, 2, 3):
            assert path_count(m, i, d) == sum(p.entries[i - 1])


def test_dilatation_limit_check_converges():
    rep = dilatation_limit_check(FIB, 1, 60, tol=Fraction(1, 20))
    assert rep.converged
    assert rep.d == 60 and rep.vertex == 1
    assert rep.last_gap <= Fraction(1, 20)
    # both intervals bracket numbers near the golden ratio
    assert rep.spectral_interval.lo > Fraction(8, 5)
    assert rep.root_interval.hi < Fraction(17, 10)


def test_dilatation_limit_check_errors():
    with pytest.raises(DomainError):
        dilatation_limit_check(FIB, 1, 0, tol=1)
    with pytest.raises(NotIrreducible):
        dilatation_limit_check(IntMatrix(((1, 1), (0, 0))), 1, 5, tol=1)
    # a negative tolerance would narrow the spectral interval, or empty it
    for tol in (Fraction(-1, 100), Fraction(-1, 10**30), -1):
        with pytest.raises(DomainError):
            dilatation_limit_check(IntMatrix(((1, 1), (1, 1))), 1, 5, tol=tol)
    assert dilatation_limit_check(FIB, 1, 60, tol=0).d == 60


def test_shared_limit_checks_match_the_per_vertex_check():
    # three graphs drawn as the path-growth suite draws them
    for idx in range(3):
        rng = random.Random(f"path-growth:7:{idx}")
        k = rng.randint(2, 8)
        graph = IntMatrix.from_rows(random_irreducible_rows(rng, k, 2, extra_prob=0.7))
        tol = Fraction(1, 20)
        shared = _limit_checks(graph, range(1, k + 1), 200, tol, 20000)
        assert shared == [
            dilatation_limit_check(graph, i, 200, tol, max_iters=20000) for i in range(1, k + 1)
        ]
        # and the one sweep gives every vertex its own path count
        mu = pf_enclosure(graph, max_iters=20000)
        for i, rep in enumerate(shared, 1):
            assert rep.vertex == i
            assert rep.root_interval == nth_root_enclosure(path_count(graph, i, 200), 200)
            assert (rep.spectral_interval.lo, rep.spectral_interval.hi) == (mu.lo, mu.hi)


def test_path_count_series_pinned():
    # a seeded graph with a vertex spliced into edge 3 -> 5, as the
    # subdivision suite builds them; recorded with the row products written
    # inline, before they moved into intmatrix._multiplier
    rng = random.Random("pin:spliced")
    grid = [row + [0] for row in random_irreducible_rows(rng, 6, 3)] + [[0] * 7]
    grid[2][6] = grid[6][4] = 1
    graph = IntMatrix.from_rows(grid)
    assert path_count_series(graph, 7, 20) == (
        1, 1, 3, 21, 48, 288, 1008, 4320, 16794, 70650, 277776, 1142784, 4589460,
        18652428, 75263580, 305301780, 1233810792, 4997638728, 20217580560,
        81847824336, 331195150296,
    )  # fmt: skip
    assert path_count_series(graph, 1, 20)[-3:] == (18476025768, 74782796784, 302644591200)


def test_subdivide_fibonacci_gives_cubic():
    # vertex 1 of the Fibonacci graph has in = out = 1; splicing a vertex
    # onto its out-edge realizes the companion of x^3 - x^2 - 1
    sub = subdivide_out_edge(FIB, 1)
    assert sub == IntMatrix(((0, 0, 1), (1, 1, 0), (0, 1, 0)))
    assert sub.vertex_count == 3
    assert char_poly(sub) == IntPoly.from_dict({3: 1, 2: -1, 0: -1})
    # subdividing strictly lowers the spectral radius here
    assert mu_compare(sub, FIB) == -1


def test_subdivide_self_loop():
    g = IntMatrix(((1, 0), (0, 2)))
    sub = subdivide_out_edge(g, 1)
    assert sub == IntMatrix(((0, 0, 1), (0, 2, 0), (1, 0, 0)))
    assert sub.edges == ((1, 3, 1), (2, 2, 2), (3, 1, 1))


def test_subdivide_degree_precondition():
    with pytest.raises(DegreePreconditionViolated, match="multiplicity"):
        subdivide_out_edge(FIB, 2)
    # out-multiplicity 1 but in-multiplicity 2 (a column sum, not a row sum)
    with pytest.raises(DegreePreconditionViolated, match="in=2 out=1"):
        subdivide_out_edge(IntMatrix(((0, 1), (2, 0))), 1)
    # a single edge of multiplicity 2 counts twice
    with pytest.raises(DegreePreconditionViolated, match="in=1 out=2"):
        subdivide_out_edge(IntMatrix(((0, 2), (1, 0))), 1)
    for vertex in (0, 9):
        with pytest.raises(VertexOutOfRange):
            subdivide_out_edge(FIB, vertex)


def test_path_shift_law_exact_enumeration():
    # after subdividing vertex 1, paths from 1 in the new graph match paths
    # from 1 in the old graph at shift 1 only while they avoid re-entering
    # the spliced edge; for the Fibonacci graph the first failure is d = 4
    sub = subdivide_out_edge(FIB, 1)
    old = [path_count(FIB, 1, d) for d in range(9)]
    new = [path_count(sub, 1, d) for d in range(10)]
    holds = [new[d + 1] == old[d] for d in range(9)]
    assert holds[:4] == [True, True, True, True]
    assert not holds[4]
    assert new[5] == 4 and old[4] == 5

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import mat_power
from dillab.dilpoly import IntPoly, char_poly, mu_compare
from dillab.errors import (
    DegreePreconditionViolated,
    DomainError,
    NotIrreducible,
    VertexOutOfRange,
)
from dillab.enclosures import nth_root_enclosure
from dillab.intmatrix import IntMatrix, pf_enclosure
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


@pytest.mark.parametrize("tol", [True, False, "1/20", None, float("nan"), float("inf"), -float("inf")])
def test_dilatation_limit_check_refuses_a_tol_that_is_not_a_finite_number(tol):
    # a bool is not read as 1 or 0, nor a str parsed: tol is a width like
    # every other, read exactly by enclosures._finite_fraction
    with pytest.raises(DomainError, match="tol must be a finite number"):
        dilatation_limit_check(FIB, 1, 60, tol=tol)


def test_dilatation_limit_check_reads_a_float_tol_exactly():
    assert dilatation_limit_check(FIB, 1, 60, tol=0.05) == dilatation_limit_check(FIB, 1, 60, tol=Fraction(0.05))


def test_shared_limit_checks_match_the_per_vertex_check():
    # three graphs drawn as the path-growth suite draws them
    for idx in range(3):
        rng = random.Random(f"path-growth:7:{idx}")
        k = rng.randint(2, 8)
        graph = IntMatrix.from_rows(random_irreducible_rows(rng, k, 2, extra_prob=0.7))
        tol = Fraction(1, 20)
        shared = _limit_checks(graph, range(1, k + 1), 200, tol)
        assert shared == [dilatation_limit_check(graph, i, 200, tol) for i in range(1, k + 1)]
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


def _spliced_graph() -> IntMatrix:
    rng = random.Random("pin:spliced")
    grid = [row + [0] for row in random_irreducible_rows(rng, 6, 3)] + [[0] * 7]
    grid[2][6] = grid[6][4] = 1
    return IntMatrix.from_rows(grid)


def _counting(matrix: IntMatrix) -> list:
    """Route the matrix's exact product through a counter; returns the list
    that collects one entry per product."""
    products = []
    times = matrix._times

    def counted(v):
        products.append(len(v))
        return times(v)

    matrix.__dict__["_times"] = counted
    return products


@pytest.mark.parametrize(
    "calls",
    [
        [(1, d) for d in range(13)],
        [(1, d) for d in range(12, -1, -1)],
        [(2, 5), (2, 5), (2, 5), (2, 0), (2, 0), (2, 9), (2, 9)],
        [(3, 4), (1, 4), (7, 6), (2, 3), (7, 12), (5, 12), (6, 11), (4, 13)],
        [(1, 60), (1, 0), (4, 0), (4, 60), (7, 59)],
    ],
    ids=["ascending", "descending", "repeated", "mixed-vertex", "zero-after-large"],
)
def test_path_count_through_the_count_slot(calls):
    graph = _spliced_graph()
    top = max(d for _, d in calls)
    series = {i: path_count_series(_spliced_graph(), i, top) for i in range(1, 8)}
    powers = {}
    products = _counting(graph)
    for i, d in calls:
        got = path_count(graph, i, d)
        assert got == series[i][d], (i, d)
        if d not in powers:
            powers[d] = mat_power(graph, d).row_sums()
        assert got == powers[d][i - 1], (i, d)
        slot_d, slot_v = graph.__dict__["_count_slot"]
        assert slot_d == d and slot_v[i - 1] == got
    # each call resumes from the one before it when it asks for no shorter
    # paths, and restarts from the all-ones vector otherwise
    expected, last = 0, None
    for _, d in calls:
        expected += d if last is None or d < last else d - last
        last = d
    assert len(products) == expected


def test_refused_path_count_leaves_the_slot():
    graph = _spliced_graph()
    want = path_count_series(_spliced_graph(), 2, 10)
    assert path_count(graph, 2, 9) == want[9]
    slot = graph.__dict__["_count_slot"]
    for i, d, error in ((0, 3, VertexOutOfRange), (8, 3, VertexOutOfRange), (2, -1, DomainError)):
        with pytest.raises(error):
            path_count(graph, i, d)
        with pytest.raises(error):
            path_count_series(graph, i, d)
        assert graph.__dict__["_count_slot"] is slot
    products = _counting(graph)
    assert path_count(graph, 2, 10) == want[10]
    assert len(products) == 1


def test_path_count_on_an_empty_row():
    # vertex 2 is a sink: no path of length >= 1 leaves it, and the matrix is
    # reducible; the count slot does not need irreducibility
    m = IntMatrix(((0, 1, 0), (0, 0, 0), (1, 1, 1)))
    assert not m._irreducible
    for d in (0, 1, 2, 7, 3, 0, 12):
        sums = mat_power(m, d).row_sums()
        assert [path_count(m, i, d) for i in (1, 2, 3)] == list(sums)
    assert path_count_series(m, 2, 4) == (1, 0, 0, 0, 0)
    assert path_count_series(m, 3, 4) == (1, 3, 4, 4, 4)


def test_path_count_with_a_huge_entry():
    # an entry above the repeat limit is multiplied into the row's sum
    m = IntMatrix(((1, 2**1100), (1, 0)))
    for d in (0, 1, 5, 9, 2, 9, 0, 4):
        sums = mat_power(m, d).row_sums()
        assert (path_count(m, 1, d), path_count(m, 2, d)) == sums
    assert path_count_series(m, 2, 9) == tuple(mat_power(m, d).row_sums()[1] for d in range(10))


def test_limit_check_resumes_from_the_series():
    graph = _spliced_graph()
    fresh = _limit_checks(_spliced_graph(), range(1, 8), 30, Fraction(1, 20))
    path_count_series(graph, 3, 30)
    products = _counting(graph)
    iterations = pf_enclosure(_spliced_graph(), max_iters=20000).iterations
    assert _limit_checks(graph, range(1, 8), 30, Fraction(1, 20)) == fresh
    # the spectral enclosure's products only: the counts were already there
    assert len(products) == iterations


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


def _dense_splice(matrix: IntMatrix, i: int) -> IntMatrix:
    """subdivide_out_edge by its definition, on the dense entries."""
    dense = [list(row) + [0] for row in matrix.entries]
    old = dense[i - 1]
    dense[i - 1] = [0] * matrix.k + [1]
    return IntMatrix(dense + [old])


@given(st.integers(0, 2**32), st.integers(2, 9), st.integers(1, 3))
@settings(max_examples=150, deadline=None)
def test_subdivision_is_the_dense_splice_and_carries_no_cache(seed, k, entry_max):
    # a fresh vertex spliced onto an edge of a random irreducible graph has
    # in- and out-multiplicity 1, as the subdivision suite builds it
    rng = random.Random(seed)
    rows = random_irreducible_rows(rng, k, entry_max, extra_prob=0.4)
    u, w = rng.choice([(a, b) for a in range(k) for b in range(k) if rows[a][b]])
    grid = [row + [0] for row in rows] + [[0] * (k + 1)]
    grid[u][k] = grid[k][w] = 1
    graph = IntMatrix(grid)
    # warm every cache of the input: none may come with the result
    assert graph._irreducible and graph._counts(3) and graph._times
    sub = subdivide_out_edge(graph, k + 1)
    assert sub == _dense_splice(graph, k + 1)
    assert sub.rows == IntMatrix(sub.entries).rows
    assert set(vars(sub)) == {"rows"}
    # the fresh vertex of the result qualifies in turn
    again = subdivide_out_edge(sub, k + 2)
    assert again == _dense_splice(sub, k + 2) and set(vars(again)) == {"rows"}


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


# A vertex or a path length whose type is not int is refused, bools too:
# 2.5 had raised a bare TypeError from range or list indexing, and True had
# been read as vertex 1 (or length 1).
_NOT_INT = (1.0, 2.5, True, False, "1", None)


def test_path_count_refuses_non_int_arguments():
    m = IntMatrix(((0, 1), (1, 1)))
    for bad in _NOT_INT:
        with pytest.raises(VertexOutOfRange, match="outside the int labels"):
            path_count(m, bad, 3)
        with pytest.raises(DomainError, match="requires an int d >= 0"):
            path_count(m, 1, bad)
    assert "_count_slot" not in m.__dict__
    assert path_count(m, 1, 3) == 3


def test_path_count_series_refuses_non_int_arguments():
    m = IntMatrix(((0, 1), (1, 1)))
    for bad in _NOT_INT:
        with pytest.raises(VertexOutOfRange, match="outside the int labels"):
            path_count_series(m, bad, 3)
        with pytest.raises(DomainError, match="requires an int d_max >= 0"):
            path_count_series(m, 1, bad)
    assert "_count_slot" not in m.__dict__
    assert path_count_series(m, 1, 3) == (1, 1, 2, 3)


def test_dilatation_limit_check_refuses_non_int_arguments():
    for bad in _NOT_INT:
        with pytest.raises(VertexOutOfRange, match="outside the int labels"):
            dilatation_limit_check(FIB, bad, 5, tol=1)
        with pytest.raises(DomainError, match="requires an int d_max >= 1"):
            dilatation_limit_check(FIB, 1, bad, tol=1)
        with pytest.raises(DomainError, match="requires an int d_max >= 1"):
            _limit_checks(FIB, (1, 2), bad, 1)


def test_subdivide_out_edge_refuses_non_int_vertex():
    for bad in _NOT_INT:
        with pytest.raises(VertexOutOfRange, match="outside the int labels"):
            subdivide_out_edge(FIB, bad)
    assert subdivide_out_edge(FIB, 1) == IntMatrix(((0, 0, 1), (1, 1, 0), (0, 1, 0)))


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

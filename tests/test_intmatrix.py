import copy
import hashlib
import json
import math
import pickle
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dense_reference import identity, mat_mul, mat_power
from dillab import intmatrix
from dillab.cli import main
from dillab.dilpoly import IntPoly, char_poly, count_real_roots_above, isolate_largest_real_root
from dillab.errors import DomainError, NoDiagonalEntry, NotIrreducible, ValidationFailed
from dillab.families import torus_matrix
from dillab.suites import random_irreducible_rows
from dillab.intmatrix import (
    IntMatrix,
    _multiplier,
    _power_pattern,
    _scaled_plan,
    _shifted_solve,
    _steer_at,
    is_irreducible,
    is_positive,
    load_matrix,
    parse_matrix_json,
    parse_matrix_text,
    pf_enclosure,
    render_matrix_json,
    render_matrix_text,
    verify_diagonal_bound,
)

FIB = IntMatrix(((0, 1), (1, 1)))


def test_constructor_validation():
    with pytest.raises(ValueError):
        IntMatrix(((1, 2), (3,)))
    with pytest.raises(ValueError):
        IntMatrix(((-1, 0), (0, 1)))
    with pytest.raises(ValueError):
        IntMatrix(())


def test_sparse_storage_keeps_dense_meaning():
    assert FIB.rows == (((1, 1),), ((0, 1), (1, 1)))
    assert FIB.entries == ((0, 1), (1, 1))
    same = IntMatrix.from_rows([[0, 1], [1, 1]])
    assert same == FIB and hash(same) == hash(FIB)
    assert IntMatrix(((0, 1), (1, 2))) != FIB
    assert len({FIB, same, identity(2)}) == 2
    assert repr(FIB) == "IntMatrix(entries=((0, 1), (1, 1)))"
    assert IntMatrix(((0, 0), (0, 0))).rows == ((), ())
    assert FIB.edges == ((1, 2, 1), (2, 1, 1), (2, 2, 1))


def test_parse_render_round_trip():
    text = "2\n0 1\n1 1\n"
    m = parse_matrix_text(text)
    assert m == FIB
    assert parse_matrix_text(render_matrix_text(m)) == m
    with pytest.raises(ValueError):
        parse_matrix_text("2\n1 2\n3\n")
    with pytest.raises(ValueError):
        parse_matrix_text("3\n1 0\n0 1\n")
    with pytest.raises(ValueError):
        parse_matrix_text("")


def test_json_round_trip():
    obj = render_matrix_json(FIB)
    assert obj == {"k": 2, "rows": [[0, 1], [1, 1]]}
    assert parse_matrix_json(obj) == FIB
    assert parse_matrix_json('{"k": 1, "rows": [[5]]}') == IntMatrix(((5,),))
    with pytest.raises(ValueError):
        parse_matrix_json({"k": 3, "rows": [[1]]})


def test_a_byte_order_mark_is_skipped(tmp_path):
    # a BOM once reached both parsers as the character U+FEFF
    for name, text in (("fib.txt", render_matrix_text(FIB)), ("fib.json", '{"k": 2, "rows": [[0,1],[1,1]]}')):
        plain, marked = tmp_path / name, tmp_path / f"bom-{name}"
        plain.write_bytes(text.encode())
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert load_matrix(str(marked)) == load_matrix(str(plain)) == FIB


@pytest.mark.parametrize("k", [True, 1.0, "1", None, [1]])
def test_parse_matrix_json_refuses_a_k_that_is_not_int(k):
    # true and 1.0 equal 1, so they used to pass the row-count check
    with pytest.raises(ValueError, match="^k must be int"):
        parse_matrix_json({"k": k, "rows": [[1]]})
    # "2" once failed with "k=2 but 2 rows given"
    with pytest.raises(ValueError, match="^k must be int, got str"):
        parse_matrix_json('{"k": "2", "rows": [[1, 1], [1, 1]]}')


@pytest.mark.parametrize(
    "obj, field", [({"rows": [[1]]}, "k"), ({"k": 1}, "rows"), ({}, "k"), ('{"k": 1}', "rows")]
)
def test_parse_matrix_json_names_a_missing_field(obj, field):
    with pytest.raises(ValueError, match=f"lacks the field '{field}'"):
        parse_matrix_json(obj)


@pytest.mark.parametrize("obj", ["5", "null", '"krows"', "[[1]]", "[]", 5, None, [[1]]])
def test_parse_matrix_json_refuses_a_top_level_that_is_not_an_object(obj):
    # each once raised TypeError, from the field check or from indexing a str
    with pytest.raises(ValueError, match="^matrix JSON must be an object with the fields 'k' and 'rows'$"):
        parse_matrix_json(obj)


@pytest.mark.parametrize("bad", [1.5, True, "3", 2.0, Fraction(1), False, 0.0])
def test_non_int_entries_are_refused_not_coerced(bad):
    # int() would truncate 1.7 to 1 and read true as 1, certifying a
    # different matrix than the file holds; false and 0.0 are refused where
    # a 0 would be stored as no entry at all
    with pytest.raises(ValueError):
        parse_matrix_json({"k": 2, "rows": [[bad, 1], [1, 1]]})
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 1], [1, bad]])
    assert IntMatrix.from_rows([[0, 1], [1, 1]]) == FIB


@pytest.mark.parametrize(
    "entries, message",
    [
        # the first bad row wins, whatever a later row holds
        (((1, -1), (1.5, 0)), "entries must be nonnegative"),
        (((0, 2.5), (-1, 0)), "entries must be int, got float"),
        (((1, 1), (1,), ("x", 1)), "matrix must be square"),
        (((1, None, 0), [1, 2], (-1, 0, 0)), "entries must be int, got NoneType"),
        (((1, 0), 7), "rows must be of type tuple or list, got int"),
        # within a row a non-int is refused before a negative, wherever each sits
        (((-1, "2"), (0, 0)), "entries must be int, got str"),
        (((0, 0), (Fraction(1), -3)), "entries must be int, got Fraction"),
        (((1, 0, 0), (0, -2, None), (0, 0, 1)), "entries must be int, got NoneType"),
        # a false or 0.0 where the sparse rows keep no entry
        (((0, False), (1, 1)), "entries must be int, got bool"),
        (((1, 1), (0.0, 1)), "entries must be int, got float"),
        ((), "matrix must have dimension >= 1"),
    ],
)
def test_constructor_refusal_order_and_messages(entries, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        IntMatrix(entries)


def test_matmul_and_power():
    # the tests' dense reference, checked against Fibonacci numbers:
    # F^10 = [[F9, F10], [F10, F11]]
    sq = mat_mul(FIB, FIB)
    assert sq.entries == ((1, 1), (1, 2))
    p10 = mat_power(FIB, 10)
    assert p10.entries == ((34, 55), (55, 89))
    assert mat_power(FIB, 0).entries == ((1, 0), (0, 1))
    with pytest.raises(ValueError):
        mat_power(FIB, -1)
    with pytest.raises(ValueError):
        mat_mul(FIB, IntMatrix(((1,),)))


def test_transpose_and_sums():
    m = IntMatrix(((1, 2), (3, 4)))
    assert m.transpose().entries == ((1, 3), (2, 4))
    assert m.row_sums() == (3, 7)
    assert m.col_sums() == (4, 6)


def test_irreducibility():
    assert is_irreducible(FIB)
    assert not is_irreducible(IntMatrix(((1, 1), (0, 1))))
    assert not is_irreducible(IntMatrix(((0, 0), (0, 0))))
    assert is_irreducible(IntMatrix(((3,),)))
    assert not is_irreducible(IntMatrix(((0,),)))
    # cycle is irreducible but not positive at any power coprime to 3
    cyc = IntMatrix(((0, 1, 0), (0, 0, 1), (1, 0, 0)))
    assert is_irreducible(cyc)
    assert not is_positive(cyc)
    assert mat_power(cyc, 3) == identity(3)


def test_pf_enclosure_rejects_reducible():
    with pytest.raises(NotIrreducible):
        pf_enclosure(IntMatrix(((1, 1), (0, 1))))
    # a verdict decided beforehand is kept, on the matrix and its transpose
    reducible = IntMatrix(((1, 1, 0), (0, 1, 1), (0, 0, 1)))
    assert not is_irreducible(reducible)
    for m in (reducible, reducible.transpose()):
        with pytest.raises(NotIrreducible):
            pf_enclosure(m)


def test_irreducibility_is_decided_once(monkeypatch):
    from dillab import intmatrix
    from dillab.families import verify_torus_bounds

    searches = []
    reach = intmatrix._reach

    def counted(adj, start):
        searches.append(start)
        return reach(adj, start)

    monkeypatch.setattr(intmatrix, "_reach", counted)
    spec = torus_matrix(12)
    verify_torus_bounds(spec)
    pf_enclosure(spec.matrix.transpose(), hi_target=Fraction(9))
    pf_enclosure(spec.matrix, rel_width=Fraction(1, 10**3))
    assert len(searches) == 2  # forward and backward, once
    # the remembered verdict is no field: equality, hash and repr ignore it
    fresh = IntMatrix(spec.matrix.entries)
    assert fresh == spec.matrix and hash(fresh) == hash(spec.matrix)
    assert repr(fresh) == repr(spec.matrix)


def _strongly_connected(entries) -> bool:
    """Strong connectivity read from the dense reference: (I + M)^(k-1) > 0,
    and for k = 1 a loop on the vertex ([0] is reducible by convention)."""
    k = len(entries)
    if k == 1:
        return entries[0][0] > 0
    shifted = IntMatrix([[x + (i == j) for j, x in enumerate(row)] for i, row in enumerate(entries)])
    return all(x > 0 for row in mat_power(shifted, k - 1).entries for x in row)


@st.composite
def _digraphs(draw):
    """Nonnegative k x k matrices, k = 1..12, from empty to positive, half of
    them with a reducible shape planted: a one-way bridge between two
    parts, a zero row or a zero column."""
    k = draw(st.integers(1, 12))
    zeros = draw(st.integers(0, 8))  # 0: positive; 8: about 1 entry in 4 nonzero
    values = st.sampled_from([0] * zeros + [1, 2, 3])
    rows = [[draw(values) for _ in range(k)] for _ in range(k)]
    shape = draw(st.sampled_from(["none", "bridge", "zero row", "zero column"]))
    at = draw(st.integers(0, k - 1))
    if shape == "bridge" and k > 1:
        split = max(at, 1)  # vertices < split reach the rest, never the reverse
        rows = [[0 if i >= split > j else x for j, x in enumerate(row)] for i, row in enumerate(rows)]
        rows[0][split] = 1
    elif shape == "zero row":
        rows[at] = [0] * k
    elif shape == "zero column":
        for row in rows:
            row[at] = 0
    return rows


@settings(max_examples=300, deadline=None)
@given(_digraphs())
@example([[0]])
@example([[5]])
@example([[1, 1, 0], [0, 1, 1], [0, 0, 1]])  # one-way bridges
@example([[1, 1, 1], [0, 0, 0], [1, 1, 1]])  # a zero row
@example([[1, 0, 1], [1, 0, 1], [1, 0, 1]])  # a zero column
@example([[1] * 12] * 12)
def test_irreducibility_is_strong_connectivity(rows):
    # both searches stop once they have seen every vertex, which must not
    # change a verdict on any graph, dense or not
    assert is_irreducible(IntMatrix(rows)) == _strongly_connected(rows)


def test_reach_returns_once_every_vertex_is_seen():
    # an out-list is not read past the entry that completes the count: the
    # index 99 would raise if the search looked at it
    assert intmatrix._reach([[1, 2, 99], [0], [0]], 0) == 3
    assert intmatrix._reach([[1], [2, 0, 99], [1]], 0) == 3
    assert intmatrix._reach([[1], [0], [0, 1]], 0) == 2  # 2 is never reached


def _steer_at_full_scan(rows) -> int:
    """_steer_at's cost model read from the whole matrix: every row's first
    column and every column's first row, with L_i and U_i counted apart."""
    k = len(rows)
    row_start = [row[0][0] if row else k for row in rows]
    col_start = [min([r for r, row in enumerate(rows) for j, _ in row if j == c], default=k) for c in range(k)]
    work = 0
    for i in range(k):
        lower = sum([1 for r in range(i + 1, k) if row_start[r] <= i])
        upper = sum([1 for c in range(i + 1, k) if col_start[c] <= i])
        work += lower * upper
    nnz = sum([len(row) for row in rows])
    return math.ceil(intmatrix._STEER_ROUNDS * (work + nnz) / nnz)


@st.composite
def _sparse_rows(draw):
    """Sparse rows of k = 1..15 with at least one entry; empty rows and empty
    columns are common at low density."""
    k = draw(st.integers(1, 15))
    density = draw(st.sampled_from([0.05, 0.15, 0.4, 1.0]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    rows = [tuple([(j, rng.randint(1, 3)) for j in range(k) if rng.random() < density]) for _ in range(k)]
    if not any(rows):
        at = draw(st.integers(0, k - 1))
        rows[at] = ((draw(st.integers(0, k - 1)), 1),)
    return tuple(rows)


@settings(max_examples=300, deadline=None)
@given(_sparse_rows())
@example((((0, 1),),))
@example((((1, 1),), (), ((0, 1), (1, 1))))  # an empty row
@example((((1, 1),), ((1, 1), (2, 1)), ((1, 2),)))  # an empty column
def test_steer_at_equals_its_full_scan(rows):
    # the first-row-per-column scan stops at the row that gives the last
    # column its first row; the steer point must be the full scan's
    assert _steer_at(rows) == _steer_at_full_scan(rows)


def test_steer_at_reads_no_column_after_the_last_first_row():
    # every column has its first row by row 1, so row 2 is read only for
    # where it starts: the column 99 would raise if it were scanned
    head = (((0, 1), (2, 1)), ((1, 1),))
    assert _steer_at(head + (((0, 1), (99, 1)),)) == _steer_at(head + (((0, 1),),))


def _rel_width(enc) -> Fraction:
    return (enc.hi - enc.lo) / enc.lo


def test_pf_enclosure_fibonacci_dual_route():
    enc = pf_enclosure(FIB, rel_width=Fraction(1, 10 ** 12))
    assert _rel_width(enc) <= Fraction(1, 10 ** 12)
    # independent route: golden ratio is the largest root of x^2 - x - 1
    oracle = isolate_largest_real_root(
        IntPoly.from_dict({0: -1, 1: -1, 2: 1}), hi_bound=Fraction(2)
    )
    assert enc.lo <= oracle.hi and oracle.lo <= enc.hi
    # exact two-sided check: lo^2 <= lo + 1 and hi^2 >= hi + 1 characterize
    # bracketing of the positive root of x^2 = x + 1
    assert enc.lo ** 2 <= enc.lo + 1
    assert enc.hi ** 2 >= enc.hi + 1


def test_pf_enclosure_exact_for_constant_row_sums():
    m = IntMatrix(((2, 3), (3, 2)))
    enc = pf_enclosure(m)
    assert enc.lo <= 5 <= enc.hi
    assert enc.hi - enc.lo <= Fraction(5, 10 ** 9)


def test_pf_enclosure_capped_iterations_still_sound():
    # a truncated iteration budget still yields a valid enclosure; phi is
    # checked exactly, since it is the positive root of x^2 = x + 1
    enc = pf_enclosure(FIB, rel_width=Fraction(1, 10 ** 40), max_iters=3)
    assert enc.iterations == 3
    assert enc.stop == "max_iters"
    assert enc.lo ** 2 <= enc.lo + 1
    assert enc.hi ** 2 >= enc.hi + 1
    assert 1 <= enc.lo and enc.hi <= 2


@pytest.mark.parametrize("max_iters", [2.5, True])
def test_pf_enclosure_refuses_a_max_iters_that_is_not_int(max_iters):
    # range() would raise a bare TypeError on 2.5, and run True as 1
    with pytest.raises(DomainError, match="requires an int max_iters >= 1"):
        pf_enclosure(FIB, max_iters=max_iters)


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"rel_width": True}, "rel_width"),
        ({"rel_width": "1/10"}, "rel_width"),
        ({"rel_width": None}, "rel_width"),
        ({"rel_width": math.nan}, "rel_width"),
        ({"rel_width": math.inf}, "rel_width"),
        ({"hi_target": True}, "hi_target"),
        ({"hi_target": "9"}, "hi_target"),
        ({"hi_target": math.nan}, "hi_target"),
        ({"hi_target": -math.inf}, "hi_target"),
    ],
    ids=[
        "rel_width-bool",
        "rel_width-str",
        "rel_width-None",
        "rel_width-nan",
        "rel_width-inf",
        "hi_target-bool",
        "hi_target-str",
        "hi_target-nan",
        "hi_target-inf",
    ],
)
def test_pf_enclosure_refuses_a_width_or_target_that_is_not_a_finite_number(kwargs, name):
    # True had run as 1, "1/10" had been parsed, and NaN, an infinity or
    # None had raised ValueError, OverflowError or TypeError
    with pytest.raises(DomainError, match=f"{name} must be a finite number"):
        pf_enclosure(FIB, **kwargs)


def test_pf_enclosure_takes_an_int_fraction_or_finite_float():
    assert pf_enclosure(FIB, rel_width=1e-9) == pf_enclosure(FIB, rel_width=Fraction(1e-9))
    assert pf_enclosure(FIB, rel_width=1) == pf_enclosure(FIB, rel_width=Fraction(1))
    # a float target had raised a bare AttributeError
    assert pf_enclosure(FIB, hi_target=9.0) == pf_enclosure(FIB, hi_target=Fraction(9))
    assert pf_enclosure(FIB, hi_target=9) == pf_enclosure(FIB, hi_target=Fraction(9))


def _brackets_phi(enc):
    return enc.lo ** 2 <= enc.lo + 1 and enc.hi ** 2 >= enc.hi + 1


@pytest.mark.parametrize("max_iters", [1, 2, 3])
def test_pf_enclosure_fibonacci_tiny_budgets(max_iters):
    enc = pf_enclosure(FIB, rel_width=Fraction(1, 10 ** 40), max_iters=max_iters)
    assert enc.iterations == max_iters
    assert (enc.stop, enc.steered) == ("max_iters", False)
    assert _brackets_phi(enc)


def test_pf_enclosure_steers_once_at_a_fixed_iteration():
    # FIB steers after iteration 11, and only when an iteration is left to
    # evaluate the steered vector
    runs = {
        n: pf_enclosure(FIB, rel_width=Fraction(1, 10 ** 40), max_iters=n)
        for n in (11, 12, 13)
    }
    assert [runs[n].steered for n in (11, 12, 13)] == [False, True, True]
    assert all(enc.stop == "max_iters" and _brackets_phi(enc) for enc in runs.values())
    assert _rel_width(runs[12]) < _rel_width(runs[11]) / 10 ** 6


def test_pf_enclosure_stop_reasons():
    enc = pf_enclosure(FIB)
    assert (enc.stop, enc.steered) == ("converged", True)
    assert _rel_width(enc) <= Fraction(1, 10 ** 9) and _brackets_phi(enc)
    enc = pf_enclosure(FIB, hi_target=Fraction(2))
    assert (enc.stop, enc.iterations, enc.steered) == ("hi_target", 1, False)
    one = pf_enclosure(IntMatrix(((7,),)))
    assert (one.lo, one.hi, one.iterations, one.stop, one.steered) == (7, 7, 1, "converged", False)


def test_pf_enclosure_steer_falls_through_on_float_overflow():
    # float() of an entry >= 2^1024 raises OverflowError; the steer must give
    # up quietly and leave the exact loop to certify
    big = 2 ** 1100
    sym = pf_enclosure(IntMatrix(((big, 1), (1, big))))
    assert sym.lo <= big + 1 <= sym.hi and not sym.steered
    # an asymmetric one that runs past its steering iteration (10) without
    # being steered: mu = big + sqrt(2)
    m = IntMatrix(((big, 1), (2, big)))
    enc = pf_enclosure(m, rel_width=Fraction(1, 2 ** 1300), max_iters=20)
    assert enc.iterations == 20 and enc.stop == "max_iters" and not enc.steered
    assert big < enc.lo and (enc.lo - big) ** 2 <= 2 <= (enc.hi - big) ** 2


def test_shifted_solve_refuses_bad_shifts():
    a = [[(j, float(m)) for j, m in row] for row in FIB.rows]
    y = _shifted_solve(a, 2.0, [1.0, 1.0])  # 2 > phi: positive solution
    assert y is not None and min(y) > 0
    # 1 < phi: sigma I - M is no M-matrix and the second pivot is -1
    assert _shifted_solve(a, 1.0, [1.0, 1.0]) is None
    assert _shifted_solve(a, math.nan, [1.0, 1.0]) is None
    assert _shifted_solve(a, math.inf, [1.0, 1.0]) is None


def test_pf_enclosure_steers_periodic_bipartite():
    # eigenvalues +-sqrt(2): the shifted solve must still pick the Perron one
    m = IntMatrix(((0, 2), (1, 0)))
    enc = pf_enclosure(m, rel_width=Fraction(1, 10 ** 12))
    assert enc.steered and enc.stop == "converged"
    assert _rel_width(enc) <= Fraction(1, 10 ** 12)
    assert enc.lo ** 2 <= 2 <= enc.hi ** 2
    # a weighted 4-cycle, period 4, mu = 6^(1/4)
    cyc = IntMatrix(((0, 1, 0, 0), (0, 0, 2, 0), (0, 0, 0, 3), (1, 0, 0, 0)))
    enc = pf_enclosure(cyc)
    assert enc.steered and _rel_width(enc) <= Fraction(1, 10 ** 9)
    assert enc.lo ** 4 <= 6 <= enc.hi ** 4


def test_pf_enclosure_quick_dense_matrices_never_steer():
    # a cycle plus random extra entries (a quarter of them): power iteration
    # settles these within a few dozen steps, long before their dense
    # envelope would pay for the steer, so they keep plain power iteration's
    # enclosure
    for seed in range(10):
        rng = random.Random(seed)
        k = 20
        rows = [[0] * k for _ in range(k)]
        for i in range(k):
            rows[i][(i + 1) % k] = rng.randint(1, 3)
            for j in range(k):
                if rows[i][j] == 0 and rng.random() < 0.25:
                    rows[i][j] = rng.randint(1, 3)
        enc = pf_enclosure(IntMatrix.from_rows(rows))
        assert enc.stop == "converged" and not enc.steered


def test_pf_enclosure_torus_60_iteration_pin():
    m = torus_matrix(60).matrix
    enc = pf_enclosure(m)
    assert enc.steered and enc.stop == "converged"
    assert enc.iterations <= 2 * m.k
    assert _rel_width(enc) <= Fraction(1, 10 ** 9)


@pytest.mark.parametrize("n, digits", [(40, 9), (80, 3), (200, 3)])
def test_pf_enclosure_torus_steers_at_its_cost_point(n, digits):
    # the banded torus matrix's steer costs a few dozen steps at any n, so
    # the direct route no longer waits about 2n iterations for it
    m = torus_matrix(n).matrix
    enc = pf_enclosure(m, rel_width=Fraction(1, 10**digits))
    assert enc.steered and enc.stop == "converged"
    assert enc.iterations <= 2 * _steer_at(m.rows)


def test_pf_enclosure_steers_again_when_one_steer_falls_short():
    # at n = 320 one steer from an early iterate narrows the width to about
    # 1e-8 only; a second one, once the loop has spent as much again,
    # reaches 1e-9 where power iteration alone would take tens of thousands
    # of steps
    m = torus_matrix(320).matrix
    enc = pf_enclosure(m, rel_width=Fraction(1, 10**9))
    assert enc.steered and enc.stop == "converged"
    assert enc.iterations <= 4 * _steer_at(m.rows)


def test_pf_enclosure_hi_target_stops_early():
    tight = pf_enclosure(FIB, rel_width=Fraction(1, 10 ** 30))
    early = pf_enclosure(
        FIB, rel_width=Fraction(1, 10 ** 30), hi_target=Fraction(2)
    )
    assert early.hi <= 2
    assert early.iterations < tight.iterations


def test_pf_enclosure_periodic_matrix_converges():
    # plain power iteration oscillates on a pure cycle; the shifted iterate
    # must still converge to the PF root 1
    cyc = IntMatrix(((0, 1, 0), (0, 0, 1), (1, 0, 0)))
    enc = pf_enclosure(cyc, rel_width=Fraction(1, 10 ** 6))
    assert _rel_width(enc) <= Fraction(1, 10 ** 6)
    assert enc.lo <= 1 <= enc.hi


def test_pf_enclosure_bit_cap_keeps_soundness():
    # entries large enough to trip the 192-bit cap within a few iterations
    m = IntMatrix(((2 ** 40, 1), (1, 2 ** 40)))
    enc = pf_enclosure(m, rel_width=Fraction(1, 10 ** 9))
    assert enc.lo <= 2 ** 40 + 1 <= enc.hi


def test_verify_diagonal_bound():
    m = IntMatrix(((1, 1, 0), (0, 1, 1), (1, 0, 1)))
    assert verify_diagonal_bound(m) is None
    power = mat_power(m, 6)
    assert is_positive(power) and min(power.row_sums()) >= 3
    with pytest.raises(NoDiagonalEntry):
        verify_diagonal_bound(IntMatrix(((0, 1), (1, 0))))
    with pytest.raises(NotIrreducible):
        verify_diagonal_bound(IntMatrix(((1, 1), (0, 1))))


def test_verify_diagonal_bound_single_loop():
    m = IntMatrix(((4, 3, 0, 0), (0, 0, 4, 0), (0, 0, 0, 2), (3, 0, 0, 0)))
    assert verify_diagonal_bound(m) is None
    power = mat_power(m, 8)
    assert is_positive(power) and min(power.row_sums()) >= 4


def test_diagonal_bound_matches_the_dense_definitions():
    # extra_prob 0 leaves one cycle and one loop, where Holladay-Varga's
    # exponent bound 2k - 2 is tightest
    for k in range(1, 13):
        for extra_prob in (0.0, 0.2, 0.5):
            rng = random.Random(f"diag:{k}:{extra_prob}")
            m = IntMatrix.from_rows(
                random_irreducible_rows(rng, k, 4, extra_prob=extra_prob, force_diagonal=True)
            )
            power = mat_power(m, 2 * k)
            assert verify_diagonal_bound(m) is None
            assert is_positive(power) and min(power.row_sums()) >= k


def test_verify_diagonal_bound_raises_on_a_wrong_positivity_fact(monkeypatch):
    # only a code bug leaves a zero in M^(2k); the check names the fact
    monkeypatch.setattr(intmatrix, "_power_pattern", lambda matrix, r: [1] * matrix.k)
    with pytest.raises(ValidationFailed, match=r"^M\^6 is not positive$"):
        verify_diagonal_bound(IntMatrix(((1, 1, 0), (0, 1, 1), (1, 0, 1))))


def test_verify_diagonal_bound_raises_on_a_wrong_row_sum_fact(monkeypatch):
    monkeypatch.setattr(IntMatrix, "_counts", lambda self, d: [2] * self.k)
    with pytest.raises(ValidationFailed, match=r"^a row sum of M\^6 is below k=3$"):
        verify_diagonal_bound(IntMatrix(((1, 1, 0), (0, 1, 1), (1, 0, 1))))


def test_pf_json_exact_fields(tmp_path, capsys):
    path = tmp_path / "fib.txt"
    path.write_text(render_matrix_text(FIB))
    assert main(["pf", str(path)]) == 0
    d = json.loads(capsys.readouterr().out)["enclosure"]
    enc = pf_enclosure(FIB)
    assert Fraction(int(d["lo_num"]), int(d["lo_den"])) == enc.lo
    assert Fraction(int(d["hi_num"]), int(d["hi_den"])) == enc.hi
    assert d["iterations"] == enc.iterations
    assert (d["stop"], d["steered"]) == (enc.stop, enc.steered) == ("converged", True)
    assert float(d["lo_decimal"]) <= float(d["hi_decimal"])


@st.composite
def small_matrices(draw, max_k=4):
    k = draw(st.integers(min_value=1, max_value=max_k))
    rows = [
        tuple(draw(st.integers(min_value=0, max_value=3)) for _ in range(k))
        for _ in range(k)
    ]
    return IntMatrix(tuple(rows))


@given(small_matrices(), st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4))
@settings(max_examples=60, deadline=None)
def test_mat_power_additivity(m, a, b):
    assert mat_mul(mat_power(m, a), mat_power(m, b)) == mat_power(m, a + b)


@given(small_matrices(max_k=6))
@example(IntMatrix(((0, 1, 0), (0, 0, 1), (1, 0, 0))))  # periodic: never positive
@example(IntMatrix(((1, 1, 0), (0, 1, 1), (0, 0, 1))))  # reducible
@example(IntMatrix(((0, 0), (0, 0))))
@settings(max_examples=80, deadline=None)
def test_power_pattern_is_the_zero_pattern_of_the_power(m):
    for r in range(2 * m.k + 2):
        dense = [sum([1 << j for j, _ in row]) for row in mat_power(m, r).rows]
        assert _power_pattern(m, r) == dense


@given(small_matrices())
@settings(max_examples=60, deadline=None)
def test_transpose_involution(m):
    assert m.transpose().transpose() == m
    assert m.transpose().row_sums() == m.col_sums()


@given(small_matrices())
@settings(max_examples=40, deadline=None)
def test_pf_enclosure_dominated_by_max_row_sum(m):
    if not is_irreducible(m):
        return
    enc = pf_enclosure(m, rel_width=Fraction(1, 10 ** 4))
    assert min(m.row_sums()) <= enc.hi
    assert enc.lo <= max(m.row_sums())


@st.composite
def steered_matrices(draw):
    """Irreducible matrices that power iteration does not settle within k
    steps: small torus matrices, and weighted cycles with a few chords."""
    if draw(st.booleans()):
        return torus_matrix(draw(st.integers(min_value=5, max_value=8))).matrix
    k = draw(st.integers(min_value=3, max_value=10))
    rows = [[0] * k for _ in range(k)]
    for i in range(k):
        rows[i][(i + 1) % k] = draw(st.integers(min_value=1, max_value=3))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        i = draw(st.integers(min_value=0, max_value=k - 1))
        j = draw(st.integers(min_value=0, max_value=k - 1))
        rows[i][j] += draw(st.integers(min_value=1, max_value=2))
    return IntMatrix.from_rows(rows)


@given(
    steered_matrices(),
    st.sampled_from([Fraction(1, 10 ** 6), Fraction(1, 10 ** 9), Fraction(1, 10 ** 12)]),
)
@settings(max_examples=40, deadline=None)
def test_pf_enclosure_exact_oracle(m, rel):
    # the characteristic polynomial has no root above hi and one at or above
    # lo, decided by exact Sturm counts
    enc = pf_enclosure(m, rel_width=rel)
    assert enc.stop == "converged" and _rel_width(enc) <= rel
    p = char_poly(m)
    if p.sign_at(enc.hi) != 0:
        assert count_real_roots_above(p, enc.hi) == 0
    if p.sign_at(enc.lo) != 0:
        assert count_real_roots_above(p, enc.lo) >= 1


_ENTRIES = st.one_of(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=5, max_value=10**30),
    st.just(2**1100),
)


@st.composite
def rows_and_vectors(draw):
    """Sparse rows, empty ones included, with small, large and huge entries,
    and an int vector to multiply."""
    k = draw(st.integers(min_value=1, max_value=6))
    rows = tuple(
        tuple(sorted(draw(st.dictionaries(st.integers(0, k - 1), _ENTRIES, max_size=k)).items()))
        for _ in range(k)
    )
    v = draw(st.lists(st.integers(min_value=0, max_value=2**100), min_size=k, max_size=k))
    return rows, v


@given(rows_and_vectors())
@example(rv=(((),), [5]))
@example(rv=((((0, 1),),), [7]))
@example(rv=((((0, 3),), ((0, 10**30),)), [2, 3]))
@example(rv=((((1, 1),), ((0, 2**1100),), ()), [1, 2, 3]))
@example(rv=((((0, 4), (1, 5), (2, 1)), ((1, 1),), ((0, 2), (2, 2**1100))), [3, 5, 7]))
@settings(max_examples=200, deadline=None)
def test_multiplier_is_the_matrix_vector_product(rv):
    rows, v = rv
    assert _multiplier(rows)(v) == [sum(m * v[j] for j, m in row) for row in rows]


def test_multiplier_multiplies_large_entries_in():
    # repeating column 0 10**18 times would never return
    assert _multiplier((((0, 10**18),),))([3]) == [3 * 10**18]


@st.composite
def dense_rows_and_vectors(draw):
    """Rows dense enough for the scaled route: k up to 40, entries 1..3 at a
    drawn density, and now and then an entry of 10**18 or more, with an int
    vector to multiply."""
    k = draw(st.integers(min_value=1, max_value=40))
    fill = draw(st.sampled_from([0.3, 0.6, 1.0]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    dense = [[rng.randint(1, 3) if rng.random() < fill else 0 for _ in range(k)] for _ in range(k)]
    cell = st.integers(0, k - 1)
    huge = st.integers(min_value=10**18, max_value=10**30) | st.just(2**1100)
    for i, j, big in draw(st.lists(st.tuples(cell, cell, huge), max_size=3)):
        dense[i][j] = big
    v = [rng.randrange(2**rng.randrange(1, 200)) for _ in range(k)]
    return IntMatrix(dense).rows, v


@given(dense_rows_and_vectors())
@settings(max_examples=100, deadline=None)
def test_multiplier_on_both_routes_is_the_matrix_vector_product(rv):
    rows, v = rv
    assert _multiplier(rows)(v) == [sum(m * v[j] for j, m in row) for row in rows]


def _scaled(rows) -> bool:
    """Whether _multiplier takes the scaled route on these sparse rows."""
    return _scaled_plan(rows) is not None


def _fewer_items_scaled(rows) -> bool:
    """The route rule from its definition: scale when one product gathers
    fewer items scaled (nnz, two per distinct pair (j, m > 1), and 2k) than
    repeated (the sum of the entries)."""
    entries = [(j, m) for row in rows for j, m in row]
    values = [m for _, m in entries]
    pairs = len({(j, m) for j, m in entries if m > 1})
    return len(values) + 2 * pairs + 2 * len(rows) < sum(values)


@st.composite
def _route_rows(draw):
    """Sparse rows of k = 1..12, empty rows common, entries 1..top with top
    from 1 to 2**70, so that both routes and their margin are drawn."""
    k = draw(st.integers(1, 12))
    density = draw(st.sampled_from([0.0, 0.2, 0.5, 1.0]))
    top = draw(st.sampled_from([1, 2, 3, 4, 5, 2**70]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    rows = tuple(
        tuple([(j, rng.randint(1, top)) for j in range(k) if rng.random() < density]) for _ in range(k)
    )
    v = [rng.randrange(2**rng.randrange(1, 100)) for _ in range(k)]
    return rows, v


@given(_route_rows())
@example(rv=(((),), [3]))
@example(rv=((((0, 3),), ((1, 3),)), [1, 2]))  # 4 items saved, 4 + 4 to pay: repeat
@example(rv=((((0, 3), (1, 3)), ((0, 3), (1, 3))), [1, 2]))  # 8 saved, 4 + 4 to pay: repeat
@example(rv=((((0, 3), (1, 3)), ((0, 3), (1, 4))), [1, 2]))  # 9 saved, 6 + 4 to pay: repeat
@example(rv=((((0, 2**70),), ()), [5, 1]))
@settings(max_examples=300, deadline=None)
def test_route_is_the_item_count_rule_and_both_routes_multiply(rv):
    rows, v = rv
    assert _scaled(rows) is _fewer_items_scaled(rows)
    dense = [[dict(row).get(j, 0) for j in range(len(v))] for row in rows]
    assert _multiplier(rows)(v) == [sum([dense[i][j] * v[j] for j in range(len(v))]) for i in range(len(v))]


@given(_route_rows())
@example(rv=((((0, 5),),), [1]))  # 5 = nnz + 2 pairs + 2k: repeat, at the bound
@settings(max_examples=300, deadline=None)
def test_the_repeat_route_gathers_at_most_three_per_entry_and_two_per_row(rv):
    # the item count alone bounds the repeat route's memory, for any entry
    rows, _ = rv
    if _scaled_plan(rows) is None:
        nnz = sum(map(len, rows))
        assert sum(m for row in rows for _, m in row) <= 3 * nnz + 2 * len(rows)


class _CountingRow(tuple):
    """A tuple that counts how often it is iterated."""

    iterations = 0

    def __iter__(self):
        _CountingRow.iterations += 1
        return super().__iter__()


def test_constructor_iterates_each_dense_row_once():
    entries = tuple([_CountingRow(row) for row in ((0, 2, 1), (1, 0, 0), (3, 0, 4))])
    _CountingRow.iterations = 0
    assert IntMatrix(entries).rows == (((1, 2), (2, 1)), ((0, 1),), ((0, 3), (2, 4)))
    assert _CountingRow.iterations == 3


def test_multiplier_iterates_each_sparse_row_once_on_the_scaled_route():
    rows = tuple([_CountingRow(row) for row in _random_rows("pin:40", 40, 10**30, 0.1).rows])
    assert _scaled(rows)
    _CountingRow.iterations = 0
    times = _multiplier(rows)
    assert _CountingRow.iterations == 40
    v = list(range(1, 41))
    assert times(v) == [sum([m * v[j] for j, m in row]) for row in rows]


def test_route_choice_pins():
    # dense rows of small entries, and large entries, scale by the count
    assert _scaled(_random_rows("pin:120", 120, 3).rows)
    assert _scaled(IntMatrix([[7]]).rows)
    assert _scaled(IntMatrix(((2**1100, 1), (2, 2**1100))).rows)
    assert _scaled(_random_rows("pin:40", 40, 10**30, 0.1).rows)
    # an entry of 5 repeats where its 4 extra items cost no more than
    # scaling would: 4 <= 2 (1 pair + k)
    assert not _scaled((((0, 5),),))
    five = IntMatrix(((0, 5), (1, 0)))
    assert not _scaled(five.rows)
    assert five._times([3, 2**70]) == [5 * 2**70, 3]
    torus = torus_matrix(60).matrix.rows
    assert not _scaled(((((0, 5),) + torus[0][1:]),) + torus[1:])
    # the sparse torus family and oracle-sized spliced graphs repeat
    assert not _scaled(torus)
    assert not _scaled(((), ()))
    for k in range(3, 10):
        rng = random.Random(f"pin:spliced:{k}")
        grid = [row + [0] for row in random_irreducible_rows(rng, k - 1, 3)] + [[0] * k]
        grid[0][k - 1] = grid[k - 1][k - 2] = 1
        assert not _scaled(IntMatrix(grid).rows), k
    # at the margin: an all-3 k x k matrix saves 2k^2 - 2k items (k pairs),
    # more than the 2k of set-up from k = 3 on
    assert not _scaled(IntMatrix([[3]]).rows)
    assert not _scaled(IntMatrix([[3] * 2] * 2).rows)
    assert _scaled(IntMatrix([[3] * 3] * 3).rows)
    # the pairs are counted, not bounded: one pair (0, 4) in three rows
    # saves 9 items against 2 + 6, where bounding the pairs by the entries
    # above 1 (3) charged 6 + 6
    assert _scaled(IntMatrix([[4, 0, 0]] * 3).rows)
    assert not _scaled(IntMatrix([[4, 0, 0], [0, 4, 0], [0, 0, 4]]).rows)


def test_pickle_and_deepcopy_carry_only_the_rows():
    # the product is a closure and the count slot a cache: neither travels,
    # so a used matrix pickles to the same bytes as an unused one
    entries = ((0, 2, 1), (1, 0, 0), (3, 2**1100, 0))
    used = IntMatrix(entries)
    assert is_irreducible(used)
    pf_enclosure(used, max_iters=5)
    used._counts(7)
    assert {"_irreducible", "_times", "_count_slot"} <= used.__dict__.keys()
    want = used._counts(7)
    for proto in range(pickle.HIGHEST_PROTOCOL + 1):
        data = pickle.dumps(used, proto)
        assert data == pickle.dumps(IntMatrix(entries), proto), proto
        back = pickle.loads(data)
        assert type(back) is IntMatrix and back.__dict__ == {"rows": used.rows}
        assert back == used and hash(back) == hash(used)
        assert back._counts(7) == want
    twin = copy.deepcopy(used)
    assert twin == used and hash(twin) == hash(used)
    assert twin.__dict__ == {"rows": used.rows}
    assert twin._counts(7) == want and is_irreducible(twin)


def _pin(enc):
    """The whole enclosure, compactly: a digest of lo and hi, then
    iterations, stop and steered."""
    digest = hashlib.sha256(f"{enc.lo} {enc.hi}".encode()).hexdigest()[:16]
    return digest, enc.iterations, enc.stop, enc.steered


def _random_rows(seed: str, k: int, entry_max: int, extra_prob: float = 0.25) -> IntMatrix:
    return IntMatrix.from_rows(random_irreducible_rows(random.Random(seed), k, entry_max, extra_prob))


# Recorded with the row products written inline, before _multiplier: every
# iterate, and so every certified byte, is the same through the kernel.
@pytest.mark.parametrize(
    "run, pin",
    [
        (
            lambda: pf_enclosure(torus_matrix(60).matrix, rel_width=Fraction(1, 10**9)),
            ("340b574fc0ab65e2", 27, "converged", True),
        ),
        (
            lambda: pf_enclosure(torus_matrix(60).matrix, rel_width=Fraction(1, 10**20)),
            ("51d5966051f96ac4", 5246, "converged", True),
        ),
        (
            lambda: pf_enclosure(torus_matrix(320).matrix, rel_width=Fraction(1, 10**9)),
            ("d1ed119a09cf8e6c", 53, "converged", True),
        ),
        (
            lambda: pf_enclosure(torus_matrix(60).matrix.transpose(), hi_target=Fraction(9)),
            ("04931b2883d7af4a", 1, "hi_target", False),
        ),
        (
            lambda: pf_enclosure(_random_rows("pin:120", 120, 3)),
            ("8f8fcc6ff1869d43", 13, "converged", False),
        ),
        (
            lambda: pf_enclosure(_random_rows("pin:120", 120, 3), rel_width=Fraction(1, 10**30)),
            ("3f45b7c73efb7c2a", 42, "converged", False),
        ),
        (
            lambda: pf_enclosure(
                _random_rows("pin:40", 40, 10**30, 0.1), rel_width=Fraction(1, 10**12)
            ),
            ("7887c56eb781f9bc", 40, "converged", False),
        ),
        (
            lambda: pf_enclosure(
                IntMatrix(((2**1100, 1), (2, 2**1100))),
                rel_width=Fraction(1, 2**1300),
                max_iters=20,
            ),
            ("4235bd0b2b36af2e", 20, "max_iters", False),
        ),
    ],
    ids=[
        "torus60-1e-9",
        "torus60-1e-20",
        "torus320-1e-9",
        "torus60-column",
        "random120",
        "random120-1e-30",
        "random40-entries-1e30",
        "entries-2^1100",
    ],
)
def test_pf_enclosure_bytes_pinned(run, pin):
    assert _pin(run()) == pin


def _scan_every_iteration(matrix, rel_width, max_iters, hi_target):
    """pf_enclosure's loop as it reads with a full quotient scan on every
    iteration: the reference that the two-position test must not move."""
    times, sparse = matrix._times, matrix.rows
    u = [1] * matrix.k
    stop, steered, steer_at = "max_iters", False, None
    tol_n, tol_d = intmatrix._STEER_TOL.as_integer_ratio()
    for iterations in range(1, max_iters + 1):
        w = times(u)
        lo_n, lo_d, hi_n, hi_d, _, _ = intmatrix._cw_bounds(w, u)
        lo, hi = Fraction(lo_n, lo_d), Fraction(hi_n, hi_d)
        if hi - lo <= rel_width * lo:
            stop = "converged"
            break
        if hi_target is not None and hi <= hi_target:
            stop = "hi_target"
            break
        if steer_at is None:
            steer_at = _steer_at(sparse)
        if iterations == steer_at and iterations < max_iters:
            steer_at *= 2
            if not steered or (hi - lo) * tol_d > tol_n * lo:
                guess = intmatrix._steer(sparse, u, hi)
                if guess is not None:
                    u, steered = guess, True
                    continue
        u = intmatrix._cw_advance(w, u)
    return lo, hi, iterations, stop, steered


@st.composite
def filter_cases(draw):
    """Irreducible k x k matrices, k = 1..12: a weighted k-cycle with chords
    i -> j only where j - i - 1 is a multiple of a period p dividing k, so
    p > 1 keeps the matrix periodic. Entries up to 2**70."""
    k = draw(st.integers(min_value=1, max_value=12))
    entry = st.one_of(st.integers(min_value=1, max_value=3), st.integers(min_value=4, max_value=2**70))
    rows = [[0] * k for _ in range(k)]
    for i in range(k):
        rows[i][(i + 1) % k] = draw(entry)
    period = draw(st.sampled_from([p for p in range(1, k + 1) if k % p == 0]))
    for _ in range(draw(st.integers(min_value=0, max_value=2 * k))):
        i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        if (j - i - 1) % period == 0:
            rows[i][j] = draw(entry)
    rel_width = draw(
        st.one_of(
            st.sampled_from([Fraction(1, 2), Fraction(1, 10**9), Fraction(1, 10**30)]),
            st.integers(min_value=1, max_value=99).map(lambda e: Fraction(1, 2**e)),
        )
    )
    max_iters = draw(st.one_of(st.integers(1, 5), st.integers(6, 120)))
    hi_target = draw(
        st.one_of(
            st.none(),
            st.builds(Fraction, st.integers(1, 2**74), st.integers(1, 2**4)),
        )
    )
    return IntMatrix.from_rows(rows), rel_width, max_iters, hi_target


@given(filter_cases())
@example((IntMatrix(((0, 1, 0), (0, 0, 1), (1, 0, 0))), Fraction(1, 10**30), 5, None))
@example((IntMatrix(((0, 2**70), (1, 0))), Fraction(1, 2), 120, None))
@example((FIB, Fraction(1, 10**30), 40, None))  # steers after iteration 11
@settings(max_examples=150, deadline=None)
def test_pf_enclosure_matches_a_scan_on_every_iteration(case):
    matrix, rel_width, max_iters, hi_target = case
    enc = pf_enclosure(matrix, rel_width=rel_width, max_iters=max_iters, hi_target=hi_target)
    got = (enc.lo, enc.hi, enc.iterations, enc.stop, enc.steered)
    assert got == _scan_every_iteration(matrix, rel_width, max_iters, hi_target)


# The full scan runs where the two-position test cannot rule the stop out,
# at the steer and at the cap: a few times per enclosure, where the loop
# once scanned on every iteration.
@pytest.mark.parametrize(
    "run, scans, iterations",
    [
        (lambda: pf_enclosure(_random_rows("pin:120", 120, 3)), 3, 13),
        (
            lambda: pf_enclosure(_random_rows("pin:120", 120, 3), rel_width=Fraction(1, 10**30)),
            3,
            42,
        ),
        (
            lambda: pf_enclosure(torus_matrix(60).matrix, rel_width=Fraction(1, 10**9)),
            3,
            27,
        ),
        (
            lambda: pf_enclosure(torus_matrix(320).matrix, rel_width=Fraction(1, 10**9)),
            5,
            53,
        ),
        (
            lambda: pf_enclosure(torus_matrix(60).matrix, rel_width=Fraction(1, 10**20)),
            14,
            5246,
        ),
    ],
    ids=["random120", "random120-1e-30", "torus60-1e-9", "torus320-1e-9", "torus60-1e-20"],
)
def test_pf_enclosure_scans_only_where_it_can_stop(monkeypatch, run, scans, iterations):
    calls = []
    cw_bounds = intmatrix._cw_bounds
    monkeypatch.setattr(intmatrix, "_cw_bounds", lambda w, u: calls.append(1) or cw_bounds(w, u))
    assert run().iterations == iterations
    assert len(calls) <= scans

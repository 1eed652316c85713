import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dillab.cli import main
from dillab.dilpoly import IntPoly, isolate_largest_real_root
from dillab.errors import NoDiagonalEntry, NotIrreducible
from dillab.intmatrix import (
    IntMatrix,
    is_irreducible,
    is_positive,
    mat_power,
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


def test_matmul_and_power():
    sq = FIB @ FIB
    assert sq.entries == ((1, 1), (1, 2))
    # Fibonacci numbers appear in powers: F^10 = [[F9, F10], [F10, F11]]
    p10 = mat_power(FIB, 10)
    assert p10.entries == ((34, 55), (55, 89))
    assert mat_power(FIB, 0).entries == ((1, 0), (0, 1))
    with pytest.raises(ValueError):
        mat_power(FIB, -1)
    with pytest.raises(ValueError):
        FIB @ IntMatrix(((1,),))


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
    assert mat_power(cyc, 3) == IntMatrix.identity(3)


def test_pf_enclosure_rejects_reducible():
    with pytest.raises(NotIrreducible):
        pf_enclosure(IntMatrix(((1, 1), (0, 1))))


def test_pf_enclosure_fibonacci_dual_route():
    enc = pf_enclosure(FIB, rel_width=Fraction(1, 10 ** 12))
    assert enc.rel_width <= Fraction(1, 10 ** 12)
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
    # truncated iteration budget yields a wide but valid enclosure
    enc = pf_enclosure(FIB, rel_width=Fraction(1, 10 ** 40), max_iters=3)
    assert enc.iterations == 3
    assert enc.lo <= Fraction(161803399, 10 ** 8) <= enc.hi
    assert 1 <= enc.lo and enc.hi <= 2


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
    assert enc.rel_width <= Fraction(1, 10 ** 6)
    assert enc.lo <= 1 <= enc.hi


def test_pf_enclosure_bit_cap_keeps_soundness():
    # entries large enough to trip the 192-bit cap within a few iterations
    m = IntMatrix(((2 ** 40, 1), (1, 2 ** 40)))
    enc = pf_enclosure(m, rel_width=Fraction(1, 10 ** 9))
    assert enc.lo <= 2 ** 40 + 1 <= enc.hi


def test_verify_diagonal_bound():
    m = IntMatrix(((1, 1, 0), (0, 1, 1), (1, 0, 1)))
    rep = verify_diagonal_bound(m)
    assert rep.positive_power
    assert rep.mu_bound_holds
    with pytest.raises(NoDiagonalEntry):
        verify_diagonal_bound(IntMatrix(((0, 1), (1, 0))))
    with pytest.raises(NotIrreducible):
        verify_diagonal_bound(IntMatrix(((1, 1), (0, 1))))


def test_verify_diagonal_bound_single_loop():
    m = IntMatrix(((4, 3, 0, 0), (0, 0, 4, 0), (0, 0, 0, 2), (3, 0, 0, 0)))
    rep = verify_diagonal_bound(m)
    assert rep.positive_power and rep.mu_bound_holds


def test_pf_json_exact_fields(tmp_path, capsys):
    path = tmp_path / "fib.txt"
    path.write_text(render_matrix_text(FIB))
    assert main(["pf", str(path)]) == 0
    d = json.loads(capsys.readouterr().out)["enclosure"]
    enc = pf_enclosure(FIB)
    assert Fraction(int(d["lo_num"]), int(d["lo_den"])) == enc.lo
    assert Fraction(int(d["hi_num"]), int(d["hi_den"])) == enc.hi
    assert d["iterations"] == enc.iterations
    assert float(d["lo_decimal"]) <= float(d["hi_decimal"])


@st.composite
def small_matrices(draw):
    k = draw(st.integers(min_value=1, max_value=4))
    rows = [
        tuple(draw(st.integers(min_value=0, max_value=3)) for _ in range(k))
        for _ in range(k)
    ]
    return IntMatrix(tuple(rows))


@given(small_matrices(), st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4))
@settings(max_examples=60, deadline=None)
def test_mat_power_additivity(m, a, b):
    assert mat_power(m, a) @ mat_power(m, b) == mat_power(m, a + b)


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

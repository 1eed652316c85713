import copy
import hashlib
import json
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dillab.cli import main
from dillab.dilpoly import IntPoly, char_poly, count_real_roots_above, isolate_largest_real_root
from dillab.errors import NoDiagonalEntry, NotIrreducible
from dillab.families import torus_matrix
from dillab.suites import random_irreducible_rows
from dillab.intmatrix import (
    DiagonalBoundReport,
    IntMatrix,
    _multiplier,
    _power_pattern,
    _shifted_solve,
    _steer_at,
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


def test_sparse_storage_keeps_dense_meaning():
    assert FIB.rows == (((1, 1),), ((0, 1), (1, 1)))
    assert FIB.entries == ((0, 1), (1, 1))
    same = IntMatrix.from_rows([[0, 1], [1, 1]])
    assert same == FIB and hash(same) == hash(FIB)
    assert IntMatrix.from_sparse([[(1, 1)], [(0, 1), (1, 1)]]) == FIB
    assert IntMatrix(((0, 1), (1, 2))) != FIB
    assert len({FIB, same, IntMatrix.identity(2)}) == 2
    assert repr(FIB) == "IntMatrix(entries=((0, 1), (1, 1)))"
    assert IntMatrix(((0, 0), (0, 0))).rows == ((), ())
    assert FIB.edges == ((1, 2, 1), (2, 1, 1), (2, 2, 1))


def test_from_sparse_validation():
    for bad in (
        [],
        [[(1, 1), (0, 1)], []],  # columns out of order
        [[(0, 1), (0, 2)], []],  # repeated column
        [[(2, 1)], []],  # column outside 0..k-1
        [[(-1, 1)], []],
        [[(0, 0)], []],  # stored zero
        [[(0, -1)], []],
        [[(0, 1.0)], []],
    ):
        with pytest.raises(ValueError):
            IntMatrix.from_sparse(bad)


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


@pytest.mark.parametrize("bad", [1.5, True, "3", 2.0, Fraction(1)])
def test_non_int_entries_are_refused_not_coerced(bad):
    # int() would truncate 1.7 to 1 and read true as 1, certifying a
    # different matrix than the file holds
    with pytest.raises(ValueError):
        parse_matrix_json({"k": 2, "rows": [[bad, 1], [1, 1]]})
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 1], [1, bad]])
    with pytest.raises(ValueError):
        IntMatrix.from_sparse([((0, bad),)])
    assert IntMatrix.from_rows([[0, 1], [1, 1]]) == FIB


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
    # a truncated iteration budget still yields a valid enclosure; phi is
    # checked exactly, since it is the positive root of x^2 = x + 1
    enc = pf_enclosure(FIB, rel_width=Fraction(1, 10 ** 40), max_iters=3)
    assert enc.iterations == 3
    assert enc.stop == "max_iters"
    assert enc.lo ** 2 <= enc.lo + 1
    assert enc.hi ** 2 >= enc.hi + 1
    assert 1 <= enc.lo and enc.hi <= 2


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
    assert runs[12].rel_width < runs[11].rel_width / 10 ** 6


def test_pf_enclosure_stop_reasons():
    enc = pf_enclosure(FIB)
    assert (enc.stop, enc.steered) == ("converged", True)
    assert enc.rel_width <= Fraction(1, 10 ** 9) and _brackets_phi(enc)
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
    assert enc.rel_width <= Fraction(1, 10 ** 12)
    assert enc.lo ** 2 <= 2 <= enc.hi ** 2
    # a weighted 4-cycle, period 4, mu = 6^(1/4)
    cyc = IntMatrix(((0, 1, 0, 0), (0, 0, 2, 0), (0, 0, 0, 3), (1, 0, 0, 0)))
    enc = pf_enclosure(cyc)
    assert enc.steered and enc.rel_width <= Fraction(1, 10 ** 9)
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
    assert enc.rel_width <= Fraction(1, 10 ** 9)


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
            assert verify_diagonal_bound(m) == DiagonalBoundReport(
                positive_power=is_positive(power),
                mu_bound_holds=min(power.row_sums()) >= k,
            )


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
    assert mat_power(m, a) @ mat_power(m, b) == mat_power(m, a + b)


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
    assert enc.stop == "converged" and enc.rel_width <= rel
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

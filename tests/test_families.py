import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dillab.enclosures import log_enclosure, log_interval
from dillab.errors import DomainError, ValidationFailed
from dillab.families import (
    TorusMatrixSpec,
    cover_index,
    cover_threshold,
    cover_upper_bound,
    torus_matrix,
    verify_torus_bounds,
)
from dillab.intmatrix import IntMatrix, is_irreducible, pf_enclosure


def test_torus_matrix_n5_frozen_rows():
    spec = torus_matrix(5)
    m = spec.matrix
    assert m.k == 10
    assert m.entries[0] == (1, 1, 0, 1, 0, 0, 0, 0, 0, 0)
    assert m.entries[1] == (1, 2, 0, 1, 0, 0, 0, 0, 1, 0)
    assert m.entries[3] == (1, 1, 1, 3, 0, 1, 0, 0, 0, 0)
    assert m.entries[8] == (1, 2, 0, 1, 0, 0, 0, 0, 2, 1)
    assert m.entries[9] == (1, 2, 0, 1, 0, 0, 1, 1, 2, 3)


def test_torus_matrix_band_structure():
    spec = torus_matrix(8)
    m = spec.matrix
    assert m.k == 16
    # interior odd row 2j-1 (j=3): ones at 2j-1, 2j, 2j+2
    assert m.entries[4] == tuple(1 if c in (5, 6, 8) else 0 for c in range(1, 17))
    # interior even row 2j (j=3): 1,1,1,3 at 2j-3..2j and 1 at 2j+2
    assert m.entries[5] == (0, 0, 1, 1, 1, 3, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0)
    with pytest.raises(DomainError):
        torus_matrix(4)


def _torus_layout(n: int) -> bytearray:
    """torus_matrix's docstring layout, written out as a dense row-major grid."""
    k = 2 * n
    dense = bytearray(k * k)

    def put(r, terms):  # 1-based rows and columns, as in the docstring
        for c, v in terms:
            dense[(r - 1) * k + c - 1] = v

    for j in range(1, n):
        put(2 * j - 1, ((2 * j - 1, 1), (2 * j, 1), (2 * j + 2, 1)))
        if j >= 2:
            put(2 * j, ((2 * j - 3, 1), (2 * j - 2, 1), (2 * j - 1, 1), (2 * j, 3), (2 * j + 2, 1)))
    put(2, ((1, 1), (2, 2), (4, 1), (k - 1, 1)))
    put(k - 1, ((1, 1), (2, 2), (4, 1), (k - 1, 2), (k, 1)))
    put(k, ((1, 1), (2, 2), (4, 1), (k - 3, 1), (k - 2, 1), (k - 1, 2), (k, 3)))
    return dense


def _dense(rows) -> bytearray:
    k = len(rows)
    dense = bytearray(k * k)
    for r, row in enumerate(rows):
        for c, v in row:
            dense[r * k + c] = v
    return dense


def test_torus_rows_are_valid_sparse_rows():
    # torus_matrix builds its rows unchecked, so each row must hold strictly
    # increasing columns in range and positive int entries, which an
    # unsorted, repeated, out-of-range or zero entry breaks; the rows must
    # spell out the documented layout, and the checked constructor must
    # rebuild them unchanged from the dense view
    for n in range(5, 401):
        m = torus_matrix(n).matrix
        k = 2 * n
        for row in m.rows:
            columns = [c for c, _ in row]
            assert columns == sorted(set(columns)) and 0 <= columns[0] and columns[-1] < k, n
            assert all(type(v) is int and v >= 1 for _, v in row), n
        assert _dense(m.rows) == _torus_layout(n), n
        if n <= 40 or n == 400:
            assert m == IntMatrix(m.entries), n


def test_torus_bounds_contract():
    for n in (5, 6, 11, 40):
        spec = torus_matrix(n)
        rep = verify_torus_bounds(spec)
        assert rep.max_col_sum == 9
        assert rep.max_row_sum == 11
        assert rep.irreducible
        # log(9)/n < log(11)/n, both positive
        assert 0 < rep.sharper_log_bound < rep.log_dil_bound
        assert rep.log_dil_bound * n < Fraction(24, 10)


def test_torus_log_bounds_are_the_enclosure_ends_over_n():
    # log 11 and log 9 are enclosed once per process; the report still
    # divides the same hi ends by n
    for n in (5, 6, 40, 400):
        rep = verify_torus_bounds(torus_matrix(n))
        assert rep.log_dil_bound == log_enclosure(11).hi / n
        assert rep.sharper_log_bound == log_enclosure(9).hi / n


def test_torus_bounds_column_witness():
    # column 4 realizes the max column sum 9 for every n
    for n in (5, 9, 17):
        m = torus_matrix(n).matrix
        assert m.col_sums()[3] == 9


def test_torus_bounds_rejects_tampering():
    spec = torus_matrix(5)
    rows = [list(r) for r in spec.matrix.entries]
    rows[0][0] += 5
    bad = TorusMatrixSpec(n=5, matrix=IntMatrix.from_rows(rows))
    with pytest.raises(ValidationFailed):
        verify_torus_bounds(bad)


def test_torus_spectral_radius_below_column_bound():
    m = torus_matrix(6).matrix
    assert is_irreducible(m)
    enc = pf_enclosure(m.transpose(), hi_target=Fraction(9))
    assert enc.hi <= 9


def test_cover_spec_parameter_split():
    for g, n, m, c in ((2, 31, 5, 0), (2, 45, 7, 4), (3, 43, 5, 0)):
        rep = cover_upper_bound(g, n)
        assert (rep.m, rep.c) == (m, c)
        assert n == (2 * g + 1) * (m + 1) + 1 + c
    with pytest.raises(DomainError):
        cover_upper_bound(1, 100)
    with pytest.raises(DomainError):
        cover_upper_bound(2, 30)
    # the threshold is the first n with index 5, for every genus
    for g in (2, 3, 4):
        assert cover_index(g, cover_threshold(g)) == 5
        with pytest.raises(DomainError):
            cover_index(g, cover_threshold(g) - 1)
        assert cover_upper_bound(g, cover_threshold(g)).m == 5


@pytest.mark.parametrize("g, n", [(2, 30), (2, 0), (2, -5), (3, 42), (8, 102)])
def test_cover_index_refuses_n_below_the_threshold(g, n):
    # below cover_threshold(g) the index would fall under 5, where T_m has no
    # certified ceiling; cover_index and cover_upper_bound refuse alike
    message = f"cover family requires n >= {cover_threshold(g)} for g={g}"
    with pytest.raises(DomainError, match=message):
        cover_index(g, n)
    with pytest.raises(DomainError, match=message):
        cover_upper_bound(g, n)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 8), st.integers(1, 10**6))
def test_cover_split_is_an_identity(g, n):
    # the split cover_upper_bound relies on: n = q(m+1) + 1 + c with
    # c = (n-1) mod q in [0, 2g], and m >= 5 exactly from the threshold on,
    # below which cover_index refuses
    q = 2 * g + 1
    if n < cover_threshold(g):
        with pytest.raises(DomainError):
            cover_index(g, n)
        return
    m, c = cover_index(g, n), (n - 1) % q
    assert q * (m + 1) + 1 + c == n
    assert 0 <= c <= 2 * g
    assert m >= 5 and (m == 5) == (n - q < cover_threshold(g))


def test_cover_upper_bound_certificate_chain():
    rep = cover_upper_bound(2, 31)
    assert (rep.g, rep.n, rep.m, rep.c) == (2, 31, 5, 0)
    # certified root below m^(3/m) means root^m < m^3 exactly
    assert rep.root.hi ** rep.m < rep.m ** 3
    assert rep.log_root.hi <= rep.closed_form_m.lo
    assert rep.log_root.hi <= rep.closed_form_n.lo
    assert rep.log_root.hi > 0


def test_cover_log_root_is_log_interval_of_the_root():
    # the report takes log_interval's two ends straight from the root's
    # integers; the public route on root.interval must agree exactly
    for g in (2, 3, 4, 7):
        for n in [*range(cover_threshold(g), cover_threshold(g) + 2 * (2 * g + 1)), *range(200, 20001, 997)]:
            rep = cover_upper_bound(g, n)
            assert rep.log_root == log_interval(rep.root.interval), (g, n)
            assert type(rep.log_root.lo) is Fraction and type(rep.log_root.hi) is Fraction


def test_cover_upper_bound_shrinks_with_n():
    u31 = cover_upper_bound(2, 31).log_root.hi
    u101 = cover_upper_bound(2, 101).log_root.hi
    u1001 = cover_upper_bound(2, 1001).log_root.hi
    assert u31 > u101 > u1001


def test_cover_upper_bound_builds_at_most_20_fractions(monkeypatch):
    # every reported end is built once from the kernels' integers; the
    # interval arithmetic before took about 60 Fractions a report
    log_enclosure(3)  # fills the cached log 2, which is no report's work
    grid = [(g, n) for g in (2, 3, 4) for n in range(cover_threshold(g), (2 * g + 1) * 2001, 101)]
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(cls)
        return new(cls, *args, **kwargs)

    counts = []
    for g, n in grid:
        monkeypatch.setattr(Fraction, "__new__", counted)
        built.clear()
        cover_upper_bound(g, n)
        monkeypatch.undo()
        counts.append(len(built))
    assert 0 < max(counts) <= 20


@pytest.mark.parametrize("n", [5.0, "5", True, Fraction(5)])
def test_torus_matrix_refuses_an_n_not_of_type_int(n):
    with pytest.raises(DomainError, match="requires an int n"):
        torus_matrix(n)
    with pytest.raises(DomainError, match="requires an int n"):
        TorusMatrixSpec(n, torus_matrix(5).matrix)


@pytest.mark.parametrize("g, n", [(2.0, 40), (2, 40.0), (True, 40), (2, Fraction(40)), (2, "40")])
def test_cover_upper_bound_refuses_parameters_not_of_type_int(g, n):
    with pytest.raises(DomainError, match="requires an int (g >= 2|n), got"):
        cover_upper_bound(g, n)


@pytest.mark.parametrize("g, n", [(2, 40.5), (2.0, 40), (2, True), (2, Fraction(81, 2))])
def test_cover_index_refuses_parameters_not_of_type_int(g, n):
    with pytest.raises(DomainError, match="requires an int (g >= 2|n), got"):
        cover_index(g, n)


def _cover_pin_digest() -> str:
    """sha256 of the reports' repr over a fixed (g, n) grid, m = 5..2000."""
    digest = hashlib.sha256()
    for g in (2, 3, 4):
        for n in range(cover_threshold(g), (2 * g + 1) * 2001 + 1, 97):
            digest.update(f"{cover_upper_bound(g, n)!r}\n".encode())
    return digest.hexdigest()


def test_cover_upper_bound_bytes_pinned():
    # recorded on the interval-arithmetic certificate: every endpoint built
    # from the kernels' integers must be the same Fraction
    assert _cover_pin_digest() == "c8e8fc131084e0557835689928841fe57c69c9293331d5c0430319cb4f8d9a6a"

from fractions import Fraction

import pytest

from dillab.errors import DomainError, ValidationFailed
from dillab.families import (
    CoverFamilySpec,
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
    spec = CoverFamilySpec(g=2, n=31)
    assert spec.m == 5 and spec.c == 0
    assert spec.check_reconstruction()
    spec = CoverFamilySpec(g=2, n=45)
    assert spec.m == 7 and spec.c == 4
    assert spec.check_reconstruction()
    spec = CoverFamilySpec(g=3, n=43)
    assert spec.m == 5 and spec.c == 0
    assert spec.check_reconstruction()
    with pytest.raises(DomainError):
        CoverFamilySpec(g=1, n=100)
    with pytest.raises(DomainError):
        CoverFamilySpec(g=2, n=30)
    # the threshold is the first n with index 5, for every genus
    for g in (2, 3, 4):
        assert cover_index(g, cover_threshold(g)) == 5
        assert cover_index(g, cover_threshold(g) - 1) == 4
        assert CoverFamilySpec(g=g, n=cover_threshold(g)).m == 5


def test_cover_upper_bound_certificate_chain():
    rep = cover_upper_bound(2, 31)
    assert (rep.g, rep.n, rep.m, rep.c) == (2, 31, 5, 0)
    # certified root below m^(3/m) means root^m < m^3 exactly
    assert rep.root.hi ** rep.m < rep.m ** 3
    assert rep.log_root.hi <= rep.closed_form_m.lo
    assert rep.log_root.hi <= rep.closed_form_n.lo
    assert rep.upper == rep.log_root.hi
    assert rep.upper > 0


def test_cover_upper_bound_shrinks_with_n():
    u31 = cover_upper_bound(2, 31).upper
    u101 = cover_upper_bound(2, 101).upper
    u1001 = cover_upper_bound(2, 1001).upper
    assert u31 > u101 > u1001

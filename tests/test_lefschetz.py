from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dense_reference import symp_mul
from dillab.errors import (
    DomainError,
    FixedPointOnCircle,
    GenusMismatch,
    NotPairwiseOrthogonal,
)
from dillab.lefschetz import (
    HomologyClass,
    LinearPlaneMap,
    SympAction,
    linear_index_oracle,
    local_index,
    multitwist_action,
    symp_form,
)


def test_homology_class_basics():
    a1 = HomologyClass.alpha(1, 2)
    b1 = HomologyClass.beta(1, 2)
    assert a1.coords == (1, 0, 0, 0)
    assert b1.coords == (0, 0, 1, 0)
    assert a1.g == 2
    with pytest.raises(ValueError):
        HomologyClass((1, 0, 0))
    with pytest.raises(ValueError):
        HomologyClass.alpha(3, 2)


def test_homology_class_refuses_bool_coordinates():
    assert HomologyClass((1, 0)).coords == (1, 0)
    with pytest.raises(ValueError):
        HomologyClass((True, False))


def test_symp_form_dual_basis():
    g = 3
    for i in range(1, g + 1):
        for j in range(1, g + 1):
            ai = HomologyClass.alpha(i, g)
            bj = HomologyClass.beta(j, g)
            assert symp_form(ai, bj) == (1 if i == j else 0)
            assert symp_form(bj, ai) == (-1 if i == j else 0)
            assert symp_form(ai, HomologyClass.alpha(j, g)) == 0
    with pytest.raises(GenusMismatch):
        symp_form(HomologyClass.alpha(1, 1), HomologyClass.alpha(1, 2))


def test_symp_form_antisymmetry_sample():
    u = HomologyClass((2, -1, 3, 5))
    v = HomologyClass((0, 4, -2, 1))
    assert symp_form(u, v) == -symp_form(v, u)
    assert symp_form(u, u) == 0


def test_symp_action_certifies_itself():
    with pytest.raises(ValueError):
        SympAction(1, ((2, 0), (0, 2)))
    ident = SympAction.identity(2)
    assert ident.trace == 4
    assert ident.apply(HomologyClass((1, 2, 3, 4))).coords == (1, 2, 3, 4)


def test_symp_action_refuses_bool_entries():
    assert SympAction(1, ((1, 0), (0, 1))).trace == 2
    with pytest.raises(ValueError):
        SympAction(1, ((True, False), (False, True)))


def test_transvection_hand_computed():
    # twist about a_1 to the power 3 at genus 2: b_1 -> b_1 - 3 a_1,
    # everything else fixed
    t = SympAction.identity(2).twist(HomologyClass.alpha(1, 2), 3)
    a1 = HomologyClass.alpha(1, 2)
    b1 = HomologyClass.beta(1, 2)
    assert t.apply(a1) == a1
    assert t.apply(b1).coords == (-3, 0, 1, 0)
    assert t.apply(HomologyClass.alpha(2, 2)) == HomologyClass.alpha(2, 2)
    assert t.apply(HomologyClass.beta(2, 2)) == HomologyClass.beta(2, 2)
    assert t.trace == 4


def test_transvection_zero_class_and_power():
    z = SympAction.identity(2).twist(HomologyClass.zero(2), 5)
    assert z.matrix == SympAction.identity(2).matrix
    p0 = SympAction.identity(2).twist(HomologyClass.alpha(1, 2), 0)
    assert p0.matrix == SympAction.identity(2).matrix


def test_transvection_inverse():
    gamma = HomologyClass((1, 2, 0, -1))
    prod = symp_mul(SympAction.identity(2).twist(gamma, 4), SympAction.identity(2).twist(gamma, -4))
    assert prod.matrix == SympAction.identity(2).matrix


def test_multitwist_trace_and_lefschetz():
    g = 2
    twists = [
        (HomologyClass.alpha(1, g), 3),
        (HomologyClass.alpha(2, g), -2),
    ]
    action = multitwist_action(twists, g)
    assert action.trace == 2 * g
    assert action.lefschetz_number == 2 - 2 * g
    # zero class in the system changes nothing
    with_zero = twists + [(HomologyClass.zero(g), 7)]
    assert multitwist_action(with_zero, g).lefschetz_number == 2 - 2 * g


def test_multitwist_refuses_a_non_symplectic_product(monkeypatch):
    # twists are applied unchecked, so a twist that breaks the form is
    # caught only where multitwist_action checks its product
    def broken(self, gamma, power):
        doubled = ((2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        return SympAction._of(gamma.g, doubled)

    monkeypatch.setattr(SympAction, "twist", broken)
    with pytest.raises(ValueError, match="symplectic"):
        multitwist_action([(HomologyClass.alpha(1, 2), 1)], 2)


def _dense_transvection(gamma, power):
    # v -> v + power <v, gamma> gamma, column by column from the definition
    n = 2 * gamma.g
    basis = [HomologyClass(tuple(1 if t == c else 0 for t in range(n))) for c in range(n)]
    cols = [
        [e.coords[r] + power * symp_form(e, gamma) * gamma.coords[r] for r in range(n)]
        for e in basis
    ]
    return SympAction(gamma.g, tuple(tuple(cols[c][r] for c in range(n)) for r in range(n)))


@st.composite
def _twist_systems(draw):
    # classes in the span of the alphas (a Lagrangian, so pairwise
    # orthogonal), moved by random transvections, some of them zero
    g = draw(st.integers(1, 6))
    count = draw(st.integers(1, g + 2))
    classes = [
        HomologyClass.zero(g)
        if draw(st.booleans()) and draw(st.booleans())
        else HomologyClass(tuple(draw(st.integers(-3, 3)) for _ in range(g)) + (0,) * g)
        for _ in range(count)
    ]
    for _ in range(draw(st.integers(0, 3))):
        gamma = HomologyClass(tuple(draw(st.integers(-2, 2)) for _ in range(2 * g)))
        frame = _dense_transvection(gamma, draw(st.sampled_from((-2, -1, 1, 2))))
        classes = [frame.apply(c) for c in classes]
    powers = [draw(st.integers(-5, 5).filter(bool)) for _ in range(count)]
    return g, list(zip(classes, powers))


@settings(max_examples=80, deadline=None)
@given(_twist_systems())
def test_rank_one_multitwist_equals_the_dense_chain(system):
    g, twists = system
    dense = SympAction.identity(g)
    for gamma, power in twists:
        assert SympAction.identity(g).twist(gamma, power) == _dense_transvection(gamma, power)
        assert dense.twist(gamma, power) == symp_mul(dense, _dense_transvection(gamma, power))
        dense = symp_mul(dense, _dense_transvection(gamma, power))
    assert multitwist_action(twists, g) == dense


def test_multitwist_order_of_factors_irrelevant():
    g = 3
    twists = [
        (HomologyClass.alpha(1, g), 2),
        (HomologyClass.alpha(2, g), -1),
        (HomologyClass.alpha(3, g), 5),
    ]
    a = multitwist_action(twists, g)
    b = multitwist_action(list(reversed(twists)), g)
    assert a.matrix == b.matrix


def test_multitwist_rejects_crossing_classes():
    g = 1
    crossing = [
        (HomologyClass.alpha(1, g), 1),
        (HomologyClass.beta(1, g), 1),
    ]
    with pytest.raises(NotPairwiseOrthogonal):
        multitwist_action(crossing, g)
    with pytest.raises(DomainError):
        multitwist_action([(HomologyClass.alpha(1, 1), 0)], 1)
    with pytest.raises(GenusMismatch):
        multitwist_action([(HomologyClass.alpha(1, 2), 1)], 1)


A1, B1 = HomologyClass.alpha(1, 1), HomologyClass.beta(1, 1)

# twist systems at g = 1 with one fault each, and the class it raises
SINGLE_FAULTS = [
    ("ab", DomainError),
    (None, DomainError),
    ([(A1,)], DomainError),
    ([[A1, 1, 2]], DomainError),
    ([True], DomainError),
    ([(True, 1)], DomainError),
    ([(5, 1)], DomainError),
    ([(A1, 0)], DomainError),
    ([(A1, False)], DomainError),
    ([(A1, 0.0)], DomainError),
    ([(A1, True)], DomainError),
    ([(A1, 1.5)], DomainError),
    ([(A1, "1")], DomainError),
    ([(HomologyClass.alpha(1, 2), 1)], GenusMismatch),
    ([(A1, 1), (B1, 1)], NotPairwiseOrthogonal),
]


@pytest.mark.parametrize("twists, cls", SINGLE_FAULTS, ids=[repr(t) for t, _ in SINGLE_FAULTS])
def test_multitwist_refuses_each_single_fault_with_its_class(twists, cls):
    with pytest.raises(cls) as info:
        multitwist_action(twists, 1)
    assert type(info.value) is cls


def test_multitwist_reports_the_first_fault_its_one_pass_meets():
    # the crossing pair comes before the zero power, so it is reported
    with pytest.raises(NotPairwiseOrthogonal, match="^classes 0 and 1 pair to 1 != 0$"):
        multitwist_action([(A1, 1), (B1, 1), (A1, 0)], 1)
    with pytest.raises(DomainError, match="^twist 1: power must be a nonzero integer$"):
        multitwist_action([(A1, 1), (A1, 0), (B1, 1)], 1)


def test_multitwist_refuses_a_bool_power():
    alpha = HomologyClass.alpha(1, 1)
    assert multitwist_action([(alpha, 1)], 1).matrix == SympAction.identity(1).twist(alpha, 1).matrix
    assert multitwist_action([], 1).matrix == SympAction.identity(1).matrix == ((1, 0), (0, 1))
    with pytest.raises(DomainError):
        multitwist_action([(alpha, True)], 1)


@pytest.mark.parametrize(
    "entries",
    [(True, 0, 0, 3), (2, False, 0, 3), ("2", 0, 0, 3), (2, 0, 0, "3/2"), (float("nan"), 0, 0, 3), (2, 0, 0, float("inf")), (None, 0, 0, 3)],
)
def test_linear_plane_map_refuses_what_is_not_a_finite_number(entries):
    with pytest.raises(DomainError, match="must be a finite number"):
        LinearPlaneMap(*entries)


def test_linear_plane_map_reads_ints_fractions_and_floats_exactly():
    model = LinearPlaneMap(2, Fraction(1, 3), 0.25, 3.0)
    assert (model.a, model.b, model.c, model.d) == (2, Fraction(1, 3), Fraction(1, 4), 3)
    assert all(type(x) is Fraction for x in (model.a, model.b, model.c, model.d))


@pytest.mark.parametrize(
    "call, args",
    [
        (HomologyClass.alpha, (True, 2)),
        (HomologyClass.alpha, (1, 2.0)),
        (HomologyClass.beta, (1.0, 2)),
        (HomologyClass.beta, (1, True)),
        (HomologyClass.zero, (True,)),
        (HomologyClass.zero, ("2",)),
        (SympAction.identity, (True,)),
        (multitwist_action, ([(HomologyClass.alpha(1, 1), 1)], True)),
        (multitwist_action, ([(HomologyClass.alpha(1, 1), 1)], 1.0)),
        # a twist by a power that is not an int is no integer matrix
        (SympAction.identity(1).twist, (HomologyClass((1, 0)), 1.5)),
        (SympAction.identity(1).twist, (HomologyClass((1, 0)), True)),
        (SympAction.identity(1).twist, (HomologyClass((1, 0)), "2")),
        (SympAction.identity(1).twist, (HomologyClass((1, 0)), 1.0)),
    ],
)
def test_lefschetz_integer_parameters_refuse_every_other_type(call, args):
    # True is not index or genus 1, and 1.0 is not the integer it equals
    with pytest.raises(DomainError, match="requires an int"):
        call(*args)


def test_symp_action_refuses_a_genus_that_is_not_an_int():
    assert SympAction(1, ((1, 0), (0, 1))).g == 1
    for g in (True, 1.0):
        with pytest.raises(ValueError, match="requires an int g >= 1"):
            SympAction(g, ((1, 0), (0, 1)))


def test_local_index_battery():
    expanding = LinearPlaneMap(2.0, 0.0, 0.0, 3.0)
    rotation = LinearPlaneMap(Fraction(3, 5), Fraction(-4, 5), Fraction(4, 5), Fraction(3, 5))
    saddle = LinearPlaneMap(2.0, 0.0, 0.0, 0.5)
    assert local_index(expanding) == 1
    assert local_index(rotation) == 1
    assert local_index(saddle) == -1


def test_local_index_matches_linear_oracle():
    cases = [
        LinearPlaneMap(2.0, 1.0, 0.0, 3.0),
        LinearPlaneMap(0.5, 0.25, -0.25, 0.5),
        LinearPlaneMap(-1.0, 0.0, 0.0, -1.0),
        LinearPlaneMap(3.0, 2.0, 2.0, 0.25),
    ]
    for m in cases:
        assert abs(m.det_minus_identity()) > 1e-3
        assert local_index(m) == linear_index_oracle(m)


def test_local_index_identity_rotation_has_no_vector_field():
    with pytest.raises(FixedPointOnCircle):
        local_index(LinearPlaneMap(1, 0, 0, 1))
    with pytest.raises(FixedPointOnCircle):
        local_index(LinearPlaneMap(1.0, 0.0, 0.0, 1.0))


def test_local_index_near_singular_regression():
    # a is the float 1 + 1e-12 read exactly, so det(A - I) = a - 1 is tiny
    # but positive and the index is +1, however close to singular A is
    model = LinearPlaneMap(1 + 1e-12, 0, 0, 2)
    assert model.det_minus_identity() > 0
    assert local_index(model) == 1 == linear_index_oracle(model)


small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def _identity_plus_rank_one(u1, u2, v1, v2):
    # A = I + u v^T has det(A - I) = 0; u = 0 or v = 0 gives the identity
    return LinearPlaneMap(1 + u1 * v1, u1 * v2, u2 * v1, 1 + u2 * v2)


@given(
    st.one_of(
        st.builds(LinearPlaneMap, *[small_rationals] * 4),
        st.builds(_identity_plus_rank_one, *[small_rationals] * 4),
    )
)
# B = A - I kills the corner (1, 1), and the edge midpoint (0, 1)
@example(LinearPlaneMap(2, -1, 0, 1))
@example(LinearPlaneMap(2, 0, 0, 1))
@settings(max_examples=300, deadline=None)
def test_local_index_exact_on_rational_maps(model):
    if model.det_minus_identity() == 0:
        with pytest.raises(FixedPointOnCircle):
            local_index(model)
    else:
        assert local_index(model) == linear_index_oracle(model)


coords4 = st.tuples(*[st.integers(min_value=-4, max_value=4)] * 4)


@given(coords4, st.integers(min_value=-5, max_value=5).filter(lambda p: p != 0))
@settings(max_examples=80, deadline=None)
def test_transvection_always_symplectic(coords, power):
    # twist builds unchecked; the public constructor verifies
    # A^T J A = J and raises otherwise
    t = SympAction.identity(2).twist(HomologyClass(coords), power)
    assert SympAction(t.g, t.matrix) == t


@given(coords4, coords4)
@settings(max_examples=60, deadline=None)
def test_transvection_preserves_form(u, v):
    gamma = HomologyClass((1, -2, 3, 0))
    t = SympAction.identity(2).twist(gamma, 2)
    hu, hv = HomologyClass(u), HomologyClass(v)
    assert symp_form(t.apply(hu), t.apply(hv)) == symp_form(hu, hv)

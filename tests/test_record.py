"""The package's 15 record types behave as `dataclass(frozen=True)` would:
the same repr, equality and hash as a frozen dataclass holding the same
values, refused assignment and deletion, TypeError for a bad constructor
call, and pickle and deepcopy round trips. Each also has the generated
unchecked constructor `_of`, which builds the value its checked constructor
builds, and which every pickle, copy and deepcopy goes through."""

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest

from dillab._record import record
from dillab.bounds import BoundRow, SandwichReport
from dillab.dilpoly import IntPoly, LrootReport
from dillab.enclosures import RatInterval
from dillab.families import CoverBoundReport, TorusBoundsReport, TorusMatrixSpec, torus_matrix
from dillab.intmatrix import IntMatrix, PFEnclosure
from dillab.lefschetz import HomologyClass, LinearPlaneMap, SympAction
from dillab.suites import SUITES, SuiteSpec
from dillab.transgraph import LimitCheckReport

IV = RatInterval(Fraction(1, 3), Fraction(1, 2))
ROOT = RatInterval(Fraction(1), Fraction(2))
ROW = BoundRow(2, 31, Fraction(1, 100), None)
SPEC = SUITES["quartic-root"]

# each type with sample field values, in field order, that its checks accept
SAMPLES = [
    (BoundRow, (2, 31, Fraction(1, 100), Fraction(1, 10))),
    (SandwichReport, ((ROW,), IV, None)),
    (IntPoly, (((0, -1), (2, 1)),)),
    (LrootReport, (5, True, True, True, True, ROOT, IV)),
    (RatInterval, (Fraction(1, 3), Fraction(1, 2))),
    (CoverBoundReport, (2, 31, 5, 0, ROOT, IV, IV, IV)),
    (TorusMatrixSpec, (5, torus_matrix(5).matrix)),
    (TorusBoundsReport, (5, 3, 3, True, Fraction(1, 2), Fraction(2, 5))),
    (IntMatrix, (IntMatrix(((1, 1), (1, 0))).rows,)),
    (PFEnclosure, (Fraction(3, 2), Fraction(8, 5), 12, "converged", False)),
    (HomologyClass, ((1, 0, 0, 1),)),
    (SympAction, (1, ((1, 1), (0, 1)))),
    (LinearPlaneMap, (Fraction(2), Fraction(0), Fraction(1, 3), Fraction(3))),
    (SuiteSpec, (SPEC.runner, SPEC.default_cases, SPEC.cases_meaning, SPEC.summary)),
    (LimitCheckReport, (True, Fraction(0), 3, 1, IV, RatInterval(Fraction(1, 4), Fraction(1, 2)))),
]
IDS = [cls.__name__ for cls, _ in SAMPLES]


def _names(cls) -> tuple:
    return tuple(cls.__annotations__)


def _checked(cls):
    """The constructor that checks field values: the class, but for
    IntMatrix, whose own constructor takes the dense entries of its rows."""
    return (lambda rows: IntMatrix(IntMatrix._of(rows).entries)) if cls is IntMatrix else cls


# a plain subclass of a record, at module level so that pickle finds it
class _Counted(IntPoly):
    pass


def _reference(cls, values):
    ref = dataclasses.make_dataclass(cls.__qualname__, _names(cls), frozen=True)
    return ref, ref(*values)


def test_every_record_type_is_sampled():
    assert len(SAMPLES) == 15 and len(set(IDS)) == 15
    for cls, values in SAMPLES:
        assert len(_names(cls)) == len(values), cls


@pytest.mark.parametrize("cls, values", SAMPLES, ids=IDS)
def test_repr_eq_and_hash_match_a_frozen_dataclass(cls, values):
    obj = cls._of(*values)
    ref_cls, ref = _reference(cls, values)
    assert tuple(getattr(obj, name) for name in _names(cls)) == values
    assert type(obj) is cls and obj == _checked(cls)(*values) and tuple(obj.__dict__) == _names(cls)
    if cls is not IntMatrix:  # IntMatrix prints its dense entries instead
        assert repr(obj) == repr(ref)
    assert hash(obj) == hash(ref)
    assert obj == cls._of(*values) and ref == ref_cls(*values)
    assert not obj != cls._of(*values)
    assert obj.__eq__(ref) is NotImplemented and obj != ref
    other = values[:-1] + (object(),)  # differs in the last field only
    assert obj != cls._of(*other) and ref != ref_cls(*other)
    assert hash(cls._of(*other)) == hash(ref_cls(*other))


@pytest.mark.parametrize("cls, values", SAMPLES, ids=IDS)
def test_fields_are_frozen(cls, values):
    obj = cls._of(*values)
    for name in _names(cls):
        with pytest.raises(AttributeError):
            setattr(obj, name, values[0])
        with pytest.raises(AttributeError):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert tuple(getattr(obj, name) for name in _names(cls)) == values


@pytest.mark.parametrize("cls, values", [s for s in SAMPLES if s[0] is not IntMatrix], ids=[i for i in IDS if i != "IntMatrix"])
def test_constructor_binds_as_a_def(cls, values):
    names = _names(cls)
    keywords = dict(zip(names, values))
    assert cls(**keywords) == cls(*values)
    assert cls(*values[:1], **dict(list(keywords.items())[1:])) == cls(*values)
    with pytest.raises(TypeError, match="missing"):
        cls(*values[:-1])
    with pytest.raises(TypeError, match="positional"):
        cls(*values, None)
    with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
        cls(*values, bogus=1)
    with pytest.raises(TypeError, match="multiple values"):
        cls(*values, **{names[0]: values[0]})


def test_intmatrix_keeps_its_own_constructor():
    with pytest.raises(TypeError):
        IntMatrix()
    with pytest.raises(TypeError):
        IntMatrix(((1,),), None)
    with pytest.raises(TypeError):
        IntMatrix(((1,),), bogus=1)


@pytest.mark.parametrize("cls, values", SAMPLES, ids=IDS)
def test_pickle_and_deepcopy_round_trip(cls, values):
    obj = cls._of(*values)
    for twin in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj), copy.copy(obj)):
        assert type(twin) is cls and twin == obj and hash(twin) == hash(obj)
        assert tuple(twin.__dict__) == _names(cls)
    # pickle, copy and deepcopy all ask __reduce_ex__ first, and pickle finds
    # _of by reference, under its class's module and qualified name
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert obj.__reduce_ex__(protocol) == (cls._of, values)
    assert (cls._of.__module__, cls._of.__qualname__) == (cls.__module__, f"{cls.__qualname__}._of")


def test_intmatrix_caches_stay_out_of_its_value():
    a, b = IntMatrix(((1, 1), (1, 0))), IntMatrix(((1, 1), (1, 0)))
    assert a._irreducible and a._counts(3) == [5, 3]
    assert a == b and hash(a) == hash(b)
    twin = pickle.loads(pickle.dumps(a))
    assert twin == a and "_count_slot" not in twin.__dict__


def test_post_init_runs_after_the_fields_are_set():
    seen = []

    @record
    class Pair:
        x: int
        y: int

        def __post_init__(self):
            seen.append((self.x, self.y))

    assert Pair(1, y=2) == Pair(x=1, y=2) and seen == [(1, 2), (1, 2)]
    assert repr(Pair(1, 2)) == "test_post_init_runs_after_the_fields_are_set.<locals>.Pair(x=1, y=2)"
    assert Pair.__match_args__ == ("x", "y")


def test_a_subclass_keeps_the_fields_frozen_but_may_add_attributes():
    class Counted(IntPoly):
        pass

    p = Counted(((0, -1), (2, 1)))
    assert p.coeffs == ((0, -1), (2, 1)) and p != IntPoly(p.coeffs)
    p.calls = 0
    with pytest.raises(AttributeError):
        p.coeffs = ()


def test_a_subclass_pickles_with_its_class_and_attributes():
    # IntPoly._of builds an IntPoly, so a subclass does not go through it
    p = _Counted(((0, -1), (2, 1)))
    p.calls = 3
    for twin in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p), copy.copy(p)):
        assert type(twin) is _Counted and twin == p and twin.calls == 3

"""Every exported callable refuses a malformed argument with a DillabError.

One table lists each callable of the `dillab` namespace with a valid call,
as keyword arguments, and the kind of each parameter. For each parameter in
turn, every bad value of its kind replaces the valid one, and the call must
raise a DillabError within a time limit: never another exception, a hang or
a result. An int parameter also gives its least valid value: that value is
answered, and the one below it refused. A record type that validates
nothing is listed apart, with the reason. An export missing from both lists
fails the test, so new API inherits the rule.
"""

import math
import signal
from contextlib import contextmanager
from fractions import Fraction

import pytest

import dillab
from dillab import (
    HomologyClass,
    IntMatrix,
    IntPoly,
    LinearPlaneMap,
    RatInterval,
    SympAction,
    build_T,
    parse_matrix_json,
    path_count,
    thm34_lower,
    torus_matrix,
)
from dillab.enclosures import inth_root
from dillab.errors import DillabError, DomainError
from dillab.families import cover_index, cover_threshold

NAN, INF = math.nan, math.inf

FIB = IntMatrix(((1, 1), (1, 0)))
TWO = IntPoly(((0, -2), (2, 1)))
IV = RatInterval(2, 3)
PLANE = LinearPlaneMap(2, 0, 0, 3)
A1 = HomologyClass.alpha(1, 1)
FIB_FILE = object()  # the path of a file holding FIB, written per test

# The bad values of each kind. A float is bad only where an int is due: a
# rational parameter reads a finite float exactly.
NOT_A_VALUE = (True, None, NAN, INF, 2.5)
BAD = {
    "int": (True, "5", None, NAN, INF, 5.0),
    "int or None": (True, "5", NAN, INF, 5.0),
    "rational": (True, "1/2", None, NAN, INF),
    "rational or None": (True, "1/2", NAN, INF),
    "path": NOT_A_VALUE,
    "suite name": NOT_A_VALUE + ("no-such-suite",),
    "matrix text": NOT_A_VALUE + ("2\n1 x\n1 1\n",),
    "matrix JSON": NOT_A_VALUE + ('{"k": 1 "rows": [[1]]}',),
    "sequence": NOT_A_VALUE + ("ab",),
    "class": NOT_A_VALUE + ("x",),
    "twist list": NOT_A_VALUE + ("ab", [True], [(True, 1)], [(A1,)]),
}

# name -> {parameter: (kind, valid value)}; an "int" or "int or None"
# parameter also gives its least valid value beside the other valid values,
# or None when any int is
TABLE = {
    # enclosures
    "RatInterval": {"lo": ("rational", 1), "hi": ("rational", 2)},
    "interval_gap": {"a": ("class", IV), "b": ("class", IV)},
    "log_enclosure": {"q": ("rational", 3), "width": ("rational", Fraction(1, 10**6))},
    "log_interval": {"iv": ("class", IV), "width": ("rational", Fraction(1, 10**6))},
    "nth_root_enclosure": {"q": ("rational", 2), "n": ("int", 3, 1), "bits": ("int", 8, 0)},
    # intmatrix
    "IntMatrix": {"entries": ("sequence", ((1, 1), (1, 0)))},
    "is_irreducible": {"matrix": ("class", FIB)},
    "is_positive": {"matrix": ("class", FIB)},
    "load_matrix": {"path": ("path", FIB_FILE)},
    "parse_matrix_json": {"obj": ("matrix JSON", '{"k": 1, "rows": [[1]]}')},
    "parse_matrix_text": {"text": ("matrix text", "1\n1\n")},
    "pf_enclosure": {
        "matrix": ("class", FIB),
        "rel_width": ("rational", Fraction(1, 10**6)),
        "max_iters": ("int", 100, 1),
        "hi_target": ("rational or None", None),
    },
    "render_matrix_json": {"matrix": ("class", FIB)},
    "render_matrix_text": {"matrix": ("class", FIB)},
    "verify_diagonal_bound": {"matrix": ("class", FIB)},
    # transgraph
    "dilatation_limit_check": {
        "matrix": ("class", FIB),
        "i": ("int", 1, 1),
        "d_max": ("int", 10, 1),
        "tol": ("rational", Fraction(1, 20)),
    },
    "from_matrix": {"matrix": ("class", FIB)},
    "to_matrix": {"graph": ("class", FIB)},
    "path_count": {"matrix": ("class", FIB), "i": ("int", 1, 1), "d": ("int", 5, 0)},
    "path_count_series": {"matrix": ("class", FIB), "i": ("int", 1, 1), "d_max": ("int", 5, 0)},
    "subdivide_out_edge": {"matrix": ("class", FIB), "i": ("int", 2, 2)},
    # dilpoly
    "IntPoly": {"coeffs": ("sequence", ((0, -2), (2, 1)))},
    "build_T": {"s": ("int", 1, 1), "t": ("int", 1, 1)},
    "build_Tm": {"m": ("int", 5, 2)},
    "char_poly": {"matrix": ("class", FIB)},
    "compare_largest_roots": {
        "pa": ("class", TWO),
        "pb": ("class", build_T(1, 1)),
        "hi_a": ("rational", 4),
        "hi_b": ("rational", 4),
    },
    "count_real_roots_above": {"p": ("class", TWO), "a": ("rational", 2)},
    "isolate_largest_real_root": {"p": ("class", TWO), "hi_bound": ("rational", 4)},
    "largest_root": {
        "p": ("class", build_T(1, 1)),
        "search_hi": ("rational", 4),
        "rel_width": ("rational", Fraction(1, 10**6)),
    },
    "mu_compare": {"a": ("class", FIB), "b": ("class", FIB)},
    "verify_lroot": {"m": ("int", 5, 5)},
    # families
    "TorusMatrixSpec": {"n": ("int", 5, 5), "matrix": ("class", torus_matrix(5).matrix)},
    "cover_upper_bound": {"g": ("int", 2, 2), "n": ("int", 31, 31)},
    "torus_matrix": {"n": ("int", 5, 5)},
    "verify_torus_bounds": {"spec": ("class", torus_matrix(5))},
    # bounds
    "kappa_upper_constant": {"g": ("int", 2, 2)},
    "log_uniform_sample": {"n_lo": ("int", 1, 1), "n_hi": ("int", 100, 5), "count": ("int", 5, 1)},
    "omega_constants": {"g": ("int", 2, 2), "alpha": ("int", 1, 1)},
    "sandwich_table": {
        "g": ("int", 2, 2),
        "n_lo": ("int", 31, 3),
        "n_hi": ("int", 33, 31),
        "sample": ("int or None", None, 1),
    },
    "theta": {"g": ("int", 1, 1)},
    "thm34_lower": {"g": ("int", 2, 2), "n": ("int", 31, 0), "alpha": ("int", 1, 1)},
    # lefschetz
    "HomologyClass": {"coords": ("sequence", (1, 0))},
    "LinearPlaneMap": {"a": ("rational", 2), "b": ("rational", 0), "c": ("rational", 0), "d": ("rational", 3)},
    "SympAction": {"g": ("int", 1, 1), "matrix": ("sequence", ((1, 0), (0, 1)))},
    "linear_index_oracle": {"model": ("class", PLANE)},
    "local_index": {"model": ("class", PLANE)},
    "multitwist_action": {"twists": ("twist list", [(A1, 1)]), "g": ("int", 1, 1)},
    "multitwist_lefschetz": {"twists": ("twist list", [(A1, 1)]), "g": ("int", 1, 1)},
    "symp_form": {"u": ("class", A1), "v": ("class", A1)},
    "transvection": {"gamma": ("class", A1), "power": ("int", 1, None)},
    # suites
    "run_suite": {"name": ("suite name", "quartic-root"), "seed": ("int", 7, None), "cases": ("int or None", 1, 1)},
}

# Result records, built by the library from values it has just certified;
# their constructors check nothing, and a caller who builds one by hand
# certifies nothing with it.
UNCHECKED = {
    "PFEnclosure": "the result record of pf_enclosure",
    "RootEnclosure": "the result record of largest_root and the root lemma",
    "CoverBoundReport": "the result record of cover_upper_bound",
}


def _exported_callables() -> set:
    return {
        name
        for name in dillab.__all__
        if callable(obj := getattr(dillab, name))
        and not (isinstance(obj, type) and issubclass(obj, BaseException))
    }


def test_every_exported_callable_is_in_the_table():
    exported = _exported_callables()
    assert len(exported) == 54
    assert exported == set(TABLE) | set(UNCHECKED)
    assert not set(TABLE) & set(UNCHECKED)
    assert set(spec[0] for params in TABLE.values() for spec in params.values()) == set(BAD)
    assert all(len(spec) == 3 for params in TABLE.values() for spec in params.values() if spec[0].startswith("int"))


class _Hang(Exception):
    pass


@contextmanager
def _time_limit(seconds: int):
    def expire(signum, frame):
        raise _Hang(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("name", sorted(TABLE))
def test_every_bad_argument_is_refused_with_a_dillab_error(name, tmp_path):
    fn = getattr(dillab, name)
    fib_file = tmp_path / "fib.txt"
    fib_file.write_text("2\n1 1\n1 0\n")
    valid = {param: str(fib_file) if spec[1] is FIB_FILE else spec[1] for param, spec in TABLE[name].items()}
    with _time_limit(10):
        fn(**valid)  # the valid call runs, so each refusal below is the bad value's
    for param, (kind, _, *bound) in TABLE[name].items():
        least = bound[0] if bound else None
        bads = BAD[kind]
        if least is not None:
            with _time_limit(10):
                fn(**{**valid, param: least})  # the least valid value is answered
            bads += (least - 1,)
        for bad in bads:
            with _time_limit(5):
                try:
                    result = fn(**{**valid, param: bad})
                except DillabError:
                    continue
                except _Hang:
                    pytest.fail(f"{name}({param}={bad!r}) did not answer")
                except Exception as exc:
                    pytest.fail(f"{name}({param}={bad!r}) raised {type(exc).__name__}: {exc}")
            pytest.fail(f"{name}({param}={bad!r}) returned {result!r}")


DEEP_JSON = '{"k": 1, "rows": ' + "[" * 100_000 + "]" * 100_000 + "}"

# refusals below the top level of an argument, and on callables outside TABLE
NESTED = {
    "IntPoly(((1, 2, 3),))": lambda: IntPoly(((1, 2, 3),)),
    "IntPoly((5,))": lambda: IntPoly((5,)),
    "IntMatrix(((1, 2), None))": lambda: IntMatrix(((1, 2), None)),
    "IntPoly.from_dict(True)": lambda: IntPoly.from_dict(True),
    "SympAction.identity(1).twist(True, 1)": lambda: SympAction.identity(1).twist(True, 1),
    "SympAction.identity(1).apply(True)": lambda: SympAction.identity(1).apply(True),
    "SympAction(1, ((1, 0), None))": lambda: SympAction(1, ((1, 0), None)),
    "parse_matrix_json(DEEP_JSON)": lambda: parse_matrix_json(DEEP_JSON),
    "RatInterval(1, 2).contains(None)": lambda: RatInterval(1, 2).contains(None),
    "RatInterval(1, 2).contains('1/2')": lambda: RatInterval(1, 2).contains("1/2"),
    # a genus below 1 is no symplectic action, and below 2 no cover family
    "SympAction.identity(0)": lambda: SympAction.identity(0),
    "SympAction.identity(-1)": lambda: SympAction.identity(-1),
    "SympAction(0, ())": lambda: SympAction(0, ()),
    "cover_threshold(0)": lambda: cover_threshold(0),
    "cover_threshold(1)": lambda: cover_threshold(1),
    "cover_index(1, 40)": lambda: cover_index(1, 40),
    # the narrower refusals of an argument out of range, a DomainError each
    "path_count(FIB, 0, 2)": lambda: path_count(FIB, 0, 2),
    "path_count(FIB, True, 2)": lambda: path_count(FIB, True, 2),
    "thm34_lower(2, 5, 0)": lambda: thm34_lower(2, 5, 0),
    "SympAction.identity(1).twist(alpha(1, 2), 1)": lambda: SympAction.identity(1).twist(HomologyClass.alpha(1, 2), 1),
    # True is not read as 1, nor a float as an int
    "inth_root(True, 2)": lambda: inth_root(True, 2),
    "inth_root(10, True)": lambda: inth_root(10, True),
    "inth_root(2.5, 2)": lambda: inth_root(2.5, 2),
}


@pytest.mark.parametrize("call", sorted(NESTED))
def test_a_malformed_part_is_refused_with_a_domain_error(call):
    with _time_limit(10), pytest.raises(DomainError):
        NESTED[call]()

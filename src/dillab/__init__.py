"""Certified spectral and dilatation machinery.

Exact rational arithmetic end to end: spectral-radius enclosures for
nonnegative integer matrices, transition-graph path growth, largest roots of
dilatation polynomials with two independent root routes, closed-form bound
families with machine-checked calibration, and Lefschetz numbers of
multitwists and exact fixed-point indices of linear plane models. Floats
steer and integers certify: no certified quantity is computed in floating
point. Floats draw seeded test inputs, which are converted exactly, and
choose the test vector of a slow Perron enclosure, whose bounds are then
computed in integers.

`import dillab` loads no submodule. The first read of an exported name
imports its home submodule (PEP 562) and binds the name here, so later reads
are plain attribute lookups; `dillab.log_enclosure(3)` loads only
`enclosures`, `errors` and `_record`. A submodule name such as
`dillab.suites` resolves the same way. The binding is whatever the home
module holds at the first read: code that patches a home module's function
(perfbench's tracer does) before the package name is first read leaves the
patched object bound here after the patch is undone, so read the name first.
"""

from importlib import import_module

__version__ = "0.1.0"

# each exported name, grouped by the submodule that defines it
_EXPORTS = {
    "enclosures": ("RatInterval", "interval_gap", "log_enclosure", "log_interval", "nth_root_enclosure"),
    "errors": (
        "AlphaOutOfRange", "DegreePreconditionViolated", "DillabError", "DomainError", "FixedPointOnCircle",
        "GenusMismatch", "NoDiagonalEntry", "NoSignChange", "NotIrreducible", "NotPairwiseOrthogonal",
        "ValidationFailed", "VertexOutOfRange",
    ),
    "intmatrix": (
        "IntMatrix", "PFEnclosure", "is_irreducible", "is_positive", "load_matrix", "parse_matrix_json",
        "parse_matrix_text", "pf_enclosure", "render_matrix_json", "render_matrix_text",
        "verify_diagonal_bound",
    ),
    "transgraph": (
        "dilatation_limit_check", "from_matrix", "path_count", "path_count_series", "subdivide_out_edge",
        "to_matrix",
    ),
    "dilpoly": (
        "IntPoly", "RootEnclosure", "build_T", "build_Tm", "char_poly", "compare_largest_roots",
        "count_real_roots_above", "isolate_largest_real_root", "largest_root", "mu_compare", "verify_lroot",
    ),
    "families": (
        "CoverBoundReport", "TorusMatrixSpec", "cover_upper_bound", "torus_matrix", "verify_torus_bounds",
    ),
    "bounds": (
        "kappa_upper_constant", "log_uniform_sample", "omega_constants", "sandwich_table", "theta",
        "thm34_lower",
    ),
    "lefschetz": (
        "HomologyClass", "LinearPlaneMap", "SympAction", "linear_index_oracle", "local_index",
        "multitwist_action", "multitwist_lefschetz", "symp_form", "transvection",
    ),
    "suites": ("SUITES", "run_suite"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")  # binds the submodule here
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__, *_EXPORTS})

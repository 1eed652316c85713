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
"""

from __future__ import annotations

__version__ = "0.1.0"

from .enclosures import (
    RatInterval,
    interval_gap,
    log_enclosure,
    log_interval,
    nth_root_enclosure,
)
from .errors import (
    AlphaOutOfRange,
    DegreePreconditionViolated,
    DillabError,
    DomainError,
    FixedPointOnCircle,
    GenusMismatch,
    NoDiagonalEntry,
    NoSignChange,
    NotIrreducible,
    NotPairwiseOrthogonal,
    ValidationFailed,
    VertexOutOfRange,
)
from .intmatrix import (
    IntMatrix,
    PFEnclosure,
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
from .transgraph import (
    dilatation_limit_check,
    from_matrix,
    path_count,
    path_count_series,
    subdivide_out_edge,
    to_matrix,
)
from .dilpoly import (
    IntPoly,
    RootEnclosure,
    build_T,
    build_Tm,
    char_poly,
    compare_largest_roots,
    count_real_roots_above,
    isolate_largest_real_root,
    largest_root,
    mu_compare,
    verify_lroot,
)
from .families import (
    CoverBoundReport,
    TorusMatrixSpec,
    cover_upper_bound,
    torus_matrix,
    verify_torus_bounds,
)
from .bounds import (
    kappa_upper_constant,
    log_uniform_sample,
    omega_constants,
    sandwich_table,
    theta,
    thm34_lower,
)
from .lefschetz import (
    HomologyClass,
    LinearPlaneMap,
    SympAction,
    linear_index_oracle,
    local_index,
    multitwist_action,
    multitwist_lefschetz,
    symp_form,
    transvection,
)
from .suites import SUITES, run_suite

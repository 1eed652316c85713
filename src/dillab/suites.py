"""Seeded verification suites behind `dillab verify`.

Every suite is a pure function of (seed, cases): the per-case generator is
`random.Random(f"{suite}:{seed}:{case}")`, so case c is the same stream no
matter how many cases run, in what order, or across how many worker
processes. Reports carry no timestamps or timings, which keeps repeated runs
byte-identical. Fractions are rendered as "p/q" strings.

Two suites are sweeps rather than random samples (root-bound over m,
torus-family over n); for those the `cases` knob is the top of the sweep
range.
"""

from __future__ import annotations

import os
import random
from collections.abc import Callable
from contextlib import contextmanager
from fractions import Fraction

from ._record import record
from .bounds import count_sl2_z3, sandwich_table, theta
from .dilpoly import (
    IntPoly,
    build_T,
    build_Tm,
    isolate_largest_real_root,
    largest_root,
    mu_compare,
    verify_lroot,
)
from .enclosures import RatInterval, _require_int, interval_gap, nth_root_enclosure
from .errors import DillabError, DomainError, NoSignChange, NotPairwiseOrthogonal
from .families import torus_matrix, verify_torus_bounds
from .intmatrix import IntMatrix, pf_enclosure, verify_diagonal_bound
from .lefschetz import (
    HomologyClass,
    LinearPlaneMap,
    SympAction,
    linear_index_oracle,
    local_index,
    multitwist_action,
)
from .transgraph import _limit_checks, path_count_series, subdivide_out_edge

MAX_FAILURE_DETAILS = 25


def _case_rng(suite: str, seed: int, case: int) -> random.Random:
    return random.Random(f"{suite}:{seed}:{case}")


def _frs(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


# The one open pool and its worker count; None outside every shared_pool
# block, where parallel_map runs in-process.
_pool = None
_workers = 1


def ProcessPoolExecutor(max_workers: int):
    """The pool shared_pool opens. The process-pool stack is imported here,
    not at module level, so a run that opens no pool never loads it."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=max_workers)


@contextmanager
def shared_pool(jobs: int):
    """Let every parallel_map inside the block share one pool of at most
    os.cpu_count() workers, shut down when the block ends. A block opened
    inside an open block reuses its pool; a cap of 1 opens none. Creating
    the pool starts no process: the workers start at its first map."""
    global _pool, _workers
    jobs = min(jobs, os.cpu_count() or 1)
    if _pool is not None or jobs <= 1:
        yield
        return
    _pool, _workers = ProcessPoolExecutor(max_workers=jobs), jobs
    try:
        yield
    finally:
        pool, _pool = _pool, None
        pool.shutdown()


def parallel_map(fn: Callable, args: list) -> list:
    """Order-preserving map over the open shared_pool, in-process without one.

    fn must be a module-level function and every argument picklable; results
    come back in input order, so parallelism cannot change a report.
    """
    if _pool is None or len(args) <= 1:
        return [fn(a) for a in args]
    chunk = max(1, len(args) // (_workers * 4))
    return list(_pool.map(fn, args, chunksize=chunk))


def random_irreducible_rows(
    rng: random.Random,
    k: int,
    entry_max: int,
    extra_prob: float = 0.25,
    force_diagonal: bool = False,
) -> list:
    """Random irreducible nonnegative integer matrix: a full directed cycle
    through every vertex guarantees strong connectivity, then extra edges are
    sprinkled independently."""
    rows = [[0] * k for _ in range(k)]
    order = list(range(k))
    rng.shuffle(order)
    for t in range(k):
        rows[order[t]][order[(t + 1) % k]] = rng.randint(1, entry_max)
    for i in range(k):
        for j in range(k):
            if rows[i][j] == 0 and rng.random() < extra_prob:
                rows[i][j] = rng.randint(1, entry_max)
    if force_diagonal:
        i = rng.randrange(k)
        if rows[i][i] == 0:
            rows[i][i] = rng.randint(1, entry_max)
    return rows


# ---------------------------------------------------------------------------
# diag-power: positivity of M^(2k) and the certified mu lower bound
# ---------------------------------------------------------------------------


def _diag_power_case(arg: tuple) -> str | None:
    name, seed, idx = arg
    rng = _case_rng(name, seed, idx)
    k = rng.randint(2, 12)
    rows = random_irreducible_rows(rng, k, 4, extra_prob=0.2, force_diagonal=True)
    rep = verify_diagonal_bound(IntMatrix(rows))
    if rep.positive_power and rep.mu_bound_holds:
        return None
    return (
        f"case {idx}: k={k} positive_power={rep.positive_power} "
        f"mu_bound_holds={rep.mu_bound_holds}"
    )


def _run_diag_power(seed: int, cases: int) -> tuple:
    args = [("diag-power", seed, i) for i in range(cases)]
    failures = [f for f in parallel_map(_diag_power_case, args) if f]
    return (cases, failures, {})


# ---------------------------------------------------------------------------
# path-growth: d-th root of path counts lands next to the spectral enclosure
# ---------------------------------------------------------------------------

_PATH_GROWTH_D = 200
_PATH_GROWTH_TOL = Fraction(1, 20)


def _path_growth_case(arg: tuple) -> tuple:
    name, seed, idx = arg
    rng = _case_rng(name, seed, idx)
    k = rng.randint(2, 8)
    # dense, low-weight instances: the d-th root of a path count converges
    # like mu * |log u_i| / d, where u_i is the vertex's eigenvector
    # component, so near-uniform eigenvectors are what makes the fixed
    # d = 200 checkpoint meaningful; sparse heavy graphs converge too slowly
    # for the checkpoint while still satisfying the limit statement
    rows = random_irreducible_rows(rng, k, 2, extra_prob=0.7)
    graph = IntMatrix(rows)
    fails = []
    worst = Fraction(0)
    reports = _limit_checks(graph, range(1, k + 1), _PATH_GROWTH_D, _PATH_GROWTH_TOL)
    for i, rep in enumerate(reports, 1):
        worst = max(worst, rep.last_gap)
        if not rep.converged:
            fails.append(f"case {idx}: vertex {i} gap {_frs(rep.last_gap)} exceeds 1/20")
    return (fails, worst)


def _run_path_growth(seed: int, cases: int) -> tuple:
    args = [("path-growth", seed, i) for i in range(cases)]
    results = parallel_map(_path_growth_case, args)
    failures = [f for fails, _ in results for f in fails]
    worst = max((w for _, w in results), default=Fraction(0))
    extra = {"d": _PATH_GROWTH_D, "tolerance": _frs(_PATH_GROWTH_TOL), "max_gap": _frs(worst)}
    return (cases, failures, extra)


# ---------------------------------------------------------------------------
# multitwist: trace and Lefschetz number of orthogonal twist systems
# ---------------------------------------------------------------------------


def _random_lagrangian_class(rng: random.Random, g: int) -> HomologyClass:
    # the span of the alpha basis is Lagrangian: any two members pair to 0
    return HomologyClass(tuple(rng.randint(-3, 3) for _ in range(g)) + (0,) * g)


def _multitwist_case(arg: tuple) -> str | None:
    name, seed, idx = arg
    rng = _case_rng(name, seed, idx)
    g = rng.randint(1, 6)
    count = rng.randint(1, g + 2)
    classes = [_random_lagrangian_class(rng, g) for _ in range(count)]
    if rng.random() < 0.15:
        classes[rng.randrange(count)] = HomologyClass.zero(g)
    # conjugate the whole Lagrangian by a random symplectic map for variety;
    # orthogonality is preserved, the trace identity must survive
    frame = SympAction.identity(g)
    for _ in range(rng.randint(0, 4)):
        gamma = HomologyClass(tuple(rng.randint(-2, 2) for _ in range(2 * g)))
        frame = frame.twist(gamma, rng.choice((-2, -1, 1, 2)))
    moved = [frame.apply(c) for c in classes]
    powers = [rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)) for _ in range(count)]
    twists = list(zip(moved, powers))
    try:
        action = multitwist_action(twists, g)
    except DillabError as exc:
        return f"case {idx}: g={g} rejected valid system: {exc}"
    if action.trace != 2 * g:
        return f"case {idx}: g={g} trace {action.trace} != {2 * g}"
    lef = action.lefschetz_number
    if lef != 2 - 2 * g:
        return f"case {idx}: g={g} Lefschetz {lef} != {2 - 2 * g}"
    shuffled = rng.sample(twists, len(twists))
    if multitwist_action(shuffled, g).matrix != action.matrix:
        return f"case {idx}: g={g} product depends on twist order"
    if idx % 10 == 0:
        # negative control: a crossing pair must be rejected
        bad = [(HomologyClass.alpha(1, g), 1), (HomologyClass.beta(1, g), 1)]
        try:
            multitwist_action(bad, g)
        except NotPairwiseOrthogonal:
            pass
        else:
            return f"case {idx}: g={g} crossing pair was not rejected"
    return None


def _run_multitwist(seed: int, cases: int) -> tuple:
    args = [("multitwist", seed, i) for i in range(cases)]
    failures = [f for f in parallel_map(_multitwist_case, args) if f]
    return (cases, failures, {})


# ---------------------------------------------------------------------------
# root-bound: verify_lroot sweep with decay and the exact cube inequality
# ---------------------------------------------------------------------------


def _root_bound_case(arg: tuple) -> tuple:
    (m,) = arg
    fails = []
    rep = verify_lroot(m)
    for label, flag in (
        ("bound", rep.bound_holds),
        ("ineq1", rep.ineq1),
        ("ineq2", rep.ineq2),
        ("ineq3", rep.ineq3),
    ):
        if not flag:
            fails.append(f"m={m}: {label} failed")
    if build_Tm(m)(Fraction(1)) != -4:
        fails.append(f"m={m}: T_m(1) != -4")
    hi = rep.root.hi
    if hi**m > m**3:
        fails.append(f"m={m}: root.hi^m exceeds m^3")
    return (fails, hi, hi - rep.root.lo)


def _run_root_bound(seed: int, cases: int) -> tuple:
    m_hi = max(cases, 5)
    args = [(m,) for m in range(5, m_hi + 1)]
    results = parallel_map(_root_bound_case, args)
    failures = [f for fails, _, _ in results for f in fails]
    slack = Fraction(1, 10**6)
    prev = None
    for (m,), (_, hi, _) in zip(args, results):
        if prev is not None and hi >= prev * (1 + slack):
            failures.append(f"m={m}: root bound failed to decay")
        prev = hi
    max_width = max((width for _, _, width in results), default=Fraction(0))
    extra = {
        "m_lo": 5,
        "m_hi": m_hi,
        "max_root_width": _frs(max_width),
        "last_root_hi": _frs(prev) if prev is not None else None,
    }
    return (len(args), failures, extra)


# ---------------------------------------------------------------------------
# quartic-root: the two root routes agree on the (3+sqrt 5)/2 polynomial
# ---------------------------------------------------------------------------


def _run_quartic_root(seed: int, cases: int) -> tuple:
    failures = []
    target_width = Fraction(1, 10**9)
    enc = largest_root(build_T(1, 1), search_hi=4, rel_width=Fraction(1, 10**10))
    if enc.hi - enc.lo > target_width:
        failures.append(f"enclosure width {_frs(enc.hi - enc.lo)} above 1e-9")
    # the golden-mean-square factor of T(1,1): largest root (3 + sqrt 5)/2
    oracle = isolate_largest_real_root(IntPoly.from_dict({2: 1, 1: -3, 0: 1}), hi_bound=4)
    if interval_gap(RatInterval(enc.lo, enc.hi), oracle) != 0:
        failures.append("bisection route and Sturm route disagree")
    s2 = largest_root(IntPoly.from_dict({2: 1, 0: -2}), search_hi=2)
    if not (s2.lo**2 < 2 < s2.hi**2):
        failures.append("sqrt(2) sanity bracket wrong")
    try:
        largest_root(IntPoly.from_dict({2: 1, 0: -2}), search_hi=Fraction(6, 5))
    except NoSignChange:
        pass
    else:
        failures.append("undersized search_hi was not rejected")
    try:
        largest_root(IntPoly.from_dict({2: 1, 1: 1, 0: 1}), search_hi=3)
    except DomainError:
        pass
    else:
        failures.append("p(1) > 0 was not rejected")
    extra = {
        "enclosure_lo": _frs(enc.lo),
        "enclosure_hi": _frs(enc.hi),
        "oracle_lo": _frs(oracle.lo),
        "oracle_hi": _frs(oracle.hi),
    }
    return (1, failures, extra)


# ---------------------------------------------------------------------------
# torus-family: reconstruction contract, spectral cap 9, per-n dilatation cap
# ---------------------------------------------------------------------------


def _torus_family_case(arg: tuple) -> tuple:
    """verify_torus_bounds checks the max column sum 9, which bounds mu
    (Collatz-Wielandt with v = 1 on the transpose): lambda <= 9^(1/n) at any
    n. Small n and a thin subsample of large n also get a direct enclosure,
    where mu sits near 5.83 below 9; it must meet [min column sum, 9]."""
    (n,) = arg
    fails = []
    spec = torus_matrix(n)
    try:
        report = verify_torus_bounds(spec)
    except DillabError as exc:
        fails.append(f"n={n}: {exc}")
        return (fails, None)
    lam_hi = nth_root_enclosure(report.max_col_sum, n).hi
    cap = nth_root_enclosure(11, n).hi
    if lam_hi > cap:
        fails.append(f"n={n}: dilatation bound {_frs(lam_hi)} above 11^(1/n)")
    margin = None
    if n <= 40 or n % 40 == 0:
        rel = Fraction(1, 10**9) if n <= 40 else Fraction(1, 10**3)
        tight = pf_enclosure(spec.matrix, rel_width=rel)
        if tight.hi >= 9:
            fails.append(f"n={n}: direct enclosure failed to land below 9")
        if tight.lo > report.max_col_sum or min(spec.matrix.col_sums()) > tight.hi:
            fails.append(f"n={n}: the two spectral routes are disjoint")
        margin = 9 - tight.hi
    return (fails, margin)


def _run_torus_family(seed: int, cases: int) -> tuple:
    n_hi = max(cases, 5)
    args = [(n,) for n in range(5, n_hi + 1)]
    results = parallel_map(_torus_family_case, args)
    failures = [f for fails, _ in results for f in fails]
    margins = [margin for _, margin in results if margin is not None]
    min_margin = min(margins, default=None)
    extra = {
        "n_lo": 5,
        "n_hi": n_hi,
        "min_direct_margin_below_9": _frs(min_margin) if min_margin is not None else None,
    }
    return (len(args), failures, extra)


# ---------------------------------------------------------------------------
# congruence-index: the order formula against brute-force enumeration
# ---------------------------------------------------------------------------


def _run_congruence_index(seed: int, cases: int) -> tuple:
    failures = []
    counted = count_sl2_z3()
    if counted != 24:
        failures.append(f"enumeration found {counted} matrices, expected 24")
    if theta(1) != counted:
        failures.append(f"theta(1) = {theta(1)} != enumerated {counted}")
    if theta(2) != 51840:
        failures.append(f"theta(2) = {theta(2)} != 51840")
    expected3 = 3**9 * (3**2 - 1) * (3**4 - 1) * (3**6 - 1)
    if theta(3) != expected3:
        failures.append(f"theta(3) = {theta(3)} != {expected3}")
    return (1, failures, {"theta_1": theta(1), "theta_2": theta(2)})


# ---------------------------------------------------------------------------
# subdivision: spectral drop (certified + exact) and the literal shift law
# ---------------------------------------------------------------------------

_SHIFT_D_MAX = 20


def _subdivision_case(arg: tuple) -> dict:
    name, seed, idx = arg
    rng = _case_rng(name, seed, idx)
    base_k = rng.randint(2, 7)
    rows = random_irreducible_rows(rng, base_k, 3, extra_prob=0.25)
    edges = [(i, j) for i in range(base_k) for j in range(base_k) if rows[i][j]]
    u, w = edges[rng.randrange(len(edges))]
    # splice a fresh vertex onto edge u -> w, keeping the original edge, so
    # the new vertex has in- and out-multiplicity exactly 1 and the graph
    # stays strongly connected
    k = base_k + 1
    grid = [row + [0] for row in rows] + [[0] * k]
    grid[u][k - 1] = 1
    grid[k - 1][w] = 1
    graph = IntMatrix(grid)
    i = k
    sub = subdivide_out_edge(graph, i)

    out: dict = {"fails": [], "shift_bad_d": None, "witness": None}
    base_counts = path_count_series(graph, i, _SHIFT_D_MAX)
    sub_counts = path_count_series(sub, i, _SHIFT_D_MAX + 1)
    for d in range(_SHIFT_D_MAX + 1):
        if sub_counts[d + 1] != base_counts[d]:
            out["shift_bad_d"] = d
            out["witness"] = (
                f"case {idx}: rows={grid} vertex={i} "
                f"P(i,{d})={base_counts[d]} vs subdivided P(i,{d + 1})={sub_counts[d + 1]}"
            )
            break

    mu = pf_enclosure(graph)
    mu1 = pf_enclosure(sub)
    if mu1.hi > mu.hi:
        out["fails"].append(
            f"case {idx}: hi(mu) rose after subdivision ({_frs(mu1.hi)} > {_frs(mu.hi)})"
        )
    if mu1.lo > mu.hi:
        out["fails"].append(f"case {idx}: intervals ordered the wrong way around")
    if mu_compare(sub, graph) > 0:
        out["fails"].append(f"case {idx}: exact spectral comparison says mu grew")
    return out


def _run_subdivision(seed: int, cases: int) -> tuple:
    args = [("subdivision", seed, i) for i in range(cases)]
    results = parallel_map(_subdivision_case, args)
    interval_failures = [f for r in results for f in r["fails"]]
    shift_failures = [
        f"case {a[2]}: path-shift law broke first at d={r['shift_bad_d']}"
        for a, r in zip(args, results)
        if r["shift_bad_d"] is not None
    ]
    witness = next((r["witness"] for r in results if r["witness"]), None)
    extra = {
        "interval_failure_count": len(interval_failures),
        "shift_failure_count": len(shift_failures),
        "shift_law_holds": not shift_failures,
        "shift_counterexample": witness,
        "shift_d_max": _SHIFT_D_MAX,
    }
    return (cases, interval_failures + shift_failures, extra)


# ---------------------------------------------------------------------------
# local-index: exact winding number against the sign-of-determinant oracle
# ---------------------------------------------------------------------------

_INDEX_BATTERY = (
    (LinearPlaneMap(2, 0, 0, 3), 1),
    # rotation by the angle with cosine 3/5 and sine 4/5
    (LinearPlaneMap(Fraction(3, 5), Fraction(-4, 5), Fraction(4, 5), Fraction(3, 5)), 1),
    (LinearPlaneMap(2, 0, 0, Fraction(1, 2)), -1),
)


def _local_index_case(arg: tuple) -> str | None:
    name, seed, idx = arg
    if idx == 0:
        for model, expected in _INDEX_BATTERY:
            got = local_index(model)
            if got != expected:
                return f"battery: {model}: index {got} != {expected}"
            if got != linear_index_oracle(model):
                return f"battery: {model} disagrees with the determinant oracle"
        return None
    rng = _case_rng(name, seed, idx)
    while True:
        a, b, c, d = (rng.uniform(-3.0, 3.0) for _ in range(4))
        model = LinearPlaneMap(a, b, c, d)
        if model.det_minus_identity() != 0:
            break
    got = local_index(model)
    want = linear_index_oracle(model)
    if got != want:
        return f"case {idx}: {model}: winding {got} != oracle {want}"
    return None


def _run_local_index(seed: int, cases: int) -> tuple:
    args = [("local-index", seed, i) for i in range(cases + 1)]
    failures = [f for f in parallel_map(_local_index_case, args) if f]
    extra = {"battery_models": len(_INDEX_BATTERY)}
    return (len(args), failures, extra)


# ---------------------------------------------------------------------------
# sandwich: the certified two-sided table for genus 2
# ---------------------------------------------------------------------------

_SANDWICH_G = 2
_SANDWICH_N_LO = 31
_SANDWICH_N_HI = 10_000


def _run_sandwich(seed: int, cases: int) -> tuple:
    failures = []
    rep = sandwich_table(_SANDWICH_G, _SANDWICH_N_LO, _SANDWICH_N_HI, sample=cases)
    rows = rep.rows
    if len(rows) < min(cases, _SANDWICH_N_HI - _SANDWICH_N_LO + 1):
        failures.append(f"only {len(rows)} sample points, wanted {cases}")
    prev_n = None
    for row in rows:
        if prev_n is not None and row.n <= prev_n:
            failures.append(f"n={row.n}: sample not strictly increasing")
        prev_n = row.n
        if not (_SANDWICH_N_LO <= row.n <= _SANDWICH_N_HI):
            failures.append(f"n={row.n}: outside the requested range")
        if row.upper is None:
            failures.append(f"n={row.n}: no upper bound despite n above threshold")
        elif row.lower >= row.upper:
            failures.append(f"n={row.n}: lower bound not below upper bound")
        if row.lower <= 0:
            failures.append(f"n={row.n}: lower bound not positive")
    extra = {
        "g": _SANDWICH_G,
        "n_lo": _SANDWICH_N_LO,
        "n_hi": _SANDWICH_N_HI,
        "rows": len(rows),
        "first_n": rows[0].n if rows else None,
        "last_n": rows[-1].n if rows else None,
        "omega_hi": _frs(rep.omega.hi),
        "kappa_prime": _frs(rep.kappa_prime) if rep.kappa_prime is not None else None,
    }
    return (len(rows), failures, extra)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


@record
class SuiteSpec:
    # runner(seed, cases) -> (cases run, failures, extra report fields)
    runner: Callable
    default_cases: int
    cases_meaning: str
    summary: str


SUITES: dict[str, SuiteSpec] = {
    "diag-power": SuiteSpec(
        _run_diag_power,
        200,
        "random matrices",
        "M^(2k) positivity and the certified spectral lower bound",
    ),
    "path-growth": SuiteSpec(
        _run_path_growth,
        50,
        "random graphs",
        "200th root of path counts vs the spectral enclosure, every vertex",
    ),
    "multitwist": SuiteSpec(
        _run_multitwist,
        200,
        "random twist systems",
        "trace 2g and Lefschetz number 2-2g for orthogonal multitwists",
    ),
    "root-bound": SuiteSpec(
        _run_root_bound,
        200,
        "top of the m sweep",
        "largest-root bound m^(3/m) with decay, m = 5 upward",
    ),
    "quartic-root": SuiteSpec(
        _run_quartic_root,
        1,
        "fixed",
        "bisection vs Sturm on the degree-4 dilatation polynomial",
    ),
    "torus-family": SuiteSpec(
        _run_torus_family,
        200,
        "top of the n sweep",
        "torus-cover matrices: contract, spectral cap 9, 11^(1/n) cap",
    ),
    "congruence-index": SuiteSpec(
        _run_congruence_index,
        1,
        "fixed",
        "congruence subgroup index formula vs brute-force enumeration",
    ),
    "subdivision": SuiteSpec(
        _run_subdivision,
        100,
        "random spliced graphs",
        "spectral drop under edge subdivision plus the literal shift law",
    ),
    "local-index": SuiteSpec(
        _run_local_index,
        50,
        "random linear maps",
        "winding-number fixed-point index vs the determinant-sign oracle",
    ),
    "sandwich": SuiteSpec(
        _run_sandwich,
        50,
        "sample points",
        "two-sided certified dilatation bounds, genus 2, n up to 10^4",
    ),
}


def run_suite(name: str, seed: int = 7, cases: int | None = None) -> dict:
    if name not in SUITES:
        known = ", ".join(sorted(SUITES))
        raise DomainError(f"unknown suite {name!r}; known: {known}")
    spec = SUITES[name]
    n = spec.default_cases if cases is None else cases
    _require_int("run_suite", "seed", seed)
    _require_int("run_suite", "cases", n, 1)
    count, failures, extra = spec.runner(seed, n)
    return {
        "suite": name,
        "seed": seed,
        "cases": count,
        "failure_count": len(failures),
        "failures": failures[:MAX_FAILURE_DETAILS],
        "passed": not failures,
        **extra,
    }

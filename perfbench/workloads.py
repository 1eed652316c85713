"""Inputs, certificates and independent checks of the library workloads.

A workload's inputs form one pass: a list of instances (one torus n, one
random matrix, one root index m, one spliced graph, ...). An instance is a
short chain of certificates, each one public dillab call whose latency is
timed on its own, followed by a check that uses only this file's arithmetic.
A run repeats the same pass, so every certificate is timed several times.

Instance i draws its random structure from
`random.Random(f"{workload}:{seed}:{i}")`. Sizes are log-uniform on a
stratified grid: each of `strata` equal slices of the log range holds an
antithetic pair at offsets u and 1 - u inside the slice, with u drawn from the
seed in [0.4, 0.5]. The outermost two sizes are pinned to the ends of the
range, so the smallest and the largest instance run on every seed. The other
sizes change with the seed, but every seed gets the same mix of small and
large instances, so neither the pass cost nor its tail percentiles hinge on
how many large instances a seed happens to draw. This departs from plain
log-uniform draws on purpose.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import dillab as dl


@dataclass
class Instance:
    """Certificates run in order; each call gets the results so far."""

    label: str
    calls: list[tuple[str, Callable[[dict], object]]]
    check: Callable[[dict], list[tuple[str, str]]]  # (certificate key, problem)


def _offset(workload: str, seed: int) -> float:
    return 0.4 + 0.1 * random.Random(f"{workload}:{seed}").random()


def lattice_sizes(u: float, strata: int, lo: int, hi: int) -> list[int]:
    """2 * strata integer sizes, log-uniform on [lo, hi], antithetic pairs,
    ascending; the first is lo and the last is hi."""
    span = math.log(hi / lo)
    out = []
    for j in range(strata):
        for x in (j + u, j + 1 - u):
            out.append(min(hi, max(lo, round(lo * math.exp(span * x / strata)))))
    out[0], out[-1] = lo, hi
    return out


def random_irreducible(rng: random.Random, k: int, entry_max: int = 3, extra: float = 0.25) -> list:
    """A directed cycle through every vertex, plus independent extra edges."""
    rows = [[0] * k for _ in range(k)]
    order = list(range(k))
    rng.shuffle(order)
    for t in range(k):
        rows[order[t]][order[(t + 1) % k]] = rng.randint(1, entry_max)
    for i in range(k):
        for j in range(k):
            if rows[i][j] == 0 and rng.random() < extra:
                rows[i][j] = rng.randint(1, entry_max)
    return rows


# ---------------------------------------------------------------------------
# independent arithmetic
# ---------------------------------------------------------------------------


def strongly_connected(rows: list) -> bool:
    k = len(rows)

    def reach(adj) -> int:
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen)

    fwd = [[j for j in range(k) if rows[i][j]] for i in range(k)]
    rev = [[i for i in range(k) if rows[i][j]] for j in range(k)]
    return reach(fwd) == k and reach(rev) == k


def meets_row_sum_range(enc, rows: list) -> str | None:
    """The Perron root of a nonnegative matrix lies in [min row sum, max row sum]."""
    sums = [sum(r) for r in rows]
    if not enc.lo <= enc.hi:
        return f"lo {enc.lo} above hi {enc.hi}"
    if enc.hi < min(sums) or enc.lo > max(sums):
        return f"[{enc.lo}, {enc.hi}] misses the row-sum range [{min(sums)}, {max(sums)}]"
    return None


def t_coeffs(m: int) -> dict[int, int]:
    """T_m = (x-1) x^(s+t+1) - 2 (x^(s+1) + x^(t+1)) - (x-1), s = m//2, t = m - s."""
    s, t = m // 2, m - m // 2
    c: dict[int, int] = {}
    for e, v in ((s + t + 2, 1), (s + t + 1, -1), (s + 1, -2), (t + 1, -2), (1, -1), (0, 1)):
        c[e] = c.get(e, 0) + v
    return {e: v for e, v in c.items() if v}


def sign_at(coeffs: dict[int, int], x: Fraction) -> int:
    """Exact sign of p(x) at x = a/b: integer Horner over the sparse exponents
    of the homogenised sum b^deg p(a/b) = sum c_e a^e b^(deg - e)."""
    a, b = x.numerator, x.denominator
    exps = sorted(coeffs, reverse=True)
    acc, b_pow = coeffs[exps[0]], 1
    for hi_e, lo_e in zip(exps, exps[1:]):
        b_pow *= b ** (hi_e - lo_e)
        acc = acc * a ** (hi_e - lo_e) + coeffs[lo_e] * b_pow
    acc *= a ** exps[-1]
    return (acc > 0) - (acc < 0)


def sign_variations(coeffs: dict[int, int]) -> int:
    signs = [coeffs[e] > 0 for e in sorted(coeffs)]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def root_problems(m: int, root) -> list[str]:
    """The bracket holds the largest root of T_m and lies below m^(3/m)."""
    coeffs = t_coeffs(m)
    out = []
    # two sign variations, p(0) > 0 > p(1): by Descartes exactly one root
    # exceeds 1, and every other real root is below 1
    if sign_variations(coeffs) != 2 or sign_at(coeffs, Fraction(0)) <= 0 or sign_at(coeffs, Fraction(1)) >= 0:
        out.append(f"T_{m} lost its Descartes shape")
    if not (1 <= root.lo < root.hi):
        out.append(f"bracket [{root.lo}, {root.hi}] not above 1")
    if sign_at(coeffs, root.lo) >= 0 or sign_at(coeffs, root.hi) <= 0:
        out.append(f"T_{m} has no sign change on [{root.lo}, {root.hi}]")
    if not root.hi.numerator**m < m**3 * root.hi.denominator**m:
        out.append(f"hi^m >= m^3 at m={m}")
    return out


# ---------------------------------------------------------------------------
# perron: iteration-bound spectral enclosures
# ---------------------------------------------------------------------------

PERRON_TORUS = (8, 5, 60)  # strata, smallest n, largest n
PERRON_RANDOM = (192, 20, 120)  # strata, smallest k, largest k


def _torus_instance(n: int) -> Instance:
    def check(r: dict) -> list:
        spec, rep = r["torus.bounds"]
        rows = [list(row) for row in spec.matrix.entries]
        cols = [list(c) for c in zip(*rows)]
        bad = []
        ok = (
            rep.max_col_sum == max(map(sum, cols)) == 9
            and rep.max_row_sum == max(map(sum, rows)) == 11
            and rep.irreducible == strongly_connected(rows) is True
            and float(rep.log_dil_bound) >= math.log(11) / n * (1 - 1e-12)
            and float(rep.sharper_log_bound) >= math.log(9) / n * (1 - 1e-12)
            and rep.sharper_log_bound < rep.log_dil_bound
        )
        if not ok:
            bad.append(("torus.bounds", f"n={n}: contract report disagrees with the matrix"))
        col, direct = r["torus.col"], r["torus.direct"]
        problem = meets_row_sum_range(col, cols)
        if problem or col.hi > 9:
            bad.append(("torus.col", f"n={n}: column route {problem or 'hi above 9'}"))
        problem = meets_row_sum_range(direct, rows)
        if problem or direct.lo > col.hi or col.lo > direct.hi:
            bad.append(("torus.direct", f"n={n}: direct route {problem or 'misses the column route'}"))
        return bad

    def bounds(r: dict):
        spec = dl.torus_matrix(n)
        return spec, dl.verify_torus_bounds(spec)

    return Instance(
        f"torus n={n}",
        [
            ("torus.bounds", bounds),
            ("torus.col", lambda r: dl.pf_enclosure(r["torus.bounds"][0].matrix.transpose(), hi_target=Fraction(9))),
            ("torus.direct", lambda r: dl.pf_enclosure(r["torus.bounds"][0].matrix, rel_width=Fraction(1, 10**9))),
        ],
        check,
    )


def _random_instance(rows: list) -> Instance:
    def check(r: dict) -> list:
        problem = meets_row_sum_range(r["random.pf"], rows)
        return [("random.pf", f"k={len(rows)}: {problem}")] if problem else []

    return Instance(
        f"random k={len(rows)}",
        [("random.pf", lambda r: dl.pf_enclosure(dl.IntMatrix.from_rows(rows)))],
        check,
    )


def perron_pass(seed: int) -> list[Instance]:
    u = _offset("perron", seed)
    ns = lattice_sizes(u, *PERRON_TORUS)
    out = [_torus_instance(n) for n in ns]
    for j, k in enumerate(lattice_sizes(u, *PERRON_RANDOM)):
        rng = random.Random(f"perron:{seed}:{len(ns) + j}")
        out.append(_random_instance(random_irreducible(rng, k)))
    return out


# ---------------------------------------------------------------------------
# roots: high-degree root certificates and the sandwich
# ---------------------------------------------------------------------------

ROOTS_LROOT = (4, 5, 2000)  # strata, smallest m, largest m
ROOTS_COVER = (32, 2000)  # strata per genus, largest n
ROOTS_GENERA = (2, 3, 4)
SANDWICH_N_HI = (9800, 10200)
SANDWICH_SAMPLE = 6


def _lroot_instance(m: int) -> Instance:
    def check(r: dict) -> list:
        rep = r["lroot"]
        bad = root_problems(m, rep.root)
        if rep.m != m or not (rep.bound_holds and rep.ineq1 and rep.ineq2 and rep.ineq3):
            bad.append(f"m={m}: report does not claim the bound")
        if rep.bound_holds and not rep.root.hi < rep.m_power_enclosure.lo:
            bad.append(f"m={m}: bound claimed, but root hi is not below m^(3/m) lo")
        return [("lroot", f"m={m}: {b}") for b in bad]

    return Instance(f"lroot m={m}", [("lroot", lambda r: dl.verify_lroot(m))], check)


def _cover_instance(g: int, n: int) -> Instance:
    m = (n - 1) // (2 * g + 1) - 1

    def check(r: dict) -> list:
        rep = r["cover"]
        bad = [] if rep.m == m else [f"index m={rep.m}, expected {m}"]
        bad += root_problems(m, rep.root)
        hi = float(rep.log_root.hi)
        if hi < math.log(float(rep.root.hi)) - 1e-12 or hi > 3 * math.log(m) / m + 1e-12:
            bad.append(f"log root hi {hi} outside [log(root hi), 3 log(m)/m]")
        return [("cover", f"g={g} n={n}: {b}") for b in bad]

    return Instance(f"cover g={g} n={n}", [("cover", lambda r: dl.cover_upper_bound(g, n))], check)


def _sandwich_instance(n_hi: int) -> Instance:
    def check(r: dict) -> list:
        rows = r["sandwich"].rows
        bad = [] if len(rows) >= SANDWICH_SAMPLE else [f"{len(rows)} rows"]
        for row in rows:
            if row.upper is None or not 0 < row.lower < row.upper:
                bad.append(f"row n={row.n}: not 0 < lower < upper")
        return [("sandwich", f"n_hi={n_hi}: {b}") for b in bad]

    return Instance(
        f"sandwich n_hi={n_hi}",
        [("sandwich", lambda r: dl.sandwich_table(2, 31, n_hi, sample=SANDWICH_SAMPLE))],
        check,
    )


def roots_pass(seed: int) -> list[Instance]:
    u = _offset("roots", seed)
    out = [_lroot_instance(m) for m in lattice_sizes(u, *ROOTS_LROOT)]
    strata, n_top = ROOTS_COVER
    for g in ROOTS_GENERA:
        threshold = 6 * (2 * g + 1) + 1
        out += [_cover_instance(g, n) for n in lattice_sizes(u, strata, threshold, n_top)]
    n_hi = random.Random(f"roots:{seed}:{len(out)}").randint(*SANDWICH_N_HI)
    out.append(_sandwich_instance(n_hi))
    return out


# ---------------------------------------------------------------------------
# oracle: many tiny exact comparisons
# ---------------------------------------------------------------------------

ORACLE_SIZES = (3, 4, 5, 6, 7, 8)  # vertices after the splice
ORACLE_EACH = 6  # graphs of each size a pass: 36 graphs, 216 certificates
ORACLE_D_MAX = 20


def spliced_graph(rng: random.Random, k: int) -> list:
    """A random irreducible graph on k - 1 vertices plus a fresh vertex spliced
    onto one of its edges u -> w (the edge stays), so the new vertex k has in-
    and out-multiplicity 1 and the graph stays strongly connected."""
    rows = random_irreducible(rng, k - 1)
    edges = [(i, j) for i in range(k - 1) for j in range(k - 1) if rows[i][j]]
    u, w = edges[rng.randrange(len(edges))]
    grid = [row + [0] for row in rows] + [[0] * k]
    grid[u][k - 1] = 1
    grid[k - 1][w] = 1
    return grid


def _path_counts(rows: list, v: int, d_max: int) -> list[int]:
    vec = [1] * len(rows)
    out = [vec[v]]
    for _ in range(d_max):
        vec = [sum(m * vec[j] for j, m in enumerate(row) if m) for row in rows]
        out.append(vec[v])
    return out


def _oracle_instance(grid: list) -> Instance:
    k = len(grid)
    i = k  # the spliced vertex, 1-based
    j = grid[k - 1].index(1)
    sub = [row + [0] for row in grid] + [[0] * (k + 1)]
    sub[k - 1] = [0] * (k + 1)
    sub[k - 1][k] = 1
    sub[k][j] = 1

    def subdivide(r: dict):
        graph = dl.from_matrix(dl.IntMatrix.from_rows(grid))
        return graph, dl.subdivide_out_edge(graph, i)

    def path_counts(graph) -> list[int]:
        # one certificate: P(i, d) for every d <= ORACLE_D_MAX
        return [dl.path_count(graph, i, d) for d in range(ORACLE_D_MAX + 1)]

    calls = [
        ("subdivide", subdivide),
        ("path.base", lambda r: path_counts(r["subdivide"][0])),
        ("path.sub", lambda r: path_counts(r["subdivide"][1])),
        ("pf.base", lambda r: dl.pf_enclosure(dl.to_matrix(r["subdivide"][0]))),
        ("pf.sub", lambda r: dl.pf_enclosure(dl.to_matrix(r["subdivide"][1]))),
        ("mu", lambda r: dl.mu_compare(dl.to_matrix(r["subdivide"][1]), dl.to_matrix(r["subdivide"][0]))),
    ]

    def check(r: dict) -> list:
        bad = []
        _, got_sub = r["subdivide"]
        want = tuple(sorted((a + 1, b + 1, m) for a, row in enumerate(sub) for b, m in enumerate(row) if m))
        if got_sub.vertex_count != k + 1 or got_sub.edges != want:
            bad.append(("subdivide", "subdivided graph differs from the spliced edge table"))
        for tag, rows in (("base", grid), ("sub", sub)):
            if r[f"path.{tag}"] != _path_counts(rows, i - 1, ORACLE_D_MAX):
                bad.append((f"path.{tag}", "path counts disagree with the matrix-vector recurrence"))
            problem = meets_row_sum_range(r[f"pf.{tag}"], rows)
            if problem:
                bad.append((f"pf.{tag}", problem))
        base, sub_enc, cmp = r["pf.base"], r["pf.sub"], r["mu"]
        expect = -1 if sub_enc.hi < base.lo else 1 if sub_enc.lo > base.hi else None
        if cmp not in (-1, 0, 1) or (expect is not None and cmp != expect):
            bad.append(("mu", f"mu_compare gave {cmp}, the enclosures say {expect}"))
        return [(key, f"k={k}: {msg}") for key, msg in bad]

    return Instance(f"graph k={k}", calls, check)


def oracle_pass(seed: int) -> list[Instance]:
    out = []
    for i, k in enumerate(ORACLE_SIZES * ORACLE_EACH):
        rng = random.Random(f"oracle:{seed}:{i}")
        out.append(_oracle_instance(spliced_graph(rng, k)))
    return out


PASSES = {"perron": perron_pass, "roots": roots_pass, "oracle": oracle_pass}

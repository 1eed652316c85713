"""Directed-multigraph view of a transition matrix.

Vertices are labeled 1..vertex_count (the matrix row/column index plus one);
every operation that takes a vertex uses that labeling. The graph carries no
data beyond the adjacency multiplicities, so serialization is simply the
matrix formats of intmatrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .enclosures import RatInterval, interval_gap, nth_root_enclosure
from .errors import DegreePreconditionViolated, DomainError, NotIrreducible, VertexOutOfRange
from .intmatrix import IntMatrix, is_irreducible, pf_enclosure

__all__ = [
    "TransGraph",
    "LimitCheckReport",
    "from_matrix",
    "to_matrix",
    "path_count",
    "path_count_series",
    "dilatation_limit_check",
    "subdivide_out_edge",
]


@dataclass(frozen=True)
class TransGraph:
    """Multigraph as a canonical sorted edge table: (i, j, multiplicity)."""

    vertex_count: int
    edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        if self.vertex_count < 1:
            raise ValueError("vertex_count must be >= 1")
        seen = set()
        cleaned = []
        for i, j, m in self.edges:
            if not (1 <= i <= self.vertex_count and 1 <= j <= self.vertex_count):
                raise VertexOutOfRange(f"edge ({i}, {j}) outside 1..{self.vertex_count}")
            if m < 0:
                raise ValueError("edge multiplicity must be >= 0")
            if m == 0:
                continue
            if (i, j) in seen:
                raise ValueError(f"duplicate edge entry ({i}, {j})")
            seen.add((i, j))
            cleaned.append((i, j, m))
        object.__setattr__(self, "edges", tuple(sorted(cleaned)))

    def multiplicity(self, i: int, j: int) -> int:
        self._check_vertex(i)
        self._check_vertex(j)
        for a, b, m in self.edges:
            if a == i and b == j:
                return m
        return 0

    def out_multiplicity(self, i: int) -> int:
        self._check_vertex(i)
        return sum(m for a, _, m in self.edges if a == i)

    def in_multiplicity(self, j: int) -> int:
        self._check_vertex(j)
        return sum(m for _, b, m in self.edges if b == j)

    def _check_vertex(self, i: int) -> None:
        if not (1 <= i <= self.vertex_count):
            raise VertexOutOfRange(f"vertex {i} outside 1..{self.vertex_count}")


@dataclass(frozen=True)
class LimitCheckReport:
    converged: bool
    last_gap: Fraction
    d: int
    vertex: int
    root_interval: RatInterval
    spectral_interval: RatInterval

    def to_json_dict(self) -> dict:
        return {
            "converged": self.converged,
            "last_gap": str(self.last_gap),
            "d": self.d,
            "vertex": self.vertex,
            "root_lo": str(self.root_interval.lo),
            "root_hi": str(self.root_interval.hi),
            "spectral_lo": str(self.spectral_interval.lo),
            "spectral_hi": str(self.spectral_interval.hi),
        }


def from_matrix(matrix: IntMatrix) -> TransGraph:
    edges = []
    for r, row in enumerate(matrix.entries):
        for c, m in enumerate(row):
            if m:
                edges.append((r + 1, c + 1, m))
    return TransGraph(vertex_count=matrix.k, edges=tuple(edges))


def to_matrix(graph: TransGraph) -> IntMatrix:
    k = graph.vertex_count
    rows = [[0] * k for _ in range(k)]
    for i, j, m in graph.edges:
        rows[i - 1][j - 1] = m
    return IntMatrix.from_rows(rows)


def _sparse_rows(graph: TransGraph) -> list[list[tuple[int, int]]]:
    rows: list[list[tuple[int, int]]] = [[] for _ in range(graph.vertex_count)]
    for i, j, m in graph.edges:
        rows[i - 1].append((j - 1, m))
    return rows


def path_count(graph: TransGraph, i: int, d: int) -> int:
    """Number of directed paths of length d starting at vertex i, exactly.

    This is the i-th row sum of the d-th matrix power; the empty path counts,
    so d = 0 gives 1.
    """
    return path_count_series(graph, i, d)[-1]


def path_count_series(graph: TransGraph, i: int, d_max: int) -> tuple[int, ...]:
    """path_count(graph, i, d) for every d = 0..d_max, in one sweep."""
    graph._check_vertex(i)
    if d_max < 0:
        raise DomainError("path length must be >= 0")
    rows = _sparse_rows(graph)
    v = [1] * graph.vertex_count
    out = [v[i - 1]]
    for _ in range(d_max):
        v = [sum(m * v[j] for j, m in row) for row in rows]
        out.append(v[i - 1])
    return tuple(out)


def dilatation_limit_check(
    graph: TransGraph,
    i: int,
    d_max: int,
    tol,
    rel_width: Fraction | None = None,
    max_iters: int | None = None,
) -> LimitCheckReport:
    """Compare the d-th root of the path count against the certified
    spectral enclosure.

    The d-th root of P(i, d) is bracketed by exact integer root extraction
    (no floating point), and convergence means that bracket overlaps the
    spectral enclosure widened by tol on each side. last_gap is the distance
    between the two unwidened intervals, 0 when they already overlap.
    """
    graph._check_vertex(i)
    if d_max < 1:
        raise DomainError("d_max must be >= 1")
    tol = Fraction(tol)
    matrix = to_matrix(graph)
    if not is_irreducible(matrix):
        raise NotIrreducible("dilatation_limit_check requires an irreducible graph")
    p = path_count(graph, i, d_max)
    root_iv = nth_root_enclosure(p, d_max)
    pf_kwargs = {}
    if rel_width is not None:
        pf_kwargs["rel_width"] = Fraction(rel_width)
    if max_iters is not None:
        pf_kwargs["max_iters"] = max_iters
    mu = pf_enclosure(matrix, **pf_kwargs)
    mu_iv = RatInterval(mu.lo, mu.hi)
    widened = RatInterval(mu.lo - tol, mu.hi + tol)
    converged = interval_gap(root_iv, widened) == 0
    return LimitCheckReport(
        converged=converged,
        last_gap=interval_gap(root_iv, mu_iv),
        d=d_max,
        vertex=i,
        root_interval=root_iv,
        spectral_interval=mu_iv,
    )


def subdivide_out_edge(graph: TransGraph, i: int) -> TransGraph:
    """Replace the unique out-edge i -> j by i -> w -> j through a fresh
    vertex w, appended with the next index.

    Requires vertex i to have total in-multiplicity 1 and total
    out-multiplicity 1. A self-loop at i qualifies and becomes the 2-cycle
    i -> w -> i.
    """
    graph._check_vertex(i)
    if graph.in_multiplicity(i) != 1 or graph.out_multiplicity(i) != 1:
        raise DegreePreconditionViolated(
            f"vertex {i} needs in-multiplicity 1 and out-multiplicity 1, "
            f"got in={graph.in_multiplicity(i)} out={graph.out_multiplicity(i)}"
        )
    (j,) = [b for a, b, _ in graph.edges if a == i]
    w = graph.vertex_count + 1
    edges = [(a, b, m) for a, b, m in graph.edges if a != i]
    edges.append((i, w, 1))
    edges.append((w, j, 1))
    return TransGraph(vertex_count=w, edges=tuple(edges))

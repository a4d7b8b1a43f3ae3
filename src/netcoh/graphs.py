"""Weighted undirected graphs, their Laplacians, and Laplacian spectra.

Provides the four network families used throughout the package (path, ring,
d-dimensional torus, complete graph), a plain-text edge-list parser, and both
numerical and closed-form (circulant / sine-basis) spectra.  All node indices
are 1-based in file formats and public edge tuples; torus nodes are ordered
row-major over lattice coordinates so results are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DisconnectedGraphError,
    GraphFormatError,
    InvalidSizeError,
    NumericalError,
)

__all__ = [
    "WeightedGraph",
    "LaplacianSpectrum",
    "build_path",
    "build_ring",
    "build_torus",
    "build_complete",
    "from_edge_list",
    "laplacian",
    "spectrum",
    "is_connected",
    "path_spectrum",
    "ring_spectrum",
    "torus_spectrum",
    "complete_spectrum",
]


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected graph with strictly positive edge weights.

    Edges are stored once as ``(i, j, weight)`` with ``i < j`` (1-based).
    Construction rejects self-loops, duplicate edges, non-positive weights
    and out-of-range endpoints.
    """

    node_count: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        if self.node_count < 1:
            raise InvalidSizeError(f"node_count must be >= 1, got {self.node_count}")
        canonical = []
        seen = set()
        for i, j, w in self.edges:
            if i == j:
                raise GraphFormatError(0, f"self-loop at node {i}")
            if not (1 <= i <= self.node_count and 1 <= j <= self.node_count):
                raise GraphFormatError(0, f"edge ({i},{j}) out of range 1..{self.node_count}")
            if not (w > 0.0) or not math.isfinite(w):
                raise GraphFormatError(0, f"edge ({i},{j}) has non-positive weight {w}")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise GraphFormatError(0, f"duplicate edge ({i},{j})")
            seen.add(key)
            canonical.append((key[0], key[1], float(w)))
        canonical.sort()
        object.__setattr__(self, "edges", tuple(canonical))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def neighbor_lists(self) -> list[list[int]]:
        """Adjacency lists indexed 0-based (node k at position k-1)."""
        adj: list[list[int]] = [[] for _ in range(self.node_count)]
        for i, j, _ in self.edges:
            adj[i - 1].append(j - 1)
            adj[j - 1].append(i - 1)
        return adj


@dataclass(frozen=True)
class LaplacianSpectrum:
    """Sorted Laplacian eigenvalues with the tolerance used to clamp lambda_1."""

    eigenvalues: np.ndarray
    zero_tolerance: float

    def __post_init__(self):
        vals = np.asarray(self.eigenvalues, dtype=float)
        if vals.ndim != 1 or vals.size < 1:
            raise InvalidSizeError("spectrum needs at least one eigenvalue")
        if self.zero_tolerance <= 0.0:
            raise GraphFormatError(0, "zero_tolerance must be positive")
        vals = np.sort(vals)
        if abs(vals[0]) > self.zero_tolerance:
            raise NumericalError(
                f"smallest eigenvalue {vals[0]:.3e} exceeds zero tolerance "
                f"{self.zero_tolerance:.3e}"
            )
        vals = vals.copy()
        vals[0] = 0.0
        vals.setflags(write=False)
        object.__setattr__(self, "eigenvalues", vals)

    @property
    def node_count(self) -> int:
        return int(self.eigenvalues.size)

    @property
    def lambda2(self) -> float:
        if self.eigenvalues.size < 2:
            return 0.0
        return float(self.eigenvalues[1])

    @property
    def is_connected(self) -> bool:
        return self.eigenvalues.size >= 1 and self.lambda2 > self.zero_tolerance

    def connected_modes(self) -> np.ndarray:
        """Eigenvalues of modes n = 2..N; a second zero mode raises."""
        if self.node_count > 1 and not self.is_connected:
            raise DisconnectedGraphError(
                f"spectrum has more than one zero mode (lambda_2={self.lambda2:.3e}, "
                f"tolerance {self.zero_tolerance:.3e}); the graph is disconnected",
                mode_index=2,
            )
        return self.eigenvalues[1:]


def build_path(n: int, weight: float) -> WeightedGraph:
    """Path graph: nearest-neighbor chain 1-2-...-N with uniform weight."""
    if n < 2:
        raise InvalidSizeError(f"path graph needs n >= 2, got {n}")
    _check_weight(weight)
    return WeightedGraph(n, tuple((i, i + 1, weight) for i in range(1, n)))


def build_ring(n: int, weight: float) -> WeightedGraph:
    """Ring graph: cycle 1-2-...-N-1 with uniform weight."""
    if n < 3:
        raise InvalidSizeError(f"ring graph needs n >= 3, got {n}")
    _check_weight(weight)
    edges = [(i, i + 1, weight) for i in range(1, n)]
    edges.append((1, n, weight))
    return WeightedGraph(n, tuple(edges))


def build_torus(side: int, dims: int, weight: float = 1.0) -> WeightedGraph:
    """Torus lattice with ``side**dims`` nodes and wrap-around neighbors.

    Nodes are numbered row-major over lattice coordinates
    ``(c_0, ..., c_{dims-1})``: index = 1 + sum(c_k * side**(dims-1-k)).
    Each node has 2*dims neighbors; dims = 1 reproduces the ring.
    """
    if side < 3:
        raise InvalidSizeError(f"torus needs side >= 3, got {side}")
    if dims not in (1, 2, 3):
        raise InvalidSizeError(f"torus dimension must be 1, 2 or 3, got {dims}")
    _check_weight(weight)

    def index(coords) -> int:
        idx = 0
        for c in coords:
            idx = idx * side + c
        return idx + 1

    edges = []
    for flat in range(side**dims):
        coords = []
        rest = flat
        for _ in range(dims):
            coords.append(rest % side)
            rest //= side
        coords.reverse()
        for axis in range(dims):
            fwd = list(coords)
            fwd[axis] = (fwd[axis] + 1) % side
            a, b = index(coords), index(fwd)
            if a < b:
                edges.append((a, b, weight))
            # wrap edge (side-1 -> 0) is emitted once, from the high end
            elif coords[axis] == side - 1:
                edges.append((b, a, weight))
    return WeightedGraph(side**dims, tuple(edges))


def build_complete(n: int, weight: float) -> WeightedGraph:
    """Complete graph on n nodes, all N(N-1)/2 edges with uniform weight."""
    if n < 2:
        raise InvalidSizeError(f"complete graph needs n >= 2, got {n}")
    _check_weight(weight)
    return WeightedGraph(
        n, tuple((i, j, weight) for i in range(1, n) for j in range(i + 1, n + 1))
    )


def from_edge_list(text: str) -> WeightedGraph:
    """Parse the edge-list format.

    First non-comment line holds N; every following non-empty line is
    ``i j w`` with 1-based indices.  Lines starting with ``#`` are ignored.
    Violations raise :class:`GraphFormatError` carrying the line number.
    """
    node_count = None
    edges = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if node_count is None:
            try:
                node_count = int(line)
            except ValueError:
                raise GraphFormatError(lineno, f"expected node count, got {line!r}") from None
            if node_count < 1:
                raise GraphFormatError(lineno, f"node count must be positive, got {node_count}")
            continue
        parts = line.split()
        if len(parts) != 3:
            raise GraphFormatError(lineno, f"expected 'i j w', got {line!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
            w = float(parts[2])
        except ValueError:
            raise GraphFormatError(lineno, f"malformed edge line {line!r}") from None
        if i == j:
            raise GraphFormatError(lineno, f"self-loop at node {i}")
        if not (1 <= i <= node_count and 1 <= j <= node_count):
            raise GraphFormatError(lineno, f"edge ({i},{j}) out of range 1..{node_count}")
        if not (w > 0.0) or not math.isfinite(w):
            raise GraphFormatError(lineno, f"weight must be positive, got {parts[2]}")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise GraphFormatError(lineno, f"duplicate edge ({i},{j})")
        seen.add(key)
        edges.append((key[0], key[1], w))
    if node_count is None:
        raise GraphFormatError(1, "empty edge-list text")
    return WeightedGraph(node_count, tuple(edges))


def laplacian(graph: WeightedGraph) -> np.ndarray:
    """Weighted graph Laplacian: degree on the diagonal, -weight off it."""
    n = graph.node_count
    lap = np.zeros((n, n))
    for i, j, w in graph.edges:
        a, b = i - 1, j - 1
        lap[a, b] -= w
        lap[b, a] -= w
        lap[a, a] += w
        lap[b, b] += w
    return lap


def default_zero_tolerance(lambda_max: float) -> float:
    """Relative clamp tolerance: 1e-9 * max(1, lambda_max)."""
    return 1e-9 * max(1.0, lambda_max)


def spectrum(graph: WeightedGraph, zero_tolerance: float | None = None) -> LaplacianSpectrum:
    """Full symmetric eigendecomposition of the Laplacian, sorted ascending.

    The smallest eigenvalue is clamped to exactly 0 when within the
    tolerance (default ``1e-9 * max(1, lambda_max)``).
    """
    lap = laplacian(graph)
    try:
        vals = np.linalg.eigvalsh(lap)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed: {exc}") from exc
    if zero_tolerance is None:
        zero_tolerance = default_zero_tolerance(float(vals[-1]))
    return LaplacianSpectrum(vals, zero_tolerance)


def is_connected(graph: WeightedGraph) -> bool:
    """Breadth-first reachability of all nodes from node 1."""
    adj = graph.neighbor_lists()
    seen = [False] * graph.node_count
    seen[0] = True
    stack = [0]
    while stack:
        node = stack.pop()
        for nxt in adj[node]:
            if not seen[nxt]:
                seen[nxt] = True
                stack.append(nxt)
    return all(seen)


def require_connected(graph: WeightedGraph) -> None:
    if not is_connected(graph):
        raise DisconnectedGraphError(
            f"graph with {graph.node_count} nodes and {graph.edge_count} edges is disconnected"
        )


# ---------------------------------------------------------------------------
# Closed-form spectra for the regular families.  These avoid the dense
# eigensolver in large sweeps; tests cross-check them against spectrum().
# ---------------------------------------------------------------------------


def ring_spectrum(n: int, weight: float) -> LaplacianSpectrum:
    """Circulant eigenvalues weight * 4 sin^2(pi k / n), k = 0..n-1."""
    if n < 3:
        raise InvalidSizeError(f"ring needs n >= 3, got {n}")
    _check_weight(weight)
    return _analytic(weight * _sin2(np.arange(n) / n))


def path_spectrum(n: int, weight: float) -> LaplacianSpectrum:
    """Sine-basis eigenvalues weight * 4 sin^2(pi k / (2n)), k = 0..n-1."""
    if n < 2:
        raise InvalidSizeError(f"path needs n >= 2, got {n}")
    _check_weight(weight)
    return _analytic(weight * _sin2(np.arange(n) / (2 * n)))


def torus_spectrum(side: int, dims: int, weight: float = 1.0) -> LaplacianSpectrum:
    """Sums of ring eigenvalues over the d-dimensional lattice frequencies."""
    if side < 3:
        raise InvalidSizeError(f"torus needs side >= 3, got {side}")
    if dims not in (1, 2, 3):
        raise InvalidSizeError(f"torus dimension must be 1, 2 or 3, got {dims}")
    _check_weight(weight)
    axis = _sin2(np.arange(side) / side)
    vals = axis
    for _ in range(dims - 1):
        vals = np.add.outer(vals, axis).ravel()
    return _analytic(weight * vals)


def complete_spectrum(n: int, weight: float) -> LaplacianSpectrum:
    """Eigenvalue 0 plus n*weight with multiplicity n-1."""
    if n < 2:
        raise InvalidSizeError(f"complete graph needs n >= 2, got {n}")
    _check_weight(weight)
    vals = np.full(n, n * weight, dtype=float)
    vals[0] = 0.0
    return _analytic(vals)


def _sin2(x: np.ndarray) -> np.ndarray:
    """4 sin^2(pi x), the cancellation-free form of 2 - 2 cos(2 pi x)."""
    return 4.0 * np.sin(np.pi * x) ** 2


def _analytic(vals: np.ndarray) -> LaplacianSpectrum:
    # The zero mode is exact, so a tolerance below lambda_2 counts one zero
    # mode; the relative default would swallow lambda_2 of large rings.
    vals = np.sort(np.maximum(vals, 0.0))
    tolerance = min(default_zero_tolerance(float(vals[-1])), 0.5 * float(vals[1]))
    return LaplacianSpectrum(vals, tolerance)


def _check_weight(weight: float) -> None:
    if not (weight > 0.0) or not math.isfinite(weight):
        raise InvalidSizeError(f"edge weight must be positive and finite, got {weight}")

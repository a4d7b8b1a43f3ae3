"""Weighted undirected graphs, their Laplacians, and Laplacian spectra.

Provides the network families used throughout the package (path, ring as
the 1-D torus, d-dimensional torus, complete graph), a plain-text edge-list
parser, and both numerical and closed-form (circulant / sine-basis) spectra.
All node indices are 1-based in file formats and public edge tuples; torus
nodes are ordered row-major over lattice coordinates, for reproducibility.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
from collections import namedtuple
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import (
    DisconnectedGraphError,
    GraphFormatError,
    InvalidParameterError,
    InvalidSizeError,
    NumericalError,
)

__all__ = [
    "FAMILIES",
    "WeightedGraph",
    "LaplacianSpectrum",
    "build_family",
    "build_path",
    "build_ring",
    "build_torus",
    "build_complete",
    "from_edge_list",
    "laplacian",
    "spectrum",
    "family_spectrum",
    "path_spectrum",
    "ring_spectrum",
    "torus_spectrum",
    "complete_spectrum",
]


def _canonical_edges(node_count: int, edges) -> tuple:
    """Sorted ``(min, max, float w)`` edges; rejects non-integer endpoints,
    self-loops, out-of-range endpoints, non-positive or non-finite weights and
    duplicates, giving the offending edge's position as the error's
    ``edge_index``."""
    canonical = []
    seen = set()
    for index, (i, j, w) in enumerate(edges):
        try:  # numpy integers pass; an ABC isinstance test would double this loop's time
            i, j = operator.index(i), operator.index(j)
        except TypeError:
            raise GraphFormatError(0, f"edge ({i},{j}) has a non-integer endpoint", index) from None
        if i == j:
            raise GraphFormatError(0, f"self-loop at node {i}", index)
        if not (1 <= i <= node_count and 1 <= j <= node_count):
            raise GraphFormatError(0, f"edge ({i},{j}) out of range 1..{node_count}", index)
        if not (w > 0.0) or not math.isfinite(w):
            raise GraphFormatError(0, f"edge ({i},{j}) has non-positive weight {w}", index)
        key = (min(i, j), max(i, j))
        if key in seen:
            raise GraphFormatError(0, f"duplicate edge ({i},{j})", index)
        seen.add(key)
        canonical.append((key[0], key[1], float(w)))
    canonical.sort()
    return tuple(canonical)


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected graph with strictly positive edge weights.

    Edges are stored once as ``(i, j, weight)`` with ``i < j`` (1-based).
    Construction rejects a non-integer node count, non-integer endpoints,
    self-loops, duplicate edges, non-positive weights and out-of-range
    endpoints.
    """

    node_count: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        if not isinstance(self.node_count, numbers.Integral):
            raise InvalidSizeError(f"node_count must be an integer, got {self.node_count!r}")
        if self.node_count < 1:
            raise InvalidSizeError(f"node_count must be >= 1, got {self.node_count}")
        object.__setattr__(self, "edges", _canonical_edges(self.node_count, self.edges))

    @property
    def edge_count(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class LaplacianSpectrum:
    """Sorted Laplacian eigenvalues with the tolerance used to clamp lambda_1.

    The eigenvalues are stored as an ascending read-only copy.  Input that is
    already ascending, as ``eigvalsh`` and the family spectra return it, is
    only copied; other input is sorted once.
    """

    eigenvalues: np.ndarray
    zero_tolerance: float

    def __post_init__(self):
        vals = np.asarray(self.eigenvalues, dtype=float)
        if vals.ndim != 1 or vals.size < 1:
            raise InvalidSizeError("spectrum needs at least one eigenvalue")
        if not 0.0 < self.zero_tolerance < math.inf:  # comparisons reject nan too
            raise GraphFormatError(0, f"zero_tolerance must be finite and positive, got {self.zero_tolerance}")
        if not np.isfinite(vals).all():
            raise NumericalError("spectrum has non-finite eigenvalues")
        # one comparison pass is far cheaper than np.sort on sorted input
        vals = vals.copy() if (vals[:-1] <= vals[1:]).all() else np.sort(vals)
        if abs(vals[0]) > self.zero_tolerance:
            raise NumericalError(
                f"smallest eigenvalue {vals[0]:.3e} exceeds zero tolerance "
                f"{self.zero_tolerance:.3e}"
            )
        vals[0] = 0.0  # a copy, never the caller's array
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
        return self.node_count == 1 or self.lambda2 > self.zero_tolerance

    def connected_modes(self) -> np.ndarray:
        """Eigenvalues of modes n = 2..N; a second zero mode raises."""
        if not self.is_connected:
            raise DisconnectedGraphError(
                f"spectrum has more than one zero mode (lambda_2={self.lambda2:.3e}, "
                f"tolerance {self.zero_tolerance:.3e}); the graph is disconnected",
                mode_index=2,
            )
        return self.eigenvalues[1:]


def from_edge_list(text: str) -> WeightedGraph:
    """Parse the edge-list format.

    First non-comment line holds N; every following non-empty line is
    ``i j w`` with 1-based indices.  Lines starting with ``#`` are ignored.
    Violations raise :class:`GraphFormatError` carrying the line number of
    the first offending line.
    """
    node_count, edges, lines, malformed = None, [], [], None
    try:
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
                edges.append((int(parts[0]), int(parts[1]), float(parts[2])))
            except ValueError:
                raise GraphFormatError(lineno, f"malformed edge line {line!r}") from None
            lines.append(lineno)
    except GraphFormatError as exc:
        malformed = exc
    if node_count is None or (malformed and not edges):
        raise malformed or GraphFormatError(1, "empty edge-list text")
    try:  # the edges above a malformed line are checked first: the earliest line is named
        graph = WeightedGraph(node_count, tuple(edges))
    except GraphFormatError as exc:
        raise GraphFormatError(lines[exc.edge_index], exc.message) from None
    if malformed is not None:
        raise malformed
    return graph


def laplacian(graph: WeightedGraph) -> np.ndarray:
    """Weighted graph Laplacian: degree on the diagonal, -weight off it."""
    edges = np.fromiter(itertools.chain.from_iterable(graph.edges), float, 3 * graph.edge_count)
    ends, w = edges.reshape(-1, 3)[:, :2].astype(np.intp) - 1, edges[2::3]
    lap = np.zeros((graph.node_count,) * 2)
    lap[ends[:, 0], ends[:, 1]] = lap[ends[:, 1], ends[:, 0]] = -w
    # ends.ravel() is (i1, j1, i2, j2, ...): each degree adds up in edge order
    np.add.at(lap, (ends.ravel(),) * 2, np.repeat(w, 2))
    return lap


def default_zero_tolerance(lambda_max: float) -> float:
    """Relative clamp tolerance: 1e-9 * max(1, lambda_max)."""
    return 1e-9 * max(1.0, lambda_max)


def spectrum(graph: WeightedGraph) -> LaplacianSpectrum:
    """Full symmetric eigendecomposition of the Laplacian, sorted ascending.

    The smallest eigenvalue is clamped to exactly 0 within the tolerance
    ``default_zero_tolerance(lambda_max)``, the rule ``assemble`` uses too.
    """
    lap = laplacian(graph)
    try:
        vals = np.linalg.eigvalsh(lap)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed: {exc}") from exc
    return LaplacianSpectrum(vals, default_zero_tolerance(float(vals[-1])))


# ---------------------------------------------------------------------------
# The graph families, registered once in _FAMILIES.  Every builder and
# closed-form spectrum goes through _member, which checks size and weight.
# The closed forms avoid the dense eigensolver in large sweeps; tests
# cross-check them against spectrum().
# ---------------------------------------------------------------------------


def build_path(n: int, weight: float) -> WeightedGraph:
    """Path graph: nearest-neighbor chain 1-2-...-N with uniform weight."""
    return build_family("path", n, weight)


def build_ring(n: int, weight: float) -> WeightedGraph:
    """Ring graph: cycle 1-2-...-N-1 with uniform weight, the 1-D torus."""
    return build_family("ring", n, weight)


def build_torus(side: int, dims: int, weight: float = 1.0) -> WeightedGraph:
    """Torus lattice with ``side**dims`` nodes and wrap-around neighbors.

    Nodes are numbered row-major over lattice coordinates
    ``(c_0, ..., c_{dims-1})``: index = 1 + sum(c_k * side**(dims-1-k)).
    Each node has 2*dims neighbors; dims = 1 reproduces the ring.
    """
    return build_family(_torus_name(dims), side, weight)


def build_complete(n: int, weight: float) -> WeightedGraph:
    """Complete graph on n nodes, all N(N-1)/2 edges with uniform weight."""
    return build_family("complete", n, weight)


def ring_spectrum(n: int, weight: float) -> LaplacianSpectrum:
    """Circulant eigenvalues weight * 4 sin^2(pi k / n), k = 0..n-1 (the 1-D torus)."""
    return family_spectrum("ring", n, weight)


def path_spectrum(n: int, weight: float) -> LaplacianSpectrum:
    """Sine-basis eigenvalues weight * 4 sin^2(pi k / (2n)), k = 0..n-1."""
    return family_spectrum("path", n, weight)


def torus_spectrum(side: int, dims: int, weight: float = 1.0) -> LaplacianSpectrum:
    """Sums of ring eigenvalues over the d-dimensional lattice frequencies."""
    return family_spectrum(_torus_name(dims), side, weight)


def complete_spectrum(n: int, weight: float) -> LaplacianSpectrum:
    """Eigenvalue 0 plus n*weight with multiplicity n-1."""
    return family_spectrum("complete", n, weight)


def build_family(family: str, size: int, weight: float) -> WeightedGraph:
    """One member of a registered family; ``size`` is the torus side."""
    return _member(family, size, weight).build(size, weight)


def family_spectrum(family: str, size: int, weight: float) -> LaplacianSpectrum:
    """Closed-form spectrum of one family member; ``size`` is the torus side."""
    return _member(family, size, weight).spectrum(size, weight)


def _torus_graph(dims: int, side: int, weight: float) -> WeightedGraph:
    ids = np.arange(1, side**dims + 1).reshape((side,) * dims)
    succ = np.stack([np.roll(ids, -1, axis=axis) for axis in range(dims)])
    lo, hi = np.minimum(ids, succ).ravel().tolist(), np.maximum(ids, succ).ravel().tolist()
    return WeightedGraph(ids.size, tuple(zip(lo, hi, itertools.repeat(weight))))


def _complete_graph(n: int, weight: float) -> WeightedGraph:
    return WeightedGraph(n, tuple((i, j, weight) for i in range(1, n) for j in range(i + 1, n + 1)))


def _torus_spectrum(dims: int, side: int, weight: float) -> LaplacianSpectrum:
    grids = np.ix_(*[_sin2(np.arange(side) / side)] * dims)
    vals = grids[0]
    for grid in grids[1:]:  # lattice sums a_i + a_j + ...
        vals = vals + grid
    return _analytic(vals.ravel(), weight)


# name -> smallest size (the lattice side for a torus), builder, closed-form spectrum
_Family = namedtuple("_Family", "min_size build spectrum")
_FAMILIES = {
    "path": _Family(2, lambda n, w: WeightedGraph(n, tuple((i, i + 1, w) for i in range(1, n))),
                    lambda n, w: _analytic(_sin2(np.arange(n) / (2 * n)), w)),
    "ring": _Family(3, partial(_torus_graph, 1), partial(_torus_spectrum, 1)),
    "complete": _Family(2, _complete_graph,
                        lambda n, w: _analytic(np.where(np.arange(n) > 0, float(n), 0.0), w)),
    **{f"torus{d}": _Family(3, partial(_torus_graph, d), partial(_torus_spectrum, d)) for d in (1, 2, 3)},
}
FAMILIES = tuple(_FAMILIES)


def _member(family: str, size: int, weight: float) -> _Family:
    """The registry entry of ``family``, once ``size`` and ``weight`` are admissible."""
    if family not in _FAMILIES:
        raise InvalidParameterError(f"unknown family {family!r}; choose from {FAMILIES}")
    entry = _FAMILIES[family]
    if not isinstance(size, numbers.Integral):
        raise InvalidSizeError(f"{family} size must be an integer, got {size!r}")
    if size < entry.min_size:
        what = "torus needs side" if family.startswith("torus") else f"{family} graph needs n"
        raise InvalidSizeError(f"{what} >= {entry.min_size}, got {size}")
    if not (weight > 0.0) or not math.isfinite(weight):
        raise InvalidSizeError(f"edge weight must be positive and finite, got {weight}")
    return entry


def _torus_name(dims: int) -> str:
    if dims not in (1, 2, 3):
        raise InvalidSizeError(f"torus dimension must be 1, 2 or 3, got {dims}")
    return f"torus{dims}"


def _sin2(x: np.ndarray) -> np.ndarray:
    """4 sin^2(pi x), the cancellation-free form of 2 - 2 cos(2 pi x), computed in ``x``."""
    x *= np.pi
    np.sin(x, out=x)
    np.square(x, out=x)
    x *= 4.0
    return x


def _analytic(vals: np.ndarray, weight: float) -> LaplacianSpectrum:
    """The spectrum of ``weight * vals``, which it scales, clamps at 0 and sorts in place."""
    # The zero mode is exact, so a tolerance below lambda_2 counts one zero
    # mode; the relative default would swallow lambda_2 of large rings.
    vals *= weight
    np.maximum(vals, 0.0, out=vals)
    vals.sort()
    tolerance = min(default_zero_tolerance(float(vals[-1])), 0.5 * float(vals[1]))
    return LaplacianSpectrum(vals, tolerance)

"""Weighted undirected graphs, their Laplacians, and Laplacian spectra.

Provides the network families used throughout the package (path, ring as
the 1-D torus, d-dimensional torus, complete graph), a plain-text edge-list
parser, and both numerical and closed-form (circulant / sine-basis) spectra.
A graph keeps its edges as sorted read-only arrays, validated as arrays; the
builders and ``laplacian`` work on those arrays, never on per-edge tuples.
All node indices are 1-based in file formats, edge arrays and edge tuples;
torus nodes are ordered row-major over lattice coordinates, for
reproducibility.
"""

from __future__ import annotations

import math
import numbers
import operator
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property, partial

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


def _edge_columns(edges) -> tuple:
    """The ``(i, j, w)`` columns of ``edges``, endpoints as integers, up to
    the first edge that is not a triple with integer endpoints, followed by
    that edge's error (None when every edge is one).  Each edge is read
    once, so an edge given as a one-shot iterator is judged by what it held."""
    try:
        edges = tuple(edges)
    except TypeError:
        raise GraphFormatError(0, f"edges must be an iterable of (i, j, w) triples, got {edges!r}", 0) from None
    rows = []  # the edges as read, up to the first that is not iterable
    try:
        rows.extend(map(tuple, edges))
        i, j, w = zip(*rows, strict=True) if rows else ((), (), ())
        return list(map(operator.index, i)), list(map(operator.index, j)), w, None
    except (TypeError, ValueError):  # some edge fails: the edges before it are checked first
        rows += edges[len(rows) : len(rows) + 1]  # the edge that is not iterable, if one stopped the read
        index = next(k for k, row in enumerate(rows) if _malformed(row))
        return *_edge_columns(rows[:index])[:3], GraphFormatError(0, _malformed(rows[index]), index)


def _malformed(edge) -> str | None:
    """Why ``edge`` is not an ``(i, j, w)`` triple with integer endpoints, if it is not."""
    try:
        i, j, _ = edge
    except (TypeError, ValueError):
        return f"edge {edge!r} is not an (i, j, w) triple"
    try:  # numpy integers pass
        operator.index(i), operator.index(j)
    except TypeError:
        return f"edge ({i},{j}) has a non-integer endpoint"
    return None


def _canonical_edges(node_count: int, i, j, w) -> tuple:
    """Read-only ``(lo, hi, w)`` arrays of the edges, sorted by ``(lo, hi)``.

    ``i`` and ``j`` hold integer endpoints.  Rejects self-loops, out-of-range
    endpoints, weights that are not positive finite real numbers and
    duplicates, checked as arrays.  Of the offending edges the first in edge
    order is reported, with its first failing check in that order and its
    position as the error's ``edge_index``.
    """
    ends, weights = (_integers(i), _integers(j)), _weights(w)
    lo, hi = np.minimum(*ends), np.maximum(*ends)
    # one stable sort of the (lo, hi) keys: a repeated key follows its first occurrence
    order = np.lexsort((hi, lo))
    sorted_lo, sorted_hi = lo[order], hi[order]
    repeat = np.zeros(order.size, dtype=bool)
    repeat[order[1:]] = (sorted_lo[1:] == sorted_lo[:-1]) & (sorted_hi[1:] == sorted_hi[:-1])
    checks = (lo == hi, (lo < 1) | (hi > node_count), ~((weights > 0.0) & (weights < math.inf)), repeat)
    bad = np.logical_or.reduce(checks)
    if bad.any():
        k = int(bad.argmax())
        raise _edge_error(next(c for c, check in enumerate(checks) if check[k]), k, node_count, i[k], j[k], w[k])
    columns = sorted_lo.astype(np.intp, copy=False), sorted_hi.astype(np.intp, copy=False), weights[order]
    for column in columns:
        column.setflags(write=False)
    return columns


def _edge_error(check: int, index: int, node_count: int, i, j, w) -> GraphFormatError:
    """The error of edge ``index``, ``(i, j, w)``, for its first failing check."""
    if check == 2 and _weight(w) is None:
        message = f"edge ({i},{j}) has a non-real weight {w!r}"
    else:
        message = (f"self-loop at node {i}", f"edge ({i},{j}) out of range 1..{node_count}",
                   f"edge ({i},{j}) has non-positive weight {w}", f"duplicate edge ({i},{j})")[check]
    return GraphFormatError(0, message, index)


def _integers(values) -> np.ndarray:
    """Integer endpoints as an array, of objects when one is beyond ``intp``."""
    if isinstance(values, np.ndarray):
        return values
    try:
        return np.array(values, dtype=np.intp)
    except OverflowError:  # compared exactly, and out of range of any graph that fits in memory
        return np.array(values, dtype=object)


def _weights(values) -> np.ndarray:
    """The weights as floats; an entry that is not a real number becomes nan,
    which fails the weight check.

    A string is not a number, though numpy would read ``'1.0'`` as one.
    """
    try:
        array = np.asarray(values)
        if array.ndim == 1 and array.dtype.kind in "biuf":
            return array.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError):  # ragged entries, an integer too large for a float
        pass
    return np.array([_weight(value) for value in values], dtype=float)


def _weight(w) -> float | None:
    """``float(w)`` for a positive finite number, nan for another number, None for a non-number."""
    try:
        return float(w) if w > 0.0 and math.isfinite(w) else math.nan
    except ArithmeticError:  # an integer too large for a float, or a decimal nan
        return math.nan
    except (TypeError, ValueError):
        return None


@dataclass(frozen=True, init=False, eq=False, repr=False)
class WeightedGraph:
    """Undirected graph with strictly positive edge weights.

    ``WeightedGraph(node_count, edges)`` takes ``(i, j, weight)`` triples with
    1-based endpoints.  The edges are stored once, as three read-only arrays
    sorted by ``(lo, hi)``: ``lo < hi`` (1-based, ``intp``) and the float
    weights ``w``.  ``edges`` is the same edges as ``(int, int, float)``
    tuples, built on first read.  Construction rejects a non-integer node
    count, an edge that is not such a triple, non-integer endpoints,
    self-loops, out-of-range endpoints, weights that are not positive finite
    real numbers, and duplicate edges; a rejected edge's position is the
    error's ``edge_index``.
    """

    node_count: int
    lo: np.ndarray
    hi: np.ndarray
    w: np.ndarray

    def __init__(self, node_count: int, edges):
        if not isinstance(node_count, numbers.Integral):
            raise InvalidSizeError(f"node_count must be an integer, got {node_count!r}")
        if node_count < 1:
            raise InvalidSizeError(f"node_count must be >= 1, got {node_count}")
        *columns, malformed = _edge_columns(edges)
        self._store(node_count, *columns)
        if malformed is not None:
            raise malformed

    def _store(self, node_count: int, i, j, w) -> WeightedGraph:
        lo, hi, w = _canonical_edges(node_count, i, j, w)
        self.__dict__.update(node_count=node_count, lo=lo, hi=hi, w=w)
        return self

    @cached_property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        return tuple(zip(self.lo.tolist(), self.hi.tolist(), self.w.tolist()))

    @property
    def edge_count(self) -> int:
        return self.w.size

    def _key(self) -> tuple:
        return self.node_count, self.lo.tobytes(), self.hi.tobytes(), self.w.tobytes()

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"WeightedGraph(node_count={self.node_count!r}, edges={self.edges!r})"


@dataclass(frozen=True)
class LaplacianSpectrum:
    """Sorted Laplacian eigenvalues with the tolerance used to clamp lambda_1.

    The eigenvalues are stored as an ascending read-only copy of the given
    array; the caller's array is never aliased.  This is the one place that
    decides whether to sort: input that is already ascending, as the
    eigensolvers of :func:`spectrum` return it and the path, ring, torus1 and
    complete closed forms are built, is only copied; other input, such as the
    torus2 and torus3 lattice sums, is sorted once.
    """

    eigenvalues: np.ndarray
    zero_tolerance: float

    def __post_init__(self):
        self._settle(np.array(self.eigenvalues, dtype=float))

    @classmethod
    def _adopt(cls, vals: np.ndarray, zero_tolerance: float) -> LaplacianSpectrum:
        """The spectrum of a fresh float array that the caller hands over:
        validated, sorted, clamped and frozen in place, not copied."""
        spec = object.__new__(cls)
        object.__setattr__(spec, "zero_tolerance", zero_tolerance)
        spec._settle(vals)
        return spec

    def _settle(self, vals: np.ndarray) -> None:
        """Validate ``vals``, which this spectrum owns, sort and clamp it in place and store it read-only."""
        if vals.ndim != 1 or vals.size < 1:
            raise InvalidSizeError("spectrum needs at least one eigenvalue")
        if not 0.0 < self.zero_tolerance < math.inf:  # comparisons reject nan too
            raise GraphFormatError(0, f"zero_tolerance must be finite and positive, got {self.zero_tolerance}")
        if not np.isfinite(vals).all():
            raise NumericalError("spectrum has non-finite eigenvalues")
        # one comparison pass is far cheaper than a sort of sorted input
        if not (vals[:-1] <= vals[1:]).all():
            vals.sort()
        if abs(vals[0]) > self.zero_tolerance:
            raise NumericalError(
                f"smallest eigenvalue {vals[0]:.3e} exceeds zero tolerance "
                f"{self.zero_tolerance:.3e}"
            )
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


def _ascii_number(text: str, convert):
    """``convert(text)``, an ``int`` or ``float``, of text that spells a number in ASCII.

    Python's ``int`` and ``float`` also read digit-group underscores
    (``1_0`` is 10) and non-ASCII decimal digits, such as the Arabic-Indic
    ones, which the file formats do not admit; those raise ``ValueError`` as
    other malformed text does.
    """
    if not text.isascii() or "_" in text:
        raise ValueError(f"not an ASCII number: {text!r}")
    return convert(text)


def from_edge_list(text: str) -> WeightedGraph:
    """Parse the edge-list format.

    First non-comment line holds N; every following non-empty line is
    ``i j w`` with 1-based indices, numbers spelled in ASCII without
    digit-group underscores.  Lines starting with ``#`` are ignored.
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
                    node_count = _ascii_number(line, int)
                except ValueError:
                    raise GraphFormatError(lineno, f"expected node count, got {line!r}") from None
                if node_count < 1:
                    raise GraphFormatError(lineno, f"node count must be positive, got {node_count}")
                continue
            parts = line.split()
            if len(parts) != 3:
                raise GraphFormatError(lineno, f"expected 'i j w', got {line!r}")
            try:
                edges.append((_ascii_number(parts[0], int), _ascii_number(parts[1], int),
                              _ascii_number(parts[2], float)))
            except ValueError:
                raise GraphFormatError(lineno, f"malformed edge line {line!r}") from None
            lines.append(lineno)
    except GraphFormatError as exc:
        malformed = exc
    if node_count is None or (malformed and not edges):
        raise malformed or GraphFormatError(1, "empty edge-list text")
    # The parser made the endpoints integers, so the columns go to the array
    # validator directly; the edges above a malformed line are checked first,
    # so the earliest line is named.
    try:
        graph = WeightedGraph.__new__(WeightedGraph)._store(node_count, *(zip(*edges) if edges else ((),) * 3))
    except GraphFormatError as exc:
        raise GraphFormatError(lines[exc.edge_index], exc.message) from None
    if malformed is not None:
        raise malformed
    return graph


def laplacian(graph: WeightedGraph) -> np.ndarray:
    """Weighted graph Laplacian: degree on the diagonal, -weight off it."""
    lo, hi, w = graph.lo - 1, graph.hi - 1, graph.w
    lap = np.zeros((graph.node_count,) * 2)
    lap[lo, hi] = lap[hi, lo] = -w
    # (lo1, hi1, lo2, hi2, ...): each degree adds up in edge order
    ends = np.column_stack((lo, hi)).ravel()
    np.add.at(lap, (ends, ends), np.repeat(w, 2))
    return lap


def default_zero_tolerance(lambda_max: float) -> float:
    """Relative clamp tolerance: 1e-9 * max(1, lambda_max)."""
    return 1e-9 * max(1.0, lambda_max)


def spectrum(graph: WeightedGraph) -> LaplacianSpectrum:
    """Laplacian eigenvalues by a symmetric eigensolver, sorted ascending.

    A narrow-band graph, one whose Laplacian has half-bandwidth ``kd`` with
    ``32 kd <= N`` once its nodes are numbered breadth-first (paths, rings,
    other graphs whose breadth-first levels stay narrow), is solved in
    LAPACK band storage by ``dsbev`` in ``O(kd N^2)``; any other graph by
    the dense ``eigvalsh`` in ``O(N^3)``.
    The smallest eigenvalue is clamped to exactly 0 within the tolerance
    ``default_zero_tolerance(lambda_max)``, the rule ``assemble`` uses too.
    """
    band = _laplacian_band(graph, graph.node_count // _BAND_RATIO)
    if band is None:
        try:
            vals = np.linalg.eigvalsh(laplacian(graph))
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"eigensolver failed: {exc}") from exc
    else:
        from scipy.linalg.lapack import dsbev  # imported on first use, as the full oracle imports scipy

        vals, _, info = dsbev(band, compute_v=0, lower=1)
        if info != 0:
            raise NumericalError(f"band eigensolver failed: dsbev info {info}")
    return LaplacianSpectrum._adopt(vals, default_zero_tolerance(float(vals[-1])))


# The band route is taken when 32 kd <= N.  Measured against the dense eigvalsh
# at one BLAS thread, dsbev breaks even between kd = N / 16 and kd = N / 8 for
# N = 256..1024, so the rule keeps a margin of two or more.
_BAND_RATIO = 32


def _laplacian_band(graph: WeightedGraph, max_kd: int) -> np.ndarray | None:
    """The Laplacian in LAPACK lower band storage under a breadth-first node
    order, or None when its half-bandwidth there exceeds ``max_kd``.

    Row ``d`` of the ``(kd + 1, N)`` result holds the ``d``-th subdiagonal:
    ``band[d, p] = L[p + d, p]`` in the new numbering.  Every order has
    ``kd >= ceil(max degree / 2)``, so a graph whose degrees exceed that is
    refused before any ordering work.
    """
    n = graph.node_count
    ends = np.concatenate((graph.lo, graph.hi)) - 1
    if ends.size and (int(np.bincount(ends).max()) + 1) // 2 > max_kd:
        return None
    position = np.empty(n, dtype=np.intp)
    position[_breadth_first_order(n, ends)] = np.arange(n)
    first, second = np.split(position[ends], 2)
    low, offset = np.minimum(first, second), np.abs(first - second)
    kd = int(offset.max()) if offset.size else 0
    if kd > max_kd:
        return None
    band = np.zeros((kd + 1, n), order="F")
    band[0, position] = np.bincount(ends, np.concatenate((graph.w, graph.w)), minlength=n)
    band[offset, low] = -graph.w
    return band


def _breadth_first_order(n: int, ends: np.ndarray) -> list:
    """0-based nodes numbered breadth-first, one component after another, each
    from a pseudo-peripheral node: the last node reached by a first pass from
    its least node, so that a path is numbered from one end (Cuthill-McKee).

    ``ends`` holds the 0-based endpoints of the edges, all ``lo`` then all ``hi``.
    """
    half = ends.size // 2
    by_node = np.argsort(ends, kind="stable")
    neighbors = np.concatenate((ends[half:], ends[:half]))[by_node].tolist()
    starts = np.searchsorted(ends[by_node], np.arange(n + 1)).tolist()
    marks = [0] * n  # the last pass that reached each node: 0 none, 1 the first, 2 the second
    numbered = []
    for root in range(n):
        if not marks[root]:
            far = _reach(root, 1, neighbors, starts, marks)[-1]
            numbered += _reach(far, 2, neighbors, starts, marks)
    return numbered


def _reach(root: int, mark: int, neighbors: list, starts: list, marks: list) -> list:
    """The nodes that ``root`` reaches, breadth-first, over those whose mark is below ``mark``; each
    gets the mark ``mark``."""
    marks[root] = mark
    order = [root]
    for node in order:  # the list grows as it is read: a queue
        for other in neighbors[starts[node] : starts[node + 1]]:
            if marks[other] < mark:
                marks[other] = mark
                order.append(other)
    return order


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


def _uniform_graph(node_count: int, i: np.ndarray, j: np.ndarray, weight: float) -> WeightedGraph:
    """The graph of the edges ``(i[k], j[k])``, all of one weight."""
    return WeightedGraph.__new__(WeightedGraph)._store(node_count, i, j, np.full(i.size, weight, dtype=float))


def _torus_graph(dims: int, side: int, weight: float) -> WeightedGraph:
    ids = np.arange(1, side**dims + 1).reshape((side,) * dims)
    succ = np.stack([np.roll(ids, -1, axis=axis) for axis in range(dims)])
    return _uniform_graph(ids.size, np.broadcast_to(ids, succ.shape).ravel(), succ.ravel(), weight)


def _complete_graph(n: int, weight: float) -> WeightedGraph:
    i, j = np.triu_indices(n, 1)
    i += 1
    j += 1
    return _uniform_graph(n, i, j, weight)


def _ring_values(n: int) -> np.ndarray:
    """4 sin^2(pi k / n) for k = 0..n-1 in ascending order, built so without a sort.

    Each value is computed once, for k = 0..n // 2 from ``k / n <= 1/2``,
    and written for both k and n-k.  The twins are thus bit-equal, and the
    value of n-k is as precise as that of k: from its own ``(n-k) / n``,
    ``pi * x`` near pi would carry an absolute rounding error of about
    1e-16, which is relatively large against a small sine.
    """
    return np.repeat(_sin2(np.arange(n // 2 + 1) / n), 2)[1 : n + 1]


def _torus_spectrum(dims: int, side: int, weight: float) -> LaplacianSpectrum:
    grids = np.ix_(*[_ring_values(side)] * dims)  # for dims = 1, the ascending ring values
    vals = grids[0]
    for grid in grids[1:]:  # lattice sums a_i + a_j + ...
        vals = vals + grid
    return _analytic(vals.ravel(), weight)


# name -> smallest size (the lattice side for a torus), builder, closed-form spectrum
_Family = namedtuple("_Family", "min_size build spectrum")
_FAMILIES = {
    "path": _Family(2, lambda n, w: _uniform_graph(n, np.arange(1, n), np.arange(2, n + 1), w),
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
    value = _weight(weight)
    if value is None:
        raise InvalidSizeError(f"edge weight must be a real number, got {weight!r}")
    if not value > 0.0:  # nan: not positive, or not finite
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
    """The spectrum of ``weight * vals``, which it scales in place.

    Every family's values are sums of ``4 sin^2`` terms, or 0 and n, so none
    is negative and none needs a clamp.  It does not sort:
    ``LaplacianSpectrum`` sorts what is not ascending.  The path, ring, torus1
    and complete values come ascending, and scaling by a positive weight keeps
    them so; the torus2 and torus3 lattice sums are sorted there, once.
    """
    # The zero mode vals[0] is exact, so a tolerance below lambda_2, the least
    # of the others, counts one zero mode; the relative default would swallow
    # lambda_2 of large rings.
    vals *= weight
    tolerance = min(default_zero_tolerance(float(vals.max())), 0.5 * float(vals[1:].min()))
    return LaplacianSpectrum._adopt(vals, tolerance)

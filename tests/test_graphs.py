import math
import operator
import pickle
import tracemalloc
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import netcoh as nc
from netcoh import graphs
from netcoh.cli import main
from netcoh.errors import CoherenceError, GraphFormatError, InvalidParameterError, InvalidSizeError, NumericalError
from netcoh.graphs import FAMILIES, build_family, family_spectrum


def edge_set(graph):
    return {(i, j) for i, j, _ in graph.edges}


class TestBuilders:
    def test_path_small(self):
        g = nc.build_path(3, 1.0)
        assert edge_set(g) == {(1, 2), (2, 3)}
        assert all(w == 1.0 for _, _, w in g.edges)

    def test_path_two_nodes(self):
        g = nc.build_path(2, 0.5)
        assert g.edges == ((1, 2, 0.5),)

    def test_path_100(self):
        g = nc.build_path(100, 0.3)
        assert g.edge_count == 99
        assert all(w == 0.3 for _, _, w in g.edges)
        assert nc.spectrum(g).is_connected

    def test_ring(self):
        assert nc.build_ring(3, 1.0).edge_count == 3
        assert edge_set(nc.build_ring(4, 1.0)) == {(1, 2), (2, 3), (3, 4), (1, 4)}
        assert all(w == 2.0 for _, _, w in nc.build_ring(4, 2.0).edges)

    def test_complete(self):
        assert nc.build_complete(2, 1.0).edges == ((1, 2, 1.0),)
        assert nc.build_complete(4, 1.0).edge_count == 6
        g = nc.build_complete(5, 0.2)
        assert g.edge_count == 10
        assert all(w == 0.2 for _, _, w in g.edges)

    def test_size_errors(self):
        with pytest.raises(InvalidSizeError):
            nc.build_path(1, 1.0)
        with pytest.raises(InvalidSizeError):
            nc.build_ring(2, 1.0)
        with pytest.raises(InvalidSizeError):
            nc.build_complete(1, 1.0)
        with pytest.raises(InvalidSizeError):
            nc.build_torus(2, 2, 1.0)
        with pytest.raises(InvalidSizeError):
            nc.build_torus(3, 4, 1.0)


def brute_force_torus_edges(side, dims):
    """Independent oracle: adjacency from wrap-around coordinate distance."""
    coords = [()]
    for _ in range(dims):
        coords = [c + (k,) for c in coords for k in range(side)]
    index = {c: 1 + sum(v * side ** (dims - 1 - axis) for axis, v in enumerate(c)) for c in coords}
    edges = set()
    for a in coords:
        for b in coords:
            diff = [(x - y) % side for x, y in zip(a, b)]
            if sorted(d if d <= side - d else side - d for d in diff) == [0] * (dims - 1) + [1]:
                edges.add((min(index[a], index[b]), max(index[a], index[b])))
    return edges


class TestTorus:
    def test_matches_ring_for_one_dimension(self):
        torus = nc.build_torus(5, 1, 0.7)
        ring = nc.build_ring(5, 0.7)
        assert torus.edges == ring.edges

    @pytest.mark.parametrize("side,dims", [(3, 2), (4, 2), (3, 3), (4, 3)])
    def test_against_brute_force_adjacency(self, side, dims):
        g = nc.build_torus(side, dims, 1.0)
        assert g.node_count == side**dims
        assert edge_set(g) == brute_force_torus_edges(side, dims)

    def test_degrees(self):
        g = nc.build_torus(3, 2, 1.0)
        assert g.node_count == 9 and g.edge_count == 18
        degrees = np.diag(nc.laplacian(g))  # unit weights: the degree is the neighbour count
        assert degrees.tolist() == [4.0] * 9
        g3 = nc.build_torus(4, 3, 1.0)
        assert g3.node_count == 64
        assert np.all(np.diag(nc.laplacian(g3)) == 6.0)


class TestFamilyRegistry:
    @pytest.mark.parametrize("n,weight", [(3, 1.0), (12, 0.7), (1024, 1.3)])
    def test_ring_is_the_one_dimensional_torus(self, n, weight):
        assert nc.build_ring(n, weight) == nc.build_torus(n, 1, weight)
        ring, torus = nc.ring_spectrum(n, weight), nc.torus_spectrum(n, 1, weight)
        assert np.array_equal(ring.eigenvalues, torus.eigenvalues)

    def test_size_and_weight_are_checked_once(self, monkeypatch):
        calls = []
        member = graphs._member
        monkeypatch.setattr(graphs, "_member", lambda *args: calls.append(args[0]) or member(*args))
        nc.build_ring(5, 1.0)
        nc.torus_spectrum(3, 2, 1.0)
        build_family("path", 4, 1.0)
        assert calls == ["ring", "torus2", "path"]

    @pytest.mark.parametrize("family", FAMILIES)
    def test_smallest_size_is_shared_by_builder_and_spectrum(self, family):
        smallest = 3 if family == "ring" or family.startswith("torus") else 2
        assert build_family(family, smallest, 1.0).node_count == family_spectrum(family, smallest, 1.0).node_count
        for make in (build_family, family_spectrum):
            with pytest.raises(InvalidSizeError):
                make(family, smallest - 1, 1.0)
            with pytest.raises(InvalidSizeError):
                make(family, smallest, float("inf"))

    @pytest.mark.parametrize("make, size", [
        (nc.ring_spectrum, 3.5), (nc.path_spectrum, 4.5), (nc.build_path, 2.5), (nc.build_ring, 4.0),
        (nc.complete_spectrum, np.float64(5.0)),
    ])
    def test_non_integral_size_rejected(self, make, size):
        # ring_spectrum(3.5) gave a 4-eigenvalue spectrum, path_spectrum(4.5) a
        # finite V_N, and build_path(2.5) a bare TypeError
        with pytest.raises(InvalidSizeError, match="size must be an integer"):
            make(size, 1.0)

    def test_numpy_integer_sizes_pass(self):
        assert nc.build_ring(np.int64(5), 1.0) == nc.build_ring(5, 1.0)
        assert np.array_equal(nc.path_spectrum(np.int32(6), 1.0).eigenvalues, nc.path_spectrum(6, 1.0).eigenvalues)

    @pytest.mark.parametrize("weight", ["1.0", None, 1j, b"1", [1.0], np.array([1.0, 2.0])],
                             ids=["str", "None", "complex", "bytes", "list", "array"])
    @pytest.mark.parametrize("make", [
        nc.build_path, nc.build_ring, nc.build_complete, nc.path_spectrum, nc.ring_spectrum, nc.complete_spectrum,
        lambda n, w: nc.build_torus(n, 2, w), lambda n, w: nc.torus_spectrum(n, 2, w),
        lambda n, w: build_family("torus3", n, w), lambda n, w: family_spectrum("ring", n, w),
    ], ids=["build_path", "build_ring", "build_complete", "path_spectrum", "ring_spectrum", "complete_spectrum",
            "build_torus", "torus_spectrum", "build_family", "family_spectrum"])
    def test_a_family_weight_that_is_not_a_real_number(self, make, weight):
        # '>' raised a bare TypeError on these, or a ValueError on the two-entry array
        with pytest.raises(InvalidSizeError, match="edge weight must be a real number"):
            make(4, weight)

    def test_errors_name_the_family(self):
        for make in (lambda: build_family("ring", 2, 1.0), lambda: nc.build_ring(2, 1.0),
                     lambda: nc.ring_spectrum(2, 1.0)):
            with pytest.raises(InvalidSizeError, match="ring graph needs n >= 3, got 2"):
                make()
        for make in (nc.build_torus, nc.torus_spectrum):
            with pytest.raises(InvalidSizeError, match="torus needs side >= 3, got 2"):
                make(2, 1, 1.0)
        with pytest.raises(InvalidSizeError, match="path graph needs n >= 2, got 1"):
            family_spectrum("path", 1, 1.0)
        with pytest.raises(InvalidParameterError, match="unknown family 'star'"):
            build_family("star", 8, 1.0)


class TestSpectrumValidation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_eigenvalues_raise(self, bad):
        with pytest.raises(NumericalError):
            nc.p_variance(nc.LaplacianSpectrum(np.array([0.0, 1.0, bad]), 1e-9), nc.PGains(1, 1, 1, 1))

    @pytest.mark.parametrize("tolerance", [0.0, -1e-9, math.nan, math.inf])
    def test_zero_tolerance_must_be_finite_and_positive(self, tolerance):
        # nan and inf were taken, and inf then called a connected spectrum disconnected
        with pytest.raises(GraphFormatError, match="zero_tolerance must be finite and positive"):
            nc.LaplacianSpectrum(np.array([0.0, 1.0, 2.0]), tolerance)

    def test_smallest_eigenvalue_above_tolerance_raises(self):
        with pytest.raises(NumericalError, match="smallest eigenvalue 1.000e-03 exceeds zero tolerance"):
            nc.LaplacianSpectrum(np.array([1e-3, 1.0]), 1e-9)

    @pytest.mark.parametrize("given", [[1e-12, 2.0, 1.0, 3.0], [1e-12, 1.0, 2.0, 3.0]], ids=["unsorted", "sorted"])
    def test_stores_a_sorted_read_only_copy(self, given):
        vals = np.array(given)
        spec = nc.LaplacianSpectrum(vals, 1e-9)
        assert spec.eigenvalues.tolist() == [0.0, 1.0, 2.0, 3.0]
        assert not spec.eigenvalues.flags.writeable
        assert vals.tolist() == given and vals.flags.writeable  # the caller's array is untouched
        vals[:] = 7.0
        assert spec.eigenvalues.tolist() == [0.0, 1.0, 2.0, 3.0]  # and never aliased

    def test_producers_hand_over_their_array(self):
        # the library's own fresh arrays are validated in place, not copied
        vals = np.array([1e-12, 2.0, 1.0])
        spec = graphs.LaplacianSpectrum._adopt(vals, 1e-9)
        assert spec.eigenvalues is vals and vals.tolist() == [0.0, 1.0, 2.0]
        assert not vals.flags.writeable
        with pytest.raises(NumericalError, match="exceeds zero tolerance"):
            graphs.LaplacianSpectrum._adopt(np.array([1e-3, 1.0]), 1e-9)


@st.composite
def edge_lists(draw):
    """A node count and a list of valid, pairwise distinct weighted edges."""
    n = draw(st.integers(2, 8))
    pair = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda p: p[0] != p[1])
    pairs = draw(st.lists(pair, max_size=12, unique_by=frozenset))
    weights = draw(st.lists(st.floats(1e-3, 1e3), min_size=len(pairs), max_size=len(pairs)))
    return n, [(i, j, w) for (i, j), w in zip(pairs, weights)]


@st.composite
def edge_lists_with_one_bad_edge(draw):
    """A valid edge list with one invalid edge inserted; returns it and its index."""
    n, edges = draw(edge_lists())
    kinds = ["self-loop", "range", "weight"] + (["duplicate"] if edges else [])
    kind = draw(st.sampled_from(kinds))
    lo = 0
    if kind == "self-loop":
        i = draw(st.integers(1, n))
        bad = (i, i, 1.0)
    elif kind == "range":
        outside = draw(st.sampled_from([0, -1, n + 1, n + 7]))
        bad = (outside, 1, 1.0) if draw(st.booleans()) else (1, outside, 1.0)
    elif kind == "weight":
        bad = (1, 2, draw(st.sampled_from([0.0, -1.5, math.inf, -math.inf, math.nan])))
    else:  # a duplicate counts as bad only after the edge it repeats
        lo = draw(st.integers(0, len(edges) - 1)) + 1
        i, j, _ = edges[lo - 1]
        bad = (j, i, 2.0) if draw(st.booleans()) else (i, j, 2.0)
    k = draw(st.integers(lo, len(edges)))
    return n, edges[:k] + [bad] + edges[k:], k


def edge_list_text(n, edges, comments):
    """Edge-list text with ``# ...`` lines before the edges flagged in ``comments``;
    returns the text and the line number of every edge."""
    rows, lines = ["# generated", str(n)], []
    for (i, j, w), comment in zip(edges, comments):
        if comment:
            rows.append("# next edge")
        rows.append(f"{i} {j} {w!r}")
        lines.append(len(rows))
    return "\n".join(rows) + "\n", lines


class TestSharedEdgeValidator:
    @settings(max_examples=150, deadline=None)
    @given(edge_lists_with_one_bad_edge(), st.data())
    def test_parser_names_the_bad_line_with_the_graph_message(self, case, data):
        n, edges, k = case
        comments = data.draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
        text, lines = edge_list_text(n, edges, comments)
        with pytest.raises(GraphFormatError) as parsed:
            nc.from_edge_list(text)
        with pytest.raises(GraphFormatError) as direct:
            nc.WeightedGraph(n, tuple(edges))
        assert parsed.value.line_number == lines[k]
        assert direct.value.line_number == 0
        assert str(parsed.value) == str(direct.value).replace("line 0:", f"line {lines[k]}:", 1)

    @settings(max_examples=150, deadline=None)
    @given(edge_lists(), st.data())
    def test_valid_lists_round_trip(self, case, data):
        n, edges = case
        comments = data.draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
        text, _ = edge_list_text(n, edges, comments)
        assert nc.from_edge_list(text) == nc.WeightedGraph(n, tuple(edges))


class TestEdgeListParsing:
    def test_path_of_three(self):
        g = nc.from_edge_list("3\n1 2 1.0\n2 3 1.0")
        assert g.node_count == 3 and edge_set(g) == {(1, 2), (2, 3)}

    def test_comments_and_blank_lines(self):
        g = nc.from_edge_list("# header\n\n3\n# edge block\n1 2 1.0\n2 3 0.5\n")
        assert g.edge_count == 2

    @pytest.mark.parametrize(
        "text,lineno,fragment",
        [
            ("2\n1 1 1.0", 2, "self-loop"),
            ("3\n1 2 -1.0", 2, "positive"),
            ("3\n1 2 1.0\n2 1 2.0", 3, "duplicate"),
            ("3\n1 2", 2, "i j w"),
            ("3\n1 2 abc", 2, "malformed"),
            ("x\n1 2 1.0", 1, "node count"),
            ("3\n1 4 1.0", 2, "out of range"),
            # numbers are ASCII without digit-group underscores, though int
            # and float read "1_0" as 10 and any Unicode decimal digit
            ("1_0\n1 2 1.0", 1, "node count"),
            ("\u0663\n1 2 1.0", 1, "node count"),  # an Arabic-Indic 3
            ("3\n1 2 1_0.5", 2, "malformed"),
            ("3\n1 2 1.0\n2 3_0 1.0", 3, "malformed"),
            ("3\n1 \u0662 1.0", 2, "malformed"),
            ("3\n1 2 \u0661.5", 2, "malformed"),
        ],
    )
    def test_parse_errors_carry_line_numbers(self, text, lineno, fragment):
        with pytest.raises(GraphFormatError) as err:
            nc.from_edge_list(text)
        assert err.value.line_number == lineno
        assert fragment in str(err.value)

    def test_empty_text(self):
        with pytest.raises(GraphFormatError):
            nc.from_edge_list("# nothing\n")

    @pytest.mark.parametrize(
        "text,lineno,fragment",
        [
            ("4\n1 2 1.0\n3 3 1.0\n2 3 1.0\n1 2 x\n", 3, "self-loop"),
            ("4\n1 2 1.0\n1 2 x\n2 3 1.0\n3 3 1.0\n", 3, "malformed"),
            ("4\n1 2 1.0\n2 1 1.0\n2 3\n", 3, "duplicate"),
            ("0\n1 2 1.0\n", 1, "node count must be positive"),
        ],
    )
    def test_first_offending_line_is_named(self, text, lineno, fragment):
        # edge checks run after parsing, yet a bad edge above a malformed
        # line is still the one reported
        with pytest.raises(GraphFormatError) as err:
            nc.from_edge_list(text)
        assert err.value.line_number == lineno
        assert fragment in str(err.value)

    def test_edges_are_checked_once_per_parse(self, monkeypatch):
        calls = []
        check = graphs._canonical_edges
        monkeypatch.setattr(graphs, "_canonical_edges", lambda *args: calls.append(1) or check(*args))
        nc.from_edge_list("3\n1 2 1.0\n2 3 1.0\n")
        assert len(calls) == 1

    def test_graph_errors_give_the_edge_index(self):
        with pytest.raises(GraphFormatError) as err:
            nc.WeightedGraph(4, ((1, 2, 1.0), (2, 3, 1.0), (4, 4, 1.0)))
        assert (err.value.line_number, err.value.edge_index) == (0, 2)
        assert err.value.message == "self-loop at node 4"


def looped_laplacian(graph):
    """The per-edge loop that ``laplacian`` replaced, kept as its reference."""
    lap = np.zeros((graph.node_count, graph.node_count))
    for i, j, w in graph.edges:
        a, b = i - 1, j - 1
        lap[a, b] -= w
        lap[b, a] -= w
        lap[a, a] += w
        lap[b, b] += w
    return lap


class TestLaplacian:
    @settings(max_examples=200, deadline=None)
    @given(edge_lists())
    def test_scatter_equals_the_per_edge_loop(self, case):
        # degrees add up in edge order, so the sums are the loop's bit for bit
        graph = nc.WeightedGraph(*case)
        assert np.array_equal(nc.laplacian(graph), looped_laplacian(graph))

    def test_path3(self):
        lap = nc.laplacian(nc.build_path(3, 1.0))
        assert np.array_equal(lap, [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])

    def test_complete2(self):
        assert np.array_equal(nc.laplacian(nc.build_complete(2, 1.0)), [[1, -1], [-1, 1]])

    def test_ring3_weighted(self):
        lap = nc.laplacian(nc.build_ring(3, 2.0))
        assert np.array_equal(lap, [[4, -2, -2], [-2, 4, -2], [-2, -2, 4]])

    def test_row_sums_and_symmetry(self):
        rng = np.random.default_rng(7)
        graphs = [
            nc.build_path(17, 0.4),
            nc.build_ring(12, 1.7),
            nc.build_complete(9, 0.9),
            nc.build_torus(4, 2, 1.3),
        ]
        for g in graphs:
            lap = nc.laplacian(g)
            assert np.abs(lap.sum(axis=1)).max() <= 1e-12
            assert np.array_equal(lap, lap.T)
        del rng


class TestSpectrum:
    def test_path3_by_characteristic_polynomial(self):
        # det(t I - L) = t^3 - 4 t^2 + 3 t for the unit path on 3 nodes
        expected = np.sort(np.roots([1.0, -4.0, 3.0, 0.0]).real)
        spec = nc.spectrum(nc.build_path(3, 1.0))
        assert np.allclose(spec.eigenvalues, expected, atol=1e-9)
        assert np.allclose(spec.eigenvalues, [0.0, 1.0, 3.0], atol=1e-9)

    @pytest.mark.parametrize("n,l", [(2, 1.0), (5, 0.3), (11, 2.0)])
    def test_complete_eigenvalues(self, n, l):
        spec = nc.spectrum(nc.build_complete(n, l))
        assert spec.eigenvalues[0] == 0.0
        assert np.allclose(spec.eigenvalues[1:], n * l, rtol=1e-12)

    def test_ring4_by_circulant_formula(self):
        formula = np.sort(2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(4) / 4))
        spec = nc.spectrum(nc.build_ring(4, 1.0))
        assert np.allclose(spec.eigenvalues, formula, atol=1e-12)
        assert np.allclose(spec.eigenvalues, [0.0, 2.0, 2.0, 4.0], atol=1e-12)

    def test_count_sum_and_floor(self):
        for g in [nc.build_ring(9, 1.4), nc.build_torus(3, 3, 0.8), nc.build_complete(7, 2.2)]:
            spec = nc.spectrum(g)
            lap = nc.laplacian(g)
            assert spec.eigenvalues.size == g.node_count
            assert np.all(spec.eigenvalues >= -spec.zero_tolerance)
            assert np.isclose(spec.eigenvalues.sum(), np.trace(lap), rtol=1e-9)

    def test_relative_zero_tolerance_on_dense_heavy_graph(self):
        # absolute 1e-9 would misclassify lambda_1 here; the relative rule holds
        spec = nc.spectrum(nc.build_complete(300, 50.0))
        assert spec.eigenvalues[0] == 0.0
        assert spec.is_connected


GOLDEN_GRAPH = "7\n1 2 0.5\n2 3 1.7\n3 4 0.9\n4 5 1.1\n5 6 2.3\n6 7 0.4\n1 7 1.3\n2 5 0.8\n3 6 0.6\n"


def no_dense_solver(lap):
    raise AssertionError("the dense eigensolver was called")


def random_graph(n, p, seed):
    """An Erdos-Renyi graph with weights in [0.5, 2]."""
    rng = np.random.default_rng(seed)
    i, j = np.triu_indices(n, 1)
    keep = rng.random(i.size) < p
    return nc.WeightedGraph(n, zip(i[keep] + 1, j[keep] + 1, rng.uniform(0.5, 2.0, keep.sum())))


@st.composite
def sparse_graphs(draw):
    """Random trees, paths with random weights and edgeless pieces, up to four
    of them side by side, their nodes shuffled."""
    edges, n, weight = [], 0, st.floats(0.1, 10.0)
    for kind in draw(st.lists(st.sampled_from(["tree", "path", "edgeless"]), min_size=1, max_size=4)):
        size = draw(st.integers(1, 24))
        if kind == "tree":
            links = [(draw(st.integers(0, k - 1)), k) for k in range(1, size)]
        else:
            links = [(k - 1, k) for k in range(1, size)] if kind == "path" else []
        edges += [(n + a, n + b, draw(weight)) for a, b in links]
        n += size
    label = draw(st.permutations(range(1, n + 1)))
    return nc.WeightedGraph(n, [(label[a], label[b], w) for a, b, w in edges])


class TestBandRoute:
    """Narrow-band graphs (32 kd <= N under a breadth-first order) are solved in band storage."""

    @pytest.mark.parametrize("family,n,weight", [("ring", 64, 1.0), ("ring", 65, 0.7), ("ring", 257, 2.5),
                                                 ("ring", 1024, 1.0), ("path", 64, 1.3), ("path", 100, 1.0),
                                                 ("path", 512, 0.4)])
    def test_rings_and_paths_skip_the_dense_solver(self, monkeypatch, family, n, weight):
        graph, closed = build_family(family, n, weight), family_spectrum(family, n, weight)
        monkeypatch.setattr(np.linalg, "eigvalsh", no_dense_solver)
        vals = nc.spectrum(graph).eigenvalues
        assert vals[0] == 0.0
        assert np.abs(vals - closed.eigenvalues).max() <= 1e-12 * closed.eigenvalues[-1]

    @pytest.mark.parametrize("graph", [nc.build_complete(2, 1.0), nc.build_complete(40, 0.3),
                                       nc.build_complete(300, 1.7), nc.from_edge_list(GOLDEN_GRAPH),
                                       random_graph(40, 0.15, 3), nc.build_ring(63, 1.0),
                                       nc.build_torus(16, 2, 1.0), nc.build_torus(8, 3, 1.0)],
                             ids=["complete2", "complete40", "complete300", "golden7", "random40", "ring63",
                                  "torus2_16", "torus3_8"])
    def test_other_graphs_keep_the_dense_solver_byte_for_byte(self, graph):
        dense = np.linalg.eigvalsh(nc.laplacian(graph))
        dense[0] = 0.0
        assert nc.spectrum(graph).eigenvalues.tobytes() == dense.tobytes()

    @pytest.mark.parametrize("graph", [nc.build_torus(side, dims, 1.0) for side, dims in
                                       [(3, 2), (5, 2), (16, 2), (7, 3), (8, 3), (6, 3)]]
                             + [nc.build_ring(40, 1.0), nc.build_path(33, 0.5), nc.from_edge_list(GOLDEN_GRAPH),
                                nc.WeightedGraph(6, ((1, 2, 1.0), (2, 3, 1.0), (4, 5, 1.0), (5, 6, 1.0), (6, 4, 1.0))),
                                random_graph(60, 0.05, 5), random_graph(40, 0.15, 3)],
                             ids=["torus2_3", "torus2_5", "torus2_16", "torus3_7", "torus3_8", "torus3_6",
                                  "ring40", "path33", "golden7", "two_pieces", "random60", "random40"])
    def test_early_refusal_refuses_only_a_band_too_wide(self, graph):
        whole = graphs._laplacian_band(graph, graph.node_count)  # kd <= N - 1: nothing refuses it
        kd = whole.shape[0] - 1
        for max_kd in range(kd + 2):
            band = graphs._laplacian_band(graph, max_kd)
            assert (band is None) == (max_kd < kd)
            assert band is None or band.tobytes() == whole.tobytes()

    def test_a_failed_band_solve_raises(self, monkeypatch):
        import scipy.linalg.lapack

        monkeypatch.setattr(scipy.linalg.lapack, "dsbev", lambda band, **options: (band[0], None, 3))
        with pytest.raises(NumericalError, match="dsbev info 3"):
            nc.spectrum(nc.build_path(64, 1.0))

    @settings(max_examples=80, deadline=None)
    @given(graph=sparse_graphs())
    @example(graph=nc.WeightedGraph(1, ()))
    @example(graph=nc.WeightedGraph(2, ()))
    @example(graph=nc.WeightedGraph(2, ((1, 2, 0.5),)))
    @example(graph=nc.WeightedGraph(5, ()))
    def test_band_and_dense_routes_agree(self, graph):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(graphs, "_laplacian_band", lambda *args: None)
            dense = nc.spectrum(graph)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(graphs, "_BAND_RATIO", 1)  # every graph has kd < N
            patch.setattr(np.linalg, "eigvalsh", no_dense_solver)
            band = nc.spectrum(graph)
        assert np.abs(band.eigenvalues - dense.eigenvalues).max() <= 1e-12 * dense.eigenvalues[-1]
        assert band.is_connected is dense.is_connected
        for spec in (band, dense):
            if dense.is_connected:
                assert spec.connected_modes().size == graph.node_count - 1
            else:
                with pytest.raises(nc.DisconnectedGraphError):
                    spec.connected_modes()


class TestConnectivity:
    """Connectivity is the spectrum's verdict: one zero Laplacian mode."""

    def test_examples(self):
        assert nc.spectrum(nc.build_path(5, 1.0)).is_connected
        assert nc.spectrum(nc.build_complete(3, 1.0)).is_connected
        two_pairs = nc.WeightedGraph(4, ((1, 2, 1.0), (3, 4, 1.0)))
        assert not nc.spectrum(two_pairs).is_connected

    def test_agrees_with_spectral_gap(self):
        cases = [
            (nc.build_path(6, 0.5), True),
            (nc.build_ring(8, 1.0), True),
            (nc.build_torus(3, 2, 1.0), True),
            (nc.WeightedGraph(4, ((1, 2, 1.0), (3, 4, 1.0))), False),
            (nc.WeightedGraph(5, ((1, 2, 1.0), (2, 3, 1.0), (4, 5, 1.0))), False),
        ]
        for g, connected in cases:
            assert nc.spectrum(g).is_connected is connected

    def test_one_node_graph_is_connected_both_ways(self):
        graph = nc.WeightedGraph(1, ())
        spec = nc.spectrum(graph)
        assert spec.is_connected
        assert nc.assemble_p(graph, nc.PGains(1.0, 1.0, 1.0, 1.0)).n == 1  # assemble's own eigh agrees
        assert spec.connected_modes().size == 0
        assert nc.p_variance(spec, nc.PGains(1.0, 1.0, 1.0, 1.0)).v_n == 0.0


class TestAnalyticSpectra:
    @pytest.mark.parametrize(
        "analytic,graph",
        [
            (nc.ring_spectrum(24, 0.7), nc.build_ring(24, 0.7)),
            (nc.path_spectrum(17, 1.3), nc.build_path(17, 1.3)),
            (nc.complete_spectrum(13, 0.4), nc.build_complete(13, 0.4)),
            (nc.torus_spectrum(5, 2, 1.1), nc.build_torus(5, 2, 1.1)),
            (nc.torus_spectrum(3, 3, 0.9), nc.build_torus(3, 3, 0.9)),
        ],
    )
    def test_match_dense_eigensolver(self, analytic, graph):
        numeric = nc.spectrum(graph)
        assert np.allclose(analytic.eigenvalues, numeric.eigenvalues, atol=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        family=st.sampled_from(["ring", "torus1", "path"]),
        n=st.integers(3, 4096),
        weight=st.floats(0.0, 1e3, exclude_min=True, allow_subnormal=False),
    )
    @example(family="ring", n=2**18, weight=1.0)
    @example(family="torus1", n=2**18 + 1, weight=0.7)
    @example(family="path", n=2**18, weight=1.3)
    @example(family="ring", n=2**20, weight=1.0)
    @example(family="torus1", n=2**20 - 1, weight=3.0)
    @example(family="path", n=2**20, weight=1.0)
    def test_built_in_order_equals_sorted_per_index_values(self, family, n, weight):
        # the spectra are built ascending, bit for bit equal to the sorted
        # values of k = 0..n-1 in index order, where a ring's value of k > n/2
        # is that of its twin n-k, computed from (n-k)/n < 1/2
        eigenvalues = family_spectrum(family, n, weight).eigenvalues
        if family == "path":
            per_index = np.square(np.sin(np.arange(n) / (2 * n) * np.pi)) * 4.0 * weight
        else:
            lower = np.square(np.sin(np.arange(n // 2 + 1) / n * np.pi)) * 4.0 * weight
            per_index = np.concatenate((lower, lower[1:(n + 1) // 2][::-1]))  # lambda_{n-k} = lambda_k
            pairs = (n - 1) // 2
            assert eigenvalues[1:2 * pairs:2].tobytes() == eigenvalues[2:2 * pairs + 1:2].tobytes()
        assert eigenvalues.tobytes() == np.sort(per_index).tobytes()

    def test_large_ring_against_eigensolver(self):
        analytic = nc.ring_spectrum(512, 1.0)
        numeric = nc.spectrum(nc.build_ring(512, 1.0))
        assert np.allclose(analytic.eigenvalues, numeric.eigenvalues, atol=1e-8)


class TestWeightedGraphInvariants:
    def test_rejects_bad_edges(self):
        with pytest.raises(GraphFormatError):
            nc.WeightedGraph(3, ((1, 1, 1.0),))
        with pytest.raises(GraphFormatError):
            nc.WeightedGraph(3, ((1, 2, -1.0),))
        with pytest.raises(GraphFormatError):
            nc.WeightedGraph(3, ((1, 2, 1.0), (2, 1, 1.0)))
        with pytest.raises(GraphFormatError):
            nc.WeightedGraph(3, ((1, 4, 1.0),))

    @pytest.mark.parametrize("edges, index", [
        (((1.5, 3, 1.0), (1, 2, 1.0)), 0),  # truncated to node 1, it would add an edge (1, 3) never given
        (((1, 2, 1.0), (2, 3.0, 1.0)), 1),
        (((1, 2, 1.0), (2, 3, 1.0), ("1", 3, 1.0)), 2),
    ])
    def test_rejects_non_integer_endpoints(self, edges, index):
        with pytest.raises(GraphFormatError, match="non-integer endpoint") as err:
            nc.WeightedGraph(3, edges)
        assert err.value.edge_index == index

    @pytest.mark.parametrize("count", [2.5, 3.0, "3", None])
    def test_rejects_non_integer_node_count(self, count):
        with pytest.raises(InvalidSizeError, match="node_count must be an integer"):
            nc.WeightedGraph(count, ((1, 2, 1.0),))

    def test_numpy_integers_are_integers(self):
        g = nc.WeightedGraph(np.int64(3), ((np.int64(2), np.int32(1), 1.0), (2, 3, 1.0)))
        assert g.edges == ((1, 2, 1.0), (2, 3, 1.0))

    def test_canonical_edge_storage(self):
        g = nc.WeightedGraph(3, ((3, 1, 2.0), (2, 1, 1.0)))
        assert g.edges == ((1, 2, 1.0), (1, 3, 2.0))


class TestClosedFormPrecision:
    """The sine form keeps lambda_2 exact where 2 - 2 cos cancels."""

    @pytest.mark.parametrize(
        "spectrum_fn,denominator",
        [(nc.ring_spectrum, lambda n: n), (nc.path_spectrum, lambda n: 2 * n)],
        ids=["ring", "path"],
    )
    def test_p_variance_at_two_to_the_twenty(self, spectrum_fn, denominator):
        n = 2**20
        gains = nc.PGains(f=1.0, g=1.0, f0=1.0, g0=0.0)
        k = np.arange(1, n)
        if spectrum_fn is nc.ring_spectrum:
            k = np.minimum(k, n - k)  # sin(pi k / n) = sin(pi (n-k) / n), from the angle below pi/2
        lam = 4.0 * np.sin(np.pi * k / denominator(n)) ** 2
        terms = 1.0 / ((gains.f0 + gains.f * lam) * (gains.g0 + gains.g * lam))
        reference = math.fsum(terms.tolist()) / (2.0 * n)
        value = nc.p_variance(spectrum_fn(n, 1.0), gains).v_n
        assert abs(value - reference) <= 1e-14 * reference

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-16, reason="long double is no wider than double here")
    @pytest.mark.parametrize("n", [2**20, 1_000_003])
    def test_ring_ends_within_four_eps_of_long_double(self, n):
        # the low modes set the coherence limits and the high modes lambda_max;
        # both twins of each pair must keep the precision of the lower one
        vals = nc.ring_spectrum(n, 1.0).eigenvalues
        index = np.r_[0:64, n - 64:n]
        k = (index + 1) // 2  # ascending order: 0, 1, 1, 2, 2, ...
        pi = np.arccos(np.longdouble(-1.0))
        reference = 4 * np.square(np.sin(pi * k.astype(np.longdouble) / n))
        error = np.abs(vals[index] - reference)
        assert (error <= 4 * np.finfo(float).eps * reference).all()

    def test_large_closed_form_spectra_stay_connected(self):
        assert nc.ring_spectrum(2**20, 1.0).is_connected
        assert nc.path_spectrum(2**16, 1.0).is_connected


class TestDisconnectedSpectrum:
    def test_spectrum_is_returned_but_flagged(self):
        graph = nc.from_edge_list("6\n1 2 1\n2 3 1\n4 5 1\n5 6 1\n")
        spec = nc.spectrum(graph)
        assert not spec.is_connected
        with pytest.raises(nc.DisconnectedGraphError) as err:
            spec.connected_modes()
        assert err.value.mode_index == 2


def looped_canonical_edges(node_count, edges):
    """The per-edge loop that the array validator replaced, kept as its reference."""
    canonical = []
    seen = set()
    for index, (i, j, w) in enumerate(edges):
        try:
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


def outcome(make):
    """What ``make()`` gives, or the class, message and positions of the GraphFormatError it raises."""
    try:
        return make()
    except GraphFormatError as exc:
        return type(exc), exc.message, exc.edge_index, exc.line_number


@st.composite
def checked_edge_lists(draw):
    """A node count and edges mixing valid ones with every defect the loop names.

    Endpoints come as Python, numpy and bool integers, as Python integers
    beyond int64, and as floats, numpy bools, strings and None, which are
    not integers; a repeat of an earlier edge, either way round, makes a
    duplicate.
    """
    n = draw(st.integers(1, 8))
    node = st.integers(1, n)
    endpoint = st.one_of(
        node, node.map(np.int64), node.map(np.int32), st.booleans(),
        st.sampled_from([0, -1, n + 1, 2**63 - 1, 2**63, -2**63 - 1, 2**70, -2**70]),
        st.sampled_from([1.0, 2.5, np.float64(2.0), np.True_, "1", None]),
    )
    good = st.one_of(st.floats(1e-3, 1e3), st.integers(1, 5), st.floats(0.1, 10.0).map(np.float64))
    weight = st.one_of(good, st.sampled_from([0.0, -1.5, math.inf, -math.inf, math.nan, np.float64(-2.0)]))
    edges = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.integers(0, 9))
        if kind >= 8 and edges:
            i, j, _ = draw(st.sampled_from(edges))
            edges.append((j, i, draw(good)) if draw(st.booleans()) else (i, j, draw(good)))
        elif kind >= 5:
            edges.append((draw(endpoint), draw(endpoint), draw(weight)))
        else:  # mostly valid-looking edges, as a file holds
            edges.append((draw(node), draw(node), draw(good)))
    return n, edges


class TestArrayValidator:
    """The array validator gives the old per-edge loop's result, error for error."""

    @settings(max_examples=400, deadline=None)
    @given(checked_edge_lists(), st.data())
    def test_equals_the_per_edge_loop(self, case, data):
        n, edges = case
        expected = outcome(lambda: looped_canonical_edges(n, edges))
        assert outcome(lambda: nc.WeightedGraph(n, tuple(edges)).edges) == expected
        assert outcome(lambda: nc.WeightedGraph(n, edges).edges) == expected  # a list goes the same way
        try:
            ints = [(int(operator.index(i)), int(operator.index(j)), float(w)) for i, j, w in edges]
        except TypeError:  # a non-integer endpoint has no line of its own in a file
            return
        comments = data.draw(st.lists(st.booleans(), min_size=len(ints), max_size=len(ints)))
        text, lines = edge_list_text(n, ints, comments)
        expected = outcome(lambda: looped_canonical_edges(n, ints))
        parsed = outcome(lambda: nc.from_edge_list(text).edges)
        if expected[:1] == (GraphFormatError,):
            _, message, index, _ = expected
            assert parsed == (GraphFormatError, message, None, lines[index])
        else:
            assert parsed == expected

    @pytest.mark.parametrize("endpoint", [2**63, 2**70, -2**63 - 1, -2**70])
    def test_beyond_int64_is_out_of_range(self, endpoint):
        for edges in (((1, 2, 1.0), (endpoint, 2, 1.0)), ((1, 2, 1.0), (2, endpoint, 1.0))):
            with pytest.raises(GraphFormatError, match=r"out of range 1\.\.3") as err:
                nc.WeightedGraph(3, edges)
            assert err.value.edge_index == 1
        with pytest.raises(GraphFormatError, match="out of range") as err:
            nc.from_edge_list(f"3\n1 2 1.0\n2 {endpoint} 1.0\n")
        assert err.value.line_number == 3


class TestTypedEdgeErrors:
    """Every malformed edge raises GraphFormatError naming its position."""

    @pytest.mark.parametrize("weight", ["a", None, 1 + 0j, "1.0", b"1.0", [1.0]])
    def test_a_weight_that_is_not_a_real_number(self, weight):
        # 'a', None and 1+0j raised a bare TypeError from `>`; numpy alone would read '1.0' as 1.0
        with pytest.raises(GraphFormatError, match=r"edge \(2,3\) has a non-real weight") as err:
            nc.WeightedGraph(3, ((1, 2, 1.0), (2, 3, weight)))
        assert err.value.edge_index == 1

    @pytest.mark.parametrize("edge", [(1, 2), (1, 2, 1.0, 5), 7, ()])
    def test_an_edge_that_is_not_a_triple(self, edge):
        # (1, 2) and (1, 2, 1.0, 5) raised a bare ValueError from unpacking
        with pytest.raises(GraphFormatError, match=r"is not an \(i, j, w\) triple") as err:
            nc.WeightedGraph(3, ((1, 2, 1.0), edge, (2, 3, 1.0)))
        assert err.value.edge_index == 1

    def test_each_edge_is_read_once(self):
        # the malformed-edge path read the edges again, and blamed the iterator the first read consumed
        with pytest.raises(GraphFormatError, match=r"edge \(2, 3\) is not an \(i, j, w\) triple") as err:
            nc.WeightedGraph(3, [iter((1, 2, 1.0)), (2, 3)])
        assert err.value.edge_index == 1
        with pytest.raises(GraphFormatError, match=r"edge \(1,2\) has non-positive weight -1\.0") as err:
            nc.WeightedGraph(3, [iter((1, 2, -1.0)), (2, 3)])
        assert err.value.edge_index == 0
        with pytest.raises(GraphFormatError, match=r"edge \(2,2\.5\) has a non-integer endpoint") as err:
            nc.WeightedGraph(3, [(1, 2, 1.0), iter((2, 2.5, 1.0)), 7])
        assert err.value.edge_index == 1
        with pytest.raises(GraphFormatError, match="edge 7 is not an") as err:
            nc.WeightedGraph(3, [iter((1, 2, 1.0)), iter((2, 3, 1.0)), 7])
        assert err.value.edge_index == 2
        assert nc.WeightedGraph(3, [iter((1, 2, 1.0)), [3, 2, 2.0]]).edges == ((1, 2, 1.0), (2, 3, 2.0))

    def test_edges_that_are_not_iterable(self):
        with pytest.raises(GraphFormatError, match="edges must be an iterable") as err:
            nc.WeightedGraph(3, 5)
        assert err.value.edge_index == 0

    def test_an_earlier_bad_edge_is_named_first(self):
        # the structural defect at index 2 comes after a duplicate at index 1
        with pytest.raises(GraphFormatError, match=r"duplicate edge \(2,1\)") as err:
            nc.WeightedGraph(3, ((1, 2, 1.0), (2, 1, 1.0), (1, 2), (3, 3, "a")))
        assert err.value.edge_index == 1
        with pytest.raises(GraphFormatError, match="self-loop at node 3") as err:
            nc.WeightedGraph(3, ((1, 2, 1.0), (3, 3, "a")))  # the self-loop check comes before the weight's
        assert err.value.edge_index == 1


class TestGraphType:
    def test_equality_hash_and_repr(self):
        a = nc.WeightedGraph(3, ((1, 2, 0.5), (3, 2, 1.5)))
        b = nc.WeightedGraph(np.int64(3), [(2, 3, 1.5), (np.int32(2), 1, 0.5)])
        changed = nc.WeightedGraph(3, ((1, 2, 0.5), (2, 3, 1.25)))
        assert (a == b) is True and (a == changed) is False and (a != changed) is True
        assert hash(a) == hash(b)
        assert (a == nc.WeightedGraph(4, a.edges)) is False
        assert a.__eq__((3, a.edges)) is NotImplemented
        assert repr(a) == "WeightedGraph(node_count=3, edges=((1, 2, 0.5), (2, 3, 1.5)))"

    def test_attributes_are_frozen_and_arrays_read_only(self):
        graph = nc.build_ring(5, 1.0)
        for name in ("node_count", "edges", "lo", "hi", "w", "anything"):
            with pytest.raises(FrozenInstanceError):
                setattr(graph, name, None)
        for column in (graph.lo, graph.hi, graph.w):
            assert not column.flags.writeable
        assert graph.lo.dtype == graph.hi.dtype == np.intp and graph.w.dtype == np.float64

    def test_edges_are_python_scalars_built_once(self):
        graph = nc.build_torus(3, 2, 0.5)
        assert "edges" not in vars(graph)
        edges = graph.edges
        assert graph.edges is edges
        assert all(type(i) is int and type(j) is int and type(w) is float for i, j, w in edges)
        assert list(edges) == sorted(edges) and all(i < j for i, j, _ in edges)

    @pytest.mark.parametrize("make", [nc.build_path, nc.build_ring, nc.build_complete,
                                      lambda n, w: nc.build_torus(n, 2, w)])
    def test_builders_equal_their_edge_tuples(self, make):
        graph = make(5, 0.75)
        rebuilt = nc.WeightedGraph(graph.node_count, graph.edges)
        assert rebuilt == graph
        assert np.array_equal(nc.laplacian(rebuilt), looped_laplacian(graph))

    def test_pickles(self):
        graph = nc.build_complete(6, 1.5)
        assert pickle.loads(pickle.dumps(graph)) == graph

    def test_complete_1000_and_laplacian_stay_small(self):
        tracemalloc.start()
        try:
            lap = nc.laplacian(nc.build_complete(1000, 1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # measured 46 MiB: 12 MiB of edge arrays, the 8 MiB Laplacian and the
        # scatter's index arrays; 499,500 edge tuples took 130 MiB
        assert peak < 64 * 2**20
        assert lap[0, 0] == 999.0 and lap[0, 1] == -1.0

    def test_no_library_path_reads_edges(self, monkeypatch, tmp_path):
        text = "7\n1 2 0.5\n2 3 1.7\n3 4 0.9\n4 5 1.1\n5 6 2.3\n6 7 0.4\n1 7 1.3\n2 5 0.8\n3 6 0.6\n"
        graph_file, gains_file = tmp_path / "graph.txt", tmp_path / "dapi.cfg"
        graph_file.write_text(text)
        gains_file.write_text("controller = dapi\nf = 2.0\ng = 0.3\ng0 = 1.0\nki = 0.8\nc = 0.1\n")

        def edges(graph):
            raise AssertionError("WeightedGraph.edges was read")

        monkeypatch.setattr(graphs.WeightedGraph, "edges", property(edges))
        graph = nc.from_edge_list(text)
        assert graph == nc.WeightedGraph(7, ((1, 2, 0.5), (2, 3, 1.7), (3, 4, 0.9), (4, 5, 1.1), (5, 6, 2.3),
                                             (6, 7, 0.4), (1, 7, 1.3), (2, 5, 0.8), (3, 6, 0.6)))
        hash(graph)
        for kind, gains in (("p", nc.PGains(1.3, 0.7, 0.2, 0.5)), ("dapi", nc.DapiGains(2.0, 0.3, 1.0, 0.8, 0.1))):
            nc.full_variance(nc.assemble(graph, kind, gains))
            nc.variance_by_kind(nc.spectrum(graph), kind, gains)
        for family in FAMILIES:
            nc.laplacian(build_family(family, 4, 1.0))
        for argv in (["variance", "--graph", str(graph_file)],
                     ["variance", "--graph", str(graph_file), "--method", "full"],
                     ["tune", "--graph", str(graph_file), "--grid-points", "8"]):
            assert main(argv + ["--gains-file", str(gains_file), "--out", str(tmp_path / "out.csv")]) == 0


class TestEdgeListFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet=st.sampled_from("0123456789 .-+#\neEinfa\t_x"), max_size=80) | st.text(max_size=40))
    def test_arbitrary_text_raises_only_coherence_errors(self, text):
        try:
            graph = nc.from_edge_list(text)
        except GraphFormatError as exc:
            assert exc.line_number >= 1
        except CoherenceError:
            pass
        else:
            assert graph.edge_count == len(graph.edges)

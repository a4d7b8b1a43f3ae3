import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import netcoh as nc
from netcoh import graphs
from netcoh.errors import GraphFormatError, InvalidParameterError, InvalidSizeError, NumericalError
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

    @pytest.mark.parametrize("given", [[1e-12, 2.0, 1.0, 3.0], [1e-12, 1.0, 2.0, 3.0]], ids=["unsorted", "sorted"])
    def test_stores_a_sorted_read_only_copy(self, given):
        vals = np.array(given)
        spec = nc.LaplacianSpectrum(vals, 1e-9)
        assert spec.eigenvalues.tolist() == [0.0, 1.0, 2.0, 3.0]
        assert not spec.eigenvalues.flags.writeable
        assert vals.tolist() == given and vals.flags.writeable  # the caller's array is untouched


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
        lam = 4.0 * np.sin(np.pi * k / denominator(n)) ** 2
        terms = 1.0 / ((gains.f0 + gains.f * lam) * (gains.g0 + gains.g * lam))
        reference = math.fsum(terms.tolist()) / (2.0 * n)
        value = nc.p_variance(spectrum_fn(n, 1.0), gains).v_n
        assert abs(value - reference) <= 1e-10 * reference

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

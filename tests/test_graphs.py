import math

import numpy as np
import pytest

import netcoh as nc
from netcoh.errors import GraphFormatError, InvalidSizeError


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
        assert nc.is_connected(g)

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
        degrees = [len(nbrs) for nbrs in g.neighbor_lists()]
        assert degrees == [4] * 9
        g3 = nc.build_torus(4, 3, 1.0)
        assert g3.node_count == 64
        assert all(len(nbrs) == 6 for nbrs in g3.neighbor_lists())


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


class TestLaplacian:
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
    def test_examples(self):
        assert nc.is_connected(nc.build_path(5, 1.0))
        assert nc.is_connected(nc.build_complete(3, 1.0))
        two_pairs = nc.WeightedGraph(4, ((1, 2, 1.0), (3, 4, 1.0)))
        assert not nc.is_connected(two_pairs)

    def test_agrees_with_spectral_gap(self):
        cases = [
            nc.build_path(6, 0.5),
            nc.build_ring(8, 1.0),
            nc.build_torus(3, 2, 1.0),
            nc.WeightedGraph(4, ((1, 2, 1.0), (3, 4, 1.0))),
            nc.WeightedGraph(5, ((1, 2, 1.0), (2, 3, 1.0), (4, 5, 1.0))),
        ]
        for g in cases:
            assert nc.is_connected(g) == nc.spectrum(g).is_connected


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

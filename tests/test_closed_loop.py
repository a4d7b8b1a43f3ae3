import math
import os
import re
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import netcoh as nc
from netcoh import closed_loop
from netcoh.closed_loop import _is_hurwitz, _law, modal_matrices
from netcoh.errors import (
    CoherenceError,
    DisconnectedGraphError,
    InvalidParameterError,
    InvalidSizeError,
)

OMEGA_REF = 2.0 * math.pi * 60.0
DAPI_README = nc.DapiGains(f=1.0, g=0.0, g0=1.0, k_i=1.0, c=0.1)


class TestAssembleP:
    def test_complete2_all_unit_gains(self):
        system = nc.assemble_p(nc.build_complete(2, 1.0), nc.PGains(1.0, 1.0, 1.0, 1.0))
        expected = np.array(
            [
                [0, 0, 1, 0],
                [0, 0, 0, 1],
                [-2, 1, -2, 1],
                [1, -2, 1, -2],
            ],
            dtype=float,
        )
        assert np.array_equal(system.a, expected)
        assert np.array_equal(system.b, np.vstack([np.zeros((2, 2)), np.eye(2)]))
        assert np.allclose(system.c[:, :2], np.eye(2) - 0.5)
        assert np.array_equal(system.c[:, 2:], np.zeros((2, 2)))

    def test_lower_left_block_is_minus_laplacian_without_absolute_gain(self):
        g = nc.build_ring(5, 1.3)
        system = nc.assemble_p(g, nc.PGains(f=1.0, g=1.0, f0=0.0, g0=0.0))
        assert np.array_equal(system.a[5:, :5], -nc.laplacian(g))

    def test_droop_preset_gives_diagonal_velocity_block(self):
        gains = nc.droop_preset(m=20.0 / OMEGA_REF, d=10.0 / OMEGA_REF, b=0.3, l=1.0)
        system = nc.assemble_p(nc.build_path(3, 1.0), gains)
        assert np.allclose(system.a[3:, 3:], -0.5 * np.eye(3))

    def test_rejects_disconnected(self):
        g = nc.WeightedGraph(4, ((1, 2, 1.0), (3, 4, 1.0)))
        with pytest.raises(DisconnectedGraphError):
            nc.assemble_p(g, nc.PGains(1.0, 1.0, 1.0, 1.0))

    def test_connectivity_is_the_spectrum_verdict(self):
        # reachable by edges, but lambda_2 = 1.5e-12 is below the zero tolerance
        weak_bridge = nc.WeightedGraph(3, ((1, 2, 1.0), (2, 3, 1e-12)))
        assert not nc.spectrum(weak_bridge).is_connected
        with pytest.raises(DisconnectedGraphError, match="more than one zero mode"):
            nc.assemble_p(weak_bridge, nc.PGains(1.0, 1.0, 1.0, 1.0))


    @pytest.mark.skipif(not hasattr(os, "sysconf"), reason="the platform does not report physical memory")
    @pytest.mark.parametrize("kind,gains", [("p", nc.PGains(1.0, 1.0, 1.0, 1.0)), ("dapi", DAPI_README)])
    def test_loop_past_physical_memory_is_refused_before_it_is_built(self, monkeypatch, kind, gains):
        # an edgeless graph of 10^6 nodes is three empty arrays, but its loop
        # needs 8e12 (d^2 + 2d + 2) bytes of dense arrays; the Laplacian, the
        # first of them, must not be built
        monkeypatch.setattr(closed_loop, "laplacian", lambda graph: pytest.fail("the Laplacian was built"))
        with pytest.raises(InvalidSizeError, match=r"N=1000000 nodes needs .* more than the .* physical memory"):
            nc.assemble(nc.WeightedGraph(10**6, []), kind, gains)


class TestAssembleDapi:
    def test_zero_averaging_third_row(self):
        g = nc.build_ring(4, 1.0)
        system = nc.assemble_dapi(g, nc.DapiGains(f=1.0, g=0.0, g0=1.0, k_i=1.0, c=0.0))
        n = 4
        assert np.array_equal(system.a[2 * n :, :n], np.zeros((n, n)))
        assert np.array_equal(system.a[2 * n :, n : 2 * n], -np.eye(n))
        assert np.array_equal(system.a[2 * n :, 2 * n :], np.zeros((n, n)))

    def test_averaging_block_scales_laplacian(self):
        g = nc.build_complete(2, 1.0)
        system = nc.assemble_dapi(g, nc.DapiGains(f=1.0, g=0.0, g0=1.0, k_i=1.0, c=0.1))
        assert np.allclose(system.a[4:, 4:], -0.1 * nc.laplacian(g))

    def test_velocity_damping_without_relative_velocity_gain(self):
        g = nc.build_path(3, 1.0)
        system = nc.assemble_dapi(g, nc.DapiGains(f=1.0, g=0.0, g0=0.7, k_i=1.0, c=0.2))
        assert np.allclose(system.a[3:6, 3:6], -0.7 * np.eye(3))


class TestAssembleFdpd:
    def test_filter_blocks(self):
        g = nc.build_ring(4, 1.0)
        system = nc.assemble_fdpd(g, nc.FdpdGains(f=1.0, g=0.0, f0=1.0, k_d=1.0, tau=0.1))
        assert np.allclose(system.a[8:, 4:8], -10.0 * np.eye(4))
        assert np.allclose(system.a[8:, 8:], -10.0 * np.eye(4))

    def test_dimensions_for_hundred_nodes(self):
        g = nc.build_path(100, 1.0)
        system = nc.assemble_fdpd(g, nc.FdpdGains(f=1.0, g=1.0, f0=1.0, k_d=1.0, tau=0.1))
        assert system.a.shape == (300, 300)
        assert system.b.shape == (300, 100)
        assert system.c.shape == (100, 300)

    def test_zero_tau_redirects(self):
        # tau = 0 is ideal PD: the loop is its P twin's, field by field and in its modal form
        g = nc.build_ring(4, 1.0)
        gains = nc.FdpdGains(f=1.0, g=1.0, f0=1.0, k_d=0.7, tau=0.0)
        system = nc.assemble_fdpd(g, gains)
        twin = nc.assemble(g, "p", nc.ideal_pd_equivalent(gains))
        for name in ("a", "b", "c"):
            assert np.array_equal(getattr(system, name), getattr(twin, name)), name
        assert (system.kind, system.n, system.state_dim) == (twin.kind, twin.n, 8) == ("p", 4, 8)
        assert all(np.array_equal(mine, its) for mine, its in zip(system._modal, twin._modal))


def one_mode(kind, gains, lam):
    """The modal matrix of one Laplacian eigenvalue, as a one-row stack."""
    return modal_matrices(kind, gains, np.array([lam]))


def modal_term(kind, gains, lam):
    """s_2 of the modal oracle on the spectrum {0, lam}."""
    return nc.modal_variance(nc.LaplacianSpectrum(np.array([0.0, lam]), 1e-9), kind, gains).per_mode[0, 2]


def closed_term(kind, gains, lam):
    """s_2 of the closed form on the same spectrum."""
    return nc.variance_by_kind(nc.LaplacianSpectrum(np.array([0.0, lam]), 1e-9), kind, gains).per_mode[0, 2]


class TestModalSubsystem:
    """The per-mode block of each controller: its matrix, input and output."""

    def test_p_substitution(self):
        a = one_mode("p", nc.PGains(1.0, 1.0, 1.0, 1.0), 2.0)[0]
        assert np.array_equal(a, [[0, 1], [-3, -3]])

    def test_dapi_average_mode(self):
        gains = nc.DapiGains(f=1.0, g=0.5, g0=0.8, k_i=1.5, c=0.3)
        a = one_mode("dapi", gains, 0.0)[0]
        assert np.array_equal(a, [[0, 1, 0], [0, -0.8, 1.5], [0, -1, 0]])

    @pytest.mark.parametrize("kind, gains", [
        ("p", nc.PGains(1.3, 0.7, 0.2, 0.5)),
        ("dapi", nc.DapiGains(f=1.0, g=0.5, g0=0.8, k_i=1.5, c=0.3)),
        ("fdpd", nc.FdpdGains(f=1.0, g=0.5, f0=0.3, k_d=1.2, tau=0.4)),
    ])
    def test_noise_enters_v_and_output_reads_x(self, kind, gains):
        # the input and output columns the removed per-mode record carried:
        # B = e_v, C = e_x, so s_n = 2 e_v^T P e_v with A^T P + P A = -e_x e_x^T
        a = one_mode(kind, gains, 1.5)[0]
        e_x, e_v = np.eye(len(a))[:2]
        p = scipy.linalg.solve_continuous_lyapunov(a.T, -np.outer(e_x, e_x))  # A^T P + P A = -e_x e_x^T
        assert modal_term(kind, gains, 1.5) == pytest.approx(2.0 * e_v @ p @ e_v, rel=1e-12)
        assert modal_term(kind, gains, 1.5) == pytest.approx(closed_term(kind, gains, 1.5), rel=1e-10)

    def test_fdpd_substitution(self):
        gains = nc.FdpdGains(f=1.0, g=1.0, f0=1.0, k_d=1.0, tau=0.1)
        a = one_mode("fdpd", gains, 1.0)[0]
        assert np.allclose(a, [[0, 1, 0], [-2, -1, 1], [0, -10, -10]])

    def test_fdpd_zero_tau_redirects(self):
        gains = nc.FdpdGains(f=1.0, g=1.0, f0=1.0, k_d=0.7, tau=0.0)
        a = one_mode("fdpd", gains, 1.0)
        assert np.array_equal(a, one_mode("p", nc.ideal_pd_equivalent(gains), 1.0))
        assert np.array_equal(a[0], [[0, 1], [-2, -1.7]])

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(InvalidParameterError):
            one_mode("p", nc.PGains(1.0, 1.0), -0.5)


def verdict(kind, gains):
    """The Routh-Hurwitz verdict of the law that controller ``kind`` runs with ``gains``."""
    return _is_hurwitz(_law(kind, gains)[2])


class TestStability:
    def test_p_examples(self):
        # the verdict holds at lambda > 0: the lambda = 0 mode of relative-only gains has an eigenvalue 0
        gains = nc.PGains(f=1.0, g=1.0)
        assert verdict("p", gains)
        eigs = np.linalg.eigvals(modal_matrices("p", gains, np.array([1.0, 0.0])))
        assert np.all(eigs[0].real < 0) and np.abs(eigs[1]).min() == 0.0
        assert not verdict("p", nc.PGains(f=1.0, g=0.0)) and not verdict("p", nc.PGains(f=0.0, g=1.0))

    def test_fdpd_example_against_eigenvalues(self):
        gains = nc.FdpdGains(f=1.0, g=1.0, f0=1.0, k_d=1.0, tau=0.1)
        a = one_mode("fdpd", gains, 1.0)
        assert verdict("fdpd", gains)
        assert np.all(np.linalg.eigvals(a[0]).real < 0)

    def test_p_modes_stable_whenever_coefficients_positive(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            # each gain 0 one time in three, so that both verdicts occur
            gains = nc.PGains(*(float(rng.uniform(0, 2)) * (rng.uniform() > 1 / 3) for _ in range(4)))
            lam = float(rng.uniform(0.01, 10))
            positive = (gains.f0 + gains.f * lam > 0) and (gains.g0 + gains.g * lam > 0)
            assert verdict("p", gains) == positive
            if positive:
                assert np.all(np.linalg.eigvals(one_mode("p", gains, lam)[0]).real < 0)

    def test_fdpd_verdict_agrees_with_eigenvalues_on_500_draws(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 500:
            gains = nc.FdpdGains(
                f=float(rng.uniform(0, 3)),
                g=float(rng.uniform(0, 3)),
                f0=float(rng.uniform(0.05, 3)),
                k_d=float(rng.uniform(0.05, 3)),
                tau=float(rng.uniform(0.01, 2)),
            )
            eigs = np.linalg.eigvals(one_mode("fdpd", gains, float(rng.uniform(0, 10)))[0])
            if np.abs(eigs.real).min() < 1e-9:  # boundary, verdicts may differ
                continue
            assert verdict("fdpd", gains) and np.all(eigs.real < 0)
            checked += 1

    def test_dapi_modes_numerically_stable_for_valid_gains(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            gains = nc.DapiGains(
                f=float(rng.uniform(0.05, 3)),
                g=float(rng.uniform(0, 2)),
                g0=float(rng.uniform(0.05, 3)),
                k_i=float(rng.uniform(0.05, 3)),
                c=float(rng.uniform(0.01, 2)),
            )
            assert verdict("dapi", gains)
            assert np.all(np.linalg.eigvals(one_mode("dapi", gains, float(rng.uniform(0.01, 10)))[0]).real < 0)
        assert not verdict("dapi", replace(DAPI_README, c=0.0))

    def test_slow_dapi_mode_on_ring_1200_is_stable(self):
        # the slow root is about -f*c*lam^2/k_i = -7.5e-11, below the old
        # eigenvalue threshold of 1e-10 times the spectral radius
        lam2 = float(nc.ring_spectrum(1200, 1.0).eigenvalues[1])
        assert verdict("dapi", DAPI_README)
        slowest = np.linalg.eigvals(one_mode("dapi", DAPI_README, lam2)[0]).real.max()
        assert slowest == pytest.approx(-DAPI_README.f * DAPI_README.c * lam2**2 / DAPI_README.k_i, rel=1e-3)

    @pytest.mark.parametrize("c", [1e-6, 1e-3, 0.1, 2.0])
    def test_every_dapi_mode_stable_on_families_up_to_4096(self, c):
        # the modal route takes each mode's Routh-Hurwitz factors at its lambda: every one is > 0
        gains = replace(DAPI_README, c=c)
        spectra = [
            nc.ring_spectrum(1200, 1.0),
            nc.ring_spectrum(4096, 1.0),
            nc.path_spectrum(4096, 1.0),
            nc.torus_spectrum(64, 2, 1.0),
            nc.torus_spectrum(16, 3, 1.0),
        ]
        assert verdict("dapi", gains)
        for spec in spectra:
            terms = nc.modal_variance(spec, "dapi", gains).terms
            assert terms.size == spec.node_count - 1 and np.all((terms > 0) & np.isfinite(terms))


def eigenvalue_multisets_match(full, parts, tol):
    full = sorted(full, key=lambda z: (z.real, z.imag))
    parts = sorted(parts, key=lambda z: (z.real, z.imag))
    assert len(full) == len(parts)
    remaining = list(parts)
    for value in full:
        distances = [abs(value - other) for other in remaining]
        best = int(np.argmin(distances))
        assert distances[best] <= tol, f"unmatched eigenvalue {value}"
        remaining.pop(best)


class TestBlockDiagonalization:
    @pytest.mark.parametrize("kind", ["p", "dapi", "fdpd"])
    def test_full_spectrum_equals_union_of_modal_spectra(self, kind):
        rng = np.random.default_rng(17)
        graphs = [
            nc.build_path(4, 0.8),
            nc.build_ring(7, 1.2),
            nc.build_complete(5, 0.6),
            nc.build_torus(3, 2, 1.0),
        ]
        for graph in graphs:
            if kind == "p":
                gains = nc.PGains(
                    f=float(rng.uniform(0.1, 2)),
                    g=float(rng.uniform(0.1, 2)),
                    f0=float(rng.uniform(0, 2)),
                    g0=float(rng.uniform(0, 2)),
                )
            elif kind == "dapi":
                gains = nc.DapiGains(
                    f=float(rng.uniform(0.1, 2)),
                    g=float(rng.uniform(0, 2)),
                    g0=float(rng.uniform(0.1, 2)),
                    k_i=float(rng.uniform(0.1, 2)),
                    c=float(rng.uniform(0, 2)),
                )
            else:
                gains = nc.FdpdGains(
                    f=float(rng.uniform(0.1, 2)),
                    g=float(rng.uniform(0, 2)),
                    f0=float(rng.uniform(0.1, 2)),
                    k_d=float(rng.uniform(0.1, 2)),
                    tau=float(rng.uniform(0.05, 1)),
                )
            system = nc.assemble(graph, kind, gains)
            spec = nc.spectrum(graph)
            modal_eigs = np.linalg.eigvals(modal_matrices(kind, gains, spec.eigenvalues)).ravel()
            scale = max(1.0, np.abs(modal_eigs).max())
            eigenvalue_multisets_match(
                np.linalg.eigvals(system.a), modal_eigs, tol=1e-8 * scale
            )

    def test_marginal_direction_is_unobservable(self):
        # single marginal direction cases: simple zero eigenvalue of the full A
        cases = [
            ("p", nc.PGains(f=1.0, g=1.0, f0=0.0, g0=0.7)),
            ("dapi", nc.DapiGains(f=1.0, g=0.3, g0=1.0, k_i=0.8, c=0.4)),
        ]
        for kind, gains in cases:
            system = nc.assemble(nc.build_ring(5, 1.0), kind, gains)
            values, vectors = np.linalg.eig(system.a)
            marginal = np.abs(values.real) <= 1e-9
            assert marginal.sum() == 1
            direction = vectors[:, marginal].real
            assert np.abs(system.c @ direction).max() <= 1e-8
        # double-integrator average: the invariant pair is structurally dark
        system = nc.assemble_p(nc.build_ring(5, 1.0), nc.PGains(1.0, 1.0, 0.0, 0.0))
        n = system.n
        ones = np.ones(n) / np.sqrt(n)
        x_avg = np.concatenate([ones, np.zeros(n)])
        v_avg = np.concatenate([np.zeros(n), ones])
        assert np.abs(system.a @ x_avg).max() == 0.0
        assert np.allclose(system.a @ v_avg, x_avg)
        assert np.abs(system.c @ x_avg).max() <= 1e-14
        assert np.abs(system.c @ v_avg).max() <= 1e-14


class TestPresets:
    def test_power_preset_values(self):
        gains = nc.power_preset(
            m=20.0 / OMEGA_REF, d=10.0 / OMEGA_REF, b=0.3, l=1.0, k_i=1.0, c=0.1
        )
        assert gains.g0 == pytest.approx(0.5)
        assert gains.f == pytest.approx(0.3 * OMEGA_REF / 20.0)
        assert gains.f == pytest.approx(5.6549, abs=1e-4)
        assert gains.g == 0.0

    def test_equal_inertia_and_damping(self):
        gains = nc.power_preset(m=2.0, d=2.0, b=1.0, l=1.0, k_i=1.0, c=0.1)
        assert gains.g0 == pytest.approx(1.0)

    def test_zero_susceptance_rejected(self):
        with pytest.raises(InvalidParameterError):
            nc.power_preset(m=1.0, d=1.0, b=0.0, l=1.0, k_i=1.0, c=0.1)

    def test_equivalents(self):
        fdpd = nc.FdpdGains(f=1.0, g=0.5, f0=2.0, k_d=0.7, tau=0.0)
        assert nc.ideal_pd_equivalent(fdpd) == nc.PGains(f=1.0, g=0.5, f0=2.0, g0=0.7)
        dapi = nc.DapiGains(f=1.0, g=0.5, g0=2.0, k_i=0.7, c=0.0)
        assert nc.zero_averaging_equivalent(dapi) == nc.PGains(f=1.0, g=0.5, f0=0.7, g0=2.0)


class TestGainValidation:
    def test_negative_rejected(self):
        with pytest.raises(InvalidParameterError):
            nc.PGains(f=-1.0, g=0.0)
        with pytest.raises(InvalidParameterError):
            nc.DapiGains(f=0.0, g=0.0, g0=1.0, k_i=1.0, c=0.0)
        with pytest.raises(InvalidParameterError):
            nc.DapiGains(f=1.0, g=0.0, g0=1.0, k_i=0.0, c=0.0)
        with pytest.raises(InvalidParameterError):
            nc.FdpdGains(f=1.0, g=0.0, f0=0.0, k_d=1.0, tau=0.1)
        with pytest.raises(InvalidParameterError):
            nc.FdpdGains(f=1.0, g=0.0, f0=1.0, k_d=1.0, tau=-0.1)

    @pytest.mark.parametrize("call", [
        lambda kind, gains: nc.assemble(nc.build_ring(4, 1.0), kind, gains),
        lambda kind, gains: nc.variance_by_kind(nc.ring_spectrum(4, 1.0), kind, gains),
        lambda kind, gains: nc.modal_variance(nc.ring_spectrum(4, 1.0), kind, gains),
        lambda kind, gains: nc.run_scaling("ring", kind, gains, [4, 8, 16, 32]),
        lambda kind, gains: {"p": nc.p_variance, "dapi": nc.dapi_variance, "fdpd": nc.fdpd_variance}[kind](
            nc.ring_spectrum(4, 1.0), gains),
    ], ids=["assemble", "variance_by_kind", "modal_variance", "run_scaling", "closed_form_of_the_kind"])
    @pytest.mark.parametrize("kind, gains", [
        ("p", DAPI_README),
        ("fdpd", DAPI_README),
        ("dapi", nc.PGains(1.0, 1.0, 1.0, 1.0)),
        ("fdpd", nc.PGains(1.0, 1.0, 1.0, 1.0)),
        ("p", nc.FdpdGains(1.0, 1.0, 1.0, 1.0, 0.1)),
    ], ids=["p-dapi", "fdpd-dapi", "dapi-p", "fdpd-p", "p-fdpd"])
    def test_gains_of_another_controller_rejected(self, call, kind, gains):
        # a bare AttributeError before the check, or a result from the wrong fields
        with pytest.raises(InvalidParameterError, match=f"controller '{kind}' takes"):
            call(kind, gains)


class TestGainsConfig:
    def test_p_config(self):
        kind, gains = nc.parse_gains_config(
            "controller = p\nf = 1.0\ng = 1.0\nf0 = 1.0\ng0 = 0\n"
        )
        assert kind == "p" and gains == nc.PGains(1.0, 1.0, 1.0, 0.0)

    def test_dapi_config_with_comment(self):
        kind, gains = nc.parse_gains_config(
            "controller = dapi\nf = 1.0\ng = 0.0\ng0 = 1.0\nki = 1.0\nc = 0.1  # filter\n"
        )
        assert kind == "dapi"
        assert gains == nc.DapiGains(f=1.0, g=0.0, g0=1.0, k_i=1.0, c=0.1)

    def test_fdpd_config(self):
        kind, gains = nc.parse_gains_config(
            "controller = fdpd\nf = 1\ng = 1\nf0 = 1\nkd = 1\ntau = 0.1\n"
        )
        assert kind == "fdpd"
        assert gains == nc.FdpdGains(1.0, 1.0, 1.0, 1.0, 0.1)

    def test_power_block(self):
        text = (
            "controller = dapi\nki = 1.0\nc = 0.1\n\n[power]\n"
            f"m = {20.0 / OMEGA_REF}\nd = {10.0 / OMEGA_REF}\nb = 0.3\nl = 1.0\n"
        )
        kind, gains = nc.parse_gains_config(text)
        assert kind == "dapi"
        assert gains.g0 == pytest.approx(0.5)
        assert gains.k_i == 1.0 and gains.c == 0.1

    def test_power_block_droop(self):
        text = "controller = p\n[power]\nm = 2\nd = 1\nb = 0.5\nl = 1\n"
        kind, gains = nc.parse_gains_config(text)
        assert kind == "p"
        assert gains == nc.PGains(f=0.25, g=0.0, f0=0.0, g0=0.5)

    @pytest.mark.parametrize(
        "text",
        [
            "controller = nope\nf = 1\n",
            "controller = dapi\nf = 1\ng0 = 1\n",  # missing ki
            "controller = p\nf = abc\n",
            "controller = p\nkd = 1\n",  # wrong key for controller
            "controller = fdpd\n[power]\nm = 1\nd = 1\nb = 1\nl = 1\n",
            "controller = p\nf = 3.0\n[power]\nm = 1\nd = 1\nb = 1\nl = 1\n",  # keys beside [power]
            "controller = p\nbogus = 1\n[power]\nm = 1\nd = 1\nb = 1\nl = 1\n",
            "controller = dapi\nki = 1\nf = 3.0\n[power]\nm = 1\nd = 1\nb = 1\nl = 1\n",
            "controller = p\n[power]\nm = 1\nd = 1\nb = 1\nl = 1\nzz = 9\n",  # key inside [power]
            "controller = p\nf = 1\n[powr]\nm = 1\nd = 1\nb = 1\nl = 1\n",  # unknown section
            # numbers are ASCII without digit-group underscores, though float
            # reads "1_0" as 10.0 and any Unicode decimal digit
            "controller = p\nf = 1_0\ng = 1\n",
            "controller = p\nf = \u0661\ng = 1\n",  # an Arabic-Indic 1
            "controller = dapi\nki = 1\nc = 0.1\n[power]\nm = 1\nd = 1\nb = 1_0.5\nl = 1\n",
        ],
    )
    def test_bad_configs(self, text):
        with pytest.raises(InvalidParameterError):
            nc.parse_gains_config(text)


VALID_GAINS_CONFIGS = [
    "controller = p\nf = 1.0\ng = 1.0\nf0 = 1.0\ng0 = 0\n",
    "controller = dapi\nf = 1.0\ng = 0.0\ng0 = 1.0\nki = 1.0\nc = 0.1  # filter\n",
    "controller = fdpd\nf = 1\ng = 1\nf0 = 1\nkd = 1\ntau = 0.1\n",
    "controller = dapi\nki = 1.0\nc = 0.1\n\n[power]\nm = 0.05305\nd = 0.02653\nb = 0.3\nl = 1.0\n",
    "controller = p\n[power]\nm = 2\nd = 1\nb = 0.5\nl = 1\n",
]
# the characters and words a gains config is made of, and a few it is not
CONFIG_PIECES = st.one_of(
    st.sampled_from(list("=:#;[]%() \t\r\n") + ["%%", "%(f)s", "\x00", "\u00e9"]),
    st.sampled_from(list(".-+eE0123456789_") + ["nan", "inf", "1e999", "-0"]),
    st.sampled_from(["controller", "p", "dapi", "fdpd", "power", "gains", "f", "g", "f0", "g0", "ki", "kd", "c",
                     "tau", "m", "d", "b", "l", "[power]", "[gains]", "[DEFAULT]"]),
)


@st.composite
def mutated_gains_configs(draw):
    """A valid config with one to three of its lines edited: characters
    deleted, a piece inserted or put in their place, or the line dropped or
    repeated."""
    lines = draw(st.sampled_from(VALID_GAINS_CONFIGS)).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, len(lines)))
        if k == len(lines):  # a new line
            lines.append(draw(CONFIG_PIECES))
            continue
        line, op = lines[k], draw(st.sampled_from(["delete", "insert", "replace", "drop", "repeat"]))
        at = draw(st.integers(0, len(line)))
        end = min(len(line), at + draw(st.integers(1, 4)))
        if op == "delete":
            lines[k] = line[:at] + line[end:]
        elif op == "drop":
            del lines[k]
        elif op == "repeat":
            lines.insert(k, line)
        else:
            lines[k] = line[:at] + draw(CONFIG_PIECES) + line[end if op == "replace" else at:]
    return "\n".join(lines) + "\n"


def parses_or_raises_a_coherence_error(text):
    try:
        kind, gains = nc.parse_gains_config(text)
    except CoherenceError:
        return
    assert type(gains) is {"p": nc.PGains, "dapi": nc.DapiGains, "fdpd": nc.FdpdGains}[kind]


class TestGainsConfigFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=60) | st.lists(CONFIG_PIECES, max_size=40).map("".join))
    def test_arbitrary_text_raises_only_coherence_errors(self, text):
        parses_or_raises_a_coherence_error(text)

    @settings(max_examples=1000, deadline=None)
    @given(mutated_gains_configs())
    def test_mutated_configs_raise_only_coherence_errors(self, text):
        parses_or_raises_a_coherence_error(text)

    @pytest.mark.parametrize("text, message", [
        ("controller = p\nf = 1%\n", "key 'f' is not a number: '1%'"),
        ("controller = p%\n", "controller must be one of"),
        ("controller = %(x)s\nf = 1\n", "controller must be one of"),
        ("controller = p\n[power]\nm = %(d)s\nd = 1\nb = 1\nl = 1\n", "key 'm' is not a number"),
    ], ids=["percent", "percent_controller", "missing_key", "power_reference"])
    def test_a_percent_sign_is_read_as_written(self, text, message):
        # configparser's interpolation raised its own InterpolationError, not a netcoh error
        with pytest.raises(InvalidParameterError, match=re.escape(message)):
            nc.parse_gains_config(text)

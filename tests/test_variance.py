import math
import subprocess
import sys
import tracemalloc
from dataclasses import FrozenInstanceError, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import netcoh as nc
from netcoh import csvrows
from netcoh.closed_loop import modal_matrices, routh_hurwitz
from netcoh.errors import (
    InstabilityError,
    MarginalModeObservableError,
    NumericalError,
    OracleSizeError,
    UnboundedVarianceError,
)
from netcoh.variance import _SUM_CHUNK, _mode_sum

from conftest import random_connected_graph, random_gains


class TestPVariance:
    def test_complete2_all_unit_gains(self):
        spec = nc.spectrum(nc.build_complete(2, 1.0))
        gains = nc.PGains(1.0, 1.0, 1.0, 1.0)
        report = nc.p_variance(spec, gains)
        assert report.v_n == pytest.approx(1.0 / 36.0, rel=1e-12)
        assert report.bound is None
        # a report exists only for a stable loop: every relative mode is Hurwitz
        assert routh_hurwitz(modal_matrices("p", gains, spec.connected_modes())).all()

    def test_ring4_relative_only(self):
        spec = nc.spectrum(nc.build_ring(4, 1.0))
        report = nc.p_variance(spec, nc.PGains(f=1.0, g=1.0, f0=0.0, g0=0.0))
        # eigenvalues {2, 2, 4}: (1/8)(1/4 + 1/4 + 1/16)
        assert report.v_n == pytest.approx(9.0 / 128.0, rel=1e-12)

    def test_marginal_mode_raises(self):
        spec = nc.LaplacianSpectrum(np.array([0.0, 0.0, 1.0]), 1e-9)
        with pytest.raises(UnboundedVarianceError) as err:
            nc.p_variance(spec, nc.PGains(f=1.0, g=1.0, f0=0.0, g0=0.0))
        assert err.value.mode_index == 2

    def test_report_normalization_invariant(self):
        spec = nc.spectrum(nc.build_ring(9, 1.3))
        report = nc.p_variance(spec, nc.PGains(0.7, 1.1, 0.2, 0.4))
        total = math.fsum(s for _, _, s in report.per_mode)
        assert report.v_n == pytest.approx(total / (2 * 9), rel=1e-14)
        assert all(s > 0 for _, _, s in report.per_mode)
        assert [n for n, _, _ in report.per_mode] == list(range(2, 10))


class TestDapiVariance:
    def test_bound_substitution(self):
        gains = nc.DapiGains(f=1.0, g=0.0, g0=1.0, k_i=1.0, c=0.1)
        assert nc.dapi_bound(gains) == pytest.approx(0.55)
        spec = nc.spectrum(nc.build_ring(6, 1.0))
        assert nc.dapi_variance(spec, gains).bound == pytest.approx(0.55)

    def test_zero_averaging_reduces_to_p_with_integral_gain(self):
        gains = nc.DapiGains(f=1.3, g=0.6, g0=0.9, k_i=0.8, c=0.0)
        spec = nc.spectrum(nc.build_path(7, 1.1))
        dapi = nc.dapi_variance(spec, gains)
        p = nc.p_variance(spec, nc.zero_averaging_equivalent(gains))
        assert dapi.v_n == pytest.approx(p.v_n, rel=1e-14)

    def test_complete4_matches_modal_oracle(self):
        spec = nc.spectrum(nc.build_complete(4, 1.0))
        gains = nc.DapiGains(f=4.0, g=0.0, g0=1.0, k_i=1.0, c=1.25)
        closed = nc.dapi_variance(spec, gains).v_n
        oracle = nc.modal_variance(spec, "dapi", gains).v_n
        assert closed == pytest.approx(oracle, rel=1e-10)

    def test_cross_term_variant_is_not_the_subsystem_norm(self):
        # dropping the c*g*lam cross term from the inner denominator factor
        # looks plausible but disagrees with the Lyapunov oracle at g > 0
        gains = nc.DapiGains(f=2.0, g=1.5, g0=2.0, k_i=1.0, c=0.7)
        spec = nc.spectrum(nc.build_path(6, 1.0))
        f, g, g0, k_i, c = gains.f, gains.g, gains.g0, gains.k_i, gains.c
        variant_terms = []
        for lam in spec.connected_modes().tolist():
            inner_num = k_i * f * (g0 + lam * (c + g)) + g0 * f * lam * (
                c * c * lam + f + c * g0
            )
            inner_den = f + c * g0 + c * lam * (c + g)
            variant_terms.append(1.0 / (f * g * lam * lam + inner_num / inner_den))
        variant = math.fsum(variant_terms) / (2 * spec.node_count)
        oracle = nc.modal_variance(spec, "dapi", gains).v_n
        implemented = nc.dapi_variance(spec, gains).v_n
        assert implemented == pytest.approx(oracle, rel=1e-12)
        assert abs(variant - oracle) / oracle > 1e-3

    def test_g_zero_keeps_variant_and_exact_form_equal(self):
        gains = nc.DapiGains(f=2.0, g=0.0, g0=2.0, k_i=1.0, c=0.7)
        spec = nc.spectrum(nc.build_path(6, 1.0))
        oracle = nc.modal_variance(spec, "dapi", gains).v_n
        assert nc.dapi_variance(spec, gains).v_n == pytest.approx(oracle, rel=1e-12)


class TestFdpdVariance:
    def test_bound_substitution(self):
        gains = nc.FdpdGains(f=1.0, g=0.0, f0=1.0, k_d=1.0, tau=0.1)
        assert nc.fdpd_bound(gains) == pytest.approx(0.505)

    def test_zero_tau_equals_ideal_pd(self):
        spec = nc.spectrum(nc.build_ring(7, 1.0))
        gains = nc.FdpdGains(f=1.0, g=1.0, f0=1.0, k_d=1.0, tau=0.0)
        fdpd = nc.fdpd_variance(spec, gains)
        p = nc.p_variance(spec, nc.ideal_pd_equivalent(gains))
        assert fdpd.v_n == p.v_n
        assert fdpd.bound == pytest.approx(0.5)

    def test_ring8_matches_modal_oracle(self):
        spec = nc.spectrum(nc.build_ring(8, 1.0))
        gains = nc.FdpdGains(f=1.0, g=1.0, f0=1.0, k_d=1.0, tau=0.1)
        closed = nc.fdpd_variance(spec, gains).v_n
        oracle = nc.modal_variance(spec, "fdpd", gains).v_n
        assert closed == pytest.approx(oracle, rel=1e-10)


class TestSolveLyapunov:
    def test_scalar(self):
        p = nc.solve_lyapunov(np.array([[-1.0]]), np.array([[2.0]]))
        assert p == pytest.approx(np.array([[1.0]]))

    def test_modal_norm_one_eighteenth(self):
        a = np.array([[0.0, 1.0], [-3.0, -3.0]])
        p = nc.solve_lyapunov(a, np.diag([1.0, 0.0]))
        b = np.array([0.0, 1.0])
        assert float(b @ p @ b) == pytest.approx(1.0 / 18.0, rel=1e-12)

    def test_unstable_rejected(self):
        with pytest.raises(InstabilityError):
            nc.solve_lyapunov(np.array([[1.0]]), np.array([[1.0]]))

    def test_residual_and_symmetry_on_random_hurwitz_draws(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            raw = rng.normal(size=(n, n))
            shift = np.abs(np.linalg.eigvals(raw).real).max() + 0.5
            a = raw - shift * np.eye(n)
            q_half = rng.normal(size=(n, n))
            q = q_half @ q_half.T
            p = nc.solve_lyapunov(a, q)
            assert np.array_equal(p, p.T)
            residual = np.abs(a.T @ p + p @ a + q).max()
            assert residual <= 1e-10 * max(1.0, np.abs(q).max())


class TestModalOracle:
    def test_complete2(self):
        spec = nc.spectrum(nc.build_complete(2, 1.0))
        report = nc.modal_variance(spec, "p", nc.PGains(1.0, 1.0, 1.0, 1.0))
        assert report.v_n == pytest.approx(1.0 / 36.0, rel=1e-12)
        assert report.method == "modal_lyapunov"

    def test_unstable_mode_named(self):
        # zero averaging gain leaves an uncontrollable marginal state per mode
        spec = nc.spectrum(nc.build_ring(4, 1.0))
        gains = nc.DapiGains(f=1.0, g=0.0, g0=1.0, k_i=1.0, c=0.0)
        with pytest.raises(InstabilityError) as err:
            nc.modal_variance(spec, "dapi", gains)
        assert err.value.mode_index == 2

    def test_slow_dapi_modes_are_not_called_unstable(self):
        # ring 1200 with the README DAPI gains: mode 2 is stable (slow root
        # about -7.5e-11)
        spec = nc.ring_spectrum(1200, 1.0)
        gains = nc.DapiGains(f=1.0, g=0.0, g0=1.0, k_i=1.0, c=0.1)
        report = nc.modal_variance(spec, "dapi", gains)
        assert report.v_n == pytest.approx(nc.dapi_variance(spec, gains).v_n, rel=1e-8)

    def test_eigenvalue_threshold_does_not_override_routh_hurwitz(self):
        # path 64: Routh-Hurwitz proves every mode stable, yet a batched eigvals
        # check called mode 2 unstable (real part ~1e-14); the modal route now
        # has no Hurwitz test but Routh-Hurwitz, and its forward-error guard
        # refuses this ill-conditioned mode
        spec = nc.spectrum(nc.build_path(64, 1.0))
        gains = nc.DapiGains(f=0.01, g=0.0, g0=100.0, k_i=50.0, c=1e-6)
        assert routh_hurwitz(modal_matrices("dapi", gains, spec.connected_modes())).all()
        assert nc.dapi_variance(spec, gains).v_n == pytest.approx(9.938e-05, rel=1e-3)
        with pytest.raises(NumericalError, match="forward error estimate .* mode 2 "):
            nc.modal_variance(spec, "dapi", gains)

    @pytest.mark.parametrize(
        "spec",
        [nc.spectrum(nc.build_ring(256, 1.0)), nc.spectrum(nc.build_path(128, 1.0))],
        ids=["ring256", "path128"],
    )
    def test_accurate_slow_dapi_solves_pass_the_residual_test(self, spec):
        # ||P_k|| reaches 1e5-1e9 on the slow modes, so a residual bound by
        # ||Q|| alone rejected these accurate solves (and ring 1200 above);
        # the bound is relative to 2 ||A_k|| ||P_k|| + ||Q||, the backward error
        gains = nc.DapiGains(f=1.0, g=0.0, g0=1.0, k_i=1.0, c=0.1)
        modal = nc.modal_variance(spec, "dapi", gains).v_n
        assert modal == pytest.approx(nc.dapi_variance(spec, gains).v_n, rel=1e-8)

    @pytest.mark.parametrize(
        "spec,c",
        [
            (nc.ring_spectrum(4096, 1.0), 1e-6),
            (nc.ring_spectrum(1024, 1.0), 1e-6),
            (nc.ring_spectrum(64, 1.0), 1e-6),
            (nc.ring_spectrum(2048, 1.0), 0.1),
            (nc.path_spectrum(4096, 1.0), 0.1),
        ],
        ids=["ring4096-c1e-6", "ring1024-c1e-6", "ring64-c1e-6", "ring2048", "path4096"],
    )
    def test_ill_conditioned_slow_modes_raise_or_match(self, spec, c):
        # the solves pass the residual test (backward error ~1e-16) while
        # mode 2 of ring 4096 at c = 1e-6 is off by a factor 7, V_N by 6.5e-3:
        # the oracle must refuse rather than return a wrong V_N
        gains = nc.DapiGains(f=1.0, g=0.0, g0=1.0, k_i=1.0, c=c)
        try:
            modal = nc.modal_variance(spec, "dapi", gains).v_n
        except NumericalError as exc:
            assert "forward error estimate" in str(exc)
        else:
            assert modal == pytest.approx(nc.dapi_variance(spec, gains).v_n, rel=1e-8)

    def test_wrong_slow_mode_solve_raises(self):
        gains = nc.DapiGains(f=1.0, g=0.0, g0=1.0, k_i=1.0, c=1e-6)
        with pytest.raises(NumericalError, match=r"forward error estimate .* mode [23] "):
            nc.modal_variance(nc.ring_spectrum(4096, 1.0), "dapi", gains)

    def test_perturbed_solve_is_still_rejected(self, monkeypatch):
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: solve(a, b) * (1.0 + 1e-6))
        spec = nc.ring_spectrum(8, 1.0)
        with pytest.raises(NumericalError, match="lyapunov residual"):
            nc.modal_variance(spec, "dapi", nc.DapiGains(f=1.0, g=0.0, g0=1.0, k_i=1.0, c=0.1))
        with pytest.raises(NumericalError, match="lyapunov residual"):
            nc.solve_lyapunov(np.array([[0.0, 1.0], [-3.0, -3.0]]), np.diag([1.0, 0.0]))

    def test_zero_tau_redirects_through_p(self):
        spec = nc.spectrum(nc.build_ring(5, 1.0))
        gains = nc.FdpdGains(f=1.0, g=1.0, f0=1.0, k_d=1.0, tau=0.0)
        report = nc.modal_variance(spec, "fdpd", gains)
        assert report.v_n == pytest.approx(
            nc.p_variance(spec, nc.ideal_pd_equivalent(gains)).v_n, rel=1e-12
        )


class TestFullOracle:
    def test_complete2(self):
        system = nc.assemble_p(nc.build_complete(2, 1.0), nc.PGains(1.0, 1.0, 1.0, 1.0))
        report = nc.full_variance(system)
        assert report.v_n == pytest.approx(1.0 / 36.0, rel=1e-10)
        assert report.method == "full_lyapunov"

    def test_path3_equals_closed_form(self):
        graph = nc.build_path(3, 1.0)
        gains = nc.PGains(f=1.0, g=1.0, f0=1.0, g0=0.0)
        closed = nc.p_variance(nc.spectrum(graph), gains).v_n
        assert nc.full_variance(nc.assemble_p(graph, gains)).v_n == pytest.approx(
            closed, rel=1e-10
        )

    def test_dapi_ring5_power_style_gains(self):
        graph = nc.build_ring(5, 1.0)
        gains = nc.power_preset(
            m=20.0 / (2 * math.pi * 60), d=10.0 / (2 * math.pi * 60), b=0.3, l=1.0,
            k_i=1.0, c=0.1,
        )
        closed = nc.dapi_variance(nc.spectrum(graph), gains).v_n
        assert nc.full_variance(nc.assemble_dapi(graph, gains)).v_n == pytest.approx(
            closed, rel=1e-8
        )

    def test_size_cap(self):
        system = nc.assemble_p(nc.build_ring(10, 1.0), nc.PGains(1.0, 1.0, 1.0, 1.0))
        with pytest.raises(OracleSizeError):
            nc.full_variance(system, size_limit=8)

    def test_observable_marginal_mode_aborts(self):
        # disconnected network without absolute position feedback: the second
        # zero mode is visible in the output and no variance exists
        lap = nc.laplacian(nc.WeightedGraph(4, ((1, 2, 1.0), (3, 4, 1.0))))
        n = 4
        a = np.block(
            [[np.zeros((n, n)), np.eye(n)], [-lap, -lap - 0.5 * np.eye(n)]]
        )
        b = np.vstack([np.zeros((n, n)), np.eye(n)])
        c = np.hstack([np.eye(n) - np.ones((n, n)) / n, np.zeros((n, n))])
        system = nc.ClosedLoopSystem(a, b, c, "p", n)
        with pytest.raises(MarginalModeObservableError):
            nc.full_variance(system)

    def test_unstable_system_rejected(self):
        base = nc.assemble_p(nc.build_ring(4, 1.0), nc.PGains(1.0, 1.0, 1.0, 1.0))
        shifted = nc.ClosedLoopSystem(
            base.a + 3.0 * np.eye(8), base.b, base.c, base.kind, base.n
        )
        with pytest.raises(InstabilityError):
            nc.full_variance(shifted)


class TestThreeWayAgreement:
    def test_random_configurations(self):
        rng = np.random.default_rng(41)
        checked = 0
        for trial in range(90):
            kind = ("p", "dapi", "fdpd")[trial % 3]
            graph = random_connected_graph(rng)
            gains = random_gains(rng, kind)
            spec = nc.spectrum(graph)
            try:
                closed = nc.variance_by_kind(spec, kind, gains).v_n
            except UnboundedVarianceError:
                continue
            modal = nc.modal_variance(spec, kind, gains).v_n
            try:
                system = nc.assemble(graph, kind, gains)
            except nc.IdealPdRedirectError:
                system = nc.assemble_p(graph, nc.ideal_pd_equivalent(gains))
            full = nc.full_variance(system).v_n
            assert modal == pytest.approx(closed, rel=1e-8)
            assert full == pytest.approx(closed, rel=1e-8)
            checked += 1
        assert checked >= 60


class TestMonotonicityAndBounds:
    def test_per_mode_term_nonincreasing_in_lambda(self):
        rng = np.random.default_rng(29)
        lams = np.linspace(1e-6, 50.0, 1500)
        spec = nc.LaplacianSpectrum(np.concatenate([[0.0], lams]), 1e-12)
        for _ in range(25):
            dapi = random_gains(rng, "dapi")
            terms = np.array([s for _, _, s in nc.dapi_variance(spec, dapi).per_mode])
            assert np.all(np.diff(terms) <= 1e-12)
            fdpd = random_gains(rng, "fdpd")
            terms = np.array([s for _, _, s in nc.fdpd_variance(spec, fdpd).per_mode])
            assert np.all(np.diff(terms) <= 1e-12)

    def test_bound_compliance_on_random_draws(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            graph = random_connected_graph(rng)
            spec = nc.spectrum(graph)
            dapi_report = nc.dapi_variance(spec, random_gains(rng, "dapi"))
            assert dapi_report.v_n < dapi_report.bound
            fdpd_report = nc.fdpd_variance(spec, random_gains(rng, "fdpd"))
            assert fdpd_report.v_n < fdpd_report.bound

    def test_limit_consistency(self):
        rng = np.random.default_rng(37)
        for _ in range(15):
            graph = random_connected_graph(rng, max_nodes=12)
            spec = nc.spectrum(graph)
            dapi = random_gains(rng, "dapi")
            p_from_dapi = nc.p_variance(spec, nc.zero_averaging_equivalent(dapi)).v_n
            gaps = [
                abs(nc.dapi_variance(spec, replace(dapi, c=eps)).v_n - p_from_dapi)
                for eps in (1e-2, 1e-4, 1e-6)
            ]
            assert gaps[0] >= gaps[1] >= gaps[2]
            assert gaps[2] <= 1e-4 * p_from_dapi

            fdpd = random_gains(rng, "fdpd")
            p_from_fdpd = nc.p_variance(spec, nc.ideal_pd_equivalent(fdpd)).v_n
            gaps = [
                abs(nc.fdpd_variance(spec, replace(fdpd, tau=eps)).v_n - p_from_fdpd)
                for eps in (1e-2, 1e-4, 1e-6)
            ]
            assert gaps[0] >= gaps[1] >= gaps[2]
            assert gaps[2] <= 1e-4 * p_from_fdpd

    def test_complete_graph_variance_vanishes_with_size(self):
        gains = nc.DapiGains(f=1.0, g=0.2, g0=1.0, k_i=1.0, c=0.5)
        values = [
            nc.dapi_variance(nc.complete_spectrum(n, 1.0), gains).v_n
            for n in (2, 4, 8, 16, 32, 64, 128, 256)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 0.02 * values[0]


class TestReportSerialization:
    def test_csv_shape(self):
        spec = nc.spectrum(nc.build_ring(4, 1.0))
        report = nc.dapi_variance(spec, nc.DapiGains(1.0, 0.0, 1.0, 1.0, 0.1))
        lines = report.to_csv().strip().splitlines()
        assert lines[0] == "n,lambda,s_n"
        assert len(lines) == 1 + 3 + 2
        assert lines[-2].startswith("V_N,")
        assert lines[-1].startswith("bound,0.55")

    def test_csv_bound_none_for_p(self):
        spec = nc.spectrum(nc.build_ring(4, 1.0))
        report = nc.p_variance(spec, nc.PGains(1.0, 1.0, 1.0, 1.0))
        assert report.to_csv().strip().splitlines()[-1] == "bound,none"

    @pytest.mark.parametrize(
        "report",
        [
            # lambda down to 4.4e-6 (repr exponent form) over three row blocks
            nc.p_variance(nc.ring_spectrum(3000, 1.0), nc.PGains(1.0, 1.0, 1.0, 1.0)),
            nc.VarianceReport(
                0.5,
                np.array([[2.0, 1e-5, np.inf], [3.0, 3e-05, -0.0], [4.0, 1e16, np.nan], [5.0, 0.0, 1.5]]),
                None,
                "closed_form",
            ),
        ],
        ids=["ring3000", "edge_cells"],
    )
    def test_csv_matches_per_row_repr(self, report):
        reference = ["n,lambda,s_n"]
        for n, lam, s in report.per_mode.tolist():
            reference.append(f"{int(n)},{lam!r},{s!r}")
        reference += [f"V_N,{report.v_n!r}", "bound,none"]
        assert report.to_csv().splitlines() == reference

    def test_csv_in_blocks_of_a_few_rows(self):
        report = nc.p_variance(nc.ring_spectrum(3000, 1.0), P_GAINS)  # lambda down to 4.4e-6
        with mock.patch.object(csvrows, "BLOCK_CELLS", 7):
            text = report.to_csv()
        rows = [f"{int(n)},{lam!r},{s!r}\n" for n, lam, s in report.per_mode.tolist()]
        assert text == "".join(["n,lambda,s_n\n", *rows, f"V_N,{report.v_n!r}\nbound,none\n"])

    @settings(max_examples=200, deadline=None)
    @given(
        hnp.arrays(np.float64, st.tuples(st.integers(0, 12), st.just(2)),
                   elements=st.floats(width=64, allow_nan=True, allow_infinity=True)),
        st.integers(1, 9),
    )
    def test_csv_of_any_cells(self, cells, block):
        per_mode = np.column_stack((np.arange(2.0, len(cells) + 2.0), cells))
        report = nc.VarianceReport(0.25, per_mode, 1.5, "closed_form")
        with mock.patch.object(csvrows, "BLOCK_CELLS", block):
            text = report.to_csv()
        rows = [f"{int(n)},{lam!r},{s!r}\n" for n, lam, s in per_mode.tolist()]
        assert text == "".join(["n,lambda,s_n\n", *rows, "V_N,0.25\nbound,1.5\n"])

    def test_lyapunov_shape_mismatch(self):
        with pytest.raises(nc.InvalidParameterError):
            nc.solve_lyapunov(np.eye(2), np.eye(3))


TWO_PATHS = "6\n1 2 1.0\n2 3 1.0\n4 5 1.0\n5 6 1.0\n"
P_GAINS = nc.PGains(f=1.0, g=1.0, f0=1.0, g0=1.0)
DAPI_GAINS = nc.DapiGains(f=1.0, g=0.0, g0=1.0, k_i=1.0, c=0.1)
FDPD_GAINS = nc.FdpdGains(f=1.0, g=1.0, f0=1.0, k_d=1.0, tau=0.1)


class TestArrayLayer:
    def test_per_mode_is_read_only_array_of_rows(self):
        spec = nc.spectrum(nc.build_path(7, 1.2))
        for report in (
            nc.p_variance(spec, P_GAINS),
            nc.dapi_variance(spec, DAPI_GAINS),
            nc.fdpd_variance(spec, FDPD_GAINS),
            nc.modal_variance(spec, "dapi", DAPI_GAINS),
        ):
            assert report.per_mode.shape == (6, 3)
            assert report.per_mode.dtype == np.float64
            assert not report.per_mode.flags.writeable
            with pytest.raises(ValueError):
                report.per_mode[0, 2] = 1.0
            rows = [(n, lam, s) for n, lam, s in report.per_mode]
            assert [n for n, _, _ in rows] == list(range(2, 8))
            assert [lam for _, lam, _ in rows] == list(spec.eigenvalues[1:])
            assert report.v_n == math.fsum(s for _, _, s in rows) / 14.0

    def test_full_oracle_reports_no_rows(self):
        system = nc.assemble_p(nc.build_ring(5, 1.0), P_GAINS)
        assert nc.full_variance(system).per_mode.shape == (0, 3)

    def test_mode_index_is_first_offending_mode(self):
        # every mode has a zero denominator without absolute or velocity gains
        spec = nc.LaplacianSpectrum(np.array([0.0, 0.5, 1.0, 2.0]), 1e-9)
        with pytest.raises(UnboundedVarianceError) as err:
            nc.p_variance(spec, nc.PGains(f=1.0, g=0.0, f0=0.0, g0=0.0))
        assert err.value.mode_index == 2
        assert str(err.value) == (
            "mode 2 (lambda=0.5) has zero denominator under P control"
        )


def fsum_or_exact(terms: np.ndarray) -> float | None:
    """``math.fsum`` of the terms or, where fsum's partial sums overflow, the
    exact sum in Python ints of 2**-1074 rounded once; None when it overflows."""
    try:
        return math.fsum(terms.tolist())
    except OverflowError:
        ratios = map(float.as_integer_ratio, terms.tolist())  # denominators are powers of two
        units = sum(num << (1075 - den.bit_length()) for num, den in ratios)
        try:
            return units / (1 << 1074)
        except OverflowError:
            return None


# any finite float64: +-0.0, subnormals and every exponent up to the largest
FINITE = st.floats(allow_nan=False, allow_infinity=False)
# short arrays, and lengths on both sides of one and two chunk boundaries
SUM_LENGTHS = st.one_of(
    st.integers(0, 40),
    st.sampled_from([_SUM_CHUNK - 1, _SUM_CHUNK, _SUM_CHUNK + 1, 2 * _SUM_CHUNK + 5]),
)


class TestExactModeSum:
    @settings(max_examples=200, deadline=None)
    @given(
        base=hnp.arrays(np.float64, st.integers(1, 24), elements=FINITE),
        length=SUM_LENGTHS,
        rest=hnp.arrays(np.float64, st.integers(0, 3), elements=FINITE),
        cancel=st.booleans(),
    )
    @example(base=np.array([1.0]), length=0, rest=np.array([]), cancel=False)
    @example(base=np.array([-0.0]), length=3, rest=np.array([-0.0]), cancel=False)
    @example(base=np.array([5e-324, -2.0**-1022]), length=_SUM_CHUNK + 1, rest=np.array([]), cancel=False)
    @example(base=np.array([1.0, 2.0**-53]), length=2, rest=np.array([]), cancel=False)
    @example(base=np.array([1.0 + 2.0**-52, -1.0]), length=2, rest=np.array([]), cancel=False)  # high halves cancel
    @example(base=np.array([1.0, 2.0**-53]), length=2, rest=np.array([2.0**-200]), cancel=False)
    @example(base=np.array([1e308, 3.0]), length=2 * _SUM_CHUNK + 5, rest=np.array([-5e-324]), cancel=True)
    def test_equals_fsum_bit_for_bit(self, base, length, rest, cancel):
        body = np.resize(base, length)
        # with `cancel` the sum is that of `rest` alone, after partial sums of any size
        terms = np.concatenate([body, rest, -body[::-1]] if cancel else [body, rest])
        expected = fsum_or_exact(terms)
        if expected is None:
            with pytest.raises(NumericalError, match="overflows"):
                _mode_sum(terms)
        else:
            assert _mode_sum(terms).hex() == expected.hex()

    def test_p_variance_on_a_2_20_ring_is_the_fsum_of_its_terms(self):
        n = 2**20
        report = nc.p_variance(nc.ring_spectrum(n, 1.0), nc.PGains(f=1.0, g=1.0, f0=1.0, g0=0.0))
        assert report.v_n == math.fsum(report.per_mode[:, 2].tolist()) / (2.0 * n)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_infinite_term_names_its_mode(self):
        # lambda_2^2 is subnormal, so 1 / lambda_2^2 overflows
        with pytest.raises(NumericalError, match="^mode 2 has a non-finite term inf$"):
            nc.p_variance(nc.ring_spectrum(8, 1e-160), nc.PGains(f=1.0, g=1.0))

    def test_overflowing_sum_raises(self):
        # every term is finite, their sum is not
        with pytest.raises(NumericalError, match="^the sum of 7 mode terms overflows$"):
            nc.p_variance(nc.ring_spectrum(8, 1.5e-154), nc.PGains(f=1.0, g=1.0))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_term_names_its_mode(self):
        gains = nc.DapiGains(f=1e300, g=1e300, g0=1.0, k_i=1.0, c=1e300)
        with pytest.raises(NumericalError, match="^mode 2 has a non-finite term nan$"):
            nc.dapi_variance(nc.ring_spectrum(8, 1.0), gains)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "big, gains, error, message",
        [
            # the filter term is inf/inf in the second chunk of 2**16 modes
            (1e308, nc.FdpdGains(f=10.0, g=2.0, f0=1.0, k_d=1.0, tau=1.0), NumericalError,
             "^mode 65541 has a non-finite term nan$"),
            # every term of the first chunk is inf; the filter term underflows to 0 in the second
            (1e300, nc.FdpdGains(f=1.0, g=0.0, f0=1.0, k_d=1e-310, tau=1.0), UnboundedVarianceError,
             r"^mode 65541 \(lambda=1e\+300\) has non-positive denominator under F-DPD$"),
        ],
        ids=["nan_term", "zero_denominator_after_inf_terms"],
    )
    def test_errors_past_the_first_chunk_name_the_global_mode(self, big, gains, error, message):
        lam = np.concatenate([[0.0], np.ones(_SUM_CHUNK + 3), np.full(10, big)])
        with pytest.raises(error, match=message):
            nc.fdpd_variance(nc.LaplacianSpectrum(lam, 1e-9), gains)


class TestLazyReport:
    """Closed-form and modal reports keep the eigenvalues and terms and build per_mode when read."""

    def test_closed_form_at_2_20_holds_no_table(self):
        n = 2**20
        spec = nc.ring_spectrum(n, 1.0)
        tracemalloc.start()
        try:
            report = nc.p_variance(spec, P_GAINS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20  # the terms take 8 MiB, a (N-1, 3) table 24 MiB more
        lam = spec.eigenvalues[1:]
        terms = 1.0 / ((P_GAINS.f0 + P_GAINS.f * lam) * (P_GAINS.g0 + P_GAINS.g * lam))
        table = report.per_mode
        assert table.tobytes() == np.column_stack((np.arange(2.0, n + 1.0), lam, terms)).tobytes()
        assert table.shape == (n - 1, 3) and table.dtype == np.float64
        assert not table.flags.writeable
        assert report.per_mode is table

    @pytest.mark.parametrize(
        "make",
        [
            lambda spec: nc.p_variance(spec, P_GAINS),
            lambda spec: nc.dapi_variance(spec, DAPI_GAINS),
            lambda spec: nc.fdpd_variance(spec, FDPD_GAINS),
            lambda spec: nc.fdpd_variance(spec, replace(FDPD_GAINS, tau=0.0)),
            lambda spec: nc.modal_variance(spec, "fdpd", FDPD_GAINS),
            lambda spec: nc.full_variance(nc.assemble_p(nc.build_ring(5, 1.0), P_GAINS)),
            lambda spec: nc.VarianceReport(0.5, np.array([[2.0, 1.0, 3.0]]), None, "closed_form"),
        ],
        ids=["p", "dapi", "fdpd", "fdpd_tau0", "modal", "full", "constructed"],
    )
    def test_reports_are_immutable(self, make):
        report = make(nc.ring_spectrum(9, 1.0))
        table = report.per_mode
        for name in ("v_n", "per_mode", "bound", "method"):
            with pytest.raises(FrozenInstanceError):
                setattr(report, name, None)
            with pytest.raises(FrozenInstanceError):
                delattr(report, name)
        assert report.per_mode is table


class TestDisconnectedGraph:
    @pytest.mark.parametrize(
        "call",
        [
            lambda spec: nc.p_variance(spec, P_GAINS),
            lambda spec: nc.dapi_variance(spec, DAPI_GAINS),
            lambda spec: nc.fdpd_variance(spec, FDPD_GAINS),
            lambda spec: nc.fdpd_variance(spec, replace(FDPD_GAINS, tau=0.0)),
            lambda spec: nc.variance_by_kind(spec, "p", P_GAINS),
            lambda spec: nc.classify_c_star(spec, DAPI_GAINS),
            lambda spec: nc.c_star_numeric(spec, DAPI_GAINS),
            lambda spec: nc.fdpd_dv_dtau(spec, FDPD_GAINS),
        ],
        ids=["p", "dapi", "fdpd", "fdpd_tau0", "by_kind", "classify", "c_star", "dv_dtau"],
    )
    def test_two_disjoint_paths_raise(self, call):
        spec = nc.spectrum(nc.from_edge_list(TWO_PATHS))
        with pytest.raises(nc.DisconnectedGraphError):
            call(spec)


def loaded_by_import(module):
    code = f"import sys, netcoh, netcoh.cli; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return out.stdout.strip() == "True"


def test_import_leaves_scipy_linalg_out():
    # only the full oracle needs scipy.linalg, and it is most of the import time
    assert not loaded_by_import("scipy.linalg")


def test_import_leaves_orjson_out():
    # only the CSV writers need orjson
    assert not loaded_by_import("orjson")

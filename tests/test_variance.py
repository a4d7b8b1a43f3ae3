import math
import subprocess
import sys
import threading
import tracemalloc
import warnings
from dataclasses import FrozenInstanceError, replace
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import netcoh as nc
from netcoh import closed_loop, csvrows, variance
from netcoh.closed_loop import modal_matrices
from netcoh.errors import (
    InstabilityError,
    MarginalModeObservableError,
    NumericalError,
    OracleSizeError,
    UnboundedVarianceError,
)
from netcoh.graphs import build_family, family_spectrum
from netcoh.tuning import default_bracket_hi
from netcoh.variance import _SUM_CHUNK, _mode_sum

from conftest import random_connected_graph, random_gains


class TestPVariance:
    def test_complete2_all_unit_gains(self):
        spec = nc.spectrum(nc.build_complete(2, 1.0))
        gains = nc.PGains(1.0, 1.0, 1.0, 1.0)
        report = nc.p_variance(spec, gains)
        assert report.v_n == pytest.approx(1.0 / 36.0, rel=1e-12)
        assert report.bound is None
        # a report exists only for a stable loop: every relative mode's eigenvalues are in the left half-plane
        assert np.all(np.linalg.eigvals(modal_matrices("p", gains, spec.connected_modes())).real < 0.0)

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

    @pytest.mark.parametrize("gains", [nc.DapiGains(f=1.0, g=0.0, g0=1e-124, k_i=1e-200, c=1.0),
                                       nc.DapiGains(f=1e-300, g=0.0, g0=1e-10, k_i=1e-5, c=1.0),
                                       nc.DapiGains(f=10.0, g=0.0, g0=1e-155, k_i=1.5e-154, c=1.0)],
                             ids=["den-underflows-to-0", "den-subnormal", "bound-overflows"])
    def test_bound_out_of_float_range_is_refused(self, gains):
        # 2 k_i f g0 = 2e-324 rounds to 0 (once a ZeroDivisionError), 2e-315 keeps 28 bits, and 10 / 3e-308
        # overflows (once a bound of inf); both routes report the bound, so both refuse
        spec = nc.ring_spectrum(6, 1.0)
        for bound in (lambda: nc.dapi_bound(gains), lambda: nc.dapi_variance(spec, gains),
                      lambda: nc.modal_variance(spec, "dapi", gains)):
            with pytest.raises(NumericalError, match=r"^the uniform-in-N bound .* is out of float range"):
                bound()

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

    def test_bound_with_an_underflowing_denominator_is_refused(self):
        # 2 f0 k_d = 2e-324 rounds to 0: once a ZeroDivisionError, at tau = 0 too
        for tau in (0.0, 0.5):
            with pytest.raises(NumericalError, match=r"^the uniform-in-N bound .* is out of float range"):
                nc.fdpd_bound(nc.FdpdGains(f=0.0, g=1.0, f0=1e-124, k_d=1e-200, tau=tau))

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


class TestClosedFormRange:
    SPEC = nc.LaplacianSpectrum(np.array([0.0, 1.0, 1e155]), 1e-9)

    @pytest.mark.parametrize("kind,gains", [("p", nc.PGains(1.0, 0.5, 1.0, 0.8)),
                                            ("dapi", nc.DapiGains(1.0, 0.5, 1.0, 0.8, 0.1)),
                                            ("fdpd", nc.FdpdGains(1.0, 0.5, 1.0, 0.8, 0.1))])
    def test_an_overflowing_denominator_names_its_mode(self, kind, gains):
        # each denominator is about 5e309 at lambda = 1e155: numpy warned, and the term came out 0.0, not 2e-310
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=r"^mode 3 \(lambda=1e\+155\) has a denominator out of float "
                                                     r"range$"):
                nc.variance_by_kind(self.SPEC, kind, gains)


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
        # path 64: DAPI with c > 0 is Hurwitz at every lambda > 0, yet a batched
        # eigvals check called mode 2 unstable (real part ~1e-14); the modal route
        # has no Hurwitz test but Routh-Hurwitz, and its companion-form terms answer
        spec = nc.spectrum(nc.build_path(64, 1.0))
        gains = nc.DapiGains(f=0.01, g=0.0, g0=100.0, k_i=50.0, c=1e-6)
        closed = nc.dapi_variance(spec, gains).v_n
        assert closed == pytest.approx(9.938e-05, rel=1e-3)
        assert nc.modal_variance(spec, "dapi", gains).v_n == pytest.approx(closed, rel=1e-13)

    @pytest.mark.parametrize(
        "spec,c",
        [
            (nc.ring_spectrum(4096, 1.0), 1e-6),
            (nc.ring_spectrum(1024, 1.0), 1e-6),
            (nc.ring_spectrum(64, 1.0), 1e-6),
            (nc.ring_spectrum(2048, 1.0), 0.1),
            (nc.path_spectrum(4096, 1.0), 0.1),
            (nc.spectrum(nc.build_ring(256, 1.0)), 0.1),
            (nc.spectrum(nc.build_path(128, 1.0)), 0.1),
            (nc.ring_spectrum(1536, 1.0), 0.1),
            (nc.path_spectrum(768, 1.0), 0.1),
        ],
        ids=["ring4096-c1e-6", "ring1024-c1e-6", "ring64-c1e-6", "ring2048", "path4096", "ring256", "path128",
             "ring1536", "path768"],
    )
    def test_slow_dapi_modes_match_closed_form(self, spec, c):
        # slow DAPI modes, where an earlier Kronecker solve lost digits (mode 2 of
        # ring 4096 at c = 1e-6 was off by a factor 7) and an earlier running
        # error bound refused ring 1536 and path 768 with the README gains
        gains = nc.DapiGains(f=1.0, g=0.0, g0=1.0, k_i=1.0, c=c)
        modal = nc.modal_variance(spec, "dapi", gains).v_n
        assert modal == pytest.approx(nc.dapi_variance(spec, gains).v_n, rel=1e-13)

    def test_slow_mode_terms_of_ring4096_match_closed_form(self):
        # the Kronecker route's mode 2 was off by a factor 7 here and refused;
        # the companion form holds its slow modes
        spec = nc.ring_spectrum(4096, 1.0)
        gains = nc.DapiGains(f=1.0, g=0.0, g0=1.0, k_i=1.0, c=1e-6)
        report = nc.modal_variance(spec, "dapi", gains)
        closed = nc.dapi_variance(spec, gains)
        assert report.v_n == pytest.approx(closed.v_n, rel=1e-13)
        assert report.terms[:2] == pytest.approx(closed.terms[:2], rel=1e-13)

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

    @pytest.mark.parametrize("graph", [nc.build_ring(8, 1.0), nc.build_path(7, 1.3),
                                       nc.from_edge_list("5\n1 2 0.5\n2 3 1.7\n3 4 0.9\n4 5 1.1\n1 5 1.3\n2 4 0.8\n")],
                             ids=["ring8", "path7", "graph5"])
    def test_zero_tau_is_its_ideal_pd_twin_bit_for_bit(self, graph):
        gains = nc.FdpdGains(f=1.0, g=0.5, f0=0.3, k_d=1.2, tau=0.0)
        full = nc.full_variance(nc.assemble(graph, "fdpd", gains)).v_n
        assert full == nc.full_variance(nc.assemble(graph, "p", nc.ideal_pd_equivalent(gains))).v_n
        assert full == pytest.approx(nc.fdpd_variance(nc.spectrum(graph), gains).v_n, rel=1e-10)

    @pytest.mark.parametrize("limit", [math.nan, "10", 0])
    def test_size_cap_must_be_a_positive_integer(self, limit):
        # every comparison with nan is false: nan lifted the cap without a word
        system = nc.assemble_p(nc.build_ring(10, 1.0), nc.PGains(1.0, 1.0, 1.0, 1.0))
        with pytest.raises(nc.InvalidParameterError, match="size_limit must be >= 1 and an integer"):
            nc.full_variance(system, size_limit=limit)

    @pytest.mark.parametrize("kind,gains", [("p", nc.PGains(1.0, 1.0, 1.0, 1.0)),
                                            ("dapi", nc.DapiGains(1.0, 0.5, 1.0, 1.0, 0.1))])
    def test_one_node_has_zero_variance(self, kind, gains):
        # the deflated system is 0 x 0; LAPACK's workspace query for it was 0, which dgees refuses
        graph = nc.WeightedGraph(1, ())
        full = nc.full_variance(nc.assemble(graph, kind, gains))
        closed = nc.variance_by_kind(nc.spectrum(graph), kind, gains)
        assert (full.v_n, full.terms.size) == (closed.v_n, closed.terms.size) == (0.0, 0)

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

    @pytest.mark.parametrize("graph", [nc.build_path(3, 1.0), nc.build_ring(8, 1.0)], ids=["path3", "ring8"])
    def test_unresolved_root_of_a_hurwitz_law_is_not_called_undefined(self, graph):
        # DAPI is Hurwitz for every c > 0; at f = c = 1e-170 the slow root near -f c lambda^2 / k_i
        # computes inside the marginal tolerance, so the law's verdict calls it out of range, as the
        # modal route does; the same matrices hand-built carry no law and stay undefined
        system = nc.assemble(graph, "dapi", nc.DapiGains(f=1e-170, g=0.5, g0=1.0, k_i=0.8, c=1e-170))
        with pytest.raises(NumericalError, match="stable by Routh-Hurwitz, but a root is below eigenvalue resolution"):
            nc.full_variance(system)
        with pytest.raises(MarginalModeObservableError, match="variance undefined"):
            nc.full_variance(replace(system))

    @pytest.mark.parametrize("n,c", [(16, 1e-8), (64, 1e-5)], ids=["ring16", "ring64"])
    def test_a_resolved_slow_root_is_answered(self, n, c):
        # the slow root of lambda_2 computes at -2.4e-10 on ring 16 and -1.1e-9 on ring 64: inside the
        # 1e-9 * scale cut, yet far above its error bound eps ||T||_F / s (4.4e-15 and 1.1e-14)
        graph, gains = nc.build_ring(n, 1.0), nc.DapiGains(f=1.0, g=0.5, g0=1.0, k_i=0.8, c=c)
        full = nc.full_variance(nc.assemble(graph, "dapi", gains)).v_n
        assert full == pytest.approx(nc.dapi_variance(nc.spectrum(graph), gains).v_n, rel=1e-12, abs=0)

    def test_an_unresolved_slow_root_is_refused_with_its_bound(self):
        # at c = 1e-14 the slow root of ring 16 computes at -1.9e-16, below its bound of 7.2e-15
        system = nc.assemble(nc.build_ring(16, 1.0), "dapi", nc.DapiGains(f=1.0, g=0.5, g0=1.0, k_i=0.8, c=1e-14))
        with pytest.raises(NumericalError, match=r"computed real part -1\.\d+e-16, bound 7\.\d+e-15\)"):
            nc.full_variance(system)

    def test_a_resolved_root_right_of_the_axis_is_unstable(self):
        # the disconnected loop of test_observable_marginal_mode_aborts shifted by 1e-10: its zero root
        # moves to 1e-10, inside the 1e-9 cut but far above its bound of about 2e-15
        lap = nc.laplacian(nc.WeightedGraph(4, ((1, 2, 1.0), (3, 4, 1.0))))
        a = np.block([[np.zeros((4, 4)), np.eye(4)], [-lap, -lap - 0.5 * np.eye(4)]]) + 1e-10 * np.eye(8)
        b = np.vstack([np.zeros((4, 4)), np.eye(4)])
        c = np.hstack([np.eye(4) - np.ones((4, 4)) / 4, np.zeros((4, 4))])
        with pytest.raises(InstabilityError, match="real part 1.000e-10 > 0"):
            nc.full_variance(nc.ClosedLoopSystem(a, b, c, "p", 4))

    def test_the_resolution_bound_is_taken_only_near_the_axis(self, monkeypatch):
        monkeypatch.setattr(scipy.linalg.lapack, "dtrsen", None)  # calling it would raise TypeError
        gains = nc.DapiGains(f=2.0, g=0.3, g0=1.0, k_i=0.8, c=0.1)
        nc.full_variance(nc.assemble(nc.build_path(9, 1.0), "dapi", gains))
        with pytest.raises(TypeError):
            nc.full_variance(nc.assemble(nc.build_ring(16, 1.0), "dapi", replace(gains, c=1e-8)))

    def test_output_reading_the_network_average_aborts(self):
        # uncentered positions see the marginal average mode that the deflation removes
        base = nc.assemble_p(nc.build_ring(4, 1.0), nc.PGains(1.0, 1.0, 1.0, 1.0))
        c = np.hstack([np.eye(4), np.zeros((4, 4))])
        system = nc.ClosedLoopSystem(base.a, base.b, c, base.kind, base.n)
        with pytest.raises(MarginalModeObservableError, match="network-average direction visible"):
            nc.full_variance(system)

    def test_unstable_system_rejected(self):
        base = nc.assemble_p(nc.build_ring(4, 1.0), nc.PGains(1.0, 1.0, 1.0, 1.0))
        shifted = nc.ClosedLoopSystem(
            base.a + 3.0 * np.eye(8), base.b, base.c, base.kind, base.n
        )
        with pytest.raises(InstabilityError):
            nc.full_variance(shifted)


def schur_form(m: int, pairs: list[int], seed: int) -> np.ndarray:
    """A real Schur form of ``m`` states: stable real eigenvalues, and standard 2x2 blocks of complex
    pairs on rows ``(i, i + 1)`` for each ``i`` in ``pairs``."""
    rng = np.random.default_rng(seed)
    t = np.triu(rng.uniform(-1.0, 1.0, (m, m)), 1) / math.sqrt(m)
    t[np.diag_indices(m)] = -rng.uniform(0.5, 3.0, m)
    for i in pairs:
        t[i + 1, i + 1] = t[i, i]
        t[i, i + 1], t[i + 1, i] = rng.uniform(0.5, 2.0), -rng.uniform(0.5, 2.0)
    return t


class TestRecursiveLyapunovSolve:
    """variance._lyapunov_schur: T Y + Y T^T = R on a real Schur form, blocked above 64 states."""

    @pytest.mark.parametrize("m,pairs", [(65, [20]), (130, [32, 64, 100]), (189, [94, 140]), (256, [127, 63])],
                             ids=["65", "130_cut_in_blocks", "189_cut_in_a_block", "256_cut_in_blocks"])
    def test_equals_scipy_lyapunov(self, m, pairs):
        # m = 130: the cut m // 2 = 65 falls inside the block on rows 64..65, the cut of the 66 states
        # above it inside the one on rows 32..33; m = 189: the cut 94 is a block's first row, and the
        # cut of the 95 states below it falls inside the block on rows 140..141
        t = schur_form(m, pairs, m)
        r = np.random.default_rng(m + 1).standard_normal((m, m))
        r += r.T
        y = variance._lyapunov_schur(t, r)
        expected = scipy.linalg.solve_continuous_lyapunov(t, r)
        assert np.abs(y - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_cut_inside_a_block_moves_past_it(self):
        t = schur_form(130, [64, 32], 3)
        assert t[65, 64] and t[33, 32]  # both halving cuts would split a block
        r = np.eye(130)
        y = variance._lyapunov_schur(t, r)
        assert np.abs(t @ y + y @ t.T - r).max() <= 1e-12

    def test_up_to_64_states_is_one_trsyl_call(self):
        t = schur_form(64, [31], 5)
        r = np.random.default_rng(6).standard_normal((64, 64))
        r += r.T
        expected = scipy.linalg.lapack.dtrsyl(t, t, r, tranb="T")[0]
        assert variance._lyapunov_schur(t, r).tobytes() == expected.tobytes()

    def test_an_inner_solve_below_scale_one_raises(self, monkeypatch):
        real, sizes = scipy.linalg.lapack.dtrsyl, []

        def scaled(a, b, c, **options):
            y, scale, info = real(a, b, c, **options)
            sizes.append((a.shape[0], b.shape[0]))
            return y, 0.5 if len(sizes) == 2 else scale, info

        monkeypatch.setattr(scipy.linalg.lapack, "dtrsyl", scaled)
        system = nc.assemble_p(nc.build_ring(40, 1.0), nc.PGains(1.0, 1.0, 1.0, 1.0))  # 78 reduced states
        with pytest.raises(NumericalError, match=r"^full-oracle Lyapunov solve failed \(info=0, scale=0.5\)$"):
            nc.full_variance(system)
        assert len(sizes) == 2 and sum(sizes[1]) == 78  # the leaf Y22, then the Sylvester solve of Y12

    @pytest.mark.parametrize("family", ["path", "ring"])
    @pytest.mark.parametrize("kind,gains", [("dapi", nc.DapiGains(f=2.0, g=0.3, g0=1.0, k_i=0.8, c=0.1)),
                                            ("fdpd", nc.FdpdGains(f=1.0, g=0.5, f0=0.3, k_d=1.2, tau=0.4))])
    def test_full_oracle_at_the_cap_equals_the_closed_form(self, family, kind, gains):
        graph = build_family(family, variance.DEFAULT_ORACLE_LIMIT, 1.0)
        system = nc.assemble(graph, kind, gains)
        assert system.state_dim - system.state_dim // system.n == 189  # reduced states
        full = nc.full_variance(system).v_n
        assert full == pytest.approx(nc.variance_by_kind(nc.spectrum(graph), kind, gains).v_n, rel=1e-10)


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
            full = nc.full_variance(nc.assemble(graph, kind, gains)).v_n
            assert modal == pytest.approx(closed, rel=1e-8)
            assert full == pytest.approx(closed, rel=1e-8)
            checked += 1
        assert checked >= 60


GAIN = st.floats(1e-2, 1e2)
GAIN_OR_ZERO = st.one_of(st.just(0.0), GAIN)
BOUNDED_GAINS = st.one_of(
    st.builds(nc.DapiGains, f=GAIN, g=GAIN_OR_ZERO, g0=GAIN, k_i=GAIN, c=GAIN_OR_ZERO),
    st.builds(nc.FdpdGains, f=GAIN_OR_ZERO, g=GAIN_OR_ZERO, f0=GAIN, k_d=GAIN, tau=GAIN_OR_ZERO),
)
# (family, size) with at most 2**12 nodes; the size of a torus is its side
FAMILY_MEMBERS = st.sampled_from(
    [("ring", 3, 2**12), ("path", 2, 2**12), ("complete", 2, 2**12), ("torus2", 3, 2**6), ("torus3", 3, 2**4)]
).flatmap(lambda member: st.tuples(st.just(member[0]), st.integers(*member[1:])))


class TestMonotonicityAndBounds:
    @settings(max_examples=300, deadline=None)
    @given(member=FAMILY_MEMBERS, weight=st.floats(1e-2, 1e2), gains=BOUNDED_GAINS)
    def test_family_variance_stays_under_the_uniform_bound(self, member, weight, gains):
        # every term is below its lambda -> 0 limit 2 * bound, so V_N <= (N-1)/N * bound
        spec = family_spectrum(*member, weight)
        kind = "dapi" if isinstance(gains, nc.DapiGains) else "fdpd"
        report = nc.variance_by_kind(spec, kind, gains)
        assert report.v_n < report.bound
        assert report.v_n <= (spec.node_count - 1) / spec.node_count * report.bound * (1.0 + 1e-12)

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


# F-DPD with small g*lam*tau and k_d/(f0*tau): a_1 and a_0/a_2 agree to about
# 1/(tau*g*lam + k_d/(f0*tau)) of their digits, so h must not be formed as their difference
SLOW_FDPD = nc.FdpdGains(f=1e-3, g=1e-3, f0=1e3, k_d=1e-3, tau=50.0)
# the modal route's gate: P, DAPI at c = 0.1 and c = 1e-3, the power preset,
# and F-DPD with tau > 0, with slow gains and with tau = 0, on path and ring up to 2**20 nodes
GATE_GAINS = {
    "p": ("p", nc.PGains(f=1.3, g=0.7, f0=0.2, g0=0.5)),
    "dapi-c0.1": ("dapi", nc.DapiGains(f=1.0, g=0.0, g0=1.0, k_i=1.0, c=0.1)),
    "dapi-c1e-3": ("dapi", nc.DapiGains(f=1.0, g=0.0, g0=1.0, k_i=1.0, c=1e-3)),
    "power": ("dapi", nc.power_preset(m=20.0 / (2 * math.pi * 60), d=10.0 / (2 * math.pi * 60), b=0.3, l=1.0,
                                      k_i=1.0, c=0.1)),
    "fdpd": ("fdpd", nc.FdpdGains(f=1.0, g=0.5, f0=0.3, k_d=1.2, tau=0.4)),
    "fdpd-tau0": ("fdpd", nc.FdpdGains(f=1.0, g=0.5, f0=0.3, k_d=1.2, tau=0.0)),
    "fdpd-slow": ("fdpd", SLOW_FDPD),
}
LOG_GAIN = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)  # log-uniform in 1e-3..1e3
LOG_GAIN_OR_ZERO = st.one_of(st.just(0.0), LOG_GAIN)
LOG_GAINS = {
    "p": st.builds(nc.PGains, f=LOG_GAIN, g=LOG_GAIN, f0=LOG_GAIN_OR_ZERO, g0=LOG_GAIN_OR_ZERO),
    "dapi": st.builds(nc.DapiGains, f=LOG_GAIN, g=LOG_GAIN, g0=LOG_GAIN, k_i=LOG_GAIN, c=LOG_GAIN),
    "fdpd": st.builds(nc.FdpdGains, f=LOG_GAIN, g=LOG_GAIN, f0=LOG_GAIN, k_d=LOG_GAIN, tau=LOG_GAIN_OR_ZERO),
}
LOG_KIND_GAINS = st.sampled_from(list(LOG_GAINS)).flatmap(lambda kind: st.tuples(st.just(kind), LOG_GAINS[kind]))
# (family, size) of 2 to about 2**20 nodes, log-uniform in the node count; the size of a torus is its side
WIDE_MEMBERS = st.sampled_from(
    [("ring", 3, 1), ("path", 2, 1), ("complete", 2, 1), ("torus2", 3, 2), ("torus3", 3, 3)]
).flatmap(lambda m: st.tuples(st.just(m[0]), st.floats(1.0, 20.0 / m[2]).map(lambda e: max(m[1], int(2.0**e)))))
# sizes of each family up to about 2**20 nodes
LADDERS = {"torus2": [4, 16, 64, 256, 1024], "torus3": [3, 6, 16, 40, 101],
           "complete": [2**4, 2**8, 2**12, 2**16, 2**20]}


class TestModalEqualsClosed:
    @pytest.mark.parametrize("family", ["ring", "path"])
    @pytest.mark.parametrize("name", list(GATE_GAINS))
    def test_modal_route_matches_closed_form_up_to_2_20(self, family, name):
        kind, gains = GATE_GAINS[name]
        for size in (2**k for k in range(4, 21)):
            spec = family_spectrum(family, size, 1.0)
            closed = nc.variance_by_kind(spec, kind, gains).v_n
            assert nc.modal_variance(spec, kind, gains).v_n == pytest.approx(closed, rel=1e-13), size

    @pytest.mark.parametrize("family", list(LADDERS))
    def test_modal_route_matches_closed_form_to_2_20_on_tori_and_complete(self, family):
        for size in LADDERS[family]:
            spec = family_spectrum(family, size, 1.0)
            for name, (kind, gains) in GATE_GAINS.items():
                closed = nc.variance_by_kind(spec, kind, gains).v_n
                assert nc.modal_variance(spec, kind, gains).v_n == pytest.approx(closed, rel=1e-13), (size, name)

    @pytest.mark.parametrize("lam", [1e80, 1e100, 1e105, 1e120, 1e150])
    @pytest.mark.parametrize(
        "kind,gains",
        [("p", nc.PGains(1.3, 0.7, 0.2, 0.5)), ("dapi", nc.DapiGains(1.0, 0.5, 1.0, 1.0, 0.1)),
         ("fdpd", nc.FdpdGains(1.0, 0.5, 1.0, 1.0, 0.1))],
        ids=["p", "dapi", "fdpd"],
    )
    def test_huge_eigenvalue_terms_match_closed_form(self, kind, gains, lam):
        # a_0 (a_1 a_2 - a_0) overflows from lambda ~ 1e80: the product form's term was 0, then nan;
        # a_1 a_2 overflows from lambda ~ 1e102, so h is summed with each row entry divided by a_2
        spec = nc.LaplacianSpectrum(np.array([0.0, 1.0, lam]), 1e-9)
        modal = nc.modal_variance(spec, kind, gains).terms
        assert modal[1] > 0.0
        assert modal == pytest.approx(nc.variance_by_kind(spec, kind, gains).terms, rel=1e-13)

    @settings(max_examples=200, deadline=None)
    @given(member=WIDE_MEMBERS, kind_gains=LOG_KIND_GAINS)
    @example(member=("ring", 4096), kind_gains=("fdpd", SLOW_FDPD))
    def test_modal_route_matches_closed_form_on_families(self, member, kind_gains):
        kind, gains = kind_gains
        spec = family_spectrum(*member, 1.0)
        closed = nc.variance_by_kind(spec, kind, gains)
        modal = nc.modal_variance(spec, kind, gains)
        if closed_loop._law(kind, gains)[0] == "p":  # P, and F-DPD at tau = 0: the closed form's expression
            assert np.array_equal(modal.terms, closed.terms) and modal.v_n == closed.v_n
            return
        assert abs(modal.v_n - closed.v_n) <= 1e-13 * closed.v_n

    @settings(max_examples=200, deadline=None)
    @given(lams=st.lists(st.floats(-12.0, 140.0).map(lambda e: 10.0**e), min_size=1, max_size=20),
           kind_gains=LOG_KIND_GAINS)
    def test_every_modal_term_matches_the_closed_form_from_1e_12_to_1e140(self, lams, kind_gains):
        kind, gains = kind_gains
        spec = nc.LaplacianSpectrum(np.array([0.0, *lams]), 1e-13)
        modal, closed = nc.modal_variance(spec, kind, gains).terms, nc.variance_by_kind(spec, kind, gains).terms
        assert np.all(np.abs(modal - closed) <= 1e-13 * closed)

    @settings(max_examples=200, deadline=None)
    @given(kind_gains=LOG_KIND_GAINS)
    @example(kind_gains=("dapi", nc.DapiGains(1e200, 1e200, 1e-200, 1e200, 1e200)))
    def test_plain_float_expansion_is_np_convolve_bit_for_bit(self, kind_gains):
        # every coefficient of the registered tables' expansion is one product, so any order of summing agrees
        kind, gains = kind_gains
        table = closed_loop._law(kind, gains)[2]
        plain = closed_loop._char_poly(closed_loop._entries(table))
        with np.errstate(all="ignore"):
            convolved = closed_loop._char_poly([list(row) for row in table.transpose(1, 2, 0).view(ConvolvedPoly)])
        floats = lambda x: list(map(float, x))
        as_lists = lambda factors, pairs: ([floats(x) for x in factors], [[floats(x) for x in pair] for pair in pairs])
        assert repr(as_lists(*plain)) == repr(as_lists(*convolved))


class ConvolvedPoly(np.ndarray):
    """Coefficient arrays, lowest power first, whose product is ``np.convolve``."""

    def __mul__(self, other):
        return np.convolve(self, other).view(ConvolvedPoly)


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
                None,
                "closed_form",
                np.array([1e-5, 3e-05, 1e16, 0.0]),
                np.array([np.inf, -0.0, np.nan, 1.5]),
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
        report = nc.VarianceReport(0.25, 1.5, "closed_form", cells[:, 0], cells[:, 1])
        with mock.patch.object(csvrows, "BLOCK_CELLS", block):
            text = report.to_csv()
        rows = [f"{int(n)},{lam!r},{s!r}\n" for n, lam, s in per_mode.tolist()]
        assert text == "".join(["n,lambda,s_n\n", *rows, "V_N,0.25\nbound,1.5\n"])


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
    # two clusters near 2**1000 and 2**-1000: the empty binades between them take one step
    @example(base=np.array([1.5 * 2.0**1000, 1.25 * 2.0**-1000, -1.75 * 2.0**1000, (1 + 2.0**-52) * 2.0**-1000]),
             length=_SUM_CHUNK, rest=np.array([]), cancel=False)
    # mixed signs with exact zeros: the least nonzero magnitude, not a zero, sets the last level,
    # and its 2**-90 breaks the tie at 1 + 2**-53
    @example(base=np.array([1.5, -0.0, -0.5, 0.0, 2.0**-53, 2.0**-90]), length=6, rest=np.array([0.0, -0.0]),
             cancel=False)
    # one sign, the least term subnormal: the last level is at 2**-1074
    @example(base=np.array([1.0 + 2.0**-52, 3.0]), length=_SUM_CHUNK - 1, rest=np.array([2.5e-320]), cancel=False)
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


def every_binade(size: int, seed: int) -> np.ndarray:
    """``size`` terms in shuffled order, at least one in each of the 2098
    binades of the doubles, subnormals included, with random signs and
    mantissas below 1.5, which no rounding lifts out of their binade; the
    terms above 2**1000, one per binade, alternate in sign, so that the sum
    is finite."""
    rng = np.random.default_rng(seed)
    exps = np.concatenate([np.arange(-1074, 1024), rng.integers(-1074, 1001, size - 2098)])
    signs = np.where(exps > 1000, (-1.0) ** exps, rng.choice([-1.0, 1.0], size))
    return rng.permutation(signs * np.ldexp(rng.uniform(1.0, 1.5, size), exps))


class TestLevelExtraction:
    """The level-by-level sum on terms far from the closed forms' narrow range."""

    def test_chunk_over_every_binade_is_the_exact_sum(self):
        terms = every_binade(_SUM_CHUNK + 1, 7)
        assert np.unique(np.frexp(terms)[1]).size == 2098  # frexp's exponents -1073..1024
        ratios = map(float.as_integer_ratio, terms.tolist())  # denominators are powers of two
        exact = sum(num << (1074 - den.bit_length() + 1) for num, den in ratios) / (1 << 1074)
        assert _mode_sum(terms).hex() == exact.hex() == math.fsum(terms.tolist()).hex()


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
            lambda spec: nc.VarianceReport(0.5, None, "closed_form", np.array([1.0]), np.array([3.0])),
        ],
        ids=["p", "dapi", "fdpd", "fdpd_tau0", "modal", "full", "constructed"],
    )
    def test_reports_are_immutable(self, make):
        report = make(nc.ring_spectrum(9, 1.0))
        table = report.per_mode
        for name in ("v_n", "per_mode", "bound", "method", "eigenvalues", "terms"):
            with pytest.raises(FrozenInstanceError):
                setattr(report, name, None)
            with pytest.raises(FrozenInstanceError):
                delattr(report, name)
        assert report.per_mode is table
        assert not report.eigenvalues.flags.writeable and not report.terms.flags.writeable

    def test_threads_reading_a_fresh_report_get_one_table(self):
        report = nc.p_variance(nc.ring_spectrum(2**16, 1.0), P_GAINS)
        start = threading.Barrier(8, timeout=30)
        tables = [None] * 8

        def read(k):
            start.wait()
            tables[k] = report.per_mode

        threads = [threading.Thread(target=read, args=(k,)) for k in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, inside the table build too
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(table is tables[0] for table in tables)
        assert tables[0] is report.per_mode
        assert tables[0].tobytes() == np.column_stack(
            (np.arange(2.0, 2**16 + 1.0), report.eigenvalues, report.terms)).tobytes()

    def test_fields_are_the_modes(self):
        spec = nc.ring_spectrum(9, 1.0)
        report = nc.dapi_variance(spec, DAPI_GAINS)
        assert np.shares_memory(report.eigenvalues, spec.eigenvalues)
        assert not report.eigenvalues.flags.writeable and not report.terms.flags.writeable
        assert report.v_n == math.fsum(report.terms.tolist()) / 18.0
        assert repr(report) == f"VarianceReport(v_n={report.v_n!r}, bound={report.bound!r}, method='closed_form')"
        full = nc.full_variance(nc.assemble_p(nc.build_ring(5, 1.0), P_GAINS))
        assert full.eigenvalues.shape == full.terms.shape == (0,)

    @pytest.mark.parametrize("eigenvalues, terms", [
        (np.array([1.0, 2.0]), np.array([3.0])),  # the CSV would stop at the shorter column
        (np.array([[1.0, 2.0]]), np.array([[3.0, 4.0]])),
        (np.array([1.0]), 3.0),
        (np.array([1.0]), [3.0]),
    ])
    def test_constructor_needs_one_value_per_mode(self, eigenvalues, terms):
        with pytest.raises(nc.InvalidParameterError, match="one 1-D shape"):
            nc.VarianceReport(0.5, None, "closed_form", eigenvalues, terms)


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
            lambda spec: default_bracket_hi(spec, DAPI_GAINS),  # it read lambda_2 = 3.9e-17 as a gap
            lambda spec: nc.fdpd_dv_dtau(spec, FDPD_GAINS),
        ],
        ids=["p", "dapi", "fdpd", "fdpd_tau0", "by_kind", "classify", "c_star", "bracket", "dv_dtau"],
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

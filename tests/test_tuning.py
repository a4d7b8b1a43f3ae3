import math
from dataclasses import replace

import numpy as np
import pytest

import netcoh as nc
from netcoh.errors import ConvergenceError, InvalidParameterError, NumericalError, SearchError
from netcoh.tuning import (
    VERDICT_INDETERMINATE,
    VERDICT_POSITIVE,
    VERDICT_ZERO,
    _search,
    default_bracket_hi,
)


class TestClassification:
    def test_complete4_positive(self):
        spec = nc.spectrum(nc.build_complete(4, 1.0))
        gains = nc.DapiGains(f=4.0, g=0.0, g0=1.0, k_i=1.0, c=0.0)
        result = nc.classify_c_star(spec, gains)
        # every mode sits at lambda = 4 where (1/4)(0 + 1)^2 = 0.25 < 4
        assert result.verdict == VERDICT_POSITIVE
        assert result.witness == (True, True, True)

    def test_ring4_zero(self):
        spec = nc.spectrum(nc.build_ring(4, 1.0))
        gains = nc.DapiGains(f=0.1, g=1.0, g0=1.0, k_i=1.0, c=0.3)
        result = nc.classify_c_star(spec, gains)
        # lambda = 2: (1/2)(2+1)^2 = 4.5 > 0.1; lambda = 4: (1/4)(5)^2 = 6.25 > 0.1
        assert result.verdict == VERDICT_ZERO
        assert result.witness == (False, False, False)

    def test_mixed_spectrum_indeterminate(self):
        spec = nc.LaplacianSpectrum(np.array([0.0, 0.5, 8.0]), 1e-9)
        gains = nc.DapiGains(f=1.0, g=0.0, g0=1.0, k_i=1.0, c=0.0)
        result = nc.classify_c_star(spec, gains)
        assert result.verdict == VERDICT_INDETERMINATE
        assert result.witness == (False, True)

    def test_witness_is_tuple_of_python_bool(self):
        spec = nc.ring_spectrum(64, 1.0)
        result = nc.classify_c_star(spec, nc.DapiGains(f=1.0, g=0.0, g0=1.0, k_i=1.0, c=0.0))
        assert isinstance(result.witness, tuple)
        assert len(result.witness) == 63
        assert all(type(w) is bool for w in result.witness)
        assert result.verdict == VERDICT_INDETERMINATE

    def test_current_c_is_ignored(self):
        spec = nc.spectrum(nc.build_complete(4, 1.0))
        a = nc.classify_c_star(spec, nc.DapiGains(4.0, 0.0, 1.0, 1.0, 0.0))
        b = nc.classify_c_star(spec, nc.DapiGains(4.0, 0.0, 1.0, 1.0, 5.0))
        assert a == b


class TestCStarComplete:
    def test_reference_case(self):
        assert nc.c_star_complete(4, 1.0, 4.0, 0.0, 1.0) == pytest.approx(0.75)

    def test_clamped_to_zero(self):
        assert nc.c_star_complete(4, 1.0, 1.0, 2.0, 1.0) == 0.0

    def test_large_network_small_damping(self):
        assert nc.c_star_complete(100, 1.0, 1.0, 0.0, 0.01) == pytest.approx(0.0999)

    def test_reference_case_is_the_argmin(self):
        # exact check that the closed form beats nearby candidates, including
        # the sign-flipped variant sqrt(f/(Nl)) - g + g0/(Nl)
        spec = nc.complete_spectrum(4, 1.0)
        gains = nc.DapiGains(f=4.0, g=0.0, g0=1.0, k_i=1.0, c=0.0)
        value = lambda c: nc.dapi_variance(spec, replace(gains, c=c)).v_n
        star = nc.c_star_complete(4, 1.0, 4.0, 0.0, 1.0)
        assert value(star) == pytest.approx(21.0 / 1024.0, rel=1e-12)
        flipped = math.sqrt(4.0 / 4.0) - 0.0 + 1.0 / 4.0
        assert value(star) < value(flipped)
        for candidate in np.linspace(0.0, 3.0, 601):
            assert value(star) <= value(float(candidate)) + 1e-15

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            nc.c_star_complete(1, 1.0, 1.0, 0.0, 0.0)
        with pytest.raises(InvalidParameterError):
            nc.c_star_complete(4, 0.0, 1.0, 0.0, 0.0)

    @pytest.mark.parametrize("args, message", [
        ((10, math.nan, 1.0, 0.0, 0.0), "l must be finite"),
        ((10, math.inf, 1.0, 0.0, 0.0), "l must be finite"),
        ((10, 1.0, math.nan, 0.0, 0.0), "f must be finite"),
        ((10, 1.0, math.inf, 0.0, 0.0), "f must be finite"),
        ((10, 1.0, 1.0, math.nan, 0.0), "g must be finite"),
        ((10, 1.0, 1.0, 0.0, math.nan), "g0 must be finite"),
        ((2.5, 1.0, 1.0, 0.0, 0.0), "n must be >= 2 and an integer"),
    ], ids=["nan_l", "inf_l", "nan_f", "inf_f", "nan_g", "nan_g0", "fractional_n"])
    def test_undefined_input_is_not_an_answer(self, args, message):
        # each returned a number: 0.0 for a nan or infinite l, a nan f, g or
        # g0, inf for an infinite f, and a c* for n = 2.5 nodes
        with pytest.raises(InvalidParameterError, match=message):
            nc.c_star_complete(*args)


class TestCStarNumeric:
    def test_complete4_against_closed_form_and_grid(self):
        spec = nc.spectrum(nc.build_complete(4, 1.0))
        gains = nc.DapiGains(f=4.0, g=0.0, g0=1.0, k_i=1.0, c=0.0)
        c_star, v_star = nc.c_star_numeric(spec, gains)
        assert c_star == pytest.approx(0.75, abs=1e-3)
        # independent dense-grid oracle
        grid = np.arange(0.0, 3.0, 1e-4)
        values = [nc.dapi_variance(spec, replace(gains, c=float(c))).v_n for c in grid]
        best = grid[int(np.argmin(values))]
        assert c_star == pytest.approx(best, abs=2e-4)
        assert v_star == pytest.approx(min(values), rel=1e-8)

    def test_zero_optimum_returns_origin(self):
        spec = nc.spectrum(nc.build_ring(4, 1.0))
        gains = nc.DapiGains(f=0.1, g=1.0, g0=1.0, k_i=1.0, c=0.0)
        assert nc.classify_c_star(spec, gains).verdict == VERDICT_ZERO
        c_star, _ = nc.c_star_numeric(spec, gains)
        assert c_star <= 1e-5

    def test_path10_regression_fixture(self):
        spec = nc.spectrum(nc.build_path(10, 1.0))
        gains = nc.DapiGains(f=1.0, g=0.0, g0=1.0, k_i=1.0, c=0.0)
        assert nc.classify_c_star(spec, gains).verdict == VERDICT_INDETERMINATE
        c_star, v_star = nc.c_star_numeric(spec, gains)
        # frozen from a dense grid scan at resolution 1e-4: boundary optimum
        assert c_star <= 1e-4
        assert v_star == pytest.approx(0.1936068, rel=1e-5)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_sum_is_an_infinite_objective(self):
        # at c = 0 every term is about 1e307 / (lambda + 2): finite, but 127 of them overflow
        spec = nc.ring_spectrum(128, 1.0)
        gains = nc.DapiGains(f=1.0, g=0.0, g0=1e-307, k_i=2.0, c=0.0)
        grid, values, c_star, v_star = _search(spec, gains, None)
        assert grid[0] == 0.0 and values[0] == math.inf
        assert np.isfinite(values[1:]).all()
        assert c_star > 0.0 and v_star == nc.dapi_variance(spec, replace(gains, c=c_star)).v_n

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_terms_are_an_infinite_objective(self):
        # from c of about 1e298 the DAPI ratio is inf / inf
        spec = nc.ring_spectrum(16, 1.0)
        gains = nc.DapiGains(f=1e10, g=0.0, g0=1.0, k_i=1.0, c=0.0)
        _, values, _, v_star = _search(spec, gains, nc.ScalarSearchConfig(bracket_hi=1e300))
        assert not np.isnan(values).any()
        assert values[-1] == math.inf and np.isfinite(values[0]) and math.isfinite(v_star)

    def test_search_error_without_spectral_gap(self):
        spec = nc.LaplacianSpectrum(np.array([0.0, 0.0, 1.0]), 1e-9)
        gains = nc.DapiGains(f=1.0, g=0.0, g0=1.0, k_i=1.0, c=0.0)
        with pytest.raises(SearchError):
            default_bracket_hi(spec, gains)

    @pytest.mark.parametrize("field, value", [
        ("abs_tolerance", math.nan), ("abs_tolerance", math.inf),
        ("bracket_hi", math.nan), ("bracket_hi", math.inf),
    ])
    def test_non_finite_search_config_rejected(self, field, value):
        # a nan tolerance skipped the golden-section refinement without an error
        with pytest.raises(InvalidParameterError, match=f"{field} must be finite"):
            nc.ScalarSearchConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("grid_points", 10.5), ("grid_points", 3), ("max_iterations", 2.5), ("max_iterations", 0),
    ])
    def test_non_integer_search_config_rejected(self, field, value):
        # a fractional grid_points ended in np.geomspace's bare TypeError, and
        # a fractional max_iterations was accepted
        with pytest.raises(InvalidParameterError, match=f"{field} must be >= "):
            nc.ScalarSearchConfig(**{field: value})

    def test_convergence_error_on_tiny_budget(self):
        spec = nc.spectrum(nc.build_complete(4, 1.0))
        gains = nc.DapiGains(f=4.0, g=0.0, g0=1.0, k_i=1.0, c=0.0)
        cfg = nc.ScalarSearchConfig(abs_tolerance=1e-12, max_iterations=2)
        with pytest.raises(ConvergenceError):
            nc.c_star_numeric(spec, gains, cfg)

    def test_agreement_property_on_random_complete_graphs(self):
        rng = np.random.default_rng(53)
        for _ in range(30):
            n = int(rng.integers(2, 13))
            l = float(rng.uniform(0.5, 2.0))
            g = float(rng.uniform(0.0, 0.3))
            g0 = float(rng.uniform(0.05, 0.8))
            target = float(rng.uniform(0.05, 1.5))
            lam = n * l
            f = lam * (target + g + g0 / lam) ** 2
            gains = nc.DapiGains(f=f, g=g, g0=g0, k_i=float(rng.uniform(0.2, 3.0)), c=0.0)
            spec = nc.complete_spectrum(n, l)
            assert nc.classify_c_star(spec, gains).verdict == VERDICT_POSITIVE
            closed = nc.c_star_complete(n, l, f, g, g0)
            assert closed == pytest.approx(target, rel=1e-12)
            numeric, _ = nc.c_star_numeric(spec, gains)
            assert abs(numeric - closed) <= 10 * 1e-6

    def test_monotone_case_grid(self):
        rng = np.random.default_rng(59)
        for _ in range(10):
            graph = nc.build_ring(int(rng.integers(4, 10)), 1.0)
            spec = nc.spectrum(graph)
            gains = nc.DapiGains(
                f=float(rng.uniform(0.01, 0.05)),
                g=float(rng.uniform(0.8, 2.0)),
                g0=float(rng.uniform(0.8, 2.0)),
                k_i=float(rng.uniform(0.2, 2.0)),
                c=0.0,
            )
            if nc.classify_c_star(spec, gains).verdict != VERDICT_ZERO:
                continue
            hi = default_bracket_hi(spec, gains)
            grid = np.linspace(0.0, hi, 64)
            values = [nc.dapi_variance(spec, replace(gains, c=float(c))).v_n for c in grid]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_interior_case_beats_endpoints(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            n = int(rng.integers(3, 10))
            spec = nc.complete_spectrum(n, 1.0)
            lam = float(n)
            target = float(rng.uniform(0.1, 1.0))
            f = lam * (target + 0.1 + 0.3 / lam) ** 2
            gains = nc.DapiGains(f=f, g=0.1, g0=0.3, k_i=1.0, c=0.0)
            assert nc.classify_c_star(spec, gains).verdict == VERDICT_POSITIVE
            c_star, v_star = nc.c_star_numeric(spec, gains)
            hi = default_bracket_hi(spec, gains)
            assert v_star < nc.dapi_variance(spec, replace(gains, c=0.0)).v_n
            assert v_star < nc.dapi_variance(spec, replace(gains, c=hi)).v_n


def central_difference(spec, gains, tau, h):
    lo = nc.fdpd_variance(spec, replace(gains, tau=tau - h)).v_n
    hi = nc.fdpd_variance(spec, replace(gains, tau=tau + h)).v_n
    return (hi - lo) / (2.0 * h)


class TestTauDerivative:
    def test_zero_at_tau_zero(self):
        spec = nc.spectrum(nc.build_ring(6, 1.0))
        gains = nc.FdpdGains(f=1.0, g=1.0, f0=1.0, k_d=1.0, tau=0.0)
        assert nc.fdpd_dv_dtau(spec, gains) == 0.0

    def test_ring4_matches_finite_differences(self):
        spec = nc.spectrum(nc.build_ring(4, 1.0))
        gains = nc.FdpdGains(f=1.0, g=1.0, f0=1.0, k_d=1.0, tau=0.1)
        analytic = nc.fdpd_dv_dtau(spec, gains)
        fd = central_difference(spec, gains, 0.1, 1e-5 * max(0.1, 1.0))
        assert analytic > 0
        assert analytic == pytest.approx(fd, rel=1e-6)

    def test_no_relative_velocity_coupling_still_positive(self):
        # with g = 0 the per-mode slope collapses to 2*tau/k_d, still >= 0
        spec = nc.spectrum(nc.build_path(5, 1.0))
        gains = nc.FdpdGains(f=1.0, g=0.0, f0=1.0, k_d=2.0, tau=0.3)
        analytic = nc.fdpd_dv_dtau(spec, gains)
        expected = (spec.node_count - 1) / (2.0 * spec.node_count) * 2.0 * 0.3 / 2.0
        assert analytic == pytest.approx(expected, rel=1e-12)
        fd = central_difference(spec, gains, 0.3, 1e-5)
        assert analytic == pytest.approx(fd, rel=1e-6)
        assert analytic >= 0.0

    def test_matches_finite_differences_on_random_draws(self):
        rng = np.random.default_rng(67)
        for _ in range(30):
            graph = nc.build_ring(int(rng.integers(3, 15)), float(rng.uniform(0.5, 2.0)))
            spec = nc.spectrum(graph)
            tau = float(rng.uniform(0.05, 2.0))
            gains = nc.FdpdGains(
                f=float(rng.uniform(0.1, 3.0)),
                g=float(rng.uniform(0.0, 2.0)),
                f0=float(rng.uniform(0.1, 3.0)),
                k_d=float(rng.uniform(0.1, 3.0)),
                tau=tau,
            )
            fd = central_difference(spec, gains, tau, 1e-5 * max(tau, 1.0))
            assert nc.fdpd_dv_dtau(spec, gains) == pytest.approx(fd, rel=1e-6)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_term_names_its_mode(self):
        gains = nc.FdpdGains(f=1.0, g=1.0, f0=1.0, k_d=1.0, tau=1e300)
        with pytest.raises(NumericalError, match="^mode 2 has a non-finite term nan$"):
            nc.fdpd_dv_dtau(nc.ring_spectrum(8, 1.0), gains)

    def test_variance_nondecreasing_in_tau(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            spec = nc.spectrum(nc.build_path(int(rng.integers(3, 12)), 1.0))
            base = nc.FdpdGains(
                f=float(rng.uniform(0.1, 2.0)),
                g=float(rng.uniform(0.0, 2.0)),
                f0=float(rng.uniform(0.1, 2.0)),
                k_d=float(rng.uniform(0.1, 2.0)),
                tau=0.0,
            )
            values = [
                nc.fdpd_variance(spec, replace(base, tau=float(t))).v_n
                for t in np.linspace(0.0, 2.0, 32)
            ]
            assert all(b >= a - 1e-13 for a, b in zip(values, values[1:]))

import io
import math

import numpy as np
import pytest

import netcoh as nc
from netcoh import scaling
from netcoh.errors import FitError, InvalidParameterError, InvalidSizeError
from netcoh.graphs import FAMILIES, build_family, family_spectrum
from netcoh.scaling import write_scaling_csv

# one size per family (the lattice side for a torus)
DENSE_CHECK_SIZES = {"path": 200, "ring": 256, "complete": 64, "torus1": 50, "torus2": 7, "torus3": 5}


class TestFitExponent:
    def test_exact_linear_law(self):
        points = tuple((n, 2.0 * n) for n in (8, 16, 32, 64, 128))
        assert nc.fit_exponent(points, (8, 128)) == pytest.approx(1.0, abs=1e-12)

    def test_exact_cubic_law(self):
        points = tuple((n, n**3 / 7.0) for n in (8, 16, 32, 64))
        assert nc.fit_exponent(points, (8, 64)) == pytest.approx(3.0, abs=1e-12)

    def test_constant_points(self):
        points = tuple((n, 0.4) for n in (8, 16, 32, 64))
        assert nc.fit_exponent(points, (8, 64)) == pytest.approx(0.0, abs=1e-12)

    def test_too_few_points(self):
        points = ((8, 1.0), (16, 2.0), (32, None), (64, 4.0))
        with pytest.raises(FitError):
            nc.fit_exponent(points, (8, 64))
        with pytest.raises(FitError):
            nc.fit_exponent(points[:3], (8, 32))


    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_points_are_skipped(self, value):
        points = ((1, 1.0), (2, 2.0), (3, 3.0), (4, value))
        with pytest.raises(FitError, match="got 3$"):
            nc.fit_exponent(points, (1, 4))
        assert nc.fit_exponent(points + ((5, 5.0),), (1, 5)) == pytest.approx(1.0, abs=1e-12)


class TestFamilySpectrum:
    def test_unknown_family(self):
        with pytest.raises(InvalidParameterError):
            family_spectrum("star", 8, 1.0)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_against_dense_eigensolver(self, family):
        size = DENSE_CHECK_SIZES[family]
        analytic = family_spectrum(family, size, 1.0)
        numeric = nc.spectrum(build_family(family, size, 1.0))
        assert np.allclose(analytic.eigenvalues, numeric.eigenvalues, atol=1e-8)


class TestRunScaling:
    def test_ring_p_linear_growth(self):
        gains = nc.PGains(f=1.0, g=1.0, f0=1.0, g0=0.0)
        result = nc.run_scaling("ring", "p", gains, [64, 128, 256, 512, 1024])
        assert result.fitted_exponent == pytest.approx(1.0, abs=0.15)
        assert all(v is not None for _, v in result.points)

    def test_ring_p_cubic_growth(self):
        gains = nc.PGains(f=1.0, g=1.0, f0=0.0, g0=0.0)
        result = nc.run_scaling("ring", "p", gains, [64, 128, 256, 512, 1024])
        assert result.fitted_exponent == pytest.approx(3.0, abs=0.3)

    def test_unbounded_markers(self):
        gains = nc.PGains(f=0.0, g=1.0, f0=0.0, g0=1.0)
        result = nc.run_scaling("ring", "p", gains, [8, 16, 32, 64])
        assert all(v is None for _, v in result.points)
        assert result.fitted_exponent is None

    def test_torus_reports_node_counts(self):
        gains = nc.DapiGains(f=1.0, g=0.0, g0=1.0, k_i=1.0, c=0.1)
        result = nc.run_scaling("torus2", "dapi", gains, [4, 6, 8, 10, 12])
        assert [n for n, _ in result.points] == [16, 36, 64, 100, 144]

    def test_default_window_holds_at_least_four_points(self):
        gains = nc.DapiGains(f=1.0, g=0.0, g0=1.0, k_i=1.0, c=0.1)
        result = nc.run_scaling("ring", "dapi", gains, [64, 128, 256, 512, 1024])
        lo, hi = result.fit_window
        in_window = [n for n, v in result.points if lo <= n <= hi and v is not None]
        assert len(in_window) >= 4
        assert hi == 1024

    def test_explicit_window(self):
        gains = nc.PGains(f=1.0, g=1.0, f0=1.0, g0=0.0)
        result = nc.run_scaling(
            "ring", "p", gains, [64, 128, 256, 512], window=(64, 512)
        )
        assert result.fit_window == (64, 512)

    def test_sizes_must_ascend(self):
        gains = nc.PGains(f=1.0, g=1.0, f0=1.0, g0=0.0)
        with pytest.raises(InvalidParameterError):
            nc.run_scaling("ring", "p", gains, [64, 32])

    def test_empty_sizes_are_refused(self):
        gains = nc.PGains(f=1.0, g=1.0, f0=1.0, g0=0.0)
        with pytest.raises(InvalidParameterError, match="sizes must not be empty"):
            nc.run_scaling("ring", "p", gains, [])

    @pytest.mark.parametrize("sizes, bad", [
        ([8.7, 16.2, 32, 64, 128], "8.7"), (["8", "16"], "'8'"), ([8, math.nan], "nan"), ([8, math.inf], "inf"),
        ([8, 16.0], "16.0"),
    ], ids=["fractional", "strings", "nan", "inf", "integral_float"])
    def test_sizes_that_are_not_integers_are_refused_before_any_evaluation(self, monkeypatch, sizes, bad):
        # [8.7, 16.2, ...] reported N = 8 and 16, ["8", "16"] was accepted, and nan and inf
        # raised a bare ValueError and OverflowError after the sizes before them were evaluated
        monkeypatch.setattr(scaling, "variance_by_kind", lambda *args: pytest.fail("a size was evaluated"))
        gains = nc.PGains(f=1.0, g=1.0, f0=1.0, g0=0.0)
        with pytest.raises(InvalidSizeError, match=f"ring size must be an integer, got {bad}$"):
            nc.run_scaling("ring", "p", gains, sizes)

    def test_numpy_integer_sizes_are_accepted(self):
        gains = nc.PGains(f=1.0, g=1.0, f0=1.0, g0=0.0)
        sizes = np.array([8, 16, 32, 64])
        assert nc.run_scaling("ring", "p", gains, sizes) == nc.run_scaling("ring", "p", gains, sizes.tolist())


class TestBoundedFamilies:
    # sizes chosen so every family reaches N in [256, 4096] with >= 4 points
    FAMILY_SIZES = {
        "ring": [256, 512, 1024, 2048, 4096],
        "path": [256, 512, 1024, 2048, 4096],
        "torus1": [256, 512, 1024, 2048, 4096],
        "torus2": [16, 23, 32, 45, 64],
        "torus3": [7, 8, 10, 13, 16],
    }

    @pytest.mark.parametrize("family", sorted(FAMILY_SIZES))
    def test_dapi_bounded_and_flat(self, family):
        gains = nc.DapiGains(f=1.0, g=0.0, g0=1.0, k_i=1.0, c=0.1)
        result = nc.run_scaling(
            family, "dapi", gains, self.FAMILY_SIZES[family], window=(256, 4096)
        )
        bound = nc.dapi_bound(gains)
        assert all(v is not None and v < bound for _, v in result.points)
        assert -0.2 <= result.fitted_exponent <= 0.1

    @pytest.mark.parametrize("family", sorted(FAMILY_SIZES))
    def test_fdpd_bounded_and_flat(self, family):
        gains = nc.FdpdGains(f=1.0, g=1.0, f0=1.0, k_d=1.0, tau=0.1)
        result = nc.run_scaling(
            family, "fdpd", gains, self.FAMILY_SIZES[family], window=(256, 4096)
        )
        bound = nc.fdpd_bound(gains)
        assert all(v is not None and v < bound for _, v in result.points)
        assert -0.2 <= result.fitted_exponent <= 0.1

    def test_complete_graph_p_variance_decays(self):
        gains = nc.PGains(f=1.0, g=1.0, f0=0.0, g0=0.0)
        result = nc.run_scaling("complete", "p", gains, [2, 4, 8, 16, 32, 64, 128])
        values = [v for _, v in result.points]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-3


class TestCsvOutput:
    def test_columns_and_markers(self):
        gains = nc.PGains(f=0.0, g=1.0, f0=0.0, g0=1.0)
        result = nc.run_scaling("ring", "p", gains, [8, 16, 32, 64])
        stream = io.StringIO()
        write_scaling_csv(result, stream)
        lines = stream.getvalue().strip().splitlines()
        assert lines[0] == "N,V_N,bounded,exponent_window_flag"
        assert lines[1] == "8,,false,false"

    def test_window_flags_and_exponent_row(self):
        gains = nc.PGains(f=1.0, g=1.0, f0=1.0, g0=0.0)
        result = nc.run_scaling("ring", "p", gains, [64, 128, 256, 512, 1024])
        stream = io.StringIO()
        write_scaling_csv(result, stream)
        lines = stream.getvalue().strip().splitlines()
        flags = [line.split(",")[3] for line in lines[1:6]]
        assert flags.count("true") >= 4
        assert lines[-1].startswith("exponent,")

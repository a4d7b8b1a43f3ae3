"""Acceptance gate: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
The twenty-seed ring ensemble is session-shared with the simulator tests.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

import netcoh as nc
from netcoh.scaling import run_scaling
from netcoh.simulate import scenario_config
from netcoh.tuning import VERDICT_POSITIVE, VERDICT_ZERO, default_bracket_hi

from conftest import RING20_GAINS, random_connected_graph, random_gains

SIZES = [256, 512, 1024, 2048, 4096]


def test_criterion_1_oracle_equivalence():
    """Closed forms vs per-mode Lyapunov vs full deflated oracle, 1e-8."""
    rng = np.random.default_rng(101)
    checked = 0
    trial = 0
    while checked < 200:
        kind = ("p", "dapi", "fdpd")[trial % 3]
        trial += 1
        graph = random_connected_graph(rng, max_nodes=20)
        gains = random_gains(rng, kind)
        spec = nc.spectrum(graph)
        try:
            closed = nc.variance_by_kind(spec, kind, gains).v_n
        except nc.UnboundedVarianceError:
            continue
        modal = nc.modal_variance(spec, kind, gains).v_n
        full = nc.full_variance(nc.assemble(graph, kind, gains)).v_n
        assert abs(modal - closed) <= 1e-8 * closed, (kind, gains)
        assert abs(full - closed) <= 1e-8 * closed, (kind, gains)
        checked += 1
    print(f"PASS criterion 1: oracle equivalence on {checked} random configurations")


def test_criterion_2_ring_scaling_exponents():
    """Ring under P control: linear growth with one absolute gain, cubic with none."""
    linear = run_scaling(
        "ring", "p", nc.PGains(f=1.0, g=1.0, f0=1.0, g0=0.0), SIZES,
        window=(SIZES[0], SIZES[-1]),
    )
    assert 0.85 <= linear.fitted_exponent <= 1.15, linear.fitted_exponent
    cubic = run_scaling(
        "ring", "p", nc.PGains(f=1.0, g=1.0, f0=0.0, g0=0.0), SIZES,
        window=(SIZES[0], SIZES[-1]),
    )
    assert 2.7 <= cubic.fitted_exponent <= 3.3, cubic.fitted_exponent
    print(
        "PASS criterion 2: ring exponents "
        f"{linear.fitted_exponent:.3f} (linear), {cubic.fitted_exponent:.3f} (cubic)"
    )


def test_criterion_3_uniform_boundedness():
    """DAPI and F-DPD variances stay below their bounds and flatten out."""
    sizes = [64, 128, 256, 512, 1024, 2048, 4096]
    dapi = nc.DapiGains(f=1.0, g=0.0, g0=1.0, k_i=1.0, c=0.1)
    values = {
        n: nc.dapi_variance(nc.ring_spectrum(n, 1.0), dapi).v_n for n in sizes
    }
    assert all(v < 0.55 for v in values.values()), values
    assert abs(values[4096] - values[2048]) < 0.01 * values[2048]

    fdpd = nc.FdpdGains(f=1.0, g=1.0, f0=1.0, k_d=1.0, tau=0.1)
    fvalues = {
        n: nc.fdpd_variance(nc.ring_spectrum(n, 1.0), fdpd).v_n for n in sizes
    }
    assert all(v < 0.505 for v in fvalues.values()), fvalues
    assert abs(fvalues[4096] - fvalues[2048]) < 0.01 * fvalues[2048]
    print(
        "PASS criterion 3: boundedness "
        f"(DAPI max {max(values.values()):.4f} < 0.55, "
        f"F-DPD max {max(fvalues.values()):.4f} < 0.505, both flat at N=4096)"
    )


def test_criterion_4_limit_equivalences():
    """Vanishing averaging gain and filter constant recover P control."""
    rng = np.random.default_rng(104)
    for _ in range(50):
        spec = nc.spectrum(random_connected_graph(rng, max_nodes=20))
        dapi = random_gains(rng, "dapi")
        p_ref = nc.p_variance(spec, nc.zero_averaging_equivalent(dapi)).v_n
        got = nc.dapi_variance(spec, replace(dapi, c=1e-6)).v_n
        assert abs(got - p_ref) <= 1e-4 * p_ref

        fdpd = random_gains(rng, "fdpd")
        p_ref = nc.p_variance(spec, nc.ideal_pd_equivalent(fdpd)).v_n
        got = nc.fdpd_variance(spec, replace(fdpd, tau=1e-6)).v_n
        assert abs(got - p_ref) <= 1e-4 * p_ref
    print("PASS criterion 4: limit equivalences on 50 random systems")


def test_criterion_5_averaging_gain_tuning():
    """Numeric optimum matches the complete-graph closed form; monotone cases."""
    rng = np.random.default_rng(105)
    interior = 0
    while interior < 100:
        n = int(rng.integers(2, 13))
        l = float(rng.uniform(0.5, 2.0))
        g = float(rng.uniform(0.0, 0.3))
        g0 = float(rng.uniform(0.05, 0.8))
        lam = n * l
        target = float(rng.uniform(0.05, 1.5))
        f = lam * (target + g + g0 / lam) ** 2
        gains = nc.DapiGains(f=f, g=g, g0=g0, k_i=float(rng.uniform(0.2, 3.0)), c=0.0)
        spec = nc.complete_spectrum(n, l)
        if nc.classify_c_star(spec, gains).verdict != VERDICT_POSITIVE:
            continue
        closed = nc.c_star_complete(n, l, f, g, g0)
        numeric, _ = nc.c_star_numeric(spec, gains)
        assert abs(numeric - closed) <= 1e-3, (n, l, gains)
        interior += 1

    monotone = 0
    while monotone < 30:
        spec = nc.spectrum(nc.build_ring(int(rng.integers(4, 12)), 1.0))
        gains = nc.DapiGains(
            f=float(rng.uniform(0.01, 0.08)),
            g=float(rng.uniform(0.7, 2.0)),
            g0=float(rng.uniform(0.7, 2.0)),
            k_i=float(rng.uniform(0.2, 2.0)),
            c=0.0,
        )
        if nc.classify_c_star(spec, gains).verdict != VERDICT_ZERO:
            continue
        grid = np.linspace(0.0, default_bracket_hi(spec, gains), 64)
        values = [nc.dapi_variance(spec, replace(gains, c=float(c))).v_n for c in grid]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        monotone += 1
    print(
        f"PASS criterion 5: tuning ({interior} interior optima within 1e-3, "
        f"{monotone} monotone cases non-decreasing)"
    )


def test_criterion_6_filter_constant_monotonicity():
    """Variance grows with the filter constant; derivative matches differences."""
    rng = np.random.default_rng(106)
    tau_grid = np.linspace(0.0, 2.0, 32)
    for _ in range(100):
        spec = nc.spectrum(random_connected_graph(rng, max_nodes=20))
        gains = nc.FdpdGains(
            f=float(rng.uniform(0.1, 3.0)),
            g=0.0 if rng.random() < 0.3 else float(rng.uniform(0.0, 2.0)),
            f0=float(rng.uniform(0.1, 3.0)),
            k_d=float(rng.uniform(0.1, 3.0)),
            tau=0.0,
        )
        values = [
            nc.fdpd_variance(spec, replace(gains, tau=float(t))).v_n for t in tau_grid
        ]
        assert all(b >= a - 1e-13 for a, b in zip(values, values[1:]))

        tau = float(rng.uniform(0.05, 2.0))
        h = 1e-5 * max(tau, 1.0)
        fd = (
            nc.fdpd_variance(spec, replace(gains, tau=tau + h)).v_n
            - nc.fdpd_variance(spec, replace(gains, tau=tau - h)).v_n
        ) / (2.0 * h)
        analytic = nc.fdpd_dv_dtau(spec, replace(gains, tau=tau))
        assert abs(analytic - fd) <= 1e-6 * max(abs(analytic), abs(fd))
    print("PASS criterion 6: tau-monotonicity and derivative check on 100 systems")


@pytest.mark.slow
def test_criterion_7_simulation_consistency(ring20_p_ensemble):
    """Twenty-seed empirical averages match the closed forms within 10%."""
    graph = nc.build_ring(20, 1.0)
    spec = nc.spectrum(graph)
    seeds = range(20)

    values, closed_p = ring20_p_ensemble
    err_p = abs(values.mean() - closed_p) / closed_p
    assert err_p <= 0.10

    # one DAPI configuration (averaging gain large enough that the slow
    # integral-alignment mode keeps the 500-time-constant horizon tractable)
    dapi = nc.DapiGains(f=1.0, g=0.0, g0=1.0, k_i=1.0, c=2.0)
    system = nc.assemble_dapi(graph, dapi)
    cfg = nc.SimConfig(
        dt=nc.recommended_step(system, bias_budget=0.05),
        horizon=500.0 * nc.slowest_time_constant(system),
        seed=0,
    )
    dapi_mean = nc.ensemble_variance(system, cfg, seeds).mean()
    closed_dapi = nc.dapi_variance(spec, dapi).v_n
    err_dapi = abs(dapi_mean - closed_dapi) / closed_dapi
    assert err_dapi <= 0.10

    # one F-DPD configuration
    fdpd = nc.FdpdGains(f=1.0, g=1.0, f0=1.0, k_d=1.0, tau=0.1)
    system = nc.assemble_fdpd(graph, fdpd)
    cfg = nc.SimConfig(
        dt=nc.recommended_step(system, bias_budget=0.02),
        horizon=500.0 * nc.slowest_time_constant(system),
        seed=0,
    )
    fdpd_mean = nc.ensemble_variance(system, cfg, seeds).mean()
    closed_fdpd = nc.fdpd_variance(spec, fdpd).v_n
    err_fdpd = abs(fdpd_mean - closed_fdpd) / closed_fdpd
    assert err_fdpd <= 0.10
    print(
        "PASS criterion 7: simulation consistency "
        f"(P {100*err_p:.1f}%, DAPI {100*err_dapi:.1f}%, F-DPD {100*err_fdpd:.1f}%; "
        "all within 10%)"
    )


@pytest.mark.slow
def test_criterion_8_large_network_comparison():
    """Averaging PI control keeps the 100-node path far more coherent than P."""
    seeds = [0, 1, 2]
    means = {}
    for name in ("dapi_path_100", "p_path_100"):
        system, cfg = scenario_config(name, seed=0)
        means[name] = nc.ensemble_variance(system, cfg, seeds).mean()
    ratio = means["p_path_100"] / means["dapi_path_100"]
    assert ratio >= 5.0, means
    print(
        "PASS criterion 8: identical-seed 100-node path comparison, "
        f"P/DAPI variance ratio {ratio:.1f} >= 5"
    )


def test_ring20_reference_gains_unchanged():
    # guard: the shared ensemble fixture runs the criterion-7 P configuration
    assert RING20_GAINS == nc.PGains(f=1.0, g=1.0, f0=1.0, g0=0.0)
    assert math.isclose(
        nc.p_variance(nc.spectrum(nc.build_ring(20, 1.0)), RING20_GAINS).v_n,
        0.6326432002956376,
        rel_tol=1e-12,
    )

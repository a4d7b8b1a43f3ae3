import dataclasses
import io
import math
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import netcoh as nc
from netcoh import csvrows, simulate
from netcoh.closed_loop import modal_matrices
from netcoh.errors import (
    InstabilityError,
    InvalidParameterError,
    NumericalError,
    StepSizeError,
    WindowError,
)
from netcoh.simulate import BLOCK, SCENARIOS, scenario_system, write_trajectory_csv

from conftest import random_connected_graph, random_gains


def small_system():
    return nc.assemble_p(nc.build_ring(4, 1.0), nc.PGains(1.0, 1.0, 1.0, 1.0))


class TestSimulateEm:
    def test_no_noise_zero_state_stays_zero(self):
        traj = nc.simulate_em(
            small_system(),
            nc.SimConfig(dt=0.01, horizon=2.0, seed=0, noise_intensity=0.0),
        )
        assert np.abs(traj.states).max() == 0.0
        assert np.abs(traj.output_y).max() == 0.0

    def test_no_noise_perturbation_decays(self):
        cfg = nc.SimConfig(
            dt=0.01,
            horizon=60.0,
            seed=3,
            noise_intensity=0.0,
            initial_state="random_frequency_perturbation",
            perturbation_scale=1.0,
        )
        traj = nc.simulate_em(small_system(), cfg)
        early = np.linalg.norm(traj.output_y[1])
        late = np.linalg.norm(traj.output_y[-1])
        assert late < 1e-8 * max(early, 1.0)

    def test_seed_determinism(self):
        cfg = nc.SimConfig(dt=0.01, horizon=5.0, seed=42)
        a = nc.simulate_em(small_system(), cfg)
        b = nc.simulate_em(small_system(), cfg)
        assert a.states.tobytes() == b.states.tobytes()
        assert a.output_y.tobytes() == b.output_y.tobytes()
        c = nc.simulate_em(small_system(), nc.SimConfig(dt=0.01, horizon=5.0, seed=43))
        assert a.states.tobytes() != c.states.tobytes()

    def test_decimation_records_same_states(self):
        dense_cfg = nc.SimConfig(dt=0.01, horizon=3.0, seed=5, record_every=1)
        sparse_cfg = nc.SimConfig(dt=0.01, horizon=3.0, seed=5, record_every=5)
        dense = nc.simulate_em(small_system(), dense_cfg)
        sparse = nc.simulate_em(small_system(), sparse_cfg)
        assert np.array_equal(sparse.states, dense.states[::5])
        assert np.array_equal(sparse.times, dense.times[::5])

    def test_output_rows_are_centered(self):
        traj = nc.simulate_em(small_system(), nc.SimConfig(dt=0.01, horizon=10.0, seed=1))
        assert np.abs(traj.output_y.sum(axis=1)).max() <= 1e-10

    def test_unstable_system_rejected(self):
        base = small_system()
        unstable = nc.ClosedLoopSystem(
            base.a + 2.0 * np.eye(8), base.b, base.c, base.kind, base.n
        )
        with pytest.raises(InstabilityError):
            nc.simulate_em(unstable, nc.SimConfig(dt=0.01, horizon=1.0, seed=0))

    def test_step_size_error_and_warning(self):
        with pytest.raises(StepSizeError):
            nc.simulate_em(small_system(), nc.SimConfig(dt=1.0, horizon=10.0, seed=0))
        with pytest.warns(UserWarning, match="discretization bias"):
            nc.simulate_em(small_system(), nc.SimConfig(dt=0.06, horizon=1.0, seed=0))

    def test_explicit_initial_state_vector(self):
        init = np.arange(8, dtype=float)
        cfg = nc.SimConfig(dt=0.01, horizon=0.1, seed=0, noise_intensity=0.0, initial_state=init)
        traj = nc.simulate_em(small_system(), cfg)
        assert np.array_equal(traj.states[0], init)
        with pytest.raises(InvalidParameterError):
            nc.simulate_em(
                small_system(),
                nc.SimConfig(dt=0.01, horizon=0.1, seed=0, initial_state=np.zeros(3)),
            )

    def test_unknown_initial_state_preset_rejected(self):
        cfg = nc.SimConfig(dt=0.01, horizon=0.1, seed=0, initial_state="bogus")
        with pytest.raises(InvalidParameterError, match="unknown initial-state preset 'bogus'"):
            nc.simulate_em(small_system(), cfg)

    def test_config_validation(self):
        with pytest.raises(InvalidParameterError):
            nc.SimConfig(dt=0.0, horizon=1.0, seed=0)
        with pytest.raises(InvalidParameterError):
            nc.SimConfig(dt=0.1, horizon=0.05, seed=0)
        with pytest.raises(InvalidParameterError):
            nc.SimConfig(dt=0.1, horizon=1.0, seed=0, burn_in=2.0)
        with pytest.raises(InvalidParameterError):
            nc.SimConfig(dt=0.1, horizon=1.0, seed=0, record_every=0)

    @pytest.mark.parametrize("field, value", [
        ("dt", math.nan), ("dt", math.inf), ("horizon", math.nan), ("horizon", math.inf),
        ("noise_intensity", math.nan), ("noise_intensity", math.inf), ("perturbation_scale", math.nan),
    ])
    def test_non_finite_config_rejected(self, field, value):
        # nan slipped past every comparison (a bare ValueError later, or a nan
        # variance) and an infinite horizon overflowed the step count
        with pytest.raises(InvalidParameterError, match=f"{field} must be finite"):
            nc.SimConfig(**{"dt": 0.01, "horizon": 1.0, "seed": 0, field: value})

    @pytest.mark.parametrize("field, value", [
        ("record_every", 2.5), ("record_every", math.nan), ("seed", -1), ("seed", 1.5),
    ])
    def test_non_integer_config_rejected(self, field, value):
        # simulate_em raised a bare TypeError or numpy's ValueError on these
        with pytest.raises(InvalidParameterError, match=f"{field} must be"):
            nc.SimConfig(**{"dt": 0.01, "horizon": 1.0, "seed": 0, field: value})


class TestEmpiricalVariance:
    def test_zero_trajectory(self):
        traj = nc.simulate_em(
            small_system(),
            nc.SimConfig(dt=0.01, horizon=2.0, seed=0, noise_intensity=0.0),
        )
        assert nc.empirical_variance(traj, burn_in=0.0) == 0.0

    def test_output_follows_the_states(self):
        system = nc.assemble_p(nc.build_ring(5, 1.0), nc.PGains(1.0, 1.0, 1.0, 1.0))
        traj = nc.simulate_em(system, nc.SimConfig(dt=0.01, horizon=20.0, seed=1, burn_in=2.0))
        assert nc.empirical_variance(traj) > 0.0
        zeroed = dataclasses.replace(traj, states=np.zeros_like(traj.states))
        assert np.array_equal(zeroed.output_y, np.zeros((len(traj.times), 5)))
        assert nc.empirical_variance(zeroed) == 0.0

    def test_empty_window(self):
        traj = nc.simulate_em(small_system(), nc.SimConfig(dt=0.01, horizon=2.0, seed=0))
        with pytest.raises(WindowError):
            nc.empirical_variance(traj, burn_in=5.0)

    def test_ensemble_matches_single_runs(self):
        system = small_system()
        cfg = nc.SimConfig(dt=0.01, horizon=50.0, seed=0, burn_in=5.0, record_every=1)
        batch = nc.ensemble_variance(system, cfg, seeds=[3, 4], accumulate_every=1)
        for seed, expected in zip([3, 4], batch):
            cfg_single = nc.SimConfig(dt=0.01, horizon=50.0, seed=seed, burn_in=5.0, record_every=1)
            single = nc.empirical_variance(nc.simulate_em(system, cfg_single))
            assert single == pytest.approx(expected, rel=1e-10)

    def test_fdpd_zero_tau_runs_as_its_ideal_pd_twin(self):
        graph = nc.build_ring(6, 1.0)
        gains = nc.FdpdGains(f=1.0, g=0.5, f0=0.3, k_d=1.2, tau=0.0)
        system, twin = nc.assemble(graph, "fdpd", gains), nc.assemble(graph, "p", nc.ideal_pd_equivalent(gains))
        cfg = nc.SimConfig(dt=0.01, horizon=20.0, seed=5, burn_in=2.0, initial_state="random_frequency_perturbation")
        assert np.array_equal(nc.ensemble_variance(system, cfg, [5, 6]), nc.ensemble_variance(twin, cfg, [5, 6]))
        traj, twin_traj = nc.simulate_em(system, cfg), nc.simulate_em(twin, cfg)
        assert np.array_equal(traj.states, twin_traj.states) and np.array_equal(traj.times, twin_traj.times)
        assert nc.slowest_time_constant(system) == nc.slowest_time_constant(twin)

    @pytest.mark.parametrize("options, message", [
        ({"seeds": [-1]}, "seed must be >= 0"), ({"seeds": [1.5]}, "seed must be >= 0"),
        ({"seeds": [0, np.int64(-2)]}, "seed must be >= 0"),
        ({"accumulate_every": 0}, "accumulate_every must be >= 1"),
        ({"accumulate_every": -1}, "accumulate_every must be >= 1"),
        ({"accumulate_every": 2.5}, "accumulate_every must be >= 1"),
        ({"seeds": []}, "need at least one seed"),
    ], ids=["seed-1", "seed1.5", "numpy_seed-2", "every0", "every-1", "every2.5", "no-seeds"])
    def test_bad_ensemble_arguments_rejected(self, options, message):
        # numpy's bare ValueError or TypeError for these seeds; a stride below 1
        # returned a variance (dividing by zero at 0), and 2.5 was a float modulus
        cfg = nc.SimConfig(dt=0.01, horizon=5.0, seed=0)
        with pytest.raises(InvalidParameterError, match=message):
            nc.ensemble_variance(small_system(), cfg, **{"seeds": [0], **options})


def batch_means_std_error(values, batches=16):
    usable = len(values) - len(values) % batches
    means = np.asarray(values[:usable]).reshape(batches, -1).mean(axis=1)
    return float(means.std(ddof=1) / math.sqrt(batches))


class TestStatisticalProperties:
    def test_halving_dt_changes_less_than_monte_carlo_error(self):
        graph = nc.build_ring(5, 1.0)
        gains = nc.PGains(1.0, 1.0, 1.0, 1.0)
        system = nc.assemble_p(graph, gains)
        estimates, errors = [], []
        for dt in (0.01, 0.005):
            cfg = nc.SimConfig(dt=dt, horizon=2000.0, seed=9, burn_in=20.0, record_every=1)
            traj = nc.simulate_em(system, cfg)
            mask = traj.times > cfg.burn_in
            samples = np.sum(traj.output_y[mask] ** 2, axis=1) / traj.n
            estimates.append(float(samples.mean()))
            errors.append(batch_means_std_error(samples))
        assert abs(estimates[0] - estimates[1]) < errors[0] + errors[1]

    @pytest.mark.slow
    def test_twenty_seed_ensemble_within_five_percent(self, ring20_p_ensemble):
        values, closed = ring20_p_ensemble
        assert values.shape == (20,)
        assert abs(values.mean() - closed) <= 0.05 * closed

    def test_recommended_step_respects_warning_threshold(self):
        system = small_system()
        dt = nc.recommended_step(system)
        eigs = np.linalg.eigvals(system.a)
        assert dt * np.abs(eigs.real).max() <= 0.1

    @pytest.mark.parametrize("budget", [-1.0, 0.0, math.nan, math.inf])
    def test_recommended_step_rejects_a_bad_bias_budget(self, budget):
        # -1, 0 and nan gave a step of -0.55, 0.0 and nan
        with pytest.raises(InvalidParameterError, match="bias_budget must be finite and > 0"):
            nc.recommended_step(small_system(), bias_budget=budget)

    @pytest.mark.slow
    def test_power_network_scenario_matches_closed_form(self):
        system, kind, gains = scenario_system("dapi_path_10")
        closed = nc.dapi_variance(nc.spectrum(nc.build_path(10, 1.0)), gains).v_n
        cfg = nc.SimConfig(
            dt=nc.recommended_step(system), horizon=3000.0, seed=12, burn_in=600.0
        )
        mean = nc.ensemble_variance(system, cfg, seeds=range(4)).mean()
        assert kind == "dapi"
        assert abs(mean - closed) <= 0.10 * closed


class TestScenarios:
    def test_registry_contents(self):
        assert set(SCENARIOS) == {
            "dapi_path_10",
            "dapi_path_100",
            "p_path_10",
            "p_path_100",
            "fdpd_platoon_100",
            "p_platoon_100",
        }

    def test_power_scenario_gains(self):
        _, kind, gains = scenario_system("dapi_path_10")
        assert kind == "dapi"
        assert gains.g0 == pytest.approx(0.5)
        assert gains.f == pytest.approx(5.6549, abs=1e-4)
        assert gains.k_i == 1.0 and gains.c == 0.1

    def test_droop_scenario_gains(self):
        _, kind, gains = scenario_system("p_path_100")
        assert kind == "p"
        assert gains.f0 == 0.0 and gains.g == 0.0
        assert gains.g0 == pytest.approx(0.5)

    def test_platoon_scenario_gains(self):
        system, kind, gains = scenario_system("fdpd_platoon_100")
        assert kind == "fdpd"
        assert (gains.f, gains.g, gains.f0, gains.k_d, gains.tau) == (1.0, 1.0, 1.0, 1.0, 0.1)
        assert system.state_dim == 300

    def test_run_scenario_deterministic(self):
        a = nc.run_scenario("dapi_path_10", seed=2, horizon=5.0, dt=0.01)
        b = nc.run_scenario("dapi_path_10", seed=2, horizon=5.0, dt=0.01)
        assert a.states.tobytes() == b.states.tobytes()

    def test_every_scenario_runs_briefly(self):
        for name in SCENARIOS:
            traj = nc.run_scenario(name, seed=0, horizon=1.0, burn_in=0.0)
            assert traj.times[-1] == pytest.approx(1.0, rel=0.02)
            assert np.isfinite(traj.states).all()

    def test_unknown_scenario(self):
        with pytest.raises(InvalidParameterError):
            nc.run_scenario("nope", seed=0)


class TestTrajectoryCsv:
    def test_header_and_rows(self, tmp_path):
        traj = nc.run_scenario("dapi_path_10", seed=0, horizon=1.0, dt=0.01, record_every=1)
        out = tmp_path / "traj.csv"
        with out.open("w") as stream:
            write_trajectory_csv(traj, stream)
        lines = out.read_text().strip().splitlines()
        assert lines[0].split(",") == ["t"] + [f"x_{i}" for i in range(1, 11)]
        assert len(lines) == 1 + traj.times.size

    def test_optional_blocks(self, tmp_path):
        traj = nc.run_scenario("dapi_path_10", seed=0, horizon=1.0, dt=0.01, record_every=1)
        out = tmp_path / "traj.csv"
        with out.open("w") as stream:
            write_trajectory_csv(traj, stream, include_velocity=True, include_aux=True)
        header = out.read_text().splitlines()[0].split(",")
        assert header == (
            ["t"]
            + [f"x_{i}" for i in range(1, 11)]
            + [f"v_{i}" for i in range(1, 11)]
            + [f"z_{i}" for i in range(1, 11)]
        )

    def test_aux_block_missing_under_p_control(self):
        traj = nc.simulate_em(small_system(), nc.SimConfig(dt=0.01, horizon=0.1, seed=0))
        with pytest.raises(InvalidParameterError, match="auxiliary"):
            write_trajectory_csv(traj, io.StringIO(), include_aux=True)


def reference_csv(traj, include_velocity=False, include_aux=False):
    """The per-row ``repr`` writer that the block writer replaced."""
    n = traj.n
    header = ["t"] + [f"x_{i}" for i in range(1, n + 1)]
    blocks = [traj.states[:, :n]]
    if include_velocity:
        header += [f"v_{i}" for i in range(1, n + 1)]
        blocks.append(traj.states[:, n : 2 * n])
    if include_aux:
        header += [f"z_{i}" for i in range(1, n + 1)]
        blocks.append(traj.states[:, 2 * n : 3 * n])
    lines = [",".join(header)]
    for row in np.column_stack([traj.times] + blocks):
        lines.append(",".join(map(repr, row.tolist())))
    return "\n".join(lines) + "\n"


def assert_written_as_reference(traj, **blocks):
    stream = io.StringIO()
    write_trajectory_csv(traj, stream, **blocks)
    text, reference = stream.getvalue(), reference_csv(traj, **blocks)
    if text != reference:
        # name the first differing line rather than diffing megabytes of text
        for number, (line, expected) in enumerate(zip(text.splitlines(), reference.splitlines())):
            assert line == expected, f"line {number}"
        assert len(text) == len(reference)
    return text


@pytest.fixture(scope="module")
def fdpd_ring30():
    system = nc.assemble(nc.build_ring(30, 1.0), "fdpd", nc.FdpdGains(f=1.0, g=1.0, f0=1.0, k_d=1.0, tau=0.1))
    return nc.simulate_em(system, nc.SimConfig(dt=0.005, horizon=12.0, seed=2017, burn_in=1.0))


class TestTrajectoryBytes:
    """The block writer's text equals the per-row ``repr`` writer's, byte for byte."""

    def test_fdpd_ring_with_velocity(self, fdpd_ring30):
        rows = csvrows.BLOCK_CELLS // (1 + 2 * 30)  # rows per block
        assert fdpd_ring30.times.size > 2 * rows
        assert fdpd_ring30.times.size % rows != 0
        assert_written_as_reference(fdpd_ring30, include_velocity=True)

    def test_dapi_with_aux(self):
        traj = nc.run_scenario("dapi_path_10", seed=0, horizon=1.0, dt=0.01, record_every=1)
        assert_written_as_reference(traj, include_velocity=True, include_aux=True)

    @pytest.mark.parametrize("scale", ["band", 1e-9, 1e17])
    def test_scaled_states(self, fdpd_ring30, scale):
        states = fdpd_ring30.states
        if scale == "band":
            # every state cell in [1e-5, 1e-4), where Ryu writes 0.0000ddd and repr d.dde-05
            states = np.copysign(1e-5 + 9e-5 * np.abs(states) / (np.abs(states).max() * 1.0001), states)
        else:
            states = states * scale
        traj = dataclasses.replace(fdpd_ring30, states=states)
        assert_written_as_reference(traj, include_velocity=True)

    @pytest.mark.parametrize(
        "value", [np.inf, -np.inf, np.nan, -0.0, 5e-324, 1e15, 9.999999999999999e-05, 3e-05]
    )
    def test_single_cell(self, fdpd_ring30, value):
        states = fdpd_ring30.states.copy()
        states[1500, 7] = value
        traj = dataclasses.replace(fdpd_ring30, states=states)
        text = assert_written_as_reference(traj, include_velocity=True)
        assert text.splitlines()[1501].split(",")[8] == repr(float(value))

    @pytest.mark.parametrize("edge", [1e-4, 1e16])
    def test_cells_beside_the_ryu_range_edges(self, edge):
        cells = np.array([np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf)])
        data = np.column_stack([cells, -cells])
        text = "".join(csvrows.csv_blocks([data]))
        assert text == "".join(",".join(map(repr, row)) + "\n" for row in data.tolist())

    @settings(max_examples=300, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, max_side=12),
            elements=st.floats(width=64, allow_nan=True, allow_infinity=True),
        ),
        st.integers(1, 40),
    )
    def test_any_float_matrix(self, data, cells):
        with mock.patch.object(csvrows, "BLOCK_CELLS", cells):
            blocks = list(csvrows.csv_blocks([data]))
        lines = [line + "\n" for line in "".join(blocks).split("\n")[:-1]]
        assert lines == [",".join(map(repr, row)) + "\n" for row in data.tolist()]
        rows = max(1, cells // data.shape[1])
        assert all(block.endswith("\n") and block.count("\n") <= rows for block in blocks)


def reference_em(system, cfg, seed, every, burn_in):
    """The dense per-step loop the modal block kernel replaced.

    Steps ``I + A dt`` once per step with one length-N draw per step, records
    every ``every``-th state and averages ``||x - mean(x)||^2 / N`` over those
    past ``burn_in``.
    """
    n, dim = system.n, system.state_dim
    steps = int(round(cfg.horizon / cfg.dt))
    stepper = np.eye(dim) + cfg.dt * system.a
    sigma = cfg.noise_intensity * math.sqrt(cfg.dt)
    rng = np.random.default_rng(seed)
    state = simulate._initial_state(system, cfg, rng)
    noise = rng.standard_normal((steps, n))
    records, acc, count = [state], 0.0, 0
    for k in range(1, steps + 1):
        state = stepper @ state
        if sigma != 0.0:
            state[n : 2 * n] += sigma * noise[k - 1]
        if k % every == 0:
            records.append(state)
            if k * cfg.dt > burn_in:
                y = state[:n] - state[:n].mean()
                acc += y @ y
                count += 1
    return np.array(records), acc / (count * n)


def _kernel_graphs():
    rng = np.random.default_rng(2024)
    return [
        nc.build_ring(7, 1.0),
        nc.build_path(6, 1.3),
        nc.build_complete(5, 0.7),
        nc.build_torus(3, 2, 1.1),
    ] + [random_connected_graph(rng, max_nodes=9) for _ in range(3)]


KERNEL_CASES = [
    (kind, index, start, every)
    for kind in ("p", "dapi", "fdpd")
    for index in range(len(_kernel_graphs()))
    for start, every in (("zero", 1), ("random_frequency_perturbation", 7), ("vector", 10))
]


def _kernel_case(kind, index, start, noise=1.0):
    graph = _kernel_graphs()[index]
    gains = random_gains(np.random.default_rng(index), kind)
    system = nc.assemble(graph, kind, gains)
    dt = nc.recommended_step(system)
    init = start
    if start == "vector":
        init = np.random.default_rng(7).standard_normal(system.state_dim)
    # 5 blocks less 3 steps; the burn-in ends inside the second block
    steps = 5 * BLOCK - 3
    cfg = nc.SimConfig(dt=dt, horizon=steps * dt, seed=0, burn_in=(BLOCK + 9.5) * dt,
                       noise_intensity=noise, initial_state=init, perturbation_scale=1.0)
    return system, cfg


def _close(actual, expected, rtol=1e-9):
    scale = np.abs(expected).max()
    return np.abs(actual - expected).max() <= rtol * scale


class TestModalBlockKernel:
    @pytest.mark.parametrize("kind, index, start, every", KERNEL_CASES)
    def test_matches_dense_reference(self, kind, index, start, every):
        system, cfg = _kernel_case(kind, index, start)
        seeds = [11, 12]
        values = nc.ensemble_variance(system, cfg, seeds, accumulate_every=every)
        expected = [reference_em(system, cfg, seed, every, cfg.burn_in) for seed in seeds]
        for value, (_, ref_value) in zip(values, expected):
            assert value == pytest.approx(ref_value, rel=1e-9)
        traj = nc.simulate_em(system, dataclasses.replace(cfg, seed=seeds[0], record_every=every))
        assert traj.states.shape == expected[0][0].shape
        assert np.array_equal(traj.states[0], expected[0][0][0])
        assert _close(traj.states, expected[0][0])

    @pytest.mark.parametrize("kind", ["p", "dapi", "fdpd"])
    def test_without_noise(self, kind):
        system, cfg = _kernel_case(kind, 0, "zero", noise=0.0)
        assert np.array_equal(nc.ensemble_variance(system, cfg, [1, 2], accumulate_every=7), [0.0, 0.0])
        system, cfg = _kernel_case(kind, 1, "random_frequency_perturbation", noise=0.0)
        states, value = reference_em(system, cfg, 3, 1, cfg.burn_in)
        assert nc.ensemble_variance(system, dataclasses.replace(cfg, seed=3), [3], accumulate_every=1)[0] == (
            pytest.approx(value, rel=1e-9))
        assert _close(nc.simulate_em(system, dataclasses.replace(cfg, seed=3)).states, states)

    def test_hand_built_system_takes_the_same_kernel(self, monkeypatch):
        base = small_system()
        hand = nc.ClosedLoopSystem(base.a, base.b, base.c, base.kind, base.n)
        seen = []
        kernel = simulate._em_blocks
        monkeypatch.setattr(simulate, "_em_blocks", lambda *a, **k: seen.append(kernel(*a, **k)) or seen[-1])
        cfg = nc.SimConfig(dt=0.01, horizon=1.37, seed=4, burn_in=0.205, initial_state="random_frequency_perturbation")
        hand_values = nc.ensemble_variance(hand, cfg, [4, 5], accumulate_every=3)
        modal_values = nc.ensemble_variance(base, cfg, [4, 5], accumulate_every=3)
        traj = nc.simulate_em(hand, cfg)
        assert [run[0].a.shape for run in seen] == [(1, 8, 8), (4, 2, 2), (1, 8, 8)]
        states, _ = reference_em(hand, cfg, 4, 1, cfg.burn_in)
        assert _close(traj.states, states)
        for seed, value, modal in zip([4, 5], hand_values, modal_values):
            _, expected = reference_em(hand, cfg, seed, 3, cfg.burn_in)
            assert value == pytest.approx(expected, rel=1e-9)
            assert modal == pytest.approx(expected, rel=1e-9)

    def test_replaced_noise_input_is_simulated_as_given(self):
        base = small_system()
        silent = dataclasses.replace(base, b=0.0 * base.b)
        assert nc.ensemble_variance(silent, nc.SimConfig(0.01, 5.0, 1), [1]).tolist() == [0.0]

    def test_assembly_solves_the_eigenproblem_once(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(1) or eigh(*a, **k))
        system = nc.assemble(nc.build_ring(6, 1.0), "dapi", random_gains(np.random.default_rng(6), "dapi"))
        dt = nc.recommended_step(system)
        tau = nc.slowest_time_constant(system)
        cfg = nc.SimConfig(dt=dt, horizon=3 * BLOCK * dt, seed=0, burn_in=min(tau, BLOCK * dt))
        nc.ensemble_variance(system, cfg, [0, 1], accumulate_every=1)
        nc.simulate_em(system, cfg)
        assert len(calls) == 1

    def test_replaced_matrix_is_simulated_as_given(self):
        base = small_system()
        changed = dataclasses.replace(base, a=0.5 * base.a)
        cfg = nc.SimConfig(dt=0.01, horizon=0.77, seed=2, initial_state="random_frequency_perturbation")
        states, _ = reference_em(changed, cfg, 2, 1, 0.0)
        assert _close(nc.simulate_em(changed, cfg).states, states)

    def test_large_hand_built_system_steps_one_step_per_block(self, monkeypatch):
        base = nc.assemble(nc.build_path(50, 1.0), "dapi", random_gains(np.random.default_rng(50), "dapi"))
        hand = nc.ClosedLoopSystem(base.a, base.b, base.c, base.kind, base.n)
        maps = []
        build = simulate._block_operator
        monkeypatch.setattr(simulate, "_block_operator", lambda *a: maps.append(build(*a)) or maps[-1])
        dt = nc.recommended_step(hand)
        cfg = nc.SimConfig(dt=dt, horizon=1000 * dt, seed=6, burn_in=500.5 * dt,
                           initial_state="random_frequency_perturbation")
        states, _ = reference_em(hand, cfg, 6, 1, cfg.burn_in)
        assert _close(nc.simulate_em(hand, cfg).states, states)
        values = nc.ensemble_variance(hand, cfg, [6, 7], accumulate_every=3)
        for seed, value in zip([6, 7], values):
            assert value == pytest.approx(reference_em(hand, cfg, seed, 3, cfg.burn_in)[1], rel=1e-9)
        assert [op.shape for op in maps] == [(1, 150 + 50, 150)] * 2

    @pytest.mark.parametrize("every", [1, 3, 10])
    @pytest.mark.parametrize("kind, hand_built", [("p", False), ("dapi", False), ("fdpd", False), ("dapi", True)],
                             ids=["p", "dapi", "fdpd", "hand_built"])
    def test_ensemble_equals_the_recorded_run(self, kind, hand_built, every):
        # ensemble_variance steps each step's outputs and the carried state;
        # simulate_em steps every state: the two must give one variance
        system, cfg = _kernel_case(kind, 4, "random_frequency_perturbation")
        if hand_built:
            system = nc.ClosedLoopSystem(system.a, system.b, system.c, system.kind, system.n)
        steps = int(round(cfg.horizon / cfg.dt))
        assert steps % BLOCK and (cfg.burn_in / cfg.dt) % BLOCK  # a partial last block; burn-in inside a block
        cfg = dataclasses.replace(cfg, seed=21, record_every=every)
        value = nc.ensemble_variance(system, cfg, [21], accumulate_every=every)[0]
        assert value == pytest.approx(nc.empirical_variance(nc.simulate_em(system, cfg)), rel=1e-12, abs=0.0)

    def test_window_inside_the_last_partial_block(self):
        system = small_system()
        steps = 3 * BLOCK + 5
        cfg = nc.SimConfig(dt=0.01, horizon=steps * 0.01, seed=0, burn_in=(steps - 1) * 0.01)
        values = nc.ensemble_variance(system, cfg, [8], accumulate_every=1)
        assert values[0] == pytest.approx(reference_em(system, cfg, 8, 1, cfg.burn_in)[1], rel=1e-9)
        with pytest.raises(WindowError):
            nc.ensemble_variance(system, cfg, [8], accumulate_every=10)


class _FailingGenerator:
    """A generator whose second ``standard_normal`` call raises."""

    def __init__(self, rng, error):
        self._rng, self._error, self._calls = rng, error, 0

    def standard_normal(self, *args, **kwargs):
        self._calls += 1
        if self._calls == 2:
            raise self._error
        return self._rng.standard_normal(*args, **kwargs)


class TestNoiseChunks:
    """The draws of each chunk are made on the calling thread, in seed order, just before it steps."""

    @pytest.mark.parametrize("nodes, hand_built", [(4, False), (4, True), (40, False)],
                             ids=["modal", "hand_built", "ring40"])
    def test_several_chunks_and_a_partial_one(self, nodes, hand_built):
        system = nc.assemble_p(nc.build_ring(nodes, 1.0), nc.PGains(1.0, 1.0, 1.0, 1.0))
        if hand_built:  # its blocks read the draw buffer itself, not the rotated copy
            system = nc.ClosedLoopSystem(system.a, system.b, system.c, system.kind, system.n)
        steps = 3 * simulate._NOISE_CHUNK + BLOCK + 5
        cfg = nc.SimConfig(dt=0.01, horizon=steps * 0.01, seed=5, burn_in=(steps // 2 + 0.5) * 0.01,
                           initial_state="random_frequency_perturbation")
        seeds = [5, 6]
        values = nc.ensemble_variance(system, cfg, seeds, accumulate_every=3)
        assert np.array_equal(values, nc.ensemble_variance(system, cfg, seeds, accumulate_every=3))
        for seed, value in zip(seeds, values):
            assert value == pytest.approx(reference_em(system, cfg, seed, 3, cfg.burn_in)[1], rel=1e-9)
        traj = nc.simulate_em(system, cfg)
        assert np.array_equal(traj.states, nc.simulate_em(system, cfg).states)
        assert _close(traj.states, reference_em(system, cfg, 5, 1, cfg.burn_in)[0])

    @pytest.mark.parametrize("run", [
        lambda system, cfg: nc.ensemble_variance(system, cfg, [0, 1]),
        lambda system, cfg: nc.simulate_em(system, cfg),
    ], ids=["ensemble_variance", "simulate_em"])
    def test_no_thread_starts_and_a_loop_error_reaches_the_caller(self, monkeypatch, run):
        error = KeyboardInterrupt()
        baseline = threading.active_count()
        find = np.flatnonzero
        counts, fail_at = [], None

        def flatnonzero(a):  # call 1 is the stability check, then one call per block of the consuming loop
            counts.append(threading.active_count())
            if len(counts) == fail_at:
                raise error
            return find(a)

        monkeypatch.setattr(np, "flatnonzero", flatnonzero)
        cfg = nc.SimConfig(dt=0.01, horizon=(3 * simulate._NOISE_CHUNK + 7) * 0.01, seed=0)
        run(small_system(), cfg)
        assert len(counts) > 3 * simulate._NOISE_CHUNK // BLOCK and max(counts) == baseline
        counts.clear()
        fail_at = 2 + simulate._NOISE_CHUNK // BLOCK  # the first block of the second chunk
        with pytest.raises(KeyboardInterrupt) as err:
            run(small_system(), cfg)
        assert err.value is error
        assert len(counts) == fail_at and max(counts) == baseline

    def test_a_draw_error_reaches_the_caller_as_raised(self, monkeypatch):
        error = RuntimeError("draw failed")
        make = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda seed: _FailingGenerator(make(seed), error))
        baseline = threading.active_count()
        # a zero start draws nothing up front: call 2 fills chunk 1, on the producer thread
        cfg = nc.SimConfig(dt=0.01, horizon=3 * simulate._NOISE_CHUNK * 0.01, seed=0)
        with pytest.raises(RuntimeError) as err:
            nc.ensemble_variance(small_system(), cfg, [0])
        assert err.value is error
        assert threading.active_count() == baseline

    def test_concurrent_calls_match_sequential_ones(self):
        system = small_system()
        cfg = nc.SimConfig(dt=0.01, horizon=(2 * simulate._NOISE_CHUNK + 7) * 0.01, seed=0)
        seeds = [[k, k + 1] for k in range(6)]
        expected = [nc.ensemble_variance(system, cfg, pair) for pair in seeds]
        results = [None] * len(seeds)

        def run(index):
            results[index] = nc.ensemble_variance(system, cfg, seeds[index])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=run, args=(i,)) for i in range(len(seeds))]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
                assert not worker.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for got, want in zip(results, expected):
            assert np.array_equal(got, want)


class TestSlowModes:
    def test_slowest_visible_mode_of_the_large_power_network(self):
        system, kind, gains = scenario_system("dapi_path_100")
        lam = nc.spectrum(nc.build_path(100, 1.0)).eigenvalues
        eigs = np.linalg.eigvals(modal_matrices(kind, gains, lam[1:]))
        expected = 1.0 / np.abs(eigs.real).min()
        assert expected > 1.8e6
        assert nc.slowest_time_constant(system) == pytest.approx(expected, rel=1e-9)

    def test_marginal_network_average_is_dropped(self):
        # droop control (f0 = 0): the network average drifts, every other mode decays
        system, _, gains = scenario_system("p_path_10")
        lam = nc.spectrum(nc.build_path(10, 1.0)).eigenvalues
        eigs = np.linalg.eigvals(modal_matrices("p", gains, lam))
        visible = np.concatenate([eigs[0][eigs[0].real < -1e-9], eigs[1:].ravel()])
        assert nc.slowest_time_constant(system) == pytest.approx(1.0 / np.abs(visible.real).min(), rel=1e-12)

    def test_unresolved_slow_root_of_a_stable_mode_is_not_called_unstable(self):
        # DAPI with c > 0 is Hurwitz at every lambda > 0, so all 63 relative modes
        # are stable (dapi_variance is finite), but mode 2's slowest root computes
        # with real part >= 0
        gains = nc.DapiGains(f=0.01, g=0.0, g0=100.0, k_i=50.0, c=1e-6)
        system = nc.assemble(nc.build_path(64, 1.0), "dapi", gains)
        assert np.isfinite(nc.dapi_variance(nc.spectrum(nc.build_path(64, 1.0)), gains).v_n)
        for check in (nc.slowest_time_constant, nc.recommended_step):
            with pytest.raises(NumericalError, match="mode 2 .* below eigenvalue resolution"):
                check(system)

    @pytest.mark.parametrize("graph", [nc.build_path(3, 1.0), nc.build_ring(8, 1.0)], ids=["path3", "ring8"])
    def test_underflowing_hurwitz_factor_is_not_called_unstable(self, graph):
        # DAPI is Hurwitz for every c > 0; at f = c = 1e-170 the coefficient f c
        # of a_0 = f c lambda^2 underflows to 0, and the slow root near -f c
        # lambda^2 / k_i lies below eigenvalue resolution, so every step check
        # refuses the loop as unresolved, naming mode 2, not as unstable
        system = nc.assemble(graph, "dapi", nc.DapiGains(f=1e-170, g=0.5, g0=1.0, k_i=0.8, c=1e-170))
        cfg = nc.SimConfig(dt=0.01, horizon=1.0, seed=0)
        checks = (nc.slowest_time_constant, nc.recommended_step, lambda s: nc.ensemble_variance(s, cfg, [0, 1]))
        for check in checks:
            with pytest.raises(NumericalError, match="mode 2 .* below eigenvalue resolution"):
                check(system)

    def test_marginal_relative_mode_is_unstable(self):
        system = nc.assemble_p(nc.build_ring(6, 1.0), nc.PGains(f=0.0, g=1.0, f0=0.0, g0=1.0))
        with pytest.raises(InstabilityError, match="mode 2 is not strictly stable"):
            nc.slowest_time_constant(system)

"""Euler-Maruyama simulation of the noise-driven closed loops.

The integrator is the plain first-order scheme

    state_{k+1} = state_k + A state_k dt + B sqrt(dt) * sigma * xi_k

with one i.i.d. standard-normal draw per node and step.  Randomness comes
from numpy's seeded PCG64 generator with a fixed consumption order (initial
perturbation first when requested, then one length-N vector per step), so a
given (system, config) pair reproduces bit-identical trajectories and
trajectories are comparable in distribution across implementations.

Note on step sizes: for a lightly damped oscillatory mode with eigenvalue xi
the scheme inflates the stationary variance by roughly |xi|^2 dt / (2|Re xi|),
which is far more restrictive than the stability limit when |Im xi| >> |Re xi|.
:func:`recommended_step` encodes that rule; the dt-halving test pins it down.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .closed_loop import (
    ClosedLoopSystem,
    FdpdGains,
    PGains,
    assemble,
    droop_preset,
    power_preset,
)
from .errors import (
    InstabilityError,
    InvalidParameterError,
    StepSizeError,
    WindowError,
)
from .graphs import build_path

__all__ = [
    "SimConfig",
    "Trajectory",
    "simulate_em",
    "empirical_variance",
    "ensemble_variance",
    "recommended_step",
    "slowest_time_constant",
    "SCENARIOS",
    "scenario_system",
    "scenario_config",
    "run_scenario",
    "write_trajectory_csv",
]

INIT_ZERO = "zero"
INIT_FREQUENCY_PERTURBATION = "random_frequency_perturbation"

_NOISE_CHUNK = 4096


@dataclass(frozen=True)
class SimConfig:
    """Integration settings for one stochastic run.

    ``burn_in = None`` selects five slowest-mode time constants, capped at
    half the horizon.  ``initial_state`` is either a state vector, ``"zero"``
    or ``"random_frequency_perturbation"`` (normal perturbation of the
    velocity block with ``perturbation_scale``).  ``record_every`` keeps one
    sample out of that many steps to bound memory.
    """

    dt: float
    horizon: float
    seed: int
    burn_in: float | None = None
    noise_intensity: float = 1.0
    initial_state: object = INIT_ZERO
    perturbation_scale: float = 0.1
    record_every: int = 1

    def __post_init__(self):
        if self.dt <= 0.0:
            raise InvalidParameterError(f"dt must be positive, got {self.dt}")
        if self.horizon <= self.dt:
            raise InvalidParameterError("horizon must exceed dt")
        if self.burn_in is not None and not 0.0 <= self.burn_in < self.horizon:
            raise InvalidParameterError("burn_in must lie in [0, horizon)")
        if self.noise_intensity < 0.0:
            raise InvalidParameterError("noise_intensity must be >= 0")
        if self.record_every < 1:
            raise InvalidParameterError("record_every must be >= 1")


@dataclass(frozen=True)
class Trajectory:
    """Recorded samples: times, full states, and the centered x-output."""

    times: np.ndarray
    states: np.ndarray
    output_y: np.ndarray
    n: int
    burn_in: float

    @property
    def state_dim(self) -> int:
        return int(self.states.shape[1])


def _stable_eigs(system: ClosedLoopSystem) -> tuple[np.ndarray, float]:
    eigs = np.linalg.eigvals(system.a)
    scale = max(1.0, float(np.abs(eigs).max()))
    tol = 1e-6 * scale
    if np.any(eigs.real > tol):
        raise InstabilityError(
            f"closed loop is unstable (max eigenvalue real part {eigs.real.max():.3e})"
        )
    stable = eigs[eigs.real < -tol]
    if stable.size == 0:
        raise InstabilityError("closed loop has no strictly stable dynamics")
    return stable, tol


def slowest_time_constant(system: ClosedLoopSystem) -> float:
    """1 / min |Re xi| over the strictly stable closed-loop eigenvalues."""
    stable, _ = _stable_eigs(system)
    return float(1.0 / np.abs(stable.real).min())


def recommended_step(system: ClosedLoopSystem, bias_budget: float = 0.02) -> float:
    """Step size keeping the per-mode variance inflation near ``bias_budget``.

    Uses dt = budget * min(2|Re xi| / |xi|^2) over stable modes, additionally
    capped below the 0.1 / max|Re xi| accuracy warning threshold.
    """
    stable, _ = _stable_eigs(system)
    variance_cap = bias_budget * float(
        (2.0 * np.abs(stable.real) / np.abs(stable) ** 2).min()
    )
    warn_cap = 0.099 / float(np.abs(stable.real).max())
    return min(variance_cap, warn_cap)


def default_burn_in(system: ClosedLoopSystem, horizon: float) -> float:
    """Five slowest time constants, capped at half the horizon."""
    return min(5.0 * slowest_time_constant(system), 0.5 * horizon)


def _initial_state(system: ClosedLoopSystem, cfg: SimConfig, rng) -> np.ndarray:
    dim, n = system.state_dim, system.n
    init = cfg.initial_state
    if isinstance(init, str):
        if init == INIT_ZERO:
            return np.zeros(dim)
        if init == INIT_FREQUENCY_PERTURBATION:
            state = np.zeros(dim)
            state[n : 2 * n] = cfg.perturbation_scale * rng.standard_normal(n)
            return state
        raise InvalidParameterError(f"unknown initial-state preset {init!r}")
    state = np.asarray(init, dtype=float)
    if state.shape != (dim,):
        raise InvalidParameterError(
            f"initial state must have shape ({dim},), got {state.shape}"
        )
    return state.copy()


def simulate_em(system: ClosedLoopSystem, cfg: SimConfig) -> Trajectory:
    """Integrate the closed loop and record a decimated trajectory.

    Raises :class:`InstabilityError` for unstable dynamics and
    :class:`StepSizeError` when ``dt * max|Re xi| > 1``; a warning is issued
    past ``dt * max|Re xi| > 0.1``.
    """
    stable, _ = _stable_eigs(system)
    fastest = float(np.abs(stable.real).max())
    if cfg.dt * fastest > 1.0:
        raise StepSizeError(
            f"dt * max|Re xi| = {cfg.dt * fastest:.3g} > 1; reduce dt below "
            f"{1.0 / fastest:.3g}"
        )
    if cfg.dt * fastest > 0.1:
        warnings.warn(
            f"dt * max|Re xi| = {cfg.dt * fastest:.3g} > 0.1; expect noticeable "
            "discretization bias",
            stacklevel=2,
        )

    n, dim = system.n, system.state_dim
    steps = int(round(cfg.horizon / cfg.dt))
    stepper = np.eye(dim) + cfg.dt * system.a
    sigma = cfg.noise_intensity * math.sqrt(cfg.dt)

    rng = np.random.default_rng(cfg.seed)
    state = _initial_state(system, cfg, rng)

    n_records = 1 + steps // cfg.record_every
    records = np.empty((n_records, dim))
    times = np.empty(n_records)
    records[0] = state
    times[0] = 0.0
    row = 1

    k = 0
    while k < steps:
        chunk = min(_NOISE_CHUNK, steps - k)
        noise = rng.standard_normal((chunk, n))
        for step_row in range(chunk):
            state = stepper @ state
            if sigma != 0.0:
                state[n : 2 * n] += sigma * noise[step_row]
            k += 1
            if k % cfg.record_every == 0:
                records[row] = state
                times[row] = k * cfg.dt
                row += 1

    x = records[:, :n]
    output_y = x - x.mean(axis=1, keepdims=True)
    burn_in = cfg.burn_in if cfg.burn_in is not None else default_burn_in(system, cfg.horizon)
    return Trajectory(times=times, states=records, output_y=output_y, n=n, burn_in=burn_in)


def empirical_variance(traj: Trajectory, burn_in: float | None = None) -> float:
    """Time average of ||y(t)||^2 / N over samples with t > burn_in."""
    if burn_in is None:
        burn_in = traj.burn_in
    mask = traj.times > burn_in
    if not mask.any():
        raise WindowError(
            f"no samples after burn-in {burn_in:.6g} (horizon {traj.times[-1]:.6g})"
        )
    y = traj.output_y[mask]
    return float(np.mean(np.sum(y * y, axis=1)) / traj.n)


def ensemble_variance(
    system: ClosedLoopSystem,
    cfg: SimConfig,
    seeds,
    accumulate_every: int = 10,
) -> np.ndarray:
    """Per-seed empirical variances from independent runs stepped in lockstep.

    Each seed keeps its own generator and consumes noise in the same order as
    :func:`simulate_em`, so the runs are the independent-seed simulations of
    the concurrency contract merged by seed order; they are only propagated
    together as one matrix recurrence for speed.  ``||y||^2 / N`` is
    accumulated online every ``accumulate_every``-th step past burn-in, so no
    trajectories are stored.
    """
    seeds = list(seeds)
    if not seeds:
        raise InvalidParameterError("need at least one seed")
    stable, _ = _stable_eigs(system)
    fastest = float(np.abs(stable.real).max())
    if cfg.dt * fastest > 1.0:
        raise StepSizeError(
            f"dt * max|Re xi| = {cfg.dt * fastest:.3g} > 1; reduce dt below "
            f"{1.0 / fastest:.3g}"
        )
    n, dim = system.n, system.state_dim
    steps = int(round(cfg.horizon / cfg.dt))
    stepper = np.eye(dim) + cfg.dt * system.a
    sigma = cfg.noise_intensity * math.sqrt(cfg.dt)
    burn_in = cfg.burn_in if cfg.burn_in is not None else default_burn_in(system, cfg.horizon)

    rngs = [np.random.default_rng(seed) for seed in seeds]
    states = np.column_stack(
        [_initial_state(system, cfg, rng) for rng in rngs]
    )
    n_seeds = len(seeds)
    scratch = np.empty_like(states)
    acc = np.zeros(n_seeds)
    count = 0
    k = 0
    chunk_size = max(1, min(_NOISE_CHUNK, (1 << 22) // max(1, n * n_seeds)))
    while k < steps:
        chunk = min(chunk_size, steps - k)
        noise = np.stack([rng.standard_normal((chunk, n)) for rng in rngs], axis=2)
        if sigma != 0.0:
            noise *= sigma
        for step_row in range(chunk):
            np.matmul(stepper, states, out=scratch)
            states, scratch = scratch, states
            if sigma != 0.0:
                states[n : 2 * n] += noise[step_row]
            k += 1
            if k % accumulate_every == 0 and k * cfg.dt > burn_in:
                x = states[:n]
                y = x - x.mean(axis=0, keepdims=True)
                acc += np.sum(y * y, axis=0)
                count += 1
    if count == 0:
        raise WindowError(f"no accumulation samples after burn-in {burn_in:.6g}")
    return acc / (count * n)


# ---------------------------------------------------------------------------
# Named demonstration scenarios: radial power network under droop vs DAPI
# control, and a vehicle string under P vs filtered-PD control.
# ---------------------------------------------------------------------------

OMEGA_REF = 2.0 * math.pi * 60.0
POWER_M = 20.0 / OMEGA_REF
POWER_D = 10.0 / OMEGA_REF
POWER_B = 0.3
POWER_L = 1.0
POWER_KI = 1.0
POWER_C = 0.1

SCENARIOS = {
    # name: (graph size, kind, gains factory, dt, horizon, initial preset)
    "dapi_path_10": (10, "dapi", lambda: power_preset(POWER_M, POWER_D, POWER_B, POWER_L, POWER_KI, POWER_C), 0.005, 2500.0, INIT_FREQUENCY_PERTURBATION),
    "dapi_path_100": (100, "dapi", lambda: power_preset(POWER_M, POWER_D, POWER_B, POWER_L, POWER_KI, POWER_C), 0.005, 2500.0, INIT_FREQUENCY_PERTURBATION),
    "p_path_10": (10, "p", lambda: droop_preset(POWER_M, POWER_D, POWER_B, POWER_L), 0.005, 2500.0, INIT_FREQUENCY_PERTURBATION),
    "p_path_100": (100, "p", lambda: droop_preset(POWER_M, POWER_D, POWER_B, POWER_L), 0.005, 2500.0, INIT_FREQUENCY_PERTURBATION),
    "fdpd_platoon_100": (100, "fdpd", lambda: FdpdGains(f=1.0, g=1.0, f0=1.0, k_d=1.0, tau=0.1), 0.01, 1000.0, INIT_ZERO),
    # Lightly damped: the low modes force a very small step (see module note).
    "p_platoon_100": (100, "p", lambda: PGains(f=1.0, g=1.0, f0=1.0, g0=0.0), 0.0004, 200.0, INIT_ZERO),
}


def scenario_system(name: str) -> tuple[ClosedLoopSystem, str, object]:
    """Assembled system plus (kind, gains) for a named scenario."""
    try:
        n, kind, gains_factory, _, _, _ = SCENARIOS[name]
    except KeyError:
        raise InvalidParameterError(
            f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}"
        ) from None
    gains = gains_factory()
    return assemble(build_path(n, POWER_L), kind, gains), kind, gains


def scenario_config(
    name: str,
    seed: int,
    dt: float | None = None,
    horizon: float | None = None,
    burn_in: float | None = None,
    noise_intensity: float = 1.0,
    record_every: int | None = None,
) -> tuple[ClosedLoopSystem, SimConfig]:
    """Assembled system and simulation config for a named scenario."""
    system, _, _ = scenario_system(name)
    _, _, _, default_dt, default_horizon, init = SCENARIOS[name]
    dt = default_dt if dt is None else dt
    horizon = default_horizon if horizon is None else horizon
    if record_every is None:
        record_every = max(1, int(round(horizon / dt)) // 50_000)
    cfg = SimConfig(
        dt=dt,
        horizon=horizon,
        seed=seed,
        burn_in=burn_in,
        noise_intensity=noise_intensity,
        initial_state=init,
        record_every=record_every,
    )
    return system, cfg


def run_scenario(
    name: str,
    seed: int,
    dt: float | None = None,
    horizon: float | None = None,
    burn_in: float | None = None,
    noise_intensity: float = 1.0,
    record_every: int | None = None,
) -> Trajectory:
    """Simulate a named scenario with its default step and horizon."""
    system, cfg = scenario_config(
        name,
        seed,
        dt=dt,
        horizon=horizon,
        burn_in=burn_in,
        noise_intensity=noise_intensity,
        record_every=record_every,
    )
    return simulate_em(system, cfg)


def write_trajectory_csv(
    traj: Trajectory, stream, include_velocity: bool = False, include_aux: bool = False
) -> None:
    """Write ``t,x_1..x_N`` rows, optionally with v and auxiliary blocks."""
    n, dim = traj.n, traj.state_dim
    header = ["t"] + [f"x_{i}" for i in range(1, n + 1)]
    blocks = [traj.states[:, :n]]
    if include_velocity:
        header += [f"v_{i}" for i in range(1, n + 1)]
        blocks.append(traj.states[:, n : 2 * n])
    if include_aux and dim >= 3 * n:
        header += [f"z_{i}" for i in range(1, n + 1)]
        blocks.append(traj.states[:, 2 * n : 3 * n])
    stream.write(",".join(header) + "\n")
    data = np.column_stack([traj.times] + blocks)
    for row in data:
        stream.write(",".join(map(repr, row.tolist())) + "\n")

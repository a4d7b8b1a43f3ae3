"""Euler-Maruyama simulation of the noise-driven closed loops.

The integrator is the plain first-order scheme

    state_{k+1} = state_k + A state_k dt + B sqrt(dt) * sigma * xi_k

with one i.i.d. standard-normal draw per node and step.  Randomness comes
from numpy's seeded PCG64 generator with a fixed consumption order (initial
perturbation first when requested, then one length-N vector per step), so a
given (system, config) pair reproduces bit-identical trajectories and
trajectories are comparable in distribution across implementations.

One kernel steps every run.  An assembled loop is block-diagonal in the
Laplacian eigenbasis ``L = U diag(lam) U^T``: mode k is ``A_k = alpha + beta
lam_k`` from the controller's coefficient table (d = 2 or 3), its noise is
``sigma sqrt(dt) (xi U)_k`` (the same draws, rotated by one GEMM per chunk),
and ``||y||^2`` sums ``x_hat_k^2`` over every mode but the network average,
which so leaves the statistic exactly.  ``assemble`` stores ``U`` and the
mode stack; a hand-built loop, or one that ``dataclasses.replace`` stripped of
them, is one mode of size dim with ``U = I``.  Blocks of BLOCK steps are one
batched GEMM over the modes with the map built from the powers of ``M_k = I +
dt A_k`` and its impulse response (state-space form: a transfer-function
filter loses DAPI's slow pole near 1), so Python loops once per block.  Blocks
are shorter only where a mode's full map would pass 2^16 numbers (large
hand-built loops).  The caller picks what a block computes, and the map is
built once per call: ``simulate_em`` computes every state of every step
(``span d`` columns), ``ensemble_variance`` only each step's outputs through
``modes.output`` plus the state after the block (``span p + d`` columns: 35
instead of 96 for DAPI).  The last, partial block carries no state out.  The
carried state is the block's last state either way, so no state depends on
``record_every`` or ``accumulate_every``.

The noise comes in chunks of at most 512 steps for every seed, drawn on the
calling thread into one buffer just before the chunk is stepped: each seed's
generator fills its part with PCG64 ``standard_normal(out=...)``, in seed
order, so the draws are those of a sequential run, bit for bit.  An assembled
loop steps their rotation into the modes, a hand-built loop the draws as
drawn.  No thread is started and the kernel holds no resource, so a run that
stops early or raises leaves nothing to shut down.

Note on step sizes: for a lightly damped oscillatory mode with eigenvalue xi
the scheme inflates the stationary variance by roughly |xi|^2 dt / (2|Re xi|),
which is far more restrictive than the stability limit when |Im xi| >> |Re xi|.
:func:`recommended_step` encodes that rule; the dt-halving test pins it down.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .closed_loop import (
    ClosedLoopSystem,
    FdpdGains,
    PGains,
    _integer,
    _is_hurwitz,
    _positive,
    assemble,
    droop_preset,
    power_preset,
)
from .csvrows import csv_blocks
from .errors import (
    InstabilityError,
    InvalidParameterError,
    NumericalError,
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

BLOCK = 32  # EM steps per kernel block: a constant, so no state depends on a stride
# Caps on one noise chunk: its steps, and its draws for all seeds (16 MiB) unless one
# BLOCK of steps needs more.  At most two chunks are held at once: the draw buffer and,
# for an assembled loop, its rotation into the modes.
_NOISE_CHUNK = 512
_NOISE_DRAWS = 1 << 21


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
        if not 0.0 < self.dt < math.inf:  # comparisons reject nan too
            raise InvalidParameterError(f"dt must be finite and positive, got {self.dt}")
        if not self.dt < self.horizon < math.inf:
            raise InvalidParameterError(f"horizon must be finite and exceed dt, got {self.horizon}")
        if self.burn_in is not None and not 0.0 <= self.burn_in < self.horizon:
            raise InvalidParameterError("burn_in must lie in [0, horizon)")
        if not 0.0 <= self.noise_intensity < math.inf:
            raise InvalidParameterError(f"noise_intensity must be finite and >= 0, got {self.noise_intensity}")
        if not math.isfinite(self.perturbation_scale):
            raise InvalidParameterError(f"perturbation_scale must be finite, got {self.perturbation_scale}")
        _integer("seed", self.seed, 0)  # numpy's bare ValueError otherwise
        _integer("record_every", self.record_every, 1)


@dataclass(frozen=True)
class Trajectory:
    """Recorded samples: times and full states; the centered x-output derives from them."""

    times: np.ndarray
    states: np.ndarray
    n: int
    burn_in: float

    @property
    def state_dim(self) -> int:
        return int(self.states.shape[1])

    @property
    def output_y(self) -> np.ndarray:
        """Each record's x-block less its network average."""
        x = self.states[:, : self.n]
        return x - x.mean(axis=1, keepdims=True)


class _Modes(NamedTuple):
    """The loop as K decoupled modes of size d (see the module docstring)."""

    basis: np.ndarray  # (N, K): modal components to state blocks
    a: np.ndarray  # (K, d, d) mode matrices
    inject: np.ndarray  # (K, d, r) noise input of a step: r = 1 rotated draw per mode, or all N
    output: np.ndarray  # (K, d, p): ||y||^2 is the squared norm of the outputs of all modes
    table: np.ndarray | None  # the law's (alpha, beta), of which every mode is alpha + beta lam_k; None if hand-built


def _modes(system: ClosedLoopSystem) -> _Modes:
    if system._modal is None:  # hand-built or replaced: one mode of size dim, U = I
        return _Modes(np.ones((1, 1)), system.a[None], system.b[None], system.c.T[None], None)
    basis, a, table = system._modal
    inject = np.zeros((system.n, a.shape[1], 1))
    inject[:, 1] = 1.0  # noise enters v
    output = np.zeros_like(inject)
    output[1:, 0] = 1.0  # y sees x of every mode but the network average
    return _Modes(basis, a, inject, output, table)


def _stable_eigs(modes: _Modes) -> np.ndarray:
    """Strictly stable closed-loop eigenvalues, from the mode stack alone.

    Mode 0 (the network average; all of a hand-built loop) drops the
    eigenvalues within ``tol = 1e-6 * max(1, |xi|max)`` of the axis and
    raises above it; every other mode must have ``Re xi < 0``, or the law's
    Routh-Hurwitz verdict tells an unstable mode (:class:`InstabilityError`)
    from a root below eigenvalue resolution (:class:`NumericalError`).
    """
    eigs = np.linalg.eigvals(modes.a)
    tol = 1e-6 * max(1.0, float(np.abs(eigs).max()))
    if np.any(eigs.real > tol):
        raise InstabilityError(f"closed loop is unstable (max eigenvalue real part {eigs.real.max():.3e})")
    marginal = 1 + np.flatnonzero(np.any(eigs[1:].real >= 0.0, axis=1))
    if marginal.size:
        if not _is_hurwitz(modes.table):  # a zero factor: every mode but the network average fails
            raise InstabilityError(f"mode {marginal[0] + 1} is not strictly stable")
        raise NumericalError(f"mode {marginal[0] + 1} is stable by Routh-Hurwitz, but its slowest root is below "
                             f"eigenvalue resolution (computed real part {eigs[marginal[0]].real.max():.3e})")
    stable = np.concatenate([eigs[0][eigs[0].real < -tol], eigs[1:].ravel()])
    if stable.size == 0:
        raise InstabilityError("closed loop has no strictly stable dynamics")
    return stable


def slowest_time_constant(system: ClosedLoopSystem) -> float:
    """1 / min |Re xi| over the strictly stable closed-loop eigenvalues."""
    return float(1.0 / np.abs(_stable_eigs(_modes(system)).real).min())


def recommended_step(system: ClosedLoopSystem, bias_budget: float = 0.02) -> float:
    """Step size keeping the per-mode variance inflation near ``bias_budget``.

    Uses dt = budget * min(2|Re xi| / |xi|^2) over stable modes, additionally
    capped below the 0.1 / max|Re xi| accuracy warning threshold.
    ``bias_budget`` must be finite and positive.
    """
    _positive("bias_budget", bias_budget)
    stable = _stable_eigs(_modes(system))
    variance_cap = bias_budget * float((2.0 * np.abs(stable.real) / np.abs(stable) ** 2).min())
    warn_cap = 0.099 / float(np.abs(stable.real).max())
    return min(variance_cap, warn_cap)


def _initial_state(system: ClosedLoopSystem, cfg: SimConfig, rng) -> np.ndarray:
    init, n, dim = cfg.initial_state, system.n, system.state_dim
    if not isinstance(init, str):
        state = np.array(init, dtype=float)
        if state.shape != (dim,):
            raise InvalidParameterError(f"initial state must have shape ({dim},), got {state.shape}")
        return state
    if init not in (INIT_ZERO, INIT_FREQUENCY_PERTURBATION):
        raise InvalidParameterError(f"unknown initial-state preset {init!r}")
    state = np.zeros(dim)
    if init == INIT_FREQUENCY_PERTURBATION:
        state[n : 2 * n] = cfg.perturbation_scale * rng.standard_normal(n)
    return state


def _block_operator(step: np.ndarray, inject: np.ndarray, span: int) -> np.ndarray:
    """(K, d + span r, span d) map of a mode's row ``[s_0, w_1 .. w_span]`` to
    ``[s_1 .. s_span]``: the EM step ``s_j = M s_(j-1) + E w_j`` run on unit rows."""
    k, d, r = inject.shape
    op = np.empty((k, d + span * r, span * d))
    s = np.broadcast_to(np.eye(d + span * r, d), op.shape[:2] + (d,))
    for j in range(span):
        s = s @ step.transpose(0, 2, 1)
        s[:, d + j * r : d + (j + 1) * r] += inject.transpose(0, 2, 1)
        op[:, :, j * d : (j + 1) * d] = s
    return op


def _em_blocks(system: ClosedLoopSystem, cfg: SimConfig, seeds, warn: bool = False, read: bool = False):
    """Checks and set-up of the EM kernel: ``(modes, steps, burn_in, initial
    states, blocks)``, where ``blocks`` yields ``(first, per mode (K, S, m, c)
    of steps first + 1 .. first + m)``: the modal states (c = d), or with
    ``read`` the outputs ``modes.output`` reads (c = p)."""
    modes = _modes(system)
    stable = _stable_eigs(modes)
    fastest = float(np.abs(stable.real).max())
    if cfg.dt * fastest > 1.0:
        raise StepSizeError(f"dt * max|Re xi| = {cfg.dt * fastest:.3g} > 1; reduce dt below {1.0 / fastest:.3g}")
    if warn and cfg.dt * fastest > 0.1:
        warnings.warn(f"dt * max|Re xi| = {cfg.dt * fastest:.3g} > 0.1; expect noticeable discretization bias",
                      stacklevel=3)
    steps = int(round(cfg.horizon / cfg.dt))
    burn_in = cfg.burn_in
    if burn_in is None:  # five slowest time constants, capped at half the horizon
        burn_in = min(5.0 * float(1.0 / np.abs(stable.real).min()), 0.5 * cfg.horizon)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    states = np.stack([_initial_state(system, cfg, rng) for rng in rngs])
    (k, d, r), n, n_seeds = modes.inject.shape, system.n, len(rngs)
    sigma = cfg.noise_intensity * math.sqrt(cfg.dt)
    span = BLOCK  # halved while a mode's map would hold more than 2^16 numbers, down to 1
    while span > 1 and (d + span * r) * span * d > 1 << 16:
        span //= 2
    op = _block_operator(np.eye(d) + cfg.dt * modes.a, sigma * modes.inject, span)
    c = d  # the columns of one step: its state, or with ``read`` its outputs
    if read:  # each step's outputs, then the state after the block; the full map is dropped
        c = modes.output.shape[2]
        outputs = (op.reshape(k, -1, span, d) @ modes.output[:, None]).reshape(k, -1, span * c)
        op = np.concatenate((outputs, op[:, :, -d:]), axis=2)
    chunk = BLOCK * max(1, min(_NOISE_CHUNK, _NOISE_DRAWS // (n * n_seeds)) // BLOCK)
    sizes = [min(chunk, steps - done) for done in range(0, steps, chunk)]

    def blocks():
        draws = np.empty(n_seeds * chunk * n)
        rotated = np.empty_like(draws) if r == 1 else None
        rows = np.empty((k, n_seeds, d + span * r))
        rows[:, :, :d] = (states.reshape(n_seeds, d, -1) @ modes.basis).transpose(2, 0, 1)
        for j, size in enumerate(sizes):
            w = draws[: n_seeds * size * n]
            for rng, out in zip(rngs, w.reshape(n_seeds, size, n)):  # in seed order
                rng.standard_normal(out=out)
            if r == 1:  # one draw per mode: xi U; a hand-built loop's one mode reads every draw
                w = np.matmul(modes.basis.T, w.reshape(-1, n).T, out=rotated[: w.size].reshape(n, -1))
            w = w.reshape(k, n_seeds, size * r)
            for t in range(0, size, span):
                m = min(span, size - t)
                rows[:, :, d : d + m * r] = w[:, :, t * r : (t + m) * r]
                if m < span:  # the last block: no state is carried out of it
                    block = np.matmul(rows[:, :, : d + m * r], op[:, : d + m * r, : m * c])
                else:
                    block = np.matmul(rows, op)
                    rows[:, :, :d] = block[:, :, -d:]
                yield j * chunk + t, block[:, :, : m * c].reshape(k, n_seeds, m, c)

    return modes, steps, burn_in, states, blocks()


def simulate_em(system: ClosedLoopSystem, cfg: SimConfig) -> Trajectory:
    """Integrate the closed loop and record a decimated trajectory.

    The one-seed case of the kernel: a block holding a record is mapped back
    to states, ``x = U x_hat``, as a whole and the records are picked from it.
    Raises :class:`InstabilityError` for unstable dynamics and
    :class:`StepSizeError` when ``dt * max|Re xi| > 1``; a warning is issued
    past ``dt * max|Re xi| > 0.1``.
    """
    modes, steps, burn_in, states, blocks = _em_blocks(system, cfg, [cfg.seed], warn=True)
    n, every = system.n, cfg.record_every
    records = np.empty((1 + steps // every, system.state_dim))
    records[0] = states[0]
    for first, block in blocks:
        k, _, m, d = block.shape
        at = np.flatnonzero((first + 1 + np.arange(m)) % every == 0)
        if at.size:
            full = (modes.basis @ block[:, 0].reshape(k, m * d)).reshape(-1, m, d)
            row = (first + 1 + at[0]) // every
            records[row : row + at.size] = full.transpose(1, 2, 0).reshape(m, -1)[at]
    times = (np.arange(len(records)) * every) * cfg.dt
    return Trajectory(times=times, states=records, n=n, burn_in=burn_in)


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
    """Per-seed empirical variances of independent runs stepped together.

    Each seed keeps its own PCG64 generator and draws exactly what
    :func:`simulate_em` draws for it, in the same order, so the runs are the
    independent-seed simulations merged by seed order, stepped by the modal
    block kernel of the module docstring.  Each block's GEMM computes only
    what is read: every step's outputs, ``x_hat_k`` of every mode but the
    network average, and the state carried into the next block.
    ``||y||^2 / N``, the sum of the squared outputs, is accumulated every
    ``accumulate_every``-th step past burn-in; no trajectory is stored, and no
    state depends on ``accumulate_every``.  For one seed the value is
    :func:`empirical_variance` of :func:`simulate_em` with ``record_every =
    accumulate_every`` up to rounding.  Every chunk is drawn on the calling
    thread just before it is stepped.
    """
    seeds = list(seeds)
    if not seeds:
        raise InvalidParameterError("need at least one seed")
    for seed in seeds:
        _integer("seed", seed, 0)
    _integer("accumulate_every", accumulate_every, 1)
    _, _, burn_in, _, blocks = _em_blocks(system, cfg, seeds, read=True)
    acc, count = np.zeros(len(seeds)), 0
    for first, y in blocks:
        step = first + 1 + np.arange(y.shape[2])
        at = np.flatnonzero((step % accumulate_every == 0) & (step * cfg.dt > burn_in))
        if at.size:
            y = y[:, :, at]
            acc += (y * y).sum(axis=(0, 2, 3))
            count += at.size
    if count == 0:
        raise WindowError(f"no accumulation samples after burn-in {burn_in:.6g}")
    return acc / (count * system.n)


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
    return system, SimConfig(dt, horizon, seed, burn_in, noise_intensity, init, record_every=record_every)


def run_scenario(name: str, seed: int, **options) -> Trajectory:
    """Simulate a named scenario; ``options`` are those of :func:`scenario_config`."""
    return simulate_em(*scenario_config(name, seed, **options))


def write_trajectory_csv(
    traj: Trajectory, stream, include_velocity: bool = False, include_aux: bool = False
) -> None:
    """Write ``t,x_1..x_N`` rows, optionally with v and auxiliary blocks.

    Every cell is the float's ``repr``.  Rows are written in blocks of about
    :data:`netcoh.csvrows.BLOCK_CELLS` cells through orjson's Ryu formatter,
    whose digits equal ``repr``'s; a row holding a cell that ``repr`` writes
    in exponent form, or a non-finite cell, is joined from ``repr`` instead.
    ``include_aux`` raises :class:`InvalidParameterError` for a trajectory
    without an auxiliary block (P control).
    """
    n, dim = traj.n, traj.state_dim
    if include_aux and dim < 3 * n:
        raise InvalidParameterError(
            f"no auxiliary block to write: state dimension {dim} for {n} nodes (P control has none)"
        )
    header = ["t"] + [f"x_{i}" for i in range(1, n + 1)]
    blocks = [traj.states[:, :n]]
    if include_velocity:
        header += [f"v_{i}" for i in range(1, n + 1)]
        blocks.append(traj.states[:, n : 2 * n])
    if include_aux:
        header += [f"z_{i}" for i in range(1, n + 1)]
        blocks.append(traj.states[:, 2 * n : 3 * n])
    stream.write(",".join(header) + "\n")
    for text in csv_blocks([traj.times] + blocks):
        stream.write(text)

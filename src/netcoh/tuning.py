"""Filter tuning: optimal DAPI averaging gain and F-DPD filter sensitivity.

The averaging gain c has either an interior optimum c* > 0 (when the relative
position gain dominates: f > (g*lam + g0)^2 / lam on every mode) or a boundary
optimum c* = 0 with the variance increasing monotonically.  On complete graphs
the interior optimum has the closed form sqrt(f/(N l)) - g - g0/(N l); in
general it is located numerically by a grid scan followed by golden-section
refinement.  For F-DPD the variance grows monotonically with the filter time
constant, and the exact derivative is provided for sensitivity checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .closed_loop import KIND_DAPI, KIND_FDPD, DapiGains, FdpdGains, _check_gains, _integer, _nonneg, _positive
from .errors import (
    ConvergenceError,
    InvalidParameterError,
    NumericalError,
    SearchError,
    UnboundedVarianceError,
)
from .graphs import LaplacianSpectrum
from .variance import _dapi_terms, _mode_sum

__all__ = [
    "VERDICT_POSITIVE",
    "VERDICT_ZERO",
    "VERDICT_INDETERMINATE",
    "CStarClassification",
    "ScalarSearchConfig",
    "classify_c_star",
    "c_star_complete",
    "c_star_numeric",
    "default_bracket_hi",
    "fdpd_dv_dtau",
]

VERDICT_POSITIVE = "PositiveOptimum"
VERDICT_ZERO = "ZeroOptimum"
VERDICT_INDETERMINATE = "Indeterminate"

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class CStarClassification:
    """Verdict on the optimal averaging gain with the per-mode witnesses.

    ``witness[k]`` is True when mode k satisfies f > (g*lam + g0)^2 / lam,
    the condition under which that mode prefers a strictly positive c.
    """

    verdict: str
    witness: tuple[bool, ...]


@dataclass(frozen=True)
class ScalarSearchConfig:
    """Bracket and tolerances for the 1-D averaging-gain search."""

    bracket_hi: float | None = None
    abs_tolerance: float = 1e-6
    max_iterations: int = 256
    grid_points: int = 64

    def __post_init__(self):
        if self.bracket_hi is not None and not 0.0 < self.bracket_hi < math.inf:  # nan fails too
            raise InvalidParameterError(f"bracket_hi must be finite and positive, got {self.bracket_hi}")
        if not 0.0 < self.abs_tolerance < math.inf:
            raise InvalidParameterError(f"abs_tolerance must be finite and positive, got {self.abs_tolerance}")
        _integer("max_iterations", self.max_iterations, 1)
        _integer("grid_points", self.grid_points, 4)


def classify_c_star(spec: LaplacianSpectrum, gains: DapiGains) -> CStarClassification:
    """Classify the optimum of the variance over the averaging gain.

    PositiveOptimum when the witness condition holds on every mode n >= 2,
    ZeroOptimum when it fails everywhere (variance non-decreasing in c),
    Indeterminate otherwise.  The current ``gains.c`` is ignored.
    """
    _check_gains(KIND_DAPI, gains)
    lam = spec.connected_modes()
    witness = gains.f > (gains.g * lam + gains.g0) ** 2 / lam
    if witness.all():
        verdict = VERDICT_POSITIVE
    else:
        verdict = VERDICT_INDETERMINATE if witness.any() else VERDICT_ZERO
    return CStarClassification(verdict, tuple(witness.tolist()))


def c_star_complete(n: int, l: float, f: float, g: float, g0: float) -> float:
    """Closed-form optimal averaging gain on the complete graph.

    All non-trivial Laplacian eigenvalues equal N*l, so every mode shares the
    positive root of (c + g + g0/(N l))^2 = f/(N l):

        c* = max(0, sqrt(f / (N l)) - g - g0 / (N l))
    """
    _integer("n", n, 2)
    _positive("l", l)
    _positive("f", f)
    _nonneg("g", g)
    _nonneg("g0", g0)
    lam = n * l
    return max(0.0, math.sqrt(f / lam) - g - g0 / lam)


def default_bracket_hi(spec: LaplacianSpectrum, gains: DapiGains) -> float:
    """10 x the complete-graph form evaluated at the smallest mode lambda_2."""
    _check_gains(KIND_DAPI, gains)
    lam2 = spec.lambda2
    if lam2 <= 0.0:
        raise SearchError("spectrum has no positive lambda_2; cannot bracket")
    return 10.0 * (math.sqrt(gains.f / lam2) + gains.g + gains.g0 / lam2)


def c_star_numeric(
    spec: LaplacianSpectrum,
    gains: DapiGains,
    config: ScalarSearchConfig | None = None,
) -> tuple[float, float]:
    """Minimize the DAPI variance over c in [0, bracket_hi].

    A log-spaced grid scan (plus the endpoint c = 0) seeds a bracket around
    the best grid point; golden-section refinement runs to ``abs_tolerance``.
    Returns ``(c_star, variance_at_c_star)``.
    """
    return _search(spec, gains, config)[2:]


def _search(spec: LaplacianSpectrum, gains: DapiGains, config: ScalarSearchConfig | None):
    """The search of :func:`c_star_numeric`: ``(grid, values, c_star, v_star)``.

    ``values[k]`` is V_N at ``c = grid[k]``, ``inf`` where it is unbounded or
    a term or the sum is not finite.
    """
    _check_gains(KIND_DAPI, gains)
    lam = spec.connected_modes()
    if config is None:
        config = ScalarSearchConfig()
    hi = config.bracket_hi
    if hi is None:
        hi = default_bracket_hi(spec, gains)

    def objective(c: float) -> float:
        try:
            s = _dapi_terms(lam, replace(gains, c=c))
            return _mode_sum(s) / (2.0 * spec.node_count)
        except (UnboundedVarianceError, NumericalError):
            return math.inf

    grid = np.concatenate(
        [[0.0], np.geomspace(hi * 1e-4, hi, config.grid_points - 1)]
    )
    values = np.array([objective(c) for c in grid])
    if not np.isfinite(values).any():
        raise SearchError(f"variance is unbounded on the whole bracket [0, {hi:.6g}]")
    best = int(np.nanargmin(np.where(np.isfinite(values), values, np.inf)))
    lo_edge = grid[max(best - 1, 0)]
    hi_edge = grid[min(best + 1, len(grid) - 1)]

    # golden-section on [lo_edge, hi_edge]
    a, b = float(lo_edge), float(hi_edge)
    c1 = b - _GOLDEN * (b - a)
    c2 = a + _GOLDEN * (b - a)
    f1, f2 = objective(c1), objective(c2)
    iterations = 0
    while (b - a) > config.abs_tolerance:
        iterations += 1
        if iterations > config.max_iterations:
            raise ConvergenceError(
                f"golden-section search did not reach {config.abs_tolerance:.3g} "
                f"within {config.max_iterations} iterations"
            )
        if f1 < f2:
            b, c2, f2 = c2, c1, f1
            c1 = b - _GOLDEN * (b - a)
            f1 = objective(c1)
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + _GOLDEN * (b - a)
            f2 = objective(c2)
    c_best = 0.5 * (a + b)
    return grid, values, c_best, objective(c_best)


def fdpd_dv_dtau(spec: LaplacianSpectrum, gains: FdpdGains) -> float:
    """Exact derivative of the F-DPD variance with respect to tau.

    Differentiating the per-mode term of the variance sum gives

        d s_n / d tau = k_d * tau * (tau*g*lam + 2) / Q_n^2,
        Q_n = g^2 lam^2 tau + f g lam^2 tau^2 + f0 g lam tau^2
              + k_d g lam tau + g lam + k_d,

    which vanishes at tau = 0 and is strictly positive for tau > 0 (so the
    variance is minimized by an unfiltered derivative and grows with the
    filter time constant).  Agrees with central finite differences of the
    variance to high accuracy; tests pin this down.
    """
    _check_gains(KIND_FDPD, gains)
    f, g, f0, k_d, tau = gains.f, gains.g, gains.f0, gains.k_d, gains.tau
    lam = spec.connected_modes()
    if tau == 0.0:
        return 0.0
    q = (
        g * g * lam * lam * tau
        + f * g * lam * lam * tau * tau
        + f0 * g * lam * tau * tau
        + k_d * g * lam * tau
        + g * lam
        + k_d
    )
    terms = k_d * tau * (tau * g * lam + 2.0) / (q * q)
    return _mode_sum(terms) / (2.0 * spec.node_count)

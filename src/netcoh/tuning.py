"""Filter tuning: optimal DAPI averaging gain and F-DPD filter sensitivity.

The averaging gain c has either an interior optimum c* > 0 (when the relative
position gain dominates: f > (g*lam + g0)^2 / lam on every mode) or a boundary
optimum c* = 0 with the variance increasing monotonically.  On complete graphs
the interior optimum has the closed form sqrt(f/(N l)) - g - g0/(N l); else a
grid scan brackets it, and c* is where the exact dV_N/dc changes sign.  For
F-DPD the variance grows with the filter time constant, as its exact derivative shows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .closed_loop import KIND_DAPI, KIND_FDPD, DapiGains, FdpdGains, _check_gains, _integer, _nonneg, _positive
from .errors import InvalidParameterError, NumericalError, SearchError, UnboundedVarianceError
from .graphs import LaplacianSpectrum
from .variance import _mode_sum, _terms

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
    """The search grid: its upper end (:func:`default_bracket_hi` if None) and its point count, c = 0 included."""

    bracket_hi: float | None = None
    grid_points: int = 64

    def __post_init__(self):
        if self.bracket_hi is not None and not 0.0 < self.bracket_hi < math.inf:  # nan fails too
            raise InvalidParameterError(f"bracket_hi must be finite and positive, got {self.bracket_hi}")
        _integer("grid_points", self.grid_points, 4)


def classify_c_star(spec: LaplacianSpectrum, gains: DapiGains) -> CStarClassification:
    """Classify the optimum of the variance over the averaging gain.

    PositiveOptimum when the witness condition holds on every mode n >= 2,
    ZeroOptimum when it fails everywhere (variance non-decreasing in c),
    Indeterminate otherwise.  The current ``gains.c`` is ignored.
    """
    _check_gains(KIND_DAPI, gains)
    lam = spec.connected_modes()
    if not lam.size:  # one node: c_star_numeric has no lambda_2 to bracket with either
        raise SearchError("spectrum has no mode n >= 2; the variance does not depend on c")
    witness = gains.f > (gains.g * lam + gains.g0) ** 2 / lam
    verdict = VERDICT_POSITIVE if witness.all() else VERDICT_INDETERMINATE if witness.any() else VERDICT_ZERO
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
    """10 x the complete-graph form evaluated at the smallest mode lambda_2; a disconnected graph raises."""
    _check_gains(KIND_DAPI, gains)
    lam = spec.connected_modes()
    if not lam.size:  # one node
        raise SearchError("spectrum has no positive lambda_2; cannot bracket")
    lam2 = float(lam[0])
    return 10.0 * (math.sqrt(gains.f / lam2) + gains.g + gains.g0 / lam2)


def c_star_numeric(spec: LaplacianSpectrum, gains: DapiGains,
                   config: ScalarSearchConfig | None = None) -> tuple[float, float]:
    """Minimize the DAPI variance over c in [0, bracket_hi]: ``(c_star, V_N at c_star)``, Python floats.

    c* is the best point of a log-spaced grid scan (plus c = 0) unless the exact dV_N/dc there
    points into a neighbouring cell beyond its rounding error; then it is the next sign change of
    dV_N/dc that way, or the grid's edge.  So c* = 0 when c = 0 is best and dV_N/dc(0) >= 0.
    """
    return _search(spec, gains, config)[2:]


def _search(spec: LaplacianSpectrum, gains: DapiGains, config: ScalarSearchConfig | None):
    """The search of :func:`c_star_numeric`: ``(grid, values, c_star, v_star)``, ``values[k]``
    V_N at ``c = grid[k]``, ``inf`` where it is unbounded or a term or the sum is not finite."""
    _check_gains(KIND_DAPI, gains)
    lam = spec.connected_modes()
    config = config or ScalarSearchConfig()
    hi = config.bracket_hi or default_bracket_hi(spec, gains)

    def objective(c: float) -> float:
        try:
            return _mode_sum(_terms(KIND_DAPI, replace(gains, c=c), lam)) / (2.0 * spec.node_count)
        except (UnboundedVarianceError, NumericalError):
            return math.inf

    def slope(c: float) -> tuple[float, float]:
        try:
            return _dv_dc(lam, gains, c, spec.node_count)
        except NumericalError:  # a term or the sum is not finite: no sign
            return math.nan, 0.0

    grid = np.concatenate([[0.0], np.geomspace(hi * 1e-4, hi, config.grid_points - 1)])
    values = np.array([objective(c) for c in grid])
    if not np.isfinite(values).any():
        raise SearchError(f"variance is unbounded on the whole bracket [0, {hi:.6g}]")
    best = int(np.nanargmin(np.where(np.isfinite(values), values, np.inf)))
    c_star = _sign_change(slope, grid.tolist(), best)
    return grid, values, c_star, objective(c_star)


def _dv_dc(lam: np.ndarray, gains: DapiGains, c: float, n: int) -> tuple[float, float]:
    """dV_N/dc of the DAPI variance at ``c``, and a first-order bound on its rounding error: u (1.5 r + 3 p)
    for r - p, the only cancellation, 64 u for a term's other roundings and u for the sum, u = 2^-53.

    d s_n/dc = -k_i f (r - p)(r + p) / (q den)^2, p = g0 + lam (c + g), q = f + c p, r = sqrt(lam f) and
    den that of :func:`~netcoh.variance.dapi_variance`.  A non-finite term or sum raises NumericalError.
    """
    f, g, g0, kf = gains.f, gains.g, gains.g0, gains.k_i * gains.f
    p = g0 + lam * (c + g)
    q = f + c * p
    den = q * (lam * (f * g * lam + g0 * f) + kf * p / q)
    w = np.divide(kf, den * den, out=den)
    r = np.sqrt(lam * f)
    plus, minus = p + r, p - r
    slope = _mode_sum(w * minus * plus)
    bound = np.sum(w * plus * (1.5 * r + 3.0 * p + 64.0 * np.abs(minus))) + abs(slope)
    return slope / (2.0 * n), float(bound) * 2.0**-53 / (2.0 * n)


def _sign_change(slope, grid: list[float], best: int) -> float:
    """The c next to ``grid[best]`` where dV_N/dc, ``slope(c)`` with its bound, changes sign.

    The search walks from cell to cell while the far end keeps the sign, as where V_N is too flat
    for the grid, and then runs Anderson-Bjorck regula falsi (Brent 1973, ch. 4), bisecting after
    three steps that did not halve the cell.  Each step shrinks it: the search ends at a slope
    within its bound or at adjacent doubles.  A nan slope takes the far end's sign.
    """
    d, err = slope(grid[best])
    if not (d < -err and best + 1 < len(grid) or d > err and best > 0):
        return grid[best]
    step = 1 if d < 0.0 else -1  # toward the cell that dV_N/dc points into
    while (e := slope(grid[best + step])[0]) * step < 0.0:  # no sign change in that cell: walk on
        if best + step in (0, len(grid) - 1):
            return grid[best + step]
        best, d = best + step, e
    far = math.copysign(math.inf, step)
    (a, fa), (b, fb) = sorted([(grid[best], d), (grid[best + step], e if e * far > 0.0 else far)])
    moved = stalled = 0  # moved: the end the last step replaced, -1 for a and 1 for b
    while True:
        width, t = b - a, fa / (fa - fb) if fa < fb else 0.5  # the scaling may flush both to 0
        c = a + width * t
        if stalled > 2 or not a < c < b:  # also where t is not finite
            c = a + 0.5 * width
        if not a < c < b:
            return a if -fa < fb else b
        d, err = slope(c)
        if abs(d) <= err:
            return c
        d = far if d != d else d
        if d < 0.0:
            fb *= (max(0.0, 1.0 - d / fa) or 0.5) if moved < 0 else 1.0  # b kept twice: scale fb
            a, fa, moved = c, d, -1
        else:
            fa *= (max(0.0, 1.0 - d / fb) or 0.5) if moved > 0 else 1.0
            b, fb, moved = c, d, 1
        stalled = stalled + 1 if b - a > 0.5 * width else 0


def fdpd_dv_dtau(spec: LaplacianSpectrum, gains: FdpdGains) -> float:
    """Exact derivative of the F-DPD variance with respect to tau.

    Differentiating the per-mode term of the variance sum gives

        d s_n / d tau = k_d * tau * (tau*g*lam + 2) / Q_n^2,
        Q_n = g^2 lam^2 tau + f g lam^2 tau^2 + f0 g lam tau^2
              + k_d g lam tau + g lam + k_d,

    which vanishes at tau = 0 and is strictly positive for tau > 0: the variance is
    least with an unfiltered derivative and grows with the filter time constant.
    """
    _check_gains(KIND_FDPD, gains)
    f, g, f0, k_d, tau = gains.f, gains.g, gains.f0, gains.k_d, gains.tau
    lam = spec.connected_modes()
    if tau == 0.0:
        return 0.0
    q = (g * g * lam * lam * tau + f * g * lam * lam * tau * tau + f0 * g * lam * tau * tau
         + k_d * g * lam * tau + g * lam + k_d)
    terms = k_d * tau * (tau * g * lam + 2.0) / (q * q)
    return _mode_sum(terms) / (2.0 * spec.node_count)

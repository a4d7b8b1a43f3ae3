"""Variance sweeps across network sizes with log-log exponent fits.

Sweeps use the closed-form family spectra of :mod:`netcoh.graphs`, so sizes
in the thousands stay cheap; configurations whose variance diverges are kept
as unbounded markers rather than numbers.  The exponent is the least-squares
slope of log V_N against log N inside a fit window, by default the upper half
of the swept sizes widened until it holds at least four finite points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FitError, InvalidParameterError, UnboundedVarianceError
from .graphs import family_spectrum
from .variance import variance_by_kind

__all__ = [
    "ScalingResult",
    "run_scaling",
    "fit_exponent",
    "write_scaling_csv",
]

_MIN_FIT_POINTS = 4


@dataclass(frozen=True)
class ScalingResult:
    """Sweep outcome: (N, V_N-or-None) points plus an optional exponent fit."""

    family: str
    kind: str
    points: tuple[tuple[int, float | None], ...]
    fitted_exponent: float | None
    fit_window: tuple[int, int] | None


def run_scaling(
    family: str,
    kind: str,
    gains,
    sizes,
    weight: float = 1.0,
    window: tuple[int, int] | None = None,
) -> ScalingResult:
    """Evaluate V_N over ascending sizes and fit the asymptotic exponent.

    For torus families ``sizes`` are lattice sides and N is reported as
    side**d.  Divergent configurations appear as ``None`` values.
    """
    sizes = [int(s) for s in sizes]
    if not sizes:
        raise InvalidParameterError("sizes must not be empty")
    if sizes != sorted(sizes) or len(set(sizes)) != len(sizes):
        raise InvalidParameterError("sizes must be strictly ascending")
    points = []
    for size in sizes:
        spec = family_spectrum(family, size, weight)
        try:
            value = variance_by_kind(spec, kind, gains).v_n
        except UnboundedVarianceError:
            value = None
        points.append((spec.node_count, value))
    points = tuple(points)
    if window is not None:
        return ScalingResult(family, kind, points, fit_exponent(points, window), window)
    return ScalingResult(family, kind, points, *_fit_default_window(points))


def _fit_default_window(points):
    usable = [i for i, (_, value) in enumerate(points) if value is not None and value > 0.0]
    if len(usable) < _MIN_FIT_POINTS:
        return None, None
    # upper half, widened down to the fourth-last usable point if it holds fewer;
    # N strictly ascends, so window (N[i], N[-1]) holds exactly the points from i on
    window = (points[min(len(points) // 2, usable[-_MIN_FIT_POINTS])][0], points[-1][0])
    return fit_exponent(points, window), window


def fit_exponent(points, window: tuple[int, int]) -> float:
    """Least-squares slope of log V_N vs log N for the finite, positive points in window.

    ``None``, nan, infinite and non-positive values are skipped; fewer than
    four points left raise :class:`FitError`.
    """
    lo, hi = window
    xs, ys = [], []
    for n, value in points:
        if value is None or not lo <= n <= hi:
            continue
        if not 0.0 < value < math.inf:  # nan fails both comparisons
            continue
        xs.append(np.log(float(n)))
        ys.append(np.log(value))
    if len(xs) < _MIN_FIT_POINTS:
        raise FitError(
            f"need at least {_MIN_FIT_POINTS} finite points in window {window}, "
            f"got {len(xs)}"
        )
    slope, _ = np.polyfit(np.array(xs), np.array(ys), 1)
    return float(slope)


def write_scaling_csv(result: ScalingResult, stream) -> None:
    """Columns ``N,V_N,bounded,exponent_window_flag``; unbounded rows blank."""
    stream.write("N,V_N,bounded,exponent_window_flag\n")
    window = result.fit_window
    for n, value in result.points:
        in_window = window is not None and window[0] <= n <= window[1]
        cells = ",false" if value is None else f"{value!r},true"
        stream.write(f"{n},{cells},{str(in_window).lower()}\n")
    if result.fitted_exponent is not None:
        stream.write(f"exponent,{result.fitted_exponent!r},,\n")

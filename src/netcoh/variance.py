"""Per-node output variance of the noise-driven closed loops.

Three independent evaluation routes are provided and cross-checked in tests:

* closed forms -- the per-mode sums for P, DAPI and F-DPD control together
  with the uniform-in-N upper bounds for the latter two;
* a modal oracle -- one small Lyapunov solve (Kronecker vectorization) per
  Laplacian eigenvalue;
* a full-system oracle -- a Schur-based solve on the assembled block matrix
  after deflating the marginal, unobservable network-average directions.

The closed forms are numpy array expressions over the eigenvalues of modes
n >= 2, with no loop over modes.  Their terms, like the modal oracle's, are
summed with ``math.fsum``, so each sum is correctly rounded at any N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .closed_loop import (
    KIND_DAPI,
    KIND_FDPD,
    KIND_P,
    ClosedLoopSystem,
    DapiGains,
    FdpdGains,
    PGains,
    ideal_pd_equivalent,
    is_stable_mode,
    modal_subsystem,
)
from .errors import (
    InstabilityError,
    InvalidParameterError,
    MarginalModeObservableError,
    NumericalError,
    OracleSizeError,
    UnboundedVarianceError,
)
from .graphs import LaplacianSpectrum

__all__ = [
    "VarianceReport",
    "p_variance",
    "dapi_variance",
    "fdpd_variance",
    "dapi_bound",
    "fdpd_bound",
    "solve_lyapunov",
    "modal_variance",
    "full_variance",
    "variance_by_kind",
    "DEFAULT_ORACLE_LIMIT",
]

METHOD_CLOSED_FORM = "closed_form"
METHOD_MODAL_LYAPUNOV = "modal_lyapunov"
METHOD_FULL_LYAPUNOV = "full_lyapunov"

DEFAULT_ORACLE_LIMIT = 64

_NO_MODES = np.empty((0, 3))
_NO_MODES.setflags(write=False)


@dataclass(frozen=True, eq=False)
class VarianceReport:
    """Per-node variance with its per-mode breakdown.

    ``per_mode`` is a read-only ``(N-1, 3)`` float array whose rows are
    ``(n, lambda_n, s_n)``, with the normalization ``v_n = (1/2N) * sum(s_n)``
    for the closed-form and modal methods; the full-system oracle reports no
    per-mode split (zero rows).  ``bound`` carries the uniform-in-N upper
    bound where one exists (DAPI, F-DPD).
    """

    v_n: float
    per_mode: np.ndarray
    bound: float | None
    method: str
    stable: bool

    def to_csv(self) -> str:
        lines = ["n,lambda,s_n"]
        for n, lam, s in self.per_mode.tolist():
            lines.append(f"{int(n)},{lam!r},{s!r}")
        lines.append(f"V_N,{self.v_n!r}")
        lines.append(f"bound,{self.bound!r}" if self.bound is not None else "bound,none")
        return "\n".join(lines) + "\n"


def _mode_sum_report(lam, s, n, bound, method) -> VarianceReport:
    per_mode = np.column_stack((np.arange(2.0, lam.size + 2.0), lam, s))
    per_mode.setflags(write=False)
    return VarianceReport(math.fsum(s.tolist()) / (2.0 * n), per_mode, bound, method, True)


def _reciprocal(lam: np.ndarray, den: np.ndarray, what: str) -> np.ndarray:
    """Terms 1/den, raising for the first mode whose denominator is <= 0."""
    bad = np.flatnonzero(den <= 0.0)
    if bad.size:
        n = int(bad[0]) + 2
        raise UnboundedVarianceError(f"mode {n} (lambda={lam[n - 2]:.6g}) has {what}", mode_index=n)
    return 1.0 / den


def _p_terms(lam: np.ndarray, gains: PGains) -> np.ndarray:
    den = (gains.f0 + gains.f * lam) * (gains.g0 + gains.g * lam)
    return _reciprocal(lam, den, "zero denominator under P control")


def _dapi_terms(lam: np.ndarray, gains: DapiGains) -> np.ndarray:
    f, g, g0, k_i, c = gains.f, gains.g, gains.g0, gains.k_i, gains.c
    inner = k_i * f * (g0 + lam * (c + g)) / (f + c * g0 + c * lam * (c + g))
    den = f * g * lam * lam + g0 * f * lam + inner
    return _reciprocal(lam, den, "non-positive denominator under DAPI")


def _fdpd_terms(lam: np.ndarray, gains: FdpdGains) -> np.ndarray:
    if gains.tau == 0.0:
        return _p_terms(lam, ideal_pd_equivalent(gains))
    f, g, f0, k_d, tau = gains.f, gains.g, gains.f0, gains.k_d, gains.tau
    pos = f0 + f * lam
    filt = k_d * (tau * g * lam + 1.0) / (tau * tau * pos + tau * g * lam + 1.0)
    den = pos * (g * lam + filt)
    return _reciprocal(lam, den, "non-positive denominator under F-DPD")


def _closed_form(spec: LaplacianSpectrum, kind: str, gains) -> VarianceReport:
    lam = spec.connected_modes()
    s = _TERMS[kind](lam, gains)
    return _mode_sum_report(lam, s, spec.node_count, _bound(kind, gains), METHOD_CLOSED_FORM)


_TERMS = {KIND_P: _p_terms, KIND_DAPI: _dapi_terms, KIND_FDPD: _fdpd_terms}


def _bound(kind: str, gains) -> float | None:
    bounds = {KIND_DAPI: dapi_bound, KIND_FDPD: fdpd_bound}
    return bounds[kind](gains) if kind in bounds else None


def p_variance(spec: LaplacianSpectrum, gains: PGains) -> VarianceReport:
    """Closed-form variance under P control.

    Per mode n >= 2 the contribution is 1 / ((f0 + f*lam)(g0 + g*lam)); a
    non-positive denominator means a marginal mode and raises
    :class:`UnboundedVarianceError`.
    """
    return _closed_form(spec, KIND_P, gains)


def dapi_bound(gains: DapiGains) -> float:
    """Uniform-in-N upper bound (f + c*g0) / (2 * k_i * f * g0)."""
    return (gains.f + gains.c * gains.g0) / (2.0 * gains.k_i * gains.f * gains.g0)


def dapi_variance(spec: LaplacianSpectrum, gains: DapiGains) -> VarianceReport:
    """Closed-form variance under DAPI control.

    Per mode n >= 2 the contribution is

        1 / ( f*g*lam^2 + g0*f*lam
              + k_i*f*(g0 + lam*(c+g)) / (f + c*g0 + c*lam*(c+g)) ),

    the exact squared subsystem norm of the per-mode triple (tests pin it
    against the Lyapunov oracles).  c = 0 is accepted analytically and
    reduces to P control with the integral gain in place of f0.
    """
    return _closed_form(spec, KIND_DAPI, gains)


def fdpd_bound(gains: FdpdGains) -> float:
    """Uniform-in-N upper bound (tau^2 * f0 + 1) / (2 * f0 * k_d)."""
    return (gains.tau**2 * gains.f0 + 1.0) / (2.0 * gains.f0 * gains.k_d)


def fdpd_variance(spec: LaplacianSpectrum, gains: FdpdGains) -> VarianceReport:
    """Closed-form variance under F-DPD control.

    Per mode n >= 2 the contribution is

        1 / ( (f0 + f*lam) * ( g*lam + k_d*(tau*g*lam + 1)
                               / (tau^2*(f0 + f*lam) + tau*g*lam + 1) ) )

    tau = 0 is the ideal-PD case and is evaluated through the equivalent P
    law with the derivative gain in place of g0.
    """
    return _closed_form(spec, KIND_FDPD, gains)


def variance_by_kind(spec: LaplacianSpectrum, kind: str, gains) -> VarianceReport:
    """Closed-form dispatch on controller kind."""
    if kind not in _TERMS:
        raise InvalidParameterError(f"unknown controller kind {kind!r}")
    return _closed_form(spec, kind, gains)


# ---------------------------------------------------------------------------
# Lyapunov-equation oracles.
# ---------------------------------------------------------------------------


def solve_lyapunov(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Solve A^T P + P A = -Q for Hurwitz A by Kronecker vectorization.

    Intended for the small per-mode blocks; the result is symmetrized and
    the residual is checked against 1e-10 * ||Q||.
    """
    a = np.asarray(a, dtype=float)
    q = np.asarray(q, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape != q.shape:
        raise InvalidParameterError(f"need square A and matching Q, got {a.shape}, {q.shape}")
    eigs = np.linalg.eigvals(a)
    if np.any(eigs.real >= 0.0):
        raise InstabilityError(
            f"matrix is not Hurwitz (max real part {eigs.real.max():.3e})"
        )
    n = a.shape[0]
    eye = np.eye(n)
    kron = np.kron(eye, a.T) + np.kron(a.T, eye)
    try:
        vec_p = np.linalg.solve(kron, -q.reshape(-1, order="F"))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular Kronecker system: {exc}") from exc
    p = vec_p.reshape((n, n), order="F")
    p = 0.5 * (p + p.T)
    residual = np.abs(a.T @ p + p @ a + q).max()
    q_norm = max(np.abs(q).max(), 1e-300)
    if residual > 1e-10 * max(q_norm, 1.0):
        raise NumericalError(
            f"lyapunov residual {residual:.3e} exceeds tolerance for ||Q||={q_norm:.3e}"
        )
    return p


def modal_variance(spec: LaplacianSpectrum, kind: str, gains) -> VarianceReport:
    """Per-mode Lyapunov oracle: sum of tr(B_n^T P_n B_n) over modes n >= 2.

    The network-average mode n = 1 produces no output and is excluded.
    F-DPD with tau = 0 is routed through the equivalent P subsystems.
    """
    sub_kind, sub_gains = kind, gains
    if kind == KIND_FDPD and gains.tau == 0.0:
        sub_kind, sub_gains = KIND_P, ideal_pd_equivalent(gains)
    lam = spec.connected_modes()
    terms = []
    for n, mode_lam in enumerate(lam.tolist(), start=2):
        sub = modal_subsystem(sub_kind, sub_gains, mode_lam, n)
        if not is_stable_mode(sub):
            raise InstabilityError(
                f"mode {n} (lambda={mode_lam:.6g}) is not Hurwitz", mode_index=n
            )
        p = solve_lyapunov(sub.a, sub.c.T @ sub.c)
        terms.append(2.0 * float(sub.b[:, 0] @ p @ sub.b[:, 0]))
    bound = _bound(kind, gains)
    return _mode_sum_report(lam, np.array(terms), spec.node_count, bound, METHOD_MODAL_LYAPUNOV)


def _mean_deflation_basis(n: int) -> np.ndarray:
    """Orthonormal Helmert-style basis of the complement of the all-ones vector."""
    basis = np.zeros((n, n - 1))
    for k in range(1, n):
        basis[:k, k - 1] = 1.0
        basis[k, k - 1] = -float(k)
        basis[:, k - 1] /= math.sqrt(k * (k + 1.0))
    return basis


def full_variance(
    system: ClosedLoopSystem, size_limit: int = DEFAULT_ORACLE_LIMIT
) -> VarianceReport:
    """Full-system oracle on the assembled block matrices.

    Every state block acts on the all-ones vector through a scalar (the
    Laplacian annihilates it), so the network-average directions span an
    exactly invariant subspace that the centering output cannot see.  They
    are projected out with an orthonormal mean-deflation basis per block --
    this removes the marginal average dynamics -- and the variance is
    tr(C X C^T) with X the controllability Gramian of the reduced system
    (Bartels-Stewart solve).  A marginal eigenvalue surviving the deflation
    is observable by construction and aborts the oracle.
    """
    if system.n > size_limit:
        raise OracleSizeError(
            f"system has N={system.n} nodes, full oracle capped at {size_limit}"
        )
    n = system.n
    blocks = system.state_dim // n
    w = _mean_deflation_basis(n)
    basis = scipy.linalg.block_diag(*([w] * blocks))

    # the deflated directions must be invisible in the output
    averages = scipy.linalg.block_diag(*([np.ones((n, 1)) / math.sqrt(n)] * blocks))
    observability = float(np.abs(system.c @ averages).max())
    if observability > 1e-10:
        raise MarginalModeObservableError(
            f"network-average direction visible in output (|C v| = {observability:.3e})"
        )

    a_red = basis.T @ system.a @ basis
    b_red = basis.T @ system.b
    c_red = system.c @ basis

    eigs = np.linalg.eigvals(a_red)
    scale = max(1.0, float(np.abs(eigs).max()))
    tol = 1e-9 * scale
    if np.any(eigs.real > tol):
        raise InstabilityError(
            f"closed loop has eigenvalue with real part {eigs.real.max():.3e} > 0"
        )
    if np.any(np.abs(eigs.real) <= tol):
        raise MarginalModeObservableError(
            "marginal mode outside the network-average subspace; variance undefined"
        )

    try:
        x = scipy.linalg.solve_continuous_lyapunov(a_red, -b_red @ b_red.T)
    except Exception as exc:  # scipy raises LinAlgError subclasses
        raise NumericalError(f"full-oracle Lyapunov solve failed: {exc}") from exc
    x = 0.5 * (x + x.T)
    residual = np.abs(a_red @ x + x @ a_red.T + b_red @ b_red.T).max()
    if residual > 1e-8 * max(1.0, float(np.abs(x).max())) * scale:
        raise NumericalError(f"full-oracle residual {residual:.3e} too large")
    v = float(np.trace(c_red @ x @ c_red.T))
    return VarianceReport(v / n, _NO_MODES, None, METHOD_FULL_LYAPUNOV, True)

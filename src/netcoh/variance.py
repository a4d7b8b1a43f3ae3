"""Per-node output variance of the noise-driven closed loops.

Three independent evaluation routes are provided and cross-checked in tests:

* closed forms -- the per-mode sums for P, DAPI and F-DPD control together
  with the uniform-in-N upper bounds for the latter two;
* a modal oracle -- the small Lyapunov equation of every Laplacian
  eigenvalue, all solved at once: the stacked modal matrices get one
  Routh-Hurwitz test and one stacked solve of their Kronecker systems;
* a full-system oracle -- one real Schur form of the assembled block matrix,
  after deflating the marginal, unobservable network-average directions
  with ``scipy.linalg.helmert``, gives both the eigenvalue checks and a
  triangular Sylvester solve.

The closed forms are numpy array expressions over the eigenvalues of modes
n >= 2, with no loop over modes.  Their terms, like the modal oracle's, are
summed exactly in numpy and rounded once, so each sum is correctly rounded
at any N and equals ``math.fsum`` of the terms bit for bit.  A non-finite
term or an overflowing sum raises :class:`NumericalError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .closed_loop import (
    KIND_DAPI,
    KIND_FDPD,
    KIND_P,
    ClosedLoopSystem,
    DapiGains,
    FdpdGains,
    PGains,
    _check_gains,
    ideal_pd_equivalent,
    modal_matrices,
    routh_hurwitz,
)
from .csvrows import csv_lines
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
# largest estimated relative error of a modal-oracle V_N, the cross-check tolerance
MODAL_FORWARD_TOL = 1e-8

_NO_MODES = np.empty((0, 3))
_NO_MODES.setflags(write=False)

# _mode_sum's exact summation.  np.frexp writes a term as frac * 2**exp with
# 0.5 <= |frac| < 1, so frac * 2**53 is an integer below 2**53 in magnitude.
# Its high 27 and low 26 bits, summed per exponent over a chunk of 2**16
# terms, give float64 bins below 2**43, so bincount adds them exactly.
_SUM_CHUNK = 1 << 16
_SUBNORMAL_EXP = -1073  # np.frexp's exponent of the smallest subnormal, 2**-1074
_SUM_SCALE = 1 << 1126  # 2**(53 - _SUBNORMAL_EXP), so that every shift is >= 0


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

    def to_csv(self) -> str:
        modes = self.per_mode[:, 0].astype(np.int64).tolist()
        cells = chain.from_iterable(csv_lines([self.per_mode[:, 1:]]))
        lines = ["n,lambda,s_n", *(f"{n},{row}" for n, row in zip(modes, cells)), f"V_N,{self.v_n!r}"]
        lines.append(f"bound,{self.bound!r}" if self.bound is not None else "bound,none")
        return "\n".join(lines) + "\n"


def _mode_sum(terms: np.ndarray) -> float:
    """The correctly rounded sum of the terms of modes n = 2, 3, ...

    Equals ``math.fsum(terms.tolist())`` bit for bit: the terms are added
    exactly as one Python int in units of 2**-1126, and one int division
    rounds it half to even.  Raises :class:`NumericalError` naming the
    first mode whose term is not finite, and when the sum overflows.
    """
    bad = np.flatnonzero(~np.isfinite(terms))
    if bad.size:
        n = int(bad[0]) + 2
        raise NumericalError(f"mode {n} has a non-finite term {float(terms[n - 2])!r}")
    total = 0
    for start in range(0, terms.size, _SUM_CHUNK):
        frac, exp = np.frexp(terms[start:start + _SUM_CHUNK])
        first = int(exp.min())
        exp -= first
        hi = np.trunc(frac * 2.0**27)
        frac *= 2.0**53
        frac -= hi * 2.0**26  # the low 26 bits, signed like the term
        bins = zip(np.bincount(exp, hi).tolist(), np.bincount(exp, frac).tolist())
        for shift, (h, lo) in enumerate(bins, first - _SUBNORMAL_EXP):
            if h or lo:
                total += ((int(h) << 26) + int(lo)) << shift
    try:
        return total / _SUM_SCALE
    except OverflowError:
        raise NumericalError(f"the sum of {terms.size} mode terms overflows") from None


def _mode_sum_report(lam, s, n, bound, method) -> VarianceReport:
    per_mode = np.column_stack((np.arange(2.0, lam.size + 2.0), lam, s))
    per_mode.setflags(write=False)
    return VarianceReport(_mode_sum(s) / (2.0 * n), per_mode, bound, method)


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
    _check_gains(kind, gains)
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
    return _closed_form(spec, kind, gains)


# ---------------------------------------------------------------------------
# Lyapunov-equation oracles.
# ---------------------------------------------------------------------------


def _lyapunov_stack(a: np.ndarray, q: np.ndarray, hurwitz=None):
    """Solve A_k^T P_k + P_k A_k = -Q for a ``(k, d, d)`` stack, in one batch.

    Returns the symmetrized solutions and, in check order, ``(failed mask,
    error for index i)`` pairs: ``hurwitz`` (default: an eigenvalue test),
    singular Kronecker system, residual above the backward-error bound
    1e-10 * max(2 ||A_k|| ||P_k|| + ||Q||, 1) in max-abs norms.
    """
    k, d, _ = a.shape
    if hurwitz is None:
        finite = np.isfinite(a).all(axis=(1, 2))  # eigvals rejects a whole stack with one inf or nan
        eigs = np.full((k, d), np.nan + 0j)
        eigs[finite] = np.linalg.eigvals(a[finite])
        hurwitz = (~finite | np.any(eigs.real >= 0.0, axis=1), lambda i: InstabilityError(
            f"matrix is not Hurwitz (max real part {eigs[i].real.max():.3e})"))
    at = a.swapaxes(1, 2)
    eye = np.eye(d)
    # np.kron(I, A^T) + np.kron(A^T, I) for every matrix of the stack
    kron = eye[:, None, :, None] * at[:, None, :, None, :] + at[:, :, None, :, None] * eye[None, :, None, :]
    kron = kron.reshape(k, d * d, d * d)
    rhs = np.broadcast_to(-q.reshape(-1, 1, order="F"), (k, d * d, 1))
    singular = {}
    try:
        vec_p = np.linalg.solve(kron, rhs)
    except np.linalg.LinAlgError:  # find the singular systems one by one
        vec_p = np.zeros((k, d * d, 1))
        for i in range(k):
            try:
                vec_p[i] = np.linalg.solve(kron[i], rhs[i])
            except np.linalg.LinAlgError as exc:
                singular[i] = exc
    p = vec_p.reshape(k, d, d).swapaxes(1, 2)
    p = 0.5 * (p + p.swapaxes(1, 2))
    with np.errstate(invalid="ignore"):  # non-finite matrices already fail the first check
        residual = np.abs(at @ p + p @ a + q).max(axis=(1, 2), initial=0.0)
        scale = 2.0 * np.abs(a).max(axis=(1, 2)) * np.abs(p).max(axis=(1, 2)) + np.abs(q).max()
    tol = 1e-10 * np.maximum(scale, 1.0)
    return p, [
        hurwitz,
        (np.isin(np.arange(k), list(singular)), lambda i: NumericalError(
            f"singular Kronecker system: {singular[i]}")),
        (~(residual <= tol) | np.isinf(tol), lambda i: NumericalError(
            f"lyapunov residual {residual[i]:.3e} exceeds tolerance {tol[i]:.3e}")),
    ]


def _raise_first(checks) -> None:
    """Raise the first failed check of the lowest failing index, if any."""
    failed = np.array([mask for mask, _ in checks])
    bad = np.flatnonzero(failed.any(axis=0))
    if bad.size:
        i = int(bad[0])
        raise checks[int(np.argmax(failed[:, i]))][1](i)


def solve_lyapunov(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Solve A^T P + P A = -Q for Hurwitz A by Kronecker vectorization.

    Intended for the small per-mode blocks; the result is symmetrized and
    the residual is checked against 1e-10 * max(2 ||A|| ||P|| + ||Q||, 1).
    """
    a = np.asarray(a, dtype=float)
    q = np.asarray(q, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape != q.shape:
        raise InvalidParameterError(f"need square A and matching Q, got {a.shape}, {q.shape}")
    p, checks = _lyapunov_stack(a[None], q)
    _raise_first(checks)
    return p[0]


def modal_variance(spec: LaplacianSpectrum, kind: str, gains) -> VarianceReport:
    """Per-mode Lyapunov oracle: sum of tr(B_n^T P_n B_n) over modes n >= 2.

    The network-average mode n = 1 produces no output and is excluded.
    F-DPD with tau = 0 is routed through the equivalent P subsystems.  All
    modes are solved at once; the lowest failing mode raises, its checks in
    the order Routh-Hurwitz (the only Hurwitz test), solve, residual.  Then V_N is
    returned only if its estimated forward error is at most
    ``MODAL_FORWARD_TOL``; otherwise :class:`NumericalError` names the worst
    mode.
    """
    _check_gains(kind, gains)
    sub_kind, sub_gains = kind, gains
    if kind == KIND_FDPD and gains.tau == 0.0:
        sub_kind, sub_gains = KIND_P, ideal_pd_equivalent(gains)
    lam = spec.connected_modes()
    a = modal_matrices(sub_kind, sub_gains, lam)
    q = np.diag(np.eye(a.shape[-1])[0])  # C^T C: the output reads the x-component
    p, checks = _lyapunov_stack(a, q, (~routh_hurwitz(a), lambda i: InstabilityError(
        f"mode {i + 2} (lambda={lam[i]:.6g}) is not Hurwitz", mode_index=i + 2)))
    _raise_first(checks)
    terms = 2.0 * p[:, 1, 1]
    # The residual test bounds only the backward error; a slow mode can pass
    # it with P_k wrong in every digit.  Term k's relative forward error is
    # about u * cond_k, with cond_k ~ 2 ||A_k|| ||P_k|| / ||Q|| (here ||Q|| = 1).
    with np.errstate(over="ignore"):  # an overflowing estimate fails as inf
        err = np.finfo(float).eps * np.abs(a).max(axis=(1, 2)) * np.abs(p).max(axis=(1, 2)) * np.abs(terms)
    if err.sum() > MODAL_FORWARD_TOL * abs(terms.sum()):
        i = int(np.argmax(err))
        raise NumericalError(f"modal V_N forward error estimate {err.sum() / abs(terms.sum()):.3e} exceeds "
                             f"{MODAL_FORWARD_TOL:.0e}; mode {i + 2} (lambda={lam[i]:.6g}) is ill-conditioned")
    bound = _bound(kind, gains)
    return _mode_sum_report(lam, terms, spec.node_count, bound, METHOD_MODAL_LYAPUNOV)


def full_variance(
    system: ClosedLoopSystem, size_limit: int = DEFAULT_ORACLE_LIMIT
) -> VarianceReport:
    """Full-system oracle on the assembled block matrices.

    Every state block acts on the all-ones vector through a scalar (the
    Laplacian annihilates it), so the network-average directions span an
    exactly invariant subspace that the centering output cannot see.  They
    are projected out with the orthonormal ``scipy.linalg.helmert`` basis per
    block -- this removes the marginal average dynamics -- and the variance is
    tr(C X C^T) with X the controllability Gramian of the reduced system
    (Bartels-Stewart solve).  A marginal eigenvalue surviving the deflation
    is observable by construction and aborts the oracle.
    """
    if system.n > size_limit:
        raise OracleSizeError(
            f"system has N={system.n} nodes, full oracle capped at {size_limit}"
        )
    import scipy.linalg  # its only user: importing it costs most of `import netcoh`

    n = system.n
    blocks = system.state_dim // n
    # Helmert row 0 is the network average 1/sqrt(n); rows 1..n-1 span its complement
    helmert = scipy.linalg.helmert(n, full=True)
    basis = scipy.linalg.block_diag(*([helmert[1:].T] * blocks))

    # the deflated directions must be invisible in the output
    averages = scipy.linalg.block_diag(*([helmert[:1].T] * blocks))
    observability = float(np.abs(system.c @ averages).max())
    if observability > 1e-10:
        raise MarginalModeObservableError(
            f"network-average direction visible in output (|C v| = {observability:.3e})"
        )

    a_red = basis.T @ system.a @ basis
    b_red = basis.T @ system.b
    c_red = system.c @ basis

    # one real Schur form a_red = Z T Z^T serves the checks and the solve
    gees = scipy.linalg.lapack.dgees
    lwork = int(gees(lambda re, im: None, a_red, lwork=-1)[-2][0])  # workspace query
    t, _, wr, wi, z, _, info = gees(lambda re, im: None, a_red, lwork=lwork)
    if info:
        raise NumericalError(f"full-oracle Schur decomposition failed (info={info})")
    scale = max(1.0, float(np.hypot(wr, wi).max()))
    tol = 1e-9 * scale
    if np.any(wr > tol):
        raise InstabilityError(f"closed loop has eigenvalue with real part {wr.max():.3e} > 0")
    if np.any(np.abs(wr) <= tol):
        raise MarginalModeObservableError(
            "marginal mode outside the network-average subspace; variance undefined"
        )
    # T Y + Y T^T = Z^T (-B B^T) Z, then X = Z Y Z^T
    y, trsyl_scale, info = scipy.linalg.lapack.dtrsyl(t, t, z.T @ (-b_red @ b_red.T @ z), tranb="T")
    if info or trsyl_scale != 1.0:
        raise NumericalError(f"full-oracle Lyapunov solve failed (info={info}, scale={trsyl_scale})")
    x = z @ y @ z.T
    x = 0.5 * (x + x.T)
    residual = np.abs(a_red @ x + x @ a_red.T + b_red @ b_red.T).max()
    if residual > 1e-8 * max(1.0, float(np.abs(x).max())) * scale:
        raise NumericalError(f"full-oracle residual {residual:.3e} too large")
    v = float(np.trace(c_red @ x @ c_red.T))
    return VarianceReport(v / n, _NO_MODES, None, METHOD_FULL_LYAPUNOV)

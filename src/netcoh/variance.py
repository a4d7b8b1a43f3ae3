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
n >= 2, evaluated in chunks of 2**16 modes; each chunk's terms are added to
the exact sum as soon as they are made, in one pass.  Their terms, like the
modal oracle's, are summed exactly in numpy and rounded once, so each sum is
correctly rounded at any N and equals ``math.fsum`` of the terms bit for
bit.  A non-finite term or an overflowing sum raises
:class:`NumericalError`, naming the mode of the term.

A closed-form or modal :class:`VarianceReport` keeps two arrays: the
spectrum's read-only eigenvalues, by reference, and its read-only terms.
Its ``(N-1, 3)`` ``per_mode`` table is built on first read, and ``to_csv``
writes from the two arrays without building it.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable
from dataclasses import FrozenInstanceError

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
from .csvrows import indexed_csv_blocks
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

# _chunk_sum's exact summation.  np.frexp writes a term as frac * 2**exp with
# 0.5 <= |frac| < 1, so frac * 2**53 is an integer below 2**53 in magnitude.
# Its high 27 and low 26 bits, summed per exponent over a chunk of 2**16
# terms, give float64 bins below 2**43, so bincount adds them exactly.
_SUM_CHUNK = 1 << 16
_SUBNORMAL_EXP = -1073  # np.frexp's exponent of the smallest subnormal, 2**-1074
_SUM_SCALE = 1 << 1126  # 2**(53 - _SUBNORMAL_EXP), so that every shift is >= 0

_TABLE_LOCK = threading.Lock()


class VarianceReport:
    """Per-node variance with its per-mode breakdown.

    ``per_mode`` is a read-only ``(N-1, 3)`` float array whose rows are
    ``(n, lambda_n, s_n)``, with the normalization ``v_n = (1/2N) * sum(s_n)``
    for the closed-form and modal methods; the full-system oracle reports no
    per-mode split (zero rows).  The closed-form and modal reports keep only
    the eigenvalues and the terms, and build the table on its first read;
    every later read returns that same array.  ``bound`` carries the
    uniform-in-N upper bound where one exists (DAPI, F-DPD).  Reports are
    immutable: assigning an attribute raises ``FrozenInstanceError``.
    """

    v_n: float
    bound: float | None
    method: str

    def __init__(self, v_n: float, per_mode: np.ndarray, bound: float | None, method: str):
        self.__dict__.update(v_n=v_n, bound=bound, method=method,
                             _lam=per_mode[:, 1], _terms=per_mode[:, 2], _table=per_mode)

    @classmethod
    def _of_modes(cls, v_n: float, lam: np.ndarray, terms: np.ndarray, bound, method: str):
        """The report of modes n = 2..N with eigenvalues ``lam`` and terms ``terms``, both kept."""
        terms.setflags(write=False)
        report = cls.__new__(cls)
        report.__dict__.update(v_n=v_n, bound=bound, method=method, _lam=lam, _terms=terms, _table=None)
        return report

    @property
    def per_mode(self) -> np.ndarray:
        """The read-only ``(N-1, 3)`` table of ``(n, lambda_n, s_n)`` rows."""
        if self._table is None:
            with _TABLE_LOCK:  # two threads reading at once get one table
                if self._table is None:
                    table = np.empty((3, self._lam.size))  # per_mode is its transposed view
                    table[0] = np.arange(2, self._lam.size + 2)
                    table[1] = self._lam
                    table[2] = self._terms
                    table.setflags(write=False)
                    self.__dict__["_table"] = table.T
        return self._table

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return (f"VarianceReport(v_n={self.v_n!r}, modes={self._lam.size}, "
                f"bound={self.bound!r}, method={self.method!r})")

    def to_csv(self) -> str:
        """``n,lambda,s_n`` rows, then ``V_N`` and ``bound``; written without building ``per_mode``."""
        if self._table is None:
            modes = np.arange(2, self._lam.size + 2)
        else:
            modes = self._table[:, 0].astype(np.int64)
        bound = "none" if self.bound is None else repr(self.bound)
        blocks = indexed_csv_blocks(modes, [self._lam, self._terms])
        return "".join(["n,lambda,s_n\n", *blocks, f"V_N,{self.v_n!r}\nbound,{bound}\n"])


def _chunk_sum(terms: np.ndarray) -> int:
    """The exact sum of up to 2**16 finite terms, a Python int in units of 2**-1126."""
    frac, exp = np.frexp(terms)
    first = int(exp.min())
    exp -= first
    hi = np.trunc(frac * 2.0**27)
    frac *= 2.0**53
    frac -= hi * 2.0**26  # the low 26 bits, signed like the term
    total = 0
    bins = zip(np.bincount(exp, hi).tolist(), np.bincount(exp, frac).tolist())
    for shift, (h, lo) in enumerate(bins, first - _SUBNORMAL_EXP):
        if h or lo:
            total += ((int(h) << 26) + int(lo)) << shift
    return total


def _sum_chunks(chunks: Iterable[np.ndarray]) -> float:
    """The correctly rounded sum of the terms that ``chunks`` yields for modes n = 2, 3, ...

    Each chunk holds at most ``_SUM_CHUNK`` terms.  The result equals
    ``math.fsum`` of all the terms bit for bit: they are added exactly as one
    Python int in units of 2**-1126, and one int division rounds it half to
    even.  Raises :class:`NumericalError` naming the first mode whose term is
    not finite, and when the sum overflows.  The first error is raised only
    once every chunk is drawn, so an error that making a later chunk raises
    comes first.
    """
    total, count, bad = 0, 0, None
    for terms in chunks:
        if bad is None:
            nonfinite = np.flatnonzero(~np.isfinite(terms))
            if nonfinite.size:
                i = int(nonfinite[0])
                bad = f"mode {count + i + 2} has a non-finite term {float(terms[i])!r}"
            else:
                total += _chunk_sum(terms)
        count += terms.size
    if bad is not None:
        raise NumericalError(bad)
    try:
        return total / _SUM_SCALE
    except OverflowError:
        raise NumericalError(f"the sum of {count} mode terms overflows") from None


def _mode_sum(terms: np.ndarray) -> float:
    """:func:`_sum_chunks` over the terms of modes n = 2, 3, ... held in one array."""
    return _sum_chunks(terms[i:i + _SUM_CHUNK] for i in range(0, terms.size, _SUM_CHUNK))


def _p_den(lam: np.ndarray, gains: PGains) -> np.ndarray:
    return (gains.f0 + gains.f * lam) * (gains.g0 + gains.g * lam)


def _dapi_den(lam: np.ndarray, gains: DapiGains) -> np.ndarray:
    f, g, g0, k_i, c = gains.f, gains.g, gains.g0, gains.k_i, gains.c
    inner = k_i * f * (g0 + lam * (c + g)) / (f + c * g0 + c * lam * (c + g))
    return f * g * lam * lam + g0 * f * lam + inner


def _fdpd_den(lam: np.ndarray, gains: FdpdGains) -> np.ndarray:
    f, g, f0, k_d, tau = gains.f, gains.g, gains.f0, gains.k_d, gains.tau
    pos = f0 + f * lam
    filt = k_d * (tau * g * lam + 1.0) / (tau * tau * pos + tau * g * lam + 1.0)
    return pos * (g * lam + filt)


# kind -> the denominator of its mode term, and what a non-positive one means
_DENOMINATORS = {
    KIND_P: (_p_den, "zero denominator under P control"),
    KIND_DAPI: (_dapi_den, "non-positive denominator under DAPI"),
    KIND_FDPD: (_fdpd_den, "non-positive denominator under F-DPD"),
}


def _term_law(kind: str, gains):
    """The controller whose mode terms are evaluated: F-DPD at tau = 0 is the ideal-PD P law."""
    if kind == KIND_FDPD and gains.tau == 0.0:
        return KIND_P, ideal_pd_equivalent(gains)
    return kind, gains


def _terms(kind: str, gains, lam: np.ndarray, first: int = 0, out: np.ndarray | None = None) -> np.ndarray:
    """Mode terms 1/den of ``lam``, whose first entry is mode ``first + 2``.

    Raises :class:`UnboundedVarianceError` for the first mode whose
    denominator is <= 0.  ``kind`` is not F-DPD at tau = 0 (see :func:`_term_law`).
    """
    den_of, what = _DENOMINATORS[kind]
    den = den_of(lam, gains)
    bad = np.flatnonzero(den <= 0.0)
    if bad.size:
        i = int(bad[0])
        n = first + i + 2
        raise UnboundedVarianceError(f"mode {n} (lambda={lam[i]:.6g}) has {what}", mode_index=n)
    return np.divide(1.0, den, out=out)


def _closed_form(spec: LaplacianSpectrum, kind: str, gains) -> VarianceReport:
    """Terms and their exact sum in one pass over chunks of ``_SUM_CHUNK`` modes."""
    _check_gains(kind, gains)
    lam = spec.connected_modes()
    law = _term_law(kind, gains)
    terms = np.empty_like(lam)
    chunks = (_terms(*law, lam[i:i + _SUM_CHUNK], i, terms[i:i + _SUM_CHUNK])
              for i in range(0, lam.size, _SUM_CHUNK))
    v_n = _sum_chunks(chunks) / (2.0 * spec.node_count)
    return VarianceReport._of_modes(v_n, lam, terms, _bound(kind, gains), METHOD_CLOSED_FORM)


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
    lam = spec.connected_modes()
    a = modal_matrices(*_term_law(kind, gains), lam)
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
    v_n = _mode_sum(terms) / (2.0 * spec.node_count)
    return VarianceReport._of_modes(v_n, lam, terms, bound, METHOD_MODAL_LYAPUNOV)


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

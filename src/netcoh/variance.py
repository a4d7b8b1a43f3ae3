"""Per-node output variance of the noise-driven closed loops.

Three independent evaluation routes are provided and cross-checked in tests:

* closed forms -- the per-mode sums for P, DAPI and F-DPD control together
  with the uniform-in-N upper bounds for the latter two;
* a modal oracle -- every Laplacian mode's Lyapunov solution in closed form
  from its characteristic polynomial, whose coefficients also give the
  Routh-Hurwitz test, guarded by a running bound on its rounding error;
* a full-system oracle -- one real Schur form of the assembled block matrix,
  after deflating the marginal, unobservable network-average directions
  with ``scipy.linalg.helmert``, gives both the eigenvalue checks and a
  triangular Sylvester solve.

The closed forms are numpy array expressions over the eigenvalues of modes
n >= 2, in two steps: the terms are filled in chunks of 2**16 modes, then
summed once.  Their terms, like the modal oracle's, are summed exactly in
numpy and rounded once, so each sum is correctly rounded at any N and
equals ``math.fsum`` of the terms bit for bit.  A non-finite term or an
overflowing sum raises :class:`NumericalError`, naming the mode of the term.

A :class:`VarianceReport` is its modes: ``v_n``, ``bound`` and ``method``
with two read-only arrays, the spectrum's eigenvalues of modes 2..N, by
reference, and their terms.  Its ``(N-1, 3)`` ``per_mode`` table is built
on first read, and ``to_csv`` writes from the two arrays without building it.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .closed_loop import (
    KIND_DAPI,
    KIND_FDPD,
    KIND_P,
    ClosedLoopSystem,
    DapiGains,
    FdpdGains,
    PGains,
    _char_poly,
    _check_gains,
    _hurwitz,
    _integer,
    _law,
    modal_matrices,
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

_NO_VALUES = np.empty(0)  # the full oracle's eigenvalues and terms: it reports no modes
_NO_VALUES.setflags(write=False)

# _chunk_sum's exact summation, by levels: each level cuts the remainders
# to integer multiples q * 2**unit with |q| < 2**(52 - bit_length(size)),
# so the float sum of a chunk's q is exact, and subtracts them exactly.
_SUM_CHUNK = 1 << 16
_SUM_SCALE = 1 << 1074  # the exact sum is an int in units of 2**-1074, the smallest subnormal
_LIFT_EXP = 1000  # _chunk_sum lifts remainders too small for a normal 2**unit by 2**_LIFT_EXP

_TABLE_LOCK = threading.Lock()


@dataclass(frozen=True, eq=False)
class VarianceReport:
    """Per-node variance with its per-mode breakdown.

    ``eigenvalues`` and ``terms`` are arrays over modes n = 2..N, which the
    constructor marks read-only: lambda_n, by reference to the spectrum, and
    the terms s_n, with ``v_n = (1/2N) * sum(s_n)`` for the closed-form and
    modal methods; the full-system oracle reports no per-mode split (empty
    arrays).  ``per_mode``, the read-only ``(N-1, 3)`` table of
    ``(n, lambda_n, s_n)`` rows, is built on its first read; every later
    read returns that same array.  ``bound`` carries the uniform-in-N upper
    bound where one exists (DAPI, F-DPD).  Reports are immutable: assigning
    an attribute raises ``FrozenInstanceError``.
    """

    v_n: float
    bound: float | None
    method: str
    eigenvalues: np.ndarray = field(default_factory=lambda: _NO_VALUES, repr=False)
    terms: np.ndarray = field(default_factory=lambda: _NO_VALUES, repr=False)

    def __post_init__(self):
        if not (isinstance(self.eigenvalues, np.ndarray) and isinstance(self.terms, np.ndarray)
                and self.terms.ndim == 1 and self.eigenvalues.shape == self.terms.shape):
            raise InvalidParameterError(f"need eigenvalues and terms as arrays of one 1-D shape, "
                                        f"got {np.shape(self.eigenvalues)} and {np.shape(self.terms)}")
        self.eigenvalues.setflags(write=False)
        self.terms.setflags(write=False)

    @property
    def per_mode(self) -> np.ndarray:
        """The read-only ``(N-1, 3)`` table of ``(n, lambda_n, s_n)`` rows."""
        if "_table" not in self.__dict__:
            with _TABLE_LOCK:  # two threads reading at once get one table
                if "_table" not in self.__dict__:
                    table = np.empty((3, self.terms.size))  # per_mode is its transposed view
                    table[0] = np.arange(2, self.terms.size + 2)
                    table[1] = self.eigenvalues
                    table[2] = self.terms
                    table.setflags(write=False)
                    self.__dict__["_table"] = table.T
        return self.__dict__["_table"]

    def to_csv(self) -> str:
        """``n,lambda,s_n`` rows, then ``V_N`` and ``bound``; written without building ``per_mode``."""
        bound = "none" if self.bound is None else repr(self.bound)
        blocks = indexed_csv_blocks(np.arange(2, self.terms.size + 2), [self.eigenvalues, self.terms])
        return "".join(["n,lambda,s_n\n", *blocks, f"V_N,{self.v_n!r}\nbound,{bound}\n"])


def _chunk_sum(terms: np.ndarray, top: float, r: np.ndarray, q: np.ndarray) -> int:
    """The exact sum of finite ``terms``, at most 2**16 of them, whose largest
    magnitude is ``top``: a Python int in units of 2**-1074.

    ``r`` and ``q`` are scratch arrays of the terms' size.  Level by level,
    ``2**unit`` is the smallest power of two with ``|r| * 2**-unit < 2**width``,
    ``q = trunc(r * 2**-unit)`` are integers whose float sum is exact, and
    ``r -= q * 2**unit`` is exact.  Truncation, unlike rounding to nearest,
    never takes ``q * 2**unit`` past ``|r|``, so a term near the largest
    double does not overflow.  Each level clears about ``width`` binades;
    the loop ends when ``r`` is all zero, at the latest at ``unit = -1074``.
    """
    width = 52 - terms.size.bit_length()
    total, lift, src = 0, 0, terms  # src holds the remainders times 2**lift
    while top:
        unit = math.frexp(top)[1] - width
        if unit < -1022:  # lift once, so that 2**unit and 2**-unit stay normal
            np.multiply(src, 2.0**_LIFT_EXP, out=r)
            src, lift, unit = r, _LIFT_EXP, unit + _LIFT_EXP
        unit = max(unit, lift - 1074)
        np.multiply(src, 2.0**-unit, out=q)
        np.trunc(q, out=q)
        total += int(q.sum()) << (unit - lift + 1074)
        q *= 2.0**unit
        src = np.subtract(src, q, out=r)
        top = float(max(r.max(), -r.min()))
    return total


def _mode_sum(terms: np.ndarray) -> float:
    """The correctly rounded sum of the terms of modes n = 2, 3, ... held in one array.

    The result equals ``math.fsum`` of the terms bit for bit: chunks of
    ``_SUM_CHUNK`` terms are added exactly as one Python int in units of
    2**-1074, and one int division rounds it half to even.  Raises
    :class:`NumericalError` naming the first mode whose term is not finite,
    and when the sum overflows.
    """
    total, work = 0, np.empty((2, min(terms.size, _SUM_CHUNK)))
    for i in range(0, terms.size, _SUM_CHUNK):
        chunk = terms[i:i + _SUM_CHUNK]
        hi, lo = chunk.max(), chunk.min()
        if not (-math.inf < lo and hi < math.inf):  # true for nan too
            j = int(np.flatnonzero(~np.isfinite(chunk))[0])
            raise NumericalError(f"mode {i + j + 2} has a non-finite term {float(chunk[j])!r}")
        total += _chunk_sum(chunk, float(max(hi, -lo)), *work[:, :chunk.size])
    try:
        return total / _SUM_SCALE
    except OverflowError:
        raise NumericalError(f"the sum of {terms.size} mode terms overflows") from None


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


def dapi_bound(gains: DapiGains) -> float:
    """Uniform-in-N upper bound (f + c*g0) / (2 * k_i * f * g0)."""
    return (gains.f + gains.c * gains.g0) / (2.0 * gains.k_i * gains.f * gains.g0)


def fdpd_bound(gains: FdpdGains) -> float:
    """Uniform-in-N upper bound (tau^2 * f0 + 1) / (2 * f0 * k_d)."""
    return (gains.tau**2 * gains.f0 + 1.0) / (2.0 * gains.f0 * gains.k_d)


# kind -> the denominator of its mode term, what a non-positive one means, and its uniform-in-N bound
_CLOSED_FORMS = {
    KIND_P: (_p_den, "zero denominator under P control", None),
    KIND_DAPI: (_dapi_den, "non-positive denominator under DAPI", dapi_bound),
    KIND_FDPD: (_fdpd_den, "non-positive denominator under F-DPD", fdpd_bound),
}


def _terms(kind: str, gains, lam: np.ndarray, first: int = 0, out: np.ndarray | None = None) -> np.ndarray:
    """Mode terms 1/den of ``lam``, whose first entry is mode ``first + 2``.

    Raises :class:`UnboundedVarianceError` for the first mode whose
    denominator is <= 0.  ``kind`` and ``gains`` are a controller's law (see
    :func:`~netcoh.closed_loop._law`): not F-DPD at tau = 0.
    """
    den_of, what, _ = _CLOSED_FORMS[kind]
    den = den_of(lam, gains)
    bad = np.flatnonzero(den <= 0.0)
    if bad.size:
        i = int(bad[0])
        n = first + i + 2
        raise UnboundedVarianceError(f"mode {n} (lambda={lam[i]:.6g}) has {what}", mode_index=n)
    return np.divide(1.0, den, out=out)


def _bound(kind: str, gains) -> float | None:
    bound = _CLOSED_FORMS[kind][2]
    return None if bound is None else bound(gains)


def p_variance(spec: LaplacianSpectrum, gains: PGains) -> VarianceReport:
    """Closed-form variance under P control.

    Per mode n >= 2 the contribution is 1 / ((f0 + f*lam)(g0 + g*lam)); a
    non-positive denominator means a marginal mode and raises
    :class:`UnboundedVarianceError`.
    """
    return variance_by_kind(spec, KIND_P, gains)


def dapi_variance(spec: LaplacianSpectrum, gains: DapiGains) -> VarianceReport:
    """Closed-form variance under DAPI control.

    Per mode n >= 2 the contribution is

        1 / ( f*g*lam^2 + g0*f*lam
              + k_i*f*(g0 + lam*(c+g)) / (f + c*g0 + c*lam*(c+g)) ),

    the exact squared subsystem norm of the per-mode triple (tests pin it
    against the Lyapunov oracles).  c = 0 is accepted analytically and
    reduces to P control with the integral gain in place of f0.
    """
    return variance_by_kind(spec, KIND_DAPI, gains)


def fdpd_variance(spec: LaplacianSpectrum, gains: FdpdGains) -> VarianceReport:
    """Closed-form variance under F-DPD control.

    Per mode n >= 2 the contribution is

        1 / ( (f0 + f*lam) * ( g*lam + k_d*(tau*g*lam + 1)
                               / (tau^2*(f0 + f*lam) + tau*g*lam + 1) ) )

    tau = 0 is the ideal-PD case: its terms are those of the equivalent P
    law, the derivative gain in place of g0, and its bound is 1/(2 f0 k_d).
    """
    return variance_by_kind(spec, KIND_FDPD, gains)


def variance_by_kind(spec: LaplacianSpectrum, kind: str, gains) -> VarianceReport:
    """Closed-form dispatch on controller kind.

    The terms are filled in chunks of ``_SUM_CHUNK`` modes, so that the
    denominators' temporaries stay chunk-sized, and then summed once; every
    denominator is checked before any term is summed.
    """
    law = _law(kind, gains)[:2]
    lam = spec.connected_modes()
    terms = np.empty_like(lam)
    for i in range(0, lam.size, _SUM_CHUNK):
        _terms(*law, lam[i:i + _SUM_CHUNK], i, terms[i:i + _SUM_CHUNK])
    v_n = _mode_sum(terms) / (2.0 * spec.node_count)
    return VarianceReport(v_n, _bound(kind, gains), METHOD_CLOSED_FORM, lam, terms)


# ---------------------------------------------------------------------------
# Lyapunov-equation oracles.
# ---------------------------------------------------------------------------


def solve_lyapunov(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Solve A^T P + P A = -Q for a small finite Hurwitz A by Kronecker vectorization; the result
    is symmetrized and its residual checked against 1e-10 * max(2 ||A|| ||P|| + ||Q||, 1), max-abs norms."""
    a = np.asarray(a, dtype=float)
    q = np.asarray(q, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape != q.shape:
        raise InvalidParameterError(f"need square A and matching Q, got {a.shape}, {q.shape}")
    if not (np.isfinite(a).all() and np.isfinite(q).all()):  # eigvals raises a bare LinAlgError on them
        raise InvalidParameterError("need finite A and Q")
    eigs = np.linalg.eigvals(a)
    if np.any(eigs.real >= 0.0):
        raise InstabilityError(f"matrix is not Hurwitz (max real part {eigs.real.max():.3e})")
    eye = np.eye(a.shape[0])
    try:  # vec(A^T P + P A) = (I (x) A^T + A^T (x) I) vec(P), vec stacking columns
        p = np.linalg.solve(np.kron(eye, a.T) + np.kron(a.T, eye), -q.ravel(order="F")).reshape(a.shape, order="F")
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular Kronecker system: {exc}") from None
    p = 0.5 * (p + p.T)
    residual = np.abs(a.T @ p + p @ a + q).max()
    with np.errstate(over="ignore"):  # an overflowing P fails as an infinite tolerance
        tol = 1e-10 * max(2.0 * np.abs(a).max() * np.abs(p).max() + np.abs(q).max(), 1.0)
    if not residual <= tol < math.inf:
        raise NumericalError(f"lyapunov residual {residual:.3e} exceeds tolerance {tol:.3e}")
    return p


def _companion_terms(a: np.ndarray, coeffs: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Terms s_k = 2 ||G_k||^2 of a Routh-Hurwitz stable ``(k, d, d)`` stack, and their error bounds.

    From :func:`_char_poly`'s ``[a_{d-1}, ..., a_0(, h)]`` and b_1 s + b_0 = e_x^T adj(sI - A_k) e_v,
    Astrom's integral table (1970, ch. 5) gives b_0^2 / (a_0 a_1) for d = 2 and, for d = 3,
    (b_1^2 a_0 + b_0^2 a_2) / (a_0 (a_1 a_2 - a_0)) = (b_1^2/a_2 + b_0^2/a_0) / h, whose products overflow.
    A running error bound (Higham 2002, ch. 3) carries each value's error to first order: 5 roundings (a
    product, a 2x2 minor, two sums) times its sum of |monomials|, and for h 9 (a sum, a division, a product, a
    minor, two sums) plus a_2's relative error.  Only h can cancel, inside its expansion, for mixed-sign entries.
    """
    u = np.finfo(float).eps / 2.0
    scales = _char_poly(np.abs(a), 1.0)
    bounds = [5.0 * u * c for c in scales]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # a non-finite bound refuses
        if a.shape[-1] == 2:
            (a1, a0), (e1, e0), b0 = coeffs, bounds, a[:, 0, 1]
            terms = b0 * b0 / (a0 * a1)
            return terms, (e0 / a0 + e1 / a1 + 3.0 * u) * np.abs(terms)
        (a2, _, a0, h), (e2, _, e0, _), b1 = coeffs, bounds, a[:, 0, 1]
        x, y = a[:, 0, 2] * a[:, 2, 1], b1 * a[:, 2, 2]
        b0, r2 = x - y, e2 / a2
        n1, n2 = b1 * (b1 / a2), b0 * (b0 / a0)
        terms = (n1 + n2) / h
        e_num = n1 * (r2 + 3.0 * u) + n2 * (e0 / a0 + 3.0 * u) + 4.0 * u * (np.abs(x) + np.abs(y)) * (np.abs(b0) / a0)
        e_h = (9.0 * u + r2) * scales[-1] * (scales[0] / a2)  # h's sum of |monomials| is scales[-1] sum|a_ii| / a_2
        return terms, (e_num + terms * e_h) / h + u * terms


def modal_variance(spec: LaplacianSpectrum, kind: str, gains) -> VarianceReport:
    """Per-mode oracle: the sum over modes n >= 2 of s_n = 2 e_v^T P_n e_v, where
    A_n^T P_n + P_n A_n = -e_x e_x^T is solved in closed form (:func:`_companion_terms`).

    The network-average mode n = 1 produces no output and is excluded.
    F-DPD with tau = 0 has the 2 x 2 subsystems of its law, ideal PD.
    Routh-Hurwitz is the only Hurwitz test; the lowest unstable mode raises.
    V_N is returned only if its error bound is at most ``MODAL_FORWARD_TOL``
    relative; otherwise :class:`NumericalError` names the worst mode.
    """
    _check_gains(kind, gains)
    lam = spec.connected_modes()
    a = modal_matrices(kind, gains, lam)
    coeffs = _char_poly(a)
    unstable = np.flatnonzero(~_hurwitz(coeffs))
    if unstable.size:
        i = int(unstable[0])
        raise InstabilityError(f"mode {i + 2} (lambda={lam[i]:.6g}) is not Hurwitz", mode_index=i + 2)
    terms, errors = _companion_terms(a, coeffs)
    error, total = errors.sum(), abs(terms.sum())
    if not error <= MODAL_FORWARD_TOL * total:  # a nan bound is refused too
        i = int(np.argmax(errors))
        with np.errstate(divide="ignore", invalid="ignore"):
            estimate = error / total
        raise NumericalError(f"modal V_N forward error estimate {estimate:.3e} exceeds {MODAL_FORWARD_TOL:.0e}; "
                             f"mode {i + 2} (lambda={lam[i]:.6g}) is ill-conditioned")
    v_n = _mode_sum(terms) / (2.0 * spec.node_count)
    return VarianceReport(v_n, _bound(kind, gains), METHOD_MODAL_LYAPUNOV, lam, terms)


def _check_oracle_size(n: int, size_limit: int = DEFAULT_ORACLE_LIMIT) -> None:
    """Raise :class:`OracleSizeError` when ``n`` nodes exceed the full oracle's cap; cheap, so
    that a caller can check before assembling the N x N blocks."""
    _integer("size_limit", size_limit, 1)
    if n > size_limit:
        raise OracleSizeError(f"system has N={n} nodes, full oracle capped at {size_limit}")


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
    _check_oracle_size(system.n, size_limit)
    import scipy.linalg  # on first use, as in spectrum()'s band route: importing it costs most of `import netcoh`

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

    if n == 1:  # nothing is left after deflation: the centering output of one node is zero
        return VarianceReport(0.0, None, METHOD_FULL_LYAPUNOV)
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
    return VarianceReport(v / n, None, METHOD_FULL_LYAPUNOV)

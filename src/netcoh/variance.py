"""Per-node output variance of the noise-driven closed loops.

Three independent evaluation routes are provided and cross-checked in tests:

* closed forms -- the per-mode sums for P, DAPI and F-DPD control together
  with the uniform-in-N upper bounds for the latter two;
* a modal oracle -- every Laplacian mode's H2 norm in closed form from the
  controller table expanded as polynomials in lambda, with an a-priori
  rounding bound; the same factors give the Routh-Hurwitz test;
* a full-system oracle -- the marginal, unobservable network-average
  directions are deflated block by block with the rows of
  ``scipy.linalg.helmert``; one real Schur form of the deflated matrix gives
  both the eigenvalue checks and a triangular Lyapunov equation, solved by
  recursive blocking into ``dtrsyl`` calls of at most 64 states and matrix
  products.

The closed forms are numpy array expressions over the eigenvalues of modes
n >= 2, in two steps: the terms are filled in chunks of 2**16 modes, then
summed once.  Their terms, like the modal oracle's, are summed exactly in
numpy and rounded once, so each sum is correctly rounded at any N and
equals ``math.fsum`` of the terms bit for bit.  A closed-form denominator
that overflows, a non-finite term or an overflowing sum raises
:class:`NumericalError`, naming the mode, and no floating-point warning.

A :class:`VarianceReport` is its modes: ``v_n``, ``bound`` and ``method``
with two read-only arrays, the spectrum's eigenvalues of modes 2..N, by
reference, and their terms.  Its ``(N-1, 3)`` ``per_mode`` table is built
on first read, and ``to_csv`` writes from the two arrays without building it.
"""

from __future__ import annotations

import itertools
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
    _entries,
    _integer,
    _is_hurwitz,
    _law,
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
    "modal_variance",
    "full_variance",
    "variance_by_kind",
    "DEFAULT_ORACLE_LIMIT",
]

METHOD_CLOSED_FORM = "closed_form"
METHOD_MODAL_LYAPUNOV = "modal_lyapunov"
METHOD_FULL_LYAPUNOV = "full_lyapunov"

DEFAULT_ORACLE_LIMIT = 64
_LYAPUNOV_LEAF = 64  # the full oracle's triangular Lyapunov solve: states per unblocked dtrsyl call

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


def _quotient(num: float, den: float) -> float:
    """``num / den`` of a uniform bound; NumericalError where it overflows or ``den`` lost digits below 2**-1022."""
    if not (den >= 2.0**-1022 and num / den < math.inf):
        raise NumericalError(f"the uniform-in-N bound {num!r} / {den!r} is out of float range")
    return num / den


def dapi_bound(gains: DapiGains) -> float:
    """Uniform-in-N upper bound (f + c*g0) / (2 * k_i * f * g0)."""
    return _quotient(gains.f + gains.c * gains.g0, 2.0 * gains.k_i * gains.f * gains.g0)


def fdpd_bound(gains: FdpdGains) -> float:
    """Uniform-in-N upper bound (tau^2 * f0 + 1) / (2 * f0 * k_d)."""
    return _quotient(gains.tau**2 * gains.f0 + 1.0, 2.0 * gains.f0 * gains.k_d)


# kind -> the denominator of its mode term, what a non-positive one means, and its uniform-in-N bound, None for P
_CLOSED_FORMS = {
    KIND_P: (_p_den, "zero denominator under P control", lambda gains: None),
    KIND_DAPI: (_dapi_den, "non-positive denominator under DAPI", dapi_bound),
    KIND_FDPD: (_fdpd_den, "non-positive denominator under F-DPD", fdpd_bound),
}


def _terms(kind: str, gains, lam: np.ndarray, first: int = 0, out: np.ndarray | None = None) -> np.ndarray:
    """Mode terms 1/den of ``lam``, whose first entry is mode ``first + 2``.

    Raises :class:`UnboundedVarianceError` for the first mode whose
    denominator is <= 0, then :class:`NumericalError` for the first whose
    denominator overflows, where the term would round to 0.  A term that is
    not finite is left to the sum to name.  ``kind`` and ``gains`` are a
    controller's law (see :func:`~netcoh.closed_loop._law`): not F-DPD at
    tau = 0.
    """
    den_of, what, _ = _CLOSED_FORMS[kind]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow leaves an inf or a nan, named below
        den = den_of(lam, gains)
        if den.size and not (den.min() > 0.0 and den.max() < math.inf):  # nan fails too
            bad = np.flatnonzero(den <= 0.0)
            if bad.size:
                i = int(bad[0])
                n = first + i + 2
                raise UnboundedVarianceError(f"mode {n} (lambda={lam[i]:.6g}) has {what}", mode_index=n)
            bad = np.flatnonzero(den == math.inf)
            if bad.size:
                i = int(bad[0])
                raise NumericalError(f"mode {first + i + 2} (lambda={lam[i]:.6g}) has a denominator out of "
                                     f"float range")
        return np.divide(1.0, den, out=out)


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
    return VarianceReport(v_n, _CLOSED_FORMS[kind][2](gains), METHOD_CLOSED_FORM, lam, terms)


# ---------------------------------------------------------------------------
# Lyapunov-equation oracles.
# ---------------------------------------------------------------------------


def _horner(coeffs, lam: np.ndarray) -> np.ndarray:
    """The polynomial of ``coeffs``, lowest power first, at every ``lam`` in one fresh array."""
    *rest, out = coeffs
    while rest and not out:  # from the highest non-zero power
        *rest, out = rest
    if not rest:
        return np.full_like(lam, out)
    for x in reversed(rest):
        out *= lam  # a new array the first time, in place after
        if x:
            out += x
    return out


def _modal_terms(factors: list, lam: np.ndarray, first: int, out: np.ndarray) -> None:
    """Terms of modes ``first + 2, ...`` at ``lam`` into ``out``; NumericalError if a Hurwitz factor is out of range."""
    with np.errstate(all="ignore"):
        values = [_horner(poly, lam) for poly in factors]
        if len(values) == 3:  # a_1, a_0 >= 0: their product, the Hurwitz determinant, is in range only if both are
            a1, a0, b0 = values
            hurwitz = [a0 * a1]
            np.divide(b0 * b0, hurwitz[0], out=out)
        else:  # h = (a_1 a_2 - a_0) / a_2, each r divided by a_2 first, so that h keeps a_1's magnitude
            a2, a0, b1, b0, *products = values
            hurwitz = [a2, a0, sum((r / a2) * c for r, c in zip(products[::2], products[1::2]))]
            np.divide(b1 * (b1 / a2) + b0 * (b0 / a0), hurwitz[2], out=out)
        hurwitz = np.array(hurwitz)
    if not (hurwitz.min() > 0.0 and hurwitz.max() < math.inf):  # nan fails too
        i = int(np.argmin(np.all((hurwitz > 0.0) & (hurwitz < math.inf), axis=0)))
        raise NumericalError(f"mode {first + i + 2} (lambda={lam[i]:.6g}) has a Hurwitz factor out of float range")


def modal_variance(spec: LaplacianSpectrum, kind: str, gains) -> VarianceReport:
    """Per-mode oracle: V_N = (1/2N) sum over modes n >= 2 of s_n = 2 ||G_n||^2, G_n(s) = (b_1 s + b_0) / det(sI
    - A_n) mode n's transfer function from the noise on v to x, b_1 s + b_0 = e_x^T adj(sI - A_n) e_v.

    A_n = alpha + beta lam_n (:func:`~netcoh.closed_loop._law`): one cofactor expansion of that table in lambda
    (:func:`~netcoh.closed_loop._char_poly`) gives every factor, Horner's rule evaluates each on the spectrum, and
    Astrom's integral table (1970, ch. 5) combines them: b_0^2 / (a_0 a_1) for d = 2, under P the closed form's
    own expression, and (b_1^2/a_2 + b_0^2/a_0) / h for d = 3.  A coefficient < 0 raises NumericalError; else
    nothing cancels, and a priori, away from underflow and overflow, a term is within gamma_51 = 51u / (1 - 51u)
    < 5.7e-15 relative (gamma_17 for d = 2) of the exact term of the table's entries, u = 2**-53: no path to it
    holds more than 51 roundings of values of one sign.  Routh-Hurwitz is "every factor is > 0": a zero factor
    polynomial fails at every mode, and names mode 2, InstabilityError if the law's is zero too (its table's sign
    pattern), else NumericalError: its coefficients underflowed.  Any other is > 0 at lambda > 0, so where it, or
    a_0 a_1 for d = 2, rounds to 0 or overflows, the term is out of range, and NumericalError names the lowest mode.
    """
    table = _law(kind, gains)[2]
    e = _entries(table)
    factors, pairs = _char_poly(e)
    factors.append(e[0][1])  # [a_1, a_0, b_0] for d = 2; [a_2, a_0, b_1, b_0, r, c, ...] for d = 3
    if pairs:  # with the non-zero Hurwitz pairs
        factors.append(e[0][2] * e[2][1] - e[0][1] * e[2][2])
        factors += [x for pair in pairs if all(any(x) for x in pair) for x in pair]
    if not all(x >= 0.0 for x in itertools.chain.from_iterable(factors)):  # nan fails too
        raise NumericalError(f"{kind} gains {gains} give a mode factor a negative or nan coefficient in lambda")
    lam = spec.connected_modes()
    if lam.size and not (any(factors[0]) and any(factors[1]) and len(factors) != 4):  # d = 3: a non-zero pair
        if not _is_hurwitz(table):
            raise InstabilityError(f"mode 2 (lambda={lam[0]:.6g}) is not Hurwitz: a factor is 0", mode_index=2)
        raise NumericalError(f"mode 2 (lambda={lam[0]:.6g}) has a Hurwitz factor that underflows to 0")
    terms = np.empty_like(lam)
    for i in range(0, lam.size, _SUM_CHUNK):
        _modal_terms(factors, lam[i:i + _SUM_CHUNK], i, terms[i:i + _SUM_CHUNK])
    v_n = _mode_sum(terms) / (2.0 * spec.node_count)
    return VarianceReport(v_n, _CLOSED_FORMS[kind][2](gains), METHOD_MODAL_LYAPUNOV, lam, terms)


def _check_oracle_size(n: int, size_limit: int = DEFAULT_ORACLE_LIMIT) -> None:
    """Raise :class:`OracleSizeError` when ``n`` nodes exceed the full oracle's cap; cheap, so
    that a caller can check before assembling the N x N blocks."""
    _integer("size_limit", size_limit, 1)
    if n > size_limit:
        raise OracleSizeError(f"system has N={n} nodes, full oracle capped at {size_limit}")


def _trsyl(t11: np.ndarray, t22: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Y with ``t11 Y + Y t22^T = rhs`` by LAPACK ``dtrsyl``; NumericalError unless it solves at scale 1."""
    from scipy.linalg.lapack import dtrsyl  # scipy is loaded by then: full_variance imports it

    y, scale, info = dtrsyl(t11, t22, rhs, tranb="T")
    if info or scale != 1.0:
        raise NumericalError(f"full-oracle Lyapunov solve failed (info={info}, scale={scale})")
    return y


def _lyapunov_schur(t: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Y with ``T Y + Y T^T = R`` for a real Schur form ``T`` and a symmetric ``R``, recursively blocked.

    With ``T = [[T11, T12], [0, T22]]`` the blocks of Y solve, in turn, the Lyapunov equation of T22, the
    Sylvester equation ``T11 Y12 + Y12 T22^T = R12 - T12 Y22`` (one ``dtrsyl`` call), ``Y21 = Y12^T``, and
    the Lyapunov equation of T11 with ``R11 - T12 Y12^T - Y12 T12^T`` (Jonsson & Kagstrom, ACM TOMS 2002):
    most of the work moves into matrix products.  The cut is at m/2, one row later where it would split a
    2x2 block of T.  A system of at most ``_LYAPUNOV_LEAF`` states is one ``dtrsyl`` call.
    """
    m = t.shape[0]
    if m <= _LYAPUNOV_LEAF:
        return _trsyl(t, t, r)
    k = m // 2
    if t[k, k - 1]:  # a 2x2 block of complex eigenvalues: keep it whole
        k += 1
    t11, t12, t22 = t[:k, :k], t[:k, k:], t[k:, k:]
    y = np.empty_like(r)
    y[k:, k:] = y22 = _lyapunov_schur(t22, r[k:, k:])
    y[:k, k:] = y12 = _trsyl(t11, t22, r[:k, k:] - t12 @ y22)
    y[k:, :k] = y12.T
    w = t12 @ y12.T
    y[:k, :k] = _lyapunov_schur(t11, r[:k, :k] - w - w.T)
    return y


def full_variance(
    system: ClosedLoopSystem, size_limit: int = DEFAULT_ORACLE_LIMIT
) -> VarianceReport:
    """Full-system oracle on the assembled block matrices.

    Every state block acts on the all-ones vector through a scalar (the
    Laplacian annihilates it), so the network-average directions span an
    exactly invariant subspace that the centering output cannot see: every
    block of C must sum to zero along each row.  They are projected out
    with rows 1..N-1 of ``scipy.linalg.helmert(N)``, an orthonormal basis
    of the rest, applied to each N-row and N-column block -- this removes
    the marginal average dynamics -- and the variance is tr(C X C^T) with X
    the controllability Gramian of the reduced system: one real Schur form
    gives the eigenvalue checks and the triangular Lyapunov equation, which
    :func:`_lyapunov_schur` solves (Bartels-Stewart, recursively blocked).
    A marginal eigenvalue surviving the deflation is observable by
    construction and aborts the oracle, with :class:`NumericalError` where
    the assembled law is Hurwitz (a root below eigenvalue resolution).
    """
    _check_oracle_size(system.n, size_limit)
    import scipy.linalg  # on first use, as in spectrum()'s band route: importing it costs most of `import netcoh`

    n = system.n
    blocks = system.state_dim // n

    # the deflated directions must be invisible in the output: |C v| for v = 1/sqrt(n) on one block
    sums = system.c.reshape(system.c.shape[0], blocks, n).sum(axis=2)
    observability = float(np.abs(sums).max()) / math.sqrt(n)
    if observability > 1e-10:
        raise MarginalModeObservableError(
            f"network-average direction visible in output (|C v| = {observability:.3e})"
        )

    if n == 1:  # nothing is left after deflation: the centering output of one node is zero
        return VarianceReport(0.0, None, METHOD_FULL_LYAPUNOV)
    helmert = scipy.linalg.helmert(n)  # (n - 1, n): Helmert rows 1..n-1, without the average row 1/sqrt(n)

    def rows(m):  # helmert on every n-row block of m
        return (helmert @ m.reshape(blocks, n, -1)).reshape(blocks * (n - 1), -1)

    def columns(m):  # helmert^T on every n-column block of m
        return (m.reshape(-1, n) @ helmert.T).reshape(m.shape[0], -1)

    a_red = columns(rows(system.a))
    b_red = rows(system.b)
    c_red = columns(system.c)
    noise = b_red @ b_red.T

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
        if system._modal is not None and _is_hurwitz(system._modal[2]):  # read only here, as the simulator does
            raise NumericalError(f"closed loop is stable by Routh-Hurwitz, but a root is below eigenvalue "
                                 f"resolution (computed real part {wr[np.argmin(np.abs(wr))]:.3e})")
        raise MarginalModeObservableError(
            "marginal mode outside the network-average subspace; variance undefined"
        )
    # T Y + Y T^T = Z^T (-B B^T) Z, then X = Z Y Z^T
    y = _lyapunov_schur(t, z.T @ (-noise @ z))
    x = z @ y @ z.T
    x = 0.5 * (x + x.T)
    residual = np.abs(a_red @ x + x @ a_red.T + noise).max()
    if residual > 1e-8 * max(1.0, float(np.abs(x).max())) * scale:
        raise NumericalError(f"full-oracle residual {residual:.3e} too large")
    v = float(np.trace(c_red @ x @ c_red.T))
    return VarianceReport(v / n, None, METHOD_FULL_LYAPUNOV)

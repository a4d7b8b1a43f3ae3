"""Closed-loop state-space models for P, DAPI and F-DPD consensus control.

Each controller is defined once, as a table of block coefficients: every
block of its closed-loop matrix is ``alpha * I + beta * L``.  The full
block-matrix dynamics driven by per-node white noise, the stacked per-mode
2x2 / 3x3 matrices obtained by diagonalizing the Laplacian (L -> lambda), and
one Routh-Hurwitz verdict per law, from the table's sign pattern, derive from it.
"""

from __future__ import annotations

import configparser
import math
import numbers
import operator
import os
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError, InvalidSizeError
from .graphs import LaplacianSpectrum, WeightedGraph, _ascii_number, default_zero_tolerance, laplacian

__all__ = [
    "KIND_P",
    "KIND_DAPI",
    "KIND_FDPD",
    "CONTROLLERS",
    "PGains",
    "DapiGains",
    "FdpdGains",
    "ClosedLoopSystem",
    "assemble",
    "assemble_p",
    "assemble_dapi",
    "assemble_fdpd",
    "modal_matrices",
    "power_preset",
    "droop_preset",
    "ideal_pd_equivalent",
    "zero_averaging_equivalent",
    "parse_gains_config",
]

KIND_P = "p"
KIND_DAPI = "dapi"
KIND_FDPD = "fdpd"


def _nonneg(name: str, value: float) -> None:
    if not math.isfinite(value) or value < 0.0:
        raise InvalidParameterError(f"{name} must be finite and >= 0, got {value}")


def _positive(name: str, value: float) -> None:
    if not math.isfinite(value) or value <= 0.0:
        raise InvalidParameterError(f"{name} must be finite and > 0, got {value}")


def _integer(name: str, value, least: int) -> None:
    if not isinstance(value, numbers.Integral) or value < least:  # numpy integers pass
        raise InvalidParameterError(f"{name} must be >= {least} and an integer, got {value!r}")


@dataclass(frozen=True)
class PGains:
    """Static consensus feedback: relative gains f, g; absolute gains f0, g0."""

    f: float
    g: float
    f0: float = 0.0
    g0: float = 0.0

    def __post_init__(self):
        for name in ("f", "g", "f0", "g0"):
            _nonneg(name, getattr(self, name))


@dataclass(frozen=True)
class DapiGains:
    """Distributed-averaging PI gains.

    ``k_i`` is the integral gain, ``c`` the averaging-filter gain applied to
    the integral states.  A finite variance requires f > 0 and g0 > 0.
    """

    f: float
    g: float
    g0: float
    k_i: float
    c: float

    def __post_init__(self):
        _positive("f", self.f)
        _nonneg("g", self.g)
        _positive("g0", self.g0)
        _positive("k_i", self.k_i)
        _nonneg("c", self.c)


@dataclass(frozen=True)
class FdpdGains:
    """Filtered distributed PD gains.

    ``k_d`` is the derivative gain, ``tau`` the first-order filter time
    constant; tau = 0 denotes the ideal-PD special case.
    """

    f: float
    g: float
    f0: float
    k_d: float
    tau: float

    def __post_init__(self):
        _nonneg("f", self.f)
        _nonneg("g", self.g)
        _positive("f0", self.f0)
        _positive("k_d", self.k_d)
        _nonneg("tau", self.tau)


@dataclass(frozen=True)
class ClosedLoopSystem:
    """State-space triple (A, B, C) with the centering output projector.

    States are stacked as x-block, v-block and (for dapi/fdpd) the auxiliary
    block; B injects unit-intensity noise into the v-block and C maps x to
    its deviation from the network average.  :func:`assemble` also stores
    the modal form of ``L = U diag(lam) U^T``: ``U``, the ``(N, d, d)``
    stack of :func:`modal_matrices`, ``lam[0] = 0``, and the law's table.
    That field cannot be passed in and ``dataclasses.replace`` drops it: a
    hand-built or replaced loop has none, and the simulator runs it as given.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    kind: str
    n: int
    _modal: tuple[np.ndarray, ...] | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def state_dim(self) -> int:
        return self.a.shape[0]


def _centering_output(n: int, state_dim: int) -> np.ndarray:
    c = np.zeros((n, state_dim))
    c[:, :n] = np.eye(n) - np.ones((n, n)) / n
    return c


def droop_preset(m: float, d: float, b: float, l: float) -> PGains:
    """Droop-only P gains from swing-equation constants.

    Inertia m and damping d give g0 = d/m; line susceptance b over edge
    weight l gives the relative position gain f = b/(l*m); there is no
    relative velocity coupling and no absolute position feedback.
    """
    for name, value in (("m", m), ("d", d), ("b", b), ("l", l)):
        _positive(name, value)
    return PGains(f=b / (l * m), g=0.0, f0=0.0, g0=d / m)


def power_preset(m: float, d: float, b: float, l: float, k_i: float, c: float) -> DapiGains:
    """DAPI gains from the same swing-equation constants: :func:`droop_preset`'s f and g0."""
    droop = droop_preset(m, d, b, l)
    return DapiGains(f=droop.f, g=0.0, g0=droop.g0, k_i=k_i, c=c)


# The controllers, registered once: per name, the gains class; per gains-config
# key, (field, default), None = required; the block coefficients (alpha, beta)
# of its gains; and its [power] preset and the keys read beside it, or None.
# Block (i, j) of the closed-loop matrix is alpha[i][j] * I + beta[i][j] * L.
_Controller = namedtuple("_Controller", "gains keys blocks preset")
_CONTROLLERS = {
    KIND_P: _Controller(PGains, {"f": ("f", 0.0), "g": ("g", 0.0), "f0": ("f0", 0.0), "g0": ("g0", 0.0)},
                        lambda k: ([[0, 1], [-k.f0, -k.g0]], [[0, 0], [-k.f, -k.g]]), (droop_preset, {})),
    KIND_DAPI: _Controller(DapiGains, {"f": ("f", None), "g": ("g", 0.0), "g0": ("g0", None), "ki": ("k_i", None),
                                       "c": ("c", 0.0)},
                           lambda k: ([[0, 1, 0], [0, -k.g0, k.k_i], [0, -1, 0]],
                                      [[0, 0, 0], [-k.f, -k.g, 0], [0, 0, -k.c]]),
                           (power_preset, {"ki": ("k_i", None), "c": ("c", 0.0)})),
    KIND_FDPD: _Controller(FdpdGains, {"f": ("f", 0.0), "g": ("g", 0.0), "f0": ("f0", None), "kd": ("k_d", None),
                                       "tau": ("tau", None)},
                           lambda k: ([[0, 1, 0], [-k.f0, 0, 1], [0, -k.k_d / k.tau, -1 / k.tau]],
                                      [[0, 0, 0], [-k.f, -k.g, 0], [0, 0, 0]]), None),
}
CONTROLLERS = tuple(_CONTROLLERS)


def _check_gains(kind: str, gains) -> None:
    """Raise :class:`InvalidParameterError` unless ``gains`` is the gains class of controller ``kind``."""
    if kind not in _CONTROLLERS:
        raise InvalidParameterError(f"unknown controller kind {kind!r}")
    expected = _CONTROLLERS[kind].gains
    if not isinstance(gains, expected):
        raise InvalidParameterError(f"controller {kind!r} takes {expected.__name__}, got {type(gains).__name__}")


def _law(kind: str, gains) -> tuple:
    """``(kind, gains, table)`` of the loop that controller ``kind`` runs, once its gains are checked:
    F-DPD at tau = 0 is ideal PD, the P law of :func:`ideal_pd_equivalent`, and every other controller
    runs as itself.  ``table`` is the law's block coefficients ``(alpha, beta)``, shape (2, d, d), from
    which assembly, the modal matrices and the stability test derive; the closed forms sum the law's terms.
    """
    _check_gains(kind, gains)
    if kind == KIND_FDPD and gains.tau == 0.0:
        kind, gains = KIND_P, ideal_pd_equivalent(gains)
    return kind, gains, np.array(_CONTROLLERS[kind].blocks(gains), dtype=float)


def assemble(graph: WeightedGraph, kind: str, gains) -> ClosedLoopSystem:
    """Block-matrix loop of controller ``kind`` (one of :data:`CONTROLLERS`) on a graph.

    Noise enters the v-block and the output is the x-block's deviation from
    the network average.  F-DPD at tau = 0 assembles as its law, P control.
    The Laplacian is diagonalized once: its spectrum decides connectivity, as
    :func:`~netcoh.graphs.spectrum` would, and gives the stored modal form
    (see :class:`ClosedLoopSystem`).  A loop whose dense arrays (A, B, C, the
    Laplacian and its eigenbasis) would exceed physical memory, where the
    platform reports it, raises :class:`InvalidSizeError` before any is built.
    """
    kind, gains, table = _law(kind, gains)
    n, d = graph.node_count, table.shape[-1]
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):  # no sysconf, or no such name
        memory = 0
    need = 8 * n * n * (d * d + 2 * d + 2)  # bytes of A, B, C, the Laplacian and its eigenbasis
    if 0 < memory < need:
        raise InvalidSizeError(f"a {d * n}-state loop on N={n} nodes needs {need:.3g} bytes of dense arrays, "
                               f"more than the {memory:.3g} bytes of physical memory")
    lap, eye = laplacian(graph), np.eye(n)
    lam, basis = np.linalg.eigh(lap)
    modes = LaplacianSpectrum._adopt(lam, default_zero_tolerance(lam[-1]))
    modes.connected_modes()  # a disconnected graph raises, as it does for spectrum()
    a = np.block([[al * eye + be * lap for al, be in zip(*rows)] for rows in zip(*table)])
    b = np.eye(a.shape[0], n, -n)  # noise enters the v-block
    system = ClosedLoopSystem(a, b, _centering_output(n, a.shape[0]), kind, n)
    stack = np.ascontiguousarray(modal_matrices(kind, gains, modes.eigenvalues))  # one mode's matrix contiguous
    object.__setattr__(system, "_modal", (basis, stack, table))
    return system


def assemble_p(graph: WeightedGraph, gains: PGains) -> ClosedLoopSystem:
    """2N-state P-controlled loop: [[0, I], [-f L - f0 I, -g L - g0 I]]."""
    return assemble(graph, KIND_P, gains)


def assemble_dapi(graph: WeightedGraph, gains: DapiGains) -> ClosedLoopSystem:
    """3N-state DAPI loop with integral states averaged through c * L."""
    return assemble(graph, KIND_DAPI, gains)


def assemble_fdpd(graph: WeightedGraph, gains: FdpdGains) -> ClosedLoopSystem:
    """3N-state F-DPD loop with low-pass filtered derivative action; at tau = 0, ideal PD's 2N-state P loop."""
    return assemble(graph, KIND_FDPD, gains)


def modal_matrices(kind: str, gains, lam: np.ndarray) -> np.ndarray:
    """Stacked ``(k, d, d)`` modal matrices ``alpha + beta * lam_k``.

    Diagonalizing the Laplacian decouples the loop into one d x d block per
    eigenvalue (d = 2 for P and ideal PD, 3 for DAPI and F-DPD at tau > 0);
    noise enters the v-component and the output reads the x-component.
    """
    lam = np.asarray(lam, dtype=float)
    if np.any(lam < 0.0):
        raise InvalidParameterError(f"laplacian eigenvalue must be >= 0, got {float(lam[lam < 0.0][0])}")
    alpha, beta = _law(kind, gains)[2]
    return (alpha[..., None] + beta[..., None] * lam).transpose(2, 0, 1)  # each entry of all modes contiguous


class _Poly(tuple):
    """A polynomial in lambda as its float coefficients, lowest power first: an entry of a controller table and
    what :func:`_char_poly` forms of them, on plain floats.  Sums take operands of one length; a product is the
    convolution.  Every coefficient of a registered controller's expansion is one product of table entries, so
    the factors equal those of ``np.convolve`` bit for bit."""

    __slots__ = ()

    def __add__(self, other):
        return _Poly(map(operator.add, self, other))

    def __sub__(self, other):
        return _Poly(map(operator.sub, self, other))

    def __neg__(self):
        return _Poly(map(operator.neg, self))

    def __mul__(self, other):
        out = [0.0] * (len(self) + len(other) - 1)
        for i, x in enumerate(self):
            for k, y in enumerate(other, i):
                out[k] += x * y
        return _Poly(out)


def _entries(table: np.ndarray) -> list:
    """The entries ``alpha + beta * lambda`` of a law's ``(alpha, beta)`` table as rows of :class:`_Poly`."""
    alpha, beta = table.tolist()
    return [[_Poly(entry) for entry in zip(*rows)] for rows in zip(alpha, beta)]


def _char_poly(e: list) -> tuple[list, list]:
    """Routh-Hurwitz factors of det(sI - A) = s^d + ... + a_0, d = 2 or 3, by cofactor expansion of the entries
    ``e[i][j]`` of A: a controller table's polynomials in lambda (:func:`_entries`), expanded once for all
    modes.  Returns ``([a_1, a_0], [])`` for d = 2 and ``([a_2, a_0], pairs)`` for d = 3 with a_1 a_2 - a_0 =
    sum(r * c for r, c in pairs), -det of A's bialternate sum (Fuller 1968) along its first row: no subtraction
    forms it.  For P, DAPI and F-DPD each coefficient is a sum of monomials of one sign in the table's entries.
    """
    def minor(m, i, j, r, s):
        return m[i][r] * m[j][s] - m[i][s] * m[j][r]

    def first_row(m):  # its entries and their minors
        return m[0], [minor(m, 1, 2, 1, 2), minor(m, 1, 2, 0, 2), minor(m, 1, 2, 0, 1)]

    if len(e) == 2:
        return [-(e[0][0] + e[1][1]), minor(e, 0, 1, 0, 1)], []
    (r0, r1, r2), (m0, m1, m2) = first_row(e)
    factors = [-(e[0][0] + e[1][1] + e[2][2]), -(r0 * m0 - r1 * m1 + r2 * m2)]
    (r0, r1, r2), (m0, m1, m2) = first_row([[e[0][0] + e[1][1], e[1][2], -e[0][2]],
                                            [e[2][1], e[0][0] + e[2][2], e[0][1]],
                                            [-e[2][0], e[1][0], e[1][1] + e[2][2]]])
    return factors, [(-r0, m0), (r1, m1), (-r2, m2)]


def _is_hurwitz(table: np.ndarray) -> bool:
    """Routh-Hurwitz verdict of a law's ``(alpha, beta)`` table at every lambda > 0, from its sign pattern alone.

    Each coefficient of :func:`_char_poly`'s factors and of h = sum(r * c) sums monomials of one sign in the
    table's entries, so a factor is > 0 at every lambda > 0 unless it is the zero polynomial.  Expanding
    ``np.sign(table)`` is exact: DAPI's a_0 = f c lambda^2 at f = c = 1e-170 underflows to 0, but not there.
    """
    factors, pairs = _char_poly(_entries(np.sign(table)))
    return all(map(any, factors)) and (not pairs or any(any(r * c) for r, c in pairs))  # no r * c cancels another


def ideal_pd_equivalent(gains: FdpdGains) -> PGains:
    """P gains reproducing F-DPD at tau = 0: derivative gain becomes g0."""
    return PGains(f=gains.f, g=gains.g, f0=gains.f0, g0=gains.k_d)


def zero_averaging_equivalent(gains: DapiGains) -> PGains:
    """P gains reproducing DAPI as c -> 0: integral gain becomes f0."""
    return PGains(f=gains.f, g=gains.g, f0=gains.k_i, g0=gains.g0)


# ---------------------------------------------------------------------------
# Gains config files: "key = value" lines, optional [power] preset block.
# ---------------------------------------------------------------------------

def _reject_unknown(names, known, what: str) -> None:
    unknown = set(names) - set(known)
    if unknown:
        raise InvalidParameterError(f"unknown {what}: {sorted(unknown)}")


def parse_gains_config(text: str):
    """Parse a gains config into ``(kind, gains)``.

    A section other than ``[power]``, a key that the controller's form does
    not read, or a value that is not a number spelled in ASCII without
    digit-group underscores raises :class:`InvalidParameterError`.

    Plain form::

        controller = fdpd
        f = 1.0
        g = 1.0
        f0 = 1.0
        kd = 1.0
        tau = 0.1

    Power-preset form (controller p or dapi)::

        controller = dapi
        ki = 1.0
        c = 0.1

        [power]
        m = 0.05305
        d = 0.02653
        b = 0.3
        l = 1.0
    """
    stripped = text.lstrip()
    if not stripped.startswith("["):
        text = "[gains]\n" + text
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)  # "%" is a character
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise InvalidParameterError(f"bad gains config: {exc}") from exc
    if "gains" not in parser:
        raise InvalidParameterError("gains config must start with key = value lines")
    _reject_unknown(parser.sections(), ("gains", "power"), "gains config sections")
    main = parser["gains"]
    kind = main.get("controller", "").strip().lower()
    if kind not in _CONTROLLERS:
        raise InvalidParameterError(
            f"controller must be one of {', '.join(CONTROLLERS)}; got {kind!r}"
        )

    def value(section, key, default=None):
        if key not in section:
            if default is None:
                raise InvalidParameterError(f"missing key {key!r} in gains config")
            return default
        try:
            return _ascii_number(section[key], float)
        except ValueError:
            raise InvalidParameterError(
                f"key {key!r} is not a number: {section[key]!r}"
            ) from None

    entry = _CONTROLLERS[kind]
    build, keys, beside = entry.gains, entry.keys, ""  # the plain form, or the [power] preset
    if "power" in parser:
        if entry.preset is None:
            names = (name for name, other in _CONTROLLERS.items() if other.preset is not None)
            raise InvalidParameterError(f"power preset applies to controller {' or '.join(names)} only")
        _reject_unknown(parser["power"], ("m", "d", "b", "l"), "[power] keys")
        (build, keys), beside = entry.preset, " beside [power]"
    _reject_unknown(main, ("controller", *keys), "gains keys for this controller" + beside)
    swing = [value(parser["power"], key) for key in ("m", "d", "b", "l")] if "power" in parser else []
    return kind, build(*swing, **{name: value(main, key, default) for key, (name, default) in keys.items()})

"""Independent references for the benchmark's correctness checks.

Nothing here imports netcoh.  Gains are plain dicts with the keys
``f, g, f0, g0`` (P), ``f, g, g0, ki, c`` (DAPI) and ``f, g, f0, kd, tau``
(F-DPD).  Spectra hold the N-1 non-zero Laplacian eigenvalues only.

The per-mode terms come from the transfer function of each mode, from the
noise entering the velocity to the position, and the textbook H2 formula for
a strictly proper third-order transfer function

    (b1 s + b0) / (s^3 + a2 s^2 + a1 s + a0):
    ||G||^2 = (b1^2 a0 + b0^2 a2) / (2 a0 (a1 a2 - a0)),

which is a different route from the library's closed forms.  The per-mode
term is s_n = 2 ||G_n||^2 and V_N = sum(s_n) / (2N).
"""

from __future__ import annotations

import math

import numpy as np

# ---------------------------------------------------------------------------
# Spectra: 4 sin^2 forms, which keep full relative precision for small lambda.
# ---------------------------------------------------------------------------


def ring_lams(n: int, w: float = 1.0) -> np.ndarray:
    k = np.arange(1, n)
    return w * 4.0 * np.sin(np.pi * k / n) ** 2


def path_lams(n: int, w: float = 1.0) -> np.ndarray:
    k = np.arange(1, n)
    return w * 4.0 * np.sin(np.pi * k / (2.0 * n)) ** 2


def torus_lams(side: int, dims: int, w: float = 1.0) -> np.ndarray:
    axis = 4.0 * np.sin(np.pi * np.arange(side) / side) ** 2
    vals = axis
    for _ in range(dims - 1):
        vals = np.add.outer(vals, axis).ravel()
    # index 0 is the all-zero frequency, the network average
    return w * vals[1:]


def complete_lams(n: int, w: float = 1.0) -> np.ndarray:
    return np.full(n - 1, n * w)


def family_lams(family: str, size: int, w: float = 1.0) -> np.ndarray:
    """Non-zero spectrum of a family member; ``size`` is the torus side."""
    if family == "ring":
        return ring_lams(size, w)
    if family == "path":
        return path_lams(size, w)
    if family == "complete":
        return complete_lams(size, w)
    if family.startswith("torus"):
        return torus_lams(size, int(family[-1]), w)
    raise ValueError(f"unknown family {family!r}")


def cos_lams(family: str, n: int, w: float = 1.0) -> np.ndarray:
    """The ``2 - 2 cos`` form of the ring or path spectrum, which loses the
    relative precision of small eigenvalues; used only to recognise that loss
    in the program's values."""
    k = np.arange(1, n)
    return w * (2.0 - 2.0 * np.cos((2.0 if family == "ring" else 1.0) * np.pi * k / n))


def laplacian_from_edges(n: int, edges) -> np.ndarray:
    """Dense Laplacian from 1-based ``(i, j, w)`` edges."""
    lap = np.zeros((n, n))
    for i, j, w in edges:
        lap[i - 1, j - 1] -= w
        lap[j - 1, i - 1] -= w
        lap[i - 1, i - 1] += w
        lap[j - 1, j - 1] += w
    return lap


def edge_list_lams(n: int, edges) -> np.ndarray:
    """Non-zero spectrum of a connected graph, by numpy's own eigensolver."""
    return np.linalg.eigvalsh(laplacian_from_edges(n, edges))[1:]


# ---------------------------------------------------------------------------
# Per-mode terms and V_N.
# ---------------------------------------------------------------------------


def _third_order_s(b1, b0, a2, a1, a0):
    return (b1 * b1 * a0 + b0 * b0 * a2) / (a0 * (a1 * a2 - a0))


def mode_terms(kind: str, gains: dict, lam: np.ndarray) -> np.ndarray:
    """s_n = 2 ||G_n||^2 for every eigenvalue in ``lam``."""
    lam = np.asarray(lam, dtype=float)
    if kind == "p":
        # 1 / (s^2 + (g0 + g lam) s + (f0 + f lam)): ||G||^2 = 1 / (2 a0 a1)
        return 1.0 / ((gains["f0"] + gains["f"] * lam) * (gains["g0"] + gains["g"] * lam))
    if kind == "dapi":
        # (s + gam) / ((s^2 + beta s + alpha)(s + gam) + ki s); the common
        # factor gam = c lam of numerator and denominator is cancelled so
        # that c = 0 stays finite.
        alpha = gains["f"] * lam
        beta = gains["g0"] + gains["g"] * lam
        gam = gains["c"] * lam
        a2 = beta + gam
        a1 = alpha + beta * gam + gains["ki"]
        a0 = alpha * gam
        return (alpha + gam * (beta + gam)) / (alpha * (a1 * a2 - a0))
    if kind == "fdpd":
        # (tau s + 1) / ((s^2 + g lam s + p)(tau s + 1) + kd s), p = f0 + f lam
        tau = gains["tau"]
        p = gains["f0"] + gains["f"] * lam
        glam = gains["g"] * lam
        return _third_order_s(
            1.0, 1.0 / tau, (1.0 + tau * glam) / tau, (glam + tau * p + gains["kd"]) / tau, p / tau
        )
    raise ValueError(f"unknown controller kind {kind!r}")


def v_n(kind: str, gains: dict, lam: np.ndarray) -> float:
    """Per-node variance for the non-zero spectrum ``lam`` of N = len+1 nodes."""
    return math.fsum(mode_terms(kind, gains, lam)) / (2.0 * (len(lam) + 1))


def bound(kind: str, gains: dict) -> float | None:
    """Uniform-in-N bound: the lam -> 0 limit of ||G_n||^2, the largest mode norm."""
    if kind == "dapi":
        f, g0 = gains["f"], gains["g0"]
        return (f + gains["c"] * g0) / (2.0 * gains["ki"] * f * g0)
    if kind == "fdpd":
        return (gains["tau"] ** 2 * gains["f0"] + 1.0) / (2.0 * gains["f0"] * gains["kd"])
    return None


def c_star_complete(n: int, w: float, gains: dict) -> float:
    lam = n * w
    return max(0.0, math.sqrt(gains["f"] / lam) - gains["g"] - gains["g0"] / lam)


def c_star_witness(gains: dict, lam: np.ndarray) -> np.ndarray:
    """Per-mode margin f - (g lam + g0)^2 / lam; positive where c > 0 helps."""
    return gains["f"] - (gains["g"] * lam + gains["g0"]) ** 2 / lam


def fdpd_dv_dtau_fd(gains: dict, lam: np.ndarray) -> float:
    """Central finite difference of the F-DPD V_N in tau."""
    h = 1e-4 * gains["tau"]
    hi = v_n("fdpd", {**gains, "tau": gains["tau"] + h}, lam)
    lo = v_n("fdpd", {**gains, "tau": gains["tau"] - h}, lam)
    return (hi - lo) / (2.0 * h)


def fit_slope(ns, values) -> float:
    """Least-squares slope of log V_N against log N."""
    slope, _ = np.polyfit(np.log(np.asarray(ns, float)), np.log(np.asarray(values, float)), 1)
    return float(slope)


# ---------------------------------------------------------------------------
# Euler-Maruyama: exact moments of the simulator's estimator.
# ---------------------------------------------------------------------------


def mode_matrices(kind: str, gains: dict, lam: np.ndarray) -> np.ndarray:
    """Per-mode state matrices, states (x, v) or (x, v, aux), shape (m, d, d)."""
    lam = np.asarray(lam, dtype=float)
    m = lam.size
    if kind == "p":
        a = np.zeros((m, 2, 2))
        a[:, 0, 1] = 1.0
        a[:, 1, 0] = -(gains["f0"] + gains["f"] * lam)
        a[:, 1, 1] = -(gains["g0"] + gains["g"] * lam)
        return a
    a = np.zeros((m, 3, 3))
    a[:, 0, 1] = 1.0
    if kind == "dapi":
        a[:, 1, 0] = -gains["f"] * lam
        a[:, 1, 1] = -(gains["g0"] + gains["g"] * lam)
        a[:, 1, 2] = gains["ki"]
        a[:, 2, 1] = -1.0
        a[:, 2, 2] = -gains["c"] * lam
    elif kind == "fdpd":
        a[:, 1, 0] = -(gains["f0"] + gains["f"] * lam)
        a[:, 1, 1] = -gains["g"] * lam
        a[:, 1, 2] = 1.0
        a[:, 2, 1] = -gains["kd"] / gains["tau"]
        a[:, 2, 2] = -1.0 / gains["tau"]
    else:
        raise ValueError(f"unknown controller kind {kind!r}")
    return a


def closed_loop_eigs(kind: str, gains: dict, lam: np.ndarray) -> np.ndarray:
    """All closed-loop eigenvalues: every mode, the network average included."""
    return np.linalg.eigvals(mode_matrices(kind, gains, np.concatenate([[0.0], lam]))).ravel()


TAU_BLOCK = 128


def em_estimator_moments(
    kind: str,
    gains: dict,
    lam: np.ndarray,
    dt: float,
    steps: int,
    burn_in: float,
    every: int,
    init_v_sd: float = 0.0,
) -> tuple[float, float, int]:
    """Exact mean and standard deviation of one seed's empirical variance.

    The estimator averages ||y_k||^2 / N over the steps k with
    ``k % every == 0`` and ``k * dt > burn_in`` of the recursion
    ``s_{k+1} = (I + dt A) s_k + sqrt(dt) e_v xi_k``, started
    from a velocity draw of standard deviation ``init_v_sd``.  Every
    Laplacian mode but the network average evolves on its own and the output
    does not see the average, so the covariance recursion runs per mode on
    the deflated spectrum ``lam``.  It is iterated directly, never through a
    closed-form geometric sum, so stepper eigenvalues within 1e-9 of 1 cost
    no accuracy.  Returns (mean, sd, sample count).
    """
    a = mode_matrices(kind, gains, lam)
    m, d = a.shape[0], a.shape[1]
    stepper = np.eye(d) + dt * a
    q = np.zeros((d, d))
    q[1, 1] = dt
    # one sampling interval: G = M^every, S = sum_l M^l Q M^l^T
    g = np.broadcast_to(np.eye(d), (m, d, d)).copy()
    s = np.zeros((m, d, d))
    for _ in range(every):
        s = stepper @ s @ stepper.transpose(0, 2, 1) + q
        g = stepper @ g
    gt = g.transpose(0, 2, 1)
    p = np.zeros((m, d, d))
    p[:, 1, 1] = init_v_sd**2
    cols = []  # P_k e_x at every sampled step, shape (m, d) each
    for j in range(1, steps // every + 1):
        p = g @ p @ gt + s
        if j * every * dt > burn_in:
            cols.append(p[:, :, 0].copy())
    c = len(cols)
    if c == 0:
        raise ValueError("no samples after burn-in")
    n = m + 1
    w = np.stack(cols, axis=1)  # (m, c, d)
    mean = float(w[:, :, 0].sum()) / (c * n)
    # Var = 2/(cN)^2 sum_modes sum_{i,j} Cov(x_i, x_j)^2, with
    # Cov(x_{j+tau}, x_j) = e^T G^tau P_j e for tau >= 0.
    r = np.empty((m, c, d))
    row = np.zeros((m, d))
    row[:, 0] = 1.0
    for tau in range(c):
        r[:, tau] = row
        row = np.einsum("md,mde->me", row, g)
    # h[tau, j] = Cov(x_{j+tau}, x_j) over j + tau < c, in blocks of tau so
    # that no c-by-c matrix is held
    sample = np.arange(c)[None, :]
    total = 0.0
    for mode in range(m):
        for t0 in range(0, c, TAU_BLOCK):
            h = r[mode, t0 : t0 + TAU_BLOCK] @ w[mode].T
            h[sample + np.arange(t0, t0 + h.shape[0])[:, None] >= c] = 0.0
            total += 2.0 * float(np.sum(h * h))
        lag0 = r[mode, 0] @ w[mode].T
        total -= float(lag0 @ lag0)
    sd = math.sqrt(2.0 * total) / (c * n)
    return mean, sd, c


def lm_tolerances(t: float, seeds: int) -> tuple[float, float]:
    """Deviations (below, above) of a seed mean from its exact mean, in SEs.

    The estimator is a non-negative quadratic form of Gaussians, i.e. a
    weighted sum of chi-square(1) variables.  The Laurent-Massart bounds put
    each tail beyond these multiples of the standard error at probability
    at most exp(-t), using only the exact variance (the largest weight is at
    most the weights' 2-norm for one seed).
    """
    below = math.sqrt(2.0 * t)
    above = math.sqrt(2.0) * (math.sqrt(t) + t / math.sqrt(seeds))
    return below, above

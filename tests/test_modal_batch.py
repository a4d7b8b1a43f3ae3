"""Property tests: the coefficient tables and the modal oracle's terms.

The hand-written block and modal matrices below are the definitions the
coefficient tables replaced; they stay here as the reference the tables must
reproduce exactly.
"""

import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import netcoh as nc
from netcoh.closed_loop import _is_hurwitz, _law, modal_matrices
from netcoh.errors import InstabilityError, NumericalError

from conftest import random_connected_graph

PROPERTY = settings(max_examples=60, deadline=None)

gain = st.floats(0.0, 5.0, allow_subnormal=False)
positive = st.floats(0.01, 5.0, allow_subnormal=False)
lams = st.lists(st.floats(0.0, 50.0, allow_subnormal=False), min_size=1, max_size=40)


@st.composite
def kind_and_gains(draw):
    kind = draw(st.sampled_from(["p", "dapi", "fdpd"]))
    if kind == "p":
        return kind, nc.PGains(draw(gain), draw(gain), draw(gain), draw(gain))
    if kind == "dapi":
        return kind, nc.DapiGains(draw(positive), draw(gain), draw(positive), draw(positive), draw(gain))
    return kind, nc.FdpdGains(draw(gain), draw(gain), draw(positive), draw(positive), draw(positive))


def zero_gain(kind, gains):
    """Whether a law has a Routh-Hurwitz factor that is the zero polynomial in lambda: P with f = f0 = 0 or
    g = g0 = 0, DAPI with c = 0, F-DPD never (its f0, k_d > 0)."""
    if kind == "p":
        return gains.f == gains.f0 == 0.0 or gains.g == gains.g0 == 0.0
    return kind == "dapi" and gains.c == 0.0


def reference_modal(kind, gains, lam):
    if kind == "p":
        return np.array([[0.0, 1.0], [-gains.f * lam - gains.f0, -gains.g * lam - gains.g0]])
    if kind == "dapi":
        return np.array(
            [
                [0.0, 1.0, 0.0],
                [-gains.f * lam, -gains.g * lam - gains.g0, gains.k_i],
                [0.0, -1.0, -gains.c * lam],
            ]
        )
    return np.array(
        [
            [0.0, 1.0, 0.0],
            [-gains.f * lam - gains.f0, -gains.g * lam, 1.0],
            [0.0, -gains.k_d / gains.tau, -1.0 / gains.tau],
        ]
    )


def reference_assemble(graph, kind, gains):
    n = graph.node_count
    lap = nc.laplacian(graph)
    eye = np.eye(n)
    zero = np.zeros((n, n))
    if kind == "p":
        a = np.block(
            [[zero, eye], [-gains.f * lap - gains.f0 * eye, -gains.g * lap - gains.g0 * eye]]
        )
        return a, np.vstack([zero, eye])
    if kind == "dapi":
        a = np.block(
            [
                [zero, eye, zero],
                [-gains.f * lap, -gains.g * lap - gains.g0 * eye, gains.k_i * eye],
                [zero, -eye, -gains.c * lap],
            ]
        )
    else:
        a = np.block(
            [
                [zero, eye, zero],
                [-gains.f * lap - gains.f0 * eye, -gains.g * lap, eye],
                [zero, -(gains.k_d / gains.tau) * eye, -(1.0 / gains.tau) * eye],
            ]
        )
    return a, np.vstack([zero, eye, zero])


def lyapunov_solution(a, q):
    """P of A^T P + P A = -Q by scipy's Bartels-Stewart solve and one step of iterative refinement.

    Unrefined, the solve missed its forward-error estimate eps ||A|| ||P|| on
    about a quarter of 3000 random P, DAPI and F-DPD modes, refined on none:
    on the DAPI mode f = g0 = k_i = c = 1, g = 0, lambda = 2 it was 2.9e-15
    off the term 4/11, which the modal route rounds correctly.
    """
    p = scipy.linalg.solve_continuous_lyapunov(a.T, -q)
    return p + scipy.linalg.solve_continuous_lyapunov(a.T, -(a.T @ p + p @ a + q))


@PROPERTY
@given(kind_and_gains(), lams)
def test_stacked_modal_matrices_match_subsystems_and_reference(kg, values):
    kind, gains = kg
    stack = modal_matrices(kind, gains, np.array(values))
    for k, lam in enumerate(values):
        assert np.array_equal(stack[k], modal_matrices(kind, gains, np.array([lam]))[0])
        assert np.array_equal(stack[k], reference_modal(kind, gains, lam))


@PROPERTY
@given(kind_and_gains(), st.lists(st.floats(1e-3, 50.0), min_size=1, max_size=40))
@example(("p", nc.PGains(0.0, 0.0, 1.0, 9.66e-273)), [1.0])
def test_modal_terms_match_per_mode_solves(kg, values):
    kind, gains = kg
    assume(kind != "p" or (gains.f > 0.0 or gains.f0 > 0.0) and (gains.g > 0.0 or gains.g0 > 0.0))
    assume(kind != "dapi" or gains.c >= 1e-3)
    spec = nc.LaplacianSpectrum(np.array([0.0] + values), 1e-9)
    lam = spec.connected_modes()
    try:
        terms = nc.modal_variance(spec, kind, gains).terms
    except InstabilityError as exc:  # Routh-Hurwitz: only a zero-gain law, which the assumptions exclude
        assert zero_gain(kind, gains)
        assert str(exc).startswith(f"mode {exc.mode_index} (lambda=")
        return
    except NumericalError as exc:  # a term out of floating-point range
        assert str(exc).startswith("mode ")
        return
    # each mode's Lyapunov solve, compared where its own forward-error
    # estimate eps ||A|| ||P|| is below 1e-10; that estimate, plus the few
    # roundings of the modal term, is the tolerance
    for mode, term in zip(modal_matrices(kind, gains, lam), terms):
        e_x, e_v = np.eye(mode.shape[-1])[:2]
        with warnings.catch_warnings():  # damping 9.66e-273: scipy warns of a near-zero eigenvalue sum
            warnings.filterwarnings("ignore", ".*eigenvalue pair whose sum is very close to or exactly zero",
                                    RuntimeWarning)
            p = lyapunov_solution(mode, np.outer(e_x, e_x))
        estimate = np.finfo(float).eps * np.abs(mode).max() * np.abs(p).max()
        if estimate < 1e-10:  # false for a nan solve, as for damping 9.66e-273
            looped = 2.0 * float(e_v @ p @ e_v)
            assert abs(term - looped) <= (estimate + 4.0 * np.finfo(float).eps) * abs(looped)


@PROPERTY
@given(kind_and_gains(), lams)
def test_hurwitz_verdict_matches_eigenvalues_for_gains(kg, values):
    # the verdict is the law's, from its table's sign pattern: false exactly for the zero-gain laws, and where a
    # mode's eigenvalues are clear of the imaginary axis they agree with it at every lambda > 0
    kind, gains = kg
    verdict = _is_hurwitz(_law(kind, gains)[2])
    assert verdict == (not zero_gain(kind, gains))
    for lam in values:
        eigs = np.linalg.eigvals(reference_modal(kind, gains, lam))
        if lam == 0.0 or np.abs(eigs.real).min() <= 1e-6 * max(1.0, np.abs(eigs).max()):
            continue  # lambda = 0 is the network average; on the stability boundary the verdicts may differ
        assert verdict == bool(np.all(eigs.real < 0.0))


@PROPERTY
@given(kind_and_gains(), st.integers(0, 2**32 - 1))
def test_assemble_from_table_equals_hand_written_blocks(kg, seed):
    kind, gains = kg
    graph = random_connected_graph(np.random.default_rng(seed), max_nodes=12)
    system = nc.assemble(graph, kind, gains)
    a, b = reference_assemble(graph, kind, gains)
    n = graph.node_count
    assert np.array_equal(system.a, a)
    assert np.array_equal(system.b, b)
    assert np.array_equal(system.c[:, :n], np.eye(n) - np.ones((n, n)) / n)
    assert not system.c[:, n:].any()


# unstable laws: the zero polynomials f0 + f lambda, g0 + g lambda, and f c lambda^2
UNSTABLE = [("p", nc.PGains(f=0.0, g=1.0, f0=0.0, g0=1.0)), ("p", nc.PGains(f=1.0, g=0.0, f0=1.0, g0=0.0)),
            ("dapi", nc.DapiGains(f=1.0, g=0.5, g0=1.0, k_i=1.0, c=0.0))]


@PROPERTY
@given(st.integers(3, 40), st.sampled_from(UNSTABLE), st.data())
def test_lowest_unstable_mode_is_named(size, law, data):
    # a factor polynomial of an unstable law is zero, so every mode fails
    # Routh-Hurwitz and the lowest, mode 2, is named; a factor that overflows
    # from a chosen mode on names that mode, as out of range, not unstable
    kind, gains = law
    spec = nc.ring_spectrum(size, 1.0)
    with pytest.raises(InstabilityError) as err:
        nc.modal_variance(spec, kind, gains)
    assert err.value.mode_index == 2
    assert str(err.value).startswith(f"mode 2 (lambda={spec.eigenvalues[1]:.6g}) is not Hurwitz")
    first = data.draw(st.integers(0, size - 2))
    lam = np.concatenate([[0.0], np.arange(1.0, first + 1.0), np.full(size - 1 - first, 1e308)])
    with pytest.raises(NumericalError, match=rf"^mode {first + 2} \(lambda=1e\+308\) .* out of float range"):
        nc.modal_variance(nc.LaplacianSpectrum(lam, 1e-9), "p", nc.PGains(10.0, 1.0, 1.0, 1.0))


def test_unstable_mode_at_index_two_is_named():
    spec = nc.ring_spectrum(9, 1.0)
    with pytest.raises(InstabilityError) as err:
        nc.modal_variance(spec, "p", nc.PGains(f=0.0, g=1.0))
    assert err.value.mode_index == 2


def exact_term(m):
    """The modal term (b_1^2 a_0 + b_0^2 a_2) / (a_0 (a_1 a_2 - a_0)) of a 3x3 matrix, as a Fraction."""
    m = [[Fraction(x) for x in row] for row in m]
    a2 = -(m[0][0] + m[1][1] + m[2][2])
    a1 = sum(m[i][i] * m[j][j] - m[i][j] * m[j][i] for i, j in ((0, 1), (0, 2), (1, 2)))
    a0 = -(m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1]) - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
           + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
    b1, b0 = m[0][1], m[0][2] * m[2][1] - m[0][1] * m[2][2]
    return (b1 * b1 * a0 + b0 * b0 * a2) / (a0 * (a1 * a2 - a0))


# the a-priori bound of modal_variance's docstring for d = 3: gamma_51, u = 2**-53
GAMMA_51 = Fraction(51, 2**53 - 51)


@pytest.mark.parametrize(
    "kind,gains,spec",
    [("dapi", nc.DapiGains(f=1.0, g=0.0, g0=1.0, k_i=1.0, c=1e-6), nc.path_spectrum(4096, 1.0)),
     ("dapi", nc.DapiGains(f=1.0, g=0.0, g0=1.0, k_i=1.0, c=1e-6), nc.ring_spectrum(4096, 1.0)),
     ("fdpd", nc.FdpdGains(f=1e-3, g=1e-3, f0=1e3, k_d=1e-3, tau=50.0), nc.path_spectrum(4096, 1.0)),
     ("fdpd", nc.FdpdGains(f=1e-3, g=1e-3, f0=1e3, k_d=1e-3, tau=50.0), nc.ring_spectrum(4096, 1.0))],
    ids=["dapi-c1e-6-path4096", "dapi-c1e-6-ring4096", "fdpd-slow-path4096", "fdpd-slow-ring4096"],
)
def test_slow_mode_terms_are_within_the_a_priori_bound(kind, gains, spec):
    # slow modes near the Hurwitz boundary: DAPI's root near -f c lambda^2 / k_i
    # (mode 2 of path 4096 at c = 1e-6: lambda = 5.9e-7), and F-DPD where a_1
    # and a_0 / a_2 agree to most of their digits.  Each term is held to the
    # stated bound against the exact term of the table entries alpha + beta lambda
    alpha, beta = _law(kind, gains)[2].tolist()
    report = nc.modal_variance(spec, kind, gains)
    for i in (0, 1, 2, 100, report.terms.size - 1):
        lam = Fraction(report.eigenvalues[i])
        exact = exact_term([[Fraction(a) + Fraction(b) * lam for a, b in zip(*rows)] for rows in zip(alpha, beta)])
        assert abs(Fraction(report.terms[i]) - exact) <= GAMMA_51 * exact, i


@pytest.mark.parametrize("kind", ["p", "dapi"])
def test_non_finite_mode_is_named_not_a_bare_linalg_error(kind):
    # LaplacianSpectrum rejects non-finite eigenvalues, so a non-finite factor
    # can only come from overflow: f * lambda_3 = 10 * 1e308.  The mode is
    # stable; its term is out of range
    spec = nc.LaplacianSpectrum(np.array([0.0, 1.0, 1e308]), 1e-9)
    gains = {"p": nc.PGains(10.0, 1.0, 1.0, 1.0), "dapi": nc.DapiGains(10.0, 0.0, 1.0, 1.0, 0.1)}
    with pytest.raises(NumericalError, match=r"^mode 3 \(lambda=1e\+308\)"):
        nc.modal_variance(spec, kind, gains[kind])


def test_overflowing_stable_mode_is_not_called_unstable():
    # mode 3 is stable, and dapi_variance answers; its a_0 = f c lambda^2
    # overflows, so the modal route refuses the term as out of range
    spec = nc.LaplacianSpectrum(np.array([0.0, 1.0, 1e155]), 1e-9)
    with pytest.raises(NumericalError, match=r"^mode 3 \(lambda=1e\+155\) has a Hurwitz factor out of float range"):
        nc.modal_variance(spec, "dapi", nc.DapiGains(1.0, 0.5, 1.0, 0.8, 0.1))


def test_overflowing_hurwitz_determinant_of_a_p_mode_is_refused():
    # at lambda = 1e155, a_1 = g0 + g lambda and a_0 = f0 + f lambda are in range but a_0 a_1 is not, so the term
    # b_0^2 / (a_0 a_1) would round to 0; the closed form refuses mode 3 too
    spec = nc.LaplacianSpectrum(np.array([0.0, 1.0, 1e155]), 1e-9)
    gains = nc.PGains(1.0, 0.5, 1.0, 0.8)
    with pytest.raises(NumericalError, match=r"^mode 3 \(lambda=1e\+155\) has a denominator out of float range"):
        nc.p_variance(spec, gains)
    with pytest.raises(NumericalError, match=r"^mode 3 \(lambda=1e\+155\) has a Hurwitz factor out of float range"):
        nc.modal_variance(spec, "p", gains)


# DAPI is Hurwitz for every c > 0, but the coefficient f c = 1e-340 of its a_0 = f c lambda^2 underflows to 0
UNDERFLOW = nc.DapiGains(f=1e-170, g=0.5, g0=1.0, k_i=0.8, c=1e-170)


@pytest.mark.parametrize("spec", [nc.path_spectrum(3, 1.0), nc.ring_spectrum(8, 1.0)], ids=["path3", "ring8"])
def test_underflowing_factor_of_a_hurwitz_law_is_not_called_unstable(spec):
    # the closed form answers; the modal route's a_0 comes out the zero polynomial, and the law's sign pattern
    # tells that from a zero gain: it refuses the factor as out of range, naming mode 2
    closed = nc.dapi_variance(spec, UNDERFLOW).v_n
    assert closed == pytest.approx(23.0 / 36.0, rel=1e-15) if spec.node_count == 3 else closed > 0.0
    with pytest.raises(NumericalError, match=r"^mode 2 \(lambda=[0-9.]+\) has a Hurwitz factor that underflows to 0"):
        nc.modal_variance(spec, "dapi", UNDERFLOW)


log_gain = st.floats(-200.0, 3.0).map(lambda e: 10.0**e)
log_gain_or_zero = st.one_of(st.just(0.0), log_gain)


@st.composite
def log_kind_and_gains(draw):
    kind = draw(st.sampled_from(["p", "dapi", "fdpd"]))
    if kind == "p":
        return kind, nc.PGains(*(draw(log_gain_or_zero) for _ in range(4)))
    if kind == "dapi":
        return kind, nc.DapiGains(draw(log_gain), draw(log_gain_or_zero), draw(log_gain), draw(log_gain),
                                  draw(log_gain_or_zero))
    return kind, nc.FdpdGains(draw(log_gain_or_zero), draw(log_gain_or_zero), draw(log_gain), draw(log_gain),
                              draw(log_gain_or_zero))


@settings(max_examples=150, deadline=None)
@given(log_kind_and_gains(), st.sampled_from([nc.build_path(3, 1.0), nc.build_ring(8, 1.0)]))
@example(("dapi", UNDERFLOW), nc.build_path(3, 1.0))
def test_only_a_zero_gain_law_is_called_unstable(kg, graph):
    # gains from 1e-200 to 1e3, where factors underflow and the slow roots fall below eigenvalue resolution:
    # the modal route and the step checks refuse such loops with NumericalError, never InstabilityError, and the
    # modal route calls every zero-gain law unstable
    kind, gains = kg
    try:
        nc.modal_variance(nc.spectrum(graph), kind, gains)
        assert not zero_gain(kind, gains)
    except InstabilityError as exc:
        assert zero_gain(kind, gains) and exc.mode_index == 2
    except NumericalError:
        pass
    try:
        nc.slowest_time_constant(nc.assemble(graph, kind, gains))
    except InstabilityError:
        assert zero_gain(kind, gains)
    except NumericalError:
        pass


def test_table_with_a_nan_coefficient_is_refused():
    # g + c overflows in the bialternate sum's entry e_11 + e_22, and the
    # expansion meets 0 * inf: the premise that every coefficient is >= 0 fails
    spec = nc.ring_spectrum(8, 1.0)
    with pytest.raises(NumericalError, match="negative or nan coefficient"):
        nc.modal_variance(spec, "dapi", nc.DapiGains(f=1.0, g=1e308, g0=1.0, k_i=1.0, c=1e308))

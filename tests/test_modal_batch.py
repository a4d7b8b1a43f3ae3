"""Property tests: the coefficient tables and the companion-form modal oracle.

The hand-written block and modal matrices below are the definitions the
coefficient tables replaced; they stay here as the reference the tables must
reproduce exactly.
"""

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import netcoh as nc
from netcoh import variance
from netcoh.closed_loop import modal_matrices, routh_hurwitz
from netcoh.errors import InstabilityError, NumericalError
from netcoh.variance import MODAL_FORWARD_TOL

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
def test_companion_terms_match_per_mode_solves(kg, values):
    kind, gains = kg
    assume(kind != "p" or (gains.f > 0.0 or gains.f0 > 0.0) and (gains.g > 0.0 or gains.g0 > 0.0))
    assume(kind != "dapi" or gains.c >= 1e-3)
    spec = nc.LaplacianSpectrum(np.array([0.0] + values), 1e-9)
    lam = spec.connected_modes()
    try:
        terms = nc.modal_variance(spec, kind, gains).terms
    except InstabilityError as exc:  # Routh-Hurwitz, the route's only Hurwitz test
        assert not routh_hurwitz(modal_matrices(kind, gains, lam)).all()
        assert str(exc).startswith(f"mode {exc.mode_index} (lambda=")
        return
    except NumericalError as exc:  # near-marginal modes
        assert "forward error estimate" in str(exc)
        return
    # each mode's Kronecker solve, compared where its own forward-error
    # estimate eps ||A|| ||P|| is below 1e-10; that estimate, plus the few
    # roundings of the companion term, is the tolerance
    for mode, term in zip(modal_matrices(kind, gains, lam), terms):
        e_x, e_v = np.eye(mode.shape[-1])[:2]
        try:
            p = nc.solve_lyapunov(mode, np.outer(e_x, e_x))
        except (InstabilityError, NumericalError):  # its eigenvalue check calls damping 9.66e-273 unstable
            continue
        estimate = np.finfo(float).eps * np.abs(mode).max() * np.abs(p).max()
        if estimate < 1e-10:
            looped = 2.0 * float(e_v @ p @ e_v)
            assert abs(term - looped) <= (estimate + 4.0 * np.finfo(float).eps) * abs(looped)


@PROPERTY
@given(kind_and_gains(), lams)
def test_routh_hurwitz_matches_eigenvalues_for_gains(kg, values):
    kind, gains = kg
    stack = modal_matrices(kind, gains, np.array(values))
    for a, verdict in zip(stack, routh_hurwitz(stack)):
        eigs = np.linalg.eigvals(a)
        if np.abs(eigs.real).min() <= 1e-6 * max(1.0, np.abs(eigs).max()):
            continue  # on the stability boundary the verdicts may differ
        assert verdict == bool(np.all(eigs.real < 0.0))


@PROPERTY
@given(st.sampled_from([2, 3]), st.lists(st.floats(-3.0, 3.0), min_size=9, max_size=9))
def test_routh_hurwitz_matches_eigenvalues_for_any_matrix(d, entries):
    a = np.array(entries[: d * d]).reshape(d, d)
    eigs = np.linalg.eigvals(a)
    assume(np.abs(eigs.real).min() > 1e-6 * max(1.0, np.abs(eigs).max()))
    assert routh_hurwitz(a[None])[0] == bool(np.all(eigs.real < 0.0))


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


@PROPERTY
@given(st.integers(3, 40), st.data())
def test_lowest_unstable_mode_is_named(size, data):
    # replace modal matrices by an unstable one at chosen indices; every
    # other mode stays a stable P mode
    first = data.draw(st.integers(0, size - 2))
    later = data.draw(st.integers(first, size - 2))
    spec = nc.ring_spectrum(size, 1.0)
    gains = nc.PGains(1.0, 1.0, 1.0, 1.0)

    def with_unstable(kind, g, lam):
        stack = modal_matrices(kind, g, lam).copy()
        stack[[first, later]] = [[0.0, 1.0], [1.0, -1.0]]
        return stack

    with mock.patch.object(variance, "modal_matrices", with_unstable):
        with pytest.raises(InstabilityError) as err:
            nc.modal_variance(spec, "p", gains)
    assert err.value.mode_index == first + 2
    assert str(err.value).startswith(f"mode {first + 2} (lambda=")


def test_unstable_mode_at_index_two_is_named():
    spec = nc.ring_spectrum(9, 1.0)
    with pytest.raises(InstabilityError) as err:
        nc.modal_variance(spec, "p", nc.PGains(f=0.0, g=1.0))
    assert err.value.mode_index == 2


def exact_term(m):
    """The modal term (b_1^2 a_0 + b_0^2 a_2) / (a_0 (a_1 a_2 - a_0)) of a 3x3 float matrix, exactly."""
    m = [[Fraction(x) for x in row] for row in m]
    a2 = -(m[0][0] + m[1][1] + m[2][2])
    a1 = sum(m[i][i] * m[j][j] - m[i][j] * m[j][i] for i, j in ((0, 1), (0, 2), (1, 2)))
    a0 = -(m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1]) - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
           + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
    b1, b0 = m[0][1], m[0][2] * m[2][1] - m[0][1] * m[2][2]
    return float((b1 * b1 * a0 + b0 * b0 * a2) / (a0 * (a1 * a2 - a0)))


def block_form(delta):
    return [[-delta, 1.0, 0.0], [-1.0, -delta, 0.0], [0.0, 0.0, -1.0]]


def companion_form(delta):  # det(sI - A) = (s + 1)((s + delta)^2 + 1)
    return [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-(1.0 + delta**2), -(1.0 + delta) ** 2, -(1.0 + 2.0 * delta)]]


@pytest.mark.parametrize(
    "form,delta,refused",
    [(block_form, 1e-9, False), (block_form, 1e-6, False), (companion_form, 1e-9, True),
     (companion_form, 1e-6, False)],
)
def test_mode_near_the_hurwitz_boundary_is_refused(form, delta, refused):
    # roots -delta +- i and -1.  In block form a_1 a_2 - a_0 = 2 delta ((1 + delta)^2 + 1)
    # is expanded with no subtraction, and the term is good to a few ulp.  In
    # companion form h's expansion forms a_1 a_2 - a_0 ~ 4 delta as a 2x2 minor,
    # which cancels, so the term is good only to about u / delta relative
    spec = nc.ring_spectrum(8, 1.0)
    gains = nc.DapiGains(1.0, 0.0, 1.0, 1.0, 0.1)

    def near_boundary(kind, g, lam):
        stack = modal_matrices(kind, g, lam).copy()
        stack[3] = form(delta)
        return stack

    with mock.patch.object(variance, "modal_matrices", near_boundary):
        if refused:
            with pytest.raises(NumericalError, match=r"forward error estimate .* mode 5 \(lambda="):
                nc.modal_variance(spec, "dapi", gains)
            return
        term = nc.modal_variance(spec, "dapi", gains).terms[3]
    rel = 4.0 * np.finfo(float).eps if form is block_form else MODAL_FORWARD_TOL
    assert term == pytest.approx(exact_term(form(delta)), rel=rel)


@pytest.mark.parametrize("kind", ["p", "dapi"])
def test_non_finite_mode_is_named_not_a_bare_linalg_error(kind):
    # LaplacianSpectrum rejects non-finite eigenvalues, so a non-finite modal
    # matrix can only come from overflow: f * lambda_3 = 10 * 1e308
    spec = nc.LaplacianSpectrum(np.array([0.0, 1.0, 1e308]), 1e-9)
    gains = {"p": nc.PGains(10.0, 1.0, 1.0, 1.0), "dapi": nc.DapiGains(10.0, 0.0, 1.0, 1.0, 0.1)}
    with pytest.raises(InstabilityError) as err, np.errstate(over="ignore", invalid="ignore"):
        nc.modal_variance(spec, kind, gains[kind])
    assert err.value.mode_index == 3

"""Property tests: the coefficient tables and the batched modal oracle.

The hand-written block and modal matrices below are the definitions the
coefficient tables replaced; they stay here as the reference the tables must
reproduce exactly.
"""

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
def test_batched_terms_match_looped_solves(kg, values):
    kind, gains = kg
    assume(kind != "p" or (gains.f > 0.0 or gains.f0 > 0.0) and (gains.g > 0.0 or gains.g0 > 0.0))
    assume(kind != "dapi" or gains.c >= 1e-3)
    spec = nc.LaplacianSpectrum(np.array([0.0] + values), 1e-9)
    # the per-mode loop the batch replaced, errors included, and the
    # estimated forward error of V_N that modal_variance checks afterwards.
    # Routh-Hurwitz is the modal route's only Hurwitz test, so each mode is
    # solved as solve_lyapunov solves it less its eigenvalue check, which
    # called the example's stable mode (damping 9.66e-273) unstable
    looped, estimates, expected = [], [], None
    for n, lam in enumerate(spec.connected_modes().tolist(), start=2):
        a = modal_matrices(kind, gains, np.array([lam]))  # one mode: noise enters v, the output reads x
        e_x, e_v = np.eye(a.shape[-1])[:2]
        if not routh_hurwitz(a)[0]:
            expected = (InstabilityError, f"mode {n} (lambda={lam:.6g}) is not Hurwitz")
            break
        p, checks = variance._lyapunov_stack(a, np.outer(e_x, e_x), (np.zeros(1, bool), None))
        try:
            variance._raise_first(checks)
        except NumericalError as exc:  # near-marginal or slow modes
            expected = (type(exc), str(exc))
            break
        p = p[0]
        looped.append(2.0 * float(e_v @ p @ e_v))
        with np.errstate(over="ignore"):
            estimates.append(np.finfo(float).eps * np.abs(a).max() * np.abs(p).max() * abs(looped[-1]))
    ill_conditioned = np.sum(estimates) > MODAL_FORWARD_TOL * abs(np.sum(looped))
    try:
        terms = nc.modal_variance(spec, kind, gains).per_mode[:, 2]
    except (InstabilityError, NumericalError) as exc:
        if expected is None and ill_conditioned:
            assert type(exc) is NumericalError and "forward error estimate" in str(exc)
        else:
            assert (type(exc), str(exc)) == expected
        return
    assert expected is None and not ill_conditioned
    looped = np.array(looped)
    assert np.all(np.abs(terms - looped) <= 1e-14 * np.abs(looped))


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


def test_singular_system_in_a_batch_is_reported_per_matrix():
    # the zero matrix makes its Kronecker system singular; the batch must not
    # surface a bare LinAlgError, and its neighbours must still be solved
    stack = np.array([-np.eye(2), np.zeros((2, 2)), -2.0 * np.eye(2)])
    p, checks = variance._lyapunov_stack(stack, np.eye(2))
    singular, make_error = checks[1]
    assert singular.tolist() == [False, True, False]
    assert str(make_error(1)) == "singular Kronecker system: Singular matrix"
    assert np.allclose(p[0], 0.5 * np.eye(2)) and np.allclose(p[2], 0.25 * np.eye(2))
    with pytest.raises(InstabilityError):
        variance._raise_first(checks)


@pytest.mark.parametrize("kind", ["p", "dapi"])
def test_non_finite_mode_is_named_not_a_bare_linalg_error(kind):
    # LaplacianSpectrum rejects non-finite eigenvalues, so a non-finite modal
    # matrix can only come from overflow: f * lambda_3 = 10 * 1e308
    spec = nc.LaplacianSpectrum(np.array([0.0, 1.0, 1e308]), 1e-9)
    gains = {"p": nc.PGains(10.0, 1.0, 1.0, 1.0), "dapi": nc.DapiGains(10.0, 0.0, 1.0, 1.0, 0.1)}
    with pytest.raises(InstabilityError) as err, np.errstate(over="ignore", invalid="ignore"):
        nc.modal_variance(spec, kind, gains[kind])
    assert err.value.mode_index == 3

"""Tests of the one restricted Newton loop under its two penalties.

restricted_maximize had the Gaussian prior written into its Newton loop; the
loop now takes the penalty as an argument, and FISTA's Newton finish runs it
with the l1 penalty.  (test_newton_kernels.py checks the pursuits' solves
bit for bit against the prior-only loop.)  The l1 penalty's gradient and
curvature blocks are checked against finite differences on the interleaved
real form, and its drop rule against the KKT certificate that the finish
rests on.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import onebitcs.solvers as solvers_module
from onebitcs.objective import likelihood
from onebitcs.solvers import (
    FINISH_TOL,
    _GAUSSIAN_PRIOR,
    _fista_finish,
    _hessian_factors,
    _l1_penalty,
    _neg_hessian,
    run_fista,
)

from oracles import make_ctx

SETTINGS = settings(max_examples=30, deadline=None, derandomize=True)


def random_values(rng, q, low=0.1, high=10.0):
    """q complex values with magnitudes in [low, high] and uniform phases."""
    return rng.uniform(low, high, q) * np.exp(1j * rng.uniform(0, 2 * np.pi, q))


def central_jacobian(fn, x, h):
    """The central-difference Jacobian of fn at x, one column per entry of x."""
    cols = []
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = h
        cols.append((np.asarray(fn(x + e)) - np.asarray(fn(x - e))) / (2.0 * h))
    return np.array(cols).T


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), q=st.integers(1, 6), gamma=st.floats(0.01, 100.0))
def test_l1_penalty_matches_finite_differences(seed, q, gamma):
    # On the interleaved real form x = b.view(float): the gradient is the
    # derivative of the value, and the curvature blocks are minus the
    # derivative of the gradient, block diagonal with one (2, 2) block per
    # entry.  Magnitudes of at least 0.1 keep the third derivative,
    # gamma / |b|^2, and so the difference error, small at h = 1e-6.
    penalty = _l1_penalty(gamma)
    x = random_values(np.random.default_rng(seed), q).view(float)
    h = 1e-6
    grad = penalty.gradient(x)
    fd_grad = central_jacobian(lambda z: [penalty.value(z)], x, h)[0]
    assert np.allclose(grad, fd_grad, rtol=0, atol=1e-7 * gamma)
    neg_hess = np.zeros((2 * q, 2 * q))
    blocks = penalty.curvature(x)
    assert blocks.shape == (q, 2, 2)
    for j in range(q):
        neg_hess[2 * j:2 * j + 2, 2 * j:2 * j + 2] = blocks[j]
    fd_neg_hess = -central_jacobian(penalty.gradient, x, h)
    assert np.allclose(neg_hess, fd_neg_hess, rtol=0, atol=1e-6 * gamma)
    # Each block is gamma / |b_j| across b_j and zero along it.
    mags = np.abs(x.view(complex))
    assert np.allclose(np.linalg.eigvalsh(blocks), np.stack([0 * mags, gamma / mags], 1),
                       rtol=1e-12, atol=1e-12 * gamma)


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), rho=st.sampled_from([1.0, 10.0, 100.0]),
       q=st.integers(1, 5), fraction=st.floats(0.1, 1.0))
def test_l1_newton_matrix_is_minus_the_objective_jacobian(seed, rho, q, fraction):
    # The negative Hessian the loop solves against under the l1 penalty:
    # the likelihood's, from the Kronecker factors, plus the penalty's
    # blocks on the diagonal.  It is minus the finite-difference Jacobian of
    # the loop's gradient of f(C b) - gamma ||b||_1 in x = b.view(float).
    ctx = make_ctx(seed, rho)
    rng = np.random.default_rng(seed)
    support = np.sort(rng.choice(ctx.op.B, size=q, replace=False))
    gamma = fraction * float(np.max(np.abs(ctx.gradient_at_zero)))
    penalty = _l1_penalty(gamma)
    cols = ctx.op.columns(support)
    x = random_values(rng, q, 0.2, 2.0).view(float)

    def gradient(z):
        terms = likelihood(ctx, cols @ z.view(complex))
        return (cols.T.conj() @ terms.weights).view(float) + penalty.gradient(z)

    terms = likelihood(ctx, cols @ x.view(complex))
    factors = _hessian_factors(ctx, support)
    curv = terms.lam * (terms.v + terms.lam)
    got = _neg_hessian(factors, curv, penalty.curvature(x))
    want = -central_jacobian(gradient, x, 1e-6)
    assert np.allclose(got, want, rtol=1e-5, atol=1e-5 * max(1.0, np.max(np.abs(want))))
    # The blocks go on the diagonal of the likelihood's part and nowhere else.
    blocks = np.zeros_like(got)
    for j, block in enumerate(penalty.curvature(x)):
        blocks[2 * j:2 * j + 2, 2 * j:2 * j + 2] = block
    assert np.array_equal(got, _neg_hessian(factors, curv, 0.0) + blocks)
    assert np.array_equal(_neg_hessian(factors, curv), _neg_hessian(factors, curv, 2.0))


def test_gaussian_prior_is_the_old_arithmetic():
    x = np.random.default_rng(3).standard_normal(8)
    assert _GAUSSIAN_PRIOR.value(x) == -float(x @ x)
    assert np.array_equal(_GAUSSIAN_PRIOR.gradient(x), -2.0 * x)
    assert _GAUSSIAN_PRIOR.curvature(x) == 2.0
    assert _GAUSSIAN_PRIOR.crossing is None


def certificate(ctx, gamma, support, values):
    """The restricted gradient norm and the largest |grad_j f| off support, formed from scratch."""
    x = np.zeros(ctx.op.B, dtype=complex)
    x[support] = values
    g = ctx.op.apply_adjoint(likelihood(ctx, ctx.op.apply(x)).weights)
    on = g[support] - gamma * values / np.abs(values)
    off = np.abs(g)
    off[support] = 0.0
    return float(np.linalg.norm(on)), float(off.max())


@pytest.mark.parametrize("seed", range(6))
def test_an_entry_whose_newton_step_crosses_zero_leaves_the_set(seed):
    # Start the finish from the certified optimum, shrunk by 1%, plus one
    # small entry at a column off its support.  The first Newton step sends
    # that entry through zero: the loop stops there and the entry leaves
    # the set.  A finish that then certifies has the optimum's support and
    # values, and passes the certificate formed from scratch; on seed 4 the
    # step drops entries of the optimum's support too, and the finish's
    # full check refuses the result.
    ctx = make_ctx(seed, 10.0)
    gamma = 0.4 * float(np.max(np.abs(ctx.gradient_at_zero)))
    report = run_fista(ctx, gamma)
    assert report.halted_by == "newton"
    optimum = report.estimate
    off = np.setdiff1d(np.arange(ctx.op.B), optimum.support)
    extra = int(off[seed % off.size])
    x = optimum.x_hat.copy()
    x[optimum.support] *= 0.99
    x[extra] = 1e-3 * np.min(np.abs(optimum.x_hat[optimum.support])) * np.exp(0.7j)
    support = np.sort(np.append(optimum.support, extra))
    crossings = []
    real_loop = solvers_module._newton_loop

    def loop(*args, **kwargs):
        out = real_loop(*args, **kwargs)
        crossings.append(out[3])
        return out

    with mock.patch.object(solvers_module, "_newton_loop", loop):
        finished = _fista_finish(ctx, gamma, support, x[support], ctx.op.apply(x))
    assert crossings[0][np.searchsorted(support, extra)]
    if crossings[0].sum() > 1:
        assert finished is None
        return
    assert finished is not None
    assert crossings[1:] == [None]
    got_support, values, steps = finished
    assert np.array_equal(got_support, optimum.support)
    assert steps
    assert np.allclose(values, optimum.x_hat[optimum.support], rtol=0, atol=1e-8)
    on, off_max = certificate(ctx, gamma, got_support, values)
    assert on <= 10 * FINISH_TOL * np.sqrt(got_support.size)
    assert off_max <= gamma

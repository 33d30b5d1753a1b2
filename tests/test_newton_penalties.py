"""Tests of the one restricted Newton loop under its two penalties.

restricted_maximize had the Gaussian prior written into its Newton loop; the
loop now takes the penalty as an argument, and FISTA's Newton finish runs it
with the l1 penalty.  (test_newton_kernels.py checks the pursuits' solves
bit for bit against the prior-only loop.)  The l1 penalty's gradient and
the curvature blocks its diagonal pair makes are checked against finite
differences on the interleaved real form, the one Newton matrix against the
retired block assembly, and the drop rule against the KKT certificate that
the finish rests on.
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

from oracles import (
    fista_step,
    make_ctx,
    one_shot_fista_finish,
    oracle_block_neg_hessian,
    oracle_l1_curvature_blocks,
)

SETTINGS = settings(max_examples=30, deadline=None, derandomize=True)


def random_values(rng, q, low=0.1, high=10.0):
    """q complex values with magnitudes in [low, high] and uniform phases."""
    return rng.uniform(low, high, q) * np.exp(1j * rng.uniform(0, 2 * np.pi, q))


def pair_blocks(pair, q):
    """The (q, 2, 2) blocks a I + [[Re s, Im s], [Im s, -Re s]] that a curvature pair (a, s) makes."""
    a, s = np.broadcast_to(pair, (2, q))
    return a.real[:, None, None] * np.eye(2) + np.stack(
        [np.stack([s.real, s.imag], -1), np.stack([s.imag, -s.real], -1)], 1)


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
    # derivative of the value, and the curvature blocks that the diagonal
    # pair makes are minus the derivative of the gradient, block diagonal
    # with one (2, 2) block per entry.  Magnitudes of at least 0.1 keep the
    # third derivative, gamma / |b|^2, and so the difference error, small
    # at h = 1e-6.
    penalty = _l1_penalty(gamma)
    x = random_values(np.random.default_rng(seed), q).view(float)
    h = 1e-6
    grad = penalty.gradient(x.view(complex))
    fd_grad = central_jacobian(lambda z: [penalty.value(z.view(complex))], x, h)[0]
    assert np.allclose(grad, fd_grad, rtol=0, atol=1e-7 * gamma)
    neg_hess = np.zeros((2 * q, 2 * q))
    pair = penalty.curvature(x.view(complex))
    assert pair.shape == (2, q) and not pair[0].imag.any()
    blocks = pair_blocks(pair, q)
    for j in range(q):
        neg_hess[2 * j:2 * j + 2, 2 * j:2 * j + 2] = blocks[j]
    fd_neg_hess = -central_jacobian(lambda z: penalty.gradient(z.view(complex)), x, h)
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
    # the likelihood's, from the Kronecker factors, plus the blocks of the
    # penalty's pair on the diagonal.  It is minus the finite-difference
    # Jacobian of the loop's gradient of f(C b) - gamma ||b||_1 in x =
    # b.view(float).
    ctx = make_ctx(seed, rho)
    rng = np.random.default_rng(seed)
    support = np.sort(rng.choice(ctx.op.B, size=q, replace=False))
    gamma = fraction * float(np.max(np.abs(ctx.gradient_at_zero)))
    penalty = _l1_penalty(gamma)
    cols = ctx.op.columns(support)
    x = random_values(rng, q, 0.2, 2.0).view(float)

    def gradient(z):
        terms = likelihood(ctx, cols @ z.view(complex))
        return (cols.T.conj() @ terms.weights).view(float) + penalty.gradient(z.view(complex))

    terms = likelihood(ctx, cols @ x.view(complex))
    factors = _hessian_factors(ctx, support)
    curv = terms.lam * (terms.v + terms.lam)
    got = _neg_hessian(factors, curv, penalty.curvature(x.view(complex)))
    want = -central_jacobian(gradient, x, 1e-6)
    assert np.allclose(got, want, rtol=1e-5, atol=1e-5 * max(1.0, np.max(np.abs(want))))
    # The blocks go on the diagonal of the likelihood's part and nowhere
    # else: off the diagonal blocks every entry is the likelihood's, bit for
    # bit, and on them the sum within rounding, since the pair joins the
    # likelihood's terms before the rows mix.
    blocks = np.zeros_like(got)
    for j, block in enumerate(pair_blocks(penalty.curvature(x.view(complex)), q)):
        blocks[2 * j:2 * j + 2, 2 * j:2 * j + 2] = block
    likelihood_part = _neg_hessian(factors, curv, np.zeros((2, 1)))
    on = np.kron(np.eye(q, dtype=bool), np.ones((2, 2), dtype=bool))
    assert np.array_equal(got[~on], likelihood_part[~on])
    assert np.allclose(got[on], (likelihood_part + blocks)[on], rtol=1e-13,
                       atol=1e-13 * np.max(np.abs(got)))
    prior = _GAUSSIAN_PRIOR.curvature(x.view(complex))
    assert np.array_equal(_neg_hessian(factors, curv), _neg_hessian(factors, curv, prior))


def test_gaussian_prior_is_the_old_arithmetic():
    x = np.random.default_rng(3).standard_normal(8)
    b = x.view(complex)
    assert _GAUSSIAN_PRIOR.value(b) == -float(x @ x)
    assert np.array_equal(_GAUSSIAN_PRIOR.gradient(b), -2.0 * x)
    assert np.array_equal(_GAUSSIAN_PRIOR.curvature(b), [[2.0], [0.0]])
    assert _GAUSSIAN_PRIOR.crossing is None


@pytest.mark.parametrize("rho", [0.1, 10.0, 1000.0])
@pytest.mark.parametrize("seed", range(4))
def test_one_diagonal_pair_matches_the_retired_block_assembly(seed, rho):
    # The prior's pair adds its 2 where the retired assembly added 2.0, so
    # the matrix is the same bit for bit; the l1 pair joins before the rows
    # mix instead of as blocks after it, so it agrees within rounding.
    ctx = make_ctx(seed, rho)
    rng = np.random.default_rng(seed)
    q = 1 + seed
    support = np.sort(rng.choice(ctx.op.B, size=q, replace=False))
    b = random_values(rng, q, 0.2, 2.0)
    terms = likelihood(ctx, ctx.op.columns(support) @ b)
    factors = _hessian_factors(ctx, support)
    curv = terms.lam * (terms.v + terms.lam)
    assert np.array_equal(_neg_hessian(factors, curv, _GAUSSIAN_PRIOR.curvature(b)),
                          oracle_block_neg_hessian(factors, curv))
    gamma = 0.5 * float(np.max(np.abs(ctx.gradient_at_zero)))
    got = _neg_hessian(factors, curv, _l1_penalty(gamma).curvature(b))
    want = oracle_block_neg_hessian(factors, curv, oracle_l1_curvature_blocks(gamma, b))
    assert np.allclose(got, want, rtol=0, atol=1e-14 * np.max(np.abs(want)))
    assert np.allclose(pair_blocks(_l1_penalty(gamma).curvature(b), q),
                       oracle_l1_curvature_blocks(gamma, b), rtol=0, atol=1e-15 * gamma / 0.2)


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
    # the set.  The finish then certifies the optimum's support and values,
    # which pass the certificate formed from scratch.  On seeds 1 and 4 the
    # step drops entries of the optimum's support too: the retired
    # one-shot finish refuses that set, and the certificate's violators
    # bring the dropped entries back in one growth.
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
        finished = _fista_finish(ctx, gamma, support, x[support], ctx.op.apply(x),
                                 fista_step(ctx))
    assert crossings[0][np.searchsorted(support, extra)]
    one_shot = one_shot_fista_finish(ctx, gamma, support, x[support], ctx.op.apply(x))
    if crossings[0].sum() > 1:
        assert seed in (1, 4)
        assert one_shot is None
        assert crossings[1:] == [None, None]
    else:
        assert crossings[1:] == [None]
        assert one_shot is not None
    assert finished is not None
    got_support, values, steps = finished
    assert np.array_equal(got_support, optimum.support)
    assert steps
    assert np.allclose(values, optimum.x_hat[optimum.support], rtol=0, atol=1e-8)
    on, off_max = certificate(ctx, gamma, got_support, values)
    assert on <= 10 * FINISH_TOL * np.sqrt(got_support.size)
    assert off_max <= gamma

"""Differential tests for the pursuits' inner-loop kernels.

Several implementations were replaced, and the earlier ones are the oracles
here:

* the inverse Mills ratio was a masked two-branch pass of its own (erfcx
  below zero, phi / Phi above); the likelihood now derives it from the
  log Phi values it already computes, with erfcx only below -40;
* the restricted Newton step assembled its negative Hessian from the real
  (2MT x 2q) embedding of the column block, and then from two complex
  q x q products; the whole restricted solve, which ran in complex storage
  with the full likelihood at every trial, now runs on one sign-folded
  real block;
* the pursuit steps found each iterate's support with np.nonzero over all
  B entries; they now carry it as a sorted index array;
* the sign-folded solve derived log Phi and the inverse Mills ratios itself,
  and lambda a second time for its failure report; it now calls the
  likelihood kernel sign_terms once per trial and carries the accepted
  trial's lambda;
* the likelihood kernel took log Phi from log_ndtr; it now takes
  log(ndtr), with log_ndtr only where ndtr is not a normal float, and the
  oracles below take log Phi that way in their own code;
* debiased GraSP ran its merged restricted solve to inner_tol and re-ran
  the debias solve from the pruned values even on an unchanged support; the
  merged solve now stops once its L kept entries are certain, and an
  unchanged support restarts from the current iterate;
* the likelihood kernel checked its arguments with isfinite and took a
  second min pass for its erfcx branch, and log Phi looked up the smallest
  normal float on every call; one min and one max pass now serve both, and
  the underflow scan of log Phi is skipped where no argument lies below -37;
* the restricted solve ran on the sign-folded real block K^T = (diag(s)
  C_R)^T and assembled its negative Hessian as 2I + K^T diag(curv) K; it
  now runs on the complex column block, with its likelihood arguments the
  float view of the image, and assembles the Hessian from the Kronecker
  factors' pair products.  The folded block, its Hessian and the folded
  solve are the oracles here, compared at stated tolerances with equal
  Newton counts, since the two sum in different orders;
* each pursuit step formed the image and a likelihood pass at the iterate
  that the step before had just returned; the solves now take the terms at
  their start and return them at their result, and the steps hand them on;
* FISTA and the GraHTP step search took the likelihood in the real-form
  layout s .* real_form(u), with weights complex_form(lam .* s), beside the
  pursuits' interleaved layout; the likelihood now has the one layout of
  u.view(float), and the real-form likelihood is the oracle here.
* the restricted solve had the Gaussian prior written into its Newton loop
  and its Hessian; the loop now takes its penalty as an argument, and the
  pursuits' solves must stay bit for bit oracles.prior_restricted_maximize.

The GraHTP gradient step search returned its smallest step when no step
passed; it now raises ConvergenceError, to which the pursuit loop adds the
current iterate.  FISTA fails through ConvergenceError too.
"""

import math
import tracemalloc
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

import onebitcs.objective as objective_module
import onebitcs.solvers as solvers_module
from onebitcs.errors import CapacityError, ConvergenceError
from onebitcs.model import (
    dft_dictionary,
    draw_channel,
    steering_vector,
    synthesize_measurement,
    zc_training,
)
from onebitcs.objective import (
    ObjectiveContext,
    g_logprior,
    grad_h,
    likelihood,
    loglik,
    sign_terms,
)
from onebitcs.operator import RestrictedOperator, build_operator
from onebitcs.solvers import (
    SolverConfig,
    SolverReport,
    SparseEstimate,
    _hessian_factors,
    _neg_hessian,
    _threshold,
    hard_threshold,
    restricted_maximize,
    run_fista,
    run_grahtp,
    run_grasp,
)

from oracles import complex_form, make_ctx, prior_restricted_maximize, real_form

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)
RTOL = 1e-12


# -- inverse Mills ratio -----------------------------------------------------


def oracle_inv_mills(x):
    """phi(x) / Phi(x) by two masked branches: erfcx below 0, the ratio above."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty_like(x)
    neg = x < 0.0
    out[neg] = np.sqrt(2.0 / np.pi) / special.erfcx(-x[neg] / np.sqrt(2.0))
    pos = ~neg
    phi = np.exp(-0.5 * x[pos] ** 2) / np.sqrt(2.0 * np.pi)
    out[pos] = phi / special.ndtr(x[pos])
    return out


@SETTINGS
@given(st.lists(st.floats(-40.0, 37.0), min_size=1, max_size=64))
def test_inv_mills_matches_two_branch_oracle(values):
    x = np.array(values)
    want = oracle_inv_mills(x)
    assert np.all(np.abs(sign_terms(x)[1] - want) <= RTOL * want)


def test_inv_mills_matches_oracle_on_dense_grid():
    # Also covers the switch to erfcx at -40 from both sides.
    x = np.concatenate([np.linspace(-40.0, 37.0, 200001), [-40.0 - 1e-9, -40.0 + 1e-9]])
    want = oracle_inv_mills(x)
    assert np.max(np.abs(sign_terms(x)[1] - want) / want) <= RTOL


class RealFormTerms(NamedTuple):
    """The likelihood terms in the real-form layout, as the oracle returns them."""

    f: float              # sum_i log Phi(v_i)
    v: np.ndarray         # likelihood arguments s .* real_form(u)
    lam: np.ndarray       # inverse Mills ratios lambda(v)
    weights: np.ndarray   # complex_form(lam .* s): grad f = A^H weights


def real_form_signs(ctx):
    """The scaled sign pattern s = sqrt(2 rho) * real_form(y_hat), from the measurement."""
    return np.sqrt(2.0 * ctx.y_hat.rho) * real_form(ctx.y_hat.y_hat)


def oracle_real_form_likelihood(ctx, u):
    """The likelihood terms at the image u, laid out as real_form(u)."""
    signs = real_form_signs(ctx)
    v = signs * real_form(u)
    f, lam = sign_terms(v)
    return RealFormTerms(f, v, lam, complex_form(lam * signs))


@pytest.mark.parametrize("rho", [0.1, 10.0, 1000.0])
def test_likelihood_terms_match_oracles(rho):
    ctx = make_ctx(3, rho)
    rng = np.random.default_rng(4)
    # Images of growing size push the arguments past -40 at the larger rho.
    for scale in (0.1, 1.0, 10.0):
        u = scale * (rng.standard_normal(ctx.op.M * ctx.op.T)
                     + 1j * rng.standard_normal(ctx.op.M * ctx.op.T))
        terms = likelihood(ctx, u)
        want = oracle_real_form_likelihood(ctx, u)
        assert np.array_equal(as_real_form(terms.v), want.v)
        assert np.array_equal(as_real_form(terms.lam), want.lam)
        assert np.array_equal(terms.weights, want.weights)
        assert abs(terms.f - want.f) <= 1e-13 * abs(want.f)
        f, lam = sign_terms(terms.v)
        assert f == terms.f and np.array_equal(lam, terms.lam)
        mills = oracle_inv_mills(terms.v)
        assert np.all(np.abs(terms.lam - mills) <= RTOL * mills)
        assert terms.f == loglik(ctx, u)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_likelihood_rejects_non_finite_image(bad):
    ctx = make_ctx(5, 10.0)
    u = np.zeros(ctx.op.M * ctx.op.T, dtype=complex)
    u[3] = bad
    with pytest.raises(ValueError):
        likelihood(ctx, u)


@pytest.mark.parametrize("blowup", [1e200, np.nan])
def test_fista_raises_convergence_error_on_blown_up_images(monkeypatch, blowup):
    # An operator whose images blow up makes every step-size trial fail;
    # run_fista gives up with ConvergenceError carrying its last kept
    # iterate, not with the likelihood's ValueError.
    ctx = make_ctx(6, 10.0)
    real_image = RestrictedOperator.image
    monkeypatch.setattr(RestrictedOperator, "image", lambda self, z: blowup * real_image(self, z))
    with pytest.raises(ConvergenceError, match="step size underflow") as err:
        run_fista(ctx, 1.0)
    assert np.array_equal(err.value.best, np.zeros(ctx.op.B, dtype=complex))


# -- log Phi through ndtr ----------------------------------------------------

# log Phi stays within LOG_CDF_ULPS * 2^-52 * max(1, |log Phi|) of log_ndtr.
# Each is a few units of 2^-52 from the exact value; they differ most near
# v = -1.3, where ndtr forms 1 - erf (4.9 units on a dense grid over (-2, -1)).
LOG_CDF_ULPS = 8
# lambda stays within LAMBDA_RTOL of sqrt(2/pi) / erfcx(-v / sqrt 2), or within
# the smallest normal float where it is subnormal.
LAMBDA_RTOL = 1e-12
FLOAT64 = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),     # subnormals included
    st.floats(-45.0, -37.5), st.floats(-2.0, 0.0), st.floats(8.3, 40.0),
    st.floats(-1e-300, 1e-300),
)


@SETTINGS
@given(st.lists(FLOAT64, min_size=1, max_size=32))
def test_log_cdf_and_ratios_hold_their_bounds_over_float64(values):
    v = np.array(values)
    # Arguments near the float64 limits overflow v^2 and log Phi on the way.
    with np.errstate(all="ignore"):
        lam = sign_terms(v)[1]
        for x, lam_x in zip(v, lam):
            got, want = sign_terms(np.array([x]))[0], special.log_ndtr(x)
            assert got == want or abs(got - want) <= LOG_CDF_ULPS * 2.0**-52 * max(1.0, -want)
            ref = np.sqrt(2.0 / np.pi) / special.erfcx(-x / np.sqrt(2.0))
            # Both overflow to inf together below about -1.3e308.
            assert lam_x == ref or abs(lam_x - ref) <= LAMBDA_RTOL * ref + np.finfo(float).tiny
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                sign_terms(np.append(v, bad))


def oracle_sign_terms(v):
    """The kernel with an isfinite check and a min pass of its own for erfcx."""
    if not np.isfinite(v).all():
        raise ValueError("likelihood requires a finite operator image")
    log_cdf = special.ndtr(v)
    tiny = np.finfo(float).tiny
    if log_cdf.min(initial=1.0) < tiny:
        under = log_cdf < tiny
        log_cdf[under] = 1.0
        np.log(log_cdf, out=log_cdf)
        log_cdf[under] = special.log_ndtr(v[under])
    else:
        np.log(log_cdf, out=log_cdf)
    lam = np.multiply(v, -0.5)
    lam *= v
    lam -= 0.5 * np.log(2.0 * np.pi)
    lam -= log_cdf
    np.exp(lam, out=lam)
    if v.min(initial=0.0) < -40.0:
        deep = v < -40.0
        lam[deep] = np.sqrt(2.0 / np.pi) / special.erfcx(-v[deep] / np.sqrt(2.0))
    return float(log_cdf.sum()), lam


def assert_kernel_matches_oracle(v):
    f, lam = sign_terms(v)
    want_f, want_lam = oracle_sign_terms(v)
    assert f == want_f
    assert np.array_equal(lam.view(np.int64), want_lam.view(np.int64))


def test_kernel_checks_match_the_isfinite_kernel_from_minus_45_to_40():
    grid = np.linspace(-45.0, 40.0, 170_001)
    assert_kernel_matches_oracle(grid)
    rng = np.random.default_rng(0)
    for _ in range(200):
        assert_kernel_matches_oracle(rng.choice(grid, size=int(rng.integers(1, 64))))
    for sd in (0.3, 1.5, 30.0):
        assert_kernel_matches_oracle(np.clip(sd * rng.standard_normal(10_240), -45.0, 40.0))
    assert_kernel_matches_oracle(np.zeros(0))
    for bad in (np.nan, np.inf, -np.inf):
        for where in (0, 5, -1):
            v = grid[:11].copy()
            v[where] = bad
            with pytest.raises(ValueError, match="finite"):
                oracle_sign_terms(v)
            with pytest.raises(ValueError, match="finite"):
                sign_terms(v)


def test_kernel_skips_the_underflow_scan_bit_for_bit_near_minus_37():
    # At or above -37 ndtr cannot underflow, so the kernel takes log Phi
    # without the scan; the scanning kernel must agree bit for bit on both
    # sides of -37 and of the underflow at -37.5.
    rng = np.random.default_rng(16)
    offsets = np.array([-1e-9, -1e-12, 0.0, 1e-12, 1e-9])
    for centre in (-37.5, -37.0):
        near = centre + offsets
        for x in near:
            assert_kernel_matches_oracle(np.array([x]))
            assert_kernel_matches_oracle(np.append(rng.standard_normal(40), x))
        assert_kernel_matches_oracle(near)
        assert_kernel_matches_oracle(np.concatenate([near, 5.0 * rng.standard_normal(200)]))
    with mock.patch.object(objective_module, "_log_cdf", wraps=objective_module._log_cdf) as spy:
        for lo in (-37.0, -37.0 - 1e-9, -37.5 + 1e-9, -37.5 - 1e-9):
            sign_terms(np.array([lo, 0.5, 3.0]))
    assert [call.kwargs["scan"] for call in spy.call_args_list] == [False, True, True, True]


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), rho=st.sampled_from([0.1, 10.0, 1000.0]),
       log_scale=st.floats(-300.0, 250.0))
def test_loglik_is_the_likelihood_sum_bit_for_bit(seed, rho, log_scale):
    ctx = make_ctx(seed % 8, rho)
    rng = np.random.default_rng(seed)
    n = ctx.op.M * ctx.op.T
    u = 10.0**log_scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    with np.errstate(all="ignore"):
        assert loglik(ctx, u) == likelihood(ctx, u).f


# -- negative Hessian --------------------------------------------------------


def oracle_real_embed(cols):
    """Real form of a complex column block: [[Re, -Im], [Im, Re]]."""
    return np.block([[cols.real, -cols.imag], [cols.imag, cols.real]])


def oracle_neg_hessian(cols, d):
    cols_r = oracle_real_embed(cols)
    return 2.0 * np.eye(cols_r.shape[1]) + cols_r.T @ (d[:, None] * cols_r)


def oracle_folded_block(cols, signs):
    """K^T for K = diag(s) C_R, the sign-folded real form of the block C = cols.

    K x_R is the likelihood argument v = s .* (C x)_R; K^T = C_R^T diag(s) has
    rows [Re C^T, Im C^T] over [-Im C^T, Re C^T], each column scaled by its
    sign.  The restricted solve ran on this block before it ran on the
    complex block.
    """
    ct = cols.T
    q, n = ct.shape
    s_re, s_im = signs[:n], signs[n:]
    kt = np.empty((2 * q, 2 * n))
    np.multiply(ct.real, s_re, out=kt[:q, :n])
    np.multiply(ct.imag, s_im, out=kt[:q, n:])
    np.multiply(ct.imag, -s_re, out=kt[q:, :n])
    np.multiply(ct.real, s_im, out=kt[q:, n:])
    return kt


def oracle_folded_neg_hessian(kt, curv):
    """2I + K^T diag(curv) K for the sign-folded block kt = K^T, over x_R."""
    n = kt.shape[1] // 2
    out = (kt[:, :n] * curv[:n]) @ kt[:, :n].T
    out += (kt[:, n:] * curv[n:]) @ kt[:, n:].T
    out.flat[:: out.shape[0] + 1] += 2.0
    return out


def folded_hessian(cols, signs, curv):
    """The sign-folded assembly from the column block, signs and curvature."""
    return oracle_folded_neg_hessian(oracle_folded_block(cols, signs), curv)


def interleaved(q):
    """Indices that reorder the real form (Re b; Im b) as b.view(float)."""
    order = np.empty(2 * q, dtype=int)
    order[0::2], order[1::2] = np.arange(q), q + np.arange(q)
    return order


def as_real_form(v_il):
    """A vector laid out as u.view(float), reordered as real_form(u)."""
    return np.concatenate([v_il[0::2], v_il[1::2]])


@SETTINGS
@given(q=st.integers(1, 12), rows=st.integers(2, 40), seed=st.integers(0, 2**32 - 1))
def test_folded_hessian_assembly_matches_real_embedding(q, rows, seed):
    # The oracle assembly, checked once more against the dense embedding.
    rng = np.random.default_rng(seed)
    cols = rng.standard_normal((rows, q)) + 1j * rng.standard_normal((rows, q))
    # Signs of both polarities and of unequal sizes: the assembly must not
    # rely on |s| being the same everywhere.
    signs = rng.choice([-1.0, 1.0], 2 * rows) * rng.uniform(0.5, 2.0, 2 * rows)
    curv = rng.uniform(0.0, 2.0, 2 * rows)
    want = oracle_neg_hessian(cols, signs * signs * curv)
    got = folded_hessian(cols, signs, curv)
    assert np.max(np.abs(got - want)) <= RTOL * np.max(np.abs(want))


def off_grid_ctx(seed, rho, m, n, t, b_rx, b_tx):
    """A problem on steering dictionaries at random angles, off any grid."""
    rng = np.random.default_rng(seed)
    tr = zc_training(n, t)
    a_rx = np.stack([steering_vector(a, m) for a in rng.uniform(-1.5, 1.5, b_rx)], axis=1)
    a_tx = np.stack([steering_vector(a, n) for a in rng.uniform(-1.5, 1.5, b_tx)], axis=1)
    op = build_operator(tr.S, a_rx, a_tx)
    H = draw_channel(2, m, n, rng).H
    return ObjectiveContext(op, synthesize_measurement(H, tr.S, rho, rng)), rng


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), q=st.integers(1, 12),
       dims=st.sampled_from([(3, 4, 5, 7, 5), (4, 3, 6, 5, 9), (5, 5, 8, 12, 4)]),
       rho=st.sampled_from([0.1, 10.0, 1000.0]))
def test_pair_product_hessian_matches_dense_real_embedding(seed, q, dims, rho):
    ctx, rng = off_grid_ctx(seed, rho, *dims)
    op = ctx.op
    idx = np.sort(rng.choice(op.B, size=q, replace=False))
    cols = np.kron(op.G, op.A_RX)[:, idx]
    curv = rng.uniform(0.0, 2.0, 2 * op.M * op.T)      # laid out as u.view(float)
    order = interleaved(q)
    want = oracle_neg_hessian(cols, 2.0 * rho * as_real_form(curv))[np.ix_(order, order)]
    got = _neg_hessian(_hessian_factors(ctx, idx), curv)
    assert np.max(np.abs(got - want)) <= RTOL * np.max(np.abs(want))


def test_folded_hessian_assembly_at_full_scale_columns():
    # The pair-product assembly against the folded one on full-scale columns.
    ctx = make_ctx(7, 100.0, m=64, n=64, t=80, b=256)
    support = np.sort(np.random.default_rng(8).choice(ctx.op.B, 12, replace=False))
    cols = ctx.op.columns(support)
    u = cols @ (np.random.default_rng(9).standard_normal(12) * (1 + 1j))
    terms = oracle_real_form_likelihood(ctx, u)
    curv = terms.lam * (terms.v + terms.lam)
    signs = real_form_signs(ctx)
    want = oracle_neg_hessian(cols, signs * signs * curv)
    assert np.max(np.abs(folded_hessian(cols, signs, curv) - want)) <= RTOL * np.max(np.abs(want))
    at_u = likelihood(ctx, u)
    order = interleaved(12)
    got = _neg_hessian(_hessian_factors(ctx, support), at_u.lam * (at_u.v + at_u.lam))
    assert np.max(np.abs(got - want[np.ix_(order, order)])) <= RTOL * np.max(np.abs(want))


def test_folded_block_gives_the_likelihood_argument_and_gradient():
    ctx = make_ctx(10, 10.0)
    support = np.array([1, 4, 6])
    cols = ctx.op.columns(support)
    kt = oracle_folded_block(cols, real_form_signs(ctx))
    assert kt.flags.c_contiguous and kt.shape == (6, 2 * ctx.op.M * ctx.op.T)
    x = np.array([0.3 - 1j, -2.0 + 0.5j, 1j])
    terms = oracle_real_form_likelihood(ctx, cols @ x)
    assert np.allclose(kt.T @ real_form(x), terms.v, rtol=0.0, atol=1e-13)
    assert np.allclose(kt @ terms.lam, real_form(cols.conj().T @ terms.weights),
                       rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("rho", [0.1, 10.0, 1000.0])
def test_image_terms_are_the_likelihood_terms_interleaved(rho):
    # The same arguments, ratios and weights as the real-form likelihood,
    # entry for entry, in the layout of the image's float view; f sums them
    # in that order, so it agrees to rounding.
    ctx = make_ctx(14, rho)
    rng = np.random.default_rng(15)
    assert np.array_equal(as_real_form(ctx.interleaved_signs), real_form_signs(ctx))
    for scale in (0.1, 1.0, 10.0):
        n = ctx.op.M * ctx.op.T
        u = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        got, want = likelihood(ctx, u), oracle_real_form_likelihood(ctx, u)
        assert got.u is u
        assert np.array_equal(as_real_form(got.v), want.v)
        assert np.array_equal(as_real_form(got.lam), want.lam)
        assert np.array_equal(got.weights, want.weights)
        assert abs(got.f - want.f) <= 1e-13 * abs(want.f)


# -- the restricted solve ----------------------------------------------------


def oracle_complex_neg_hessian(cols, cols_h, d):
    """2I + C_R^T diag(d) C_R from two complex products (Wirtinger calculus).

    With a = (d_re + d_im)/2 and b = (d_re - d_im)/2 over the two halves of
    d, H1 = C^H diag(a) C and H2 = C^T diag(b) C give the blocks
    [[Re(H1 + H2), -Im(H1 + H2)], [Im(H1 - H2), Re(H1 - H2)]].
    """
    half = d.size // 2
    q = cols.shape[1]
    a = 0.5 * (d[:half] + d[half:])
    b = 0.5 * (d[:half] - d[half:])
    h1 = cols_h @ (a[:, None] * cols)
    h2 = cols.T @ (b[:, None] * cols)
    plus, minus = h1 + h2, h1 - h2
    out = np.empty((2 * q, 2 * q))
    out[:q, :q] = plus.real
    out[:q, q:] = -plus.imag
    out[q:, :q] = minus.imag
    out[q:, q:] = minus.real
    out[np.diag_indices(2 * q)] += 2.0
    return out


def oracle_restricted_maximize(ctx, support, x0=None, inner_tol=1e-8, max_iters=100):
    """The restricted Newton solve in complex storage, with the full
    likelihood at every Armijo trial and the complex Hessian assembly."""
    if x0 is None:
        support = np.unique(np.asarray(support, dtype=int))
        x = np.zeros(support.size, dtype=complex)
    else:
        support = np.asarray(support, dtype=int)
        x = np.array(x0, dtype=complex)
    cols = ctx.op.columns(support)
    cols_h = cols.conj().T
    signs = real_form_signs(ctx)
    rho_term = signs * signs

    def h_at(u_t, x_t):
        terms = oracle_real_form_likelihood(ctx, u_t)
        xr = real_form(x_t)
        return terms, terms.f - float(xr @ xr)

    u = cols @ x
    terms, h_val = h_at(u, x)
    trace = [h_val]
    best = (h_val, x.copy())
    for _ in range(max_iters):
        g_r = real_form(cols_h @ terms.weights - 2.0 * x)
        if np.linalg.norm(g_r) <= inner_tol:
            return x, trace
        neg_hess = oracle_complex_neg_hessian(
            cols, cols_h, rho_term * terms.lam * (terms.v + terms.lam))
        d_r = np.linalg.solve(neg_hess, g_r)
        d_c = complex_form(d_r)
        slope = float(g_r @ d_r)
        w = cols @ d_c
        noise_floor = 1e-12 * (1.0 + abs(h_val))
        t = 1.0
        accepted = False
        if slope > noise_floor:
            for _ in range(50):
                trial, h_t = h_at(u + t * w, x + t * d_c)
                if h_t >= h_val + 0.1 * t * slope:
                    accepted = True
                    break
                t *= 0.5
        if not accepted:
            t = 1.0
            trial, h_t = h_at(u + w, x + d_c)
            if h_t < h_val - noise_floor:
                break
        x = x + t * d_c
        u = u + t * w
        terms, h_val = trial, h_t
        trace.append(h_val)
        if h_val > best[0]:
            best = (h_val, x.copy())
    full = np.zeros(ctx.op.B, dtype=complex)
    full[support] = best[1]
    raise ConvergenceError("cap", best=full)


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), rho=st.sampled_from([0.1, 1.0, 10.0, 100.0, 1000.0]),
       size=st.integers(0, 6), scale=st.sampled_from([0.0, 0.1, 1.0, 5.0]))
def test_restricted_solve_matches_complex_oracle(seed, rho, size, scale):
    ctx = make_ctx(seed, rho, b=16)
    rng = np.random.default_rng(seed)
    support = np.sort(rng.choice(ctx.op.B, size=size, replace=False))
    x0 = scale * (rng.standard_normal(size) + 1j * rng.standard_normal(size))
    got, got_trace, _ = restricted_maximize(ctx, support, x0=x0)
    want, want_trace = oracle_restricted_maximize(ctx, support, x0=x0)
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-10 * np.max(np.abs(want), initial=0.0)
    assert len(got_trace) == len(want_trace)
    # Far from the maximizer a Newton step cancels terms as large as the
    # start's h, so h agrees to 1e-12 of the trace's scale; at the
    # maximizer h is stationary, and agrees to 1e-12 of itself.
    h_scale = np.max(np.abs(want_trace))
    assert np.all(np.abs(np.subtract(got_trace, want_trace)) <= 1e-12 * h_scale)
    assert abs(got_trace[-1] - want_trace[-1]) <= 1e-12 * abs(want_trace[-1])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_restricted_solve_rejects_non_finite_image(monkeypatch, bad):
    ctx = make_ctx(11, 10.0)
    # A complex product of inf with a column's zero part is NaN, and warns so.
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="finite"):
        restricted_maximize(ctx, [1, 2], x0=np.array([bad, 1.0 + 0j]))
    # So does an image that overflows.
    real_columns = ctx.op.columns
    monkeypatch.setattr(ctx.op, "columns", lambda idx: 1e306 * real_columns(idx))
    # The overflowing product itself would warn before the check raises.
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="finite"):
        restricted_maximize(ctx, [1, 2], x0=np.array([1e3 + 0j, -1e3j]))


def test_restricted_solve_stays_in_restricted_storage(monkeypatch):
    # B = 65536 columns over only M*T = 24 measurements: a length-B array
    # would dwarf every array of the solve.
    ctx = make_ctx(12, 10.0, b=256)
    B = ctx.op.B

    def forbidden(*_):
        raise AssertionError("the restricted solve applied the operator")

    monkeypatch.setattr(ctx.op, "apply", forbidden)
    monkeypatch.setattr(ctx.op, "apply_adjoint", forbidden)
    support = np.array([5, 700, 40000, 65000])
    x0 = np.array([1.0, -1j, 0.5 + 0.5j, 0.0])
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        values, trace, _ = restricted_maximize(ctx, support, x0=x0)
        _, peak = tracemalloc.get_traced_memory()
        monkeypatch.setattr(solvers_module, "NEWTON_MAX_ITERS", 1)
        tracemalloc.reset_peak()
        with pytest.raises(ConvergenceError) as err:
            restricted_maximize(ctx, support, x0=x0)
        _, failed_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert values.shape == (4,) and len(trace) > 1
    assert peak < 8 * B and failed_peak < 8 * B
    assert err.value.best.shape == support.shape


# -- the solve before it shared the likelihood kernel ------------------------


def own_inv_mills_from(v, log_cdf):
    """phi(v) / Phi(v) from log Phi(v), as the solve once derived it itself."""
    out = np.exp(-0.5 * v * v - 0.5 * np.log(2.0 * np.pi) - log_cdf)
    deep = v < -40.0
    if deep.any():
        out[deep] = np.sqrt(2.0 / np.pi) / special.erfcx(-v[deep] / np.sqrt(2.0))
    return out


def oracle_log_cdf(v):
    """log Phi(v): log(ndtr(v)) where ndtr(v) is a normal float, log_ndtr elsewhere."""
    cdf = special.ndtr(v)
    normal = cdf >= np.finfo(float).tiny
    return np.where(normal, np.log(np.where(normal, cdf, 1.0)), special.log_ndtr(v))


def oracle_kept_set_is_certain(x_r, keep, grad_norm):
    """Whether the keep largest |b_j| lead the others (or zero) by more than grad_norm.

    b is the complex vector whose real form is x_r.  The maximizer lies within
    grad_norm / 2 of b, since minus the Hessian is at least 2I.
    """
    q = x_r.size // 2
    mags = np.hypot(x_r[:q], x_r[q:])
    order = np.argsort(-mags, kind="stable")
    inside, outside = mags[order[:keep]], mags[order[keep:]]
    return inside.size > 0 and inside.min() - outside.max(initial=0.0) > grad_norm


def oracle_folded_restricted_maximize(ctx, support, x0=None, inner_tol=1e-8, keep=None,
                                      hessian=oracle_folded_neg_hessian):
    """The sign-folded restricted solve with its own log Phi and lambda passes.

    It runs on x_R and on the folded block K^T, assembling 2I + K^T diag(curv)
    K by `hessian`.  lambda comes from the log Phi values at the start of
    every iteration, and again from v = K x_R at the best iterate for the
    failure report.  With keep it also stops once the keep largest
    magnitudes are certain.  The constants are looked up in the solver
    module, so a test that patches them there patches both solves.
    """
    support = np.asarray(support, dtype=int)
    x = np.zeros(2 * support.size) if x0 is None else real_form(np.asarray(x0, dtype=complex))
    kt = oracle_folded_block(ctx.op.columns(support), real_form_signs(ctx))

    def h_at(v_t, x_t):
        if not np.isfinite(v_t).all():
            raise ValueError("likelihood requires a finite operator image")
        log_cdf = oracle_log_cdf(v_t)
        return log_cdf, float(log_cdf.sum()) - float(x_t @ x_t)

    v = kt.T @ x
    log_cdf, h_val = h_at(v, x)
    trace = [h_val]
    best = (h_val, x)

    for _ in range(solvers_module.NEWTON_MAX_ITERS):
        lam = own_inv_mills_from(v, log_cdf)
        grad = kt @ lam - 2.0 * x
        grad_norm = math.sqrt(grad @ grad)
        if grad_norm <= inner_tol:
            return complex_form(x), trace
        if keep is not None and oracle_kept_set_is_certain(x, keep, grad_norm):
            return complex_form(x), trace

        d = np.linalg.solve(hessian(kt, lam * (v + lam)), grad)
        slope = float(grad @ d)
        w = kt.T @ d
        noise_floor = 1e-12 * (1.0 + abs(h_val))
        t = 1.0
        accepted = False
        if slope > noise_floor:
            for _ in range(solvers_module.ARMIJO_MAX_STEPS):
                v_t, x_t = v + t * w, x + t * d
                trial, h_t = h_at(v_t, x_t)
                if h_t >= h_val + solvers_module.ARMIJO_SLOPE * t * slope:
                    accepted = True
                    break
                t *= solvers_module.ARMIJO_SHRINK
        if not accepted:
            v_t, x_t = v + w, x + d
            trial, h_t = h_at(v_t, x_t)
            if h_t < h_val - noise_floor:
                stop = "stalled: the next Newton step descends"
                break
        x, v, log_cdf, h_val = x_t, v_t, trial, h_t
        trace.append(h_val)
        if h_val > best[0]:
            best = (h_val, x)
    else:
        stop = "hit the iteration cap"

    v = kt.T @ best[1]
    grad = kt @ own_inv_mills_from(v, oracle_log_cdf(v)) - 2.0 * best[1]
    raise ConvergenceError(
        f"restricted maximize did not reach tol {inner_tol} in {len(trace) - 1} "
        f"Newton iterations ({stop})",
        best=complex_form(best[1]),
        grad_norm=float(np.linalg.norm(grad)),
    )


def restricted_problem(seed, rho, size, scale, warm):
    """A problem, a sorted support of the given size, and a warm start or None."""
    ctx = make_ctx(seed, rho, b=16)
    rng = np.random.default_rng(seed)
    support = np.sort(rng.choice(ctx.op.B, size=size, replace=False))
    x0 = scale * (rng.standard_normal(size) + 1j * rng.standard_normal(size)) if warm else None
    return ctx, support, x0


def assert_solves_agree(got, want):
    """The pair-product solve's (values, trace) against the folded oracle's.

    Both take the same Newton steps, summed in different orders: the values
    agree to 1e-10 of their scale, each h to 1e-12 of the trace's scale (a
    step far from the maximizer cancels terms as large as the start's h),
    and the last h, where h is stationary, to 1e-12 of itself.
    """
    (values, trace), (want_values, want_trace) = got[:2], want[:2]
    assert len(trace) == len(want_trace)
    assert (np.max(np.abs(values - want_values), initial=0.0)
            <= 1e-10 * np.max(np.abs(want_values), initial=0.0))
    h_scale = np.max(np.abs(want_trace))
    assert np.all(np.abs(np.subtract(trace, want_trace)) <= 1e-12 * h_scale)
    assert abs(trace[-1] - want_trace[-1]) <= 1e-12 * abs(want_trace[-1])


def test_restricted_solve_matches_its_own_likelihood_oracle():
    starts = set()

    @SETTINGS
    @given(seed=st.integers(0, 2**32 - 1),
           rho=st.sampled_from([0.1, 1.0, 10.0, 100.0, 1000.0]),
           size=st.integers(0, 6), scale=st.sampled_from([0.1, 1.0, 5.0, 50.0]),
           warm=st.booleans(), keep=st.one_of(st.none(), st.integers(1, 7)))
    def check(seed, rho, size, scale, warm, keep):
        ctx, support, x0 = restricted_problem(seed, rho, size, scale, warm)
        got = restricted_maximize(ctx, support, x0=x0, keep=keep)
        assert_solves_agree(got, oracle_folded_restricted_maximize(ctx, support, x0=x0,
                                                                   keep=keep))
        starts.add((warm, keep is None))

    check()
    assert starts == {(False, False), (False, True), (True, False), (True, True)}


def solve_outcome(solve, ctx, support, x0, **kwargs):
    """What a solve that converged returned, or the ConvergenceError it raised."""
    try:
        return solve(ctx, support, x0=x0, **kwargs)
    except ConvergenceError as err:
        return err


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), rho=st.sampled_from([0.1, 1.0, 10.0, 1000.0]),
       size=st.integers(0, 6), scale=st.sampled_from([0.1, 1.0, 5.0]), warm=st.booleans(),
       keep=st.sampled_from([None, 1, 2]), cap=st.sampled_from([1, 100]))
def test_prior_solve_is_the_prior_only_loop_bit_for_bit(seed, rho, size, scale, warm, keep, cap):
    # The same values, trace, likelihood terms and failures, at the Newton
    # cap and within it, with and without the keep certificate.
    ctx, support, x0 = restricted_problem(seed, rho, size, scale, warm)
    with mock.patch.object(solvers_module, "NEWTON_MAX_ITERS", cap):
        got = solve_outcome(restricted_maximize, ctx, support, x0, keep=keep)
        want = solve_outcome(prior_restricted_maximize, ctx, support, x0, keep=keep)
    if isinstance(want, ConvergenceError):
        assert isinstance(got, ConvergenceError)
        assert str(got) == str(want)
        assert np.array_equal(got.best, want.best) and got.grad_norm == want.grad_norm
        return
    (values, trace, terms), (want_values, want_trace, want_terms) = got, want
    assert np.array_equal(values, want_values)
    assert trace == want_trace
    assert terms.f == want_terms.f
    for name in ("u", "v", "lam", "weights"):
        assert np.array_equal(getattr(terms, name), getattr(want_terms, name))


def negated(hessian):
    """Minus the true negative Hessian: every Newton step then descends."""
    return lambda *args: -hessian(*args)


@pytest.mark.parametrize("stop", ["cap", "stall"])
def test_restricted_solve_fails_as_its_own_likelihood_oracle(stop):
    failed = []

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), rho=st.sampled_from([0.1, 10.0, 1000.0]),
           size=st.integers(1, 6), scale=st.sampled_from([0.1, 1.0, 5.0]),
           warm=st.booleans(), cap=st.integers(1, 3))
    def check(seed, rho, size, scale, warm, cap):
        ctx, support, x0 = restricted_problem(seed, rho, size, scale, warm)
        if stop == "cap":
            patch, hessian = (mock.patch.object(solvers_module, "NEWTON_MAX_ITERS", cap),
                              oracle_folded_neg_hessian)
        else:
            patch = mock.patch.object(solvers_module, "_neg_hessian",
                                      negated(solvers_module._neg_hessian))
            hessian = negated(oracle_folded_neg_hessian)
        with patch:
            got = solve_outcome(restricted_maximize, ctx, support, x0)
            want = solve_outcome(oracle_folded_restricted_maximize, ctx, support, x0,
                                 hessian=hessian)
        if not isinstance(want, ConvergenceError):
            # A solve that converges within a small cap returns alike.
            assert stop == "cap"
            assert_solves_agree(got, want)
            return
        assert isinstance(got, ConvergenceError)
        assert str(got) == str(want)
        assert ("stalled" if stop == "stall" else "cap") in str(got)
        # A step from a large start to a small iterate cancels at the start's scale.
        start_scale = 0.0 if x0 is None else np.max(np.abs(x0))
        best_scale = np.max(np.abs(want.best)) + start_scale
        assert np.max(np.abs(got.best - want.best)) <= 1e-10 * best_scale
        # The report's lambda is the one carried from the best trial, not
        # recomputed from the image.  The gradient cancels terms of size
        # 2 ||x||, and the best iterates differ by the two solves' rounding
        # times the Hessian (up to 2 rho ||C||^2 here), so the norms agree
        # to 1e-8 of that scale.
        scale_of_terms = want.grad_norm + 2.0 * np.linalg.norm(want.best)
        assert abs(got.grad_norm - want.grad_norm) <= 1e-8 * scale_of_terms
        failed.append(warm)

    check()
    assert set(failed) == {False, True} and len(failed) >= 10


# -- the certified stop of the merged solve ----------------------------------


def test_certified_stop_is_a_prefix_with_the_converged_top_set():
    early = []

    @SETTINGS
    @given(seed=st.integers(0, 2**32 - 1),
           rho=st.sampled_from([0.1, 1.0, 10.0, 100.0, 1000.0]),
           size=st.integers(2, 12), keep=st.integers(1, 13),
           scale=st.sampled_from([0.1, 1.0, 5.0]), warm=st.booleans())
    def check(seed, rho, size, keep, scale, warm):
        ctx, support, x0 = restricted_problem(seed, rho, size, scale, warm)
        full, full_trace, _ = restricted_maximize(ctx, support, x0=x0)
        got, got_trace, _ = restricted_maximize(ctx, support, x0=x0, keep=keep)
        assert got_trace == full_trace[: len(got_trace)]
        if len(got_trace) == len(full_trace):
            assert np.array_equal(got, full)
        top = hard_threshold(got, keep)
        assert np.array_equal(top, hard_threshold(full, keep))
        assert np.all(got[top] != 0) and np.all(full[top] != 0)
        early.append(len(got_trace) < len(full_trace))

    check()
    assert any(early)


@pytest.mark.parametrize("warm", [False, True])
def test_a_tie_at_the_kept_boundary_never_certifies(warm):
    # Two equal columns: the maximizer gives them equal values, so no gap
    # ever separates them, whatever the start.  Receive atoms 1 and 2 are
    # the same, so columns 33 = 1 + 2*16 and 34 = 2 + 2*16 are too.
    rng = np.random.default_rng(13)
    tr = zc_training(4, 6)
    a_rx = dft_dictionary(4, 16)
    a_rx[:, 2] = a_rx[:, 1]
    op = build_operator(tr.S, a_rx, dft_dictionary(4, 16))
    ctx = ObjectiveContext(op, synthesize_measurement(draw_channel(2, 4, 4, rng).H, tr.S,
                                                      10.0, rng))
    support = np.array([3, 33, 34])
    assert np.array_equal(op.columns([33]), op.columns([34]))
    x0 = np.array([0.5 - 1j, 2.0 + 1j, -0.3j]) if warm else None
    full, full_trace, _ = restricted_maximize(ctx, support, x0=x0)
    assert abs(abs(full[1]) - abs(full[2])) <= 1e-8
    # The kept set ends inside the tie: keep 1 if the pair leads, 2 if not.
    keep = 1 if abs(full[1]) > abs(full[0]) else 2
    got, got_trace, _ = restricted_maximize(ctx, support, x0=x0, keep=keep)
    assert np.array_equal(got, full) and got_trace == full_trace and len(full_trace) > 2


def counted_kernel_passes(monkeypatch):
    """A list that grows by one at every sign_terms pass the likelihood makes."""
    passes = []
    real = objective_module.sign_terms

    def counted(v):
        passes.append(v.size)
        return real(v)

    monkeypatch.setattr(objective_module, "sign_terms", counted)
    return passes


def test_solve_returns_the_terms_at_its_result_and_takes_them_at_its_start(monkeypatch):
    passes = counted_kernel_passes(monkeypatch)
    for seed in range(6):
        for keep in (None, 2):
            ctx, support, x0 = restricted_problem(seed, 10.0 ** (seed % 3), 4, 1.0, True)
            del passes[:]
            values, trace, terms = restricted_maximize(ctx, support, x0=x0, keep=keep)
            from_scratch = len(passes)
            # The terms are those at the result: its image, and the
            # likelihood there, to rounding.
            image = ctx.op.columns(support) @ values
            assert np.max(np.abs(terms.u - image)) <= 1e-12 * np.max(np.abs(image))
            assert terms.f == likelihood(ctx, terms.u).f
            assert trace[-1] == terms.f - float(values.view(float) @ values.view(float))
            # Handed its start's terms, the same solve makes one kernel pass
            # fewer and agrees to rounding.
            start = likelihood(ctx, ctx.op.columns(support) @ x0)
            del passes[:]
            got = restricted_maximize(ctx, support, x0=x0, keep=keep, start=start)
            assert len(passes) == from_scratch - 1
            assert_solves_agree(got, (values, trace))
            # Restarted at its result with its terms, it returns them at once.
            del passes[:]
            again = restricted_maximize(ctx, support, x0=values, keep=keep, start=terms)
            assert passes == [] and again[2] is terms and again[1] == [trace[-1]]


@pytest.mark.parametrize("runner, debias", [(run_grasp, False), (run_grasp, True),
                                            (run_grahtp, False)])
def test_pursuit_gradients_reuse_the_terms_of_the_step_before(monkeypatch, runner, debias):
    # Each iteration's gradient costs one adjoint of the weights the step
    # before it left, and no image or kernel pass: every kernel pass a
    # pursuit makes is a solve's or a step search's.
    passes = counted_kernel_passes(monkeypatch)
    in_gradient = []
    real_gradient = solvers_module._gradient_at

    def gradient(*args):
        before = len(passes)
        g = real_gradient(*args)
        in_gradient.append(len(passes) - before)
        return g

    monkeypatch.setattr(solvers_module, "_gradient_at", gradient)
    for seed in range(4):
        ctx = make_ctx(seed, 100.0, b=16)
        report = runner(ctx, SolverConfig(sparsity=2, debias=debias), use_bms=True)
        assert len(in_gradient) >= report.iterations
    assert in_gradient and not any(in_gradient)


def spy_restricted_solves(monkeypatch):
    """Record every restricted solve a pursuit makes: (support, x0, keep, values, trace,
    the start's terms, the result's terms)."""
    calls = []
    real = solvers_module.restricted_maximize

    def spy(ctx, support, x0=None, inner_tol=1e-8, keep=None, start=None):
        values, trace, terms = real(ctx, support, x0=x0, inner_tol=inner_tol, keep=keep,
                                    start=start)
        calls.append((np.array(support), np.array(x0), keep, values, trace, start, terms))
        return values, trace, terms

    monkeypatch.setattr(solvers_module, "restricted_maximize", spy)
    return calls


@pytest.mark.parametrize("seed", range(4))
def test_unchanged_support_reuses_the_debiased_iterate(monkeypatch, seed):
    calls = spy_restricted_solves(monkeypatch)
    ctx = make_ctx(seed, 100.0, b=16)
    report = run_grasp(ctx, SolverConfig(sparsity=2, debias=True), use_bms=True)
    assert report.halted_by == "support-fixed"
    # Merged and debias solves alternate, and only the merged ones pass keep.
    assert [call[2] for call in calls] == [2, None] * report.iterations
    support, x0, _, values, trace, start, terms = calls[-1]
    previous = calls[-3]
    assert np.array_equal(support, previous[0]) and np.array_equal(x0, previous[3])
    # It starts with the terms the debias solve before it returned, and
    # hands them back: no image and no likelihood pass is formed again.
    assert start is previous[6] and terms is start
    assert len(trace) == 1 and np.array_equal(values, x0)
    assert np.array_equal(report.estimate.x_hat[support], values)


@pytest.mark.parametrize("runner", [run_grasp, run_grahtp])
@pytest.mark.parametrize("use_bms", [False, True])
def test_only_debiased_grasp_passes_keep(monkeypatch, runner, use_bms):
    calls = spy_restricted_solves(monkeypatch)
    for seed in range(3):
        runner(make_ctx(seed, 100.0, b=16), SolverConfig(sparsity=2), use_bms)
    assert calls and all(call[2] is None for call in calls)


# -- supports carried as index arrays ----------------------------------------


def _oracle_support_of(x):
    return np.nonzero(x)[0]


def oracle_restricted(ctx, support, init, inner_tol, keep=None):
    """The restricted maximizer from init as a full-length vector, and its h trace."""
    values, h_trace = oracle_folded_restricted_maximize(ctx, support, x0=init[support],
                                                        inner_tol=inner_tol, keep=keep)
    x = np.zeros(ctx.op.B, dtype=complex)
    x[support] = values
    return x, h_trace


def oracle_grasp_step(ctx, config, x, bands, trace):
    L = config.sparsity
    z = grad_h(ctx, x)
    idx = _threshold(z, x, 2 * L, bands)
    merged = np.union1d(idx, _oracle_support_of(x))
    if merged.size > 3 * L:
        raise CapacityError("merged support exceeds 3L")
    # Debiasing keeps only which L entries lead, so that solve may stop
    # once they are certain.
    b_vec, _ = oracle_restricted(ctx, merged, x, config.inner_tol,
                                 keep=L if config.debias else None)
    keep = hard_threshold(b_vec, L)
    pruned = np.zeros_like(b_vec)
    pruned[keep] = b_vec[keep]
    if config.debias:
        pruned_support = _oracle_support_of(pruned)
        # On an unchanged support the current iterate is the maximizer.
        start = x if np.array_equal(pruned_support, _oracle_support_of(x)) else pruned
        x_new, h_trace = oracle_restricted(ctx, pruned_support, start, config.inner_tol)
        trace.append(h_trace[-1])
        return x_new
    trace.append(loglik(ctx, ctx.op.columns(keep) @ pruned[keep]) + g_logprior(pruned))
    return pruned


def oracle_grahtp_step(ctx, config, x, bands, trace):
    L = config.sparsity
    at_x = likelihood(ctx, ctx.op.apply(x))
    g = ctx.op.apply_adjoint(at_x.weights) - 2.0 * x
    kappa = solvers_module._backtrack_gradient_step(ctx, x, _oracle_support_of(x), at_x, g)
    idx = _threshold(x + kappa * g, x, L, bands)
    x_new, h_trace = oracle_restricted(ctx, idx, x, config.inner_tol)
    trace.append(h_trace[-1])
    return x_new


def oracle_pursuit(ctx, config, use_bms, step):
    """The outer loop as it was, finding each support with np.nonzero."""
    bands = ctx.op.bands_at(config.eta) if use_bms else None
    x = np.zeros(ctx.op.B, dtype=complex)
    prev_support = frozenset()
    visited = {prev_support}
    trace = []
    halted_by = "max-iters"
    iterations = 0
    for _ in range(config.max_outer_iters):
        iterations += 1
        x = step(ctx, config, x, bands, trace)
        support = _oracle_support_of(x)
        new_support = frozenset(support.tolist())
        if new_support == prev_support:
            halted_by = "support-fixed"
            break
        if new_support in visited:
            halted_by = "cycle"
            break
        visited.add(new_support)
        prev_support = new_support
    return SolverReport(estimate=SparseEstimate(x_hat=x, support=support),
                        iterations=iterations, halted_by=halted_by, objective_trace=trace)


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), rho=st.sampled_from([1.0, 10.0, 100.0]),
       case=st.sampled_from([(run_grasp, oracle_grasp_step, False),
                             (run_grasp, oracle_grasp_step, True),
                             (run_grahtp, oracle_grahtp_step, False)]),
       use_bms=st.booleans())
def test_pursuits_match_nonzero_scanning_oracle(seed, rho, case, use_bms):
    runner, oracle_step, debias = case
    ctx = make_ctx(seed, rho, b=16)
    config = SolverConfig(sparsity=2, debias=debias)
    got = runner(ctx, config, use_bms)
    want = oracle_pursuit(ctx, config, use_bms, oracle_step)
    # The pursuit solves on the pair-product Hessian and hands its terms on,
    # the oracle on the folded block from each iterate's own image: the same
    # steps, summed in other orders.
    assert np.array_equal(got.estimate.support, want.estimate.support)
    assert (got.iterations, got.halted_by) == (want.iterations, want.halted_by)
    scale = np.max(np.abs(want.estimate.x_hat))
    assert np.max(np.abs(got.estimate.x_hat - want.estimate.x_hat)) <= 1e-10 * scale
    assert np.allclose(got.objective_trace, want.objective_trace, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("step_name, debias", [
    ("_grasp_step", False), ("_grasp_step", True), ("_grahtp_step", False)])
def test_steps_return_the_support_of_their_iterate(monkeypatch, step_name, debias):
    real_step = getattr(solvers_module, step_name)
    seen = []

    def checked_step(ctx, config, x, support, *rest):
        assert np.array_equal(support, np.flatnonzero(x))
        x_new, support_new, *out = real_step(ctx, config, x, support, *rest)
        seen.append(np.array_equal(support_new, np.flatnonzero(x_new)))
        return x_new, support_new, *out

    monkeypatch.setattr(solvers_module, step_name, checked_step)
    runner = run_grasp if step_name == "_grasp_step" else run_grahtp
    for seed in range(4):
        ctx = make_ctx(seed, 100.0, b=16)
        report = runner(ctx, SolverConfig(sparsity=2, debias=debias), use_bms=True)
        assert np.array_equal(report.estimate.support, np.flatnonzero(report.estimate.x_hat))
    assert seen and all(seen)

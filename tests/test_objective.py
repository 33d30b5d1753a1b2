"""Tests for the penalized sign likelihood and its special functions."""

from dataclasses import replace

import numpy as np
import pytest

from onebitcs.model import (
    QuantizedMeasurement,
    dft_dictionary,
    draw_channel,
    quantize,
    synthesize_measurement,
    zc_training,
)
from onebitcs.objective import (
    ObjectiveContext,
    f_loglik,
    g_logprior,
    grad_h,
    h_objective,
    likelihood,
    sign_terms,
)
from onebitcs.operator import build_operator

from oracles import complex_form, dense_matrix, real_form

# High-precision references, frozen from a 30-digit arbitrary-precision
# evaluation of log(Phi(x)) and phi(x)/Phi(x).
LOG_NDTR_REFERENCE = [
    (-40.0, -804.6084420137538),
    (-30.0, -454.3212439563432),
    (-20.0, -203.91715537109727),
    (-10.0, -53.23128515051247),
    (-5.0, -15.064998393988725),
    (-1.0, -1.8410216450092636),
    (0.0, -0.6931471805599453),
    (0.5, -0.3689464152886564),
    (2.0, -0.02301290932896349),
    (10.0, -7.619853016486503e-24),
]
INV_MILLS_REFERENCE = [
    (-40.0, 40.02496884720726),
    (-30.0, 30.033259667433676),
    (-20.0, 20.04975306852785),
    (-10.0, 10.098093233962512),
    (-5.0, 5.186503967125842),
    (-1.0, 1.525135276160981),
    (0.0, 0.7978845608028654),
    (0.5, 0.5091604338370335),
    (2.0, 0.055247862678989956),
    (10.0, 7.694598626706419e-23),
]


def make_problem(m=4, n=4, t=8, b_rx=8, b_tx=8, l=2, rho=1.0, seed=0):
    rng = np.random.default_rng(seed)
    tr = zc_training(n, t)
    op = build_operator(tr.S, dft_dictionary(m, b_rx), dft_dictionary(n, b_tx), "fft")
    ch = draw_channel(l, m, n, rng)
    meas = synthesize_measurement(ch.H, tr.S, rho, rng)
    return op, ObjectiveContext(op, meas), rng


def series_log_ndtr_tail(x):
    """Independent asymptotic oracle for x << 0:
    log Phi(x) = log phi(x) - log(-x) + log(sum_k (-1)^k (2k-1)!! / x^(2k))."""
    assert x <= -8
    log_phi = -0.5 * x * x - 0.5 * np.log(2 * np.pi)
    series, term = 1.0, 1.0
    for k in range(1, 10):
        term *= -(2 * k - 1) / (x * x)
        series += term
    return log_phi - np.log(-x) + np.log(series)


def log_cdf(x):
    """log Phi(x) at one argument: the sum sign_terms returns, over one entry."""
    return sign_terms(np.array([x], dtype=float))[0]


def ratios(x):
    """The inverse Mills ratios sign_terms returns at the arguments x."""
    return sign_terms(np.atleast_1d(np.asarray(x, dtype=float)))[1]


class TestLogNdtr:
    def test_zero(self):
        assert abs(log_cdf(0.0) + np.log(2.0)) < 1e-15

    def test_large_positive_is_tiny(self):
        assert abs(log_cdf(40.0)) < 1e-300

    def test_against_frozen_reference(self):
        for x, want in LOG_NDTR_REFERENCE:
            got = log_cdf(x)
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), (x, got, want)

    def test_against_series_oracle(self):
        for x in (-10.0, -15.0, -25.0, -40.0):
            assert abs(log_cdf(x) - series_log_ndtr_tail(x)) < 1e-6 * abs(x)

    def test_spec_point_minus_ten(self):
        assert abs(log_cdf(-10.0) - (-53.23128515)) < 1e-6

    def test_no_overflow_on_wide_grid(self):
        grid = np.linspace(-40, 40, 2001)
        vals = np.array([log_cdf(x) for x in grid])
        assert np.all(np.isfinite(vals))
        assert np.all(np.diff(vals) >= 0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            sign_terms(np.array([0.0, np.nan]))


class TestInvMills:
    def test_zero(self):
        assert abs(ratios(0.0)[0] - np.sqrt(2.0 / np.pi)) < 1e-14

    def test_against_frozen_reference(self):
        for x, want in INV_MILLS_REFERENCE:
            got = ratios(x)[0]
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), (x, got, want)

    def test_spec_asymptotic_points(self):
        assert abs(ratios(-40.0)[0] - 40.02499) < 1e-3
        assert abs(ratios(5.0)[0] - 1.48672e-6) < 1e-10

    def test_deep_negative_tail_tracks_minus_x(self):
        # lambda(x) ~ -x - 1/x for x -> -inf
        for x in (-50.0, -200.0, -1e4, -1e6):
            assert abs(ratios(x)[0] - (-x - 1.0 / x)) < 1e-3 * abs(x)

    def test_strictly_positive_and_decreasing(self):
        grid = np.linspace(-40.0, 38.0, 4001)
        vals = ratios(grid)
        assert np.all(vals > 0)
        assert np.all(np.diff(vals) < 0)

    def test_vectorized_matches_scalar(self):
        # Each entry's ratio is the one it gets alone, on either side of -40.
        grid = np.array([-50.0, -3.0, 0.0, 7.5])
        vals = ratios(grid)
        assert np.array_equal(vals, [ratios(v)[0] for v in grid])

    def test_rejects_non_finite(self):
        for bad in (np.inf, -np.inf):
            with pytest.raises(ValueError):
                sign_terms(np.array([0.0, bad]))


def literal_f(ctx, x, dense_A):
    """Elementwise transcription of the likelihood with explicit real rows."""
    A_R = np.block([[dense_A.real, -dense_A.imag], [dense_A.imag, dense_A.real]])
    y_r = real_form(ctx.y_hat.y_hat)
    x_r = real_form(np.asarray(x, dtype=complex))
    total = 0.0
    for i in range(A_R.shape[0]):
        total += log_cdf(np.sqrt(2 * ctx.rho) * y_r[i] * float(A_R[i] @ x_r))
    return total


class TestLoglik:
    def test_zero_estimate_value(self):
        _, ctx, _ = make_problem()
        want = -2 * ctx.op.M * ctx.op.T * np.log(2.0)
        assert abs(f_loglik(ctx, np.zeros(ctx.op.B, dtype=complex)) - want) < 1e-10

    def test_zero_snr_is_constant(self):
        op, _, rng = make_problem()
        tr = zc_training(op.N, op.T)
        meas = synthesize_measurement(np.zeros((op.M, op.N)), tr.S, 0.0, rng)
        ctx0 = ObjectiveContext(op, meas)
        want = -2 * op.M * op.T * np.log(2.0)
        for _ in range(5):
            x = rng.standard_normal(op.B) + 1j * rng.standard_normal(op.B)
            assert abs(f_loglik(ctx0, x) - want) < 1e-10

    def test_matches_literal_row_formula(self):
        op, ctx, rng = make_problem(m=3, n=3, t=4, b_rx=4, b_tx=4, rho=2.0)
        A = dense_matrix(op)
        for _ in range(5):
            x = rng.standard_normal(op.B) + 1j * rng.standard_normal(op.B)
            want = literal_f(ctx, x, A)
            got = f_loglik(ctx, x)
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    def test_never_positive(self):
        _, ctx, rng = make_problem(rho=10.0)
        for scale in (0.01, 1.0, 100.0):
            x = scale * (rng.standard_normal(ctx.op.B) + 1j * rng.standard_normal(ctx.op.B))
            assert f_loglik(ctx, x) <= 0.0

    def test_identical_for_scaled_unquantized_signal(self):
        # Quantization removes positive scale, so the likelihood built from
        # measurements of Y and of c*Y is the same function.
        op, _, rng = make_problem()
        tr = zc_training(op.N, op.T)
        ch = draw_channel(2, op.M, op.N, np.random.default_rng(3))
        m1 = synthesize_measurement(ch.H, tr.S, 4.0, np.random.default_rng(4))
        # The same generator redraws the noise, and so the unquantized block.
        rng4 = np.random.default_rng(4)
        shape = (op.M, op.T)
        noise = (rng4.standard_normal(shape) + 1j * rng4.standard_normal(shape)) / np.sqrt(2.0)
        y = (2.0 * (ch.H @ tr.S) + noise).reshape(-1, order="F")
        assert np.array_equal(quantize(y), m1.y_hat)
        scaled = QuantizedMeasurement(y_hat=quantize(7.5 * y), rho=m1.rho)
        ctx1, ctx2 = ObjectiveContext(op, m1), ObjectiveContext(op, scaled)
        x = rng.standard_normal(op.B) + 1j * rng.standard_normal(op.B)
        assert f_loglik(ctx1, x) == f_loglik(ctx2, x)

    def test_rejects_wrong_length(self):
        _, ctx, _ = make_problem()
        with pytest.raises(ValueError):
            f_loglik(ctx, np.zeros(ctx.op.B + 1, dtype=complex))


class TestLogPrior:
    def test_values(self):
        assert g_logprior(np.zeros(3, dtype=complex)) == 0.0
        assert abs(g_logprior(np.array([1 + 1j, 0])) - (-2.0)) < 1e-15

    def test_real_homogeneity(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        for c in (0.5, 2.0, -3.0):
            assert abs(g_logprior(c * x) - c * c * g_logprior(x)) < 1e-10


def fd_gradient(ctx, x, step=1e-5):
    """Central finite differences of h in the real parametrization."""
    xr = real_form(x)
    out = np.empty_like(xr)
    for k in range(xr.size):
        e = np.zeros_like(xr)
        e[k] = step
        out[k] = (
            h_objective(ctx, complex_form(xr + e)) - h_objective(ctx, complex_form(xr - e))
        ) / (2 * step)
    return out


class TestGradient:
    @pytest.mark.parametrize("rho", [0.1, 1.0, 10.0])
    def test_matches_finite_differences(self, rho):
        _, ctx, rng = make_problem(rho=rho, seed=17)
        for _ in range(5):
            x = 0.5 * (rng.standard_normal(ctx.op.B) + 1j * rng.standard_normal(ctx.op.B))
            g = real_form(grad_h(ctx, x))
            fd = fd_gradient(ctx, x)
            assert np.linalg.norm(fd - g) / np.linalg.norm(g) <= 1e-5

    def test_zero_estimate_closed_form(self):
        # At x = 0 the prior term vanishes and every likelihood argument is
        # 0, so the gradient is lambda(0) * A^H(sqrt(2 rho) y_hat).
        op, ctx, _ = make_problem(rho=3.0)
        want = ratios(0.0)[0] * op.apply_adjoint(
            np.sqrt(2 * ctx.rho) * ctx.y_hat.y_hat.astype(complex)
        )
        got = grad_h(ctx, np.zeros(op.B, dtype=complex))
        assert np.max(np.abs(got - want)) < 1e-10

    def test_duplicated_column_entries_match(self):
        # Identical columns with identical estimate values see identical
        # gradient entries.
        tr = zc_training(4, 6)
        a_rx = dft_dictionary(4, 4)[:, [0, 1, 2, 2]]
        op = build_operator(tr.S, a_rx, dft_dictionary(4, 4), "fft")
        ch = draw_channel(1, 4, 4, np.random.default_rng(5))
        meas = synthesize_measurement(ch.H, tr.S, 2.0, np.random.default_rng(6))
        ctx = ObjectiveContext(op, meas)
        rng = np.random.default_rng(7)
        for _ in range(5):
            x = rng.standard_normal(op.B) + 1j * rng.standard_normal(op.B)
            x[3] = x[2]                      # duplicated pair is (2, 3)
            g = grad_h(ctx, x)
            assert abs(g[2] - g[3]) < 1e-12

    def test_rejects_wrong_length(self):
        _, ctx, _ = make_problem()
        with pytest.raises(ValueError):
            grad_h(ctx, np.zeros(5, dtype=complex))


class TestObjective:
    def test_zero_value(self):
        _, ctx, _ = make_problem()
        want = -2 * ctx.op.M * ctx.op.T * np.log(2.0)
        assert abs(h_objective(ctx, np.zeros(ctx.op.B, dtype=complex)) - want) < 1e-10

    def test_concavity_on_random_pairs(self):
        _, ctx, rng = make_problem(rho=1.0, seed=23)
        B = ctx.op.B
        for _ in range(100):
            x = rng.standard_normal(B) + 1j * rng.standard_normal(B)
            z = rng.standard_normal(B) + 1j * rng.standard_normal(B)
            hx, hz = h_objective(ctx, x), h_objective(ctx, z)
            for t in (0.25, 0.5, 0.75):
                mix = h_objective(ctx, t * x + (1 - t) * z)
                assert mix >= t * hx + (1 - t) * hz - 1e-9

    def test_decays_along_rays(self):
        _, ctx, rng = make_problem()
        d = rng.standard_normal(ctx.op.B) + 1j * rng.standard_normal(ctx.op.B)
        vals = [h_objective(ctx, s * d) for s in (1.0, 10.0, 100.0, 1000.0)]
        assert vals[-1] < vals[0]
        assert vals[-1] < -1e5                # prior term dominates

    def test_stable_at_extreme_arguments(self):
        # rho up to 1e4 and ||x|| up to 1e3 push log Phi arguments to ~1e4+;
        # everything must stay finite.
        for rho in (1.0, 1e2, 1e4):
            _, ctx, rng = make_problem(rho=rho, seed=31)
            x = rng.standard_normal(ctx.op.B) + 1j * rng.standard_normal(ctx.op.B)
            x *= 1e3 / np.linalg.norm(x)
            assert np.isfinite(f_loglik(ctx, x))
            assert np.isfinite(h_objective(ctx, x))
            assert np.all(np.isfinite(grad_h(ctx, x)))

    def test_context_validates_rho_and_length(self):
        op, ctx, _ = make_problem()
        with pytest.raises(ValueError):
            ObjectiveContext(op, replace(ctx.y_hat, rho=-1.0))


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint8), b.view(np.uint8))


@pytest.mark.parametrize("rho", [0.0, 0.1, 10.0, 1000.0])
def test_zero_point_terms_are_the_likelihood_and_adjoint_at_zero(rho):
    op, ctx, _ = make_problem(rho=rho, seed=3)
    calls = []
    real_adjoint = op.apply_adjoint
    op.apply_adjoint = lambda c: calls.append(None) or real_adjoint(c)
    want = likelihood(ctx, np.zeros(op.M * op.T, dtype=complex))
    want_g = real_adjoint(want.weights)
    got, got_g = ctx.at_zero, ctx.gradient_at_zero
    arrays = [got.u, got.v, got.lam, got.weights]
    assert got.f == want.f
    assert all(same_bits(a, b) for a, b in zip(arrays, [want.u, want.v, want.lam, want.weights]))
    assert same_bits(got_g, want_g)
    # Computed once per context, and read-only to every reader.
    assert ctx.at_zero is got and ctx.gradient_at_zero is got_g and len(calls) == 1
    for arr in (*arrays, got_g):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
    assert same_bits(got_g, want_g)

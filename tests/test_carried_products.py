"""Differential and cost tests for the solvers that carry A x by linearity.

run_fista and the GraHTP step search evaluate the likelihood at operator
images formed as linear combinations of images they already hold, instead
of applying the operator at every evaluation.  The oracles below are the
earlier implementations, which did apply it every time.  The pursuit loops
likewise take their objective trace from values the steps already hold.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import onebitcs.solvers as solvers_module
from onebitcs.model import dft_dictionary, draw_channel, synthesize_measurement, zc_training
from onebitcs.objective import (
    ObjectiveContext,
    f_loglik,
    g_logprior,
    grad_h,
    h_objective,
    likelihood,
)
from onebitcs.operator import build_operator
from onebitcs.solvers import (
    FISTA_SUPPORT_EPS,
    LineSearchParams,
    SolverConfig,
    _backtrack_gradient_step,
    _soft_threshold,
    run_fista,
    run_grahtp,
    run_grasp,
)

SETTINGS = settings(max_examples=20, deadline=None, derandomize=True)


def make_ctx(seed, rho, m=4, n=4, t=6, b=8, paths=2):
    rng = np.random.default_rng(seed)
    tr = zc_training(n, t)
    op = build_operator(tr.S, dft_dictionary(m, b), dft_dictionary(n, b), "fft")
    H = draw_channel(paths, m, n, rng).H
    return ObjectiveContext(op, synthesize_measurement(H, tr.S, rho, rng))


def oracle_run_fista(ctx, gamma, max_iters=500, tol=1e-6):
    """Monotone FISTA applying the operator for every f and gradient."""
    sigma = ctx.op.spectral_norm_estimate()
    step = 1.0 / max(2.0 * ctx.rho * sigma * sigma, 1e-3)

    def penalty(x):
        return gamma * float(np.sum(np.abs(x)))

    x_prev = np.zeros(ctx.op.B, dtype=complex)
    obj_prev = f_loglik(ctx, x_prev) - penalty(x_prev)
    y = x_prev
    t_mom = 1.0
    trace = [obj_prev]
    z_prev = x_prev
    for _ in range(max_iters):
        gy = grad_h(ctx, y) + 2.0 * y
        fy = f_loglik(ctx, y)
        while True:
            z = _soft_threshold(y + step * gy, gamma * step)
            dz = z - y
            fz = f_loglik(ctx, z)
            quad = fy + float(np.vdot(gy, dz).real) - float(np.vdot(dz, dz).real) / (2.0 * step)
            if fz >= quad - 1e-12 * abs(quad):
                break
            step *= 0.5
        obj_z = fz - penalty(z)
        if obj_z >= obj_prev:
            x_new, obj_new = z, obj_z
        else:
            x_new, obj_new = x_prev, obj_prev
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_mom * t_mom))
        y = x_new + (t_mom / t_next) * (z - x_new) + ((t_mom - 1.0) / t_next) * (x_new - x_prev)
        t_mom = t_next
        trace.append(obj_new)
        converged = np.linalg.norm(z - z_prev) <= tol * max(1.0, np.linalg.norm(z))
        x_prev, obj_prev, z_prev = x_new, obj_new, z
        if converged:
            break
    x_final = x_prev.copy()
    x_final[np.abs(x_final) <= FISTA_SUPPORT_EPS] = 0.0
    return x_final, trace


def oracle_backtrack_gradient_step(ctx, x, g, ls):
    """Armijo search evaluating h(x + t g) by an operator apply per trial."""
    h0 = h_objective(ctx, x)
    gn2 = float(np.vdot(g, g).real)
    if gn2 == 0.0:
        return 1.0
    t = 1.0
    for _ in range(ls.max_steps):
        if h_objective(ctx, x + t * g) >= h0 + ls.slope * t * gn2:
            return t
        t *= ls.shrink
    return t


def gamma_for(ctx, fraction):
    """A penalty below the level that zeroes the solution, as a fraction of it."""
    g0 = grad_h(ctx, np.zeros(ctx.op.B, dtype=complex))
    return fraction * float(np.max(np.abs(g0)))


class _Counted:
    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


def count_operator_calls(op):
    op.apply = _Counted(op.apply)
    op.apply_adjoint = _Counted(op.apply_adjoint)
    return op.apply, op.apply_adjoint


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), rho=st.sampled_from([1.0, 10.0, 100.0]),
       fraction=st.floats(0.05, 0.9))
def test_fista_matches_oracle(seed, rho, fraction):
    ctx = make_ctx(seed, rho)
    gamma = gamma_for(ctx, fraction)
    want_x, want_trace = oracle_run_fista(ctx, gamma)
    got, got_trace = run_fista(ctx, gamma, return_trace=True)
    assert len(got_trace) == len(want_trace)
    assert np.array_equal(got.support, np.nonzero(want_x)[0])
    assert np.linalg.norm(got.x_hat - want_x) <= 1e-9 * max(np.linalg.norm(want_x), 1e-300)


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), rho=st.sampled_from([1.0, 10.0, 100.0, 1000.0]),
       size=st.integers(0, 4), scale=st.floats(0.01, 10.0))
def test_gradient_step_search_matches_oracle(seed, rho, size, scale):
    ctx = make_ctx(seed, rho)
    rng = np.random.default_rng(seed)
    x = np.zeros(ctx.op.B, dtype=complex)
    idx = rng.choice(ctx.op.B, size=size, replace=False)
    x[idx] = scale * (rng.standard_normal(size) + 1j * rng.standard_normal(size))
    ls = LineSearchParams()
    u = ctx.op.apply(x)
    at_x = likelihood(ctx, u)
    g = ctx.op.apply_adjoint(at_x.weights) - 2.0 * x
    assert np.array_equal(g, grad_h(ctx, x))
    kappa = _backtrack_gradient_step(ctx, x, u, at_x.f + g_logprior(x), g, ls)
    assert kappa == oracle_backtrack_gradient_step(ctx, x, g, ls)


def test_fista_costs_one_adjoint_per_iteration(monkeypatch):
    trials = _Counted(_soft_threshold)
    monkeypatch.setattr(solvers_module, "_soft_threshold", trials)
    for seed in range(4):
        ctx = make_ctx(seed, 10.0, b=16)
        gamma = gamma_for(ctx, 0.3)
        applies, adjoints = count_operator_calls(ctx.op)
        ctx.op.spectral_norm_estimate()
        applies.calls = adjoints.calls = trials.calls = 0
        _, trace = run_fista(ctx, gamma, return_trace=True)
        iterations = len(trace) - 1
        assert adjoints.calls == iterations
        # One apply per step-size trial; a trial is one soft-threshold call.
        assert iterations <= trials.calls
        assert applies.calls <= trials.calls + 1


def test_grahtp_step_costs_two_applies(monkeypatch):
    steps = []
    backtracked = []
    real_step = solvers_module._grahtp_step
    real_search = solvers_module._backtrack_gradient_step

    def counted_step(ctx, *args):
        before = ctx.op.apply.calls
        out = real_step(ctx, *args)
        steps.append(ctx.op.apply.calls - before)
        return out

    def recorded_search(*args):
        kappa = real_search(*args)
        backtracked.append(kappa < 1.0)
        return kappa

    monkeypatch.setattr(solvers_module, "_grahtp_step", counted_step)
    monkeypatch.setattr(solvers_module, "_backtrack_gradient_step", recorded_search)
    for seed in range(4):
        ctx = make_ctx(seed, 100.0, b=16)
        count_operator_calls(ctx.op)
        run_grahtp(ctx, SolverConfig(sparsity=2), use_bms=True)
    assert steps and max(steps) <= 2
    assert any(backtracked)


@pytest.mark.parametrize("runner, debias, applies_per_iteration", [
    (run_grasp, False, 1), (run_grasp, True, 1), (run_grahtp, False, 2)])
def test_pursuit_trace_costs_no_apply(runner, debias, applies_per_iteration):
    # Only the steps' own gradients and step searches apply the operator;
    # the trace takes h from the restricted solves and column blocks.
    for seed in range(4):
        ctx = make_ctx(seed, 100.0, b=16)
        applies, _ = count_operator_calls(ctx.op)
        report = runner(ctx, SolverConfig(sparsity=2, debias=debias), use_bms=True)
        assert applies.calls <= applies_per_iteration * report.iterations
        assert len(report.objective_trace) == report.iterations
        h = h_objective(ctx, report.estimate.x_hat)
        assert abs(report.objective_trace[-1] - h) <= 1e-9 * max(1.0, abs(h))

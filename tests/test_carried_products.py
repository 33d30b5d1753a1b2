"""Differential and cost tests for the solvers that carry A x by linearity.

run_fista and the GraHTP step search evaluate the likelihood at operator
images formed as linear combinations of images they already hold, instead
of applying the operator at every evaluation.  The oracles are the earlier
implementations, which did apply it every time:
oracles.fista_applying_every_product and oracle_backtrack_gradient_step.
The pursuit loops likewise take their objective trace from values the steps
already hold.  The step search forms the image of the gradient from the
factor Grams, not by an apply, and starts one grid step above its
line-Newton guess; every solver that starts at 0 reads the gradient there
from its context, so solvers sharing a context pay that adjoint once.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import onebitcs.solvers as solvers_module
from onebitcs.errors import ConvergenceError
from onebitcs.objective import f_loglik, grad_h, h_objective, likelihood
from onebitcs.solvers import (
    SolverConfig,
    _backtrack_gradient_step,
    _soft_threshold,
    run_fista,
    run_grahtp,
    run_grasp,
)

from oracles import (
    fista_applying_every_product,
    make_ctx,
    oracle_backtrack_gradient_step,
    penalized,
    zero_threshold,
)

SETTINGS = settings(max_examples=20, deadline=None, derandomize=True)


def gamma_for(ctx, fraction):
    """A penalty below the level that zeroes the solution, as a fraction of it."""
    return fraction * zero_threshold(ctx)


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
    # The step rule differs from the oracle's, so the iterates do; the
    # objective reached within the same cap must not be lower, and both
    # must agree once neither is held back by its cap.
    ctx = make_ctx(seed, rho)
    gamma = gamma_for(ctx, fraction)
    scale = abs(f_loglik(ctx, np.zeros(ctx.op.B, dtype=complex)))
    want_x, _ = fista_applying_every_product(ctx, gamma)
    got = run_fista(ctx, gamma).estimate
    assert penalized(ctx, gamma, got.x_hat) >= penalized(ctx, gamma, want_x) - 1e-9 * scale
    want_x, _ = fista_applying_every_product(ctx, gamma, max_iters=20_000)
    got = run_fista(ctx, gamma, max_iters=20_000).estimate
    want = penalized(ctx, gamma, want_x)
    assert abs(penalized(ctx, gamma, got.x_hat) - want) <= 1e-6 * abs(want)


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), rho=st.sampled_from([1.0, 10.0, 100.0, 1000.0]),
       size=st.integers(0, 4), scale=st.floats(0.01, 10.0))
def test_gradient_step_search_matches_oracle(seed, rho, size, scale):
    ctx = make_ctx(seed, rho)
    rng = np.random.default_rng(seed)
    x = np.zeros(ctx.op.B, dtype=complex)
    idx = rng.choice(ctx.op.B, size=size, replace=False)
    x[idx] = scale * (rng.standard_normal(size) + 1j * rng.standard_normal(size))
    u = ctx.op.apply(x)
    at_x = likelihood(ctx, u)
    g = ctx.op.apply_adjoint(at_x.weights) - 2.0 * x
    assert np.array_equal(g, grad_h(ctx, x))
    # The search takes the pursuit's terms at x.
    kappa = _backtrack_gradient_step(ctx, x, np.flatnonzero(x), at_x, g)
    assert kappa == oracle_backtrack_gradient_step(ctx, x, g)


def off_guess_problem(seed, rho, size, scale):
    """x, its support, its terms and gradient, and the oracle's step exponent."""
    ctx = make_ctx(seed, rho)
    rng = np.random.default_rng(seed)
    x = np.zeros(ctx.op.B, dtype=complex)
    idx = np.sort(rng.choice(ctx.op.B, size=size, replace=False))
    x[idx] = scale * (rng.standard_normal(size) + 1j * rng.standard_normal(size))
    at_x = likelihood(ctx, ctx.op.apply(x))
    g = ctx.op.apply_adjoint(at_x.weights) - 2.0 * x
    want = oracle_backtrack_gradient_step(ctx, x, g)
    return ctx, x, idx, at_x, g, round(-math.log2(want))


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), rho=st.sampled_from([1.0, 10.0, 100.0, 1000.0]),
       size=st.integers(0, 4), scale=st.floats(0.01, 10.0), offset=st.integers(-2, 2))
def test_gradient_step_search_matches_oracle_from_an_off_guess(seed, rho, size, scale, offset):
    # The search starts one grid step above the line-Newton guess.  Give the
    # likelihood a curvature whose guess puts that start `offset` grid steps
    # from the oracle's step (above it for offset < 0): the search must walk
    # to the same step.  Only the guess reads lam and v; f and the weights,
    # which the trials and the gradient's image use, stay the true ones.
    ctx, x, idx, at_x, g, k_want = off_guess_problem(seed, rho, size, scale)
    start = k_want + offset
    if start < 0:
        return
    gn2 = float(np.vdot(g, g).real)
    w_f = ctx.op.apply(g).view(float)
    newton = 0.75 * 0.5 ** (start + 1)    # inside the grid interval whose start is `start`
    s = ctx.interleaved_signs
    curvature = float(np.sum(s * s * at_x.lam * w_f * w_f))
    alpha = gn2 * (1.0 / newton - 2.0) / curvature
    guessed = at_x._replace(v=alpha - at_x.lam)     # lam (v + lam) = alpha lam
    kappa = _backtrack_gradient_step(ctx, x, idx, guessed, g)
    assert kappa == 0.5 ** k_want


def test_gradient_step_search_raises_when_no_step_passes(monkeypatch):
    ctx = make_ctx(3, 10.0)
    x = np.zeros(ctx.op.B, dtype=complex)
    x[[2, 5]] = [1.0 - 0.5j, 0.25j]
    at_x = likelihood(ctx, ctx.op.apply(x))
    g = ctx.op.apply_adjoint(at_x.weights) - 2.0 * x
    monkeypatch.setattr(solvers_module, "loglik", lambda ctx, u: -np.inf)
    with pytest.raises(ConvergenceError) as err:
        _backtrack_gradient_step(ctx, x, np.array([2, 5]), at_x, g)
    # The pursuit loop, not the search, attaches the iterate to salvage.
    assert err.value.best is None
    assert err.value.grad_norm == pytest.approx(np.linalg.norm(g))


def test_fista_costs_one_adjoint_per_iteration(monkeypatch):
    # A round of the working-set solve starts from a full adjoint, the one
    # at 0 or the KKT check that grew W; every other proximal iteration
    # costs one restricted adjoint, and every step-size trial one
    # restricted image.  The Newton finishes are counted apart: they make
    # no apply and no restricted product, and each certificate a finish
    # reaches costs one full adjoint, at most two per finish since a
    # refused one grows the set once.  Every solve here ends by a
    # certified finish, in place of its last round's KKT check, and its
    # Newton steps are the report's last iterations.  The restricted
    # products take one path at any |W|: at gamma 0.5 max|grad f(0)| W
    # holds 21-42 of the 256 columns, and at 0.2 it holds 76-181, yet at
    # both the solve makes no full apply, and full adjoints = rounds +
    # certificates.
    trials = _Counted(_soft_threshold)
    monkeypatch.setattr(solvers_module, "_soft_threshold", trials)
    finishes = []    # (full adjoints, outcome) of each finish tried
    real_finish = solvers_module._fista_finish

    def finish(ctx, *args):
        before, soft_thresholds = ctx.op.apply_adjoint.calls, trials.calls
        out = real_finish(ctx, *args)
        finishes.append((ctx.op.apply_adjoint.calls - before, out))
        # A grown set's new entries take one soft threshold: not a trial.
        trials.calls = soft_thresholds
        return out

    monkeypatch.setattr(solvers_module, "_fista_finish", finish)
    grown_finishes = 0
    for fraction in (0.5, 0.2):
        for seed in range(4):
            ctx = make_ctx(seed, 10.0, b=16)
            gamma = gamma_for(ctx, fraction)
            applies, adjoints = count_operator_calls(ctx.op)
            real_restricted = ctx.op.restricted
            rounds = []

            def restricted(idx):
                part = real_restricted(idx)
                part.image, part.adjoint = _Counted(part.image), _Counted(part.adjoint)
                rounds.append(part)
                return part

            ctx.op.restricted = restricted
            ctx.op.spectral_norm_estimate()
            applies.calls = adjoints.calls = trials.calls = 0
            finishes.clear()
            report = run_fista(ctx, gamma)
            assert report.halted_by == "newton"
            *failed, (certificates, finished) = finishes
            assert finished is not None and 1 <= certificates <= 2
            assert all(out is None and n <= 2 for n, out in failed)
            grown_finishes += sum(n == 2 for n, _ in finishes)
            newton_steps = len(finished[2])
            assert newton_steps > 0
            assert report.objective_trace[-newton_steps:] == finished[2]
            iterations = report.iterations - newton_steps
            certificates = sum(n for n, _ in finishes)
            assert rounds
            assert sum(part.adjoint.calls for part in rounds) == iterations - len(rounds)
            assert sum(part.image.calls for part in rounds) == trials.calls >= iterations
            assert applies.calls == 0
            assert adjoints.calls == len(rounds) + certificates
    # Here every finish certifies, one of them (0.2, seed 0) after growing
    # its set; test_fista_finish.py scripts a refused grown finish.
    assert grown_finishes > 0


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


def test_solvers_on_one_context_share_its_gradient_at_zero():
    # Each pursuit iteration takes one full adjoint; the first reads the
    # context's cached gradient at 0, which the context computes once.
    # FISTA's first working set reads the same cache.  Estimates and traces
    # equal those of solvers on contexts of their own.
    config = SolverConfig(sparsity=2)
    for seed in range(3):
        shared = make_ctx(seed, 100.0, b=16)
        _, adjoints = count_operator_calls(shared.op)
        reports = [run_grasp(shared, config, True), run_grahtp(shared, config, True)]
        assert adjoints.calls == sum(r.iterations for r in reports) - 1
        alone = [run_grasp(make_ctx(seed, 100.0, b=16), config, True),
                 run_grahtp(make_ctx(seed, 100.0, b=16), config, True)]
        for got, want in zip(reports, alone):
            assert np.array_equal(got.estimate.x_hat, want.estimate.x_hat)
            assert got.objective_trace == want.objective_trace
        gamma = 0.5 * float(np.max(np.abs(shared.gradient_at_zero)))
        adjoints.calls = 0
        got = run_fista(shared, gamma)
        fresh = make_ctx(seed, 100.0, b=16)
        _, fresh_adjoints = count_operator_calls(fresh.op)
        want = run_fista(fresh, gamma)
        assert adjoints.calls == fresh_adjoints.calls - 1
        assert np.array_equal(got.estimate.x_hat, want.estimate.x_hat)
        assert got.objective_trace == want.objective_trace


@pytest.mark.parametrize("runner, debias, applies_per_iteration", [
    (run_grasp, False, 1), (run_grasp, True, 1), (run_grahtp, False, 2)])
def test_pursuit_trace_costs_no_apply(runner, debias, applies_per_iteration):
    # At most the steps' own gradients and step searches apply the operator;
    # the trace takes h from the restricted solves and support images.
    for seed in range(4):
        ctx = make_ctx(seed, 100.0, b=16)
        applies, _ = count_operator_calls(ctx.op)
        report = runner(ctx, SolverConfig(sparsity=2, debias=debias), use_bms=True)
        assert applies.calls <= applies_per_iteration * report.iterations
        assert len(report.objective_trace) == report.iterations
        h = h_objective(ctx, report.estimate.x_hat)
        assert abs(report.objective_trace[-1] - h) <= 1e-9 * max(1.0, abs(h))

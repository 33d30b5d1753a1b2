"""Differential tests for FISTA on its working set.

run_fista iterated over all B columns; it now runs on a working set W of
columns, grown by a full KKT check at convergence.  The full-length solver
it replaced is the oracle here, as it was.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onebitcs.errors import ConvergenceError
from onebitcs.objective import likelihood, loglik
from onebitcs.operator import RestrictedOperator
from onebitcs.solvers import (
    FISTA_SUPPORT_EPS,
    FISTA_TOL,
    SolverReport,
    SparseEstimate,
    _soft_threshold,
    run_fista,
)

from oracles import make_ctx

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


def oracle_run_fista(ctx, gamma, max_iters=500):
    """The full-length monotone FISTA: every vector has B entries.

    Returns its SolverReport and the mask of the columns that any accepted
    step-size trial's prox point made nonzero.
    """
    if not 0 < gamma < math.inf:
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    op = ctx.op

    sigma = op.spectral_norm_estimate()
    lip = max(2.0 * ctx.rho * sigma * sigma, 1e-3)
    step = 1.0 / lip

    def penalty(x):
        return gamma * float(np.sum(np.abs(x)))

    x_prev = np.zeros(op.B, dtype=complex)
    u_prev = np.zeros(op.M * op.T, dtype=complex)    # A x_prev
    obj_prev = loglik(ctx, u_prev) - penalty(x_prev)
    y, u_y = x_prev, u_prev
    t_mom = 1.0
    trace = [obj_prev]
    z_prev = x_prev
    touched = np.zeros(op.B, dtype=bool)
    passes = 0    # iterations in a row whose first step-size trial passed
    halted_by = "max-iters"

    for _ in range(max_iters):
        at_y = likelihood(ctx, u_y)
        gy = op.apply_adjoint(at_y.weights)
        fy = at_y.f
        if not np.isfinite(fy):
            raise ConvergenceError("objective became non-finite", best=x_prev)
        if passes == 3:
            step *= 2.0
            passes = 0
        passes += 1
        while True:
            z = _soft_threshold(y + step * gy, gamma * step)
            dz = z - y
            u_z = op.apply(z)
            fz = loglik(ctx, u_z)
            quad = fy + float(np.vdot(gy, dz).real) - float(np.vdot(dz, dz).real) / (2.0 * step)
            if fz >= quad - 1e-12 * abs(quad):
                break
            step *= 0.5
            passes = 0
            if step < 1e-18:
                raise ConvergenceError("step size underflow in FISTA", best=x_prev)
        touched |= z != 0
        obj_z = fz - penalty(z)
        if not np.isfinite(obj_z):
            raise ConvergenceError("objective became non-finite", best=x_prev)

        if obj_z >= obj_prev:
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_mom * t_mom))
            b = (t_mom - 1.0) / t_next
            y = z + b * (z - x_prev)
            u_y = u_z + b * (u_z - u_prev)
            x_new, u_new, obj_new, t_mom = z, u_z, obj_z, t_next
        else:
            # The guard keeps x_prev; restart the momentum from it.
            x_new, u_new, obj_new = x_prev, u_prev, obj_prev
            y, u_y, t_mom = x_prev, u_prev, 1.0

        trace.append(obj_new)
        converged = np.linalg.norm(z - z_prev) <= FISTA_TOL * max(1.0, np.linalg.norm(z))
        x_prev, u_prev, obj_prev, z_prev = x_new, u_new, obj_new, z
        if converged:
            halted_by = "converged"
            break

    x_final = x_prev.copy()
    x_final[np.abs(x_final) <= FISTA_SUPPORT_EPS] = 0.0
    estimate = SparseEstimate(x_hat=x_final, support=np.flatnonzero(x_final))
    report = SolverReport(estimate=estimate, iterations=len(trace) - 1,
                          halted_by=halted_by, objective_trace=trace)
    return report, touched


def gradient_at_zero(ctx):
    return ctx.op.apply_adjoint(likelihood(ctx, np.zeros(ctx.op.M * ctx.op.T, dtype=complex)).weights)


def record_rounds(op):
    """Keep every restricted operator op hands out: one per round of a solve."""
    rounds = []
    real_restricted = op.restricted

    def restricted(idx):
        rounds.append(real_restricted(idx))
        return rounds[-1]

    op.restricted = restricted
    return rounds


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), rho=st.sampled_from([1.0, 10.0, 100.0]),
       fraction=st.floats(0.2, 1.2))
def test_solve_matches_full_length_oracle(seed, rho, fraction):
    # Where the oracle's prox points never leave the first working set, the
    # iterates are the oracle's, formed over fewer entries: only rounding
    # differs, and one round suffices.  One round sufficing is not enough:
    # an oracle iterate can visit a column off W and leave it again.
    ctx = make_ctx(seed, rho)
    g0 = gradient_at_zero(ctx)
    gamma = fraction * float(np.max(np.abs(g0)))
    rounds = record_rounds(ctx.op)
    got = run_fista(ctx, gamma)
    want, touched = oracle_run_fista(ctx, gamma)
    a, b = got.objective_trace[-1], want.objective_trace[-1]
    assert got.estimate.x_hat.shape == (ctx.op.B,)
    assert got.halted_by == want.halted_by == "converged"
    assert abs(a - b) <= 1e-9 * abs(b)
    if not np.any(touched & (np.abs(g0) <= gamma)):
        assert len(rounds) == 1
        assert got.iterations == want.iterations
        assert np.array_equal(got.estimate.support, want.estimate.support)
        assert abs(a - b) <= 1e-12 * abs(b)


def test_kkt_check_adds_the_violating_column():
    # Hide the strongest column from the first gradient: W misses it, the
    # round converges without it, and the full check brings it in.
    ctx = make_ctx(4, 10.0)
    g0 = gradient_at_zero(ctx)
    hidden = int(np.argmax(np.abs(g0)))
    gamma = 0.5 * float(np.abs(g0[hidden]))
    rounds = record_rounds(ctx.op)
    full_adjoint = ctx.op.apply_adjoint
    calls = []

    def first_without_hidden(c):
        g = full_adjoint(c)
        if not calls:
            g[hidden] = 0.0
        calls.append(None)
        return g

    ctx.op.apply_adjoint = first_without_hidden
    got = run_fista(ctx, gamma)
    assert len(rounds) == 2
    assert hidden not in rounds[0].idx and hidden in rounds[1].idx
    assert np.array_equal(rounds[1].idx[:rounds[0].idx.size], rounds[0].idx)
    assert got.halted_by == "converged"
    want, _ = oracle_run_fista(ctx, gamma)
    assert hidden in got.estimate.support
    assert np.array_equal(got.estimate.support, want.estimate.support)
    a, b = got.objective_trace[-1], want.objective_trace[-1]
    assert abs(a - b) <= 1e-9 * abs(b)
    # The trace stays monotone across the two rounds.
    assert np.all(np.diff(got.objective_trace) >= 0)


def test_failure_carries_a_length_b_iterate(monkeypatch):
    # Images turn NaN after the third, so the step size underflows; the
    # error carries the last accepted iterate scattered back from W, the
    # length the sweep reconstructs a channel from.
    ctx = make_ctx(2, 10.0)
    g0 = gradient_at_zero(ctx)
    gamma = 0.4 * float(np.max(np.abs(g0)))
    real_image = RestrictedOperator.image
    calls = []

    def image(self, z):
        calls.append(None)
        return real_image(self, z) * (1.0 if len(calls) <= 3 else np.nan)

    monkeypatch.setattr(RestrictedOperator, "image", image)
    with pytest.raises(ConvergenceError, match="step size underflow") as err:
        run_fista(ctx, gamma)
    best = err.value.best
    assert best.shape == (ctx.op.B,)
    assert np.count_nonzero(best) > 0
    assert np.all(np.abs(g0[best != 0]) > gamma)
    at_zero = loglik(ctx, np.zeros(ctx.op.M * ctx.op.T, dtype=complex))
    assert loglik(ctx, ctx.op.apply(best)) - gamma * np.sum(np.abs(best)) >= at_zero

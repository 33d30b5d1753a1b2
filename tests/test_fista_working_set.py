"""Differential tests for FISTA on its working set.

run_fista iterated over all B columns; it now runs on a working set W of
columns, grown by a full KKT check at convergence.  The full-length solver
it replaced, oracles.full_length_fista, is the oracle here, as it was.
Since the solve can also end by a certified Newton finish on its settled
nonzero set, each test says which way its solves end.  The working-set
solve without the finish, oracles.working_set_fista, is the oracle for the
finish: run to a tight tolerance, it approaches the optimum that a finish
certifies.
"""

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import onebitcs.solvers as solvers_module
from onebitcs.errors import ConvergenceError
from onebitcs.objective import loglik
from onebitcs.operator import RestrictedOperator
from onebitcs.solvers import run_fista

from oracles import full_length_fista, gradient_at_zero, make_ctx, penalized, working_set_fista

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


def record_rounds(op):
    """Keep every restricted operator op hands out: one per round of a solve."""
    rounds = []
    real_restricted = op.restricted

    def restricted(idx):
        rounds.append(real_restricted(idx))
        return rounds[-1]

    op.restricted = restricted
    return rounds


@contextlib.contextmanager
def record_finishes():
    """The outcome of every Newton finish run_fista tries while the block runs."""
    outcomes = []
    real_finish = solvers_module._fista_finish

    def finish(*args):
        outcomes.append(real_finish(*args))
        return outcomes[-1]

    with mock.patch.object(solvers_module, "_fista_finish", finish):
        yield outcomes


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), rho=st.sampled_from([1.0, 10.0, 100.0]),
       fraction=st.floats(0.2, 1.2))
def test_solve_matches_full_length_oracle(seed, rho, fraction):
    # Where the oracle's prox points never leave the first working set, the
    # iterates are the oracle's, formed over fewer entries: only rounding
    # differs, and one round suffices.  One round sufficing is not enough:
    # an oracle iterate can visit a column off W and leave it again.  A
    # solve that one of its Newton finishes certifies ends before the
    # oracle, at the optimum it approaches; every other solve ends as the
    # oracle does.
    ctx = make_ctx(seed, rho)
    g0 = gradient_at_zero(ctx)
    gamma = fraction * float(np.max(np.abs(g0)))
    rounds = record_rounds(ctx.op)
    with record_finishes() as finishes:
        got = run_fista(ctx, gamma)
    want, touched = full_length_fista(ctx, gamma)
    finished = [out for out in finishes if out is not None]
    a, b = got.objective_trace[-1], want.objective_trace[-1]
    assert got.estimate.x_hat.shape == (ctx.op.B,)
    assert want.halted_by == "converged"
    assert got.halted_by == ("newton" if finished else "converged")
    if finished:
        # The certified optimum: not below the oracle's objective, which
        # FISTA_TOL leaves up to about 1e-7 relative short of it.
        assert a >= b - 1e-12 * abs(b)
    else:
        assert abs(a - b) <= 1e-9 * abs(b)
    if not np.any(touched & (np.abs(g0) <= gamma)):
        assert len(rounds) == 1
        assert np.array_equal(got.estimate.support, want.estimate.support)
        if finished:
            newton_steps = len(finished[0][2])
            assert got.iterations - newton_steps <= want.iterations
        else:
            assert got.iterations == want.iterations
            assert abs(a - b) <= 1e-12 * abs(b)


def hide_from_first_adjoint(ctx, column):
    """Zero column of the first full adjoint ctx.op makes: the gradient at 0 misses it."""
    full_adjoint = ctx.op.apply_adjoint
    calls = []

    def first_without_column(c):
        g = full_adjoint(c)
        if not calls:
            g[column] = 0.0
        calls.append(None)
        return g

    ctx.op.apply_adjoint = first_without_column


def test_kkt_check_adds_the_violating_column():
    # Hide the strongest column from the first gradient: W misses it, and
    # the Newton finish on the settled set fails its full KKT check, which
    # sees the hidden column.  The finish grows its set by that column and
    # certifies the optimum, in the first round.
    ctx = make_ctx(4, 10.0)
    g0 = gradient_at_zero(ctx)
    hidden = int(np.argmax(np.abs(g0)))
    gamma = 0.5 * float(np.abs(g0[hidden]))
    rounds = record_rounds(ctx.op)
    hide_from_first_adjoint(ctx, hidden)
    with record_finishes() as finishes:
        got = run_fista(ctx, gamma)
    assert len(rounds) == 1
    assert hidden not in rounds[0].idx
    assert [out is not None for out in finishes] == [True]
    assert got.halted_by == "newton"
    want, _ = full_length_fista(ctx, gamma)
    assert hidden in got.estimate.support
    assert np.array_equal(got.estimate.support, want.estimate.support)
    a, b = got.objective_trace[-1], want.objective_trace[-1]
    assert abs(a - b) <= 1e-9 * abs(b)
    # The trace stays monotone through the grown finish.
    assert np.all(np.diff(got.objective_trace) >= 0)


def test_kkt_round_adds_the_violating_column_past_the_finish_limit():
    # The same hidden column on a solve whose nonzero sets all hold more
    # than FINISH_MAX_SUPPORT entries: no finish is tried, the first round
    # converges without the column, and the full check at convergence
    # brings it in for a second round.
    ctx = make_ctx(0, 10.0, m=8, n=8, t=12, b=12)
    g0 = gradient_at_zero(ctx)
    hidden = int(np.argmax(np.abs(g0)))
    gamma = 0.2 * float(np.abs(g0[hidden]))
    rounds = record_rounds(ctx.op)
    hide_from_first_adjoint(ctx, hidden)
    with record_finishes() as finishes:
        got = run_fista(ctx, gamma)
    assert finishes == []
    assert got.halted_by == "converged"
    assert got.estimate.support.size > solvers_module.FINISH_MAX_SUPPORT
    assert len(rounds) == 2
    assert hidden not in rounds[0].idx and hidden in rounds[1].idx
    assert np.array_equal(rounds[1].idx[:rounds[0].idx.size], rounds[0].idx)
    want, _ = full_length_fista(ctx, gamma)
    assert hidden in got.estimate.support
    assert np.array_equal(got.estimate.support, want.estimate.support)
    a, b = got.objective_trace[-1], want.objective_trace[-1]
    assert abs(a - b) <= 1e-9 * abs(b)
    # The trace stays monotone across the two rounds.
    assert np.all(np.diff(got.objective_trace) >= 0)


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), rho=st.sampled_from([1.0, 10.0, 100.0]),
       fraction=st.floats(0.1, 0.9))
def test_finish_matches_the_retired_solve_run_to_a_tight_tolerance(seed, rho, fraction):
    # Up to its finish, the solve is the retired one bit for bit.  A
    # certified finish has the tight oracle's support, an objective not
    # below the oracle's beyond rounding, and an estimate within 1e-4 of
    # the oracle's, relative to its norm.  The bound is the oracle's own
    # accuracy: its monotone guard stops it where it can no longer tell
    # objectives apart, up to 3e-6 from the optimum over 198 random solves
    # here and 1.2e-5 on seed 0, rho 1, fraction 0.109 (21 entries), where
    # the finished objective is the higher one.  A solve that no finish
    # certifies is the retired solve.
    ctx = make_ctx(seed, rho)
    gamma = fraction * float(np.max(np.abs(ctx.gradient_at_zero)))
    with record_finishes() as finishes:
        got = run_fista(ctx, gamma)
    retired = working_set_fista(ctx, gamma)
    finished = [out for out in finishes if out is not None]
    assert got.halted_by == ("newton" if finished else retired.halted_by)
    if not finished:
        assert got.objective_trace == retired.objective_trace
        assert np.array_equal(got.estimate.x_hat, retired.estimate.x_hat)
        return
    newton_steps = len(finished[0][2])
    proximal = got.iterations - newton_steps
    assert got.objective_trace[:proximal + 1] == retired.objective_trace[:proximal + 1]
    tight = working_set_fista(ctx, gamma, max_iters=100_000, tol=1e-12)
    assert tight.halted_by == "converged"
    assert np.array_equal(got.estimate.support, tight.estimate.support)
    a, b = penalized(ctx, gamma, got.estimate.x_hat), penalized(ctx, gamma, tight.estimate.x_hat)
    assert a >= b - 1e-12 * abs(b)
    scale = max(1.0, float(np.linalg.norm(tight.estimate.x_hat)))
    assert np.linalg.norm(got.estimate.x_hat - tight.estimate.x_hat) <= 1e-4 * scale
    # The trace ends with the finished objective, and every step is counted.
    assert got.iterations == len(got.objective_trace) - 1
    assert abs(got.objective_trace[-1] - a) <= 1e-12 * abs(a)


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

"""Tests of FISTA's Newton finish growing its set by the certificate's violators.

The finish runs the l1 Newton loop on FISTA's settled nonzero set and
certifies the result by one full adjoint.  A refused certificate used to
end the finish; now the violators join the set, each at one proximal step
from zero, and the loop runs once more.  The retired one-shot finish,
oracles.one_shot_fista_finish, is the oracle where it certifies, and the
full-length FISTA, oracles.full_length_fista, where only the grown finish
does.
"""

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import onebitcs.solvers as solvers_module
from onebitcs.errors import ConvergenceError
from onebitcs.objective import likelihood
from onebitcs.solvers import FINISH_TOL, _fista_finish, run_fista

from oracles import fista_step, full_length_fista, make_ctx, one_shot_fista_finish

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


@contextlib.contextmanager
def record_loops():
    """The support and crossing mask of every Newton loop run while the block runs."""
    loops = []
    real_loop = solvers_module._newton_loop

    def loop(ctx, support, *args, **kwargs):
        out = real_loop(ctx, support, *args, **kwargs)
        loops.append((support, out[3]))
        return out

    with mock.patch.object(solvers_module, "_newton_loop", loop):
        yield loops


def certified_optimum(seed):
    """A problem, its gamma and the optimum a Newton finish certifies there."""
    ctx = make_ctx(seed, 10.0)
    gamma = 0.4 * float(np.max(np.abs(ctx.gradient_at_zero)))
    report = run_fista(ctx, gamma)
    assert report.halted_by == "newton"
    return ctx, gamma, report.estimate


def assert_certified(ctx, gamma, finished, optimum):
    """finished is the optimum, and passes the KKT conditions formed from scratch."""
    assert finished is not None
    support, values, _ = finished
    assert np.array_equal(support, optimum.support)
    assert np.allclose(values, optimum.x_hat[support], rtol=0, atol=1e-8)
    x = np.zeros(ctx.op.B, dtype=complex)
    x[support] = values
    g = ctx.op.apply_adjoint(likelihood(ctx, ctx.op.apply(x)).weights)
    on = g[support] - gamma * values / np.abs(values)
    assert np.linalg.norm(on) <= 10 * FINISH_TOL * np.sqrt(support.size)
    off = np.abs(g)
    off[support] = 0.0
    assert off.max() <= gamma


def test_a_column_missing_from_the_set_joins_through_the_certificate():
    # Start the finish on the optimum without its smallest entry.  Newton
    # converges on the smaller set, whose certificate finds the missing
    # column: the retired finish refuses there, and the grown finish adds
    # the column (with whatever else violates) and certifies the optimum.
    for seed in range(8):
        ctx, gamma, optimum = certified_optimum(seed)
        missing = optimum.support[np.argmin(np.abs(optimum.x_hat[optimum.support]))]
        x = optimum.x_hat.copy()
        x[missing] = 0.0
        support = optimum.support[optimum.support != missing]
        args = (ctx, gamma, support, x[support], ctx.op.apply(x))
        with record_loops() as loops:
            finished = _fista_finish(*args, fista_step(ctx))
        assert one_shot_fista_finish(*args) is None
        assert np.array_equal(loops[0][0], support) and loops[0][1] is None
        grown = loops[1][0]
        assert missing in grown and np.all(np.isin(support, grown))
        assert_certified(ctx, gamma, finished, optimum)


def test_an_entry_wrongly_dropped_on_a_crossing_comes_back():
    # Start the finish on the optimum's support with its smallest entry
    # flipped and halved: the first Newton step sends that entry through
    # zero, and the drop rule takes it off the set although the optimum
    # holds it.  The retired finish refuses the smaller set; the grown one
    # takes the entry back through the certificate.  That certifies the
    # optimum on every seed but 6, whose first step also drops three other
    # entries of the optimum: the grown set drops two of them again and is
    # refused, and FISTA would go on from its own iterate.
    for seed in range(8):
        ctx, gamma, optimum = certified_optimum(seed)
        flipped = optimum.support[np.argmin(np.abs(optimum.x_hat[optimum.support]))]
        x = optimum.x_hat.copy()
        x[flipped] *= -0.5
        args = (ctx, gamma, optimum.support, x[optimum.support], ctx.op.apply(x))
        with record_loops() as loops:
            finished = _fista_finish(*args, fista_step(ctx))
        assert one_shot_fista_finish(*args) is None
        assert loops[0][1][np.searchsorted(optimum.support, flipped)]
        sizes = [support.size for support, _ in loops]
        grown = sizes.index(max(sizes[1:]), 1)
        assert flipped not in loops[grown - 1][0] and flipped in loops[grown][0]
        if seed == 6:
            assert finished is None
        else:
            assert_certified(ctx, gamma, finished, optimum)


def test_a_refused_grown_finish_lets_fista_go_on_without_a_second_growth():
    # Script the first finish's certificates: each full adjoint it makes
    # reports a false violator, the lowest column off the set it certifies
    # and off the optimum.  The first certificate grows the set by it; the
    # second is refused, and the finish returns None without growing again.
    # FISTA goes on from its own iterate; its nonzero set, already tried,
    # holds, and it runs to FISTA_TOL near the optimum of the unscripted
    # solve.  Each certificate costs one full adjoint, so the solve makes
    # one per round, two for the finish and one for its closing KKT check.
    ctx, gamma, optimum = certified_optimum(4)
    ctx = make_ctx(4, 10.0)     # a fresh context, whose adjoint the script wraps
    full_adjoint = ctx.op.apply_adjoint
    adjoints = []
    false_violators = []
    finishes = []    # (its Newton loops' supports, its full adjoints, its outcome) per finish

    def apply_adjoint(c):
        g = full_adjoint(c)
        adjoints.append(None)
        if loops and not finishes:    # a certificate of the first finish
            last = loops[-1][0]
            column = next(j for j in range(ctx.op.B)
                          if j not in last and j not in optimum.support)
            g[column] = 2.0 * gamma
            false_violators.append(column)
        return g

    real_finish = solvers_module._fista_finish

    def finish(*args):
        before = len(adjoints)
        out = real_finish(*args)
        finishes.append(([support for support, _ in loops], len(adjoints) - before, out))
        loops.clear()
        return out

    ctx.op.apply_adjoint = apply_adjoint
    rounds = []
    real_restricted = ctx.op.restricted
    ctx.op.restricted = lambda idx: rounds.append(idx) or real_restricted(idx)
    with record_loops() as loops, mock.patch.object(solvers_module, "_fista_finish", finish):
        report = run_fista(ctx, gamma)

    (supports, certificates, first), *later = finishes
    assert first is None
    assert certificates == 2 and len(false_violators) == 2
    growths = [k for k in range(1, len(supports))
               if not np.all(np.isin(supports[k], supports[k - 1]))]
    assert len(growths) == 1
    assert false_violators[0] in supports[growths[0]]
    assert false_violators[0] not in supports[0]
    assert later == []
    assert report.halted_by == "converged"
    assert np.array_equal(report.estimate.support, optimum.support)
    assert np.allclose(report.estimate.x_hat, optimum.x_hat, rtol=0, atol=1e-5)
    assert len(rounds) == 1
    assert len(adjoints) == len(rounds) + certificates + 1


@pytest.mark.parametrize("error", [ConvergenceError, np.linalg.LinAlgError])
def test_a_finish_whose_newton_loop_fails_lets_fista_go_on(error):
    # The first finish's Newton loop fails, as on its cap, a stall or a
    # singular system: that finish returns None, and FISTA goes on from its
    # own iterate.  Its nonzero set, already tried, holds, so it ends at
    # FISTA_TOL or in a later finish on another set, on the optimum of the
    # unscripted solve.
    ctx, gamma, optimum = certified_optimum(4)
    real_loop = solvers_module._newton_loop
    real_finish = solvers_module._fista_finish
    raised, outcomes = [], []

    def loop(*args, **kwargs):
        if not raised:
            raised.append(error)
            raise error("scripted failure")
        return real_loop(*args, **kwargs)

    def finish(*args):
        outcomes.append(real_finish(*args))
        return outcomes[-1]

    with mock.patch.object(solvers_module, "_newton_loop", loop), \
            mock.patch.object(solvers_module, "_fista_finish", finish):
        report = run_fista(ctx, gamma)
    assert raised == [error]
    assert outcomes[0] is None
    assert report.halted_by in ("newton", "converged")
    assert np.array_equal(report.estimate.support, optimum.support)
    assert np.allclose(report.estimate.x_hat, optimum.x_hat, rtol=0, atol=1e-5)


@contextlib.contextmanager
def beside_the_one_shot_finish():
    """Run the retired one-shot finish beside every finish run_fista tries.

    Yields the list of (grown outcome, one-shot outcome) pairs.
    """
    pairs = []
    real_finish = solvers_module._fista_finish

    def finish(ctx, gamma, support, values, u, step):
        pairs.append((real_finish(ctx, gamma, support, values, u, step),
                      one_shot_fista_finish(ctx, gamma, support, values, u)))
        return pairs[-1][0]

    with mock.patch.object(solvers_module, "_fista_finish", finish):
        yield pairs


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), rho=st.sampled_from([1.0, 10.0, 100.0]),
       fraction=st.floats(0.1, 0.9))
def test_grown_finish_matches_the_full_length_oracle(seed, rho, fraction):
    # Where the one-shot finish certifies, the grown finish takes its path
    # and returns its result bit for bit.  A solve that a finish certifies
    # has the full-length oracle's support and objective, to 1e-9
    # relative, whether the finish grew its set or not.
    ctx = make_ctx(seed, rho)
    gamma = fraction * float(np.max(np.abs(ctx.gradient_at_zero)))
    with beside_the_one_shot_finish() as pairs:
        got = run_fista(ctx, gamma)
    for grown, one_shot in pairs:
        if one_shot is not None:
            assert grown is not None
            assert all(np.array_equal(a, b) for a, b in zip(grown[:2], one_shot[:2]))
            assert grown[2] == one_shot[2]
    want, _ = full_length_fista(ctx, gamma)
    assert want.halted_by == "converged"
    if got.halted_by == "newton":
        assert np.array_equal(got.estimate.support, want.estimate.support)
        a, b = got.objective_trace[-1], want.objective_trace[-1]
        assert abs(a - b) <= 1e-9 * abs(b)

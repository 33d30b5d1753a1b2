"""Tests of tune_gamma's search, which starts at the problems' zero threshold.

For gamma >= max|grad f(0)| the l1-penalized estimate is exactly zero, so
tune_gamma starts at that threshold and halves down to the target window.
Two earlier searches, in tests/oracles.py, serve as oracles: one bisected
log(gamma) over the fixed bracket [1e-6, 1e6]; the other halved from the
zero threshold in one loop and bisected in a second, solving every problem
at every gamma.  tune_gamma's single bracketing loop must evaluate exactly
its gammas and return its result bit for bit, although an evaluation stops
once its support sizes sum past len(ctxs) * (3L+1).
"""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import onebitcs.solvers as solvers_module
from onebitcs.errors import TuningError
from onebitcs.model import dft_dictionary, draw_channel, synthesize_measurement, zc_training
from onebitcs.objective import ObjectiveContext
from onebitcs.operator import build_operator
from onebitcs.solvers import run_fista, tune_gamma
from oracles import oracle_halve_then_bisect, oracle_tune_gamma, zero_threshold

SETTINGS = settings(max_examples=10, deadline=None, derandomize=True)
FISTA_CAP = 500    # run_fista's default max_iters, which tune_gamma uses


def problems(seed, rho, m=4, n=4, t=6, b=8, paths=1):
    """make_ctx for seeded problems on one shared operator."""
    tr = zc_training(n, t)
    op = build_operator(tr.S, dft_dictionary(m, b), dft_dictionary(n, b))

    def make_ctx(k):
        rng = np.random.default_rng([seed, k])
        H = draw_channel(paths, m, n, rng).H
        return ObjectiveContext(op, synthesize_measurement(H, tr.S, rho, rng))

    return make_ctx


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), rho=st.sampled_from([0.1, 1.0, 10.0, 100.0, 1000.0]),
       trials=st.integers(1, 4))
def test_estimates_vanish_at_the_zero_threshold_and_not_below(seed, rho, trials):
    make_ctx = problems(seed, rho)
    ctxs = [make_ctx(k) for k in range(trials)]
    gamma_max = max(zero_threshold(c) for c in ctxs)
    assert all(run_fista(c, gamma_max).estimate.support.size == 0 for c in ctxs)
    assert any(run_fista(c, 0.5 * gamma_max).estimate.support.size > 0 for c in ctxs)


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), rho=st.sampled_from([1.0, 10.0, 100.0, 1000.0]),
       L=st.integers(1, 2))
def test_reaches_the_window_where_the_fixed_bracket_does(seed, rho, L):
    make_ctx = problems(seed, rho, paths=L)
    _, want = oracle_tune_gamma(make_ctx, L, trials=3)
    gamma, got = tune_gamma([make_ctx(k) for k in range(3)], L)
    assert abs(want - 3 * L) <= 1.0
    assert abs(got - 3 * L) <= 1.0
    assert gamma > 0.0


def recording_of(fista, gammas):
    """fista, appending every gamma it is handed to gammas."""
    def recorded(ctx, gamma):
        gammas.append(gamma)
        return fista(ctx, gamma)
    return recorded


def outcome(search):
    """search()'s result, or the message of the TuningError it raised."""
    try:
        return search()
    except TuningError as err:
        return str(err)


def verdict(result):
    """An outcome as compared bit for bit: the result's float.hex, or the error's reason."""
    if isinstance(result, str):
        return result.split(":")[0]
    return tuple(x.hex() for x in result)


def solves_of(fista, solves):
    """fista, appending (ctx, gamma, support size) of every solve to solves."""
    def logged(ctx, gamma):
        report = fista(ctx, gamma)
        solves.append((ctx, gamma, report.estimate.support.size))
        return report
    return logged


def evaluations_of(solves, ctxs):
    """The logged solves as evaluations, (gamma, support sizes) each.

    An evaluation is a prefix of ctxs, solved in order at one gamma.
    """
    evaluations = []
    for ctx, gamma, size in solves:
        if ctx is ctxs[0]:
            evaluations.append((gamma, []))
        assert evaluations, "the first solve is not of the first problem"
        at, sizes = evaluations[-1]
        assert len(sizes) < len(ctxs) and ctx is ctxs[len(sizes)]
        assert gamma.hex() == at.hex()
        sizes.append(size)
    return evaluations


def test_one_bracketing_loop_matches_halve_then_bisect():
    bisected, stopped = [], []

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1),
           rho=st.sampled_from([0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0]),
           L=st.integers(1, 2), trials=st.integers(1, 4))
    def check(seed, rho, L, trials):
        make_ctx = problems(seed, rho, paths=L)
        ctxs = [make_ctx(k) for k in range(trials)]
        want_solves, got_solves = [], []
        want = outcome(lambda: oracle_halve_then_bisect(ctxs, L, solves_of(run_fista, want_solves)))
        with mock.patch.object(solvers_module, "run_fista", solves_of(run_fista, got_solves)):
            got = outcome(lambda: tune_gamma(ctxs, L))
        wanted, evaluated = evaluations_of(want_solves, ctxs), evaluations_of(got_solves, ctxs)
        assert [g.hex() for g, _ in evaluated] == [g.hex() for g, _ in wanted]
        assert verdict(got) == verdict(want)
        bound = trials * (3 * L + 1)
        for (_, sizes), (_, full) in zip(evaluated, wanted):
            assert sizes == full[:len(sizes)]
            sums = list(itertools.accumulate(sizes))
            # Cut short only once the partial sum exceeds the bound, and then at once.
            assert all(s <= bound for s in sums[:-1])
            assert len(sizes) == trials or sums[-1] > bound
        stopped.append(any(len(sizes) < trials for _, sizes in evaluated))
        if not stopped[-1]:
            assert got == want
        # A bisection's first midpoint lies above the last halving.
        gammas = [g for g, _ in wanted]
        bisected.append(any(b > a for a, b in zip(gammas, gammas[1:])))

    check()
    assert len(bisected) >= 30 and any(bisected) and any(stopped)


def empty_fista(ctx, gamma):
    """A run_fista stand-in whose estimate is always zero."""
    zero = solvers_module.SparseEstimate(np.zeros(ctx.op.B, dtype=complex), [])
    return solvers_module.SolverReport(zero, 1, "converged", [0.0])


def test_failing_search_matches_halve_then_bisect():
    # No estimate ever leaves zero, so the halvings run out below the window.
    ctxs = [problems(3, 10.0)(0)]
    want_gammas, got_gammas = [], []
    want = outcome(lambda: oracle_halve_then_bisect(ctxs, 1, recording_of(empty_fista, want_gammas)))
    with mock.patch.object(solvers_module, "run_fista", recording_of(empty_fista, got_gammas)):
        got = outcome(lambda: tune_gamma(ctxs, 1))
    assert "halvings" in want and got == want
    assert [g.hex() for g in got_gammas] == [g.hex() for g in want_gammas]
    assert len(got_gammas) == 1 + solvers_module.TUNE_MAX_BISECT


def test_unreachable_window_fails_before_any_solve():
    # B = 64 and 25: the window's low end is checked against their mean.
    ctxs = [problems(3, 10.0)(0), problems(3, 10.0, b=5)(0)]
    gammas = []
    with mock.patch.object(solvers_module, "run_fista", recording_of(empty_fista, gammas)):
        with pytest.raises(TuningError, match=r"\[47, 49\] lies above the problems' mean B = 44.5$"):
            tune_gamma(ctxs, 16)
        assert gammas == []
        # [44, 46] starts at or below the mean B, so the search runs.
        with pytest.raises(TuningError, match="halvings"):
            tune_gamma(ctxs, 15)
    assert len(gammas) == 2 * (1 + solvers_module.TUNE_MAX_BISECT)


def sized_report(ctx, size):
    """A FISTA report whose estimate has size nonzeros, the first columns of ctx's operator."""
    x = np.zeros(ctx.op.B, dtype=complex)
    x[:size] = 1.0
    estimate = solvers_module.SparseEstimate(x, np.arange(size))
    return solvers_module.SolverReport(estimate, 1, "converged", [0.0])


def scripted_fista(ctxs, script, gammas):
    """A run_fista stand-in whose support sizes follow script.

    script[e][k] is problem k's support size at the e-th evaluation; the
    gamma of each solve is appended to gammas[e].
    """
    def fista(ctx, gamma):
        k = next(k for k, c in enumerate(ctxs) if c is ctx)
        if k == 0:
            gammas.append([])
        gammas[-1].append(gamma)
        return sized_report(ctx, script[len(gammas) - 1][k])
    return fista


def test_a_stopped_evaluation_at_the_larger_gamma_proves_a_violation():
    # L = 1: the window is [2, 4] and two problems stop once their sizes sum past 8.
    ctxs = [problems(3, 10.0)(k) for k in range(2)]
    # gamma_max; gamma_max / 2, whose 9 exceeds 8 only at the last problem,
    # so its mean 4.5 is exact; the bisection's first midpoint, above it,
    # stopped at 12 (at least 6.0 > 4.5 + 1); and the window.
    script = [[0, 0], [3, 6], [12, None], [3, 3]]
    gammas = []
    with mock.patch.object(solvers_module, "run_fista", scripted_fista(ctxs, script, gammas)):
        with pytest.raises(TuningError, match=r"not decreasing in gamma: 4\.5 at \S+, at least 6\.0 at"):
            tune_gamma(ctxs, 1)
    assert [len(g) for g in gammas] == [2, 2, 1, 2]
    assert gammas[1][0] < gammas[2][0] < gammas[0][0]


def test_a_stopped_evaluation_at_the_smaller_gamma_is_not_read_as_a_value():
    # gamma_max / 2 stopped at 12 (a mean of at least 6.0, which may be 12);
    # the larger gamma above it means exactly 8.0, more than 6.0 + 1 but
    # no violation that the stopped evaluation proves.
    ctxs = [problems(3, 10.0)(k) for k in range(2)]
    script = [[0, 0], [12, None], [4, 12], [3, 3]]
    gammas = []
    with mock.patch.object(solvers_module, "run_fista", scripted_fista(ctxs, script, gammas)):
        gamma, achieved = tune_gamma(ctxs, 1)
    assert [len(g) for g in gammas] == [2, 1, 2, 2]
    assert gammas[1][0] < gammas[2][0] < gammas[0][0]
    assert (gamma, achieved) == (gammas[3][0], 3.0)


def test_a_window_the_bisections_do_not_reach_raises():
    # L = 1: the window is [2, 4].  Every problem's support size jumps from
    # 5 straight to 0 where gamma crosses 0.75 gamma_max, so the mean never
    # lands in the window: the bracket closes at gamma_max / 2, and each of
    # the TUNE_MAX_BISECT bisections lands on one side of the jump.
    ctxs = [problems(3, 10.0)(k) for k in range(2)]
    jump = 0.75 * max(float(np.max(np.abs(c.gradient_at_zero))) for c in ctxs)
    gammas = []

    def fista(ctx, gamma):
        gammas.append(gamma)
        return sized_report(ctx, 5 if gamma < jump else 0)

    with mock.patch.object(solvers_module, "run_fista", fista):
        with pytest.raises(TuningError, match=rf"not reached in {solvers_module.TUNE_MAX_BISECT} "
                                              r"bisections"):
            tune_gamma(ctxs, 1)
    evaluated = gammas[::2]
    assert gammas[1::2] == evaluated
    assert len(evaluated) == 2 + solvers_module.TUNE_MAX_BISECT
    assert evaluated[1] == 0.5 * evaluated[0]
    assert all(evaluated[1] <= g <= evaluated[0] for g in evaluated[2:])
    assert min(abs(g - jump) for g in evaluated) <= 1e-12 * jump


def criterion_8_problems(rho):
    """The criterion-8 problems (tests/test_acceptance.py) at one SNR."""
    tr = zc_training(16, 20)
    op = build_operator(tr.S, dft_dictionary(16, 64), dft_dictionary(16, 64))

    def make_ctx(k):
        rng = np.random.default_rng(800 + k)
        ch = draw_channel(2, 16, 16, rng)
        return ObjectiveContext(op, synthesize_measurement(ch.H, tr.S, rho, rng))

    return [make_ctx(k) for k in range(6)]


@pytest.mark.parametrize("rho", [0.1, 10.0, 1000.0])
def test_no_tuning_solve_reaches_the_cap(monkeypatch, rho):
    iterations = []

    def counted(ctx, gamma):
        report = run_fista(ctx, gamma)
        iterations.append(report.iterations)
        return report

    monkeypatch.setattr(solvers_module, "run_fista", counted)
    _, achieved = tune_gamma(criterion_8_problems(rho), 2)
    assert abs(achieved - 6.0) <= 1.0
    assert iterations and max(iterations) < FISTA_CAP


def test_criterion_8_tuning_matches_the_retired_search_in_fewer_solves():
    fewer = []
    for rho in (0.1, 10.0, 1000.0):
        ctxs = criterion_8_problems(rho)
        want_solves, got_solves = [], []
        want = oracle_halve_then_bisect(ctxs, 2, solves_of(run_fista, want_solves))
        with mock.patch.object(solvers_module, "run_fista", solves_of(run_fista, got_solves)):
            got = tune_gamma(ctxs, 2)
        assert verdict(got) == verdict(want)
        assert len(got_solves) <= len(want_solves)
        fewer.append(len(got_solves) < len(want_solves))
    assert any(fewer)

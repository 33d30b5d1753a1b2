"""Tests of tune_gamma's search, which starts at the problems' zero threshold.

For gamma >= max|grad f(0)| the l1-penalized estimate is exactly zero, so
tune_gamma starts at that threshold and halves down to the target window.
Two earlier searches serve as oracles: one bisected log(gamma) over the
fixed bracket [1e-6, 1e6]; the other halved from the zero threshold in one
loop and bisected in a second, and tune_gamma's single bracketing loop
must evaluate exactly its gammas.
"""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import onebitcs.solvers as solvers_module
from onebitcs.errors import TuningError
from onebitcs.model import dft_dictionary, draw_channel, synthesize_measurement, zc_training
from onebitcs.objective import ObjectiveContext, grad_h, likelihood
from onebitcs.operator import build_operator
from onebitcs.solvers import run_fista, tune_gamma

SETTINGS = settings(max_examples=10, deadline=None, derandomize=True)
FISTA_CAP = 500    # run_fista's default max_iters, which tune_gamma uses


def oracle_tune_gamma(make_ctx, L, trials, lo=1e-6, hi=1e6, max_bisect=60):
    """Bisect log(gamma) over [lo, hi] until the mean support is near 3L."""
    ctxs = [make_ctx(k) for k in range(trials)]
    target = 3 * L

    def mean_support(gamma):
        return float(np.mean([run_fista(c, gamma).estimate.support.size for c in ctxs]))

    evaluations = []

    def record(gamma, mean):
        evaluations.append((gamma, mean))
        return mean

    m_lo = record(lo, mean_support(lo))
    m_hi = record(hi, mean_support(hi))
    if not (m_lo >= target and m_hi <= target):
        raise TuningError(f"no bracket in [{lo}, {hi}]")
    result = None
    log_lo, log_hi = math.log(lo), math.log(hi)
    for _ in range(max_bisect):
        mid = math.exp(0.5 * (log_lo + log_hi))
        m = record(mid, mean_support(mid))
        if target - 1 <= m <= target + 1:
            result = (mid, m)
            break
        if m > target:
            log_lo = math.log(mid)
        else:
            log_hi = math.log(mid)
    for (g1, m1), (g2, m2) in itertools.combinations(sorted(evaluations), 2):
        if g2 > g1 and m2 > m1 + 1.0:
            raise TuningError("support size not decreasing in gamma")
    if result is None:
        raise TuningError("window not reached")
    return result


def oracle_halve_then_bisect(ctxs, L, fista, max_steps=60):
    """The search as two loops: halve from gamma_max, then bisect log(gamma)."""
    target = 3 * L
    evaluations = []

    def mean_support(gamma):
        mean = float(np.mean([fista(c, gamma).estimate.support.size for c in ctxs]))
        evaluations.append((gamma, mean))
        return mean

    gamma_max = 0.0
    for c in ctxs:
        at_zero = likelihood(c, np.zeros(c.op.M * c.op.T, dtype=complex))
        gamma_max = max(gamma_max, float(np.max(np.abs(c.op.apply_adjoint(at_zero.weights)))))
    if gamma_max == 0.0:
        raise TuningError("the likelihood gradient vanishes at 0 on every problem")

    gamma = gamma_max
    m = mean_support(gamma)
    if m > target + 1:
        raise TuningError(f"no bracket: mean support {m} at gamma_max = {gamma_max}")
    for _ in range(max_steps):
        if m >= target - 1:
            break
        gamma *= 0.5
        m = mean_support(gamma)
    if m < target - 1:
        raise TuningError(f"window [{target - 1}, {target + 1}] not reached in "
                          f"{max_steps} halvings of gamma_max = {gamma_max}")

    result = None
    if m <= target + 1:
        result = (gamma, m)
    else:
        # The mean is above the window at gamma and below it at 2 gamma.
        log_lo, log_hi = math.log(gamma), math.log(2.0 * gamma)
        for _ in range(max_steps):
            mid = math.exp(0.5 * (log_lo + log_hi))
            m = mean_support(mid)
            if target - 1 <= m <= target + 1:
                result = (mid, m)
                break
            if m > target:
                log_lo = math.log(mid)
            else:
                log_hi = math.log(mid)

    for (g1, m1), (g2, m2) in itertools.combinations(sorted(evaluations), 2):
        if g2 > g1 and m2 > m1 + 1.0:
            raise TuningError(
                f"support size not decreasing in gamma: {m1} at {g1}, {m2} at {g2}"
            )
    if result is None:
        raise TuningError(f"window [{target - 1}, {target + 1}] not reached "
                          f"in {max_steps} bisections")
    return result


def problems(seed, rho, m=4, n=4, t=6, b=8, paths=1):
    """make_ctx for seeded problems on one shared operator."""
    tr = zc_training(n, t)
    op = build_operator(tr.S, dft_dictionary(m, b), dft_dictionary(n, b), "fft")

    def make_ctx(k):
        rng = np.random.default_rng([seed, k])
        H = draw_channel(paths, m, n, rng).H
        return ObjectiveContext(op, synthesize_measurement(H, tr.S, rho, rng))

    return make_ctx


def zero_threshold(ctx):
    """max|grad f(0)|; the prior's gradient vanishes at 0."""
    return float(np.max(np.abs(grad_h(ctx, np.zeros(ctx.op.B, dtype=complex)))))


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


def recording(gammas):
    """run_fista, appending every gamma it is handed to gammas."""
    return recording_of(run_fista, gammas)


def outcome(search):
    """search()'s result, or the message of the TuningError it raised."""
    try:
        return search()
    except TuningError as err:
        return str(err)


def test_one_bracketing_loop_matches_halve_then_bisect():
    bisected = []

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1),
           rho=st.sampled_from([0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0]),
           L=st.integers(1, 2), trials=st.integers(1, 4))
    def check(seed, rho, L, trials):
        make_ctx = problems(seed, rho, paths=L)
        ctxs = [make_ctx(k) for k in range(trials)]
        want_gammas, got_gammas = [], []
        want = outcome(lambda: oracle_halve_then_bisect(ctxs, L, recording(want_gammas)))
        with mock.patch.object(solvers_module, "run_fista", recording(got_gammas)):
            got = outcome(lambda: tune_gamma(ctxs, L))
        assert [g.hex() for g in got_gammas] == [g.hex() for g in want_gammas]
        assert got == want
        # A bisection's first midpoint lies above the last halving.
        bisected.append(any(b > a for a, b in zip(want_gammas, want_gammas[1:])))

    check()
    assert len(bisected) >= 30 and any(bisected)


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


@pytest.mark.parametrize("rho", [0.1, 10.0, 1000.0])
def test_no_tuning_solve_reaches_the_cap(monkeypatch, rho):
    # The criterion-8 problems (tests/test_acceptance.py) at three SNRs.
    tr = zc_training(16, 20)
    op = build_operator(tr.S, dft_dictionary(16, 64), dft_dictionary(16, 64), "fft")

    def make_ctx(k):
        rng = np.random.default_rng(800 + k)
        ch = draw_channel(2, 16, 16, rng)
        return ObjectiveContext(op, synthesize_measurement(ch.H, tr.S, rho, rng))

    iterations = []

    def counted(ctx, gamma):
        report = run_fista(ctx, gamma)
        iterations.append(report.iterations)
        return report

    monkeypatch.setattr(solvers_module, "run_fista", counted)
    _, achieved = tune_gamma([make_ctx(k) for k in range(6)], 2)
    assert abs(achieved - 6.0) <= 1.0
    assert iterations and max(iterations) < FISTA_CAP

"""Tests for the thresholders, pursuit loops, FISTA, and the exact oracle."""

import math

import numpy as np
import pytest
from scipy import special

import onebitcs.solvers as solvers_module
from onebitcs.errors import CapacityError, ConvergenceError, TuningError
from onebitcs.model import dft_dictionary, draw_channel, synthesize_measurement, zc_training
from onebitcs.objective import ObjectiveContext, grad_h, h_objective, likelihood
from onebitcs.operator import (
    CoherenceStructure,
    SensingOperator,
    build_operator,
    coherence_bands,
    select_eta,
)
from onebitcs.solvers import (
    SolverConfig,
    bms_threshold,
    brute_force_map,
    hard_threshold,
    restricted_maximize,
    run_fista,
    run_grahtp,
    run_grasp,
    tune_gamma,
    _soft_threshold,
)

from oracles import make_ctx, real_form


def make_problem(m=8, n=8, t=10, b_rx=8, b_tx=8, l=1, rho=10.0, seed=0, on_grid=True):
    """One seeded instance; on_grid places a single path exactly on the grid."""
    rng = np.random.default_rng(seed)
    tr = zc_training(n, t)
    a_rx = dft_dictionary(m, b_rx)
    a_tx = dft_dictionary(n, b_tx)
    op = build_operator(tr.S, a_rx, a_tx)
    if on_grid:
        x_true = np.zeros(op.B, dtype=complex)
        idx = rng.choice(op.B, size=l, replace=False)
        x_true[idx] = (rng.standard_normal(l) + 1j * rng.standard_normal(l)) / np.sqrt(2)
        H = a_rx @ x_true.reshape(b_rx, b_tx, order="F") @ a_tx.conj().T
        truth = np.sort(idx)
    else:
        H = draw_channel(l, m, n, rng).H
        truth = None
    meas = synthesize_measurement(H, tr.S, rho, rng)
    return op, ObjectiveContext(op, meas), truth


def transcribed_band_max(z, x_hat, L, band_sets):
    """Naive while-loop transcription of the band-maximum thresholder."""
    S, remaining = set(), set(range(len(z)))
    while len(S) < L and remaining:
        i = max(remaining, key=lambda j: (abs(z[j]), -j))
        J = {j for j in band_sets[i] if x_hat[j] == x_hat[i]} - {i}
        if not J or abs(z[i]) > max(abs(z[j]) for j in J):
            S.add(i)
        remaining.discard(i)
    return np.array(sorted(S), dtype=int)


def hand_bands(band_sets, B):
    rows = [np.array(sorted(band_sets[i]), dtype=np.intp) for i in range(B)]
    return CoherenceStructure(
        eta=0.5,
        indptr=np.concatenate([[0], np.cumsum([r.size for r in rows])]).astype(np.intp),
        indices=np.concatenate(rows),
    )


def solve_full(ctx, support, **kwargs):
    """restricted_maximize's maximizer as a full-length vector."""
    values, _, _ = restricted_maximize(ctx, support, **kwargs)
    x = np.zeros(ctx.op.B, dtype=complex)
    x[support] = values
    return x


class TestHardThreshold:
    def test_keeps_largest(self):
        z = np.array([1.0, -4.0, 2.0, 0.5]).astype(complex)
        assert np.array_equal(hard_threshold(z, 2), [1, 2])

    def test_tie_breaks_to_lowest_index(self):
        z = np.array([1.0, 1.0, 1.0]).astype(complex)
        assert np.array_equal(hard_threshold(z, 2), [0, 1])


class TestBmsThreshold:
    def test_hand_built_case(self):
        # Chain of overlapping bands; all estimate entries equal, so every
        # band member is a by-product.  Index 0 beats its band, 1 and 2 are
        # dominated, 3 is isolated.
        band_sets = {0: {0, 1}, 1: {0, 1, 2}, 2: {1, 2}, 3: {3},
                     4: {4, 5}, 5: {4, 5}, 6: {6, 7}, 7: {6, 7}}
        mags = np.array([5.0, 4.0, 3.0, 2.5, 2.0, 1.0, 0.5, 0.4])
        phases = np.exp(1j * np.linspace(0, 2, 8))
        z = mags * phases
        x_hat = np.zeros(8, dtype=complex)
        bands = hand_bands(band_sets, 8)
        idx = bms_threshold(z, x_hat, 2, bands)
        assert np.array_equal(idx, [0, 3])
        assert np.array_equal(idx, transcribed_band_max(z, x_hat, 2, band_sets))

    def test_differing_estimate_values_empty_the_byproduct_set(self):
        band_sets = {0: {0, 1}, 1: {0, 1, 2}, 2: {1, 2}, 3: {3},
                     4: {4, 5}, 5: {4, 5}, 6: {6, 7}, 7: {6, 7}}
        z = np.array([5.0, 4.0, 3.0, 2.5, 2.0, 1.0, 0.5, 0.4]).astype(complex)
        x_hat = np.zeros(8, dtype=complex)
        x_hat[1] = 1.0 + 0j
        idx = bms_threshold(z, x_hat, 2, hand_bands(band_sets, 8))
        assert np.array_equal(idx, [0, 1])

    def test_ground_truth_beats_byproduct(self):
        # A by-product j in the band of the argmax i (same estimate value,
        # smaller score) is rejected while i is selected.
        band_sets = {0: {0, 1}, 1: {0, 1}, 2: {2}, 3: {3}}
        z = np.array([3.0, 2.9, 0.5, 0.1]).astype(complex)
        x_hat = np.zeros(4, dtype=complex)
        idx = bms_threshold(z, x_hat, 2, hand_bands(band_sets, 4))
        assert 0 in idx and 1 not in idx

    def test_exact_score_ties_reject_both(self):
        band_sets = {0: {0, 1}, 1: {0, 1}}
        z = np.array([1.0 + 0j, 1j])          # equal magnitudes, exactly
        idx = bms_threshold(z, np.zeros(2, dtype=complex), 1,
                               hand_bands(band_sets, 2))
        assert idx.size == 0

    def test_matches_transcription_on_random_instances(self):
        op, _, _ = make_problem(m=4, n=4, t=6, b_rx=8, b_tx=8)
        selection = select_eta(op)
        bands = coherence_bands(op, selection.eta)
        band_sets = {i: set(b.tolist()) for i, b in enumerate(bands.bands)}
        rng = np.random.default_rng(5)
        for _ in range(50):
            z = rng.standard_normal(op.B) + 1j * rng.standard_normal(op.B)
            x_hat = np.zeros(op.B, dtype=complex)
            hot = rng.choice(op.B, size=3, replace=False)
            x_hat[hot[:2]] = rng.standard_normal() + 1j * rng.standard_normal()
            x_hat[hot[2]] = x_hat[hot[0]]     # force a shared value
            for L in (1, 2, 4):
                assert np.array_equal(bms_threshold(z, x_hat, L, bands),
                                      transcribed_band_max(z, x_hat, L, band_sets))

    def test_singleton_bands_degenerate_to_plain_thresholding(self):
        op, _, _ = make_problem(m=4, n=4, t=6, b_rx=4, b_tx=4)
        bands = coherence_bands(op, 0.5)
        rng = np.random.default_rng(6)
        for _ in range(20):
            z = rng.standard_normal(op.B) + 1j * rng.standard_normal(op.B)
            x_hat = rng.standard_normal(op.B) + 1j * rng.standard_normal(op.B)
            for L in (1, 3, 7):
                assert np.array_equal(hard_threshold(z, L), bms_threshold(z, x_hat, L, bands))

    def test_exclusion_property_around_the_argmax(self):
        # When the global argmax i shares its estimate value with its whole
        # band, at most one index of {i} union J(i) is ever selected.
        op, _, _ = make_problem(m=4, n=4, t=6, b_rx=12, b_tx=12)
        selection = select_eta(op)
        bands = coherence_bands(op, selection.eta)
        rng = np.random.default_rng(7)
        for _ in range(50):
            z = rng.standard_normal(op.B) + 1j * rng.standard_normal(op.B)
            i = int(np.argmax(np.abs(z)))
            x_hat = np.zeros(op.B, dtype=complex)
            idx = bms_threshold(z, x_hat, 4, bands)
            cluster = set(bands.bands[i].tolist())
            assert len(cluster.intersection(idx.tolist())) <= 1
            assert i in idx


class TestRestrictedMaximize:
    def test_empty_support_returns_zero(self):
        _, ctx, _ = make_problem()
        values, trace, _ = restricted_maximize(ctx, [])
        assert values.shape == (0,)
        assert trace == [h_objective(ctx, np.zeros(ctx.op.B, dtype=complex))]

    def test_gradient_norm_contract(self):
        _, ctx, _ = make_problem(l=2, rho=5.0, seed=3)
        support = [2, 17, 40]
        x = solve_full(ctx, support, inner_tol=1e-8)
        g = real_form(grad_h(ctx, x))
        sel = np.array(support)
        restricted = np.concatenate([g[sel], g[sel + ctx.op.B]])
        assert np.linalg.norm(restricted) <= 1e-8

    def test_matches_grid_search_oracle(self):
        # Single active coordinate on a tiny instance: locate the maximizer
        # with a two-stage dense grid over (Re, Im) and compare.
        op, ctx, _ = make_problem(m=2, n=2, t=3, b_rx=2, b_tx=2, rho=5.0, seed=9)
        b = 1
        col = np.kron(op.G[:, b // op.B_RX], op.A_RX[:, b % op.B_RX])
        signs = np.sqrt(2.0 * ctx.y_hat.rho) * real_form(ctx.y_hat.y_hat)

        def h_batch(values):
            u = np.outer(col, values)
            v = signs[:, None] * np.concatenate([u.real, u.imag], axis=0)
            return special.log_ndtr(v).sum(axis=0) - np.abs(values) ** 2

        grid = np.arange(-3.0, 3.0 + 1e-12, 0.02)
        flat = (grid[:, None] + 1j * grid[None, :]).ravel()
        best = flat[np.argmax(h_batch(flat))]
        fine_re = np.arange(best.real - 0.04, best.real + 0.04, 5e-4)
        fine_im = np.arange(best.imag - 0.04, best.imag + 0.04, 5e-4)
        flat = (fine_re[:, None] + 1j * fine_im[None, :]).ravel()
        best = flat[np.argmax(h_batch(flat))]

        values, _, _ = restricted_maximize(ctx, [b])
        assert abs(values[0] - best) <= 1e-3

    def test_trace_is_nondecreasing(self):
        _, ctx, _ = make_problem(l=2, rho=10.0, seed=4)
        _, trace, _ = restricted_maximize(ctx, [3, 30, 61])
        diffs = np.diff(trace)
        assert np.all(diffs >= -1e-9)

    def test_unique_maximizer_from_any_start(self):
        _, ctx, _ = make_problem(l=2, rho=2.0, seed=5)
        support = [7, 23]
        x1, _, _ = restricted_maximize(ctx, support)
        x2, _, _ = restricted_maximize(ctx, support, x0=np.array([3 - 2j, -1 + 4j]))
        assert np.max(np.abs(x1 - x2)) < 1e-6

    def test_rejects_x0_not_matching_a_sorted_support(self):
        # support must name each index once, in order, with or without x0,
        # which holds the start's values there; the check costs O(|support|),
        # not O(B).
        _, ctx, _ = make_problem()
        for support, x0 in (([2, 1], [1.0, 0.0]),            # unsorted
                            ([1, 1, 2], [1.0, 1.0, 0.0]),    # repeated
                            ([1, 2], [0.0, 0.0, 1.0])):      # a value off the support
            with pytest.raises(ValueError):
                restricted_maximize(ctx, support, x0=np.array(x0, dtype=complex))
        for support in ([2, 1], [1, 1, 2]):
            with pytest.raises(ValueError, match="sorted"):
                restricted_maximize(ctx, support)

    def test_rejects_a_non_integer_support(self):
        # A support of floats is not truncated to the columns below it: the
        # operator's integer check refuses it.
        ctx = make_ctx(3, 10.0)
        with pytest.raises(ValueError, match="integers"):
            restricted_maximize(ctx, [1.5, 2.7])
        with pytest.raises(ValueError, match="integers"):
            restricted_maximize(ctx, [1.5, 2.7], x0=np.zeros(2, dtype=complex))

    def test_iteration_cap_carries_best_iterate(self, monkeypatch):
        # The best iterate comes back as values at the support, as the
        # maximizer does.
        _, ctx, _ = make_problem(l=2, rho=10.0, seed=6)
        monkeypatch.setattr(solvers_module, "NEWTON_MAX_ITERS", 1)
        with pytest.raises(ConvergenceError, match=r"in 1 Newton iterations \(hit the") as err:
            restricted_maximize(ctx, [1, 2, 3])
        best = err.value.best
        assert best is not None and best.shape == (3,)
        assert err.value.grad_norm > 0

    def test_stall_reports_the_iterations_taken(self, monkeypatch):
        # With -I for the negative Hessian, the first Newton direction
        # descends, so the solve stalls before taking a step.
        _, ctx, _ = make_problem(l=2, rho=10.0, seed=6)
        monkeypatch.setattr(solvers_module, "_neg_hessian",
                            lambda factors, curv, penalty_curv: -np.eye(2 * 3))
        with pytest.raises(ConvergenceError, match=r"in 0 Newton iterations \(stalled") as err:
            restricted_maximize(ctx, [1, 2, 3])
        assert str(solvers_module.NEWTON_MAX_ITERS) not in str(err.value)
        assert np.array_equal(err.value.best, np.zeros(3))


class _Spy:
    """Records supports passed to restricted_maximize."""

    def __init__(self):
        self.calls = []
        self.original = solvers_module.restricted_maximize

    def __call__(self, ctx, support, **kwargs):
        self.calls.append(np.asarray(sorted(int(s) for s in support)))
        return self.original(ctx, support, **kwargs)


class TestGrasp:
    def test_support_never_exceeds_sparsity(self):
        _, ctx, _ = make_problem(l=2, rho=10.0, seed=11)
        report = run_grasp(ctx, SolverConfig(sparsity=2), use_bms=True)
        assert report.estimate.support.size <= 2
        assert np.all(np.isin(np.nonzero(report.estimate.x_hat)[0],
                              report.estimate.support))

    def test_budget_discipline(self, monkeypatch):
        spy = _Spy()
        monkeypatch.setattr(solvers_module, "restricted_maximize", spy)
        _, ctx, _ = make_problem(l=3, rho=10.0, seed=12, b_rx=16, b_tx=16)
        run_grasp(ctx, SolverConfig(sparsity=3, debias=True), use_bms=True)
        assert spy.calls
        assert all(c.size <= 9 for c in spy.calls)

    def test_single_path_support_recovery(self):
        hits = 0
        for seed in range(100):
            op, ctx, truth = make_problem(rho=100.0, seed=seed)
            report = run_grasp(ctx, SolverConfig(sparsity=1), use_bms=True)
            hits += np.array_equal(report.estimate.support, truth)
        assert hits >= 90

    def test_halting_is_idempotent(self):
        from onebitcs.solvers import _grasp_step

        checked = 0
        for seed in range(20):
            if checked >= 10:
                break
            _, ctx, _ = make_problem(l=2, rho=5.0, seed=seed, on_grid=False)
            config = SolverConfig(sparsity=2)
            report = run_grasp(ctx, config, use_bms=True)
            if report.halted_by != "support-fixed":
                continue
            checked += 1
            bands = ctx.op.bands_at(config.eta)
            x_hat = report.estimate.x_hat
            again, *_ = _grasp_step(ctx, config, x_hat, report.estimate.support,
                                    likelihood(ctx, ctx.op.apply(x_hat)), bands)
            assert np.array_equal(np.sort(np.nonzero(again)[0]),
                                  report.estimate.support)
        assert checked == 10

    def test_bit_identical_reports_across_runs(self):
        _, ctx, _ = make_problem(l=2, rho=10.0, seed=13)
        config = SolverConfig(sparsity=2, debias=True)
        a = run_grasp(ctx, config, use_bms=True)
        b = run_grasp(ctx, config, use_bms=True)
        assert np.array_equal(a.estimate.x_hat, b.estimate.x_hat)
        assert a.objective_trace == b.objective_trace
        assert a.halted_by == b.halted_by and a.iterations == b.iterations

    def test_debias_reaches_at_least_plain_objective(self):
        _, ctx, _ = make_problem(l=2, rho=10.0, seed=14)
        plain = run_grasp(ctx, SolverConfig(sparsity=2), use_bms=True)
        debias = run_grasp(ctx, SolverConfig(sparsity=2, debias=True), use_bms=True)
        assert (h_objective(ctx, debias.estimate.x_hat)
                >= h_objective(ctx, plain.estimate.x_hat) - 1e-9)

    def test_never_applies_the_operator(self, monkeypatch):
        # The gradient images the iterate through its support; only the
        # adjoint runs over all B entries.
        _, ctx, _ = make_problem(l=2, rho=10.0, seed=21, b_rx=16, b_tx=16, on_grid=False)
        configs = [(SolverConfig(sparsity=2, debias=debias), use_bms)
                   for debias in (False, True) for use_bms in (False, True)]
        want = [run_grasp(ctx, config, use_bms) for config, use_bms in configs]

        def no_apply(self, x):
            raise AssertionError("run_grasp applied the operator")

        monkeypatch.setattr(SensingOperator, "apply", no_apply)
        for (config, use_bms), report in zip(configs, want):
            got = run_grasp(ctx, config, use_bms)
            assert np.array_equal(got.estimate.x_hat, report.estimate.x_hat)

    @pytest.mark.parametrize("failing_solve", [1, 2])
    def test_failed_step_hands_back_its_start(self, monkeypatch, failing_solve):
        # GraSP without debiasing solves once per iteration, on the merged
        # support.  When that solve fails, the error carries the iterate the
        # step started from (zeros in the first iteration, the first iterate
        # in the second), with at most L nonzeros, not the merged solve's
        # values.
        _, ctx, _ = make_problem(l=2, rho=10.0, seed=11)
        config = SolverConfig(sparsity=2)
        start = np.zeros(ctx.op.B, dtype=complex)
        if failing_solve == 2:
            first = run_grasp(ctx, SolverConfig(sparsity=2, max_outer_iters=1), use_bms=True)
            start = first.estimate.x_hat
        real_solve = solvers_module.restricted_maximize
        supports = []

        def solve(ctx, support, **kwargs):
            supports.append(support)
            if len(supports) == failing_solve:
                monkeypatch.setattr(solvers_module, "NEWTON_MAX_ITERS", 1)
            return real_solve(ctx, support, **kwargs)

        monkeypatch.setattr(solvers_module, "restricted_maximize", solve)
        with pytest.raises(ConvergenceError, match="restricted maximize") as err:
            run_grasp(ctx, config, use_bms=True)
        assert len(supports) == failing_solve and supports[-1].size > config.sparsity
        assert np.array_equal(err.value.best, start)
        assert np.count_nonzero(err.value.best) == (0 if failing_solve == 1 else 2)
        assert err.value.grad_norm > 0

    def test_valid_halt_reasons(self):
        _, ctx, _ = make_problem(l=2, rho=1.0, seed=15, on_grid=False)
        report = run_grasp(ctx, SolverConfig(sparsity=2, max_outer_iters=3), use_bms=False)
        assert report.halted_by in ("support-fixed", "max-iters", "cycle")
        assert report.iterations <= 3
        assert len(report.objective_trace) == report.iterations


class TestGrahtp:
    def test_plain_support_budget_is_exact(self, monkeypatch):
        spy = _Spy()
        monkeypatch.setattr(solvers_module, "restricted_maximize", spy)
        _, ctx, _ = make_problem(l=2, rho=10.0, seed=16)
        run_grahtp(ctx, SolverConfig(sparsity=2), use_bms=False)
        assert spy.calls and all(c.size == 2 for c in spy.calls)

    def test_bms_support_budget_is_bounded(self, monkeypatch):
        spy = _Spy()
        monkeypatch.setattr(solvers_module, "restricted_maximize", spy)
        _, ctx, _ = make_problem(l=2, rho=10.0, seed=17, b_rx=16, b_tx=16)
        run_grahtp(ctx, SolverConfig(sparsity=2), use_bms=True)
        assert spy.calls and all(c.size <= 2 for c in spy.calls)

    def test_single_path_support_recovery(self):
        hits = 0
        for seed in range(100):
            op, ctx, truth = make_problem(rho=100.0, seed=seed)
            report = run_grahtp(ctx, SolverConfig(sparsity=1), use_bms=True)
            hits += np.array_equal(report.estimate.support, truth)
        assert hits >= 90

    def test_objective_flat_once_support_fixed(self):
        for seed in range(6):
            _, ctx, _ = make_problem(l=2, rho=5.0, seed=seed, on_grid=False)
            report = run_grahtp(ctx, SolverConfig(sparsity=2), use_bms=True)
            if report.halted_by == "support-fixed" and len(report.objective_trace) >= 2:
                assert report.objective_trace[-1] >= report.objective_trace[-2] - 1e-9

    def test_determinism(self):
        _, ctx, _ = make_problem(l=2, rho=10.0, seed=18)
        a = run_grahtp(ctx, SolverConfig(sparsity=2), use_bms=True)
        b = run_grahtp(ctx, SolverConfig(sparsity=2), use_bms=True)
        assert np.array_equal(a.estimate.x_hat, b.estimate.x_hat)


class TestBudgetErrors:
    @pytest.mark.parametrize("runner", [run_grasp, run_grahtp])
    def test_oversized_threshold_raises(self, monkeypatch, runner):
        # A thresholder that overshoots the step's budget is an error, not
        # an assertion that vanishes under python -O.
        monkeypatch.setattr(solvers_module, "_threshold",
                            lambda z, x, budget, *args, **kwargs: np.arange(3 * budget + 1))
        _, ctx, _ = make_problem(l=2, rho=10.0, seed=19)
        with pytest.raises(CapacityError):
            runner(ctx, SolverConfig(sparsity=2), use_bms=True)


class TestBmsVersusPlain:
    def test_identical_supports_with_orthonormal_factors(self):
        # Singleton bands: the band-maximum filter never rejects anything.
        for seed in range(20):
            _, ctx, _ = make_problem(m=4, n=4, t=6, b_rx=4, b_tx=4, l=2,
                                     rho=10.0, seed=seed, on_grid=False)
            config = SolverConfig(sparsity=2, eta=0.5)
            bms = run_grasp(ctx, config, use_bms=True)
            plain = run_grasp(ctx, config, use_bms=False)
            assert np.array_equal(bms.estimate.support, plain.estimate.support)


class TestFista:
    def test_soft_threshold_prox(self):
        out = _soft_threshold(np.array([0.5 * np.exp(0.3j)]), 0.7)
        assert out[0] == 0.0
        out = _soft_threshold(np.array([2.0 * np.exp(0.3j)]), 0.5)
        assert abs(abs(out[0]) - 1.5) < 1e-12
        assert abs(np.angle(out[0]) - 0.3) < 1e-12

    def test_soft_threshold_matches_masked_form(self):
        # The masked form it replaced, kept as the reference: same bits on
        # the entries it keeps, zero on the others, ties at |v| == tau too.
        def masked(v, tau):
            mag = np.abs(v)
            out = np.zeros_like(v)
            keep = mag > tau
            out[keep] = v[keep] * (1.0 - tau / mag[keep])
            return out

        rng = np.random.default_rng(31)
        for tau in (1e-12, 0.3, 1.0, 5.0):
            v = rng.standard_normal(200) + 1j * rng.standard_normal(200)
            v[::7] = 0.0
            v[1::7] = tau * np.exp(1j * rng.uniform(0, 2 * np.pi, v[1::7].size))
            assert np.array_equal(_soft_threshold(v, tau), masked(v, tau))

    def test_large_gamma_returns_zero(self):
        _, ctx, _ = make_problem(l=2, rho=5.0, seed=20)
        g0 = grad_h(ctx, np.zeros(ctx.op.B, dtype=complex))
        gamma = 1.01 * float(np.max(np.abs(g0)))
        est = run_fista(ctx, gamma).estimate
        assert np.all(est.x_hat == 0)
        assert est.support.size == 0

    def test_objective_trace_is_nondecreasing(self):
        _, ctx, _ = make_problem(l=2, rho=5.0, seed=21)
        trace = run_fista(ctx, gamma=5.0).objective_trace
        assert np.all(np.diff(trace) >= -1e-9)

    def test_report_says_why_it_stopped(self):
        _, ctx, _ = make_problem(l=2, rho=5.0, seed=21)
        report = run_fista(ctx, gamma=5.0)
        assert report.halted_by == "converged"
        assert report.iterations == len(report.objective_trace) - 1 < 500
        capped = run_fista(ctx, gamma=5.0, max_iters=3)
        assert (capped.halted_by, capped.iterations) == ("max-iters", 3)
        assert len(capped.objective_trace) == 4

    def test_desk_solves_stop_before_the_cap(self):
        # Desk scale at 10 dB and the gamma criterion 8 tunes there (54.2):
        # each solve must reach FISTA_TOL, not the 500-iteration cap, or
        # the FISTA rows are not the l1 estimates they stand for.
        tr = zc_training(16, 20)
        op = build_operator(tr.S, dft_dictionary(16, 64), dft_dictionary(16, 64))
        iterations = []
        for seed in range(6):
            rng = np.random.default_rng(900 + seed)
            meas = synthesize_measurement(draw_channel(2, 16, 16, rng).H, tr.S, 10.0, rng)
            iterations.append(run_fista(ObjectiveContext(op, meas), gamma=54.2).iterations)
        assert max(iterations) < 500
        # Step growth and momentum restart together take 42-87 iterations
        # here; growth alone takes up to 206 and restart alone up to 261.
        assert max(iterations) < 150

    def test_support_matches_eps_threshold(self):
        _, ctx, _ = make_problem(l=2, rho=10.0, seed=22)
        est = run_fista(ctx, gamma=3.0).estimate
        nz = np.nonzero(est.x_hat)[0]
        assert np.array_equal(nz, est.support)
        assert np.all(np.abs(est.x_hat[nz]) > 1e-8)

    def test_rejects_bad_gamma(self):
        _, ctx, _ = make_problem()
        with pytest.raises(ValueError):
            run_fista(ctx, gamma=0.0)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf])
    def test_rejects_non_finite_gamma(self, gamma):
        _, ctx, _ = make_problem()
        with pytest.raises(ValueError, match="positive and finite"):
            run_fista(ctx, gamma=gamma)


class TestTuneGamma:
    def test_reaches_target_window(self):
        op, _, _ = make_problem(m=4, n=4, t=6, b_rx=8, b_tx=8)
        tr = zc_training(4, 6)

        def make_ctx(k):
            rng = np.random.default_rng(500 + k)
            ch = draw_channel(1, 4, 4, rng)
            meas = synthesize_measurement(ch.H, tr.S, 10.0, rng)
            return ObjectiveContext(op, meas)

        gamma, mean = tune_gamma([make_ctx(k) for k in range(4)], 1)
        assert 2.0 <= mean <= 4.0
        repeat = tune_gamma([make_ctx(k) for k in range(4)], 1)
        assert repeat == (gamma, mean)

    def test_empty_problem_list_raises(self):
        with pytest.raises(ValueError, match="at least one problem"):
            tune_gamma([], 1)

    def test_bracket_failure_raises(self):
        for L, rho, reason in [
            (22, 10.0, r"\[65, 67\] lies above the problems' mean B = 64$"),
            (1, 0.0, "vanishes"),      # no signal: the gradient at 0 is zero
        ]:
            _, ctx, _ = make_problem(m=4, n=4, t=6, b_rx=8, b_tx=8, rho=rho)
            with pytest.raises(TuningError, match=reason):
                tune_gamma([ctx], L)


class TestBruteForce:
    def tiny_instance(self, seed):
        return make_problem(m=4, n=2, t=4, b_rx=4, b_tx=2, rho=10.0, seed=seed)

    def test_matches_direct_enumeration(self):
        _, ctx, _ = self.tiny_instance(30)
        report = brute_force_map(ctx, 1)
        oracle = report.estimate
        values = []
        for b in range(ctx.op.B):
            values.append(h_objective(ctx, solve_full(ctx, [b])))
        assert np.array_equal(oracle.support, [int(np.argmax(values))])
        assert abs(h_objective(ctx, oracle.x_hat) - max(values)) < 1e-12
        assert (report.iterations, report.halted_by) == (1, "enumerated")
        assert len(report.objective_trace) == 1
        assert abs(report.objective_trace[0] - max(values)) <= 1e-12 * abs(max(values))

    @pytest.mark.parametrize("failing", ["first", "after-best"])
    def test_failed_support_hands_back_the_best_so_far(self, monkeypatch, failing):
        _, ctx, _ = self.tiny_instance(30)
        oracle = brute_force_map(ctx, 1).estimate
        best = int(oracle.support[0])
        assert best < ctx.op.B - 1
        if failing == "first":
            fail_at, want = 0, np.zeros(ctx.op.B, dtype=complex)
        else:
            fail_at, want = best + 1, oracle.x_hat
        real_solve = solvers_module.restricted_maximize

        def solve(ctx, support, *args, **kwargs):
            if tuple(support) == (fail_at,):
                raise ConvergenceError("forced", best=np.ones(1, dtype=complex), grad_norm=1.0)
            return real_solve(ctx, support, *args, **kwargs)

        monkeypatch.setattr(solvers_module, "restricted_maximize", solve)
        with pytest.raises(ConvergenceError, match="forced") as err:
            brute_force_map(ctx, 1)
        assert np.array_equal(err.value.best, want)
        assert err.value.grad_norm == 1.0

    def test_oracle_dominates_heuristics(self):
        for seed in range(20):
            _, ctx, _ = self.tiny_instance(seed)
            best = h_objective(ctx, brute_force_map(ctx, 1).estimate.x_hat)
            for use_bms in (False, True):
                for runner in (run_grasp, run_grahtp):
                    report = runner(ctx, SolverConfig(sparsity=1), use_bms=use_bms)
                    assert best >= h_objective(ctx, report.estimate.x_hat) - 1e-9

    def test_capacity_guard(self):
        _, ctx, _ = make_problem(m=4, n=4, t=6, b_rx=16, b_tx=16)
        with pytest.raises(CapacityError):
            brute_force_map(ctx, 3)

    @pytest.mark.parametrize("nudged, shift", [((4,), 1e-14), ((0,), -1e-14)])
    def test_rounding_level_ties_keep_the_first_support(self, monkeypatch, nudged, shift):
        # Acceptance criterion 3's seed 82: supports {0} and {4} have the
        # same maximum h to 17 digits.  Moving either maximum by a
        # rounding-level amount, in the direction that would reorder them,
        # leaves the oracle's answer at the first support in enumeration.
        tr = zc_training(2, 4)
        op = build_operator(tr.S, dft_dictionary(4, 4), dft_dictionary(2, 2))
        rng = np.random.default_rng(82)
        meas = synthesize_measurement(draw_channel(1, 4, 2, rng).H, tr.S, 10.0, rng)
        ctx = ObjectiveContext(op, meas)
        h = {b: restricted_maximize(ctx, [b])[1][-1] for b in range(op.B)}
        assert abs(h[0] - h[4]) <= 1e-14 * abs(h[0])
        assert all(h[b] < h[0] - 1.0 for b in h if b not in (0, 4))
        real_solve = solvers_module.restricted_maximize

        def nudged_solve(ctx, support, *args, **kwargs):
            values, trace, terms = real_solve(ctx, support, *args, **kwargs)
            if tuple(support) == nudged:
                trace = trace[:-1] + [trace[-1] + shift]
            return values, trace, terms

        monkeypatch.setattr(solvers_module, "restricted_maximize", nudged_solve)
        assert np.array_equal(brute_force_map(ctx, 1).estimate.support, [0])

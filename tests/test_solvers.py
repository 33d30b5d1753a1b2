"""Tests for the thresholders, pursuit loops, FISTA, and the exact oracle."""

import numpy as np
import pytest
from scipy import special

import onebitcs.solvers as solvers_module
from onebitcs.errors import CapacityError, ConvergenceError, TuningError
from onebitcs.model import dft_dictionary, draw_channel, synthesize_measurement, zc_training
from onebitcs.objective import ObjectiveContext, grad_h, h_objective
from onebitcs.operator import (
    CoherenceStructure,
    build_operator,
    coherence_bands,
    real_form,
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


def make_problem(m=8, n=8, t=10, b_rx=8, b_tx=8, l=1, rho=10.0, seed=0, on_grid=True):
    """One seeded instance; on_grid places a single path exactly on the grid."""
    rng = np.random.default_rng(seed)
    tr = zc_training(n, t)
    a_rx = dft_dictionary(m, b_rx)
    a_tx = dft_dictionary(n, b_tx)
    op = build_operator(tr.S, a_rx, a_tx, "fft")
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
    idx = np.array(sorted(S), dtype=int)
    out = np.zeros_like(z)
    out[idx] = z[idx]
    return idx, out


def hand_bands(band_sets, B):
    rows = [np.array(sorted(band_sets[i]), dtype=np.intp) for i in range(B)]
    return CoherenceStructure(
        eta=0.5,
        indptr=np.concatenate([[0], np.cumsum([r.size for r in rows])]).astype(np.intp),
        indices=np.concatenate(rows),
        column_norms=np.ones(B),
    )


class TestHardThreshold:
    def test_keeps_largest(self):
        z = np.array([1.0, -4.0, 2.0, 0.5]).astype(complex)
        idx, out = hard_threshold(z, 2)
        assert np.array_equal(idx, [1, 2])
        assert np.array_equal(out, [0, -4.0, 2.0, 0])

    def test_tie_breaks_to_lowest_index(self):
        z = np.array([1.0, 1.0, 1.0]).astype(complex)
        idx, _ = hard_threshold(z, 2)
        assert np.array_equal(idx, [0, 1])


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
        idx, out = bms_threshold(z, x_hat, 2, bands)
        assert np.array_equal(idx, [0, 3])
        assert np.array_equal(out[idx], z[idx])
        ref_idx, ref_out = transcribed_band_max(z, x_hat, 2, band_sets)
        assert np.array_equal(idx, ref_idx)
        assert np.array_equal(out, ref_out)

    def test_differing_estimate_values_empty_the_byproduct_set(self):
        band_sets = {0: {0, 1}, 1: {0, 1, 2}, 2: {1, 2}, 3: {3},
                     4: {4, 5}, 5: {4, 5}, 6: {6, 7}, 7: {6, 7}}
        z = np.array([5.0, 4.0, 3.0, 2.5, 2.0, 1.0, 0.5, 0.4]).astype(complex)
        x_hat = np.zeros(8, dtype=complex)
        x_hat[1] = 1.0 + 0j
        idx, _ = bms_threshold(z, x_hat, 2, hand_bands(band_sets, 8))
        assert np.array_equal(idx, [0, 1])

    def test_ground_truth_beats_byproduct(self):
        # A by-product j in the band of the argmax i (same estimate value,
        # smaller score) is rejected while i is selected.
        band_sets = {0: {0, 1}, 1: {0, 1}, 2: {2}, 3: {3}}
        z = np.array([3.0, 2.9, 0.5, 0.1]).astype(complex)
        x_hat = np.zeros(4, dtype=complex)
        idx, _ = bms_threshold(z, x_hat, 2, hand_bands(band_sets, 4))
        assert 0 in idx and 1 not in idx

    def test_exact_score_ties_reject_both(self):
        band_sets = {0: {0, 1}, 1: {0, 1}}
        z = np.array([1.0 + 0j, 1j])          # equal magnitudes, exactly
        idx, _ = bms_threshold(z, np.zeros(2, dtype=complex), 1,
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
                got_idx, got_out = bms_threshold(z, x_hat, L, bands)
                want_idx, want_out = transcribed_band_max(z, x_hat, L, band_sets)
                assert np.array_equal(got_idx, want_idx)
                assert np.array_equal(got_out, want_out)

    def test_singleton_bands_degenerate_to_plain_thresholding(self):
        op, _, _ = make_problem(m=4, n=4, t=6, b_rx=4, b_tx=4)
        bands = coherence_bands(op, 0.5)
        rng = np.random.default_rng(6)
        for _ in range(20):
            z = rng.standard_normal(op.B) + 1j * rng.standard_normal(op.B)
            x_hat = rng.standard_normal(op.B) + 1j * rng.standard_normal(op.B)
            for L in (1, 3, 7):
                plain_idx, _ = hard_threshold(z, L)
                bms_idx, _ = bms_threshold(z, x_hat, L, bands)
                assert np.array_equal(plain_idx, bms_idx)

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
            idx, _ = bms_threshold(z, x_hat, 4, bands)
            cluster = set(bands.bands[i].tolist())
            assert len(cluster.intersection(idx.tolist())) <= 1
            assert i in idx


class TestRestrictedMaximize:
    def test_empty_support_returns_zero(self):
        _, ctx, _ = make_problem()
        x = restricted_maximize(ctx, [])
        assert np.all(x == 0)

    def test_gradient_norm_contract(self):
        _, ctx, _ = make_problem(l=2, rho=5.0, seed=3)
        support = [2, 17, 40]
        x = restricted_maximize(ctx, support, inner_tol=1e-8)
        g = real_form(grad_h(ctx, x))
        sel = np.array(support)
        restricted = np.concatenate([g[sel], g[sel + ctx.op.B]])
        assert np.linalg.norm(restricted) <= 1e-8

    def test_matches_grid_search_oracle(self):
        # Single active coordinate on a tiny instance: locate the maximizer
        # with a two-stage dense grid over (Re, Im) and compare.
        op, ctx, _ = make_problem(m=2, n=2, t=3, b_rx=2, b_tx=2, rho=5.0, seed=9)
        b = 1
        col = op.column(b)
        signs = ctx._signs

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

        x = restricted_maximize(ctx, [b])
        assert abs(x[b] - best) <= 1e-3

    def test_trace_is_nondecreasing(self):
        _, ctx, _ = make_problem(l=2, rho=10.0, seed=4)
        _, trace = restricted_maximize(ctx, [3, 30, 61], return_trace=True)
        diffs = np.diff(trace)
        assert np.all(diffs >= -1e-9)

    def test_unique_maximizer_from_any_start(self):
        op, ctx, _ = make_problem(l=2, rho=2.0, seed=5)
        support = [7, 23]
        x1 = restricted_maximize(ctx, support)
        init = np.zeros(op.B, dtype=complex)
        init[support] = [3 - 2j, -1 + 4j]
        x2 = restricted_maximize(ctx, support, init=init)
        assert np.max(np.abs(x1 - x2)) < 1e-6

    def test_rejects_init_off_support(self):
        op, ctx, _ = make_problem()
        init = np.zeros(op.B, dtype=complex)
        init[5] = 1.0
        with pytest.raises(ValueError):
            restricted_maximize(ctx, [1, 2], init=init)

    def test_iteration_cap_carries_best_iterate(self):
        op, ctx, _ = make_problem(l=2, rho=10.0, seed=6)
        with pytest.raises(ConvergenceError) as err:
            restricted_maximize(ctx, [1, 2, 3], max_iters=1)
        best = err.value.best
        assert best is not None and best.shape == (op.B,)
        assert set(np.nonzero(best)[0].tolist()) <= {1, 2, 3}


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
        from onebitcs.solvers import _grasp_step, _resolve_bands

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
            bands = _resolve_bands(ctx.op, config)
            again = _grasp_step(ctx, config, report.estimate.x_hat, bands)
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

    def test_large_gamma_returns_zero(self):
        _, ctx, _ = make_problem(l=2, rho=5.0, seed=20)
        g0 = grad_h(ctx, np.zeros(ctx.op.B, dtype=complex))
        gamma = 1.01 * float(np.max(np.abs(g0)))
        est = run_fista(ctx, gamma)
        assert np.all(est.x_hat == 0)
        assert est.support.size == 0

    def test_objective_trace_is_nondecreasing(self):
        _, ctx, _ = make_problem(l=2, rho=5.0, seed=21)
        _, trace = run_fista(ctx, gamma=5.0, return_trace=True)
        assert np.all(np.diff(trace) >= -1e-9)

    def test_support_matches_eps_threshold(self):
        _, ctx, _ = make_problem(l=2, rho=10.0, seed=22)
        est = run_fista(ctx, gamma=3.0)
        nz = np.nonzero(est.x_hat)[0]
        assert np.array_equal(nz, est.support)
        assert np.all(np.abs(est.x_hat[nz]) > 1e-8)

    def test_rejects_bad_gamma(self):
        _, ctx, _ = make_problem()
        with pytest.raises(ValueError):
            run_fista(ctx, gamma=0.0)


class TestTuneGamma:
    def test_reaches_target_window(self):
        op, _, _ = make_problem(m=4, n=4, t=6, b_rx=8, b_tx=8)
        tr = zc_training(4, 6)

        def make_ctx(k):
            rng = np.random.default_rng(500 + k)
            ch = draw_channel(1, 4, 4, rng)
            meas = synthesize_measurement(ch.H, tr.S, 10.0, rng)
            return ObjectiveContext(op, meas)

        gamma, mean = tune_gamma(make_ctx, 1, trials=4)
        assert 2.0 <= mean <= 4.0
        repeat = tune_gamma(make_ctx, 1, trials=4)
        assert repeat == (gamma, mean)

    def test_bracket_failure_raises(self):
        op, ctx, _ = make_problem(m=4, n=4, t=6, b_rx=8, b_tx=8)
        with pytest.raises(TuningError):
            tune_gamma(lambda k: ctx, 1, trials=1, lo=1e5, hi=1e6)


class TestBruteForce:
    def tiny_instance(self, seed):
        return make_problem(m=4, n=2, t=4, b_rx=4, b_tx=2, rho=10.0, seed=seed)

    def test_matches_direct_enumeration(self):
        _, ctx, _ = self.tiny_instance(30)
        oracle = brute_force_map(ctx, 1)
        values = []
        for b in range(ctx.op.B):
            x = restricted_maximize(ctx, [b])
            values.append(h_objective(ctx, x))
        assert np.array_equal(oracle.support, [int(np.argmax(values))])
        assert abs(h_objective(ctx, oracle.x_hat) - max(values)) < 1e-12

    def test_oracle_dominates_heuristics(self):
        for seed in range(20):
            _, ctx, _ = self.tiny_instance(seed)
            best = h_objective(ctx, brute_force_map(ctx, 1).x_hat)
            for use_bms in (False, True):
                for runner in (run_grasp, run_grahtp):
                    report = runner(ctx, SolverConfig(sparsity=1), use_bms=use_bms)
                    assert best >= h_objective(ctx, report.estimate.x_hat) - 1e-9

    def test_capacity_guard(self):
        _, ctx, _ = make_problem(m=4, n=4, t=6, b_rx=16, b_tx=16)
        with pytest.raises(CapacityError):
            brute_force_map(ctx, 3)

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The trend criteria (5-7, 9) share one 200-trial desk-scale sweep, executed
twice to demonstrate reproducibility.  Wall-clock runtime is the single
non-reproducible record field, so the byte-identity check zeroes the
runtime_ms column in both emissions before comparing; every other byte of
the CSV must match exactly.  Those four are marked ``slow``, so
``pytest -m "not slow"`` runs everything else in seconds.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from onebitcs.harness import (
    ExperimentConfig,
    emit_csv,
    run_experiment,
)
from onebitcs.model import dft_dictionary, draw_channel, synthesize_measurement, zc_training
from onebitcs.objective import ObjectiveContext, f_loglik, grad_h, h_objective
from onebitcs.operator import build_operator, complex_form, real_form
from onebitcs.solvers import (
    SolverConfig,
    brute_force_map,
    run_grahtp,
    run_grasp,
    tune_gamma,
)

SWEEP_CONFIG = ExperimentConfig(
    m=16, n=16, t=20, l=2, b_rx=64, b_tx=64,
    snr_db=(-10.0, 0.0, 10.0, 20.0, 30.0), trials=200, master_seed=1,
    algorithms=("bmsgrasp", "bmsgrasp-debias", "fista", "grasp"),
    b_rx_overrides={"grasp": 16}, b_tx_overrides={"grasp": 16},
)
SWEEP_WORKERS = 2


def report(criterion: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"\n[ACCEPTANCE] criterion {criterion}: {status} - {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def sweep():
    t0 = time.perf_counter()
    first = run_experiment(SWEEP_CONFIG, workers=SWEEP_WORKERS)
    first_elapsed = time.perf_counter() - t0
    second = run_experiment(SWEEP_CONFIG, workers=1)
    return {"first": first, "second": second, "elapsed": first_elapsed}


def median_nmse(records, algorithm, snr_db):
    vals = [r.nmse for r in records
            if r.algorithm == algorithm and r.snr_db == snr_db]
    assert len(vals) == SWEEP_CONFIG.trials
    return float(np.median(vals))


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    tr = zc_training(4, 8)
    op = build_operator(tr.S, dft_dictionary(4, 8), dft_dictionary(4, 8), "fft")
    worst = 0.0
    for rho in (0.1, 1.0, 10.0):
        ch = draw_channel(2, 4, 4, rng)
        meas = synthesize_measurement(ch.H, tr.S, rho, rng)
        ctx = ObjectiveContext(op, meas)
        for _ in range(20):
            x = 0.5 * (rng.standard_normal(op.B) + 1j * rng.standard_normal(op.B))
            g = real_form(grad_h(ctx, x))
            xr = real_form(x)
            fd = np.empty_like(xr)
            step = 1e-5
            for k in range(xr.size):
                e = np.zeros_like(xr)
                e[k] = step
                fd[k] = (h_objective(ctx, complex_form(xr + e))
                         - h_objective(ctx, complex_form(xr - e))) / (2 * step)
            worst = max(worst, np.linalg.norm(fd - g) / np.linalg.norm(g))
    elapsed = time.perf_counter() - t0
    report(1, worst <= 1e-5 and elapsed < 10.0,
           f"max relative gradient error {worst:.3e} (tol 1e-5), {elapsed:.1f}s")


def test_criterion_2_operator_equivalence():
    t0 = time.perf_counter()
    tr = zc_training(8, 10)
    a_rx, a_tx = dft_dictionary(8, 16), dft_dictionary(8, 16)
    op_fft = build_operator(tr.S, a_rx, a_tx, "fft")
    op_dense = build_operator(tr.S, a_rx, a_tx, "dense")
    rng = np.random.default_rng(202)
    worst_apply = worst_adjoint = worst_identity = 0.0
    for _ in range(100):
        x = rng.standard_normal(op_fft.B) + 1j * rng.standard_normal(op_fft.B)
        c = rng.standard_normal(80) + 1j * rng.standard_normal(80)
        ref = op_dense.apply(x)
        worst_apply = max(worst_apply,
                          np.linalg.norm(op_fft.apply(x) - ref) / np.linalg.norm(ref))
        ref = op_dense.apply_adjoint(c)
        worst_adjoint = max(worst_adjoint,
                            np.linalg.norm(op_fft.apply_adjoint(c) - ref) / np.linalg.norm(ref))
        lhs = np.vdot(c, op_fft.apply(x))
        rhs = np.vdot(op_fft.apply_adjoint(c), x)
        worst_identity = max(worst_identity, abs(lhs - rhs) / abs(lhs))
    elapsed = time.perf_counter() - t0
    ok = max(worst_apply, worst_adjoint, worst_identity) <= 1e-10 and elapsed < 10.0
    report(2, ok, f"apply {worst_apply:.2e}, adjoint {worst_adjoint:.2e}, "
                  f"identity {worst_identity:.2e} (tol 1e-10), {elapsed:.1f}s")


def test_criterion_3_oracle_optimality():
    t0 = time.perf_counter()
    tr = zc_training(2, 4)
    op = build_operator(tr.S, dft_dictionary(4, 4), dft_dictionary(2, 2), "fft")
    dominated = 0
    support_hits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        ch = draw_channel(1, 4, 2, rng)
        meas = synthesize_measurement(ch.H, tr.S, 10.0, rng)
        ctx = ObjectiveContext(op, meas)
        oracle = brute_force_map(ctx, 1)
        h_star = h_objective(ctx, oracle.x_hat)
        config = SolverConfig(sparsity=1)
        values = []
        for use_bms in (True, False):
            for runner in (run_grasp, run_grahtp):
                rep = runner(ctx, config, use_bms=use_bms)
                values.append(h_objective(ctx, rep.estimate.x_hat))
                if use_bms and runner is run_grasp:
                    support_hits += np.array_equal(rep.estimate.support, oracle.support)
        dominated += all(h_star >= v - 1e-9 for v in values)
    elapsed = time.perf_counter() - t0
    ok = dominated == 100 and support_hits >= 80 and elapsed < 120.0
    report(3, ok, f"oracle dominated all pursuit solvers in {dominated}/100 instances, "
                  f"support agreement {support_hits}/100 (need >= 80), {elapsed:.1f}s")


def test_criterion_4_bms_degeneracy():
    t0 = time.perf_counter()
    tr = zc_training(8, 10)
    op = build_operator(tr.S, dft_dictionary(8, 8), dft_dictionary(8, 8), "fft")
    identical = 0
    for seed in range(50):
        rng = np.random.default_rng(400 + seed)
        ch = draw_channel(2, 8, 8, rng)
        meas = synthesize_measurement(ch.H, tr.S, 10.0, rng)
        ctx = ObjectiveContext(op, meas)
        config = SolverConfig(sparsity=2, eta=0.5)   # singleton bands
        bms = run_grasp(ctx, config, use_bms=True)
        plain = run_grasp(ctx, config, use_bms=False)
        identical += np.array_equal(bms.estimate.support, plain.estimate.support)
    elapsed = time.perf_counter() - t0
    report(4, identical == 50 and elapsed < 60.0,
           f"identical supports in {identical}/50 orthonormal-dictionary instances, "
           f"{elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_5_desk_scale_trend(sweep):
    records = sweep["first"]
    details = []
    ok = True
    for snr in (10.0, 20.0):
        ours = median_nmse(records, "bmsgrasp-debias", snr)
        grasp = median_nmse(records, "grasp", snr)
        fista = median_nmse(records, "fista", snr)
        ok = ok and ours < grasp and ours < fista
        details.append(
            f"{snr:.0f}dB: bmsgrasp-debias {10*np.log10(ours):.1f} vs "
            f"grasp {10*np.log10(grasp):.1f} vs fista {10*np.log10(fista):.1f} dB"
        )
    ok = ok and sweep["elapsed"] < 1800.0
    report(5, ok, "; ".join(details) + f"; sweep {sweep['elapsed']:.0f}s")


@pytest.mark.slow
def test_criterion_6_high_snr_degradation(sweep):
    records = sweep["first"]
    medians = {snr: median_nmse(records, "bmsgrasp", snr)
               for snr in SWEEP_CONFIG.snr_db}
    best_snr = min(medians, key=medians.get)
    top = max(SWEEP_CONFIG.snr_db)
    ok = best_snr < top and medians[top] > min(medians.values())
    detail = ", ".join(f"{snr:.0f}dB: {10*np.log10(m):.1f}" for snr, m in medians.items())
    report(6, ok, f"bmsgrasp median NMSE dB by SNR: {detail}; minimum at {best_snr:.0f}dB")


@pytest.mark.slow
def test_criterion_7_numerical_stability(sweep):
    finite = all(
        np.isfinite(r.nmse) and np.isfinite(r.runtime_ms)
        for r in sweep["first"] + sweep["second"]
    )
    salvaged = sum(r.iterations < 0 for r in sweep["first"])

    # rho = 1e3 spot checks on the sweep-scale objective with large inputs
    tr = zc_training(16, 20)
    op = build_operator(tr.S, dft_dictionary(16, 64), dft_dictionary(16, 64), "fft")
    rng = np.random.default_rng(700)
    ch = draw_channel(2, 16, 16, rng)
    meas = synthesize_measurement(ch.H, tr.S, 1e3, rng)
    ctx = ObjectiveContext(op, meas)
    spot_ok = True
    for _ in range(5):
        x = rng.standard_normal(op.B) + 1j * rng.standard_normal(op.B)
        x *= 1e3 / np.linalg.norm(x)
        spot_ok = spot_ok and np.isfinite(f_loglik(ctx, x))
        spot_ok = spot_ok and bool(np.all(np.isfinite(grad_h(ctx, x))))
    report(7, finite and spot_ok,
           f"all sweep values finite ({len(sweep['first'])} rows, "
           f"{salvaged} salvaged), rho=1e3 spot checks finite")


def test_criterion_8_fista_tuning():
    t0 = time.perf_counter()
    tr = zc_training(16, 20)
    op = build_operator(tr.S, dft_dictionary(16, 64), dft_dictionary(16, 64), "fft")

    def make_ctx(k):
        rng = np.random.default_rng(800 + k)
        ch = draw_channel(2, 16, 16, rng)
        meas = synthesize_measurement(ch.H, tr.S, 10.0, rng)
        return ObjectiveContext(op, meas)

    gamma, achieved = tune_gamma(make_ctx, 2, trials=6)
    elapsed = time.perf_counter() - t0
    ok = abs(achieved - 6.0) <= 1.0 and elapsed < 600.0
    report(8, ok, f"gamma {gamma:.3g} gives mean support {achieved:.2f} "
                  f"(target 6 +- 1), {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_9_determinism(sweep, tmp_path):
    # Wall-clock runtime is not a function of the seed; zero it in both
    # emissions, then require byte identity of everything else.
    def strip(records):
        return [replace(r, runtime_ms=0.0) for r in records]

    path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(strip(sweep["first"]), path_a)
    emit_csv(strip(sweep["second"]), path_b)
    identical = path_a.read_bytes() == path_b.read_bytes()
    report(9, identical,
           f"repeated sweep CSVs byte-identical with runtime_ms zeroed "
           f"({path_a.stat().st_size} bytes, parallel vs serial execution)")

"""Quick end-to-end invariant battery behind the `selftest` CLI command.

Each check is small enough to run in a couple of seconds; the full pytest
suite remains the authoritative verification.
"""

from __future__ import annotations

import numpy as np

from .harness import ExperimentConfig, sweep_operators
from .model import draw_channel, quantize, synthesize_measurement
from .objective import ObjectiveContext, grad_h, h_objective, sign_terms
from .operator import coherence_bands, select_eta
from .solvers import bms_threshold, hard_threshold, restricted_maximize, run_grasp


def _require(condition, message: str) -> None:
    # An explicit raise, not assert, so the checks still run under python -O.
    if not condition:
        raise AssertionError(message)


def _config(b=8):
    """A sweep with M = N = 4, T = 8, L = 2 and B_rx = B_tx = b."""
    return ExperimentConfig(m=4, n=4, t=8, l=2, b_rx=b, b_tx=b, snr_db=(0.0,), trials=1)


def _operator(b=8):
    """The sweep's training and operator for _config(b)."""
    training, ops = sweep_operators(_config(b))
    return training, ops[(b, b)]


def _make_problem(rho=1.0, seed=7):
    rng = np.random.default_rng(seed)
    training, op = _operator()
    channel = draw_channel(2, 4, 4, rng)
    meas = synthesize_measurement(channel.H, training.S, rho, rng)
    return op, ObjectiveContext(op, meas), rng


def check_steering_and_quantize():
    rng = np.random.default_rng(0)
    training, _ = _operator()
    _require(np.allclose(np.abs(training.S), 1.0), "training entries are not unit-modulus")
    _require(np.allclose(training.S @ training.S.conj().T, 8 * np.eye(4), atol=1e-10),
             "training block is not orthogonal")
    Y = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    q = quantize(Y)
    _require(np.array_equal(quantize(q), q), "quantize is not idempotent")
    _require(np.array_equal(quantize(3.7 * Y), q), "quantize is not scale invariant")


def check_operator_paths():
    _, _, rng = _make_problem()
    _, factored = _operator()
    dense = np.kron(factored.G, factored.A_RX)    # the matrix A, formed only here
    for _ in range(5):
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        c = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        _require(np.allclose(factored.apply(x), dense @ x, atol=1e-10),
                 "factored apply differs from dense")
        _require(np.allclose(factored.apply_adjoint(c), dense.conj().T @ c, atol=1e-10),
                 "factored adjoint differs from dense")
        lhs = np.vdot(factored.apply(x), c)
        rhs = np.vdot(x, factored.apply_adjoint(c))
        _require(abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0), "adjoint identity fails")


def check_special_functions():
    log_cdf, lam = sign_terms(np.array([0.0]))
    _require(abs(log_cdf + np.log(2.0)) < 1e-14, "log Phi(0) != -log 2")
    _require(abs(lam[0] - np.sqrt(2 / np.pi)) < 1e-14, "lambda(0) != sqrt(2/pi)")
    log_cdf = sign_terms(np.array([-10.0]))[0]
    _require(abs(log_cdf - (-53.23128515051247)) < 1e-9, "log Phi(-10) is inaccurate")
    lam = sign_terms(np.array([-40.0]))[1]
    _require(abs(lam[0] - 40.024968847207264) < 1e-9, "lambda(-40) is inaccurate")
    # phi underflows float64 past x ~ 38.6, so probe strictness below that
    lam = sign_terms(np.linspace(-60, 38, 401))[1]
    _require(np.all(lam > 0) and np.all(np.diff(lam) < 0),
             "lambda is not positive and strictly decreasing")


def check_gradient():
    _, ctx, rng = _make_problem()
    x = (rng.standard_normal(ctx.op.B) + 1j * rng.standard_normal(ctx.op.B)) * 0.3
    # Real and imaginary part of each entry side by side: entry k of the
    # float view is coordinate k of the real parametrization.
    g = grad_h(ctx, x).view(float)
    xr = x.view(float)
    step = 1e-5
    for k in rng.choice(2 * ctx.op.B, size=6, replace=False):
        e = np.zeros_like(xr)
        e[k] = step
        fd = (h_objective(ctx, (xr + e).view(complex))
              - h_objective(ctx, (xr - e).view(complex))) / (2 * step)
        _require(abs(fd - g[k]) <= 1e-5 * max(1.0, abs(g[k])),
                 f"gradient entry {k} differs from its finite difference")


def check_band_structure():
    _, op = _operator(b=16)
    selection = select_eta(op)
    _require(selection.eta is not None and 0 < selection.eta < 1,
             f"selected eta {selection.eta} is not in (0, 1)")
    bands = coherence_bands(op, selection.eta)
    sizes = [b.size for b in bands.bands]
    _require(min(sizes) >= 2, "a band at the selected eta is a singleton")
    for i in (0, 17, 255):
        _require(i in bands.bands[i], f"column {i} is not in its own band")


def check_thresholders():
    rng = np.random.default_rng(3)
    _, op = _operator(b=4)
    bands = coherence_bands(op, 0.5)     # orthogonal columns: singleton bands
    z = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    idx_plain = hard_threshold(z, 3)
    idx_bms = bms_threshold(z, np.zeros(16, dtype=complex), 3, bands)
    _require(np.array_equal(idx_plain, idx_bms), "BMS on singleton bands differs from plain")


def check_solver_round_trip():
    op, ctx, _ = _make_problem(rho=10.0, seed=11)
    config = _config().solver_config()
    report = run_grasp(ctx, config, use_bms=True)
    support = report.estimate.support
    _require(support.size <= 2, "support exceeds the sparsity")
    values, _, _ = restricted_maximize(ctx, support, x0=report.estimate.x_hat[support])
    x = np.zeros(op.B, dtype=complex)
    x[support] = values
    g = grad_h(ctx, x)[support]
    _require(support.size == 0 or np.linalg.norm(g) <= 1e-6,
             "restricted gradient does not vanish on the support")
    repeat = run_grasp(ctx, config, use_bms=True)
    _require(np.array_equal(repeat.estimate.x_hat, report.estimate.x_hat),
             "a repeated run gives a different estimate")


CHECKS = [
    ("steering/training/quantize", check_steering_and_quantize),
    ("operator factored-vs-dense + adjoint", check_operator_paths),
    ("stable special functions", check_special_functions),
    ("gradient vs finite differences", check_gradient),
    ("eta selection and bands", check_band_structure),
    ("thresholder degeneracy", check_thresholders),
    ("pursuit determinism", check_solver_round_trip),
]


def run_selftest(out=print) -> int:
    """Run all checks; returns 0 when everything passes."""
    failures = 0
    for name, check in CHECKS:
        try:
            check()
        except Exception as err:  # noqa: BLE001 - report and continue
            failures += 1
            out(f"FAIL {name}: {err!r}")
        else:
            out(f"PASS {name}")
    return 0 if failures == 0 else 1

"""Tests of the benchmark's reference computations and checks.

Run from the repository root with ``python3 -m pytest sweepbench -q``.  Each
check is shown to reject a deliberately corrupted estimate, so a check that
could never fail would show here.
"""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from onebitcs import (  # noqa: E402
    ObjectiveContext, SolverConfig, build_operator, dft_dictionary, draw_channel,
    run_fista, run_grahtp, synthesize_measurement, zc_training,
)
from onebitcs.harness import nmse as program_nmse, reconstruct_channel  # noqa: E402

import reference  # noqa: E402
from reference import CapturedRow, ReferenceOperator  # noqa: E402

M, N, T, L, B_RX, B_TX = 4, 3, 5, 2, 8, 6


def random_training(rng):
    return rng.standard_normal((N, T)) + 1j * rng.standard_normal((N, T))


def test_reference_operator_equals_explicit_kron_matrix():
    rng = np.random.default_rng(0)
    S = random_training(rng)
    op = ReferenceOperator(S, M, B_RX, B_TX)
    A = np.kron(S.T @ op.A_TX.conj(), op.A_RX)
    assert A.shape == (M * T, B_RX * B_TX)
    x = rng.standard_normal(B_RX * B_TX) + 1j * rng.standard_normal(B_RX * B_TX)
    c = rng.standard_normal(M * T) + 1j * rng.standard_normal(M * T)
    np.testing.assert_allclose(op.apply(x), A @ x, rtol=0, atol=1e-12)
    np.testing.assert_allclose(op.adjoint(c), A.conj().T @ c, rtol=0, atol=1e-12)


def test_steering_dictionary_columns_are_steering_vectors():
    D = reference.steering_dictionary(M, B_RX)
    for b in range(B_RX):
        angle = np.arcsin(-1.0 + (2 * b + 1) / B_RX)
        expected = np.exp(-1j * np.pi * np.arange(M) * np.sin(angle)) / np.sqrt(M)
        np.testing.assert_allclose(D[:, b], expected, rtol=0, atol=1e-15)
    np.testing.assert_allclose(np.linalg.norm(D, axis=0), 1.0, atol=1e-15)


def test_channel_rebuilt_from_paths_equals_program_channel():
    channel = draw_channel(3, M, N, np.random.default_rng(4))
    H = reference.channel_matrix(channel.gains, channel.aoas, channel.aods, M, N)
    np.testing.assert_allclose(H, channel.H, rtol=0, atol=1e-13)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    op = ReferenceOperator(random_training(rng), M, B_RX, B_TX)
    y_hat = np.sign(rng.standard_normal(M * T)) + 1j * np.sign(rng.standard_normal(M * T))
    rho = 3.0
    x = 0.3 * (rng.standard_normal(B_RX * B_TX) + 1j * rng.standard_normal(B_RX * B_TX))

    def h(z):
        return reference.loglik(op, y_hat, rho, z) - float(np.vdot(z, z).real)

    g = reference.gradient(op, y_hat, rho, x)
    step = 1e-6
    for b in (0, 7, 20, B_RX * B_TX - 1):
        e = np.zeros_like(x)
        e[b] = step
        d_re = (h(x + e) - h(x - e)) / (2 * step)
        d_im = (h(x + 1j * e) - h(x - 1j * e)) / (2 * step)
        assert abs(d_re - g[b].real) < 1e-5 * (1 + abs(d_re))
        assert abs(d_im - g[b].imag) < 1e-5 * (1 + abs(d_im))


def test_program_operator_agrees_with_reference():
    training = zc_training(N, T)
    op = ReferenceOperator(training.S, M, B_RX, B_TX)
    program_op = build_operator(training.S, dft_dictionary(M, B_RX), dft_dictionary(N, B_TX))
    assert reference.operator_mismatch(program_op, op, np.random.default_rng(2)) < 1e-12


class _Scaled:
    """A program operator with a deliberate error in its forward map."""

    def __init__(self, op):
        self.op = op

    def apply(self, x):
        return 1.001 * self.op.apply(x)

    def apply_adjoint(self, c):
        return self.op.apply_adjoint(c)


def test_operator_check_rejects_a_wrong_operator():
    training = zc_training(N, T)
    op = ReferenceOperator(training.S, M, B_RX, B_TX)
    program_op = _Scaled(build_operator(training.S, dft_dictionary(M, B_RX),
                                        dft_dictionary(N, B_TX)))
    assert reference.operator_mismatch(program_op, op, np.random.default_rng(2)) > 1e-4


@pytest.fixture(scope="module")
def problem():
    """A small problem solved by the program, as the benchmark captures it."""
    rng = np.random.default_rng(3)
    training = zc_training(N, T)
    program_op = build_operator(training.S, dft_dictionary(M, B_RX), dft_dictionary(N, B_TX))
    channel = draw_channel(L, M, N, rng)
    meas = synthesize_measurement(channel.H, training.S, 10.0, rng)
    ctx = ObjectiveContext(program_op, meas)
    return {
        "ctx": ctx, "H": channel.H, "meas": meas, "program_op": program_op,
        "op": ReferenceOperator(training.S, M, B_RX, B_TX),
    }


def captured(problem, algorithm, x, support, gamma=None):
    x_support = x[support]
    return CapturedRow(
        algorithm=algorithm, snr_db=10.0, trial=0,
        nmse=program_nmse(reconstruct_channel(problem["program_op"], x), problem["H"]),
        iterations=1, dims=(B_RX, B_TX), H=problem["H"], y_hat=problem["meas"].y_hat,
        rho=problem["meas"].rho, support=np.asarray(support), values=x_support, gamma=gamma,
    )


@pytest.fixture(scope="module")
def grahtp_row(problem):
    report = run_grahtp(problem["ctx"], SolverConfig(sparsity=L), use_bms=False)
    x = report.estimate.x_hat
    return captured(problem, "grahtp", x, report.estimate.support)


@pytest.fixture(scope="module")
def fista_row(problem):
    estimate = run_fista(problem["ctx"], gamma=0.5)
    return captured(problem, "fista", estimate.x_hat, estimate.support, gamma=0.5)


def test_program_rows_pass(problem, grahtp_row, fista_row):
    assert reference.check_row(grahtp_row, problem["op"], L) == []
    assert reference.check_row(fista_row, problem["op"], L) == []


def test_nmse_check_rejects_a_wrong_nmse(problem, grahtp_row):
    row = replace(grahtp_row, nmse=grahtp_row.nmse * (1 + 1e-6))
    assert any("recomputed" in p for p in reference.check_row(row, problem["op"], L))


def test_support_check_rejects_too_many_entries(problem, grahtp_row):
    support = np.arange(L + 1)
    x = np.zeros(B_RX * B_TX, dtype=complex)
    x[support] = 0.1
    row = captured(problem, "grasp", x, support)
    assert [p for p in reference.check_row(row, problem["op"], L)] == [
        f"|support| = {L + 1} > L = {L}"]


def test_gradient_check_rejects_an_unsolved_estimate(problem, grahtp_row):
    x = grahtp_row.dense_estimate()
    x[grahtp_row.support] *= 1.01
    row = captured(problem, "grahtp", x, grahtp_row.support)
    problems = reference.check_row(row, problem["op"], L)
    assert len(problems) == 1 and "restricted gradient" in problems[0]


def test_fista_check_rejects_an_estimate_worse_than_zero(problem, fista_row):
    x = np.full(B_RX * B_TX, 3.0 + 3.0j)
    row = captured(problem, "fista", x, np.arange(B_RX * B_TX), gamma=fista_row.gamma)
    problems = reference.check_row(row, problem["op"], L)
    assert len(problems) == 1 and "below its value" in problems[0]


def _rows(values):
    return [CapturedRow(algorithm=a, snr_db=s, trial=k, nmse=v, iterations=1, dims=(1, 1),
                        H=None, y_hat=None, rho=1.0, support=None, values=None, gamma=None)
            for (a, s), vs in values.items() for k, v in enumerate(vs)]


def test_bms_property_rejects_a_plain_pursuit_that_wins():
    good = {("bmsgrasp", 10.0): [0.1, 0.2, 0.3], ("grasp", 10.0): [0.4, 0.5, 0.6]}
    assert reference.check_properties(_rows(good), bms_snrs=(10.0,)) == [
        "no rows to compare bmsgrasp-debias with grasp at 10.0 dB",
        "no rows to compare bmsgrahtp with grahtp at 10.0 dB"]
    bad = {("bmsgrasp", 10.0): [0.5, 0.6, 0.7], ("grasp", 10.0): [0.4, 0.5, 0.6]}
    assert any("bmsgrasp median" in p
               for p in reference.check_properties(_rows(bad), bms_snrs=(10.0,)))


def test_below_0db_property_rejects_a_median_at_or_above_one():
    assert reference.check_properties(
        _rows({("fista", 10.0): [0.5, 0.9, 2.0], ("fista", -10.0): [3.0]}), below_0db=True) == []
    assert reference.check_properties(
        _rows({("fista", 10.0): [0.5, 1.0, 2.0]}), below_0db=True) == [
        "fista median NMSE 1 not below 0 dB at 10.0 dB"]

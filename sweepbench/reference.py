"""Reference computations and output checks, written apart from onebitcs.

Nothing here imports the program.  The dictionaries come from the
steering-vector definition, the operator is the two-factor product
``A x = vec(A_RX X G^T)`` with ``G = S^T conj(A_TX)``, and the penalized
sign likelihood and its gradient are evaluated with scipy's ``log_ndtr`` and
``erfcx``.  The checks take the channels and estimates captured at the solver
entry points and judge each result row without the code that produced it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

# Relative agreement demanded of a recomputed NMSE.
NMSE_RTOL = 1e-8
# The program stops its restricted Newton solve at a real-form gradient norm
# of inner_tol = 1e-8; recomputing through another operator path adds
# rounding of order 1e-12 at 30 dB, so 1e-6 separates "solved" from
# "not solved" with room on both sides.
GRAD_TOL = 1e-6
# Slack for the FISTA objective comparison, relative to |f(0)|.
FISTA_RTOL = 1e-9
# Largest relative difference tolerated between the program's operator and
# the reference one on random vectors.
OPERATOR_RTOL = 1e-10

PURSUITS = ("bmsgrasp", "bmsgrasp-debias", "bmsgrahtp", "grasp", "grahtp")
# Pursuits whose last step is a restricted maximization over the returned
# support, so the gradient vanishes there.
STATIONARY = ("bmsgrasp-debias", "bmsgrahtp", "grahtp")
# Each band-maximum variant against the plain pursuit it extends.
BMS_PAIRS = (("bmsgrasp", "grasp"), ("bmsgrasp-debias", "grasp"), ("bmsgrahtp", "grahtp"))


def steering_vector(angle: float, num_antennas: int) -> np.ndarray:
    """Unit-norm half-wavelength ULA response, entries exp(-j pi k sin angle) / sqrt(m)."""
    return np.exp(-1j * np.pi * np.arange(num_antennas) * np.sin(angle)) / np.sqrt(num_antennas)


def steering_dictionary(num_antennas: int, num_bins: int) -> np.ndarray:
    """Unit-norm ULA steering vectors a(theta_b) with entries exp(-j pi k sin theta_b).

    The angles sit on the bin centres of the sine domain [-1, 1):
    sin theta_b = -1 + (2 b + 1) / num_bins.
    """
    theta = np.arcsin(-1.0 + (2.0 * np.arange(num_bins) + 1.0) / num_bins)
    return np.stack([steering_vector(t, num_antennas) for t in theta], axis=1)


def channel_matrix(gains, aoas, aods, m: int, n: int) -> np.ndarray:
    """H = sum_l gains[l] a_rx(aoas[l]) a_tx(aods[l])^H for ULAs of m and n antennas."""
    H = np.zeros((m, n), dtype=complex)
    for g, aoa, aod in zip(gains, aoas, aods):
        H += g * np.outer(steering_vector(aoa, m), steering_vector(aod, n).conj())
    return H


class ReferenceOperator:
    """A = G kron A_RX applied as A x = vec(A_RX X G^T), A^H c = vec(A_RX^H C conj(G))."""

    def __init__(self, S: np.ndarray, m: int, b_rx: int, b_tx: int):
        n, self.t = S.shape
        self.m, self.b_rx, self.b_tx = m, b_rx, b_tx
        self.A_RX = steering_dictionary(m, b_rx)
        self.A_TX = steering_dictionary(n, b_tx)
        self.G = S.T @ self.A_TX.conj()

    def apply(self, x: np.ndarray) -> np.ndarray:
        X = x.reshape(self.b_rx, self.b_tx, order="F")
        return (self.A_RX @ X @ self.G.T).reshape(-1, order="F")

    def adjoint(self, c: np.ndarray) -> np.ndarray:
        C = c.reshape(self.m, self.t, order="F")
        return (self.A_RX.conj().T @ C @ self.G.conj()).reshape(-1, order="F")

    def channel(self, x: np.ndarray) -> np.ndarray:
        """H = A_RX X A_TX^H, the channel a virtual-channel vector stands for."""
        X = x.reshape(self.b_rx, self.b_tx, order="F")
        return self.A_RX @ X @ self.A_TX.conj().T


def _real(z: np.ndarray) -> np.ndarray:
    return np.concatenate([z.real, z.imag])


def _scaled_signs(y_hat: np.ndarray, rho: float) -> np.ndarray:
    return np.sqrt(2.0 * rho) * _real(y_hat)


def loglik(op: ReferenceOperator, y_hat, rho, x) -> float:
    """f(x) = sum log Phi(s * Re-form(A x)) with s = sqrt(2 rho) * Re-form(y_hat)."""
    return float(np.sum(special.log_ndtr(_scaled_signs(y_hat, rho) * _real(op.apply(x)))))


def gradient(op: ReferenceOperator, y_hat, rho, x) -> np.ndarray:
    """Gradient of f(x) - ||x||^2 in complex storage (real part, imaginary part).

    The inverse Mills ratio phi(v) / Phi(v) is sqrt(2/pi) / erfcx(-v / sqrt 2)
    on the whole real line.
    """
    s = _scaled_signs(y_hat, rho)
    v = s * _real(op.apply(x))
    w = np.sqrt(2.0 / np.pi) / special.erfcx(-v / np.sqrt(2.0)) * s
    half = w.shape[0] // 2
    return op.adjoint(w[:half] + 1j * w[half:]) - 2.0 * x


def nmse(H_hat: np.ndarray, H: np.ndarray) -> float:
    return float(np.sum(np.abs(H_hat - H) ** 2) / np.sum(np.abs(H) ** 2))


@dataclass
class CapturedRow:
    """One result row with the inputs and output seen at its solver entry point.

    The estimate is kept sparse (support and values) so that holding every
    row of a full-scale run costs little memory.
    """

    algorithm: str
    snr_db: float
    trial: int
    nmse: float
    iterations: int
    dims: tuple          # (B_RX, B_TX)
    H: np.ndarray        # true channel, M x N, rebuilt from its paths
    y_hat: np.ndarray    # one-bit measurement, length M T
    rho: float
    support: np.ndarray  # support reported by the solver
    values: np.ndarray   # estimate on that support
    gamma: float | None  # FISTA weight, None for pursuits

    @property
    def salvaged(self) -> bool:
        return self.iterations == -1

    def dense_estimate(self) -> np.ndarray:
        x = np.zeros(self.dims[0] * self.dims[1], dtype=complex)
        x[self.support] = self.values
        return x


def check_row(row: CapturedRow, op: ReferenceOperator, L: int) -> list[str]:
    """Problems found with one non-salvaged row; an empty list means it passed."""
    problems = []
    x = row.dense_estimate()
    recomputed = nmse(op.channel(x), row.H)
    if not abs(recomputed - row.nmse) <= NMSE_RTOL * max(recomputed, 1e-300):
        problems.append(f"nmse {row.nmse!r} but recomputed {recomputed!r}")
    if row.algorithm in PURSUITS and row.support.size > L:
        problems.append(f"|support| = {row.support.size} > L = {L}")
    if row.algorithm in STATIONARY:
        g = gradient(op, row.y_hat, row.rho, x)[row.support]
        gnorm = float(np.linalg.norm(_real(g)))
        if not gnorm <= GRAD_TOL:
            problems.append(f"restricted gradient norm {gnorm:.3e} > {GRAD_TOL:g}")
    if row.algorithm == "fista":
        at_zero = loglik(op, row.y_hat, row.rho, np.zeros_like(x))
        at_x = loglik(op, row.y_hat, row.rho, x) - row.gamma * float(np.sum(np.abs(x)))
        if not at_x >= at_zero - FISTA_RTOL * abs(at_zero):
            problems.append(f"f - gamma|x|_1 = {at_x!r} below its value {at_zero!r} at 0")
    return problems


def median_nmse(rows) -> dict:
    """Median NMSE per (algorithm, snr_db)."""
    groups: dict = {}
    for row in rows:
        groups.setdefault((row.algorithm, row.snr_db), []).append(row.nmse)
    return {key: float(np.median(vals)) for key, vals in groups.items()}


def check_properties(rows, bms_snrs=(), below_0db=False) -> list[str]:
    """Method properties of the NMSE medians.

    bms_snrs: SNR points where each band-maximum variant's median NMSE must
    be below its plain counterpart's.  below_0db: every median at SNR >= 0 dB
    must be below 0 dB (the zero estimate has NMSE exactly 1).
    """
    med = median_nmse(rows)
    problems = []
    for snr in bms_snrs:
        for bms, plain in BMS_PAIRS:
            a, b = med.get((bms, snr)), med.get((plain, snr))
            if a is None or b is None:
                problems.append(f"no rows to compare {bms} with {plain} at {snr} dB")
            elif not a < b:
                problems.append(f"{bms} median NMSE {a:.4g} not below {plain} {b:.4g} at {snr} dB")
    if below_0db:
        for (algo, snr), value in sorted(med.items()):
            if snr >= 0 and not value < 1.0:
                problems.append(f"{algo} median NMSE {value:.4g} not below 0 dB at {snr} dB")
    return problems


def operator_mismatch(program_op, op: ReferenceOperator, rng) -> float:
    """Largest relative difference between program and reference apply/adjoint."""
    worst = 0.0
    for _ in range(2):
        x = rng.standard_normal(op.b_rx * op.b_tx) + 1j * rng.standard_normal(op.b_rx * op.b_tx)
        c = rng.standard_normal(op.m * op.t) + 1j * rng.standard_normal(op.m * op.t)
        for got, want in ((program_op.apply(x), op.apply(x)),
                          (program_op.apply_adjoint(c), op.adjoint(c))):
            worst = max(worst, float(np.linalg.norm(got - want) / np.linalg.norm(want)))
    return worst

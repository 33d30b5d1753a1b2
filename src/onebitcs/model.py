"""Synthetic measurement model: channels, training, noise, one-bit quantization.

The narrowband link has an N-antenna transmitter and M-antenna receiver,
both half-wavelength ULAs.  A training block S (N x T) is sent, the receiver
observes Y = sqrt(rho) * H * S + noise and keeps only the signs of the real
and imaginary parts of each sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChannelRealization",
    "TrainingSequence",
    "QuantizedMeasurement",
    "steering_vector",
    "draw_channel",
    "zc_training",
    "quantize",
    "synthesize_measurement",
    "dft_dictionary",
]


@dataclass(frozen=True)
class ChannelRealization:
    """A geometric multipath channel and its dense matrix.

    H = sum_l gains[l] * a_rx(aoas[l]) a_tx(aods[l])^H, an M x N matrix of
    rank at most L = gains.size.
    """

    gains: np.ndarray      # (L,) complex
    aoas: np.ndarray       # (L,) radians in [-pi/2, pi/2]
    aods: np.ndarray       # (L,) radians in [-pi/2, pi/2]
    H: np.ndarray          # (M, N) complex


@dataclass(frozen=True)
class TrainingSequence:
    """Constant-modulus training block built from circular shifts of one
    Zadoff-Chu root sequence.

    Every entry has unit modulus, so each length-N column of S has 2-norm
    sqrt(N).  Distinct shifts and a root coprime with T give S @ S^H = T*I.
    """

    S: np.ndarray          # (N, T) complex
    root: int
    shifts: tuple[int, ...]


@dataclass(frozen=True)
class QuantizedMeasurement:
    """Sign-quantized vectorized receive block.

    y_hat has entries in {+-1 +- 1j}; rho is the linear SNR the block was
    generated at.
    """

    y_hat: np.ndarray      # (M*T,) complex, entries in {+-1 +- 1j}
    rho: float


def steering_vector(angle: float, num_antennas: int) -> np.ndarray:
    """Unit-norm ULA steering vector at half-wavelength spacing.

    Entry k is exp(-1j*pi*k*sin(angle)) / sqrt(num_antennas).
    """
    if not math.isfinite(angle):
        raise ValueError(f"angle must be finite, got {angle!r}")
    if num_antennas < 1:
        raise ValueError(f"num_antennas must be >= 1, got {num_antennas}")
    k = np.arange(num_antennas)
    return np.exp(-1j * np.pi * k * np.sin(angle)) / np.sqrt(num_antennas)


def draw_channel(L: int, M: int, N: int, rng: np.random.Generator) -> ChannelRealization:
    """Draw an L-path channel with CN(0,1) gains and uniform AoA/AoD.

    Angles are i.i.d. uniform on [-pi/2, pi/2]; the dense matrix is the sum
    of per-path rank-1 outer products of the steering vectors.
    """
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    if M < 1 or N < 1:
        raise ValueError(f"array sizes must be >= 1, got M={M}, N={N}")
    gains = (rng.standard_normal(L) + 1j * rng.standard_normal(L)) / np.sqrt(2.0)
    aoas = rng.uniform(-np.pi / 2, np.pi / 2, L)
    aods = rng.uniform(-np.pi / 2, np.pi / 2, L)
    H = np.zeros((M, N), dtype=complex)
    for g, ar, at in zip(gains, aoas, aods):
        H += g * np.outer(steering_vector(ar, M), steering_vector(at, N).conj())
    return ChannelRealization(gains=gains, aoas=aoas, aods=aods, H=H)


def zc_training(N: int, T: int) -> TrainingSequence:
    """Build an N x T training block from circularly shifted ZC sequences.

    The root is the smallest integer greater than 1 that is coprime with T.
    The base sequence is z[n] = exp(-1j*pi*root*n^2/T) for even T and
    exp(-1j*pi*root*n*(n+1)/T) for odd T.  Row i of S is z circularly
    shifted by i, for N <= T transmit antennas.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if N > T:
        raise ValueError(f"need N <= T, got N={N}, T={T}")
    root = 2
    while math.gcd(root, T) != 1:
        root += 1

    n = np.arange(T)
    if T % 2 == 0:
        z = np.exp(-1j * np.pi * root * n * n / T)
    else:
        z = np.exp(-1j * np.pi * root * n * (n + 1) / T)
    S = np.stack([np.roll(z, s) for s in range(N)])
    return TrainingSequence(S=S, root=root, shifts=tuple(range(N)))


def quantize(Y: np.ndarray) -> np.ndarray:
    """Zero-threshold one-bit quantizer: sign(Re) + 1j*sign(Im) elementwise.

    sign(0) is defined as +1 so the map is total.
    """
    Y = np.asarray(Y)
    if not np.all(np.isfinite(Y)):
        raise ValueError("quantize requires finite entries")
    re = np.where(Y.real >= 0, 1.0, -1.0)
    im = np.where(Y.imag >= 0, 1.0, -1.0)
    return re + 1j * im


def synthesize_measurement(
    H: np.ndarray,
    S: np.ndarray,
    rho: float,
    rng: np.random.Generator,
) -> QuantizedMeasurement:
    """Simulate one training block and quantize it.

    Y = sqrt(rho) * H @ S + noise with i.i.d. CN(0,1) noise entries
    (variance 1/2 per real dimension); the result is vec(Y) column-stacked
    and sign-quantized.
    """
    H = np.asarray(H)
    S = np.asarray(S)
    if rho < 0:
        raise ValueError(f"rho must be >= 0, got {rho}")
    if H.ndim != 2 or S.ndim != 2 or H.shape[1] != S.shape[0]:
        raise ValueError(f"shape mismatch: H {H.shape} vs S {S.shape}")
    M, T = H.shape[0], S.shape[1]
    noise = (rng.standard_normal((M, T)) + 1j * rng.standard_normal((M, T))) / np.sqrt(2.0)
    Y = np.sqrt(rho) * (H @ S) + noise
    y = Y.reshape(-1, order="F")
    return QuantizedMeasurement(y_hat=quantize(y), rho=float(rho))


def dft_dictionary(num_antennas: int, num_bins: int) -> np.ndarray:
    """Steering-vector dictionary on a uniform sin(angle) grid over [-1, 1).

    Column b is steering_vector(arcsin(2b/num_bins - 1 + 1/num_bins)), so
    bin centers are spaced 2/num_bins apart in the sin domain.  With
    num_bins == num_antennas the columns are orthonormal.
    """
    if num_antennas < 1:
        raise ValueError(f"num_antennas must be >= 1, got {num_antennas}")
    if num_bins < num_antennas:
        raise ValueError(
            f"need num_bins >= num_antennas, got {num_bins} < {num_antennas}"
        )
    b = np.arange(num_bins)
    sin_grid = 2.0 * b / num_bins - 1.0 + 1.0 / num_bins
    k = np.arange(num_antennas)[:, None]
    return np.exp(-1j * np.pi * k * sin_grid[None, :]) / np.sqrt(num_antennas)

"""Kronecker-structured sensing operator and its coherence geometry.

The vectorized measurement matrix is A = S^T conj(A_TX) kron A_RX, mapping
the length-B virtual channel vector to the length-M*T receive block.  It is
never applied as a dense matrix unless explicitly requested: the factored
path evaluates

    unvec(A x)    = A_RX (S^H (A_TX X^H))^H
    unvec(A^H c)  = A_RX^H (A_TX^H (S C^H))^H

and products with dictionary factors that sit on the canonical DFT grid are
carried out with FFTs.  As a matrix, A = G kron A_RX.

Because the columns factor as a_(br,bt) = g_bt kron a_rx(br) with
g = S^T conj(A_TX), both column norms and pairwise coherences factor over
the two per-array Gram matrices; band structure over all B columns is
computed without ever forming the B x B Gram.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CapacityError, DegenerateOperatorError
from .model import dft_dictionary

__all__ = [
    "SensingOperator",
    "CoherenceStructure",
    "EtaSelection",
    "build_operator",
    "coherence_bands",
    "select_eta",
    "real_form",
    "complex_form",
    "vec",
    "unvec",
]

# Largest dense cache, in matrix entries (MT * B).
DENSE_CACHE_LIMIT = 2**26

# Coherences at or below this are treated as exact zeros when selecting eta.
ORTHO_TOL = 1e-12


def vec(X: np.ndarray) -> np.ndarray:
    """Column-major vectorization."""
    return np.asarray(X).reshape(-1, order="F")


def unvec(x: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Inverse of :func:`vec` for a rows x cols matrix."""
    return np.asarray(x).reshape(rows, cols, order="F")


def real_form(x: np.ndarray) -> np.ndarray:
    """Stack the real part over the imaginary part."""
    x = np.asarray(x)
    return np.concatenate([x.real, x.imag])


def complex_form(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`real_form`."""
    v = np.asarray(v)
    if v.shape[0] % 2 != 0:
        raise ValueError(f"real-form vector must have even length, got {v.shape[0]}")
    half = v.shape[0] // 2
    return v[:half] + 1j * v[half:]


def _is_dft_grid(factor: np.ndarray) -> bool:
    """True when `factor` equals the canonical DFT-grid dictionary."""
    m, bins = factor.shape
    if bins < m:
        return False
    return np.allclose(factor, dft_dictionary(m, bins), rtol=0.0, atol=1e-12)


class _DictProduct:
    """Multiply by one dictionary factor, with an FFT fast path.

    For a factor D (m x bins) on the canonical grid, D @ W is a truncated
    phase-twisted FFT of length `bins` and D^H @ C the matching zero-padded
    inverse transform; off-grid factors fall back to dense matmul.
    """

    def __init__(self, factor: np.ndarray):
        self.factor = factor
        self.m, self.bins = factor.shape
        self.use_fft = _is_dft_grid(factor)
        if self.use_fft:
            k = np.arange(self.m)
            # e^{-j pi k s_b} = e^{j pi k (1 - 1/bins)} * e^{-j 2 pi k b / bins}
            self.phase = np.exp(1j * np.pi * k * (1.0 - 1.0 / self.bins)) / np.sqrt(self.m)

    def forward(self, W: np.ndarray) -> np.ndarray:
        """factor @ W, with W of shape (bins, ...)."""
        if not self.use_fft:
            return self.factor @ W
        F = np.fft.fft(W, axis=0)[: self.m]
        return self.phase[:, None] * F

    def adjoint(self, C: np.ndarray) -> np.ndarray:
        """factor^H @ C, with C of shape (m, ...)."""
        if not self.use_fft:
            return self.factor.conj().T @ C
        D = self.phase.conj()[:, None] * C
        return self.bins * np.fft.ifft(D, n=self.bins, axis=0)


class SensingOperator:
    """Immutable sensing operator with dense and factored application paths.

    Built through :func:`build_operator`.  All stored arrays are marked
    read-only; derived coherence structure is cached on first use, so the
    object is safe to share across threads and solver runs.
    """

    def __init__(self, S: np.ndarray, A_RX: np.ndarray, A_TX: np.ndarray, mode: str):
        if mode not in ("dense", "fft"):
            raise ValueError(f"mode must be 'dense' or 'fft', got {mode!r}")
        S = np.ascontiguousarray(np.asarray(S, dtype=complex))
        A_RX = np.ascontiguousarray(np.asarray(A_RX, dtype=complex))
        A_TX = np.ascontiguousarray(np.asarray(A_TX, dtype=complex))
        if S.ndim != 2 or A_RX.ndim != 2 or A_TX.ndim != 2:
            raise ValueError("S, A_RX, A_TX must be matrices")
        if A_TX.shape[0] != S.shape[0]:
            raise ValueError(
                f"A_TX has {A_TX.shape[0]} rows but S has {S.shape[0]}; both must be N"
            )

        self.S = S
        self.A_RX = A_RX
        self.A_TX = A_TX
        self.M, self.B_RX = A_RX.shape
        self.N, self.B_TX = A_TX.shape
        self.T = S.shape[1]
        self.B = self.B_RX * self.B_TX
        self.mode = mode

        # Training-mixed transmit factor: columns g_bt = S^T conj(a_tx_bt).
        self.G = S.T @ A_TX.conj()

        self._rx_prod = _DictProduct(A_RX)
        self._tx_prod = _DictProduct(A_TX)

        self.rx_norms = np.linalg.norm(A_RX, axis=0)
        self.g_norms = np.linalg.norm(self.G, axis=0)
        # b = br + bt*B_RX, so the flat norm vector is kron over (g, rx).
        self.column_norms = np.kron(self.g_norms, self.rx_norms)

        self.dense_A = None
        if mode == "dense":
            if self.M * self.T * self.B > DENSE_CACHE_LIMIT:
                raise CapacityError(
                    f"dense cache of {self.M * self.T * self.B} entries exceeds "
                    f"limit {DENSE_CACHE_LIMIT}; use fft mode"
                )
            self.dense_A = np.kron(self.G, A_RX)
            self.dense_A.flags.writeable = False

        for arr in (self.S, self.A_RX, self.A_TX, self.G, self.rx_norms,
                    self.g_norms, self.column_norms):
            arr.flags.writeable = False

        self._mu_rx = None
        self._mu_g = None
        self._band_cache: dict[float, CoherenceStructure] = {}
        self._eta_selection = None
        self._spectral_norm = None

    # -- application ------------------------------------------------------

    def apply(self, x: np.ndarray) -> np.ndarray:
        """A @ x for a length-B virtual channel vector."""
        x = np.asarray(x, dtype=complex)
        if x.shape != (self.B,):
            raise ValueError(f"expected length-{self.B} vector, got shape {x.shape}")
        if self.mode == "dense":
            return self.dense_A @ x
        X = unvec(x, self.B_RX, self.B_TX)
        W = self._tx_prod.forward(X.conj().T)        # (N, B_RX)
        W = self.S.conj().T @ W                      # (T, B_RX)
        Y = self._rx_prod.forward(W.conj().T)        # (M, T)
        return vec(Y)

    def apply_adjoint(self, c: np.ndarray) -> np.ndarray:
        """A^H @ c for a length-M*T measurement-space vector."""
        c = np.asarray(c, dtype=complex)
        if c.shape != (self.M * self.T,):
            raise ValueError(
                f"expected length-{self.M * self.T} vector, got shape {c.shape}"
            )
        if self.mode == "dense":
            return self.dense_A.conj().T @ c
        C = unvec(c, self.M, self.T)
        V = self.S @ C.conj().T                      # (N, M)
        V = self._tx_prod.adjoint(V)                 # (B_TX, M)
        R = self._rx_prod.adjoint(V.conj().T)        # (B_RX, B_TX)
        return vec(R)

    def column(self, b: int) -> np.ndarray:
        """Column b of A, assembled from the two factors in O(M*T)."""
        br, bt = self._split(b)
        return np.kron(self.G[:, bt], self.A_RX[:, br])

    def columns(self, idx) -> np.ndarray:
        """Stack of columns A[:, idx] as an (M*T, len(idx)) matrix.

        Entry (t*M + m, k) is G[t, bt] * A_RX[m, br] for idx[k] = (br, bt),
        the same products :meth:`column` forms through np.kron.
        """
        idx = np.asarray(idx, dtype=int)
        bad = idx[(idx < 0) | (idx >= self.B)]
        if bad.size:
            raise ValueError(f"column index {bad[0]} out of range [0, {self.B})")
        br, bt = idx % self.B_RX, idx // self.B_RX
        # C order, so the block feeds BLAS with the layout (and so the
        # rounding) of a column-by-column fill.
        block = np.multiply(self.G[:, None, bt], self.A_RX[None, :, br], order="C")
        return block.reshape(self.M * self.T, idx.size)

    # -- coherence geometry ------------------------------------------------

    def _split(self, b: int) -> tuple[int, int]:
        if not 0 <= b < self.B:
            raise ValueError(f"column index {b} out of range [0, {self.B})")
        return b % self.B_RX, b // self.B_RX

    def _factor_mus(self) -> tuple[np.ndarray, np.ndarray]:
        """Normalized Gram magnitudes of the two factors (cached)."""
        if self._mu_rx is None:
            if np.any(self.rx_norms == 0) or np.any(self.g_norms == 0):
                raise DegenerateOperatorError("operator has a zero-norm column")
            gram_rx = np.abs(self.A_RX.conj().T @ self.A_RX)
            gram_g = np.abs(self.G.conj().T @ self.G)
            mu_rx = gram_rx / np.outer(self.rx_norms, self.rx_norms)
            mu_g = gram_g / np.outer(self.g_norms, self.g_norms)
            np.fill_diagonal(mu_rx, 1.0)
            np.fill_diagonal(mu_g, 1.0)
            self._mu_rx, self._mu_g = mu_rx, mu_g
        return self._mu_rx, self._mu_g

    def coherence(self, i: int, j: int) -> float:
        """|a_i^H a_j| / (||a_i|| ||a_j||), evaluated through the factors."""
        ir, it = self._split(i)
        jr, jt = self._split(j)
        mu_rx, mu_g = self._factor_mus()
        return float(min(mu_rx[ir, jr] * mu_g[it, jt], 1.0))

    def spectral_norm_estimate(self) -> float:
        """Largest singular value of A, exactly: ||G||_2 * ||A_RX||_2.

        A = G kron A_RX, and the singular values of a Kronecker product are
        the products of its factors' singular values.
        """
        if self._spectral_norm is None:
            self._spectral_norm = float(np.linalg.norm(self.G, 2) * np.linalg.norm(self.A_RX, 2))
        return self._spectral_norm


@dataclass(frozen=True)
class CoherenceStructure:
    """Coherence bands of every column at a fixed threshold eta.

    The bands are stored as compressed sparse rows: band i is
    indices[indptr[i]:indptr[i + 1]], the sorted column indices j with
    coherence(i, j) >= eta.  It always contains i itself, and membership is
    symmetric.
    """

    eta: float
    indptr: np.ndarray    # (B + 1,) offsets into indices
    indices: np.ndarray   # concatenated sorted bands
    column_norms: np.ndarray

    @cached_property
    def bands(self) -> list:
        """The bands as a list of read-only views, one per column."""
        return np.split(self.indices, self.indptr[1:-1])


@dataclass(frozen=True)
class EtaSelection:
    """Result of the automatic band-threshold search.

    eta is None when every column pair is (numerically) orthogonal, in which
    case band-aware thresholding degenerates to plain hard thresholding.
    clamped marks the duplicate-column case where the attained value hit 1
    and was pulled just inside the open interval (0, 1).
    """

    eta: float | None
    clamped: bool = False


def build_operator(S, A_RX, A_TX, mode: str = "fft") -> SensingOperator:
    """Assemble the sensing operator for a training block and two dictionaries.

    mode "dense" materializes the full M*T x B matrix (capacity-checked);
    mode "fft" keeps the factored form and uses FFTs for any dictionary
    factor that sits on the canonical DFT grid.
    """
    return SensingOperator(S, A_RX, A_TX, mode)


def coherence_bands(op: SensingOperator, eta: float) -> CoherenceStructure:
    """Collect B_eta(i) = {j : coherence(i, j) >= eta} for every column.

    Works factor-wise: j = (jr, jt) is in the band of i = (ir, it) iff
    mu_g[it, jt] >= eta and mu_rx[ir, jr] >= eta / mu_g[it, jt], so only
    the two factor Grams are ever formed.  The receive pairs that can pass
    are found once, at the smallest threshold eta / max(mu_g) (an
    off-diagonal mu_g can exceed 1 by rounding); each transmit bin then
    tests them against its own thresholds in one vectorized pass.  The
    bands come out as CSR arrays; results are cached on the operator per
    eta.
    """
    if not 0.0 < eta < 1.0:
        raise ValueError(f"eta must be in (0, 1), got {eta}")
    cached = op._band_cache.get(eta)
    if cached is not None:
        return cached

    mu_rx, mu_g = op._factor_mus()
    b_rx = op.B_RX
    rx_row, rx_col = np.nonzero(mu_rx >= eta / mu_g.max())   # ordered by (ir, jr)
    rx_val = mu_rx[rx_row, rx_col]
    sizes = []
    chunks = []
    for it in range(op.B_TX):
        row_g = mu_g[it]
        jts = np.nonzero(row_g >= eta)[0]
        thresholds = eta / row_g[jts]
        k, p = np.nonzero(rx_val[None, :] >= thresholds[:, None])
        # Entries come ordered by (jt, ir, jr); a stable sort on ir makes
        # each band's run ordered by (jt, jr), that is, by column index.
        rows = rx_row[p]
        order = np.argsort(rows, kind="stable")
        chunks.append((rx_col[p] + jts[k] * b_rx)[order])
        sizes.append(np.bincount(rows, minlength=b_rx))
    indptr = np.zeros(op.B + 1, dtype=np.intp)
    np.cumsum(np.concatenate(sizes), out=indptr[1:])
    indices = np.concatenate(chunks)
    indptr.flags.writeable = False
    indices.flags.writeable = False
    structure = CoherenceStructure(eta=float(eta), indptr=indptr, indices=indices,
                                   column_norms=op.column_norms)
    op._band_cache[eta] = structure
    return structure


def select_eta(op: SensingOperator) -> EtaSelection:
    """Largest eta for which every coherence band keeps at least 2 members.

    The attained value is min over columns i of max over j != i of
    coherence(i, j), which factorizes to
    max(min_row_max(mu_rx), min_row_max(mu_g)).  Values at or below the
    orthogonality tolerance yield EtaSelection(None); values that reach 1
    (duplicated columns) are clamped to 1 - 1e-9 with the clamped flag set.
    """
    if op.B < 2:
        raise ValueError("eta selection needs at least two columns")
    if op._eta_selection is not None:
        return op._eta_selection

    mu_rx, mu_g = op._factor_mus()

    def min_row_max(mu):
        if mu.shape[0] < 2:
            return None
        off = mu - np.diag(np.diag(mu))
        return float(np.min(np.max(off, axis=1)))

    candidates = [v for v in (min_row_max(mu_rx), min_row_max(mu_g)) if v is not None]
    value = max(candidates)
    if value <= ORTHO_TOL:
        selection = EtaSelection(eta=None)
    elif value >= 1.0 - 1e-9:
        selection = EtaSelection(eta=1.0 - 1e-9, clamped=True)
    else:
        selection = EtaSelection(eta=value)
    op._eta_selection = selection
    return selection

"""Kronecker-structured sensing operator and its coherence geometry.

The vectorized measurement matrix is A = S^T conj(A_TX) kron A_RX = G kron
A_RX, mapping the length-B virtual channel vector to the length-M*T receive
block.  It is never formed as a matrix: the full products evaluate the
two small products

    unvec(A x)^T    = G (X^T A_RX^T)
    unvec(A^H c)^T  = G^H C^T conj(A_RX)

whose row-major (C-order) flattening is already the column-major vec.

Because the columns factor as a_(br,bt) = g_bt kron a_rx(br) with
g = S^T conj(A_TX), both column norms and pairwise coherences factor over
the two per-array Gram matrices; band structure over all B columns is
computed without ever forming the B x B Gram.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateOperatorError

__all__ = [
    "SensingOperator",
    "RestrictedOperator",
    "CoherenceStructure",
    "EtaSelection",
    "build_operator",
    "coherence_bands",
    "select_eta",
]

# Coherences at or below this are treated as exact zeros when selecting eta.
ORTHO_TOL = 1e-12


class SensingOperator:
    """Immutable sensing operator, applied through its two factors.

    Built through :func:`build_operator`.  All stored arrays are marked
    read-only.  The factor Grams of A A^H are formed on build; the
    normalized factor coherences and the spectral norm are cached on first
    use, and so are the coherence bands, per eta, by :meth:`bands_at`
    alone, and the stacked factors of :meth:`pair_products`; the object is
    safe to share across threads and solver runs.  A itself is never
    formed; np.kron(op.G, op.A_RX) is the matrix it applies.
    """

    def __init__(self, S: np.ndarray, A_RX: np.ndarray, A_TX: np.ndarray):
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

        # Training-mixed transmit factor: columns g_bt = S^T conj(a_tx_bt).
        self.G = S.T @ A_TX.conj()

        # Conjugated factors of the adjoint product, formed once.
        self._G_H = self.G.conj().T
        self._A_RX_conj = A_RX.conj()
        # Factor Grams of A A^H = (G G^H) kron (A_RX A_RX^H), in the layout
        # of the two products: (T, T) and the (M, M) conj(A_RX) A_RX^T.
        self._gram_g = self.G @ self._G_H
        self._gram_rx = self._A_RX_conj @ A_RX.T

        self.rx_norms = np.linalg.norm(A_RX, axis=0)
        # Column b = br + bt*B_RX has norm g_norms[bt] * rx_norms[br].
        self.g_norms = np.linalg.norm(self.G, axis=0)

        for arr in (self.S, self.A_RX, self.A_TX, self.G, self._G_H, self._A_RX_conj,
                    self._gram_g, self._gram_rx, self.rx_norms, self.g_norms):
            arr.flags.writeable = False

        self._mu_rx = None
        self._mu_g = None
        self._bands = {}    # eta as configured -> bands_at(eta)
        self._spectral_norm = None
        self._pair_factors = None

    # -- application ------------------------------------------------------

    def apply(self, x: np.ndarray) -> np.ndarray:
        """A @ x for a length-B virtual channel vector."""
        x = np.asarray(x, dtype=complex)
        if x.shape != (self.B,):
            raise ValueError(f"expected length-{self.B} vector, got shape {x.shape}")
        # x.reshape(B_TX, B_RX) is X^T, and the (T, M) result is unvec(A x)^T.
        # Contracting B_RX first costs B*M + T*B_TX*M multiplies, not B*T +
        # T*B_RX*M: fewer whenever M < T, as in the shipped configs.
        return (self.G @ (x.reshape(self.B_TX, self.B_RX) @ self.A_RX.T)).reshape(-1)

    def apply_adjoint(self, c: np.ndarray) -> np.ndarray:
        """A^H @ c for a length-M*T measurement-space vector."""
        c = np.asarray(c, dtype=complex)
        if c.shape != (self.M * self.T,):
            raise ValueError(
                f"expected length-{self.M * self.T} vector, got shape {c.shape}"
            )
        # Transposed, so the result needs no column-major copy: C order is vec.
        return (self._G_H @ c.reshape(self.T, self.M) @ self._A_RX_conj).reshape(-1)

    def apply_gram(self, c: np.ndarray) -> np.ndarray:
        """A @ A^H @ c for a length-M*T measurement-space vector.

        Through the factor Grams, unvec(A A^H c)^T = (G G^H) C (conj(A_RX)
        A_RX^T) with C = unvec(c)^T: O(T^2 M + T M^2) work, with nothing of
        length B formed.  It equals apply(apply_adjoint(c)) up to rounding.
        """
        c = np.asarray(c, dtype=complex)
        if c.shape != (self.M * self.T,):
            raise ValueError(
                f"expected length-{self.M * self.T} vector, got shape {c.shape}"
            )
        return (self._gram_g @ c.reshape(self.T, self.M) @ self._gram_rx).reshape(-1)

    def restricted(self, idx) -> RestrictedOperator:
        """A restricted to the columns idx: distinct integers in [0, B)."""
        return RestrictedOperator(self, self._column_indices(idx))

    def columns(self, idx) -> np.ndarray:
        """Stack of columns A[:, idx] as an (M*T, len(idx)) matrix.

        Entry (t*M + m, k) is G[t, bt] * A_RX[m, br] for idx[k] = br +
        bt*B_RX, the Kronecker product of the two factor columns.  The block
        is the transpose of a row-major (len(idx), M*T) array, so each
        column is contiguous: the restricted solve reads it row by row as
        C^T.
        """
        idx = self._column_indices(idx)
        br, bt = idx % self.B_RX, idx // self.B_RX
        rows = np.multiply(self.G.T[bt, :, None], self.A_RX.T[br, None, :])
        return rows.reshape(idx.size, self.M * self.T).T

    def pair_products(self, idx):
        """Products of the factor columns of A[:, idx] over every pair (j, k).

        Column idx[j] = br + bt*B_RX is g_j kron a_j, with g_j = G[:, bt] and
        a_j = A_RX[:, br].  Returns (rx, tx): rx, of shape (2, M, q, q), holds
        rx[0][m, j, k] = a_j[m] conj(a_k[m]) and rx[1][m, j, k] = conj(a_j[m]
        a_k[m]), and tx, of shape (2, T, q, q), the same products of the g_j.
        For real weights W of shape (T, M) on the entries t*M + m of the
        block C = A[:, idx], the weighted Grams factor through them:

            conj(C^H diag(W) C)[j, k] = sum_t tx[0][t, j, k] sum_m W[t, m] rx[0][m, j, k]
            conj(C^T diag(W) C)[j, k] = sum_t tx[1][t, j, k] sum_m W[t, m] rx[1][m, j, k]

        at O((M + T) q^2) work here and O(T M q^2) per weighting, against
        O(T M q^2) complex multiplies for each Gram of C.  The stacked
        factors, [A_RX, conj(A_RX)] and [G, conj(G)], are formed on first use.
        """
        idx = self._column_indices(idx)
        if self._pair_factors is None:
            stacks = (np.stack([self.A_RX, self._A_RX_conj]), np.stack([self.G, self.G.conj()]))
            for arr in stacks:
                arr.flags.writeable = False
            self._pair_factors = stacks
        bt, br = np.divmod(idx, self.B_RX)
        a2, g2 = self._pair_factors[0][:, :, br], self._pair_factors[1][:, :, bt]
        return (np.multiply(a2[..., None], a2[1][:, None, :], order="C"),
                np.multiply(g2[..., None], g2[1][:, None, :], order="C"))

    def _column_indices(self, idx) -> np.ndarray:
        idx = np.asarray(idx)
        if idx.size and not np.issubdtype(idx.dtype, np.integer):
            raise ValueError(f"column indices must be integers, got dtype {idx.dtype}")
        if idx.ndim != 1:
            raise ValueError(f"column indices must be a vector, got shape {idx.shape}")
        bad = idx[(idx < 0) | (idx >= self.B)]
        if bad.size:
            raise ValueError(f"column index {bad[0]} out of range [0, {self.B})")
        return idx.astype(int, copy=False)

    # -- coherence geometry ------------------------------------------------

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

    def bands_at(self, eta) -> CoherenceStructure | None:
        """The coherence bands the band-aware solvers use at eta, cached per eta.

        eta is "auto" or a float in (0, 1).  "auto" takes the threshold
        :func:`select_eta` picks, and gives None when every column pair is
        orthogonal: band thresholding then degenerates to plain hard
        thresholding.  A float goes straight to :func:`coherence_bands`.
        """
        if eta not in self._bands:
            selected = select_eta(self).eta if eta == "auto" else float(eta)
            bands = None if selected is None else coherence_bands(self, selected)
            # Threads that race here all get the bands stored first.
            self._bands.setdefault(eta, bands)
        return self._bands[eta]

    def spectral_norm_estimate(self) -> float:
        """Largest singular value of A, exactly: ||G||_2 * ||A_RX||_2.

        A = G kron A_RX, and the singular values of a Kronecker product are
        the products of its factors' singular values.
        """
        if self._spectral_norm is None:
            self._spectral_norm = float(np.linalg.norm(self.G, 2) * np.linalg.norm(self.A_RX, 2))
        return self._spectral_norm


class RestrictedOperator:
    """The columns idx of A, applied on the sub-grid of bins they touch.

    Built by :meth:`SensingOperator.restricted`.  Column b = br + bt*B_RX
    of A is g_bt kron a_rx(br).  With Tb and R the distinct transmit and
    receive bins of idx, (it, ir) each column's place among them,
    Z[it, ir] = z and C = unvec(c)^T, in the full products' order:

        image(z)    = A[:, idx] @ z  = vec(G[:, Tb] (Z A_RX[:, R]^T))
        adjoint(c)  = (A^H c)[idx]   = (G[:, Tb]^H C conj(A_RX[:, R]))[it, ir]

    When idx covers every bin, these are the full products.
    """

    def __init__(self, op: SensingOperator, idx: np.ndarray):
        self.op, self.idx = op, idx
        tb, it = _distinct_bins(idx // op.B_RX, op.B_TX)
        rb, ir = _distinct_bins(idx % op.B_RX, op.B_RX)
        self._at = it * rb.size + ir    # each column's entry of the flattened Z
        if np.count_nonzero(np.bincount(self._at)) < idx.size:
            raise ValueError("column indices must not repeat")
        self._g, self._g_h = op.G[:, tb], op._G_H[tb]
        self._a, self._a_conj = op.A_RX[:, rb], op._A_RX_conj[:, rb]

    def image(self, z) -> np.ndarray:
        """A[:, idx] @ z: the image of the x that holds z at idx."""
        z = np.asarray(z)
        if z.shape != self.idx.shape:
            raise ValueError(f"idx {self.idx.shape} and values {z.shape} "
                             "must be vectors of one length")
        Z = np.zeros((self._g.shape[1], self._a.shape[1]), dtype=complex)
        Z.reshape(-1)[self._at] = z
        return (self._g @ (Z @ self._a.T)).reshape(-1)

    def adjoint(self, c: np.ndarray) -> np.ndarray:
        """(A^H c)[idx] for a length-M*T measurement-space vector c."""
        C = np.reshape(c, (self.op.T, self.op.M))
        return (self._g_h @ C @ self._a_conj).reshape(-1)[self._at]


def _distinct_bins(bins: np.ndarray, count: int):
    """The distinct values of bins, ascending, and each entry's place among them."""
    hit = np.zeros(count, dtype=bool)
    hit[bins] = True
    return np.flatnonzero(hit), np.cumsum(hit)[bins] - 1


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

    A is applied as two small matrix products with G = S^T conj(A_TX) and
    A_RX, for any dictionaries.  mode accepts only "fft", the factored
    path's old name, which callers still pass; no FFT is left, and any
    other value raises ValueError.
    """
    if mode != "fft":
        raise ValueError(f"mode must be 'fft', got {mode!r}")
    return SensingOperator(S, A_RX, A_TX)


def coherence_bands(op: SensingOperator, eta: float) -> CoherenceStructure:
    """Collect B_eta(i) = {j : coherence(i, j) >= eta} for every column.

    Works factor-wise: j = (jr, jt) is in the band of i = (ir, it) iff
    mu_g[it, jt] >= eta and mu_rx[ir, jr] >= eta / mu_g[it, jt], so only
    the two factor Grams are ever formed.  The receive pairs that can pass
    are found once, at the smallest threshold eta / max(mu_g) (an
    off-diagonal mu_g can exceed 1 by rounding); each transmit bin then
    tests them against its own thresholds in one vectorized pass.  The
    bands come out as CSR arrays, built anew on every call;
    :meth:`SensingOperator.bands_at` keeps them.
    """
    if not 0.0 < eta < 1.0:
        raise ValueError(f"eta must be in (0, 1), got {eta}")

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
    return CoherenceStructure(eta=float(eta), indptr=indptr, indices=indices)


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

    mu_rx, mu_g = op._factor_mus()

    def min_row_max(mu):
        if mu.shape[0] < 2:
            return None
        off = mu - np.diag(np.diag(mu))
        return float(np.min(np.max(off, axis=1)))

    candidates = [v for v in (min_row_max(mu_rx), min_row_max(mu_g)) if v is not None]
    value = max(candidates)
    if value <= ORTHO_TOL:
        return EtaSelection(eta=None)
    if value >= 1.0 - 1e-9:
        return EtaSelection(eta=1.0 - 1e-9, clamped=True)
    return EtaSelection(eta=value)

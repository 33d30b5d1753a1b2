"""References the tests check the library against, kept out of the library.

The library applies A = G kron A_RX only through its two factors and lays
the likelihood out one way, as u.view(float); the dense matrix and the
stacked real form are formed here, where they are checked.  So is, once,
every implementation the library replaced, as the oracle of a differential
test, with the code it stood for and the commit that replaced it; no test
file defines its own (tests/test_library_rules.py).  (Not ``reference``:
sweepbench/, which some tests put on sys.path, has a module of that name.)
"""

import itertools
import math
from typing import NamedTuple

import numpy as np
from scipy import special

import onebitcs.solvers as solvers_module
from onebitcs.errors import CapacityError, ConvergenceError, TuningError
from onebitcs.model import (
    dft_dictionary,
    draw_channel,
    steering_vector,
    synthesize_measurement,
    zc_training,
)
from onebitcs.objective import (
    ObjectiveContext,
    f_loglik,
    g_logprior,
    grad_h,
    h_objective,
    likelihood,
    loglik,
    sign_terms,
)
from onebitcs.operator import build_operator
from onebitcs.solvers import (
    ARMIJO_MAX_STEPS,
    ARMIJO_SHRINK,
    ARMIJO_SLOPE,
    FISTA_SUPPORT_EPS,
    FISTA_TOL,
    SolverReport,
    SparseEstimate,
    _band_admits,
    _hessian_factors,
    _ROW_MIX,
    _kept_set_is_certain,
    _scatter,
    _soft_threshold,
    _threshold,
    hard_threshold,
    run_fista,
)


# -- the dense matrix and the real form ---------------------------------------


def dense_matrix(op):
    """The M*T x B matrix A = G kron A_RX that op applies (its dense mode until b83a811)."""
    return np.kron(op.G, op.A_RX)


def real_form(x):
    """Stack the real part over the imaginary part (operator.real_form until b83a811)."""
    x = np.asarray(x)
    return np.concatenate([x.real, x.imag])


def complex_form(v):
    """Inverse of :func:`real_form` (operator.complex_form until b83a811)."""
    v = np.asarray(v)
    if v.shape[0] % 2 != 0:
        raise ValueError(f"real-form vector must have even length, got {v.shape[0]}")
    half = v.shape[0] // 2
    return v[:half] + 1j * v[half:]


def interleaved(q):
    """Indices that reorder (Re b; Im b) as b.view(float), the solve's layout since 05bcb5e."""
    order = np.empty(2 * q, dtype=int)
    order[0::2], order[1::2] = np.arange(q), q + np.arange(q)
    return order


def as_real_form(v_il):
    """A vector laid out as u.view(float), reordered as real_form(u)."""
    return np.concatenate([v_il[0::2], v_il[1::2]])


# -- problems the tests share -------------------------------------------------


def make_ctx(seed, rho, m=4, n=4, t=6, b=8, paths=2):
    """The objective of one drawn channel on square DFT dictionaries of b bins."""
    rng = np.random.default_rng(seed)
    tr = zc_training(n, t)
    op = build_operator(tr.S, dft_dictionary(m, b), dft_dictionary(n, b))
    H = draw_channel(paths, m, n, rng).H
    return ObjectiveContext(op, synthesize_measurement(H, tr.S, rho, rng))


def off_grid_dictionary(rng, antennas, bins):
    """Steering vectors at sorted random sines, off any DFT grid."""
    sines = np.sort(rng.uniform(-1.0, 1.0, bins))
    return np.stack([steering_vector(float(np.arcsin(s)), antennas) for s in sines], axis=1)


def rand_complex(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def gradient_at_zero(ctx):
    """grad f(0) = A^H weights(0), formed here rather than read from ctx.gradient_at_zero."""
    at_zero = likelihood(ctx, np.zeros(ctx.op.M * ctx.op.T, dtype=complex))
    return ctx.op.apply_adjoint(at_zero.weights)


def zero_threshold(ctx):
    """max|grad f(0)|, the gamma from which the l1 estimate is zero (grad g(0) = 0)."""
    return float(np.max(np.abs(gradient_at_zero(ctx))))


def penalized(ctx, gamma, x):
    """The l1 objective f(x) - gamma ||x||_1."""
    return f_loglik(ctx, x) - gamma * float(np.sum(np.abs(x)))


# -- retired operator products ------------------------------------------------


def _is_dft_grid(factor):
    m, bins = factor.shape
    if bins < m:
        return False
    return np.allclose(factor, dft_dictionary(m, bins), rtol=0.0, atol=1e-12)


class OracleDictProduct:
    """Multiply by one dictionary factor, with the FFT fast path on the grid.

    It and oracle_apply / oracle_apply_adjoint were SensingOperator's apply
    and apply_adjoint until 99c8042: phase-twisted FFTs on the DFT grid,
    dense matmul otherwise, with column-major (order="F") reshapes.
    """

    def __init__(self, factor):
        self.factor = factor
        self.m, self.bins = factor.shape
        self.use_fft = _is_dft_grid(factor)
        if self.use_fft:
            k = np.arange(self.m)
            # e^{-j pi k s_b} = e^{j pi k (1 - 1/bins)} * e^{-j 2 pi k b / bins}
            self.phase = np.exp(1j * np.pi * k * (1.0 - 1.0 / self.bins)) / np.sqrt(self.m)

    def forward(self, W):
        if not self.use_fft:
            return self.factor @ W
        return self.phase[:, None] * np.fft.fft(W, axis=0)[: self.m]

    def adjoint(self, C):
        if not self.use_fft:
            return self.factor.conj().T @ C
        D = self.phase.conj()[:, None] * C
        return self.bins * np.fft.ifft(D, n=self.bins, axis=0)


def oracle_apply(op, x):
    rx, tx = OracleDictProduct(op.A_RX), OracleDictProduct(op.A_TX)
    X = x.reshape(op.B_RX, op.B_TX, order="F")
    W = op.S.conj().T @ tx.forward(X.conj().T)             # (T, B_RX)
    return rx.forward(W.conj().T).reshape(-1, order="F")   # (M, T)


def oracle_apply_adjoint(op, c):
    rx, tx = OracleDictProduct(op.A_RX), OracleDictProduct(op.A_TX)
    C = c.reshape(op.M, op.T, order="F")
    V = tx.adjoint(op.S @ C.conj().T)                      # (B_TX, M)
    return rx.adjoint(V.conj().T).reshape(-1, order="F")   # (B_RX, B_TX)


def gathered_image(op, idx, z):
    """A[:, idx] @ z from one gathered factor column pair per column, summed over repeats.

    It and gathered_adjoint stood for RestrictedOperator's products below
    its size rule until d396501 put them through the factor bins idx touches.
    """
    idx = np.asarray(idx, dtype=int)
    g, a = op.G[:, idx // op.B_RX], op.A_RX[:, idx % op.B_RX]
    return ((g * z) @ a.T).reshape(-1)


def gathered_adjoint(op, idx, c):
    """(A^H c)[idx] from one gathered factor column pair per column."""
    idx = np.asarray(idx, dtype=int)
    g, a = op.G[:, idx // op.B_RX], op.A_RX[:, idx % op.B_RX]
    c_conj = np.reshape(c, (op.T, op.M)).conj()
    return np.einsum("tk,tk->k", g, c_conj @ a).conj()


# -- retired bands and thresholders: the lexsort ones walk a full lexsort
# order, the prefix ones select from prefixes through the copying scan -------


def oracle_coherence_bands(op, eta):
    """One sorted member array per column, by a loop (coherence_bands until d49759d)."""
    mu_rx, mu_g = op._factor_mus()
    b_rx = op.B_RX
    bands = []
    for it in range(op.B_TX):
        row_g = mu_g[it]
        jts = np.nonzero(row_g >= eta)[0]
        thresholds = eta / row_g[jts]
        for ir in range(b_rx):
            row_rx = mu_rx[ir]
            members = []
            for jt, thr in zip(jts, thresholds):
                jrs = np.nonzero(row_rx >= thr)[0]
                members.append(jrs + jt * b_rx)
            band = np.concatenate(members) if members else np.array([], dtype=int)
            bands.append(np.sort(band))
    return bands


def oracle_magnitude_order(z):
    """Descending |z|, ties by index: the order both lexsort thresholders walk."""
    return np.lexsort((np.arange(z.shape[0]), -np.abs(z)))


def oracle_hard_threshold(z, budget):
    """Hard thresholding by a full lexsort (solvers.hard_threshold until d49759d)."""
    return np.sort(oracle_magnitude_order(z)[: max(budget, 0)])


def oracle_bms_threshold(z, current_x, budget, bands):
    """Walk candidates by descending |z| until budget are admitted (until d49759d)."""
    mags = np.abs(z)
    selected = []
    for i in oracle_magnitude_order(z):
        if len(selected) == budget:
            break
        band = bands[i]
        byproduct = band[(current_x[band] == current_x[i]) & (band != i)]
        if byproduct.size == 0 or mags[i] > np.max(mags[byproduct]):
            selected.append(int(i))
    return np.array(sorted(selected), dtype=int)


def oracle_descending_prefixes(mags, count):
    """_descending_prefixes until 87b5c09, which copied the nonzero magnitudes every call."""
    vals = mags[mags > 0]
    while 0 < count <= vals.size:
        kth = np.partition(vals, vals.size - count)[vals.size - count]
        top = np.flatnonzero(mags >= kth)
        yield top[np.argsort(-mags[top], kind="stable")]
        count = 4 * top.size
    nz = np.flatnonzero(mags)
    yield np.concatenate([nz[np.argsort(-mags[nz], kind="stable")], np.flatnonzero(mags == 0)])


def oracle_prefix_hard_threshold(z, budget):
    """solvers.hard_threshold through the copying scan, from d49759d until 87b5c09."""
    return np.sort(next(oracle_descending_prefixes(np.abs(z), budget))[: max(budget, 0)])


def oracle_prefix_bms_threshold(z, current_x, budget, bands):
    """bms_threshold from d49759d until 87b5c09: the copying scan, opened at budget indices."""
    mags = np.abs(z)
    admitted = []
    found = scanned = 0
    for order in oracle_descending_prefixes(mags, budget):
        tail = order[scanned:]
        scanned = order.size
        admitted.append(tail[_band_admits(tail, mags, current_x, bands)])
        found += admitted[-1].size
        if found >= budget:
            break
    return np.sort(np.concatenate(admitted)[:budget])


# -- retired likelihood kernels -----------------------------------------------


def oracle_inv_mills(x):
    """phi / Phi by two masked branches, erfcx below 0 (the likelihood's until a967ef7)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty_like(x)
    neg = x < 0.0
    out[neg] = np.sqrt(2.0 / np.pi) / special.erfcx(-x[neg] / np.sqrt(2.0))
    pos = ~neg
    phi = np.exp(-0.5 * x[pos] ** 2) / np.sqrt(2.0 * np.pi)
    out[pos] = phi / special.ndtr(x[pos])
    return out


def oracle_sign_terms(v):
    """The kernel with an isfinite check and a min pass of its own for erfcx.

    objective.sign_terms until 87b5c09; the folded solve's own log Phi and
    lambda passes until 8c5d1da were it split in two, bit for bit.
    """
    if not np.isfinite(v).all():
        raise ValueError("likelihood requires a finite operator image")
    log_cdf = special.ndtr(v)
    tiny = np.finfo(float).tiny
    if log_cdf.min(initial=1.0) < tiny:
        under = log_cdf < tiny
        log_cdf[under] = 1.0
        np.log(log_cdf, out=log_cdf)
        log_cdf[under] = special.log_ndtr(v[under])
    else:
        np.log(log_cdf, out=log_cdf)
    lam = np.multiply(v, -0.5)
    lam *= v
    lam -= 0.5 * np.log(2.0 * np.pi)
    lam -= log_cdf
    np.exp(lam, out=lam)
    if v.min(initial=0.0) < -40.0:
        deep = v < -40.0
        lam[deep] = np.sqrt(2.0 / np.pi) / special.erfcx(-v[deep] / np.sqrt(2.0))
    return float(log_cdf.sum()), lam


class RealFormTerms(NamedTuple):
    """The likelihood terms in the real-form layout, as the oracle returns them."""

    f: float              # sum_i log Phi(v_i)
    v: np.ndarray         # likelihood arguments s .* real_form(u)
    lam: np.ndarray       # inverse Mills ratios lambda(v)
    weights: np.ndarray   # complex_form(lam .* s): grad f = A^H weights


def real_form_signs(ctx):
    """The scaled sign pattern s = sqrt(2 rho) * real_form(y_hat), from the measurement."""
    return np.sqrt(2.0 * ctx.y_hat.rho) * real_form(ctx.y_hat.y_hat)


def oracle_real_form_likelihood(ctx, u):
    """The likelihood terms at u laid out as real_form(u), FISTA's until c9ac9fd."""
    signs = real_form_signs(ctx)
    v = signs * real_form(u)
    f, lam = sign_terms(v)
    return RealFormTerms(f, v, lam, complex_form(lam * signs))


# -- retired negative-Hessian assemblies --------------------------------------


def oracle_neg_hessian(cols, d):
    """2I + C_R^T diag(d) C_R from the real embedding (the solve's assembly until a967ef7)."""
    cols_r = np.block([[cols.real, -cols.imag], [cols.imag, cols.real]])
    return 2.0 * np.eye(cols_r.shape[1]) + cols_r.T @ (d[:, None] * cols_r)


def oracle_complex_neg_hessian(cols, cols_h, d):
    """2I + C_R^T diag(d) C_R from two complex products (Wirtinger calculus).

    With a = (d_re + d_im)/2 and b = (d_re - d_im)/2 over the two halves of
    d, H1 = C^H diag(a) C and H2 = C^T diag(b) C give the blocks
    [[Re(H1 + H2), -Im(H1 + H2)], [Im(H1 - H2), Re(H1 - H2)]].  It was the
    solve's assembly from a967ef7 until c16d339 folded the block.
    """
    half = d.size // 2
    q = cols.shape[1]
    a = 0.5 * (d[:half] + d[half:])
    b = 0.5 * (d[:half] - d[half:])
    h1 = cols_h @ (a[:, None] * cols)
    h2 = cols.T @ (b[:, None] * cols)
    plus, minus = h1 + h2, h1 - h2
    out = np.empty((2 * q, 2 * q))
    out[:q, :q] = plus.real
    out[:q, q:] = -plus.imag
    out[q:, :q] = minus.imag
    out[q:, q:] = minus.real
    out[np.diag_indices(2 * q)] += 2.0
    return out


def oracle_folded_block(cols, signs):
    """K^T for K = diag(s) C_R, the sign-folded real form of the block C = cols.

    K x_R is the likelihood argument v = s .* (C x)_R; K^T = C_R^T diag(s) has
    rows [Re C^T, Im C^T] over [-Im C^T, Re C^T], each column scaled by its
    sign.  The restricted solve ran on this block from c16d339 until
    05bcb5e moved it to the complex block and the factors' pair products.
    """
    ct = cols.T
    q, n = ct.shape
    s_re, s_im = signs[:n], signs[n:]
    kt = np.empty((2 * q, 2 * n))
    np.multiply(ct.real, s_re, out=kt[:q, :n])
    np.multiply(ct.imag, s_im, out=kt[:q, n:])
    np.multiply(ct.imag, -s_re, out=kt[q:, :n])
    np.multiply(ct.real, s_im, out=kt[q:, n:])
    return kt


def oracle_folded_neg_hessian(kt, curv):
    """2I + K^T diag(curv) K over x_R for the folded block kt = K^T (c16d339 to 05bcb5e)."""
    n = kt.shape[1] // 2
    out = (kt[:, :n] * curv[:n]) @ kt[:, :n].T
    out += (kt[:, n:] * curv[n:]) @ kt[:, n:].T
    out.flat[:: out.shape[0] + 1] += 2.0
    return out


def folded_hessian(cols, signs, curv):
    """The sign-folded assembly from the column block, signs and curvature."""
    return oracle_folded_neg_hessian(oracle_folded_block(cols, signs), curv)


def oracle_block_neg_hessian(factors, curv, penalty_curv=2.0):
    """_neg_hessian until the penalties' curvature became one diagonal pair.

    penalty_curv is a float c, added as c I before the row mix (the
    prior's 2.0 by default, the only form until a795136), or an array of
    one real (2, 2) block per entry, indexed into the diagonal of the
    finished matrix after it: the l1 penalty's gamma (I - u u^T) / |b_j|,
    with u = (Re b_j, Im b_j) / |b_j|.
    """
    mix, rx, tx = factors
    pq = mix @ curv.reshape(-1, 2).T
    r = np.matmul(pq.reshape(2, tx.shape[1], -1), rx).view(complex)
    r *= tx
    h = r.sum(axis=1)
    q = math.isqrt(h.shape[1])
    blocks = isinstance(penalty_curv, np.ndarray)
    if not blocks:
        h[0, :: q + 1] += penalty_curv
    neg = (_ROW_MIX @ h.reshape(2, q, q).transpose(1, 0, 2)).view(float).reshape(2 * q, 2 * q)
    if blocks:
        j = np.arange(q)
        neg.reshape(q, 2, q, 2)[j, :, j, :] += penalty_curv
    return neg


def oracle_l1_curvature_blocks(gamma, b):
    """The l1 penalty's curvature as _l1_penalty gave it until then: gamma (I - u u^T) / |b_j|."""
    mags = np.abs(b)
    unit = b.view(float).reshape(-1, 2) / mags[:, None]
    return (gamma / mags)[:, None, None] * (np.eye(2) - unit[:, :, None] * unit[:, None, :])


# -- retired restricted solves: in complex storage, on the sign-folded block,
# and with the Gaussian prior written into the loop ---------------------------


def oracle_restricted_maximize(ctx, support, x0=None, inner_tol=1e-8, max_iters=100):
    """The restricted Newton solve in complex storage, with the full
    likelihood at every Armijo trial and the complex Hessian assembly.

    It stood for solvers.restricted_maximize until c16d339 folded the block.
    """
    if x0 is None:
        support = np.unique(np.asarray(support, dtype=int))
        x = np.zeros(support.size, dtype=complex)
    else:
        support = np.asarray(support, dtype=int)
        x = np.array(x0, dtype=complex)
    cols = ctx.op.columns(support)
    cols_h = cols.conj().T
    signs = real_form_signs(ctx)
    rho_term = signs * signs

    def h_at(u_t, x_t):
        terms = oracle_real_form_likelihood(ctx, u_t)
        xr = real_form(x_t)
        return terms, terms.f - float(xr @ xr)

    u = cols @ x
    terms, h_val = h_at(u, x)
    trace = [h_val]
    best = (h_val, x.copy())
    for _ in range(max_iters):
        g_r = real_form(cols_h @ terms.weights - 2.0 * x)
        if np.linalg.norm(g_r) <= inner_tol:
            return x, trace
        neg_hess = oracle_complex_neg_hessian(
            cols, cols_h, rho_term * terms.lam * (terms.v + terms.lam))
        d_r = np.linalg.solve(neg_hess, g_r)
        d_c = complex_form(d_r)
        slope = float(g_r @ d_r)
        w = cols @ d_c
        noise_floor = 1e-12 * (1.0 + abs(h_val))
        t = 1.0
        accepted = False
        if slope > noise_floor:
            for _ in range(50):
                trial, h_t = h_at(u + t * w, x + t * d_c)
                if h_t >= h_val + 0.1 * t * slope:
                    accepted = True
                    break
                t *= 0.5
        if not accepted:
            t = 1.0
            trial, h_t = h_at(u + w, x + d_c)
            if h_t < h_val - noise_floor:
                break
        x = x + t * d_c
        u = u + t * w
        terms, h_val = trial, h_t
        trace.append(h_val)
        if h_val > best[0]:
            best = (h_val, x.copy())
    full = np.zeros(ctx.op.B, dtype=complex)
    full[support] = best[1]
    raise ConvergenceError("cap", best=full)


def oracle_kept_set_is_certain(x_r, keep, grad_norm):
    """Whether the keep largest |b_j| lead the others (or zero) by more than grad_norm.

    b is the complex vector whose real form is x_r.  The maximizer lies within
    grad_norm / 2 of b, since minus the Hessian is at least 2I.  It stood for
    solvers._kept_set_is_certain on the real form from 7f75703 until 05bcb5e.
    """
    q = x_r.size // 2
    mags = np.hypot(x_r[:q], x_r[q:])
    order = np.argsort(-mags, kind="stable")
    inside, outside = mags[order[:keep]], mags[order[keep:]]
    return inside.size > 0 and inside.min() - outside.max(initial=0.0) > grad_norm


def oracle_folded_restricted_maximize(ctx, support, x0=None, inner_tol=1e-8, keep=None,
                                      hessian=oracle_folded_neg_hessian):
    """The sign-folded restricted solve with its own log Phi and lambda passes.

    It runs on x_R and the folded block K^T, assembling 2I + K^T diag(curv) K
    by `hessian`, and takes lambda again at the best iterate for a failure
    report.  With keep it stops once the keep largest magnitudes are certain.
    A test that patches the solver module's constants patches both solves.
    restricted_maximize from c16d339 until 8c5d1da (the shared kernel).
    """
    support = np.asarray(support, dtype=int)
    x = np.zeros(2 * support.size) if x0 is None else real_form(np.asarray(x0, dtype=complex))
    kt = oracle_folded_block(ctx.op.columns(support), real_form_signs(ctx))

    def h_at(v_t, x_t):
        f, lam_t = oracle_sign_terms(v_t)
        return lam_t, f - float(x_t @ x_t)

    v = kt.T @ x
    lam, h_val = h_at(v, x)
    trace = [h_val]
    best = (h_val, x)

    for _ in range(solvers_module.NEWTON_MAX_ITERS):
        grad = kt @ lam - 2.0 * x
        grad_norm = math.sqrt(grad @ grad)
        if grad_norm <= inner_tol:
            return complex_form(x), trace
        if keep is not None and oracle_kept_set_is_certain(x, keep, grad_norm):
            return complex_form(x), trace

        d = np.linalg.solve(hessian(kt, lam * (v + lam)), grad)
        slope = float(grad @ d)
        w = kt.T @ d
        noise_floor = 1e-12 * (1.0 + abs(h_val))
        t = 1.0
        accepted = False
        if slope > noise_floor:
            for _ in range(solvers_module.ARMIJO_MAX_STEPS):
                v_t, x_t = v + t * w, x + t * d
                trial, h_t = h_at(v_t, x_t)
                if h_t >= h_val + solvers_module.ARMIJO_SLOPE * t * slope:
                    accepted = True
                    break
                t *= solvers_module.ARMIJO_SHRINK
        if not accepted:
            v_t, x_t = v + w, x + d
            trial, h_t = h_at(v_t, x_t)
            if h_t < h_val - noise_floor:
                stop = "stalled: the next Newton step descends"
                break
        x, v, lam, h_val = x_t, v_t, trial, h_t
        trace.append(h_val)
        if h_val > best[0]:
            best = (h_val, x)
    else:
        stop = "hit the iteration cap"

    grad = kt @ oracle_sign_terms(kt.T @ best[1])[1] - 2.0 * best[1]
    raise ConvergenceError(
        f"restricted maximize did not reach tol {inner_tol} in {len(trace) - 1} "
        f"Newton iterations ({stop})",
        best=complex_form(best[1]),
        grad_norm=float(np.linalg.norm(grad)),
    )


def prior_restricted_maximize(ctx, support, x0=None, inner_tol=1e-8, keep=None, start=None):
    """restricted_maximize with the Gaussian prior written into its Newton loop.

    It stood for restricted_maximize, and oracle_block_neg_hessian with its
    default for _neg_hessian, until a795136, when the loop took its penalty as an argument so that
    FISTA's finish could run the same loop with the l1 penalty.  The
    pursuits' solves must stay bitwise what it returns.
    """
    support = np.asarray(support, dtype=int)
    b = np.zeros(support.size, dtype=complex) if x0 is None else np.array(x0, dtype=complex)
    cols = ctx.op.columns(support)
    cols_h = cols.T.conj()
    terms = likelihood(ctx, cols @ b) if start is None else start
    x = b.view(float)
    h_val = terms.f - float(x @ x)
    trace = [h_val]
    best = (h_val, x, terms)
    factors = None

    def trial(t, d, w):
        x_t = x + d if t == 1.0 else x + t * d
        at_t = likelihood(ctx, terms.u + w if t == 1.0 else terms.u + t * w)
        return x_t, at_t, at_t.f - float(x_t @ x_t)

    for _ in range(solvers_module.NEWTON_MAX_ITERS):
        grad = (cols_h @ terms.weights).view(float) - 2.0 * x
        grad_norm = math.sqrt(grad @ grad)
        if grad_norm <= inner_tol or (
                keep is not None and _kept_set_is_certain(x.view(complex), keep, grad_norm)):
            return x.view(complex), trace, terms
        if factors is None:
            factors = _hessian_factors(ctx, support)
        d = np.linalg.solve(oracle_block_neg_hessian(factors, terms.lam * (terms.v + terms.lam)),
                            grad)
        slope = float(grad @ d)
        w = cols @ d.view(complex)
        noise_floor = 1e-12 * (1.0 + abs(h_val))
        t = 1.0
        accepted = False
        if slope > noise_floor:
            for _ in range(ARMIJO_MAX_STEPS):
                x_t, at_t, h_t = trial(t, d, w)
                if h_t >= h_val + ARMIJO_SLOPE * t * slope:
                    accepted = True
                    break
                t *= ARMIJO_SHRINK
        if not accepted:
            x_t, at_t, h_t = trial(1.0, d, w)
            if h_t < h_val - noise_floor:
                stop = "stalled: the next Newton step descends"
                break
        x, terms, h_val = x_t, at_t, h_t
        trace.append(h_val)
        if h_val > best[0]:
            best = (h_val, x, terms)
    else:
        stop = "hit the iteration cap"
    grad = (cols_h @ best[2].weights).view(float) - 2.0 * best[1]
    raise ConvergenceError(
        f"restricted maximize did not reach tol {inner_tol} in {len(trace) - 1} "
        f"Newton iterations ({stop})",
        best=best[1].view(complex),
        grad_norm=float(np.linalg.norm(grad)),
    )


# -- retired pursuit loops ----------------------------------------------------


def _oracle_support_of(x):
    return np.nonzero(x)[0]


def oracle_restricted(ctx, support, init, inner_tol, keep=None):
    """The folded solve from init at length B, and its h trace (the interface until e6aac74)."""
    values, h_trace = oracle_folded_restricted_maximize(ctx, support, x0=init[support],
                                                        inner_tol=inner_tol, keep=keep)
    x = np.zeros(ctx.op.B, dtype=complex)
    x[support] = values
    return x, h_trace


def oracle_grasp_step(ctx, config, x, bands, trace):
    """solvers._grasp_step on length-B iterates, until a967ef7 carried supports."""
    L = config.sparsity
    z = grad_h(ctx, x)
    idx = _threshold(z, x, 2 * L, bands)
    merged = np.union1d(idx, _oracle_support_of(x))
    if merged.size > 3 * L:
        raise CapacityError("merged support exceeds 3L")
    # Debiasing keeps only which L entries lead, so that solve may stop
    # once they are certain.
    b_vec, _ = oracle_restricted(ctx, merged, x, config.inner_tol,
                                 keep=L if config.debias else None)
    keep = hard_threshold(b_vec, L)
    pruned = np.zeros_like(b_vec)
    pruned[keep] = b_vec[keep]
    if config.debias:
        pruned_support = _oracle_support_of(pruned)
        # On an unchanged support the current iterate is the maximizer.
        start = x if np.array_equal(pruned_support, _oracle_support_of(x)) else pruned
        x_new, h_trace = oracle_restricted(ctx, pruned_support, start, config.inner_tol)
        trace.append(h_trace[-1])
        return x_new
    trace.append(loglik(ctx, ctx.op.columns(keep) @ pruned[keep]) + g_logprior(pruned))
    return pruned


def oracle_grahtp_step(ctx, config, x, bands, trace):
    """solvers._grahtp_step on length-B iterates, until a967ef7 carried supports."""
    L = config.sparsity
    at_x = likelihood(ctx, ctx.op.apply(x))
    g = ctx.op.apply_adjoint(at_x.weights) - 2.0 * x
    kappa = solvers_module._backtrack_gradient_step(ctx, x, _oracle_support_of(x), at_x, g)
    idx = _threshold(x + kappa * g, x, L, bands)
    x_new, h_trace = oracle_restricted(ctx, idx, x, config.inner_tol)
    trace.append(h_trace[-1])
    return x_new


def oracle_pursuit(ctx, config, use_bms, step):
    """The outer loop as it was, finding each support with np.nonzero.

    _pursuit_loop until a967ef7; its steps form each image and likelihood
    afresh, as until 05bcb5e.
    """
    bands = ctx.op.bands_at(config.eta) if use_bms else None
    x = np.zeros(ctx.op.B, dtype=complex)
    prev_support = frozenset()
    visited = {prev_support}
    trace = []
    halted_by = "max-iters"
    iterations = 0
    for _ in range(config.max_outer_iters):
        iterations += 1
        x = step(ctx, config, x, bands, trace)
        support = _oracle_support_of(x)
        new_support = frozenset(support.tolist())
        if new_support == prev_support:
            halted_by = "support-fixed"
            break
        if new_support in visited:
            halted_by = "cycle"
            break
        visited.add(new_support)
        prev_support = new_support
    return SolverReport(estimate=SparseEstimate(x_hat=x, support=support),
                        iterations=iterations, halted_by=halted_by, objective_trace=trace)


def oracle_backtrack_gradient_step(ctx, x, g, shrink=0.5, slope=0.1, max_steps=50):
    """Armijo search by an apply per trial (_backtrack_gradient_step until 1a3e5b5)."""
    h0 = h_objective(ctx, x)
    gn2 = float(np.vdot(g, g).real)
    if gn2 == 0.0:
        return 1.0
    t = 1.0
    for _ in range(max_steps):
        if h_objective(ctx, x + t * g) >= h0 + slope * t * gn2:
            return t
        t *= shrink
    return t


# -- retired FISTA: the one-shot finish, the working-set solve without a
# finish, the full-length solve, and the solve applying every product ---------


def fista_step(ctx):
    """run_fista's first step size, 1 / (2 rho ||A||^2)."""
    sigma = ctx.op.spectral_norm_estimate()
    return 1.0 / max(2.0 * ctx.rho * sigma * sigma, 1e-3)


def one_shot_fista_finish(ctx, gamma, support, values, u):
    """solvers._fista_finish until d8a3c45, before a refused certificate grew the set.

    The same Newton loop, crossing rule and certificate; a failed
    certificate returns None.  Where it certifies, the grown finish agrees.
    """
    penalty = solvers_module._l1_penalty(gamma)
    start = likelihood(ctx, u)
    trace = []
    while support.size:
        try:
            values, steps, terms, crossed = solvers_module._newton_loop(
                ctx, support, values, solvers_module.FINISH_TOL * math.sqrt(support.size),
                penalty, start=start)
        except (ConvergenceError, np.linalg.LinAlgError):
            return None
        trace += steps[1:]
        if crossed is None:
            off = np.abs(ctx.op.apply_adjoint(terms.weights)) > gamma
            off[support] = False
            return None if off.any() else (support, values, trace)
        support, values, start = support[~crossed], values[~crossed], None
    return None


def working_set_fista(ctx, gamma, max_iters=500, tol=FISTA_TOL):
    """run_fista on its working set, ending at the tolerance tol, without the Newton finish.

    It stood for run_fista until a795136 let the solve finish on its
    settled nonzero set by Newton; up to the finish, run_fista's trace is
    its trace bit for bit.  Run to a tight tol, it approaches the l1
    optimum that a finished solve certifies.
    """
    if not 0 < gamma < math.inf:
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    op = ctx.op
    step = fista_step(ctx)

    def violators(g):
        off = np.abs(g) > gamma
        off[W] = False
        return np.flatnonzero(off)

    def failure(message):
        return ConvergenceError(message, best=_scatter(op.B, W, x_prev)[0])

    W = np.zeros(0, dtype=int)
    x_prev = np.zeros(0, dtype=complex)
    u_prev = np.zeros(op.M * op.T, dtype=complex)
    at_y = ctx.at_zero
    obj_prev = at_y.f - gamma * float(np.sum(np.abs(x_prev)))
    g = ctx.gradient_at_zero
    new = violators(g)
    y, u_y, z_prev = x_prev, u_prev, x_prev
    t_mom = 1.0
    trace = [obj_prev]
    passes = 0
    halted_by = "max-iters"
    for _ in range(max_iters):
        if new is None:
            at_y = likelihood(ctx, u_y)
            gy = part.adjoint(at_y.weights)
        else:
            W = np.concatenate([W, new])
            x_prev, z_prev = np.pad(x_prev, (0, new.size)), np.pad(z_prev, (0, new.size))
            y, gy, new = x_prev, g[W], None
            part = op.restricted(W)
        fy = at_y.f
        if not np.isfinite(fy):
            raise failure("objective became non-finite")
        if passes == 3:
            step *= 2.0
            passes = 0
        passes += 1
        while True:
            z = _soft_threshold(y + step * gy, gamma * step)
            dz = z - y
            u_z = part.image(z)
            fz = loglik(ctx, u_z)
            quad = fy + float(np.vdot(gy, dz).real) - float(np.vdot(dz, dz).real) / (2.0 * step)
            if fz >= quad - 1e-12 * abs(quad):
                break
            step *= 0.5
            passes = 0
            if step < 1e-18:
                raise failure("step size underflow in FISTA")
        obj_z = fz - gamma * float(np.sum(np.abs(z)))
        if not np.isfinite(obj_z):
            raise failure("objective became non-finite")
        if obj_z >= obj_prev:
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_mom * t_mom))
            b = (t_mom - 1.0) / t_next
            y = z + b * (z - x_prev)
            u_y = u_z + b * (u_z - u_prev)
            x_new, u_new, obj_new, t_mom = z, u_z, obj_z, t_next
        else:
            x_new, u_new, obj_new = x_prev, u_prev, obj_prev
            y, u_y, t_mom = x_prev, u_prev, 1.0
        trace.append(obj_new)
        converged = np.linalg.norm(z - z_prev) <= tol * max(1.0, np.linalg.norm(z))
        x_prev, u_prev, obj_prev, z_prev = x_new, u_new, obj_new, z
        if converged:
            at_y = likelihood(ctx, u_prev)
            g = op.apply_adjoint(at_y.weights)
            new = violators(g)
            if new.size == 0:
                halted_by = "converged"
                break
            u_y, t_mom = u_prev, 1.0
    keep = np.abs(x_prev) > FISTA_SUPPORT_EPS
    x_final, support = _scatter(op.B, W[keep], x_prev[keep])
    estimate = SparseEstimate(x_hat=x_final, support=np.sort(support))
    return SolverReport(estimate=estimate, iterations=len(trace) - 1,
                        halted_by=halted_by, objective_trace=trace)


def full_length_fista(ctx, gamma, max_iters=500):
    """The monotone FISTA with every vector of length B, before the working set.

    It stood for run_fista until c9ac0a7 moved the iterates onto a working
    set of columns.  Returns its SolverReport and the mask of the columns
    that any accepted step-size trial's prox point made nonzero.
    """
    if not 0 < gamma < math.inf:
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    op = ctx.op
    step = fista_step(ctx)

    x_prev = np.zeros(op.B, dtype=complex)
    u_prev = np.zeros(op.M * op.T, dtype=complex)    # A x_prev
    obj_prev = loglik(ctx, u_prev) - gamma * float(np.sum(np.abs(x_prev)))
    y, u_y = x_prev, u_prev
    t_mom = 1.0
    trace = [obj_prev]
    z_prev = x_prev
    touched = np.zeros(op.B, dtype=bool)
    passes = 0    # iterations in a row whose first step-size trial passed
    halted_by = "max-iters"

    for _ in range(max_iters):
        at_y = likelihood(ctx, u_y)
        gy = op.apply_adjoint(at_y.weights)
        fy = at_y.f
        if not np.isfinite(fy):
            raise ConvergenceError("objective became non-finite", best=x_prev)
        if passes == 3:
            step *= 2.0
            passes = 0
        passes += 1
        while True:
            z = _soft_threshold(y + step * gy, gamma * step)
            dz = z - y
            u_z = op.apply(z)
            fz = loglik(ctx, u_z)
            quad = fy + float(np.vdot(gy, dz).real) - float(np.vdot(dz, dz).real) / (2.0 * step)
            if fz >= quad - 1e-12 * abs(quad):
                break
            step *= 0.5
            passes = 0
            if step < 1e-18:
                raise ConvergenceError("step size underflow in FISTA", best=x_prev)
        touched |= z != 0
        obj_z = fz - gamma * float(np.sum(np.abs(z)))
        if not np.isfinite(obj_z):
            raise ConvergenceError("objective became non-finite", best=x_prev)

        if obj_z >= obj_prev:
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_mom * t_mom))
            b = (t_mom - 1.0) / t_next
            y = z + b * (z - x_prev)
            u_y = u_z + b * (u_z - u_prev)
            x_new, u_new, obj_new, t_mom = z, u_z, obj_z, t_next
        else:
            # The guard keeps x_prev; restart the momentum from it.
            x_new, u_new, obj_new = x_prev, u_prev, obj_prev
            y, u_y, t_mom = x_prev, u_prev, 1.0

        trace.append(obj_new)
        converged = np.linalg.norm(z - z_prev) <= FISTA_TOL * max(1.0, np.linalg.norm(z))
        x_prev, u_prev, obj_prev, z_prev = x_new, u_new, obj_new, z
        if converged:
            halted_by = "converged"
            break

    x_final = x_prev.copy()
    x_final[np.abs(x_final) <= FISTA_SUPPORT_EPS] = 0.0
    estimate = SparseEstimate(x_hat=x_final, support=np.flatnonzero(x_final))
    report = SolverReport(estimate=estimate, iterations=len(trace) - 1,
                          halted_by=halted_by, objective_trace=trace)
    return report, touched


def fista_applying_every_product(ctx, gamma, max_iters=500, tol=1e-6):
    """Monotone FISTA applying the operator for every f and gradient.

    It stood for run_fista until 1a3e5b5 carried A x by linearity (and
    dbd37b8 grew its step); its momentum is Beck and Teboulle's monotone
    form.  Returns the eps-thresholded estimate and the trace.
    """
    step = fista_step(ctx)

    x_prev = np.zeros(ctx.op.B, dtype=complex)
    obj_prev = f_loglik(ctx, x_prev) - gamma * float(np.sum(np.abs(x_prev)))
    y = x_prev
    t_mom = 1.0
    trace = [obj_prev]
    z_prev = x_prev
    for _ in range(max_iters):
        gy = grad_h(ctx, y) + 2.0 * y
        fy = f_loglik(ctx, y)
        while True:
            z = _soft_threshold(y + step * gy, gamma * step)
            dz = z - y
            fz = f_loglik(ctx, z)
            quad = fy + float(np.vdot(gy, dz).real) - float(np.vdot(dz, dz).real) / (2.0 * step)
            if fz >= quad - 1e-12 * abs(quad):
                break
            step *= 0.5
        obj_z = fz - gamma * float(np.sum(np.abs(z)))
        if obj_z >= obj_prev:
            x_new, obj_new = z, obj_z
        else:
            x_new, obj_new = x_prev, obj_prev
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_mom * t_mom))
        y = x_new + (t_mom / t_next) * (z - x_new) + ((t_mom - 1.0) / t_next) * (x_new - x_prev)
        t_mom = t_next
        trace.append(obj_new)
        converged = np.linalg.norm(z - z_prev) <= tol * max(1.0, np.linalg.norm(z))
        x_prev, obj_prev, z_prev = x_new, obj_new, z
        if converged:
            break
    x_final = x_prev.copy()
    x_final[np.abs(x_final) <= FISTA_SUPPORT_EPS] = 0.0
    return x_final, trace


# -- retired gamma searches ---------------------------------------------------


def oracle_tune_gamma(make_ctx, L, trials, lo=1e-6, hi=1e6, max_bisect=60):
    """Bisect log(gamma) over the fixed [lo, hi] to a mean support near 3L (until df36c05)."""
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
    """The search as two loops: halve from gamma_max, then bisect log(gamma).

    It stood for tune_gamma until 590014a made the search one bracketing
    loop.  It solves every problem at every gamma, as tune_gamma did until
    11c0c50 stopped an evaluation once its mean was above the window.
    """
    target = 3 * L
    evaluations = []

    def mean_support(gamma):
        mean = float(np.mean([fista(c, gamma).estimate.support.size for c in ctxs]))
        evaluations.append((gamma, mean))
        return mean

    gamma_max = 0.0
    for c in ctxs:
        gamma_max = max(gamma_max, zero_threshold(c))
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

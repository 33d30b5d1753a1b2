"""References the tests check the library against, kept out of the library.

The library applies A = G kron A_RX only through its two factors and lays
the likelihood out one way, as u.view(float); the dense matrix and the
stacked real form are formed here, where they are checked.  Retired operator
products and solver implementations live here too, each with a note of
what it stood for.
(Not named ``reference``: sweepbench/, which some tests put on sys.path,
has a module of that name.)
"""

import itertools
import math

import numpy as np

import onebitcs.solvers as solvers_module
from onebitcs.errors import ConvergenceError, TuningError
from onebitcs.model import dft_dictionary, draw_channel, synthesize_measurement, zc_training
from onebitcs.objective import ObjectiveContext, f_loglik, grad_h, likelihood, loglik
from onebitcs.operator import build_operator
from onebitcs.solvers import (
    ARMIJO_MAX_STEPS,
    ARMIJO_SHRINK,
    ARMIJO_SLOPE,
    FISTA_SUPPORT_EPS,
    FISTA_TOL,
    SolverReport,
    SparseEstimate,
    _hessian_factors,
    _ROW_MIX,
    _kept_set_is_certain,
    _scatter,
    _soft_threshold,
    run_fista,
)


def dense_matrix(op):
    """The M*T x B matrix A = G kron A_RX that op applies through its factors."""
    return np.kron(op.G, op.A_RX)


def real_form(x):
    """Stack the real part over the imaginary part."""
    x = np.asarray(x)
    return np.concatenate([x.real, x.imag])


def complex_form(v):
    """Inverse of :func:`real_form`."""
    v = np.asarray(v)
    if v.shape[0] % 2 != 0:
        raise ValueError(f"real-form vector must have even length, got {v.shape[0]}")
    half = v.shape[0] // 2
    return v[:half] + 1j * v[half:]


def make_ctx(seed, rho, m=4, n=4, t=6, b=8, paths=2):
    """The objective of one drawn channel on square DFT dictionaries of b bins."""
    rng = np.random.default_rng(seed)
    tr = zc_training(n, t)
    op = build_operator(tr.S, dft_dictionary(m, b), dft_dictionary(n, b), "fft")
    H = draw_channel(paths, m, n, rng).H
    return ObjectiveContext(op, synthesize_measurement(H, tr.S, rho, rng))


# -- retired operator products -------------------------------------------------


def _is_dft_grid(factor):
    m, bins = factor.shape
    if bins < m:
        return False
    return np.allclose(factor, dft_dictionary(m, bins), rtol=0.0, atol=1e-12)


class OracleDictProduct:
    """Multiply by one dictionary factor, with the FFT fast path on the grid.

    It and oracle_apply / oracle_apply_adjoint stood for SensingOperator's
    apply and apply_adjoint before the two-factor products: truncated,
    phase-twisted FFTs when the factor sat on the canonical DFT grid, dense
    matmul otherwise, with column-major (order="F") reshapes around them.
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
    its size rule, before they went through the factor bins idx touches.
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


# -- retired solvers ----------------------------------------------------------


def prior_neg_hessian(factors, curv):
    """solvers._neg_hessian with the prior's 2I written in, added before the row mix."""
    mix, rx, tx = factors
    pq = mix @ curv.reshape(-1, 2).T
    r = np.matmul(pq.reshape(2, tx.shape[1], -1), rx).view(complex)
    r *= tx
    h = r.sum(axis=1)
    q = math.isqrt(h.shape[1])
    h[0, :: q + 1] += 2.0
    return (_ROW_MIX @ h.reshape(2, q, q).transpose(1, 0, 2)).view(float).reshape(2 * q, 2 * q)


def prior_restricted_maximize(ctx, support, x0=None, inner_tol=1e-8, keep=None, start=None):
    """restricted_maximize with the Gaussian prior written into its Newton loop.

    It and prior_neg_hessian stood for restricted_maximize and
    _neg_hessian until the loop took its penalty as an argument, so that
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
        d = np.linalg.solve(prior_neg_hessian(factors, terms.lam * (terms.v + terms.lam)), grad)
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


def working_set_fista(ctx, gamma, max_iters=500, tol=FISTA_TOL):
    """run_fista on its working set, ending at the tolerance tol, without the Newton finish.

    It stood for run_fista until the solve learned to finish on its settled
    nonzero set by Newton; up to the finish, run_fista's trace is its
    trace bit for bit.  Run to a tight tol, it approaches the l1 optimum
    that a finished solve certifies.
    """
    if not 0 < gamma < math.inf:
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    op = ctx.op
    sigma = op.spectral_norm_estimate()
    step = 1.0 / max(2.0 * ctx.rho * sigma * sigma, 1e-3)

    def penalty(x):
        return gamma * float(np.sum(np.abs(x)))

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
    obj_prev = at_y.f - penalty(x_prev)
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
        obj_z = fz - penalty(z)
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

    It stood for run_fista until the iterates moved onto a working set of
    columns.  Returns its SolverReport and the mask of the columns that any
    accepted step-size trial's prox point made nonzero.
    """
    if not 0 < gamma < math.inf:
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    op = ctx.op

    sigma = op.spectral_norm_estimate()
    lip = max(2.0 * ctx.rho * sigma * sigma, 1e-3)
    step = 1.0 / lip

    def penalty(x):
        return gamma * float(np.sum(np.abs(x)))

    x_prev = np.zeros(op.B, dtype=complex)
    u_prev = np.zeros(op.M * op.T, dtype=complex)    # A x_prev
    obj_prev = loglik(ctx, u_prev) - penalty(x_prev)
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
        obj_z = fz - penalty(z)
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

    It stood for run_fista before the solve carried A x by linearity and
    grew its step; its momentum is Beck and Teboulle's monotone form.
    Returns the eps-thresholded estimate and the trace.
    """
    sigma = ctx.op.spectral_norm_estimate()
    step = 1.0 / max(2.0 * ctx.rho * sigma * sigma, 1e-3)

    def penalty(x):
        return gamma * float(np.sum(np.abs(x)))

    x_prev = np.zeros(ctx.op.B, dtype=complex)
    obj_prev = f_loglik(ctx, x_prev) - penalty(x_prev)
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
        obj_z = fz - penalty(z)
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


def oracle_tune_gamma(make_ctx, L, trials, lo=1e-6, hi=1e6, max_bisect=60):
    """Bisect log(gamma) over [lo, hi] until the mean support is near 3L.

    It stood for tune_gamma when the search bracket was fixed, not started
    at the problems' zero threshold.
    """
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

    It stood for tune_gamma before the search was one bracketing loop and
    before an evaluation stopped once its mean was above the window; it
    solves every problem at every gamma.
    """
    target = 3 * L
    evaluations = []

    def mean_support(gamma):
        mean = float(np.mean([fista(c, gamma).estimate.support.size for c in ctxs]))
        evaluations.append((gamma, mean))
        return mean

    gamma_max = 0.0
    for c in ctxs:
        at_zero = likelihood(c, np.zeros(c.op.M * c.op.T, dtype=complex))
        gamma_max = max(gamma_max, float(np.max(np.abs(c.op.apply_adjoint(at_zero.weights)))))
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

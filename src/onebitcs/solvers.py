"""Sparse MAP solvers: band-maximum thresholding, gradient pursuit, FISTA.

The hard-thresholding pursuit loops alternate support identification (hard
thresholding of the gradient, optionally filtered by the band-maximum
criterion) with exact concave maximization restricted to the identified
support.  A brute-force support-enumeration oracle is included for tests.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, ConvergenceError, NumericalError, TuningError
from .objective import (
    ObjectiveContext,
    g_logprior,
    grad_h,
    h_objective,
    likelihood,
    loglik,
)
from .operator import (
    CoherenceStructure,
    coherence_bands,
    complex_form,
    real_form,
    select_eta,
)

__all__ = [
    "SparseEstimate",
    "LineSearchParams",
    "SolverConfig",
    "SolverReport",
    "hard_threshold",
    "bms_threshold",
    "restricted_maximize",
    "run_grasp",
    "run_grahtp",
    "run_fista",
    "tune_gamma",
    "brute_force_map",
]

FISTA_SUPPORT_EPS = 1e-8


@dataclass(frozen=True, eq=False)
class SparseEstimate:
    """A complex estimate together with its (sorted) support set."""

    x_hat: np.ndarray
    support: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "support", np.asarray(self.support, dtype=int))


@dataclass(frozen=True)
class LineSearchParams:
    """Armijo backtracking parameters."""

    shrink: float = 0.5
    slope: float = 0.1
    max_steps: int = 50


@dataclass(frozen=True)
class SolverConfig:
    """Knobs shared by the pursuit solvers.

    eta is "auto" (pick the largest threshold keeping every coherence band
    nontrivial), an explicit float in (0, 1), or None to disable banding.
    """

    sparsity: int
    eta: object = "auto"
    max_outer_iters: int = 50
    inner_tol: float = 1e-8
    line_search: LineSearchParams = field(default_factory=LineSearchParams)
    debias: bool = False
    max_inner_iters: int = 100

    def __post_init__(self):
        if self.sparsity < 1:
            raise ValueError(f"sparsity must be >= 1, got {self.sparsity}")
        if self.inner_tol <= 0:
            raise ValueError("inner_tol must be positive")
        if self.max_outer_iters < 1 or self.max_inner_iters < 1:
            raise ValueError("iteration caps must be positive")


@dataclass(frozen=True, eq=False)
class SolverReport:
    """Outcome of one pursuit run.

    halted_by is one of "support-fixed", "max-iters", "cycle".
    """

    estimate: SparseEstimate
    iterations: int
    halted_by: str
    objective_trace: list


def _support_of(x: np.ndarray) -> np.ndarray:
    return np.nonzero(x)[0]


def _descending_prefixes(mags: np.ndarray, count: int):
    """Yield ever longer prefixes of the indices by descending mags.

    Ties go to the lowest index.  The first prefix holds at least `count`
    indices and each later one at least four times as many as the one
    before; every prefix ends with all the indices tied with its last
    magnitude, so each extends the one before, and the last is the whole
    order.  Only the entries at or above the count-th largest magnitude are
    sorted.
    """
    vals = mags[mags > 0]     # np.partition is slow on a long, mostly zero vector
    while 0 < count <= vals.size:
        kth = np.partition(vals, vals.size - count)[vals.size - count]
        top = np.flatnonzero(mags >= kth)
        yield top[np.argsort(-mags[top], kind="stable")]
        count = 4 * top.size
    # Past the nonzeros every zero ties with the last magnitude.
    nz = np.flatnonzero(mags)
    yield np.concatenate([nz[np.argsort(-mags[nz], kind="stable")], np.flatnonzero(mags == 0)])


def hard_threshold(z: np.ndarray, budget: int):
    """Best budget-term approximation of z.

    Returns (sorted selected indices, thresholded copy).  Ties in magnitude
    are broken toward the lowest index.
    """
    z = np.asarray(z)
    keep = np.sort(next(_descending_prefixes(np.abs(z), budget))[: max(budget, 0)])
    out = np.zeros_like(z)
    out[keep] = z[keep]
    return keep, out


def _band_admits(candidates, mags, current_x, bands: CoherenceStructure) -> np.ndarray:
    """Mask of the candidates that no by-product of their band blocks.

    A by-product j of candidate i is another member of band(i) with
    current_x[j] == current_x[i]; it blocks i when |z_j| >= |z_i|.
    """
    starts = bands.indptr[candidates]
    lengths = bands.indptr[candidates + 1] - starts
    slot = np.repeat(np.arange(candidates.size), lengths)
    offsets = np.cumsum(lengths) - lengths
    members = bands.indices[np.arange(slot.size) - offsets[slot] + starts[slot]]
    owners = candidates[slot]
    blocked = ((members != owners) & (current_x[members] == current_x[owners])
               & (mags[members] >= mags[owners]))
    return np.bincount(slot[blocked], minlength=candidates.size) == 0


def bms_threshold(
    z: np.ndarray,
    current_x: np.ndarray,
    budget: int,
    bands: CoherenceStructure,
):
    """Band-maximum hard thresholding of a score vector.

    Scans candidates by descending |z|, ties toward the lowest index.  For
    candidate i the by-product set collects the other band members whose
    current estimate value equals the candidate's bitwise (the case that
    matters: off-support entries are exactly zero in every pursuit
    iterate); i is admitted only when |z_i| strictly exceeds the score of
    every by-product (an empty by-product set always admits).  Candidates
    whose score exactly ties their by-product maximum are rejected, and so
    is the tied by-product when its turn comes; fewer than `budget` indices
    can therefore be returned even when B >= budget.  The first `budget`
    admitted candidates are selected.

    Admission depends only on z, current_x and band(i), never on which
    candidates were selected before, so it is evaluated for a whole prefix
    of the scan order at once; the prefix grows fourfold until it admits
    `budget` candidates or covers every index.

    Returns (sorted selected indices, z restricted to them).
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    z = np.asarray(z)
    current_x = np.asarray(current_x)
    mags = np.abs(z)
    admitted = []
    found = scanned = 0
    for order in _descending_prefixes(mags, budget):
        tail = order[scanned:]
        scanned = order.size
        admitted.append(tail[_band_admits(tail, mags, current_x, bands)])
        found += admitted[-1].size
        if found >= budget:
            break
    keep = np.sort(np.concatenate(admitted)[:budget])
    out = np.zeros_like(z)
    out[keep] = z[keep]
    return keep, out


# -- restricted concave maximization ---------------------------------------


def _real_embed(cols: np.ndarray) -> np.ndarray:
    """Real form of a complex column block: [[Re, -Im], [Im, Re]]."""
    return np.block([[cols.real, -cols.imag], [cols.imag, cols.real]])


def restricted_maximize(
    ctx: ObjectiveContext,
    support,
    init: np.ndarray | None = None,
    inner_tol: float = 1e-8,
    line_search: LineSearchParams = LineSearchParams(),
    max_iters: int = 100,
    return_trace: bool = False,
):
    """Maximize the penalized log-likelihood over {x : supp(x) <= support}.

    The objective is strictly concave (the prior contributes -2I to the
    Hessian), so the maximizer is unique; iterates ascend along Newton
    directions with Armijo backtracking until the restricted gradient norm
    drops to inner_tol.  Works entirely through the restricted column block
    of the operator, so the cost per iteration is O(M*T*|support|^2).

    Returns the full-length maximizer (zeros off the support), or raises
    ConvergenceError carrying the best iterate if the cap is hit.
    """
    support = np.asarray(sorted(int(s) for s in support), dtype=int)
    B = ctx.op.B
    full = np.zeros(B, dtype=complex)
    if support.size == 0:
        return (full, [h_objective(ctx, full)]) if return_trace else full

    if init is None:
        x = np.zeros(support.size, dtype=complex)
    else:
        init = np.asarray(init, dtype=complex)
        outside = np.setdiff1d(_support_of(init), support)
        if outside.size:
            raise ValueError("init has mass outside the requested support")
        x = init[support].copy()

    cols = ctx.op.columns(support)            # (MT, q)
    cols_r = _real_embed(cols)                # (2MT, 2q)
    rho_term = ctx._signs * ctx._signs        # 2*rho elementwise

    def h_at(u_t, x_t):
        # Every trial point carries its likelihood terms, so the accepted
        # one supplies the next iteration's gradient and curvature.
        terms = likelihood(ctx, u_t)
        xr = real_form(x_t)
        return terms, terms.f - float(xr @ xr)

    u = cols @ x
    terms, h_val = h_at(u, x)
    trace = [h_val]
    best = (h_val, x.copy())

    for _ in range(max_iters):
        grad_c = cols.conj().T @ terms.weights - 2.0 * x
        g_r = real_form(grad_c)
        gnorm = np.linalg.norm(g_r)
        if gnorm <= inner_tol:
            full[support] = x
            return (full, trace) if return_trace else full

        # Negative Hessian 2I + A_R^T diag(2 rho lam (v + lam)) A_R is SPD.
        d_weights = rho_term * terms.lam * (terms.v + terms.lam)
        neg_hess = 2.0 * np.eye(2 * support.size) + cols_r.T @ (d_weights[:, None] * cols_r)
        d_r = np.linalg.solve(neg_hess, g_r)
        d_c = complex_form(d_r)
        slope = float(g_r @ d_r)              # > 0: ascent direction

        w = cols @ d_c
        noise_floor = 1e-12 * (1.0 + abs(h_val))
        t = 1.0
        accepted = False
        if slope > noise_floor:
            for _ in range(line_search.max_steps):
                trial, h_t = h_at(u + t * w, x + t * d_c)
                if h_t >= h_val + line_search.slope * t * slope:
                    accepted = True
                    break
                t *= line_search.shrink
        if not accepted:
            # Near the optimum the Armijo gain falls below the rounding
            # noise of h, making backtracking comparisons meaningless; the
            # raw Newton step still contracts the gradient quadratically,
            # so take it unless it measurably descends.
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

    full[support] = best[1]
    grad_c = cols.conj().T @ likelihood(ctx, cols @ best[1]).weights - 2.0 * best[1]
    raise ConvergenceError(
        f"restricted maximize did not reach tol {inner_tol} in {max_iters} iterations",
        best=full,
        grad_norm=float(np.linalg.norm(real_form(grad_c))),
    )


# -- pursuit loops -----------------------------------------------------------


def _resolve_bands(op, config: SolverConfig):
    """Coherence bands for the configured eta, or None when banding is off."""
    if config.eta is None:
        return None
    if isinstance(config.eta, str):
        if config.eta != "auto":
            raise ValueError(f"eta must be 'auto', None, or a float, got {config.eta!r}")
        selection = select_eta(op)
        if selection.eta is None:
            return None
        return coherence_bands(op, selection.eta)
    return coherence_bands(op, float(config.eta))


def _threshold(z, x, budget, bands, config, use_bms):
    if use_bms and bands is not None:
        idx, _ = bms_threshold(z, x, budget, bands)
    else:
        idx, _ = hard_threshold(z, budget)
    return idx


def _pursuit_loop(ctx, config, use_bms, step):
    """Shared outer loop: halt on fixed support, revisited support, or cap.

    Each step appends h at its new iterate to the objective trace from
    values it already holds, so the trace costs no operator apply.
    """
    bands = _resolve_bands(ctx.op, config) if use_bms else None
    x = np.zeros(ctx.op.B, dtype=complex)
    prev_support = frozenset()
    visited = {prev_support}
    trace = []
    halted_by = "max-iters"
    iterations = 0
    for _ in range(config.max_outer_iters):
        iterations += 1
        x = step(ctx, config, x, bands, trace)
        new_support = frozenset(int(i) for i in _support_of(x))
        if new_support == prev_support:
            halted_by = "support-fixed"
            break
        if new_support in visited:
            halted_by = "cycle"
            break
        visited.add(new_support)
        prev_support = new_support
    estimate = SparseEstimate(x_hat=x, support=np.sort(_support_of(x)))
    return SolverReport(estimate=estimate, iterations=iterations,
                        halted_by=halted_by, objective_trace=trace)


def _grasp_step(ctx, config, x, bands, trace=None):
    """One GraSP iteration from x; appends h at the new point to trace."""
    L = config.sparsity
    z = grad_h(ctx, x)
    idx = _threshold(z, x, 2 * L, bands, config, use_bms=bands is not None)
    merged = np.union1d(idx, _support_of(x))
    if merged.size > 3 * L:
        raise CapacityError(f"merged support of {merged.size} exceeds the 3L = {3 * L} budget")
    b_vec = restricted_maximize(
        ctx, merged, init=x, inner_tol=config.inner_tol,
        line_search=config.line_search, max_iters=config.max_inner_iters,
    )
    keep, pruned = hard_threshold(b_vec, L)
    if config.debias:
        x_new, h_trace = restricted_maximize(
            ctx, _support_of(pruned), init=pruned, inner_tol=config.inner_tol,
            line_search=config.line_search, max_iters=config.max_inner_iters,
            return_trace=True,
        )
        h = h_trace[-1]
    else:
        x_new = pruned
        h = loglik(ctx, ctx.op.columns(keep) @ pruned[keep]) + g_logprior(pruned)
    if trace is not None:
        trace.append(h)
    return x_new


def run_grasp(ctx: ObjectiveContext, config: SolverConfig, use_bms: bool) -> SolverReport:
    """Gradient support pursuit with 2L-term support identification.

    Per iteration the gradient is thresholded to 2L terms (band-maximum
    filtered when use_bms), merged with the current support, maximized over
    the merged set, and pruned back to L terms; with config.debias the
    restricted maximization is re-run on the pruned support instead of
    keeping the pruned values.  Halts when the support stops changing, on a
    revisited support, or at the iteration cap.
    """
    return _pursuit_loop(ctx, config, use_bms, _grasp_step)


def _grahtp_step(ctx, config, x, bands, trace=None):
    """One GraHTP iteration from x; appends h at the new point to trace."""
    L = config.sparsity
    u = ctx.op.apply(x)
    at_x = likelihood(ctx, u)
    g = ctx.op.apply_adjoint(at_x.weights) - 2.0 * x
    kappa = _backtrack_gradient_step(ctx, x, u, at_x.f + g_logprior(x), g,
                                     config.line_search)
    z = x + kappa * g
    idx = _threshold(z, x, L, bands, config, use_bms=bands is not None)
    if idx.size > L:
        raise CapacityError(f"thresholded support of {idx.size} exceeds the L = {L} budget")
    x_new, h_trace = restricted_maximize(
        ctx, idx, init=_mask_to(x, idx), inner_tol=config.inner_tol,
        line_search=config.line_search, max_iters=config.max_inner_iters,
        return_trace=True,
    )
    if trace is not None:
        trace.append(h_trace[-1])
    return x_new


def _mask_to(x, idx):
    out = np.zeros_like(x)
    out[idx] = x[idx]
    return out


def _backtrack_gradient_step(ctx, x, u, h0, g, ls: LineSearchParams) -> float:
    """Armijo backtracking for the ascent step size along the gradient.

    u = A x and h0 = h(x) are the caller's.  With w = A g formed once, the
    trial point x + t g has image u + t w, so the search costs one apply
    however often it backtracks.
    """
    gn2 = float(np.vdot(g, g).real)
    if gn2 == 0.0:
        return 1.0
    w = ctx.op.apply(g)
    t = 1.0
    for _ in range(ls.max_steps):
        if loglik(ctx, u + t * w) + g_logprior(x + t * g) >= h0 + ls.slope * t * gn2:
            return t
        t *= ls.shrink
    return t


def run_grahtp(ctx: ObjectiveContext, config: SolverConfig, use_bms: bool) -> SolverReport:
    """Gradient hard thresholding pursuit with an L-term support per iteration.

    The score vector is the current iterate plus a backtracked gradient
    step; its thresholded support (band-maximum filtered when use_bms) is
    maximized over exactly.  Halting matches run_grasp.
    """
    return _pursuit_loop(ctx, config, use_bms, _grahtp_step)


# -- FISTA baseline ----------------------------------------------------------


def _soft_threshold(v: np.ndarray, tau: float) -> np.ndarray:
    """Complex soft threshold: shrink magnitudes by tau, keep phases."""
    mag = np.abs(v)
    out = np.zeros_like(v)
    mask = mag > tau
    out[mask] = v[mask] * (1.0 - tau / mag[mask])
    return out


def run_fista(
    ctx: ObjectiveContext,
    gamma: float,
    max_iters: int = 500,
    tol: float = 1e-6,
    return_trace: bool = False,
):
    """Maximize f(x) - gamma * ||x||_1 by monotone accelerated proximal ascent.

    Gradient steps on the log-likelihood are followed by the complex soft
    threshold prox; the step size is backtracked against the usual quadratic
    model and the accepted iterate never decreases the objective (the
    momentum point only feeds the next gradient step).  A x is carried along
    with every iterate, and the momentum point's image is the same linear
    combination of images, so an iteration costs one adjoint and one apply
    per step-size trial.  Returns the final estimate with its eps-support
    (|x_b| > 1e-8); entries at or below the eps threshold are zeroed so the
    support contains supp(x_hat).
    """
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
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

    for _ in range(max_iters):
        at_y = likelihood(ctx, u_y)
        gy = op.apply_adjoint(at_y.weights)
        fy = at_y.f
        if not np.isfinite(fy):
            raise NumericalError("objective became non-finite", best=x_prev)
        while True:
            z = _soft_threshold(y + step * gy, gamma * step)
            dz = z - y
            u_z = op.apply(z)
            fz = loglik(ctx, u_z)
            quad = fy + float(np.vdot(gy, dz).real) - float(np.vdot(dz, dz).real) / (2.0 * step)
            if fz >= quad - 1e-12 * abs(quad):
                break
            step *= 0.5
            if step < 1e-18:
                raise NumericalError("step size underflow in FISTA", best=x_prev)
        obj_z = fz - penalty(z)
        if not np.isfinite(obj_z):
            raise NumericalError("objective became non-finite", best=x_prev)

        if obj_z >= obj_prev:
            x_new, u_new, obj_new = z, u_z, obj_z
        else:
            x_new, u_new, obj_new = x_prev, u_prev, obj_prev

        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_mom * t_mom))
        a, b = t_mom / t_next, (t_mom - 1.0) / t_next
        y = x_new + a * (z - x_new) + b * (x_new - x_prev)
        u_y = u_new + a * (u_z - u_new) + b * (u_new - u_prev)
        t_mom = t_next

        trace.append(obj_new)
        converged = np.linalg.norm(z - z_prev) <= tol * max(1.0, np.linalg.norm(z))
        x_prev, u_prev, obj_prev, z_prev = x_new, u_new, obj_new, z
        if converged:
            break

    x_final = x_prev.copy()
    x_final[np.abs(x_final) <= FISTA_SUPPORT_EPS] = 0.0
    estimate = SparseEstimate(x_hat=x_final, support=_support_of(x_final))
    return (estimate, trace) if return_trace else estimate


def tune_gamma(
    make_ctx,
    L: int,
    trials: int,
    lo: float = 1e-6,
    hi: float = 1e6,
    max_bisect: int = 60,
    fista_iters: int = 500,
    fista_tol: float = 1e-6,
):
    """Bisect log(gamma) until the mean FISTA eps-support size is near 3L.

    make_ctx(k) must build the k-th seeded problem instance.  The search
    premise is that mean support size decreases as gamma grows; the
    evaluation trace is checked against it and violations beyond one support
    unit raise TuningError, as does a bracket failure on [lo, hi].

    Returns (gamma, achieved_mean).
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    ctxs = [make_ctx(k) for k in range(trials)]
    target = 3 * L

    def mean_support(gamma):
        sizes = [
            run_fista(c, gamma, max_iters=fista_iters, tol=fista_tol).support.size
            for c in ctxs
        ]
        return float(np.mean(sizes))

    evaluations = []

    def record(gamma, mean):
        evaluations.append((gamma, mean))
        return mean

    m_lo = record(lo, mean_support(lo))
    m_hi = record(hi, mean_support(hi))
    if not (m_lo >= target and m_hi <= target):
        raise TuningError(
            f"no bracket in [{lo}, {hi}]: mean support {m_lo} at lo, {m_hi} at hi"
        )

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
            raise TuningError(
                f"support size not decreasing in gamma: {m1} at {g1}, {m2} at {g2}"
            )
    if result is None:
        raise TuningError(f"window [{target - 1}, {target + 1}] not reached "
                          f"in {max_bisect} bisections")
    return result


# -- exhaustive oracle -------------------------------------------------------


def brute_force_map(ctx: ObjectiveContext, L: int, budget: int = 10**5) -> SparseEstimate:
    """Exact sparse MAP solution by support enumeration (test scale only).

    Every size-min(L, B) support is maximized over exactly; smaller supports
    are subsets of enumerated ones and cannot beat them, so the best
    enumerated solve is the global optimum over all supports of size <= L.
    """
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    B = ctx.op.B
    k = min(L, B)
    if math.comb(B, k) > budget:
        raise CapacityError(
            f"{math.comb(B, k)} candidate supports exceed the budget {budget}"
        )
    best_val = -np.inf
    best_x = None
    best_support = None
    for support in itertools.combinations(range(B), k):
        x = restricted_maximize(ctx, support)
        val = h_objective(ctx, x)
        if val > best_val:
            best_val, best_x, best_support = val, x, support
    return SparseEstimate(x_hat=best_x, support=np.array(best_support, dtype=int))

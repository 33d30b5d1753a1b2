"""Sparse MAP solvers: band-maximum thresholding, gradient pursuit, FISTA.

The hard-thresholding pursuit loops alternate support identification (hard
thresholding of the gradient, optionally filtered by the band-maximum
criterion) with exact concave maximization restricted to the identified
support.  A brute-force support-enumeration oracle is included for tests.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import CapacityError, ConvergenceError, TuningError
from .objective import ImageTerms, ObjectiveContext, g_logprior, likelihood, loglik
from .operator import CoherenceStructure

__all__ = [
    "SparseEstimate",
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

# FISTA zeroes entries at or below FISTA_SUPPORT_EPS and stops once the prox
# point moves by at most FISTA_TOL relative to its norm.
FISTA_SUPPORT_EPS = 1e-8
FISTA_TOL = 1e-6
# FISTA tries its Newton finish once the accepted iterate's nonzero set has
# been the same for FINISH_STABLE_ITERS iterations and holds at most
# FINISH_MAX_SUPPORT entries; the finish stops at a restricted gradient of
# FINISH_TOL * sqrt(entries).
FINISH_STABLE_ITERS = 5
FINISH_MAX_SUPPORT = 32
FINISH_TOL = 1e-8
# Armijo backtracking: step shrink factor, sufficient-ascent slope, step cap.
ARMIJO_SHRINK = 0.5
ARMIJO_SLOPE = 0.1
ARMIJO_MAX_STEPS = 50
# Newton iterations a restricted solve takes before it gives up.
NEWTON_MAX_ITERS = 100
# Halvings of gamma, and then bisections of log(gamma), before tune_gamma
# gives up.
TUNE_MAX_BISECT = 60
# Most candidate supports brute_force_map enumerates, and the relative margin
# by which a later support's maximum must beat the best one to replace it.
ORACLE_BUDGET = 10**5
ORACLE_TIE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class SparseEstimate:
    """A complex estimate together with its (sorted) support set."""

    x_hat: np.ndarray
    support: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "support", np.asarray(self.support, dtype=int))


@dataclass(frozen=True)
class SolverConfig:
    """Knobs shared by the pursuit solvers.

    eta is "auto" (pick the largest threshold keeping every coherence band
    nontrivial) or an explicit float in (0, 1).  It matters only to the
    band-aware runs, ``run_grasp`` and ``run_grahtp`` with use_bms=True.
    """

    sparsity: int
    eta: object = "auto"
    max_outer_iters: int = 50
    inner_tol: float = 1e-8
    debias: bool = False

    def __post_init__(self):
        if self.sparsity < 1:
            raise ValueError(f"sparsity must be >= 1, got {self.sparsity}")
        if not 0 < self.inner_tol < math.inf:
            raise ValueError(f"inner_tol must be positive and finite, got {self.inner_tol}")
        if self.max_outer_iters < 1:
            raise ValueError(f"max_outer_iters must be positive, got {self.max_outer_iters}")
        if isinstance(self.eta, str):
            if self.eta != "auto":
                raise ValueError(f"eta must be 'auto' or a float, got {self.eta!r}")
        elif not 0.0 < float(self.eta) < 1.0:
            raise ValueError(f"explicit eta must be in (0, 1), got {self.eta}")


class SolverReport(NamedTuple):
    """Outcome of one solver run.

    halted_by is one of "support-fixed", "max-iters", "cycle" for the
    pursuits, "newton", "converged" or "max-iters" for FISTA, and
    "enumerated" for the oracle.
    """

    estimate: SparseEstimate
    iterations: int
    halted_by: str
    objective_trace: list


def _descending_prefixes(mags: np.ndarray, count: int):
    """Yield ever longer prefixes of the indices by descending mags.

    Ties go to the lowest index.  The first prefix holds at least `count`
    indices and each later one at least four times as many as the one
    before; every prefix ends with all the indices tied with its last
    magnitude, so each extends the one before, and the last is the whole
    order.  Only the entries at or above the count-th largest magnitude are
    sorted.
    """
    while 0 < count <= mags.size:
        kth = np.partition(mags, mags.size - count)[mags.size - count]
        top = np.flatnonzero(mags >= kth)
        yield top[np.argsort(-mags[top], kind="stable")]
        count = 4 * top.size
    yield np.argsort(-mags, kind="stable")


def hard_threshold(z: np.ndarray, budget: int):
    """Support of the best budget-term approximation of z.

    Returns the sorted selected indices.  Ties in magnitude are broken
    toward the lowest index.
    """
    return np.sort(next(_descending_prefixes(np.abs(z), budget))[: max(budget, 0)])


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
    `budget` candidates or covers every index.  The first prefix holds 4 *
    budget indices, since band blocking usually rejects some of the first
    budget: a pass that fell short would cost a second partition.

    Returns the sorted selected indices.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    current_x = np.asarray(current_x)
    mags = np.abs(z)
    admitted = []
    found = scanned = 0
    for order in _descending_prefixes(mags, 4 * budget):
        tail = order[scanned:]
        scanned = order.size
        admitted.append(tail[_band_admits(tail, mags, current_x, bands)])
        found += admitted[-1].size
        if found >= budget:
            break
    return np.sort(np.concatenate(admitted)[:budget])


# -- restricted concave maximization ---------------------------------------


# (c_re, c_im) -> (c_re + c_im, c_re - c_im), and the two rows of the negative
# Hessian that conj(H_c) and conj(H_s) make (see _neg_hessian).
_PLUS_MINUS = np.array([[1.0, 1.0], [1.0, -1.0]])
_ROW_MIX = np.array([[1.0, 1.0], [1j, -1j]])
# The Gaussian prior's curvature pair (2, 0) (see _neg_hessian).
_PRIOR_CURVATURE = np.array([[2.0], [0.0]], dtype=complex)


def _hessian_factors(ctx: ObjectiveContext, support: np.ndarray):
    """What _neg_hessian needs of the support, formed once per solve, at its first Newton step.

    rho times the plus-minus mix, the operator's receive pair products as
    their (2, M, 2q^2) float view, and its transmit pair products, (2, T,
    q*q) complex (see SensingOperator.pair_products).
    """
    rx, tx = ctx.op.pair_products(support)
    return (ctx.rho * _PLUS_MINUS, rx.reshape(2, ctx.op.M, -1).view(float),
            tx.reshape(2, ctx.op.T, -1))


def _neg_hessian(factors, curv: np.ndarray, penalty_curv=_PRIOR_CURVATURE) -> np.ndarray:
    """2 rho C_R^T diag(curv) C_R plus the penalty's curvature, over the interleaved real form.

    curv = lam .* (v + lam) is the likelihood's curvature in v, laid out as
    the image's float view, and factors is _hessian_factors' output; since
    every s_i^2 is 2 rho, the first term is the negative Hessian of f.
    Rows and columns run over the interleaved real form b.view(float),
    (Re b_0, Im b_0, Re b_1, ...).

    With P, Q = rho (c_re +- c_im) over the real-part and imaginary-part
    measurements (each (T, M)), the C_R^T diag C_R term is made of H_c =
    C^H P C and H_s = C^T Q C (Wirtinger calculus): row (j, Re) holds
    conj(H_c + H_s)[j] and row (j, Im) holds i conj(H_c - H_s)[j], each
    complex entry the pair (Re, Im) of two columns.  Every column of C is a
    Kronecker product, so both contract in two steps through the pair
    products: over m, one (T, M) x (M, 2q^2) product of P (and of Q) with
    the receive pairs' float view, and over t, the product with the
    transmit pairs summed down their T rows.  That is half the multiplies
    of the (2q x 2MT) x (2MT x 2q) product of the real-form block, and no
    such block is formed.

    penalty_curv is the penalty's curvature (see _Penalty): the pair (a,
    s), a real and s complex, as the rows of a (2, 1) or (2, q) array,
    added to the diagonals of conj(H_c) and conj(H_s) before the rows mix.
    It puts the (2, 2) block a I + [[Re s, Im s], [Im s, -Re s]] on entry
    j's diagonal: the prior's (2, 0), the default, is 2I, which makes the
    result SPD with eigenvalues at least 2.
    """
    mix, rx, tx = factors
    pq = mix @ curv.reshape(-1, 2).T
    r = np.matmul(pq.reshape(2, tx.shape[1], -1), rx).view(complex)
    r *= tx
    h = r.sum(axis=1)
    q = math.isqrt(h.shape[1])
    h[:, :: q + 1] += penalty_curv
    return (_ROW_MIX @ h.reshape(2, q, q).transpose(1, 0, 2)).view(float).reshape(2 * q, 2 * q)


class _Penalty(NamedTuple):
    """A concave penalty p on a support's values b, as the Newton loop takes it.

    Each function takes the complex values b: value(b) is p, gradient(b)
    its gradient in the interleaved real form b.view(float), and
    curvature(b) the pair that _neg_hessian adds to the likelihood's
    diagonals, for the negative Hessian of p.  crossing, where p is not
    smooth at zero, takes b and a Newton direction d and returns the mask
    of the entries that the full step sends through zero; the loop stops
    there and hands the mask back.
    """

    value: Callable
    gradient: Callable
    curvature: Callable
    crossing: Callable | None = None


# The Gaussian prior -||b||^2: gradient -2b, curvature 2I.  Its arithmetic
# is the one the pursuits' solves have always done.
_GAUSSIAN_PRIOR = _Penalty(lambda b: -float((x := b.view(float)) @ x),
                           lambda b: -2.0 * b.view(float), lambda b: _PRIOR_CURVATURE)


def _l1_penalty(gamma: float) -> _Penalty:
    """-gamma sum_j |b_j| on a support where no b_j is zero.

    Its gradient is -gamma b_j / |b_j|, and its curvature the pair
    (gamma / (2 |b_j|), -gamma b_j^2 / (2 |b_j|^3)): the block gamma (I - u
    u^T) / |b_j| over (Re b_j, Im b_j), with u = (Re b_j, Im b_j) / |b_j|,
    zero along b_j and gamma / |b_j| across it.  An entry crosses zero when
    Re(conj(b_j) (b_j + d_j)) <= 0; a shorter step b + t d, 0 < t < 1, then
    never reaches zero on the others.
    """
    def value(b):
        return -gamma * float(np.sum(np.abs(b)))

    def gradient(b):
        return ((-gamma / np.abs(b)) * b).view(float)

    def curvature(b):
        mags = np.abs(b)
        half = 0.5 * gamma / mags
        return np.array([half, -half * (b / mags) ** 2])

    def crossing(b, d):
        return (b.conj() * (b + d)).real <= 0.0

    return _Penalty(value, gradient, curvature, crossing)


def _kept_set_is_certain(b: np.ndarray, keep: int, grad_norm: float) -> bool:
    """Whether the keep largest |b_j| lead the rest by over grad_norm."""
    mags = np.append(np.sort(np.abs(b))[::-1], 0.0)
    k = min(keep, mags.size - 1)
    return k > 0 and mags[k - 1] - mags[k] > grad_norm


def restricted_maximize(
    ctx: ObjectiveContext,
    support,
    x0: np.ndarray | None = None,
    inner_tol: float = 1e-8,
    keep: int | None = None,
    start: ImageTerms | None = None,
):
    """Maximize the penalized log-likelihood over {x : supp(x) <= support}.

    support must be sorted and free of repeats.  x0, if given, holds the
    start's values at support; the ascent starts at zero otherwise.  A
    caller that holds the likelihood terms at that start passes them as
    start, and the solve forms neither its image nor a kernel pass there.
    The objective is strictly concave (the prior contributes -2I to the
    Hessian), so the maximizer is unique; iterates ascend along Newton
    directions with Armijo backtracking until the restricted gradient norm
    drops to inner_tol, for at most NEWTON_MAX_ITERS iterations.  This is
    _newton_loop with the Gaussian prior.

    A caller that keeps only the keep largest magnitudes of the result
    passes keep, and the solve also stops once that set is certain: when
    the keep-th largest |b_j| exceeds the next one (zero if there is none)
    by more than the gradient norm.  The certificate rests on the prior:
    since its 2I makes the negative Hessian at least 2I, the maximizer b*
    lies within ||grad h(b)|| / 2 of b, and so does each |b*_j| of |b_j|:
    no entry can cross that gap, and the kept entries of b are those of b*
    (all nonzero).  The trace is then a prefix of the full solve's.

    The solve runs on the complex column block C = op.columns(support) and
    on b's float view x = b.view(float): the image is u = C b, the
    likelihood arguments v = s .* u.view(float) (see ImageTerms), the
    gradient is the float view of C^H weights - 2b, and the Newton
    direction solves the negative Hessian, assembled from the Kronecker
    factors of C (see _neg_hessian), against it.  An Armijo trial needs the
    image u + t C d and one :func:`likelihood` pass, whose terms the next
    iteration reuses when the trial is accepted.  The cost per iteration is
    O(M*T*|support|^2), and nothing of length B is formed.

    Returns (the maximizer's values at support, the trace of h over the
    iterates, the ImageTerms there).  Raises ConvergenceError carrying the
    best iterate's values at support if the solve stops first: at the cap,
    or when it stalls because the raw Newton step measurably descends.  Its
    message gives the Newton iterations taken and which stop happened.  A
    non-finite image raises ValueError, as :func:`likelihood` does.
    """
    support = np.asarray(support)
    if np.any(support[1:] <= support[:-1]):
        raise ValueError("support must be sorted and free of repeats")
    b = np.zeros(support.size, dtype=complex) if x0 is None else np.array(x0, dtype=complex)
    if b.shape != support.shape:
        raise ValueError(f"x0 has shape {b.shape}, support {support.shape}")
    b, trace, terms, _ = _newton_loop(ctx, support, b, inner_tol, _GAUSSIAN_PRIOR, keep, start)
    return b, trace, terms


def _newton_loop(ctx, support, b, inner_tol, penalty, keep=None, start=None):
    """Maximize f(C b) + penalty(b) over the values b at support, from b.

    The library's one restricted Newton loop: Armijo backtracking along the
    Newton direction, the raw step near the optimum, the stall rule and
    the NEWTON_MAX_ITERS cap (see restricted_maximize, which runs it with
    the Gaussian prior, and _fista_finish, which runs it with the l1
    penalty).  C = op.columns(support); start, if given, holds the
    likelihood terms at C b.  keep (see restricted_maximize) needs the
    prior's curvature bound.

    Returns (the values at the last iterate, the trace of the objective
    over the iterates, the ImageTerms there, crossed): crossed is None when
    the restricted gradient norm reached inner_tol or the keep set is
    certain, and otherwise the mask of the entries that the next full
    Newton step would send through zero (penalty.crossing), found before
    any trial of that step.  Raises ConvergenceError as restricted_maximize
    documents.
    """
    value, gradient, curvature, crossing = penalty
    cols = ctx.op.columns(support)
    cols_h = cols.T.conj()
    terms = likelihood(ctx, cols @ b) if start is None else start
    h_val = terms.f + value(b)
    trace = [h_val]
    best = (h_val, b, terms)
    factors = None

    def trial(t, d, w):
        # The full Newton step, t = 1, needs no multiply.
        b_t = b + d if t == 1.0 else b + t * d
        at_t = likelihood(ctx, terms.u + w if t == 1.0 else terms.u + t * w)
        return b_t, at_t, at_t.f + value(b_t)

    for _ in range(NEWTON_MAX_ITERS):
        grad = (cols_h @ terms.weights).view(float) + gradient(b)
        grad_norm = math.sqrt(grad @ grad)
        if grad_norm <= inner_tol or (
                keep is not None and _kept_set_is_certain(b, keep, grad_norm)):
            return b, trace, terms, None

        if factors is None:
            factors = _hessian_factors(ctx, support)
        d = np.linalg.solve(_neg_hessian(factors, terms.lam * (terms.v + terms.lam), curvature(b)),
                            grad).view(complex)
        if crossing is not None:
            crossed = crossing(b, d)
            if crossed.any():
                return b, trace, terms, crossed
        slope = float(grad @ d.view(float))   # > 0: ascent direction
        w = cols @ d
        noise_floor = 1e-12 * (1.0 + abs(h_val))
        t = 1.0
        accepted = False
        if slope > noise_floor:
            for _ in range(ARMIJO_MAX_STEPS):
                b_t, at_t, h_t = trial(t, d, w)
                if h_t >= h_val + ARMIJO_SLOPE * t * slope:
                    accepted = True
                    break
                t *= ARMIJO_SHRINK
        if not accepted:
            # Near the optimum the Armijo gain falls below the rounding
            # noise of h, making backtracking comparisons meaningless; the
            # raw Newton step still contracts the gradient quadratically,
            # so take it unless it measurably descends.
            b_t, at_t, h_t = trial(1.0, d, w)
            if h_t < h_val - noise_floor:
                stop = "stalled: the next Newton step descends"
                break
        b, terms, h_val = b_t, at_t, h_t
        trace.append(h_val)
        if h_val > best[0]:
            best = (h_val, b, terms)
    else:
        stop = "hit the iteration cap"

    _, b, terms = best
    grad = (cols_h @ terms.weights).view(float) + gradient(b)
    raise ConvergenceError(
        f"restricted maximize did not reach tol {inner_tol} in {len(trace) - 1} "
        f"Newton iterations ({stop})",
        best=b,
        grad_norm=float(np.linalg.norm(grad)),
    )


# -- pursuit loops -----------------------------------------------------------


def _threshold(z, x, budget, bands):
    return hard_threshold(z, budget) if bands is None else bms_threshold(z, x, budget, bands)


def _scatter(B, idx, values):
    """The length-B iterate with values at idx, and the indices of its nonzeros."""
    x = np.zeros(B, dtype=complex)
    x[idx] = values
    return x, idx[values != 0]


def _pursuit_loop(ctx, config, use_bms, step):
    """Shared outer loop: halt on fixed support, revisited support, or cap.

    Each step takes the iterate with its support, the sorted indices of its
    nonzeros, and its ImageTerms, and returns the new three, so no step
    scans all B entries for the support or forms an image or a likelihood
    pass that the step before it already formed; it also returns h at the
    new iterate from values it already holds, so the trace costs no
    operator apply.  A step's ConvergenceError is re-raised carrying the
    current iterate: at most L nonzeros, zeros at first.
    """
    bands = ctx.op.bands_at(config.eta) if use_bms else None
    x = np.zeros(ctx.op.B, dtype=complex)
    support = np.zeros(0, dtype=int)
    at_x = ctx.at_zero
    visited = [()]
    trace = []
    halted_by = "max-iters"
    for _ in range(config.max_outer_iters):
        try:
            x, support, at_x, h = step(ctx, config, x, support, at_x, bands)
        except ConvergenceError as err:
            err.best = x
            raise
        trace.append(h)
        new_support = tuple(support.tolist())
        if new_support == visited[-1]:
            halted_by = "support-fixed"
            break
        if new_support in visited:
            halted_by = "cycle"
            break
        visited.append(new_support)
    estimate = SparseEstimate(x_hat=x, support=support)
    return SolverReport(estimate=estimate, iterations=len(trace),
                        halted_by=halted_by, objective_trace=trace)


def _gradient_at(ctx, x, support, at_x):
    """The gradient of h at x, whose nonzeros are at support and whose terms are at_x.

    The prior's term -2x touches only the support; the adjoint is the one
    pass over all B entries.  At x = 0 the gradient comes read-only from
    the context's cache.
    """
    if support.size == 0:
        return ctx.gradient_at_zero
    g = ctx.op.apply_adjoint(at_x.weights)
    g[support] -= 2.0 * x[support]
    return g


def _grasp_step(ctx, config, x, support, at_x, bands):
    """One GraSP iteration from x, whose nonzeros are at support and whose terms are at_x.

    Returns the new iterate, its support, its terms and h there.
    """
    L = config.sparsity
    z = _gradient_at(ctx, x, support, at_x)
    idx = _threshold(z, x, 2 * L, bands)
    merged = np.union1d(idx, support)
    if merged.size > 3 * L:
        raise CapacityError(f"merged support of {merged.size} exceeds the 3L = {3 * L} budget")
    # merged holds the support, so the merged solve starts at x itself.
    b, _, _ = restricted_maximize(ctx, merged, x0=x[merged], inner_tol=config.inner_tol,
                                  keep=L if config.debias else None, start=at_x)
    pos = hard_threshold(b, L)
    kept, vals = merged[pos], b[pos]
    if config.debias:
        kept, vals = kept[vals != 0], vals[vals != 0]
        start = None
        if np.array_equal(kept, support):
            vals, start = x[support], at_x     # the maximizer there already
        vals, h_trace, at_new = restricted_maximize(ctx, kept, x0=vals,
                                                    inner_tol=config.inner_tol, start=start)
        h = h_trace[-1]
    else:
        at_new = likelihood(ctx, ctx.op.restricted(kept).image(vals))
        h = at_new.f + g_logprior(vals)
    return *_scatter(x.size, kept, vals), at_new, h


def run_grasp(ctx: ObjectiveContext, config: SolverConfig, use_bms: bool) -> SolverReport:
    """Gradient support pursuit with 2L-term support identification.

    Per iteration the gradient is thresholded to 2L terms (band-maximum
    filtered when use_bms), merged with the current support, maximized over
    the merged set, and pruned back to L terms; with config.debias the
    restricted maximization is re-run on the pruned support instead of
    keeping the pruned values.  Halts when the support stops changing, on a
    revisited support, or at the iteration cap.

    Debiasing throws the merged solve's values away, so that solve only
    runs until its L largest entries are certain (restricted_maximize's
    keep).  When the pruned support is the current one, the re-run starts
    from the current iterate, the maximizer there, and returns at its first
    gradient check: the last iteration of a row repeats no Newton work.
    The merged solve starts at the current iterate with its terms in hand,
    and the terms at each new iterate (the debias solve's, or one kernel
    pass at the pruned point) serve the next iteration's gradient.
    """
    return _pursuit_loop(ctx, config, use_bms, _grasp_step)


def _grahtp_step(ctx, config, x, support, at_x, bands):
    """One GraHTP iteration from x, whose nonzeros are at support and whose terms are at_x.

    Returns the new iterate, its support, its terms and h there.
    """
    L = config.sparsity
    g = _gradient_at(ctx, x, support, at_x)
    kappa = _backtrack_gradient_step(ctx, x, support, at_x, g)
    z = kappa * g
    z[support] += x[support]
    idx = _threshold(z, x, L, bands)
    if idx.size > L:
        raise CapacityError(f"thresholded support of {idx.size} exceeds the L = {L} budget")
    x0 = x[idx]
    # When idx holds the whole support (a fixed support, or the first step
    # from zero), x0 is x itself, whose terms are at hand.
    start = at_x if np.count_nonzero(x0) == support.size else None
    vals, h_trace, at_new = restricted_maximize(ctx, idx, x0=x0, inner_tol=config.inner_tol,
                                                start=start)
    return *_scatter(x.size, idx, vals), at_new, h_trace[-1]


def _backtrack_gradient_step(ctx, x, support, at_x, g) -> float:
    """Armijo step size for the ascent step along the gradient g at x.

    Returns the largest t = ARMIJO_SHRINK^k, k < ARMIJO_MAX_STEPS, with
    h(x + t g) >= h(x) + ARMIJO_SLOPE t ||g||^2: the step that backtracking
    from t = 1 returns.  When none passes, raises ConvergenceError; the
    pursuit loop adds the iterate to salvage.  h is
    concave along g, so the passing steps form an interval [0, t*], and the
    search may start anywhere on the grid: it starts one grid step above the
    line-Newton step ||g||^2 / (w^T D w + 2 ||g||^2), with D the
    likelihood's curvature at x, and moves up or down from there.  On a
    quadratic the Armijo slope admits steps up to 1.8 times the Newton
    step, and the likelihood's curvature falls along the step, so t* often
    lies above the guess.

    x is zero off support, and g = A^H at_x.weights - 2x, with at_x the
    caller's ImageTerms at x and u = at_x.u = A x.  So w = A g is A A^H
    at_x.weights - 2u, formed once through the operator's factor Grams
    without a pass over the B entries.  The trial point x + t g has image
    u + t w and prior -(||x||^2 + 2t Re<x, g> + t^2 ||g||^2), so a trial
    costs no operator apply either.
    """
    gn2 = float(np.vdot(g, g).real)
    if gn2 == 0.0:
        return 1.0
    x_s = x[support]
    xn2 = float(np.vdot(x_s, x_s).real)
    xg2 = 2.0 * float(np.vdot(x_s, g[support]).real)
    h0 = at_x.f - xn2
    u = at_x.u
    w = ctx.op.apply_gram(at_x.weights) - 2.0 * u
    w_f = w.view(float)
    s = ctx.interleaved_signs
    curv = float(np.sum(s * s * at_x.lam * (at_x.v + at_x.lam) * w_f * w_f))

    def passes(k):
        t = ARMIJO_SHRINK ** k
        h_t = loglik(ctx, u + t * w) - (xn2 + t * (xg2 + t * gn2))
        return h_t >= h0 + ARMIJO_SLOPE * t * gn2

    newton = gn2 / (curv + 2.0 * gn2)
    k = math.floor(math.log(newton) / math.log(ARMIJO_SHRINK)) - 1
    k = min(max(k, 0), ARMIJO_MAX_STEPS - 1)
    if passes(k):
        while k > 0 and passes(k - 1):
            k -= 1
        return ARMIJO_SHRINK ** k
    for k in range(k + 1, ARMIJO_MAX_STEPS):
        if passes(k):
            return ARMIJO_SHRINK ** k
    raise ConvergenceError(
        f"no gradient step {ARMIJO_SHRINK}^k, k < {ARMIJO_MAX_STEPS}, passes the Armijo test",
        grad_norm=math.sqrt(gn2),
    )


def run_grahtp(ctx: ObjectiveContext, config: SolverConfig, use_bms: bool) -> SolverReport:
    """Gradient hard thresholding pursuit with an L-term support per iteration.

    The score vector is the current iterate plus a backtracked gradient
    step; its thresholded support (band-maximum filtered when use_bms) is
    maximized over exactly.  Halting matches run_grasp.
    """
    return _pursuit_loop(ctx, config, use_bms, _grahtp_step)


# -- FISTA baseline ----------------------------------------------------------


def _soft_threshold(v: np.ndarray, tau: float) -> np.ndarray:
    """Complex soft threshold: shrink magnitudes by tau, keep phases.

    Entries with |v| <= tau get the factor 1 - tau/tau = 0; the others get
    1 - tau/|v|.  One pass without masks costs the same at any sparsity.
    """
    return v * (1.0 - tau / np.maximum(np.abs(v), tau))


def _violators(g, gamma, held):
    """The columns off held whose gradient g breaks |g_j| <= gamma."""
    off = np.abs(g) > gamma
    off[held] = False
    return np.flatnonzero(off)


def _fista_finish(ctx, gamma, support, values, u, step):
    """Maximize f - gamma ||x||_1 on FISTA's settled nonzero set by Newton, and certify it.

    support is the sorted nonzero set of FISTA's accepted iterate, values
    its values there, u its carried image and step FISTA's step size.  The
    one Newton loop runs with the l1 penalty from there down to a
    restricted gradient of FINISH_TOL * sqrt(q) (Wen, Yin, Goldfarb & Zhang
    2010, FPC_AS; Lee, Sun & Saunders 2014).  On the set no entry is zero,
    so the objective is smooth there.  When a full Newton step would send
    entries through zero, they leave the set and the loop goes on with the
    rest from the values it holds.  The result is the maximizer of the
    whole problem when one full adjoint there gives |grad_j f| <= gamma for
    every j off the set: with the restricted gradient zero, that is the
    optimality condition of the l1 problem.

    A refused certificate grows the set once by its violators (Massias,
    Gramfort & Salmon 2018): each joins with the value of one proximal step
    from zero, the soft threshold of step * grad_j f at gamma * step, and
    the loop runs again on the grown, sorted set under the same rules.
    Growing more than once cycles, an entry dropped on a crossing coming
    back each time.

    Returns (support, values, the Newton steps' objectives), or None when
    the grown set's check fails too, growth would pass FINISH_MAX_SUPPORT,
    the set empties, or the loop stops on its cap, a stall or a singular
    system: FISTA then goes on from its own iterate.
    """
    penalty = _l1_penalty(gamma)
    start = likelihood(ctx, u)
    trace = []
    grown = False
    while support.size:
        try:
            values, steps, terms, crossed = _newton_loop(
                ctx, support, values, FINISH_TOL * math.sqrt(support.size), penalty, start=start)
        except (ConvergenceError, np.linalg.LinAlgError):
            return None
        trace += steps[1:]
        start = None
        if crossed is not None:
            support, values = support[~crossed], values[~crossed]
            continue
        g = ctx.op.apply_adjoint(terms.weights)
        new = _violators(g, gamma, support)
        if new.size == 0:
            return support, values, trace
        if grown or support.size + new.size > FINISH_MAX_SUPPORT:
            return None
        grown = True
        support = np.concatenate([support, new])
        values = np.concatenate([values, _soft_threshold(step * g[new], gamma * step)])
        order = np.argsort(support)
        support, values = support[order], values[order]
    return None


def run_fista(ctx: ObjectiveContext, gamma: float, max_iters: int = 500) -> SolverReport:
    """Maximize f(x) - gamma * ||x||_1 by monotone accelerated proximal ascent.

    Gradient steps on the log-likelihood are followed by the complex soft
    threshold prox.  The step starts at the worst-case 1/(2 rho ||A||^2) and
    follows the local curvature both ways: it is halved until the trial
    passes the usual quadratic model, and doubled after three iterations in
    a row whose first trial passed (backtracking that can grow the step,
    Scheinberg, Goldfarb & Bai 2014).  Growing only after a run of passes
    keeps the failed trials few where the step is already at its limit.
    The accepted iterate never decreases the objective; when this guard
    rejects the prox point, the momentum restarts from the accepted iterate
    (O'Donoghue & Candes 2015).

    The iterates live on a working set W of columns (Friedman, Hastie &
    Tibshirani 2010; Massias, Gramfort & Salmon 2018).  A prox step leaves
    column j at zero while x_j = 0 and |grad_j f| <= gamma, so the first
    iteration's full adjoint at 0 defines W = {j : |grad_j f(0)| > gamma},
    and the loop runs on length-|W| vectors.  Its images and gradients come
    from op.restricted(W), on the factor bins W touches.  A x is carried
    along with every iterate, and the momentum point's image is the same
    linear combination of images.  At convergence one full adjoint checks
    |grad_j f| <= gamma off W; the columns that break it join W, and the
    ascent continues from the accepted iterate with its momentum reset.
    All rounds share max_iters.

    Most of the iterations come after the nonzero set has settled, and on
    it the objective is smooth.  So once the accepted iterate's nonzero
    set has been the same for FINISH_STABLE_ITERS iterations, the solve
    tries to finish there by Newton, at most once per set (_fista_finish).
    A refused certificate grows the finish's set once by its violators,
    each entering at one proximal step from zero at the current step size.
    A certified finish ends the solve; otherwise FISTA goes on from its own
    iterate, having spent the finish's Newton steps and at most two full
    adjoints.  The set may hold at most FINISH_MAX_SUPPORT entries: while
    gamma is tuned, sets of hundreds settle for a few iterations at a time
    and rarely certify, and without the limit full-scale -10 dB tuning took
    17.5 s instead of 2.2 s.

    Returns a SolverReport whose estimate carries its eps-support
    (|x_b| > 1e-8; entries at or below the eps threshold are zeroed so the
    support contains supp(x_hat)), and halted_by "newton" (finished on its
    nonzero set), "converged" (stopped at FISTA_TOL) or "max-iters".  Its
    trace holds the objective at the start, after every proximal
    iteration and after each Newton step of the finish, so it ends with
    the finished objective; iterations counts both kinds of step, and
    max_iters caps the proximal ones.  Raises ConvergenceError carrying the
    last accepted iterate, of length B, when the objective becomes
    non-finite or the step size underflows.
    """
    if not 0 < gamma < math.inf:
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    op = ctx.op

    sigma = op.spectral_norm_estimate()
    lip = max(2.0 * ctx.rho * sigma * sigma, 1e-3)
    step = 1.0 / lip

    penalty = _l1_penalty(gamma).value

    def failure(message):
        return ConvergenceError(message, best=_scatter(op.B, W, x_prev)[0])

    W = np.zeros(0, dtype=int)
    x_prev = np.zeros(0, dtype=complex)              # values at W
    u_prev = np.zeros(op.M * op.T, dtype=complex)    # A x_prev
    at_y = ctx.at_zero
    obj_prev = at_y.f + penalty(x_prev)
    g = ctx.gradient_at_zero    # the full gradient at x_prev
    new = _violators(g, gamma, W)
    y, u_y, z_prev = x_prev, u_prev, x_prev
    t_mom = 1.0
    trace = [obj_prev]
    passes = 0    # iterations in a row whose first step-size trial passed
    settled, stable = W, 0      # the accepted nonzero set, and iterations it has held
    tried = set()               # the sets the finish was tried on
    finished = None
    halted_by = "max-iters"

    for _ in range(max_iters):
        if new is None:
            at_y = likelihood(ctx, u_y)
            gy = part.adjoint(at_y.weights)
        else:
            # A round starts at y = x_prev, where g is the full gradient.
            W = np.concatenate([W, new])
            x_prev, z_prev = np.pad(x_prev, (0, new.size)), np.pad(z_prev, (0, new.size))
            y, gy, new = x_prev, g[W], None
            part = op.restricted(W)
        fy = at_y.f
        if not math.isfinite(fy):
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
        obj_z = fz + penalty(z)
        if not math.isfinite(obj_z):
            raise failure("objective became non-finite")

        if obj_z >= obj_prev:
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_mom * t_mom))
            b = (t_mom - 1.0) / t_next
            y = z + b * (z - x_prev)
            u_y = u_z + b * (u_z - u_prev)
            x_new, u_new, obj_new, t_mom = z, u_z, obj_z, t_next
        else:
            # The guard keeps x_prev; restart the momentum from it.
            x_new, u_new, obj_new = x_prev, u_prev, obj_prev
            y, u_y, t_mom = x_prev, u_prev, 1.0

        trace.append(obj_new)
        moved = z - z_prev
        converged = (math.sqrt(np.vdot(moved, moved).real)
                     <= FISTA_TOL * max(1.0, math.sqrt(np.vdot(z, z).real)))
        x_prev, u_prev, obj_prev, z_prev = x_new, u_new, obj_new, z
        on = x_prev != 0
        nonzero = W[on]
        stable = stable + 1 if np.array_equal(nonzero, settled) else 1
        settled = nonzero
        if converged:
            at_y = likelihood(ctx, u_prev)
            g = op.apply_adjoint(at_y.weights)
            new = _violators(g, gamma, W)
            if new.size == 0:
                halted_by = "converged"
                break
            u_y, t_mom = u_prev, 1.0
        elif (stable >= FINISH_STABLE_ITERS and 0 < nonzero.size <= FINISH_MAX_SUPPORT
              and nonzero.tobytes() not in tried):
            tried.add(nonzero.tobytes())
            order = np.argsort(nonzero)
            finished = _fista_finish(ctx, gamma, nonzero[order], x_prev[on][order], u_prev,
                                     step)
            if finished is not None:
                trace += finished[2]
                halted_by = "newton"
                break

    idx, values = (W, x_prev) if finished is None else finished[:2]
    keep = np.abs(values) > FISTA_SUPPORT_EPS
    x_final, support = _scatter(op.B, idx[keep], values[keep])
    estimate = SparseEstimate(x_hat=x_final, support=np.sort(support))
    return SolverReport(estimate=estimate, iterations=len(trace) - 1,
                        halted_by=halted_by, objective_trace=trace)


def tune_gamma(ctxs, L: int):
    """Find gamma at which the mean FISTA eps-support size is within 1 of 3L.

    ctxs is a non-empty list of problem contexts.  For gamma at or above
    max|grad f(0)| the l1-penalized estimate is exactly zero (Friedman,
    Hastie & Tibshirani 2010), so the search starts at gamma_max,
    the largest such threshold over the problems (one adjoint each, which
    each problem's FISTA solves then reuse).  It
    evaluates gamma_max too (one FISTA iteration per problem), so that the
    empty start is measured, not assumed.  One loop then walks a bracket in
    log(gamma): while no evaluated gamma has its mean above the window
    [3L-1, 3L+1] it halves gamma, and after that it bisects log(gamma)
    between the nearest gammas evaluated above and below the window.

    An evaluation solves the problems in order and stops once their support
    sizes sum to more than len(ctxs) * (3L+1): sizes are non-negative, so
    the mean is then above the window whatever the remaining solves give,
    and the search takes the branch the full mean would.  A stopped
    evaluation keeps sum / len(ctxs), a lower bound on its mean.

    The search premise is that mean support size decreases as gamma grows;
    the evaluation trace is checked against it and violations beyond one
    support unit raise TuningError.  A lower bound is compared only where it
    settles the question: at the larger gamma of a pair it can prove a
    violation, and at the smaller gamma it is not read as a value.  A
    message quoting a lower bound says "at least".  TuningError is also
    raised for a window whose low end exceeds the problems' mean B (checked
    before any solve: no mean support can reach it), gamma_max = 0 (no
    penalty gives a nonzero estimate), a mean above the window at
    gamma_max, and a window that TUNE_MAX_BISECT halvings or bisections do
    not reach.

    Returns (gamma, achieved_mean).
    """
    if not ctxs:
        raise ValueError("tune_gamma needs at least one problem")
    target = 3 * L
    mean_b = float(np.mean([c.op.B for c in ctxs]))
    if target - 1 > mean_b:
        raise TuningError(f"window [{target - 1}, {target + 1}] lies above the problems' "
                          f"mean B = {mean_b:g}")

    gamma_max = max(float(np.max(np.abs(c.gradient_at_zero))) for c in ctxs)
    if gamma_max == 0.0:
        raise TuningError("the likelihood gradient vanishes at 0 on every problem")

    bound = len(ctxs) * (target + 1)    # a support sum above it puts the mean above the window
    evaluations = []    # (gamma, mean, exact); a stopped evaluation's mean is a lower bound
    above = below = None    # the nearest gammas evaluated with the mean above / below the window
    gamma, steps = gamma_max, 0
    while True:
        total = 0
        for solved, c in enumerate(ctxs, 1):
            total += run_fista(c, gamma).estimate.support.size
            if total > bound:
                break
        m, exact = total / len(ctxs), solved == len(ctxs)
        evaluations.append((gamma, m, exact))
        if target - 1 <= m <= target + 1:
            break
        if m < target:
            below = gamma
        elif below is None:
            raise TuningError(f"no bracket: mean support {'' if exact else 'at least '}{m} "
                              f"at gamma_max = {gamma_max}")
        else:
            if above is None:
                steps = 0    # the bracket closes: the bisections start
            above = gamma
        if steps == TUNE_MAX_BISECT:
            if above is None:
                raise TuningError(f"window [{target - 1}, {target + 1}] not reached in "
                                  f"{TUNE_MAX_BISECT} halvings of gamma_max = {gamma_max}")
            break
        steps += 1
        if above is None:
            gamma *= 0.5
        else:
            gamma = math.exp(0.5 * (math.log(above) + math.log(below)))

    for (g1, m1, exact1), (g2, m2, exact2) in itertools.combinations(sorted(evaluations), 2):
        if g2 > g1 and exact1 and m2 > m1 + 1.0:
            raise TuningError(f"support size not decreasing in gamma: {m1} at {g1}, "
                              f"{'' if exact2 else 'at least '}{m2} at {g2}")
    if not target - 1 <= m <= target + 1:
        raise TuningError(f"window [{target - 1}, {target + 1}] not reached "
                          f"in {TUNE_MAX_BISECT} bisections")
    return gamma, m


# -- exhaustive oracle -------------------------------------------------------


def brute_force_map(ctx: ObjectiveContext, L: int) -> SolverReport:
    """Exact sparse MAP solution by support enumeration (test scale only).

    Every size-min(L, B) support is maximized over exactly; smaller supports
    are subsets of enumerated ones and cannot beat them, so the best
    enumerated solve is the global optimum over all supports of size <= L.

    Supports are enumerated in lexicographic order, and a later one replaces
    the best so far only when its maximum beats the best h by more than
    ORACLE_TIE_TOL * (1 + |h|).  Supports whose maxima agree to within
    rounding therefore resolve to the first of them, whatever the rounding.
    The report's trace is the best h.  A ConvergenceError of a restricted
    solve is re-raised carrying the best estimate so far (zeros at first).
    """
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    B = ctx.op.B
    k = min(L, B)
    if math.comb(B, k) > ORACLE_BUDGET:
        raise CapacityError(
            f"{math.comb(B, k)} candidate supports exceed the budget {ORACLE_BUDGET}"
        )
    best_val = -np.inf
    best_values = best_support = None
    x_hat = np.zeros(B, dtype=complex)
    for support in itertools.combinations(range(B), k):
        try:
            values, trace, _ = restricted_maximize(ctx, support)
        except ConvergenceError as err:
            if best_support is not None:
                x_hat[list(best_support)] = best_values
            err.best = x_hat
            raise
        if best_support is None or trace[-1] > best_val + ORACLE_TIE_TOL * (1.0 + abs(best_val)):
            best_val, best_values, best_support = trace[-1], values, support
    x_hat[list(best_support)] = best_values
    estimate = SparseEstimate(x_hat=x_hat, support=np.array(best_support, dtype=int))
    return SolverReport(estimate, iterations=1, halted_by="enumerated", objective_trace=[best_val])

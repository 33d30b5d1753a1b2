"""Penalized log-likelihood of the sign-quantized measurements.

Every complex measurement carries two one-bit samples, the signs of its
real and imaginary part.  Both the estimate x in C^B and its image u = A x
are handled in complex storage, and the per-sample quantities are laid out
as u.view(float): the real and imaginary part of each entry side by side.
With s = sqrt(2*rho) * y.view(float) over the sign pattern y = y_hat, the
data term and its gradient are

    f(x)      = sum_i log Phi(v_i),        v = s .* u.view(float)
    grad f    = A^H (lambda(v) .* s).view(complex)

with lambda(v) = phi(v) / Phi(v) the inverse Mills ratio, and the Gaussian
prior contributes g(x) = -||x||^2, grad -2 x.  The gradient's real and
imaginary parts are the derivatives in Re x and Im x, so all of it reduces
to one operator application (and one adjoint for the gradient).

The data term depends on x only through u = A x, so the kernels
:func:`loglik` and :func:`likelihood` take u.  A solver that knows A x for
its iterates (every iterate it forms is a linear combination of points
whose images it already has) then pays no operator apply for f.  Both f and
the inverse Mills ratios come from :func:`sign_terms`, the one kernel over
the likelihood arguments v, and :func:`likelihood` returns them as
:class:`ImageTerms`, which need no copy of u.
log Phi is log(ndtr(v)), with log_ndtr where ndtr underflows; its error is
a few units of 2^-52 absolute, which is the measure that matters because
every consumer sums log Phi or exponentiates a difference with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy import special

from .model import QuantizedMeasurement
from .operator import SensingOperator

__all__ = [
    "ObjectiveContext",
    "ImageTerms",
    "sign_terms",
    "loglik",
    "likelihood",
    "f_loglik",
    "g_logprior",
    "grad_h",
    "h_objective",
]

_SQRT_2 = np.sqrt(2.0)
_SQRT_2_OVER_PI = np.sqrt(2.0 / np.pi)
_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)
_TINY = np.finfo(float).tiny
# ndtr(v) is a normal float at every v at or above this argument (ndtr(-37)
# is about 5.7e-300), so sign_terms skips the underflow scan there.
_NDTR_NORMAL_FROM = -37.0
# sign_terms switches from log Phi to erfcx below this argument.
_ERFCX_BELOW = -40.0


def _log_cdf(v: np.ndarray, scan: bool = True) -> np.ndarray:
    """log Phi(v) elementwise: log(ndtr(v)), or log_ndtr where ndtr(v) underflows.

    Below the smallest normal float (v below about -37.5) a subnormal or zero
    ndtr(v) has lost its relative precision.  A caller that knows no v lies
    below _NDTR_NORMAL_FROM passes scan=False and saves the scan's min pass.
    """
    log_cdf = special.ndtr(v)
    if scan and log_cdf.min(initial=1.0) < _TINY:
        under = log_cdf < _TINY
        log_cdf[under] = 1.0
        np.log(log_cdf, out=log_cdf)
        log_cdf[under] = special.log_ndtr(v[under])
        return log_cdf
    return np.log(log_cdf, out=log_cdf)


def sign_terms(v: np.ndarray):
    """(sum_i log Phi(v_i), lambda(v)) at the likelihood arguments v.

    log Phi(v) is log(ndtr(v)), with log_ndtr where ndtr(v) is not a
    normal float (v below about -37.5).  It stays within 8 * 2^-52 *
    max(1, |log Phi(v)|) of log_ndtr; the two differ most near v = -1.3
    (4.9 units on a dense grid), where ndtr forms 1 - erf and each is a few
    units from the exact value.  That error is absolute, and absolute error
    is what the consumers see: the sum f, lambda through exp(... - log
    Phi), and the Armijo and FISTA tests, whose noise floors are at least
    1e-12 |h|.  No caller reads log Phi per element, where near Phi = 1 its
    relative error is large.  On 10 240 arguments of standard deviation
    0.4-1.7 the sum takes 49-67% of log_ndtr's time, but 112-115% at
    standard deviation 30, where 11% of them fall back (2-vCPU Xeon, one
    BLAS thread).  Every SNR point of configs/nmse_sweep_full.cfg and
    configs/nmse_sweep_desk.cfg gave arguments of standard deviation
    0.3-1.7, none below -14 (4 trials per point).

    lambda(v) = phi(v) / Phi(v), the inverse Mills ratio, is strictly
    positive and strictly decreasing.  The ratios reuse the log Phi values
    of the sum: exp(-v^2/2 - log sqrt(2 pi) - log Phi(v)) takes one exp
    pass over them, formed in place.  Below v = -40 the exponent is a
    difference of two terms near v^2/2 whose rounding grows with v^2, so
    those (rare) entries go through the scaled complementary error function
    instead: lambda(v) = sqrt(2/pi) / erfcx(-v / sqrt(2)).  A non-finite v
    raises ValueError.  One min and one max pass serve both that check (a
    NaN propagates through both), the erfcx branch and, at or above
    v = -37, where ndtr cannot underflow, skipping log Phi's underflow scan.
    """
    lo, hi = v.min(initial=0.0), v.max(initial=0.0)
    if not -np.inf < lo <= hi < np.inf:
        raise ValueError("likelihood requires a finite operator image")
    log_cdf = _log_cdf(v, scan=lo < _NDTR_NORMAL_FROM)
    lam = np.multiply(v, -0.5)
    lam *= v
    lam -= _LOG_SQRT_2PI
    lam -= log_cdf
    np.exp(lam, out=lam)
    if lo < _ERFCX_BELOW:
        deep = v < _ERFCX_BELOW
        lam[deep] = _SQRT_2_OVER_PI / special.erfcx(-v[deep] / _SQRT_2)
    return float(log_cdf.sum()), lam


class ImageTerms(NamedTuple):
    """The likelihood terms at an estimate whose operator image is u = A x.

    v and lam are laid out as u.view(float), the real and imaginary part of
    each entry side by side: v = ctx.interleaved_signs .* u.view(float), and
    weights = (lam .* ctx.interleaved_signs).view(complex), so that grad f =
    A^H weights.  So they cost no copy of u.  The restricted solve forms
    them at every trial and returns them at its result; the pursuit steps
    hand them on, so no iterate's image or likelihood is formed twice.
    """

    u: np.ndarray         # A x, complex
    f: float              # sum_i log Phi(v_i)
    v: np.ndarray         # likelihood arguments
    lam: np.ndarray       # inverse Mills ratios lambda(v)
    weights: np.ndarray   # grad f = A^H weights


@dataclass(frozen=True, eq=False)
class ObjectiveContext:
    """Fixed data of one estimation problem: operator, signs, SNR.

    rho is the SNR stored with the measurement, and interleaved_signs the
    read-only scaled sign pattern s = sqrt(2*rho) * y_hat.view(float), in
    the layout of u.view(float) for a complex image u: the real and
    imaginary part of each entry side by side.  Every entry of y_hat is
    +-1 +- 1j, so every s_i^2 is 2*rho, to rounding.

    The likelihood at u = 0 and its gradient there, one full adjoint, are
    computed on first use and kept read-only: every solver that starts at
    x = 0 (the pursuits' first gradient, FISTA's first working set, gamma
    tuning's gamma_max) reads them, so solvers sharing a context share
    that adjoint.
    """

    op: SensingOperator
    y_hat: QuantizedMeasurement
    rho: float = field(init=False)
    interleaved_signs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        rho = self.y_hat.rho
        if rho < 0:
            raise ValueError(f"rho must be >= 0, got {rho}")
        object.__setattr__(self, "rho", rho)
        y = np.asarray(self.y_hat.y_hat)
        if y.shape != (self.op.M * self.op.T,):
            raise ValueError(
                f"measurement length {y.shape} does not match operator "
                f"output length {self.op.M * self.op.T}"
            )
        signs = np.sqrt(2.0 * rho) * np.ascontiguousarray(y, dtype=complex).view(float)
        signs.flags.writeable = False
        object.__setattr__(self, "interleaved_signs", signs)

    @cached_property
    def at_zero(self) -> ImageTerms:
        """``likelihood(self, 0)``, its arrays read-only."""
        terms = likelihood(self, np.zeros(self.op.M * self.op.T, dtype=complex))
        for arr in (terms.u, terms.v, terms.lam, terms.weights):
            arr.flags.writeable = False
        return terms

    @cached_property
    def gradient_at_zero(self) -> np.ndarray:
        """grad f(0) = A^H at_zero.weights, read-only."""
        g = self.op.apply_adjoint(self.at_zero.weights)
        g.flags.writeable = False
        return g


def loglik(ctx: ObjectiveContext, u: np.ndarray) -> float:
    """Log-likelihood f at the estimate whose operator image is u = A x.

    The sum of :func:`sign_terms` over the same arguments v =
    ctx.interleaved_signs .* u.view(float), the same log Phi values summed
    the same way, so it equals ``likelihood(ctx, u).f`` bit for bit.  It
    skips the inverse Mills ratios and the finiteness check, for the
    callers that need f alone: step-size trials and objective traces.
    """
    return float(_log_cdf(ctx.interleaved_signs * u.view(float)).sum())


def likelihood(ctx: ObjectiveContext, u: np.ndarray) -> ImageTerms:
    """The likelihood terms at the estimate whose image is u = A x.

    One :func:`sign_terms` pass, no operator call and no copy of u; the
    gradient of f is then one adjoint, ``ctx.op.apply_adjoint(terms.weights)``.
    """
    v = ctx.interleaved_signs * u.view(float)
    f, lam = sign_terms(v)
    return ImageTerms(u, f, v, lam, (lam * ctx.interleaved_signs).view(complex))


def f_loglik(ctx: ObjectiveContext, x: np.ndarray) -> float:
    """Log-likelihood of the sign pattern at estimate x; always <= 0."""
    return loglik(ctx, ctx.op.apply(x))


def g_logprior(x: np.ndarray) -> float:
    """Gaussian log-prior -||x||^2 (constant factor dropped)."""
    x = np.asarray(x)
    return float(-np.vdot(x, x).real)


def h_objective(ctx: ObjectiveContext, x: np.ndarray) -> float:
    """Penalized objective f + g; concave in the real form of x."""
    return f_loglik(ctx, x) + g_logprior(x)


def grad_h(ctx: ObjectiveContext, x: np.ndarray) -> np.ndarray:
    """Gradient of f + g in complex storage.

    The returned vector's real and imaginary parts are the derivatives of
    f + g in Re x and Im x, A^H weights - 2 x.  It is the
    reference gradient of the self-test and the tests; no solver calls it,
    since each forms the gradient from an image it already holds.  Costs
    one apply and one adjoint.
    """
    x = np.asarray(x, dtype=complex)
    return ctx.op.apply_adjoint(likelihood(ctx, ctx.op.apply(x)).weights) - 2.0 * x

"""Penalized log-likelihood of the sign-quantized measurements.

The estimate lives in C^B but is handled through its real form
x_R = [Re(x); Im(x)].  With s = sqrt(2*rho) * y_R elementwise over the sign
pattern y_R = [Re(y_hat); Im(y_hat)], the data term and its gradient are

    f(x)      = sum_i log Phi(s_i * (A_R x_R)_i)
    grad f    = A_R^T (lambda(s .* A_R x_R) .* s)

with lambda(v) = phi(v) / Phi(v) the inverse Mills ratio, and the Gaussian
prior contributes g(x) = -||x_R||^2, grad -2 x_R.  All of it reduces to one
operator application (and one adjoint for the gradient) because A_R x_R and
A_R^T w are the real forms of A x and A^H w.

The data term depends on x only through u = A x, so the kernels
:func:`loglik` and :func:`likelihood` take u.  A solver that knows A x for
its iterates (every iterate it forms is a linear combination of points
whose images it already has) then pays no operator apply for f.  Both f and
the inverse Mills ratios come from :func:`sign_terms`, the one kernel over
the likelihood arguments v = s .* u_R; a solver that forms v itself (the
restricted Newton solve, on the float view of its complex image) calls it
directly.
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
from .operator import SensingOperator, complex_form, real_form

__all__ = [
    "ObjectiveContext",
    "Likelihood",
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


@dataclass(frozen=True, eq=False)
class ObjectiveContext:
    """Fixed data of one estimation problem: operator, signs, SNR.

    rho is the SNR stored with the measurement, and signs the read-only
    scaled sign pattern s = sqrt(2*rho) * y_R.  Every entry of y_hat is
    +-1 +- 1j, so every s_i^2 is 2*rho, to rounding.  interleaved_signs holds the same
    values in the layout of u.view(float), the real and imaginary part of
    each entry of a complex image u side by side: the restricted Newton
    solve forms its likelihood arguments as interleaved_signs * u.view(float)
    without copying u into its real form.

    The likelihood at u = 0 and its gradient there, one full adjoint, are
    computed on first use and kept read-only: every solver that starts at
    x = 0 (the pursuits' first gradient, FISTA's first working set, gamma
    tuning's gamma_max) reads them, so solvers sharing a context share
    that adjoint.
    """

    op: SensingOperator
    y_hat: QuantizedMeasurement
    rho: float = field(init=False)
    signs: np.ndarray = field(init=False, repr=False)
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
        signs = np.sqrt(2.0 * rho) * real_form(y)
        interleaved = signs.reshape(2, -1).T.flatten()
        for name, arr in (("signs", signs), ("interleaved_signs", interleaved)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @cached_property
    def at_zero(self) -> Likelihood:
        """``likelihood(self, 0)``, its arrays read-only."""
        terms = likelihood(self, np.zeros(self.op.M * self.op.T, dtype=complex))
        for arr in terms[1:]:
            arr.flags.writeable = False
        return terms

    @cached_property
    def gradient_at_zero(self) -> np.ndarray:
        """grad f(0) = A^H at_zero.weights, read-only."""
        g = self.op.apply_adjoint(self.at_zero.weights)
        g.flags.writeable = False
        return g


class Likelihood(NamedTuple):
    """The data term and its first-order terms at one point u = A x."""

    f: float              # sum_i log Phi(v_i)
    v: np.ndarray         # likelihood arguments s .* u_R
    lam: np.ndarray       # inverse Mills ratios lambda(v)
    weights: np.ndarray   # complex_form(lam .* s): grad f = A^H weights


def loglik(ctx: ObjectiveContext, u: np.ndarray) -> float:
    """Log-likelihood f at the estimate whose operator image is u = A x.

    The sum of :func:`sign_terms`, the same log Phi values summed the same
    way, so it equals ``likelihood(ctx, u).f`` bit for bit.  It skips the
    inverse Mills ratios and the finiteness check, for the callers that
    need f alone: step-size trials and objective traces.
    """
    return float(_log_cdf(ctx.signs * real_form(u)).sum())


def likelihood(ctx: ObjectiveContext, u: np.ndarray) -> Likelihood:
    """f and the adjoint weights at the estimate whose image is u = A x.

    Costs no operator call; the gradient of f is then one adjoint,
    ``ctx.op.apply_adjoint(terms.weights)``.
    """
    v = ctx.signs * real_form(u)
    f, lam = sign_terms(v)
    return Likelihood(f, v, lam, complex_form(lam * ctx.signs))


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

    The returned vector's real and imaginary parts are the two halves of
    the real-form gradient A_R^T (lambda(v) .* s) - 2 x_R.  It is the
    reference gradient of the self-test and the tests; no solver calls it,
    since each forms the gradient from an image it already holds.  Costs
    one apply and one adjoint.
    """
    x = np.asarray(x, dtype=complex)
    return ctx.op.apply_adjoint(likelihood(ctx, ctx.op.apply(x)).weights) - 2.0 * x

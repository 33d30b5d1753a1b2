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
restricted Newton solve, on its sign-folded block) calls it directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
# sign_terms switches from log Phi to erfcx below this argument.
_ERFCX_BELOW = -40.0


def sign_terms(v: np.ndarray):
    """(sum_i log Phi(v_i), lambda(v)) at the likelihood arguments v.

    lambda(v) = phi(v) / Phi(v), the inverse Mills ratio, is strictly
    positive and strictly decreasing.  The ratios reuse the log Phi values
    of the sum: exp(-v^2/2 - log sqrt(2 pi) - log Phi(v)) takes one exp
    pass over them.  Below v = -40 the exponent is a difference of two
    terms near v^2/2 whose rounding grows with v^2, so those (rare) entries
    go through the scaled complementary error function instead: lambda(v)
    = sqrt(2/pi) / erfcx(-v / sqrt(2)).  A non-finite v raises ValueError.
    """
    if not np.isfinite(v).all():
        raise ValueError("likelihood requires a finite operator image")
    log_cdf = special.log_ndtr(v)
    lam = np.exp(-0.5 * v * v - _LOG_SQRT_2PI - log_cdf)
    deep = v < _ERFCX_BELOW
    if deep.any():
        lam[deep] = _SQRT_2_OVER_PI / special.erfcx(-v[deep] / _SQRT_2)
    return float(log_cdf.sum()), lam


@dataclass(frozen=True, eq=False)
class ObjectiveContext:
    """Fixed data of one estimation problem: operator, signs, SNR.

    rho is the SNR stored with the measurement, and signs the read-only
    scaled sign pattern s = sqrt(2*rho) * y_R.
    """

    op: SensingOperator
    y_hat: QuantizedMeasurement
    rho: float = field(init=False)
    signs: np.ndarray = field(init=False, repr=False)

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
        signs.flags.writeable = False
        object.__setattr__(self, "signs", signs)


class Likelihood(NamedTuple):
    """The data term and its first-order terms at one point u = A x."""

    f: float              # sum_i log Phi(v_i)
    v: np.ndarray         # likelihood arguments s .* u_R
    lam: np.ndarray       # inverse Mills ratios lambda(v)
    weights: np.ndarray   # complex_form(lam .* s): grad f = A^H weights


def loglik(ctx: ObjectiveContext, u: np.ndarray) -> float:
    """Log-likelihood f at the estimate whose operator image is u = A x.

    The sum of :func:`sign_terms` without its inverse Mills ratios, for the
    callers that need f alone (step-size trials, objective traces).  It is
    not ``sign_terms(v)[0]``: the ratios' exp pass and finiteness check
    raise a call from 17-25 to 24-39 us on the 640 arguments of a
    desk-scale image (standard deviation 1-3), which FISTA evaluates about
    90 times per row, and from 360 to 594 us on 10 240 arguments of
    standard deviation 30, as at full scale and high SNR (2-vCPU Xeon, one
    BLAS thread).
    """
    return float(np.sum(special.log_ndtr(ctx.signs * real_form(u))))


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

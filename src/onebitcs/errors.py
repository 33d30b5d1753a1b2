"""Exception types shared across the package."""


class CapacityError(RuntimeError):
    """A requested computation exceeds its configured size budget."""


class DegenerateOperatorError(ValueError):
    """The sensing operator has a zero-norm column."""


class ConvergenceError(RuntimeError):
    """A solver stopped before reaching its tolerance: the one solver failure.

    Carries the best (for FISTA, the last accepted) iterate in ``best`` so
    callers can salvage a result, and the gradient norm there where known.
    Raised when a restricted Newton solve hits its cap or stalls, when no
    GraHTP gradient step passes the Armijo test, and when FISTA's objective
    turns non-finite or its step underflows.  A pursuit or the oracle
    re-raises its step's error carrying its own iterate.
    """

    def __init__(self, message, best=None, grad_norm=None):
        super().__init__(message)
        self.best = best
        self.grad_norm = grad_norm


class TuningError(RuntimeError):
    """Hyperparameter search could not bracket or reach its target."""

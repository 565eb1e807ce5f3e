"""Exception hierarchy and warning categories.

Every error carries an ``exit_code`` so the CLI can map failures to the
documented process exit codes (1 config, 2 validation, 3 bridge,
4 balance, 5 spectral hypothesis).
"""


class PermlimError(Exception):
    """Base class for all permlim errors."""

    exit_code = 1


class ConfigError(PermlimError):
    """Malformed or incomplete run configuration."""

    exit_code = 1


class ConvergenceError(PermlimError):
    """An iterative solver did not reach its tolerance.

    Carries the last residual and the iteration count as diagnostics.
    """

    exit_code = 3

    def __init__(self, message: str, residual: float = float("nan"),
                 iterations: int = 0):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class OverflowGuardError(PermlimError):
    """A density exponent left the safe floating-point range."""

    exit_code = 3


class BalanceError(ConvergenceError):
    """Matrix balancing failed (non-convergence, ball exit, zero row)."""

    exit_code = 4


class SingularSystemError(PermlimError):
    """I + R of the balancing fixed point is singular or indefinite.

    Raised when a conjugate-gradient direction p on I + R has
    p'(I + R)p <= 1e-14 p'p in the check that runs before balancing.
    """

    exit_code = 4


class SpectralGapError(PermlimError):
    """A spectral hypothesis (all nontrivial |eigenvalues| < 1) fails."""

    exit_code = 5


class CapExceededError(PermlimError):
    """Requested exact permanent beyond the configured size cap."""

    exit_code = 1


class PermlimWarning(UserWarning):
    """Base warning category."""


class SmoothnessWarning(PermlimWarning):
    """A cost without a C2 claim is used where the theory assumes C2."""


class SpectralGapWarning(PermlimWarning):
    """The spectral gap estimate is dangerously close to 1."""


class RefinementWarning(PermlimWarning):
    """The Fredholm limit at m disagrees with its check at m // 2 beyond
    tolerance, or the check level is too coarse to evaluate."""


class RuntimeBudgetWarning(PermlimWarning):
    """An exact permanent was requested above the comfortable size."""

"""Exception types shared across the package."""


class CoherenceError(Exception):
    """Base class for every error raised by netcoh."""


class InvalidSizeError(CoherenceError, ValueError):
    """A graph-family constructor was called with an unsupported size."""


class InvalidParameterError(CoherenceError, ValueError):
    """A numeric parameter is outside its admissible range."""


class GraphFormatError(CoherenceError, ValueError):
    """Edge-list text violates the file format or a graph invariant."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class IdealPdRedirectError(CoherenceError):
    """Filtered PD with tau = 0 must be assembled as P control with g0 <- kd."""


class UnboundedVarianceError(CoherenceError):
    """A marginal mode makes the variance sum diverge."""

    def __init__(self, message: str, mode_index: int | None = None):
        super().__init__(message)
        self.mode_index = mode_index


class DisconnectedGraphError(UnboundedVarianceError):
    """The operation requires a connected graph (one zero Laplacian mode)."""


class InstabilityError(CoherenceError):
    """Dynamics are not Hurwitz (offending mode index recorded when known)."""

    def __init__(self, message: str, mode_index: int | None = None):
        super().__init__(message)
        self.mode_index = mode_index


class MarginalModeObservableError(CoherenceError):
    """A marginal eigendirection is visible in the output; deflation aborted."""


class NumericalError(CoherenceError):
    """A dense linear-algebra routine failed or left a large residual."""


class OracleSizeError(CoherenceError):
    """System exceeds the configured full-oracle size cap."""


class WindowError(CoherenceError):
    """The requested averaging window contains no samples."""


class SearchError(CoherenceError):
    """No finite objective value was found inside the search bracket."""


class ConvergenceError(CoherenceError):
    """Iteration budget exhausted before reaching the requested tolerance."""


class StepSizeError(CoherenceError):
    """Simulation step is too coarse for the fastest closed-loop mode."""


class FitError(CoherenceError):
    """Not enough finite points inside the window to fit an exponent."""

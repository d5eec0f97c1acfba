"""Exception types shared across the package."""


class EntangleError(Exception):
    """Base class for every error raised by this package."""


class ParameterError(EntangleError):
    """Invalid, non-finite, or out-of-range physical parameters."""


class DegenerateHybridizationError(EntangleError):
    """Mixing angle at 0 or pi/2, where one polariton decouples (g = 0)."""


class SingularSteadyStateError(EntangleError):
    """The steady-state denominator vanishes; mean amplitudes are undefined."""


class DriveSolveError(EntangleError):
    """No drive strength can realize the requested coupling target."""


class UnstableDriftError(EntangleError):
    """Drift matrix has an eigenvalue with non-negative real part; no
    stationary covariance exists."""


class NumericalError(EntangleError):
    """A dense linear-algebra routine failed or lost too much accuracy."""


class InvalidStateError(EntangleError):
    """Covariance matrix is inconsistent with a physical Gaussian state."""


class ConfigError(EntangleError):
    """Malformed run configuration text.

    ``location`` names the offending entry: its line number in the
    config text, or the ``section.key`` of an override.
    """

    def __init__(self, message, location=None):
        if isinstance(location, int):
            message = f"line {location}: {message}"
        elif location is not None:
            message = f"override {location}: {message}"
        super().__init__(message)
        self.location = location

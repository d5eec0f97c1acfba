"""Exception types shared across the package."""


class EntangleError(Exception):
    """Base class for every error raised by this package."""


class ParameterError(EntangleError):
    """Invalid, non-finite, or out-of-range physical parameters, or ones
    the model cannot realize: a mixing angle where the polaritons
    decouple, a |G_-| target no drive reaches, rates and detunings whose
    steady-state denominator overflows, or a drift with no stationary
    state handed to the Lyapunov solve."""


class NumericalError(EntangleError):
    """A dense linear-algebra routine failed or lost too much accuracy, a
    steady-state denominator vanished, or a covariance matrix is
    inconsistent with a physical Gaussian state."""


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

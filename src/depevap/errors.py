"""Exception types shared across the package."""


class InvalidParameterError(ValueError):
    """A model parameter or argument violates its documented precondition."""


class CapacityError(RuntimeError):
    """An exact enumeration or state space exceeded its capacity guard."""


class EncodeError(ValueError):
    """A trajectory cannot be encoded (bridge or slope condition broken)."""


class DecodeError(ValueError):
    """A lattice configuration is invalid; carries the failure kind and location."""

    def __init__(self, kind, location, message=None):
        self.kind = kind
        self.location = location
        super().__init__(message or f"{kind} violation at {location}")


class UnsupportedModeError(ValueError):
    """The requested boundary mode is not supported by this construction."""

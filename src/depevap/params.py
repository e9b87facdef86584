"""Model parameters shared by all modules."""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import InvalidParameterError

BOUNDARY_MODES = ("reflecting", "absorbing")


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


@dataclass(frozen=True)
class ModelParams:
    """Parameters of the deposition-evaporation model.

    L is the number of plaquette rows/columns of the encoded lattice
    (equivalently the number of dynamical surface sites, with sites 0 and
    L+1 pinned at height 0).  The lattice-encoding modules require L odd;
    the free-dynamics module also accepts even L for large-scale runs and
    pins the right wall at the parity-consistent horizon value.

    p is the deposition bias: when an event fires (probability 1/2 per
    eligible site and slice) it is a deposition with probability p and an
    evaporation with probability 1-p.
    """

    L: int
    p: float
    boundary_mode: str = "reflecting"
    colored: bool = True
    seed: int = 0

    def __post_init__(self):
        if not _is_int(self.L) or self.L < 3:
            raise InvalidParameterError(f"L must be an integer >= 3, got {self.L!r}")
        if not (_is_int(self.p) or isinstance(self.p, float)) or not 0.0 <= self.p <= 1.0:
            raise InvalidParameterError(f"p must be a number in [0, 1], got {self.p!r}")
        if self.boundary_mode not in BOUNDARY_MODES:
            raise InvalidParameterError(
                f"boundary_mode must be one of {BOUNDARY_MODES}, got {self.boundary_mode!r}"
            )
        if not isinstance(self.colored, bool):
            raise InvalidParameterError(f"colored must be a bool, got {self.colored!r}")
        if not _is_int(self.seed) or self.seed < 0:
            raise InvalidParameterError(f"seed must be a nonnegative integer, got {self.seed!r}")

    def require_odd_L(self):
        if self.L % 2 == 0:
            raise InvalidParameterError(
                f"lattice encoding requires odd L, got L={self.L}"
            )

    def with_(self, **kwargs) -> "ModelParams":
        return replace(self, **kwargs)

"""Deposition-evaporation surface growth encoded into 2D lattice states."""

from .params import ModelParams
from .exact import build_state

__version__ = "0.1.0"

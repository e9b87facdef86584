"""Classical deposition-evaporation dynamics on a 1D substrate.

A configuration is an integer height profile h[0..L+1] with pinned ends,
unit neighbour steps |h[i] - h[i+1]| = 1, and the parity rule
h[i] == i (mod 2).  The initial condition is the horizon (a block on
every second site).  One time slice updates all eligible sites of one
parity sublattice independently; a site gains or loses a column of two
blocks, so heights move in steps of +-2 and the neighbour constraint is
preserved automatically because the other sublattice is frozen during
the slice.

Sites 1 and L are frozen at height 1 for all times: site 0 is pinned at
0, so neither rule can move them.  The eligible (updatable) sites are
2..L-1.

Reflecting mode forbids any move that would take a height below 0; the
only case where this bites is a Peak at h=1, which becomes a certain
no-change (no-event 1/2 plus forced height-neutral deposition 1/2).
Absorbing mode applies the unconstrained rules; trajectories that touch
h < 0 are discarded by the caller's post-selection.

`event_table` is the one per-vertex rule.  The bridge walk and the
emitter read it as `exact.event_branches`; the DP, the free dynamics
and the parent Hamiltonian read its probabilities.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import InvalidParameterError

COLOR_NONE = 0
COLOR_R = 1
COLOR_G = 2


def horizon_profile(L: int) -> np.ndarray:
    """Initial surface [0,1,0,...,1,0] of length L+2.

    The lattice encoding needs odd L (callers check `require_odd_L`); for
    even L, as free dynamics allows, the right wall sits at height 1.
    """
    if not isinstance(L, int) or L < 3:
        raise InvalidParameterError(f"L must be an integer >= 3, got {L!r}")
    return np.array([i % 2 for i in range(L + 2)], dtype=np.int64)


@functools.lru_cache(maxsize=None)
def event_table(shape: str, floor: bool, p: float, colored: bool) -> tuple:
    """The per-vertex rule: (height delta, kind, color, probability) branches.

    A valley deposits with p/2 (split evenly over r and g when colored;
    uncolored deposits are recorded as r), a peak evaporates with
    (1-p)/2, and everything else is no change.  `floor` is the reflecting
    rule at a peak at h = 1, which then cannot fall.  Evaporation is one
    branch with color None: its color is owned by the matching deposit
    and resolved from the site's stack.  The no-change branch is last.
    """
    if shape == "valley":
        if colored:
            deposits = ((+2, "deposit", COLOR_R, p / 4), (+2, "deposit", COLOR_G, p / 4))
        else:
            deposits = ((+2, "deposit", COLOR_R, p / 2),)
        return deposits + ((0, "no_change", COLOR_NONE, 1 - p / 2),)
    if shape == "peak" and not floor:
        return ((-2, "evaporate", None, (1 - p) / 2), (0, "no_change", COLOR_NONE, (1 + p) / 2))
    if shape in ("peak", "slope"):
        return ((0, "no_change", COLOR_NONE, 1.0),)
    raise InvalidParameterError(f"unknown local shape {shape!r}")


def branch_probability(shape: str, delta: int, p: float) -> float:
    """Uncolored, floorless probability of the branch that moves the height by `delta`."""
    for d, _, _, prob in event_table(shape, False, p, False):
        if d == delta:
            return prob
    raise InvalidParameterError(f"a {shape} cannot move by {delta}")


def slice_sites(L: int, t: int) -> list[int]:
    """Eligible sites updated at slice t: vertex (i, t) exists for i + t odd; 1 and L stay frozen."""
    return [i for i in range(2, L) if (i + t) % 2 == 1]

"""Bijective map between trajectories and spin/color lattice configurations.

Geometry
--------
The lattice is a 45-degree tilted square lattice described on the integer
grid (i, t) with i, t in 0..L+1:

* points with i + t even are plaquettes carrying the virtual height
  h~_i(t) (column i = surface site, row t = time);
* points with i + t odd and 1 <= i, t <= L are update vertices; vertex
  (i, t) performs the update h~_i(t-1) -> h~_i(t+1) of site i against the
  frozen neighbour heights h~_{i+-1}(t), and carries the color qutrit.

Spins live on the edges between diagonally adjacent plaquettes.  The
spin with half-integer position (x + 1/2, y + 1/2), stored under the
index (x, y) with x, y in 0..L, joins

* plaquettes (x, y) and (x+1, y+1) when x + y is even,
* plaquettes (x+1, y) and (x, y+1) when x + y is odd,

and its value is up (bit 1) exactly when the later-time plaquette is one
unit higher than the earlier one.  Around a vertex the four spins then
read: a deposition is all-up, an evaporation all-down, and the four
remaining Gauss-compatible patterns are the no-change shapes.  Gauss's
law (left spin pair sum equals right pair sum) is precisely the
integrability condition that makes the spins a consistent height
gradient.

Boundary data: heights integrate from the anchor h~_0(0) = 0; columns 0
and L+1 are pinned at 0, the bottom spin row (y = 0) is all up and the
top row (y = L) all down (initial/final horizon), and the outer spin
columns alternate up/down starting with up at y = 0.

Key layout (compatibility contract)
-----------------------------------
A canonical key packs the spin bits in row-major order (rows bottom to
top, left to right within a row, bit k stored at byte k >> 3, position
k & 7), followed, for colored states, by 2-bit color codes (0, r=1, g=2)
over vertices in the same row-major order, 4 codes per byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DecodeError, EncodeError, InvalidParameterError
from .params import ModelParams
from .surface import COLOR_NONE, no_change_probability, site_branches, slice_parity

UP = 1
DOWN = 0
COLOR_R_DEFAULT = 1  # uncolored trajectories record the single color as r


# ---------------------------------------------------------------------------
# site enumeration


def spin_sites(L):
    """Spin indices (x, y), row-major bottom-to-top."""
    return [(x, y) for y in range(L + 1) for x in range(L + 1)]


def vertex_sites(L):
    """Update vertices (i, t), row-major bottom-to-top."""
    return [(i, t) for t in range(1, L + 1) for i in range(1, L + 1) if (i + t) % 2 == 1]


def spin_endpoints(x, y):
    """Plaquette pair joined by spin (x, y); earlier-time point first."""
    if (x + y) % 2 == 0:
        return (x, y), (x + 1, y + 1)
    return (x + 1, y), (x, y + 1)


def vertex_spin_indices(i, t):
    """The four spins around vertex (i, t): (ll, lu, rl, ru)."""
    return (i - 1, t - 1), (i - 1, t), (i, t - 1), (i, t)


# ---------------------------------------------------------------------------
# configurations


@dataclass
class TrajectoryRecord:
    """A full space-time history: heights[t][i] for i + t even, plus events."""

    L: int
    heights: np.ndarray            # (L+2, L+2), entries meaningful for i + t even
    events: dict                   # (i, t) -> (kind, color)
    weight: float = 1.0


@dataclass
class LatticeConfig:
    L: int
    colored: bool
    spins: dict = field(default_factory=dict)   # (x, y) -> 0/1
    colors: dict = field(default_factory=dict)  # (i, t) -> 0/1/2, colored only


def _expected_boundary_spin(x, y, L):
    """Pinned value for boundary spins; None for dynamical ones."""
    if y == 0:
        return UP
    if y == L:
        return DOWN
    if x == 0 or x == L:
        return UP if y % 2 == 0 else DOWN
    return None


def encode_trajectory(traj: TrajectoryRecord, params: ModelParams) -> LatticeConfig:
    """Spins from height differences, colors from events; validates the bridge."""
    params.require_odd_L()
    L = params.L
    H = traj.heights
    for i in range(0, L + 2, 2):
        if H[0][i] != 0 or H[L + 1][i] != 0:
            raise EncodeError("trajectory does not start and end at the horizon")
    for i in range(1, L + 2, 2):
        if H[1][i] != 1 or H[L][i] != 1:
            raise EncodeError("trajectory does not start and end at the horizon")
    config = LatticeConfig(L=L, colored=params.colored)
    for (x, y) in spin_sites(L):
        (i0, t0), (i1, t1) = spin_endpoints(x, y)
        d = int(H[t1][i1]) - int(H[t0][i0])
        if d not in (-1, 1):
            raise EncodeError(f"slope violation across spin {(x, y)}: dh = {d}")
        config.spins[(x, y)] = UP if d == 1 else DOWN
    if params.colored:
        for v in vertex_sites(L):
            kind, color = traj.events.get(v, ("no_change", COLOR_NONE))
            config.colors[v] = COLOR_NONE if kind == "no_change" else color
    return config


def gauss_residual(config: LatticeConfig, vertex) -> int:
    """Left spin pair sum minus right pair sum, in integer units; 0 iff valid."""
    ll, lu, rl, ru = vertex_spin_indices(*vertex)
    s = config.spins
    signed = lambda b: 2 * s[b] - 1
    return (signed(ll) + signed(lu) - signed(rl) - signed(ru)) // 2


def vertex_kind(config: LatticeConfig, vertex):
    """"deposit", "evaporate" or "no_change" from the four spins around a vertex."""
    ll, lu, rl, ru = (config.spins[b] for b in vertex_spin_indices(*vertex))
    if (ll, lu, rl, ru) == (UP, UP, UP, UP):
        return "deposit"
    if (ll, lu, rl, ru) == (DOWN, DOWN, DOWN, DOWN):
        return "evaporate"
    return "no_change"


def integrate_heights(config: LatticeConfig) -> np.ndarray:
    """Plaquette heights from spins, anchored at h~_0(0) = 0.

    Requires Gauss's law (checked first, per vertex) and the pinned
    boundary spins; inconsistencies raise DecodeError.
    """
    L = config.L
    for v in vertex_sites(L):
        if gauss_residual(config, v) != 0:
            raise DecodeError("gauss", v)
    for (x, y) in spin_sites(L):
        want = _expected_boundary_spin(x, y, L)
        if want is not None and config.spins[(x, y)] != want:
            raise DecodeError("boundary", (x, y))
    H = np.zeros((L + 2, L + 2), dtype=np.int64)  # non-plaquette entries stay 0
    known = {(0, 0)}
    queue = [(0, 0)]
    adjacency = {}
    for (x, y) in spin_sites(L):
        lo, hi = spin_endpoints(x, y)
        step = 1 if config.spins[(x, y)] == UP else -1
        adjacency.setdefault(lo, []).append((hi, step))
        adjacency.setdefault(hi, []).append((lo, -step))
    while queue:
        pt = queue.pop()
        i0, t0 = pt
        for (i1, t1), step in adjacency.get(pt, ()):
            h = H[t0][i0] + step
            if (i1, t1) in known:
                if H[t1][i1] != h:
                    raise DecodeError("gauss", (i1, t1), "inconsistent height integration")
            else:
                H[t1][i1] = h
                known.add((i1, t1))
                queue.append((i1, t1))
    n_plaquettes = sum(1 for i in range(L + 2) for t in range(L + 2) if (i + t) % 2 == 0)
    if len(known) != n_plaquettes:
        raise DecodeError("gauss", None, "spin graph does not reach every plaquette")
    return H


def decode_config(config: LatticeConfig, params: ModelParams) -> TrajectoryRecord:
    """Inverse of encode_trajectory; validates Gauss, boundary, colors, bridge.

    The returned record's weight is recomputed from the event sequence
    under `params` (including the absorbing-mode frozen-site factors).
    """
    params.require_odd_L()
    L = params.L
    H = integrate_heights(config)
    # the pinned-column and horizon-row heights follow from the checked
    # boundary spins plus Gauss's law; re-verified here for defence in depth
    for t in range(0, L + 2, 2):
        if H[t][0] != 0:
            raise DecodeError("boundary", (0, t))
    for t in range(1, L + 2, 2):
        if H[t][L + 1] != 0:
            raise DecodeError("boundary", (L + 1, t))
    for i in range(0, L + 2, 2):
        if H[0][i] != 0:
            raise DecodeError("boundary", (i, 0))
        if H[L + 1][i] != 0:
            raise DecodeError("boundary", (i, L + 1))
    for i in range(1, L + 2, 2):
        if H[1][i] != 1:
            raise DecodeError("boundary", (i, 1))
        if H[L][i] != 1:
            raise DecodeError("boundary", (i, L))
    events = {}
    pending = {i: [] for i in range(1, L + 1)}  # per-site stack of pair colors
    for t in range(1, L + 1):
        for i in range(1, L + 1):
            if (i + t) % 2 != 1:
                continue
            kind = vertex_kind(config, (i, t))
            color = COLOR_NONE
            if params.colored:
                c = config.colors.get((i, t))
                if c is None or c not in (0, 1, 2):
                    raise DecodeError("color", (i, t), "missing or malformed color")
                if kind == "no_change" and c != COLOR_NONE:
                    raise DecodeError("color", (i, t), "no-change vertex carries a color")
                if kind != "no_change" and c == COLOR_NONE:
                    raise DecodeError("color", (i, t), "update vertex colored 0")
                color = c
            elif kind != "no_change":
                color = COLOR_R_DEFAULT
            if kind == "deposit":
                pending[i].append(color)
            elif kind == "evaporate":
                if params.colored and (not pending[i] or pending[i][-1] != color):
                    raise DecodeError("color", (i, t), "evaporation color does not match")
                if pending[i]:
                    pending[i].pop()
            events[(i, t)] = (kind, color)
    traj = TrajectoryRecord(L=L, heights=H, events=events, weight=1.0)
    traj.weight = trajectory_weight(traj, params)
    return traj


def zigzag_profile(config_or_heights, cut_row, L=None) -> np.ndarray:
    """Equal-time profile straddling the cut after update slice `cut_row`."""
    if isinstance(config_or_heights, LatticeConfig):
        L = config_or_heights.L
        H = integrate_heights(config_or_heights)
    else:
        H = config_or_heights
        if L is None:
            L = H.shape[0] - 2
    if not 0 <= cut_row <= L:
        raise InvalidParameterError(f"cut_row must lie in 0..{L}, got {cut_row}")
    prof = np.empty(L + 2, dtype=np.int64)
    for i in range(L + 2):
        t = cut_row + 1 if (i + cut_row) % 2 == 1 else cut_row
        prof[i] = H[t][i]
    return prof


def colored_area(profile) -> tuple[int, int]:
    """Blocks above the horizon under a profile, and the pair count A/2."""
    profile = np.asarray(profile)
    L = len(profile) - 2
    horizon = np.arange(L + 2) % 2
    A = int(np.sum(profile[1:L + 1] - horizon[1:L + 1]))
    if A < 0 or A % 2 != 0:
        raise InvalidParameterError(f"colored area must be even and nonnegative, got {A}")
    return A, A // 2


def trajectory_weight(traj: TrajectoryRecord, params: ModelParams) -> float:
    """Product of per-event probabilities along the trajectory.

    Frozen boundary sites contribute their no-change probability: the
    absorbing-mode survival factor (1+p)/2 whenever they sit at a Peak at
    h = 1, and 1 otherwise.
    """
    L, H = traj.L, traj.heights
    w = 1.0
    for t in range(1, L + 1):
        for i in range(1, L + 1):
            if (i + t) % 2 != 1:
                continue
            h, hl, hr = int(H[t - 1][i]), int(H[t][i - 1]), int(H[t][i + 1])
            new_h = int(H[t + 1][i])
            kind = traj.events.get((i, t), ("no_change", COLOR_NONE))[0]
            if i in (1, L):
                w *= no_change_probability(h, hl, hr, params)
                continue
            branches = site_branches(h, hl, hr, params)
            for bh, bkind, _, prob in branches:
                if bh == new_h and bkind == kind:
                    w *= prob  # colored deposits already carry p/4 per definite color
                    break
            else:
                raise EncodeError(f"event at vertex {(i, t)} not reachable by the rules")
    return w


# ---------------------------------------------------------------------------
# canonical keys


def key_length(params: ModelParams) -> int:
    L = params.L
    n_spins = (L + 1) ** 2
    n = (n_spins + 7) // 8
    if params.colored:
        n_vertices = (L * L - 1) // 2
        n += (n_vertices + 3) // 4
    return n


def site_order(L, colored):
    """Sites in key order: ("s", x, y) spins, then ("c", i, t) colors if colored."""
    sites = [("s",) + s for s in spin_sites(L)]
    if colored:
        sites += [("c",) + v for v in vertex_sites(L)]
    return sites


def key_to_values(key: bytes, L, colored) -> list:
    """Flat site values of a key, one per entry of `site_order(L, colored)`."""
    n_spins = (L + 1) ** 2
    values = [(key[k >> 3] >> (k & 7)) & 1 for k in range(n_spins)]
    if colored:
        codes = key[(n_spins + 7) // 8:]
        values += [(codes[k >> 2] >> (2 * (k & 3))) & 3 for k in range((L * L - 1) // 2)]
    return values


def values_to_key(values, L, colored) -> bytes:
    """Inverse of `key_to_values`: spin bits 8 per byte, then color codes 4 per byte."""
    n_spins = (L + 1) ** 2
    bits = bytearray((n_spins + 7) // 8)
    for k, b in enumerate(values[:n_spins]):
        bits[k >> 3] |= (b & 1) << (k & 7)
    if not colored:
        return bytes(bits)
    codes = bytearray((len(values) - n_spins + 3) // 4)
    for k, c in enumerate(values[n_spins:]):
        codes[k >> 2] |= (c & 3) << (2 * (k & 3))
    return bytes(bits + codes)


def canonical_key(config: LatticeConfig) -> bytes:
    values = [config.spins[s] for s in spin_sites(config.L)]
    if config.colored:
        values += [config.colors[v] for v in vertex_sites(config.L)]
    return values_to_key(values, config.L, config.colored)


def key_to_config(key: bytes, params: ModelParams) -> LatticeConfig:
    params.require_odd_L()
    L = params.L
    if len(key) != key_length(params):
        raise DecodeError("key", len(key), "canonical key has the wrong length")
    values = key_to_values(key, L, params.colored)
    spins = spin_sites(L)
    config = LatticeConfig(L=L, colored=params.colored, spins=dict(zip(spins, values)))
    if params.colored:
        for code, v in zip(values[len(spins):], vertex_sites(L)):
            if code > 2:
                raise DecodeError("key", v, "malformed color code")
            config.colors[v] = code
    return config

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
over vertices in the same row-major order, 4 codes per byte.  The
(L*L - 1) / 2 codes fill whole bytes; the spin bits leave 4 padding bits
when L = 1 mod 4, and they are 0, so keys and configurations correspond
one to one.

Array codec
-----------
Keys travel in bulk as (N, key_length) uint8 matrices, and their sites
as (N, sites) value matrices in `site_order`.  Spin row y holds the
up/down steps of the zigzag profile after update slice y (the
plaquettes of time rows y and y + 1, alternating along the row), so

* `profile_spins` reads spin rows off zigzag profiles as row diffs,
  each profile with its slice: the bulk builders call it once on the
  child profiles of every slice's edges, and `profiles_to_spins` on
  whole stacks.  `pack_values` packs values with
  `np.packbits(..., bitorder="little")` and 2-bit color codes;
* `unpack_keys` inverts the packing, and `decode_keys` rebuilds every
  zigzag profile as a cumulative sum of signed spins along its row.  It
  checks Gauss's law at every vertex, the pinned boundary spins and the
  colors: 0 exactly on no-change vertices, and every evaporation the
  color of the pair it removes, replayed by `pair_slots`.  Under
  reflecting rules no height may fall below 0.

These arrays are the one configuration representation, of states too
(a key matrix plus an amplitude vector).  The one-key `canonical_key`,
`key_to_config`, `encode_trajectory` and `decode_config` convert a
single `LatticeConfig` or `TrajectoryRecord` through them, so the
layout and its checks are written once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DecodeError, EncodeError
from .params import ModelParams
from .surface import COLOR_NONE, horizon_profile

UP = 1
DOWN = 0
COLOR_R_DEFAULT = 1  # uncolored trajectories record the single color as r
KINDS = {1: "deposit", -1: "evaporate", 0: "no_change"}  # vertex kind codes of DecodedKeys
_NO_EVENT = ("no_change", COLOR_NONE)
_CODE_SHIFTS = np.array([0, 2, 4, 6], dtype=np.uint8)  # 2-bit color codes, 4 per byte


# ---------------------------------------------------------------------------
# site enumeration


def spin_sites(L):
    """Spin indices (x, y), row-major bottom-to-top."""
    return [(x, y) for y in range(L + 1) for x in range(L + 1)]


def vertex_sites(L):
    """Update vertices (i, t), row-major bottom-to-top."""
    return [(i, t) for t in range(1, L + 1) for i in range(1, L + 1) if (i + t) % 2 == 1]


def vertex_spin_indices(i, t):
    """The four spins around vertex (i, t): (ll, lu, rl, ru)."""
    return (i - 1, t - 1), (i - 1, t), (i, t - 1), (i, t)


class _Lattice(NamedTuple):
    """Index arrays of the key layout at one L."""

    zig_t: np.ndarray      # (L+1, L+2): time row of zigzag entry (y, i), y + (i + y) % 2
    zig_i: np.ndarray      # (L+1, L+2): its column i
    plaquettes: tuple      # (i, t) of each zigzag entry, row-major
    sign: np.ndarray       # (L+1, L+1): height step from column x to x+1 along row y per up spin
    corners: np.ndarray    # (4, vertices): spin indices ll, lu, rl, ru around each vertex
    vertex_i: np.ndarray   # (vertices,): site of each vertex
    row_start: np.ndarray  # vertices of row t are row_start[t]:row_start[t + 1]
    pinned: np.ndarray     # indices of the boundary spins
    pinned_values: np.ndarray
    pinned_sites: tuple    # their (x, y)
    vertices: tuple        # vertex_sites(L)


@functools.lru_cache(maxsize=None)
def _lattice(L) -> _Lattice:
    y, i = np.indices((L + 1, L + 2))
    ys, xs = np.indices((L + 1, L + 1))
    vi, vt = np.array(vertex_sites(L)).T
    corners = np.stack([(vt - 1) * (L + 1) + vi - 1, vt * (L + 1) + vi - 1,
                        (vt - 1) * (L + 1) + vi, vt * (L + 1) + vi])
    expected = np.full((L + 1, L + 1), -1)
    expected[:, 0] = expected[:, L] = (np.arange(L + 1) + 1) % 2  # up on even rows
    expected[0], expected[L] = UP, DOWN
    pinned = np.flatnonzero(expected.ravel() >= 0)
    sites = spin_sites(L)
    zig_t = y + (i + y) % 2
    lattice = _Lattice(zig_t=zig_t, zig_i=i,
                       plaquettes=tuple(zip(i.ravel().tolist(), zig_t.ravel().tolist())),
                       sign=np.where((xs + ys) % 2 == 0, 1, -1).astype(np.int8),
                       corners=corners, vertex_i=vi,
                       row_start=np.searchsorted(vt, np.arange(L + 2)),
                       pinned=pinned, pinned_values=expected.ravel()[pinned].astype(np.uint8),
                       pinned_sites=tuple(sites[k] for k in pinned),
                       vertices=tuple(vertex_sites(L)))
    for field_value in lattice:  # cached and shared by every caller
        if isinstance(field_value, np.ndarray):
            field_value.flags.writeable = False
    return lattice


# ---------------------------------------------------------------------------
# configurations


@dataclass
class TrajectoryRecord:
    """A full space-time history: heights[t][i] for i + t even, plus events."""

    L: int
    heights: np.ndarray            # (L+2, L+2), entries meaningful for i + t even
    events: dict                   # (i, t) -> (kind, color)


@dataclass
class LatticeConfig:
    L: int
    colored: bool
    spins: dict = field(default_factory=dict)   # (x, y) -> 0/1
    colors: dict = field(default_factory=dict)  # (i, t) -> 0/1/2, colored only


@dataclass
class DecodedKeys:
    """Validated keys as arrays.

    `values` (N, sites) follow `site_order`; `profiles[:, c]` (N, L+1, L+2)
    is the zigzag profile after update slice c, in the narrowest signed
    dtype that holds +-(L + 1) (int8 up to L = 125, int16 above); `kinds`
    (N, vertices) code each vertex as in `KINDS`.
    """

    L: int
    colored: bool
    values: np.ndarray
    profiles: np.ndarray
    kinds: np.ndarray

    def take(self, rows) -> "DecodedKeys":
        return DecodedKeys(self.L, self.colored, self.values[rows], self.profiles[rows],
                           self.kinds[rows])


def encode_trajectory(traj: TrajectoryRecord, params: ModelParams) -> LatticeConfig:
    """Spins from height differences, colors from events; validates the bridge."""
    params.require_odd_L()
    L = params.L
    lat = _lattice(L)
    values = profiles_to_spins(np.asarray(traj.heights)[lat.zig_t, lat.zig_i][None], L)
    if params.colored:
        colors = [COLOR_NONE if kind == "no_change" else color
                  for kind, color in (traj.events.get(v, _NO_EVENT) for v in vertex_sites(L))]
        values = np.hstack([values, np.array([colors], dtype=np.uint8)])
    return key_to_config(pack_values(values, L, params.colored).tobytes(), params)


def decode_config(config: LatticeConfig, params: ModelParams) -> TrajectoryRecord:
    """Inverse of encode_trajectory; the checks of `decode_keys`."""
    params.require_odd_L()
    L = params.L
    decoded = decode_keys([canonical_key(config)], params)
    H = profiles_to_heights(decoded.profiles, L)[0].astype(np.int64)
    kinds = decoded.kinds[0].tolist()
    if params.colored:
        colors = decoded.values[0, (L + 1) ** 2:].tolist()
    else:
        colors = [COLOR_NONE if kind == 0 else COLOR_R_DEFAULT for kind in kinds]
    events = {v: (KINDS[kind], color) for v, kind, color in zip(_lattice(L).vertices, kinds, colors)}
    return TrajectoryRecord(L=L, heights=H, events=events)


def profiles_to_heights(profiles, L) -> np.ndarray:
    """Height histories (N, L+2, L+2) of zigzag profile stacks (N, L+1, L+2).

    profiles[:, y] is the profile after update slice y; entry (y, i)
    settles plaquette (t, i) with t = y + (i + y) % 2.  Entries that are
    not plaquettes stay 0.
    """
    profiles = np.asarray(profiles)
    lat = _lattice(L)
    H = np.zeros((len(profiles), L + 2, L + 2), dtype=profiles.dtype)
    H[:, lat.zig_t, lat.zig_i] = profiles
    return H


# ---------------------------------------------------------------------------
# canonical keys


def key_length(params: ModelParams) -> int:
    return _key_length(params.L, params.colored)


def _key_length(L, colored) -> int:
    n = ((L + 1) ** 2 + 7) // 8
    if colored:
        n += ((L * L - 1) // 2 + 3) // 4
    return n


def site_order(L, colored):
    """Sites in key order: ("s", x, y) spins, then ("c", i, t) colors if colored."""
    sites = [("s",) + s for s in spin_sites(L)]
    if colored:
        sites += [("c",) + v for v in vertex_sites(L)]
    return sites


def profile_spins(profiles, y, L) -> np.ndarray:
    """Spin rows (N, L+1) uint8 of zigzag profiles (N, L+2): row n is spin row
    y[n], read off profiles[n], the profile after slice y[n].

    Raises EncodeError unless every profile of slice 0 or L is the horizon
    and every spin joins plaquettes one unit apart.
    """
    profiles = np.asarray(profiles)
    if (profiles[(y == 0) | (y == L)] != horizon_profile(L)).any():
        raise EncodeError("trajectory does not start and end at the horizon")
    dh = (profiles[:, 1:] - profiles[:, :-1]) * _lattice(L).sign[y]  # later minus earlier
    up = dh == 1
    if not (up | (dh == -1)).all():
        n, x = np.argwhere(~up & (dh != -1))[0].tolist()
        raise EncodeError(f"slope violation across spin {(x, int(y[n]))}: dh = {int(dh[n, x])}")
    return up.view(np.uint8)


def profiles_to_spins(profiles, L) -> np.ndarray:
    """Spin values (N, (L+1)**2) uint8 of zigzag profile stacks (N, L+1, L+2),
    spin row y from profile y (`profile_spins`, with its checks)."""
    profiles = np.asarray(profiles)
    rows = profiles.reshape(len(profiles) * (L + 1), L + 2)
    return profile_spins(rows, np.tile(np.arange(L + 1), len(profiles)), L).reshape(
        len(profiles), (L + 1) ** 2)


def pack_values(values, L, colored) -> np.ndarray:
    """Keys (N, key_length) uint8 of site values (N, sites) in `site_order`."""
    values = np.asarray(values, dtype=np.uint8)
    n_spins = (L + 1) ** 2
    keys = np.packbits(values[:, :n_spins] & 1, axis=1, bitorder="little")
    if not colored:
        return keys
    codes = (values[:, n_spins:] & 3).reshape(len(values), (L * L - 1) // 8, 4)  # whole bytes
    return np.concatenate([keys, np.bitwise_or.reduce(codes << _CODE_SHIFTS, axis=2)], axis=1)


def unpack_keys(keys, L, colored) -> np.ndarray:
    """Site values (N, sites) uint8 in `site_order`; the inverse of `pack_values`.

    `keys` is a sequence of bytes or a uint8 key matrix.  A key of the
    wrong length, a spin padding bit set (L = 1 mod 4 leaves 4) or a
    color code 3 raises DecodeError("key", ...).
    """
    n_spins = (L + 1) ** 2
    spin_bytes = (n_spins + 7) // 8
    keys = _key_matrix(keys, _key_length(L, colored))
    bits = np.unpackbits(keys[:, :spin_bytes], axis=1, bitorder="little")
    if bits[:, n_spins:].any():
        raise DecodeError("key", None, "canonical key has padding bits set")
    if not colored:
        return bits[:, :n_spins]
    codes = ((keys[:, spin_bytes:, None] >> _CODE_SHIFTS) & 3).reshape(len(keys), (L * L - 1) // 2)
    _raise_first(codes > 2, "key", _lattice(L).vertices, "malformed color code")
    return np.concatenate([bits[:, :n_spins], codes], axis=1)


def _key_matrix(keys, length) -> np.ndarray:
    if isinstance(keys, np.ndarray):
        if keys.ndim != 2 or keys.shape[1] != length:
            raise DecodeError("key", keys.shape, "key matrix has the wrong width")
        return keys
    keys = list(keys)
    for key in keys:
        if len(key) != length:
            raise DecodeError("key", len(key), "canonical key has the wrong length")
    return np.frombuffer(b"".join(keys), dtype=np.uint8).reshape(len(keys), length)


def key_order(keys):
    """(order, repeat): the stable row order that sorts a uint8 key matrix as bytes,
    and whether each sorted row but the first repeats the row before it."""
    if not len(keys):  # lexsort would take one empty key per byte column
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=bool)
    order = np.lexsort(keys.T[::-1])  # lexsort's last key is its primary one
    ranked = keys[order]
    return order, (ranked[1:] == ranked[:-1]).all(axis=1)


def key_rows(keys) -> np.ndarray:
    """One fixed-width void per row of a uint8 matrix; they sort like the rows' bytes."""
    keys = np.ascontiguousarray(keys)
    return keys.view(np.dtype((np.void, keys.shape[1]))).ravel()


def _raise_first(bad, kind, locations, what):
    """DecodeError at the first flagged location of the first key with one."""
    hit = np.flatnonzero(bad.any(axis=1))
    if hit.size:
        n = int(hit[0])
        where = locations[int(np.argmax(bad[n]))]
        raise DecodeError(kind, where, f"{what} at {where} (key {n})")


def _spin_profiles(spins, L):
    """(zigzag profiles, vertex kinds) of spin value rows.

    Checks Gauss's law at every vertex, then the pinned boundary spins;
    together they make each row's cumulative sum from the pinned column
    0 the zigzag profile of the heights.
    """
    lat = _lattice(L)
    ll, lu, rl, ru = lat.corners
    left = spins[:, ll] + spins[:, lu]  # up spins of each vertex's left pair
    _raise_first(left != spins[:, rl] + spins[:, ru], "gauss", lat.vertices, "Gauss's law fails")
    _raise_first(spins[:, lat.pinned] != lat.pinned_values, "boundary", lat.pinned_sites,
                 "pinned spin flipped")
    kinds = (left == 2).astype(np.int8) - (left == 0)
    dtype = np.min_scalar_type(-(L + 2))  # |heights| <= L + 1: int8 up to L = 125
    steps = spins.astype(dtype).reshape(len(spins), L + 1, L + 1)
    steps *= 2
    steps -= 1
    steps *= lat.sign
    profiles = np.zeros((len(spins), L + 1, L + 2), dtype=dtype)
    np.cumsum(steps, axis=2, dtype=dtype, out=profiles[:, :, 1:])
    return profiles, kinds


def decode_keys(keys, params: ModelParams) -> DecodedKeys:
    """Unpack and validate keys: Gauss's law, the pinned spins, the colors, then the floor.

    The floor holds under reflecting rules, where no height falls below 0.
    """
    params.require_odd_L()
    L, colored = params.L, params.colored
    values = unpack_keys(keys, L, colored)
    n_spins = (L + 1) ** 2
    decoded = DecodedKeys(L, colored, values, *_spin_profiles(values[:, :n_spins], L))
    if colored:
        vertices = _lattice(L).vertices
        _raise_first((values[:, n_spins:] == COLOR_NONE) != (decoded.kinds == 0), "color",
                     vertices, "color 0 must mark exactly the no-change vertices")
        _raise_first(pair_slots(decoded, L)[1], "color", vertices,
                     "evaporation color does not match")
    if params.boundary_mode == "reflecting":
        _raise_first((decoded.profiles < 0).reshape(len(values), (L + 1) * (L + 2)), "floor",
                     _lattice(L).plaquettes, "height below 0 under reflecting rules")
    return decoded


def pair_slots(decoded: DecodedKeys, last_row: int):
    """Replay the deposited pairs of vertex rows 1..last_row, every key at once.

    Returns (slots, mismatch).  slots[n, i, k] is the color of the pair
    at level k above site i's horizon (the pair a deposit from height
    i % 2 + 2k put there); levels below (profiles[n, last_row, i] -
    i % 2) // 2 are still pending after row last_row.  mismatch[n, v]
    flags an evaporation at vertex v that finds no pair, or one of
    another color.  Only a key with such a flag can reach a level below
    its horizon; the negative index then lands in a slot of that key no
    valid key uses.
    """
    L = decoded.L
    lat = _lattice(L)
    codes = decoded.values[:, (L + 1) ** 2:]
    slots = np.zeros((len(codes), L + 2, L // 2 + 1), dtype=np.uint8)  # |h_i| <= (L+1)/2
    mismatch = np.zeros(decoded.kinds.shape, dtype=bool)
    for t in range(1, last_row + 1):  # the vertices of one row update distinct sites
        first, last = lat.row_start[t], lat.row_start[t + 1]
        sites = lat.vertex_i[first:last]
        level = (decoded.profiles[:, t - 1, sites] - sites % 2) // 2  # pairs below, before
        kinds, colors = decoded.kinds[:, first:last], codes[:, first:last]
        n, j = np.nonzero(kinds == 1)
        slots[n, sites[j], level[n, j]] = colors[n, j]
        n, j = np.nonzero(kinds == -1)
        below = level[n, j] - 1
        mismatch[n, first + j] = (below < 0) | (slots[n, sites[j], below] != colors[n, j])
    return slots, mismatch


def canonical_key(config: LatticeConfig) -> bytes:
    values = [config.spins[s] for s in spin_sites(config.L)]
    if config.colored:
        values += [config.colors[v] for v in vertex_sites(config.L)]
    return pack_values([values], config.L, config.colored).tobytes()


def key_to_config(key: bytes, params: ModelParams) -> LatticeConfig:
    params.require_odd_L()
    L = params.L
    values = unpack_keys([key], L, params.colored)[0].tolist()
    config = LatticeConfig(L=L, colored=params.colored, spins=dict(zip(spin_sites(L), values)))
    if params.colored:
        config.colors = dict(zip(vertex_sites(L), values[(L + 1) ** 2:]))
    return config

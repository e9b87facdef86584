"""Exact bridge enumeration and sparse state assembly at small L.

A bridge is a trajectory over update slices t = 1..L that starts and
ends at the horizon.  Its weight multiplies the event probabilities of
its mode.  The modes differ only at the floor, a peak at h = 1: it
keeps just its no-change branch, of probability 1 under reflecting
rules and (1+p)/2 under absorbing ones (post-selection discards the
fall below 0).  Frozen boundary sites contribute that factor per slice
whenever they sit at the floor, and 1 otherwise.

The enumeration is an array frontier.  Every trajectory alive after
slice t is one row: its zigzag profiles after slices 0..t, one color
bit-stack per site (the pairs deposited there and not yet evaporated),
the colors of its vertices so far and its weight.  Slice t + 1 expands
all rows at once.  Each eligible site classifies every row into an
event-table label (shape, floor) and keeps the branches of that label
that can still return to the horizon (`within_reach`, site by site);
`expand_frontier` then repeats every row once per combination of kept
branches.  Children come out parent-major with each site's branches in
table order, so the rows are in the order of a depth-first recursion
over slices and sites, and weights are multiplied in that recursion's
order: w = ((1.0 p_first) ...) base with base the frozen sites'
factor, then weight w.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np

from .codec import (
    decode_keys,
    key_length,
    key_order,
    pack_values,
    profiles_to_spins,
    vertex_sites,
)
from .codec import canonical_key, encode_trajectory  # noqa: F401  perfbench/traced.py wraps these
from .errors import CapacityError, DecodeError, InvalidParameterError
from .params import ModelParams
from .surface import event_table, horizon_profile, slice_sites

MAX_NODES = 10_000_000
_LABELS = ("valley", "peak", "floor", "slope")  # codes 0..3 of _site_labels; floor: peak at h <= 1
_KEPT = []  # the one kept layout: [(key, layout)]


def _kept(key, build):
    """The layout that `build()` makes for `key`, kept until another key is asked for.

    The DP's profile index (key ("profiles", L)) and the parent
    Hamiltonian's term layout (key ("terms", ...), see
    `hamiltonian._layout`) do not depend on p, so a p grid at one L builds
    its layout once.  One layout is kept at a time: a hit compares the key
    in full, and a miss drops the kept layout before `build()` runs, so
    two layouts are never held at once.  `cli.run_experiment` empties
    `_KEPT` when it returns, so no layout outlives its run.
    """
    if not _KEPT or _KEPT[0][0] != key:
        _KEPT.clear()
        _KEPT.append((key, build()))
    return _KEPT[0][1]


@dataclass(eq=False)
class SparseState:
    """Real amplitudes over distinct canonical keys: `keys` (N, key_length) uint8, one
    key per row in build order, and `amps` (N,) float64.  Built states are normalized."""

    keys: np.ndarray
    amps: np.ndarray
    params: ModelParams

    @functools.cached_property
    def amplitudes(self) -> dict:
        """{key bytes: amplitude} in build order, built on first read: the view of the fixed
        oracle in tests/conftest.py and of perfbench/traced.py; no src module reads it."""
        return dict(zip(map(bytes, self.keys), self.amps.tolist()))

    def norm(self) -> float:
        return math.sqrt(math.fsum((self.amps * self.amps).tolist()))

    def __len__(self):
        return len(self.amps)


def expand_frontier(keeps, n_rows, cap, overflow):
    """Children of `n_rows` parent rows under per-site branch masks.

    keeps[k] (n_rows, branches) marks the branches site k may take from
    each parent.  A child takes one kept branch per site; children are
    ordered by parent, then by site 0's branch, site 1's and so on, the
    order of a depth-first recursion over the sites.  Their number is
    checked against `cap` before any child is built (CapacityError with
    message `overflow`).  Returns (parent row of each child, [branch
    index of each child at site k]).
    """
    counts = np.ones(n_rows, dtype=np.int64)
    for keep in keeps:
        counts *= keep.sum(axis=1)
    if counts.sum() > cap:
        raise CapacityError(overflow)
    rows = np.arange(n_rows)
    choices = []
    for keep in keeps:
        parent, branch = np.nonzero(keep[rows])
        rows = rows[parent]
        choices = [c[parent] for c in choices] + [branch]
    return rows, choices


def branch_table(branches, fields) -> np.ndarray:
    """Per-label branch tuples as one (labels, width) structured array.

    branches[label] lists the label's branches as tuples of `fields`
    values; shorter lists are padded with zeros, and the added bool
    field `valid` marks the real branches.
    """
    table = np.zeros((len(branches), max(map(len, branches))), dtype=fields + [("valid", bool)])
    for label, row in enumerate(branches):
        for b, branch in enumerate(row):
            table[label, b] = tuple(branch) + (True,)
    return table


def _event_branches(params: ModelParams):
    """(branch table over _LABELS with positive-probability branches, frozen-site factors);
    the floor keeps a peak's no-change row alone, as in `entropy.TransferKernel`."""
    reflecting = params.boundary_mode == "reflecting"
    tables = [event_table("peak", reflecting, params.p, params.colored)[-1:] if shape == "floor"
              else event_table(shape, False, params.p, params.colored) for shape in _LABELS]
    table = branch_table([[(delta, color or 0, prob) for delta, _, color, prob in rows if prob > 0.0]
                          for rows in tables],
                         [("delta", np.int8), ("color", np.uint8), ("prob", np.float64)])
    return table, np.array([rows[-1][3] for rows in tables])


def _site_labels(prof, i):
    """Label code of site i in every profile row (see _LABELS)."""
    h = prof[:, i]
    valley = (prof[:, i - 1] > h) & (prof[:, i + 1] > h)
    peak = (prof[:, i - 1] < h) & (prof[:, i + 1] < h)
    return np.where(valley, 0, np.where(peak, 1, 3)) + (peak & (h <= 1))


def within_reach(heights, i, t, L):
    """Whether site i at `heights` after slice t can still return to its horizon height i % 2.

    Each update slice left to the site (t' in t+1..L with i + t' odd)
    moves it by at most 2.
    """
    remaining = (L - t + (i + t + 1) % 2) // 2
    return np.abs(heights - i % 2) <= 2 * remaining


@dataclass
class Bridges:
    """Enumerated trajectories as arrays, in depth-first order.

    `profiles` (N, L+1, L+2) int8 are the zigzag profile stacks, row c
    the profile after slice c as in `codec.DecodedKeys` (event kinds
    follow from them), `colors` (N, vertices) uint8 the vertex colors in
    `codec.vertex_sites` order (0 on no-change vertices; uncolored
    changes carry r), `weights` (N,) float64.
    """

    profiles: np.ndarray
    colors: np.ndarray
    weights: np.ndarray

    def __len__(self):
        return len(self.weights)


def enumerate_bridge(params: ModelParams, max_nodes: int = MAX_NODES) -> Bridges:
    """All bridge trajectories with their exact weights.

    `max_nodes` bounds the nodes of the trajectory tree, the root and
    every trajectory alive after each slice; it is checked before a
    slice is expanded.
    """
    params.require_odd_L()
    L = params.L
    overflow = f"bridge enumeration exceeded {max_nodes} nodes"
    horizon = horizon_profile(L)
    table, no_change = _event_branches(params)
    vertex = {v: k for k, v in enumerate(vertex_sites(L))}
    profiles = np.zeros((1, L + 1, L + 2), dtype=np.int8)
    profiles[0, 0] = horizon
    stacks = np.zeros((1, L + 2), dtype=np.uint32)  # one bit per pair (g = 1), newest lowest
    colors = np.zeros((1, len(vertex)), dtype=np.uint8)
    weights = np.ones(1)
    visited = 1
    if visited > max_nodes:
        raise CapacityError(overflow)
    for t in range(1, L + 1):
        prof = profiles[:, t - 1]
        sites = slice_sites(L, t)
        frozen = [i for i in (1, L) if (i + t) % 2 == 1]
        labels = {i: _site_labels(prof, i) for i in frozen + sites}
        keeps = [table["valid"][labels[i]]
                 & within_reach(prof[:, i, None] + table["delta"][labels[i]], i, t, L)
                 for i in sites]
        rows, choices = expand_frontier(keeps, len(prof), max_nodes - visited, overflow)
        visited += len(rows)
        profiles, stacks, colors, weights = profiles[rows], stacks[rows], colors[rows], weights[rows]
        profiles[:, t] = profiles[:, t - 1]
        w = 1.0
        for i, branch in zip(sites, choices):
            chosen = table[labels[i][rows], branch]
            w = w * chosen["prob"]
            profiles[:, t, i] += chosen["delta"]
            color = chosen["color"]
            deposit, evaporate = chosen["delta"] > 0, chosen["delta"] < 0
            stacks[deposit, i] = (stacks[deposit, i] << 1) | (color[deposit] - 1)
            color[evaporate] = (stacks[evaporate, i] & 1) + 1  # a pair lies beneath: h >= 0
            stacks[evaporate, i] >>= 1
            colors[:, vertex[i, t]] = color
        base = 1.0
        for i in frozen:
            base = base * no_change[labels[i][rows]]
        weights = weights * (w * base)
    # the horizon bound after slice L leaves only rows at the horizon
    return Bridges(profiles=profiles, colors=colors, weights=weights)


def success_probability(params: ModelParams) -> float:
    """Total bridge weight before renormalization."""
    return math.fsum(enumerate_bridge(params).weights.tolist())


def build_state(params: ModelParams, max_nodes: int = MAX_NODES) -> SparseState:
    """The normalized superposition sqrt(w / W) over encoded bridges."""
    bridges = enumerate_bridge(params, max_nodes=max_nodes)
    total = math.fsum(bridges.weights.tolist())
    if total <= 0:
        raise InvalidParameterError("no bridge trajectory has positive weight")
    positive = bridges.weights > 0
    values = profiles_to_spins(bridges.profiles[positive], params.L)
    if params.colored:
        values = np.hstack([values, bridges.colors[positive]])
    keys = pack_values(values, params.L, params.colored)
    if key_order(keys)[1].any():
        raise AssertionError("distinct trajectories produced the same key")
    return SparseState(keys, np.sqrt(bridges.weights[positive] / total), params)


# ---------------------------------------------------------------------------
# persistence

_MAGIC = b"DEQS"
_VERSION = 1
_HEADER = struct.Struct("<HIdBBQ")


def save_state(state: SparseState, path):
    """Binary format: header (magic, version, L, p, mode, colored, count),
    then (key, float64 amplitude) pairs sorted by key."""
    p = state.params
    order = key_order(state.keys)[0]
    amps = state.amps[order, None].astype("<f8").view(np.uint8)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(_HEADER.pack(_VERSION, p.L, p.p,
                              0 if p.boundary_mode == "reflecting" else 1,
                              1 if p.colored else 0, len(state)))
        fh.write(np.hstack([state.keys[order], amps]).tobytes())


def load_state(path) -> SparseState:
    """Inverse of save_state; a damaged file raises InvalidParameterError.

    The header's mode and colored flags must be 0 or 1, the file must
    have exactly the length its header promises, every key must decode
    (codec.decode_keys), the keys must ascend strictly as save_state
    writes them, and every amplitude must be finite.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:len(_MAGIC)] != _MAGIC:
        raise InvalidParameterError("not a saved state file")
    body = len(_MAGIC) + _HEADER.size
    if len(data) < body:
        raise InvalidParameterError("state file ends inside its header")
    version, L, p, mode, colored, count = _HEADER.unpack_from(data, len(_MAGIC))
    if version != _VERSION:
        raise InvalidParameterError(f"unsupported state file version {version}")
    if mode not in (0, 1) or colored not in (0, 1):
        raise InvalidParameterError(
            f"state file flags must be 0 or 1, got mode {mode} and colored {colored}")
    params = ModelParams(L=L, p=p,
                         boundary_mode="reflecting" if mode == 0 else "absorbing",
                         colored=bool(colored))
    klen = key_length(params)
    if len(data) != body + count * (klen + 8):
        raise InvalidParameterError(
            f"state file holds {len(data) - body} body bytes, its header promises "
            f"{count} entries of {klen + 8}")
    entries = np.frombuffer(data[body:], dtype=np.uint8).reshape(count, klen + 8)
    try:
        decode_keys(entries[:, :klen], params)
    except DecodeError as err:
        raise InvalidParameterError(f"state file holds an invalid key: {err}") from err
    keys = entries[:, :klen].copy()
    order, repeat = key_order(keys)
    if repeat.any() or (order != np.arange(count)).any():
        raise InvalidParameterError("state file keys do not ascend strictly")
    amps = entries[:, klen:].copy().view("<f8").ravel()
    if not np.isfinite(amps).all():
        raise InvalidParameterError("state file holds a non-finite amplitude")
    return SparseState(keys, amps, params)


def export_state_text(state: SparseState) -> str:
    """One `keyhex amplitude` line per entry, sorted by key, for diffing."""
    order = key_order(state.keys)[0]
    return "".join(f"{key.tobytes().hex()} {amp!r}\n"
                   for key, amp in zip(state.keys[order], state.amps[order].tolist()))

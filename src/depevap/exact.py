"""Exact bridge enumeration and sparse state assembly at small L.

A bridge is a trajectory over update slices t = 1..L that starts and
ends at the horizon.  Its weight multiplies the event probabilities of
its mode.  The modes differ only at the floor, a peak at h = 1: it
keeps just its no-change branch, of probability 1 under reflecting
rules and (1+p)/2 under absorbing ones (post-selection discards the
fall below 0).  Frozen boundary sites contribute that factor per slice
whenever they sit at the floor, and 1 otherwise.

One walk (`walk`) enumerates histories over distinct states
(`Frontier`), under branches per site label (`site_labels`): the
bridges' event table (`event_branches`, which `seqgen`'s rounds read
with the same labels), or the parent Hamiltonian's p-independent
sector table (`hamiltonian.sector_keys`).  A state is a zigzag profile
with one stack of pending pairs per site (`codec.push_pop`, dtype from
`codec.empty_stacks`); a slice holds few of them (at most 14 profiles
at L = 7 and 42 at L = 9, 171 states with their stacks at L = 7
colored) against thousands of histories.  Slice t + 1 labels every
state of slice t once per site and keeps the branches that can still
return to the horizon (`within_reach`); `Frontier.step`, which
`seqgen.apply_round` takes on the emitter's states too, builds one edge
per combination of kept branches with its child state and vertex colors
and merges equal children.  The walk reads each edge's weight factor
w = ((1.0 p_first) ...) base, base the frozen sites' factor, each the
probability of its label's no-change branch.  Each history takes every
edge of its state, in order, so the histories come out in the order of
a depth-first recursion over slices and sites.  After slice L each
caller gathers from the edges only what it reads; a bridge's weight is
its edges' factors multiplied in slice order, as the recursion does.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np

from .codec import (
    decode_keys,
    empty_stacks,
    key_length,
    key_order,
    key_rows,
    pack_values,
    profile_spins,
    push_pop,
)
from .codec import canonical_key, encode_trajectory  # noqa: F401  perfbench/traced.py wraps these
from .errors import CapacityError, DecodeError, InvalidParameterError
from .params import ModelParams, _require_cap
from .surface import event_table, horizon_profile, slice_sites

MAX_NODES = 10_000_000
LABELS = ("valley", "peak", "floor", "slope_up", "slope_down")  # the codes of site_labels
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


class Frontier:
    """Paths through the distinct states of successive slices, in depth-first order.

    `heights` (M, L+2) int8 and `stacks` (M, L+2) hold each distinct
    state of a slice once, and `node` (N,) is the state of every path
    alive.  `paths` traces them back through every slice.
    """

    def __init__(self, node, heights, stacks):
        self.node = self.first = node
        self.heights, self.stacks = heights, stacks
        self.sizes = [len(heights)]  # the states before the first slice, then each slice's edges
        self.steps = []  # per slice: (parent path, edge) of every child path

    def step(self, branches, keeps, sites, cap, overflow):
        """Move every path one slice on; equal children become the next states.

        branches (states, sites, branches) have fields `delta` and `color`,
        and keeps marks those each site may take from each state.  An edge
        takes one kept branch per site; a state's edges form one contiguous
        range, ordered by the first site's branch, then the second's and so
        on.  Each path takes every edge of its state, paths in order, so the
        children come out in the order of a depth-first recursion over
        slices and sites; their number is checked against `cap` before any
        is built (CapacityError `overflow`).  A child adds each site's delta
        and takes `codec.push_pop` on its stacks.  Children merge on their
        profile and stack bytes, the next states sorted as those bytes.
        Returns per edge its state, its (edges, sites) branches, its vertex
        color row in the layout `site_values` reads (vertex (i, t) at column
        (i - 1) // 2) and its child profile.
        """
        counts = keeps.sum(axis=2).prod(axis=1, dtype=np.float64)  # an int64 product can wrap
        if counts[self.node].sum() > cap:
            raise CapacityError(overflow)
        counts = counts.astype(np.intp)
        children = counts[self.node]
        parent = np.arange(len(keeps))
        choice = np.zeros((len(keeps), 0), dtype=np.intp)
        for k in range(len(sites)):
            state, branch = np.nonzero(keeps[parent, k])
            parent = parent[state]
            choice = np.hstack([choice[state], branch[:, None]])
        # a child's edge: its state's first edge plus its rank among its path's children
        edge = np.repeat((np.cumsum(counts) - counts)[self.node] + children - np.cumsum(children),
                         children) + np.arange(children.sum())
        self.steps.append((np.repeat(np.arange(len(self.node)), children), edge))
        self.sizes.append(len(parent))
        chosen = branches[parent[:, None], np.arange(len(sites)), choice]  # (edges, sites)
        heights, stacks = self.heights[parent], self.stacks[parent]  # one child per edge
        heights[:, sites] += chosen["delta"]
        colors = np.zeros((len(parent), (heights.shape[1] - 1) // 2), dtype=np.uint8)
        stacks[:, sites], colors[:, (sites - 1) // 2] = push_pop(stacks[:, sites], chosen["delta"],
                                                                 chosen["color"])
        state = key_rows(np.hstack([heights.view(np.uint8), stacks.view(np.uint8)]))
        _, first, state = np.unique(state, return_index=True, return_inverse=True)
        self.node = state[edge]
        self.heights, self.stacks = heights[first], stacks[first]
        return parent, chosen, colors, heights

    def paths(self):
        """(paths alive, 1 + slices) intp: the state each path started from, then its edge
        at each slice, as rows of those states and the slices' edges concatenated in order."""
        starts = np.cumsum(self.sizes)
        index = np.empty((len(self.node), len(starts)), dtype=np.intp)
        path = np.arange(len(self.node))
        for t in reversed(range(len(self.steps))):
            rows, edge = self.steps[t]
            index[:, t + 1] = edge[path] + starts[t]
            path = rows[path]
        index[:, 0] = self.first[path]
        return index


def path_rows(table, index):
    """The rows of `table` at `index` (paths, k), laid side by side as (paths, k * width)."""
    return np.take(key_rows(table.view(np.uint8)), index).view(table.dtype)


def site_values(index, spins, colors, rows, colored):
    """Site values (rows, sites) in `codec.site_order` of the histories `rows` of a walk,
    colors only if `colored`, gathered one slice at a time into one matrix.

    `index`, `spins` and `colors` are as `walk` returns them.  A colors
    row holds vertex (i, t) at column (i - 1) // 2, so slice t's vertices
    lead it: all (L + 1) // 2 columns when t is even, one fewer when odd.
    """
    L = index.shape[1] - 1
    n_spins = (L + 1) ** 2
    values = np.empty((len(rows), n_spins + colored * (L * L - 1) // 2), dtype=np.uint8)
    start = n_spins
    for t in range(L + 1):
        edge = index[:, t][rows, None]
        values[:, t * (L + 1):(t + 1) * (L + 1)] = path_rows(spins, edge)
        if colored and t:
            count = (L + 1) // 2 - t % 2
            values[:, start:start + count] = path_rows(colors, edge)[:, :count]
            start += count
    return values


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


def event_branches(p, reflecting, colored):
    """{label: its positive-probability (delta, color, prob) branches} over LABELS, from
    `surface.event_table`; the floor keeps a peak's no-change row alone, as in
    `entropy.TransferKernel`, and both slope labels take the slope's rows."""
    tables = {name: event_table("peak", reflecting, p, colored)[-1:] if name == "floor"
              else event_table(name.partition("_")[0], False, p, colored) for name in LABELS}
    return {name: [(delta, color or 0, prob) for delta, _, color, prob in rows if prob > 0.0]
            for name, rows in tables.items()}


def site_labels(prof, i):
    """Label codes (rows, sites) of the sites `i` in every profile row: LABELS[code] names a
    valley, a peak, the floor (a peak at h <= 1), or a slope standing above its left
    (slope_up) or its right (slope_down) neighbour."""
    h = prof[:, i]
    above_l, above_r = h > prof[:, i - 1], h > prof[:, i + 1]
    return np.where(above_l & above_r, 1 + (h <= 1), 3 * above_l + 4 * above_r)


def within_reach(heights, i, t, L):
    """Whether site i at `heights` after slice t can still return to its horizon height i % 2
    (`i` an int or an array that broadcasts against `heights`).

    Each update slice left to the site (t' in t+1..L with i + t' odd)
    moves it by at most 2.
    """
    remaining = (L - t + (i + t + 1) % 2) // 2
    return np.abs(heights - i % 2) <= 2 * remaining


@dataclass
class Bridges:
    """Enumerated trajectories, in depth-first order, as `walk` gives them.

    `index` (N, 1 + L) holds each trajectory's root, then its edge at each
    slice, as rows of the walk's edge tables `edges` (profiles, spins,
    colors); `weights` (N,) float64.  The per-trajectory fields are
    gathered from those tables when they are read: `profiles`
    (N, L+1, L+2) int8 the zigzag profile stacks, row c the profile after
    slice c as in `codec.DecodedKeys` (event kinds follow from them),
    `spins` (N, (L+1)**2) uint8 their spin values as
    `codec.profiles_to_spins` gives them, `colors` (N, vertices) uint8 the
    vertex colors in `codec.vertex_sites` order (0 on no-change vertices;
    uncolored changes carry r).
    """

    index: np.ndarray
    edges: tuple
    weights: np.ndarray

    def __len__(self):
        return len(self.weights)

    @property
    def profiles(self):
        L = self.index.shape[1] - 1
        return path_rows(self.edges[0], self.index).reshape(len(self), L + 1, L + 2)

    @property
    def spins(self):
        return path_rows(self.edges[1], self.index)

    @property
    def colors(self):
        values = site_values(self.index, *self.edges[1:], np.arange(len(self)), True)
        return values[:, self.index.shape[1] ** 2:]


def walk(L, by_label, max_nodes, overflow):
    """Every history from the horizon back to it, over distinct states.

    by_label[name] lists the (delta, color, prob) branches of each label
    name of LABELS; a frozen site's factor is the probability of its
    label's delta-0 branch.  `Frontier.step` builds each slice's edges
    from the kept branches, and the walk reads their colors and weight
    factors.  `max_nodes` bounds the nodes of the history tree, the root
    and every history alive after each slice, checked before a slice is
    expanded (CapacityError `overflow`).  Returns (index, (profiles,
    spins, colors, factors)): index (histories, 1 + L) holds each
    history's root, then its edge at each slice, as rows of the edge
    tables for `path_rows` and `site_values` to gather.
    """
    rows = [by_label[name] for name in LABELS]
    table = branch_table(rows, [("delta", np.int8), ("color", np.uint8), ("prob", np.float64)])
    frozen = np.array([next(prob for delta, _, prob in row if delta == 0) for row in rows])
    prof = horizon_profile(L)[None].astype(np.int8)
    frontier = Frontier(np.zeros(1, dtype=np.intp), prof, empty_stacks(L, prof.shape))
    visited = 1
    edges = [(prof, np.zeros((1, (L + 1) // 2), dtype=np.uint8), np.ones(1))]  # the root
    for t in range(1, L + 1):
        sites = np.array(slice_sites(L, t), dtype=np.intp)
        frozen_sites = np.array([i for i in (1, L) if (i + t) % 2 == 1], dtype=np.intp)
        prof = frontier.heights  # the distinct states after slice t - 1
        labels = site_labels(prof, np.concatenate([sites, frozen_sites]))
        branches = table[labels[:, :len(sites)]]  # (states, sites, branches)
        keeps = branches["valid"] & within_reach(prof[:, sites, None] + branches["delta"],
                                                 sites[:, None], t, L)
        parent, chosen, colors, heights = frontier.step(branches, keeps, sites,
                                                        max_nodes - visited, overflow)
        visited += len(frontier.node)
        base = 1.0
        for label in labels[parent, len(sites):].T:
            base = base * frozen[label]
        w = np.ones(len(parent))
        for k in range(len(sites)):
            w = w * chosen["prob"][:, k]
        edges.append((heights, colors, w * base))
    # the horizon bound after slice L leaves only histories at the horizon
    profs, colors, factors = (np.concatenate(column) for column in zip(*edges))
    spins = profile_spins(profs, np.repeat(np.arange(L + 1), frontier.sizes), L)
    return frontier.paths(), (profs, spins, colors, factors)


def enumerate_bridge(params: ModelParams, max_nodes: int = MAX_NODES) -> Bridges:
    """All bridge trajectories with their exact weights, the `walk` of the event table
    over at most `max_nodes` tree nodes."""
    params.require_odd_L()
    _require_cap("max_nodes", max_nodes)
    L = params.L
    index, (profs, spins, colors, factors) = walk(
        L, event_branches(params.p, params.boundary_mode == "reflecting", params.colored),
        max_nodes, f"bridge enumeration exceeded {max_nodes} nodes")
    weights = np.ones(len(index))
    for t in range(1, L + 1):  # the weight product in slice order
        weights = weights * factors[index[:, t]]
    return Bridges(index, (profs, spins, colors), weights)


def build_state(params: ModelParams, max_nodes: int = MAX_NODES) -> SparseState:
    """The normalized superposition sqrt(w / W) over encoded bridges."""
    bridges = enumerate_bridge(params, max_nodes=max_nodes)
    total = math.fsum(bridges.weights.tolist())
    if total <= 0:
        raise InvalidParameterError("no bridge trajectory has positive weight")
    positive = np.flatnonzero(bridges.weights > 0)
    values = site_values(bridges.index, *bridges.edges[1:], positive, params.colored)
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
    params.require_odd_L()
    klen = key_length(params)
    if len(data) != body + count * (klen + 8):
        raise InvalidParameterError(
            f"state file holds {len(data) - body} body bytes, its header promises "
            f"{count} entries of {klen + 8}")
    entries = np.frombuffer(data[body:], dtype=np.uint8).reshape(count, klen + 8)
    keys = entries[:, :klen].copy()
    if count:  # without keys there is nothing to check, so a huge L builds no codec lattice
        try:
            decode_keys(keys, params)
        except DecodeError as err:
            raise InvalidParameterError(f"state file holds an invalid key: {err}") from err
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

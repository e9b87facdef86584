"""Depth-first bridge enumeration: the reference for `exact.enumerate_bridge`.

`local_shape` names a site's shape from its neighbour offsets, and
`site_branches` lists its branches from `surface.event_table`.
`slice_outcomes` yields every joint branch of one update slice, site by
site in table order, and `enumerate_bridge` recurses over the slices,
resolving each evaporation's color from per-site stacks.  The array
frontier in `depevap.exact` must reproduce its heights, colors, weights
(bit for bit), order and node count.  With bridge=False the recursion
keeps every trajectory, not only those back at the horizon; in
reflecting mode their weights sum to 1.  `trajectory_weight` recomputes
a record's weight from its events.  `success_probability` sums the
weights of `depevap.exact.enumerate_bridge`, and `bridge_profiles` and
`bridge_colors` gather its trajectories' profile stacks and vertex
colors from its edge tables.  `step_code_site_maps` is the DP's site map
rule read off step codes, the reference for `entropy._ProfileIndex`,
whose maps come from `exact.site_labels`.
"""

from __future__ import annotations

import math

import numpy as np

from depevap import exact
from depevap.codec import TrajectoryRecord, vertex_sites
from depevap.entropy import _dyck_codes
from depevap.errors import CapacityError, EncodeError, InvalidParameterError
from depevap.exact import MAX_NODES
from depevap.params import ModelParams
from depevap.surface import COLOR_NONE, event_table, horizon_profile


def local_shape(dl, dr) -> str:
    """"valley", "peak" or "slope" from the neighbour offsets h_{i-1} - h_i, h_{i+1} - h_i."""
    if dl == dr == 1:
        return "valley"
    if dl == dr == -1:
        return "peak"
    if dl == -dr and abs(dl) == 1:
        return "slope"
    raise InvalidParameterError(f"neighbour offsets ({dl}, {dr}) violate |dh| = 1")


def site_branches(h, hl, hr, params: ModelParams):
    """Trajectory branches (new_h, kind, color, prob) of a site at height h between hl and hr.

    The no-change branch is last, so `[-1][3]` is the weight of a site
    that stays put, e.g. a frozen boundary site.  In absorbing mode a
    peak at h = 1 keeps (1+p)/2: its evaporation branch would go below 0
    and is post-selected away.  src reads `event_table` by slice; this
    view is kept for the independent bridge enumeration in
    tests/bridge_reference.py.
    """
    floor = params.boundary_mode == "reflecting" and h <= 1
    table = event_table(local_shape(hl - h, hr - h), floor, params.p, params.colored)
    return [(h + d, kind, color, prob) for d, kind, color, prob in table]


def _remaining_updates(L, i, t):
    """Number of update slices for site i strictly after slice t."""
    # slices t' in t+1..L with (i + t') odd
    first = t + 1 if (i + t + 1) % 2 == 1 else t + 2
    if first > L:
        return 0
    return (L - first) // 2 + 1


def reaches_horizon(prof, t, horizon) -> bool:
    """Whether every eligible site can still return to the horizon after slice t.

    Each remaining update moves a site by at most 2.
    """
    L = len(horizon) - 2
    for i in range(2, L):
        if abs(prof[i] - horizon[i]) > 2 * _remaining_updates(L, i, t):
            return False
    return True


def slice_outcomes(profile, t, params: ModelParams):
    """All branch outcomes of update slice t from the zigzag profile before it.

    Yields (new_profile_tuple, weight, events) with events a tuple of
    (site, kind, color); evaporation colors are None (resolved by the
    caller from its stacks).  Absorbing mode drops branches reaching
    h < 0 and multiplies the frozen-site survival factors.
    """
    L = params.L
    base = 1.0
    for i in (1, L):
        if (i + t) % 2 == 1:
            base *= site_branches(profile[i], profile[i - 1], profile[i + 1], params)[-1][3]
    sites = [i for i in range(2, L) if (i + t) % 2 == 1]
    per_site = []
    for i in sites:
        opts = []
        for new_h, kind, color, prob in site_branches(profile[i], profile[i - 1], profile[i + 1], params):
            if params.boundary_mode == "absorbing" and new_h < 0:
                continue  # eager post-selection
            if prob <= 0.0:
                continue
            opts.append((new_h, kind, color, prob))
        per_site.append(opts)

    def rec(k, prof, w, ev):
        if k == len(sites):
            yield tuple(prof), w * base, tuple(ev)
            return
        i = sites[k]
        for new_h, kind, color, prob in per_site[k]:
            prof[i] = new_h
            yield from rec(k + 1, prof, w * prob, ev + [(i, kind, color)])
        prof[i] = profile[i]

    yield from rec(0, list(profile), 1.0, [])


def step_code_site_maps(L):
    """(heights, per site i of 1..L its (valleys, raised, floors)) over the sorted step codes.

    Bit j of a code is set when step j, from h_j to h_{j+1}, goes up.  Site
    i is a valley when step i - 1 goes down and step i up; a deposit flips
    both, and `searchsorted` finds the raised profile's rank.  A floor is a
    peak (step i - 1 up, step i down) at h = 1.
    """
    codes = _dyck_codes(L)
    heights = np.zeros((codes.size, L + 2), dtype=np.int8)
    for j in range(L + 1):
        heights[:, j + 1] = heights[:, j] + 2 * ((codes >> j) & 1) - 1
    maps = []
    for i in range(1, L + 1):
        up_left, up_right = (codes >> (i - 1)) & 1, (codes >> i) & 1
        valleys = np.flatnonzero((up_left == 0) & (up_right == 1))
        raised = np.searchsorted(codes, codes[valleys] ^ (3 << (i - 1)))
        floor = np.flatnonzero((up_left == 1) & (up_right == 0) & (heights[:, i] == 1))
        maps.append((valleys, raised, floor))
    return heights, maps


def enumerate_bridge(params: ModelParams, max_nodes: int = MAX_NODES, bridge: bool = True):
    """([(TrajectoryRecord, weight)] of every bridge depth first, nodes visited)."""
    params.require_odd_L()
    L = params.L
    horizon = tuple(int(h) for h in horizon_profile(L))
    results = []
    visited = 0

    def rec(prof, t, weight, events, stacks):
        nonlocal visited
        visited += 1
        if visited > max_nodes:
            raise CapacityError(f"bridge enumeration exceeded {max_nodes} nodes")
        if t > L:
            if not bridge or prof == horizon:
                H = history_to_heights(L, history)
                results.append((TrajectoryRecord(L=L, heights=H, events=dict(events)), weight))
            return
        for new_prof, w, ev in slice_outcomes(prof, t, params):
            if bridge and not reaches_horizon(new_prof, t, horizon):
                continue
            resolved = [((i, t), ("no_change", COLOR_NONE))
                        for i in (1, L) if (i + t) % 2 == 1]
            pushed = []
            for site, kind, color in ev:
                if kind == "deposit":
                    stacks[site].append(color)
                    pushed.append(site)
                elif kind == "evaporate":
                    if stacks[site]:
                        color = stacks[site].pop()
                        pushed.append((site, color))
                    else:
                        color = COLOR_NONE  # sub-horizon evaporation, absorbing only
                resolved.append(((site, t), (kind, color)))
            history.append(new_prof)
            rec(new_prof, t + 1, weight * w, events + resolved, stacks)
            history.pop()
            for item in reversed(pushed):
                if isinstance(item, tuple):  # undo an evaporation pop
                    site, color = item
                    stacks[site].append(color)
                else:  # undo a deposit push
                    stacks[item].pop()

    history = [horizon]
    rec(horizon, 1, 1.0, [], {i: [] for i in range(1, L + 1)})
    return results, visited


def history_to_heights(L, history):
    """Heights array from the zigzag profiles after slices 0..L."""
    H = np.zeros((L + 2, L + 2), dtype=np.int64)
    # rows 0 and 1 come from the initial zigzag; slice t settles row t+1
    for i in range(L + 2):
        H[0][i] = history[0][i] if i % 2 == 0 else 0
        H[1][i] = history[0][i] if i % 2 == 1 else 0
    for t in range(1, L + 1):
        prof = history[t]
        for i in range(L + 2):
            if (i + t + 1) % 2 == 0:
                H[t + 1][i] = prof[i]
    return H


def bridge_records(params: ModelParams):
    """[(TrajectoryRecord, weight)] of every bridge; about 5 ms at L <= 5."""
    return enumerate_bridge(params)[0]


def trajectory_weight(traj: TrajectoryRecord, params: ModelParams) -> float:
    """Product of a record's per-vertex probabilities; EncodeError on an impossible event.

    Frozen sites 1 and L contribute their no-change probability: (1+p)/2
    in absorbing mode at a Peak at h = 1, and 1 otherwise.
    """
    H, w = traj.heights, 1.0
    for i, t in vertex_sites(traj.L):
        h, hl, hr = int(H[t - 1][i]), int(H[t][i - 1]), int(H[t][i + 1])
        if i in (1, traj.L):
            w *= site_branches(h, hl, hr, params)[-1][3]
            continue
        probs = [prob for new_h, kind, _, prob in site_branches(h, hl, hr, params)
                 if new_h == H[t + 1][i] and kind == traj.events[(i, t)][0]]
        if not probs:
            raise EncodeError(f"event at vertex {(i, t)} not reachable by the rules")
        w *= probs[0]  # colored deposits already carry p/4 per definite color
    return w


def success_probability(params: ModelParams) -> float:
    """Total bridge weight of `exact.enumerate_bridge` before renormalization."""
    return math.fsum(exact.enumerate_bridge(params).weights.tolist())


def bridge_profiles(bridges: exact.Bridges) -> np.ndarray:
    """(N, L+1, L+2) int8 zigzag profile stacks of the trajectories, row c the profile
    after slice c as in `codec.DecodedKeys` (event kinds follow from them)."""
    L = bridges.index.shape[1] - 1
    return exact.path_rows(bridges.edges[0], bridges.index).reshape(len(bridges), L + 1, L + 2)


def bridge_colors(bridges: exact.Bridges) -> np.ndarray:
    """(N, vertices) uint8 vertex colors of the trajectories in `codec.vertex_sites` order
    (0 on no-change vertices; uncolored changes carry r)."""
    values = exact.site_values(bridges.index, *bridges.edges[1:], np.arange(len(bridges)), True)
    return values[:, bridges.index.shape[1] ** 2:]

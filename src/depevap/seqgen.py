"""Stack-emitter sequential generation of the reflecting colored state.

The emitter holds one stack per surface site.  Stack i records site i's
height (the marker position; markers on even sites are E, on odd sites
F, and never leave their stack) and the colors of the deposited,
not-yet-evaporated block pairs beneath the marker, most recent on top.
Odd rounds update the E stacks (even sites), even rounds the F stacks
(odd interior sites) plus the deterministic boundary emissions; round n
radiates the L+1 spin qubits of lattice spin row n and the color
qutrits of vertex row n.

Per eligible site the channel branches are the branches of the
classical event table (`surface.event_table`), each with the square
root of its probability as amplitude:

    valley   deposit(c)   emits up,up    c
             no change    emits dn,dn    0
    peak     evaporate    emits dn,dn    pair color
             no change    emits up,up    0
    peak with no pairs beneath (surface at the horizon): the reflecting
             floor, a certain no change, emits up,up and color 0
    slopes   no change    emits the height-difference pair, 0

Every column of a channel restricted to its reachable domain has unit
norm, so each round is an isometry and the joint state stays normalized
until the final projection onto the reference emitter, whose squared
weight is the post-selection success probability.

The optional cooling phase reruns the later rounds (after ceil(L/2))
with p = 0 and the deposition branches removed; no extra rounds or
registers are introduced, and the post-selection success grows because
every peak then drains with amplitude sqrt(1/2) per round.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .codec import key_bytes, pack_values, site_order
from .errors import CapacityError, InvalidParameterError, UnsupportedModeError
from .exact import SparseState
from .params import ModelParams
from .surface import event_table, local_shape

MAX_BRANCHES = 2_000_000


@dataclass(frozen=True)
class EmitterConfig:
    """Stacks as a tuple over sites 1..L of (height, pair colors bottom-up)."""

    L: int
    stacks: tuple


def init_emitter(L: int) -> EmitterConfig:
    """Markers at horizon positions, no deposited pairs."""
    if L % 2 == 0 or L < 3:
        raise InvalidParameterError(f"the emitter needs odd L >= 3, got {L}")
    return EmitterConfig(L=L, stacks=tuple((i % 2, ()) for i in range(1, L + 1)))


@functools.lru_cache(maxsize=None)
def channel_branches(dh_left, dh_right, top_color, p, colored, cooling=False):
    """Branches of one local channel: (height delta, stack op, spins, color, amp).

    `top_color` is the color of the most recent pair beneath the marker,
    or None when the marker rests at the horizon, where a peak cannot
    fall.  Spins are the emitted (left, right) qubits of the site's
    vertex: up where the site ends above that neighbour.  Cooling runs
    the table at p = 0 with its deposition branches removed.
    """
    if cooling:
        p = 0.0
    branches = []
    for delta, kind, color, prob in event_table(local_shape(-dh_left, -dh_right),
                                                top_color is None, p, colored):
        if kind == "deposit":
            if cooling:
                continue
            op = ("push", color)
        elif kind == "evaporate":
            op, color = ("pop",), top_color
        else:
            op = ("none",)
        spins = (int(dh_left + delta > 0), int(dh_right + delta > 0))
        branches.append((delta, op, spins, color, math.sqrt(prob)))
    return tuple(branches)


def local_channel(p, colored=True, cooling=False):
    """Matrix elements of one stack-update isometry over its reachable domain.

    Returned as {in_label: [(stack op, emitted spins, emitted color, amplitude)]}
    with in_label one of ("valley",), ("peak", pair color or None),
    ("slope_up",), ("slope_down",).  The elements are the same for every
    stack, so one table serves the E and F markers alike.
    """
    inputs = {("peak", tc): (1, 1, tc) for tc in ((1, 2, None) if colored else (1, None))}
    inputs[("valley",)] = (-1, -1, None)
    inputs[("slope_up",)] = (1, -1, None)
    inputs[("slope_down",)] = (-1, 1, None)
    return {label: [(op, spins, color, amp) for _, op, spins, color, amp
                    in channel_branches(dh_l, dh_r, tc, p, colored, cooling)]
            for label, (dh_l, dh_r, tc) in inputs.items()}


def _round_sites(L, n):
    """Interior sites updated in round n (even sites for odd n)."""
    want = 0 if n % 2 == 1 else 1
    return [i for i in range(2, L) if i % 2 == want]


def cooling_start(L: int) -> int:
    """Rounds after this index run the evaporation-only channels."""
    return (L + 1) // 2


def apply_round(joint, n, p, params: ModelParams, cooling_active=False,
                max_branches=MAX_BRANCHES):
    """One round of local channels on every branch of the joint state.

    Branch keys are (stacks, record) tuples; records grow by one
    (spin row, color row) pair.  Norm is conserved exactly because the
    channels are isometries on the reachable domain.
    """
    L = params.L
    out = {}
    for (stacks, record), amp in joint.items():
        heights = [0] + [s[0] for s in stacks] + [0]
        sites = _round_sites(L, n)
        per_site = []
        for i in sites:
            dh_l = heights[i] - heights[i - 1]
            dh_r = heights[i] - heights[i + 1]
            blocks = stacks[i - 1][1]
            top = blocks[-1] if blocks else None
            per_site.append(channel_branches(dh_l, dh_r, top, p, params.colored,
                                             cooling=cooling_active))
        vertex_cols = [i for i in range(1, L + 1) if (i + n) % 2 == 1]

        def emit(k, cur_stacks, row, colors, a):
            if k == len(sites):
                if n % 2 == 0:  # boundary emissions of the F rounds
                    row[0] = 1
                    row[L] = 1
                    row[1] = 1 if heights[2] == 0 else 0
                    row[L - 1] = 1 if heights[L - 1] == 0 else 0
                key = (tuple(cur_stacks), record + ((tuple(row), tuple(colors)),))
                if key in out:
                    raise AssertionError("two distinct branches emitted the same record")
                out[key] = a
                return
            i = sites[k]
            h, blocks = cur_stacks[i - 1]
            for delta, op, spins, color, branch_amp in per_site[k]:
                if branch_amp == 0.0:
                    continue
                if op[0] == "push":
                    new_stack = (h + 2, blocks + (op[1],))
                elif op[0] == "pop":
                    new_stack = (h - 2, blocks[:-1])
                else:
                    new_stack = (h, blocks)
                if new_stack[0] > L + 2:
                    raise CapacityError(f"stack {i} overflowed its L+2 depth cap")
                cur_stacks[i - 1] = new_stack
                row[i - 1], row[i] = spins
                colors[vertex_cols.index(i)] = color
                emit(k + 1, cur_stacks, row, colors, a * branch_amp)
            cur_stacks[i - 1] = (h, blocks)

        emit(0, list(stacks), [0] * (L + 1), [0] * len(vertex_cols), amp)
        if len(out) > max_branches:
            raise CapacityError(f"joint state exceeded {max_branches} branches")
    return out


def run_generation(params: ModelParams, cooling=False, max_branches=MAX_BRANCHES):
    """Run L rounds, post-select the reference emitter, and re-key the record.

    Returns (state, success_probability); the state lives on the same
    canonical keys as the exact construction, with the pinned bottom spin
    row prepended.  Only the reflecting target is generable with finite
    stacks.
    """
    params.require_odd_L()
    if params.boundary_mode != "reflecting":
        raise UnsupportedModeError("generation targets the reflecting state; "
                                   "the absorbing one needs unbounded stacks")
    L = params.L
    reference = init_emitter(L).stacks
    joint = {(reference, ()): 1.0}
    start = cooling_start(L)
    for n in range(1, L + 1):
        active = cooling and n > start
        joint = apply_round(joint, n, params.p, params, cooling_active=active,
                            max_branches=max_branches)
        norm = math.fsum(a * a for a in joint.values())
        if abs(norm - 1.0) > 1e-12:
            raise AssertionError(f"round {n} broke norm conservation: {norm!r}")
    kept = {rec: amp for (stacks, rec), amp in joint.items() if stacks == reference}
    success = math.fsum(a * a for a in kept.values())
    if success <= 0:
        raise InvalidParameterError("post-selection removed every branch")
    scale = 1.0 / math.sqrt(success)
    amplitudes = {}
    for key, amp in zip(_record_keys(list(kept), params), kept.values()):
        if key in amplitudes:
            raise AssertionError("two records mapped to one canonical key")
        amplitudes[key] = amp * scale
    return SparseState(amplitudes=amplitudes, params=params), success


def _record_keys(records, params: ModelParams) -> list:
    """Canonical keys of emitted records, with the fixed initial spin row prepended.

    Round n emits spin row n and, in vertex order, the colors of vertex
    row n, so the values of a record concatenate in `codec.site_order`.
    """
    L = params.L
    values = np.ones((len(records), len(site_order(L, params.colored))), dtype=np.uint8)
    for n, rec in enumerate(records):  # row by row: no list per record next to the joint state
        values[n, L + 1:] = [b for row, _ in rec for b in row] + (
            [c for _, colors in rec for c in colors] if params.colored else [])
    return key_bytes(pack_values(values, L, params.colored))


def fidelity(a: SparseState, b: SparseState) -> float:
    """(sum_k a_k b_k)^2 for normalized nonnegative states on one key space."""
    if a.params.L != b.params.L or a.params.colored != b.params.colored:
        raise InvalidParameterError("states live on different key spaces")
    overlap = math.fsum(amp * b.amplitudes.get(key, 0.0)
                        for key, amp in a.amplitudes.items())
    return overlap * overlap

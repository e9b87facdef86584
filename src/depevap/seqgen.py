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
norm, so each round is an isometry.  A round drops every child whose
updated marker can no longer return to its horizon height by round L
(`exact.within_reach`; markers a round leaves alone keep their bound)
and carries the squared mass it dropped, so kept plus dropped mass stays
1.  After round L only branches at the reference emitter are left: the
final projection onto it is an assertion, and the kept squared weight
is the post-selection success probability.

The optional cooling phase runs the later rounds (after ceil(L/2)) at
p = 0, where every deposition branch has amplitude 0 and so leaves the
round's channel table; no extra rounds or registers are introduced, and
the post-selection success grows because every peak then drains with
amplitude sqrt(1/2) per round.

The joint state of emitter and record is a set of arrays (`JointState`).
The emitter is the bond of the sequential (MPS) construction: its
distinct states (int8 marker heights, `codec.empty_stacks` stacks that
only `codec.push_pop` reads and changes) are kept once each, and each
branch points at one of them and carries its uint8 spin and color rows
and a float64 amplitude.  A round labels every distinct emitter state
at each of its sites (shape and top pair color), reads that label's
branches off `channel_branches` and marks the kept ones;
`exact.Frontier.step`, the bridge walk's step, builds one edge per
combination of them with its child state and merges equal children, so
the emitter's states are the walk's.  Every branch takes every edge of
its state, parent-major with each site's branches in table order (a
depth-first recursion over branches and sites), and multiplies its
amplitude by the edge's in that order.  The record is emitted by the
channels themselves (the table's spin and color fields), never rebuilt
from heights through the codec, so comparing the generated state with
`exact.build_state` stays an independent check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .codec import empty_stacks, key_order, key_rows, pack_values, push_pop, site_order
from .errors import CapacityError, InvalidParameterError, UnsupportedModeError
from .exact import Frontier, SparseState, branch_table, within_reach
from .params import ModelParams, _require_cap
from .surface import event_table, horizon_profile, local_shape, slice_sites

MAX_BRANCHES = 2_000_000


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


def cooling_start(L: int) -> int:
    """Rounds after this index run the evaporation-only channels."""
    return (L + 1) // 2


@dataclass
class JointState:
    """The emitter and its emitted record, one row per branch, in branch order.

    The emitter states are kept once each, as `exact.Frontier` holds
    them: `heights` (M, L+2) int8 marker heights (walls 0 and L+1 at 0)
    and `stacks`.  `emitter` (N,) is each branch's state, `spins`
    (N, n (L+1)) uint8 the spin rows emitted by rounds 1..n, `colors`
    uint8 the color rows of vertex rows 1..n in vertex order, and `amps`
    (N,) float64.  `dropped` is the squared mass that the round which
    built the state pruned away.
    """

    heights: np.ndarray
    stacks: np.ndarray
    emitter: np.ndarray
    spins: np.ndarray
    colors: np.ndarray
    amps: np.ndarray
    dropped: float = 0.0

    def __len__(self):
        return len(self.amps)


def initial_joint(L: int) -> JointState:
    """The reference emitter (markers at the horizon, no pairs), empty record, amplitude 1."""
    heights = horizon_profile(L)[None].astype(np.int8)
    return JointState(heights, empty_stacks(L, heights.shape), np.zeros(1, dtype=np.intp),
                      np.zeros((1, 0), dtype=np.uint8), np.zeros((1, 0), dtype=np.uint8),
                      np.ones(1))


def _channel_table(p, colored) -> np.ndarray:
    """channel_branches with nonzero amplitude per site label, as one branch table.

    A site's label is 3 * (2 * (dh_left > 0) + (dh_right > 0)) + top,
    with top 0 for a marker at the horizon and the top pair's color
    otherwise.
    """
    return branch_table([[(delta, spins[0], spins[1], color, amp) for delta, _, spins, color, amp
                          in channel_branches(dh_l, dh_r, top, p, colored) if amp != 0.0]
                         for dh_l in (-1, 1) for dh_r in (-1, 1) for top in (None, 1, 2)],
                        [("delta", np.int8), ("spin_l", np.uint8), ("spin_r", np.uint8),
                         ("color", np.uint8), ("amp", np.float64)])


def apply_round(joint: JointState, n, params: ModelParams, max_branches=MAX_BRANCHES) -> JointState:
    """One round of local channels on every branch of the joint state.

    The round labels the distinct emitter states and marks their kept
    channel branches; `exact.Frontier.step` builds one edge per
    combination of them, in table order, with its child state, and
    merges equal children.  The round reads each edge's emitted rows and
    its sites' amplitudes.  Each branch takes every edge of its state,
    branches in order, the order of a depth-first recursion over branches
    and sites; its amplitude is multiplied by the sites' amplitudes in
    site order, and its record grows by the edge's spin row and color
    row.  An edge whose updated marker can no longer return to its
    horizon height (`exact.within_reach`) is dropped with its whole
    subtree, so the surviving rows, their order and their amplitude
    products are those of the unpruned round.  The dropped squared mass,
    a^2 (prod_i T_i - prod_i K_i) per branch with T_i and K_i the squared
    amplitude of site i's valid and kept branches, is carried in
    `dropped`.  The L+2 depth guard sees every valid branch of every
    state, and the kept children are checked against `max_branches`
    before the round is built.
    """
    _require_cap("max_branches", max_branches)
    L = params.L
    table = _channel_table(params.p, params.colored)
    sites = np.array(slice_sites(L, n), dtype=np.intp)
    h = joint.heights
    top = np.where(h[:, sites] == sites % 2, 0, push_pop(joint.stacks[:, sites], -1, 0)[1])
    branches = table[3 * (2 * (h[:, sites] > h[:, sites - 1]) + (h[:, sites] > h[:, sites + 1]))
                     + top]  # (states, sites, branches)
    valid, new_h = branches["valid"], h[:, sites, None] + branches["delta"]
    deep = (valid & (new_h > L + 2)).any(axis=(0, 2))
    if deep.any():
        raise CapacityError(f"stack {sites[deep.argmax()]} overflowed its L+2 depth cap")
    keeps = valid & within_reach(new_h, sites[:, None], n, L)
    weight = branches["amp"] ** 2
    valid_sums = np.where(valid, weight, 0.0).sum(axis=2)
    kept_sums = np.where(keeps, weight, 0.0).sum(axis=2)
    valid_mass, kept_mass = np.ones(len(h)), np.ones(len(h))
    for k in range(len(sites)):
        valid_mass = valid_mass * valid_sums[:, k]
        kept_mass = kept_mass * kept_sums[:, k]
    dropped = math.fsum((joint.amps ** 2 * (valid_mass - kept_mass)[joint.emitter]).tolist())
    frontier = Frontier(joint.emitter, h, joint.stacks)
    _, chosen, _, heights = frontier.step(branches, keeps, sites, max_branches,
                                          f"joint state exceeded {max_branches} branches")
    [(rows, edge)] = frontier.steps
    amps = joint.amps[rows]
    for k in range(len(sites)):
        amps = amps * chosen["amp"][edge, k]
    row = np.zeros((len(chosen), L + 1), dtype=np.uint8)
    row[:, sites - 1], row[:, sites] = chosen["spin_l"], chosen["spin_r"]
    colors = np.zeros((len(chosen), (L + 1) // 2 - n % 2), dtype=np.uint8)
    colors[:, (sites - 1) // 2] = chosen["color"]  # vertex (i, n) in vertex order
    if n % 2 == 0:  # boundary emissions of the F rounds
        row[:, 0] = row[:, L] = 1
        row[:, 1] = heights[:, 2] == 0
        row[:, L - 1] = heights[:, L - 1] == 0
    out = JointState(frontier.heights, frontier.stacks, frontier.node,
                     np.hstack([joint.spins[rows], row[edge]]),
                     np.hstack([joint.colors[rows], colors[edge]]), amps, dropped)
    # every branch as one byte string, record first: it tells branches apart soonest in the
    # sort; equal emitter states share one index
    emitter = out.emitter.astype(np.int32)[:, None].view(np.uint8)
    whole = key_rows(np.hstack([out.colors, out.spins, emitter]))
    whole.sort()
    if (whole[1:] == whole[:-1]).any():
        raise AssertionError("two distinct branches emitted the same record")
    return out


def run_generation(params: ModelParams, cooling=False, max_branches=MAX_BRANCHES):
    """Run L rounds, check the reference emitter, and re-key the record.

    After every round the kept squared mass plus the mass dropped so far
    must be 1 within 1e-12.  The pruned rounds leave only branches whose
    emitter is back at the reference, so the post-selection is an
    assertion and its success probability the kept squared mass.
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
    joint = initial_joint(L)
    start = cooling_start(L)
    dropped = []
    for n in range(1, L + 1):  # cooling rounds run at p = 0, where no deposit is left
        round_params = params.with_(p=0.0) if cooling and n > start else params
        joint = apply_round(joint, n, round_params, max_branches=max_branches)
        dropped.append(joint.dropped)
        norm = math.fsum((joint.amps * joint.amps).tolist() + dropped)
        if abs(norm - 1.0) > 1e-12:
            raise AssertionError(f"round {n} broke norm conservation: {norm!r}")
    # the reference emitter: every marker back at the horizon, so no pairs beneath
    if not (joint.heights[joint.emitter] == initial_joint(L).heights).all():
        raise AssertionError("a branch away from the reference emitter survived round L")
    amps = joint.amps
    success = math.fsum((amps * amps).tolist())
    if success <= 0:
        raise InvalidParameterError("post-selection removed every branch")
    # round n emits spin row n and, in vertex order, the colors of vertex row n,
    # so the records concatenate in codec.site_order after the pinned bottom row
    values = np.ones((len(amps), len(site_order(L, params.colored))), dtype=np.uint8)
    values[:, L + 1:] = (np.hstack([joint.spins, joint.colors]) if params.colored
                         else joint.spins)
    keys = pack_values(values, L, params.colored)
    if key_order(keys)[1].any():
        raise AssertionError("two records mapped to one canonical key")
    return SparseState(keys, amps * (1.0 / math.sqrt(success)), params), success


def fidelity(a: SparseState, b: SparseState) -> float:
    """(sum_k a_k b_k)^2 for normalized nonnegative states on one key space; math.fsum adds
    the products over the equal keys that sorting both key matrices together pairs up."""
    if a.params.L != b.params.L or a.params.colored != b.params.colored:
        raise InvalidParameterError("states live on different key spaces")
    order, repeat = key_order(np.vstack([a.keys, b.keys]))  # a's key, then b's equal one
    amps = np.concatenate([a.amps, b.amps])
    overlap = math.fsum((amps[order[:-1][repeat]] * amps[order[1:][repeat]]).tolist())
    return overlap * overlap

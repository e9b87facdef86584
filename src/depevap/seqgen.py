"""Stack-emitter sequential generation of the reflecting colored state.

The emitter holds one stack per surface site.  Stack i records site i's
height (the marker position; markers on even sites are E, on odd sites
F, and never leave their stack) and the colors of the deposited,
not-yet-evaporated block pairs beneath the marker, most recent on top.
Round n updates the stacks of `surface.slice_sites(L, n)`, the walk's
sites: odd rounds the E stacks (even sites), even rounds the F stacks
(odd sites, 1 and L included); round n radiates the L+1 spin qubits of
lattice spin row n and the color qutrits of vertex row n.

Per site the channel branches are the reflecting bridge walk's
(`exact.event_branches` over the site labels of `exact.site_labels`),
each with the square root of its probability as amplitude:

    valley   deposit(c)   emits up,up    c
             no change    emits dn,dn    0
    peak     evaporate    emits dn,dn    pair color
             no change    emits up,up    0
    floor    (a peak with no pairs beneath, at the horizon) a certain
             no change, emits up,up and color 0
    slopes   no change    emits the height-difference pair, 0

Stacks 1 and L stand next to the pinned walls and keep their marker at
height 1 (the pinned-wall rule): they are the floor or a slope, whose
certain no-change emits the boundary spins of the F rounds.

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
The emitter is the bond of the sequential (MPS) construction: one
`exact.Frontier` holds its distinct states (int8 marker heights,
`codec.empty_stacks` stacks that only `codec.push_pop` reads and
changes) once each, and each branch is one of its paths.  A round's
`Frontier.branches`, the walk's, labels every distinct emitter state at
each of its sites, reads that label's branches off one cached channel
table and marks the kept ones; `Frontier.step`, the walk's step, builds
one edge per combination of them with its child state and color row and
merges equal children, so the emitter's states and paths are the walk's.
Every branch takes every edge of its state in table order (a depth-first
recursion over branches and sites) and multiplies its amplitude by the
edge's.  An edge's spin row comes from the table's spin fields and its
colors from `Frontier.step`'s pushes and pops, never from heights through
the codec, so comparing the generated state with `exact.build_state`
stays an independent check.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass

import numpy as np

from .codec import key_order, key_rows, pack_values, profile_spins
from .errors import CapacityError, InvalidParameterError, UnsupportedModeError
from .exact import (LABELS, MAX_NODES, Frontier, SparseState, _fsum, branch_table, event_branches,
                    site_values)
from .params import ModelParams, _require_cap
from .surface import horizon_profile

_SIDES = ((-1, -1), (1, 1), (1, 1), (1, -1), (-1, 1))  # (h - h_left, h - h_right) per LABELS code


@functools.lru_cache(maxsize=None)
def _channel_table(p, colored) -> np.ndarray:
    """The reflecting walk's branches (`exact.event_branches`) per `exact.LABELS` code, as
    one read-only branch table.

    A branch's amplitude is the square root of its probability, and its
    emitted (left, right) spins are up where the site ends above that
    neighbour.  An evaporation's color is 0 here: `Frontier.step` pops it
    off the site's stack.
    """
    by_label = event_branches(p, True, colored)
    table = branch_table([[(delta, dl + delta > 0, dr + delta > 0, color, math.sqrt(prob))
                           for delta, color, prob in by_label[name]]
                          for name, (dl, dr) in zip(LABELS, _SIDES)],
                         [("delta", np.int8), ("spin_l", np.uint8), ("spin_r", np.uint8),
                          ("color", np.uint8), ("amp", np.float64)])
    table.flags.writeable = False
    return table


def local_channel(p, colored=True, cooling=False):
    """Matrix elements of one stack-update isometry over its reachable domain, read off the
    rounds' `_channel_table` (at p = 0 when `cooling`).

    Returned as {in_label: [(stack op, emitted spins, emitted color, amplitude)]}
    with in_label one of ("valley",), ("peak", pair color or None),
    ("slope_up",), ("slope_down",); a peak with no pair beneath is the
    floor.  The elements are the same for every stack, so one table serves
    the E and F markers alike.
    """
    table = _channel_table(0.0 if cooling else p, colored).tolist()
    names = {("valley",): "valley", ("peak", None): "floor", ("slope_up",): "slope_up",
             ("slope_down",): "slope_down"}
    names.update({("peak", c): "peak" for c in ((1, 2) if colored else (1,))})
    return {label: [(("push", color) if delta > 0 else ("pop",) if delta < 0 else ("none",),
                     (spin_l, spin_r), label[-1] if delta < 0 else color, amp)
                    for delta, spin_l, spin_r, color, amp, valid in table[LABELS.index(name)]
                    if valid]
            for label, name in names.items()}


def cooling_start(L: int) -> int:
    """Rounds after this index run the evaporation-only channels."""
    return (L + 1) // 2


@dataclass
class JointState:
    """The emitter and its emitted record, one branch per path of `frontier`, in branch order.

    `frontier` (`exact.Frontier`) holds the emitter's distinct states
    (`heights` (M, L+2) int8 marker heights, walls 0 and L+1 at 0, and
    `stacks`), each branch's state `node` and every round's (parent, edge)
    table.  `spins` and `colors` list edge tables in the walk's layout
    (`exact.site_values`): the pinned all-up bottom spin row (no colors),
    then each round's emitted spin rows (edges, L+1) uint8 and color rows.
    `record` (N,) intp ranks the branches' records (their rows along their
    paths), `amps` (N,) float64.  `dropped` is the squared mass that the
    round which built the state pruned away.
    """

    frontier: Frontier
    spins: list
    colors: list
    record: np.ndarray
    amps: np.ndarray
    dropped: float = 0.0

    def __len__(self):
        return len(self.amps)


def initial_joint(L: int) -> JointState:
    """The walk's start (`exact.Frontier.horizon`) as the reference emitter, with its record
    row (the pinned bottom spins, read off the horizon by `codec.profile_spins` as the
    walk reads its root's) and amplitude 1."""
    frontier, zero = Frontier.horizon(L), np.zeros(1, dtype=np.intp)  # slice 0; record rank 0
    return JointState(frontier, [profile_spins(frontier.heights, zero, L)],
                      [np.zeros((1, (L + 1) // 2), dtype=np.uint8)], zero, np.ones(1))


def apply_round(joint: JointState, n, params: ModelParams, max_branches=MAX_NODES) -> JointState:
    """One round of local channels on every branch of the joint state.

    A copy of the joint's frontier labels its distinct emitter states at
    the round's sites and marks their kept channel branches
    (`exact.Frontier.branches`, the walk's), then takes one
    `exact.Frontier.step`, which builds one edge per combination of them,
    in table order, with its child state and color row, and merges equal
    children.  The round emits each edge's spin row, two spins per site,
    so the F rounds' sites 1 and L emit the boundary spins.  Each branch
    takes every edge of its state, branches in order (a depth-first
    recursion over branches and sites), and multiplies its amplitude by
    the sites' in site order.  A child's record rank is the rank of (its
    parent's rank, its edge's rows); two branches of one rank and emitter
    state raise.  An edge whose updated marker can no longer return to its
    horizon height (`exact.within_reach`) is dropped with its whole
    subtree, so the surviving rows, their order and their amplitude
    products are those of the unpruned round.  The dropped squared mass,
    a^2 (prod_i T_i - prod_i K_i) per branch with T_i and K_i the squared
    amplitude of site i's valid and kept branches, is carried in
    `dropped`.  The L+2 depth guard sees every valid branch of every
    state, and the kept children are checked against `max_branches` (by
    default the bridge walk's cap, `exact.MAX_NODES`) before the round is
    built.
    """
    _require_cap("max_branches", max_branches)
    L = params.L
    frontier = copy.copy(joint.frontier)  # extended below; `joint` keeps its own
    frontier.sizes, frontier.steps = [*frontier.sizes], [*frontier.steps]
    h = frontier.heights
    sites, branches, keeps = frontier.branches(_channel_table(params.p, params.colored), n)
    valid = branches["valid"]
    deep = (valid & (h[:, sites, None] + branches["delta"] > L + 2)).any(axis=(0, 2))
    if deep.any():
        raise CapacityError(f"stack {sites[deep.argmax()]} overflowed its L+2 depth cap")
    weight = branches["amp"] ** 2
    valid_sums = np.where(valid, weight, 0.0).sum(axis=2)
    kept_sums = np.where(keeps, weight, 0.0).sum(axis=2)
    valid_mass, kept_mass = np.ones(len(h)), np.ones(len(h))
    for k in range(len(sites)):
        valid_mass = valid_mass * valid_sums[:, k]
        kept_mass = kept_mass * kept_sums[:, k]
    dropped = _fsum(joint.amps ** 2 * (valid_mass - kept_mass)[frontier.node])
    chosen, colors, _ = frontier.step(branches, keeps, sites, max_branches,
                                      f"joint state exceeded {max_branches} branches")
    rows, edge = frontier.steps[-1]
    amps = joint.amps[rows]
    for k in range(len(sites)):
        amps = amps * chosen["amp"][edge, k]
    row = np.zeros((len(chosen), L + 1), dtype=np.uint8)
    row[:, sites - 1], row[:, sites] = chosen["spin_l"], chosen["spin_r"]
    # the records share one length, so (parent rank, edge rank) orders them as their bytes
    _, edge_rank = np.unique(key_rows(np.hstack([row, colors])), return_inverse=True)
    _, record = np.unique(joint.record[rows] * len(row) + edge_rank[edge], return_inverse=True)
    pairs = np.sort(record * len(frontier.heights) + frontier.node)
    if (pairs[1:] == pairs[:-1]).any():
        raise AssertionError("two distinct branches emitted the same record")
    return JointState(frontier, [*joint.spins, row], [*joint.colors, colors], record, amps, dropped)


def run_generation(params: ModelParams, cooling=False, max_branches=MAX_NODES):
    """Run L rounds, check the reference emitter, and key the records.

    After every round the kept squared mass plus the mass dropped so far,
    one `exact._fsum`, must be 1 within 1e-12.  The pruned rounds leave
    only branches whose emitter is back at the reference, so post-selection
    is an assertion and its success probability the kept squared mass.
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
        norm = _fsum(np.concatenate([joint.amps * joint.amps, dropped]))
        if abs(norm - 1.0) > 1e-12:
            raise AssertionError(f"round {n} broke norm conservation: {norm!r}")
    frontier = joint.frontier
    # the reference emitter: every marker back at the horizon, so no pairs beneath
    if not (frontier.heights[frontier.node] == horizon_profile(L)).all():
        raise AssertionError("a branch away from the reference emitter survived round L")
    amps = joint.amps
    success = _fsum(amps * amps)
    if success <= 0:
        raise InvalidParameterError("post-selection removed every branch")
    # round n emits spin row n and the colors of vertex row n, so a branch's rows along its
    # path, the pinned bottom row first, are its site values, as the walk's are a bridge's
    values = site_values(frontier.paths(), np.concatenate(joint.spins),
                         np.concatenate(joint.colors), np.arange(len(amps)), params.colored)
    keys = pack_values(values, L, params.colored)
    if key_order(keys)[1].any():
        raise AssertionError("two records mapped to one canonical key")
    return SparseState(keys, amps * (1.0 / math.sqrt(success)), params), success


def fidelity(a: SparseState, b: SparseState) -> float:
    """(sum_k a_k b_k)^2 for normalized nonnegative states on one key space; `exact._fsum`
    adds the products over the equal keys that sorting both key matrices together pairs up."""
    if a.params.L != b.params.L or a.params.colored != b.params.colored:
        raise InvalidParameterError("states live on different key spaces")
    order, repeat = key_order(np.vstack([a.keys, b.keys]))  # a's key, then b's equal one
    amps = np.concatenate([a.amps, b.amps])
    overlap = _fsum(amps[order[:-1][repeat]] * amps[order[1:][repeat]])
    return overlap * overlap

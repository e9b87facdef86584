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

The optional cooling phase reruns the later rounds (after ceil(L/2))
with p = 0 and the deposition branches removed; no extra rounds or
registers are introduced, and the post-selection success grows because
every peak then drains with amplitude sqrt(1/2) per round.

The joint state of emitter and record is a set of arrays with one row
per branch (`JointState`): int8 marker heights, uint32 color
bit-stacks, uint8 spin and color rows and a float64 amplitude.  A round
labels every row at each of its sites (shape and top pair color),
reads that label's branches off `channel_branches`, and expands all
rows at once (`exact.expand_frontier`): children come out parent-major
with each site's branches in table order, the order of a depth-first
recursion over branches and sites, and amplitudes are multiplied in
that order.  The record is emitted by the channels themselves, never
rebuilt from heights through the codec, so comparing the generated
state with `exact.build_state` stays an independent check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .codec import key_bytes, pack_values, site_order
from .errors import CapacityError, InvalidParameterError, UnsupportedModeError
from .exact import SparseState, branch_table, expand_frontier, within_reach
from .params import ModelParams
from .surface import event_table, local_shape, slice_sites

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


def cooling_start(L: int) -> int:
    """Rounds after this index run the evaporation-only channels."""
    return (L + 1) // 2


@dataclass
class JointState:
    """The emitter and its emitted record, one row per branch, in branch order.

    `heights` (N, L+2) int8 are the marker heights with the pinned walls
    0 and L+1 at 0; `stacks` (N, L+2) uint32 hold the colors of the
    pairs beneath each marker, one bit per pair (g = 1) with the most
    recent in bit 0 (the pair count is (height - i % 2) / 2); `spins`
    (N, n (L+1)) uint8 are the spin rows emitted by rounds 1..n, `colors`
    uint8 the color rows of vertex rows 1..n in vertex order, and
    `amplitudes` (N,) float64.  `dropped` is the squared mass that the
    round which built the state pruned away.
    """

    heights: np.ndarray
    stacks: np.ndarray
    spins: np.ndarray
    colors: np.ndarray
    amplitudes: np.ndarray
    dropped: float = 0.0

    def __len__(self):
        return len(self.amplitudes)


def initial_joint(L: int) -> JointState:
    """The reference emitter (`init_emitter`) with an empty record, amplitude 1."""
    heights = np.array([[0] + [h for h, _ in init_emitter(L).stacks] + [0]], dtype=np.int8)
    return JointState(heights, np.zeros(heights.shape, dtype=np.uint32),
                      np.zeros((1, 0), dtype=np.uint8), np.zeros((1, 0), dtype=np.uint8),
                      np.ones(1))


def _channel_table(p, colored, cooling) -> np.ndarray:
    """channel_branches with nonzero amplitude per site label, as one branch table.

    A site's label is 3 * (2 * (dh_left > 0) + (dh_right > 0)) + top,
    with top 0 for a marker at the horizon and the top pair's color
    otherwise.
    """
    return branch_table([[(delta, spins[0], spins[1], color, amp) for delta, _, spins, color, amp
                          in channel_branches(dh_l, dh_r, top, p, colored, cooling) if amp != 0.0]
                         for dh_l in (-1, 1) for dh_r in (-1, 1) for top in (None, 1, 2)],
                        [("delta", np.int8), ("spin_l", np.uint8), ("spin_r", np.uint8),
                         ("color", np.uint8), ("amp", np.float64)])


def apply_round(joint: JointState, n, p, params: ModelParams, cooling_active=False,
                max_branches=MAX_BRANCHES) -> JointState:
    """One round of local channels on every branch of the joint state.

    Each branch expands into one child per combination of the sites'
    channel branches (`exact.expand_frontier`), parent-major with each
    site's branches in table order, and its record grows by one spin row
    and one color row.  A child whose updated marker can no longer
    return to its horizon height (`exact.within_reach`) is dropped with
    its whole subtree, so the surviving rows, their order and their
    amplitude products are those of the unpruned round.  The dropped
    squared mass, a^2 (prod_i T_i - prod_i K_i) per parent with T_i and
    K_i the squared amplitude of site i's valid and kept branches, is
    carried in `dropped`.  The L+2 depth guard sees every valid branch,
    and the kept children are checked against `max_branches` before the
    round is built.
    """
    L = params.L
    table = _channel_table(p, params.colored, cooling_active)
    sites = slice_sites(L, n)
    h = joint.heights
    labels, keeps = [], []
    valid_mass = kept_mass = 1.0
    for i in sites:
        top = np.where(h[:, i] == i % 2, 0, (joint.stacks[:, i] & 1) + 1)
        label = 3 * (2 * (h[:, i] > h[:, i - 1]) + (h[:, i] > h[:, i + 1])) + top
        valid, new_h = table["valid"][label], h[:, i, None] + table["delta"][label]
        if (new_h[valid] > L + 2).any():
            raise CapacityError(f"stack {i} overflowed its L+2 depth cap")
        keep = valid & within_reach(new_h, i, n, L)
        weight = table["amp"][label] ** 2
        valid_mass = valid_mass * np.where(valid, weight, 0.0).sum(axis=1)
        kept_mass = kept_mass * np.where(keep, weight, 0.0).sum(axis=1)
        labels.append(label)
        keeps.append(keep)
    dropped = math.fsum((joint.amplitudes ** 2 * (valid_mass - kept_mass)).tolist())
    rows, choices = expand_frontier(keeps, len(joint), max_branches,
                                    f"joint state exceeded {max_branches} branches")
    heights, stacks, amps = h[rows], joint.stacks[rows], joint.amplitudes[rows]
    row = np.zeros((len(rows), L + 1), dtype=np.uint8)
    vertex_cols = [i for i in range(1, L + 1) if (i + n) % 2 == 1]
    colors = np.zeros((len(rows), len(vertex_cols)), dtype=np.uint8)
    for i, label, branch in zip(sites, labels, choices):
        chosen = table[label[rows], branch]
        amps = amps * chosen["amp"]
        heights[:, i] += chosen["delta"]
        push, pop = chosen["delta"] > 0, chosen["delta"] < 0
        stacks[push, i] = (stacks[push, i] << 1) | (chosen["color"][push] - 1)
        stacks[pop, i] >>= 1
        row[:, i - 1], row[:, i] = chosen["spin_l"], chosen["spin_r"]
        colors[:, vertex_cols.index(i)] = chosen["color"]
    if n % 2 == 0:  # boundary emissions of the F rounds
        row[:, 0] = row[:, L] = 1
        row[:, 1] = heights[:, 2] == 0
        row[:, L - 1] = heights[:, L - 1] == 0
    out = JointState(heights, stacks, np.hstack([joint.spins[rows], row]),
                     np.hstack([joint.colors[rows], colors]), amps, dropped)
    # every branch as one byte string, record first: it tells branches apart soonest in the sort
    whole = np.hstack([out.colors, out.spins, out.stacks.view(np.uint8), out.heights.view(np.uint8)])
    branches = whole.view(np.dtype((np.void, whole.shape[1]))).ravel()
    branches.sort()
    if (branches[1:] == branches[:-1]).any():
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
    for n in range(1, L + 1):
        active = cooling and n > start
        joint = apply_round(joint, n, params.p, params, cooling_active=active,
                            max_branches=max_branches)
        dropped.append(joint.dropped)
        norm = math.fsum((joint.amplitudes * joint.amplitudes).tolist() + dropped)
        if abs(norm - 1.0) > 1e-12:
            raise AssertionError(f"round {n} broke norm conservation: {norm!r}")
    # the reference emitter: every marker back at the horizon, so no pairs beneath
    if not (joint.heights == initial_joint(L).heights).all():
        raise AssertionError("a branch away from the reference emitter survived round L")
    amps = joint.amplitudes
    success = math.fsum((amps * amps).tolist())
    if success <= 0:
        raise InvalidParameterError("post-selection removed every branch")
    # round n emits spin row n and, in vertex order, the colors of vertex row n,
    # so the records concatenate in codec.site_order after the pinned bottom row
    values = np.ones((len(amps), len(site_order(L, params.colored))), dtype=np.uint8)
    values[:, L + 1:] = (np.hstack([joint.spins, joint.colors]) if params.colored
                         else joint.spins)
    amplitudes = {}
    for key, amp in zip(key_bytes(pack_values(values, L, params.colored)),
                        (amps * (1.0 / math.sqrt(success))).tolist()):
        if key in amplitudes:
            raise AssertionError("two records mapped to one canonical key")
        amplitudes[key] = amp
    return SparseState(amplitudes=amplitudes, params=params), success


def fidelity(a: SparseState, b: SparseState) -> float:
    """(sum_k a_k b_k)^2 for normalized nonnegative states on one key space."""
    if a.params.L != b.params.L or a.params.colored != b.params.colored:
        raise InvalidParameterError("states live on different key spaces")
    overlap = math.fsum(amp * b.amplitudes.get(key, 0.0)
                        for key, amp in a.amplitudes.items())
    return overlap * overlap

"""Exact bridge enumeration and sparse state assembly at small L.

A bridge is a trajectory over update slices t = 1..L that starts and
ends at the horizon.  Reflecting weights multiply the reflecting event
probabilities; absorbing weights multiply the unconstrained ones with
every branch that would touch h < 0 pruned eagerly (post-selection
discards it anyway).  Frozen boundary sites contribute their no-change
probability per slice: (1+p)/2 in absorbing mode whenever they sit at a
Peak at h = 1, and 1 otherwise.
"""

from __future__ import annotations

import io
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .codec import (
    TrajectoryRecord,
    decode_keys,
    encode_trajectories,
    key_bytes,
    key_length,
    key_to_config,
)
from .codec import canonical_key, encode_trajectory  # noqa: F401  perfbench/traced.py wraps these
from .errors import CapacityError, DecodeError, InvalidParameterError
from .params import ModelParams
from .surface import COLOR_NONE, horizon_profile, no_change_probability, site_branches

MAX_NODES = 10_000_000


@dataclass
class SparseState:
    """Nonnegative real amplitudes over canonical keys; normalized on build."""

    amplitudes: dict[bytes, float]
    params: ModelParams

    def norm(self) -> float:
        return math.sqrt(math.fsum(a * a for a in self.amplitudes.values()))

    def __len__(self):
        return len(self.amplitudes)


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
            base *= no_change_probability(profile[i], profile[i - 1], profile[i + 1], params)
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


def enumerate_bridge(params: ModelParams, max_nodes: int = MAX_NODES, bridge: bool = True):
    """All bridge trajectories with their exact weights.

    With bridge=False the final horizon condition (and its lookahead
    pruning) is dropped; in reflecting mode the weights of that full set
    sum to 1 exactly.
    """
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
                H = _history_to_heights(L, history)
                results.append((TrajectoryRecord(L=L, heights=H, events=dict(events), weight=weight), weight))
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
    return results


def _history_to_heights(L, history):
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


def success_probability(params: ModelParams, max_nodes: int = MAX_NODES) -> float:
    """Total bridge weight before renormalization."""
    trajs = enumerate_bridge(params, max_nodes=max_nodes)
    return math.fsum(w for _, w in trajs)


def build_state(params: ModelParams, max_nodes: int = MAX_NODES) -> SparseState:
    """The normalized superposition sqrt(w / W) over encoded bridges."""
    trajs = enumerate_bridge(params, max_nodes=max_nodes)
    total = math.fsum(w for _, w in trajs)
    if total <= 0:
        raise InvalidParameterError("no bridge trajectory has positive weight")
    amplitudes = {}
    keys = encode_trajectories([traj for traj, _ in trajs], params)
    for key, (_, w) in zip(keys, trajs):
        if key in amplitudes:
            raise AssertionError("distinct trajectories produced the same key")
        if w > 0:
            amplitudes[key] = math.sqrt(w / total)
    return SparseState(amplitudes=amplitudes, params=params)


# ---------------------------------------------------------------------------
# persistence

_MAGIC = b"DEQS"
_VERSION = 1
_HEADER = struct.Struct("<HIdBBQ")


def save_state(state: SparseState, path):
    """Binary format: header (magic, version, L, p, mode, colored, count),
    then (key, float64 amplitude) pairs sorted by key."""
    p = state.params
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(_HEADER.pack(_VERSION, p.L, p.p,
                              0 if p.boundary_mode == "reflecting" else 1,
                              1 if p.colored else 0, len(state.amplitudes)))
        for key in sorted(state.amplitudes):
            fh.write(key)
            fh.write(struct.pack("<d", state.amplitudes[key]))


def load_state(path) -> SparseState:
    """Inverse of save_state; a damaged file raises InvalidParameterError.

    The file must have exactly the length its header promises, every key
    must decode (codec.decode_keys), the keys must ascend strictly as
    save_state writes them, and every amplitude must be finite.
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
    keys = key_bytes(entries[:, :klen])
    if any(a >= b for a, b in zip(keys, keys[1:])):
        raise InvalidParameterError("state file keys do not ascend strictly")
    amps = entries[:, klen:].copy().view("<f8").ravel()
    if not np.isfinite(amps).all():
        raise InvalidParameterError("state file holds a non-finite amplitude")
    return SparseState(amplitudes=dict(zip(keys, amps.tolist())), params=params)


def export_state_text(state: SparseState) -> str:
    """One `keyhex amplitude` line per entry, sorted by key, for diffing."""
    buf = io.StringIO()
    for key in sorted(state.amplitudes):
        buf.write(f"{key.hex()} {state.amplitudes[key]!r}\n")
    return buf.getvalue()


def decode_support(state: SparseState):
    """Decode every support key; raises if any is invalid."""
    return [key_to_config(key, state.params) for key in sorted(state.amplitudes)]

"""Per-level pair slots: the reference for `codec.pending_pairs` and the Schmidt labels.

`pair_slots` replays the deposited pairs of decoded keys into one slot
per site and level, as the decoder and `entropy._sector_labels` did
before the pending pairs moved onto `codec.push_pop`'s bit stacks.
`slot_labels` reads the sector labels off those slots.
"""

from __future__ import annotations

import numpy as np

from depevap.codec import DecodedKeys, _lattice


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


def slot_labels(decoded: DecodedKeys, cut_row: int):
    """(profile, unmatched colors per site) at the cut of each colored decoded key."""
    L = decoded.L
    profiles = decoded.profiles[:, cut_row]
    slots, _ = pair_slots(decoded, cut_row)
    pending = (profiles - np.arange(L + 2) % 2) // 2
    return [(tuple(prof), tuple(tuple(row[i][:depth[i]]) for i in range(1, L + 1)))
            for prof, row, depth in zip(profiles.tolist(), slots.tolist(), pending.tolist())]

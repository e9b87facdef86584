"""The per-sector Schmidt split: the reference for `entropy.schmidt_spectrum`.

`schmidt_spectrum` here diagonalizes one sector at a time: the sector's
keys by `argsort` and `searchsorted` bounds, its distinct bottom and top
parts by two `np.unique` calls, a dense M, its Gram matrix M M^T and its
own `eigvalsh`, sectors in label order.  `depevap.entropy` stacks the
sectors' M by shape through `exact._Stacks` instead, and must return the
same list, float for float.  Both read the decoded keys, part ranks and
sector labels through the same src helpers.
"""

from __future__ import annotations

import numpy as np

from depevap.codec import DecodedKeys, decode_keys, site_order
from depevap.entropy import SCHMIDT_TOL, _bipartition, _row_ranks, _sector_labels


def schmidt_spectrum(state, cut_row):
    """[(sector label, Schmidt weight)], weights descending, as `entropy.schmidt_spectrum`."""
    params = state.params
    L = params.L
    bottom_sites, top_sites = _bipartition(L, params.colored, cut_row, "space")
    column = {s: n for n, s in enumerate(site_order(L, params.colored))}
    decoded = decode_keys(state.keys, params)
    amps, values = state.amps, decoded.values
    bottom_of = _row_ranks(values[:, [column[s] for s in bottom_sites]])
    one_key = np.empty(bottom_of.max() + 1, dtype=np.intp)
    one_key[bottom_of] = np.arange(len(state))
    decoded = DecodedKeys(L, params.colored, values[one_key], decoded.profiles[one_key],
                          decoded.kinds[one_key])
    top_of = _row_ranks(values[:, [column[s] for s in top_sites]])
    labels = _sector_labels(decoded, cut_row)
    order = sorted(set(labels))
    rank = {label: r for r, label in enumerate(order)}
    sector_of = np.array([rank[label] for label in labels])[bottom_of]
    keys_by_sector = np.argsort(sector_of, kind="stable")
    bounds = np.searchsorted(sector_of[keys_by_sector], np.arange(len(order) + 1))

    spectrum = []
    for label, lo, hi in zip(order, bounds[:-1], bounds[1:]):
        block = keys_by_sector[lo:hi]
        rows, row_of = np.unique(bottom_of[block], return_inverse=True)
        cols, col_of = np.unique(top_of[block], return_inverse=True)
        M = np.zeros((len(rows), len(cols)))
        M[row_of, col_of] = amps[block]
        gram = M @ M.T
        for lam in np.linalg.eigvalsh(gram):
            if lam >= SCHMIDT_TOL:
                spectrum.append((label, float(lam)))
    spectrum.sort(key=lambda item: -item[1])
    return spectrum

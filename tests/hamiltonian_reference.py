"""The parent Hamiltonian's references: a per-key loop and the dense sector matrix.

`_reference_term_entries` is the per-key loop that the array pass in
`depevap.hamiltonian` replaced.  It gives every term's nonzero entries
(a, key2, h) in the order the array pass gives them, so sums taken in
entry order (`_reference_sums`, `_reference_apply`, `_reference_matrix`)
are bit for bit the package's.  `sector_matrix` is the dense H over a
key matrix, built from the package's own entries over those keys; it is
the whole-sector reference for `sector_spectrum` and gives eigenvectors.
"""

from __future__ import annotations

import numpy as np

from depevap.codec import pack_values, site_order, unpack_keys
from depevap.errors import CapacityError
from depevap.hamiltonian import DENSE_BYTES, DENSE_STATES, _layout
from depevap.params import ModelParams


def _reference_term_entries(terms, keys, params: ModelParams):
    """Per term, the list of its nonzero entries (a, key2, weight * matrix entry).

    The per-key loop the array pass replaced: every key is decoded once,
    entries come in key order, and in matrix-row order within a key.
    """
    L, colored = params.L, params.colored
    keys = list(map(bytes, keys))
    index_of = {s: n for n, s in enumerate(site_order(L, colored))}
    decoded = unpack_keys(keys, L, colored).tolist()
    for term in terms:
        idx = [index_of[s] for s in term.support]
        lookup = {s: r for r, s in enumerate(term.states)}
        entries = []
        for a, values in enumerate(decoded):
            r = lookup.get(tuple(values[j] for j in idx))
            if r is None:
                continue
            col = term.matrix[:, r]
            for r2 in np.nonzero(col)[0]:
                if r2 == r:
                    key2 = keys[a]
                else:
                    new_values = list(values)
                    for j, val in zip(idx, term.states[r2]):
                        new_values[j] = val
                    key2 = pack_values([new_values], L, colored).tobytes()
                entries.append((a, key2, term.weight * col[r2]))
        yield entries


def _reference_sums(entries, amps, out):
    for a, key2, h in entries:
        out[key2] = out.get(key2, 0.0) + h * amps[a]
    return out


def _reference_apply(terms, state):
    """H |psi> as {key: amplitude}, summed term by term in entry order."""
    out = {}
    for entries in _reference_term_entries(terms, state.keys, state.params):
        _reference_sums(entries, state.amps, out)
    return out


def _reference_matrix(terms, keys, params: ModelParams):
    index_of = {key: n for n, key in enumerate(map(bytes, keys))}
    H = np.zeros((len(keys), len(keys)))
    for entries in _reference_term_entries(terms, keys, params):
        for a, key2, h in entries:
            H[index_of[key2], a] += h
    return H


def sector_matrix(terms, keys, params: ModelParams) -> np.ndarray:
    """Dense H over the key matrix `keys`, row and column n for key n, in any order.

    Each cell sums its entries in entry order.  Over DENSE_STATES keys it
    raises CapacityError; a key listed twice raises InvalidParameterError,
    and a term mapping a key outside `keys` AssertionError.
    """
    if len(keys) > DENSE_STATES:
        raise CapacityError(
            f"a dense matrix over {len(keys)} sector states needs "
            f"{8 * len(keys) ** 2 / 2 ** 30:.1f} GiB, over the "
            f"{DENSE_BYTES / 2 ** 30:g} GiB budget of {DENSE_STATES} states")
    layout, weights, flat = _layout(terms, params)
    entries = layout.entries(keys)
    row, col, group = entries.sector_cells
    H = np.zeros((len(keys), len(keys)))
    H[row, col] = np.bincount(group, weights=entries.h(weights, flat))
    return H

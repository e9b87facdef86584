"""The parent Hamiltonian's references: a per-key loop and the dense sector matrix.

`_reference_term_entries` is the per-key loop that the array pass in
`depevap.hamiltonian` replaced.  It gives every term's nonzero entries
(a, key2, h) in the order the array pass gives them, so sums taken in
entry order (`_reference_sums`, `_reference_apply`, `_reference_matrix`)
are bit for bit the package's.  `sector_matrix` is the dense H over a
key matrix, built from the package's own entries over those keys; it is
the whole-sector reference for `sector_spectrum` and gives eigenvectors.
`AllCharactersReduction` is the symmetry reduction that
`depevap.hamiltonian._SymmetryReduction` replaced: it finds the cells of
every character in one pass, and the package's gives the same arrays one
character at a time.
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


class AllCharactersReduction:
    """H's cells in the symmetry sectors of commuting involutions `perms` of its n keys,
    every character's (character, cell) pairs found at once; the attributes and the call
    of `depevap.hamiltonian._SymmetryReduction`, whose docstring states the basis."""

    def __init__(self, perms, row, col, n):
        elements = 1 << len(perms)
        images = np.empty((elements, n), dtype=np.intp)
        images[0] = np.arange(n)
        for g in range(1, elements):
            j = (g & -g).bit_length() - 1
            images[g] = perms[j][images[g ^ (1 << j)]]
        least = images.min(axis=0)
        g_of = np.argmax(images == least, axis=0)  # takes the key to least, and least to the key
        fixed = images == np.arange(n)  # (elements, keys): each key's stabilizer
        orbit = elements / fixed.sum(axis=0)
        parity = np.array([[bin(s & g).count("1") & 1 for g in range(elements)]
                           for s in range(elements)])
        chi = 1 - 2 * parity
        kept = parity @ fixed == 0  # (characters, keys)
        basis = kept & (least == np.arange(n))
        index = np.cumsum(basis.ravel()).reshape(basis.shape) - 1
        char, self.entry = np.nonzero(kept[:, row] & kept[:, col])
        r, c = row[self.entry], col[self.entry]
        self.sign = chi[char, g_of[r]] * chi[char, g_of[c]]
        self.scale = np.sqrt(orbit[r] * orbit[c])
        size = int(basis.sum())
        cells, self.group = np.unique(index[char, least[r]] * size + index[char, least[c]],
                                      return_inverse=True)
        self.dims = basis.sum(axis=1)
        self.row, self.col = np.divmod(cells, size)

    def __call__(self, value):
        return np.bincount(self.group, weights=self.sign * (value[self.entry] / self.scale))

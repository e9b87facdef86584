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

`build_deformation_state` is the two-branch superposition |D> of one
update case (k, c, S) that `depevap.hamiltonian` built before its case
table `_CASES` and `_branch` replaced it, moved here whole with its
`DeformationState` and its helpers `_endpoint_pattern`, `_branch_weight`
and `_window_spin_bits`; `reference_update_pattern` is the update
projector the package built from it, so the package's `_update_pattern`
must give its states and matrix bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from depevap.codec import pack_values, site_order, unpack_keys
from depevap.errors import CapacityError, InvalidParameterError
from depevap.hamiltonian import DENSE_BYTES, DENSE_STATES, _layout
from depevap.params import ModelParams
from depevap.surface import branch_probability


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


# ---------------------------------------------------------------------------
# the update projectors' deformation states, as built before the case table


@dataclass(frozen=True)
class DeformationState:
    """Two-branch local superposition |D> of one (k, c, S), as `reference_update_pattern` reads it."""

    states: tuple          # window configurations of the branches
    coeffs: tuple          # branch amplitudes (unnormalized)
    norm_exact: float      # <D|D>


def _endpoint_pattern(k):
    if k == 1:
        return -1, -1
    if k == 2:
        return -1, +1
    if k == 3:
        return +1, -1
    raise InvalidParameterError(f"deformation case k must be 1, 2 or 3, got {k}")


def _branch_weight(v, e_down, e_up, s_left, s_right, p):
    """w(v) = P_down * P_up * P_left * P_right for center value v (+-1).

    Each factor is an event-table probability.  The site's own vertices
    take it from e_down to v and from v to e_up, with -1 a valley and +1
    a peak before the move and the height delta the difference.  A side
    vertex whose direction equals v is a valley (v = +1) or a peak
    (v = -1) that stays put; otherwise it is a slope.
    """
    def vertical(e_from, e_to):
        return branch_probability("valley" if e_from == -1 else "peak", e_to - e_from, p)

    def side(delta):
        shape = "slope" if delta != v else ("valley" if v == +1 else "peak")
        return branch_probability(shape, 0, p)

    return vertical(e_down, v) * vertical(v, e_up) * side(s_left) * side(s_right)


def _window_spin_bits(k, S, v):
    """The 12 window spin bits for branch center value v."""
    e_down, e_up = _endpoint_pattern(k)
    s_left, s_right = S
    bot = (1 - e_down) // 2
    top = (1 + e_up) // 2
    lo_bit = (1 + v) // 2
    s1 = (1 + s_left) // 2
    s4 = (1 + s_right) // 2
    return (
        bot, bot,
        lo_bit, lo_bit,
        1 - lo_bit, 1 - lo_bit,
        top, top,
        s1, 1 - s1,
        s4, 1 - s4,
    )


def build_deformation_state(k, c, S, p) -> DeformationState:
    """The two-branch superposition for case k, color c and side pattern S.

    Weights follow the product of the four adjacent vertex
    probabilities; for the colored spike case (k=1) the upper branch
    carries the extra 1/2 of its single free color choice.
    """
    if S[0] not in (-1, 1) or S[1] not in (-1, 1):
        raise InvalidParameterError(f"S must be a pair of +-1, got {S!r}")
    e_down, e_up = _endpoint_pattern(k)
    w_hi = _branch_weight(+1, e_down, e_up, S[0], S[1], p)
    w_lo = _branch_weight(-1, e_down, e_up, S[0], S[1], p)
    hi_spins = _window_spin_bits(k, S, +1)
    lo_spins = _window_spin_bits(k, S, -1)
    if c is None:
        states = (hi_spins, lo_spins)
        coeffs = (math.sqrt(w_hi), math.sqrt(w_lo))
    else:
        if c not in (1, 2):
            raise InvalidParameterError(f"color must be 1 or 2, got {c!r}")
        qd_hi, qu_hi, qd_lo, qu_lo = {
            1: (c, c, 0, 0),    # spike: deposit below, matching evaporation above
            2: (c, 0, 0, c),    # rise: deposit below (early) or above (late)
            3: (0, c, c, 0),    # fall: evaporation above (late) or below (early)
        }[k]
        states = (hi_spins + (qd_hi, qu_hi), lo_spins + (qd_lo, qu_lo))
        color_split = 0.5 if k == 1 else 1.0
        coeffs = (math.sqrt(w_hi * color_split), math.sqrt(w_lo))
    return DeformationState(states=states, coeffs=coeffs,
                            norm_exact=coeffs[0] ** 2 + coeffs[1] ** 2)


def reference_update_pattern(k, c, S, p):
    """(states, matrix) of Pi = I_sub - |D><D| / <D|D> for one (k, c, S).

    I_sub spans the per-vertex-valid window states of this (k, c, S)
    instance; for k=1 that includes the cross-color evaporation states
    (deposit c, evaporation c'), which is what gives mismatched colorings
    their energy.  With <D|D> = 0 (degenerate p) the projector is I_sub.
    The body of `depevap.hamiltonian._update_pattern` before the case
    table, its matrix left writeable.
    """
    d = build_deformation_state(k, c, S, p)
    states = list(d.states)
    coeffs = list(d.coeffs)
    if c is not None and k == 1:
        other = 2 if c == 1 else 1
        hi_spins = states[0][:12]
        states.insert(1, hi_spins + (c, other))
        coeffs.insert(1, 0.0)
    vec = np.array(coeffs)
    eye = np.eye(len(states))
    if d.norm_exact > 0:
        matrix = eye - np.outer(vec, vec) / d.norm_exact
    else:
        matrix = eye
    return tuple(states), matrix

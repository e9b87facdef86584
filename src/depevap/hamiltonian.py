"""Frustration-free parent Hamiltonian of the absorbing colored state.

The Hamiltonian is a sum of local terms: boundary-row and boundary-column
pin projectors, below-horizon projectors adjacent to the initial/final
rows, a diagonal Gauss penalty per vertex, per-vertex color-validity
projectors, and the update projectors that pin the local superposition
ratios to the dynamics.

Update projectors act on a 14-site window around one deformable
plaquette (i, t): the site's height value h~_i(t) can be toggled between
two values separated by 2, relabelling its two adjacent update vertices
(below and above) and changing the no-change probabilities of the two
spatial-neighbour vertices (left and right).  The window holds 12 spins
(4 around the plaquette, 2 below, 2 above, 2 on each side) and the 2
color qutrits of the site's own vertices.  Within a window instance,
classified by the endpoint pattern k (1: equal endpoints, deformation
between a spike and a flat; 2: rising endpoints, early versus late rise;
3: falling endpoints, late versus early fall), the side pattern S, and
the color c, the two branches carry relative weights

    w(v) = P_down * P_up * P_left * P_right

with each factor the single-vertex event probability implied by the
branch's center value v.  The falling-spike case (equal endpoints with a
dip between) is deliberately not deformable: that is what disconnects
below-horizon histories and lets local terms pin h >= 0.

All terms are built in the absorbing normalization; the reflecting state
is not the kernel of any local term set (its Peak-at-1 rule is height
dependent, hence nonlocal in the spins), and requesting it raises.

Terms act on canonical keys in bulk, one array pass per shared support,
and give their nonzero entries by term, then key, then matrix row;
`term_residuals` and the sector spectrum sum them in that order, as the
tests' per-key loop does (tests/hamiltonian_reference.py).  The
constrained sector is the bridges' `exact.walk` with the floor rule
removed and every branch allowed at any p (`sector_keys`).  Its
spectrum comes from H's symmetry sectors under reflection, time reversal
and color swap (`_SymmetryReduction`), each split into connected blocks
(`_Blocks`) diagonalized in full; `_Layout.levels` runs those steps.

Only the matrix values depend on p.  Terms of one local pattern share a
read-only (states, matrix), and everything else (the entries' layout
over a key matrix, the sector entries' terms and H's cells, the
symmetries' key maps, the character basis and the block partition) is a
p-independent layout, kept by `exact._kept` under the key that `_layout`
gives it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .codec import (
    key_order,
    key_rows,
    pack_values,
    site_order,
    unpack_keys,
    vertex_sites,
    vertex_spin_indices,
)
from .errors import CapacityError, InvalidParameterError, UnsupportedModeError
from .exact import SparseState, _kept, site_values, walk
from .params import ModelParams, _is_int, _require_cap
from .surface import branch_probability

DENSE_BYTES = 1 << 30  # budget of one dense float64 sector matrix
DENSE_STATES = math.isqrt(DENSE_BYTES // 8)  # 11,585 states

# 4-spin vertex patterns, in (ll, lu, rl, ru) order
DEPOSIT_PATTERN = (1, 1, 1, 1)
EVAPORATE_PATTERN = (0, 0, 0, 0)
NO_CHANGE_PATTERNS = ((1, 0, 1, 0), (0, 1, 0, 1), (0, 1, 1, 0), (1, 0, 0, 1))


@dataclass(frozen=True)
class LocalTerm:
    kind: str
    support: tuple
    weight: float
    states: tuple          # active local configurations, one per matrix index
    matrix: np.ndarray     # symmetric real, over `states`


@dataclass(frozen=True)
class DeformationState:
    """Two-branch local superposition |D> of one (k, c, S), as `_update_pattern` reads it."""

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


def _window_support(i, t):
    """Window sites of plaquette (i, t): 12 spins then the 2 own qutrits."""
    spins = [
        ("s", i - 1, t - 2), ("s", i, t - 2),                    # bottom pair
        ("s", i - 1, t - 1), ("s", i, t - 1),                    # center lower
        ("s", i - 1, t), ("s", i, t),                            # center upper
        ("s", i - 1, t + 1), ("s", i, t + 1),                    # top pair
        ("s", i - 2, t - 1), ("s", i - 2, t),                    # left outer
        ("s", i + 1, t - 1), ("s", i + 1, t),                    # right outer
    ]
    return tuple(spins), (("c", i, t - 1), ("c", i, t + 1))


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


def _read_only(matrix):
    """`matrix`, made read-only so that every term built from it can share it."""
    matrix.flags.writeable = False
    return matrix


_ONE = _read_only(np.array([[1.0]]))  # the matrix of every one-state term


def _update_pattern(k, c, S, p):
    """(states, matrix) of Pi = I_sub - |D><D| / <D|D> for one (k, c, S).

    I_sub spans the per-vertex-valid window states of this (k, c, S)
    instance; for k=1 that includes the cross-color evaporation states
    (deposit c, evaporation c'), which is what gives mismatched colorings
    their energy.  With <D|D> = 0 (degenerate p) the projector is I_sub.
    The matrix is read-only: every plaquette's term of this pattern shares it.
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
    return tuple(states), _read_only(matrix)


def _update_term(i, t, pattern) -> LocalTerm:
    """The update term of `pattern` (from `_update_pattern`) on the window of plaquette (i, t);
    colored states carry 14 values, the 12 spins' and the 2 qutrits'."""
    states, matrix = pattern
    spins, qutrits = _window_support(i, t)
    support = spins + (qutrits if len(states[0]) == 14 else ())
    return LocalTerm(kind="update", support=support, weight=1.0, states=states, matrix=matrix)


def _pin_term(kind, site, bad_value, weight):
    return LocalTerm(kind=kind, support=(site,), weight=weight,
                     states=((bad_value,),), matrix=_ONE)


def build_boundary_terms(params: ModelParams):
    """Initial/final row pins plus below-horizon projectors, and column pins.

    The below-horizon projectors put energy on an evaporation at any
    first-row odd-site vertex (the site would fall from 1 to -1) and on a
    deposition at any last-row odd-site vertex (the site would have been
    below the horizon); dips elsewhere deform into these under the update
    terms.
    """
    params.require_odd_L()
    L = params.L
    w = 1.0 / L
    terms = []
    for kind, y, bad, t, pattern in (("initial", 0, 0, 2, EVAPORATE_PATTERN),
                                     ("final", L, 1, L - 1, DEPOSIT_PATTERN)):
        terms += [_pin_term(kind, ("s", x, y), bad, w) for x in range(L + 1)]
        terms += [LocalTerm(kind=kind, support=tuple(("s",) + s for s in vertex_spin_indices(i, t)),
                            weight=w, states=(pattern,), matrix=_ONE) for i in range(1, L + 1, 2)]
    for y in range(L + 1):
        good = 1 if y % 2 == 0 else 0
        terms.append(_pin_term("left", ("s", 0, y), 1 - good, w))
        terms.append(_pin_term("right", ("s", L, y), 1 - good, w))
    return terms


def build_gauss_term(params: ModelParams):
    """Diagonal penalty (left pair sum - right pair sum)^2 per vertex, one shared matrix."""
    params.require_odd_L()
    states = []
    diag = []
    for bits in np.ndindex(2, 2, 2, 2):
        ll, lu, rl, ru = (int(b) for b in bits)
        res = (2 * ll - 1) + (2 * lu - 1) - (2 * rl - 1) - (2 * ru - 1)
        if res != 0:  # res is twice the spin-unit residual; penalty is its square
            states.append((ll, lu, rl, ru))
            diag.append(float(res * res) / 4)
    states, matrix = tuple(states), _read_only(np.diag(diag))
    return [LocalTerm(kind="gauss", support=tuple(("s",) + s for s in vertex_spin_indices(*v)),
                      weight=1.0, states=states, matrix=matrix)
            for v in vertex_sites(params.L)]


def build_color_term(params: ModelParams):
    """Penalize change vertices colored 0 and no-change vertices colored r/g, one shared matrix."""
    params.require_odd_L()
    if not params.colored:
        return []
    states = [DEPOSIT_PATTERN + (0,), EVAPORATE_PATTERN + (0,)]
    for pattern in NO_CHANGE_PATTERNS:
        for c in (1, 2):
            states.append(pattern + (c,))
    states, matrix = tuple(states), _read_only(np.eye(len(states)))
    return [LocalTerm(kind="color",
                      support=tuple(("s",) + s for s in vertex_spin_indices(*v)) + (("c",) + v,),
                      weight=1.0, states=states, matrix=matrix)
            for v in vertex_sites(params.L)]


def update_plaquettes(L):
    return [(i, t) for t in range(2, L) for i in range(2, L) if (i + t) % 2 == 0]


def assemble_hamiltonian(params: ModelParams):
    """All local terms of the parent Hamiltonian (absorbing mode only)."""
    params.require_odd_L()
    if params.boundary_mode != "absorbing":
        raise UnsupportedModeError(
            "only the absorbing state has a local parent Hamiltonian; "
            "the reflecting Peak-at-1 rule depends on the absolute height")
    terms = []
    terms += build_boundary_terms(params)
    terms += build_gauss_term(params)
    terms += build_color_term(params)
    colors = (1, 2) if params.colored else (None,)
    patterns = [_update_pattern(k, c, S, params.p)
                for k in (1, 2, 3) for S in itertools.product((-1, 1), repeat=2) for c in colors]
    for (i, t) in update_plaquettes(params.L):
        terms += [_update_term(i, t, pattern) for pattern in patterns]
    return terms


# ---------------------------------------------------------------------------
# sparse application over canonical keys
#
# Every consumer reads the same entries (a, key2, h): term T maps key a
# onto key2 with amplitude h = T.weight * T.matrix[r2, r].  They come
# with terms outer, then keys in the given order, then matrix rows r2
# ascending, and every sum runs in that order (`np.bincount`), so a float
# is the same whichever consumer adds it.
#
# Terms sharing a support (the 12 or 24 update terms of a plaquette) make
# one pass over the keys' (N, sites) values: `searchsorted` finds each
# key's mixed-radix window code (2 per spin, 3 per color) among all their
# states, and a hit expands into column r of each term with that state r.
# A target key is its source key XOR the packed difference of r and r2.
#
# None of that depends on p.  A `_Layout` holds it for one term layout
# (`_layout`) and gives the entries over a key matrix as
# (a, key2) plus each entry's term and matrix position; the amplitudes h
# are gathered from the terms' weights and matrices on every call.


@dataclass
class _Entries:
    """All terms' nonzero entries over one key matrix, without their values.

    Entry e maps key a[e] onto the packed key row key2[e] with amplitude
    weights[term[e]] * flat[at[e]] (`h`); entries come by term, then
    key, then matrix row, over `n_terms` terms.  `keys` is the
    (N, key_length) key matrix and `values` its (N, sites) site values.
    """

    keys: np.ndarray
    values: np.ndarray
    a: np.ndarray
    key2: np.ndarray
    term: np.ndarray
    at: np.ndarray
    n_terms: int

    def h(self, weights, flat):
        """Each entry's amplitude from the terms' weights and concatenated matrix columns."""
        return weights[self.term] * flat[self.at]

    @functools.cached_property
    def residual_cells(self):
        """(group, ends): each entry's (term, key2) cell, and each term's first cell."""
        _, key = np.unique(key_rows(self.key2), return_inverse=True)
        term = self.term * (len(key) + 1)
        cells, group = np.unique(term + key, return_inverse=True)  # (term, key2) pairs
        ends = np.searchsorted(cells, np.arange(self.n_terms + 1) * (len(key) + 1)).tolist()
        return group, ends

    @functools.cached_property
    def sector_cells(self):
        """(row, col, group): the distinct (key2, a) cells row-major, and each entry's cell.

        Row and column n belong to key n.  A key listed twice raises
        InvalidParameterError, and a key2 outside the list AssertionError.
        """
        n = len(self.keys)
        by_key, repeat = key_order(self.keys)
        if repeat.any():
            raise InvalidParameterError("sector keys must be distinct")
        sorted_rows = key_rows(self.keys[by_key])
        targets = key_rows(self.key2)
        pos = np.minimum(np.searchsorted(sorted_rows, targets), n - 1)
        if (sorted_rows[pos] != targets).any():  # searchsorted alone lands beside a missing key
            raise AssertionError("sector basis is not closed under a term")
        cells, group = np.unique(by_key[pos] * n + self.a, return_inverse=True)
        return *np.divmod(cells, n), group


class _Layout:
    """The p-independent part of the terms' action (see the comment above).

    It keeps the entries over the last key matrix asked of `entries`;
    `sector` and `levels` hold and use the sector spectrum's part.  Of
    `params` a layout reads only L and colored.
    """

    def __init__(self, terms, nonzero, params: ModelParams):
        self.params = params
        L, colored = params.L, params.colored
        index_of = {s: n for n, s in enumerate(site_order(L, colored))}
        sizes = np.array([len(term.states) for term in terms], dtype=np.intp)
        table = np.zeros((sizes.sum(), len(index_of)), dtype=np.uint8)  # states at their sites
        window = np.empty(len(table), dtype=np.intp)  # one id per distinct window of a support
        self.groups, row = [], 0  # (site columns, radix, sorted window codes, first row)
        for support, group in itertools.groupby(terms, key=lambda term: term.support):
            states = np.array([state for term in group for state in term.states], dtype=np.uint8)
            idx = [index_of[s] for s in support]
            radix = [2 if s[0] == "s" else 3 for s in support]
            state_codes = np.ravel_multi_index(states.T, radix)
            codes = np.sort(state_codes)
            table[row:row + len(states), idx] = states
            window[row:row + len(states)] = row + np.searchsorted(codes, state_codes)
            self.groups.append((idx, radix, codes, row))
            row += len(states)
        at = np.flatnonzero(nonzero)  # by term, then matrix column r, then row r2
        owner = np.repeat(np.arange(len(terms)), sizes * sizes)[at]
        r, r2 = np.divmod(at - (np.cumsum(sizes * sizes) - sizes * sizes)[owner], sizes[owner])
        source, target = np.array([r, r2]) + (np.cumsum(sizes) - sizes)[owner]
        self.at, self.owner, self.n_terms = at, owner, len(terms)
        self.delta = pack_values(table[source] ^ table[target], L, colored)
        self.by_window = np.argsort(window[source], kind="stable")
        self.count = np.bincount(window[source], minlength=len(table))
        self.window_ends = np.cumsum(self.count)
        self._last = None  # the entries of the last `entries` call, over a copy of its keys
        self._reduced = None  # (commuting names, _SymmetryReduction, _Blocks) of `levels`

    def entries(self, keys) -> _Entries:
        """The entries over the key matrix `keys`, rows in order; the last matrix's are kept."""
        if self._last is None or not np.array_equal(self._last.keys, keys):
            self._last = None  # drop the old entries before building the next
            self._last = self.build_entries(np.array(keys, dtype=np.uint8))
        return self._last

    def build_entries(self, keys) -> _Entries:
        values = unpack_keys(keys, self.params.L, self.params.colored)
        hits = [(np.zeros(0, dtype=np.intp),) * 2]
        for idx, radix, codes, row in self.groups:
            code = np.ravel_multi_index(values[:, idx].T, radix)
            pos = np.minimum(np.searchsorted(codes, code), len(codes) - 1)
            a = np.flatnonzero(codes[pos] == code)
            hits.append((a, row + pos[a]))
        a, hit = (np.concatenate(part) for part in zip(*hits))
        n = self.count[hit]
        first = self.window_ends[hit] - np.cumsum(n)
        entry = self.by_window[np.arange(n.sum()) + np.repeat(first, n)]
        by_term = np.argsort(self.owner[entry], kind="stable")
        a, entry = np.repeat(a, n)[by_term], entry[by_term]
        term = self.owner[entry]
        return _Entries(keys=keys, values=values, a=a, key2=keys[a] ^ self.delta[entry],
                        term=term, at=self.at[entry], n_terms=self.n_terms)

    @functools.cached_property
    def sector(self):
        """(n, term, at, cells, images) of the n sorted sector keys (`sector_keys`, capped at
        DENSE_STATES): their entries' terms and matrix positions, the entries'
        `sector_cells` and the candidate symmetries that map them onto themselves.  Of the
        entries nothing else is kept: their keys and targets are dropped once read."""
        entries = self.build_entries(sector_keys(self.params, max_states=DENSE_STATES))
        return (len(entries.keys), entries.term, entries.at, entries.sector_cells,
                _symmetry_images(entries, self.params))

    def levels(self, weights, flat):
        """Every level of H over the sector with these terms' values, unsorted; the
        character basis and block partition are rebuilt only when the set of commuting
        symmetries changes."""
        n, term, at, (row, col, group), images = self.sector
        value = np.bincount(group, weights=weights[term] * flat[at])  # as `_Entries.h`
        kept = _commuting(images, value)
        if self._reduced is None or self._reduced[0] != tuple(kept):
            self._reduced = None
            reduction = _SymmetryReduction(list(kept.values()), row, col, n)
            self._reduced = tuple(kept), reduction, _Blocks(reduction.row, reduction.col,
                                                           int(reduction.dims.sum()))
        _, reduction, blocks = self._reduced
        # map drops each stack once its levels are in, before the next stack is built
        return np.concatenate(list(map(lambda block: np.linalg.eigvalsh(block[1]).ravel(),
                                       blocks.stacks(reduction(value)))))


def _layout(terms, params: ModelParams):
    """(layout, weights, flat): the terms' kept `_Layout`, their weights and matrix columns.

    `flat` concatenates every term's matrix column by column, the order
    of `_Entries.at`.  The layout is kept by `exact._kept` under the key
    ("terms", L, colored, every term's (support, states), the nonzero
    pattern of `flat`), so the points of a p grid at one L share it, and
    p = 0 and 1, which zero some matrix entries, build their own.
    """
    flat = np.concatenate([np.zeros(0)] + [term.matrix.T.ravel() for term in terms])
    nonzero = flat != 0
    key = ("terms", params.L, params.colored,
           tuple((term.support, term.states) for term in terms), nonzero.tobytes())
    layout = _kept(key, lambda: _Layout(terms, nonzero, params))
    return layout, np.array([term.weight for term in terms]), flat


def term_residuals(terms, state: SparseState):
    """||T_j |psi>|| per term."""
    layout, weights, flat = _layout(terms, state.params)
    entries = layout.entries(state.keys)
    group, ends = entries.residual_cells
    sums = np.bincount(group, weights=entries.h(weights, flat) * state.amps[entries.a])
    squares = (sums * sums).tolist()
    return [math.sqrt(math.fsum(squares[lo:hi])) for lo, hi in zip(ends[:-1], ends[1:])]


# ---------------------------------------------------------------------------
# restricted-sector spectrum


# exact.walk's branches per label: every valley may rise and every peak and floor fall
# (dips are legal), slopes stay, all at weight 1; changes carry r
_SECTOR_BRANCHES = {"valley": [(0, 0, 1.0), (2, 1, 1.0)], "peak": [(0, 0, 1.0), (-2, 0, 1.0)],
                    "floor": [(0, 0, 1.0), (-2, 0, 1.0)], "slope_up": [(0, 0, 1.0)],
                    "slope_down": [(0, 0, 1.0)]}


def sector_keys(params: ModelParams, max_states: int = 200_000) -> np.ndarray:
    """The Gauss + boundary + per-vertex-color-valid sector as a (N, key_length)
    uint8 key matrix, rows sorted as bytes.

    The histories are the bridges' `exact.walk` without the floor rule
    and at every p (`_SECTOR_BRANCHES`); their change vertices are those
    with a color.  Colored params then give every history each
    independent r/g assignment of its change vertices, mismatched ones
    included.  `max_states` bounds the nodes of the history tree, as
    `max_nodes` does the bridges' (2,931 at L = 7 uncolored for 868
    keys), and the colored keys.
    """
    params.require_odd_L()
    _require_cap("max_states", max_states)
    L = params.L
    overflow = f"sector exceeds {max_states} states"
    index, (_, spins, colors, _) = walk(L, _SECTOR_BRANCHES, max_states, overflow)
    n = len(index)
    values = site_values(index, spins, colors, np.arange(n), params.colored)
    if params.colored:  # one key per color: 0 on a no-change vertex, r or g on a change
        change = values[:, (L + 1) ** 2:] != 0
        counts = np.left_shift(1, change.sum(axis=1))
        if counts.sum() > max_states:
            raise CapacityError(overflow)
        rows = np.repeat(np.arange(n), counts)
        pick = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)
        # a history's keys count pick = 0, 1, ...: bit k of pick colors its k-th change
        bit = np.maximum(np.cumsum(change, axis=1) - 1, 0)[rows]
        values = values[rows]
        values[:, (L + 1) ** 2:] = np.where(change[rows], 1 + ((pick[:, None] >> bit) & 1), 0)
    keys = pack_values(values, L, params.colored)
    return keys[key_order(keys)[0]]


def _site_symmetries(L, colored):
    """The candidate symmetries as (perm, table) over `site_order` values.

    Site n of a key's image takes table[n, v] of the key's value v at
    site perm[n].  R reflects space: spin (x, y) -> (L - x, y) and color
    (i, t) -> (L + 1 - i, t).  T reverses time: spin (x, y) -> (x, L - y)
    with its bit flipped and color (i, t) -> (i, L + 1 - t).  C, colored
    only, swaps the colors r and g.
    """
    sites = site_order(L, colored)
    index = {s: n for n, s in enumerate(sites)}
    spin = np.array([s[0] == "s" for s in sites])[:, None]
    same = np.tile([0, 1, 2], (len(sites), 1))

    def moved(spin_to, color_to):
        return np.array([index[("s", *spin_to(*s[1:]))] if s[0] == "s"
                         else index[("c", *color_to(*s[1:]))] for s in sites])

    symmetries = {
        "R": (moved(lambda x, y: (L - x, y), lambda i, t: (L + 1 - i, t)), same),
        "T": (moved(lambda x, y: (x, L - y), lambda i, t: (i, L + 1 - t)),
              np.where(spin, [1, 0, 2], same)),
    }
    if colored:
        symmetries["C"] = (np.arange(len(sites)), np.where(spin, same, [0, 2, 1]))
    return symmetries


def _symmetry_images(entries: _Entries, params: ModelParams):
    """The candidates that map the sector and H's cells onto themselves, as (name, to, order).

    `entries` are the terms' entries over the sorted sector keys, and
    (row, col) their `sector_cells`.  Key n maps onto key to[n], and cell
    order[e] onto cell e.
    """
    L, colored = params.L, params.colored
    rows, values = key_rows(entries.keys), entries.values
    row, col, _ = entries.sector_cells
    n = len(rows)
    images = []
    for name, (perm, table) in _site_symmetries(L, colored).items():
        image = key_rows(pack_values(table[np.arange(len(perm)), values[:, perm]], L, colored))
        to = np.minimum(np.searchsorted(rows, image), n - 1)
        if (rows[to] != image).any():
            continue
        cells = to[row] * n + to[col]
        order = np.argsort(cells)
        if np.array_equal(cells[order], row * n + col):
            images.append((name, to, order))
    return images


def _commuting(images, value):
    """{name: key permutation} of the `images` under which every value of H agrees.

    Values agree to within 1e-12 max|H|; T fails that at p = 0 and 1.
    """
    tol = 1e-12 * np.abs(value).max(initial=0.0)
    return {name: to for name, to, order in images if (np.abs(value[order] - value) <= tol).all()}


class _SymmetryReduction:
    """H's cells in the symmetry sectors of commuting involutions `perms` of its n keys.

    The involutions generate a group of 2^m elements, element g applying
    perms[j] for each bit j set.  Character s is (-1)^popcount(s & g) on
    g.  A key's orbit is a basis state of every character that is 1 on
    the orbit's stabilizer, with coefficient chi(g) / sqrt(|orbit|) on
    the member g takes the orbit's least key to.  `dims` holds each
    character's dimension, and (row, col) the distinct row-major cells of
    H over the sectors' direct sum, characters in order and orbits by
    least key.  The cells are found one character at a time, each
    character's after the earlier ones', so no array spans every
    character's pairs but the kept `entry`, `sign`, `scale` and `group`.
    Called with H's values over (row, col) of the keys, it returns the
    values of those cells, summed by one `bincount` pass.
    """

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
        size = int(basis.sum())
        pair = kept[:, row] & kept[:, col]  # (characters, cells)
        self.entry = np.flatnonzero(pair)  # character-major, as np.nonzero gives them
        self.entry %= len(row)
        ends = np.cumsum(pair.sum(axis=1))
        self.sign = np.empty(len(self.entry), dtype=np.int8)  # +-1, exact in any product
        self.scale = np.empty(len(self.entry))
        self.group = np.empty(len(self.entry), dtype=np.intp)
        cells, done = [], 0  # one character at a time; its cells follow the earlier ones'
        for s, lo, hi in zip(range(elements), ends - pair.sum(axis=1), ends):
            r, c = row[self.entry[lo:hi]], col[self.entry[lo:hi]]
            self.sign[lo:hi] = chi[s, g_of[r]] * chi[s, g_of[c]]
            self.scale[lo:hi] = np.sqrt(orbit[r] * orbit[c])
            part, self.group[lo:hi] = np.unique(index[s, least[r]] * size + index[s, least[c]],
                                                return_inverse=True)
            self.group[lo:hi] += done
            cells.append(part)
            done += len(part)
        cells = np.concatenate(cells)
        self.dims = basis.sum(axis=1)
        self.row, self.col = np.divmod(cells, size)

    def __call__(self, value):
        weights = value[self.entry] / self.scale
        weights *= self.sign
        return np.bincount(self.group, weights=weights)


class _Blocks:
    """The connected blocks of H's cells (row, col) over n keys, one group per block size s.

    Every edge hooks the larger of its keys' roots onto the smaller, and
    pointer jumping flattens the forest, until each key's root is the
    first key of its block.  A block lists its keys ascending.
    """

    def __init__(self, row, col, n):
        root = np.arange(n)
        while (root[row] != root[col]).any():
            np.minimum.at(root, np.maximum(root[row], root[col]), np.minimum(root[row], root[col]))
            while (root[root] != root).any():
                root = root[root]
        size = np.bincount(root, minlength=n)  # a block's size, at its first key
        start = np.cumsum(size) - size
        members = np.argsort(root, kind="stable")
        self.groups = []  # (keys (B, s), where each owned cell goes in the (B, s, s) stack, cells)
        for s in np.flatnonzero(np.bincount(size)[1:]) + 1:
            blocks = members[start[size == s, None] + np.arange(s)]
            cell = np.full(n, -1)
            cell[blocks.ravel()] = np.arange(blocks.size)  # block rank * s + position in it
            mine = np.flatnonzero(cell[row] >= 0)
            at = (cell[row[mine]] // s, cell[row[mine]] % s, cell[col[mine]] % s)
            self.groups.append((blocks, at, mine))

    def stacks(self, value):
        """(keys (B, s), matrices (B, s, s)) per block size s, the matrices holding `value`.

        A yielded stack is the caller's alone: one that drops it before
        asking for the next never holds two.
        """
        for blocks, at, mine in self.groups:
            stack = np.zeros((len(blocks), blocks.shape[1], blocks.shape[1]))
            stack[at] = value[mine]
            yield blocks, stack
            del stack


def sector_spectrum(terms, params: ModelParams, k: int):
    """Lowest-k eigenvalues of H in the constrained sector, ascending.

    H is first reduced to the sectors of its symmetries
    (`_symmetry_images`, `_commuting`, `_SymmetryReduction`), then LAPACK
    diagonalizes each connected block of every sector (`_Blocks`) in
    full, equal sizes in one stacked `eigvalsh`.  At L = 7 uncolored,
    0 < p < 1, R and T give sectors of 270, 206, 206 and 186 states whose
    largest blocks hold 219, 163, 163 and 145.  That keeps every
    multiplicity and the same floats on every call, which ARPACK
    restarted from a random vector does not.  DENSE_STATES caps the
    whole sector, so a larger one raises CapacityError while counted.

    All but H's values is p-independent and kept with the terms' layout
    (`_layout`, `_Layout.sector`): the sector entries' terms and matrix
    positions, H's cells, the symmetries' key and cell maps, the
    character basis and the block partition.  A call on a kept layout
    sums H's values, checks which symmetries commute with them and runs
    the stacked `eigvalsh` (`_Layout.levels`); the basis and partition
    are rebuilt only when that set of symmetries changes.
    """
    if not _is_int(k) or k < 1:
        raise InvalidParameterError(f"k must be an integer >= 1, got {k!r}")
    layout, weights, flat = _layout(terms, params)
    return list(map(float, np.sort(layout.levels(weights, flat))[:k]))

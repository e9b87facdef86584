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
and give their nonzero entries by term, then key, then matrix row; every
consumer sums them in that order, as a per-key loop would.  The sector
spectrum comes from H's symmetry sectors under reflection, time reversal
and color swap, each split into connected blocks diagonalized in full.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .codec import (
    heights_to_spins,
    key_bytes,
    pack_values,
    profiles_to_heights,
    site_order,
    unpack_keys,
    vertex_sites,
    vertex_spin_indices,
)
from .errors import CapacityError, InvalidParameterError, UnsupportedModeError
from .exact import SparseState, _site_labels, branch_table, expand_frontier, within_reach
from .params import ModelParams, _is_int
from .surface import branch_probability, horizon_profile, slice_sites

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
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class DeformationState:
    """Two-branch local superposition pinned by the update rules."""

    k: int
    c: int | None          # 1/2, or None for the uncolored variant
    S: tuple               # (left, right) outer-neighbour directions, each +-1
    states: tuple          # window configurations of the branches
    coeffs: tuple          # branch amplitudes (unnormalized)
    norm_exact: float      # <D|D>
    norm_printed: float    # w_hi + w_lo, the textbook normalizer


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
    norm_exact = coeffs[0] ** 2 + coeffs[1] ** 2
    return DeformationState(k=k, c=c, S=tuple(S), states=states, coeffs=coeffs,
                            norm_exact=norm_exact, norm_printed=w_hi + w_lo)


def build_update_projector(i, t, k, c, S, p) -> LocalTerm:
    """Pi = I_sub - |D><D| / <D|D> on the window of plaquette (i, t).

    I_sub spans the per-vertex-valid window states of this (k, c, S)
    instance; for k=1 that includes the cross-color evaporation states
    (deposit c, evaporation c'), which is what gives mismatched colorings
    their energy.  With <D|D> = 0 (degenerate p) the projector is I_sub.
    """
    d = build_deformation_state(k, c, S, p)
    spins, qutrits = _window_support(i, t)
    support = spins + (qutrits if c is not None else ())
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
    return LocalTerm(kind="update", support=support, weight=1.0,
                     states=tuple(states), matrix=matrix,
                     meta={"i": i, "t": t, "k": k, "c": c, "S": tuple(S),
                           "norm_exact": d.norm_exact, "norm_printed": d.norm_printed})


def _pin_term(kind, site, bad_value, weight):
    return LocalTerm(kind=kind, support=(site,), weight=weight,
                     states=((bad_value,),), matrix=np.array([[1.0]]))


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
    for x in range(L + 1):
        terms.append(_pin_term("initial", ("s", x, 0), 0, w))
    for i in range(1, L + 1, 2):
        support = tuple(("s",) + s for s in vertex_spin_indices(i, 2))
        terms.append(LocalTerm(kind="initial", support=support, weight=w,
                               states=(EVAPORATE_PATTERN,), matrix=np.array([[1.0]]),
                               meta={"vertex": (i, 2)}))
    for x in range(L + 1):
        terms.append(_pin_term("final", ("s", x, L), 1, w))
    for i in range(1, L + 1, 2):
        support = tuple(("s",) + s for s in vertex_spin_indices(i, L - 1))
        terms.append(LocalTerm(kind="final", support=support, weight=w,
                               states=(DEPOSIT_PATTERN,), matrix=np.array([[1.0]]),
                               meta={"vertex": (i, L - 1)}))
    for y in range(L + 1):
        good = 1 if y % 2 == 0 else 0
        terms.append(_pin_term("left", ("s", 0, y), 1 - good, w))
        terms.append(_pin_term("right", ("s", L, y), 1 - good, w))
    return terms


def build_gauss_term(params: ModelParams):
    """Diagonal penalty (left pair sum - right pair sum)^2 per vertex."""
    params.require_odd_L()
    terms = []
    for v in vertex_sites(params.L):
        support = tuple(("s",) + s for s in vertex_spin_indices(*v))
        states = []
        diag = []
        for bits in np.ndindex(2, 2, 2, 2):
            ll, lu, rl, ru = (int(b) for b in bits)
            res = (2 * ll - 1) + (2 * lu - 1) - (2 * rl - 1) - (2 * ru - 1)
            if res != 0:  # res is twice the spin-unit residual; penalty is its square
                states.append((ll, lu, rl, ru))
                diag.append(float(res * res) / 4)
        terms.append(LocalTerm(kind="gauss", support=support, weight=1.0,
                               states=tuple(states), matrix=np.diag(diag),
                               meta={"vertex": v}))
    return terms


def build_color_term(params: ModelParams):
    """Penalize change vertices colored 0 and no-change vertices colored r/g."""
    params.require_odd_L()
    if not params.colored:
        return []
    terms = []
    for v in vertex_sites(params.L):
        support = tuple(("s",) + s for s in vertex_spin_indices(*v)) + (("c",) + v,)
        states = [DEPOSIT_PATTERN + (0,), EVAPORATE_PATTERN + (0,)]
        for pattern in NO_CHANGE_PATTERNS:
            for c in (1, 2):
                states.append(pattern + (c,))
        terms.append(LocalTerm(kind="color", support=support, weight=1.0,
                               states=tuple(states), matrix=np.eye(len(states)),
                               meta={"vertex": v}))
    return terms


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
    for (i, t) in update_plaquettes(params.L):
        for k in (1, 2, 3):
            for s_left in (-1, 1):
                for s_right in (-1, 1):
                    for c in colors:
                        terms.append(build_update_projector(i, t, k, c, (s_left, s_right), params.p))
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


def _term_entries(terms, values, params: ModelParams):
    """All terms' nonzero entries as arrays (a, key2, h), and term bounds.

    `values` (N, sites) are the keys' site values in `site_order`.  Entry
    e maps key a[e] onto the packed key row key2[e] with amplitude h[e].
    Term n owns entries bounds[n]:bounds[n + 1], by key, then matrix row.
    """
    L, colored = params.L, params.colored
    index_of = {s: n for n, s in enumerate(site_order(L, colored))}
    sizes = np.array([len(term.states) for term in terms], dtype=np.intp)
    table = np.zeros((sizes.sum(), values.shape[1]), dtype=np.uint8)  # states at their sites
    window = np.empty(len(table), dtype=np.intp)  # one id per distinct window of a support
    hits, row = [(np.zeros(0, dtype=np.intp),) * 2], 0
    for support, group in itertools.groupby(terms, key=lambda term: term.support):
        states = np.array([state for term in group for state in term.states], dtype=np.uint8)
        idx = [index_of[s] for s in support]
        radix = [2 if s[0] == "s" else 3 for s in support]
        state_codes = np.ravel_multi_index(states.T, radix)
        codes = np.sort(state_codes)
        table[row:row + len(states), idx] = states
        window[row:row + len(states)] = row + np.searchsorted(codes, state_codes)
        code = np.ravel_multi_index(values[:, idx].T, radix)
        pos = np.minimum(np.searchsorted(codes, code), len(codes) - 1)
        a = np.flatnonzero(codes[pos] == code)
        hits.append((a, row + pos[a]))
        row += len(states)
    flat = np.concatenate([np.zeros(0)] + [term.matrix.T.ravel() for term in terms])
    at = np.flatnonzero(flat)  # by term, then matrix column r, then row r2
    owner = np.repeat(np.arange(len(terms)), sizes * sizes)[at]
    r, r2 = np.divmod(at - (np.cumsum(sizes * sizes) - sizes * sizes)[owner], sizes[owner])
    source, target = np.array([r, r2]) + (np.cumsum(sizes) - sizes)[owner]
    h = np.array([term.weight for term in terms])[owner] * flat[at]
    delta = pack_values(table[source] ^ table[target], L, colored)
    by_window = np.argsort(window[source], kind="stable")
    count = np.bincount(window[source], minlength=len(table))
    a, hit = (np.concatenate(part) for part in zip(*hits))
    n = count[hit]
    entry = by_window[np.arange(n.sum()) + np.repeat(np.cumsum(count)[hit] - np.cumsum(n), n)]
    by_term = np.argsort(owner[entry], kind="stable")
    a, entry = np.repeat(a, n)[by_term], entry[by_term]
    key2 = pack_values(values, L, colored)[a] ^ delta[entry]
    return a, key2, h[entry], np.searchsorted(owner[entry], np.arange(len(terms) + 1))


def _key_rows(keys):
    """One fixed-width void per row of a key matrix; they sort like the bytes."""
    keys = np.ascontiguousarray(keys)
    return keys.view(np.dtype((np.void, keys.shape[1]))).ravel()


def _state_arrays(state: SparseState):
    params = state.params
    values = unpack_keys(list(state.amplitudes), params.L, params.colored)
    return values, np.fromiter(state.amplitudes.values(), dtype=float, count=len(values))


def apply_operator(terms, state: SparseState):
    """H |psi> as an unnormalized key -> coefficient map, keys in first-hit order."""
    values, amps = _state_arrays(state)
    a, key2, h, _ = _term_entries(terms, values, state.params)
    _, first, group = np.unique(_key_rows(key2), return_index=True, return_inverse=True)
    sums = np.bincount(group, weights=h * amps[a], minlength=len(first))
    hit_order = np.argsort(first)
    return dict(zip(key_bytes(key2[first[hit_order]]), sums[hit_order].tolist()))


def expectation(terms, state: SparseState) -> float:
    out = apply_operator(terms, state)
    return math.fsum(state.amplitudes.get(k, 0.0) * v for k, v in out.items())


def term_residuals(terms, state: SparseState):
    """||T_j |psi>|| per term."""
    values, amps = _state_arrays(state)
    a, key2, h, bounds = _term_entries(terms, values, state.params)
    _, key = np.unique(_key_rows(key2), return_inverse=True)
    term = np.repeat(np.arange(len(terms)), np.diff(bounds)) * (len(key) + 1)
    cells, group = np.unique(term + key, return_inverse=True)  # (term, key2) pairs
    sums = np.bincount(group, weights=h * amps[a])
    squares = (sums * sums).tolist()
    ends = np.searchsorted(cells, np.arange(len(terms) + 1) * (len(key) + 1)).tolist()
    return [math.sqrt(math.fsum(squares[lo:hi])) for lo, hi in zip(ends[:-1], ends[1:])]


# ---------------------------------------------------------------------------
# restricted-sector spectrum


def sector_keys(params: ModelParams, max_states: int = 200_000):
    """Sorted canonical keys of the Gauss + boundary + per-vertex-color-valid sector.

    Enumerates all bridge height histories, dips below the horizon
    included (they are legal spin configurations), as one array frontier
    (`exact.expand_frontier`): at each slice an eligible valley stays or
    rises by 2, a peak stays or falls by 2 and a slope stays, as long as
    the site can still return to the horizon (`exact.within_reach`).
    Colored params then give every history each independent r/g
    assignment of its change vertices, mismatched ones included.

    `max_states` bounds the rows alive after each slice, checked before
    the slice is expanded, and the colored keys.  The last slice's rows
    are the histories, so a sector over the cap always raises
    CapacityError; so may a smaller one, since a row counts until it can
    no longer return (at L = 7 uncolored, 882 rows after slice 5 against
    868 keys).
    """
    params.require_odd_L()
    L = params.L
    overflow = f"sector exceeds {max_states} states"
    # over exact._LABELS; the reflecting floor (label 2) does not occur
    table = branch_table([[(0,), (2,)], [(0,), (-2,)], [(0,)], [(0,)]], [("delta", np.int8)])
    profiles = np.zeros((1, L + 1, L + 2), dtype=np.int8)
    profiles[0, 0] = horizon_profile(L)
    for t in range(1, L + 1):
        prof = profiles[:, t - 1]
        sites = slice_sites(L, t)
        labels = [_site_labels(prof, i, reflecting=False) for i in sites]
        keeps = [table["valid"][label]
                 & within_reach(prof[:, i, None] + table["delta"][label], i, t, L)
                 for i, label in zip(sites, labels)]
        rows, choices = expand_frontier(keeps, len(prof), max_states, overflow)
        profiles = profiles[rows]
        profiles[:, t] = profiles[:, t - 1]
        for i, label, branch in zip(sites, labels, choices):
            profiles[:, t, i] += table["delta"][label[rows], branch]
    H = profiles_to_heights(profiles, L)
    values = heights_to_spins(H, L)
    if params.colored:
        vi, vt = np.array(vertex_sites(L)).T
        change = H[:, vt + 1, vi] != H[:, vt - 1, vi]  # (histories, vertices)
        counts = 1 << change.sum(axis=1)
        total = int(counts.sum())
        if total > max_states:
            raise CapacityError(f"{overflow} (it holds {total})")
        rows = np.repeat(np.arange(len(H)), counts)
        assignment = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
        bit = (np.cumsum(change, axis=1) - change)[rows]  # rank among the history's changes
        colors = np.where(change[rows], 1 + ((assignment[:, None] >> bit) & 1), 0)
        values = np.hstack([values[rows], colors.astype(np.uint8)])
    return sorted(key_bytes(pack_values(values, L, params.colored)))


def _sector_entries(terms, keys, params: ModelParams):
    """H over the sector basis `keys` as distinct (row, col, value) triplets, row-major.

    Row and column n belong to keys[n], in any order; a key listed twice
    raises InvalidParameterError.  A value sums its entries in entry order.
    """
    values = unpack_keys(keys, params.L, params.colored)
    rows = _key_rows(pack_values(values, params.L, params.colored))
    by_key = np.argsort(rows, kind="stable")
    sorted_rows = rows[by_key]
    if (sorted_rows[1:] == sorted_rows[:-1]).any():
        raise InvalidParameterError("sector keys must be distinct")
    a, key2, h, _ = _term_entries(terms, values, params)
    targets = _key_rows(key2)
    pos = np.minimum(np.searchsorted(sorted_rows, targets), len(keys) - 1)
    if (sorted_rows[pos] != targets).any():  # searchsorted alone lands beside a missing key
        raise AssertionError("sector basis is not closed under a term")
    cells, group = np.unique(by_key[pos] * len(keys) + a, return_inverse=True)
    return *np.divmod(cells, len(keys)), np.bincount(group, weights=h)


def sector_matrix(terms, keys, params: ModelParams) -> np.ndarray:
    """Dense H over `keys` from `_sector_entries`; CapacityError over DENSE_STATES keys."""
    if len(keys) > DENSE_STATES:
        raise CapacityError(
            f"a dense matrix over {len(keys)} sector states needs "
            f"{8 * len(keys) ** 2 / 2 ** 30:.1f} GiB, over the "
            f"{DENSE_BYTES / 2 ** 30:g} GiB budget of {DENSE_STATES} states")
    row, col, value = _sector_entries(terms, keys, params)
    H = np.zeros((len(keys), len(keys)))
    H[row, col] = value
    return H


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


def _symmetries(keys, row, col, value, params: ModelParams):
    """The candidate symmetries that leave the sector and H invariant, as key permutations.

    `keys` are sorted, as `sector_keys` gives them, and (row, col, value)
    is H over them from `_sector_entries`.  A symmetry is kept when it maps
    every key onto a key and every entry onto an entry whose value agrees
    to within 1e-12 max|H|; T fails that at p = 0 and 1.
    """
    L, colored = params.L, params.colored
    values = unpack_keys(keys, L, colored)
    rows = _key_rows(pack_values(values, L, colored))
    n = len(keys)
    tol = 1e-12 * np.abs(value).max(initial=0.0)
    kept = {}
    for name, (perm, table) in _site_symmetries(L, colored).items():
        image = _key_rows(pack_values(table[np.arange(len(perm)), values[:, perm]], L, colored))
        to = np.minimum(np.searchsorted(rows, image), n - 1)
        if (rows[to] != image).any():
            continue
        cells = to[row] * n + to[col]
        order = np.argsort(cells)
        if (np.array_equal(cells[order], row * n + col)
                and (np.abs(value[order] - value) <= tol).all()):
            kept[name] = to
    return kept


def _symmetry_sectors(perms, row, col, value, n):
    """H in the symmetry sectors of commuting involutions `perms` of its n keys.

    The involutions generate a group of 2^m elements, element g applying
    perms[j] for each bit j set.  Character s is (-1)^popcount(s & g) on
    g.  A key's orbit is a basis state of every character that is 1 on
    the orbit's stabilizer, with coefficient chi(g) / sqrt(|orbit|) on
    the member g takes the orbit's least key to.  Returns each
    character's dimension and the distinct row-major (row, col, value)
    triplets of H over the sectors' direct sum, characters in order and
    orbits by least key; one `bincount` pass sums them all.
    """
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
    on = kept[:, row] & kept[:, col]
    weight = chi[:, g_of[row]] * chi[:, g_of[col]] * (value / np.sqrt(orbit[row] * orbit[col]))
    size = int(basis.sum())
    cells, group = np.unique(index[:, least[row]][on] * size + index[:, least[col]][on],
                             return_inverse=True)
    return basis.sum(axis=1), (*np.divmod(cells, size), np.bincount(group, weights=weight[on]))


def _sector_blocks(row, col, value, n):
    """H's connected blocks as (keys (B, s), matrices (B, s, s)), one pair per size s.

    Every edge hooks the larger of its keys' roots onto the smaller, and
    pointer jumping flattens the forest, until each key's root is the
    first key of its block.  A block lists its keys ascending.
    """
    root = np.arange(n)
    while (root[row] != root[col]).any():
        np.minimum.at(root, np.maximum(root[row], root[col]), np.minimum(root[row], root[col]))
        while (root[root] != root).any():
            root = root[root]
    size = np.bincount(root, minlength=n)  # a block's size, at its first key
    start = np.cumsum(size) - size
    members = np.argsort(root, kind="stable")
    for s in np.flatnonzero(np.bincount(size)[1:]) + 1:
        blocks = members[start[size == s, None] + np.arange(s)]
        cell = np.full(n, -1)
        cell[blocks.ravel()] = np.arange(blocks.size)  # block rank * s + position in it
        mine = cell[row] >= 0
        stack = np.zeros((len(blocks), s, s))
        stack[cell[row[mine]] // s, cell[row[mine]] % s, cell[col[mine]] % s] = value[mine]
        yield blocks, stack


def sector_spectrum(terms, params: ModelParams, k: int):
    """Lowest-k eigenvalues of H in the constrained sector, ascending.

    H is first reduced to the sectors of its symmetries (`_symmetries`,
    `_symmetry_sectors`), then LAPACK diagonalizes each connected block
    of every sector in full, equal sizes in one stacked `eigvalsh`.  At
    L = 7 uncolored, 0 < p < 1, R and T give sectors of 270, 206, 206
    and 186 states whose largest blocks hold 219, 163, 163 and 145.
    That keeps every multiplicity and the same floats on every call,
    which ARPACK restarted from a random vector does not.  DENSE_STATES
    caps the whole sector, so a larger one raises CapacityError while
    counted.
    """
    if not _is_int(k) or k < 1:
        raise InvalidParameterError(f"k must be an integer >= 1, got {k!r}")
    keys = sector_keys(params, max_states=DENSE_STATES)
    entries = _sector_entries(terms, keys, params)
    perms = list(_symmetries(keys, *entries, params).values())
    sizes, reduced = _symmetry_sectors(perms, *entries, len(keys))
    blocks = _sector_blocks(*reduced, int(sizes.sum()))
    levels = np.concatenate([np.linalg.eigvalsh(stack).ravel() for _, stack in blocks])
    return list(map(float, np.sort(levels)[:k]))


# ---------------------------------------------------------------------------
# export


def export_terms_text(terms) -> str:
    """Documented text dump: kind, weight, support, states, matrix rows, norms."""
    lines = []
    for n, term in enumerate(terms):
        lines.append(f"term {n} kind={term.kind} weight={term.weight!r} meta={term.meta}")
        lines.append("  support " + " ".join("/".join(map(str, s)) for s in term.support))
        for state, row in zip(term.states, term.matrix):
            entries = " ".join(repr(float(x)) for x in row)
            lines.append("  state " + "".join(map(str, state)) + " row " + entries)
    return "\n".join(lines) + "\n"

"""Bipartite entanglement entropy, three ways.

* `entropy_exact`: Schmidt weights of an explicitly built sparse state.
  `schmidt_spectrum` decodes all keys in one `codec.decode_keys` call,
  groups them by their bottom part, and reads each sector label off one
  key per distinct bottom, its colors by `codec.pending_colors`
  (`push_pop` on `empty_stacks`).  The sectors' matrices are stacked by
  shape (`exact._Stacks`, the package's one dense-block path), with one
  Gram product and one `eigvalsh` per shape.
* `entropy_formula`: closed form S = <N_c> + S_uncolored in bits from a
  mid-cut surface distribution; each unmatched deposited pair below the
  cut contributes one bit, and pairs number A/2 for cut area A.
* `midcut_distribution`: forward-backward dynamic program over zigzag
  profiles, conditioned to bridge back to the horizon, scaling far past
  exact enumeration.  Its vectors run over all C_{(L+1)/2} profiles
  (Dyck paths of L + 1 steps, ranked by step code), and `TransferKernel`
  applies a slice as a product of single-site maps, rescaled every slice
  as in the scaled forward-backward algorithm; L = 25 (742,900 profiles)
  takes seconds.  The p-independent index (`_ProfileIndex`: heights,
  every site's map with its valleys and floors labelled by
  `exact.site_labels`, the horizon's rank) is built whole once per L and
  kept read-only.

Cut convention: cut_row = c bisects the lattice right after update slice
c; the bottom part holds spin rows 0..c and color vertices with t <= c,
the top part everything else.  The interface data visible to both sides
is the zigzag profile after slice c plus the colors of unmatched pairs
beneath it, which is exactly the Schmidt sector label.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codec import DecodedKeys, decode_keys, key_rows, pending_colors, site_order
from .errors import CapacityError, InvalidParameterError
from .exact import LABELS, SparseState, _fsum, _kept, _Stacks, site_labels
from .params import ModelParams, _is_int, _require_cap
from .surface import event_table, horizon_profile, slice_sites

MAX_PROFILES = 3_000_000  # admits L = 27; the DP needs about 0.3 kB per profile
SCHMIDT_TOL = 1e-14  # Schmidt weights below this are rounding noise and dropped


@dataclass
class SurfaceDistribution:
    """Conditioned distribution of the zigzag profile at a cut."""

    heights: np.ndarray       # (K, L + 2) int8 profiles of the support, in rank order
    probs: np.ndarray         # (K,) their probabilities
    mean_area: float
    mean_color_units: float
    params: ModelParams

    @property
    def table(self) -> dict:
        """{profile tuple: probability}, built from the arrays on each call."""
        return dict(zip(map(tuple, self.heights.tolist()), self.probs.tolist()))


@dataclass
class EntropyReport:
    S_total: float
    S_uncolored: float
    color_term: float


def mid_cut_row(L: int) -> int:
    return (L - 1) // 2


# ---------------------------------------------------------------------------
# forward-backward dynamic program


def profile_count(L: int) -> int:
    """Zigzag profiles of odd size L: the Catalan number C_{(L+1)/2}."""
    n = (L + 1) // 2
    return math.comb(2 * n, n) // (n + 1)


def _dyck_codes(L):
    """Sorted step codes of every zigzag profile: L + 1 steps that stay >= 0 and end at 0."""
    codes = np.zeros(1, dtype=np.int64)
    heights = np.zeros(1, dtype=np.int64)
    for j in range(L + 1):
        up = heights < L - j  # an up step leaves enough steps to come back down
        down = heights > 0
        codes = np.concatenate([codes[up] | (1 << j), codes[down]])
        heights = np.concatenate([heights[up] + 1, heights[down] - 1])
    return np.sort(codes)


class _ProfileIndex:
    """The p-independent part of the DP at one L, built whole and read-only.

    `heights` (profiles, L + 2) int8 holds profile k in row k, ranked by
    its sorted step code (`_dyck_codes`), column-major so that a site's
    column is contiguous.  `maps[i - 1]` holds site i's (valleys, the
    peaks they deposit into, floors) as indices: valleys and floors are
    the "valley" and "floor" codes of `exact.site_labels`, and each
    valley's partner is found by its deposited step code.  `horizon` is
    the horizon's rank.  The step codes are dropped once these exist; every
    kernel at this L shares the index.
    """

    def __init__(self, L):
        codes = _dyck_codes(L)
        self.heights = np.zeros((codes.size, L + 2), dtype=np.int8, order="F")
        for j in range(L + 1):
            self.heights[:, j + 1] = self.heights[:, j] + 2 * ((codes >> j) & 1) - 1
        self.heights.flags.writeable = False
        maps = []
        for i in range(1, L + 1):
            label = site_labels(self.heights, i)
            valleys = np.flatnonzero(label == LABELS.index("valley"))
            raised = np.searchsorted(codes, codes[valleys] ^ (3 << (i - 1)))  # steps i-1, i flip
            floor = np.flatnonzero(label == LABELS.index("floor"))
            for array in (valleys, raised, floor):
                array.flags.writeable = False
            maps.append((valleys, raised, floor))
        self.maps = tuple(maps)
        code = np.sum(1 << np.flatnonzero(np.diff(horizon_profile(L)) > 0))  # up step j sets bit j
        self.horizon = int(np.searchsorted(codes, code))
        if code not in codes[self.horizon:self.horizon + 1]:
            raise AssertionError("no profile has the horizon's step code")


class TransferKernel:
    """One DP slice as a product of single-site maps on vectors over all profiles.

    Entry k of a vector belongs to the profile `heights[k]`, ranked by its
    sorted step code.  Within slice t the sites of `surface.slice_sites`
    update independently given the frozen other sublattice, so the slice
    is applied one site at a time.  At site i every valley is paired with the
    peak two units higher that a deposit makes of it, `code ^ (3 << (i-1))`;
    the pair mixes under the 2x2 matrix of stay, deposit and evaporation
    probabilities from `surface.event_table` (uncolored: colors cancel from
    profile marginals).  A peak at h = 1 has no partner: it keeps its
    no-change probability, which is 1 on the reflecting floor and the
    absorbing survival factor otherwise, since its evaporation below 0 is
    post-selected away.  Sites 1 and L take part like any other site: they
    are never valleys, which leaves exactly their pinned-wall factor.

    Only the probabilities depend on p.  The profiles, every site map and
    the horizon's rank come from the kept `_ProfileIndex` (`exact._kept`),
    built whole when the kernel is: a slice only reads them.
    """

    def __init__(self, params: ModelParams):
        self.params = params
        self._index = _kept(("profiles", params.L), lambda: _ProfileIndex(params.L))
        self.heights, self.horizon = self._index.heights, self._index.horizon
        p = params.p
        (_, _, _, deposit), (_, _, _, valley_stay) = event_table("valley", False, p, False)
        (_, _, _, evaporate), (_, _, _, peak_stay) = event_table("peak", False, p, False)
        self._forward = (valley_stay, evaporate, deposit, peak_stay)
        self._backward = (valley_stay, deposit, evaporate, peak_stay)
        self._floor_stay = event_table("peak", params.boundary_mode == "reflecting", p, False)[-1][3]

    def _apply(self, v, t, a, b, c, d):
        """v <- per-site [[a, b], [c, d]] on (valley, raised) pairs, for the sites of slice t."""
        v = np.array(v, dtype=float)
        for i in slice_sites(self.params.L, t):
            valleys, raised, floor = self._index.maps[i - 1]
            low, high = v[valleys], v[raised]
            v[valleys] = a * low + b * high
            v[raised] = c * low + d * high
            if self._floor_stay != 1.0:
                v[floor] *= self._floor_stay
        return v

    def forward(self, f, t):
        """Weights after slice t from weights before it (unnormalized)."""
        return self._apply(f, t, *self._forward)

    def backward(self, b, t):
        """The transpose of `forward`: bridge weights before slice t from those after it."""
        return self._apply(b, t, *self._backward)


def midcut_distribution(params: ModelParams, cut_row: int,
                        max_profiles: int = MAX_PROFILES) -> SurfaceDistribution:
    """p(profile at the cut) from forward weights times backward bridge weights.

    Color choices cancel from profile marginals, so one DP serves colored
    and uncolored states alike; only the entropy formula differs.  Both
    passes are rescaled to unit sum after every slice, so their overall
    scale cannot underflow however long the DP runs.  At p = 1/2 the
    kernel's forward and backward tuples are equal, and one forward pass
    serves both, bit for bit.  Other p keep two passes: the one-pass law
    f_c f_{L-c} / pi moves last bits there.  More profiles than
    `max_profiles` or the hard ceiling `MAX_PROFILES`, whichever is lower,
    raise CapacityError before anything is allocated.
    """
    params.require_odd_L()
    L = params.L
    if not _is_int(cut_row) or not 1 <= cut_row <= L - 1:
        raise InvalidParameterError(f"cut_row must lie in 1..{L - 1}, got {cut_row!r}")
    _require_cap("max_profiles", max_profiles)
    count = profile_count(L)
    cap = min(max_profiles, MAX_PROFILES)
    if count > cap:
        raise CapacityError(f"L={L} has {count} zigzag profiles, over the cap of {cap}")
    kernel = TransferKernel(params)
    start = np.zeros(count)
    start[kernel.horizon] = 1.0

    # Equal coefficient tuples (p = 1/2) make the backward pass the forward one: L is
    # odd, so the backward pass's k-th slice, L + 1 - k, has the parity of slice k.
    # Its vector at the cut is then the forward vector after slice L - cut_row.
    one_pass = kernel._forward == kernel._backward
    needed = {cut_row, L - cut_row} if one_pass else {cut_row}
    after = {}  # the forward vectors after the needed slices
    forward = start  # weights of profiles after slice t
    for t in range(1, max(needed) + 1):
        forward = kernel.forward(forward, t)  # a new vector, so a kept one stays as it is
        forward /= forward.sum()
        if t in needed:
            after[t] = forward
    forward = after[cut_row]
    if one_pass:
        backward = after[L - cut_row]
    else:
        backward = start  # bridge weights given the profile after slice t
        for t in range(L, cut_row, -1):
            backward = kernel.backward(backward, t)
            backward /= backward.sum()

    raw = forward * backward
    total = _fsum(raw)
    if total <= 0:
        raise InvalidParameterError("no bridge passes through the requested cut")
    support = np.flatnonzero(raw > 0)
    probs = raw[support] / total
    heights = kernel.heights[support]
    area = heights[:, 1:L + 1].sum(axis=1, dtype=np.int64) - (L + 1) // 2  # above the horizon
    mean_area = _fsum(probs * area)
    return SurfaceDistribution(heights=heights, probs=probs, mean_area=mean_area,
                               mean_color_units=mean_area / 2, params=params)


def _shannon_bits(probs) -> float:
    """-sum(q log2 q), as 0.0 - sum so that a point mass gives 0.0, not -0.0."""
    probs = np.asarray(probs, dtype=float)
    return 0.0 - float((probs * np.log2(probs)).sum())


def entropy_formula(dist: SurfaceDistribution) -> EntropyReport:
    """S in bits from the cut distribution; color term <N_c> when colored."""
    S_unc = _shannon_bits(dist.probs)
    color = dist.mean_color_units if dist.params.colored else 0.0
    return EntropyReport(S_total=S_unc + color, S_uncolored=S_unc, color_term=color)


def entropy_dp(params: ModelParams, cut_row: int = None,
               max_profiles: int = MAX_PROFILES) -> EntropyReport:
    """entropy_formula of the DP's midcut_distribution."""
    if cut_row is None:
        cut_row = mid_cut_row(params.L)
    return entropy_formula(midcut_distribution(params, cut_row, max_profiles))


# ---------------------------------------------------------------------------
# exact Schmidt spectrum


def _bipartition(L, colored, cut, axis):
    """(bottom sites, top sites) as (kind, coordinate) lists in fixed order.

    `schmidt_spectrum` cuts along space; the independent oracle in
    tests/conftest.py, kept fixed, also cuts along time."""
    if axis not in ("space", "time"):
        raise InvalidParameterError(f"axis must be 'space' or 'time', got {axis!r}")
    coord = 2 if axis == "space" else 1
    sites = site_order(L, colored)
    bottom = [s for s in sites if s[coord] <= cut]
    top = [s for s in sites if s[coord] > cut]
    return bottom, top


def _site_value(config, site):
    """The value of one `site_order` entry in a LatticeConfig.  No src module calls
    it; the independent oracle in tests/conftest.py, kept fixed, reads configs with it."""
    kind, a, b = site
    return config.spins[(a, b)] if kind == "s" else config.colors[(a, b)]


def schmidt_spectrum(state: SparseState, cut_row: int):
    """Schmidt weights with sector labels, weights descending.

    The space cut after slice `cut_row` splits the state into sectors
    labelled (zigzag profile at the cut, unmatched pair colors below it).
    Every key is decoded and validated once, and each label is read from
    the decoded rows of one key per distinct bottom part.  A sector's
    matrix M has its bottom and top parts as rows and columns, each ranked
    within the sector in lexicographic order of their site values.  The
    matrices are stacked by shape (`exact._Stacks`), and each stack takes
    one M M^T and one `eigvalsh`; every sector's eigenvalues of at least
    SCHMIDT_TOL join the list in label order, ascending, before the one
    stable sort by weight.
    """
    params = state.params
    L = params.L
    norm = state.norm()
    if abs(norm - 1.0) > 1e-8:
        raise InvalidParameterError(f"state is not normalized: |norm - 1| = {abs(norm - 1):.2e}")
    if not _is_int(cut_row) or not 1 <= cut_row <= L - 1:
        raise InvalidParameterError(f"cut_row must lie in 1..{L - 1}, got {cut_row!r}")
    bottom_sites, top_sites = _bipartition(L, params.colored, cut_row, "space")
    column = {s: n for n, s in enumerate(site_order(L, params.colored))}
    decoded = decode_keys(state.keys, params)  # every key validated
    amps, values = state.amps, decoded.values
    bottom_of = _row_ranks(values[:, [column[s] for s in bottom_sites]])
    one_key = np.empty(bottom_of.max() + 1, dtype=np.intp)
    one_key[bottom_of] = np.arange(len(state))  # a label depends on the bottom part only
    # the label keys' rows; the other keys' profiles are freed before the top ranks
    decoded = DecodedKeys(L, params.colored, values[one_key], decoded.profiles[one_key],
                          decoded.kinds[one_key])
    top_of = _row_ranks(values[:, [column[s] for s in top_sites]])
    labels = _sector_labels(decoded, cut_row)
    order = sorted(set(labels))
    rank = {label: r for r, label in enumerate(order)}
    sector_of = np.array([rank[label] for label in labels])[bottom_of]
    at = []  # per part: each key's rank among its sector's distinct parts, and their counts
    for part in (bottom_of, top_of):
        pairs, within = np.unique(sector_of * (part.max() + 1) + part, return_inverse=True)
        count = np.bincount(pairs // (part.max() + 1))
        at.append((within - (np.cumsum(count) - count)[sector_of], count))
    (row, rows), (col, cols) = at
    levels = {}  # each sector's eigenvalues, ascending
    for ids, M in _Stacks(sector_of, row, col, np.stack([rows, cols], 1))(amps):
        levels.update(zip(ids.tolist(), np.linalg.eigvalsh(M @ M.transpose(0, 2, 1)).tolist()))
    spectrum = [(order[s], lam) for s in sorted(levels) for lam in levels[s] if lam >= SCHMIDT_TOL]
    spectrum.sort(key=lambda item: -item[1])
    return spectrum


def _row_ranks(rows):
    """Rank of each uint8 row among the distinct rows, in lexicographic order."""
    return np.unique(key_rows(rows), return_inverse=True)[1].ravel()


def _sector_labels(decoded, cut_row):
    """(profile, unmatched colors per site) at the cut of each decoded key."""
    profiles = decoded.profiles[:, cut_row].tolist()
    if not decoded.colored:
        return [(tuple(prof), ()) for prof in profiles]
    return list(zip(map(tuple, profiles), pending_colors(decoded, cut_row)))


def entropy_exact(state: SparseState, cut_row: int) -> EntropyReport:
    """-sum(lam log2 lam) over the Schmidt spectrum of the space cut after slice cut_row."""
    spectrum = schmidt_spectrum(state, cut_row)
    S_total = _shannon_bits([lam for _, lam in spectrum])
    by_profile = {}
    for (prof, _), lam in spectrum:
        by_profile[prof] = by_profile.get(prof, 0.0) + lam
    S_unc = _shannon_bits(list(by_profile.values()))
    return EntropyReport(S_total=S_total, S_uncolored=S_unc, color_term=S_total - S_unc)


# ---------------------------------------------------------------------------
# exponent fitting


def fit_power_law(xs, ys):
    """Least-squares fit of log y on log x: (exponent, amplitude, r_squared).

    slope = sum(dx dy) / sum(dx^2) over the deviations of log x and log y from
    their means, intercept = mean(log y) - slope mean(log x)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size < 3 or xs.size != ys.size:
        raise InvalidParameterError("need at least 3 (x, y) pairs")
    if (xs <= 0).any() or (ys <= 0).any():
        raise InvalidParameterError("power-law fitting needs positive data")
    lx, ly = np.log(xs), np.log(ys)
    if (lx == lx[0]).all():
        raise InvalidParameterError("power-law fitting needs at least two distinct x values")
    # centred closed-form least squares: no LAPACK call, so no BLAS-dependent last digits
    mx, my = lx.mean(), ly.mean()
    dx, dy = lx - mx, ly - my
    slope = (dx * dy).sum() / (dx * dx).sum()
    intercept = my - slope * mx
    pred = slope * lx + intercept
    ss_res = float(((ly - pred) ** 2).sum())
    ss_tot = float((dy ** 2).sum())
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(slope), float(np.exp(intercept)), r2

"""Free (unconditioned) dynamics at scale: roughness and growth exponents.

Trajectories run in reflecting mode with alternating sublattice slices.
The ensemble is vectorized across trajectories per slice; every
trajectory consumes its own counter-based random stream keyed by
(master seed, trajectory index), so any re-partitioning of the same
seed set across workers reproduces identical observables.

Layout.  Heights live in two C-contiguous int16 parity planes of shape
(n_traj, R) per grid point, R = (L+3) // 2: row k of plane 0 holds the
sites 0, 2, ... of trajectory k, row k of plane 1 its sites 1, 3, ...
(padded with a 0 for odd L).  Flattened, site 2r sits at k R + r and
its neighbours at k R + r - 1 and k R + r of the other plane, and so on
for odd sites, so a slice updates one contiguous run of a plane against
two of the other.
The run also covers the walls, the frozen sites 1 and L and the seams
between trajectories, whose action is 0 (below).  int16 holds every
reachable height, since 0 <= h_i <= h_max = (L+2) // 2; `ensemble`
rejects larger L.

Action table.  One uniform u per eligible site per slice decides the
event: a valley deposits when u < d, its deposit probability, a peak at
h >= 2 evaporates when u >= s, its no-change probability, and everything
else stays (`branch_probability`; d = p/2 <= s = (1+p)/2).  As
`Generator.random` sets u = (raw >> 11) 2^-53 from a raw Philox word,
u < d exactly when raw < D = ceil(d 2^53) 2^11, and u >= s exactly when
raw > E = ceil(s 2^53) 2^11 - 1, which at p = 1 is 2^64 - 1, above every
word.  D <= 2^63 <= E + 1 for every p, so a word deposits at some points
or evaporates at some, never both.  The raw words of the same stream, in
the same order, so become one code per word for all P grid points: the
number of points it deposits at less the number it evaporates at, in
one (64, n, R) table per block of 64 slices in the planes' layout (int8
up to P = 127, int16 above).  Point k deposits where the code is at
least #{j : D_j >= D_k} and evaporates where it is at most
-#{j : E_j <= E_k}, for any order of the grid, repeated values, p = 0
and p = 1 (`_code_rule`).  Each slice decodes its row into one reused
(P, n R) int8 action row: 2 (a valley here deposits), -2 (a peak here
evaporates) or 0.  At L = 512 and n = 100 trajectories a range's table
is 64 x 100 x 257 bytes, 1.6 MB for any P, so it fits one core's 2 MB
L2.  Every trajectory draws the same words in the same order for any
block size, so no output depends on it.  A site moves by its curvature
hl + hr - 2h (2 at a valley, -2 at a peak, 0 on a slope) when that
equals its action.  A peak at h = 1 then lands on -1, and taking the
absolute value puts it back: that is the reflecting floor.  The color
split is irrelevant to heights.

Observables.  After each slice, the updated plane's sums of h and h^2
are taken per trajectory (for W) and per central site over the range
(for W_fluct and the mid height); the other plane's are the slice
before's.  W = sqrt((L S2 - S1^2) / L^2) and the across-trajectory
variance (n C2 - C1^2) / (n (n-1)) so come from exact integer moments.
These sums are at most max(R, n) h_max^2, so they are exact in int32
below 2^31 (L = 512, n = 100: 1.7e7) and otherwise in int64, where
`_check_capacity` bounds n h_max^2.

Trajectory ranges.  `ensemble` splits the trajectories into contiguous
ranges, one per CPU in the process's affinity mask.  The calling process
runs range 0; fork-started workers run the others and stream each slice
block's per-trajectory W and integer partial moments, in the range's
moment dtype, through a queue.  The caller puts the W columns back in
trajectory order and adds the integer partials exactly in int64, so the
float reductions see the same (block, n_traj) operands, and every output
is byte-identical, for any number of ranges.

Grid points.  A trajectory's stream is keyed by (seed, k), not by p, so
`ensemble(params, n, t, ps=[...])` serves every p of one L from one
slice loop: the planes and the action row stack the P points as P n
point-major rows, so a p grid is just more trajectories, separated by
the same zero-action seams.  Per block each trajectory's raw words are
drawn once and compared with every p's bounds at once.  A range streams
each block with a leading p axis and the caller reduces every p as
above in one pass over the last axis, so every p's series is
byte-identical to its own single-point run.  A range's planes, action
row and moments grow with P (about 1.2 MB of traced peak per point at
L = 512 and 100 trajectories, the yielded blocks included); its code
table does not.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .params import ModelParams, _is_int
from .surface import branch_probability, horizon_profile

_BLOCK_SLICES = 64  # RNG is drawn in slice blocks of this even size per trajectory
_CHECK_EVERY = 4096  # slices between spot checks of the heights (the last slice is checked too)
_SATURATION_WINDOW = 10.0  # saturation_time fits log W against log t over [t / this, t]
_SATURATION_TOLERANCE = 0.05  # W saturates at the first t where that slope is below this
_MAX_HEIGHT = int(np.iinfo(np.int16).max)
_MAX_MOMENT_ROOT = math.isqrt(int(np.iinfo(np.int64).max))


@dataclass
class ObservableSeries:
    """Trajectory-mean observables.

    W is the trajectory mean of the spatial roughness (spatial standard
    deviation of the profile).  W_fluct is the fluctuation roughness,
    sqrt of the across-trajectory height variance averaged over the
    central third of the sites; the two agree while the mean profile is
    flat, but once the pinned walls bend the mean profile (growing
    phase, p > 1/2) the spatial deviation is dominated by the
    deterministic ramp shape and only W_fluct, measured away from the
    ramps, tracks the universal growth exponent.
    """

    times: np.ndarray
    W: np.ndarray
    W_stderr: np.ndarray
    mid_height: np.ndarray
    mid_stderr: np.ndarray
    W_fluct: np.ndarray
    n_samples: int
    params: ModelParams
    ranges: int = 1  # trajectory ranges the ensemble ran in; no output depends on it


def _spot_check(H, L):
    """Slope, parity and non-negativity of site-major heights (L+2, n_traj)."""
    if (np.abs(np.diff(H, axis=0)) != 1).any():
        raise AssertionError("slope constraint broken during free dynamics")
    # in H's dtype: arange wraps past int16 at large L, which keeps every parity
    if ((H - np.arange(L + 2, dtype=H.dtype)[:, None]) % 2 != 0).any():
        raise AssertionError("height parity broken during free dynamics")
    if (H < 0).any():
        raise AssertionError("negative height in reflecting dynamics")


def _cpu_count():
    """CPUs this process may run on: the number of trajectory ranges."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _trajectory_generators(params: ModelParams, lo, hi):
    """The Philox bit generator of each trajectory k, keyed by (seed, k)."""
    return [np.random.Philox(key=(params.seed << 64) + k) for k in range(lo, hi)]


def _check_capacity(L, n_traj):
    """Reject sizes whose heights overflow int16 or whose moments overflow int64."""
    h_max = (L + 2) // 2  # walls at 0 and (L+1) % 2, slopes of +-1
    if h_max > _MAX_HEIGHT:
        raise InvalidParameterError(
            f"L={L} reaches height {h_max}, beyond int16 heights (L <= 65533)")
    if n_traj * h_max > _MAX_MOMENT_ROOT:
        raise InvalidParameterError(
            f"{n_traj} trajectories at L={L} overflow the int64 height moments")


def _raw_bounds(p):
    """(deposit, evaporate): a valley deposits when its raw word is below
    deposit, a peak evaporates when its raw word is above evaporate."""
    deposit = branch_probability("valley", +2, p)
    stay = branch_probability("peak", 0, p)
    return (np.uint64(math.ceil(deposit * 2.0 ** 53) << 11),
            np.uint64((math.ceil(stay * 2.0 ** 53) << 11) - 1))


def _code_rule(ps):
    """(deposit, evaporate, deposit_at, evaporate_at) of the points `ps`.

    A raw word's code is the number of points whose deposit bound it is
    below less the number whose evaporate bound it is above ("Action
    table" in the module docstring).  Point k deposits where the code is
    at least deposit_at[k], the number of points whose deposit bound is at
    least its own, and evaporates where the code is at most
    evaporate_at[k], minus the number whose evaporate bound is at most its
    own.  The thresholds' dtype, int8 up to 127 points, holds every code.
    """
    deposit, evaporate = np.array([_raw_bounds(p) for p in ps], dtype=np.uint64).T
    dtype = np.min_scalar_type(-len(ps) - 1)  # -P..P
    deposit_at = (deposit >= deposit[:, None]).sum(axis=1, dtype=dtype)
    evaporate_at = -(evaporate <= evaporate[:, None]).sum(axis=1, dtype=dtype)
    return deposit, evaporate, deposit_at, evaporate_at


def _site_major(planes, L):
    """The (L+2, rows) heights of the (2, ..., R) parity planes, site by site."""
    even, odd = planes.reshape(2, -1, planes.shape[-1])
    H = np.empty((L + 2, len(even)), dtype=np.int16)
    H[0::2], H[1::2] = even.T, odd[:, :(L + 2) // 2].T
    return H


def _range_blocks(params: ModelParams, ps, lo, hi, t_max):
    """Run trajectories lo..hi-1 at every p of `ps` and yield one slice
    block at a time as (w, site1, site2).

    The P points are P n point-major rows of the (2, P, n, R) planes.  One
    (_BLOCK_SLICES, n, R) code table serves them all, and each slice
    decodes its row into a (P, n R) action row ("Action table" and "Grid
    points" in the module docstring).  A block of b slices is the (P, b, n)
    spatial roughness of every trajectory and the (P, b, n_center) integer
    sums of h and h^2 per central site over the range, in the dtype of the
    range's moments.  Every yielded array belongs to its block alone, so a
    queue may pickle it after the next block has started.
    """
    L, P, n = params.L, len(ps), hi - lo
    R = (L + 3) // 2  # columns of a plane: the even sites 0, 2, ..., L + 1 - L % 2
    draws = len(range(2, L, 2))  # uniforms per trajectory and slice
    deposit, evaporate, deposit_at, evaporate_at = _code_rule(ps)
    codes = np.zeros((_BLOCK_SLICES, n, R), dtype=deposit_at.dtype)
    deposit, evaporate = deposit[:, None, None], evaporate[:, None, None]
    deposit_at, evaporate_at = deposit_at[:, None], evaporate_at[:, None]
    h0 = horizon_profile(L)
    planes = np.zeros((2, P, n, R), dtype=np.int16)
    planes[0], planes[1, ..., :(L + 2) // 2] = h0[0::2], h0[1::2]
    hsq = np.empty((P, n, R), dtype=np.int32 if max(R, n) * ((L + 2) // 2) ** 2 < 2 ** 31
                   else np.int64)
    curv = np.empty(P * n * R - 1, dtype=np.int16)
    moves = np.empty(P * n * R - 1, dtype=bool)
    actions = np.empty((P, n * R), dtype=np.int8)  # the slice's row, decoded for every point
    decided = np.empty((2, P, n * R), dtype=bool)  # where each point deposits, evaporates
    deposits, evaporates = decided.view(np.int8)
    even, odd, flat = *planes.reshape(2, -1), actions.reshape(-1)
    # (h, hl, hr, action) of the even sites, updated by even slices j of a
    # block (blocks start at even t), and of the odd sites
    views = ((even[1:], odd[:-1], odd[1:], flat[1:]),
             (odd[:-1], even[:-1], even[1:], flat[:-1]))

    c0, c1 = L // 3 + 1, 2 * L // 3 + 1  # the central sites
    # per plane: the columns of its central sites, and their places among them
    center_parts = [(slice((c0 + 1 - par) // 2, (c1 + 1 - par) // 2),
                     slice((c0 - par) % 2, c1 - c0, 2)) for par in (0, 1)]
    # row j + 1 holds the moments after slice j: per trajectory the sums of
    # h and h^2 over the plane that slice updated, and per point and central
    # site the sums over the range; row 0 carries the previous block's last row
    sums = np.empty((_BLOCK_SLICES + 1, 2, P, n), dtype=hsq.dtype)
    site = [np.empty((_BLOCK_SLICES + 1, 2, P, len(range(c1 - c0)[pos])), dtype=hsq.dtype)
            for _, pos in center_parts]

    def measure(par, row):  # the sums of h, then of h^2 squared in place
        np.copyto(hsq, planes[par])
        hsq.sum(axis=2, out=sums[row, 0])
        hsq[..., center_parts[par][0]].sum(axis=1, out=site[par][row, 0])
        np.multiply(hsq, hsq, out=hsq)
        hsq.sum(axis=2, out=sums[row, 1])
        hsq[..., center_parts[par][0]].sum(axis=1, out=site[par][row, 1])

    gens = _trajectory_generators(params, lo, hi)
    measure(0, 0)
    measure(1, 0)  # row 0 ends with the odd plane: slice 0 updates the even one
    for t in range(0, t_max, _BLOCK_SLICES):
        block = min(_BLOCK_SLICES, t_max - t)
        for k, g in enumerate(gens):
            raw = g.random_raw(block * draws).reshape(block, draws)
            # every point's bounds meet the words in (P, block, draws) compares
            # that run over contiguous words
            np.subtract(raw < deposit, raw > evaporate, dtype=codes.dtype).sum(
                axis=0, dtype=codes.dtype, out=codes[:block, k, 1:1 + draws])
        if L % 2:  # an odd slice has one site fewer: its last uniform is unused
            codes[1:block:2, :, draws] = 0
        for j in range(block):
            h, hl, hr, action = views[j % 2]
            row = codes[j].reshape(-1)
            np.greater_equal(row, deposit_at, out=decided[0])
            np.less_equal(row, evaporate_at, out=decided[1])
            np.subtract(deposits, evaporates, out=actions)
            np.add(actions, actions, out=actions)
            np.add(hl, hr, out=curv)
            np.subtract(curv, h, out=curv)
            np.subtract(curv, h, out=curv)  # curvature; a partial sum may wrap
            np.equal(curv, action, out=moves)
            np.multiply(curv, moves, out=curv)
            np.add(h, curv, out=h)
            np.abs(h, out=h)  # a peak at h = 1 falls to -1: reflect
            measure(j % 2, j + 1)
            if (t + j + 1) % _CHECK_EVERY == 0:
                _spot_check(_site_major(planes, L), L)
        if t + block == t_max:
            _spot_check(_site_major(planes, L), L)
        rows = block + 1
        b = sums[1:rows].transpose(1, 2, 0, 3).astype(np.int64, order="C")
        b += sums[:rows - 1].transpose(1, 2, 0, 3)  # the other plane, as the slice before left it
        b -= h0[-1]  # site L + 1, 0 or 1 like its square; site 0 is 0
        b1, b2 = b
        w = np.sqrt((L * b2 - b1 * b1) / (L * L))
        moments = np.empty((2, P, block, c1 - c0), dtype=hsq.dtype)
        for par, (_, pos) in enumerate(center_parts):
            # a slice of the other parity leaves this parity's row as it was
            site[par][2 - par:rows:2] = site[par][1 - par:rows - 1:2]
            moments[..., pos] = site[par][1:rows].transpose(1, 2, 0, 3)
            site[par][0] = site[par][block]
        sums[0] = sums[block]
        yield (w, *moments)


def _stream_range(q, params, ps, lo, hi, t_max):
    """Worker body: put every block of trajectories lo..hi-1 on the queue,
    or the exception that stopped them."""
    try:
        for block in _range_blocks(params, ps, lo, hi, t_max):
            q.put(block)
    except Exception as exc:  # the parent raises it
        q.put(exc)


def _received_blocks(q, proc):
    """The blocks a worker puts on its queue; raises what the worker raised,
    or RuntimeError if it exits before its last block."""
    from multiprocessing.connection import wait

    while True:
        wait([q._reader, proc.sentinel])  # an item, or the worker's exit
        if not q._reader.poll():  # an exited worker has flushed all it put
            proc.join()
            raise RuntimeError(f"trajectory worker exited with code {proc.exitcode} "
                               "before its last slice block")
        item = q.get()
        if isinstance(item, Exception):
            raise item
        yield item


@contextmanager
def _trajectory_ranges(params: ModelParams, ps, n_traj, t_max):
    """Block streams of contiguous trajectory ranges in trajectory order,
    each over every p of `ps`.

    There is one range per CPU in the affinity mask, at most `n_traj`.
    The caller runs range 0 itself; each other range runs in a
    fork-started worker that streams its blocks through a queue.  The
    workers are joined on exit, and terminated first if the caller
    raises.  One range, or no `fork` start method, runs inline.
    """
    ranges = min(_cpu_count(), n_traj)
    if ranges > 1:
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            ranges = 1
    bounds = [n_traj * r // ranges for r in range(ranges + 1)]
    streams = [_range_blocks(params, ps, 0, bounds[1], t_max)]
    procs = []
    try:
        if ranges > 1:
            ctx = multiprocessing.get_context("fork")
            for lo, hi in zip(bounds[1:-1], bounds[2:]):
                q = ctx.Queue()
                proc = ctx.Process(target=_stream_range, daemon=True,
                                   args=(q, params, ps, lo, hi, t_max))
                proc.start()
                procs.append(proc)
                streams.append(_received_blocks(q, proc))
        yield streams
    except BaseException:
        for proc in procs:
            proc.terminate()
        raise
    finally:
        for proc in procs:
            proc.join()


def ensemble(params: ModelParams, n_traj: int, t_max: int, *, ps=None):
    """Trajectory-mean W(t) and midpoint height with standard errors.

    With `ps`, a non-empty list of p values, it returns a list of one
    series per p, each that of `params.with_(p=p)`, from shared draws
    ("Grid points" in the module docstring); `params.p` is then not read.
    """
    if not all(_is_int(v) and v >= 1 for v in (n_traj, t_max)):
        raise InvalidParameterError("n_traj and t_max must be integers >= 1, "
                                    f"got {n_traj!r} and {t_max!r}")
    if params.boundary_mode != "reflecting":
        raise InvalidParameterError("free dynamics runs in reflecting mode")
    points = [params] if ps is None else [params.with_(p=p) for p in ps]
    if not points:
        raise InvalidParameterError("ps must hold at least one p value")
    _check_capacity(params.L, n_traj)
    n = n_traj
    mid = (params.L + 1) // 2 - (params.L // 3 + 1)  # the mid site among the central sites
    # per point (rows) and slice (columns)
    W_sum, W_sq, mid_sum, mid_sq, W_fluct = np.zeros((5, len(points), t_max))
    with _trajectory_ranges(params, [q.p for q in points], n, t_max) as streams:
        for t in range(0, t_max, _BLOCK_SLICES):
            ws, site1, site2 = zip(*(next(stream) for stream in streams))
            # trajectories in order, integer partials added exactly: every float
            # reduction over the last axis sees the same (block, n) rows for any split
            w = np.concatenate(ws, axis=2)
            # widened first: each range's sums fit its dtype, their total need not
            site1, site2 = (np.sum(part, axis=0, dtype=np.int64) for part in (site1, site2))
            rows = slice(t, t + w.shape[1])
            W_sum[:, rows], W_sq[:, rows] = w.sum(axis=2), (w * w).sum(axis=2)
            mid_sum[:, rows], mid_sq[:, rows] = site1[..., mid], site2[..., mid]
            if n > 1:
                var = (n * site2 - site1 ** 2) / (n * (n - 1))
                W_fluct[:, rows] = np.sqrt(var.mean(axis=2))
        ranges = len(streams)

    def stderr(sq, mean):
        if n < 2:
            return np.zeros_like(mean)
        var = np.maximum(sq / n - mean ** 2, 0.0) * n / (n - 1)
        return np.sqrt(var / n)

    W, mid = W_sum / n, mid_sum / n
    W_err, mid_err = stderr(W_sq, W), stderr(mid_sq, mid)
    series = [ObservableSeries(times=np.arange(1, t_max + 1), W=W[k], W_stderr=W_err[k],
                               mid_height=mid[k], mid_stderr=mid_err[k], W_fluct=W_fluct[k],
                               n_samples=n, params=point, ranges=ranges)
              for k, point in enumerate(points)]
    return series[0] if ps is None else series


def saturation_time(series: ObservableSeries):
    """First t where the log-log slope of W over [t / _SATURATION_WINDOW, t]
    drops below _SATURATION_TOLERANCE; None when the series never saturates."""
    times, window, tolerance = series.times, _SATURATION_WINDOW, _SATURATION_TOLERANCE
    if times[-1] < window * times[0]:
        raise InvalidParameterError("window is wider than the whole series")
    logt = np.log(times.astype(float))
    logw = np.log(np.maximum(series.W, 1e-300))
    ks = np.arange(len(times))
    los = np.searchsorted(times, times / window)
    fits = (times >= window * times[0]) & (times >= 20) & (ks - los >= 4)
    # closed-form least-squares slope of every window [lo, k] from prefix sums
    prefix = np.zeros((4, len(times) + 1))
    np.cumsum([logt, logw, logt * logt, logt * logw], axis=1, out=prefix[:, 1:])
    sx, sy, sxx, sxy = prefix[:, ks + 1] - prefix[:, los]
    m = ks - los + 1
    with np.errstate(divide="ignore", invalid="ignore"):
        slopes = (m * sxy - sx * sy) / (m * sxx - sx * sx)
    hits = np.flatnonzero(fits & (slopes < tolerance))
    return int(times[hits[0]]) if hits.size else None


DEFAULT_FIT_LO, DEFAULT_FIT_HI_MIN = 100, 400  # the default window [100, max(T_sat / 4, 400)]
MIN_FIT_POINTS = 10


def fit_mask(times, window) -> np.ndarray:
    """The slices of `times` inside the window; InvalidParameterError below MIN_FIT_POINTS."""
    lo, hi = window
    mask = (times >= lo) & (times <= hi)
    if mask.sum() < MIN_FIT_POINTS:
        raise InvalidParameterError(f"fit window {window} holds fewer than {MIN_FIT_POINTS} points")
    return mask


def exponent_report(series: ObservableSeries, fit_window=None) -> dict:
    """Power-law exponents of W, the midpoint height and W_fluct before saturation.

    The default window is [100, T_sat / 4] (T_sat from saturation_time,
    else the end of the series), the standard growth-regime choice.  A fit
    whose data in the window are not all positive is nan: the midpoint
    pinned at height 0 (p = 0, even L), or W_fluct of one trajectory.
    """
    from .entropy import fit_power_law

    times = series.times
    t_sat = None
    if fit_window is None:
        try:
            t_sat = saturation_time(series)
        except InvalidParameterError:
            t_sat = None
        hi = t_sat / 4 if t_sat else times[-1]
        fit_window = (DEFAULT_FIT_LO, max(hi, DEFAULT_FIT_HI_MIN))
    mask = fit_mask(times, fit_window)
    lo, hi = fit_window[0], min(fit_window[1], times[-1])
    report = {"fit_window": (int(lo), int(hi)), "saturation_time": t_sat}
    for name, ys in (("W", series.W), ("mid", series.mid_height), ("W_fluct", series.W_fluct)):
        ys = ys[mask]
        fit = fit_power_law(times[mask], ys) if (ys > 0).all() else (float("nan"),) * 3
        report[name] = dict(zip(("exponent", "amplitude", "r_squared"), fit))
    return report

"""Free (unconditioned) dynamics at scale: roughness and growth exponents.

Trajectories run in reflecting mode with alternating sublattice slices.
The ensemble is vectorized across trajectories per slice; every
trajectory consumes its own counter-based random stream keyed by
(master seed, trajectory index), so any re-partitioning of the same
seed set across workers reproduces identical observables.

Layout.  Heights live in one site-major int16 array of shape
(L+2, n_traj): row i holds site i of every trajectory.  A slice of
parity s updates the rows H[s:L:2] against their neighbour rows
H[s-1:L-1:2] and H[s+1:L+1:2], all basic stride-2 views, so the update
needs no index arrays and makes no copies.  int16 holds every reachable
height, since 0 <= h_i <= (L+2) // 2; `ensemble` rejects larger L.

Action table.  One uniform draw per eligible site per slice decides the
event: a valley deposits when u is below its deposit probability, a
peak at h >= 2 evaporates when u is at least its no-change probability,
and everything else stays.  Both thresholds come from the event table
(`branch_probability`); since p/2 <= (1+p)/2 they never overlap, so
each trajectory's block of uniforms becomes one int8 action table with
+1 (a valley here deposits), -1 (a peak here evaporates) or 0.  The
half curvature (hl + hr)/2 - h is +1 at a valley, -1 at a peak and 0 on
a slope; a site moves by twice its half curvature when that equals its
action.  A peak at h = 1 then lands on -1, and taking the absolute value
puts it back: that is the reflecting floor.  The color split is
irrelevant to heights.

Observables.  The sums of h and h^2 are kept as integers: per
trajectory and per sublattice (for W), and per central site over the
trajectories (for W_fluct).  A slice refreshes only the sublattice it
updates, so W = sqrt((L S2 - S1^2) / L^2) and the across-trajectory
variance (n C2 - C1^2) / (n (n-1)) come from exact integer moments
without a pass over the whole lattice.

Trajectory ranges.  `ensemble` splits the trajectories into contiguous
ranges, one per CPU in the process's affinity mask.  The calling process
runs range 0; fork-started workers run the others and stream each slice
block's per-trajectory W and integer partial moments through a queue.
The caller puts the W columns back in trajectory order and adds the
integer partials exactly, so the float reductions see the same (block,
n_traj) operands, and every output is byte-identical, for any number of
ranges.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .params import ModelParams
from .surface import branch_probability, horizon_profile

_BLOCK_SLICES = 128  # RNG is drawn in slice blocks of this size per trajectory
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
    if ((H - np.arange(L + 2)[:, None]) % 2 != 0).any():
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
    return [np.random.Generator(np.random.Philox(key=(params.seed << 64) + k))
            for k in range(lo, hi)]


def _check_capacity(L, n_traj):
    """Reject sizes whose heights overflow int16 or whose moments overflow int64."""
    h_max = (L + 2) // 2  # walls at 0 and (L+1) % 2, slopes of +-1
    if h_max > _MAX_HEIGHT:
        raise InvalidParameterError(
            f"L={L} reaches height {h_max}, beyond int16 heights (L <= 65533)")
    if n_traj * h_max > _MAX_MOMENT_ROOT:
        raise InvalidParameterError(
            f"{n_traj} trajectories at L={L} overflow the int64 height moments")


class _Sublattice:
    """The sites s, s+2, ... < L of one parity, as views of the heights.

    `center_rows` picks the rows of `h` inside the central sites
    `center`, and `center_cols` their positions within `center`.
    """

    def __init__(self, H, s, L, center):
        self.h, self.hl, self.hr = H[s:L:2], H[s - 1:L - 1:2], H[s + 1:L + 1:2]
        first = center.start + (center.start - s) % 2
        self.center_rows = slice((first - s) // 2, (center.stop - s + 1) // 2)
        self.center_cols = slice(first - center.start, center.stop - center.start, 2)


def _range_blocks(params: ModelParams, lo, hi, t_max, check_every):
    """Run trajectories lo..hi-1 and yield one slice block at a time.

    A block of b slices is (w, mid1, mid2, site1, site2): the (b, hi - lo)
    spatial roughness of every trajectory, the (b,) integer sums of the
    mid height and its square over the range, and the (b, n_center)
    integer sums of h and h^2 per central site over the range.  Every
    yielded array is new, so a queue may pickle it after the next block
    has started.
    """
    L = params.L
    n = hi - lo
    mid = (L + 1) // 2
    deposit = branch_probability("valley", +2, params.p)
    stay = branch_probability("peak", 0, params.p)
    gens = _trajectory_generators(params, lo, hi)
    H = np.repeat(horizon_profile(L).astype(np.int16)[:, None], n, axis=1)
    center = slice(L // 3 + 1, 2 * L // 3 + 1)
    # slice t updates the sites 2, 4, ... when t is odd and 3, 5, ... when even
    subs = (_Sublattice(H, 3, L, center), _Sublattice(H, 2, L, center))
    max_upd = len(subs[1].h)
    u = np.empty((_BLOCK_SLICES, max_upd))
    by_traj = np.empty((n, _BLOCK_SLICES, max_upd), dtype=np.int8)
    actions = np.empty((_BLOCK_SLICES, max_upd, n), dtype=np.int8)
    half = np.empty((max_upd, n), dtype=np.int16)
    moves = np.empty((max_upd, n), dtype=bool)
    sq = np.empty((max_upd, n), dtype=np.int32)

    # integer moments, kept per sublattice and trajectory (S) and per
    # central site (C); the per-slice rows of a block leave at its end
    frozen = H[[1, L]].astype(np.int64)  # sites 1 and L never move
    fixed1, fixed2 = frozen.sum(axis=0), (frozen ** 2).sum(axis=0)
    S1 = np.stack([sub.h.sum(axis=0, dtype=np.int64) for sub in subs])
    S2 = np.stack([(sub.h.astype(np.int64) ** 2).sum(axis=0) for sub in subs])
    C1 = H[center].sum(axis=1, dtype=np.int64)
    C2 = (H[center].astype(np.int64) ** 2).sum(axis=1)
    traj1, traj2, mids = np.empty((3, _BLOCK_SLICES, n), dtype=np.int64)
    for t in range(0, t_max, _BLOCK_SLICES):
        block = min(_BLOCK_SLICES, t_max - t)
        for k, g in enumerate(gens):
            g.random(out=u[:block])
            np.subtract(u[:block] < deposit, u[:block] >= stay, dtype=np.int8,
                        out=by_traj[k, :block])
        np.copyto(actions[:block], by_traj[:, :block].transpose(1, 2, 0))
        site1, site2 = np.empty((2, block, len(C1)), dtype=np.int64)
        for j in range(block):
            step = t + j + 1
            par = step % 2
            sub = subs[par]
            m = len(sub.h)
            h, q, mv, hh = sub.h, half[:m], moves[:m], sq[:m]
            np.subtract(sub.hl, h, out=q)
            np.add(q, sub.hr, out=q)
            np.subtract(q, h, out=q)         # curvature; a partial sum may wrap
            np.right_shift(q, 1, out=q)      # half curvature: +1 valley, -1 peak
            np.equal(q, actions[j, :m], out=mv)
            np.multiply(q, mv, out=q)
            np.left_shift(q, 1, out=q)
            np.add(h, q, out=h)
            np.abs(h, out=h)                 # a peak at h = 1 falls to -1: reflect
            np.multiply(h, h, out=hh, dtype=np.int32)
            h.sum(axis=0, dtype=np.int32, out=S1[par])  # at most 32766 * 32767
            hh.sum(axis=0, dtype=np.int64, out=S2[par])
            np.add(S1[0], S1[1], out=traj1[j])
            np.add(S2[0], S2[1], out=traj2[j])
            mids[j] = H[mid]
            h[sub.center_rows].sum(axis=1, dtype=np.int64, out=C1[sub.center_cols])
            hh[sub.center_rows].sum(axis=1, dtype=np.int64, out=C2[sub.center_cols])
            site1[j], site2[j] = C1, C2
            if step % check_every == 0:
                _spot_check(H, L)
        if t + block == t_max:
            _spot_check(H, L)
        b1, b2 = traj1[:block] + fixed1, traj2[:block] + fixed2
        w = np.sqrt((L * b2 - b1 * b1) / (L * L))
        m = mids[:block]
        yield w, m.sum(axis=1), (m ** 2).sum(axis=1), site1, site2


def _stream_range(q, params, lo, hi, t_max, check_every):
    """Worker body: put every block of trajectories lo..hi-1 on the queue,
    or the exception that stopped them."""
    try:
        for block in _range_blocks(params, lo, hi, t_max, check_every):
            q.put(block)
    except Exception as exc:  # the parent raises it
        q.put(exc)


def _received_blocks(q, proc):
    """The blocks a worker puts on its queue; raises what the worker raised,
    or RuntimeError if it exits before its last block."""
    from queue import Empty

    while True:
        try:
            item = q.get(timeout=1.0)
        except Empty:
            if proc.is_alive():
                continue
            try:  # an exited worker has flushed all it put
                item = q.get_nowait()
            except Empty:
                raise RuntimeError(f"trajectory worker exited with code {proc.exitcode} "
                                   "before its last slice block") from None
        if isinstance(item, Exception):
            raise item
        yield item


@contextmanager
def _trajectory_ranges(params: ModelParams, n_traj, t_max, check_every):
    """Block streams of contiguous trajectory ranges, in trajectory order.

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
    streams = [_range_blocks(params, 0, bounds[1], t_max, check_every)]
    procs = []
    try:
        if ranges > 1:
            ctx = multiprocessing.get_context("fork")
            for lo, hi in zip(bounds[1:-1], bounds[2:]):
                q = ctx.Queue()
                proc = ctx.Process(target=_stream_range, daemon=True,
                                   args=(q, params, lo, hi, t_max, check_every))
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


def ensemble(params: ModelParams, n_traj: int, t_max: int,
             check_every: int = 4096) -> ObservableSeries:
    """Trajectory-mean W(t) and midpoint height with standard errors."""
    if n_traj < 1:
        raise InvalidParameterError("need at least one trajectory")
    if params.boundary_mode != "reflecting":
        raise InvalidParameterError("free dynamics runs in reflecting mode")
    _check_capacity(params.L, n_traj)
    n = n_traj
    W_sum, W_sq, mid_sum, mid_sq, W_fluct = np.zeros((5, t_max))
    with _trajectory_ranges(params, n, t_max, check_every) as streams:
        for t in range(0, t_max, _BLOCK_SLICES):
            ws, mid1, mid2, site1, site2 = zip(*(next(stream) for stream in streams))
            # columns in trajectory order, integer partials added exactly: the
            # float reduction below sees the same (block, n) operands for any split
            w = np.concatenate(ws, axis=1)
            rows = slice(t, t + len(w))
            W_sum[rows], W_sq[rows] = w.sum(axis=1), (w * w).sum(axis=1)
            mid_sum[rows], mid_sq[rows] = sum(mid1), sum(mid2)
            if n > 1:
                var = (n * sum(site2) - sum(site1) ** 2) / (n * (n - 1))
                W_fluct[rows] = np.sqrt(var.mean(axis=1))
        ranges = len(streams)
    W_mean = W_sum / n
    mid_mean = mid_sum / n

    def stderr(sq, mean):
        if n < 2:
            return np.zeros(t_max)
        var = np.maximum(sq / n - mean ** 2, 0.0) * n / (n - 1)
        return np.sqrt(var / n)

    return ObservableSeries(times=np.arange(1, t_max + 1),
                            W=W_mean, W_stderr=stderr(W_sq, W_mean),
                            mid_height=mid_mean, mid_stderr=stderr(mid_sq, mid_mean),
                            W_fluct=W_fluct, n_samples=n, params=params, ranges=ranges)


def saturation_time(series: ObservableSeries, window: float = 10.0,
                    tolerance: float = 0.05, observable: str = "W"):
    """First t where the log-log slope of the observable over [t/window, t]
    drops below tolerance; None when the series never saturates."""
    times = series.times
    if window <= 1:
        raise InvalidParameterError("window must exceed 1")
    if times[-1] < window * times[0]:
        raise InvalidParameterError("window is wider than the whole series")
    data = {"W": series.W, "mid": series.mid_height, "W_fluct": series.W_fluct}
    if observable not in data:
        raise InvalidParameterError(f"observable must be one of {sorted(data)}")
    logt = np.log(times.astype(float))
    logw = np.log(np.maximum(data[observable], 1e-300))
    ks = np.arange(len(times))
    los = np.searchsorted(times, times / window)
    fits = (times >= window * times[0]) & (times >= 20) & (ks - los >= 4)
    # closed-form least-squares slope of every window [lo, k] from prefix
    # sums; it is within about 1e-12 of polyfit, so a window whose slope
    # clears the tolerance by 1e-9 cannot saturate and is skipped.  NaN
    # never clears it, and polyfit decides every other window, in order.
    prefix = np.zeros((4, len(times) + 1))
    np.cumsum([logt, logw, logt * logt, logt * logw], axis=1, out=prefix[:, 1:])
    sx, sy, sxx, sxy = prefix[:, ks + 1] - prefix[:, los]
    m = ks - los + 1
    with np.errstate(divide="ignore", invalid="ignore"):
        slopes = (m * sxy - sx * sy) / (m * sxx - sx * sx)
    for k in np.flatnonzero(fits & ~(slopes >= tolerance + 1e-9)):
        lo = los[k]
        slope = np.polyfit(logt[lo:k + 1], logw[lo:k + 1], 1)[0]
        if slope < tolerance:
            return int(times[k])
    return None


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

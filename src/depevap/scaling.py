"""Free (unconditioned) dynamics at scale: roughness and growth exponents.

Trajectories run in reflecting mode with alternating sublattice slices.
The ensemble is vectorized across trajectories per slice; every
trajectory consumes its own counter-based random stream keyed by
(master seed, trajectory index), so any re-partitioning of the same
seed set across workers reproduces identical observables.

One uniform draw per eligible site per slice decides the event: a
valley deposits when u is below its deposit probability, a peak at
h >= 2 evaporates when u is at least its no-change probability, and
everything else stays.  Both thresholds come from the event table, so
this reproduces it exactly (the color split is irrelevant to heights).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .params import ModelParams
from .surface import branch_probability, horizon_profile

_BLOCK_SLICES = 128  # RNG is drawn in slice blocks of this size per trajectory


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


def roughness(profile) -> float:
    """sqrt((1/L) sum_i (h_i - hbar)^2) over the L interior sites."""
    h = np.asarray(profile, dtype=float)[1:-1]
    return float(np.sqrt(np.mean((h - h.mean()) ** 2)))


def _parity_indices(L):
    even = np.array([i for i in range(2, L) if i % 2 == 0], dtype=np.intp)
    odd = np.array([i for i in range(2, L) if i % 2 == 1], dtype=np.intp)
    return even, odd


def _advance(H, idx, u, p):
    """Vectorized reflecting slice update on heights (n_traj, L+2)."""
    h = H[:, idx]
    hl = H[:, idx - 1]
    hr = H[:, idx + 1]
    valley = (hl == h + 1) & (hr == h + 1)
    peak = (hl == h - 1) & (hr == h - 1)
    dep = valley & (u < branch_probability("valley", +2, p))
    eva = peak & (h >= 2) & (u >= branch_probability("peak", 0, p))
    H[:, idx] = h + 2 * dep.astype(np.int64) - 2 * eva.astype(np.int64)


def _spot_check(H, L):
    if (np.abs(np.diff(H, axis=1)) != 1).any():
        raise AssertionError("slope constraint broken during free dynamics")
    if ((H - np.arange(L + 2)[None, :]) % 2 != 0).any():
        raise AssertionError("height parity broken during free dynamics")
    if (H < 0).any():
        raise AssertionError("negative height in reflecting dynamics")


def _trajectory_generators(params: ModelParams, n_traj):
    return [np.random.Generator(np.random.Philox(key=(params.seed << 64) + k))
            for k in range(n_traj)]


def ensemble(params: ModelParams, n_traj: int, t_max: int,
             check_every: int = 4096) -> ObservableSeries:
    """Trajectory-mean W(t) and midpoint height with standard errors."""
    if n_traj < 1:
        raise InvalidParameterError("need at least one trajectory")
    if params.boundary_mode != "reflecting":
        raise InvalidParameterError("free dynamics runs in reflecting mode")
    L = params.L
    even, odd = _parity_indices(L)
    max_upd = max(len(even), len(odd))
    mid = (L + 1) // 2
    gens = _trajectory_generators(params, n_traj)
    H = np.tile(horizon_profile(L), (n_traj, 1))
    center = slice(L // 3 + 1, 2 * L // 3 + 1)
    W_sum = np.zeros(t_max)
    W_sq = np.zeros(t_max)
    mid_sum = np.zeros(t_max)
    mid_sq = np.zeros(t_max)
    W_fluct = np.zeros(t_max)
    t = 0
    while t < t_max:
        block = min(_BLOCK_SLICES, t_max - t)
        U = np.empty((block, n_traj, max_upd))
        for k, g in enumerate(gens):
            U[:, k, :] = g.random((block, max_upd))
        for j in range(block):
            step = t + j + 1
            idx = even if step % 2 == 1 else odd
            _advance(H, idx, U[j, :, :len(idx)], params.p)
            body = H[:, 1:L + 1]
            w = np.sqrt(np.mean((body - body.mean(axis=1, keepdims=True)) ** 2, axis=1))
            m = H[:, mid].astype(float)
            W_sum[step - 1] = w.sum()
            W_sq[step - 1] = (w * w).sum()
            mid_sum[step - 1] = m.sum()
            mid_sq[step - 1] = (m * m).sum()
            if n_traj > 1:
                W_fluct[step - 1] = math.sqrt(float(np.mean(H[:, center].var(axis=0, ddof=1))))
            if step % check_every == 0:
                _spot_check(H, L)
        t += block
    _spot_check(H, L)
    n = n_traj
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
                            W_fluct=W_fluct, n_samples=n, params=params)


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
    for k in range(len(times)):
        t_hi = times[k]
        if t_hi < window * times[0] or t_hi < 20:
            continue
        lo = np.searchsorted(times, t_hi / window)
        if k - lo < 4:
            continue
        slope = np.polyfit(logt[lo:k + 1], logw[lo:k + 1], 1)[0]
        if slope < tolerance:
            return int(t_hi)
    return None


def exponent_report(series: ObservableSeries, fit_window=None) -> dict:
    """Power-law exponents of W and the midpoint height before saturation.

    The default window is [100, T_sat / 4] (T_sat from saturation_time,
    else the end of the series), the standard growth-regime choice.
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
        fit_window = (100, max(hi, 400))
    lo, hi = fit_window
    if hi > times[-1]:
        hi = times[-1]
    mask = (times >= lo) & (times <= hi)
    if mask.sum() < 10:
        raise InvalidParameterError(f"fit window {fit_window} holds fewer than 10 points")
    w_exp, w_amp, w_r2 = fit_power_law(times[mask], series.W[mask])
    m_exp, m_amp, m_r2 = fit_power_law(times[mask], series.mid_height[mask])
    report = {
        "fit_window": (int(lo), int(hi)),
        "saturation_time": t_sat,
        "W": {"exponent": w_exp, "amplitude": w_amp, "r_squared": w_r2},
        "mid": {"exponent": m_exp, "amplitude": m_amp, "r_squared": m_r2},
    }
    if series.n_samples > 1 and (series.W_fluct[mask] > 0).all():
        f_exp, f_amp, f_r2 = fit_power_law(times[mask], series.W_fluct[mask])
        report["W_fluct"] = {"exponent": f_exp, "amplitude": f_amp, "r_squared": f_r2}
    return report

import collections
import dataclasses
import math
import multiprocessing
import os
import pickle
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from depevap import ModelParams, exact, scaling
from depevap.entropy import TransferKernel
from depevap.errors import InvalidParameterError
from depevap.scaling import (
    ensemble,
    exponent_report,
    saturation_time,
    _spot_check,
)
from depevap.surface import branch_probability, horizon_profile


# -- slow reference: the gather-based update on trajectory-major heights ----

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


def _reference_ensemble(params, n, t_max):
    """Observables and final heights (n, L+2) of the reference kernel.

    It draws each trajectory's (seed, k)-keyed stream in one piece, so it
    also checks that `ensemble`'s slice blocks do not reorder uniforms.
    """
    L = params.L
    even, odd = _parity_indices(L)
    max_upd = max(len(even), len(odd))
    U = np.stack([np.random.Generator(np.random.Philox(key=(params.seed << 64) + k))
                  .random((t_max, max_upd)) for k in range(n)], axis=1)
    H = np.tile(horizon_profile(L), (n, 1))
    center = slice(L // 3 + 1, 2 * L // 3 + 1)
    W_sum, W_sq, mid_sum, mid_sq, W_fluct = np.zeros((5, t_max))
    for t in range(1, t_max + 1):
        idx = even if t % 2 == 1 else odd
        _advance(H, idx, U[t - 1, :, :len(idx)], params.p)
        body = H[:, 1:L + 1]
        w = np.sqrt(np.mean((body - body.mean(axis=1, keepdims=True)) ** 2, axis=1))
        m = H[:, (L + 1) // 2].astype(float)
        W_sum[t - 1], W_sq[t - 1] = w.sum(), (w * w).sum()
        mid_sum[t - 1], mid_sq[t - 1] = m.sum(), (m * m).sum()
        if n > 1:
            W_fluct[t - 1] = math.sqrt(float(np.mean(H[:, center].var(axis=0, ddof=1))))

    def stderr(sq, mean):
        if n < 2:
            return np.zeros(t_max)
        var = np.maximum(sq / n - mean ** 2, 0.0) * n / (n - 1)
        return np.sqrt(var / n)

    W, mid = W_sum / n, mid_sum / n
    return {"W": W, "W_stderr": stderr(W_sq, W), "mid_height": mid,
            "mid_stderr": stderr(mid_sq, mid), "W_fluct": W_fluct}, H


def _ensemble_with_profile(monkeypatch, params, n, t_max):
    """`ensemble` plus its final site-major heights, as its last spot check saw them.

    It runs one trajectory range, so that one spot check sees every
    trajectory in this process; `test_results_do_not_depend_on_partition`
    covers the other range counts.
    """
    seen = []

    def recording_check(H, L):
        seen.append(H.copy())
        _spot_check(H, L)

    monkeypatch.setattr(scaling, "_cpu_count", lambda: 1)
    monkeypatch.setattr(scaling, "_spot_check", recording_check)
    series = ensemble(params, n, t_max)
    return series, seen[-1]


@pytest.mark.parametrize("L", [4, 5, 16, 33, 129])
def test_kernel_matches_gather_reference(monkeypatch, L):
    # t_max = 260 crosses four RNG block boundaries (blocks of 64 slices)
    t_max = 260
    for p in (0.0, 0.3, 0.5, 1.0):
        for n in (1, 2, 7):
            params = ModelParams(L=L, p=p, seed=L + 10 * n)
            series, H = _ensemble_with_profile(monkeypatch, params, n, t_max)
            ref, H_ref = _reference_ensemble(params, n, t_max)
            assert H.dtype == np.int16 and H.shape == (L + 2, n)
            assert np.array_equal(H.T, H_ref), (L, p, n)
            assert np.array_equal(series.mid_height, ref["mid_height"]), (L, p, n)
            assert np.array_equal(series.mid_stderr, ref["mid_stderr"]), (L, p, n)
            np.testing.assert_allclose(series.W, ref["W"], rtol=1e-12, atol=0)
            np.testing.assert_allclose(series.W_fluct, ref["W_fluct"], rtol=1e-12, atol=0)
            # W_stderr comes from sq/n - mean^2: where every trajectory has the
            # same W that difference is rounding noise of order eps * W^2, so
            # the 1e-12 relative bar applies to the variance on the scale W^2
            np.testing.assert_allclose(series.W_stderr ** 2, ref["W_stderr"] ** 2,
                                       rtol=1e-12, atol=1e-12 * ref["W"].max() ** 2)


def _assert_no_child_left():
    """No child of this process is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


_SERIES_ARRAYS = ("times", "W", "W_stderr", "mid_height", "mid_stderr", "W_fluct")


@pytest.mark.parametrize("L", [4, 5, 16, 33, 129])
def test_results_do_not_depend_on_partition(monkeypatch, L):
    # the grid of test_kernel_matches_gather_reference: n = 1 and 2 run
    # fewer trajectories than 3 workers, and t_max = 260 is a multiple of
    # neither RNG block size 64 nor 128, so the last block is short
    t_max = 260
    for p in (0.0, 0.3, 0.5, 1.0):
        for n in (1, 2, 7):
            params = ModelParams(L=L, p=p, seed=L + 10 * n)
            runs = {}
            # the default block in one and three ranges, the smallest block
            # inline and a block of 128 streamed from two ranges
            for block, workers in ((64, 1), (64, 3), (2, 1), (128, 2)):
                monkeypatch.setattr(scaling, "_BLOCK_SLICES", block)
                monkeypatch.setattr(scaling, "_cpu_count", lambda: workers)
                runs[block, workers] = ensemble(params, n, t_max)
                assert runs[block, workers].ranges == min(workers, n)
            for key, run in runs.items():
                for name in _SERIES_ARRAYS:
                    assert (getattr(run, name).tobytes()
                            == getattr(runs[64, 1], name).tobytes()), (L, p, n, key, name)
    _assert_no_child_left()


@pytest.mark.parametrize("L", [16, 33])
def test_grouped_pass_matches_single_points(monkeypatch, L):
    # every p of one L from one pass over the streams, against one ensemble
    # call per p; t_max = 260 ends on a short block
    ps, n, t_max = [0.0, 0.3, 0.5, 0.8, 1.0], 7, 260
    params = ModelParams(L=L, p=0.5, seed=L)
    singles = [ensemble(params.with_(p=p), n, t_max) for p in ps]
    for workers in (1, 2, 3):
        monkeypatch.setattr(scaling, "_cpu_count", lambda: workers)
        grouped = ensemble(params, n, t_max, ps=ps)
        assert [s.params for s in grouped] == [params.with_(p=p) for p in ps]
        assert [s.ranges for s in grouped] == [workers] * len(ps)
        for p, run, single in zip(ps, grouped, singles):
            for name in _SERIES_ARRAYS:
                assert getattr(run, name).tobytes() == getattr(single, name).tobytes(), \
                    (L, p, workers, name)
    _assert_no_child_left()


def test_grid_draws_each_stream_once_per_range(monkeypatch):
    # five p values run as extra rows of one slice loop: each range builds
    # its trajectories' generators once, however many p, with the bytes of
    # the single-point runs
    L, n, t_max = 33, 6, 150
    ps = [0.1, 0.3, 0.5, 0.7, 0.9]
    params = ModelParams(L=L, p=0.5, seed=2)
    singles = [ensemble(params.with_(p=p), n, t_max) for p in ps]
    generators = scaling._trajectory_generators
    drawn = multiprocessing.get_context("fork").Value("i", 0)  # shared with the workers

    def counting(*args):
        with drawn.get_lock():
            drawn.value += 1
        return generators(*args)

    monkeypatch.setattr(scaling, "_trajectory_generators", counting)
    for workers in (1, 2, 3):
        monkeypatch.setattr(scaling, "_cpu_count", lambda: workers)
        drawn.value = 0
        grouped = ensemble(params, n, t_max, ps=ps)
        assert drawn.value == workers
        for run, single in zip(grouped, singles):
            for name in _SERIES_ARRAYS:
                assert getattr(run, name).tobytes() == getattr(single, name).tobytes(), \
                    (workers, run.params.p, name)
    _assert_no_child_left()


def test_worker_failure_reaches_caller_and_workers_are_reaped(monkeypatch):
    parent = os.getpid()
    params = ModelParams(L=16, p=0.5, seed=1)
    monkeypatch.setattr(scaling, "_cpu_count", lambda: 3)
    monkeypatch.setattr(scaling, "_CHECK_EVERY", 64)

    def failing_in(where):
        def check(H, L):
            if (os.getpid() == parent) == (where == "parent"):
                raise AssertionError(f"spot check failed in the {where}")
            _spot_check(H, L)
        return check

    # a single point, and a grouped run over three p values
    for ps in (None, [0.2, 0.5, 0.9]):
        for where in ("worker", "parent"):
            monkeypatch.setattr(scaling, "_spot_check", failing_in(where))
            with pytest.raises(AssertionError, match=f"spot check failed in the {where}"):
                ensemble(params, 6, 300, ps=ps)
            _assert_no_child_left()

    def exiting_worker(H, L):
        if os.getpid() != parent:
            os._exit(3)

    monkeypatch.setattr(scaling, "_spot_check", exiting_worker)
    for ps in (None, [0.2, 0.5, 0.9]):
        with pytest.raises(RuntimeError, match="exited with code 3"):
            ensemble(params, 6, 300, ps=ps)
        _assert_no_child_left()


def _open_descriptors():
    """How many descriptors this process holds open; None without /proc/self/fd."""
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


def test_ranges_close_their_pipes_and_reap_their_workers(monkeypatch):
    # three ranges: after a run, a worker's early exit and a failure in the parent, every
    # pipe end is closed and every worker reaped, even while the caller holds the exception
    parent = os.getpid()
    params = ModelParams(L=16, p=0.5, seed=1)
    monkeypatch.setattr(scaling, "_cpu_count", lambda: 3)
    monkeypatch.setattr(scaling, "_CHECK_EVERY", 64)
    before = _open_descriptors()
    assert ensemble(params, 6, 300).ranges == 3
    assert _open_descriptors() == before
    _assert_no_child_left()

    def exiting_worker(H, L):
        if os.getpid() != parent:
            os._exit(3)

    def failing_parent(H, L):
        if os.getpid() == parent:
            raise AssertionError("spot check failed in the parent")
        _spot_check(H, L)

    for check, error, match in ((exiting_worker, RuntimeError, "exited with code 3"),
                                (failing_parent, AssertionError, "failed in the parent")):
        monkeypatch.setattr(scaling, "_spot_check", check)
        with pytest.raises(error, match=match) as failure:
            ensemble(params, 6, 300)
        assert failure.traceback  # held, with ensemble's frames, through the checks below
        assert _open_descriptors() == before, match
        _assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no forked range workers on this platform")
def test_series_carry_their_own_workers_peak(monkeypatch):
    # two ranges fork a worker, whose peak RSS every series of the call carries; a later
    # one-range call in the same process, with nothing reset between, carries exactly 0.0
    params = ModelParams(L=16, p=0.5, seed=1)
    for ranges in (2, 1):
        monkeypatch.setattr(scaling, "_cpu_count", lambda: ranges)
        series = ensemble(params, 6, 300, ps=[0.5, 0.8])
        assert [s.ranges for s in series] == [ranges] * 2
        peaks = [s.worker_peak_rss_mb for s in series]
        assert all(peak > 0 for peak in peaks) if ranges > 1 else peaks == [0.0, 0.0], peaks
    _assert_no_child_left()


def _pipe_max_bytes():
    try:
        return int(Path("/proc/sys/fs/pipe-max-size").read_text())
    except (OSError, ValueError):
        return 0


@pytest.mark.skipif(not sys.platform.startswith("linux") or _pipe_max_bytes() < scaling._PIPE_BYTES,
                    reason="range pipes are enlarged on Linux alone, up to pipe-max-size")
def test_range_pipes_hold_a_mebibyte(monkeypatch):
    # a worker runs ahead of the caller's reads only while its pipe holds a few blocks (README,
    # trajectory ranges); a worker whose pipe is smaller pickles an error for the caller
    import fcntl

    stream_range = scaling._stream_range

    def checked(fd, *args):
        size = fcntl.fcntl(fd, fcntl.F_GETPIPE_SZ)
        if size < scaling._PIPE_BYTES:
            with open(fd, "wb") as out:
                pickle.dump(AssertionError(f"the range pipe holds {size} bytes"), out)
            return
        stream_range(fd, *args)

    monkeypatch.setattr(scaling, "_cpu_count", lambda: 2)
    monkeypatch.setattr(scaling, "_stream_range", checked)
    assert ensemble(ModelParams(L=16, p=0.5, seed=1), 4, 300).ranges == 2
    _assert_no_child_left()


def _exact_means(params, t_max):
    """Exact E[W] over sites 1..L and E[h_mid] after DP slices 1..t_max from the horizon.

    `TransferKernel.forward` evolves the exact profile law of the free
    dynamics; in reflecting mode it keeps the total probability.
    """
    L = params.L
    kernel = TransferKernel(params)
    heights = kernel.heights.astype(np.int64)
    body = heights[:, 1:L + 1]
    s1, s2 = body.sum(axis=1), (body * body).sum(axis=1)
    W = np.sqrt((L * s2 - s1 * s1) / (L * L))  # as the ensemble computes it
    mid = heights[:, (L + 1) // 2].astype(float)
    law = (heights == horizon_profile(L)).all(axis=1).astype(float)
    assert law.sum() == 1
    means = np.empty((2, t_max))
    for t in range(1, t_max + 1):
        law = kernel.forward(law, t)
        means[:, t - 1] = law @ W, law @ mid
    return means


@pytest.mark.parametrize("L", [9, 13])
def test_ensemble_samples_the_dp_law(monkeypatch, L):
    # the DP's TransferKernel and the ensemble's action table are two
    # implementations of one process.  Scaling's slice j (from 0) is the DP's
    # slice j + 1.  The bound |z| <= 5 per slice was fixed before the first run
    monkeypatch.setattr(exact, "_KEPT", [])  # keep no profile index past the test
    ps, n, t_max = [0.0, 0.25, 0.5, 0.8], 4000, 80
    params = ModelParams(L=L, p=0.5, boundary_mode="reflecting", colored=False, seed=L)
    for series in ensemble(params, n, t_max, ps=ps):
        W, mid = _exact_means(series.params, t_max)
        if series.params.p == 0:  # the law stays on the horizon
            # W_stderr is rounding noise of sq/n - mean^2 here, not a sample spread
            assert (series.mid_stderr == 0).all() and np.array_equal(series.mid_height, mid)
            # n equal per-trajectory values, reduced as the ensemble reduces them
            assert np.array_equal(series.W, np.full((t_max, n), W[0]).sum(axis=1) / n)
            assert np.array_equal(W, np.full(t_max, W[0]))
            continue
        # the first slice updates the even sites, and the mid site is odd: its
        # height is 1 in every trajectory and in the law
        assert series.mid_height[0] == mid[0] == 1 and series.mid_stderr[0] == 0
        for name, sample, stderr, exact_mean in (
                ("W", series.W, series.W_stderr, W),
                ("mid", series.mid_height[1:], series.mid_stderr[1:], mid[1:])):
            assert (stderr > 0).all(), (L, series.params.p, name)
            z = (sample - exact_mean) / stderr
            assert np.abs(z).max() <= 5, (L, series.params.p, name, np.abs(z).max())


def test_p0_series_constant():
    params = ModelParams(L=17, p=0.0)
    series = ensemble(params, 1, 30)
    assert np.all(series.mid_height == 1)
    assert np.allclose(series.W, series.W[0])


def test_single_trajectory_deterministic():
    params = ModelParams(L=33, p=0.6, seed=3)
    a = ensemble(params, 1, 100)
    b = ensemble(params, 1, 100)
    assert np.array_equal(a.W, b.W) and np.array_equal(a.mid_height, b.mid_height)
    assert not np.array_equal(a.W, ensemble(params.with_(seed=4), 1, 100).W)


def test_ensemble_deterministic_and_seed_sensitive():
    params = ModelParams(L=32, p=0.5, seed=9)
    a = ensemble(params, 6, 120)
    b = ensemble(params, 6, 120)
    assert np.array_equal(a.W, b.W) and np.array_equal(a.mid_height, b.mid_height)
    c = ensemble(params.with_(seed=10), 6, 120)
    assert not np.array_equal(a.W, c.W)


def test_seed_fits_one_philox_key_word():
    # trajectory k's key is (seed << 64) + k, and Philox keys stay below 2**128
    params = ModelParams(L=16, p=0.5, seed=2 ** 64 - 1)
    assert ensemble(params, 2, 20).W.shape == (20,)
    with pytest.raises(InvalidParameterError, match="seed"):
        params.with_(seed=2 ** 64)


def test_trajectory_streams_are_keyed_by_index():
    # the ensemble mean must equal the mean of independently re-run
    # trajectories driven by their (seed, index)-keyed streams, i.e. any
    # re-partitioning of the same seed set reproduces the observables
    L, t_max, n = 16, 80, 3
    params = ModelParams(L=L, p=0.7, seed=4)
    series = ensemble(params, n, t_max)
    even, odd = _parity_indices(L)
    max_upd = max(len(even), len(odd))
    W = np.zeros((n, t_max))
    for k in range(n):
        g = np.random.Generator(np.random.Philox(key=(params.seed << 64) + k))
        H = horizon_profile(L)[None, :].copy()
        U = g.random((t_max, max_upd))
        for t in range(1, t_max + 1):
            idx = even if t % 2 == 1 else odd
            _advance(H, idx, U[t - 1:t, :len(idx)], params.p)
            body = H[0, 1:L + 1]
            W[k, t - 1] = np.sqrt(np.mean((body - body.mean()) ** 2))
    assert np.allclose(series.W, W.mean(axis=0), atol=1e-12)


def test_mid_height_monotone_mean_p1():
    params = ModelParams(L=64, p=1.0, seed=2)
    series = ensemble(params, 16, 400)
    diffs = np.diff(series.mid_height)
    assert (diffs >= -1e-12).all()


def test_even_L_supported():
    assert horizon_profile(4)[-1] == 1  # parity-consistent right wall
    series = ensemble(ModelParams(L=4, p=0.5, seed=0), 1, 50)
    assert (series.W > 0).all()
    params = ModelParams(L=128, p=0.25, seed=0)
    s = ensemble(params, 4, 100)
    assert (s.W > 0).all()


def test_reflecting_soak_vectorized(monkeypatch):
    # 1e5-slice soak at L=64 on the vectorized kernel: never a negative height
    # (the spot check runs every 1000 slices and at the end, and raises)
    calls = []

    def counting_check(H, L):
        calls.append(int(H.min()))
        _spot_check(H, L)

    monkeypatch.setattr(scaling, "_cpu_count", lambda: 1)  # every check in this process
    monkeypatch.setattr(scaling, "_spot_check", counting_check)
    monkeypatch.setattr(scaling, "_CHECK_EVERY", 1000)
    ensemble(ModelParams(L=64, p=0.9, seed=99), 4, 100_000)
    assert len(calls) == 101 and min(calls) >= 0


def test_spot_check_fires_on_corrupted_heights():
    L, n = 9, 3
    H = np.repeat(horizon_profile(L).astype(np.int16)[:, None], n, axis=1)
    _spot_check(H, L)
    slope = H.copy()
    slope[4, 1] = 4
    with pytest.raises(AssertionError, match="slope"):
        _spot_check(slope, L)
    parity = H.copy()
    parity[:, 2] += 1
    with pytest.raises(AssertionError, match="parity"):
        _spot_check(parity, L)
    negative = H.copy()
    negative[:, 0] -= 2
    with pytest.raises(AssertionError, match="negative"):
        _spot_check(negative, L)


def test_capacity_guard_before_allocation(monkeypatch):
    def no_allocation(*args):
        raise AssertionError("the guard must trip before any allocation")

    monkeypatch.setattr(scaling, "_cpu_count", lambda: 2)
    monkeypatch.setattr(scaling, "_trajectory_generators", no_allocation)
    monkeypatch.setattr(os, "fork", no_allocation)
    with pytest.raises(InvalidParameterError, match="int16"):
        ensemble(ModelParams(L=65_534, p=0.5), 1, 1)  # h_max = 32768
    with pytest.raises(InvalidParameterError, match="int64"):
        ensemble(ModelParams(L=5, p=0.5), 2 ** 62, 1)
    with pytest.raises(AssertionError, match="guard"):
        ensemble(ModelParams(L=65_533, p=0.5), 1, 1)  # h_max = 32767 fits
    # sizes that are not integers >= 1 are refused before any work, too
    for n_traj, t_max in ((4, -3), (4, 0), (0, 10), (4.0, 10), (True, 10), (4, 10.0)):
        with pytest.raises(InvalidParameterError, match="integers >= 1"):
            ensemble(ModelParams(L=5, p=0.5), n_traj, t_max)
    with pytest.raises(InvalidParameterError, match="at least one p"):
        ensemble(ModelParams(L=5, p=0.5), 4, 10, ps=[])


@pytest.mark.parametrize("p", [0.0, 0.15, 0.3, 0.5, 1.0])
def test_raw_bounds_decide_as_uniforms(p):
    # Generator.random turns a raw Philox word into (raw >> 11) * 2**-53
    g = np.random.Generator(np.random.Philox(key=7))
    raw = np.random.Philox(key=7).random_raw(64)
    assert g.random(64).tobytes() == ((raw >> np.uint64(11)) * 2.0 ** -53).tobytes()
    # the kernel's integer bounds take the uniforms' decision on the words
    # next to each bound (0 at p = 0; 2**64 at p = 1, one past uint64) and at
    # both ends
    deposit, evaporate = scaling._raw_bounds(p)
    words = {0, 2 ** 64 - 1}
    for bound in (int(deposit), int(evaporate) + 1):
        words |= {bound - 1, bound, bound + 1}
    raw = np.array(sorted(w for w in words if 0 <= w < 2 ** 64), dtype=np.uint64)
    u = (raw >> np.uint64(11)) * 2.0 ** -53
    assert np.array_equal(raw < deposit, u < branch_probability("valley", +2, p))
    assert np.array_equal(raw > evaporate, u >= branch_probability("peak", 0, p))


def test_codes_decode_to_every_points_action():
    # one code per word serves an unsorted grid with a repeated value and both
    # edges: decoded at each point's thresholds, it is that point's own action
    # on the words next to every bound and at both ends
    ps = [0.8, 0.0, 0.5, 1.0, 0.25, 0.5]
    deposit, evaporate, deposit_at, evaporate_at = scaling._code_rule(ps)
    assert deposit_at.dtype == evaporate_at.dtype == np.int8
    words = {0, 2 ** 64 - 1}
    for bound in map(int, (*deposit, *evaporate)):
        words |= {bound - 1, bound, bound + 1}
    raw = np.array(sorted(w for w in words if 0 <= w < 2 ** 64), dtype=np.uint64)
    # the points a word deposits at less those it evaporates at
    code = (raw < deposit[:, None]).sum(axis=0) - (raw > evaporate[:, None]).sum(axis=0)
    for k, p in enumerate(ps):
        decoded = 2 * (code >= deposit_at[k]) - 2 * (code <= evaporate_at[k])
        assert np.array_equal(decoded, 2 * (raw < deposit[k]) - 2 * (raw > evaporate[k])), p


def test_wide_grid_matches_single_points():
    # 130 points, unsorted, take int16 codes; one trajectory runs inline, and
    # t_max = 70 crosses a block boundary
    ps = [(37 * k % 130) / 129 for k in range(130)]
    assert scaling._code_rule(ps)[2].dtype == np.int16
    params = ModelParams(L=9, p=0.5, seed=6)
    for run in ensemble(params, 1, 70, ps=ps):
        single = ensemble(run.params, 1, 70)
        for name in _SERIES_ARRAYS:
            assert getattr(run, name).tobytes() == getattr(single, name).tobytes(), \
                (run.params.p, name)


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_range_code_table_is_shared_by_every_point():
    # one growth range (L = 512, n = 100): each point past the first costs
    # less traced peak than one (64, n, R) table, since the points share one
    # code table; a table per point would cost more than that alone
    L, n = 512, 100
    table = scaling._BLOCK_SLICES * n * ((L + 3) // 2)
    params = ModelParams(L=L, p=0.5, seed=1)

    def one_pass(ps):
        return lambda: collections.deque(scaling._range_blocks(params, ps, 0, n, 70), maxlen=0)

    _traced_peak(one_pass([0.5]))  # first-call allocations stay out of the comparison
    one, four = _traced_peak(one_pass([0.5])), _traced_peak(one_pass([0.1, 0.5, 0.8, 0.9]))
    assert four - one < 3 * table, (one, four, table)


def test_range_holds_one_block_per_point():
    # one growth range (L = 512, n = 100), measured as above: each point past the first
    # costs under 0.55 of a (64, n, R) table once a range finishes its block in place and
    # keeps no reference to a yielded block (0.64 when the last block's arrays and the
    # block-end temporaries lived beside the next block's working set)
    L, n = 512, 100
    table = scaling._BLOCK_SLICES * n * ((L + 3) // 2)
    params = ModelParams(L=L, p=0.5, seed=1)

    def one_pass(ps):
        return lambda: collections.deque(scaling._range_blocks(params, ps, 0, n, 70), maxlen=0)

    _traced_peak(one_pass([0.5]))  # first-call allocations stay out of the comparison
    one, four = _traced_peak(one_pass([0.5])), _traced_peak(one_pass([0.1, 0.5, 0.8, 0.9]))
    assert (four - one) / 3 < 0.55 * table, ((four - one) / 3 / table, one, four, table)


def test_spot_check_stays_in_the_heights_dtype():
    # no int64 copy of the int16 heights: under four times their bytes
    H = np.repeat(horizon_profile(512).astype(np.int16)[:, None], 400, axis=1)
    assert H.shape == (514, 400)
    peak = _traced_peak(lambda: _spot_check(H, 512))
    assert peak < 4 * H.nbytes, (peak, H.nbytes)


def _reference_saturation_time(series, window=10.0, tolerance=0.05, observable="W"):
    """The per-window polyfit loop that `saturation_time` prefilters."""
    times = series.times
    data = {"W": series.W, "mid": series.mid_height, "W_fluct": series.W_fluct}
    logt = np.log(times.astype(float))
    logw = np.log(np.maximum(data[observable], 1e-300))
    for k in range(len(times)):
        t_hi = times[k]
        if t_hi < window * times[0] or t_hi < 20:
            continue
        lo = np.searchsorted(times, t_hi / window)
        if k - lo < 4:
            continue
        if np.polyfit(logt[lo:k + 1], logw[lo:k + 1], 1)[0] < tolerance:
            return int(t_hi)
    return None


@pytest.mark.parametrize("L,p,n,t_max,saturates", [
    (64, 0.2, 24, 2000, True), (32, 0.5, 16, 2000, True),
    (256, 0.5, 16, 1000, False), (128, 0.9, 8, 1000, False)])
def test_saturation_prefilter_matches_polyfit_loop(monkeypatch, L, p, n, t_max, saturates):
    series = ensemble(ModelParams(L=L, p=p, seed=5), n, t_max)
    assert (saturation_time(series) is not None) == saturates
    # saturation_time reads W; the other observables go in its place
    for observable, ys in (("W", series.W), ("mid", series.mid_height), ("W_fluct", series.W_fluct)):
        for tolerance in (0.02, 0.05, 0.2):
            monkeypatch.setattr(scaling, "_SATURATION_TOLERANCE", tolerance)
            assert (saturation_time(dataclasses.replace(series, W=ys))
                    == _reference_saturation_time(series, tolerance=tolerance,
                                                  observable=observable)), (observable, tolerance)


def test_saturation_detection_confined(monkeypatch):
    params = ModelParams(L=64, p=0.2, seed=5)
    series = ensemble(params, 24, 2000)
    t_sat = saturation_time(series)
    assert t_sat is not None and t_sat < 2000
    monkeypatch.setattr(scaling, "_SATURATION_WINDOW", 1e9)
    with pytest.raises(InvalidParameterError):
        saturation_time(series)


def test_exponent_report_window_errors():
    params = ModelParams(L=32, p=0.5, seed=1)
    series = ensemble(params, 4, 300)
    with pytest.raises(InvalidParameterError):
        exponent_report(series, fit_window=(295, 300))
    rep = exponent_report(series, fit_window=(20, 300))
    assert set(rep) >= {"fit_window", "W", "mid", "saturation_time"}


def test_ew_exponent_smoke():
    # small-scale check that the EW growth regime shows ~1/4 (looser bars here;
    # the acceptance suite runs the full-size measurement)
    params = ModelParams(L=256, p=0.5, seed=21)
    series = ensemble(params, 48, 3000)
    rep = exponent_report(series, fit_window=(80, 3000))
    assert rep["W"]["exponent"] == pytest.approx(0.25, abs=0.09)
    assert rep["mid"]["exponent"] == pytest.approx(0.25, abs=0.09)

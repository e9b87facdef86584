import math
import struct
import time
import tracemalloc

import numpy as np
import pytest

from bridge_reference import enumerate_bridge as reference_enumerate_bridge
from bridge_reference import local_shape
from bridge_reference import success_probability
from conftest import oracle_enumerate, oracle_success
from depevap import ModelParams, exact
from depevap.codec import (
    canonical_key,
    decode_keys,
    key_length,
    key_to_config,
    profiles_to_heights,
    vertex_sites,
)
from depevap.errors import CapacityError, InvalidParameterError
from depevap.exact import (
    SparseState,
    build_state,
    enumerate_bridge,
    export_state_text,
    load_state,
    save_state,
)
from depevap.entropy import midcut_distribution
from depevap.hamiltonian import sector_keys
from depevap.seqgen import run_generation
from depevap.surface import horizon_profile


def test_l3_p0_single_trajectory():
    params = ModelParams(L=3, p=0.0, colored=True)
    trajs = enumerate_bridge(params)
    assert len(trajs) == 1 and trajs.weights.tolist() == [1.0]
    state = build_state(params)
    assert len(state) == 1 and list(state.amplitudes.values()) == [1.0]


def test_l3_colored_three_bridges():
    params = ModelParams(L=3, p=0.5, colored=True)
    trajs = enumerate_bridge(params)
    assert len(trajs) == 3
    assert sorted(trajs.weights) == pytest.approx([0.03125, 0.03125, 0.5625])
    # vertex (2, 1): heights 0 -> 2 on the two deposits, colored r and g
    heights = profiles_to_heights(trajs.profiles, 3)
    assert sorted(zip(heights[:, 2, 2].tolist(), trajs.colors[:, 0].tolist())) == \
        [(0, 0), (2, 1), (2, 2)]
    assert success_probability(params) == pytest.approx(0.625)


def test_absorbing_same_support_different_weights():
    ref = ModelParams(L=3, p=0.5, boundary_mode="reflecting", colored=True)
    ab = ref.with_(boundary_mode="absorbing")
    t_ref = {tuple(sorted(t.events.items())): (t, w) for t, w in reference_enumerate_bridge(ref)[0]}
    t_ab = {tuple(sorted(t.events.items())): (t, w) for t, w in reference_enumerate_bridge(ab)[0]}
    assert set(t_ref) == set(t_ab)
    for ev in t_ref:
        traj, w_ref = t_ref[ev]
        _, w_ab = t_ab[ev]
        # count vertices sitting at a Peak at h=1 (includes the frozen columns)
        n_peak1 = 0
        for (i, t), _ in traj.events.items():
            h = traj.heights[t - 1][i]
            if h == 1 and traj.heights[t][i - 1] == 0 and traj.heights[t][i + 1] == 0:
                n_peak1 += 1
        # absorbing weights differ exactly by (1+p)/2 per Peak-at-1 vertex
        assert w_ab == pytest.approx(w_ref * 0.75 ** n_peak1, abs=1e-15)
    flat = [w for t, w in t_ab.values() if t.events[(2, 1)][0] == "no_change"][0]
    assert flat == pytest.approx(0.5625 * 0.75 ** 2)  # two frozen Peak-at-1 slots on the flat bridge


def test_reflecting_completeness():
    for L in (3, 5):
        for p in (0.3, 0.8):
            params = ModelParams(L=L, p=p, boundary_mode="reflecting", colored=True)
            total = math.fsum(w for _, w in reference_enumerate_bridge(params, bridge=False)[0])
            assert total == pytest.approx(1.0, abs=1e-12)


def test_success_examples():
    assert success_probability(ModelParams(L=3, p=0.0)) == 1.0
    assert success_probability(ModelParams(L=3, p=1.0)) == pytest.approx(0.25)
    assert success_probability(ModelParams(L=5, p=0.8)) < success_probability(
        ModelParams(L=3, p=0.8))


def test_state_normalized_and_support_valid():
    for mode in ("reflecting", "absorbing"):
        for colored in (True, False):
            params = ModelParams(L=5, p=0.7, boundary_mode=mode, colored=colored)
            state = build_state(params)
            assert state.norm() == pytest.approx(1.0, abs=1e-12)
            decode_keys(sorted(state.amplitudes), params)  # raises on any invalid key


def test_color_swap_involution():
    params = ModelParams(L=5, p=0.6, colored=True)
    state = build_state(params)
    swapped = {}
    for key, amp in state.amplitudes.items():
        config = key_to_config(key, params)
        config.colors = {v: {0: 0, 1: 2, 2: 1}[c] for v, c in config.colors.items()}
        swapped[canonical_key(config)] = amp
    assert swapped.keys() == state.amplitudes.keys()
    for key, amp in swapped.items():
        assert state.amplitudes[key] == pytest.approx(amp, abs=1e-15)


def test_uncolored_marginal_consistency():
    colored = ModelParams(L=5, p=0.7, colored=True)
    uncolored = colored.with_(colored=False)
    cs = build_state(colored)
    us = build_state(uncolored)
    marginal = {}
    for key, amp in cs.amplitudes.items():
        config = key_to_config(key, colored)
        config.colored = False
        config.colors = {}
        marginal_key = canonical_key(config)
        marginal[marginal_key] = marginal.get(marginal_key, 0.0) + amp * amp
    assert marginal.keys() == us.amplitudes.keys()
    for key, prob in marginal.items():
        assert prob == pytest.approx(us.amplitudes[key] ** 2, abs=1e-12)


def test_capacity_guard():
    with pytest.raises(CapacityError):
        enumerate_bridge(ModelParams(L=7, p=0.5, colored=True), max_nodes=10)


CAPPED_ENTRIES = {
    "max_profiles": lambda params, cap: midcut_distribution(params, 2, max_profiles=cap),
    "max_nodes": lambda params, cap: build_state(params, max_nodes=cap),
    "max_branches": lambda params, cap: run_generation(params, max_branches=cap),
    "max_states": lambda params, cap: sector_keys(params, max_states=cap),
}


@pytest.mark.parametrize("cap", [True, 2.5, 0, -3, "9", None])
@pytest.mark.parametrize("name", CAPPED_ENTRIES)
def test_count_caps_must_be_positive_integers(name, cap):
    # each of these used to run or fail late: True capped at 1, 2.5 compared as a float,
    # 0 and -3 raised CapacityError, and "9" and None raised TypeError
    with pytest.raises(InvalidParameterError, match=f"{name} must be an integer >= 1"):
        CAPPED_ENTRIES[name](ModelParams(L=5, p=0.5), cap)


def _assert_matches_recursion(params, bridge=True):
    # same heights, vertex colors, weights (bit for bit) and order as the
    # depth-first recursion, and with its pruning the same node count at the
    # capacity guard; event kinds are a function of the heights.  Without
    # pruning the recursion's trajectories back at the horizon must be the
    # same bridges: the lookahead loses none and reorders none.
    got = enumerate_bridge(params)
    want, visited = reference_enumerate_bridge(params, bridge=bridge)
    L = params.L
    # rows L and L + 1 of a history hold complementary sites of the last profile
    want = [(ref, w) for ref, w in want
            if (ref.heights[L] + ref.heights[L + 1]).tolist() == horizon_profile(L).tolist()]
    vertices = vertex_sites(L)
    assert len(got) == len(want)
    assert got.weights.tolist() == [w for _, w in want]
    assert np.array_equal(profiles_to_heights(got.profiles, L),
                          np.stack([ref.heights for ref, _ in want]))
    assert got.colors.tolist() == [[ref.events[v][1] for v in vertices] for ref, _ in want]
    if bridge:
        assert len(enumerate_bridge(params, max_nodes=visited)) == len(want)
        with pytest.raises(CapacityError):
            enumerate_bridge(params, max_nodes=visited - 1)


@pytest.mark.parametrize("bridge", [True, False])
@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("colored", [True, False])
@pytest.mark.parametrize("mode", ["reflecting", "absorbing"])
@pytest.mark.parametrize("L", [3, 5])
def test_frontier_matches_recursion(L, mode, colored, p, bridge):
    _assert_matches_recursion(ModelParams(L=L, p=p, boundary_mode=mode, colored=colored), bridge)


@pytest.mark.parametrize("mode,colored", [("absorbing", False), ("reflecting", True)])
def test_frontier_matches_recursion_L7(mode, colored):
    _assert_matches_recursion(ModelParams(L=7, p=0.5, boundary_mode=mode, colored=colored))


def test_capacity_guard_threshold():
    # the root plus every trajectory alive after each slice: 27,848 nodes
    params = ModelParams(L=7, p=0.5, colored=True)
    assert len(enumerate_bridge(params, max_nodes=27_848)) == 8_481
    with pytest.raises(CapacityError):
        enumerate_bridge(params, max_nodes=27_847)


def test_step_checks_a_child_count_past_int64():
    # 40 sites of 3 kept branches give 3**40 children, which wraps an int64 product negative;
    # the cap still trips, before the step builds anything
    frontier = exact.Frontier(np.zeros(1, dtype=np.intp), np.zeros((1, 42), dtype=np.int8),
                              np.zeros((1, 42), dtype=np.uint8))
    branches = np.zeros((1, 40, 3), dtype=[("delta", np.int8), ("color", np.uint8)])
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="too many children"):
            frontier.step(branches, np.ones((1, 40, 3), dtype=bool), np.arange(1, 41), 1_000,
                          "too many children")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    assert frontier.sizes == [1] and frontier.steps == []


def test_site_labels_match_the_reference_shapes():
    # every profile of the L = 7 walk: the shape of bridge_reference.local_shape, a peak at
    # h <= 1 as the floor, and a slope named by the neighbour it stands above
    L = 7
    profiles = np.unique(enumerate_bridge(ModelParams(L=L, p=0.5)).edges[0], axis=0)
    sites = np.arange(1, L + 1)
    codes = exact.site_labels(profiles, sites)
    for prof, row in zip(profiles.tolist(), codes.tolist()):
        for i, code in zip(sites.tolist(), row):
            shape = local_shape(prof[i - 1] - prof[i], prof[i + 1] - prof[i])
            if shape == "peak" and prof[i] <= 1:
                shape = "floor"
            elif shape == "slope":
                shape = "slope_up" if prof[i] > prof[i - 1] else "slope_down"
            assert exact.LABELS[code] == shape, (prof, i)
    assert len(profiles) == 14 and set(codes.ravel().tolist()) == set(range(len(exact.LABELS)))


@pytest.mark.parametrize("L,colored", [(7, False), (5, True)])
def test_bridge_set_does_not_depend_on_p(L, colored):
    # for 0 < p < 1 every branch has positive probability, so only the weights move with p
    runs = [enumerate_bridge(ModelParams(L=L, p=p, boundary_mode="absorbing", colored=colored))
            for p in (0.25, 0.5, 0.8)]
    for bridges in runs[1:]:
        assert np.array_equal(bridges.profiles, runs[0].profiles)
        assert np.array_equal(bridges.colors, runs[0].colors)
        assert not np.array_equal(bridges.weights, runs[0].weights)


def test_matches_independent_oracle():
    for L in (3, 5):
        for p in (0.3, 0.7):
            for mode in ("reflecting", "absorbing"):
                params = ModelParams(L=L, p=p, boundary_mode=mode, colored=True)
                got = sorted(enumerate_bridge(params).weights)
                want = sorted(w for _, w in oracle_enumerate(L, p, mode, True))
                assert len(got) == len(want)
                assert got == pytest.approx(want, abs=1e-14)
                assert success_probability(params) == pytest.approx(
                    oracle_success(L, p, mode, True), abs=1e-14)


def test_persistence_round_trip(tmp_path):
    params = ModelParams(L=3, p=0.5, boundary_mode="absorbing", colored=True)
    state = build_state(params)
    path = tmp_path / "state.bin"
    save_state(state, path)
    loaded = load_state(path)
    assert loaded.params == params.with_(seed=0)
    assert loaded.amplitudes == state.amplitudes
    text = export_state_text(state)
    assert len(text.splitlines()) == len(state)
    assert text == export_state_text(loaded)
    for mode in ("absorbing", "reflecting"):  # the empty state of either mode
        empty = params.with_(boundary_mode=mode)
        save_state(SparseState(np.zeros((0, key_length(empty)), dtype=np.uint8), np.zeros(0),
                               empty), path)
        assert load_state(path).amplitudes == {}
        assert load_state(path).params == empty


def test_empty_state_saves_and_exports_in_little_memory(tmp_path):
    # an empty L = 2001 colored state has 1,001,501 key columns and no row to sort
    params = ModelParams(L=2001, p=0.5, colored=True)
    state = SparseState(np.zeros((0, key_length(params)), dtype=np.uint8), np.zeros(0), params)
    tracemalloc.start()
    try:
        save_state(state, tmp_path / "empty.bin")
        assert export_state_text(state) == ""
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_header_only_state_file_loads_without_building_the_lattice(tmp_path):
    # a count-0 header (version 1, reflecting, colored) holds no key to check, so its
    # L = 2001 costs nothing
    path = tmp_path / "empty.bin"
    path.write_bytes(b"DEQS" + struct.pack("<HIdBBQ", 1, 2001, 0.5, 0, 1, 0))
    start = time.perf_counter()
    loaded = load_state(path)
    assert time.perf_counter() - start < 1.0
    assert len(loaded) == 0 and loaded.params == ModelParams(L=2001, p=0.5, colored=True)


@pytest.mark.parametrize("params", [ModelParams(L=5, p=0.6, boundary_mode="absorbing"),
                                    ModelParams(L=7, p=0.5, colored=False)])
def test_persistence_keeps_keys_and_amplitudes_in_sorted_order(tmp_path, params):
    state = build_state(params)
    path = tmp_path / "state.bin"
    save_state(state, path)
    loaded = load_state(path)
    order = sorted(range(len(state)), key=lambda n: state.keys[n].tobytes())
    assert order != list(range(len(state)))  # build order is not sorted order
    assert np.array_equal(loaded.keys, state.keys[order])
    assert loaded.amps.tolist() == state.amps[order].tolist()


def test_amplitudes_view_is_the_arrays_in_build_order():
    from depevap.seqgen import run_generation

    params = ModelParams(L=5, p=0.7, colored=True)
    for state in (build_state(params), build_state(params.with_(boundary_mode="absorbing")),
                  run_generation(params)[0]):
        assert state.keys.shape == (len(state), key_length(state.params))
        assert state.keys.dtype == np.uint8 and state.amps.dtype == np.float64
        view = state.amplitudes
        assert list(view.items()) == list(zip(map(bytes, state.keys), state.amps.tolist()))
        assert state.amplitudes is view  # built once, on first read


def test_load_state_rejects_damaged_files(tmp_path):
    params = ModelParams(L=3, p=0.5, colored=True)
    path = tmp_path / "state.bin"
    save_state(build_state(params), path)
    data = path.read_bytes()
    damaged = tmp_path / "damaged.bin"
    for cut in range(len(data)):
        damaged.write_bytes(data[:cut])
        with pytest.raises(InvalidParameterError):
            load_state(damaged)
    for extra in (b"\x00", b"abc", data[-16:]):
        damaged.write_bytes(data + extra)
        with pytest.raises(InvalidParameterError):
            load_state(damaged)
    # a mode byte of 7 or a colored byte of 9, each of which used to load as 1
    flags = len(b"DEQS") + struct.calcsize("<HId")  # magic, version, L, p, then mode, colored
    for at, bad in ((flags, 7), (flags + 1, 9)):
        damaged.write_bytes(data[:at] + bytes([bad]) + data[at + 1:])
        with pytest.raises(InvalidParameterError, match="flags"):
            load_state(damaged)
    # files of the right length with a damaged entry, each of which used to load
    width = key_length(params) + 8
    body = len(data) - 3 * width
    entry = lambda n: data[body + n * width:body + (n + 1) * width]

    def replace(n, new):
        damaged.write_bytes(data[:body + n * width] + new + data[body + (n + 1) * width:])
        return damaged

    with pytest.raises(InvalidParameterError, match="ascend"):
        load_state(replace(2, entry(1)))  # a duplicated entry
    with pytest.raises(InvalidParameterError, match="ascend"):
        load_state(replace(0, entry(2)))
    key = bytearray(entry(1))
    key[0] ^= 1 << 5  # spin (1, 1): Gauss's law fails
    with pytest.raises(InvalidParameterError, match="invalid key"):
        load_state(replace(1, bytes(key)))
    for bad in (math.nan, math.inf):
        with pytest.raises(InvalidParameterError, match="finite"):
            load_state(replace(1, entry(1)[:-8] + struct.pack("<d", bad)))
    assert load_state(replace(1, entry(1))).amplitudes == load_state(path).amplitudes


def test_kept_layout_is_built_only_on_a_miss():
    exact._KEPT.clear()
    built = []

    def build(layout):
        def make():
            assert exact._KEPT == []  # the kept layout is dropped before the next is built
            built.append(layout)
            return layout
        return make

    assert exact._kept(("profiles", 5), build("a")) == "a"
    assert exact._kept(("profiles", 5), build("b")) == "a"  # a hit does not build
    assert exact._kept(("profiles", 7), build("c")) == "c"
    assert built == ["a", "c"] and exact._KEPT == [(("profiles", 7), "c")]
    exact._KEPT.clear()

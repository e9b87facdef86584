import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bridge_reference import bridge_records, trajectory_weight
from depevap import ModelParams
from depevap.codec import (
    KINDS,
    LatticeConfig,
    canonical_key,
    colored_area,
    decode_config,
    decode_keys,
    encode_trajectory,
    heights_to_spins,
    key_bytes,
    key_length,
    key_to_config,
    pack_values,
    profiles_to_heights,
    site_order,
    spin_sites,
    unpack_keys,
    vertex_sites,
)
from depevap.entropy import schmidt_spectrum
from depevap.errors import DecodeError, EncodeError, InvalidParameterError
from depevap.exact import SparseState, build_state, enumerate_bridge, load_state, save_state
from depevap.hamiltonian import sector_keys
from depevap.surface import horizon_profile


def test_round_trip_exhaustive_L3():
    for params in (ModelParams(L=3, p=0.6, boundary_mode=mode, colored=colored)
                   for mode in ("reflecting", "absorbing") for colored in (True, False)):
        for traj, w in bridge_records(params):
            config = encode_trajectory(traj, params)
            back = decode_config(config, params)
            assert np.array_equal(back.heights, traj.heights)
            assert back.events == traj.events
            assert trajectory_weight(back, params) == pytest.approx(w, abs=1e-15)
            key = canonical_key(config)
            assert len(key) == key_length(params)
            config2 = key_to_config(key, params)
            assert config2.spins == config.spins and config2.colors == config.colors
            # the flat values in site_order are the layout both conversions build on
            values = unpack_keys([key], params.L, params.colored)[0].tolist()
            sites = site_order(params.L, params.colored)
            assert len(values) == len(sites)
            assert values == [config.spins[s[1:]] if s[0] == "s" else config.colors[s[1:]]
                              for s in sites]
            assert pack_values([values], params.L, params.colored).tobytes() == key


@pytest.mark.parametrize("L", [5, 7])
def test_round_trip_randomized(L):
    # keys packed from the bridge arrays decode to their heights and colors and re-encode
    params = ModelParams(L=L, p=0.45, boundary_mode="reflecting", colored=True)
    bridges = enumerate_bridge(params)
    rng = np.random.default_rng(L)
    picks = rng.choice(len(bridges), size=min(60, len(bridges)), replace=False)
    values = np.hstack([heights_to_spins(bridges.heights[picks], L), bridges.colors[picks]])
    for n, key in zip(picks, key_bytes(pack_values(values, L, True))):
        back = decode_config(key_to_config(key, params), params)
        assert np.array_equal(back.heights, bridges.heights[n])
        assert [back.events[v][1] for v in vertex_sites(L)] == bridges.colors[n].tolist()
        assert canonical_key(encode_trajectory(back, params)) == key


def test_keys_injective_L3():
    params = ModelParams(L=3, p=0.5, colored=True)
    keys = [canonical_key(encode_trajectory(t, params)) for t, _ in bridge_records(params)]
    assert len(set(keys)) == len(keys)


def test_gauss_residual_examples():
    # Gauss's residual (left spin pair sum minus right pair sum) vanishes on bridges
    params = ModelParams(L=3, p=0.5, colored=True)
    raised = [t for t, _ in bridge_records(params) if t.events[(2, 1)][0] == "deposit"][0]
    config = encode_trajectory(raised, params)
    assert [config.spins[s] for s in ((1, 0), (1, 1), (2, 0), (2, 1))] == [1, 1, 1, 1]
    decode_config(config, params)
    # spin (1, 1) is the left upper spin of vertex (2, 1), the first it breaks
    config.spins[(1, 1)] ^= 1
    with pytest.raises(DecodeError) as err:
        decode_config(config, params)
    assert (err.value.kind, err.value.location) == ("gauss", (2, 1))


def test_decode_flags_flipped_spin():
    params = ModelParams(L=3, p=0.5, colored=True)
    traj = bridge_records(params)[0][0]
    config = encode_trajectory(traj, params)
    config.spins[(1, 1)] ^= 1
    with pytest.raises(DecodeError) as err:
        decode_config(config, params)
    assert err.value.kind == "gauss"


def test_decode_flags_all_up():
    params = ModelParams(L=3, p=0.5, colored=True)
    config = LatticeConfig(L=3, colored=True)
    for s in spin_sites(3):
        config.spins[s] = 1
    for v in vertex_sites(3):
        config.colors[v] = 1
    with pytest.raises(DecodeError) as err:
        decode_config(config, params)
    assert err.value.kind == "boundary"


def test_decode_flags_color_violation():
    params = ModelParams(L=3, p=0.5, colored=True)
    flat = bridge_records(params.with_(p=0.0))[0][0]
    config = encode_trajectory(flat, params)
    config.colors[(2, 1)] = 1  # no-change vertex must stay 0
    with pytest.raises(DecodeError) as err:
        decode_config(config, params)
    assert err.value.kind == "color"


def test_decode_flags_color_mismatch():
    params = ModelParams(L=3, p=0.5, colored=True)
    raised = [t for t, _ in bridge_records(params) if t.events[(2, 1)] == ("deposit", 1)][0]
    config = encode_trajectory(raised, params)
    config.colors[(2, 3)] = 2  # evaporation recolored away from its pair
    with pytest.raises(DecodeError) as err:
        decode_config(config, params)
    assert err.value.kind == "color"


def test_encode_rejects_non_bridge():
    params = ModelParams(L=3, p=0.5, colored=True)
    traj = bridge_records(params)[0][0]
    bad = traj
    bad.heights[4][2] = 2  # ends above the horizon
    with pytest.raises(EncodeError):
        encode_trajectory(bad, params)


def test_zigzag_profiles():
    # the decoded profile after slice 0 is the horizon; slice 1 may raise site 2
    params = ModelParams(L=3, p=0.5, colored=True)
    for traj, _ in bridge_records(params):
        prof = decode_keys([canonical_key(encode_trajectory(traj, params))], params).profiles[0]
        assert prof[0].tolist() == horizon_profile(3).tolist()
        raised = traj.events[(2, 1)][0] == "deposit"
        assert prof[1].tolist() == ([0, 1, 2, 1, 0] if raised else [0, 1, 0, 1, 0])


def test_colored_area_examples():
    assert colored_area([0, 1, 0, 1, 0]) == (0, 0)
    assert colored_area([0, 1, 2, 1, 0]) == (2, 1)
    assert colored_area([0, 1, 2, 3, 2, 1, 0]) == (6, 3)


def test_colored_area_matches_stack_replay():
    # area parity and equality with the pending-pair count from replaying events
    params = ModelParams(L=5, p=0.7, colored=True)
    trajs = [traj for traj, _ in bridge_records(params)]
    decoded = decode_keys([canonical_key(encode_trajectory(t, params)) for t in trajs], params)
    for traj, profiles in zip(trajs, decoded.profiles):
        for cut, prof in enumerate(profiles):
            A, n_pairs = colored_area(prof)
            assert A % 2 == 0
            pending = 0
            for t in range(1, cut + 1):
                for i in range(1, 6):
                    if (i + t) % 2 == 1:
                        kind = traj.events[(i, t)][0]
                        pending += {"deposit": 1, "evaporate": -1}.get(kind, 0)
            assert n_pairs == pending


def test_key_errors():
    params = ModelParams(L=3, p=0.5, colored=True)
    with pytest.raises(DecodeError):
        key_to_config(b"\x00", params)
    key = canonical_key(encode_trajectory(bridge_records(params)[0][0], params))
    with pytest.raises(DecodeError):
        key_to_config(key[:-1], params)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_random_spin_flip_never_decodes(seed):
    params = ModelParams(L=5, p=0.5, colored=False)
    trajs = bridge_records(params)
    rng = np.random.default_rng(seed)
    traj = trajs[rng.integers(len(trajs))][0]
    config = encode_trajectory(traj, params)
    sites = spin_sites(5)
    site = sites[rng.integers(len(sites))]
    config.spins[site] ^= 1
    with pytest.raises(DecodeError):
        decode_config(config, params)


@pytest.mark.parametrize("mode", ["reflecting", "absorbing"])
@pytest.mark.parametrize("colored", [True, False])
def test_array_codec_matches_one_key_functions(mode, colored):
    # keys packed from the bridge arrays, as build_state packs them, agree key
    # by key with the one-key wrappers on the reference records
    params = ModelParams(L=5, p=0.6, boundary_mode=mode, colored=colored)
    bridges = enumerate_bridge(params)
    values = heights_to_spins(bridges.heights, params.L)
    if colored:
        values = np.hstack([values, bridges.colors])
    keys = key_bytes(pack_values(values, params.L, colored))
    assert values.shape == (len(keys), len(site_order(params.L, colored)))
    assert unpack_keys(keys, params.L, colored).tolist() == values.tolist()
    decoded = decode_keys(keys, params)
    for n, ((traj, _), key) in enumerate(zip(bridge_records(params), keys)):
        assert canonical_key(encode_trajectory(traj, params)) == key
        config = key_to_config(key, params)
        assert canonical_key(config) == key
        back = decode_config(config, params)
        assert np.array_equal(back.heights, traj.heights)
        assert [KINDS[k] for k in decoded.kinds[n].tolist()] == \
            [traj.events[v][0] for v in vertex_sites(params.L)]
        assert np.array_equal(profiles_to_heights(decoded.profiles[n:n + 1], params.L)[0],
                              traj.heights)


def test_unpack_rejects_padding_bits():
    # 36 spins leave 4 padding bits in the fifth byte at L = 5
    params = ModelParams(L=5, p=0.5, colored=True)
    key = canonical_key(encode_trajectory(bridge_records(params)[0][0], params))
    bad = bytearray(key)
    bad[4] |= 0x80
    with pytest.raises(DecodeError) as err:
        key_to_config(bytes(bad), params)
    assert err.value.kind == "key"


def test_reflecting_floor_rejects_sub_horizon_keys(tmp_path):
    # the one L = 5 uncolored sector key dipping below h = 0 is legal only under absorbing rules
    absorbing = ModelParams(L=5, p=0.5, boundary_mode="absorbing", colored=False)
    reflecting = absorbing.with_(boundary_mode="reflecting")
    keys = sector_keys(absorbing)
    (dip,) = [key for key, prof in zip(keys, decode_keys(keys, absorbing).profiles) if prof.min() < 0]
    decode_config(key_to_config(dip, absorbing), absorbing)
    state = build_state(reflecting)
    damaged = SparseState({dip if key == min(state.amplitudes) else key: amp
                           for key, amp in state.amplitudes.items()}, reflecting)
    for decode in (lambda: decode_keys([dip], reflecting), lambda: schmidt_spectrum(damaged, 2),
                   lambda: decode_config(key_to_config(dip, reflecting), reflecting)):
        with pytest.raises(DecodeError) as err:
            decode()
        assert err.value.kind == "floor"
    save_state(damaged, tmp_path / "state.bin")
    with pytest.raises(InvalidParameterError, match="invalid key"):
        load_state(tmp_path / "state.bin")


# (L, colored, sector keys, rejected by decode_config under reflecting and absorbing
# rules), counted when the reference weight rather than decode_keys refused dips
SECTOR_VERDICTS = [(5, False, 18, 1, 0), (5, True, 237, 180, 180), (7, False, 868, 178, 0),
                   (7, True, 175_969, 167_488, 167_488)]


@pytest.mark.parametrize("L,colored,count,reflecting,absorbing", SECTOR_VERDICTS)
def test_decode_rejects_the_pinned_sector_keys(L, colored, count, reflecting, absorbing):
    keys = sector_keys(ModelParams(L=L, p=0.5, boundary_mode="absorbing", colored=colored))
    assert len(keys) == count
    stride = 1 if count < 1000 else 997  # decode_config takes 0.3 ms a key: sample L = 7 colored
    for mode, rejected in (("reflecting", reflecting), ("absorbing", absorbing)):
        params = ModelParams(L=L, p=0.5, boundary_mode=mode, colored=colored)
        kinds = {}
        for key in keys[::stride]:
            try:
                decode_config(key_to_config(key, params), params)
            except DecodeError as err:
                kinds[key] = err.kind
        assert set(kinds.values()) <= {"color" if colored else "floor"}
        if stride == 1:
            assert len(kinds) == rejected
        else:  # it accepts the bridges' keys, which decode in one pass, and no others
            support = build_state(params).amplitudes
            decode_keys(sorted(support), params)
            assert count - len(support) == rejected
            assert all((key in kinds) != (key in support) for key in keys[::stride])

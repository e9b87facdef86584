import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from depevap import ModelParams
from depevap.codec import (
    KINDS,
    LatticeConfig,
    canonical_key,
    colored_area,
    decode_config,
    decode_keys,
    encode_trajectories,
    encode_trajectory,
    gauss_residual,
    key_length,
    key_to_config,
    key_to_values,
    pack_values,
    site_order,
    spin_sites,
    unpack_keys,
    values_to_key,
    vertex_sites,
    zigzag_profile,
)
from depevap.errors import DecodeError, EncodeError, InvalidParameterError
from depevap.exact import enumerate_bridge
from depevap.surface import horizon_profile


def params_grid(L):
    for mode in ("reflecting", "absorbing"):
        for colored in (True, False):
            yield ModelParams(L=L, p=0.6, boundary_mode=mode, colored=colored)


def test_round_trip_exhaustive_L3():
    for params in params_grid(3):
        for traj, w in enumerate_bridge(params):
            config = encode_trajectory(traj, params)
            back = decode_config(config, params)
            assert np.array_equal(back.heights, traj.heights)
            assert back.events == traj.events
            assert back.weight == pytest.approx(w, abs=1e-15)
            key = canonical_key(config)
            assert len(key) == key_length(params)
            config2 = key_to_config(key, params)
            assert config2.spins == config.spins and config2.colors == config.colors
            # the flat-values pair is the layout both conversions build on
            values = key_to_values(key, params.L, params.colored)
            sites = site_order(params.L, params.colored)
            assert len(values) == len(sites)
            assert values == [config.spins[s[1:]] if s[0] == "s" else config.colors[s[1:]]
                              for s in sites]
            assert values_to_key(values, params.L, params.colored) == key


@pytest.mark.parametrize("L", [5, 7])
def test_round_trip_randomized(L):
    params = ModelParams(L=L, p=0.45, boundary_mode="reflecting", colored=True)
    trajs = enumerate_bridge(params)
    rng = np.random.default_rng(L)
    picks = rng.choice(len(trajs), size=min(60, len(trajs)), replace=False)
    for n in picks:
        traj, w = trajs[n]
        config = encode_trajectory(traj, params)
        back = decode_config(config, params)
        assert np.array_equal(back.heights, traj.heights)
        assert back.events == traj.events
        key = canonical_key(config)
        assert key_to_config(key, params).spins == config.spins


def test_keys_injective_L3():
    params = ModelParams(L=3, p=0.5, colored=True)
    keys = [canonical_key(encode_trajectory(t, params)) for t, _ in enumerate_bridge(params)]
    assert len(set(keys)) == len(keys)


def test_gauss_residual_examples():
    params = ModelParams(L=3, p=0.5, colored=True)
    flat = encode_trajectory(enumerate_bridge(params.with_(p=0.0))[0][0], params.with_(p=0.0))
    assert all(gauss_residual(flat, v) == 0 for v in vertex_sites(3))
    # all four spins up around a vertex is Gauss-valid (a deposition)
    raised = [t for t, _ in enumerate_bridge(params)
              if t.events[(2, 1)][0] == "deposit"][0]
    config = encode_trajectory(raised, params)
    assert gauss_residual(config, (2, 1)) == 0
    # one flipped spin breaks the residual at an adjacent vertex
    config.spins[(1, 1)] ^= 1
    assert gauss_residual(config, (2, 1)) != 0


def test_decode_flags_flipped_spin():
    params = ModelParams(L=3, p=0.5, colored=True)
    traj = enumerate_bridge(params)[0][0]
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
    flat = enumerate_bridge(params.with_(p=0.0))[0][0]
    config = encode_trajectory(flat, params)
    config.colors[(2, 1)] = 1  # no-change vertex must stay 0
    with pytest.raises(DecodeError) as err:
        decode_config(config, params)
    assert err.value.kind == "color"


def test_decode_flags_color_mismatch():
    params = ModelParams(L=3, p=0.5, colored=True)
    raised = [t for t, _ in enumerate_bridge(params)
              if t.events[(2, 1)] == ("deposit", 1)][0]
    config = encode_trajectory(raised, params)
    config.colors[(2, 3)] = 2  # evaporation recolored away from its pair
    with pytest.raises(DecodeError) as err:
        decode_config(config, params)
    assert err.value.kind == "color"


def test_encode_rejects_non_bridge():
    params = ModelParams(L=3, p=0.5, colored=True)
    traj = enumerate_bridge(params)[0][0]
    bad = traj
    bad.heights[4][2] = 2  # ends above the horizon
    with pytest.raises(EncodeError):
        encode_trajectory(bad, params)


def test_zigzag_profiles():
    params = ModelParams(L=3, p=0.5, colored=True)
    for traj, _ in enumerate_bridge(params):
        config = encode_trajectory(traj, params)
        prof0 = zigzag_profile(config, 0)
        assert prof0.tolist() == horizon_profile(3).tolist()
        prof1 = zigzag_profile(config, 1)
        if traj.events[(2, 1)][0] == "deposit":
            assert prof1.tolist() == [0, 1, 2, 1, 0]
        else:
            assert prof1.tolist() == [0, 1, 0, 1, 0]
    with pytest.raises(InvalidParameterError):
        zigzag_profile(config, 99)


def test_colored_area_examples():
    assert colored_area([0, 1, 0, 1, 0]) == (0, 0)
    assert colored_area([0, 1, 2, 1, 0]) == (2, 1)
    assert colored_area([0, 1, 2, 3, 2, 1, 0]) == (6, 3)


def test_colored_area_matches_stack_replay():
    # area parity and equality with the pending-pair count from replaying events
    params = ModelParams(L=5, p=0.7, colored=True)
    for traj, _ in enumerate_bridge(params):
        config = encode_trajectory(traj, params)
        for cut in range(0, 6):
            prof = zigzag_profile(config, cut)
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
    key = canonical_key(encode_trajectory(enumerate_bridge(params)[0][0], params))
    with pytest.raises(DecodeError):
        key_to_config(key[:-1], params)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_random_spin_flip_never_decodes(seed):
    params = ModelParams(L=5, p=0.5, colored=False)
    trajs = enumerate_bridge(params)
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
    # the bulk calls agree key by key with the one-key wrappers and the bridges
    params = ModelParams(L=5, p=0.6, boundary_mode=mode, colored=colored)
    trajs = [traj for traj, _ in enumerate_bridge(params)]
    keys = encode_trajectories(trajs, params)
    values = unpack_keys(keys, params.L, colored)
    assert values.shape == (len(keys), len(site_order(params.L, colored)))
    assert pack_values(values, params.L, colored).tobytes() == b"".join(keys)
    decoded = decode_keys(keys, params)
    for n, (traj, key) in enumerate(zip(trajs, keys)):
        assert values[n].tolist() == key_to_values(key, params.L, colored)
        config = key_to_config(key, params)
        assert canonical_key(config) == key
        back = decode_config(config, params)
        assert np.array_equal(back.heights, traj.heights)
        assert [KINDS[k] for k in decoded.kinds[n].tolist()] == \
            [traj.events[v][0] for v in vertex_sites(params.L)]
        for cut in range(params.L + 1):
            assert decoded.profiles[n, cut].tolist() == zigzag_profile(traj.heights, cut).tolist()


def test_unpack_rejects_padding_bits():
    # 36 spins leave 4 padding bits in the fifth byte at L = 5
    params = ModelParams(L=5, p=0.5, colored=True)
    key = encode_trajectories([enumerate_bridge(params)[0][0]], params)[0]
    bad = bytearray(key)
    bad[4] |= 0x80
    with pytest.raises(DecodeError) as err:
        key_to_config(bytes(bad), params)
    assert err.value.kind == "key"

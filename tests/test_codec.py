import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bridge_reference import bridge_colors, bridge_profiles, bridge_records, trajectory_weight
from depevap import ModelParams
from depevap.codec import (
    KINDS,
    DecodedKeys,
    LatticeConfig,
    TrajectoryRecord,
    _spin_profiles,
    canonical_key,
    decode_config,
    decode_keys,
    encode_trajectory,
    key_length,
    key_to_config,
    pack_values,
    pending_colors,
    pending_pairs,
    profiles_to_heights,
    profiles_to_spins,
    site_order,
    spin_sites,
    unpack_keys,
    vertex_sites,
)
from depevap.entropy import _sector_labels, schmidt_spectrum
from depevap.errors import DecodeError, EncodeError, InvalidParameterError
from depevap.exact import SparseState, build_state, enumerate_bridge, load_state, save_state
from depevap.hamiltonian import sector_keys
from depevap.surface import horizon_profile
from pair_reference import pair_slots, slot_labels


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
    profiles, colors = bridge_profiles(bridges), bridge_colors(bridges)
    rng = np.random.default_rng(L)
    picks = rng.choice(len(bridges), size=min(60, len(bridges)), replace=False)
    values = np.hstack([profiles_to_spins(profiles[picks], L), colors[picks]])
    for n, key in zip(picks, map(bytes, pack_values(values, L, True))):
        back = decode_config(key_to_config(key, params), params)
        assert np.array_equal(back.heights, profiles_to_heights(profiles, L)[n])
        assert [back.events[v][1] for v in vertex_sites(L)] == colors[n].tolist()
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


@pytest.mark.parametrize("t, h, message", [
    (0, 2, "does not start and end at the horizon"),
    (2, 4, r"slope violation across spin \(1, 1\): dh = 3"),  # 3 above its neighbours
], ids=["starts-off-horizon", "slope-violation"])
def test_encode_rejects_broken_history(t, h, message):
    # site 2 of the flat L = 3 bridge moved to height h at time t
    params = ModelParams(L=3, p=0.5, colored=True)
    flat = [r for r, _ in bridge_records(params) if r.events[(2, 1)][0] == "no_change"][0]
    flat.heights[t][2] = h
    with pytest.raises(EncodeError, match=message):
        encode_trajectory(flat, params)


def test_zigzag_profiles():
    # the decoded profile after slice 0 is the horizon; slice 1 may raise site 2
    params = ModelParams(L=3, p=0.5, colored=True)
    for traj, _ in bridge_records(params):
        prof = decode_keys([canonical_key(encode_trajectory(traj, params))], params).profiles[0]
        assert prof[0].tolist() == horizon_profile(3).tolist()
        raised = traj.events[(2, 1)][0] == "deposit"
        assert prof[1].tolist() == ([0, 1, 2, 1, 0] if raised else [0, 1, 0, 1, 0])


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
    values = profiles_to_spins(bridge_profiles(bridges), params.L)
    if colored:
        values = np.hstack([values, bridge_colors(bridges)])
    keys = list(map(bytes, pack_values(values, params.L, colored)))
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


def _cumsum_profiles(keys, L, colored):
    """Zigzag profiles (N, L+1, L+2) int64 of keys: each spin row's +-1 steps, signed by
    its plaquette pairs' orientation, summed from the pinned column 0."""
    spins = unpack_keys(keys, L, colored)[:, :(L + 1) ** 2].reshape(-1, L + 1, L + 1)
    y, x = np.indices((L + 1, L + 1))
    steps = (2 * spins.astype(np.int64) - 1) * np.where((x + y) % 2 == 0, 1, -1)
    return np.concatenate([np.zeros((len(spins), L + 1, 1), dtype=np.int64),
                           np.cumsum(steps, axis=2)], axis=2)


@pytest.mark.parametrize("L", [3, 5, 7])
@pytest.mark.parametrize("colored", [True, False])
def test_decoded_profiles_are_int8(L, colored):
    # heights lie within +-(L + 1), so decoding keeps them in the narrowest signed dtype
    # that holds that: int8 up to L = 125; the sector keys add dips below the horizon
    params = ModelParams(L=L, p=0.5, boundary_mode="absorbing", colored=colored)
    keys = build_state(params).keys
    if not colored:
        keys = np.vstack([keys, sector_keys(params)])
    decoded = decode_keys(keys, params)
    assert decoded.profiles.dtype == np.int8
    assert np.array_equal(decoded.profiles, _cumsum_profiles(keys, L, colored))
    assert colored or L == 3 or decoded.profiles.min() < 0  # L = 3 has no room for a dip


def test_decoded_profiles_widen_past_int8():
    # at L = 127 a height may reach +-128, one past int8: the horizon-only history decodes
    # to int16
    L = 127
    params = ModelParams(L=L, p=0.5, colored=False)
    stack = np.tile(horizon_profile(L), (1, L + 1, 1))
    keys = pack_values(profiles_to_spins(stack, L), L, False)
    decoded = decode_keys(keys, params)
    assert decoded.profiles.dtype == np.int16
    assert np.array_equal(decoded.profiles, stack)
    assert np.array_equal(decoded.profiles, _cumsum_profiles(keys, L, False))


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
    keys = state.keys.copy()
    keys[list(state.amplitudes).index(min(state.amplitudes))] = dip
    damaged = SparseState(keys, state.amps, reflecting)
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
        for key in map(bytes, keys[::stride]):
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
            assert all((key in kinds) != (key in support) for key in map(bytes, keys[::stride]))


# ---------------------------------------------------------------------------
# the pending-pair replay against the per-level slot reference


def _history_key(L, heights, recolor=None):
    """The colored key of a height history (heights[t][i], i + t even), and its vertices.

    A deposit pushes g onto a site's empty pile and r onto the others,
    and an evaporation takes the color of the pair it removes (r off an
    empty pile); the vertex `recolor` gets the other color.  Returns
    (key, {vertex: (kind, color)}).
    """
    heights = np.asarray(heights)
    piles = {i: [] for i in range(1, L + 1)}
    events = {}
    for i, t in vertex_sites(L):  # row-major: each site's vertices in time order
        step = heights[t + 1][i] - heights[t - 1][i]
        if step > 0:
            events[i, t] = ("deposit", 1 if piles[i] else 2)
            piles[i].append(events[i, t][1])
        elif step < 0:
            events[i, t] = ("evaporate", piles[i].pop() if piles[i] else 1)
    if recolor is not None:
        kind, color = events[recolor]
        events[recolor] = (kind, 3 - color)
    params = ModelParams(L=L, p=0.5, colored=True)
    key = canonical_key(encode_trajectory(TrajectoryRecord(L, heights, events), params))
    return key, events


def _tent(L):
    """The highest bridge, min(i, L + 1 - i, t, L + 1 - t): site (L + 1) // 2 piles up
    (L + 1) // 4 pairs."""
    t, i = np.indices((L + 2, L + 2))
    return np.minimum(np.minimum(i, L + 1 - i), np.minimum(t, L + 1 - t))


def _undecoded(keys, L):
    """DecodedKeys of colored keys without the color and floor checks."""
    values = unpack_keys(keys, L, True)
    return DecodedKeys(L, True, values, *_spin_profiles(values[:, :(L + 1) ** 2], L))


def _first_flags(mismatch):
    """Per key, the first flagged vertex, or -1."""
    return np.where(mismatch.any(axis=1), mismatch.argmax(axis=1), -1).tolist()


@pytest.mark.parametrize("mode", ["reflecting", "absorbing"])
@pytest.mark.parametrize("L", [3, 5, 7])
def test_pending_pairs_match_the_slot_reference(L, mode):
    # valid keys: nothing is flagged, every stack holds exactly the pairs its profile
    # leaves pending, and the labels at every cut are the slots'
    params = ModelParams(L=L, p=0.5, boundary_mode=mode, colored=True)
    decoded = decode_keys(build_state(params).keys, params)
    for cut in range(1, L):
        stacks, mismatch = pending_pairs(decoded, cut)
        assert not mismatch.any()
        depth = (decoded.profiles[:, cut] - np.arange(L + 2) % 2) // 2
        assert not (stacks.T >> depth).any()
        assert _sector_labels(decoded, cut) == slot_labels(decoded, cut), cut
    assert not pending_pairs(decoded, L)[1].any()


def test_pending_pairs_flag_the_slot_reference_vertex():
    # damaged keys: the sector keys' dips and recolorings, one recolored evaporation
    # and one evaporation with no pair beneath are flagged at the reference's first vertex
    L = 5
    params = ModelParams(L=L, p=0.5, boundary_mode="absorbing", colored=True)
    dip = np.tile(np.arange(L + 2) % 2, (L + 2, 1))  # the flat bridge: i % 2 at every t
    dip[3, 3] = -1  # site 3 evaporates from h = 1 at vertex (3, 2) and comes back at (3, 4)
    recolored, events = _history_key(L, _tent(L), recolor=(3, 4))
    assert events[3, 4][0] == "evaporate"
    keys = [recolored, _history_key(L, dip)[0]] + list(map(bytes, sector_keys(params)))
    want = _first_flags(pair_slots(_undecoded(keys, L), L)[1])
    assert _first_flags(pending_pairs(_undecoded(keys, L), L)[1].T) == want
    vertices = vertex_sites(L)
    assert [vertices[v] for v in want[:2]] == [(3, 4), (3, 2)]
    assert sum(v >= 0 for v in want) > 100


@pytest.mark.parametrize("L,dtype", [(35, np.uint16), (131, np.uint64), (261, object)])
def test_deep_piles_decode(L, dtype):
    # the tent piles (L + 1) // 4 pairs on its middle site, the oldest g: its stack takes the
    # narrowest unsigned dtype that holds them (a fixed uint32 loses that pair at L = 131),
    # and recoloring the evaporation that removes the oldest pair is flagged at that vertex
    params = ModelParams(L=L, p=0.5, colored=True)
    middle = (L + 1) // 2
    key, events = _history_key(L, _tent(L))
    decoded = decode_keys([key], params)
    assert pending_pairs(decoded, middle - 1)[0].dtype == dtype
    # the pile is whole after slice middle - 1: its oldest pair g, the others r
    assert pending_colors(decoded, middle - 1)[0][middle - 1] == (2,) + (1,) * ((L + 1) // 4 - 1)
    last = max(t for (i, t), (kind, _) in events.items() if i == middle and kind == "evaporate")
    bad, _ = _history_key(L, _tent(L), recolor=(middle, last))
    with pytest.raises(DecodeError) as err:
        decode_keys([bad], params)
    assert (err.value.kind, err.value.location) == ("color", (middle, last))

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bridge_reference import local_shape, site_branches, slice_outcomes
from depevap import ModelParams
from depevap.codec import profiles_to_heights, vertex_sites
from depevap.errors import InvalidParameterError
from depevap.exact import enumerate_bridge
from depevap.scaling import _spot_check
from depevap.surface import event_table, horizon_profile, slice_sites


def _sample_slice(profile, t, rng, params):
    """One sampled slice: each eligible site draws a branch of its event table."""
    out = np.array(profile, dtype=np.int64, copy=True)
    for i in slice_sites(params.L, t):
        u = rng.random()
        for new_h, _, _, prob in site_branches(profile[i], profile[i - 1], profile[i + 1], params):
            u -= prob
            if u < 0:
                break
        out[i] = new_h
    return out


def test_horizon_examples():
    assert horizon_profile(3).tolist() == [0, 1, 0, 1, 0]
    assert horizon_profile(5).tolist() == [0, 1, 0, 1, 0, 1, 0]
    assert horizon_profile(4).tolist() == [0, 1, 0, 1, 0, 1]  # even L: right wall at 1
    with pytest.raises(InvalidParameterError):
        horizon_profile(2)
    with pytest.raises(InvalidParameterError):
        horizon_profile(1)


def test_site_shape_examples():
    assert local_shape(1, 1) == "valley"
    assert local_shape(-1, -1) == "peak"
    assert local_shape(-1, 1) == local_shape(1, -1) == "slope"
    with pytest.raises(InvalidParameterError):
        local_shape(1, 3)


def _table(events):
    out = {}
    for _, kind, color, prob in events:
        name = kind if not color else f"{kind}_{color}"
        out[name] = out.get(name, 0.0) + prob
    return out


def test_event_distribution_examples():
    assert _table(event_table("valley", False, 0.6, False)) == pytest.approx(
        {"deposit_1": 0.3, "no_change": 0.7})
    assert _table(event_table("valley", False, 0.6, True)) == pytest.approx(
        {"deposit_1": 0.15, "deposit_2": 0.15, "no_change": 0.7})
    # evaporation is one branch; the stack resolves its color
    assert _table(event_table("peak", False, 0.6, True)) == pytest.approx(
        {"evaporate": 0.2, "no_change": 0.8})
    for p in (0.0, 0.3, 1.0):
        assert _table(event_table("peak", True, p, True)) == {"no_change": 1.0}
        assert _table(event_table("slope", False, p, True)) == {"no_change": 1.0}
    reflecting = ModelParams(L=5, p=0.6, boundary_mode="reflecting", colored=False)
    absorbing = reflecting.with_(boundary_mode="absorbing")
    assert _table(site_branches(1, 0, 0, reflecting)) == {"no_change": 1.0}
    assert _table(site_branches(1, 0, 0, absorbing)) == pytest.approx(
        {"evaporate": 0.2, "no_change": 0.8})
    assert _table(site_branches(3, 2, 2, reflecting)) == pytest.approx(
        {"evaporate": 0.2, "no_change": 0.8})
    with pytest.raises(InvalidParameterError):
        event_table("ridge", False, 0.5, True)


@settings(max_examples=80, deadline=None)
@given(
    shape=st.sampled_from(["valley", "peak", "slope"]),
    floor=st.booleans(),
    p=st.floats(min_value=0, max_value=1, allow_nan=False),
    colored=st.booleans(),
)
def test_event_probabilities_sum_to_one(shape, floor, p, colored):
    events = event_table(shape, floor, p, colored)
    assert all(prob >= 0 for *_, prob in events)
    assert math.fsum(prob for *_, prob in events) == pytest.approx(1.0, abs=1e-12)
    assert events[-1][1] == "no_change"


@settings(max_examples=60, deadline=None)
@given(
    h=st.integers(min_value=0, max_value=9),
    dl=st.sampled_from([-1, 1]),
    dr=st.sampled_from([-1, 1]),
    p=st.floats(min_value=0, max_value=1, allow_nan=False),
    mode=st.sampled_from(["reflecting", "absorbing"]),
    colored=st.booleans(),
)
def test_site_branches_sum_to_one(h, dl, dr, p, mode, colored):
    params = ModelParams(L=5, p=p, boundary_mode=mode, colored=colored)
    branches = site_branches(h, h + dl, h + dr, params)
    assert math.fsum(b[3] for b in branches) == pytest.approx(1.0, abs=1e-12)


def test_advance_slice_trivial_parity():
    # L=3 has no eligible site at odd parity: one unchanged outcome of weight 1
    params = ModelParams(L=3, p=0.5)
    horizon = tuple(horizon_profile(3).tolist())
    assert list(slice_outcomes(horizon, 2, params)) == [(horizon, 1.0, ())]


def test_advance_slice_p0_is_frozen():
    params = ModelParams(L=7, p=0.0)
    horizon = tuple(horizon_profile(7).tolist())
    rng = np.random.default_rng(1)
    prof = horizon
    for t in range(1, 40):
        assert [(new, w) for new, w, _ in slice_outcomes(prof, t, params)] == [(horizon, 1.0)]
        prof = tuple(_sample_slice(prof, t, rng, params).tolist())
    assert prof == horizon


def test_advance_slice_deterministic_and_valid():
    params = ModelParams(L=9, p=0.7, seed=11)
    runs = []
    for _ in range(2):
        rng = np.random.default_rng(params.seed)
        prof = horizon_profile(9)
        hist = []
        for t in range(1, 60):
            prof = _sample_slice(prof, t, rng, params)
            _spot_check(prof[:, None], 9)  # slope, parity and the reflecting floor
            hist.append(prof.tolist())
        runs.append(hist)
    assert runs[0] == runs[1]


def test_advance_slice_weight_covers_branches():
    # one eligible site at L=3: the three colored branch weights sum to 1
    params = ModelParams(L=3, p=0.6, colored=True)
    branches = site_branches(0, 1, 1, params)
    assert math.fsum(b[3] for b in branches) == pytest.approx(1.0)
    assert sorted(b[3] for b in branches) == pytest.approx([0.15, 0.15, 0.7])


def test_advance_slice_stack_resolution():
    # every evaporation takes the color of its site's most recent unmatched deposit
    params = ModelParams(L=5, p=0.6, colored=True)
    bridges = enumerate_bridge(params)
    for H, colors in zip(profiles_to_heights(bridges.profiles, 5).tolist(), bridges.colors.tolist()):
        stacks = {i: [] for i in range(1, 6)}
        for (i, t), color in zip(vertex_sites(5), colors):  # slice by slice
            kind = H[t + 1][i] - H[t - 1][i]
            if kind > 0:
                stacks[i].append(color)
            elif kind < 0:
                assert color == stacks[i].pop()
            else:
                assert color == 0
        assert not any(stacks.values())


def test_slice_sites_freezes_boundary():
    assert slice_sites(5, 1) == [2, 4]
    assert slice_sites(5, 2) == [3]
    assert slice_sites(3, 2) == []


def test_reflecting_soak_never_negative():
    # randomized soak; reflecting heights must stay nonnegative every slice
    # (the full 1e5-slice L=64 soak runs on the vectorized path in test_scaling)
    params = ModelParams(L=64, p=0.9)
    rng = np.random.default_rng(1234)
    prof = horizon_profile(64)
    for t in range(1, 2001):
        prof = _sample_slice(prof, t, rng, params)
        assert (prof >= 0).all()

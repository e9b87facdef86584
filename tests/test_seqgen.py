import math

import pytest

from depevap import ModelParams
from depevap.codec import decode_config, key_to_config
from depevap.errors import InvalidParameterError, UnsupportedModeError
from depevap.exact import build_state, success_probability
from depevap.seqgen import (
    apply_round,
    channel_branches,
    cooling_start,
    fidelity,
    init_emitter,
    local_channel,
    run_generation,
)


def test_init_emitter_markers_and_roundtrip():
    em = init_emitter(3)
    assert em.L == 3 and em.stacks == ((1, ()), (0, ()), (1, ()))
    with pytest.raises(InvalidParameterError):
        init_emitter(4)


@pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 0.75, 1.0])
@pytest.mark.parametrize("colored", [True, False])
def test_channel_columns_unit_norm(p, colored):
    table = local_channel(p, colored=colored)
    for label, elems in table.items():
        norm = math.fsum(a * a for _, _, _, a in elems)
        assert norm == pytest.approx(1.0, abs=1e-12), (label, p)


def test_channel_p0_and_slopes():
    table = local_channel(0.0, colored=True)
    valley = table[("valley",)]
    assert all(op[0] != "push" or amp == 0.0 for op, _, _, amp in valley)
    peak = table[("peak", 1)]
    evap = [amp for op, _, _, amp in peak if op[0] == "pop"]
    assert evap == [pytest.approx(math.sqrt(0.5))]
    up = table[("slope_up",)]
    assert up == [(("none",), (1, 0), 0, 1.0)]
    down = table[("slope_down",)]
    assert down == [(("none",), (0, 1), 0, 1.0)]


def test_channel_at_bottom_peak():
    table = local_channel(0.7, colored=True)
    bottom = table[("peak", None)]
    assert bottom == [(("none",), (1, 1), 0, 1.0)]


def test_cooling_channels_drop_deposits():
    table = local_channel(0.9, colored=True, cooling=True)
    assert table[("valley",)] == [(("none",), (0, 0), 0, 1.0)]
    peak = table[("peak", 2)]
    assert sorted(amp for _, _, _, amp in peak) == pytest.approx(
        [math.sqrt(0.5), math.sqrt(0.5)])


def test_boundary_channels():
    # even rounds emit the outermost spins up, and the spins next to them up
    # exactly when the adjacent interior site sits at height 0
    params = ModelParams(L=5, p=0.6, boundary_mode="reflecting", colored=True)
    joint = {(init_emitter(5).stacks, ()): 1.0}
    joint = apply_round(apply_round(joint, 1, 0.6, params), 2, 0.6, params)
    for stacks, record in joint:
        row, _ = record[-1]
        h2, h4 = stacks[1][0], stacks[3][0]
        assert (row[0], row[5]) == (1, 1)
        assert (row[1], row[4]) == (int(h2 == 0), int(h4 == 0))
    assert {stacks[1][0] for stacks, _ in joint} == {0, 2}


def test_apply_round_norm_and_branching():
    params = ModelParams(L=5, p=0.5, boundary_mode="reflecting", colored=True)
    joint = {(init_emitter(5).stacks, ()): 1.0}
    joint = apply_round(joint, 1, 0.5, params)
    # two valley sites, three branches each
    assert len(joint) == 9
    assert math.fsum(a * a for a in joint.values()) == pytest.approx(1.0, abs=1e-12)
    joint = apply_round(joint, 2, 0.5, params)
    assert math.fsum(a * a for a in joint.values()) == pytest.approx(1.0, abs=1e-12)


def test_apply_round_p0_single_branch():
    params = ModelParams(L=5, p=0.0, boundary_mode="reflecting", colored=True)
    joint = {(init_emitter(5).stacks, ()): 1.0}
    for n in (1, 2, 3, 4, 5):
        joint = apply_round(joint, n, 0.0, params)
    assert len(joint) == 1
    (stacks, record), amp = next(iter(joint.items()))
    assert stacks == init_emitter(5).stacks and amp == pytest.approx(1.0)


@pytest.mark.parametrize("L", [3, 5])
@pytest.mark.parametrize("p", [0.3, 0.5, 0.8])
@pytest.mark.parametrize("colored", [True, False])
def test_generation_matches_exact_state(L, p, colored):
    params = ModelParams(L=L, p=p, boundary_mode="reflecting", colored=colored)
    gen, success = run_generation(params)
    state = build_state(params)
    assert fidelity(gen, state) >= 1 - 1e-10
    assert success == pytest.approx(success_probability(params), abs=1e-12)


def test_generation_p0_product_state():
    params = ModelParams(L=5, p=0.0, boundary_mode="reflecting", colored=True)
    gen, success = run_generation(params)
    assert success == pytest.approx(1.0)
    assert len(gen) == 1


def test_generated_records_decode():
    params = ModelParams(L=5, p=0.6, boundary_mode="reflecting", colored=True)
    gen, _ = run_generation(params)
    for key in gen.amplitudes:
        decode_config(key_to_config(key, params), params)  # raises on any violation


def test_cooling_improves_success():
    params = ModelParams(L=5, p=0.8, boundary_mode="reflecting", colored=True)
    _, plain = run_generation(params, cooling=False)
    _, cooled = run_generation(params, cooling=True)
    assert cooled > plain
    assert cooling_start(5) == 3


def test_absorbing_generation_rejected():
    with pytest.raises(UnsupportedModeError):
        run_generation(ModelParams(L=3, p=0.5, boundary_mode="absorbing"))


def test_fidelity_properties():
    params = ModelParams(L=3, p=0.5, boundary_mode="reflecting", colored=True)
    state = build_state(params)
    other = build_state(params.with_(p=0.8))
    assert fidelity(state, state) == pytest.approx(1.0)
    assert fidelity(state, other) == pytest.approx(fidelity(other, state))
    with pytest.raises(InvalidParameterError):
        fidelity(state, build_state(ModelParams(L=5, p=0.5)))
    # orthogonal supports: the p=0 point state vs everything orthogonal to it
    point = build_state(params.with_(p=0.0))
    rest = {k: v for k, v in state.amplitudes.items() if k not in point.amplitudes}
    from depevap.exact import SparseState
    norm = math.sqrt(math.fsum(v * v for v in rest.values()))
    rest = SparseState(amplitudes={k: v / norm for k, v in rest.items()}, params=params)
    assert fidelity(point, rest) == pytest.approx(0.0, abs=1e-15)

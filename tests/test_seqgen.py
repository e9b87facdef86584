import math

import numpy as np
import pytest

from bridge_reference import success_probability
from depevap import ModelParams, exact, seqgen
from depevap.codec import decode_keys, key_rows, pack_values, site_order
from depevap.entropy import (entropy_dp, entropy_exact, mid_cut_row, midcut_distribution,
                             schmidt_spectrum)
from depevap.errors import CapacityError, InvalidParameterError, UnsupportedModeError
from depevap.exact import MAX_NODES, build_state, within_reach
from depevap.seqgen import (
    JointState,
    apply_round,
    cooling_start,
    fidelity,
    initial_joint,
    local_channel,
    run_generation,
)


def _reference_apply_round(joint, n, p, params, cooling_active=False,
                           max_branches=MAX_NODES):
    """The dict-based round: {(stacks, record): amp}, expanded depth first per branch."""
    L = params.L
    out = {}
    channel = local_channel(p, params.colored, cooling=cooling_active)
    for (stacks, record), amp in joint.items():
        heights = [0] + [s[0] for s in stacks] + [0]
        sites = [i for i in range(2, L) if i % 2 == (0 if n % 2 == 1 else 1)]
        per_site = []
        for i in sites:
            dh_l = heights[i] - heights[i - 1]
            dh_r = heights[i] - heights[i + 1]
            blocks = stacks[i - 1][1]
            if dh_l == dh_r:
                label = ("valley",) if dh_l < 0 else ("peak", blocks[-1] if blocks else None)
            else:
                label = ("slope_up",) if dh_l > 0 else ("slope_down",)
            per_site.append(channel[label])
        vertex_cols = [i for i in range(1, L + 1) if (i + n) % 2 == 1]

        def emit(k, cur_stacks, row, colors, a):
            if k == len(sites):
                if n % 2 == 0:  # boundary emissions of the F rounds
                    row[0] = 1
                    row[L] = 1
                    row[1] = 1 if heights[2] == 0 else 0
                    row[L - 1] = 1 if heights[L - 1] == 0 else 0
                key = (tuple(cur_stacks), record + ((tuple(row), tuple(colors)),))
                if key in out:
                    raise AssertionError("two distinct branches emitted the same record")
                out[key] = a
                return
            i = sites[k]
            h, blocks = cur_stacks[i - 1]
            for op, spins, color, branch_amp in per_site[k]:
                if branch_amp == 0.0:
                    continue
                if op[0] == "push":
                    new_stack = (h + 2, blocks + (op[1],))
                elif op[0] == "pop":
                    new_stack = (h - 2, blocks[:-1])
                else:
                    new_stack = (h, blocks)
                if new_stack[0] > L + 2:
                    raise CapacityError(f"stack {i} overflowed its L+2 depth cap")
                cur_stacks[i - 1] = new_stack
                row[i - 1], row[i] = spins
                colors[vertex_cols.index(i)] = color
                emit(k + 1, cur_stacks, row, colors, a * branch_amp)
            cur_stacks[i - 1] = (h, blocks)

        emit(0, list(stacks), [0] * (L + 1), [0] * len(vertex_cols), amp)
        if len(out) > max_branches:
            raise CapacityError(f"joint state exceeded {max_branches} branches")
    return out


def _joint_dict(joint: JointState, L):
    """The array joint state in the reference's {(stacks, record): amp} form."""
    out = {}
    frontier = joint.frontier
    index = frontier.paths()[:, 1:]  # each branch's edge per round, past the reference row
    half = (L + 1) // 2  # the color columns of a round's edge row
    widths = [len([i for i in range(1, L + 1) if (i + n) % 2 == 1])
              for n in range(1, index.shape[1] + 1)]
    for heights, bits, spins, colors, amp in zip(
            frontier.heights[frontier.node].tolist(), frontier.stacks[frontier.node].tolist(),
            exact.path_rows(np.concatenate(joint.spins), index).tolist(),
            exact.path_rows(np.concatenate(joint.colors), index).tolist(), joint.amps.tolist()):
        stacks = []
        for i in range(1, L + 1):
            depth = (heights[i] - i % 2) // 2  # bottom pair in the highest bit
            stacks.append((heights[i], tuple((bits[i] >> k & 1) + 1
                                             for k in reversed(range(depth)))))
        record = []
        for n, width in enumerate(widths):
            record.append((tuple(spins[n * (L + 1):(n + 1) * (L + 1)]),
                           tuple(colors[n * half:n * half + width])))
        out[(tuple(stacks), tuple(record))] = amp
    return out


def _split_returnable(joint, n, L):
    """The reference rows whose markers can all still return to the horizon after round n,
    and the squared mass of the others."""
    keep, lost = {}, []
    for (stacks, record), amp in joint.items():
        if all(within_reach(h, i, n, L) for i, (h, _) in enumerate(stacks, start=1)):
            keep[stacks, record] = amp
        else:
            lost.append(amp * amp)
    return keep, math.fsum(lost)


def _reference_generation(params, cooling=False):
    """([(key, amplitude)], success) of the dict-based rounds, in branch order."""
    L = params.L
    reference = tuple((i % 2, ()) for i in range(1, L + 1))
    joint = {(reference, ()): 1.0}
    for n in range(1, L + 1):
        joint = _reference_apply_round(joint, n, params.p, params,
                                       cooling_active=cooling and n > cooling_start(L))
    kept = {rec: amp for (stacks, rec), amp in joint.items() if stacks == reference}
    success = math.fsum(a * a for a in kept.values())
    values = np.ones((len(kept), len(site_order(L, params.colored))), dtype=np.uint8)
    for n, rec in enumerate(kept):
        values[n, L + 1:] = [b for row, _ in rec for b in row] + (
            [c for _, colors in rec for c in colors] if params.colored else [])
    keys = list(map(bytes, pack_values(values, L, params.colored)))
    scale = 1.0 / math.sqrt(success)
    return [(key, amp * scale) for key, amp in zip(keys, kept.values())], success


def test_generation_rejects_even_L():
    with pytest.raises(InvalidParameterError):
        run_generation(ModelParams(L=4, p=0.5, boundary_mode="reflecting", colored=True))


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
    joint = apply_round(apply_round(initial_joint(5), 1, params), 2, params)
    frontier = joint.frontier
    row = joint.spins[-1][frontier.steps[-1][1]]  # each branch's edge of round 2
    h2, h4 = frontier.heights[frontier.node, 2], frontier.heights[frontier.node, 4]
    assert (row[:, 0] == 1).all() and (row[:, 5] == 1).all()
    assert (row[:, 1] == (h2 == 0)).all() and (row[:, 4] == (h4 == 0)).all()
    assert set(h2.tolist()) == {0, 2}


def test_apply_round_norm_and_branching():
    params = ModelParams(L=5, p=0.5, boundary_mode="reflecting", colored=True)
    joint = apply_round(initial_joint(5), 1, params)
    # two valley sites, three branches each
    assert len(joint) == 9
    assert math.fsum((joint.amps ** 2).tolist()) == pytest.approx(1.0, abs=1e-12)
    joint = apply_round(joint, 2, params)
    assert math.fsum((joint.amps ** 2).tolist()) == pytest.approx(1.0, abs=1e-12)


def test_apply_round_p0_single_branch():
    params = ModelParams(L=5, p=0.0, boundary_mode="reflecting", colored=True)
    joint = initial_joint(5)
    for n in (1, 2, 3, 4, 5):
        joint = apply_round(joint, n, params)
    assert len(joint) == 1
    ((stacks, record), amp), = _joint_dict(joint, 5).items()
    assert stacks == tuple((i % 2, ()) for i in range(1, 6)) and amp == pytest.approx(1.0)


@pytest.mark.parametrize("cooling", [False, True])
@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("colored", [True, False])
@pytest.mark.parametrize("L", [3, 5])
def test_rounds_match_reference(L, colored, p, cooling):
    # every round: the reference round's rows that can still return, in the same order
    # with the same amplitude bits, and the others' squared mass as the dropped mass
    params = ModelParams(L=L, p=p, boundary_mode="reflecting", colored=colored)
    joint, ref = initial_joint(L), {(tuple((i % 2, ()) for i in range(1, L + 1)), ()): 1.0}
    for n in range(1, L + 1):
        active = cooling and n > cooling_start(L)
        joint = apply_round(joint, n, params.with_(p=0.0) if active else params)
        ref, lost = _split_returnable(
            _reference_apply_round(ref, n, p, params, cooling_active=active), n, L)
        assert list(_joint_dict(joint, L).items()) == list(ref.items()), n
        assert joint.dropped == pytest.approx(lost, rel=1e-12, abs=1e-15), n
    state, success = run_generation(params, cooling=cooling)
    assert (list(state.amplitudes.items()), success) == _reference_generation(params, cooling)


def test_generation_matches_reference_L7():
    params = ModelParams(L=7, p=0.5, boundary_mode="reflecting", colored=True)
    state, success = run_generation(params, cooling=True)
    assert (list(state.amplitudes.items()), success) == _reference_generation(params, True)


def test_branch_cap_threshold():
    # once branches that cannot return are pruned, rounds 5-7 of L = 7 keep 8,481 each
    params = ModelParams(L=7, p=0.5, boundary_mode="reflecting", colored=True)
    assert len(run_generation(params, max_branches=8_481)[0]) == 8_481
    with pytest.raises(CapacityError):
        run_generation(params, max_branches=8_480)


def test_norm_check_sees_a_perturbed_channel(monkeypatch):
    # the dropped mass comes from the branch amplitudes, not from 1 - kept, so a
    # channel column whose norm is not 1 still breaks kept + dropped = 1
    channel_table = seqgen._channel_table

    def perturbed(p, colored):
        table = channel_table(p, colored).copy()  # the rounds' table is read-only
        table["amp"][0, 0] *= 1 + 1e-6  # the first branch of a valley at the horizon
        return table

    monkeypatch.setattr(seqgen, "_channel_table", perturbed)
    with pytest.raises(AssertionError, match="round 1 broke norm conservation"):
        run_generation(ModelParams(L=5, p=0.5, boundary_mode="reflecting", colored=True))


def test_round_guards(monkeypatch):
    params = ModelParams(L=3, p=0.5, boundary_mode="reflecting", colored=True)
    one = initial_joint(3)
    twice = JointState(exact.Frontier(np.zeros(2, dtype=np.intp), one.frontier.heights,
                                      one.frontier.stacks),
                       one.spins, one.colors, np.zeros(2, dtype=np.intp), np.ones(2))
    with pytest.raises(AssertionError, match="same record"):
        apply_round(twice, 1, params)
    deep = initial_joint(3)
    deep.frontier.heights[0, 1:4] = (5, 4, 5)  # a valley whose deposit would pass the L+2 cap
    with pytest.raises(CapacityError, match="overflowed"):
        apply_round(deep, 1, params)
    channel_table = seqgen._channel_table

    def doubled(p, colored):  # a valley lists its first branch twice
        table = channel_table(p, colored)
        extra = np.zeros_like(table[:, :1])
        extra[exact.LABELS.index("valley")] = table[exact.LABELS.index("valley"), 0]
        return np.concatenate([table, extra], axis=1)

    # two edges of the one state emit the same rows onto the same child
    monkeypatch.setattr(seqgen, "_channel_table", doubled)
    with pytest.raises(AssertionError, match="same record"):
        apply_round(initial_joint(3), 1, params)


@pytest.mark.parametrize("L", [3, 5])
@pytest.mark.parametrize("p", [0.3, 0.5, 0.8])
@pytest.mark.parametrize("colored", [True, False])
def test_generation_matches_exact_state(L, p, colored):
    params = ModelParams(L=L, p=p, boundary_mode="reflecting", colored=colored)
    gen, success = run_generation(params)
    state = build_state(params)
    assert fidelity(gen, state) >= 1 - 1e-10
    assert success == pytest.approx(success_probability(params), abs=1e-12)


@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("colored", [True, False])
@pytest.mark.parametrize("L", [5, 7])
def test_emitter_states_are_the_walk_states(L, colored, p):
    # the emitter is the bond of the sequential construction: after round n its distinct
    # states, its (parent, edge) table and its sizes are the reflecting bridge walk's after
    # slice n, in the same order, and each branch's record rank is its whole record's rank
    params = ModelParams(L=L, p=p, boundary_mode="reflecting", colored=colored)
    step, walked = exact.Frontier.step, []

    def recording_step(self, *args):
        edges = step(self, *args)
        walked.append((self.heights.copy(), self.stacks.copy(), self.steps[-1], [*self.sizes]))
        return edges

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exact.Frontier, "step", recording_step)
        exact.enumerate_bridge(params)
    assert len(walked) == L
    joint = initial_joint(L)
    for n, (heights, stacks, (rows, edge), sizes) in enumerate(walked, start=1):
        before, joint = joint, apply_round(joint, n, params)
        assert len(before.frontier.steps) == n - 1, n  # the round extends a copy
        frontier = joint.frontier
        assert np.array_equal(frontier.heights, heights), n
        assert np.array_equal(frontier.stacks, stacks), n
        assert np.array_equal(frontier.steps[-1][0], rows), n
        assert np.array_equal(frontier.steps[-1][1], edge), n
        assert frontier.sizes == sizes, n
        table = np.hstack([np.concatenate(joint.spins), np.concatenate(joint.colors)])
        whole = exact.path_rows(table, frontier.paths())
        assert np.array_equal(np.unique(key_rows(whole), return_inverse=True)[1], joint.record), n


def _dp_emitter_count(params, cut):
    """The DP's support at `cut`, each profile counted once per color stacks when colored:
    2^(A/2) for its area A above the horizon, one stack bit per unmatched pair."""
    dist = midcut_distribution(params, cut)
    if not params.colored:
        return len(dist.probs)
    L = params.L
    area = dist.heights[:, 1:L + 1].sum(axis=1, dtype=np.int64) - (L + 1) // 2
    assert (area % 2 == 0).all()
    return sum(2 ** (a // 2) for a in area.tolist())


@pytest.mark.parametrize("L, colored", [(3, False), (3, True), (5, False), (5, True),
                                        (7, False), (7, True), (9, False)])
def test_emitter_size_is_the_dp_count_and_the_schmidt_rank(L, colored):
    # after round c the emitter holds one state per (profile, color stacks) with a bridge
    # continuation: the DP's count at cut c, and the Schmidt rank there, one weight per
    # sector label (L = 9 colored stops at MAX_NODES in build_state, so L = 9 is uncolored
    # and checks the emitter only)
    for p in (0.25, 0.5, 0.8):
        params = ModelParams(L=L, p=p, boundary_mode="reflecting", colored=colored)
        state = build_state(params) if L < 9 else None
        joint = initial_joint(L)
        for c in range(1, L):
            joint = apply_round(joint, c, params)
            count = _dp_emitter_count(params, c)
            assert len(joint.frontier.heights) == count, (p, c)
            if state is not None:
                assert len(schmidt_spectrum(state, c)) == count, (p, c)


@pytest.fixture(scope="module")
def l9_states():
    """The L = 9 uncolored p = 0.5 states (141,120 keys each), built once per mode."""
    return {mode: build_state(ModelParams(L=9, p=0.5, boundary_mode=mode, colored=False))
            for mode in ("reflecting", "absorbing")}


@pytest.mark.parametrize("mode", ["reflecting", "absorbing"])
def test_entropy_L9_uncolored(l9_states, mode):
    # the state that L = 9 generation is checked against, at criterion 4's bar
    params = l9_states[mode].params
    svd = entropy_exact(l9_states[mode], mid_cut_row(9)).S_total
    assert abs(svd - entropy_dp(params, mid_cut_row(9)).S_total) < 1e-9


def test_generation_L9_uncolored(l9_states):
    # L = 9 generation fits the default branch cap only because rounds prune
    state = l9_states["reflecting"]
    gen, _ = run_generation(state.params)
    assert len(gen) == len(state) == 141_120
    assert fidelity(gen, state) >= 1 - 1e-10


def test_generation_p0_product_state():
    params = ModelParams(L=5, p=0.0, boundary_mode="reflecting", colored=True)
    gen, success = run_generation(params)
    assert success == pytest.approx(1.0)
    assert len(gen) == 1


def test_generated_records_do_not_depend_on_p():
    # for 0 < p < 1 every channel branch has nonzero amplitude, so the records keep their keys
    # and their order
    states = [run_generation(ModelParams(L=5, p=p, colored=True))[0] for p in (0.25, 0.5, 0.8)]
    for state in states[1:]:
        assert np.array_equal(state.keys, states[0].keys)


def test_generated_records_decode():
    params = ModelParams(L=5, p=0.6, boundary_mode="reflecting", colored=True)
    gen, _ = run_generation(params)
    decode_keys(sorted(gen.amplitudes), params)  # raises on any violation


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
    rest = np.array([key not in point.amplitudes for key in state.amplitudes])
    from depevap.exact import SparseState
    norm = math.sqrt(math.fsum(v * v for v in state.amps[rest].tolist()))
    rest = SparseState(state.keys[rest], state.amps[rest] / norm, params)
    assert fidelity(point, rest) == pytest.approx(0.0, abs=1e-15)


def _dict_fidelity(a, b):
    """The per-key dict formula that the sorted merge replaced."""
    overlap = math.fsum(amp * b.amplitudes.get(key, 0.0) for key, amp in a.amplitudes.items())
    return overlap * overlap


def test_fidelity_merge_matches_dict_formula():
    # the merge pairs equal keys however the rows are ordered, and adds the same products
    from depevap.exact import SparseState
    from depevap.hamiltonian import sector_keys

    params = ModelParams(L=5, p=0.6, boundary_mode="reflecting", colored=True)
    state, gen = build_state(params), run_generation(params)[0]
    rng = np.random.default_rng(2)
    perm = rng.permutation(len(state))
    permuted = SparseState(state.keys[perm], state.amps[perm], params)
    sector = sector_keys(params.with_(boundary_mode="absorbing"))
    outside = sector[np.array([key not in state.amplitudes for key in map(bytes, sector)])]
    partial = SparseState(np.vstack([outside[:20], state.keys[perm[:20]]]), rng.random(40), params)
    disjoint = SparseState(outside, rng.random(len(outside)), params)
    for a, b in ((gen, permuted), (permuted, gen), (state, partial), (partial, gen),
                 (state, disjoint), (disjoint, state)):
        assert fidelity(a, b) == _dict_fidelity(a, b)
    assert 0.0 < fidelity(state, partial) < 1.0
    assert fidelity(state, disjoint) == 0.0

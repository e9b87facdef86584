import functools
import math
import tracemalloc

import numpy as np
import pytest

from bridge_reference import bridge_colors, bridge_profiles, slice_outcomes, step_code_site_maps
from conftest import dense_schmidt_weights, oracle_midcut_marginal
from schmidt_reference import schmidt_spectrum as per_sector_schmidt_spectrum
from depevap import ModelParams, entropy, exact
from depevap.codec import (
    decode_config,
    decode_keys,
    key_to_config,
    pack_values,
    profiles_to_heights,
    profiles_to_spins,
    site_order,
    unpack_keys,
    vertex_sites,
)
from depevap.entropy import (
    _shannon_bits,
    entropy_dp,
    entropy_exact,
    entropy_formula,
    fit_power_law,
    mid_cut_row,
    midcut_distribution,
    profile_count,
    schmidt_spectrum,
    TransferKernel,
)
from depevap.errors import CapacityError, DecodeError, InvalidParameterError
from depevap.exact import SparseState, build_state, enumerate_bridge
from depevap.surface import horizon_profile


def test_midcut_examples():
    params = ModelParams(L=3, p=0.5, boundary_mode="reflecting", colored=True)
    dist = midcut_distribution(params, 1)
    assert dist.table == pytest.approx({(0, 1, 0, 1, 0): 0.9, (0, 1, 2, 1, 0): 0.1})
    assert dist.mean_area == pytest.approx(0.2)
    assert dist.mean_color_units == pytest.approx(0.1)
    point = midcut_distribution(params.with_(p=0.0), 1)
    assert point.table == {(0, 1, 0, 1, 0): 1.0}


def test_midcut_sums_to_one_L9():
    dist = midcut_distribution(ModelParams(L=9, p=0.8), mid_cut_row(9))
    assert math.fsum(dist.table.values()) == pytest.approx(1.0, abs=1e-10)


def test_midcut_matches_oracle_marginal():
    for L in (3, 5):
        for mode in ("reflecting", "absorbing"):
            params = ModelParams(L=L, p=0.7, boundary_mode=mode, colored=True)
            cut = mid_cut_row(L)
            dist = midcut_distribution(params, cut)
            want = oracle_midcut_marginal(L, 0.7, mode, True, cut)
            assert dist.table == pytest.approx(want, abs=1e-12)


def test_schmidt_point_mass():
    state = build_state(ModelParams(L=3, p=0.0, colored=True))
    spec = schmidt_spectrum(state, 1)
    assert len(spec) == 1 and spec[0][1] == pytest.approx(1.0)
    assert entropy_exact(state, 1).S_total == pytest.approx(0.0, abs=1e-12)


def test_schmidt_sectors_L3(l3_state_reflecting):
    spec = schmidt_spectrum(l3_state_reflecting, 1)
    weights = sorted((lam for _, lam in spec), reverse=True)
    assert weights == pytest.approx([0.9, 0.05, 0.05])
    labels = [label for label, _ in spec]
    raised = [lab for lab in labels if lab[0] == (0, 1, 2, 1, 0)]
    assert len(raised) == 2  # one sector per unmatched pair color
    assert {lab[1] for lab in raised} == {((), (1,), ()), ((), (2,), ())}
    assert math.fsum(weights) == pytest.approx(1.0, abs=1e-10)


def test_entropy_exact_closed_form(l3_state_reflecting):
    report = entropy_exact(l3_state_reflecting, 1)
    q0, q2 = 0.9, 0.1
    expected = -q0 * math.log2(q0) - q2 * math.log2(q2) + q2
    assert report.S_total == pytest.approx(expected, abs=1e-12)
    assert report.color_term == pytest.approx(q2, abs=1e-12)


def test_colored_not_less_than_uncolored():
    for mode in ("reflecting", "absorbing"):
        colored = ModelParams(L=5, p=0.6, boundary_mode=mode, colored=True)
        unc = colored.with_(colored=False)
        sc = entropy_exact(build_state(colored), 2).S_total
        su = entropy_exact(build_state(unc), 2).S_total
        assert sc >= su - 1e-12


def test_formula_matches_svd_grid():
    for L in (3, 5):
        for p in (0.25, 0.5, 0.8):
            for mode in ("reflecting", "absorbing"):
                params = ModelParams(L=L, p=p, boundary_mode=mode, colored=True)
                cut = mid_cut_row(L)
                svd = entropy_exact(build_state(params), cut)
                formula = entropy_formula(midcut_distribution(params, cut))
                assert svd.S_total == pytest.approx(formula.S_total, abs=1e-9)
                assert svd.S_uncolored == pytest.approx(formula.S_uncolored, abs=1e-9)


def test_formula_identity_and_dp_method():
    params = ModelParams(L=7, p=0.6, colored=True)
    report = entropy_dp(params)
    assert report == entropy_formula(midcut_distribution(params, mid_cut_row(7)))
    assert report.S_total == pytest.approx(report.color_term + report.S_uncolored, abs=1e-12)


def test_gram_path_matches_global_svd():
    params = ModelParams(L=5, p=0.5, boundary_mode="reflecting", colored=True)
    state = build_state(params)
    for cut in (1, 2, 3):
        got = sorted((lam for _, lam in schmidt_spectrum(state, cut)), reverse=True)
        want = dense_schmidt_weights(state, cut)
        assert got == pytest.approx(want, abs=1e-11)


def test_time_cut_entropy_is_lower():
    params = ModelParams(L=5, p=0.5, boundary_mode="reflecting", colored=True)
    state = build_state(params)
    space = entropy_exact(state, 2).S_total
    lams = np.array(dense_schmidt_weights(state, 2, axis="time"))
    time_S = float(-(lams * np.log2(lams)).sum())
    assert math.fsum(lams) == pytest.approx(1.0, abs=1e-10)
    assert time_S <= space + 1e-12


def test_cut_location_symmetry():
    for L in (5, 7):
        for mode in ("reflecting", "absorbing"):
            params = ModelParams(L=L, p=0.65, boundary_mode=mode, colored=True)
            for cut in range(1, L // 2 + 1):
                a = midcut_distribution(params, cut)
                b = midcut_distribution(params, L - cut)
                assert a.table == pytest.approx(b.table, abs=1e-10)


@pytest.mark.parametrize("mode", ["reflecting", "absorbing"])
@pytest.mark.parametrize("p", [0.25, 0.8])
@pytest.mark.parametrize("L", [9, 13])
def test_backward_is_forward_conjugated_by_pi(L, p, mode):
    # every site map is reversible with respect to pi(x) ~ (p / (1 - p))^(A(x) / 2), A the
    # area sum_i h_i, and the floor and frozen-site factors are diagonal, so one slice of
    # backward is forward conjugated by pi
    kernel = TransferKernel(ModelParams(L=L, p=p, boundary_mode=mode))
    pi = (p / (1 - p)) ** (kernel.heights[:, 1:L + 1].sum(axis=1) / 2)
    rng = np.random.default_rng(12)
    for t in (1, 2):
        b = rng.random(len(pi)) + 0.5
        want = kernel.forward(pi * b, t) / pi
        assert np.max(np.abs(kernel.backward(b, t) - want) / want) <= 1e-13, t


def _two_pass_probs(params, cut):
    """The DP's support probabilities from a forward pass to `cut` and a backward pass
    from L down to it, each rescaled to unit sum after every slice."""
    kernel, L = TransferKernel(params), params.L
    start = (kernel.heights == horizon_profile(L)).all(axis=1).astype(float)
    forward = backward = start
    for t in range(1, cut + 1):
        forward = kernel.forward(forward, t)
        forward /= forward.sum()
    for t in range(L, cut, -1):
        backward = kernel.backward(backward, t)
        backward /= backward.sum()
    raw = forward * backward
    return raw[raw > 0] / math.fsum(raw.tolist())


@pytest.mark.parametrize("mode", ["reflecting", "absorbing"])
@pytest.mark.parametrize("L", range(3, 18, 2))
def test_one_pass_at_half_is_the_two_pass_dp(L, mode):
    # at p = 1/2 the backward pass is the forward one, so carrying the forward vector on
    # to slice L - cut must give the two-pass probabilities bit for bit, on either side
    # of the middle
    params = ModelParams(L=L, p=0.5, boundary_mode=mode)
    cuts = range(1, L) if L <= 9 else (1, mid_cut_row(L), L - 1)
    for cut in cuts:
        got = midcut_distribution(params, cut).probs
        assert np.array_equal(got, _two_pass_probs(params, cut)), cut


@pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 0.8, 1.0])
def test_backward_pass_runs_unless_the_tuples_are_equal(monkeypatch, p):
    calls = []
    backward = TransferKernel.backward

    def counted(self, b, t):
        calls.append(t)
        return backward(self, b, t)

    monkeypatch.setattr(TransferKernel, "backward", counted)
    for mode in ("reflecting", "absorbing"):
        for cut in (3, 6):
            calls.clear()
            midcut_distribution(ModelParams(L=9, p=p, boundary_mode=mode), cut)
            assert calls == ([] if p == 0.5 else list(range(9, cut, -1))), (mode, cut)


@pytest.mark.parametrize("mode", ["reflecting", "absorbing"])
def test_schmidt_entropy_is_symmetric_in_the_cut(mode):
    # the same symmetry on the built state: the cut after slice c and after slice L - c
    state = build_state(ModelParams(L=7, p=0.8, boundary_mode=mode, colored=False))
    S = {c: entropy_exact(state, c).S_total for c in range(1, 7)}
    assert all(abs(S[c] - S[7 - c]) <= 1e-12 for c in range(1, 4)), S
    colored = build_state(ModelParams(L=7, p=0.8, boundary_mode=mode, colored=True))
    assert abs(entropy_exact(colored, 3).S_total - entropy_exact(colored, 4).S_total) <= 1e-12


def test_entropy_monotone_in_p_at_L9():
    values = [entropy_dp(ModelParams(L=9, p=p, colored=True)).S_total
              for p in (0.25, 0.5, 0.8)]
    assert values[0] < values[1] < values[2]


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_exact_entropy_bytes_per_key():
    # building the L = 7 colored state and splitting it at the middle cut: decoded profiles
    # in int8, key columns gathered once and only the site values held while the parts are
    # ranked.  The traced peak read 359 bytes per key (576 before); the ceiling is 15 % above
    params = ModelParams(L=7, p=0.5, colored=True)
    n = len(build_state(params))

    def call():
        entropy_exact(build_state(params), mid_cut_row(params.L))

    _traced_peak(call)  # first-call allocations stay out of the measurement
    assert _traced_peak(call) <= 1.15 * 359 * n, n


_SCHMIDT_GRID = [(L, mode, colored) for L in (3, 5, 7) for mode in ("reflecting", "absorbing")
                 for colored in (False, True)]


@functools.lru_cache(maxsize=None)
def _built(params):
    """build_state(params), built once for the Schmidt grid tests below."""
    return build_state(params)


# the split of a `_built` state at a cut, taken once for both grid tests
_split = functools.lru_cache(maxsize=None)(schmidt_spectrum)


def _grid_cuts(params, mid_ps):
    """(state, cut) pairs: every cut at p = 0.5, then the mid cut at each p of `mid_ps`."""
    L = params.L
    for p, cuts in [(0.5, range(1, L))] + [(p, [mid_cut_row(L)]) for p in mid_ps]:
        for cut in cuts:
            yield _built(params.with_(p=p)), cut


@pytest.mark.parametrize("L,mode,colored", _SCHMIDT_GRID)
def test_schmidt_spectrum_is_the_expanded_dp_law(L, mode, colored):
    # the DP's law fixes every Schmidt weight, not only their entropy: colored, each
    # profile x at the cut carries 2^(A(x)/2) equal weights P(x) / 2^(A(x)/2), one per
    # color stack of its A(x)/2 unmatched pairs (A the area above the horizon);
    # uncolored, the one weight P(x)
    params = ModelParams(L=L, p=0.5, boundary_mode=mode, colored=colored)
    for state, cut in _grid_cuts(params, (0.25, 0.8)):
        dist = midcut_distribution(state.params, cut)
        area = dist.heights[:, 1:L + 1].sum(axis=1, dtype=np.int64) - (L + 1) // 2
        copies = 2 ** (area // 2) if colored else np.ones_like(area)
        law = np.sort(np.repeat(dist.probs / copies, copies))
        weights = np.sort([lam for _, lam in _split(state, cut)])
        assert len(weights) == len(law), (state.params, cut)
        assert np.max(np.abs(weights - law)) <= 1e-12, (state.params, cut)


@pytest.mark.parametrize("L,mode,colored", _SCHMIDT_GRID)
def test_schmidt_spectrum_matches_the_per_sector_loop(L, mode, colored):
    # the sectors' M stacked by shape, one Gram product and one eigvalsh per shape, give
    # the per-sector loop's list float for float: labels, weights and their order
    params = ModelParams(L=L, p=0.5, boundary_mode=mode, colored=colored)
    for state, cut in _grid_cuts(params, (0.0, 0.25, 0.8, 1.0)):
        assert repr(_split(state, cut)) == repr(per_sector_schmidt_spectrum(state, cut))


def test_schmidt_rejects_unnormalized(l3_state_reflecting):
    from depevap.exact import SparseState
    bad = SparseState(l3_state_reflecting.keys, 0.5 * l3_state_reflecting.amps,
                      l3_state_reflecting.params)
    with pytest.raises(InvalidParameterError):
        schmidt_spectrum(bad, 1)


def test_cut_row_outside_the_lattice_is_rejected():
    # the CLI rejects these cuts before either function is called
    params = ModelParams(L=5, p=0.5)
    state = build_state(params)
    for cut in (0, 5):
        with pytest.raises(InvalidParameterError, match=r"cut_row must lie in 1\.\.4"):
            midcut_distribution(params, cut)
        with pytest.raises(InvalidParameterError, match=r"cut_row must lie in 1\.\.4"):
            schmidt_spectrum(state, cut)


@pytest.mark.parametrize("cut", [True, 2.0, 1.5, "2", None])
def test_cut_row_must_be_an_integer(cut):
    # True would run the DP at cut 1, and the rest failed with IndexError or TypeError
    params = ModelParams(L=5, p=0.5)
    with pytest.raises(InvalidParameterError, match=r"cut_row must lie in 1\.\.4"):
        midcut_distribution(params, cut)
    with pytest.raises(InvalidParameterError, match=r"cut_row must lie in 1\.\.4"):
        entropy_exact(build_state(params), cut)


def test_capacity_guard():
    with pytest.raises(CapacityError, match="L=9 has 42 .* cap of 2"):
        midcut_distribution(ModelParams(L=9, p=0.5), 4, max_profiles=2)
    assert [profile_count(L) for L in (3, 17, 25)] == [2, 4862, 742900]
    # MAX_PROFILES caps every call, whatever max_profiles asks for: L=29 would need ~6 GB
    with pytest.raises(CapacityError, match="L=29 has 9694845 .* cap of 3000000"):
        midcut_distribution(ModelParams(L=29, p=0.5), 14)
    with pytest.raises(CapacityError, match="cap of 3000000"):
        midcut_distribution(ModelParams(L=29, p=0.5), 14, max_profiles=10 ** 8)


def test_fit_power_law_examples():
    xs = [1.0, 2.0, 3.0, 4.0]
    exp, amp, r2 = fit_power_law(xs, xs)
    assert exp == pytest.approx(1.0) and r2 == pytest.approx(1.0)
    exp, _, _ = fit_power_law(xs, [x * x for x in xs])
    assert exp == pytest.approx(2.0)
    rng = np.random.default_rng(5)
    xs = np.linspace(10, 1000, 40)
    ys = 3.0 * xs ** 0.25 * (1 + 0.01 * rng.standard_normal(40))
    exp, amp, r2 = fit_power_law(xs, ys)
    assert exp == pytest.approx(0.25, abs=0.02)
    with pytest.raises(InvalidParameterError):
        fit_power_law([1, 2, 3], [1, -1, 2])
    with pytest.raises(InvalidParameterError):
        fit_power_law([1, 2], [1, 2])
    with pytest.raises(InvalidParameterError, match="two distinct x values"):
        fit_power_law([4, 4, 4], [1, 2, 3])
    # the closed form agrees with numpy's least-squares polynomial fit
    for n in (3, 7, 40, 301):
        xs = np.sort(rng.uniform(1, 1e4, n))
        ys = rng.uniform(0.01, 100, n) * xs ** rng.uniform(-2, 2)
        slope, intercept = np.polyfit(np.log(xs), np.log(ys), 1)
        exp, amp, _ = fit_power_law(xs, ys)
        assert exp == pytest.approx(slope, rel=1e-11, abs=1e-11), n
        assert amp == pytest.approx(np.exp(intercept), rel=1e-11), n


def test_kernel_slice_matches_slice_outcomes():
    # one kernel slice on a point mass at every profile equals the slow
    # branch enumeration summed per new profile; backward is its transpose
    for L in (7, 9):
        for mode in ("reflecting", "absorbing"):
            for colored in (True, False):
                for p in (0.0, 0.3, 1.0):
                    params = ModelParams(L=L, p=p, boundary_mode=mode, colored=colored)
                    kernel = TransferKernel(params)
                    profiles = [tuple(h) for h in kernel.heights.tolist()]
                    index = {prof: k for k, prof in enumerate(profiles)}
                    eye = np.eye(len(profiles))
                    for t in (1, 2):
                        want = np.zeros_like(eye)  # want[new, old]
                        for k, prof in enumerate(profiles):
                            for new, w, _ in slice_outcomes(prof, t, params):
                                want[index[new], k] += w
                        got = np.column_stack([kernel.forward(e, t) for e in eye])
                        assert np.abs(got - want).max() <= 1e-15, (L, mode, colored, p, t)
                        got_back = np.vstack([kernel.backward(e, t) for e in eye])
                        assert np.abs(got_back - want).max() <= 1e-15, (L, mode, colored, p, t)


def test_kept_maps_are_the_step_code_rule():
    # the labelled valleys and floors, and the partners of the valleys, are those of
    # the step-code rule site by site; the horizon is the row of its heights
    for L in range(3, 22, 2):
        index = entropy._ProfileIndex(L)
        heights, maps = step_code_site_maps(L)
        assert np.array_equal(index.heights, heights) and len(index.maps) == L
        for i, (got, want) in enumerate(zip(index.maps, maps), start=1):
            for a, b in zip(got, want, strict=True):
                assert a.dtype == b.dtype and np.array_equal(a, b), (L, i)
        horizon = np.flatnonzero((index.heights == horizon_profile(L)).all(axis=1))
        assert horizon.tolist() == [index.horizon], L


def _arrays(value):
    """Every ndarray in `value`, through tuples and lists."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, (tuple, list)):
        return [a for item in value for a in _arrays(item)]
    return []


def test_kept_index_is_whole_and_read_only(monkeypatch):
    # a kept hit labels no site; the index holds no writeable array and no step codes
    exact._KEPT.clear()
    try:
        kernel = TransferKernel(ModelParams(L=9, p=0.25))
        with monkeypatch.context() as patch:
            def no_labels(*args):
                raise AssertionError("a kept index built a site map")
            patch.setattr(entropy, "site_labels", no_labels)
            for p in (0.25, 0.8):
                midcut_distribution(ModelParams(L=9, p=p), mid_cut_row(9))
        arrays = _arrays(list(vars(kernel._index).values()))
        assert len(arrays) == 1 + 3 * 9
        assert not any(a.flags.writeable for a in arrays)
        arrays = _arrays(list(vars(entropy._ProfileIndex(21)).values()))
        assert not any(a.flags.writeable for a in arrays)
        assert sum(a.nbytes for a in arrays) <= 111 * profile_count(21)
    finally:
        exact._KEPT.clear()


# (mode, L, p, S_uncolored, mean_area, positive-weight cut profiles) of the
# mid cut, recorded with the dict-of-dicts DP that enumerated every joint
# branch of a slice (exact.slice_outcomes) before the transfer kernel replaced it
PARENT_DP = [
    ('r', 5, 0.0, 0.0, 0.0, 1),
    ('r', 5, 0.25, 0.8667878773022013, 0.35601592256577663, 5),
    ('r', 5, 0.5, 1.2699163449114286, 0.6394763835295267, 5),
    ('r', 5, 0.8, 1.3719299850384479, 0.7323085485796308, 5),
    ('r', 5, 1.0, 0.0, 0.0, 1),
    ('r', 7, 0.0, 0.0, 0.0, 1),
    ('r', 7, 0.25, 1.7163733782533837, 0.8099472006016943, 14),
    ('r', 7, 0.5, 2.4252387809234786, 1.4705882960407943, 14),
    ('r', 7, 0.8, 2.642750346007703, 1.8071061921514922, 14),
    ('r', 7, 1.0, 0.0, 0.0, 1),
    ('r', 9, 0.0, 0.0, 0.0, 1),
    ('r', 9, 0.25, 2.5398531525581305, 1.2718570404706229, 42),
    ('r', 9, 0.5, 3.5449754207835538, 2.330984746033166, 42),
    ('r', 9, 0.8, 3.8392050120641295, 2.9500951004613385, 42),
    ('r', 9, 1.0, 0.0, 0.0, 1),
    ('r', 11, 0.0, 0.0, 0.0, 1),
    ('r', 11, 0.25, 3.5023682752670995, 1.8684154836278908, 132),
    ('r', 11, 0.5, 4.801164010990007, 3.447037357777273, 132),
    ('r', 11, 0.8, 5.107447409903872, 4.422641966213283, 132),
    ('r', 11, 1.0, 0.0, 0.0, 1),
    ('r', 13, 0.0, 0.0, 0.0, 1),
    ('r', 13, 0.25, 4.415786153023031, 2.432039277584695, 429),
    ('r', 13, 0.5, 6.056208942279352, 4.557960668804257, 429),
    ('r', 13, 0.8, 6.418006256429224, 5.906187502624467, 429),
    ('r', 13, 1.0, 0.0, 0.0, 1),
    ('r', 15, 0.0, 0.0, 0.0, 1),
    ('r', 15, 0.25, 5.402832304257801, 3.0779043836871596, 1430),
    ('r', 15, 0.5, 7.386666715094124, 5.856682683615151, 1430),
    ('r', 15, 0.8, 7.779880825167808, 7.650658127712045, 1430),
    ('r', 15, 1.0, 0.0, 0.0, 1),
    ('r', 17, 0.0, 0.0, 0.0, 1),
    ('r', 17, 0.25, 6.355335900035615, 3.6922468998757476, 4862),
    ('r', 17, 0.5, 8.742060621392795, 7.179067261595323, 4862),
    ('r', 17, 0.8, 9.222996810399684, 9.480292612877474, 4862),
    ('r', 17, 1.0, 0.0, 0.0, 1),
    ('a', 5, 0.0, 0.0, 0.0, 1),
    ('a', 5, 0.25, 1.5987888727671327, 0.9744784997550904, 5),
    ('a', 5, 0.5, 1.7009180721797557, 1.1036509572399642, 5),
    ('a', 5, 0.8, 1.536632952198302, 0.9031815386607718, 5),
    ('a', 5, 1.0, 0.0, 0.0, 1),
    ('a', 7, 0.0, 0.0, 0.0, 1),
    ('a', 7, 0.25, 2.870173056422312, 2.305352550374986, 14),
    ('a', 7, 0.5, 2.956836723957349, 2.4950464674376973, 14),
    ('a', 7, 0.8, 2.8179649946572636, 2.196116545403461, 14),
    ('a', 7, 1.0, 0.0, 0.0, 1),
    ('a', 9, 0.0, 0.0, 0.0, 1),
    ('a', 9, 0.25, 4.066207916401109, 3.6576362227145154, 42),
    ('a', 9, 0.5, 4.186183042202839, 3.8967909704961996, 42),
    ('a', 9, 0.8, 3.9996102841197407, 3.5235166727361467, 42),
    ('a', 9, 1.0, 0.0, 0.0, 1),
    ('a', 11, 0.0, 0.0, 0.0, 1),
    ('a', 11, 0.25, 5.287593677044802, 5.354368690084996, 132),
    ('a', 11, 0.5, 5.454932789279131, 5.653874414001371, 132),
    ('a', 11, 0.8, 5.194612446912126, 5.189667868609314, 132),
    ('a', 11, 1.0, 0.0, 0.0, 1),
    ('a', 13, 0.0, 0.0, 0.0, 1),
    ('a', 13, 0.25, 6.63402470481168, 7.094570383321923, 429),
    ('a', 13, 0.5, 6.85691059991862, 7.483381020989661, 429),
    ('a', 13, 0.8, 6.505395399728233, 6.881960991511189, 429),
    ('a', 13, 1.0, 0.0, 0.0, 1),
    ('a', 15, 0.0, 0.0, 0.0, 1),
    ('a', 15, 0.25, 8.00368393485694, 9.110663365785294, 1430),
    ('a', 15, 0.5, 8.269611175455589, 9.587845566995538, 1430),
    ('a', 15, 0.8, 7.8432655168608045, 8.847427604125615, 1430),
    ('a', 15, 1.0, 0.0, 0.0, 1),
    ('a', 17, 0.0, 0.0, 0.0, 1),
    ('a', 17, 0.25, 9.480048628535254, 11.256777196006555, 4862),
    ('a', 17, 0.5, 9.781361704492383, 11.831079514199905, 4862),
    ('a', 17, 0.8, 9.293896603215169, 10.936420315317733, 4862),
    ('a', 17, 1.0, 0.0, 0.0, 1),
]


def test_dp_matches_parent_values():
    modes = {"r": "reflecting", "a": "absorbing"}
    for mode, L, p, S_unc, mean_area, count in PARENT_DP:
        params = ModelParams(L=L, p=p, boundary_mode=modes[mode], colored=True)
        dist = midcut_distribution(params, mid_cut_row(L))
        assert len(dist.table) == len(dist.probs) == count, (mode, L, p)
        S_formula = entropy_formula(dist).S_uncolored
        assert S_formula == pytest.approx(S_unc, abs=1e-12), (mode, L, p)
        # the dict view holds the production floats in the production order
        assert S_formula == _shannon_bits(list(dist.table.values())), (mode, L, p)
        assert dist.mean_area == pytest.approx(mean_area, abs=1e-12), (mode, L, p)


def reference_sector_labels(H, colors, params):
    """[(profile, unmatched colors per site)] at the cuts after slices 1..L-1, from one history.

    H is the height history as nested lists, `colors` its vertex colors in
    `vertex_sites` order.  The slow reference for the labels
    `schmidt_spectrum` reads from key bits: the Schmidt split used to
    decode every key and replay its events through per-site stacks, as here.
    """
    L = params.L
    rows = {}
    for (i, t), color in zip(vertex_sites(L), colors):
        rows.setdefault(t, []).append((i, color))
    pending = {i: [] for i in range(1, L + 1)}
    labels = []
    for cut in range(1, L):
        for i, color in rows[cut]:
            if H[cut + 1][i] > H[cut - 1][i]:
                pending[i].append(color)
            elif H[cut + 1][i] < H[cut - 1][i] and pending[i]:
                pending[i].pop()
        prof = tuple(H[cut + (i + cut) % 2][i] for i in range(L + 2))  # plaquettes at the cut
        labels.append((prof, tuple(map(tuple, pending.values())) if params.colored else ()))
    return labels


@pytest.mark.parametrize("L", [5, 7])
@pytest.mark.parametrize("mode", ["reflecting", "absorbing"])
def test_sector_labels_match_reference(L, mode):
    # labels from key bits equal the stack replay of every bridge, at every cut;
    # keys are packed from the bridge arrays as build_state packs them, and at
    # L = 5 the histories also go through decode_config, as the old split did
    from depevap.entropy import _sector_labels

    params = ModelParams(L=L, p=0.5, boundary_mode=mode, colored=True)
    bridges = enumerate_bridge(params)
    profiles, vertex_colors = bridge_profiles(bridges), bridge_colors(bridges)
    keys = pack_values(np.hstack([profiles_to_spins(profiles, L), vertex_colors]), L, True)
    histories = list(zip(profiles_to_heights(profiles, L).tolist(), vertex_colors.tolist()))
    if L == 5:
        records = (decode_config(key_to_config(key, params), params) for key in map(bytes, keys))
        histories = [(r.heights.tolist(), [r.events[v][1] for v in vertex_sites(L)]) for r in records]
    decoded = decode_keys(keys, params)
    want = [reference_sector_labels(H, colors, params) for H, colors in histories]
    for cut in range(1, L):
        assert _sector_labels(decoded, cut) == [labels[cut - 1] for labels in want], cut


def _corrupted_key(params, how):
    """A support key of the L = 5 colored state, damaged in one way."""
    state = build_state(params)
    column = {s: n for n, s in enumerate(site_order(params.L, True))}
    for key in sorted(state.amplitudes):
        values = unpack_keys([key], params.L, True)[0].tolist()
        events = decode_config(key_to_config(key, params), params).events
        if how == "gauss":
            values[column[("s", 2, 2)]] ^= 1
        elif how == "boundary":
            values[column[("s", 0, 0)]] ^= 1  # joins no vertex: only the pin sees it
        elif how == "color code 3":
            values[column[("c", 1, 2)]] = 3
        elif how == "color on no change":
            v = next(v for v, (kind, _) in events.items() if kind == "no_change")
            values[column[("c",) + v]] = 1
        else:
            evaporations = [v for v, (kind, _) in events.items() if kind == "evaporate"]
            if not evaporations:
                continue
            values[column[("c",) + evaporations[0]]] ^= 3  # r <-> g
        return state, key, pack_values([values], params.L, True).tobytes()
    raise AssertionError("no support key to corrupt")


@pytest.mark.parametrize("how,kind", [
    ("gauss", "gauss"), ("boundary", "boundary"), ("color code 3", "key"),
    ("color on no change", "color"), ("evaporation color", "color")])
def test_corrupted_keys_are_rejected(how, kind):
    params = ModelParams(L=5, p=0.5, boundary_mode="reflecting", colored=True)
    state, key, bad = _corrupted_key(params, how)
    keys = state.keys.copy()
    keys[list(state.amplitudes).index(key)] = np.frombuffer(bad, dtype=np.uint8)
    damaged = SparseState(keys, state.amps, params)
    with pytest.raises(DecodeError) as err:
        schmidt_spectrum(damaged, 2)
    assert err.value.kind == kind
    with pytest.raises(DecodeError) as err:
        decode_config(key_to_config(bad, params), params)
    assert err.value.kind == kind

import hashlib
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import depevap
from depevap import entropy, exact, hamiltonian
from bridge_reference import bridge_records
from hamiltonian_reference import (
    AllCharactersReduction,
    _reference_apply,
    _reference_matrix,
    _reference_sums,
    _reference_term_entries,
    sector_matrix,
)
from depevap import ModelParams
from depevap.codec import canonical_key, decode_keys, encode_trajectory, key_length
from depevap.errors import CapacityError, InvalidParameterError, UnsupportedModeError
from depevap.exact import SparseState, build_state
from depevap.hamiltonian import (
    DENSE_BYTES,
    DENSE_STATES,
    LocalTerm,
    _Blocks,
    _SymmetryReduction,
    _commuting,
    _layout,
    _symmetry_images,
    _update_pattern,
    _update_term,
    assemble_hamiltonian,
    build_boundary_terms,
    build_color_term,
    build_deformation_state,
    build_gauss_term,
    sector_keys,
    sector_spectrum,
    term_residuals,
    update_plaquettes,
)
from depevap.surface import branch_probability

ABS = dict(boundary_mode="absorbing")


def test_single_vertex_probability_examples():
    # the update weights read the uncolored, floorless event table
    assert branch_probability("valley", 0, 1.0) == 0.5
    assert branch_probability("peak", -2, 0.0) == 0.5
    assert branch_probability("valley", +2, 0.6) == pytest.approx(0.3)
    assert branch_probability("peak", 0, 0.6) == pytest.approx(0.8)
    for p in (0.0, 0.3, 1.0):
        assert branch_probability("slope", 0, p) == 1.0
    with pytest.raises(InvalidParameterError):
        branch_probability("sideways", 0, 0.5)
    with pytest.raises(InvalidParameterError):
        branch_probability("slope", +2, 0.5)


def test_deformation_weights_frozen():
    # k=1, flat sides below (S = (-1,-1)), p = 1/2: spike weight p/2*(1-p)/2,
    # flat weight (1-p/2)^2*((1+p)/2)^2, colored spike halved per color
    d = build_deformation_state(1, 1, (-1, -1), 0.5)
    assert d.coeffs[0] ** 2 == pytest.approx(0.0625 / 2)
    assert d.coeffs[1] ** 2 == pytest.approx(0.31640625)
    assert d.norm_exact == pytest.approx(0.0625 / 2 + 0.31640625)
    assert len(d.states) == 2 and all(len(s) == 14 for s in d.states)


def test_deformation_cases_and_errors():
    with pytest.raises(InvalidParameterError):
        build_deformation_state(4, 1, (1, 1), 0.4)
    with pytest.raises(InvalidParameterError):
        build_deformation_state(1, 1, (1, 0), 0.4)
    with pytest.raises(InvalidParameterError):
        build_deformation_state(1, 3, (1, 1), 0.4)
    # p=0 kills the deposit branch of the spike case
    d0 = build_deformation_state(1, 1, (-1, -1), 0.0)
    assert d0.coeffs[0] == 0.0 and d0.coeffs[1] > 0


def test_projector_properties():
    for k in (1, 2, 3):
        for S in ((-1, -1), (-1, 1), (1, -1), (1, 1)):
            for c in (1, 2, None):
                term = _update_term(4, 4, _update_pattern(k, c, S, 0.37))
                M = term.matrix
                assert np.array_equal(M, M.T)
                assert np.allclose(M @ M, M, atol=1e-10)
                assert np.linalg.eigvalsh(M).min() >= -1e-12
                n = len(term.states)
                assert np.linalg.matrix_rank(M) == n - 1
                # the normalized deformation state spans the kernel
                d = build_deformation_state(k, c, S, 0.37)
                vec = np.zeros(n)
                for state, coeff in zip(d.states, d.coeffs):
                    vec[term.states.index(state)] = coeff
                assert np.linalg.norm(M @ vec) < 1e-12
                # an orthogonal combination is fixed by the projector
                orth = np.zeros(n)
                idx0 = term.states.index(d.states[0])
                idx1 = term.states.index(d.states[1])
                orth[idx0], orth[idx1] = d.coeffs[1], -d.coeffs[0]
                assert np.allclose(M @ orth, orth, atol=1e-12)


def _state_from_key(key, params):
    return SparseState(np.frombuffer(key, dtype=np.uint8)[None], np.ones(1), params)


def expectation(terms, state):
    """<psi|H|psi> from the per-key reference loop."""
    out = _reference_apply(terms, state)
    return math.fsum(state.amplitudes.get(k, 0.0) * v for k, v in out.items())


def test_boundary_terms_annihilate_bridges():
    params = ModelParams(L=3, p=0.5, colored=True, **ABS)
    terms = build_boundary_terms(params)
    state = build_state(params)
    assert max(term_residuals(terms, state)) < 1e-12


def test_boundary_terms_score_violations():
    params = ModelParams(L=3, p=0.5, colored=True, **ABS)
    terms = build_boundary_terms(params)
    traj = bridge_records(params)[0][0]
    config = encode_trajectory(traj, params)
    config.spins[(1, 0)] = 0  # bottom-row spin flipped down
    bad = _state_from_key(canonical_key(config), params)
    assert expectation(terms, bad) >= 1.0 / 3 - 1e-12
    config.spins[(1, 0)] = 1
    config.spins[(0, 1)] = 1  # left column must be down at odd rows
    bad = _state_from_key(canonical_key(config), params)
    assert expectation(terms, bad) >= 1.0 / 3 - 1e-12


def test_gauss_term():
    params = ModelParams(L=3, p=0.5, colored=True, **ABS)
    terms = build_gauss_term(params)
    assert len(terms) == 4
    state = build_state(params)
    assert max(term_residuals(terms, state)) == 0.0
    traj = bridge_records(params)[0][0]
    config = encode_trajectory(traj, params)
    config.spins[(1, 1)] ^= 1  # interior spin flip hits both adjacent vertices
    bad = _state_from_key(canonical_key(config), params)
    assert expectation(terms, bad) == pytest.approx(2.0)
    for term in terms:
        assert np.allclose(term.matrix, np.round(term.matrix))


def test_color_term():
    params = ModelParams(L=3, p=0.5, colored=True, **ABS)
    terms = build_color_term(params)
    state = build_state(params)
    assert max(term_residuals(terms, state)) == 0.0
    raised = [t for t, _ in bridge_records(params) if t.events[(2, 1)] == ("deposit", 1)][0]
    config = encode_trajectory(raised, params)
    config.colors[(2, 1)] = 0  # deposit vertex colored 0
    assert expectation(terms, _state_from_key(canonical_key(config), params)) == pytest.approx(1.0)
    config.colors[(2, 1)] = 1
    config.colors[(1, 2)] = 2  # no-change vertex colored
    assert expectation(terms, _state_from_key(canonical_key(config), params)) == pytest.approx(1.0)
    assert build_color_term(params.with_(colored=False)) == []


def test_term_count_formula():
    for L in (3, 5):
        for colored in (True, False):
            params = ModelParams(L=L, p=0.5, colored=colored, **ABS)
            terms = assemble_hamiltonian(params)
            n_vertices = (L * L - 1) // 2
            n_plaquettes = len(update_plaquettes(L))
            expected = (
                2 * ((L + 1) + (L + 1) // 2)      # initial + final pins and dips
                + 2 * (L + 1)                      # left + right columns
                + n_vertices                       # gauss
                + (n_vertices if colored else 0)   # color validity
                + n_plaquettes * 3 * 4 * (2 if colored else 1)
            )
            assert len(terms) == expected
            assert n_plaquettes == ((L - 2) ** 2 + 1) // 2


def test_all_terms_hermitian_psd_and_projectors_idempotent():
    params = ModelParams(L=3, p=0.37, colored=True, **ABS)
    for term in assemble_hamiltonian(params):
        M = term.matrix
        assert np.array_equal(M, M.T)
        assert np.linalg.eigvalsh(M).min() >= -1e-12
        if term.kind != "gauss":
            assert np.allclose(M @ M, M, atol=1e-10), term.kind


def test_uncolored_variant_has_no_color_support():
    params = ModelParams(L=3, p=0.5, colored=False, **ABS)
    for term in assemble_hamiltonian(params):
        assert all(site[0] == "s" for site in term.support)


def test_frustration_freeness_and_positivity():
    for p in (0.25, 0.8):
        for colored in (True, False):
            params = ModelParams(L=3, p=p, colored=colored, **ABS)
            state = build_state(params)
            terms = assemble_hamiltonian(params)
            assert max(term_residuals(terms, state)) < 1e-10
            out = _reference_apply(terms, state)
            assert math.sqrt(math.fsum(v * v for v in out.values())) < 1e-10


def test_expectation_nonnegative_on_sector():
    for L, colored in ((3, True), (5, False)):
        params = ModelParams(L=L, p=0.5, colored=colored, **ABS)
        terms = assemble_hamiltonian(params)
        keys = sector_keys(params)
        H = sector_matrix(terms, keys, params)
        reference = list(_reference_term_entries(terms, keys, params))
        rng = np.random.default_rng(0)
        for _ in range(5):
            vec = rng.random(len(keys))
            vec /= np.linalg.norm(vec)
            state = SparseState(keys, vec, params)
            assert expectation(terms, state) >= -1e-12
            # both consumers of the term loop agree with the per-key loop
            per_term = [_reference_sums(entries, vec, {}) for entries in reference]
            out = {}
            for entries in reference:
                _reference_sums(entries, vec, out)
            assert set(out) <= set(map(bytes, keys))
            applied = np.array([out.get(k, 0.0) for k in map(bytes, keys)])
            assert np.max(np.abs(H @ vec - applied)) < 1e-12
            assert term_residuals(terms, state) == [
                math.sqrt(math.fsum(v * v for v in sums.values())) for sums in per_term]


@pytest.mark.parametrize("L,colored,p", [
    *((L, colored, p) for L in (3, 5) for colored in (False, True) for p in (0.0, 0.3, 1.0)),
    (7, False, 0.5),
])
def test_term_action_matches_reference(L, colored, p):
    # same entries in the same order, so every float is bit for bit the per-key loop's
    params = ModelParams(L=L, p=p, colored=colored, **ABS)
    terms = assemble_hamiltonian(params)
    keys = sector_keys(params)
    rng = np.random.default_rng(L)
    shuffled = keys[rng.permutation(len(keys))]
    amps = rng.standard_normal(len(keys)).tolist()
    state = SparseState(shuffled, np.array(amps), params)
    reference = list(_reference_term_entries(terms, shuffled, params))
    per_term = [_reference_sums(entries, amps, {}) for entries in reference]
    assert term_residuals(terms, state) == [
        math.sqrt(math.fsum(v * v for v in out.values())) for out in per_term]
    assert np.array_equal(sector_matrix(terms, keys, params), _reference_matrix(terms, keys, params))


def test_term_action_edge_cases():
    params = ModelParams(L=5, p=0.3, colored=True, **ABS)
    terms = assemble_hamiltonian(params)
    keys = sector_keys(params)
    state = SparseState(keys, np.ones(len(keys)), params)
    # every sector key has its bottom spins up, so a down pin there matches none
    unmatched = LocalTerm(kind="initial", support=(("s", 1, 0),), weight=1.0,
                          states=((0,),), matrix=np.array([[1.0]]))
    assert term_residuals([unmatched], state) == [0.0]
    empty = SparseState(keys[:0], np.zeros(0), params)
    assert term_residuals(terms, empty) == [0.0] * len(terms)
    assert term_residuals([], state) == []


def test_layout_memo_serves_only_its_own_terms_and_keys():
    # the memo keeps the layout of the last terms and keys; after a full-term call, a
    # term subset, the reversed terms and two plaquettes' terms of one pattern traded
    # (same matrices, other supports) must each get their own, over either key order
    params = ModelParams(L=5, p=0.3, colored=True, **ABS)
    terms = assemble_hamiltonian(params)
    keys = sector_keys(params)
    rng = np.random.default_rng(11)
    shuffled = keys[rng.permutation(len(keys))]
    update = [n for n, term in enumerate(terms) if term.kind == "update"]
    traded = list(terms)
    traded[update[0]], traded[update[-24]] = terms[update[-24]], terms[update[0]]
    for some in (terms[::3], terms[::-1], traded):
        term_residuals(terms, build_state(params))
        sector_spectrum(terms, params, 4)
        for order in (shuffled, keys):
            amps = rng.standard_normal(len(keys)).tolist()
            state = SparseState(order, np.array(amps), params)
            reference = list(_reference_term_entries(some, order, params))
            assert term_residuals(some, state) == [
                math.sqrt(math.fsum(v * v for v in _reference_sums(entries, amps, {}).values()))
                for entries in reference]
            assert np.array_equal(sector_matrix(some, order, params),
                                  _reference_matrix(some, order, params))
        levels = sector_spectrum(some, params, len(keys))
        exact._KEPT.clear()  # a fresh call builds its layout from nothing
        assert sector_spectrum(some, params, len(keys)) == levels
        dense = np.linalg.eigvalsh(_reference_matrix(some, keys, params))
        assert np.max(np.abs(np.array(levels) - dense)) < 1e-12


def test_p_grid_builds_the_sector_once(monkeypatch):
    # the sector keys and the character basis do not depend on p, so a p grid at one L
    # builds each of them once with the kept layout
    calls = {"sector_keys": 0, "_SymmetryReduction": 0}

    def counted(name):
        real = getattr(hamiltonian, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(hamiltonian, name, counted(name))
    exact._KEPT.clear()
    for p in (0.25, 0.5, 0.8):
        params = ModelParams(L=5, p=p, colored=True, **ABS)
        assert len(sector_spectrum(assemble_hamiltonian(params), params, 4)) == 4
    assert calls == {"sector_keys": 1, "_SymmetryReduction": 1}


def test_shared_term_matrices_are_read_only():
    # terms of one pattern share one matrix, so none of them may write into it
    params = ModelParams(L=5, p=0.3, colored=True, **ABS)
    terms = assemble_hamiltonian(params)
    by_kind = {}
    for term in terms:
        by_kind.setdefault(term.kind, []).append(term)
    assert set(by_kind) == {"initial", "final", "left", "right", "gauss", "color", "update"}
    assert len({id(term.matrix) for term in by_kind["update"]}) == 3 * 4 * 2
    for kind, group in by_kind.items():
        with pytest.raises(ValueError, match="read-only"):
            group[-1].matrix[0, 0] = 0.5
        assert len({id(term.matrix) for term in group}) < len(group), kind


def test_sector_matrix_key_handling():
    params = ModelParams(L=5, p=0.5, colored=True, **ABS)
    terms = assemble_hamiltonian(params)
    keys = sector_keys(params)
    H = sector_matrix(terms, keys, params)
    perm = np.random.default_rng(5).permutation(len(keys))
    assert np.array_equal(sector_matrix(terms, keys[perm], params), H[np.ix_(perm, perm)])
    with pytest.raises(InvalidParameterError, match="distinct"):
        sector_matrix(terms, np.vstack([keys, keys[7:8]]), params)
    # drop a key some term maps another key onto: the basis is no longer closed
    target = next(key2 for entries in _reference_term_entries(terms, keys, params)
                  for a, key2, _ in entries if key2 != bytes(keys[a]))
    with pytest.raises(AssertionError, match="not closed"):
        sector_matrix(terms, keys[[bytes(key) != target for key in keys]], params)


def test_sector_spectrum_and_fidelity():
    params = ModelParams(L=3, p=0.5, colored=True, **ABS)
    terms = assemble_hamiltonian(params)
    vals = sector_spectrum(terms, params, 3)
    assert vals[0] < 1e-10
    assert vals[1] > 1e-6
    assert all(v >= -1e-10 for v in vals)
    keys = sector_keys(params)
    dense, vecs = np.linalg.eigh(sector_matrix(terms, keys, params))
    state = build_state(params)
    target = np.array([state.amplitudes.get(k, 0.0) for k in map(bytes, keys)])
    assert abs(float(target @ vecs[:, 0])) ** 2 > 1 - 1e-9
    # the eigenvalues agree with a direct diagonalization of the sector matrix
    assert vals == pytest.approx(list(dense[:3]), abs=1e-10)
    # L=5 colored has a doubly degenerate second level; the solver must keep both copies
    params = ModelParams(L=5, p=0.5, colored=True, **ABS)
    terms = assemble_hamiltonian(params)
    vals = sector_spectrum(terms, params, 4)
    dense = np.linalg.eigvalsh(sector_matrix(terms, sector_keys(params), params))[:4]
    assert vals == pytest.approx(list(dense), abs=1e-10)
    assert dense[1] == pytest.approx(dense[2], abs=1e-10) and dense[1] > 1e-6


@pytest.mark.parametrize("colored", [False, True])
@pytest.mark.parametrize("p", [0.0, 1.0])
def test_sector_spectrum_is_reproducible(colored, p):
    # at the edge values the sector has degenerate levels; repeated calls
    # on the same matrix must return the same floats, bit for bit
    params = ModelParams(L=5, p=p, colored=colored, **ABS)
    terms = assemble_hamiltonian(params)
    first = sector_spectrum(terms, params, 4)
    assert all(sector_spectrum(terms, params, 4) == first for _ in range(3))
    vals = np.linalg.eigh(sector_matrix(terms, sector_keys(params), params))[0][:4]
    assert list(vals) == pytest.approx(first, abs=1e-12)


@pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 0.8, 1.0])
@pytest.mark.parametrize("L,colored", [(3, False), (5, False), (7, False), (3, True), (5, True)])
def test_block_spectrum_matches_dense(L, colored, p):
    # every level of the block path against one eigvalsh of the whole sector matrix
    params = ModelParams(L=L, p=p, colored=colored, **ABS)
    terms = assemble_hamiltonian(params)
    keys = sector_keys(params)
    dense = np.linalg.eigvalsh(sector_matrix(terms, keys, params))
    blocks = np.array(sector_spectrum(terms, params, len(keys)))
    assert len(blocks) == len(keys)
    assert np.max(np.abs(blocks - dense)) < 1e-12
    # equal multiplicities: the levels fall into the same runs of degenerate copies
    assert np.array_equal(np.diff(blocks) > 1e-9, np.diff(dense) > 1e-9)


def test_sector_blocks_L7():
    # H at L = 7 uncolored splits into five blocks; the largest is the ground state's support
    params = ModelParams(L=7, p=0.5, colored=False, **ABS)
    terms = assemble_hamiltonian(params)
    keys = sector_keys(params)
    H = sector_matrix(terms, keys, params)
    members, label = [], np.full(len(keys), -1)
    row, col, value = _cells(H)
    blocks = _Blocks(row, col, len(keys))
    for ids, matrices in blocks(value):
        for block, matrix in zip((np.flatnonzero(blocks.block == b) for b in ids), matrices):
            assert (label[block] == -1).all() and list(block) == sorted(block)
            label[block] = len(members)
            members.append(block)
            assert np.array_equal(matrix, H[np.ix_(block, block)])
    assert sorted(map(len, members), reverse=True) == [690, 72, 72, 33, 1]
    assert (label >= 0).all()
    row, col = np.nonzero(H)
    assert (label[row] == label[col]).all()  # no entry couples two blocks
    support = {bytes(keys[n]) for n in max(members, key=len)}
    assert support == set(build_state(params).amplitudes)


def _cells(H):
    """H's nonzero cells (row, col, value), row-major: the layout's `sector_cells` and
    their values, since no cell's entries sum to 0."""
    row, col = np.nonzero(H)
    return row, col, H[row, col]


@pytest.mark.parametrize("L,colored,bridges,sector,p,gap", [
    (L, colored, bridges, sector, p, gap)
    for L, colored, bridges, sector, gaps in [(5, False, 17, 18, (0.432, 0.460, 0.420)),
                                              (7, False, 690, 868, (0.239, 0.264, 0.227)),
                                              (5, True, 57, 237, (0.354, 0.357, 0.352))]
    for p, gap in zip((0.25, 0.5, 0.8), gaps)])
def test_ground_block_is_a_heat_bath_chain(L, colored, bridges, sector, p, gap):
    # In the sector basis H is stoquastic and the block holding psi is the bridge set.
    # Since H psi = 0 there, every linked pair x, y of bridges has
    # -H_xy psi_x psi_y = pi_x pi_y / (pi_x + pi_y) with pi = psi^2: the ground block is
    # the generator of a reversible heat-bath chain on the bridges, up to a similarity
    # transform (the stochastic matrix form of Castelnovo, Chamon, Mudry & Pujol 2005).
    # So for any function g of a history the Dirichlet identity
    #     <(g - E g) psi|H|(g - E g) psi> = 1/2 sum_{x != y} (-H_xy) psi_x psi_y (g_x - g_y)^2
    # holds, and over Var_pi(g) it bounds the ground-block gap from above.  For g the
    # area after slice (L - 1) / 2 at p = 0.5 the bound is 0.852 and 0.642 at L = 5 and 7
    # uncolored and 0.893 at L = 5 colored, against second levels 0.460, 0.264 and 0.357.
    params = ModelParams(L=L, p=p, colored=colored, **ABS)
    terms = assemble_hamiltonian(params)
    keys = sector_keys(params)
    H = sector_matrix(terms, keys, params)
    x, y = np.nonzero(H - np.diag(np.diag(H)))
    assert (H[x, y] < 0).all()  # no off-diagonal entry is positive
    state = build_state(params)
    at = {key: n for n, key in enumerate(map(bytes, keys))}
    on = np.array([at[bytes(key)] for key in state.keys])
    psi = np.zeros(len(keys))
    psi[on] = state.amps
    row, col = np.nonzero(H)
    block = _Blocks(row, col, len(keys)).block  # each key's block
    ground = np.flatnonzero(block == block[on[0]])
    assert (len(ground), len(keys)) == (bridges, sector)
    assert np.array_equal(ground, np.sort(on))
    levels, vecs = np.linalg.eigh(H[np.ix_(ground, ground)])
    assert abs(levels[0]) < 1e-12 and levels[1] == pytest.approx(gap, abs=1e-3)
    assert np.max(np.abs(vecs[:, 0] ** 2 - psi[ground] ** 2)) < 1e-12
    pi = psi ** 2
    linked = psi[x] != 0  # pairs inside the ground block
    rate = -H[x, y][linked] * psi[x[linked]] * psi[y[linked]]
    heat_bath = pi[x[linked]] * pi[y[linked]] / (pi[x[linked]] + pi[y[linked]])
    assert (np.abs(rate - heat_bath) <= 1e-12 * heat_bath).all()
    # left side: each term but the Gauss one is weight * projector, so
    # <phi|T_j|phi> = r_j^2 / weight for residual r_j; Gauss terms vanish on the bridges
    area = decode_keys(state.keys, params).profiles[:, (L - 1) // 2, 1:L + 1].sum(axis=1)
    g = np.zeros(len(keys))
    g[on] = area - math.fsum((state.amps ** 2 * area).tolist())
    residuals = term_residuals(terms, SparseState(state.keys, g[on] * state.amps, params))
    assert all(r == 0 for r, term in zip(residuals, terms) if term.kind == "gauss")
    form = math.fsum(r * r / term.weight for r, term in zip(residuals, terms))
    dirichlet = 0.5 * math.fsum((-H[x, y] * psi[x] * psi[y] * (g[x] - g[y]) ** 2).tolist())
    assert form == pytest.approx(dirichlet, rel=1e-12, abs=0)
    assert form / math.fsum((pi * g * g).tolist()) >= levels[1]


def _symmetries(terms, keys, params):
    """{name: key permutation} of the symmetries that commute with H over the sorted `keys`."""
    _, _, value = _cells(sector_matrix(terms, keys, params))
    return _commuting(_symmetry_images(_layout(terms, params)[0].entries(keys), params), value)


@pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 0.8, 1.0])
@pytest.mark.parametrize("L,colored", [(5, False), (7, False), (5, True)])
def test_symmetry_check(L, colored, p):
    # reflection and color swap commute with H at every p; time reversal only for
    # 0 < p < 1 (at p = 0 and 1 it moves entries of H by 0.67 at L = 5, 2.0 at L = 7)
    params = ModelParams(L=L, p=p, colored=colored, **ABS)
    terms = assemble_hamiltonian(params)
    keys = sector_keys(params)
    kept = _symmetries(terms, keys, params)
    assert list(kept) == ["R"] + ["T"] * (0 < p < 1) + ["C"] * colored
    H = sector_matrix(terms, keys, params)
    for perm in kept.values():
        assert sorted(perm) == list(range(len(keys))) and (perm[perm] == np.arange(len(keys))).all()
        assert np.max(np.abs(H[np.ix_(perm, perm)] - H)) <= 1e-12 * np.max(np.abs(H))


@pytest.mark.parametrize("L,colored,p,sizes", [
    (7, False, 0.5, [270, 206, 206, 186]),
    (7, False, 0.0, [476, 392]),
    (7, False, 1.0, [476, 392]),
    (5, True, 0.5, [46, 23, 25, 25, 32, 27, 32, 27]),
])
def test_symmetry_sector_spectra(L, colored, p, sizes):
    # the sector spectra, each from one dense eigvalsh, are together the whole spectrum
    params = ModelParams(L=L, p=p, colored=colored, **ABS)
    terms = assemble_hamiltonian(params)
    keys = sector_keys(params)
    row, col, value = _cells(sector_matrix(terms, keys, params))
    reduction = _SymmetryReduction(list(_symmetries(terms, keys, params).values()),
                                   row, col, len(keys))
    dims, row, col, value = reduction.dims, reduction.row, reduction.col, reduction(value)
    assert dims.tolist() == sizes
    H = np.zeros((sum(sizes), sum(sizes)))
    H[row, col] = value
    ends = np.cumsum(sizes)
    sector = np.searchsorted(ends, np.arange(sum(sizes)), side="right")
    assert (sector[row] == sector[col]).all()  # no entry couples two sectors
    levels = np.sort(np.concatenate(
        [np.linalg.eigvalsh(H[lo:hi, lo:hi]) for lo, hi in zip(ends - sizes, ends)]))
    dense = np.linalg.eigvalsh(sector_matrix(terms, keys, params))
    assert np.max(np.abs(levels - dense)) < 1e-12
    assert np.array_equal(np.diff(levels) > 1e-9, np.diff(dense) > 1e-9)


def _sector_reduction_inputs(L, colored, p):
    """(commuting key permutations, row, col, n keys, H's values) of the kept sector layout."""
    params = ModelParams(L=L, p=p, colored=colored, **ABS)
    layout, weights, flat = _layout(assemble_hamiltonian(params), params)
    n, term, at, (row, col, group), images = layout.sector
    value = np.bincount(group, weights=weights[term] * flat[at])
    return list(_commuting(images, value).values()), row, col, n, value


@pytest.mark.parametrize("p", [0.25, 0.5, 1.0])
@pytest.mark.parametrize("L,colored", [(5, False), (7, False), (5, True)])
def test_reduction_matches_all_characters_reference(L, colored, p):
    # one character at a time gives the all-characters pass's arrays, array for array, and
    # the same bits when called; at p = 1 time reversal does not commute and drops out
    perms, row, col, n, value = _sector_reduction_inputs(L, colored, p)
    assert len(perms) == 1 + (p < 1) + colored
    got, want = _SymmetryReduction(perms, row, col, n), AllCharactersReduction(perms, row, col, n)
    for name in ("entry", "sign", "scale", "group", "dims", "row", "col"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.sign.dtype == np.int8
    assert got(value).tobytes() == want(value).tobytes()


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("L,colored", [(7, False), (5, True)])
def test_reduction_peak_is_one_character_at_a_time(L, colored):
    # no (character, cell) array spans every character but the kept ones: the traced peak
    # read 1,157 KB against the reference's 2,359 KB at L = 7 uncolored, 240 KB against
    # 542 KB at L = 5 colored
    perms, row, col, n, _ = _sector_reduction_inputs(L, colored, 0.5)
    peaks = []
    for reduction in (_SymmetryReduction, AllCharactersReduction):
        _traced_peak(lambda: reduction(perms, row, col, n))  # first-call allocations stay out
        peaks.append(_traced_peak(lambda: reduction(perms, row, col, n)))
    assert peaks[0] <= 0.7 * peaks[1], peaks


@pytest.mark.parametrize("k", [0, -1, 2.0, True, "4", None])
def test_sector_spectrum_rejects_bad_k(k):
    params = ModelParams(L=3, p=0.5, colored=True, **ABS)
    with pytest.raises(InvalidParameterError, match="k must be an integer"):
        sector_spectrum(assemble_hamiltonian(params), params, k)


def test_sector_spectrum_leaves_numpy_ma_unimported():
    # numpy.ma loads lazily on a plain np.unique and costs about 18 ms per interpreter
    src = str(Path(depevap.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys\n"
            "from depevap import ModelParams\n"
            "from depevap.hamiltonian import assemble_hamiltonian, sector_spectrum\n"
            "params = ModelParams(L=5, p=0.5, colored=True, boundary_mode='absorbing')\n"
            "assert len(sector_spectrum(assemble_hamiltonian(params), params, 4)) == 4\n"
            "assert 'numpy.ma' not in sys.modules\n")
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_mismatched_colors_are_gapped():
    params = ModelParams(L=3, p=0.5, colored=True, **ABS)
    terms = assemble_hamiltonian(params)
    raised = [t for t, _ in bridge_records(params) if t.events[(2, 1)] == ("deposit", 1)][0]
    config = encode_trajectory(raised, params)
    config.colors[(2, 3)] = 2  # break the pair matching
    bad = _state_from_key(canonical_key(config), params)
    assert expectation(terms, bad) >= 1.0 - 1e-12


# (L, colored, keys, sha256 of the sorted keys joined) recorded from the recursive
# enumeration, the first six before the histories went through codec.profiles_to_heights
SECTOR_KEY_HASHES = [
    (3, False, 2, "3821076e12eb16368a943b1606b2484a001db79c6c14cdc1b1ed966628775f85"),
    (3, True, 5, "75ad06fa41bbad373948562dd5ffd670e9b144cef1b52bd8746c408d158201b8"),
    (5, False, 18, "eebbb3b3d535e3ee6a7886eef039a9fec4a9dcc88518f33015d5a88e549fe932"),
    (5, True, 237, "d5a1821bf2cd8f18d34fbfc0c5eac0b44f24cca6e055bdc1bbe7f4f0e9753ebc"),
    (7, False, 868, "2febc7fcb003a6c1fdc8a2daf7532f2a6d79c62163e17e39d1efa0219e2f0a02"),
    (7, True, 175969, "d18b89531c3fe59d5dd922443985e255ed7dde0ab8e9932ddc4db12063f91a86"),
    (9, False, 230274, "586c30024e9aa92e730dbdd6b3592d45ce8eb6428c4e8a1110cdd13c87cc1732"),
]


@pytest.mark.parametrize("L,colored,count,digest", SECTOR_KEY_HASHES)
def test_sector_keys_unchanged(L, colored, count, digest):
    # L=9 needs more than the default 200,000: its history tree has 750,352 nodes
    keys = sector_keys(ModelParams(L=L, p=0.5, colored=colored, **ABS), max_states=750_352)
    assert len(keys) == count
    assert hashlib.sha256(b"".join(keys)).hexdigest() == digest


@pytest.mark.parametrize("L,colored", [(5, True), (7, False)])
def test_sector_keys_are_a_sorted_key_matrix(L, colored):
    params = ModelParams(L=L, p=0.5, colored=colored, **ABS)
    keys = sector_keys(params)
    assert isinstance(keys, np.ndarray) and keys.dtype == np.uint8
    assert keys.shape == (len(keys), key_length(params))
    rows = list(map(bytes, keys))
    assert all(a < b for a, b in zip(rows, rows[1:]))  # ascending as bytes, no repeats


@pytest.mark.parametrize("L,colored,peak,count", [(7, False, 2931, 868), (5, True, 237, 237)])
def test_sector_budget_threshold(L, colored, peak, count):
    # the budget covers every node of the history tree: 2,931 at L=7 uncolored, the
    # root and every history alive after each slice; colored, it covers the colored keys
    params = ModelParams(L=L, p=0.5, colored=colored, **ABS)
    with pytest.raises(CapacityError, match=f"sector exceeds {peak - 1} states"):
        sector_keys(params, max_states=peak - 1)
    assert len(sector_keys(params, max_states=peak)) == count


@pytest.mark.parametrize("colored", [True, False])
def test_sector_capacity_guard_trips_early(colored):
    # L=9 has far more than 1000 histories; the guard must fire while enumerating
    params = ModelParams(L=9, p=0.5, colored=colored, **ABS)
    start = time.perf_counter()
    with pytest.raises(CapacityError, match="1000"):
        sector_keys(params, max_states=1000)
    assert time.perf_counter() - start < 5.0


def test_sector_dense_guard_trips_early():
    # the L=7 colored sector (175,969 states) would need about 230 GiB as a dense
    # matrix; the dense budget caps the key count, so it fails while counting keys
    assert 8 * DENSE_STATES ** 2 <= DENSE_BYTES < 8 * (DENSE_STATES + 1) ** 2
    params = ModelParams(L=7, p=0.5, colored=True, **ABS)
    terms = assemble_hamiltonian(params)
    start = time.perf_counter()
    with pytest.raises(CapacityError, match=f"exceeds {DENSE_STATES} states"):
        sector_spectrum(terms, params, 4)
    assert time.perf_counter() - start < 5.0
    with pytest.raises(CapacityError, match="GiB"):
        sector_matrix(terms, [b""] * (DENSE_STATES + 1), params)


def test_dip_config_is_penalized():
    # hand-built dipping history at L=5: site 3 evaporates from 1 to -1 and refills
    params = ModelParams(L=5, p=0.5, colored=True, **ABS)
    terms = assemble_hamiltonian(params)
    keys = sector_keys(params)
    spins = params.with_(colored=False)  # the spin bytes lead each key; colors may mismatch
    profiles = decode_keys([key[:key_length(spins)] for key in keys], spins).profiles
    dips = [key for key, prof in zip(keys, profiles) if prof[2, 3] == -1]  # h~_3(3)
    assert dips, "sector enumeration lost the dipping histories"
    for key in dips[:4]:
        assert expectation(terms, _state_from_key(key, params)) > 1e-6


def test_reflecting_mode_rejected():
    with pytest.raises(UnsupportedModeError):
        assemble_hamiltonian(ModelParams(L=3, p=0.5, boundary_mode="reflecting"))



def test_hamiltonian_layout_drops_the_kept_dp_index():
    exact._KEPT.clear()
    params = ModelParams(L=5, p=0.5, colored=True, **ABS)
    entropy.entropy_dp(params)
    [(key, index)] = exact._KEPT
    assert key == ("profiles", 5) and isinstance(index, entropy._ProfileIndex)
    term_residuals(assemble_hamiltonian(params), build_state(params))
    [(key, layout)] = exact._KEPT
    assert key[:3] == ("terms", 5, True) and isinstance(layout, hamiltonian._Layout)
    exact._KEPT.clear()

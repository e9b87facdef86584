"""Byte-level guard on CLI outputs that every event-table consumer feeds.

Each manifest is small, and together they reach the forward-backward DP
(reflecting and absorbing, with its frozen-site factors), stack-emitter
generation with and without colors, the parent Hamiltonian's update
weights, and the vectorized free dynamics.  The sha256 of each listed
CSV was recorded with numpy 2.4; a refactor that keeps the model must
keep these bytes.  Outputs that go through LAPACK (exact_entropy.csv and
hamiltonian_spectrum.csv) are left out, because their last digits depend
on the BLAS build.  The power-law fits behind phase_exponents.csv and
scaling_summary.csv are closed-form sums in numpy (`entropy.fit_power_law`),
so those files are pinned too; their hashes were recorded when the fit
left `np.polyfit`, which moved their fields by at most 6e-15 relative.
CI reruns this module with numpy's SIMD dispatch switched off, so a pin
that holds only on AVX2/AVX-512 code paths fails there.

The two phase-sweep hashes were re-recorded once, when the forward-backward
DP moved from per-profile branch enumeration to the factorized transfer
kernel: it multiplies and sums in another order, which moved 20 of the 108
fields of the two files by at most 1.8e-15 (tests/test_entropy.py pins the
earlier DP's values to 1e-12).  The other five hashes are unchanged.

The scaling hashes at L = 512 and 511 (the benchmark's size, both
parities of L, and 260 slices across two RNG block boundaries) were
recorded with the stride-2 site-major kernel, before the parity-plane
kernel replaced it.

`GOLDEN_STATES` pins the canonical key bytes and amplitudes of built and
generated states through `export_state_text`, and one `save_state` file,
so that a change to the key codec has to keep the persisted layout.

The absorbing states at p = 0.9 (uncolored) and p = 0.3 (colored) pin the
order in which a bridge's weight multiplies the survival factors of the
pinned sites 1 and L: at these p a product in site order moves amplitudes
by one ulp, while at p = 0.25, 0.5 and 0.8 it happens to move none.

The L = 7 seqgen-check file and the L = 7 generated state are the
benchmark's `exact-state` generation point (8,481 keys); both hashes were
recorded before the emitter rounds started pruning branches that can no
longer return to the horizon, so they pin that the pruning changes no bit.

The L = 7 uncolored hamiltonian-check file is the benchmark's `exact-state`
Hamiltonian point (220 terms over the 690-key state); its hash was
recorded before the term entries were built one pass per shared support
and the sector spectrum split into connected blocks, so it pins that the
residuals keep every bit.

The hamiltonian-check entries at p = 0 and 1 pin the degenerate update
projectors: there a case's two-branch state has norm 0 (k = 2 at p = 0,
k = 3 at p = 1), and its projector is the identity on the case's states;
their hashes were recorded before the case table replaced the
deformation-state builder.

The dp-entropy entries at L = 21 and 23 pin the heaviest DP the tests
run (208,012 cut profiles at L = 23), in both modes and with a backward
pass of 20 slices (`cut_row` 3), so that a faster DP has to keep its
bits: an exact sum that adds the rounded sums of its 65,536-entry chunks
changes the first two files.

The entries with exit code 2 pin the capacity rows: a grid point over a
capacity guard writes one row of nan in grid order, after any rows the
point wrote before its guard tripped.
"""

import hashlib

import pytest

from depevap import ModelParams
from depevap.cli import run_experiment
from depevap.exact import build_state, export_state_text, save_state
from depevap.seqgen import run_generation

GOLDEN = [
    ({"experiment": "phase-sweep", "L": [5, 7, 9], "p": [0.25, 0.5, 0.8],
      "mode": "reflecting", "colored": True},
     {"phase_sweep.csv": "9815ff8ecc04af37547cb945b9a0eee95bc133bcf249a8b95b1ae9e7e52c9d63",
      "phase_exponents.csv": "bd9ab8ceee1063f2e6d4d1f4de44644ecf7918947be3eeaf092ad68712b133a3"}, 0),
    ({"experiment": "phase-sweep", "L": [5, 7, 9], "p": [0.25, 0.5, 0.8],
      "mode": "absorbing", "colored": True},
     {"phase_sweep.csv": "39632553da72cfc00d6eb5c4569c6322bbe50ddc01d218f8013fd230c9d592a4",
      "phase_exponents.csv": "72e91d1385912596dd939566e06f33eea575278e26f58a9b655141dfd70f5d40"}, 0),
    ({"experiment": "seqgen-check", "L": [3, 5], "p": [0.3, 0.8],
      "mode": "reflecting", "colored": True},
     {"seqgen_fidelity.csv": "09a429ac1b49fc730cb29e9632f1c00665dafc7003e5c26abdf5627c3e74157e"}, 0),
    ({"experiment": "seqgen-check", "L": [3, 5], "p": [0.3, 0.8],
      "mode": "reflecting", "colored": False},
     {"seqgen_fidelity.csv": "d7dadb98275279bbdadbde634cd990f069d298b94354fa5b798f328877cc9f89"}, 0),
    ({"experiment": "seqgen-check", "L": [7], "p": [0.25, 0.5, 0.8],
      "mode": "reflecting", "colored": True},
     {"seqgen_fidelity.csv": "bbe906486fdfba273c706af05cc24d3496cdf404d59347510769f23585a8987a"}, 0),
    ({"experiment": "hamiltonian-check", "L": [3, 5], "p": [0.25, 0.8],
      "mode": "absorbing", "colored": True},
     {"hamiltonian_residuals.csv":
      "264039c1b996b051957aed8e2bcb14bf6e2d94b8268021e278cd0f085a16bbab"}, 0),
    ({"experiment": "hamiltonian-check", "L": [3, 5], "p": [0.25, 0.8],
      "mode": "absorbing", "colored": False},
     {"hamiltonian_residuals.csv":
      "28525e27406e1c242bd3d2e809123d3b02741db422aa9ecb7109329b30291cb4"}, 0),
    ({"experiment": "hamiltonian-check", "L": [7], "p": [0.25, 0.5, 0.8],
      "mode": "absorbing", "colored": False},
     {"hamiltonian_residuals.csv":
      "3534d3ef53e80e84b2a1b893ff4728bd53637f7b7ddeb92dc7071d0fe6aef148"}, 0),
    # p = 0 and 1: some update cases have <D|D> = 0, so their projectors are the identity
    ({"experiment": "hamiltonian-check", "L": [3, 5], "p": [0.0, 1.0],
      "mode": "absorbing", "colored": True},
     {"hamiltonian_residuals.csv":
      "30b0a226ec5efafea4676790f353eff1379a737f2b8c262d61c6b6f63c8157d0"}, 0),
    ({"experiment": "hamiltonian-check", "L": [3, 5], "p": [0.0, 1.0],
      "mode": "absorbing", "colored": False},
     {"hamiltonian_residuals.csv":
      "611260def1535a84467a619533995ca5c51ff73dfa22dcccd542a9f8dd88cd06"}, 0),
    ({"experiment": "scaling", "L": [32], "p": [0.5, 0.8], "mode": "reflecting",
      "colored": True, "seed": 3, "samples": 8, "tmax": 400, "fit_lo": 20, "fit_hi": 300},
     {"scaling_L32_p0.5.csv": "4702f532d349b54a43c79b96519e68f386d7b34f271c987d20e303c06f87ba5c",
      "scaling_L32_p0.8.csv": "dd447ab729042500fb48b32596f8ebd0de2588f7b822605e85529926c7772311",
      "scaling_summary.csv": "bc22de8f525a53d5d6d8812780e8ccc7f661e51f1a398133290f60fbef71a6b7"}, 0),
    ({"experiment": "scaling", "L": [512, 511], "p": [0.5, 0.8], "mode": "reflecting",
      "colored": True, "seed": 3, "samples": 8, "tmax": 260},
     {"scaling_L512_p0.5.csv": "2d021010d58e5006ac22430a26ed1aeabeb0d54c7d102b5e2adb24f71b3944fc",
      "scaling_L512_p0.8.csv": "1f961cbf6e36c37834e2af2826021ea204c6a0793d708d8173d3df7fc2498cc5",
      "scaling_L511_p0.5.csv": "83bebdf5fc981c6748a487c415ffb8b370ac935c1575ebeb15c9e130f79aaa6e",
      "scaling_L511_p0.8.csv": "7fde76e6ea65f82857709eb4e1a39cc9ce508123864f4d6f03be0ded31e98dac"}, 0),
    # L = 29 is past the DP's profile guard: one capacity row per p, after the L = 7 rows
    ({"experiment": "dp-entropy", "L": [5, 7, 29], "p": [0.0, 0.5, 1.0],
      "mode": "reflecting", "colored": True},
     {"dp_entropy.csv": "befbdc82782d7ade346b7a4dd6dc90032d1e2f3a1921d7c6f3708e7b18bb3666"}, 2),
    ({"experiment": "dp-entropy", "L": [5, 7, 9], "p": [0.3], "mode": "absorbing",
      "colored": False, "cut_row": 2},
     {"dp_entropy.csv": "e7f4f21b4bc211629310262e3b0876678dedb566265bda05702413ce9f1d3589"}, 0),
    ({"experiment": "dp-entropy", "L": [21, 23], "p": [0.25, 0.5, 0.8],
      "mode": "reflecting", "colored": True},
     {"dp_entropy.csv": "68abfe265b5ad3de3bf088013dbbe264b17138fee5309b380dfdb39204f3211b"}, 0),
    ({"experiment": "dp-entropy", "L": [21, 23], "p": [0.25, 0.5, 0.8],
      "mode": "absorbing", "colored": True},
     {"dp_entropy.csv": "e01f997874accceb0045abbee8b05cacbcdb9a60d14b7133d8bd92fa72d88322"}, 0),
    ({"experiment": "dp-entropy", "L": [23], "p": [0.25], "mode": "reflecting",
      "colored": True, "cut_row": 3},
     {"dp_entropy.csv": "bffcb271452cb461c51dec389746daeca0ac39d62657b7c1f22d505447f62c4a"}, 0),
    # a p with no dp row gets no fit row, so phase_exponents.csv is its header alone
    ({"experiment": "phase-sweep", "L": [29], "p": [0.5, 0.8], "mode": "reflecting",
      "colored": True},
     {"phase_sweep.csv": "46ca6cc105c41161def8c83374625a2b41a0b52dc7fcca8295b9bbd0ae485a40",
      "phase_exponents.csv": "9a79c86d620927b837d5ed651957a866288ba97d3c952ce5df41ebedbfa7b114"}, 2),
    ({"experiment": "seqgen-check", "L": [3, 5, 7], "p": [0.5], "mode": "reflecting",
      "colored": True, "max_nodes": 2000},
     {"seqgen_fidelity.csv": "97493fe4faa2fa41f4b118dd11b4feec802bb0d82a02952ba685555e683f16be"}, 2),
    # a partial point: L = 7's 400 residual rows stay, and its capacity row follows them
    # once the sector spectrum trips DENSE_STATES
    ({"experiment": "hamiltonian-check", "L": [3, 7], "p": [0.5], "mode": "absorbing",
      "colored": True},
     {"hamiltonian_residuals.csv":
      "4c04a037e42acaac34b4eb7fc4ea120a6ffe0a54bce9eff3b5e34e3defd4bffe"}, 2),
]


def _golden_ids(cases):
    """experiment-mode-colors, plus the sizes where that label repeats."""
    ids = []
    for m, _, _ in cases:
        label = f"{m['experiment']}-{m['mode']}-{'colored' if m['colored'] else 'uncolored'}"
        ids.append(label if label not in ids else f"{label}-L{'-'.join(map(str, m['L']))}")
    return ids


@pytest.mark.parametrize("manifest,hashes,exit_code", GOLDEN, ids=_golden_ids(GOLDEN))
def test_golden_csv_bytes(tmp_path, manifest, hashes, exit_code):
    paths, code = run_experiment({**manifest, "out": str(tmp_path)})
    assert code == exit_code
    by_name = {p.name: p for p in paths}
    for name, want in hashes.items():
        assert hashlib.sha256(by_name[name].read_bytes()).hexdigest() == want, name


GOLDEN_STATES = [
    ("build", ModelParams(L=5, p=0.5, boundary_mode="reflecting", colored=True), 57,
     "711dd9b47935e42d3f3c7e0d0010032e96b76ba1b80c377f161f60592cabb07f"),
    ("build", ModelParams(L=7, p=0.5, boundary_mode="absorbing", colored=False), 690,
     "2d31557382349057fe40eec68ceb56c2b31741a61ff2083fba34dddb1a778a36"),
    ("build", ModelParams(L=7, p=0.9, boundary_mode="absorbing", colored=False), 690,
     "66bc5a7f31f6df333da77a59f97d7157a59b325051ba43d384f9923f8e3b9b4f"),
    ("build", ModelParams(L=7, p=0.3, boundary_mode="absorbing", colored=True), 8_481,
     "5202caa1eb64a8c8b2dac68309b837378c6edc7c5b2d7d82257d6114bdadbee6"),
    ("generate", ModelParams(L=5, p=0.8, boundary_mode="reflecting", colored=True), 57,
     "7201cbcf40451ebf16cc39fbf65efcda6c905c3cc4f3dee8d00ba57585ceb83f"),
    ("generate", ModelParams(L=7, p=0.5, boundary_mode="reflecting", colored=True), 8_481,
     "66c7815492f7ab9c1eb52fa9ce1f50dd8afc41cf52932b269bbf38f7e47aa566"),
]


def _state_ids(cases):
    """how-L-mode-colors, plus p where that label repeats."""
    ids = []
    for how, p, _, _ in cases:
        label = f"{how}-L{p.L}-{p.boundary_mode}-{'colored' if p.colored else 'uncolored'}"
        ids.append(label if label not in ids else f"{label}-p{p.p}")
    return ids


@pytest.mark.parametrize("how,params,count,want", GOLDEN_STATES, ids=_state_ids(GOLDEN_STATES))
def test_golden_state_text(how, params, count, want):
    state = build_state(params) if how == "build" else run_generation(params)[0]
    assert len(state) == count
    assert hashlib.sha256(export_state_text(state).encode()).hexdigest() == want


def test_golden_saved_state_bytes(tmp_path):
    path = tmp_path / "state.bin"
    save_state(build_state(ModelParams(L=5, p=0.5, boundary_mode="reflecting", colored=True)),
               path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "6bdba87aecc3f6e51ad0c4fd8f118a8644afc594cc5bc693d6dc10b4382bdd63"

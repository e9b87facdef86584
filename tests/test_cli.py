import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import depevap
from depevap import scaling
from depevap.cli import load_manifest, main, normalize_manifest, run_experiment, save_manifest
from depevap.errors import InvalidParameterError


def _hash_files(paths):
    out = {}
    for p in sorted(paths):
        if p.name == "run_metadata.json":
            continue  # carries wall time by design
        out[p.name] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def test_manifest_round_trip(tmp_path):
    manifest = normalize_manifest({"experiment": "dp-entropy", "L": [3, 5], "p": [0.5]})
    path = tmp_path / "m.json"
    save_manifest(manifest, path)
    assert load_manifest(path) == manifest


def test_manifest_validation():
    with pytest.raises(InvalidParameterError):
        normalize_manifest({"experiment": "nope"})
    with pytest.raises(InvalidParameterError):
        normalize_manifest({"experiment": "scaling", "L": []})
    with pytest.raises(InvalidParameterError):
        normalize_manifest({"experiment": "scaling", "L": [3], "p": [1.5]})


def test_reproducible_artifacts(tmp_path):
    manifest = {"experiment": "exact-entropy", "L": [3, 5], "p": [0.5, 0.8],
                "mode": "absorbing", "colored": True}
    paths_a, code_a = run_experiment({**manifest, "out": str(tmp_path / "a")})
    paths_b, code_b = run_experiment({**manifest, "out": str(tmp_path / "b")})
    assert code_a == code_b == 0
    assert _hash_files(paths_a) == _hash_files(paths_b)


def test_scaling_experiment_and_determinism(tmp_path):
    manifest = {"experiment": "scaling", "L": [32], "p": [0.5], "seed": 5,
                "samples": 4, "tmax": 200, "fit_lo": 20, "fit_hi": 200}
    pa, _ = run_experiment({**manifest, "out": str(tmp_path / "a")})
    pb, _ = run_experiment({**manifest, "out": str(tmp_path / "b")})
    assert _hash_files(pa) == _hash_files(pb)
    csvs = [p for p in pa if p.suffix == ".csv"]
    assert any("scaling_summary" in p.name for p in csvs)
    header = [p for p in csvs if "summary" not in p.name][0].read_text().splitlines()[0]
    assert header == "t,W_mean,W_stderr,mid_mean,mid_stderr,W_fluct,n"
    meta = json.loads((tmp_path / "a" / "run_metadata.json").read_text())
    ranges = min(scaling._cpu_count(), 4)
    assert meta["trajectory_ranges"] == [{"L": 32, "p": 0.5, "ranges": ranges}]
    assert meta["peak_rss_children_mb"] >= 0


def test_capacity_partial_exit(tmp_path):
    manifest = {"experiment": "seqgen-check", "L": [3, 7], "p": [0.5],
                "out": str(tmp_path / "cap"), "max_nodes": 2000}
    paths, code = run_experiment(manifest)
    assert code == 2
    table = [p for p in paths if p.name == "seqgen_fidelity.csv"][0].read_text()
    assert "nan" in table  # the L=7 point is reported, not fatal


def test_main_cli(tmp_path):
    out = tmp_path / "run"
    code = main(["dp-entropy", "--L", "5", "--L", "7", "--p", "0.5",
                 "--out", str(out)])
    assert code == 0
    assert (out / "dp_entropy.csv").exists()
    meta = json.loads((out / "run_metadata.json").read_text())
    assert meta["manifest"]["L"] == [5, 7]
    assert meta["wall_time_s"] > 0 and meta["peak_rss_mb"] > 0
    assert main(["dp-entropy", "--L", "4", "--out", str(out)]) == 1  # even L rejected
    save_manifest({"experiment": "dp-entropy", "L": [5], "p": [1.5]}, tmp_path / "m")  # --p replaces
    assert main(["dp-entropy", "--manifest", str(tmp_path / "m"), "--p", "0.5", "--out", str(out)]) == 0
    # an integer p in a manifest writes the same bytes as the float flag
    save_manifest({"experiment": "dp-entropy", "L": [5], "p": [0, 1]}, tmp_path / "int_p")
    assert main(["dp-entropy", "--manifest", str(tmp_path / "int_p"), "--out", str(tmp_path / "a")]) == 0
    assert main(["dp-entropy", "--L", "5", "--p", "0", "--p", "1", "--out", str(tmp_path / "b")]) == 0
    assert ((tmp_path / "a" / "dp_entropy.csv").read_bytes()
            == (tmp_path / "b" / "dp_entropy.csv").read_bytes())
    # at p = 0 and even L the midpoint stays at 0: its fit is nan, not an error
    assert main(["scaling", "--L", "16", "--p", "0", "--samples", "4", "--tmax", "200",
                 "--out", str(tmp_path / "flat")]) == 0
    header, row = (tmp_path / "flat" / "scaling_summary.csv").read_text().splitlines()
    summary = dict(zip(header.split(","), row.split(",")))
    assert (summary["L"], summary["p"], summary["mid_exponent"]) == ("16", "0.0", "nan")


def _run_twice(tmp_path, args):
    """Two output dirs of `args` run in two fresh interpreters, as a user reruns them."""
    src = str(Path(depevap.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    outs = [tmp_path / f"{args[0]}-{run}" for run in "ab"]
    for out in outs:
        subprocess.run([sys.executable, "-m", "depevap.cli", *args, "--out", str(out)],
                       env=env, check=True, capture_output=True)
    return outs


def test_seqgen_and_exact_entropy_reruns_are_byte_identical(tmp_path):
    commands = {"seqgen_fidelity.csv": ["seqgen-check", "--L", "5", "--p", "0.0", "--p", "0.5",
                                        "--p", "1.0"],
                "exact_entropy.csv": ["exact-entropy", "--L", "5", "--p", "0.0", "--p", "1.0"]}
    for csv, args in commands.items():
        outs = _run_twice(tmp_path, args)
        assert (outs[0] / csv).read_bytes() == (outs[1] / csv).read_bytes(), csv


def test_phase_sweep_reruns_are_byte_identical(tmp_path):
    # the DP to L = 19, with the edge values p = 0 and 1
    outs = _run_twice(tmp_path, ["phase-sweep", "--L", "5", "--L", "7", "--L", "19",
                                 "--p", "0.0", "--p", "0.5", "--p", "1.0"])
    for csv in ("phase_sweep.csv", "phase_exponents.csv"):
        assert (outs[0] / csv).read_bytes() == (outs[1] / csv).read_bytes(), csv
    assert len((outs[0] / "phase_sweep.csv").read_text().splitlines()) == 1 + 3 * 3


def test_hamiltonian_reruns_are_byte_identical(tmp_path):
    # the degenerate edge values p = 0 and 1 at L = 5 colored, and the L = 7 uncolored
    # sector, whose spectrum comes from four symmetry sectors split into connected blocks
    manifests = [{"experiment": "hamiltonian-check", "L": [5], "p": [0.0, 1.0],
                  "mode": "absorbing", "colored": True},
                 {"experiment": "hamiltonian-check", "L": [7], "p": [0.5],
                  "mode": "absorbing", "colored": False}]
    for n, manifest in enumerate(manifests):
        outs = [tmp_path / f"{n}-{run}" for run in "ab"]
        for out in outs:
            assert run_experiment({**manifest, "out": str(out)})[1] == 0
        for csv in ("hamiltonian_residuals.csv", "hamiltonian_spectrum.csv"):
            assert (outs[0] / csv).read_bytes() == (outs[1] / csv).read_bytes(), csv


@pytest.mark.parametrize("args", [
    ["dp-entropy", "--L", "7", "--p", "0.5", "--cut-row", "0"],
    ["scaling", "--L", "16", "--p", "0.5", "--samples", "2", "--tmax", "0"],
    ["dp-entropy", "--L", "5", "--p", "0.5", "--max-nodes", "-1"],
    ["dp-entropy", "--L", "5", "--p", "0.5", "--p", "1.5"],
    ["scaling", "--L", "16", "--p", "0.5", "--samples", "2", "--tmax", "30"],  # default window
    ["scaling", "--L", "16", "--p", "0.5", "--samples", "2", "--tmax", "108"],
    # a trailing non-string is written to a manifest file; a dict gets the experiment added
    ["scaling", {"L": 16, "samples": 2, "tmax": 500, "fit_lo": 300}],
    ["scaling", {"L": 16, "samples": 2, "tmax": 500, "fit_lo": 20, "fit_hi": "x"}],
    ["scaling", {"L": 16, "samples": 2, "tmax": 500, "fit_lo": 300, "fit_hi": 200}],
    ["scaling", {"L": 16, "samples": 2, "tmax": 500, "fit_lo": 20.0, "fit_hi": 200}],
    ["scaling", {"L": 16, "samples": 2, "tmax": 500, "fit_lo": 495, "fit_hi": 600}],
    ["dp-entropy", {"L": 5, "colored": "no"}],
    ["dp-entropy", {"L": 5, "p": ["0.5"]}],
    ["dp-entropy", {"L": 5, "p": [True]}],
    ["dp-entropy", {"L": 5, "seed": True}],
    ["scaling", {"L": 16, "sample": 10, "tmax": 500}],  # a misspelt key
    ["dp-entropy", 5],  # a manifest file that is not a JSON object
    ["dp-entropy", None],
])
def test_lax_input_rejected_before_any_point(tmp_path, capsys, args):
    out = tmp_path / "run"
    if not isinstance(args[-1], str):
        manifest = args[-1]
        if isinstance(manifest, dict):
            manifest = {"experiment": args[0], **manifest}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        args = [args[0], "--manifest", str(path)]
    assert main(args + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not list(tmp_path.rglob("*.csv"))


def test_phase_sweep(tmp_path):
    manifest = {"experiment": "phase-sweep", "L": [5, 7, 9], "p": [0.25, 0.8],
                "out": str(tmp_path / "sweep")}
    paths, code = run_experiment(manifest)
    assert code == 0
    fits = [p for p in paths if p.name == "phase_exponents.csv"][0].read_text().splitlines()
    assert fits[0] == "p,exponent,amplitude,r_squared"
    assert len(fits) == 3


def test_phase_sweep_area_law_at_p0(tmp_path):
    out = tmp_path / "sweep"
    code = main(["phase-sweep", "--L", "3", "--L", "5", "--L", "7",
                 "--p", "0.0", "--p", "0.5", "--out", str(out)])
    assert code == 0
    rows = (out / "phase_sweep.csv").read_text().splitlines()[1:]
    at_p0 = [r.split(",") for r in rows if r.split(",")[1] == "0.0"]
    assert len(at_p0) == 3 and all(r[3:] == ["0.0", "0.0", "0.0"] for r in at_p0)
    fits = (out / "phase_exponents.csv").read_text().splitlines()
    assert fits[1] == "0.0,nan,nan,nan"
    assert fits[2].startswith("0.5,") and "nan" not in fits[2]


def test_phase_sweep_profile_cap(tmp_path):
    # max_nodes caps the DP's profile count too: L=5 has 5 profiles, L=9 has 42
    manifest = {"experiment": "phase-sweep", "L": [5, 9], "p": [0.5, 0.8],
                "max_nodes": 20, "out": str(tmp_path / "cap")}
    paths, code = run_experiment(manifest)
    assert code == 2
    table = [p for p in paths if p.name == "phase_sweep.csv"][0].read_text().splitlines()
    rows = [r.split(",") for r in table[1:]]
    assert [r[0] for r in rows] == ["5", "5", "9", "9"]
    for r in rows:
        values = [float(v) for v in r[3:]]
        if r[0] == "5":
            assert all(math.isfinite(v) for v in values) and values[2] > 0
        else:
            assert all(math.isnan(v) for v in values)


def test_phase_sweep_profile_ceiling(tmp_path):
    # the default max_nodes (10^7) is above entropy.MAX_PROFILES; L=29 must still be refused
    out = tmp_path / "ceiling"
    code = main(["phase-sweep", "--L", "5", "--L", "29", "--p", "0.5", "--out", str(out)])
    assert code == 2
    rows = [r.split(",") for r in (out / "phase_sweep.csv").read_text().splitlines()[1:]]
    assert [r[0] for r in rows] == ["5", "29"]
    assert all(math.isfinite(float(v)) for v in rows[0][3:])
    assert all(math.isnan(float(v)) for v in rows[1][3:])

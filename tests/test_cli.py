import hashlib
import json
import math

import pytest

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

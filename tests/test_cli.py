import ast
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import depevap
from depevap import cli, exact, scaling
from depevap.cli import COMMON, EXPERIMENTS, load_manifest, main, normalize_manifest, run_experiment
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
    path.write_text(json.dumps(manifest))
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
    # the run's own range workers' peak: above 0 exactly when it forked a worker
    assert (meta["worker_peak_rss_mb"] > 0) == (ranges > 1)


def test_capacity_partial_exit(tmp_path):
    manifest = {"experiment": "seqgen-check", "L": [3, 7], "p": [0.5],
                "out": str(tmp_path / "cap"), "max_nodes": 2000}
    paths, code = run_experiment(manifest)
    assert code == 2
    table = [p for p in paths if p.name == "seqgen_fidelity.csv"][0].read_text()
    assert "nan" in table  # the L=7 point is reported, not fatal


def test_hamiltonian_capacity_exit(tmp_path):
    out = tmp_path / "run"
    assert main(["hamiltonian-check", "--L", "5", "--p", "0.5", "--uncolored",
                 "--max-nodes", "5", "--out", str(out)]) == 2
    assert (out / "hamiltonian_residuals.csv").read_text().splitlines()[1:] == [
        "5,0.5,-1,capacity,,nan"]
    assert (out / "hamiltonian_spectrum.csv").read_text() == "L,p,index,eigenvalue\n"


@pytest.mark.parametrize("experiment,name,row", [
    ("exact-entropy", "exact_entropy.csv", "81,0.5,reflecting,40,capacity,nan,nan,nan"),
    ("seqgen-check", "seqgen_fidelity.csv", "81,0.5,True,nan,nan,nan")])
def test_capacity_row_past_int64_children(tmp_path, experiment, name, row):
    # the first slice of colored L = 81 has 3**40 children, past int64: the guard counts
    # them without wrapping and writes the capacity row
    out = tmp_path / "run"
    assert main([experiment, "--L", "81", "--out", str(out)]) == 2
    assert (out / name).read_text().splitlines()[1:] == [row]


@pytest.mark.parametrize("experiment,own,other", [("hamiltonian-check", "absorbing", "reflecting"),
                                                  ("seqgen-check", "reflecting", "absorbing")])
def test_one_mode_experiments_record_the_mode_they_run(tmp_path, capsys, experiment, own, other):
    # an omitted mode takes the experiment's own, so the metadata records what ran;
    # the other mode is refused before the output directory exists
    out = tmp_path / "run"
    assert main([experiment, "--L", "3", "--p", "0.5", "--mode", other, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {experiment} runs in {own} mode, got mode {other!r}\n"
    assert not out.exists()
    for mode in ([], ["--mode", own]):
        assert main([experiment, "--L", "3", "--p", "0.5", *mode, "--out", str(out)]) == 0
        assert json.loads((out / "run_metadata.json").read_text())["manifest"]["mode"] == own
    with pytest.raises(InvalidParameterError, match=f"runs in {own} mode"):
        normalize_manifest({"experiment": experiment, "mode": other})


def test_even_L_rejected_before_any_point(tmp_path, capsys):
    # every experiment but scaling needs odd L, so an even L anywhere in the grid is
    # refused before any point runs or the output directory exists
    out = tmp_path / "run"
    assert main(["phase-sweep", "--L", "5", "--L", "6", "--p", "0.5", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: lattice encoding requires odd L, got L=6\n"
    assert not out.exists()
    assert normalize_manifest({"experiment": "scaling", "L": [16]})["L"] == [16]


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
    # --p replaces the manifest's p
    (tmp_path / "m").write_text(json.dumps({"experiment": "dp-entropy", "L": [5], "p": [1.5]}))
    assert main(["dp-entropy", "--manifest", str(tmp_path / "m"), "--p", "0.5", "--out", str(out)]) == 0
    # an integer p in a manifest writes the same bytes as the float flag
    (tmp_path / "int_p").write_text(json.dumps({"experiment": "dp-entropy", "L": [5], "p": [0, 1]}))
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


def _fresh_python(code):
    """Run `code` in a fresh interpreter that imports this source tree."""
    src = str(Path(depevap.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def _run_cli(args, out, cpu=None):
    """`depevap.cli args --out out` in a fresh interpreter, pinned to `cpu` if given."""
    pin = f"os.sched_setaffinity(0, {{{cpu}}}); " if cpu is not None else ""
    _fresh_python(f"import os, runpy, sys; {pin}sys.argv = {['depevap', *args, '--out', str(out)]!r}; "
                  "runpy.run_module('depevap.cli', run_name='__main__')")
    return out


def _run_twice(tmp_path, args):
    """Two output dirs of `args` run in two fresh interpreters, as a user reruns them."""
    return [_run_cli(args, tmp_path / f"{args[0]}-{run}") for run in "ab"]


def test_version_comes_without_importlib_metadata():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    loaded = _fresh_python("import sys, depevap.cli; print('importlib.metadata' in sys.modules)")
    assert loaded.strip() == "False"
    pyproject = Path(depevap.__file__).resolve().parents[2] / "pyproject.toml"
    assert depevap.__version__ == tomllib.loads(pyproject.read_text())["project"]["version"]


def test_exact_experiments_leave_lazy_imports_unloaded(tmp_path):
    # numpy.ma (about 20 ms) and scipy load lazily, so a stray call would land in the
    # benchmark's timings of every fresh worker; the exact-state experiments must not load them
    manifests = [{"experiment": experiment, "L": [5], "p": [0.5], "mode": mode,
                  "out": str(tmp_path / experiment)}
                 for experiment, mode in (("exact-entropy", "reflecting"),
                                          ("seqgen-check", "reflecting"),
                                          ("hamiltonian-check", "absorbing"))]
    loaded = _fresh_python("import sys\nfrom depevap import cli\n"
                           f"for manifest in {manifests!r}:\n"
                           "    assert cli.run_experiment(manifest)[1] == 0\n"
                           "print(sorted({'numpy.ma', 'scipy'} & set(sys.modules)))")
    assert loaded.strip() == "[]"


def test_scaling_ranges_leave_multiprocessing_unloaded(tmp_path):
    # two trajectory ranges fork and pipe without multiprocessing (about 1 MB of modules in
    # the benchmark's parent); the reaped worker's peak comes back with the series
    out = tmp_path / "scaling"
    manifest = {"experiment": "scaling", "L": [32], "p": [0.5, 0.8], "samples": 4,
                "tmax": 200, "out": str(out)}
    loaded = _fresh_python("import sys\nfrom depevap import cli, scaling\n"
                           "scaling._cpu_count = lambda: 2\n"
                           f"assert cli.run_experiment({manifest!r})[1] == 0\n"
                           "print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))")
    assert loaded.strip() == "[]"
    meta = json.loads((out / "run_metadata.json").read_text())
    assert meta["trajectory_ranges"] == [{"L": 32, "p": p, "ranges": 2} for p in (0.5, 0.8)]
    assert meta["worker_peak_rss_mb"] > 0


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no forked range workers on this platform")
def test_worker_peak_is_the_runs_own_workers(tmp_path, monkeypatch):
    # the largest peak RSS os.wait4 reported for this run's range workers: above 0 with
    # two ranges, then 0.0 in a one-range run of the same process, whose earlier
    # workers are not its own
    manifest = {"experiment": "scaling", "L": [32], "p": [0.5, 0.8], "samples": 4, "tmax": 200}
    peaks = []
    for ranges in (2, 1):
        monkeypatch.setattr(scaling, "_cpu_count", lambda: ranges)
        out = tmp_path / f"ranges{ranges}"
        assert run_experiment({**manifest, "out": str(out)})[1] == 0
        meta = json.loads((out / "run_metadata.json").read_text())
        assert {r["ranges"] for r in meta["trajectory_ranges"]} == {ranges}
        peaks.append(meta["worker_peak_rss_mb"])
    assert peaks[0] > 0 and peaks[1] == 0.0, peaks


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this platform")
def test_scaling_csvs_do_not_depend_on_cpu_count(tmp_path):
    # one trajectory range pinned to one CPU against one range per CPU, at the
    # benchmark's L = 512, an odd L and a small one
    sizes = [64, 512, 511]
    args = ["scaling", *(a for L in sizes for a in ("--L", str(L))), "--p", "0.5", "--p", "0.8",
            "--samples", "8", "--tmax", "300"]
    one = _run_cli(args, tmp_path / "one", cpu=min(os.sched_getaffinity(0)))
    every = _run_cli(args, tmp_path / "every")
    for out, ranges in ((one, 1), (every, min(len(os.sched_getaffinity(0)), 8))):
        meta = json.loads((out / "run_metadata.json").read_text())
        assert [r["ranges"] for r in meta["trajectory_ranges"]] == [ranges] * 6, out.name
    csvs = [f"scaling_L{L}_p{p}.csv" for L in sizes for p in (0.5, 0.8)] + ["scaling_summary.csv"]
    for csv in csvs:
        assert (one / csv).read_bytes() == (every / csv).read_bytes(), csv


def test_scaling_grid_matches_single_point_runs(tmp_path):
    # one ensemble call serves every p of an L; each CSV and summary row must
    # be what the point writes when it runs alone
    manifest = {"experiment": "scaling", "L": [17, 16], "p": [0.0, 0.6, 1.0], "seed": 3,
                "samples": 5, "tmax": 300}
    grid_paths, code = run_experiment({**manifest, "out": str(tmp_path / "grid")})
    assert code == 0
    summary = []
    for L in manifest["L"]:
        for p in manifest["p"]:
            out = tmp_path / f"L{L}_p{p}"
            assert run_experiment({**manifest, "L": [L], "p": [p], "out": str(out)})[1] == 0
            csv = f"scaling_L{L}_p{p}.csv"
            assert (tmp_path / "grid" / csv).read_bytes() == (out / csv).read_bytes(), csv
            summary += (out / "scaling_summary.csv").read_text().splitlines()[1:]
    grid_summary = (tmp_path / "grid" / "scaling_summary.csv").read_text().splitlines()
    assert grid_summary[1:] == summary
    assert len([p for p in grid_paths if p.suffix == ".csv"]) == 7


def test_scaling_writes_each_L_before_the_next_ensemble(tmp_path, monkeypatch):
    # a run holds one L's series rows at most: they are on disk before the next L runs
    on_disk = {}
    real = cli.ensemble

    def spy(params, *args, **kwargs):
        on_disk[params.L] = {p.name: len(p.read_text().splitlines())
                             for p in tmp_path.glob("scaling_L*.csv")}
        return real(params, *args, **kwargs)

    monkeypatch.setattr(cli, "ensemble", spy)
    manifest = {"experiment": "scaling", "L": [16, 17], "p": [0.5, 0.8], "samples": 2,
                "tmax": 200, "out": str(tmp_path)}
    assert run_experiment(manifest)[1] == 0
    assert on_disk == {16: {}, 17: {"scaling_L16_p0.5.csv": 201, "scaling_L16_p0.8.csv": 201}}


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


MIXED_GRID = [0.25, 0.0, 0.5, 1.0, 0.8]


def _body(path):
    return path.read_text().splitlines(keepends=True)[1:]


@pytest.mark.parametrize("L,colored", [(5, True), (7, False)])
def test_hamiltonian_mixed_grid_matches_single_points(tmp_path, L, colored):
    # one layout serves the p grid; p = 0 and 1 change the nonzero pattern and the
    # state's keys mid-grid, so the layout is rebuilt there and after them
    base = {"experiment": "hamiltonian-check", "L": [L], "mode": "absorbing", "colored": colored}
    grid = tmp_path / "grid"
    assert run_experiment({**base, "p": MIXED_GRID, "out": str(grid)})[1] == 0
    singles = []
    for p in MIXED_GRID:  # each run starts from empty memos (test_memos_end_with_the_run)
        singles.append(tmp_path / f"p{p}")
        assert run_experiment({**base, "p": [p], "out": str(singles[-1])})[1] == 0
    for csv in ("hamiltonian_residuals.csv", "hamiltonian_spectrum.csv"):
        header = (grid / csv).read_text().splitlines(keepends=True)[0]
        want = header + "".join(line for out in singles for line in _body(out / csv))
        assert (grid / csv).read_text() == want, csv


@pytest.mark.parametrize("manifest", [
    {"experiment": "phase-sweep", "L": [5, 7], "p": [0.5]},
    {"experiment": "hamiltonian-check", "L": [5], "p": [0.5], "mode": "absorbing"},
])
def test_memos_end_with_the_run(tmp_path, manifest):
    # the DP's profile index and the terms' layout live only as long as one experiment
    assert run_experiment({**manifest, "out": str(tmp_path)})[1] == 0
    assert exact._KEPT == []


def test_phase_sweep_mixed_grid_matches_single_points(tmp_path):
    # the DP's profile index is built once per L and kept across the p grid
    base = {"experiment": "phase-sweep", "L": [5, 7, 9]}
    grid = tmp_path / "grid"
    assert run_experiment({**base, "p": MIXED_GRID, "out": str(grid)})[1] == 0
    rows = _body(grid / "phase_sweep.csv")
    fits = _body(grid / "phase_exponents.csv")
    want_fits = {}
    for p in MIXED_GRID:
        out = tmp_path / f"p{p}"
        assert run_experiment({**base, "p": [p], "out": str(out)})[1] == 0
        assert _body(out / "phase_sweep.csv") == [r for r in rows if r.split(",")[1] == repr(p)]
        [want_fits[p]] = _body(out / "phase_exponents.csv")
    assert fits == [want_fits[p] for p in sorted(MIXED_GRID)]


def test_traced_spans_cover_the_cli_calls(tmp_path):
    # perfbench/traced.py times the experiments through these cli names, and its ensemble
    # counter unpacks the positional (params, samples, tmax); a refactor that stops calling
    # one of them through cli, or changes those arguments, would lose its span.  src
    # imports no scipy, whose sparse.linalg alone takes about half a second to import
    perfbench = Path(depevap.__file__).resolve().parents[2] / "perfbench"
    manifests = [{"experiment": "hamiltonian-check", "L": [3], "p": [0.5], "mode": "absorbing",
                  "out": str(tmp_path / "h")},
                 {"experiment": "phase-sweep", "L": [3, 5, 7], "p": [0.5],
                  "out": str(tmp_path / "d")},
                 {"experiment": "scaling", "L": [16], "p": [0.5], "samples": 2, "tmax": 200,
                  "out": str(tmp_path / "s")},
                 {"experiment": "seqgen-check", "L": [3], "p": [0.5], "out": str(tmp_path / "g")},
                 {"experiment": "exact-entropy", "L": [3], "p": [0.5], "out": str(tmp_path / "e")}]
    out = _fresh_python(f"import sys; sys.path.insert(0, {str(perfbench)!r})\n"
                        "import traced\n"
                        "from depevap.cli import run_experiment\n"
                        "rec = traced.install()\n"
                        f"for manifest in {manifests!r}:\n"
                        "    assert run_experiment(manifest)[1] == 0\n"
                        "assert 'scipy' not in sys.modules\n"
                        "print(sorted({name for name, _, _ in rec.spans()}))\n")
    spans = set(ast.literal_eval(out.strip().splitlines()[-1]))
    assert {"hamiltonian.assemble", "hamiltonian.residuals", "hamiltonian.spectrum",
            "entropy.dp", "scaling.ensemble", "scaling.exponent_report", "seqgen.generation",
            "seqgen.cooling", "seqgen.fidelity", "entropy.schmidt", "entropy.fit",
            "exact.enumerate"} <= spans


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
    ["scaling", {"L": 16, "samples": 2, "tmax": 500, "seed": 2 ** 64}],  # past a Philox key word
    ["dp-entropy", {"experiment": "phase-sweep", "L": [5], "p": [0.5]}],  # another experiment
    ["scaling", "--L", "16", "--p", "0.5", "--samples", "2", "--tmax", "500",
     "--mode", "absorbing"],
    ["phase-sweep", "--L", "5", "--L", "5", "--L", "7", "--L", "9", "--p", "0.5"],  # a repeated point
    ["scaling", {"L": [16, 16], "samples": 2, "tmax": 500}],
    ["dp-entropy", {"L": 5, "p": [1, 1.0]}],  # the same p once converted to float
    ["dp-entropy", b"\xff\xfe{}"],  # bytes are written as they are: not UTF-8
])
def test_lax_input_rejected_before_any_point(tmp_path, capsys, args):
    out = tmp_path / "run"
    if not isinstance(args[-1], str):
        manifest = args[-1]
        if isinstance(manifest, dict):
            manifest = {"experiment": args[0], **manifest}
        path = tmp_path / "manifest.json"
        path.write_bytes(manifest if isinstance(manifest, bytes) else json.dumps(manifest).encode())
        args = [args[0], "--manifest", str(path)]
    assert main(args + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not list(tmp_path.rglob("*.csv"))


def test_manifest_without_experiment_is_an_error(tmp_path, capsys):
    # the harness above adds the experiment to every manifest it writes
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"L": [5], "p": [0.5]}))
    assert main(["dp-entropy", "--manifest", str(path), "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == "error: manifest lacks an 'experiment' entry\n"
    assert not list(tmp_path.rglob("*.csv"))


# one wrong-typed value per manifest entry; the subcommand sets `experiment` itself
WRONG_TYPED = {"L": {"L": "5"}, "p": {"p": "0.5"}, "mode": {"mode": 1},
               "colored": {"colored": "yes"}, "seed": {"seed": 1.0}, "samples": {"samples": "200"},
               "tmax": {"tmax": 4000.0}, "out": {"out": 3}, "max_nodes": {"max_nodes": "many"},
               "cut_row": {"cut_row": 2.0}, "fit_lo": {"fit_lo": "20", "fit_hi": 300},
               "fit_hi": {"fit_hi": "300"}}
# each entry goes to an experiment that reads it, so its type, not its presence, is refused
READER = {"samples": "scaling", "tmax": "scaling", "fit_lo": "scaling", "fit_hi": "scaling"}
BASE = {"dp-entropy": {"L": 5, "p": 0.5}, "scaling": {"L": 16, "p": 0.5, "samples": 2, "tmax": 400}}


@pytest.mark.parametrize("key", [None, *WRONG_TYPED])
def test_wrong_typed_manifest_entry_is_an_error(tmp_path, capsys, key):
    assert set(WRONG_TYPED) == set(COMMON).union(*(reads for *_, reads in EXPERIMENTS.values()))
    for experiment in [READER.get(key, "dp-entropy")] if key else BASE:
        manifest = {"experiment": experiment, **BASE[experiment], "out": str(tmp_path / "run"),
                    **WRONG_TYPED.get(key, {})}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        if key is None:  # the manifests the others damage run
            assert main([experiment, "--manifest", str(path)]) == 0
            continue
        assert main([experiment, "--manifest", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not list(tmp_path.rglob("*.csv"))


# the entries no runner of the experiment reads; each has a valid value
UNREAD = {"samples": 2, "tmax": 200, "fit_lo": 20, "fit_hi": 200, "max_nodes": 1000, "cut_row": 1}
REFUSED = ([("scaling", key) for key in ("max_nodes", "cut_row")]
           + [(experiment, key) for experiment in ("exact-entropy", "dp-entropy", "phase-sweep")
              for key in ("samples", "tmax", "fit_lo", "fit_hi")]
           + [(experiment, key) for experiment in ("hamiltonian-check", "seqgen-check")
              for key in ("samples", "tmax", "fit_lo", "fit_hi", "cut_row")])


@pytest.mark.parametrize("experiment,key", REFUSED)
def test_unread_entry_is_refused(tmp_path, capsys, experiment, key):
    # an entry the experiment does not read would be echoed into run_metadata.json as if applied
    out = tmp_path / "run"
    L = "16" if experiment == "scaling" else "3"
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"experiment": experiment, "L": int(L), key: UNREAD[key]}))
    assert main([experiment, "--manifest", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {experiment} does not read manifest entries {[key]!r}\n")
    if not key.startswith("fit_"):  # the fit window has no flag anywhere
        flag = "--" + key.replace("_", "-")
        assert main([experiment, "--L", L, flag, str(UNREAD[key]), "--out", str(out)]) == 1
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.csv")) and not out.exists()


def test_old_metadata_echo_is_refused_by_name(tmp_path, capsys):
    # run_metadata.json used to echo all twelve entries; fed back, the unread ones are named
    echo = {"experiment": "phase-sweep", "L": [5], "p": [0.5], "mode": "reflecting",
            "colored": True, "seed": 0, "out": str(tmp_path / "run"), "samples": 200,
            "tmax": 4000, "max_nodes": exact.MAX_NODES, "cut_row": None, "fit_lo": 20,
            "fit_hi": None}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(echo))
    assert main(["phase-sweep", "--manifest", str(path)]) == 1
    assert capsys.readouterr().err == (
        "error: phase-sweep does not read manifest entries ['fit_hi', 'fit_lo', 'samples', 'tmax']\n")
    assert not (tmp_path / "run").exists()


ROW_FLAGS = {"scaling": {"--samples", "--tmax"}, "exact-entropy": {"--max-nodes", "--cut-row"},
             "dp-entropy": {"--max-nodes", "--cut-row"}, "phase-sweep": {"--max-nodes", "--cut-row"},
             "hamiltonian-check": {"--max-nodes"}, "seqgen-check": {"--max-nodes"}}


ROW_MODES = {"scaling": "{reflecting}", "hamiltonian-check": "{absorbing}",
             "seqgen-check": "{reflecting}"}


@pytest.mark.parametrize("experiment", ROW_FLAGS)
def test_help_lists_the_row_flags(capsys, experiment):
    assert main([experiment, "--help"]) == 0
    out = capsys.readouterr().out
    flags = set(re.findall(r"--[A-Za-z][a-z-]*", out))
    assert flags == ROW_FLAGS[experiment] | {"--help", "--manifest", "--L", "--p", "--mode",
                                             "--colored", "--uncolored", "--seed", "--out"}
    # a one-mode experiment shows only the mode it runs in
    assert set(re.findall(r"--mode (\{[a-z,]+\})", out)) == {
        ROW_MODES.get(experiment, "{reflecting,absorbing}")}


@pytest.mark.parametrize("args", [["dp-entropy", "--L", "x"], ["dp-entropy", "--bogus", "1"], []])
def test_usage_errors_exit_1(capsys, args):
    # 2 means a capacity guard wrote partial results, so a usage error must not return it
    assert main(args) == 1
    assert "error: " in capsys.readouterr().err


def test_workload_manifests_normalize_to_a_fixed_point(tmp_path):
    sys.path.insert(0, str(Path(depevap.__file__).resolve().parents[2] / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    for name in workloads.WORKLOADS:
        for manifest in workloads.manifests(name, 1, tmp_path):
            once = normalize_manifest(manifest)
            assert normalize_manifest(once) == once, name


def test_phase_sweep(tmp_path):
    manifest = {"experiment": "phase-sweep", "L": [5, 7, 9], "p": [0.25, 0.8],
                "out": str(tmp_path / "sweep")}
    paths, code = run_experiment(manifest)
    assert code == 0
    fits = [p for p in paths if p.name == "phase_exponents.csv"][0].read_text().splitlines()
    assert fits[0] == "p,exponent,amplitude,r_squared"
    assert len(fits) == 3


def test_power_law_fits_call_no_lapack(tmp_path, monkeypatch):
    # the fits are closed-form sums, so their last digits do not depend on the BLAS build
    def refuse(*args, **kwargs):
        raise AssertionError("a power-law fit reached LAPACK")

    monkeypatch.setattr(np, "polyfit", refuse)
    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    for manifest in ({"experiment": "phase-sweep", "L": [5, 7, 9], "p": [0.5]},
                     {"experiment": "scaling", "L": [32], "p": [0.5], "samples": 2, "tmax": 400,
                      "fit_lo": 20, "fit_hi": 300}):
        paths, code = run_experiment({**manifest, "out": str(tmp_path / manifest["experiment"])})
        summary = [p for p in paths if p.name in ("phase_exponents.csv", "scaling_summary.csv")]
        assert code == 0 and "nan" not in summary[0].read_text()


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

"""Command-line harness: reproducible experiments with manifests.

Every experiment is described by a manifest (a flat JSON object); flags
override manifest entries.  Each run writes deterministic CSV data files
plus run_metadata.json (manifest echo, seed, package version, wall
time, peak resident memory of the process and of its largest child, and
for scaling the trajectory ranges of each grid point).  Rerunning the
same manifest reproduces the data files byte for byte; the metadata
file carries the only nondeterministic content (timing, memory and the
range count, which follows the CPUs available) and is excluded from
that guarantee.

Exit codes: 0 success, 2 capacity guard tripped on some grid points
(partial results written), 1 hard error.
"""

from __future__ import annotations

import argparse
import csv
import json
import resource
import sys
import time
from importlib import metadata as _im
from pathlib import Path

import numpy as np

from .entropy import entropy_dp, entropy_exact, fit_power_law, mid_cut_row
from .errors import CapacityError, InvalidParameterError
from .exact import MAX_NODES, build_state
from .hamiltonian import assemble_hamiltonian, sector_spectrum, term_residuals
from .params import ModelParams
from .scaling import DEFAULT_FIT_HI_MIN, DEFAULT_FIT_LO, ensemble, exponent_report, fit_mask
from .seqgen import fidelity, run_generation

EXPERIMENTS = ("scaling", "exact-entropy", "dp-entropy", "hamiltonian-check",
               "seqgen-check", "phase-sweep")

DEFAULTS = {
    "L": [3],
    "p": [0.5],
    "mode": "reflecting",
    "colored": True,
    "seed": 0,
    "samples": 200,
    "tmax": 4000,
    "out": "out",
    "max_nodes": MAX_NODES,
    "cut_row": None,
    "fit_lo": DEFAULT_FIT_LO,
    "fit_hi": None,
}


def load_manifest(path) -> dict:
    """A manifest file's entries, checked by run_experiment after any flag overrides."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise InvalidParameterError(f"a manifest must be a JSON object, got {data!r}")
    if "experiment" not in data:
        raise InvalidParameterError("manifest lacks an 'experiment' entry")
    return data


def save_manifest(manifest: dict, path):
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def normalize_manifest(data: dict) -> dict:
    if data.get("experiment") not in EXPERIMENTS:
        raise InvalidParameterError(f"experiment must be one of {EXPERIMENTS}")
    unknown = sorted(set(data) - set(DEFAULTS) - {"experiment"})
    if unknown:
        raise InvalidParameterError(f"unknown manifest entries {unknown}")
    out = dict(DEFAULTS)
    out.update(data)
    if not isinstance(out["L"], list):
        out["L"] = [out["L"]]
    if not isinstance(out["p"], list):
        out["p"] = [out["p"]]
    if not out["L"] or not out["p"]:
        raise InvalidParameterError("manifest grid must be non-empty")
    for key in ("samples", "tmax", "max_nodes"):
        if type(out[key]) is not int or out[key] < 1:
            raise InvalidParameterError(f"{key} must be an integer >= 1, got {out[key]!r}")
    lo, hi = out["fit_lo"], out["fit_hi"]
    if hi is None and lo != DEFAULT_FIT_LO:
        raise InvalidParameterError(f"fit_lo takes effect only with fit_hi, got fit_lo={lo!r} alone")
    if hi is not None and (type(lo) is not int or type(hi) is not int or lo >= hi):
        raise InvalidParameterError(f"fit window needs integers fit_lo < fit_hi, got {lo!r}, {hi!r}")
    if out["experiment"] == "scaling":  # the default window spans at least [100, 400]
        fit_mask(np.arange(1, out["tmax"] + 1), (lo, DEFAULT_FIT_HI_MIN if hi is None else hi))
    cut = out["cut_row"]
    for L in out["L"]:
        for p in out["p"]:
            ModelParams(L=L, p=p, boundary_mode=out["mode"],
                        colored=out["colored"], seed=out["seed"])
        if cut is not None and (type(cut) is not int or not 1 <= cut <= L - 1):
            raise InvalidParameterError(f"cut_row must lie in 1..{L - 1} for L={L}, got {cut!r}")
    out["p"] = [float(p) for p in out["p"]]  # an integer p writes what --p writes: 1.0, not 1
    return out


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(c)) if isinstance(c, float) else c for c in row])


def _grid(manifest):
    for L in manifest["L"]:
        for p in manifest["p"]:
            yield ModelParams(L=L, p=p, boundary_mode=manifest["mode"],
                              colored=manifest["colored"], seed=manifest["seed"])


def run_experiment(manifest: dict) -> tuple[list, int]:
    """Run one experiment; returns (artifact paths, exit code)."""
    manifest = normalize_manifest(manifest)
    outdir = Path(manifest["out"])
    outdir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    runner = {
        "scaling": _run_scaling,
        "exact-entropy": _run_entropy,
        "dp-entropy": _run_entropy,
        "hamiltonian-check": _run_hamiltonian_check,
        "seqgen-check": _run_seqgen_check,
        "phase-sweep": _run_phase_sweep,
    }[manifest["experiment"]]
    meta = {"manifest": manifest, "seed": manifest["seed"]}
    paths, capacity_hit = runner(manifest, outdir, meta)  # a runner may add entries
    try:
        meta["version"] = _im.version("depevap")
    except _im.PackageNotFoundError:
        meta["version"] = "unknown"
    meta["wall_time_s"] = time.perf_counter() - started
    # ru_maxrss is in KiB on Linux; the children's figure is the largest peak
    # of any waited-for child, such as the free-dynamics range workers
    meta["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    meta["peak_rss_children_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    meta_path = outdir / "run_metadata.json"
    with open(meta_path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return paths + [meta_path], 2 if capacity_hit else 0


def _run_scaling(manifest, outdir, meta):
    paths = []
    summary = []
    meta["trajectory_ranges"] = []
    for params in _grid(manifest):
        series = ensemble(params, manifest["samples"], manifest["tmax"])
        meta["trajectory_ranges"].append({"L": params.L, "p": params.p, "ranges": series.ranges})
        rows = [(int(t), w, ws, m, ms, f, series.n_samples)
                for t, w, ws, m, ms, f in zip(series.times, series.W, series.W_stderr,
                                              series.mid_height, series.mid_stderr,
                                              series.W_fluct)]
        path = outdir / f"scaling_L{params.L}_p{params.p}.csv"
        _write_csv(path, ["t", "W_mean", "W_stderr", "mid_mean", "mid_stderr",
                          "W_fluct", "n"], rows)
        paths.append(path)
        window = None
        if manifest["fit_hi"] is not None:
            window = (manifest["fit_lo"], manifest["fit_hi"])
        rep = exponent_report(series, fit_window=window)
        summary.append((params.L, params.p,
                        rep["W"]["exponent"], rep["W"]["r_squared"],
                        rep["mid"]["exponent"], rep["mid"]["r_squared"],
                        rep["W_fluct"]["exponent"],
                        rep["fit_window"][0], rep["fit_window"][1],
                        rep["saturation_time"] if rep["saturation_time"] else -1))
    path = outdir / "scaling_summary.csv"
    _write_csv(path, ["L", "p", "W_exponent", "W_r2", "mid_exponent", "mid_r2",
                      "W_fluct_exponent", "fit_lo", "fit_hi", "saturation_t"], summary)
    paths.append(path)
    return paths, False


def _entropy_rows(manifest):
    """(L, p, mode, cut, method, S_uncolored, color_term, S_total) rows of the DP grid.

    exact-entropy puts an "svd" row before each "dp" row; a grid point over
    a capacity guard gets one "capacity" row of nan.
    """
    rows = []
    capacity = False
    for params in _grid(manifest):
        cut = mid_cut_row(params.L) if manifest["cut_row"] is None else manifest["cut_row"]
        point = (params.L, params.p, params.boundary_mode, cut)
        try:
            if manifest["experiment"] == "exact-entropy":
                report = entropy_exact(build_state(params, max_nodes=manifest["max_nodes"]), cut)
                rows.append((*point, "svd", report.S_uncolored, report.color_term, report.S_total))
            report = entropy_dp(params, cut, manifest["max_nodes"])
            rows.append((*point, "dp", report.S_uncolored, report.color_term, report.S_total))
        except CapacityError:
            rows.append((*point, "capacity", float("nan"), float("nan"), float("nan")))
            capacity = True
    return rows, capacity


def _run_entropy(manifest, outdir, meta):
    rows, capacity = _entropy_rows(manifest)
    path = outdir / f"{manifest['experiment'].replace('-', '_')}.csv"
    _write_csv(path, ["L", "p", "mode", "cut", "method",
                      "S_uncolored", "color_term", "S_total"], rows)
    return [path], capacity


def _run_hamiltonian_check(manifest, outdir, meta):
    res_rows = []
    spec_rows = []
    capacity = False
    for params in _grid(manifest):
        params = params.with_(boundary_mode="absorbing")
        try:
            state = build_state(params, max_nodes=manifest["max_nodes"])
            terms = assemble_hamiltonian(params)
            for n, (term, r) in enumerate(zip(terms, term_residuals(terms, state))):
                res_rows.append((params.L, params.p, n, term.kind,
                                 ";".join("/".join(map(str, s)) for s in term.support), r))
            for n, val in enumerate(sector_spectrum(terms, params, k=4)):
                spec_rows.append((params.L, params.p, n, val))
        except CapacityError:
            res_rows.append((params.L, params.p, -1, "capacity", "", float("nan")))
            capacity = True
    p1 = outdir / "hamiltonian_residuals.csv"
    _write_csv(p1, ["L", "p", "term", "kind", "support", "residual"], res_rows)
    p2 = outdir / "hamiltonian_spectrum.csv"
    _write_csv(p2, ["L", "p", "index", "eigenvalue"], spec_rows)
    return [p1, p2], capacity


def _run_seqgen_check(manifest, outdir, meta):
    rows = []
    capacity = False
    for params in _grid(manifest):
        params = params.with_(boundary_mode="reflecting")
        try:
            gen, success = run_generation(params, max_branches=manifest["max_nodes"])
            state = build_state(params, max_nodes=manifest["max_nodes"])
            _, success_cool = run_generation(params, cooling=True,
                                             max_branches=manifest["max_nodes"])
            rows.append((params.L, params.p, params.colored,
                         fidelity(gen, state), success, success_cool))
        except CapacityError:
            rows.append((params.L, params.p, params.colored,
                         float("nan"), float("nan"), float("nan")))
            capacity = True
    path = outdir / "seqgen_fidelity.csv"
    _write_csv(path, ["L", "p", "colored", "fidelity", "success", "success_cooling"], rows)
    return [path], capacity


def _run_phase_sweep(manifest, outdir, meta):
    rows, capacity = _entropy_rows(manifest)
    by_p = {}
    for L, p, _, _, method, _, _, S_total in rows:
        if method == "dp":
            by_p.setdefault(p, []).append((L, S_total))
    p1 = outdir / "phase_sweep.csv"
    _write_csv(p1, ["L", "p", "cut", "S_uncolored", "color_term", "S_total"],
               [(L, p, cut, *values) for L, p, _, cut, _, *values in rows])
    fits = []
    for p, pts in sorted(by_p.items()):
        positive = sorted((L, S) for L, S in pts if S > 0)
        if len(positive) >= 3:
            fits.append((p, *fit_power_law(*zip(*positive))))
        else:  # S = 0 is a valid area law (p = 0) but has no power-law fit
            fits.append((p, float("nan"), float("nan"), float("nan")))
    p2 = outdir / "phase_exponents.csv"
    _write_csv(p2, ["p", "exponent", "amplitude", "r_squared"], fits)
    return [p1, p2], capacity


def build_parser():
    parser = argparse.ArgumentParser(prog="depevap",
                                     description="deposition-evaporation lattice-state experiments")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        sp = sub.add_parser(name)
        sp.add_argument("--manifest", type=str, default=None)
        sp.add_argument("--L", type=int, action="append", default=None)
        sp.add_argument("--p", type=float, action="append", default=None)
        sp.add_argument("--mode", choices=("reflecting", "absorbing"), default=None)
        colored = sp.add_mutually_exclusive_group()
        colored.add_argument("--colored", dest="colored", action="store_true", default=None)
        colored.add_argument("--uncolored", dest="colored", action="store_false")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--samples", type=int, default=None)
        sp.add_argument("--tmax", type=int, default=None)
        sp.add_argument("--out", type=str, default=None)
        sp.add_argument("--cut-row", dest="cut_row", type=int, default=None)
        sp.add_argument("--max-nodes", dest="max_nodes", type=int, default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        manifest = load_manifest(args.manifest) if args.manifest else {}
        manifest.update((key, value) for key, value in vars(args).items()
                        if value is not None and key != "manifest")
        paths, code = run_experiment(manifest)
    except (InvalidParameterError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for path in paths:
        print(path)
    return code


if __name__ == "__main__":
    sys.exit(main())

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
(partial results written), 1 hard error or usage error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, exact
from .entropy import entropy_dp, entropy_exact, fit_power_law, mid_cut_row
from .errors import CapacityError, InvalidParameterError
from .exact import MAX_NODES, build_state
from .hamiltonian import assemble_hamiltonian, sector_spectrum, term_residuals
from .params import ModelParams
from .scaling import DEFAULT_FIT_HI_MIN, DEFAULT_FIT_LO, ensemble, exponent_report, fit_mask
from .seqgen import fidelity, run_generation

# the entries every experiment takes; each row of EXPERIMENTS adds the ones its runner reads
COMMON = {"L": [3], "p": [0.5], "mode": "reflecting", "colored": True, "seed": 0, "out": "out"}


def load_manifest(path) -> dict:
    """A manifest file's entries, checked by run_experiment after any flag overrides."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise InvalidParameterError(f"a manifest must be a JSON object, got {data!r}")
    if "experiment" not in data:
        raise InvalidParameterError("manifest lacks an 'experiment' entry")
    return data


def normalize_manifest(data: dict) -> dict:
    if data.get("experiment") not in EXPERIMENTS:
        raise InvalidParameterError(f"experiment must be one of {tuple(EXPERIMENTS)}")
    _, own, reads = EXPERIMENTS[data["experiment"]]
    unread = sorted(set(data) - set(COMMON) - set(reads) - {"experiment"})
    if unread:
        raise InvalidParameterError(f"{data['experiment']} does not read manifest entries {unread}")
    out = {**COMMON, **reads, **data}
    if own is not None:  # these experiments run in one mode; an omitted mode takes it
        if data.get("mode", own) != own:
            raise InvalidParameterError(
                f"{out['experiment']} runs in {own} mode, got mode {data['mode']!r}")
        out["mode"] = own
    if not isinstance(out["out"], str) or not out["out"]:
        raise InvalidParameterError(f"out must be a non-empty string, got {out['out']!r}")
    for key in ("L", "p"):  # a single value is a one-point grid
        if not isinstance(out[key], list):
            out[key] = [out[key]]
    if not out["L"] or not out["p"]:
        raise InvalidParameterError("manifest grid must be non-empty")
    for key in ("samples", "tmax", "max_nodes"):  # a fixed order, so the first error is too
        if key in out and (type(out[key]) is not int or out[key] < 1):
            raise InvalidParameterError(f"{key} must be an integer >= 1, got {out[key]!r}")
    if out["experiment"] == "scaling":  # the default fit window spans at least [100, 400]
        lo, hi = out["fit_lo"], out["fit_hi"]
        if hi is None and lo != DEFAULT_FIT_LO:
            raise InvalidParameterError(f"fit_lo takes effect only with fit_hi, got fit_lo={lo!r} alone")
        if hi is not None and (type(lo) is not int or type(hi) is not int or lo >= hi):
            raise InvalidParameterError(f"fit window needs integers fit_lo < fit_hi, got {lo!r}, {hi!r}")
        fit_mask(np.arange(1, out["tmax"] + 1), (lo, DEFAULT_FIT_HI_MIN if hi is None else hi))
    cut = out.get("cut_row")
    for L in out["L"]:
        for p in out["p"]:
            params = ModelParams(L=L, p=p, boundary_mode=out["mode"],
                                 colored=out["colored"], seed=out["seed"])
            if out["experiment"] != "scaling":  # the free dynamics alone takes even L
                params.require_odd_L()
        if cut is not None and (type(cut) is not int or not 1 <= cut <= L - 1):
            raise InvalidParameterError(f"cut_row must lie in 1..{L - 1} for L={L}, got {cut!r}")
    out["p"] = [float(p) for p in out["p"]]  # an integer p writes what --p writes: 1.0, not 1
    for key in ("L", "p"):  # a repeated point would run, and be fitted, twice
        if len(set(out[key])) < len(out[key]):
            raise InvalidParameterError(f"{key} repeats a value: {out[key]!r}")
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
    runner = EXPERIMENTS[manifest["experiment"]][0]
    meta = {"manifest": manifest, "seed": manifest["seed"]}
    try:
        paths, capacity_hit = runner(manifest, outdir, meta)  # a runner may add entries
    finally:  # the kept layout would outlive the run (exact._kept)
        exact._KEPT.clear()
    meta["version"] = __version__
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
    window = None
    if manifest["fit_hi"] is not None:
        window = (manifest["fit_lo"], manifest["fit_hi"])
    # _grid runs through every p of one L before the next L; one ensemble
    # call serves every p of an L from the same draws
    for first in list(_grid(manifest))[::len(manifest["p"])]:
        for series in ensemble(first, manifest["samples"], manifest["tmax"], ps=manifest["p"]):
            params = series.params
            meta["trajectory_ranges"].append({"L": params.L, "p": params.p,
                                              "ranges": series.ranges})
            columns = (series.times, series.W, series.W_stderr, series.mid_height,
                       series.mid_stderr, series.W_fluct)
            rows = [(*row, series.n_samples) for row in zip(*(c.tolist() for c in columns))]
            path = outdir / f"scaling_L{params.L}_p{params.p}.csv"
            _write_csv(path, ["t", "W_mean", "W_stderr", "mid_mean", "mid_stderr",
                              "W_fluct", "n"], rows)
            paths.append(path)
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


@functools.lru_cache(maxsize=4096)
def _support_label(support) -> str:
    """A term's support as the CSV writes it, built once per support: "s/1/0;s/2/0"."""
    return ";".join("/".join(map(str, s)) for s in support)


def _run_hamiltonian_check(manifest, outdir, meta):
    res_rows = []
    spec_rows = []
    capacity = False
    for params in _grid(manifest):
        try:
            state = build_state(params, max_nodes=manifest["max_nodes"])
            terms = assemble_hamiltonian(params)
            for n, (term, r) in enumerate(zip(terms, term_residuals(terms, state))):
                res_rows.append((params.L, params.p, n, term.kind, _support_label(term.support), r))
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


_ENTROPY_READS = {"max_nodes": MAX_NODES, "cut_row": None}

# experiment: (runner, the one mode it runs in or None, the entries it reads beyond
# COMMON with their defaults); a manifest entry outside these is refused
EXPERIMENTS = {
    "scaling": (_run_scaling, "reflecting",
                {"samples": 200, "tmax": 4000, "fit_lo": DEFAULT_FIT_LO, "fit_hi": None}),
    "exact-entropy": (_run_entropy, None, _ENTROPY_READS),
    "dp-entropy": (_run_entropy, None, _ENTROPY_READS),
    "hamiltonian-check": (_run_hamiltonian_check, "absorbing", {"max_nodes": MAX_NODES}),
    "seqgen-check": (_run_seqgen_check, "reflecting", {"max_nodes": MAX_NODES}),
    "phase-sweep": (_run_phase_sweep, None, _ENTROPY_READS),
}


def build_parser():
    parser = argparse.ArgumentParser(prog="depevap",
                                     description="deposition-evaporation lattice-state experiments")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, (_, own, reads) in EXPERIMENTS.items():
        sp = sub.add_parser(name)
        sp.add_argument("--manifest", type=str, default=None)
        sp.add_argument("--L", type=int, action="append", default=None)
        sp.add_argument("--p", type=float, action="append", default=None)
        # a one-mode row shows its mode alone; normalize_manifest refuses the other
        sp.add_argument("--mode", default=None, **({"metavar": f"{{{own}}}"} if own else
                                                   {"choices": ("reflecting", "absorbing")}))
        colored = sp.add_mutually_exclusive_group()
        colored.add_argument("--colored", dest="colored", action="store_true", default=None)
        colored.add_argument("--uncolored", dest="colored", action="store_false")
        sp.add_argument("--seed", type=int, default=None)
        for key in reads:
            if key not in ("fit_lo", "fit_hi"):  # the fit window is a manifest entry only
                sp.add_argument("--" + key.replace("_", "-"), dest=key, type=int, default=None)
        sp.add_argument("--out", type=str, default=None)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, the capacity code here
        return 1 if exc.code else 0
    try:
        manifest = load_manifest(args.manifest) if args.manifest else {}
        if manifest.get("experiment", args.experiment) != args.experiment:
            raise InvalidParameterError(f"manifest {args.manifest} is for experiment "
                                        f"{manifest['experiment']!r}, not {args.experiment!r}")
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

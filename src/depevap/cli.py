"""Command-line harness: reproducible experiments with manifests.

Every experiment is described by a manifest (a flat JSON object); flags
override manifest entries.  Each run writes deterministic CSV data files
plus run_metadata.json (manifest echo, seed, package version, wall
time, peak resident memory of the process, the largest peak of the
run's own range workers, and for scaling the trajectory ranges of each
grid point).  The workers' figure, `worker_peak_rss_mb`, is the largest
that scaling's `ensemble` handed back with its series, each series
carrying the largest `ru_maxrss` that `os.wait4` reported for a worker
of its call; it is 0.0 when no worker ran.  Rerunning the same manifest
reproduces the data files byte for byte; the metadata file carries the
only nondeterministic content (timing, memory and the range count, which
follows the CPUs available) and is excluded from that guarantee.

Every experiment runs one loop, `run_experiment`, over its (L, p) grid,
L-major.  A row of `EXPERIMENTS` gives the point function, a generator of
(file name, row) pairs for one `ModelParams`; its capacity row; the files
every run writes, with their headers; and, for phase-sweep, the fit step
that reads them after the grid.  When a point trips a capacity guard, the
rows it yielded before stay and its capacity row follows them in the
first listed file.  A file the row does not list is the point's own
(scaling's series files, headed by the first row the point yields to
them) and is written as soon as the point ends, so no later point holds
its rows; scaling's point runs every p of an L at the L's first p, from
one `ensemble` call and so from the same draws.  The artifact paths come
in the order written: the points' own files, the listed files in their
listed order, then run_metadata.json.

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

# the entries every experiment takes; each row of EXPERIMENTS adds the ones its point reads
COMMON = {"L": [3], "p": [0.5], "mode": "reflecting", "colored": True, "seed": 0, "out": "out"}


def load_manifest(path) -> dict:
    """A manifest file's entries, checked by run_experiment after any flag overrides."""
    try:
        with open(path, encoding="utf-8") as fh:  # JSON text is UTF-8 (RFC 8259)
            data = json.load(fh)
    except UnicodeDecodeError as exc:
        raise InvalidParameterError(f"manifest {path} is not UTF-8 text: {exc}") from None
    if not isinstance(data, dict):
        raise InvalidParameterError(f"a manifest must be a JSON object, got {data!r}")
    if "experiment" not in data:
        raise InvalidParameterError("manifest lacks an 'experiment' entry")
    return data


def normalize_manifest(data: dict) -> dict:
    if data.get("experiment") not in EXPERIMENTS:
        raise InvalidParameterError(f"experiment must be one of {tuple(EXPERIMENTS)}")
    *_, own, reads = EXPERIMENTS[data["experiment"]]
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
    for n, params in enumerate(_grid(out), 1):
        if out["experiment"] != "scaling":  # the free dynamics alone takes even L
            params.require_odd_L()
        last_p = n % len(out["p"]) == 0  # an L's cut once all its points passed: L-major errors
        if last_p and cut is not None and (type(cut) is not int or not 1 <= cut <= params.L - 1):
            raise InvalidParameterError(
                f"cut_row must lie in 1..{params.L - 1} for L={params.L}, got {cut!r}")
    out["p"] = [float(p) for p in out["p"]]  # an integer p writes what --p writes: 1.0, not 1
    for key in ("L", "p"):  # a repeated point would run, and be fitted, twice
        if len(set(out[key])) < len(out[key]):
            raise InvalidParameterError(f"{key} repeats a value: {out[key]!r}")
    return out


def _write_csvs(outdir: Path, files: dict) -> list:
    """Write each {file name: rows} entry, header row first; returns the paths in order."""
    for name, rows in files.items():
        with open(outdir / name, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
    return [outdir / name for name in files]


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
    point, capacity_row, headers, fit = EXPERIMENTS[manifest["experiment"]][:4]
    # a point may add entries, and raise the workers' peak from 0.0
    meta = {"manifest": manifest, "seed": manifest["seed"], "worker_peak_rss_mb": 0.0}
    listed = {name: [header] for name, header in headers.items()}
    paths, code = [], 0
    try:
        for params in _grid(manifest):
            own = {}  # the files of this point alone, each headed by its first row
            try:
                for name, row in point(manifest, params, meta):
                    (listed if name in listed else own).setdefault(name, []).append(row)
            except CapacityError:  # the rows the point yielded stay; its capacity row follows
                listed[next(iter(headers))].append(capacity_row(manifest, params))
                code = 2
            paths += _write_csvs(outdir, own)
    finally:  # the kept layout would outlive the run (exact._kept)
        exact._KEPT.clear()
    if fit is not None:
        fit(listed)
    paths += _write_csvs(outdir, listed)
    meta["version"] = __version__
    meta["wall_time_s"] = time.perf_counter() - started
    # ru_maxrss is in KiB on Linux; the range workers' peak came with the scaling series
    meta["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    meta_path = outdir / "run_metadata.json"
    with open(meta_path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return paths + [meta_path], code


def _scaling_point(manifest, params, meta):
    """Every p of params.L from one ensemble call, so from the same draws; at the L's first p."""
    if params.p != manifest["p"][0]:
        return
    window = None if manifest["fit_hi"] is None else (manifest["fit_lo"], manifest["fit_hi"])
    for series in ensemble(params, manifest["samples"], manifest["tmax"], ps=manifest["p"]):
        L, p = series.params.L, series.params.p
        meta.setdefault("trajectory_ranges", []).append({"L": L, "p": p, "ranges": series.ranges})
        meta["worker_peak_rss_mb"] = max(meta["worker_peak_rss_mb"], series.worker_peak_rss_mb)
        name = f"scaling_L{L}_p{p}.csv"
        yield name, ("t", "W_mean", "W_stderr", "mid_mean", "mid_stderr", "W_fluct", "n")
        columns = (series.times, series.W, series.W_stderr, series.mid_height,
                   series.mid_stderr, series.W_fluct)
        for row in zip(*(c.tolist() for c in columns)):
            yield name, (*row, series.n_samples)
        rep = exponent_report(series, fit_window=window)
        yield "scaling_summary.csv", (L, p, rep["W"]["exponent"], rep["W"]["r_squared"],
                                      rep["mid"]["exponent"], rep["mid"]["r_squared"],
                                      rep["W_fluct"]["exponent"],
                                      rep["fit_window"][0], rep["fit_window"][1],
                                      rep["saturation_time"] if rep["saturation_time"] else -1)


def _cut(manifest, params):
    return mid_cut_row(params.L) if manifest["cut_row"] is None else manifest["cut_row"]


def _entropy_row(manifest, params, method="capacity", report=None):
    """(L, p, mode, cut, method, S_uncolored, color_term, S_total); nan without a report."""
    values = _NAN3 if report is None else (report.S_uncolored, report.color_term, report.S_total)
    return (params.L, params.p, params.boundary_mode, _cut(manifest, params), method, *values)


def _dp_point(manifest, params, meta):
    """The DP's row, in the experiment's one entropy file."""
    name = f"{manifest['experiment'].replace('-', '_')}.csv"
    report = entropy_dp(params, _cut(manifest, params), manifest["max_nodes"])
    yield name, _entropy_row(manifest, params, "dp", report)


def _exact_point(manifest, params, meta):
    """The Schmidt decomposition's "svd" row, then the DP's row."""
    state = build_state(params, max_nodes=manifest["max_nodes"])
    yield "exact_entropy.csv", _entropy_row(manifest, params, "svd",
                                            entropy_exact(state, _cut(manifest, params)))
    yield from _dp_point(manifest, params, meta)


def _phase_point(manifest, params, meta):
    """The DP's row without its mode and method."""
    for name, (L, p, _, cut, _, *values) in _dp_point(manifest, params, meta):
        yield name, (L, p, cut, *values)


def _fit_phase_exponents(files):
    """Each p's power-law fit of S_total over L, from the points that reached the DP."""
    by_p = {}
    for L, p, _, _, _, S_total in files["phase_sweep.csv"][1:]:
        if not np.isnan(S_total):  # a capacity row has no entropy to fit
            by_p.setdefault(p, []).append((L, S_total))
    for p, pts in sorted(by_p.items()):
        positive = sorted((L, S) for L, S in pts if S > 0)
        if len(positive) >= 3:
            files["phase_exponents.csv"].append((p, *fit_power_law(*zip(*positive))))
        else:  # S = 0 is a valid area law (p = 0) but has no power-law fit
            files["phase_exponents.csv"].append((p, *_NAN3))


@functools.lru_cache(maxsize=4096)
def _support_label(support) -> str:
    """A term's support as the CSV writes it, built once per support: "s/1/0;s/2/0"."""
    return ";".join("/".join(map(str, s)) for s in support)


def _hamiltonian_point(manifest, params, meta):
    state = build_state(params, max_nodes=manifest["max_nodes"])
    terms = assemble_hamiltonian(params)
    for n, (term, r) in enumerate(zip(terms, term_residuals(terms, state))):
        yield "hamiltonian_residuals.csv", (params.L, params.p, n, term.kind,
                                            _support_label(term.support), r)
    for n, val in enumerate(sector_spectrum(terms, params, k=4)):
        yield "hamiltonian_spectrum.csv", (params.L, params.p, n, val)


def _seqgen_point(manifest, params, meta):
    gen, success = run_generation(params, max_branches=manifest["max_nodes"])
    state = build_state(params, max_nodes=manifest["max_nodes"])
    _, success_cool = run_generation(params, cooling=True, max_branches=manifest["max_nodes"])
    yield "seqgen_fidelity.csv", (params.L, params.p, params.colored,
                                  fidelity(gen, state), success, success_cool)


_NAN3 = (float("nan"),) * 3
_ENTROPY_HEADER = ["L", "p", "mode", "cut", "method", "S_uncolored", "color_term", "S_total"]
_ENTROPY_READS = {"max_nodes": MAX_NODES, "cut_row": None}

# experiment: (point, its capacity row, the files every run writes with their headers (the
# capacity row goes to the first), the step after the grid or None, the one mode it runs in
# or None, the entries it reads beyond COMMON with their defaults); a manifest entry outside
# these is refused
EXPERIMENTS = {
    "scaling": (_scaling_point, None,
                {"scaling_summary.csv": ["L", "p", "W_exponent", "W_r2", "mid_exponent", "mid_r2",
                                         "W_fluct_exponent", "fit_lo", "fit_hi", "saturation_t"]},
                None, "reflecting",
                {"samples": 200, "tmax": 4000, "fit_lo": DEFAULT_FIT_LO, "fit_hi": None}),
    "exact-entropy": (_exact_point, _entropy_row, {"exact_entropy.csv": _ENTROPY_HEADER},
                      None, None, _ENTROPY_READS),
    "dp-entropy": (_dp_point, _entropy_row, {"dp_entropy.csv": _ENTROPY_HEADER},
                   None, None, _ENTROPY_READS),
    "hamiltonian-check": (_hamiltonian_point,
                          lambda m, params: (params.L, params.p, -1, "capacity", "", float("nan")),
                          {"hamiltonian_residuals.csv": ["L", "p", "term", "kind", "support",
                                                         "residual"],
                           "hamiltonian_spectrum.csv": ["L", "p", "index", "eigenvalue"]},
                          None, "absorbing", {"max_nodes": MAX_NODES}),
    "seqgen-check": (_seqgen_point, lambda m, params: (params.L, params.p, params.colored, *_NAN3),
                     {"seqgen_fidelity.csv": ["L", "p", "colored", "fidelity", "success",
                                              "success_cooling"]},
                     None, "reflecting", {"max_nodes": MAX_NODES}),
    "phase-sweep": (_phase_point, lambda m, params: (params.L, params.p, _cut(m, params), *_NAN3),
                    {"phase_sweep.csv": ["L", "p", "cut", "S_uncolored", "color_term", "S_total"],
                     "phase_exponents.csv": ["p", "exponent", "amplitude", "r_squared"]},
                    _fit_phase_exponents, None, _ENTROPY_READS),
}


def build_parser():
    parser = argparse.ArgumentParser(prog="depevap",
                                     description="deposition-evaporation lattice-state experiments")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, (*_, own, reads) in EXPERIMENTS.items():
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

"""Output checks: the CSV artifacts of one experiment against reference values.

Tolerances are the acceptance suite's, not byte hashes, because later
work may legitimately reorder float sums or change random streams:

* entropies (DP and Schmidt) within 1e-9 bits of the reference, and the
  Schmidt value within 1e-9 of the DP value;
* generator fidelity >= 1 - 1e-10, success probabilities within 1e-9
  (relative) of the reference;
* Hamiltonian residuals < 1e-10, lowest eigenvalue |lambda_0| < 1e-10,
  second eigenvalue > 1e-6, the four lowest within 1e-8 of the reference;
* growth observables at fixed checkpoints within GROWTH_SIGMAS combined
  standard errors of the reference seed (for W_fluct, which has no
  standard error in the CSV, its standard deviation over seeds stored
  in the reference as W_fluct_sd), plus the integer invariants of
  the midpoint height (its parity never changes, it moves by at most 2
  per slice, it stays nonnegative).

Every problem is attributed to one (L, p) grid point, the benchmark's
unit of work; a point with any problem is a failed operation.
"""

from __future__ import annotations

import csv
import math
import re
import tempfile
from pathlib import Path

ENTROPY_TOL = 1e-9
FIDELITY_BAR = 1 - 1e-10
SUCCESS_RTOL = 1e-9
RESIDUAL_BAR = 1e-10
GROUND_BAR = 1e-10
GAP_BAR = 1e-6
EIGEN_TOL = 1e-8
GROWTH_SIGMAS = 5.0
GROWTH_CHECKPOINTS = (16, 128, 512, 2048)

_NUMPY_REPR = re.compile(r"^np\.float64\((.*)\)$")


def num(text: str) -> float:
    """A CSV float, written either as a plain repr or as np.float64(...)."""
    match = _NUMPY_REPR.match(text)
    return float(match.group(1) if match else text)


def read_rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def point_key(manifest: dict, L, p) -> str:
    colored = "colored" if manifest["colored"] else "uncolored"
    return f"{manifest['experiment']} {manifest['mode']} {colored} L={L} p={p!r}"


def _rows_by_point(rows):
    out = {}
    for row in rows:
        out.setdefault((int(row["L"]), num(row["p"])), []).append(row)
    return out


def _close(a, b, tol):
    return math.isfinite(a) and abs(a - b) <= tol


# ---------------------------------------------------------------------------
# per-experiment extraction: CSV artifacts -> {point: values}


def extract(manifest: dict, outdir: Path) -> dict:
    """{(L, p): values} for every grid point found in the experiment's CSVs."""
    return _EXTRACT[manifest["experiment"]](manifest, Path(outdir))


def _extract_scaling(manifest, outdir):
    out = {}
    for L in manifest["L"]:
        for p in manifest["p"]:
            path = outdir / f"scaling_L{L}_p{p}.csv"
            if not path.exists():
                continue
            rows = read_rows(path)
            series = {key: [num(r[key]) for r in rows]
                      for key in ("W_mean", "W_stderr", "mid_mean", "mid_stderr", "W_fluct")}
            series["t"] = [int(r["t"]) for r in rows]
            series["n"] = sorted({int(r["n"]) for r in rows})
            out[(L, p)] = series
    summary = {(int(r["L"]), num(r["p"])): r for r in read_rows(outdir / "scaling_summary.csv")}
    for point, series in out.items():
        series["summary"] = summary.get(point)
    return out


def _extract_phase_sweep(manifest, outdir):
    fits = {num(r["p"]): num(r["exponent"]) for r in read_rows(outdir / "phase_exponents.csv")}
    out = {}
    for point, rows in _rows_by_point(read_rows(outdir / "phase_sweep.csv")).items():
        r = rows[0]
        out[point] = {"S": [num(r["S_uncolored"]), num(r["color_term"]), num(r["S_total"])],
                      "fit": fits.get(point[1], float("nan"))}
    return out


def _extract_exact_entropy(manifest, outdir):
    out = {}
    for point, rows in _rows_by_point(read_rows(outdir / "exact_entropy.csv")).items():
        out[point] = {r["method"]: [num(r["S_uncolored"]), num(r["color_term"]),
                                    num(r["S_total"])] for r in rows}
    return out


def _extract_seqgen(manifest, outdir):
    out = {}
    for point, rows in _rows_by_point(read_rows(outdir / "seqgen_fidelity.csv")).items():
        r = rows[0]
        out[point] = {k: num(r[k]) for k in ("fidelity", "success", "success_cooling")}
    return out


def _extract_hamiltonian(manifest, outdir):
    residuals = _rows_by_point(read_rows(outdir / "hamiltonian_residuals.csv"))
    spectra = _rows_by_point(read_rows(outdir / "hamiltonian_spectrum.csv"))
    out = {}
    for point, rows in residuals.items():
        spec = sorted(spectra.get(point, []), key=lambda r: int(r["index"]))
        out[point] = {"residuals": [num(r["residual"]) for r in rows],
                      "capacity": any(r["kind"] == "capacity" for r in rows),
                      "spectrum": [num(r["eigenvalue"]) for r in spec]}
    return out


_EXTRACT = {
    "scaling": _extract_scaling,
    "phase-sweep": _extract_phase_sweep,
    "exact-entropy": _extract_exact_entropy,
    "seqgen-check": _extract_seqgen,
    "hamiltonian-check": _extract_hamiltonian,
}


# ---------------------------------------------------------------------------
# reference values: what make_reference.py stores per grid point


def reference_values(manifest: dict, values) -> object:
    """The part of one point's extracted values kept as its reference."""
    kind = manifest["experiment"]
    if kind == "scaling":
        keep = {}
        for t in GROWTH_CHECKPOINTS:
            k = values["t"].index(t)
            keep[str(t)] = {key: values[key][k] for key in
                            ("W_mean", "W_stderr", "mid_mean", "mid_stderr", "W_fluct")}
        return {"n": values["n"], "checkpoints": keep}
    if kind == "phase-sweep":
        return values["S"]
    if kind == "hamiltonian-check":
        return {"terms": len(values["residuals"]), "spectrum": values["spectrum"]}
    if kind == "seqgen-check":
        return {k: values[k] for k in ("success", "success_cooling")}
    return values


# ---------------------------------------------------------------------------
# checks


def _check_scaling(manifest, v, ref):
    problems = []
    n = manifest["samples"]
    if v["t"] != list(range(1, manifest["tmax"] + 1)) or v["n"] != [n]:
        return ["series rows or sample counts differ from the manifest"]
    for t, r in ref["checkpoints"].items():
        k = int(t) - 1
        for key, se, ref_se in (("W_mean", v["W_stderr"][k], r["W_stderr"]),
                                ("mid_mean", v["mid_stderr"][k], r["mid_stderr"]),
                                ("W_fluct", r["W_fluct_sd"], r["W_fluct_sd"])):
            bound = GROWTH_SIGMAS * math.hypot(se, ref_se)
            if not _close(v[key][k], r[key], bound):
                problems.append(f"{key} at t={t}: {v[key][k]!r} vs reference {r[key]!r} "
                                f"(allowed {bound:.3g})")
    mid_sums = [round(m * n) for m in v["mid_mean"]]
    if any(abs(m * n - s) > 1e-6 for m, s in zip(v["mid_mean"], mid_sums)):
        problems.append("midpoint height sum is not an integer")
    elif len({s % 2 for s in mid_sums}) != 1:
        problems.append("midpoint height parity changed")
    if any(abs(b - a) > 2 + 1e-9 for a, b in zip(v["mid_mean"], v["mid_mean"][1:])):
        problems.append("midpoint height moved by more than 2 in one slice")
    if min(v["mid_mean"]) < 0 or min(v["W_mean"]) < 0:
        problems.append("negative height or roughness")
    summary = v["summary"]
    if summary is None or not all(math.isfinite(num(summary[k])) for k in
                                  ("W_exponent", "mid_exponent", "W_fluct_exponent")):
        problems.append("summary row missing or not finite")
    return problems


def _check_phase_sweep(manifest, v, ref):
    problems = [f"S component {k}: {a!r} vs reference {b!r}"
                for k, (a, b) in enumerate(zip(v["S"], ref)) if not _close(a, b, ENTROPY_TOL)]
    if len(manifest["L"]) >= 3 and not math.isfinite(v["fit"]):
        problems.append("no finite S(L) exponent for this p")
    return problems


def _check_exact_entropy(manifest, v, ref):
    if set(v) != {"svd", "dp"}:
        return [f"methods {sorted(v)} instead of svd and dp"]
    problems = []
    if not _close(v["svd"][2], v["dp"][2], ENTROPY_TOL):
        problems.append(f"svd S {v['svd'][2]!r} vs dp S {v['dp'][2]!r}")
    for method in ("svd", "dp"):
        for k, (a, b) in enumerate(zip(v[method], ref[method])):
            if not _close(a, b, ENTROPY_TOL):
                problems.append(f"{method} S component {k}: {a!r} vs reference {b!r}")
    return problems


def _check_seqgen(manifest, v, ref):
    problems = []
    if not v["fidelity"] >= FIDELITY_BAR:
        problems.append(f"fidelity {v['fidelity']!r} below 1 - 1e-10")
    for key in ("success", "success_cooling"):
        if not _close(v[key], ref[key], SUCCESS_RTOL * abs(ref[key])):
            problems.append(f"{key} {v[key]!r} vs reference {ref[key]!r}")
    return problems


def _check_hamiltonian(manifest, v, ref):
    if v["capacity"]:
        return ["capacity guard tripped"]
    problems = []
    if len(v["residuals"]) != ref["terms"]:
        problems.append(f"{len(v['residuals'])} terms, reference has {ref['terms']}")
    worst = max(v["residuals"], default=float("nan"))
    if not worst < RESIDUAL_BAR:
        problems.append(f"max residual {worst!r}")
    spec = v["spectrum"]
    if len(spec) != len(ref["spectrum"]):
        return problems + [f"{len(spec)} eigenvalues, reference has {len(ref['spectrum'])}"]
    if not abs(spec[0]) < GROUND_BAR:
        problems.append(f"lambda_0 = {spec[0]!r}")
    if not spec[1] > GAP_BAR:
        problems.append(f"lambda_1 = {spec[1]!r}")
    problems += [f"eigenvalue {k}: {a!r} vs reference {b!r}"
                 for k, (a, b) in enumerate(zip(spec, ref["spectrum"]))
                 if not _close(a, b, EIGEN_TOL)]
    return problems


_CHECK = {
    "scaling": _check_scaling,
    "phase-sweep": _check_phase_sweep,
    "exact-entropy": _check_exact_entropy,
    "seqgen-check": _check_seqgen,
    "hamiltonian-check": _check_hamiltonian,
}


def check_experiment(manifest: dict, outdir, code, reference: dict) -> dict:
    """{point key: [problems]} for every grid point of the manifest.

    `code` is the CLI exit code, or None when the experiment raised; in
    both that case and a capacity exit (2) the points lacking a clean
    row fail.
    """
    points = [(L, p) for L in manifest["L"] for p in manifest["p"]]
    if code is None:
        return {point_key(manifest, L, p): ["experiment raised"] for L, p in points}
    try:
        values = extract(manifest, outdir)
    except (OSError, KeyError, ValueError) as exc:
        return {point_key(manifest, L, p): [f"unreadable output: {exc!r}"] for L, p in points}
    result = {}
    for L, p in points:
        key = point_key(manifest, L, p)
        v = values.get((L, p))
        if v is None:
            result[key] = ["no output row"]
        elif key not in reference:
            result[key] = ["no reference value"]
        else:
            try:
                result[key] = _CHECK[manifest["experiment"]](manifest, v, reference[key])
            except (TypeError, ValueError, IndexError, KeyError) as exc:
                result[key] = [f"malformed output: {exc!r}"]
        if code == 2 and not result[key]:
            result[key] = ["capacity exit code"]
    return result


# ---------------------------------------------------------------------------
# self-test: corrupted results must count as failures


def _write(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def selftest(reference: dict, tmp_root) -> dict:
    """Feed the checker outputs built from the reference, clean and corrupted.

    Returns {case: passed the checker?}; every clean case must pass and
    every corrupted one must fail.  Scratch files go under `tmp_root`.
    """
    from workloads import WORKLOADS

    sweep = WORKLOADS["dp-sweep"][0]
    seqgen = WORKLOADS["exact-state"][1]
    ham = WORKLOADS["exact-state"][2]
    ham = ham | {"L": ham["L"][:1], "p": ham["p"][:1]}

    def sweep_files(perturb):
        rows = []
        for k, (L, p) in enumerate((L, p) for L in sweep["L"] for p in sweep["p"]):
            S = list(reference[point_key(sweep, L, p)])
            if k == perturb:
                S[2] += 1e-6
            rows.append([L, p, (L - 1) // 2, *map(repr, S)])
        return {"phase_sweep.csv": (["L", "p", "cut", "S_uncolored", "color_term", "S_total"],
                                    rows),
                "phase_exponents.csv": (["p", "exponent", "amplitude", "r_squared"],
                                        [[p, "1.5", "0.1", "0.99"] for p in sweep["p"]])}

    def seqgen_files(fid):
        L, p = seqgen["L"][0], seqgen["p"][0]
        ref = reference[point_key(seqgen, L, p)]
        return {"seqgen_fidelity.csv": (
            ["L", "p", "colored", "fidelity", "success", "success_cooling"],
            [[L, p, True, repr(fid), repr(ref["success"]), repr(ref["success_cooling"])]])}

    def ham_files(capacity):
        L, p = ham["L"][0], ham["p"][0]
        ref = reference[point_key(ham, L, p)]
        res = [[L, p, -1, "capacity", "", "nan"]] if capacity else \
            [[L, p, n, "gauss", "", "0.0"] for n in range(ref["terms"])]
        spec = [] if capacity else [[L, p, n, repr(v)] for n, v in enumerate(ref["spectrum"])]
        return {"hamiltonian_residuals.csv": (["L", "p", "term", "kind", "support", "residual"],
                                              res),
                "hamiltonian_spectrum.csv": (["L", "p", "index", "eigenvalue"], spec)}

    cases = {
        "clean entropy": (sweep, sweep_files(None)),
        "perturbed entropy": (sweep, sweep_files(4)),
        "clean fidelity": (seqgen, seqgen_files(1.0)),
        "fidelity below bar": (seqgen, seqgen_files(1 - 1e-9)),
        "clean hamiltonian": (ham, ham_files(False)),
        "capacity nan row": (ham, ham_files(True)),
    }
    results = {}
    with tempfile.TemporaryDirectory(dir=tmp_root) as tmp:
        for n, (case, (manifest, files)) in enumerate(cases.items()):
            outdir = Path(tmp) / str(n)
            outdir.mkdir()
            for name, (header, rows) in files.items():
                _write(outdir / name, header, rows)
            results[case] = not any(check_experiment(manifest, outdir, 0, reference).values())
    return results


def selftest_ok(cases: dict) -> bool:
    return all(passed == case.startswith("clean") for case, passed in cases.items())

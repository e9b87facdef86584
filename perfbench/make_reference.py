"""Regenerate reference.json, the values the output checks compare against.

Usage (from the repository root): python3 perfbench/make_reference.py

Runs every workload's manifests once at REFERENCE_SEED and keeps, per
(L, p) grid point, what checks.reference_values selects.  The `growth`
manifests also run at SPREAD_SEEDS; the standard deviation of W_fluct
over all those seeds at each checkpoint is kept as `W_fluct_sd`, the
scale of its tolerance in the output checks.  Run it only
at a commit whose outputs define correctness; the committed file was
made at the commit that introduced the benchmark.
"""

import json
import os
import statistics
import sys
import tempfile
from pathlib import Path

from run import THREAD_CAPS

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
os.environ.update(THREAD_CAPS)  # as in the workers: the eigensolver's last digits depend on it

from depevap.cli import run_experiment  # noqa: E402

import checks  # noqa: E402
from workloads import WORKLOADS, manifests  # noqa: E402

REFERENCE_SEED = 0
SPREAD_SEEDS = range(1, 13)


def run(name, seed, out_root):
    """{point key: extracted values} of one workload at one seed."""
    out = {}
    for m in manifests(name, seed, out_root / f"{name}-{seed}"):
        _, code = run_experiment(m)
        if code != 0:
            raise SystemExit(f"{name}: {m['experiment']} exited {code}")
        for (L, p), values in checks.extract(m, Path(m["out"])).items():
            out[checks.point_key(m, L, p)] = (m, values)
    return out


def main():
    reference = {}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        for name in WORKLOADS:
            for key, (m, values) in run(name, REFERENCE_SEED, Path(tmp)).items():
                reference[key] = checks.reference_values(m, values)
        growth_runs = [{k: v for k, (_, v) in run("growth", seed, Path(tmp)).items()}
                       for seed in SPREAD_SEEDS]
        for key, ref in reference.items():
            for t in ref["checkpoints"] if key.startswith("scaling") else ():
                runs = [ref["checkpoints"][t]["W_fluct"]]
                runs += [values[key]["W_fluct"][int(t) - 1] for values in growth_runs]
                ref["checkpoints"][t]["W_fluct_sd"] = statistics.stdev(runs)
    path = HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"{path}: {len(reference)} grid points")


if __name__ == "__main__":
    main()

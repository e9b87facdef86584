"""One repetition of a workload, in a fresh interpreter.

Usage: python3 worker.py SPEC.json, where the spec names the mode
("setup", "plain" or "traced"), the workload's manifests, the report
path and the number of set-up probes per slot.  Set-up ends once
`depevap` is imported and the manifests are normalized; the worker
records that moment as a wall-clock timestamp so that whoever spawned
it can measure set-up from the moment of spawning.  "setup" stops
there.  "plain" runs each manifest through `depevap.cli.run_experiment`;
"traced" does the same with the wrappers of traced.py installed, then
runs its probes.  An experiment that raises is recorded, not fatal:
its grid points count as failed operations.

Set-up probes (set-up-only children of this worker) run in slots before
the first experiment and after each one, outside the experiments' wall
time, so that the set-up samples of a run are spread over its length.
"""

import json
import math
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path


def setup_probe(spec: dict, spec_path: Path) -> float:
    """Seconds from spawning a set-up-only worker to its first experiment call."""
    probe_spec = spec_path.with_suffix(".probe.json")
    probe_report = spec_path.with_suffix(".probe-report.json")
    probe_spec.write_text(json.dumps({**spec, "mode": "setup", "report": str(probe_report)}))
    spawned_at = time.time()
    subprocess.run([sys.executable, __file__, str(probe_spec)], check=True)
    return json.loads(probe_report.read_text())["ready"] - spawned_at


def _run(manifests, run_one, between):
    experiments = []
    between()
    for manifest in manifests:
        began = time.perf_counter()
        try:
            paths, code = run_one(manifest)
            error = None
        except Exception:  # the experiment's failure is measured, not fatal
            paths, code, error = [], None, traceback.format_exc()
        experiments.append({"paths": [str(p) for p in paths], "code": code, "error": error,
                            "seconds": time.perf_counter() - began})
        between()
    return math.fsum(e["seconds"] for e in experiments), experiments


def main(spec_path):
    spec_path = Path(spec_path)
    spec = json.loads(spec_path.read_text())
    from depevap.cli import normalize_manifest, run_experiment
    manifests = [normalize_manifest(m) for m in spec["manifests"]]
    report = {"ready": time.time(), "setup_probes": []}

    def between():
        report["setup_probes"] += [setup_probe(spec, spec_path)
                                   for _ in range(spec.get("probes_per_slot", 0))]

    if spec["mode"] == "plain":
        report["wall_s"], report["experiments"] = _run(manifests, run_experiment, between)
    elif spec["mode"] == "traced":
        import traced
        rec = traced.install()
        report["wall_s"], report["experiments"] = _run(manifests, run_experiment, between)
        report["probes"] = traced.run_probes(rec)
        report["spans"] = rec.spans()
        report["counts"] = rec.counts
    usage = resource.getrusage(resource.RUSAGE_SELF)
    report["peak_rss_mb"] = usage.ru_maxrss / 1024
    report["cpu_s"] = usage.ru_utime + usage.ru_stime
    Path(spec["report"]).write_text(json.dumps(report))


if __name__ == "__main__":
    main(sys.argv[1])

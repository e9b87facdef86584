"""depevap benchmark: pinned CLI workloads, checked outputs, a traced run.

Usage (from the repository root):

    python3 perfbench/run.py --workload growth --seed 1 --seconds 18 --trace 0

Closed loop, one client: the workload's experiments run one after the
other through `depevap.cli.run_experiment`, in a fresh interpreter per
repetition, with BLAS/OpenMP capped at one thread.  A run makes enough
repetitions for the workload's nominal repetition time (workloads.py)
to reach `--seconds`.

`--trace 0` prints the end-to-end metrics (medians over repetitions;
set-up is the median of probes spread through the repetitions);
`--trace 1` runs one untraced repetition of the workload plus a traced
repetition of every workload (traced.py) and prints the per-layer
metrics.

Every repetition's CSV artifacts are checked against reference.json
(checks.py) and hashed; a failed check, a raising experiment or a
capacity row fails that (L, p) grid point.

The last stdout line is the result object; the line before it is the
run's record (environment, per-repetition wall and CPU times, artifact
hashes, problems, checker self-test).  Exit code 0 on a completed run, 1 when
the benchmark itself cannot run (no source tree, a worker crash).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import checks
import layer_metrics
from workloads import WORKLOADS, manifests, repetitions

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"
SETUP_PROBES_PER_SLOT = 3  # slots: before the first experiment and after each one
THREAD_CAPS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}
RUN_BUDGET_S = 165  # a worker still running past this is killed and the run fails


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


class Runner:
    """Spawns workers under a run-wide deadline and assesses their outputs."""

    def __init__(self, workdir: Path, reference: dict):
        self.workdir = workdir
        self.reference = reference
        self.started = time.monotonic()
        self.spawned = 0
        # bytecode caching on, as for an installed package: the warm-up probe
        # compiles, later workers load the cached bytecode
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        self.env.update(THREAD_CAPS, PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))

    def remaining(self) -> float:
        return self.started + RUN_BUDGET_S - time.monotonic()

    def spawn(self, mode: str, workload: str, seed: int, probes_per_slot: int = 0) -> tuple:
        """(worker report, manifests) of one worker process."""
        self.spawned += 1
        tag = f"{mode}-{workload}-{self.spawned}"
        outdir = self.workdir / tag
        ms = manifests(workload, seed, outdir)
        spec, report = self.workdir / f"{tag}.spec.json", self.workdir / f"{tag}.report.json"
        spec.write_text(json.dumps({"mode": mode, "manifests": ms, "report": str(report),
                                    "probes_per_slot": probes_per_slot}))
        spawned_at = time.time()
        try:
            proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec)],
                                  cwd=ROOT, env=self.env, capture_output=True, text=True,
                                  timeout=max(self.remaining(), 1.0))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{tag} worker exceeded the run budget") from exc
        if proc.returncode != 0:
            raise BenchError(f"{tag} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        result = json.loads(report.read_text())
        result["setup_s"] = result["ready"] - spawned_at
        return result, ms

    def assess(self, report: dict, ms: list) -> dict:
        """Checks and hashes of one repetition's artifacts; removes them."""
        hashes, problems, errors, attempted = {}, {}, {}, 0
        for m, exp in zip(ms, report["experiments"]):
            out = Path(m["out"])
            for path in sorted(out.iterdir()) if out.is_dir() else []:
                if path.name != "run_metadata.json":
                    hashes[f"{out.name}/{path.name}"] = hashlib.sha256(
                        path.read_bytes()).hexdigest()
            if exp["error"]:
                errors[out.name] = exp["error"].strip().splitlines()[-1]
            result = checks.check_experiment(m, out, exp["code"], self.reference)
            attempted += len(result)
            problems.update({k: v for k, v in result.items() if v})
        shutil.rmtree(Path(ms[0]["out"]).parent, ignore_errors=True)
        return {"wall_s": report["wall_s"], "setup_s": report["setup_s"],
                "setup_probes": report["setup_probes"], "cpu_s": report["cpu_s"],
                "peak_rss_mb": report["peak_rss_mb"],
                "attempted": attempted, "failed": len(problems),
                "hashes": hashes, "problems": problems, "errors": errors}


def _mismatch(rep: dict, first: dict, why: str):
    """Fail every operation of a repetition whose artifacts differ from `first`."""
    if rep["hashes"] != first["hashes"]:
        rep["problems"]["artifacts"] = [why]
        rep["failed"] = rep["attempted"]


def environment() -> dict:
    def git(*args):
        try:
            proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                                  timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    in_repo = git("rev-parse", "--show-toplevel") == str(ROOT)
    status = git("status", "--porcelain") if in_repo else None

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {"git_revision": git("rev-parse", "HEAD") if in_repo else None,
            "git_dirty": bool(status) if status is not None else None,
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)), "thread_caps": THREAD_CAPS,
            "loadavg_at_start": os.getloadavg()}


def run_plain(runner: Runner, workload: str, seed: int, seconds: int) -> tuple:
    """(repetitions, set-up samples).  After one discarded set-up-only
    warm-up worker, every repetition runs set-up probes between its
    experiments, so that the samples' median spans the whole run."""
    runner.spawn("setup", workload, seed)
    reps = []
    for _ in range(repetitions(workload, seconds)):
        reps.append(runner.assess(*runner.spawn("plain", workload, seed,
                                                SETUP_PROBES_PER_SLOT)))
        _mismatch(reps[-1], reps[0], "artifacts differ from the first repetition")
    return reps, [s for rep in reps for s in (rep["setup_s"], *rep["setup_probes"])]


def run_traced(runner: Runner, workload: str, seed: int) -> tuple:
    """(untraced repetition, {workload: traced repetition + its report})."""
    plain = runner.assess(*runner.spawn("plain", workload, seed))
    traced = {}
    for name in WORKLOADS:
        report, ms = runner.spawn("traced", name, seed)
        rep = runner.assess(report, ms)
        rep["busy_s"] = layer_metrics.busy_by_name(report["spans"])
        rep["probes"] = report["probes"]
        traced[name] = (rep, report)
    _mismatch(traced[workload][0], plain, "traced artifacts differ from the untraced run's")
    return plain, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "depevap" / "cli.py").is_file():
        raise BenchError(f"no depevap source tree under {SRC}")

    reference = json.loads(REFERENCE.read_text())
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment()}
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        selftest = checks.selftest(reference, workdir)
        record["checker_selftest"] = selftest
        runner = Runner(workdir, reference)
        if args.trace:
            plain, traced = run_traced(runner, args.workload, args.seed)
            reps = [plain] + [rep for rep, _ in traced.values()]
            metrics = layer_metrics.per_layer({w: r for w, (_, r) in traced.items()},
                                               plain["wall_s"],
                                               traced[args.workload][1]["wall_s"])
            record["traced"] = {w: rep for w, (rep, _) in traced.items()}
            record["plain"] = plain
        else:
            reps, setup = run_plain(runner, args.workload, args.seed, args.seconds)
            record["setup_s"] = setup
            metrics = {
                "wall_s": (statistics.median(r["wall_s"] for r in reps), "s"),
                "setup_s": (statistics.median(setup), "s"),
                "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
            }
            record["repetitions"] = reps
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run's work directory is still there

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    correct = failed == 0 and checks.selftest_ok(selftest)
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(1)

"""Self-test of the benchmark's checks and of its seed plumbing.

Usage (from the repository root): python3 perfbench/selftest.py

1. The output checker must pass clean outputs built from reference.json
   and fail corrupted ones: a perturbed entropy, a fidelity below the
   bar, a capacity `nan` row.  (run.py repeats this in every run.)
2. Rerun identity: every workload runs three times through run.py, at
   seeds A, A and B.  The two seed-A runs must give byte-identical CSV
   artifacts; seed B must change the `growth` artifacts and no others,
   which shows that the seed reaches the program and only the program's
   random streams.

Takes about three minutes; exits 1 if any expectation fails.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import checks
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SEED_A, SEED_B = 11, 12


def artifact_hashes(workload, seed):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, check=True, cwd=HERE.parent)
    record_line, result_line = proc.stdout.splitlines()[-2:]
    if not json.loads(result_line)["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs failed their checks")
    return json.loads(record_line)["record"]["repetitions"][0]["hashes"]


def main():
    ok = True
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        cases = checks.selftest(json.loads((HERE / "reference.json").read_text()), tmp)
    for case, passed in cases.items():
        expected = case.startswith("clean")
        ok &= passed == expected
        print(f"checker: {case}: {'pass' if passed else 'fail'} "
              f"({'as expected' if passed == expected else 'WRONG'})")
    for workload in WORKLOADS:
        a1, a2, b = (artifact_hashes(workload, s) for s in (SEED_A, SEED_A, SEED_B))
        same_seed = a1 == a2
        seed_changes = a1 != b
        expect_change = workload == "growth"
        ok &= same_seed and seed_changes == expect_change
        print(f"{workload}: {len(a1)} artifacts; seed {SEED_A} twice identical: {same_seed}; "
              f"seed {SEED_B} changes them: {seed_changes} (expected {expect_change})")
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

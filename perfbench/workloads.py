"""The three pinned workloads, as CLI manifests.

Each workload is a list of manifests for `depevap.cli.run_experiment`.
Every manifest names its boundary mode and colouring, which the output
checks key their reference values by.  The benchmark's `--seed` is
written into every manifest; only the `scaling` experiment draws random
numbers, so only `growth` outputs depend on it.  Why each workload
exists is recorded in README.md.
"""

import math

WORKLOADS = {
    # free dynamics: EW phase (reflecting h=1 rule active) and growing phase
    "growth": [
        {"experiment": "scaling", "L": [512], "p": [0.5, 0.8],
         "mode": "reflecting", "colored": True, "samples": 200, "tmax": 2048},
    ],
    # the S(L) sweep over the area / sub-volume / volume phases
    "dp-sweep": [
        {"experiment": "phase-sweep", "L": [5, 7, 9, 11, 13, 15, 17],
         "p": [0.25, 0.5, 0.8], "mode": "reflecting", "colored": True},
    ],
    # exact states: the reflecting L=7 state (8,481 keys) through enumeration,
    # codec, Schmidt split, DP and seqgen; then the absorbing parent
    # Hamiltonian's residuals and sector spectra on uncolored and colored keys
    "exact-state": [
        {"experiment": "exact-entropy", "L": [7], "p": [0.5],
         "mode": "reflecting", "colored": True},
        {"experiment": "seqgen-check", "L": [7], "p": [0.5],
         "mode": "reflecting", "colored": True},
        {"experiment": "hamiltonian-check", "L": [7], "p": [0.25, 0.5, 0.8],
         "mode": "absorbing", "colored": False},
        {"experiment": "hamiltonian-check", "L": [5], "p": [0.25, 0.5, 0.8],
         "mode": "absorbing", "colored": True},
    ],
}


# Median seconds per repetition on the 2-core development host when the
# benchmark was introduced.  A run makes enough repetitions for these to
# reach --seconds, so its work is fixed and does not shrink when the code
# gets faster.
NOMINAL_REP_S = {"growth": 14.0, "dp-sweep": 10.5, "exact-state": 19.5}


def repetitions(workload: str, seconds: int) -> int:
    return math.ceil(seconds / NOMINAL_REP_S[workload])


def manifests(workload: str, seed: int, out_root) -> list:
    """The workload's manifests with the seed and per-experiment output dirs."""
    return [{**m, "seed": seed, "out": str(out_root / f"{k}-{m['experiment']}")}
            for k, m in enumerate(WORKLOADS[workload])]


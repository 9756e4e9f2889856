"""Self-test of the benchmark's checks.

    python3 bench/selftest.py

Runs each workload once, with seed 1, with its checks and no fault (every
operation must pass), then once per fault of bench/plants.py (at least one
operation must fail).  Prints one line per run; exits 1 if a clean run fails an operation
or a planted fault goes unreported.
"""

from __future__ import annotations

import sys

from plants import FAULTS
from run import WORKLOADS, spawn

SEED = 1


def failed_ops(rep: dict) -> int:
    return sum(bool(err or problems) for err, problems in zip(rep["errors"], rep["problems"]))


def main() -> int:
    ok = True
    for workload in WORKLOADS:
        rep = spawn(workload, SEED, "--check")
        bad = failed_ops(rep)
        ok &= bad == 0
        print(f"clean {workload:9s} {bad:4d} of {len(rep['errors'])} operations failed")
    for fault, (workload, *_) in FAULTS.items():
        rep = spawn(workload, SEED, "--check", "--plant", fault)
        bad = failed_ops(rep)
        ok &= bad > 0
        first = next((p[0] for p in rep["problems"] if p), "nothing reported")
        print(f"{fault:19s} {workload:9s} {bad:4d} of {len(rep['errors'])} operations failed: {first}")
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

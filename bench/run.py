"""The azw benchmark.

    python3 bench/run.py --workload {oracle,census,envelope,search} --seed N \
        --seconds S --trace {0,1}

Runs repetitions of one workload, each in a fresh interpreter (bench/worker.py),
until S seconds have passed and at least three have run.  Every repetition
starts cold, so no module-level cache of azw carries over from one to the
next, and a workload's figures do not depend on what ran before it.

The first repetition's results go through the independent checks of
bench/checks.py; every later one must reproduce their digests exactly.  An
operation fails if it raises, if a check finds a problem with its result, or
if its result differs from the checked one.  `correct` is true only when no
operation failed.  A repetition that crashes or runs past REP_TIMEOUT_S ends
the run with `correct` false and no metrics.

--trace 0 prints the end-to-end metrics: the mean over repetitions of wall_s,
medians over repetitions of setup_s and peak_rss_mb, and the median of all
operations' times, op_p50_ms.
--trace 1 alternates untraced and traced repetitions and prints the per-layer
metrics of bench/spans.py (medians over the traced ones) and
trace_overhead_s, the traced minus the untraced mean wall time.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# workloads and metrics (names and units) are declared once, in BENCHMARK.json
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in DECLARED["workloads"])
MIN_REPS = 3
MIN_TRACED = 2
STOP_LAUNCHING_S = 120  # no new repetition after this, whatever --seconds says
REP_TIMEOUT_S = 50


class WorkerFailed(Exception):
    """A repetition that crashed, timed out or printed no result."""


def spawn(workload: str, seed: int, *flags: str) -> dict:
    """Run one repetition in a fresh, single-threaded interpreter."""
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    launch = time.monotonic()
    cmd = [sys.executable, str(BENCH / "worker.py"), repr(launch),
           "--workload", workload, "--seed", str(seed), *flags]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"worker ran past {REP_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise WorkerFailed(f"worker printed no result: {proc.stdout.strip()[-200:]}") from None


def tally(reps: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, notes) against the checked first repetition.

    An operation fails if it raised, if a check found a problem with its
    result, or if its result differs from the checked one.
    """
    ref = reps[0]
    failed = 0
    notes = []
    for k, rep in enumerate(reps):
        for i, (err, dig) in enumerate(zip(rep["errors"], rep["digests"])):
            problems = ref["problems"][i] if k == 0 else []
            if err is not None:
                failed += 1
                notes.append(f"rep {k} op {i} raised {err}")
            elif problems or dig != ref["digests"][i]:
                failed += 1
                notes.append(f"rep {k} op {i}: " + ("; ".join(problems) or "result differs from rep 0"))
    attempted = sum(len(rep["errors"]) for rep in reps)
    return attempted, failed, notes


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(reps: list[dict], units: dict) -> dict:
    med = statistics.median
    values = {
        # the mean counts every repetition of the run, as op_p50_ms counts every
        # operation; on a machine whose speed drifts it spreads less than a median
        "wall_s": statistics.mean(r["wall_s"] for r in reps),
        "setup_s": med(r["setup_s"] for r in reps),
        "op_p50_ms": med(t for r in reps for t in r["op_s"]) * 1e3,
        "peak_rss_mb": med(r["peak_rss_mb"] for r in reps),
    }
    return {name: metric(values[name], unit) for name, unit in units.items()}


def per_layer(untraced: list[dict], traced: list[dict], units: dict) -> dict:
    med = statistics.median
    values = {name: med(r["layers"][name] for r in traced) for name in traced[0]["layers"]}
    mean = statistics.mean
    values["trace_overhead_s"] = mean(r["wall_s"] for r in traced) - mean(r["wall_s"] for r in untraced)
    return {name: metric(values[name], unit) for name, unit in units.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "azw" / "__init__.py").is_file():
        print(f"error: no azw sources at {ROOT / 'src' / 'azw'}", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in DECLARED["per_layer" if args.trace else "end_to_end"]}

    start = time.monotonic()
    deadline = start + args.seconds

    def more(count: int, minimum: int) -> bool:
        now = time.monotonic()
        return now < start + STOP_LAUNCHING_S and (count < minimum or now < deadline)

    untraced: list[dict] = []
    traced: list[dict] = []
    try:
        spawn(args.workload, args.seed, "--warmup")  # byte-compile once, untimed
        untraced.append(spawn(args.workload, args.seed, "--check"))
        if args.trace:
            while more(len(traced), MIN_TRACED):
                traced.append(spawn(args.workload, args.seed, "--trace"))
                untraced.append(spawn(args.workload, args.seed))
        else:
            while more(len(untraced), MIN_REPS):
                untraced.append(spawn(args.workload, args.seed))
    except WorkerFailed as exc:
        # no metrics without whole repetitions; the crashed one counts as one failed operation
        print(f"{args.workload} seed {args.seed}: {exc}", file=sys.stderr)
        attempted, failed, _ = tally(untraced + traced) if untraced else (0, 0, [])
        print(json.dumps({"correct": False, "attempted": attempted + 1, "failed": failed + 1,
                          "metrics": {}}))
        return 0

    attempted, failed, notes = tally(untraced + traced)
    for note in notes[:20]:
        print(note, file=sys.stderr)
    metrics = per_layer(untraced, traced, units) if args.trace else end_to_end(untraced, units)
    walls = " ".join(f"{r['wall_s']:.3f}" for r in untraced)
    print(f"{args.workload} seed {args.seed}: {len(untraced)} untraced and {len(traced)} traced "
          f"repetitions in {time.monotonic() - start:.1f} s; untraced wall_s {walls}")
    # correct only if every operation of every repetition gave a checked result
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

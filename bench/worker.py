"""One repetition of one workload, in a fresh interpreter.

    python3 bench/worker.py LAUNCH --workload NAME --seed N [--check] [--trace]
                            [--plant FAULT]

LAUNCH is the `time.monotonic()` reading taken by the parent just before it
started this process, so `setup_s` spans interpreter start-up and
`import azw`.  azw is imported from the `src/` directory next to `bench/`
and nowhere else.  Prints one JSON object: setup and wall time, the time of
each operation, peak resident memory, a digest of each operation's result,
and, with --check, the problems the independent checks found per operation.
With --trace it adds the per-layer metrics and writes the spans to
.bench_build/spans/WORKLOAD-SEED.npz.
"""

import sys
import time

LAUNCH = float(sys.argv[1])

from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import azw  # noqa: E402

READY = time.monotonic()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import workloads  # noqa: E402
from checks import CHECKS  # noqa: E402


def digest(plain) -> str:
    return hashlib.sha1(json.dumps(plain, sort_keys=True).encode()).hexdigest()[:16]


def check_one(workload: str, spec: dict, plain) -> list[str]:
    try:
        return CHECKS[workload](spec, plain)
    except Exception as exc:
        return [f"check raised {type(exc).__name__}: {exc}"]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("launch", type=float)
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--check", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--plant", default=None)
    ap.add_argument("--warmup", action="store_true", help="import everything, then exit")
    args = ap.parse_args()
    if Path(azw.__file__).resolve().parent != SRC / "azw":
        print(f"azw imported from {azw.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.warmup:
        import plants  # noqa: F401
        import spans  # noqa: F401

        print("{}")
        return 0

    ops = workloads.make_ops(args.workload, args.seed)
    if args.plant:
        import plants

        plants.install(args.plant)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    raws, errors, op_s = [], [], []
    clock = time.perf_counter
    t_first = clock()
    for op in ops:
        t0 = clock()
        try:
            raws.append(op.run())
            errors.append(None)
        except Exception as exc:  # an operation that raises counts as failed
            raws.append(None)
            errors.append(f"{type(exc).__name__}: {exc}")
        op_s.append(clock() - t0)
    wall_s = clock() - t_first
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()

    plains = []
    for i, (op, raw) in enumerate(zip(ops, raws)):
        try:
            plains.append(None if errors[i] else op.plain(raw))
        except Exception as exc:  # a result of a shape the benchmark cannot read fails too
            plains.append(None)
            errors[i] = f"reading the result: {type(exc).__name__}: {exc}"
    out = {
        "setup_s": READY - LAUNCH,
        "wall_s": wall_s,
        "op_s": op_s,
        "peak_rss_mb": peak_rss_mb,
        "errors": errors,
        "digests": [None if p is None else digest(p) for p in plains],
    }
    if args.check:
        out["problems"] = [[] if p is None else check_one(args.workload, op.spec, p)
                           for op, p in zip(ops, plains)]
    if tracer is not None:
        out["layers"] = tracer.metrics()
        tracer.save(ROOT / ".bench_build" / "spans" / f"{args.workload}-{args.seed}.npz")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Reference figures recorded in bench/README.md.

    python3 bench/reference.py

Prints the machine (core count, Python and numpy versions), the git commit if
the checkout is a git repository, the `src/` line count, the wall time of
each `azw repro --criterion N` in its own fresh process, and the Tier-1 suite
time (ROADMAP's Tier-1 command).  Criterion 4 exits 1 by design; its time is
recorded all the same.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CRITERIA = range(1, 12)


def timed(cmd: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    return time.monotonic() - t0, proc


def main() -> int:
    import numpy

    sha = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True).stdout.strip()
    lines = sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))
    print(f"cores {os.cpu_count()}, Python {platform.python_version()}, numpy {numpy.__version__}, "
          f"git {sha or 'n/a'}, src/ lines {lines}")
    for n in CRITERIA:
        wall, proc = timed([sys.executable, "-m", "azw.cli", "repro", "--criterion", str(n)])
        line = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else proc.stderr.strip()[-200:]
        print(f"criterion {n:02d}: {wall:6.2f} s wall, exit {proc.returncode}: {line[:100]}")
    wall, proc = timed([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"])
    print(f"Tier-1 suite: {wall:.1f} s wall: {proc.stdout.strip().splitlines()[-1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Reference figures for the benchmark README; not metrics.

Usage, from the repository root:

    python3 bench/reference.py

Prints two markdown tables:

* cold-process CLI time: ``python3 -m angleset sigma --graph E8`` in a fresh
  interpreter, next to a bare interpreter and one that only imports numpy;
* the eigensolve: angleset's ``eigen_symmetric`` against
  ``np.linalg.eigvalsh`` on the adjacency matrix of a seeded random graph
  (edge probability 0.3) for n in 8, 20, 50, 100, 200.

Each figure is the median of several runs; BLAS runs on one thread.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import random  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from angleset import eigen_symmetric  # noqa: E402

COLD_RUNS = 10
SIZES = ((8, 50), (20, 20), (50, 5), (100, 3), (200, 1))


def median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def cold_cli() -> None:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    commands = {
        "python3 -c pass": [sys.executable, "-c", "pass"],
        "python3 -c 'import numpy'": [sys.executable, "-c", "import numpy"],
        "python3 -m angleset sigma --graph E8":
            [sys.executable, "-m", "angleset", "sigma", "--graph", "E8"],
    }
    print("| command | median wall time |")
    print("|---|---|")
    for label, cmd in commands.items():
        t = median_time(lambda: subprocess.run(cmd, env=env, cwd=ROOT, check=True,
                                               capture_output=True), COLD_RUNS)
        print(f"| `{label}` | {1000 * t:.0f} ms |")


def eigensolve() -> None:
    rng = random.Random(0)
    print("| n | `eigen_symmetric` | `np.linalg.eigvalsh` | ratio |")
    print("|---|---|---|---|")
    for n, repeats in SIZES:
        a = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.3:
                    a[i, j] = a[j, i] = 1.0
        jac = median_time(lambda: eigen_symmetric(a), repeats)
        lap = median_time(lambda: np.linalg.eigvalsh(a), max(repeats, 20))
        print(f"| {n} | {1000 * jac:.3g} ms | {1000 * lap:.3g} ms | {jac / lap:.0f}x |")


if __name__ == "__main__":
    cold_cli()
    print()
    eigensolve()

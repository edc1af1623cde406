#!/usr/bin/env python3
"""Run two sets of benchmark runs of the same code and check that they agree.

Usage, from the repository root:

    python3 bench/compare.py
    python3 bench/compare.py --seed 401

Each set runs ``bench/run.py`` ten times, once per seed, on every workload of
``BENCHMARK.json``, with its ``run_seconds``; the second set uses the next ten
seeds after the first. For every workload and end-to-end metric it prints
each set's median and quartiles (``statistics.quantiles(values, n=4)``) and
whether

* each set's spread, (q3 - q1) / median, is within the metric's bound,
* the two medians differ, either way, by no more than the bound,
* both sets fail the same share of operations.

Exit code 0 when every check holds. A summary goes to
``bench/results/compare-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def worse_by(first: float, second: float, better: str) -> float:
    """Relative change of ``second`` against ``first``, positive when worse."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1, help="first seed of the first set")
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]

    results: dict[str, list[list[dict]]] = {w: [[], []] for w in names}
    for s in range(2):
        for w in names:
            for i in range(RUNS):
                seed = args.seed + s * RUNS + i
                res = run_once(w, seed, seconds)
                results[w][s].append(res)
                print(f"set {s + 1} {w} seed {seed}: correct={res['correct']} "
                      f"attempted={res['attempted']} failed={res['failed']}", file=sys.stderr)

    ok = True
    summary = {}
    print(f"{'workload':18} {'metric':16} {'set1 q1/med/q3':>30} {'set2 q1/med/q3':>30} "
          f"{'spread1':>8} {'spread2':>8} {'drift':>7} {'bound':>6}  verdict")
    for w in names:
        sets = results[w]
        shares = [{Fraction(r["failed"], r["attempted"]) for r in runs} for runs in sets]
        all_correct = all(r["correct"] for runs in sets for r in runs)
        same_share = len(shares[0] | shares[1]) == 1
        summary[w] = {"correct": all_correct,
                      "failed_shares": [sorted(str(x) for x in share) for share in shares],
                      "metrics": {}}
        ok &= all_correct and same_share
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            stats = [summarize([r["metrics"][name]["value"] for r in runs]) for runs in sets]
            drift = worse_by(stats[0]["median"], stats[1]["median"], m["better"])
            good = all(st["spread"] <= bound for st in stats) and abs(drift) <= bound
            ok &= good
            summary[w]["metrics"][name] = {"sets": stats, "drift": drift, "bound": bound,
                                           "agree": good}
            cells = [f"{st['q1']:.4g}/{st['median']:.4g}/{st['q3']:.4g}" for st in stats]
            print(f"{w:18} {name:16} {cells[0]:>30} {cells[1]:>30} "
                  f"{stats[0]['spread']:8.3f} {stats[1]['spread']:8.3f} {drift:7.3f} "
                  f"{bound:6.2f}  {'agree' if good else 'DISAGREE'}")
        print(f"{w:18} correct={all_correct} failed share per set: "
              f"{summary[w]['failed_shares']} {'same' if same_share else 'DIFFERENT'}")

    out = HERE / "results" / f"compare-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"runs": RUNS, "seconds": seconds, "first_seed": args.seed,
                               "workloads": summary, "raw": results}, indent=2) + "\n")
    print(f"{'all agree' if ok else 'NOT all agree'}; summary in {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

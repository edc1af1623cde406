#!/usr/bin/env python3
"""Benchmark for angleset: one closed-loop caller, one thread, BLAS on one thread.

Usage, from the repository root:

    python3 bench/run.py --workload tree-scan --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run times whole rounds of the workload's operations
until ``--seconds`` have passed, and reports the end-to-end metrics of
``BENCHMARK.json``: latency percentiles over every operation of the run,
throughput as the median over rounds, and ``setup_s`` as the median of
several fresh imports of angleset from ``src/`` with the workload's inputs
built. Every time is scaled to a reference machine speed by a calibration
loop timed between operations (see ``calibration_loop``). With ``--trace 1`` it
times a fixed number of rounds, each once untraced and once with every
layer's public functions wrapped in spans, and reports the per-layer metrics
and the tracing overhead. Every output is checked; see ``workloads.py`` and
``README.md``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The same object, with a header
describing the machine, is written to ``bench/results/``.
"""

import os

# One BLAS thread, set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_REPEATS = 7
MAX_ERRORS_SHOWN = 5
# The calibration loop runs between operations at most every CAL_EVERY_S
# seconds. Timings are scaled by CAL_REF_S over the calibration time around
# them: CAL_REF_S is about the loop's fastest time on the machine the
# benchmark was built on (2 vCPUs), so scaled figures read as times on that
# machine when nothing else loads it.
CAL_EVERY_S = 0.02
CAL_REF_S = 3.5e-4
CAL_SETUP_SAMPLES = 5
CAL_N = 10
CAL_MATRIX = [[1.0 / (1 + i + j) for j in range(CAL_N)] for i in range(CAL_N)]
CAL_DENSE = np.linspace(0.0, 1.0, 96 * 96).reshape(96, 96)


def calibration_loop():
    """Fixed work of the two kinds angleset's time goes to, never calling it:
    two pure-Python Jacobi sweeps over a 10x10 list of lists, like
    ``eigen_symmetric``, and three numpy products of 96x96 matrices, like
    ``verify_configuration`` at the largest sizes."""
    a = [row[:] for row in CAL_MATRIX]
    for _ in range(2):
        for p in range(CAL_N):
            for q in range(p + 1, CAL_N):
                apq = a[p][q]
                theta = (a[q][q] - a[p][p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                for k in range(CAL_N):
                    akp, akq = a[k][p], a[k][q]
                    a[k][p], a[k][q] = c * akp - s * akq, s * akp + c * akq
                ap, aq = a[p], a[q]
                for k in range(CAL_N):
                    apk, aqk = ap[k], aq[k]
                    ap[k], aq[k] = c * apk - s * aqk, s * apk + c * aqk
    x = CAL_DENSE
    for _ in range(3):
        x = (x @ CAL_DENSE) * 0.01
    return a, x


def calibrate() -> float:
    t0 = time.perf_counter()
    calibration_loop()
    return time.perf_counter() - t0


def import_angleset():
    """Import angleset from ``src/`` afresh: drop every loaded angleset module
    first, so each set-up pays the package's own import again."""
    for name in [m for m in sys.modules if m == "angleset" or m.startswith("angleset.")]:
        del sys.modules[name]
    ag = importlib.import_module("angleset")
    if Path(ag.__file__).resolve().parent != (SRC / "angleset").resolve():
        raise RuntimeError(f"angleset imported from {ag.__file__}, not from {SRC}")
    return ag


class Tally:
    """Per-round latencies, per-round calibration times and the outcomes of
    the operations run so far."""

    def __init__(self):
        self.rounds: list[list[float]] = []
        self.calibrations: list[list[float]] = []
        self.failed = 0
        self.errors: list[str] = []

    @property
    def attempted(self) -> int:
        return sum(len(lat) for lat in self.rounds)

    def run_round(self, ops, tracer=None) -> None:
        perf = time.perf_counter
        latencies: list[float] = []
        calibrations: list[float] = []
        self.rounds.append(latencies)
        self.calibrations.append(calibrations)
        last_cal = -CAL_EVERY_S
        for op in ops:
            if perf() - last_cal >= CAL_EVERY_S:
                calibrations.append(calibrate())
                last_cal = perf()
            if tracer is not None:
                tracer.op = self.attempted
            t0 = perf()
            try:
                out = op.run()
            except Exception as exc:  # a crash is a wrong result, reported below
                out = exc
            latencies.append(perf() - t0)
            if isinstance(out, Exception):
                self.errors.append(f"{type(out).__name__}: {out}")
                continue
            try:
                self.failed += bool(op.check(out))
            except workloads.CheckError as exc:
                self.errors.append(str(exc))

    def scaled_rounds(self) -> list[list[float]]:
        """Each round's latencies scaled to the reference speed by the median
        calibration time within that round."""
        return [[t * CAL_REF_S / statistics.median(cals) for t in lat]
                for lat, cals in zip(self.rounds, self.calibrations)]


def setup(wl, workdir: Path) -> tuple[float, object, object]:
    """Import angleset and build the workload's inputs; the time is scaled to
    the reference speed by calibrations taken just before."""
    scale = CAL_REF_S / statistics.median(calibrate() for _ in range(CAL_SETUP_SAMPLES))
    t0 = time.perf_counter()
    ag = import_angleset()
    state = wl.build(ag, workdir)
    return (time.perf_counter() - t0) * scale, ag, state


def timed_run(wl, workdir: Path, seconds: float) -> tuple[Tally, dict]:
    first, ag, state = setup(wl, workdir)
    setups = [first]
    wl.prepare(state)
    tally = Tally()
    start = time.perf_counter()
    while True:
        tally.run_round(wl.round_ops(ag, state))
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and tally.attempted >= wl.min_ops
                and len(setups) == SETUP_REPEATS):
            break
        # Further set-ups are spread over the run, so that their median does
        # not hang on one spell of other load on the machine. Their results
        # are dropped; the rounds keep using the first one's.
        if len(setups) < SETUP_REPEATS and elapsed >= seconds * len(setups) / SETUP_REPEATS:
            setups.append(setup(wl, workdir)[0])
    # Other load on the machine slows it by up to half for seconds at a time,
    # and the calibration loop slows with it; timings scaled by the loop's
    # time in their round hold still through such spells. The latency
    # percentiles are taken over every scaled timing of the run, and
    # throughput is the median over rounds of a round's operations over its
    # scaled time.
    scaled = tally.scaled_rounds()
    deciles = statistics.quantiles([t for r in scaled for t in r], n=10)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": statistics.median(len(r) / sum(r) for r in scaled),
        "latency_p50_ms": 1000.0 * deciles[4],
        "latency_p90_ms": 1000.0 * deciles[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return tally, metrics


def traced_run(wl, workdir: Path, trace_path: Path) -> tuple[Tally, dict]:
    _, ag, state = setup(wl, workdir)
    wl.prepare(state)
    tracer = tracing.Tracer()
    with tracer.installed(wl):
        traced_state = wl.build(ag, workdir)
    # Untraced and traced rounds alternate, so that drift in the machine's
    # speed lands on both sides of the overhead figure alike.
    plain, traced = Tally(), Tally()
    for _ in range(wl.trace_rounds):
        plain.run_round(wl.round_ops(ag, state))
        with tracer.installed(wl):
            traced.run_round(wl.round_ops(ag, traced_state), tracer)
    metrics = tracer.layer_metrics()
    base = sum(map(sum, plain.rounds))
    metrics["trace.overhead_pct"] = 100.0 * (sum(map(sum, traced.rounds)) - base) / base
    tracer.write(trace_path)
    tally = Tally()
    tally.rounds = plain.rounds + traced.rounds
    tally.failed = plain.failed + traced.failed
    tally.errors = plain.errors + traced.errors
    return tally, metrics


def blas_info() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        name = f"{deps['blas']['name']} {deps['blas'].get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        name = "unknown"
    return {"name": name, "threads_env": os.environ["OPENBLAS_NUM_THREADS"]}


def header(args) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "angleset" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no angleset sources under {SRC} or no {spec_path.name}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    sys.path.insert(0, str(SRC))

    wl = workloads.WORKLOADS[args.workload](args.seed)
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{stem}-", dir=RESULTS))
    try:
        if args.trace:
            tally, values = traced_run(wl, workdir, RESULTS / f"{stem}.trace.jsonl")
        else:
            tally, values = timed_run(wl, workdir, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for err in tally.errors[:MAX_ERRORS_SHOWN]:
        print(f"check failed: {err}", file=sys.stderr)
    result = {
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    (RESULTS / f"{stem}.json").write_text(
        json.dumps({"header": header(args), "result": result}, indent=2) + "\n")
    for name, entry in result["metrics"].items():
        print(f"{name}: {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

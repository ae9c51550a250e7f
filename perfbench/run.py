"""Run one cuberips benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

The library is imported from ``src/`` beside this directory; without it the
run exits with status 2 and prints no result.  Each run is one
single-threaded process that answers its workload's queries in order, as a
closed loop: the next query starts when the previous one returns.  Passes
over the queries repeat for about ``--seconds`` seconds: a further pass
starts only if, at the mean pass length so far, it would end less than half
a pass after the deadline.  At least one pass always runs.  Every answer goes through the gate; a wrong answer, an
exception or a ``SizeBudgetExceeded`` is a failed operation.

``--trace 0`` reports the end-to-end metrics:

    setup_s       median over fresh interpreters of the time from process
                  start until ``import cuberips`` returns
    wall_s        median over passes of the time to answer and check every query
    peak_rss_mb   ru_maxrss of this process
    query_p50_ms  percentiles over the workload's queries of each query's
    query_p90_ms  median latency over passes

``wall_s`` and the query percentiles are in nominal seconds: raw seconds
times ``CAL_NOMINAL_S`` over the mean time of a fixed calibration loop (see
``Calibration``).  The loop runs before the set-up and between queries, for
``CAL_SHARE`` of the time since it last ran, at most every ``CAL_EVERY_S``
seconds, outside the timed spans.  A shared host's speed drifts by up to a
third for minutes at a time, and the loop slows down with it, so the scaled
times follow the program and not the host.  ``setup_s`` stays in raw seconds:
interpreter start-up and imports barely follow the loop.  The raw pass times
are printed before the result.

``--trace 1`` alternates traced and untraced passes, traced first, and
reports the per-layer metrics of the traced passes (see tracing.py) and
``bench.tracing_overhead_s``, traced minus untraced median pass time in raw
seconds.  The spans
are written to ``.perfbench/`` when the run ends.

``--workload all`` runs every workload in a fresh process and prints one
table of every metric with its unit.  The last line of standard output is
always the JSON result.
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

import numpy as np

from tracing import NULL, Tracer, combine_passes, max_rss_mb, pass_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
# The calibration loop's mean time on a 2-vCPU 2.1 GHz Xeon; a timing t from a
# run in which the loop took c seconds on average is reported as
# t * CAL_NOMINAL_S / c.
CAL_NOMINAL_S = 0.075
# The host's speed holds for a few tenths of a second at a time, so the
# calibration samples a share of the run spread over it, not a fixed count.
CAL_EVERY_S = 1.0
CAL_SHARE = 0.1


class Gate:
    """Checks every answer; counts attempted and failed operations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, query, tracer) -> None:
        self.attempted += 1
        try:
            checks = query.run(tracer)
        except Exception as exc:  # a failed operation, counted rather than fatal
            self._fail(f"{query.name}: {type(exc).__name__}: {exc}")
            return
        wrong = [f"{label}={got!r}, expected {want!r}" for label, got, want in checks if got != want]
        if wrong:
            self._fail(f"{query.name}: " + "; ".join(wrong))

    def _fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted


def percentile(values, q: float) -> float:
    """Linear interpolation between order statistics (numpy's default)."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def load_library():
    """Import cuberips from this checkout's src/, never from anywhere else."""
    if not (SRC / "cuberips" / "__init__.py").is_file():
        print(f"error: no cuberips sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import cuberips

    if Path(cuberips.__file__).resolve().parent != SRC / "cuberips":
        print(f"error: imported cuberips from {cuberips.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return cuberips


class Calibration:
    """Samples of the host's current speed: the time of a fixed loop of the
    kinds of work the library does, interpreter work on big-int masks and
    small tuples, and NumPy sorts, in about equal parts.  When the host slows,
    interpreter work slows more than in-cache NumPy work, and the workloads
    fall between the two.  The loop calls no cuberips code; only what a query
    leaves in the caches reaches it, through its first round after the query."""

    def __init__(self):
        self.samples: list[float] = []
        self.last = time.perf_counter()
        self.keys = np.random.default_rng(0).integers(0, 1 << 40, 300_000)

    def sample_if_due(self) -> None:
        since = time.perf_counter() - self.last
        if since >= CAL_EVERY_S:
            self.sample(CAL_SHARE * since)

    def sample(self, seconds: float) -> None:
        """Run the loop for about ``seconds``, at least once."""
        end = time.perf_counter() + seconds
        while not self.samples or time.perf_counter() < end:
            t0 = time.perf_counter()
            pairs = [((i * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFF, i | i << 40) for i in range(30000)]
            pairs.sort()
            acc = 0
            for mask, cand in pairs:
                acc ^= mask & -cand
            for _ in range(8):
                np.cumsum(np.sort(self.keys))
            self.samples.append(time.perf_counter() - t0)
        self.last = time.perf_counter()

    def to_nominal(self) -> float:
        """Factor from raw seconds of this run to nominal seconds."""
        return CAL_NOMINAL_S / statistics.fmean(self.samples)


def measure_setup() -> float:
    """Median time from process start until ``import cuberips`` returns.

    perf_counter is CLOCK_MONOTONIC on Linux, shared by parent and child, so
    the child's reading after the import minus the parent's before the spawn
    covers interpreter start-up and the import.
    """
    code = (
        f"import sys, time; sys.path.insert(0, {str(SRC)!r}); "
        "import cuberips; print(repr(time.perf_counter()))"
    )
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True
        )
        samples.append(float(done.stdout.split()[-1]) - t0)
    return statistics.median(samples)


def run_pass(queries, gate: Gate, tracer, between=None) -> tuple[float, list[float]]:
    """Answer and check every query once; returns (wall seconds, per-query seconds).

    ``between`` is called after each query; its time is not counted.
    """
    latencies = []
    paused = 0.0
    start = time.perf_counter()
    with tracer.span("bench.pass"):
        for index, query in enumerate(queries):
            t0 = time.perf_counter()
            with tracer.span("bench.query") as sp:
                sp.count("query_index", index)
                gate.check(query, tracer)
            t1 = time.perf_counter()
            latencies.append(t1 - t0)
            if between is not None:
                between()
                paused += time.perf_counter() - t1
    return time.perf_counter() - start - paused, latencies


def run_workload(name: str, queries, seed: int, seconds: float, trace: bool) -> dict:
    origin = time.perf_counter()
    cal = Calibration()
    cal.sample(0.15)
    setup_s = None if trace else measure_setup()
    gate = Gate()
    run_id = f"{name}-seed{seed}-pid{os.getpid()}"
    walls = {True: [], False: []}
    latencies = []
    tracers = []
    while True:
        n = len(walls[True]) + len(walls[False])
        traced = trace and n % 2 == 0
        tracer = Tracer(run_id, n, origin) if traced else NULL
        wall, lat = run_pass(queries, gate, tracer, cal.sample_if_due)
        walls[traced].append(wall)
        if traced:
            with tracer.span("bench.probes"):
                for query in queries:
                    if query.probe is not None:
                        query.probe(tracer)
            tracers.append(tracer)
        else:
            latencies.append(lat)
        elapsed = time.perf_counter() - origin
        enough = walls[False] and (walls[True] or not trace)
        # Stop unless another pass of mean length would end nearer to
        # `seconds` than stopping now does.
        if enough and elapsed + elapsed / (n + 1) / 2 > seconds:
            break

    if trace:
        metrics = combine_passes([pass_metrics(t) for t in tracers])
        metrics["bench.tracing_overhead_s"] = statistics.median(walls[True]) - statistics.median(
            walls[False]
        )
        units = metric_units("per_layer")
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        spans = [record for t in tracers for record in t.records()]
        (out_dir / f"trace-{name}-seed{seed}.json").write_text(json.dumps(spans))
    else:
        per_query = [statistics.median(q) for q in zip(*latencies)]
        to_nominal = cal.to_nominal()
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(walls[False]) * to_nominal,
            "peak_rss_mb": max_rss_mb(),
            "query_p50_ms": 1000 * percentile(per_query, 0.5) * to_nominal,
            "query_p90_ms": 1000 * percentile(per_query, 0.9) * to_nominal,
        }
        units = metric_units("end_to_end")
    for failure in gate.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(
        f"{name}: seed {seed}, {len(queries)} queries x {len(walls[False])} untraced"
        f" + {len(walls[True])} traced passes; error_rate {gate.error_rate}"
        f" ({gate.failed} failed of {gate.attempted} attempted)"
    )
    print("pass walls (raw s): untraced " + " ".join(f"{w:.3f}" for w in walls[False])
          + "; traced " + " ".join(f"{w:.3f}" for w in walls[True]))
    print(f"calibration: {len(cal.samples)} samples, mean {statistics.fmean(cal.samples):.5f} s"
          f" (nominal {CAL_NOMINAL_S} s)")
    return {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }


def run_all(names, seed: int, seconds: float, trace: int) -> tuple[dict, int]:
    """Every workload in its own fresh process, one table of metrics."""
    results, status = {}, 0
    for name in names:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            status = done.returncode
            continue
        *notes, last = done.stdout.strip().splitlines()
        results[name] = json.loads(last)
        print("\n".join(notes))
        result = results[name]
        print(f"  error_rate {result['failed'] / result['attempted']}"
              f" ({result['failed']}/{result['attempted']})")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:<28} {entry['value']:>16.6g} {entry['unit']}")
    return results, status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_library()
    from workloads import WORKLOADS

    if args.workload == "all":
        results, status = run_all(WORKLOADS, args.seed, args.seconds, args.trace)
        if status == 0:
            print(json.dumps(results))
        return status
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    queries = WORKLOADS[args.workload](args.seed)
    print(json.dumps(run_workload(args.workload, queries, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())

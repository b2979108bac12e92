#!/usr/bin/env python3
"""thermoflow benchmark.

One workload, as the benchmark contract runs it:

    python3 perfbench/run.py --workload lib-small --seed 1 --seconds 20 --trace 0

prints one line per metric, then a JSON object as the last line:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end ones, measured untraced; with --trace 1 they are the per-layer
ones from a traced run, beside untraced and traced ops_per_s (the tracing
overhead).

Every workload, on --seed and once on a held-out seed, with the traced run:

    python3 perfbench/run.py --suite --seed 1 --seconds 20

prints a table and writes .perfbench_out/suite.json. Run either from the root
of a source checkout; the benchmark imports thermoflow from its src/.
"""

from __future__ import annotations

import os

# One client in one process: keep numpy's BLAS from starting threads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

if not (SRC / "thermoflow" / "__init__.py").is_file():
    sys.exit(f"error: no thermoflow sources under {SRC}; run from a source checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
from spans import GROUP, LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, Checker, CheckFailed  # noqa: E402

COLD_RUNS = 3  # fresh interpreters per run; setup_s is their median
HELD_OUT_SEED = 7919  # never used while the benchmark was tuned
COLD_TIMEOUT_S = 120

CALLS = ("physics.stationary_flows", "compiler.encode")
COUNTS = {
    "physics.channels": "count/op",
    "compiler.modes": "count/op",
    "circuit.branches": "count/op",
    "circuit.netlist_bytes": "B/op",
    "cli.output_bytes": "B/op",
}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Tally:
    """Counts every op the run executes (set-up, cold, warm-up and timed)."""

    def __init__(self, checker):
        self.checker = checker
        self.attempted = 0
        self.failed = 0
        self.tightness = []

    def fail(self, op, message):
        self.failed += 1
        print(f"op {op.kind} failed: {message}", file=sys.stderr)

    def run(self, op, tracer=None):
        """Run and check one op; returns its latency in seconds and whether it passed."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = op.run(tracer)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            latency = time.perf_counter() - start
            self.fail(op, f"{type(exc).__name__}: {exc}")
            return latency, False
        latency = time.perf_counter() - start
        try:
            ratios = op.check(out, self.checker)
        except CheckFailed as exc:
            self.fail(op, str(exc))
            return latency, False
        if ratios is not None:
            self.tightness.append(ratios)
        return latency, True


def measure(stream, count, tally, samples, tracer=None):
    """Run `count` ops closed loop, appending (kind, latency, passed) to
    `samples`. Output checks run between ops and are not timed."""
    for _ in range(count):
        op = next(stream)
        if tracer is not None:
            tracer.op = len(samples)
        latency, ok = tally.run(op, tracer)
        samples.append((op.kind, latency, ok))


def rate(samples):
    """Checked ops per second of op time."""
    return sum(s[2] for s in samples) / sum(s[1] for s in samples)


def cold_start(op, workdir, tally):
    """Seconds from starting a fresh interpreter to the end of its first op."""
    spec = json.dumps(op.cold_spec(workdir))
    tally.attempted += 1
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "cold.py"), spec],
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=COLD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        tally.fail(op, f"cold start exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return None
    return float(proc.stdout.split()[-1]) - start


def run_workload(name, seed, seconds, trace):
    workload = WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        with Checker(child_env()) as checker:
            tally = Tally(checker)
            setup_ops, stream = workload.build(np.random.default_rng(seed), workdir)
            for op in setup_ops:
                tally.run(op)
            first = next(stream)
            cold = [] if trace else [cold_start(first, workdir, tally) for _ in range(COLD_RUNS)]
            stream = itertools.chain([first], stream)
            for _ in range(workload.warmup * workload.cycle):
                tally.run(next(stream))
            samples = []
            if not trace:
                while sum(s[1] for s in samples) < seconds:
                    measure(stream, workload.cycle, tally, samples)
                metrics = end_to_end(samples, cold, tally, workload.tail)
            else:
                # Alternate untraced and traced rounds, so both see the same mix
                # and the same drift; the difference is the tracing overhead.
                plain = []
                tracer = Tracer()
                while sum(s[1] for s in samples) < seconds / 2:
                    measure(stream, workload.cycle, tally, plain)
                    with tracer:
                        measure(stream, workload.cycle, tally, samples, tracer)
                metrics = per_layer(tracer, len(samples))
                metrics["tracing.untraced_ops_per_s"] = (rate(plain), "1/s")
                metrics["tracing.traced_ops_per_s"] = (rate(samples), "1/s")
                tracer.write(OUT / f"spans-{name}-seed{seed}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return tally, samples, metrics


def end_to_end(samples, cold, tally, tail):
    latencies = [s[1] for s in samples]
    ratios = np.concatenate(tally.tightness) if tally.tightness else np.array([np.nan])
    timed = [t for t in cold if t is not None]
    return {
        "ops_per_s": (rate(samples), "1/s"),
        "op_p50_s": (float(np.percentile(latencies, 50)), "s"),
        "op_tail_s": (float(np.percentile(latencies, tail)), "s"),
        "setup_s": (statistics.median(timed) if timed else math.nan, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "bound_tightness": (float(np.median(ratios)), "ratio"),
    }


def per_layer(tracer, ops):
    self_times, calls, counts = tracer.self_times(), tracer.calls(), tracer.counts
    names = dict.fromkeys(GROUP.values())  # span groups in TRACED order, once each
    metrics = {f"{g}.self_s": (self_times[g] / ops, "s/op") for g in names}
    metrics.update({f"{g}.calls": (calls[g] / ops, "count/op") for g in CALLS})
    metrics.update({name: (counts[name] / ops, unit) for name, unit in COUNTS.items()})
    groups = counts["compiler.groups"]
    degenerate = counts["compiler.degenerate_groups"] / groups if groups else 0.0
    metrics["compiler.degenerate_ratio"] = (degenerate, "ratio")
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = (counts[f"{layer}.errors"] / ops, "count/op")
    return metrics


def report(name, seed, tally, samples, metrics):
    """Print one line per metric, then the result object as the last line."""
    print(f"workload {name}, seed {seed}: {len(samples)} timed ops, "
          f"{tally.attempted} attempted in all, {tally.failed} failed")
    lines = dict(metrics)
    lines["failed_op_ratio"] = (tally.failed / tally.attempted, "ratio")
    for key, (value, unit) in lines.items():
        print(f"  {key:<36} {value:.6g} {unit}")
    if "op_tail_s" in metrics:
        beyond = sum(s[1] > metrics["op_tail_s"][0] for s in samples)
        print(f"  op_tail_s is p{WORKLOADS[name].tail}: {beyond} of {len(samples)} samples beyond it")
    kinds = {}
    for kind, latency, _ in samples:
        kinds.setdefault(kind, []).append(latency)
    for kind, latencies in kinds.items():
        print(f"  {kind:<16} {len(latencies):>6} ops, median {statistics.median(latencies):.4g} s")
    broken = sorted(k for k, (v, _) in metrics.items() if not math.isfinite(v))
    if broken:
        # JSON has no NaN or Infinity; such a run is reported as incorrect.
        print(f"non-finite metrics {broken} reported as 0", file=sys.stderr)
        metrics = {k: (v if math.isfinite(v) else 0.0, u) for k, (v, u) in metrics.items()}
    result = {
        "correct": tally.failed == 0 and not broken,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return result


def suite(seed, seconds):
    """Every workload untraced on `seed` and on the held-out seed, and traced."""
    runs = {}
    for name in WORKLOADS:
        for label, run_seed, trace in (
            ("untraced", seed, 0),
            ("traced", seed, 1),
            ("held-out", HELD_OUT_SEED, 0),
        ):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
                    "--seed", str(run_seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{name} {label}: exit {proc.returncode}", file=sys.stderr)
                return 1
            runs[f"{name}/{label}"] = dict(json.loads(proc.stdout.splitlines()[-1]),
                                           seed=run_seed)
            if label == "untraced":
                print(f"{name}: {WORKLOADS[name].why}")
                print("\n".join(proc.stdout.splitlines()[:-1]))
    print()
    header = f"{'metric':<20}{'unit':<7}" + "".join(f"{n:>22}" for n in WORKLOADS)
    for label in ("untraced", "held-out"):
        print(f"{label} runs")
        print(header)
        table = [runs[f"{name}/{label}"] for name in WORKLOADS]
        for metric, value in table[0]["metrics"].items():
            cells = "".join(f"{run['metrics'][metric]['value']:>22.6g}" for run in table)
            print(f"{metric:<20}{value['unit']:<7}{cells}")
        cells = "".join(f"{run['failed'] / run['attempted']:>22.6g}" for run in table)
        print(f"{'failed_op_ratio':<20}{'ratio':<7}{cells}")
    print("tracing overhead (untraced / traced ops_per_s)")
    for name in WORKLOADS:
        m = runs[f"{name}/traced"]["metrics"]
        u, t = m["tracing.untraced_ops_per_s"]["value"], m["tracing.traced_ops_per_s"]["value"]
        print(f"  {name:<12} {u:.4g} / {t:.4g} = {u / t:.3f}")
    OUT.mkdir(exist_ok=True)
    (OUT / "suite.json").write_text(json.dumps(runs, indent=1) + "\n")
    return 0 if all(r["failed"] == 0 for r in runs.values()) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--suite", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.suite:
        return suite(args.seed, args.seconds)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    report(args.workload, args.seed, *run_workload(args.workload, args.seed, args.seconds, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())

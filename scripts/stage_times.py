"""Time the pipeline's stages on seeded problems at fixed sizes.

For each size (16x16, 64x64, 256x256, 1024x256) and kind (`matvec`,
`signed_matvec`) this times, on a seeded problem:

- `encode`: `encode_matvec`, or `encode_signed_matvec` for both parts;
- `solve_spread`: the `_solve_spread` calls that encode makes, recorded from an
  untimed encode (one per multi-row part, or one for a signed product whose
  parts share it). Its records also hold `calls_per_solve` and
  `points_per_solve`: the spread predicate's calls and the deltas they
  evaluate, per solve, counted through `compiler._bose` in one untimed round;
- `stationary_flows`: `stationary_flows` of each part's device;
- `drain_readout`: the drain column the pipelines decode from, for each part:
  `drain_flows`, or on a tree without it (before it was added) the first
  column of `stationary_flows`, which the pipelines read there;
- `settling_time`: `settling_time` from empty modes at rel_tol 1e-6, as a run
  report gives it, summed over the parts;
- `run_matvec`: `run_matvec`, or `signed_matvec`, end to end.

`stationary_flows`, `drain_readout` and `settling_time` get a fresh copy of
each device on every call, made outside the timed region, so that the
occupancy table a device computes once is built inside each timed call. Each
stage runs once to warm up and then REPEATS times. `minflt_per_call` is the
mean count of minor page faults this process took inside a timed call
(`getrusage(RUSAGE_SELF).ru_minflt` around it). The output is a JSON list of
records `{stage, size, kind, median_s, iqr_s, minflt_per_call, commit}`, the
`solve_spread` ones with the two counts added.
Records already in --out under another commit are kept, so one file can hold a
parent and a change:

    python3 scripts/stage_times.py --src ../parent/src --commit <parent> --out BENCH.json
    python3 scripts/stage_times.py --out BENCH.json

Without --commit the commit is `git rev-parse --short HEAD` of the tree --src
lies in.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

SIZES = [(16, 16), (64, 64), (256, 256), (1024, 256)]
KINDS = ["matvec", "signed_matvec"]
REPEATS = 21


def _problem(kind: str, m: int, n: int, seed: int):
    """Seeded matrix and vector with about 10 % exact zeros in each."""
    rng = np.random.default_rng(seed)
    matrix = rng.uniform(-1.0 if kind == "signed_matvec" else 0.0, 1.0, (m, n))
    matrix[rng.random((m, n)) < 0.1] = 0.0
    matrix[np.abs(matrix).sum(axis=1) == 0.0, 0] = 0.5
    vector = rng.uniform(1e-6, 10.0, n)
    vector[rng.random(n) < 0.1] = 0.0
    return matrix, vector


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _times(fn, args=tuple):
    """Seconds of REPEATS calls fn(*args()) after one warm-up, and their mean
    count of minor page faults; args runs untimed."""
    fn(*args())
    out, faults = np.empty(REPEATS), 0
    for i in range(REPEATS):
        call_args = args()
        before = _minflt()
        start = time.perf_counter()
        fn(*call_args)
        out[i] = time.perf_counter() - start
        faults += _minflt() - before
    return out, faults / REPEATS


def _spread_counts(compiler, solve_spread, solves: int) -> dict:
    """Spread predicate calls and the deltas they evaluate, per solve, counted
    through compiler._bose: each call builds one (2, deltas, n) table."""
    bose, sizes = compiler._bose, []
    compiler._bose = lambda x: sizes.append(x.size // (2 * x.shape[-1])) or bose(x)
    try:
        solve_spread()
    finally:
        compiler._bose = bose
    return {
        "calls_per_solve": len(sizes) / solves,
        "points_per_solve": sum(sizes) / solves,
    }


def _stages(kind: str, matrix, vector):
    """{stage: (callable, untimed argument maker)} for one problem, and the
    spread solve's counts."""
    from thermoflow import compiler, dynamics, physics

    if kind == "matvec":
        encode = functools.partial(compiler.encode_matvec, matrix, vector)
        run = functools.partial(compiler.run_matvec, matrix, vector)
    else:
        encode = functools.partial(compiler.encode_signed_matvec, matrix, vector)
        run = functools.partial(compiler.signed_matvec, matrix, vector)
    solve, spreads = compiler._solve_spread, []
    compiler._solve_spread = lambda *args: spreads.append(args) or solve(*args)
    try:
        compiled = encode()
    finally:
        compiler._solve_spread = solve
    programs = [compiled] if kind == "matvec" else [p for _, _, p in compiled]

    def fresh_configs():
        return ([dataclasses.replace(p.config) for p in programs],)

    def solve_spread():
        for args in spreads:
            solve(*args)

    def stationary_flows(configs):
        for config in configs:
            physics.stationary_flows(config)

    def drain_flows(config):
        return physics.stationary_flows(config).per_channel[:, 0]

    def drain_readout(configs):
        for config in configs:
            getattr(physics, "drain_flows", drain_flows)(config)

    def settling_time(configs):
        for config in configs:
            dynamics.settling_time(config, np.zeros(config.n_modes), 1e-6)

    stages = {
        "encode": (encode, tuple),
        "solve_spread": (solve_spread, tuple),
        "stationary_flows": (stationary_flows, fresh_configs),
        "drain_readout": (drain_readout, fresh_configs),
        "settling_time": (settling_time, fresh_configs),
        "run_matvec": (run, tuple),
    }
    return stages, _spread_counts(compiler, solve_spread, len(spreads))


def _commit(src: str) -> str:
    proc = subprocess.run(
        ["git", "-C", src, "rev-parse", "--short", "HEAD"],
        capture_output=True,
        text=True,
        check=True,
    )
    return proc.stdout.strip()


def main() -> int:
    repo = Path(__file__).resolve().parents[1]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file to write or extend")
    parser.add_argument(
        "--src", default=str(repo / "src"), help="source tree of the thermoflow to time"
    )
    parser.add_argument("--commit", default=None, help="commit label of --src")
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    commit = args.commit or _commit(args.src)

    out = Path(args.out)
    records = json.loads(out.read_text()) if out.exists() else []
    records = [r for r in records if r["commit"] != commit]
    for seed, ((m, n), kind) in enumerate((s, k) for s in SIZES for k in KINDS):
        matrix, vector = _problem(kind, m, n, seed)
        stages, counts = _stages(kind, matrix, vector)
        for stage, (fn, args) in stages.items():
            times, faults = _times(fn, args)
            q25, median, q75 = np.percentile(times, [25, 50, 75])
            records.append(
                {
                    "stage": stage,
                    "size": f"{m}x{n}",
                    "kind": kind,
                    "median_s": float(median),
                    "iqr_s": float(q75 - q25),
                    "minflt_per_call": faults,
                    "commit": commit,
                    **(counts if stage == "solve_spread" else {}),
                }
            )
            print(
                f"{commit} {kind} {m}x{n} {stage}: {median:.6f} s, {faults:.0f} faults",
                file=sys.stderr,
            )
    out.write_text(json.dumps(records, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

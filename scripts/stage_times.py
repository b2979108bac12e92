"""Time the pipeline's stages on seeded problems at fixed sizes.

For each size (16x16, 64x64, 256x256, 1024x256) and kind (`matvec`,
`signed_matvec`) this times, on a seeded problem:

- `encode`: `encode_matvec`, or `encode_signed_matvec` for both parts;
- `solve_spread`: the `_solve_spread` calls that encode makes, recorded from an
  untimed encode (one per multi-row part, or one for a signed product whose
  parts share it). Its records also hold `calls_per_solve` and
  `points_per_solve`, counted through `compiler._bose` in one untimed round:
  the (2, points, n) occupancy tables a solve builds, and the points (deltas,
  or frequency factors on each side) they hold, per solve. A solve whose
  window finds the threshold builds two, the window and the certificate; the
  plain bisection, where it runs, adds 80 of one point each, and one more
  call for the deviation at its result;
- `stationary_flows`: `stationary_flows` of each part's device, which builds
  the occupancy table and then the occupancy pass, read from the table, for
  n_tilde;
- `drain_readout`: the drain column the pipelines decode from, for each part:
  `drain_flows`, or on a tree without it (before it was added) the first
  column of `stationary_flows`, which the pipelines read there;
- `settling_time`: `settling_time` from empty modes at rel_tol 1e-6, as a run
  report gives it, summed over the parts;
- `run_matvec`: `run_matvec`, or `signed_matvec`, end to end.

`stationary_flows`, `drain_readout` and `settling_time` get a fresh copy of
each device on every call, made outside the timed region, so that the
occupancy pass a device makes once (and, for `stationary_flows`, the
occupancy table before it) is built inside each timed call.

Each (size, kind) block runs in a child process of its own, ROUNDS times per
tree. With --against, the two trees alternate block by block, and which of
them goes first alternates too, so that load drift on the machine falls on
both alike. In each child every stage runs once to warm up and then REPEATS
times; median_s and iqr_s are taken over all rounds' calls.
`minflt_per_call` is the mean count of minor page faults the child took inside
a timed call (`getrusage(RUSAGE_SELF).ru_minflt` around it). The output is a
JSON list of records `{stage, size, kind, median_s, iqr_s, minflt_per_call,
rounds, commit}`, the `solve_spread` ones with the two counts added. Records
already in --out under other commits are kept:

    git clone -q . ../parent && git -C ../parent checkout -q <parent>
    python3 scripts/stage_times.py --against ../parent/src --out BENCH.json

A tree's commit label is `git describe --always --dirty` of the checkout its
source directory lies in (`--commit` sets the label of --src instead).
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
REPEATS = 11
ROUNDS = 7
BLOCKS = [(size, kind) for size in SIZES for kind in KINDS]


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
    """Occupancy tables a spread solve builds and the points they hold, per
    solve, counted through compiler._bose: each is one (2, points, n) table."""
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
        ["git", "-C", src, "describe", "--always", "--dirty", "--abbrev=7"],
        capture_output=True,
        text=True,
        check=True,
    )
    return proc.stdout.strip()


def _block_samples(index: int) -> dict:
    """{stage: {times, faults[, counts]}} of block BLOCKS[index], timed in this
    process on the thermoflow that sys.path finds first."""
    (m, n), kind = BLOCKS[index]
    matrix, vector = _problem(kind, m, n, index)
    stages, counts = _stages(kind, matrix, vector)
    samples = {}
    for stage, (fn, args) in stages.items():
        times, faults = _times(fn, args)
        samples[stage] = {"times": times.tolist(), "faults": faults}
        if stage == "solve_spread":
            samples[stage].update(counts)
    return samples


def _run_block(src: str, index: int) -> dict:
    """_block_samples of one block in a child process importing src."""
    proc = subprocess.run(
        [sys.executable, __file__, "--src", src, "--block", str(index)],
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout)


def main() -> int:
    repo = Path(__file__).resolve().parents[1]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="JSON file to write or extend")
    parser.add_argument(
        "--src", default=str(repo / "src"), help="source tree of the thermoflow to time"
    )
    parser.add_argument("--commit", default=None, help="commit label of --src")
    parser.add_argument("--against", default=None, help="a second source tree to time")
    parser.add_argument("--block", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.block is not None:  # a child: time one block, print its samples
        sys.path.insert(0, args.src)
        print(json.dumps(_block_samples(args.block)))
        return 0
    if args.out is None:
        parser.error("--out is required")
    trees = [(args.src, args.commit or _commit(args.src))]
    if args.against:
        trees.append((args.against, _commit(args.against)))

    pooled = {}  # (commit, block, stage) -> samples of every round
    for r in range(ROUNDS):
        for index, ((m, n), kind) in enumerate(BLOCKS):
            for src, commit in trees[:: 1 if (r + index) % 2 == 0 else -1]:
                for stage, sample in _run_block(src, index).items():
                    key = commit, index, stage
                    into = pooled.setdefault(key, {"times": [], "faults": []})
                    into["times"] += sample.pop("times")
                    into["faults"].append(sample.pop("faults"))
                    into.update(sample)
                print(f"round {r + 1}: {commit} {kind} {m}x{n}", file=sys.stderr)

    out = Path(args.out)
    records = json.loads(out.read_text()) if out.exists() else []
    records = [r for r in records if r["commit"] not in {c for _, c in trees}]
    for (commit, index, stage), sample in pooled.items():
        (m, n), kind = BLOCKS[index]
        q25, median, q75 = np.percentile(sample.pop("times"), [25, 50, 75])
        records.append(
            {
                "stage": stage,
                "size": f"{m}x{n}",
                "kind": kind,
                "median_s": float(median),
                "iqr_s": float(q75 - q25),
                "minflt_per_call": float(np.mean(sample.pop("faults"))),
                "rounds": ROUNDS,
                "commit": commit,
                **sample,
            }
        )
    out.write_text(json.dumps(records, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

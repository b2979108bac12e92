"""Time the pipeline's stages on seeded problems at fixed sizes.

For each size (16x16, 64x64, 256x256, 1024x256) and kind (`matvec`,
`signed_matvec`) this times, on a seeded problem:

- `encode`: `encode_matvec`, or `encode_signed_matvec` for both parts;
- `solve_spread`: the `_solve_spread` calls that encode makes, one per part;
- `stationary_flows`: `stationary_flows` of each part's device;
- `settling_time`: `settling_time` from empty modes at rel_tol 1e-6, as a run
  report gives it, summed over the parts;
- `run_matvec`: `run_matvec`, or `signed_matvec`, end to end.

`stationary_flows` and `settling_time` get a fresh copy of each device on
every call, made outside the timed region, so that the occupancy table a
device computes once is built inside each timed call. Each stage runs once to
warm up and then REPEATS times. The output is a JSON
list of records `{stage, size, kind, median_s, iqr_s, commit}`. Records already
in --out under another commit are kept, so one file can hold a parent and a
change:

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


def _times(fn, args=tuple) -> np.ndarray:
    """Seconds of REPEATS calls fn(*args()) after one warm-up; args runs untimed."""
    fn(*args())
    out = np.empty(REPEATS)
    for i in range(REPEATS):
        call_args = args()
        start = time.perf_counter()
        fn(*call_args)
        out[i] = time.perf_counter() - start
    return out


def _stages(kind: str, matrix, vector):
    """{stage: (callable, untimed argument maker)} for one problem."""
    from thermoflow import compiler, dynamics, physics

    if kind == "matvec":
        encode = functools.partial(compiler.encode_matvec, matrix, vector)
        run = functools.partial(compiler.run_matvec, matrix, vector)
        programs = [encode()]
    else:
        encode = functools.partial(compiler.encode_signed_matvec, matrix, vector)
        run = functools.partial(compiler.signed_matvec, matrix, vector)
        programs = [program for _, _, program in encode()]
    tol = compiler.EncodeSettings.group_tol
    spreads = [
        (g.base_frequency, p.config.temperatures, tol)
        for p in programs
        for g in p.groups
        if len(g.mode_indices) > 1
    ]

    def fresh_configs():
        return ([dataclasses.replace(p.config) for p in programs],)

    def solve_spread():
        for args in spreads:
            compiler._solve_spread(*args)

    def stationary_flows(configs):
        for config in configs:
            physics.stationary_flows(config)

    def settling_time(configs):
        for config in configs:
            dynamics.settling_time(config, np.zeros(config.n_modes), 1e-6)

    return {
        "encode": (encode, tuple),
        "solve_spread": (solve_spread, tuple),
        "stationary_flows": (stationary_flows, fresh_configs),
        "settling_time": (settling_time, fresh_configs),
        "run_matvec": (run, tuple),
    }


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
        for stage, (fn, args) in _stages(kind, matrix, vector).items():
            times = _times(fn, args)
            q25, median, q75 = np.percentile(times, [25, 50, 75])
            records.append(
                {
                    "stage": stage,
                    "size": f"{m}x{n}",
                    "kind": kind,
                    "median_s": float(median),
                    "iqr_s": float(q75 - q25),
                    "commit": commit,
                }
            )
            print(f"{commit} {kind} {m}x{n} {stage}: {median:.6f} s", file=sys.stderr)
    out.write_text(json.dumps(records, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Write the CLI's output for a fixed, seeded set of problem files.

For every problem file and command this writes `<case>/<command>.out`, `.err`
and `.code` (stdout, stderr and exit code) under --out. Running it on two
checkouts and comparing the trees with `diff -r` shows every byte a change
moved:

    python3 scripts/cli_outputs.py --out /tmp/after
    python3 scripts/cli_outputs.py --src ../parent/src --out /tmp/before
    diff -r /tmp/before /tmp/after

Commands: `compile`, `run --oracle --no-timing`, `run --no-timing` on the
compiled document, `circuit` under the max, `fixed:20.0` and grouped policies,
and `transient --samples 40`. Problems: scalar, matvec and signed, small and
256x256, with and without settings overrides, a matvec compiled with a group
tolerance ten times below the one `circuit` checks (its grouped netlist, like
those of the default-settings scalar and matvec cases, exists and has only
passthrough branches with zero series resistors), a raw config, one at
equilibrium (every reservoir at T_FLOOR, so its entropy rate is -0.0), valid inputs
whose intermediates are not finite (a zero entry floored below the occupancy
flush, an occupancy or an entropy rate that overflows), a matvec at base
frequency 1e300 (`compile` exits 0, `run`, `circuit` and `transient` exit 4),
a compiled matvec whose group lists its modes in reverse (it reports what the
document as compiled does), and invalid inputs (non-finite numbers, an
overflowing base frequency, a total_rate that makes the drain couplings
subnormal, compiled documents with mistyped fields, an unknown kind, a
multi-mode scalar, a drain_ratio, row_dots, max_occupancy_dev, spread or
input_occupancies (scaled with the row_dots) that disagrees with the device,
an occupancy_floor that is not positive or is subnormal,
raw configs with a non-finite field, the drain at index 1, flows that overflow
or crossbar conductances that underflow). The case
`other-commands` runs `validate`, the `transient` sweep, a `run` whose --output
lies in a missing directory, and one command for each flag that a command does
not take, which argparse refuses with exit 2.
Each command runs in its own interpreter, so exit codes and stderr are those a
shell sees.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

COMMANDS = {
    "compile": ["compile"],
    "run": ["run", "--oracle", "--no-timing"],
    "circuit-max": ["circuit", "--policy", "max"],
    "circuit-fixed": ["circuit", "--policy", "fixed:20.0"],
    "circuit-grouped": ["circuit", "--policy", "grouped"],
    "transient": ["transient", "--samples", "40"],
}

# Commands of the other-commands case; problem.json there is a small matvec.
OTHER_COMMANDS = {
    "validate": ["validate", "--cases", "200", "--seed", "7"],
    "transient-sweep": ["transient", "--sweep-n", "2..64"],
    "run-output-missing-dir": ["run", "problem.json", "--output", "nodir/report.json"],
    "compile-oracle": ["compile", "problem.json", "--oracle"],
    "circuit-format": ["circuit", "problem.json", "--format", "spice"],
    "circuit-no-timing": ["circuit", "problem.json", "--no-timing"],
    "transient-seed": ["transient", "--sweep-n", "2..64", "--seed", "1"],
    "validate-output": ["validate", "--cases", "5", "--output", "validate.txt"],
}

SETTINGS = {"drain_ratio": 1e-3, "group_tol": 1e-2, "total_rate": 2.5}


def _problem(kind: str, m: int, n: int, seed: int, settings: bool) -> dict:
    """Seeded matrix and vector with about 10 % exact zeros in each."""
    rng = np.random.default_rng(seed)
    low = -1.0 if kind == "signed_matvec" else 0.0
    matrix = rng.uniform(low, 1.0, size=(m, n))
    matrix[rng.random((m, n)) < 0.1] = 0.0
    matrix[np.abs(matrix).sum(axis=1) == 0.0, 0] = 0.5
    vector = rng.uniform(1e-6, 10.0, size=n)
    vector[rng.random(n) < 0.1] = 0.0
    if kind == "scalar":
        doc = {"kind": kind, "a": np.abs(matrix[0]).tolist(), "b": vector.tolist()}
    else:
        doc = {"kind": kind, "matrix": matrix.tolist(), "vector": vector.tolist()}
    if settings:
        doc["settings"] = SETTINGS
    return doc


def _compiled(problem: dict, edit) -> dict:
    """A compiled matvec document with one field changed by edit."""
    from thermoflow.cli import compile_problem

    doc = compile_problem(problem)
    edit(doc)
    return doc


def problems() -> dict:
    cases = {}
    for kind, name in (("scalar", "scalar"), ("matvec", "matvec"), ("signed_matvec", "signed")):
        for size, (m, n) in (("small", (5, 4)), ("256", (256, 256))):
            if kind == "scalar" and size == "256":
                m = 1
            for settings in (False, True):
                case = f"{name}-{size}" + ("-settings" if settings else "")
                cases[case] = _problem(kind, m, n, len(cases), settings)
    cases["matvec-grouped"] = dict(
        _problem("matvec", 16, 16, len(cases), False), settings={"group_tol": 1e-4}
    )
    cases["raw-config"] = {
        "kind": "raw_config",
        "modes": [{"frequency": 1.0}, {"frequency": 2.0}],
        "reservoirs": [
            {"temperature": 1e-9, "is_drain": True},
            {"temperature": 1.4426950408889634},
        ],
        "couplings": [[1.0, 1.0], [1.0, 2.0]],
    }
    cases["raw-config-equilibrium"] = {
        "kind": "raw_config",
        "modes": [{"frequency": 1.0}],
        "reservoirs": [{"temperature": 1e-9, "is_drain": True}, {"temperature": 1e-9}],
        "couplings": [[1.0, 1.0]],
    }
    small = _problem("matvec", 5, 4, 99, False)
    cases["invalid-nan-vector"] = {
        "kind": "matvec",
        "matrix": [[1, 2], [3, 4]],
        "vector": [float("nan"), 1],
    }
    cases["invalid-inf-matrix"] = {
        "kind": "matvec",
        "matrix": [[1, float("inf")], [3, 4]],
        "vector": [1, 2],
    }
    cases["invalid-nan-b"] = {"kind": "scalar", "a": [1.0], "b": [float("nan")]}
    cases["invalid-huge-base-frequency"] = dict(small, settings={"base_frequency": 1e308})
    # compiles (the drain column of the occupancy table overflows and is flushed
    # to 0), but run, circuit and transient check the device's extreme w/T
    # before they read the table, and refuse that overflow
    cases["overflowing-drain-column"] = dict(small, settings={"base_frequency": 1e300})
    cases["reversed-mode-indices"] = _compiled(
        small, lambda d: d["groups"][0]["mode_indices"].reverse()
    )
    cases["invalid-subnormal-drain-coupling"] = dict(small, settings={"total_rate": 1e-309})
    cases["invalid-spread-null"] = _compiled(
        small, lambda d: d["groups"][0].update(spread=None)
    )
    cases["invalid-frequency-string"] = _compiled(
        small, lambda d: d["config"]["modes"][0].update(frequency="x")
    )
    cases["invalid-couplings-string"] = _compiled(
        small, lambda d: d["config"].update(couplings=[["x"] * 5] * 5)
    )
    cases["invalid-kind"] = _compiled(small, lambda d: d.update(kind="banana"))
    cases["invalid-multi-mode-scalar"] = _compiled(
        small, lambda d: d.update(kind="scalar")
    )
    cases["invalid-drain-ratio-off-device"] = _compiled(
        small, lambda d: d.update(drain_ratio=1e-12)
    )
    cases["invalid-row-dots-off-device"] = _compiled(
        small, lambda d: d.update(row_dots=[x * 1e-6 for x in d["row_dots"]])
    )
    cases["invalid-max-occupancy-dev-off-device"] = _compiled(
        small, lambda d: d["groups"][0].update(max_occupancy_dev=0.0)
    )
    cases["invalid-input-occupancies-off-device"] = _compiled(small, _scale_input_occupancies)
    # a recorded occupancy_floor that EncodeSettings refuses, and a spread that
    # the group's frequencies do not have, on a matvec with zero inputs
    floored = {
        "kind": "matvec",
        "matrix": [[0.5, 0.5, 1.0], [0.2, 0.8, 0.1]],
        "vector": [0, 0, 2],
        "settings": {"group_tol": 1e-2},
    }
    floors = (("negative", -10.0), ("zero", 0.0), ("small-negative", -1e-3), ("subnormal", 1e-310))
    for name, floor in floors:
        cases[f"invalid-occupancy-floor-{name}"] = _compiled(
            floored, lambda d, floor=floor: d.update(occupancy_floor=floor)
        )
    cases["invalid-spread-off-device"] = _compiled(
        floored, lambda d: d["groups"][0].update(spread=0.5)
    )
    raw = cases["raw-config"]
    cases["invalid-nan-frequency"] = _edited(
        raw, lambda d: d["modes"][0].update(frequency=float("nan"))
    )
    cases["invalid-inf-temperature"] = _edited(
        raw, lambda d: d["reservoirs"][1].update(temperature=float("inf"))
    )
    cases["invalid-drain-at-1"] = _edited(raw, lambda d: d["reservoirs"].reverse())
    cases["invalid-overflowing-flows"] = {
        "kind": "raw_config",
        "modes": [{"frequency": 1e200}, {"frequency": 2e200}],
        "reservoirs": [
            {"temperature": 1e-9, "is_drain": True},
            {"temperature": 1e201},
            {"temperature": 3e200},
        ],
        "couplings": [[1e200, 1e200, 2e200], [1e200, 3e200, 1e200]],
    }
    # valid inputs whose non-finite intermediates the commands handle: a base
    # occupancy flushed to 0, an occupancy and an entropy rate that overflow
    cases["flushed-base-occupancy"] = {
        "kind": "matvec",
        "matrix": [[1, 1], [1, 1]],
        "vector": [0, 1],
        "settings": {"occupancy_floor": 1e-305},
    }
    cases["overflowing-occupancy"] = {
        "kind": "matvec",
        "matrix": [[1.0], [7.0], [1.1]],
        "vector": [3.07e307],
    }
    cases["overflowing-entropy-rate"] = {
        "kind": "matvec",
        "matrix": [[0.15], [1.0]],
        "vector": [2.34e304],
    }
    cases["invalid-underflowing-conductance"] = {
        "kind": "raw_config",
        "modes": [{"frequency": 1e-200}],
        "reservoirs": [{"temperature": 1e-9, "is_drain": True}, {"temperature": 1.0}],
        "couplings": [[1e-200, 1e-200]],
    }
    return cases


def _scale_input_occupancies(doc: dict):
    """Scale a compiled matvec's input_occupancies and, so that they still agree
    with each other, its row_dots by 1e-3."""
    group = doc["groups"][0]
    group["input_occupancies"] = [x * 1e-3 for x in group["input_occupancies"]]
    doc["row_dots"] = [x * 1e-3 for x in doc["row_dots"]]


def _edited(doc: dict, edit) -> dict:
    """A deep copy of doc with one field changed by edit."""
    doc = json.loads(json.dumps(doc))
    edit(doc)
    return doc


def _run(argv: list, env: dict, out: Path, name: str) -> subprocess.CompletedProcess:
    """Run one command in out; file paths in its stderr read as <src>."""
    proc = subprocess.run(
        [sys.executable, "-m", "thermoflow.cli", *argv],
        env=env,
        cwd=out,
        capture_output=True,
        text=True,
        check=False,
    )
    (out / f"{name}.out").write_text(proc.stdout)
    (out / f"{name}.err").write_text(proc.stderr.replace(env["PYTHONPATH"], "<src>"))
    (out / f"{name}.code").write_text(f"{proc.returncode}\n")
    return proc


def main() -> int:
    repo = Path(__file__).resolve().parents[1]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="directory for the output tree")
    parser.add_argument(
        "--src", default=str(repo / "src"), help="source tree of the thermoflow to run"
    )
    args = parser.parse_args()
    sys.path.insert(0, args.src)  # the invalid compiled documents are made with it
    src = str(Path(args.src).resolve())
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    env.pop("THERMOFLOW_LOG", None)
    root = Path(args.out)
    for case, doc in problems().items():
        out = root / case
        out.mkdir(parents=True, exist_ok=True)
        problem = out / "problem.json"
        problem.write_text(json.dumps(doc))
        for name, argv in COMMANDS.items():
            proc = _run([*argv, problem.name], env, out, name)
            if name == "compile" and proc.returncode == 0:
                compiled = out / "compiled.json"
                compiled.write_text(proc.stdout)
                _run(["run", "--no-timing", compiled.name], env, out, "run-compiled")
        print(case, file=sys.stderr)
    out = root / "other-commands"
    out.mkdir(parents=True, exist_ok=True)
    (out / "problem.json").write_text(json.dumps(_problem("matvec", 5, 4, 99, False)))
    for name, argv in OTHER_COMMANDS.items():
        _run(argv, env, out, name)
    print(out.name, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: seeded input streams, the ops they run and the
checks on every op's output.

Every workload is one closed-loop client in one process: the next op starts
when the previous one and its output check have finished. Inputs come only
from the seed; the program sees the generated arrays and files.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from thermoflow import cli, compiler

ZERO_SHARE = 0.1  # share of exact zeros in generated matrices and vectors
B_MAX = 10.0  # inputs b lie in [1e-6, B_MAX], as in the accuracy acceptance test
FIXED_BAR = 2.0 * B_MAX  # fixed bar potential above every occupancy
TRANSIENT_SAMPLES = 1300  # sized so a transient op costs about one circuit op
RESIDUAL_MAX = 1e-12  # circuit-analogy residual every netlist export must meet
CLI_POOL = 2  # distinct documents per op kind, so outputs repeat for comparison


class CheckFailed(Exception):
    """An op's output failed its check."""


class Checker:
    """Client of checker.py in a child process; also compares repeated outputs.

    ask() raises CheckFailed when the child rejects the file, or when `key`
    names an input whose earlier output had other bytes.
    """

    def __init__(self, env):
        script = Path(__file__).with_name("checker.py")
        self._proc = subprocess.Popen(
            [sys.executable, str(script)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        self._digests = {}

    def ask(self, check, path, key=None, **extra):
        self._proc.stdin.write(json.dumps(dict(extra, check=check, path=path)) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("output checker exited")
        reply = json.loads(line)
        if "error" in reply:
            raise CheckFailed(f"{check} {path}: {reply['error']}")
        if key is not None:
            first = self._digests.setdefault(tuple(key), reply["sha"])
            if first != reply["sha"]:
                raise CheckFailed(f"output of {' '.join(key)} differs from its first run")
        return reply

    def close(self):
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        finally:
            if self._proc.poll() is None:
                self._proc.kill()
                self._proc.wait()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def matrix(rng, m, n, signed):
    a = rng.uniform(-1.0 if signed else 0.0, 1.0, (m, n))
    a[rng.random((m, n)) < ZERO_SHARE] = 0.0
    # The library rejects all-zero rows, so give each such row one entry.
    dead = np.flatnonzero(~a.any(axis=1))
    a[dead, rng.integers(0, n, dead.size)] = rng.uniform(0.05, 1.0, dead.size)
    return a


def vector(rng, n):
    b = rng.uniform(1e-6, B_MAX, n)
    b[rng.random(n) < ZERO_SHARE] = 0.0
    return b


def within_bound(values, bounds, expected):
    """Realized |error| per entry, or CheckFailed if any entry exceeds its bound."""
    values, bounds = np.asarray(values, float), np.asarray(bounds, float)
    if values.shape != expected.shape or bounds.shape != expected.shape:
        raise CheckFailed(f"output shape {values.shape} != {expected.shape}")
    err = np.abs(values - expected)
    if not (np.isfinite(values).all() and np.isfinite(bounds).all()):
        raise CheckFailed("non-finite decoded value or bound")
    if np.any(err > bounds):
        i = int(np.argmax(err - bounds))
        raise CheckFailed(f"entry {i}: |error| {err[i]:.3e} > bound {bounds[i]:.3e}")
    return err


def tightness(bounds, err):
    """Reported bound over realized |error|, per entry (inf where exact)."""
    with np.errstate(divide="ignore"):
        return np.asarray(bounds, float) / err


@dataclass
class LibOp:
    """One library call, compiler.<fn>(a, b), checked against a @ b."""

    fn: str
    a: np.ndarray
    b: np.ndarray
    kind: str = ""

    def __post_init__(self):
        self.kind = self.kind or self.fn

    def run(self, tracer=None):
        return getattr(compiler, self.fn)(self.a, self.b)

    def check(self, result, checker):
        err = within_bound(result.values, result.error_bound, self.a @ self.b)
        return tightness(result.error_bound, err)

    def cold_spec(self, workdir):
        path = workdir / "cold.npz"
        np.savez(path, a=self.a, b=self.b)
        return {"lib": self.fn, "npz": str(path)}


@dataclass
class CliOp:
    """One in-process thermoflow command writing to `output`.

    expect is "report" (a run report, decoded within bound of `oracle`),
    "compiled" (a compiled program), "netlist" (crossbar export) or "trace"
    (transient CSV of `compiled`, whose settled readout must match `oracle`).
    """

    kind: str
    argv: list
    output: str
    expect: str
    oracle: np.ndarray | None = None
    compiled: str | None = None
    stderr: str = field(default="", repr=False)

    def run(self, tracer=None):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(self.argv)
        self.stderr = err.getvalue()
        if tracer is not None:
            with contextlib.suppress(OSError):
                tracer.counts["cli.output_bytes"] += os.path.getsize(self.output)
        return code

    def check(self, code, checker):
        if code != 0:
            raise CheckFailed(f"exit code {code}: {self.stderr.strip()}")
        if self.expect == "netlist":
            found = re.search(r"residual: (\S+)", self.stderr)
            if found is None or not float(found.group(1)) <= RESIDUAL_MAX:
                raise CheckFailed(f"circuit residual above {RESIDUAL_MAX}: {self.stderr!r}")
            checker.ask("netlist", self.output, key=self.argv)
            return None
        if self.expect == "trace":
            reply = checker.ask(
                "trace", self.output, compiled=self.compiled, samples=TRANSIENT_SAMPLES
            )
        else:
            reply = checker.ask("report", self.output, key=self.argv)
        if self.expect == "compiled":
            if reply.get("type") != "compiled_program":
                raise CheckFailed(f"compile wrote type {reply.get('type')!r}")
            return None
        with_oracle = "--oracle" in self.argv
        missing = {"decoded", "error_bounds", *(["oracle"] if with_oracle else [])} - set(reply)
        if missing:
            raise CheckFailed(f"report lacks {sorted(missing)}")
        decoded, bounds = reply["decoded"], reply["error_bounds"]
        if with_oracle:
            reported = np.asarray(reply["oracle"], float)
            if reported.shape != self.oracle.shape or not np.allclose(
                reported, self.oracle, rtol=1e-12, atol=0.0
            ):
                raise CheckFailed("report oracle disagrees with A @ b")
            within_bound(decoded, bounds, reported)
        return tightness(bounds, within_bound(decoded, bounds, self.oracle))

    def cold_spec(self, workdir):
        return {"cli": self.argv}


# --- workloads ------------------------------------------------------------------
#
# Each build function takes the seeded generator and a scratch directory and returns
# (set-up ops, op stream). Set-up ops are checked but not timed.


def _lib_small(rng, workdir):
    def stream():
        for i in itertools.count():
            m, n = (int(x) for x in rng.integers(1, 17, 2))
            fn = "signed_matvec" if i % 4 == 3 else "run_matvec"
            yield LibOp(fn, matrix(rng, m, n, fn == "signed_matvec"), vector(rng, n))

    return [], stream()


LARGE_MIX = (
    ("tall", "run_matvec", 1024, 256),
    ("wide", "run_matvec", 256, 1024),
    ("signed", "signed_matvec", 256, 256),
    ("wide", "run_matvec", 256, 1024),
    ("tall", "run_matvec", 1024, 256),
)


def _lib_large(rng, workdir):
    def stream():
        for kind, fn, m, n in itertools.cycle(LARGE_MIX):
            a = matrix(rng, m, n, fn == "signed_matvec")
            yield LibOp(fn, a, vector(rng, n), kind=kind)

    return [], stream()


def _problem(rng, workdir, name, kind):
    a = matrix(rng, 256, 256, kind == "signed_matvec")
    b = vector(rng, 256)
    path = workdir / f"{name}.json"
    path.write_text(json.dumps({"kind": kind, "matrix": a.tolist(), "vector": b.tolist()}))
    return str(path), a @ b


def _cli_run(rng, workdir):
    docs = [
        (
            _problem(rng, workdir, f"matvec{i}", "matvec"),
            _problem(rng, workdir, f"signed{i}", "signed_matvec"),
            str(workdir / f"compiled{i}.json"),
        )
        for i in range(CLI_POOL)
    ]
    out = str(workdir / "report.json")

    # compile (cheapest) and run-compiled take the lowest third of latencies, so
    # p50 and p75 fall inside the run --oracle ops, which cost about the same.
    def stream():
        for (mv, mv_oracle), (sg, sg_oracle), compiled in itertools.cycle(docs):
            run = ["--no-timing", "--output", out]
            oracle_runs = (
                CliOp("run-matvec", ["run", mv, "--oracle", *run], out, "report", mv_oracle),
                CliOp("run-signed", ["run", sg, "--oracle", *run], out, "report", sg_oracle),
            )
            yield from oracle_runs
            yield CliOp("compile", ["compile", mv, "--output", compiled], compiled, "compiled")
            yield CliOp("run-compiled", ["run", compiled, *run], out, "report", mv_oracle)
            yield from oracle_runs

    return [], stream()


def _cli_export(rng, workdir):
    docs = []
    setup = []
    for i in range(CLI_POOL):
        problem, oracle = _problem(rng, workdir, f"matvec{i}", "matvec")
        compiled = str(workdir / f"compiled{i}.json")
        docs.append((problem, oracle, compiled))
        setup.append(CliOp("compile", ["compile", problem, "--output", compiled], compiled,
                           "compiled"))
    netlist = str(workdir / "device.cir")
    trace = str(workdir / "trace.csv")
    fixed = f"fixed:{FIXED_BAR!r}"

    # Circuit ops are four in five, so p50 falls inside them whether a transient
    # op runs a little faster or slower than they do.
    def stream():
        for problem, oracle, compiled in itertools.cycle(docs):
            circuits = [
                CliOp(kind, ["circuit", problem, "--policy", policy, "--output", netlist],
                      netlist, "netlist")
                for kind, policy in (("circuit-max", "max"), ("circuit-fixed", fixed))
            ]
            yield from circuits
            argv = ["transient", compiled, "--samples", str(TRANSIENT_SAMPLES), "--output", trace]
            yield CliOp("transient", argv, trace, "trace", oracle, compiled)
            yield from circuits

    return setup, stream()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cycle: int  # ops in one round of the mix; runs measure whole rounds
    warmup: int  # untimed rounds before measuring, the cold op's round included
    # Percentile reported as op_tail_s: the highest with at least ten of the
    # ops a 20-second run completes beyond it. Fixed, so commits compare.
    tail: int
    build: Callable


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "lib-small",
            "run_matvec and signed_matvec (3:1) on m, n in [1, 16]: per-call overhead, "
            "mostly encode's spread solve, dominates",
            4,
            50,
            90,
            _lib_small,
        ),
        Workload(
            "lib-large",
            "the same calls on 1024x256, 256x1024 and signed 256x256: the compiler's per-row "
            "loop and physics over ~1e5 channels dominate",
            len(LARGE_MIX),
            3,
            90,
            _lib_large,
        ),
        Workload(
            "cli-run",
            "in-process run --oracle (matvec, signed), compile and run-from-compiled at 256x256: "
            "the JSON readers and writers dominate",
            6,
            1,
            75,
            _cli_run,
        ),
        Workload(
            "cli-export",
            "in-process circuit --policy max and fixed, and transient, at 256x256: "
            "crossbar build, netlist and CSV writers dominate",
            5,
            1,
            50,
            _cli_export,
        ),
    )
}

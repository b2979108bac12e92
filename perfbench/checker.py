"""Output checker for the CLI workloads, run as a child of the benchmark.

It reads one JSON request per line on stdin and answers one JSON line on
stdout. The checks parse multi-megabyte reports, netlists and traces; doing
that in a separate process keeps their memory out of the benchmark process's
peak RSS. Results are cached by the sha256 of the file, so a byte-identical
repeat of an output that already passed is not parsed again.

Requests:
  {"check": "report", "path": p}
      strict JSON (no NaN or Infinity); returns type, decoded, error_bounds
      and oracle where present.
  {"check": "netlist", "path": p}
      parse_netlist then format_netlist must give back the same bytes.
  {"check": "trace", "path": p, "compiled": c, "samples": s}
      CSV of s samples with one time, one occupancy per mode and one flow per
      reservoir column; returns the settled readout of the last sample,
      row_scale * (occupancy - drain occupancy), with the compiled program's
      error bounds.
Every reply carries "sha"; a failed check replies {"error": message}.
"""

from __future__ import annotations

import hashlib
import json
import sys

import numpy as np

from thermoflow import cli, compiler, physics
from thermoflow.circuit import format_netlist, parse_netlist


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def check_report(text, _request):
    doc = json.loads(text, parse_constant=_reject_constant)
    keys = ("type", "decoded", "error_bounds", "oracle")
    return {k: doc[k] for k in keys if k in doc}


def check_netlist(text, _request):
    if format_netlist(*parse_netlist(text)) != text:
        raise ValueError("netlist does not round-trip byte-identically")
    return {}


_programs = {}


def _program(path):
    if path not in _programs:
        with open(path) as fh:
            program = cli.program_from_dict(json.load(fh))
        _programs[path] = program
    return _programs[path]


def check_trace(text, request):
    program = _program(request["compiled"])
    k, n1 = program.config.n_modes, program.config.n_reservoirs
    lines = text.splitlines()
    if len(lines) != request["samples"] + 1:
        raise ValueError(f"trace has {len(lines)} lines, want {request['samples'] + 1}")
    bad = [i for i, line in enumerate(lines) if line.count(",") != k + n1]
    if bad:
        raise ValueError(f"trace line {bad[0]} does not have {1 + k + n1} columns")
    occ = np.array([float(x) for x in lines[-1].split(",")[1 : 1 + k]])
    drain = physics.bose_occupancy(program.config.frequencies, physics.T_FLOOR)
    return {
        "decoded": (program.row_scales * (occ - drain)).tolist(),
        "error_bounds": compiler.estimate_encoding_error(program).tolist(),
    }


CHECKS = {"report": check_report, "netlist": check_netlist, "trace": check_trace}


def main():
    cache = {}
    for line in sys.stdin:
        request = json.loads(line)
        try:
            with open(request["path"], "rb") as fh:
                data = fh.read()
            sha = hashlib.sha256(data).hexdigest()
            key = (request["check"], sha, request.get("compiled"))
            if key not in cache:
                cache[key] = CHECKS[request["check"]](data.decode(), request)
            reply = dict(cache[key], sha=sha)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            reply = {"error": f"{type(exc).__name__}: {exc}"}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()

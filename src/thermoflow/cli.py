"""Command-line front end: problem ingestion, pipeline orchestration, reports.

Subcommands: compile, run, transient, circuit, validate. All documents are
JSON (problem files, compiled programs, run reports); traces are CSV; netlists
use the circuit module's text grammar. Physical quantities in files are in
natural units (hbar = k_B = 1); only qfactor inputs are SI and namespaced.

Exit codes: 0 success, 2 input validation, 3 solvability/physics constraint,
4 internal numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import json
import logging
import math
import os
import sys
import time

import numpy as np

from thermoflow import compiler, dynamics, physics
from thermoflow.circuit import (
    SolvabilityError,
    build_crossbar,
    crossbar_currents,
    export_netlist,
)
from thermoflow.compiler import CompiledProgram, EncodeSettings, GroupSpec
from thermoflow.physics import ConfigError, DeviceConfig

SCHEMA_VERSION = 1

# Relative tolerance of a compiled program's drain_ratio, row_dots, and each
# group's frequency layout, input_occupancies and max_occupancy_dev against
# their values derived from its device, which differ from them by rounding only.
DERIVED_RTOL = 1e-12

# Absolute tolerance of a group's max_occupancy_dev on top: a relative deviation
# rounds on the scale of 1, not of itself. The bound reads it times the row dot
# d, next to the floating-point cushion's 1e-11 * (d + 1).
DEVIATION_ATOL = 1e-13

# Names of the two parts of a compiled signed program, keyed by their sign.
_PART_NAMES = {1.0: "plus", -1.0: "minus"}

log = logging.getLogger("thermoflow")

EXIT_VALIDATION = 2
EXIT_SOLVABILITY = 3
EXIT_NUMERICAL = 4


class InputError(ValueError):
    """Problem/compiled document failed schema validation."""


# --- document (de)serialization ----------------------------------------------


def config_to_dict(config: DeviceConfig) -> dict:
    modes = zip(config.frequencies.tolist(), config.group_ids.tolist())
    return {
        "modes": [{"frequency": w, "group_id": g} for w, g in modes],
        "reservoirs": [
            {"temperature": t, "is_drain": j == 0}
            for j, t in enumerate(config.temperatures.tolist())
        ],
        "couplings": [FloatRow(row) for row in config.couplings.tolist()],
    }


def config_from_dict(doc: dict) -> DeviceConfig:
    try:
        frequencies = [float(m["frequency"]) for m in doc["modes"]]
        group_ids = np.array([int(m.get("group_id", 1)) for m in doc["modes"]], dtype=int)
        temperatures = [float(r["temperature"]) for r in doc["reservoirs"]]
        drains = [bool(r.get("is_drain", False)) for r in doc["reservoirs"]]
        couplings = np.array(doc["couplings"], dtype=float)
    except KeyError as exc:
        raise InputError(f"raw config missing field: {exc.args[0]}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"raw config field of the wrong type: {exc}") from exc
    if [j for j, drain in enumerate(drains) if drain] != [0]:
        raise ConfigError("exactly one drain reservoir required, at index 0")
    return DeviceConfig(frequencies, temperatures, couplings, group_ids)


def program_to_dict(program: CompiledProgram) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "type": "compiled_program",
        "kind": program.kind,
        "config": config_to_dict(program.config),
        "groups": [
            {
                "group_id": g.group_id,
                "mode_indices": list(g.mode_indices),
                "base_frequency": g.base_frequency,
                "spread": g.spread,
                "max_occupancy_dev": g.max_occupancy_dev,
                "degenerate": g.degenerate,
                "input_occupancies": g.input_occupancies.tolist(),
            }
            for g in program.groups
        ],
        "drain_ratio": program.drain_ratio,
        "row_scales": program.row_scales.tolist(),
        "occupancy_floor": program.occupancy_floor,
        "target_shape": list(program.target_shape),
        "row_dots": program.row_dots.tolist(),
    }


def program_from_dict(doc: dict) -> CompiledProgram:
    try:
        config = doc["config"]
        groups = tuple(
            GroupSpec(
                group_id=int(g["group_id"]),
                mode_indices=_indices(g["mode_indices"], "mode_indices"),
                base_frequency=float(g["base_frequency"]),
                spread=float(g["spread"]),
                max_occupancy_dev=float(g["max_occupancy_dev"]),
                degenerate=g["degenerate"],
                input_occupancies=np.array(g["input_occupancies"], dtype=float),
            )
            for g in doc["groups"]
        )
        fields = dict(
            drain_ratio=float(doc["drain_ratio"]),
            row_scales=np.array(doc["row_scales"], dtype=float),
            occupancy_floor=float(doc["occupancy_floor"]),
            target_shape=tuple(doc["target_shape"]),
            row_dots=np.array(doc["row_dots"], dtype=float),
            kind=doc["kind"],
        )
    except KeyError as exc:
        raise InputError(f"compiled program missing field: {exc.args[0]}") from exc
    except InputError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"compiled program field of the wrong type: {exc}") from exc
    if fields["kind"] not in ("scalar", "matvec"):
        raise InputError(f"unknown compiled program kind: {fields['kind']!r}")
    # the recorded settings obey the rules that encode's settings do
    EncodeSettings(
        drain_ratio=fields["drain_ratio"], occupancy_floor=fields["occupancy_floor"]
    ).validate()
    program = CompiledProgram(config=config_from_dict(config), groups=groups, **fields)
    k, n = program.config.n_modes, program.config.n_reservoirs - 1
    if program.kind == "scalar" and k != 1:
        raise InputError(f"a scalar program holds exactly one mode, not {k}")
    if sorted(i for g in groups for i in g.mode_indices) != list(range(k)):
        raise InputError(f"groups must hold each of the {k} modes exactly once")
    if not all(g.mode_indices for g in groups):
        raise InputError("every group must hold at least one mode")
    ids = program.config.group_ids
    if any((ids[list(g.mode_indices)] != g.group_id).any() for g in groups):
        raise InputError("each mode's group_id must be the id of the group that holds it")
    if not all(type(g.degenerate) is bool for g in groups):
        raise InputError("degenerate must be true or false")
    if program.row_scales.shape != (k,) or program.row_dots.shape != (k,):
        raise InputError(f"row_scales and row_dots need one entry per mode ({k})")
    if any(g.input_occupancies.shape != (n,) for g in groups):
        raise InputError(f"input_occupancies need one entry per input reservoir ({n})")
    device, dots = program.config, np.empty(k)
    gamma, table = device.couplings, device.occupancies[:, 1:]
    with np.errstate(all="ignore"):  # a NaN or an infinity disagrees below
        sums = gamma[:, 1:].sum(axis=1)
        p_hat = gamma[:, 1:] / sums[:, None]  # the normalized rows, so no dot overflows
        checks = [("drain_ratio", gamma[:, 0] / sums, program.drain_ratio, 0.0)]
        for group in groups:
            idx = list(group.mode_indices)
            occ = physics.bose_occupancy(group.base_frequency, device.temperatures[1:])
            # |x - b| / b is monotone on each side of b, so each column deviates
            # most at one of its extremes; 0 when every entry is 0/0
            rows = table[idx]
            dev = compiler._group_deviation((rows.min(axis=0), rows.max(axis=0)), occ)
            dev = max(0.0, *dev.tolist())
            spread = group.spread if len(idx) > 1 else 0.0  # encode's layout
            layout = group.base_frequency * (1.0 + np.linspace(-spread, spread, len(idx)))
            checks.append(("spread", np.sort(device.frequencies[idx]), layout, 0.0))
            checks.append(("input_occupancies", occ, group.input_occupancies, 0.0))
            checks.append(("max_occupancy_dev", dev, group.max_occupancy_dev, DEVIATION_ATOL))
            dots[idx] = (p_hat @ group.input_occupancies)[idx]
        checks.append(("row_dots", dots, program.row_dots, 0.0))
        for field, value, recorded, atol in checks:
            bound = DERIVED_RTOL * np.minimum(abs(value), abs(recorded)) + atol
            if not (abs(value - recorded) <= bound).all():
                beyond = f"{DERIVED_RTOL}" + (f" + {atol}" if atol else "")
                raise InputError(f"{field} disagrees with the device beyond {beyond}")
    return program


def _indices(value, field: str) -> tuple:
    """A document's list of non-negative integers, as a tuple."""
    if isinstance(value, list) and all(type(i) is int and i >= 0 for i in value):
        return tuple(value)
    raise InputError(f"{field} must be a list of non-negative integers")


# --- JSON output --------------------------------------------------------------
#
# Reports and compiled documents are the bytes that json.dumps gives with
# sort_keys and an indent of 2, plus a newline, without NaN or Infinity. With an
# indent, json falls back to its pure-Python encoder, which yields each float as
# a token of its own; the writer below formats a list of numbers with one join,
# appends one piece per such list and joins the pieces once.


class FloatRow(tuple):
    """A row of floats that keeps its compact JSON text ("0.5, 1.0") once it is
    first written, so that a report and its config_hash format each float once.
    JSON writers treat it as a list."""

    @functools.cached_property
    def text(self) -> str | None:
        return _numbers(self)


def _numbers(values) -> str | None:
    """Compact JSON text of a sequence of plain ints and floats, else None."""
    if not set(map(type, values)) <= {int, float}:
        return None
    text = ", ".join(map(repr, values))
    if "n" in text:  # of the reprs of ints and floats, only nan and inf hold an n
        raise FloatingPointError("NaN or Infinity in a JSON document")
    return text


def _write(value, lead: str, out: list, nl: str | None) -> None:
    """Append the JSON text of value, preceded by lead, to out. nl is None for
    the compact form (json.dumps' default separators), else the newline and
    indent that start value's own line; nested levels indent two more spaces."""
    if isinstance(value, (dict, list, tuple)) and not value:
        out.append(lead + ("{}" if isinstance(value, dict) else "[]"))
        return
    inner = None if nl is None else nl + "  "
    sep = ", " if inner is None else "," + inner
    if isinstance(value, dict):
        lead += "{" + (inner or "")
        for key in sorted(value):
            _write(value[key], lead + json.dumps(key) + ": ", out, inner)
            lead = sep
        out.append((nl or "") + "}")
    elif isinstance(value, (list, tuple)):
        text = value.text if isinstance(value, FloatRow) else _numbers(value)
        if text is not None:
            # a float repr never holds ", ", so this only moves separators
            body = text if inner is None else inner + text.replace(", ", sep) + nl
            out.append(lead + "[" + body + "]")
            return
        lead += "[" + (inner or "")
        for item in value:
            _write(item, lead, out, inner)
            lead = sep
        out.append((nl or "") + "]")
    elif isinstance(value, float) and not math.isfinite(value):
        raise FloatingPointError("NaN or Infinity in a JSON document")
    else:
        out.append(lead + json.dumps(value))


def dump_json(doc: dict) -> str:
    """doc as strict JSON, sorted keys, two-space indent and a final newline:
    the bytes of json.dumps with those options, except that NaN and Infinity
    raise FloatingPointError. Keys are strings."""
    out: list = []
    _write(doc, "", out, "\n")
    out.append("\n")
    return "".join(out)


def config_hash(config_doc: dict) -> str:
    """First 16 hex digits of the SHA-256 of a config document's compact JSON,
    json.dumps(config_doc, sort_keys=True); reuses its couplings' row text."""
    out: list = []
    _write(config_doc, "", out, None)
    return hashlib.sha256("".join(out).encode()).hexdigest()[:16]


# --- problem files ------------------------------------------------------------

_SETTING_KEYS = {f.name for f in dataclasses.fields(EncodeSettings)}


def _settings_from(doc: dict) -> dict:
    """The problem's "settings" as validated keyword overrides of EncodeSettings."""
    overrides = doc.get("settings", {})
    if not isinstance(overrides, dict):
        raise InputError("settings must be a mapping")
    unknown = set(overrides) - _SETTING_KEYS
    if unknown:
        raise InputError(f"unknown settings: {sorted(unknown)}")
    try:
        return {k: float(v) for k, v in overrides.items()}
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"settings values must be numbers: {exc}") from exc


def _require(doc: dict, field: str):
    if field not in doc:
        raise InputError(f"problem file missing field: {field!r}")
    return doc[field]


def _array(doc: dict, field: str) -> np.ndarray:
    value = _require(doc, field)
    try:
        array = np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"field {field!r} is not a numeric array: {exc}") from exc
    if not np.isfinite(array).all():
        raise InputError(f"field {field!r} holds NaN or Infinity")
    return array


def load_document(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path}: top-level document must be a mapping")
    return doc


def _compile(doc: dict):
    """Problem document -> (type, target shape, parts), in _load's form."""
    kind = _require(doc, "kind")
    settings = _settings_from(doc)
    if kind == "scalar":
        a, b = _array(doc, "a"), _array(doc, "b")
        program = compiler.encode_scalar_product(a, b, **settings)
    elif kind == "matvec":
        p, b = _array(doc, "matrix"), _array(doc, "vector")
        program = compiler.encode_matvec(p, b, **settings)
    elif kind == "signed_matvec":
        a, b = _array(doc, "matrix"), _array(doc, "vector")
        parts = compiler.encode_signed_matvec(a, b, **settings)
        return "compiled_signed", a.shape, [(s, r, p.config, p) for s, r, p in parts]
    elif kind == "raw_config":
        return kind, None, [(1.0, None, config_from_dict(doc), None)]
    else:
        raise InputError(f"unknown problem kind: {kind!r}")
    return _single(program)


def _single(program: CompiledProgram):
    """_load's form of a compiled program: one part, whose result is the target's."""
    return "compiled_program", program.target_shape, [(1.0, None, program.config, program)]


def _checked(config: DeviceConfig) -> DeviceConfig:
    """config, after raising, under the caller's errstate, the overflow or x/0
    that building its occupancy table meets and ignores. Division is monotone
    under correct rounding, so w/T and 1/expm1(w/T) can only meet one at the
    extreme ratios, where numpy raises what it would on the whole table."""
    w, t = config.frequencies, config.temperatures
    physics.bose_occupancy(np.array([w.max(), w.min()]), np.array([t.min(), t.max()]))
    return config


def _document(kind: str, shape, parts) -> dict:
    """The compiled document of _compile's (type, target shape, parts)."""
    if kind == "compiled_program":
        return program_to_dict(parts[0][3])
    doc = {"schema_version": SCHEMA_VERSION, "type": kind}
    if kind == "raw_config":
        return dict(doc, config=config_to_dict(parts[0][2]))
    doc["target_shape"] = list(shape)
    doc["parts"] = {
        _PART_NAMES[sign]: {"program": program_to_dict(program), "rows": rows.tolist()}
        for sign, rows, _, program in parts
    }
    return doc


def compile_problem(doc: dict):
    """Problem document -> compiled document (dict)."""
    return _document(*_compile(doc))


def _load(doc: dict):
    """A document as (type, target shape, parts), by its type or a problem's: a
    part (sign, rows, config, program) per device, whose result adds with its
    sign to the target's rows (all of them if None). A raw config has neither
    target shape nor program."""
    kind = doc.get("type")
    if kind == "raw_config":
        return kind, None, [(1.0, None, config_from_dict(doc["config"]), None)]
    if kind == "compiled_program":
        return _single(program_from_dict(doc))
    if kind == "compiled_signed":
        return kind, *_signed_parts(doc)
    return _compile(doc)


def run_compiled(doc: dict, with_oracle: bool) -> dict:
    """Execute a compiled or problem document and assemble the run report body;
    the oracle reads a problem document, and is None for a compiled one. Each
    part is checked, solved, timed from empty modes, hashed and decoded."""
    kind, shape, parts = _load(doc)
    log.debug("run: compiled, type %r", kind)
    tables, entropies, settles, hashes, decoded = [], [], [], [], []
    for sign, rows, config, program in parts:
        config_doc = None  # the last part's document goes before this part runs
        flows = physics.stationary_flows(_checked(config))
        per_channel, per_reservoir = flows.per_channel.tolist(), flows.per_reservoir.tolist()
        tables.append({"per_channel": per_channel, "per_reservoir": per_reservoir})
        entropies.append(flows.entropy_rate)
        settles.append(dynamics.settling_time(config, np.zeros(config.n_modes), 1e-6))
        config_doc = config_to_dict(config)
        hashes.append(config_hash(config_doc))
        if program is not None:  # a scalar program decodes as a one-row matvec
            decoded.append((sign, rows, compiler.decode_matvec(program, flows)))

    report = {"schema_version": SCHEMA_VERSION, "type": "run_report"}
    report["settling_time"] = max(settles)
    if kind == "compiled_signed":  # entropy rate 0 + e_plus + e_minus, as ever
        names = [_PART_NAMES[sign] for sign, *_ in parts]
        report.update(kind="signed_matvec", flows=dict(zip(names, tables)))
        report["entropy_rate"] = sum(entropies)
        report["config_hash"] = "+".join(f"{k}:{v}" for k, v in sorted(zip(names, hashes)))
        result = compiler.combine_signed(shape[0], decoded)
    else:  # one part, the loop's last; its entropy rate as it is, so -0.0 stays
        report.update(kind=program.kind if program else kind, flows=tables[0])
        report.update(entropy_rate=entropies[0], config=config_doc, config_hash=hashes[0])
        result = decoded[0][2] if decoded else None

    if result is not None:
        report.update(
            decoded=result.values.tolist(), error_bounds=result.error_bound.tolist()
        )
        if with_oracle:
            _attach_oracle(report, None if doc.get("type") == kind else doc)
    log.debug("run: ran %r, %d modes, %d reservoirs", report["kind"], *_device_size(parts))
    return report


def _signed_parts(doc: dict):
    """Target shape and the checked [(sign, rows, config, program)] of a
    compiled signed document, plus part first. The parts' rows cover the
    target's rows, and each part takes the target's columns as inputs."""
    shape = _indices(doc.get("target_shape"), "target_shape")
    if len(shape) != 2:
        raise InputError("compiled_signed target_shape must be [rows, columns]")
    parts = doc.get("parts")
    if not isinstance(parts, dict) or not parts or set(parts) - {"plus", "minus"}:
        raise InputError("compiled_signed parts must map plus and/or minus to a part")
    checked = []
    for sign, name in _PART_NAMES.items():
        if name not in parts:
            continue
        part = parts[name]
        if not isinstance(part, dict) or not {"program", "rows"} <= part.keys():
            raise InputError(f"compiled_signed part {name!r} needs program and rows")
        program = program_from_dict(part["program"])
        rows, k = _indices(part["rows"], f"{name} rows"), program.config.n_modes
        if len(set(rows)) != k or len(rows) != k or max(rows) >= shape[0]:
            raise InputError(f"{name} rows need {k} distinct indices below {shape[0]}")
        if program.config.n_reservoirs - 1 != shape[1]:
            raise InputError(f"{name} program needs {shape[1]} inputs, one per column")
        checked.append((sign, list(rows), program.config, program))
    # every row is below shape[0], so the union covers range(shape[0]) if and
    # only if it is that large
    if len({i for _, rows, *_ in checked for i in rows}) != shape[0]:
        raise InputError(f"compiled_signed parts must cover all {shape[0]} target rows")
    return shape, checked


def _attach_oracle(report: dict, problem_doc: dict | None):
    """Direct linear-algebra result computed internally for comparison."""
    kind = (problem_doc or {}).get("kind")
    if kind == "scalar":
        oracle = [float(np.dot(_array(problem_doc, "a"), _array(problem_doc, "b")))]
    elif kind in ("matvec", "signed_matvec"):
        matrix, vector = _array(problem_doc, "matrix"), _array(problem_doc, "vector")
        oracle = (matrix @ vector).tolist()
    else:
        report["oracle"] = None
        return
    report["oracle"] = oracle
    decoded = np.array(report["decoded"])
    report["oracle_max_abs_error"] = float(np.max(np.abs(decoded - np.array(oracle))))


# --- output helpers -----------------------------------------------------------


_SLICE = 1 << 20  # characters per write, so no whole output is encoded at once


def _emit(text, output: str | None):
    """Write a string, or an iterable of strings, to output or else stdout, at
    most _SLICE characters a call. Callers run every check that can fail first,
    so a failing command writes nothing."""
    pieces = [text] if isinstance(text, str) else text
    try:
        sink = open(output, "w") if output else contextlib.nullcontext(sys.stdout)
    except OSError as exc:
        raise InputError(f"cannot write {output}: {exc}") from exc
    with sink as fh:
        for piece in pieces:
            for start in range(0, len(piece), _SLICE):
                fh.write(piece[start : start + _SLICE])


# --- subcommands --------------------------------------------------------------


def _device_size(parts) -> tuple:
    """Modes and reservoirs of _load's parts, summed."""
    return tuple(np.sum([(c.n_modes, c.n_reservoirs) for _, _, c, _ in parts], axis=0))


def _write_output(command: str, doc: dict, output: str | None):
    text = dump_json(doc)
    log.debug("%s: serialized %d bytes", command, len(text))
    _emit(text, output)
    log.debug("%s: wrote %d bytes to %s", command, len(text), output or "stdout")


def cmd_compile(args) -> int:
    doc = load_document(args.problem)
    log.debug("compile: loaded %s, kind %r", args.problem, doc.get("kind"))
    kind, shape, parts = _compile(doc)
    log.debug("compile: %s, %d modes, %d reservoirs", kind, *_device_size(parts))
    document = _document(kind, shape, parts)
    _write_output("compile", document, args.output)
    if kind == "compiled_program":
        cfg = document["config"]
        spread = max(g["spread"] for g in document["groups"])
        print(
            f"compiled: {len(cfg['modes'])} modes, {len(cfg['reservoirs'])} reservoirs,"
            f" drain_ratio={document['drain_ratio']}, group spread={spread}",
            file=sys.stderr,
        )
    return 0


def cmd_run(args) -> int:
    doc = load_document(args.problem)
    log.debug(
        "run: loaded %s, type %r, kind %r", args.problem, doc.get("type"), doc.get("kind")
    )
    started = time.monotonic()
    report = run_compiled(doc, args.oracle)
    if not args.no_timing:
        report["timing"] = {"seconds": time.monotonic() - started}
    _write_output("run", report, args.output)
    return 0


def _compiled_config(doc: dict) -> DeviceConfig:
    if doc.get("type") != "compiled_signed":
        kind, _, parts = _load(doc)
        if kind != "compiled_signed":
            return parts[0][2]
    raise InputError("signed problems have two configs; compile each part separately")


def _parse_sweep(spec: str):
    try:
        lo, hi = spec.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError as exc:
        raise InputError(f"bad sweep range {spec!r}; expected like 2..64") from exc
    if not 1 <= lo <= hi:
        raise InputError(f"bad sweep range {spec!r}; need 1 <= start <= end")
    counts = []
    n = lo
    while n <= hi:
        counts.append(n)
        n *= 2
    return counts


def cmd_transient(args) -> int:
    if args.sweep_n:
        lines = ["n,settling_time"]
        times = []
        for n in _parse_sweep(args.sweep_n):
            t = _sweep_settling_time(n, args.rel_tol)
            times.append(t)
            lines.append(f"{n},{t!r}")
        _emit("\n".join(lines) + "\n", args.output)
        spread = (max(times) - min(times)) / max(times)
        print(f"max relative spread: {spread:.3e}", file=sys.stderr)
        return 0

    if args.problem is None:
        raise InputError("transient needs a problem/compiled document or --sweep-n")
    config = _compiled_config(load_document(args.problem))
    if args.t_end is not None and args.t_end <= 0.0:
        raise InputError("t_end must be positive")
    t_end = args.t_end or dynamics.stationary_window(config)
    initial = np.zeros(config.n_modes)
    trace = dynamics.evolve(_checked(config), initial, t_end, args.samples, args.rel_tol)
    header = (
        ["time"]
        + [f"occ_mode{k}" for k in range(config.n_modes)]
        + [f"flow_res{j}" for j in range(config.n_reservoirs)]
    )
    columns = [trace.times[:, None], trace.occupancies, trace.flows]
    if not all(np.isfinite(c).all() for c in columns):
        raise FloatingPointError("NaN or Infinity in the transient trace")
    _emit(_csv_blocks(",".join(header), columns), args.output)
    settle = dynamics.settling_time(config, initial, args.rel_tol)
    print(f"settling time: {settle!r}", file=sys.stderr)
    return 0


_CSV_ROWS = 64  # trace rows formatted per block


def _csv_blocks(header: str, columns):
    """CSV text of the rows of the side-by-side 2-D columns, header first, in
    blocks of _CSV_ROWS rows; each float is its repr."""
    yield header + "\n"
    for start in range(0, len(columns[0]), _CSV_ROWS):
        block = np.hstack([c[start : start + _CSV_ROWS] for c in columns]).tolist()
        yield "".join([",".join(map(repr, row)) + "\n" for row in block])


def _sweep_settling_time(n: int, rel_tol: float) -> float:
    """Fixed total rate per mode, weights redistributed over n reservoirs."""
    drain_ratio = EncodeSettings.drain_ratio
    t_hot = physics.inverse_temperature(1.0, 1.0)
    row = np.empty(n + 1)
    row[1:] = (1.0 / (1.0 + drain_ratio)) / n
    row[0] = drain_ratio / (1.0 + drain_ratio)
    config = DeviceConfig([1.0], [physics.T_FLOOR] + [t_hot] * n, row[None, :])
    return dynamics.settling_time(config, np.zeros(1), rel_tol)


def _parse_policy(spec: str):
    if spec == "max" or spec == "grouped":
        return spec
    if spec.startswith("fixed:"):
        try:
            return ("fixed", float(spec.removeprefix("fixed:")))
        except ValueError as exc:
            raise InputError(f"bad fixed policy value in {spec!r}") from exc
    raise InputError(f"unknown policy {spec!r}; use max, grouped, or fixed:<value>")


def cmd_circuit(args) -> int:
    config = _compiled_config(load_document(args.problem))
    policy = _parse_policy(args.policy)
    crossbar = build_crossbar(_checked(config), policy=policy)
    recovered = crossbar_currents(crossbar) * config.frequencies[:, None]
    residual = float(np.max(np.abs(recovered - crossbar.flows.per_channel)))
    if not math.isfinite(residual):
        raise FloatingPointError("NaN or Infinity in the crossbar flows or values")
    _emit(export_netlist(crossbar), args.output)
    print(f"max |I*w - J| residual: {residual:.3e}", file=sys.stderr)
    return 0


def cmd_validate(args) -> int:
    """Randomized self-checks: conservation, form equivalence, circuit analogy."""
    rng = np.random.default_rng(args.seed)
    worst_conservation = 0.0
    worst_form = 0.0
    worst_analogy = 0.0
    for _ in range(args.cases):
        config = random_config(rng, 4, 6)
        crossbar = build_crossbar(config)
        flows = crossbar.flows
        pairwise = physics.stationary_flows_pairwise(config)
        scale = np.abs(flows.per_reservoir).sum() or 1.0
        worst_conservation = max(
            worst_conservation, abs(flows.per_reservoir.sum()) / scale
        )
        fscale = np.abs(flows.per_channel).max() or 1.0
        worst_form = max(
            worst_form,
            float(np.max(np.abs(flows.per_channel - pairwise.per_channel))) / fscale,
        )
        recovered = crossbar_currents(crossbar) * config.frequencies[:, None]
        worst_analogy = max(
            worst_analogy,
            float(np.max(np.abs(recovered - flows.per_channel))) / fscale,
        )
        if flows.entropy_rate < -1e-12 * np.abs(
            flows.per_reservoir / config.temperatures
        ).sum():
            print("FAIL second law", file=sys.stderr)
            return EXIT_NUMERICAL
    print(f"conservation residual: {worst_conservation:.3e}")
    print(f"form equivalence residual: {worst_form:.3e}")
    print(f"circuit analogy residual: {worst_analogy:.3e}")
    ok = max(worst_conservation, worst_form, worst_analogy) < 1e-12
    print("validate: PASS" if ok else "validate: FAIL")
    return 0 if ok else EXIT_NUMERICAL


def random_config(
    rng, max_modes: int, max_reservoirs: int, allow_zero_couplings: bool = False
) -> DeviceConfig:
    """Random valid device: frequencies in [0.5, 3], temperatures in [0.1, 5]
    plus the cold drain, couplings in (0.05, 2]; with allow_zero_couplings about
    a fifth of the non-drain couplings are exactly 0."""
    k = int(rng.integers(1, max_modes + 1))
    n = int(rng.integers(1, max_reservoirs + 1))
    frequencies = rng.uniform(0.5, 3.0, size=k)
    temperatures = np.concatenate([[physics.T_FLOOR], rng.uniform(0.1, 5.0, size=n)])
    couplings = rng.uniform(0.05, 2.0, size=(k, n + 1))
    if allow_zero_couplings:
        mask = rng.random(couplings.shape) < 0.2
        mask[:, 0] = False  # the drain column keeps every row positive
        couplings = np.where(mask, 0.0, couplings)
    return DeviceConfig(frequencies, temperatures, couplings)


# --- entry point --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermoflow",
        description="Thermodynamic linear-algebra coprocessor simulator",
    )
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", default=None, help="write output to this path")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", parents=[output], help="problem -> compiled config")
    p.add_argument("problem")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("run", parents=[output], help="full encode/flows/decode pipeline")
    p.add_argument("problem", help="problem or compiled document")
    p.add_argument(
        "--oracle", action="store_true", help="include direct linear-algebra oracle"
    )
    p.add_argument(
        "--no-timing", action="store_true", help="omit timing metadata from reports"
    )
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("transient", parents=[output], help="relaxation trace as CSV")
    p.add_argument("problem", nargs="?", help="problem or compiled document")
    p.add_argument("--t-end", type=float, default=None)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--rel-tol", type=float, default=1e-6)
    p.add_argument(
        "--sweep-n", default=None, help="settling-time sweep over reservoir counts, e.g. 2..64"
    )
    p.set_defaults(func=cmd_transient)

    p = sub.add_parser("circuit", parents=[output], help="crossbar netlist export")
    p.add_argument("problem", help="problem or compiled document")
    p.add_argument("--policy", default="max", help="max | grouped | fixed:<value>")
    p.set_defaults(func=cmd_circuit)

    p = sub.add_parser("validate", help="randomized self-checks")
    p.add_argument("--cases", type=int, default=200)
    p.add_argument("--seed", type=int, default=0, help="randomized-suite seed")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    level = os.environ.get("THERMOFLOW_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    args = build_parser().parse_args(argv)
    try:
        # an overflow, 0/0 or x/0 anywhere in a command is a numerical failure
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except (InputError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SolvabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVABILITY
    except FloatingPointError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())

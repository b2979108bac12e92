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
import dataclasses
import hashlib
import json
import logging
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
from thermoflow.physics import ConfigError, DeviceConfig, Mode, Reservoir

SCHEMA_VERSION = 1

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
    return {
        "modes": [
            {"frequency": m.frequency, "group_id": m.group_id} for m in config.modes
        ],
        "reservoirs": [
            {"temperature": r.temperature, "is_drain": r.is_drain}
            for r in config.reservoirs
        ],
        "couplings": config.couplings.tolist(),
    }


def config_from_dict(doc: dict) -> DeviceConfig:
    try:
        modes = tuple(
            Mode(frequency=float(m["frequency"]), group_id=int(m.get("group_id", 1)))
            for m in doc["modes"]
        )
        reservoirs = tuple(
            Reservoir(
                temperature=float(r["temperature"]),
                is_drain=bool(r.get("is_drain", False)),
            )
            for r in doc["reservoirs"]
        )
        couplings = np.array(doc["couplings"], dtype=float)
    except KeyError as exc:
        raise InputError(f"raw config missing field: {exc.args[0]}") from exc
    return DeviceConfig(modes=modes, reservoirs=reservoirs, couplings=couplings)


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
        groups = tuple(
            GroupSpec(
                group_id=int(g["group_id"]),
                mode_indices=_indices(g["mode_indices"], "mode_indices"),
                base_frequency=float(g["base_frequency"]),
                spread=float(g["spread"]),
                max_occupancy_dev=float(g["max_occupancy_dev"]),
                degenerate=bool(g["degenerate"]),
                input_occupancies=np.array(g["input_occupancies"], dtype=float),
            )
            for g in doc["groups"]
        )
        program = CompiledProgram(
            config=config_from_dict(doc["config"]),
            groups=groups,
            drain_ratio=float(doc["drain_ratio"]),
            row_scales=np.array(doc["row_scales"], dtype=float),
            occupancy_floor=float(doc["occupancy_floor"]),
            target_shape=tuple(doc["target_shape"]),
            row_dots=np.array(doc["row_dots"], dtype=float),
            kind=doc["kind"],
        )
    except KeyError as exc:
        raise InputError(f"compiled program missing field: {exc.args[0]}") from exc
    k, n = program.config.n_modes, program.config.n_reservoirs - 1
    if sorted(i for g in groups for i in g.mode_indices) != list(range(k)):
        raise InputError(f"groups must hold each of the {k} modes exactly once")
    if program.row_scales.shape != (k,) or program.row_dots.shape != (k,):
        raise InputError(f"row_scales and row_dots need one entry per mode ({k})")
    if any(g.input_occupancies.shape != (n,) for g in groups):
        raise InputError(f"input_occupancies need one entry per input reservoir ({n})")
    return program


def _indices(value, field: str) -> tuple:
    """A document's list of non-negative integers, as a tuple."""
    if isinstance(value, list) and all(type(i) is int and i >= 0 for i in value):
        return tuple(value)
    raise InputError(f"{field} must be a list of non-negative integers")


def dump_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def config_hash(config: DeviceConfig) -> str:
    canonical = json.dumps(config_to_dict(config), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


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
    except (TypeError, ValueError) as exc:
        raise InputError(f"settings values must be numbers: {exc}") from exc


def _require(doc: dict, field: str):
    if field not in doc:
        raise InputError(f"problem file missing field: {field!r}")
    return doc[field]


def _array(doc: dict, field: str) -> np.ndarray:
    value = _require(doc, field)
    try:
        return np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"field {field!r} is not a numeric array: {exc}") from exc


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


def compile_problem(doc: dict):
    """Problem document -> compiled document (dict)."""
    kind = _require(doc, "kind")
    settings = _settings_from(doc)
    if kind == "scalar":
        a, b = _array(doc, "a"), _array(doc, "b")
        return program_to_dict(compiler.encode_scalar_product(a, b, **settings))
    if kind == "matvec":
        p, b = _array(doc, "matrix"), _array(doc, "vector")
        return program_to_dict(compiler.encode_matvec(p, b, **settings))
    if kind == "signed_matvec":
        a, b = _array(doc, "matrix"), _array(doc, "vector")
        parts = compiler.encode_signed_matvec(a, b, **settings)
        return {
            "schema_version": SCHEMA_VERSION,
            "type": "compiled_signed",
            "target_shape": list(a.shape),
            "parts": {
                _PART_NAMES[sign]: {
                    "program": program_to_dict(program),
                    "rows": rows.tolist(),
                }
                for sign, rows, program in parts
            },
        }
    if kind == "raw_config":
        config = config_from_dict(doc)
        return {
            "schema_version": SCHEMA_VERSION,
            "type": "raw_config",
            "config": config_to_dict(config),
        }
    raise InputError(f"unknown problem kind: {kind!r}")


def _is_compiled(doc: dict) -> bool:
    return doc.get("type") in ("compiled_program", "compiled_signed", "raw_config")


def _ensure_compiled(doc: dict) -> dict:
    return doc if _is_compiled(doc) else compile_problem(doc)


def _flow_tables(flows):
    return {
        "per_channel": flows.per_channel.tolist(),
        "per_reservoir": flows.per_reservoir.tolist(),
    }


def _settling_time(config: DeviceConfig) -> float:
    """Settling time from empty modes, as every run report gives it."""
    return dynamics.settling_time(config, np.zeros(config.n_modes), 1e-6)


def run_compiled(doc: dict, with_oracle: bool, problem_doc: dict | None) -> dict:
    """Execute a compiled document and assemble the run report body."""
    report: dict = {"schema_version": SCHEMA_VERSION, "type": "run_report"}

    if doc["type"] in ("raw_config", "compiled_program"):
        raw = doc["type"] == "raw_config"
        program = None if raw else program_from_dict(doc)
        config = config_from_dict(doc["config"]) if raw else program.config
        flows = physics.stationary_flows(config)
        report.update(
            kind="raw_config" if raw else program.kind,
            flows=_flow_tables(flows),
            entropy_rate=flows.entropy_rate,
            settling_time=_settling_time(config),
            config=config_to_dict(config),
            config_hash=config_hash(config),
        )
        if raw:
            return report
        if program.kind == "scalar":
            result = compiler.decode_scalar_product(program, flows)
        else:
            result = compiler.decode_matvec(program, flows)

    elif doc["type"] == "compiled_signed":
        decoded, tables, hashes = [], {}, {}
        entropy = settle = 0.0
        m, parts = _signed_parts(doc)
        for sign, rows, program in parts:
            name = _PART_NAMES[sign]
            flows = physics.stationary_flows(program.config)
            decoded.append((sign, rows, compiler.decode_matvec(program, flows)))
            tables[name] = _flow_tables(flows)
            entropy += flows.entropy_rate
            settle = max(settle, _settling_time(program.config))
            hashes[name] = config_hash(program.config)
        result = compiler.combine_signed(m, decoded)
        report.update(
            kind="signed_matvec",
            flows=tables,
            entropy_rate=entropy,
            settling_time=settle,
            config_hash="+".join(f"{k}:{v}" for k, v in sorted(hashes.items())),
        )

    else:
        raise InputError(f"not a runnable document: {doc.get('type')!r}")

    report.update(
        decoded=result.values.tolist(), error_bounds=result.error_bound.tolist()
    )
    if with_oracle:
        _attach_oracle(report, problem_doc)
    return report


def _signed_parts(doc: dict):
    """Output count m and the checked [(sign, rows, program)] of a compiled
    signed document, plus part first."""
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
        checked.append((sign, list(rows), program))
    return shape[0], checked


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


def _emit(text: str, output: str | None):
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# --- subcommands --------------------------------------------------------------


def cmd_compile(args) -> int:
    doc = load_document(args.problem)
    compiled = compile_problem(doc)
    _emit(dump_json(compiled), args.output)
    if compiled["type"] == "compiled_program":
        cfg = compiled["config"]
        spread = max(g["spread"] for g in compiled["groups"])
        print(
            f"compiled: {len(cfg['modes'])} modes, {len(cfg['reservoirs'])} reservoirs,"
            f" drain_ratio={compiled['drain_ratio']}, group spread={spread}",
            file=sys.stderr,
        )
    return 0


def cmd_run(args) -> int:
    doc = load_document(args.problem)
    problem_doc = None if _is_compiled(doc) else doc
    started = time.monotonic()
    report = run_compiled(_ensure_compiled(doc), args.oracle, problem_doc)
    if not args.no_timing:
        report["timing"] = {"seconds": time.monotonic() - started}
    _emit(dump_json(report), args.output)
    return 0


def _compiled_config(doc: dict) -> DeviceConfig:
    doc = _ensure_compiled(doc)
    if doc["type"] == "compiled_program":
        return program_from_dict(doc).config
    if doc["type"] == "raw_config":
        return config_from_dict(doc["config"])
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
    trace = dynamics.evolve(config, initial, t_end, args.samples, args.rel_tol)
    header = (
        ["time"]
        + [f"occ_mode{k}" for k in range(config.n_modes)]
        + [f"flow_res{j}" for j in range(config.n_reservoirs)]
    )
    table = np.column_stack([trace.times, trace.occupancies, trace.flows])
    rows = [",".join(header)] + [",".join(map(repr, row.tolist())) for row in table]
    _emit("\n".join(rows) + "\n", args.output)
    settle = dynamics.settling_time(config, initial, args.rel_tol)
    print(f"settling time: {settle!r}", file=sys.stderr)
    return 0


def _sweep_settling_time(n: int, rel_tol: float, drain_ratio: float = 1e-4) -> float:
    """Fixed total rate per mode, weights redistributed over n reservoirs."""
    t_hot = physics.inverse_temperature(1.0, 1.0)
    reservoirs = [Reservoir(temperature=physics.T_FLOOR, is_drain=True)]
    reservoirs += [Reservoir(temperature=t_hot)] * n
    row = np.empty(n + 1)
    row[1:] = (1.0 / (1.0 + drain_ratio)) / n
    row[0] = drain_ratio / (1.0 + drain_ratio)
    config = DeviceConfig(
        modes=(Mode(frequency=1.0),),
        reservoirs=tuple(reservoirs),
        couplings=row[None, :],
    )
    return float(dynamics.settling_time(config, np.zeros(1), rel_tol))


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
    crossbar = build_crossbar(config, policy=_parse_policy(args.policy))
    _emit(export_netlist(crossbar, fmt=args.format), args.output)
    flows = physics.stationary_flows(config)
    recovered = crossbar_currents(crossbar) * config.frequencies[:, None]
    residual = float(np.max(np.abs(recovered - flows.per_channel)))
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
        flows = physics.stationary_flows(config)
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
        crossbar = build_crossbar(config)
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
    modes = tuple(Mode(frequency=float(rng.uniform(0.5, 3.0))) for _ in range(k))
    reservoirs = [Reservoir(temperature=physics.T_FLOOR, is_drain=True)]
    reservoirs += [Reservoir(float(rng.uniform(0.1, 5.0))) for _ in range(n)]
    couplings = rng.uniform(0.05, 2.0, size=(k, n + 1))
    if allow_zero_couplings:
        mask = rng.random(couplings.shape) < 0.2
        mask[:, 0] = False  # the drain column keeps every row positive
        couplings = np.where(mask, 0.0, couplings)
    return DeviceConfig(modes=modes, reservoirs=tuple(reservoirs), couplings=couplings)


# --- entry point --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermoflow",
        description="Thermodynamic linear-algebra coprocessor simulator",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="randomized-suite seed")
    common.add_argument(
        "--oracle", action="store_true", help="include direct linear-algebra oracle"
    )
    common.add_argument(
        "--no-timing", action="store_true", help="omit timing metadata from reports"
    )
    common.add_argument("--output", default=None, help="write output to this path")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", parents=[common], help="problem -> compiled config")
    p.add_argument("problem")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("run", parents=[common], help="full encode/flows/decode pipeline")
    p.add_argument("problem", help="problem or compiled document")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("transient", parents=[common], help="relaxation trace as CSV")
    p.add_argument("problem", nargs="?", help="problem or compiled document")
    p.add_argument("--t-end", type=float, default=None)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--rel-tol", type=float, default=1e-6)
    p.add_argument(
        "--sweep-n", default=None, help="settling-time sweep over reservoir counts, e.g. 2..64"
    )
    p.set_defaults(func=cmd_transient)

    p = sub.add_parser("circuit", parents=[common], help="crossbar netlist export")
    p.add_argument("problem", help="problem or compiled document")
    p.add_argument("--policy", default="max", help="max | grouped | fixed:<value>")
    p.add_argument("--format", default="spice")
    p.set_defaults(func=cmd_circuit)

    p = sub.add_parser("validate", parents=[common], help="randomized self-checks")
    p.add_argument("--cases", type=int, default=200)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    level = os.environ.get("THERMOFLOW_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SolvabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVABILITY
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except FloatingPointError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())

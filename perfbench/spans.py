"""In-memory span tracer that wraps thermoflow's public functions from outside.

A span is (name, start, end, parent, op): parent is the index of the enclosing
span or None, op is the id of the benchmark op that caused it. A span's self
time is its duration minus the durations of its direct children; calls are
single-threaded and strictly nested, so the children never overlap.

The tracer rebinds every module attribute in the thermoflow package that holds
a wrapped function, because modules import some functions by name (cli binds
build_crossbar, crossbar_currents and export_netlist; circuit binds
stationary_flows) and call others through module attributes.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter


def _physics_counts(counts, report):
    counts["physics.channels"] += report.per_channel.size


def _encode_counts(counts, program):
    counts["compiler.modes"] += program.config.n_modes
    counts["compiler.groups"] += len(program.groups)
    counts["compiler.degenerate_groups"] += sum(g.degenerate for g in program.groups)


def _crossbar_counts(counts, crossbar):
    counts["circuit.branches"] += int((crossbar.branch_status != "absent").sum())


def _netlist_counts(counts, text):
    counts["circuit.netlist_bytes"] += len(text.encode())


def _main_counts(counts, code):
    # cli.main turns errors into exit codes, so a non-zero code is a cli error.
    counts["cli.errors"] += code != 0


# (module, function, metric group, counter hook). A layer's errors are the
# exceptions that leave it: raised by one of its spans whose parent span is in
# another layer or absent. cli.main also counts its non-zero exit codes.
TRACED = (
    ("physics", "stationary_flows", "physics.stationary_flows", _physics_counts),
    ("compiler", "encode_matvec", "compiler.encode", _encode_counts),
    ("compiler", "encode_scalar_product", "compiler.encode", _encode_counts),
    ("compiler", "encode_parallel_matvec", "compiler.encode", _encode_counts),
    ("compiler", "decode_matvec", "compiler.decode", None),
    ("compiler", "decode_scalar_product", "compiler.decode", None),
    ("compiler", "parallel_group_products", "compiler.decode", None),
    ("compiler", "estimate_encoding_error", "compiler.decode", None),
    ("dynamics", "settling_time", "dynamics.settling_time", None),
    ("dynamics", "evolve", "dynamics.evolve", None),
    ("circuit", "build_crossbar", "circuit.build_crossbar", _crossbar_counts),
    ("circuit", "crossbar_currents", "circuit.crossbar_currents", None),
    ("circuit", "export_netlist", "circuit.export_netlist", _netlist_counts),
    ("cli", "load_document", "cli.load_document", None),
    ("cli", "compile_problem", "cli.compile_problem", None),
    ("cli", "program_from_dict", "cli.program_from_dict", None),
    ("cli", "run_compiled", "cli.run_compiled", None),
    ("cli", "config_hash", "cli.config_hash", None),
    ("cli", "dump_json", "cli.dump_json", None),
    ("cli", "main", "cli.main", _main_counts),
)

GROUP = {f"{module}.{func}": group for module, func, group, _ in TRACED}
LAYERS = ("physics", "compiler", "dynamics", "circuit", "cli")


class Tracer:
    """Records spans and counts while installed; restores every binding on exit."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, op]
        self.counts = Counter()
        self.op = None
        self._stack = []
        self._restore = []

    def _wrap(self, name, layer, fn, hook):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                parent = span[3]
                if parent is None or not spans[parent][0].startswith(layer + "."):
                    counts[f"{layer}.errors"] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(counts, result)
            return result

        return traced

    def __enter__(self):
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == "thermoflow" or key.startswith("thermoflow."))
        ]
        for module, func, _, hook in TRACED:
            original = getattr(sys.modules[f"thermoflow.{module}"], func)
            wrapped = self._wrap(f"{module}.{func}", module, original, hook)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapped)
                        self._restore.append((m, attr, original))
        return self

    def __exit__(self, *exc):
        for m, attr, original in reversed(self._restore):
            setattr(m, attr, original)
        self._restore.clear()
        return False

    def self_times(self):
        """Total self time per metric group."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals = Counter()
        for (name, start, end, _, _), inner in zip(self.spans, child):
            totals[GROUP[name]] += (end - start) - inner
        return totals

    def calls(self):
        return Counter(GROUP[s[0]] for s in self.spans)

    def write(self, path):
        """Write the spans as JSON lines: name, start, end, parent, op."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

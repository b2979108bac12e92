"""Electrical analogy: per-mode star circuits and the crossbar equivalent.

Mapping per mode kappa: wire potential phi_j = n_j(w_kappa, T_j), nominal
conductance w_kappa gamma[kappa][j]. Branch currents are measured in units of
energy flow per frequency quantum, I = J/w: factoring the mode frequency out
of the current scale means the solves use branch resistance 1/gamma, and then
Ohm's law, the weighted node potential (same formula as the weighted occupancy)
and Kirchhoff closure all hold simultaneously with I * w reproducing the
stationary flows exactly. Stacking the per-mode stars and lifting every
reservoir column to a common bar potential Phi_j through series resistors
r[kappa][j] gives the crossbar.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from thermoflow.compiler import EncodeSettings
from thermoflow.physics import (
    ConfigError,
    DeviceConfig,
    FlowReport,
    bose_occupancy,
    stationary_flows,
)

# Branch status labels. A crossbar holds each branch's status as a uint8 code,
# the label's index in _LABELS; codes from _PASSTHROUGH up mark wired branches.
ABSENT = "absent"  # zero coupling: no element at this crossing
SERIES = "series"  # current-carrying branch with a computed series resistor
NEGATIVE = "negative"  # series resistor came out negative (flagged, kept as computed)
PASSTHROUGH = "passthrough"  # zero current and phi == Phi: r = 0 works
OPEN = "open"  # zero current but phi != Phi: branch left disconnected
_LABELS = np.array([ABSENT, OPEN, PASSTHROUGH, SERIES, NEGATIVE], dtype=object)
_ABSENT, _OPEN, _PASSTHROUGH, _SERIES, _NEGATIVE = np.arange(5, dtype=np.uint8)


class SolvabilityError(ValueError):
    """A bar-potential policy violates its solvability condition."""


@dataclass(frozen=True)
class StarCircuit:
    """n wires with resistances R_j and end potentials phi_j joined at one node.

    labels optionally records which reservoir index each wire corresponds to
    (zero-coupling links are omitted as open branches).
    """

    resistances: np.ndarray
    potentials: np.ndarray
    labels: tuple | None = None

    def __post_init__(self):
        r = np.asarray(self.resistances, dtype=float)
        p = np.asarray(self.potentials, dtype=float)
        if r.shape != p.shape or r.ndim != 1 or r.size == 0:
            raise ConfigError("resistances and potentials must be equal-length vectors")
        if np.any(r <= 0.0):
            raise ConfigError("resistances must be positive")
        object.__setattr__(self, "resistances", r)
        object.__setattr__(self, "potentials", p)


@dataclass(frozen=True)
class CrossbarCircuit:
    """Crossbar equivalent of a device: K mode bars crossing n+1 reservoir bars."""

    frequencies: np.ndarray  # (K,)
    conductances: np.ndarray  # (K, n+1), w_kappa gamma[kappa][j]; 0 marks absent
    node_potentials: np.ndarray  # (K, n+1), phi[kappa][j] = n_j(w_kappa, T_j), read-only
    bar_potentials: np.ndarray  # (n+1,), Phi_j
    series_resistors: np.ndarray  # (K, n+1), r[kappa][j]
    status_codes: np.ndarray  # (K, n+1), uint8 indices into _LABELS
    currents: np.ndarray  # (K, n+1), I[kappa][j] = J[kappa][j]/w_kappa
    flows: FlowReport  # the stationary flows J the currents were mapped from

    @cached_property
    def branch_status(self) -> np.ndarray:
        """(K, n+1) status labels, built from the codes on first read."""
        return _LABELS[self.status_codes]


def star_node_potential(circuit: StarCircuit) -> float:
    """Central-node potential: conductance-weighted mean of the wire potentials."""
    g = 1.0 / circuit.resistances
    return float((circuit.potentials * g).sum() / g.sum())


def star_currents(circuit: StarCircuit) -> np.ndarray:
    """Wire currents I_j = (phi_j - phi_tilde)/R_j; they sum to zero (Kirchhoff)."""
    return (circuit.potentials - star_node_potential(circuit)) / circuit.resistances


def oqs_to_star(config: DeviceConfig, mode_index: int) -> StarCircuit:
    """Map one mode to its star circuit: phi_j = n_j(w, T_j), R_j = 1/gamma so the
    Ohm currents come out in J/w units (star_currents(...) * w equals the flows).

    Zero-coupling links become open branches and are omitted; the returned
    labels name the included reservoirs.
    """
    row = config.couplings[mode_index]
    occ = bose_occupancy(config.frequencies[mode_index], config.temperatures)
    included = np.flatnonzero(row > 0.0)
    return StarCircuit(
        resistances=1.0 / row[included],
        potentials=occ[included],
        labels=tuple(int(j) for j in included),
    )


def _resolve_bar_potentials(phi, active, policy):
    """Phi_j per policy. Columns with no active branch get Phi_j = 0."""
    n1 = phi.shape[1]
    col_max = np.where(active, phi, -np.inf).max(axis=0)
    has_branch = active.any(axis=0)
    col_max = np.where(has_branch, col_max, 0.0)

    if policy == "max":
        return col_max
    if isinstance(policy, tuple) and len(policy) == 2 and policy[0] == "fixed":
        value = np.broadcast_to(np.asarray(policy[1], dtype=float), (n1,)).copy()
        bad = has_branch & (value < col_max)
        if bad.any():
            j = int(np.flatnonzero(bad)[0])
            raise SolvabilityError(
                f"fixed bar potential {value[j]} below max node potential "
                f"{col_max[j]} on reservoir bar {j} (need Phi_j >= max_kappa n_j)"
            )
        return value
    if policy == "grouped":
        # Valid only when every column's active potentials agree within the
        # compiler's default group_tol: then Phi_j is that shared value and every
        # series resistor is 0. The deviation is taken from the column midpoint,
        # so modes compiled against that tolerance pass it here.
        group_tol = EncodeSettings.group_tol
        col_min = np.where(active, phi, np.inf).min(axis=0)
        scale = np.maximum(np.where(active, np.abs(phi), 0.0).max(axis=0), 1e-300)
        bad = has_branch & (0.5 * (col_max - col_min) > group_tol * scale)
        if bad.any():
            raise SolvabilityError(
                f"grouped policy needs matching occupancies on bar "
                f"{int(np.flatnonzero(bad)[0])}; spread exceeds tolerance {group_tol}"
            )
        return col_max
    raise ConfigError(f"unknown bar potential policy: {policy!r}")


def build_crossbar(config: DeviceConfig, policy="max") -> CrossbarCircuit:
    """Construct the crossbar with series resistors r = (Phi_j - phi)/I per branch.

    policy: "max" (Phi_j = max_kappa phi[kappa][j], default), ("fixed", value(s))
    with value >= that max, or "grouped" (all r = 0; only valid when the modes
    share occupancies within EncodeSettings.group_tol). Zero-current branches
    get r = 0 and are marked passthrough when phi == Phi_j, otherwise open.
    Negative resistors (current flowing out of a reservoir below its bar
    potential) are kept as computed but flagged.
    """
    flows = stationary_flows(config)
    w = config.frequencies
    phi = flows.occupancies
    g = config.couplings
    active = g > 0.0
    currents = np.where(active, flows.per_channel / w[:, None], 0.0)

    bar = _resolve_bar_potentials(phi, active, policy)

    r = np.zeros(g.shape)
    if policy == "grouped":
        code = _PASSTHROUGH
    else:
        drop = bar - phi
        moving = currents != 0.0  # absent branches carry exactly 0
        np.divide(drop, currents, out=r, where=moving)
        idle = np.where(drop == 0.0, _PASSTHROUGH, _OPEN)
        code = np.where(moving, np.where(r < 0.0, _NEGATIVE, _SERIES), idle)

    r[r == 0.0] = 0.0  # normalize -0.0 from zero drops over negative currents
    return CrossbarCircuit(
        frequencies=w,
        conductances=w[:, None] * g,
        node_potentials=phi,
        bar_potentials=bar,
        series_resistors=r,
        status_codes=np.where(active, code, _ABSENT),
        currents=currents,
        flows=flows,
    )


def crossbar_currents(crossbar: CrossbarCircuit) -> np.ndarray:
    """Re-solve the crossbar forward: per mode bar, a star with branch resistance
    R + r and source potentials Phi_j; open and absent branches carry no current.
    Reproduces the mapped currents (hence J/w) under the max and fixed policies.
    The grouped policy writes no series resistors, so each branch sees the
    shared bar potential instead of its own node potential, which differs by up
    to EncodeSettings.group_tol relative: its re-solved currents match only to
    that order.

    Degenerate case: with a uniform Phi across reservoir bars, the derived
    series resistors make the net branch conductance sum to exactly zero, so
    Kirchhoff alone leaves the mode-bar potential free (any value satisfies the
    node equation). The free potential is then pinned from the inner star
    (junction potentials weighted by the main conductances), which is the limit
    every non-degenerate perturbation of Phi selects.
    """
    connected = crossbar.status_codes >= _PASSTHROUGH
    # Branch resistance in J/w current units: 1/gamma + r, with
    # 1/gamma = w / (nominal conductance); unconnected branches get g = 0.
    w = crossbar.frequencies[:, None]
    g_main = np.where(connected, crossbar.conductances, 0.0) / w
    with np.errstate(divide="ignore"):
        r_tot = 1.0 / g_main + crossbar.series_resistors
    g = np.divide(1.0, r_tot, out=np.zeros_like(r_tot), where=connected)
    free = np.abs(g.sum(axis=1)) > 1e-8 * np.abs(g).sum(axis=1)
    weights = np.where(free[:, None], g, g_main)
    phi = np.where(free[:, None], crossbar.bar_potentials, crossbar.node_potentials)
    total = weights.sum(axis=1)
    node = np.divide(
        (phi * weights).sum(axis=1), total, out=np.zeros_like(total), where=total != 0.0
    )
    return np.where(connected, (crossbar.bar_potentials - node[:, None]) * g, 0.0)


# --- netlist export -----------------------------------------------------------
#
# SPICE-compatible subset, one element per line:
#   R<name> <node+> <node-> <ohms>
#   V<name> <node+> <node-> DC <volts>
# then a trailing ".end". Node naming: star circuits use n_center / n_res<j>;
# crossbars use mode bars b_<kappa>, reservoir bars c_<j> and junction nodes
# x_<kappa>_<j>. Values are shortest round-trip float reprs, so export is
# byte-deterministic. The header comment carries the first 16 hex digits of the
# SHA-256 of the newline-joined reprs of the element tuples
# (kind, name, node+, node-, value), in netlist order. A star is written as
# those tuples through format_netlist. The crossbar writer formats each value
# once and builds the tuple text and the netlist line from the same repr, in
# blocks that export_netlist hashes and joins one at a time, so no whole digest
# text is ever held.

_BLOCK = 4096  # crossbar branches per block of lines


def _check_finite(*values):
    if not all(np.isfinite(v).all() for v in values):
        raise FloatingPointError("NaN or Infinity in a netlist value")


def _crossbar_lines(circuit: CrossbarCircuit):
    """Blocks of (digest lines, netlist lines) of a crossbar: one V per reservoir
    bar, then the Rs/Rg pair of each wired branch as one two-line string, _BLOCK
    branches a block. The names are identifiers made from ints, so their reprs
    are the names in single quotes. The values are checked before the first
    block is formatted."""
    wired = circuit.status_codes >= _PASSTHROUGH
    kappas, js = np.nonzero(wired)
    bars = circuit.bar_potentials
    r_series = circuit.series_resistors[wired]
    conductances = circuit.conductances[wired]
    r_main = circuit.frequencies[kappas] / conductances
    # an infinite conductance would pass as a main resistor of 0
    _check_finite(bars, r_series, conductances, r_main)
    digest, lines = [], []
    for j, value in enumerate(map(repr, bars.tolist())):
        digest.append(f"('V', 'V{j}', 'c_{j}', '0', {value})")
        lines.append(f"V{j} c_{j} 0 DC {value}")
    yield digest, lines
    # index names as strings: formatting them costs more than a lookup
    kappa_names = list(map(str, range(circuit.frequencies.size)))
    j_names = list(map(str, range(bars.size)))
    for start in range(0, kappas.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        digest, lines = [], []
        for kappa, j, r_s, r_g in zip(
            kappas[block].tolist(),
            js[block].tolist(),
            map(repr, r_series[block].tolist()),
            map(repr, r_main[block].tolist()),
        ):
            k, j = kappa_names[kappa], j_names[j]
            kj = f"{k}_{j}"
            digest.append(
                f"('R', 'Rs_{kj}', 'c_{j}', 'x_{kj}', {r_s})\n"
                f"('R', 'Rg_{kj}', 'x_{kj}', 'b_{k}', {r_g})"
            )
            lines.append(f"Rs_{kj} c_{j} x_{kj} {r_s}\nRg_{kj} x_{kj} b_{k} {r_g}")
        yield digest, lines


def format_netlist(header_hash: str, elements) -> str:
    lines = [f"* thermoflow netlist {header_hash}"]
    for kind, name, pos, neg, value in elements:
        if kind == "R":
            lines.append(f"{name} {pos} {neg} {value!r}")
        else:
            lines.append(f"{name} {pos} {neg} DC {value!r}")
    lines.append(".end")
    return "\n".join(lines) + "\n"


def parse_netlist(text: str):
    """Parse our own netlist subset back into (header_hash, elements); round-trips
    byte-identically through format_netlist."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("* thermoflow netlist "):
        raise ConfigError("missing netlist header")
    header_hash = lines[0].removeprefix("* thermoflow netlist ")
    if not lines[-1] == ".end":
        raise ConfigError("missing .end terminator")
    elements = []
    for line in lines[1:-1]:
        parts = line.split()
        if parts[0].startswith("R") and len(parts) == 4:
            elements.append(("R", parts[0], parts[1], parts[2], float(parts[3])))
        elif parts[0].startswith("V") and len(parts) == 5 and parts[3] == "DC":
            elements.append(("V", parts[0], parts[1], parts[2], float(parts[4])))
        else:
            raise ConfigError(f"unparseable netlist line: {line!r}")
    return header_hash, elements


def export_netlist(circuit) -> str:
    """Deterministic netlist text for a star or crossbar circuit; a NaN or
    infinite element value, or crossbar conductance, raises FloatingPointError
    before anything is formatted."""
    if isinstance(circuit, StarCircuit):  # its R elements, then its V
        _check_finite(circuit.resistances, circuit.potentials)
        js = circuit.labels or range(circuit.resistances.size)
        r, v = circuit.resistances.tolist(), circuit.potentials.tolist()
        elements = [("R", f"R{j}", f"n_res{j}", "n_center", x) for j, x in zip(js, r)]
        elements += [("V", f"V{j}", f"n_res{j}", "0", x) for j, x in zip(js, v)]
        sha = hashlib.sha256("\n".join(map(repr, elements)).encode())
        return format_netlist(sha.hexdigest()[:16], elements)
    if not isinstance(circuit, CrossbarCircuit):
        raise ConfigError(f"cannot export {type(circuit).__name__} as a netlist")
    sha, chunks = hashlib.sha256(), []
    for digest, lines in _crossbar_lines(circuit):
        if chunks:
            sha.update(b"\n")
        sha.update("\n".join(digest).encode())
        chunks.append("\n".join(lines))
    chunks.insert(0, f"* thermoflow netlist {sha.hexdigest()[:16]}")
    chunks.append(".end\n")
    return "\n".join(chunks)

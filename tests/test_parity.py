"""Bit parity of the array-native compiler, decoder and crossbar with per-row
reference implementations.

The references below are the loop forms the library used before it worked on
whole arrays. The array forms keep every floating-point expression in the same
order, so compiled programs, decoded values, bounds, series resistors, branch
statuses and netlist bytes must match them exactly. Only the crossbar forward
solve sums in another order and is compared to a tolerance.
"""

import hashlib

import numpy as np
import pytest

from thermoflow import compiler, dynamics, physics
from thermoflow.circuit import (
    ABSENT,
    NEGATIVE,
    OPEN,
    PASSTHROUGH,
    SERIES,
    SolvabilityError,
    build_crossbar,
    crossbar_currents,
    export_netlist,
    format_netlist,
)
from thermoflow.cli import config_to_dict, dump_json, main, random_config
from thermoflow.compiler import EncodeSettings
from thermoflow.physics import (
    T_FLOOR,
    DeviceConfig,
    Mode,
    Reservoir,
    bose_occupancy,
    inverse_temperature,
)

# --- per-row references -------------------------------------------------------


def ref_group_deviation(base_frequency, delta, temperatures, base_occ):
    dev = 0.0
    for sign in (-1.0, 1.0):
        occ = bose_occupancy(base_frequency * (1.0 + sign * delta), temperatures[1:])
        dev = max(dev, float(np.max(np.abs(occ - base_occ) / base_occ)))
    return dev


def ref_solve_spread(base_frequency, temperatures, group_tol):
    base_occ = bose_occupancy(base_frequency, temperatures[1:])
    lo, hi = 0.0, 0.9
    if ref_group_deviation(base_frequency, 1e-13, temperatures, base_occ) > group_tol:
        return 0.0, True
    if ref_group_deviation(base_frequency, hi, temperatures, base_occ) <= group_tol:
        return hi, False
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if ref_group_deviation(base_frequency, mid, temperatures, base_occ) <= group_tol:
            lo = mid
        else:
            hi = mid
    return lo, False


def ref_compile(tasks, b, settings: EncodeSettings):
    """The compile row loop: one mode, one occupancy call and one row per row."""
    b = np.asarray(b, dtype=float)
    n = b.size
    temps = np.empty(n + 1)
    temps[0] = T_FLOOR
    temps[1:] = inverse_temperature(tasks[0][1], np.maximum(b, settings.occupancy_floor))
    freqs, rows, row_scales, row_dots, groups = [], [], [], [], []
    for p, w_g in tasks:
        p = np.asarray(p, dtype=float)
        m = p.shape[0]
        scales = p.sum(axis=1)
        p_hat = p / scales[:, None]
        if m == 1:
            spread, degenerate, deltas = 0.0, False, np.zeros(1)
        else:
            spread, degenerate = ref_solve_spread(w_g, temps, settings.group_tol)
            deltas = np.linspace(-spread, spread, m)
        input_occ = bose_occupancy(w_g, temps[1:])
        max_dev = 0.0
        for i in range(m):
            w_kappa = w_g * (1.0 + deltas[i])
            freqs.append(w_kappa)
            occ_i = bose_occupancy(w_kappa, temps[1:])
            max_dev = max(max_dev, float(np.max(np.abs(occ_i - input_occ) / input_occ)))
            row = np.empty(n + 1)
            row[1:] = settings.total_rate * p_hat[i]
            row[0] = settings.drain_ratio * row[1:].sum()
            rows.append(row)
            row_scales.append(scales[i])
            row_dots.append(float(p_hat[i] @ input_occ))
        groups.append((spread, degenerate, max_dev, input_occ))
    return {
        "couplings": np.array(rows),
        "frequencies": np.array(freqs),
        "temperatures": temps,
        "row_scales": np.array(row_scales),
        "row_dots": np.array(row_dots),
        "groups": groups,
    }


def ref_decode(program, flows, mode_indices):
    values, raw = [], []
    for kappa in mode_indices:
        g0 = program.config.couplings[kappa, 0]
        j0 = flows.per_channel[kappa, 0]
        w = program.config.modes[kappa].frequency
        values.append(program.row_scales[kappa] * (-j0 / (w * g0)))
        raw.append(j0)
    return np.array(values), np.array(raw)


def ref_error_bounds(program):
    eps = program.drain_ratio
    bounds = np.empty(program.row_dots.size)
    for group in program.groups:
        n0 = bose_occupancy(group.base_frequency, T_FLOOR)
        for kappa in group.mode_indices:
            d = program.row_dots[kappa]
            raw = (
                eps / (1.0 + eps) * d
                + group.max_occupancy_dev * d
                + program.occupancy_floor
                + n0
                + compiler._FP_CUSHION * (d + 1.0)
            )
            bounds[kappa] = program.row_scales[kappa] * raw
    return bounds


def ref_resistors_and_status(crossbar, active, policy):
    """The crossbar's per-branch series-resistor and status loop."""
    phi, bar = crossbar.node_potentials, crossbar.bar_potentials
    currents = crossbar.currents
    k, n1 = active.shape
    r = np.zeros((k, n1))
    status = np.full((k, n1), ABSENT, dtype=object)
    if policy == "grouped":
        status[active] = PASSTHROUGH
    else:
        for kappa in range(k):
            for j in range(n1):
                if not active[kappa, j]:
                    continue
                i = currents[kappa, j]
                drop = bar[j] - phi[kappa, j]
                if i != 0.0:
                    r[kappa, j] = drop / i
                    status[kappa, j] = NEGATIVE if r[kappa, j] < 0.0 else SERIES
                elif drop == 0.0:
                    status[kappa, j] = PASSTHROUGH
                else:
                    status[kappa, j] = OPEN
    r[r == 0.0] = 0.0
    return r, status


def ref_grouped_bad_bar(phi, active, group_tol):
    """First reservoir bar the grouped policy rejects, or None."""
    for j in range(phi.shape[1]):
        vals = phi[active[:, j], j]
        if vals.size == 0:
            continue
        scale = max(abs(vals).max(), 1e-300)
        if 0.5 * (vals.max() - vals.min()) > group_tol * scale:
            return j
    return None


def ref_crossbar_currents(crossbar):
    k, n1 = crossbar.conductances.shape
    out = np.zeros((k, n1))
    for kappa in range(k):
        connected = [
            j
            for j in range(n1)
            if crossbar.branch_status[kappa, j] in (SERIES, NEGATIVE, PASSTHROUGH)
        ]
        if not connected:
            continue
        g_main = crossbar.conductances[kappa, connected] / crossbar.frequencies[kappa]
        r_tot = 1.0 / g_main + crossbar.series_resistors[kappa, connected]
        phi = crossbar.bar_potentials[connected]
        g = 1.0 / r_tot
        if abs(g.sum()) > 1e-8 * np.abs(g).sum():
            node = (phi * g).sum() / g.sum()
        else:
            inner = crossbar.node_potentials[kappa, connected]
            node = (inner * g_main).sum() / g_main.sum()
        out[kappa, connected] = (phi - node) * g
    return out


def ref_netlist(circuit):
    k, n1 = circuit.conductances.shape
    elements = []
    for j in range(n1):
        elements.append(("V", f"V{j}", f"c_{j}", "0", float(circuit.bar_potentials[j])))
    for kappa in range(k):
        for j in range(n1):
            if circuit.branch_status[kappa, j] in (ABSENT, OPEN):
                continue
            r_s = float(circuit.series_resistors[kappa, j])
            r_g = float(circuit.frequencies[kappa] / circuit.conductances[kappa, j])
            elements.append(("R", f"Rs_{kappa}_{j}", f"c_{j}", f"x_{kappa}_{j}", r_s))
            elements.append(("R", f"Rg_{kappa}_{j}", f"x_{kappa}_{j}", f"b_{kappa}", r_g))
    digest = hashlib.sha256("\n".join(repr(e) for e in elements).encode())
    return format_netlist(digest.hexdigest()[:16], elements)


# --- comparisons --------------------------------------------------------------


def assert_same(actual, expected):
    """Equal shapes and values, and for floats equal signs of zero too."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)
    if actual.dtype.kind == "f":
        assert np.array_equal(np.signbit(actual), np.signbit(expected))


def assert_program_matches(program, ref):
    config = program.config
    assert_same(config.couplings, ref["couplings"])
    assert_same(config.frequencies, ref["frequencies"])
    assert_same(config.temperatures, ref["temperatures"])
    assert_same(program.row_scales, ref["row_scales"])
    assert_same(program.row_dots, ref["row_dots"])
    assert len(program.groups) == len(ref["groups"])
    for group, (spread, degenerate, max_dev, occ) in zip(program.groups, ref["groups"]):
        assert (group.spread, group.degenerate) == (spread, degenerate)
        assert group.max_occupancy_dev == max_dev
        assert_same(group.input_occupancies, occ)


def assert_decode_matches(program, results):
    """results: one DecodedResult per group of program."""
    flows = physics.stationary_flows(program.config)
    bounds = ref_error_bounds(program)
    assert_same(compiler.estimate_encoding_error(program), bounds)
    for group, result in zip(program.groups, results):
        values, raw = ref_decode(program, flows, group.mode_indices)
        assert_same(result.values, values)
        assert_same(result.raw_flows, raw)
        assert_same(result.error_bound, bounds[list(group.mode_indices)])


def problem(seed, m, n, signed=False):
    """Seeded matrix with zero entries (no all-zero row) and a vector with zeros
    spanning several decades."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0 if signed else 0.0, 1.0, (m, n))
    a[rng.random((m, n)) < 0.2] = 0.0
    a[:, 0] = np.where(np.all(a == 0.0, axis=1), 0.5, a[:, 0])
    b = rng.uniform(0.0, 10.0, n) * 10.0 ** rng.uniform(-4.0, 4.0, n)
    b[rng.random(n) < 0.2] = 0.0
    return a, b


OVERRIDES = {
    "base_frequency": 1.7,
    "drain_ratio": 1e-3,
    "total_rate": 2.5,
    "group_tol": 1e-2,
    "occupancy_floor": 1e-10,
}
SHAPES = [(m, n) for m in (1, 2, 16, 257) for n in (1, 16, 300)]


# --- tests --------------------------------------------------------------------


@pytest.mark.parametrize("settings", [{}, OVERRIDES], ids=["defaults", "overrides"])
@pytest.mark.parametrize("m, n", SHAPES)
def test_matvec_matches_row_loop(m, n, settings):
    a, b = problem(m * 1000 + n, m, n)
    program = compiler.encode_matvec(a, b, **settings)
    s = EncodeSettings(**settings)
    assert_program_matches(program, ref_compile([(a, s.base_frequency)], b, s))
    flows = physics.stationary_flows(program.config)
    assert_decode_matches(program, [compiler.decode_matvec(program, flows)])


@pytest.mark.parametrize("settings", [{}, OVERRIDES], ids=["defaults", "overrides"])
def test_scalar_matches_row_loop(settings):
    a, b = problem(5, 1, 40)
    program = compiler.encode_scalar_product(a[0], b, **settings)
    s = EncodeSettings(**settings)
    assert_program_matches(program, ref_compile([(a, s.base_frequency)], b, s))
    flows = physics.stationary_flows(program.config)
    assert_decode_matches(program, [compiler.decode_scalar_product(program, flows)])


@pytest.mark.parametrize("m, n", [(2, 16), (16, 300), (257, 16)])
def test_two_groups_match_row_loop(m, n):
    a, b = problem(m + n, m, n)
    a2, _ = problem(m + n + 1, 7, n)
    settings = {k: v for k, v in OVERRIDES.items() if k != "base_frequency"}
    tasks = [(a, 1.0), (a2, 3.0)]
    program = compiler.encode_parallel_matvec(tasks, b, **settings)
    s = EncodeSettings(base_frequency=1.0, **settings)
    assert_program_matches(program, ref_compile(tasks, b, s))
    flows = physics.stationary_flows(program.config)
    assert_decode_matches(program, compiler.parallel_group_products(program, flows))


@pytest.mark.parametrize("settings", [{}, OVERRIDES], ids=["defaults", "overrides"])
@pytest.mark.parametrize("m, n", [(2, 1), (16, 16), (257, 300)])
def test_signed_parts_match_row_loop(m, n, settings):
    a, b = problem(m * 7 + n, m, n, signed=True)
    s = EncodeSettings(**settings)
    parts = compiler.encode_signed_matvec(a, b, **settings)
    for sign, rows, program in parts:
        part = compiler.signed_split(a)[0 if sign > 0 else 1][rows]
        assert_program_matches(program, ref_compile([(part, s.base_frequency)], b, s))
        flows = physics.stationary_flows(program.config)
        assert_decode_matches(program, [compiler.decode_matvec(program, flows)])


def crossbar_configs():
    rng = np.random.default_rng(606)
    configs = [random_config(rng, 8, 32, allow_zero_couplings=True) for _ in range(60)]
    for seed in range(6):
        a, b = problem(seed, 12, 9)
        configs.append(compiler.encode_matvec(a, b).config)
    # mode 0 couples to the drain alone and carries no current: passthrough
    # under the max policy, open under a fixed bar
    reservoirs = (Reservoir(T_FLOOR, is_drain=True), Reservoir(1.0), Reservoir(2.0))
    couplings = [[1.0, 0.0, 0.0], [1.0, 1.0, 0.5]]
    configs.append(DeviceConfig((Mode(1.0), Mode(2.0)), reservoirs, couplings))
    return configs


@pytest.mark.parametrize("name", ["max", "fixed", "grouped"])
def test_crossbar_matches_branch_loop(name):
    checked = 0
    for config in crossbar_configs():
        active = config.couplings > 0.0
        phi = physics.occupancy_table(config)
        # a uniform fixed bar above every node potential takes the degenerate pin
        policy = ("fixed", float(phi.max()) + 1.0) if name == "fixed" else name
        if name == "grouped":
            bad = ref_grouped_bad_bar(phi, active, 1e-3)
            if bad is not None:
                with pytest.raises(SolvabilityError, match=f"bar {bad};"):
                    build_crossbar(config, policy=policy)
                continue
        crossbar = build_crossbar(config, policy=policy)
        r, status = ref_resistors_and_status(crossbar, active, policy)
        assert_same(crossbar.series_resistors, r)
        assert_same(crossbar.branch_status, status)
        assert export_netlist(crossbar) == ref_netlist(crossbar)
        # the forward solve sums over whole rows, so it may differ by rounding
        ref = ref_crossbar_currents(crossbar)
        atol = 1e-11 * np.abs(ref).max()
        np.testing.assert_allclose(crossbar_currents(crossbar), ref, rtol=0, atol=atol)
        checked += 1
    assert checked >= 6


def test_transient_csv_matches_row_loop(tmp_path):
    a, b = problem(3, 5, 4)
    config = compiler.encode_matvec(a, b).config
    doc = tmp_path / "config.json"
    doc.write_text(dump_json({"type": "raw_config", "config": config_to_dict(config)}))
    out = tmp_path / "trace.csv"
    assert main(["transient", str(doc), "--samples", "7", "--output", str(out)]) == 0
    t_end = dynamics.stationary_window(config)
    trace = dynamics.evolve(config, np.zeros(config.n_modes), t_end, 7)
    lines = out.read_text().splitlines()[1:]
    assert len(lines) == 7
    for i, line in enumerate(lines):
        cells = [repr(float(trace.times[i]))]
        cells += [repr(float(x)) for x in trace.occupancies[i]]
        cells += [repr(float(x)) for x in trace.flows[i]]
        assert line == ",".join(cells)

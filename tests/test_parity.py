"""Bit parity of the array-native compiler, decoder and crossbar with per-row
reference implementations.

The references below are the loop forms the library used before it worked on
whole arrays. The array forms keep every floating-point expression in the same
order, so compiled programs, decoded values, bounds, series resistors, branch
statuses and netlist bytes must match them exactly. The netlist references build
the element tuples, hash their reprs and format them with format_netlist. Only
the crossbar forward solve sums in another order and is compared to a tolerance.

The JSON writer is compared the same way, with json.dumps as its reference.
"""

import dataclasses
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoflow import compiler, dynamics, physics
from thermoflow.circuit import (
    ABSENT,
    NEGATIVE,
    OPEN,
    PASSTHROUGH,
    SERIES,
    SolvabilityError,
    StarCircuit,
    build_crossbar,
    crossbar_currents,
    export_netlist,
    format_netlist,
    oqs_to_star,
)
from thermoflow.cli import (
    compile_problem,
    config_hash,
    config_to_dict,
    dump_json,
    main,
    random_config,
    run_compiled,
)
from thermoflow.compiler import EncodeSettings
from thermoflow.physics import (
    T_FLOOR,
    DeviceConfig,
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


def ref_bose(x):
    """The np.where form of physics._bose, with a fresh array per step."""
    occ = 1.0 / np.expm1(np.minimum(x, physics._X_FLUSH))
    return np.where((x >= physics._X_FLUSH) | (occ < physics.OCCUPANCY_FLUSH), 0.0, occ)


def ref_stationary_state(config):
    """A fresh occupancy table from ref_bose, total rates and n_tilde."""
    occ = ref_bose(config.frequencies[:, None] / config.temperatures[None, :])
    g = config.couplings
    rates = g.sum(axis=1)
    return occ, rates, (g * occ).sum(axis=1) / rates


def ref_flows(config):
    """The flows expression w gamma (n_j - n_tilde) with fresh temporaries."""
    occ, _, n_tilde = ref_stationary_state(config)
    return config.frequencies[:, None] * config.couplings * (occ - n_tilde[:, None])


def ref_max_occupancy_dev(program, group):
    """The group deviation from a table of the group's own modes."""
    freqs = program.config.frequencies[list(group.mode_indices)]
    temps = program.config.temperatures
    base_occ = ref_bose(group.base_frequency / temps[1:])
    with np.errstate(all="ignore"):
        occ = ref_bose(freqs[:, None] / temps[None, 1:])
        return max(0.0, *(np.abs(occ - base_occ) / base_occ).max(axis=1).tolist())


def ref_settling_time(config, initial_occupancies, rel_tol):
    """The settling-time mode loop."""
    _, rates, n_tilde = ref_stationary_state(config)
    t = 0.0
    for delta, rate, target in zip(initial_occupancies - n_tilde, rates, n_tilde):
        if delta == 0.0:
            continue
        scale = rel_tol * max(target, dynamics.SETTLING_FLOOR)
        t = max(t, math.log(abs(delta) / scale) / rate)
    return float(t)


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
        w = program.config.frequencies[kappa]
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


def ref_star_netlist(circuit):
    labels = circuit.labels or tuple(range(circuit.resistances.size))
    elements = []
    for j, res in zip(labels, circuit.resistances):
        elements.append(("R", f"R{j}", f"n_res{j}", "n_center", float(res)))
    for j, phi in zip(labels, circuit.potentials):
        elements.append(("V", f"V{j}", f"n_res{j}", "0", float(phi)))
    digest = hashlib.sha256("\n".join(repr(e) for e in elements).encode())
    return format_netlist(digest.hexdigest()[:16], elements)


def ref_dump_json(doc):
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def ref_config_hash(config):
    canonical = json.dumps(config_to_dict(config), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


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


def spread_cases(seed, count):
    """(base_frequency, temperatures, group_tol) over the documented domain: up
    to 300 inputs b spanning 1e-8..1e8 with about 10 % zeros (floored as the
    compiler floors them), w in 1e-3..1e3 and group_tol in 1e-5..1e-1."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 301))
        b = 10.0 ** rng.uniform(-8.0, 8.0, n)
        b[rng.random(n) < 0.1] = 0.0
        w = 10.0 ** rng.uniform(-3.0, 3.0)
        temps = np.empty(n + 1)
        temps[0] = T_FLOOR
        temps[1:] = inverse_temperature(w, np.maximum(b, 1e-12))
        yield w, temps, 10.0 ** rng.uniform(-5.0, -1.0)


def counted_bisections(monkeypatch):
    """Record the guess of every compiler._bisect call; NaN marks the plain
    bisection, which runs after a failed certificate."""
    guesses = []
    bisect = compiler._bisect

    def counted(within, guess):
        guesses.append(guess)
        return bisect(within, guess)

    monkeypatch.setattr(compiler, "_bisect", counted)
    return guesses


def test_spread_solve_matches_plain_bisection(monkeypatch):
    guesses = counted_bisections(monkeypatch)
    for w, temps, tol in spread_cases(80, 500):
        assert compiler._solve_spread(w, temps, tol) == ref_solve_spread(w, temps, tol)
    # the closed-form guess decides the far steps and its bracket checks out
    assert len(guesses) == 500
    assert all(math.isfinite(g) for g in guesses)


@pytest.mark.parametrize("error", [1e-6, -1e-6])
def test_wrong_spread_guess_falls_back(monkeypatch, error):
    guess = compiler._spread_guess
    monkeypatch.setattr(
        compiler, "_spread_guess", lambda occ, tol: guess(occ, tol) * (1.0 + error)
    )
    guesses = counted_bisections(monkeypatch)
    for w, temps, tol in spread_cases(81, 60):
        assert compiler._solve_spread(w, temps, tol) == ref_solve_spread(w, temps, tol)
    # every guessed path failed its certificate and ran the plain bisection
    assert len(guesses) == 120
    assert all(math.isnan(g) for g in guesses[1::2])


# w/T quotients from 1e-12 to 1e3: tiny, moderate, and past the flush point
BOSE_SHAPES = [(k, n) for k in range(1, 34) for n in range(1, 34)] + [(1024, 257)]


def test_bose_matches_where_form():
    rng = np.random.default_rng(901)
    for shape in BOSE_SHAPES:
        x = 10.0 ** rng.uniform(-12.0, 3.0, shape)
        assert_same(physics._bose(x.copy()), ref_bose(x))


@pytest.mark.parametrize("x", [3.0, np.float64(1e-9), np.array(700.0), np.array(0.5)])
def test_bose_matches_where_form_0d(x):
    occ = physics._bose(x.copy() if isinstance(x, np.ndarray) else x)
    assert occ.ndim == 0
    assert_same(occ, ref_bose(x))
    single = bose_occupancy(float(x), 1.0)
    assert type(single) is float
    assert_same(single, float(ref_bose(x)))


def test_bose_matches_where_form_in_flush_region():
    flush = physics._X_FLUSH
    x = np.array(
        [np.nextafter(flush, 0.0), flush, np.nextafter(flush, np.inf), 690.78, 700.0]
        + [1e3, 1e10, 1e300, np.inf]
    )
    assert_same(physics._bose(x.copy()), ref_bose(x))
    assert np.all(ref_bose(x)[1:] == 0.0)


def test_bose_matches_where_form_across_occupancy_flush():
    # 4000 ulps below the flush point: 1/expm1(x) crosses OCCUPANCY_FLUSH there
    x = physics._X_FLUSH + np.arange(-4000, 1) * np.spacing(physics._X_FLUSH)
    occ = ref_bose(x)
    assert (occ == 0.0).any()
    assert ((occ > 0.0) & (occ < 1.000001 * physics.OCCUPANCY_FLUSH)).any()
    assert_same(physics._bose(x.copy()), occ)


def wide_problems(seed, count):
    """(matrix, vector, settings) over the documented domain: m, n in 1..299,
    b spanning 1e-8..1e8 with about 10 % zeros, and random settings."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m, n = (int(v) for v in rng.integers(1, 300, 2))
        a = rng.uniform(0.0, 1.0, (m, n))
        a[rng.random((m, n)) < 0.2] = 0.0
        a[:, 0] = np.where(np.all(a == 0.0, axis=1), 0.5, a[:, 0])
        b = 10.0 ** rng.uniform(-8.0, 8.0, n)
        b[rng.random(n) < 0.1] = 0.0
        settings = {
            "base_frequency": 10.0 ** rng.uniform(-3.0, 3.0),
            "drain_ratio": 10.0 ** rng.uniform(-6.0, -2.0),
            "total_rate": 10.0 ** rng.uniform(-2.0, 2.0),
            "group_tol": 10.0 ** rng.uniform(-5.0, -1.0),
            "occupancy_floor": 10.0 ** rng.uniform(-14.0, -8.0),
        }
        yield a, b, settings


def test_shared_table_matches_fresh_temporaries():
    """The device's one occupancy table, and the flows, settling times and
    group deviations read off it, against the forms that built a fresh table
    and fresh temporaries at every step."""
    rng = np.random.default_rng(903)
    for a, b, settings in wide_problems(902, 300):
        program = compiler.encode_matvec(a, b, **settings)
        config = program.config
        [group] = program.groups
        assert group.max_occupancy_dev == ref_max_occupancy_dev(program, group)
        assert_same(config.occupancies, ref_stationary_state(config)[0])
        assert_same(physics.stationary_flows(config).per_channel, ref_flows(config))
        n_tilde = ref_stationary_state(config)[2]
        for init in (np.zeros(config.n_modes), n_tilde * rng.uniform(0.0, 3.0)):
            assert_same(
                dynamics.settling_time(config, init, 1e-6),
                ref_settling_time(config, init, 1e-6),
            )


def settling_configs():
    """Compiled and random devices with initial occupancies: empty, random, and
    some or all modes starting at their fixed point."""
    rng = np.random.default_rng(707)
    configs = [random_config(rng, 8, 32, allow_zero_couplings=True) for _ in range(30)]
    for seed in range(4):
        a, b = problem(seed, 12, 9)
        configs.append(compiler.encode_matvec(a, b).config)
    for config in configs:
        n_tilde = physics.stationary_state(config)[2]
        yield config, np.zeros(config.n_modes)
        yield config, n_tilde * rng.uniform(0.0, 3.0, config.n_modes)
        some = np.where(rng.random(config.n_modes) < 0.5, n_tilde, 0.0)
        yield config, some
        yield config, n_tilde.copy()


@pytest.mark.parametrize("rel_tol", [1e-6, 1e-2, 0.5])
def test_settling_time_matches_mode_loop(rel_tol):
    fixed_points = 0
    for config, init in settling_configs():
        t = dynamics.settling_time(config, init, rel_tol)
        assert_same(t, ref_settling_time(config, init, rel_tol))
        fixed_points += t == 0.0
    assert fixed_points >= 34  # every all-at-fixed-point start gives exactly 0


def test_settling_time_logs_like_math_log():
    """Starts whose deviation ratio np.log rounds unlike math.log (5 of these
    10^5 with numpy 2.4 on AVX-512): the settling time must still equal the
    mode loop's."""
    rng = np.random.default_rng(708)
    config = DeviceConfig([1.3], [T_FLOOR, 0.7, 2.0], [[1e-4, 0.6, 0.4]])
    n_tilde = physics.stationary_state(config)[2]
    starts = n_tilde * (1.0 + 10.0 ** rng.uniform(-5.0, 6.0, 100_000))
    ratio = np.abs(starts - n_tilde) / (1e-6 * np.maximum(n_tilde, 1e-15))
    hard = starts[np.log(ratio) != [math.log(r) for r in ratio.tolist()]]
    for start in hard[:20]:
        init = np.array([start])
        assert_same(
            dynamics.settling_time(config, init, 1e-6),
            ref_settling_time(config, init, 1e-6),
        )


def crossbar_configs():
    rng = np.random.default_rng(606)
    configs = [random_config(rng, 8, 32, allow_zero_couplings=True) for _ in range(60)]
    for seed in range(6):
        a, b = problem(seed, 12, 9)
        configs.append(compiler.encode_matvec(a, b).config)
    # mode 0 couples to the drain alone and carries no current: passthrough
    # under the max policy, open under a fixed bar
    couplings = [[1.0, 0.0, 0.0], [1.0, 1.0, 0.5]]
    configs.append(DeviceConfig([1.0, 2.0], [T_FLOOR, 1.0, 2.0], couplings))
    return configs


@pytest.mark.parametrize("name", ["max", "fixed", "grouped"])
def test_crossbar_matches_branch_loop(name):
    checked = 0
    for config in crossbar_configs():
        active = config.couplings > 0.0
        phi = config.occupancies
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


def test_star_netlist_matches_tuple_path():
    for config in crossbar_configs():
        for kappa in range(config.n_modes):
            star = oqs_to_star(config, kappa)
            assert export_netlist(star) == ref_star_netlist(star)
    resistances = np.array([0.5, 2.0, 1e-300])
    potentials = np.array([-0.0, 3.0000000000000004, 1e300])
    # names whose reprs take double quotes or escapes
    for labels in (None, ("a'b", 'a"b', "a'\"b")):
        star = StarCircuit(resistances, potentials, labels)
        assert export_netlist(star) == ref_star_netlist(star)


NON_FINITE = [np.nan, np.inf, -np.inf]


@pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", ["bar_potentials", "series_resistors", "conductances"])
def test_non_finite_crossbar_value_refused(field, value):
    crossbar = build_crossbar(crossbar_configs()[-1])
    assert export_netlist(crossbar) == ref_netlist(crossbar)
    array = getattr(crossbar, field).copy()
    # the last wired branch; bar potentials are exported whether wired or not
    array[..., -1] = value
    assert crossbar.branch_status[-1, -1] == SERIES
    with pytest.raises(FloatingPointError):
        export_netlist(dataclasses.replace(crossbar, **{field: array}))


@pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf", "-inf"])
def test_non_finite_star_potential_refused(value):
    star = oqs_to_star(crossbar_configs()[-1], 1)
    potentials = star.potentials.copy()
    potentials[-1] = value
    with pytest.raises(FloatingPointError):
        export_netlist(dataclasses.replace(star, potentials=potentials))


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


# --- JSON writer ----------------------------------------------------------------

FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e16, 1e-7, 0.1, 1.7976931348623157e308]
)
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | FLOATS
    | FLOATS.map(np.float64)
    | st.text()
    | st.sampled_from(['"', "\\", "\n\t\x00", "\u00e9\u2603", "\U0001f600", ""])
)
NUMBER_LISTS = st.lists(FLOATS | st.integers(), min_size=1)


def containers(children):
    return (
        st.lists(children)
        | st.lists(children).map(tuple)
        | st.dictionaries(st.text(), children)
        | st.lists(NUMBER_LISTS, min_size=1)
    )


DOCUMENTS = st.recursive(SCALARS | NUMBER_LISTS, containers, max_leaves=30)


@settings(max_examples=150, deadline=None)
@given(DOCUMENTS)
def test_dump_json_matches_json_dumps(doc):
    assert dump_json(doc) == ref_dump_json(doc)


@pytest.mark.parametrize("seed", range(4))
def test_config_documents_match_json_dumps(seed):
    rng = np.random.default_rng(seed)
    for _ in range(50):
        config = random_config(rng, 8, 32, allow_zero_couplings=True)
        doc = {"config": config_to_dict(config), "empty": {}, "none": []}
        assert dump_json(doc) == ref_dump_json(doc)
        assert config_hash(doc["config"]) == ref_config_hash(config)


def report_256():
    rng = np.random.default_rng(256)
    problem = {
        "kind": "matvec",
        "matrix": rng.uniform(0.0, 1.0, (256, 256)).tolist(),
        "vector": rng.uniform(1e-6, 10.0, 256).tolist(),
    }
    return run_compiled(compile_problem(problem), True, problem)


def test_dump_json_peak_memory_within_reference():
    report = report_256()
    tracemalloc.start()
    try:
        text = ref_dump_json(report)
        ref_peak = tracemalloc.get_traced_memory()[1]
        del text
        tracemalloc.reset_peak()
        text = dump_json(report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == ref_dump_json(report)
    assert peak <= ref_peak


def test_export_netlist_peak_memory_within_reference():
    a, b = problem(128, 128, 128)
    crossbar = build_crossbar(compiler.encode_matvec(a, b).config)
    tracemalloc.start()
    try:
        text = ref_netlist(crossbar)
        ref_peak = tracemalloc.get_traced_memory()[1]
        del text
        tracemalloc.reset_peak()
        text = export_netlist(crossbar)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == ref_netlist(crossbar)
    assert peak <= ref_peak

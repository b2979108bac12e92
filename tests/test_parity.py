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
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import counted_builds
from thermoflow import cli, compiler, dynamics, physics
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
    _checked,
    compile_problem,
    config_hash,
    config_to_dict,
    dump_json,
    main,
    program_from_dict,
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


def ref_entry_deviation(occ, base_occ):
    """The largest |occ - base_occ| / base_occ over every entry, skipping a
    0/0 one (an occupancy and its base both flushed to 0); 0 when all are."""
    with np.errstate(all="ignore"):
        dev = np.abs(occ - base_occ) / base_occ
    return float(dev[~np.isnan(dev)].max(initial=0.0))


def ref_max_occupancy_dev(program, group):
    """The group deviation from a table of the group's own modes."""
    freqs = program.config.frequencies[list(group.mode_indices)]
    temps = program.config.temperatures
    base_occ = ref_bose(group.base_frequency / temps[1:])
    return ref_entry_deviation(ref_bose(freqs[:, None] / temps[None, 1:]), base_occ)


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
        part = dict(compiler._signed_parts(a))[sign][rows]
        assert_program_matches(program, ref_compile([(part, s.base_frequency)], b, s))
        flows = physics.stationary_flows(program.config)
        assert_decode_matches(program, [compiler.decode_matvec(program, flows)])


def spread_cases(seed, count, max_n=300, min_tol=1e-5):
    """(base_frequency, temperatures, group_tol) over the documented domain: up
    to max_n inputs b spanning 1e-8..1e8 with about 10 % zeros (floored as the
    compiler floors them), w in 1e-3..1e3 and group_tol in min_tol..1e-1."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, max_n + 1))
        b = 10.0 ** rng.uniform(-8.0, 8.0, n)
        b[rng.random(n) < 0.1] = 0.0
        w = 10.0 ** rng.uniform(-3.0, 3.0)
        temps = np.empty(n + 1)
        temps[0] = T_FLOOR
        temps[1:] = inverse_temperature(w, np.maximum(b, 1e-12))
        yield w, temps, 10.0 ** rng.uniform(math.log10(min_tol), -1.0)


def counted_spread_solves(monkeypatch):
    """Count the spread predicate's calls, one _bose table each, and record for
    every compiler._bisect call whether it ran the plain bisection, which calls
    the predicate itself; the window search decides from the found threshold."""
    calls, plain = [0], []
    bose, bisect = compiler._bose, compiler._bisect

    def counted_bose(x):
        calls[0] += 1
        return bose(x)

    def counted_bisect(decide):
        before = calls[0]
        result = bisect(decide)
        plain.append(calls[0] > before)
        return result

    monkeypatch.setattr(compiler, "_bose", counted_bose)
    monkeypatch.setattr(compiler, "_bisect", counted_bisect)
    return calls, plain


def test_spread_solve_matches_plain_bisection(monkeypatch):
    _, plain = counted_spread_solves(monkeypatch)
    for w, temps, tol in spread_cases(80, 500, max_n=1024, min_tol=1e-6):
        assert compiler._solve_spread(w, temps, tol)[:2] == ref_solve_spread(w, temps, tol)
    # the guess window holds every threshold and every final bracket checks out
    assert plain == [False] * 500


@pytest.mark.parametrize("error", [1e-6, -1e-6])
def test_wrong_spread_guess_falls_back(monkeypatch, error):
    guess = compiler._spread_guess
    monkeypatch.setattr(
        compiler, "_spread_guess", lambda occ, tol: guess(occ, tol) * (1.0 + error)
    )
    _, plain = counted_spread_solves(monkeypatch)
    for w, temps, tol in spread_cases(81, 60):
        assert compiler._solve_spread(w, temps, tol)[:2] == ref_solve_spread(w, temps, tol)
    # the window misses every threshold, so only the plain bisection ran
    assert plain == [True] * 60


def test_spread_solve_calls_are_few(monkeypatch):
    """Predicate calls per solve on lib-sized inputs (n <= 16, b in [1e-6, 10]
    with zeros, default w and group_tol): the window and the certificate; the
    plain bisection makes 81."""
    calls, plain = counted_spread_solves(monkeypatch)
    rng = np.random.default_rng(83)
    per_solve = []
    for _ in range(300):
        n = int(rng.integers(1, 17))
        b = rng.uniform(1e-6, 10.0, n)
        b[rng.random(n) < 0.1] = 0.0
        temps = np.concatenate(([T_FLOOR], inverse_temperature(1.0, np.maximum(b, 1e-12))))
        calls[0] = 0
        compiler._solve_spread(1.0, temps, 1e-3)
        per_solve.append(calls[0])
    assert per_solve == [2] * 300
    assert not any(plain)


def recorded_spread_solves(monkeypatch):
    """Record, in call order, the number of deltas each spread predicate call
    evaluates (one _bose table each) and, as None, each compiler._bisect call
    given a float threshold."""
    log = []
    bose, bisect = compiler._bose, compiler._bisect

    def recorded_bose(x):
        log.append(x.size // (2 * x.shape[-1]))  # within's (2, deltas, n) table
        return bose(x)

    def recorded_bisect(decide):
        if isinstance(decide, float):
            log.append(None)
        return bisect(decide)

    monkeypatch.setattr(compiler, "_bose", recorded_bose)
    monkeypatch.setattr(compiler, "_bisect", recorded_bisect)
    return log


def test_spread_solve_calls_and_points_at_1024_inputs(monkeypatch):
    """At n = 1024 the search makes two calls: the two ends and the window of
    2 * _WINDOW + 1 factors a side, then the certificate's two deltas."""
    log = recorded_spread_solves(monkeypatch)
    rng = np.random.default_rng(86)
    for _ in range(10):
        b = rng.uniform(1e-6, 10.0, 1024)
        b[rng.random(1024) < 0.1] = 0.0
        temps = np.concatenate(([T_FLOOR], inverse_temperature(1.0, np.maximum(b, 1e-12))))
        log.clear()
        assert compiler._solve_spread(1.0, temps, 1e-3)[:2] == ref_solve_spread(1.0, temps, 1e-3)
        # the window gave the threshold, and the certificate held
        assert log == [2 + 2 * compiler._WINDOW + 1, None, 2]


@pytest.mark.parametrize("bracket", ["wider", "collapsed"])
def test_spread_solve_certifies_a_bracket_it_has_not_evaluated(monkeypatch, bracket):
    """The certificate call is skipped only for the bracket (t, next double
    after t), whose ends the search evaluated. A wider bracket is certified
    (one call of two deltas); a collapsed one fails it, and the plain
    bisection runs, then one call for the deviation at its result."""
    log = recorded_spread_solves(monkeypatch)
    bisect = compiler._bisect

    def other_bracket(decide):
        lo, hi = bisect(decide)
        if not isinstance(decide, float):
            return lo, hi
        return (lo, math.nextafter(hi, 1.0)) if bracket == "wider" else (lo, lo)

    monkeypatch.setattr(compiler, "_bisect", other_bracket)
    for w, temps, tol in spread_cases(85, 60):
        log.clear()
        assert compiler._solve_spread(w, temps, tol)[:2] == ref_solve_spread(w, temps, tol)
        # the search found every case's threshold; the calls after it, the
        # plain bisection's ending in one for the deviation at its result
        after = log[log.index(None) + 1 :]
        assert after == ([2] if bracket == "wider" else [2] + [1] * 81)


def bits(*values):
    return np.array(values).view(np.int64).tolist()


def synthetic_spread_solve(monkeypatch, within_factor, guess, k=compiler._WINDOW):
    """_solve_spread on a one-reservoir device (w = T = 1, so the predicate's
    frequencies are its factors) whose occupancy stays at its base value 1
    where within_factor(factor) holds and doubles elsewhere (group_tol 0.5),
    with the given guess and a window of k doubles a side. Returns the result,
    the predicate's calls, the float thresholds given to _bisect and whether
    each _bisect call ran the plain bisection."""
    monkeypatch.setattr(
        compiler, "_bose", lambda x: np.where(np.vectorize(within_factor)(x), 1.0, 2.0)
    )
    monkeypatch.setattr(compiler, "_spread_guess", lambda occ, tol: guess)
    monkeypatch.setattr(compiler, "_STEPS", np.arange(-k, k + 1) * np.array([[-1], [1]]))
    calls, plain = counted_spread_solves(monkeypatch)
    thresholds, bisect = [], compiler._bisect

    def recorded_bisect(decide):
        if isinstance(decide, float):
            thresholds.append(decide)
        return bisect(decide)

    monkeypatch.setattr(compiler, "_bisect", recorded_bisect)
    temps = np.array([T_FLOOR, 1.0])
    result = compiler._solve_spread(1.0, temps, 0.5, base_occ=np.array([1.0]))
    return result, calls[0], thresholds, plain


def plain_spread(within):
    """The reference's 80 steps on [0, 0.9] for a predicate within(delta) that
    holds at 1e-13 and fails at 0.9."""
    lo, hi = 0.0, 0.9
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if within(mid) else (lo, mid)
    return lo, False


@pytest.mark.parametrize("k", [4, 5, 32])
@pytest.mark.parametrize("gap", [1, 2, 3, 5, 6, 33, 1000, 10**7])
def test_threshold_finds_last_double_within(monkeypatch, k, gap):
    """A predicate that holds between the factors lo_f and hi_f: on the binding
    side the last factor within lies gap // 3 doubles past fl(1 -+ guess); on
    the other side, whose doubles are half (minus) or twice (plus) as wide,
    just enough doubles further that its last delta within is larger. A window
    of k doubles a side holds the binding turn when gap // 3 < k: the
    threshold given to _bisect is then the last delta within (the next double
    is not), and the certificate holds. Otherwise every window answer is True
    and the plain bisection runs, with one more call for the deviation."""
    guess, q = 1e-3, gap // 3
    centre = dict(zip((-1.0, 1.0), bits(1.0 - guess, 1.0 + guess)))
    for binding in (-1.0, 1.0):
        other = 2 * q + 3 if binding > 0 else q // 2 + 2
        past = {s: q if s == binding else other for s in (-1.0, 1.0)}
        lo_f, hi_f = (float(np.int64(centre[s] + s * past[s]).view(float)) for s in (-1, 1))

        def within(delta, lo_f=lo_f, hi_f=hi_f):
            return lo_f <= 1.0 - delta and 1.0 + delta <= hi_f

        result, calls, thresholds, plain = synthetic_spread_solve(
            monkeypatch, lambda f, lo_f=lo_f, hi_f=hi_f: lo_f <= f <= hi_f, guess, k
        )
        assert result[:2] == plain_spread(within)
        if q < k:
            [t] = thresholds
            assert within(t) and not within(math.nextafter(t, 1.0))
            assert (calls, plain) == (2, [False])
        else:
            assert (calls, thresholds, plain) == (82, [], [True])


def test_threshold_gives_up_on_non_monotone_predicate(monkeypatch):
    """Window answers that alternate (a factor within when its last significand
    bit is even) are not True then False: after the one window call, only the
    plain bisection runs, with no certificate, and one call for the deviation."""

    def alternating(f):
        return abs(f - 1.0) < 1e-6 or (abs(f - 1.0) < 0.5 and bits(f)[0] % 2 == 0)

    result, calls, thresholds, plain = synthetic_spread_solve(monkeypatch, alternating, 1e-3)
    assert result[:2] == plain_spread(lambda d: alternating(1.0 - d) and alternating(1.0 + d))
    assert (calls, thresholds, plain) == (82, [], [True])


@pytest.mark.parametrize("sign", [-1.0, 1.0])
def test_last_delta_is_the_rounding_boundary(sign):
    """_last_delta(F, sign) is the largest delta with fl(1 + sign * delta) on
    F's side: the next double after it rounds past F. Seeded factors F on both
    sides of 1, with even and odd last significand bits, from 1 ulp up to a
    half above 1 or a quarter below it."""
    rng = np.random.default_rng(87)
    ulp = 2.0**-52 if sign > 0 else 2.0**-53
    steps = [1, 2, 3, 4, *rng.integers(5, 2**20, 40), *rng.integers(2**20, 2**51, 40)]
    parities = set()
    for step in map(int, steps):
        factor = 1.0 + sign * step * ulp
        delta = compiler._last_delta(factor, sign)
        beyond = math.nextafter(delta, math.inf)
        if sign > 0:
            assert 1.0 + delta <= factor < 1.0 + beyond
        else:
            assert 1.0 - delta >= factor > 1.0 - beyond
        parities.add(step % 2)
    assert parities == {0, 1}


# numpy dispatch groups above the x86-64 build baseline (X86_V2)
ABOVE_BASELINE = "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"


def at_baseline_dispatch(code, *args):
    """stdout of a child interpreter that runs code, with args, under numpy's
    baseline loops only and with test_parity importable."""
    tests = Path(__file__).resolve().parent
    code = (
        "from numpy._core._multiarray_umath import __cpu_features__\n"
        "assert not __cpu_features__.get('X86_V3')\n" + code
    )
    env = dict(
        os.environ,
        NPY_DISABLE_CPU_FEATURES=ABOVE_BASELINE,
        PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]),
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.skipif(
    platform.machine() not in ("x86_64", "AMD64"), reason="names x86-64 dispatch groups"
)
def test_spread_solve_matches_plain_bisection_at_baseline_dispatch():
    """The batched predicate answers as the single calls do under numpy's
    baseline loops too, whose expm1 and log1p round differently."""
    code = (
        "from test_parity import compiler, ref_solve_spread, spread_cases\n"
        "cases = list(spread_cases(84, 100))\n"
        "print(sum(compiler._solve_spread(*c)[:2] != ref_solve_spread(*c) for c in cases))\n"
    )
    assert at_baseline_dispatch(code) == "0\n"


def compiled_programs(seed, count):
    """Compiled program documents of seeded matvec and signed problems (m, n up
    to 40, b scaled 1e-6..1e6 with zeros, w in 1e-2..1e2, group_tol in
    1e-6..1e-1), a signed problem's parts each on its own."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m, n = (int(k) for k in rng.integers(1, 41, 2))
        kind = "signed_matvec" if rng.random() < 0.3 else "matvec"
        a = rng.uniform(-1.0 if kind == "signed_matvec" else 0.0, 1.0, (m, n))
        a[rng.random((m, n)) < 0.1] = 0.0
        a[np.abs(a).sum(axis=1) == 0.0, 0] = 0.5
        b = 10.0 ** rng.uniform(-6.0, 6.0, n) * rng.random()
        b[rng.random(n) < 0.1] = 0.0
        settings = {
            "base_frequency": 10.0 ** rng.uniform(-2.0, 2.0),
            "group_tol": 10.0 ** rng.uniform(-6.0, -1.0),
        }
        doc = compile_problem(
            {"kind": kind, "matrix": a.tolist(), "vector": b.tolist(), "settings": settings}
        )
        if kind == "matvec":
            yield doc
        else:
            yield from (part["program"] for part in doc["parts"].values())


def derived_gaps(docs):
    """Worst relative gap of the recorded input_occupancies and worst absolute
    gap of the recorded max_occupancy_dev against the values program_from_dict
    derives, which accepts every document."""
    occ_gap = dev_gap = 0.0
    for doc in docs:
        program = program_from_dict(doc)
        occupancies = program.config.occupancies[:, 1:]
        for group in program.groups:
            occ = bose_occupancy(group.base_frequency, program.config.temperatures[1:])
            recorded = group.input_occupancies
            both = occ != 0.0  # a flushed occupancy flushes on every host
            assert (occ[~both] == recorded[~both]).all()
            gap = np.abs(occ - recorded)[both] / np.minimum(occ, recorded)[both]
            rows = occupancies[list(group.mode_indices)]
            dev = compiler._max_deviation((rows.min(axis=0), rows.max(axis=0)), occ)
            occ_gap = max(occ_gap, *gap.tolist())
            dev_gap = max(dev_gap, abs(dev - group.max_occupancy_dev))
    return occ_gap, dev_gap


@pytest.mark.skipif(
    platform.machine() not in ("x86_64", "AMD64"), reason="names x86-64 dispatch groups"
)
def test_derived_tolerances_hold_at_baseline_dispatch(tmp_path):
    """Documents compiled here run under numpy's baseline loops, whose expm1
    rounds differently: the recorded input_occupancies and max_occupancy_dev
    stay within a hundredth of their tolerances (cli.DERIVED_RTOL relative,
    cli.DEVIATION_ATOL absolute) of the values derived there, and within 0 of
    those derived here."""
    docs = list(compiled_programs(88, 200))
    assert derived_gaps(docs) == (0.0, 0.0)
    path = tmp_path / "docs.json"
    path.write_text(json.dumps(docs))
    code = (
        "import json, sys\n"
        "from test_parity import derived_gaps\n"
        "print(json.dumps(derived_gaps(json.load(open(sys.argv[1])))))\n"
    )
    occ_gap, dev_gap = json.loads(at_baseline_dispatch(code, str(path)))
    assert occ_gap <= cli.DERIVED_RTOL / 100
    assert dev_gap <= cli.DEVIATION_ATOL / 100


ROW_DOT_SHAPES = [(1, 1), (2, 7), (16, 16), (257, 1024), (1024, 256), (1024, 1024)]


def row_dot_mismatches(seed, count):
    """Encodes whose row_dots differ in some bit from one float(row @ input_occ)
    per row, over the same rows of the coupling block (total_rate 1 leaves the
    normalized rows there as they were dotted). Shapes: ROW_DOT_SHAPES and
    count seeded ones up to 1024 x 1024; every other case adds a one-row group."""
    rng = np.random.default_rng(seed)
    shapes = ROW_DOT_SHAPES + [tuple(rng.integers(1, 1025, 2)) for _ in range(count)]
    bad = 0
    for i, (m, n) in enumerate(shapes):
        a, b = problem(seed + i, int(m), int(n))
        tasks = [(a, 1.0)] if i % 2 else [(a, 1.0), (a[:1], 30.0)]
        program = compiler.encode_parallel_matvec(tasks, b)
        p_hat = program.config.couplings[:, 1:]
        ref = [
            float(row @ g.input_occupancies)
            for g in program.groups
            for row in p_hat[g.mode_indices[0] : g.mode_indices[-1] + 1]
        ]
        bad += program.row_dots.tobytes() != np.array(ref).tobytes()
    return bad


# environments that pick other OpenBLAS kernels or numpy loops than the host's
KERNEL_SETTINGS = {
    "default": None,
    "prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "baseline-dispatch": {"NPY_DISABLE_CPU_FEATURES": ABOVE_BASELINE},
}


@pytest.mark.skipif(
    platform.machine() not in ("x86_64", "AMD64"), reason="names x86-64 kernels"
)
@pytest.mark.parametrize("setting", list(KERNEL_SETTINGS))
def test_row_dots_match_row_loop_on_other_kernels(setting):
    """Encode's stacked row dots run each row through the ddot that row @ x
    calls, so they match the per-row loop whichever kernel OpenBLAS picks; each
    setting acts on a child process only."""
    from numpy._core._multiarray_umath import __cpu_features__

    if setting == "default":
        assert row_dot_mismatches(86, 24) == 0
        return
    if setting == "haswell" and not __cpu_features__.get("AVX2"):
        pytest.skip("the Haswell kernel needs AVX2")
    tests = Path(__file__).resolve().parent
    code = "from test_parity import row_dot_mismatches as f\nprint(f(86, 24))\n"
    env = dict(
        os.environ,
        **KERNEL_SETTINGS[setting],
        PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]),
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"


def ref_table_deviation(program, group):
    """The group deviation from every entry of the group's rows of the
    device's table."""
    rows = slice(group.mode_indices[0], group.mode_indices[-1] + 1)
    occ = program.config.occupancies[rows, 1:]
    return ref_entry_deviation(occ, group.input_occupancies)


def deviation_cases(seed, count):
    """(tasks, vector, settings): m, n in 1..79, b from 1e-12 to 1e12 with about
    15 % zeros, w from 1e-3 to 1e4, group_tol from 1e-6 to 1e-1 and
    occupancy_floor from 1e-300 to 1e-8 (1e-300 in every tenth case). A third of
    the cases add a group of up to three rows 16 to 1000 times below w, and a
    third a one-row group as far above it, where small inputs flush to 0."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        m, n = (int(v) for v in rng.integers(1, 80, 2))
        a = rng.uniform(0.0, 1.0, (m, n))
        a[rng.random((m, n)) < 0.2] = 0.0
        a[:, 0] = np.where(np.all(a == 0.0, axis=1), 0.5, a[:, 0])
        b = 10.0 ** rng.uniform(-12.0, 12.0, n)
        b[rng.random(n) < 0.15] = 0.0
        w = 10.0 ** rng.uniform(-3.0, 4.0)
        tasks = [(a, w)]
        rows, ratio = int(rng.integers(1, 4)), 10.0 ** rng.uniform(1.2, 3.0)
        if i % 3 == 0:
            tasks.append((rng.uniform(0.1, 1.0, (rows, n)), w / ratio))
        elif i % 3 == 1:
            tasks.append((rng.uniform(0.1, 1.0, (1, n)), w * ratio))
        floor = 1e-300 if i % 10 == 0 else 10.0 ** rng.uniform(-300.0, -8.0)
        tol = 10.0 ** rng.uniform(-6.0, -1.0)
        yield tasks, b, {"group_tol": tol, "occupancy_floor": floor}


def counted_flushed_columns(monkeypatch):
    """A list that gains, each time a spread solve takes a group's deviation,
    the number of its columns whose base occupancy and least occupancy, at the
    solved spread's highest frequency, both flushed to 0: each holds a 0/0
    entry, which the deviation skips."""
    calls, solve = [], compiler._solve_spread

    def counted(w, temps, group_tol, base_occ):
        solved = solve(w, temps, group_tol, base_occ)
        least = bose_occupancy(w * (1.0 + solved[0]), temps[1:])
        calls.append(int(((least == 0.0) & (base_occ == 0.0)).sum()))
        return solved

    monkeypatch.setattr(compiler, "_solve_spread", counted)
    return calls


def test_group_deviation_matches_full_table(monkeypatch):
    """The deviation that the spread solve certified at the spread's edges
    equals the maximum over every entry of the table, bit for bit, also where
    some of the entries are 0/0; a one-row group's is 0 with no evaluation."""
    flushed = counted_flushed_columns(monkeypatch)
    groups = parallel = 0
    for tasks, b, settings in deviation_cases(87, 600):
        program = compiler.encode_parallel_matvec(tasks, b, **settings)
        for group in program.groups:
            expected = ref_table_deviation(program, group)
            assert group.max_occupancy_dev.hex() == expected.hex()
            groups += len(group.mode_indices) > 1  # the groups that take a solve
        parallel += len(program.groups) == 2
    assert parallel == 400
    assert len(flushed) == groups
    assert 0 < sum(map(bool, flushed)) < groups
    assert max(flushed) > 1


def deviation_mismatches(seed, count):
    """Groups of deviation_cases(seed, count) whose max_occupancy_dev differs
    in some bit from the maximum over every entry of the group's table rows."""
    bad = 0
    for tasks, b, settings in deviation_cases(seed, count):
        program = compiler.encode_parallel_matvec(tasks, b, **settings)
        for group in program.groups:
            bad += group.max_occupancy_dev.hex() != ref_table_deviation(program, group).hex()
    return bad


@pytest.mark.skipif(
    platform.machine() not in ("x86_64", "AMD64"), reason="names x86-64 dispatch groups"
)
def test_group_deviation_matches_full_table_at_baseline_dispatch():
    """Encode takes each group's deviation from its two edge modes, which is
    exact only while expm1 is monotone: it is under numpy's baseline loops
    too, which round differently."""
    code = "from test_parity import deviation_mismatches\nprint(deviation_mismatches(88, 1000))\n"
    assert at_baseline_dispatch(code) == "0\n"


def layout_deviation(w, spread, temps):
    """ref_entry_deviation of the five modes w(1 + linspace(-spread, spread, 5))
    from the input occupancies at w."""
    freqs = w * (1.0 + np.linspace(-spread, spread, 5))
    return ref_entry_deviation(ref_bose(freqs[:, None] / temps[1:]), bose_occupancy(w, temps[1:]))


def test_solve_spread_returns_the_layout_deviation(monkeypatch):
    """The deviation _solve_spread returns is that of every entry of a layout
    across its spread but 0/0 ones, bit for bit, on each of its four exits:
    the certified bracket (spread_cases and deviation_cases' multi-row groups),
    the degenerate spread (deviation_cases' inputs floored at 1e-300), the
    full 0.9 (temperatures at which every occupancy flushes to 0, so every
    entry is 0/0) and, with a guess a millionth off, the plain bisection."""
    _, plain = counted_spread_solves(monkeypatch)
    cases = list(spread_cases(89, 200, max_n=1024, min_tol=1e-6))
    for tasks, b, settings in deviation_cases(90, 200):
        s = EncodeSettings(base_frequency=tasks[0][1], **settings)
        temps = compiler._temperatures(b, s)
        cases += [(w, temps, s.group_tol) for p, w in tasks if len(p) > 1]
    flushed = [
        (w, np.append(T_FLOOR, np.full(t.size - 1, w / 1e4)), tol) for w, t, tol in cases[:20]
    ]
    guess, exits = compiler._spread_guess, {}
    for off, batch in ((0.0, cases + flushed), (1e-6, cases[:60])):
        monkeypatch.setattr(compiler, "_spread_guess", lambda occ, tol: guess(occ, tol) * (1 + off))
        for w, temps, tol in batch:
            plain.clear()
            spread, degenerate, dev = compiler._solve_spread(w, temps, tol)
            assert type(dev) is float
            assert dev.hex() == layout_deviation(w, spread, temps).hex()
            way = "plain" if plain and plain[-1] else "certified" if plain else "full"
            way = "degenerate" if degenerate else way
            exits[way] = exits.get(way, 0) + 1
    assert exits.keys() == {"certified", "degenerate", "full", "plain"}
    assert exits["full"] == 20 and exits["plain"] == 60


def test_encode_evaluates_occupancies_only_in_the_spread_solve(monkeypatch):
    """encode_matvec evaluates no occupancy of its own: a multi-row problem's
    only _bose calls are the spread solve's two, and a one-row problem makes
    none; nor does it take a deviation from occupancy rows."""
    calls, _ = counted_spread_solves(monkeypatch)
    monkeypatch.setattr(compiler, "_max_deviation", None)
    a, b = problem(91, 16, 16)
    for rows, expected in ((a, 2), (a[:1], 0)):
        calls[0] = 0
        program = compiler.encode_matvec(rows, b)
        assert calls[0] == expected
        [group] = program.groups
        assert group.max_occupancy_dev == ref_table_deviation(program, group)


def test_group_deviation_falls_back_to_rows_at_a_flushed_input(monkeypatch):
    """An input occupancy flushed to 0 makes its column's entries 0/0 at a
    degenerate spread. The deviation no longer falls back to the rows there: it
    skips just the 0/0 entries and reads 0, as every entry of the table does."""
    flushed = counted_flushed_columns(monkeypatch)
    a, b, settings = drain_case("degenerate", False)
    program = compiler.encode_matvec(a, b, **settings)
    [group] = program.groups
    assert group.input_occupancies[0] == 0.0 and group.degenerate
    assert flushed == [1]
    assert group.max_occupancy_dev == ref_table_deviation(program, group) == 0.0


def test_nan_group_deviation_reads_the_table(monkeypatch):
    """A group whose column extremes hold a 0/0 deviation (an input floored
    below the occupancy flush): encode takes it from the group's edge modes and
    builds no occupancy table, and the table, built afterwards, reads the same."""
    tables = counted_builds(monkeypatch, "occupancies")
    a, b, settings = drain_case("degenerate", False)
    program = compiler.encode_matvec(a, b, **settings)
    assert tables == []
    [group] = program.groups
    assert group.max_occupancy_dev == ref_table_deviation(program, group)
    assert len(tables) == 1 and tables[0] is program.config


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
    # the 4000 ulps below the flush point: 1/expm1(x) falls to within 1e-6 of
    # OCCUPANCY_FLUSH there but stays above it, so only x >= _X_FLUSH flushes
    x = physics._X_FLUSH + np.arange(-4000, 1) * np.spacing(physics._X_FLUSH)
    occ = ref_bose(x)
    assert (occ == 0.0).any()
    assert ((occ > 0.0) & (occ < 1.000001 * physics.OCCUPANCY_FLUSH)).any()
    assert_same(physics._bose(x.copy()), occ)


def table_error(build):
    """The message of the FloatingPointError that build() raises under the
    command-line errstate, or None."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            build()
    except FloatingPointError as exc:
        return str(exc)
    return None


def test_extreme_ratio_check_matches_table():
    # the check evaluates the occupancy at the device's largest and smallest
    # w/T only; it must raise what building the whole table would, or nothing
    rng = np.random.default_rng(331)
    smallest = np.nextafter(0.0, 1.0)
    seen = []
    for _ in range(2000):
        k, n = rng.integers(1, 6, size=2).tolist()
        w = np.fmax(10.0 ** rng.uniform(-330.0, 308.0, k), smallest)
        t = 10.0 ** rng.uniform(math.log10(T_FLOOR), 308.0, n + 1)
        config = DeviceConfig(w, np.fmax(t, T_FLOOR), np.ones((k, n + 1)))
        expected = table_error(lambda: physics._bose(w[:, None] / config.temperatures))
        assert table_error(lambda: _checked(config)) == expected, (w, t)
        seen.append(expected)
    # the domain holds devices of each kind
    kinds = {None, "overflow encountered in divide", "divide by zero encountered in divide"}
    assert kinds <= set(seen)


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


def drain_case(name, signed):
    """(matrix, vector, settings) of a named case of the drain readout tests."""
    if name == "degenerate":  # a floored 0 at 1e-300 leaves no spread
        a = np.array([[1.0, 0.5], [0.5, -1.0 if signed else 1.0], [0.25, 1.0]])
        return a, np.array([0.0, 1.0]), {"occupancy_floor": 1e-300}
    m, n, settings = {
        "m=1": (1, 40, {}),
        "n=1": (16, 1, {}),
        "zero-input": (16, 16, {}),
        "total-rate": (16, 16, OVERRIDES),
        "1024x256": (1024, 256, {}),
    }[name]
    a, b = problem(m * 1000 + n, m, n, signed)
    return a, (np.zeros(n) if name == "zero-input" else b), settings


DRAIN_CASES = ["m=1", "n=1", "zero-input", "degenerate", "total-rate", "1024x256"]


@pytest.mark.parametrize("signed", [False, True], ids=["matvec", "signed"])
@pytest.mark.parametrize("name", DRAIN_CASES)
def test_pipelines_match_decode_of_flow_table(name, signed):
    """run_matvec and signed_matvec, which decode from the drain column alone,
    against decode_matvec of the whole flow table."""
    a, b, settings = drain_case(name, signed)
    if signed:
        parts = compiler.encode_signed_matvec(a, b, **settings)
        result = compiler.signed_matvec(a, b, **settings)
    else:
        parts = [(1.0, np.arange(len(a)), compiler.encode_matvec(a, b, **settings))]
        result = compiler.run_matvec(a, b, **settings)
    decoded = [
        (sign, rows, compiler.decode_matvec(p, physics.stationary_flows(p.config)))
        for sign, rows, p in parts
    ]
    expected = compiler.combine_signed(len(a), decoded) if signed else decoded[0][2]
    for field in ("values", "raw_flows", "error_bound"):
        assert_same(getattr(result, field), getattr(expected, field))


def test_drain_flows_match_flow_table(monkeypatch):
    """drain_flows against the drain column of stationary_flows and of the
    fresh-temporary reference, on devices of several groups and on ones whose
    row-blocked reductions take many blocks of wide or narrow rows; and the
    pass a copy of the device builds from its table against the fresh one."""
    a, b = problem(31, 257, 16)
    a2, _ = problem(32, 7, 16)
    settings = {k: v for k, v in OVERRIDES.items() if k != "base_frequency"}
    programs = [
        compiler.encode_parallel_matvec([(a, 1.0), (a2, 3.0)], b, **settings),
        compiler.encode_matvec(*problem(33, 1024, 256)),
        compiler.encode_matvec(*problem(34, 20000, 1)),
    ]
    programs += [compiler.encode_matvec(a, b, **s) for a, b, s in wide_problems(35, 20)]
    # groups of 100, 1 and 61 rows, whose edges fall inside the occupancy
    # pass's row blocks of 54 rows; and devices of one or two groups, every
    # tenth at occupancy floor 1e-300, where a zero input flushes to 0
    a3, b3 = problem(36, 162, 300)
    tasks = [(a3[:100], 1.0), (a3[100:101], 40.0), (a3[101:], 0.02)]
    programs.append(compiler.encode_parallel_matvec(tasks, b3))
    programs += [
        compiler.encode_parallel_matvec(tasks, b, **s)
        for tasks, b, s in deviation_cases(37, 30)
    ]
    assert sum(len(program.groups) > 1 for program in programs) == 22
    for program in programs:
        for group in program.groups:
            assert group.max_occupancy_dev == ref_max_occupancy_dev(program, group)
    # encoded drains sit at T_FLOOR, where n_0 is 0: these drains are warm
    rng = np.random.default_rng(38)
    raw = [
        DeviceConfig(
            rng.uniform(0.5, 3.0, k),
            rng.uniform(0.1, 5.0, n + 1),
            rng.uniform(0.0, 2.0, (k, n + 1)),
            rng.integers(1, 4, k),
        )
        for k, n in ((300, 70), (40, 1), (1, 20000))
    ]
    evaluated, bose = [], physics._bose
    monkeypatch.setattr(physics, "_bose", lambda x: evaluated.append(x.size) or bose(x))
    for config in [program.config for program in programs] + raw:
        fresh = config.occupancy_pass  # before the table exists
        table = physics.stationary_flows(config).per_channel
        assert_same(table, ref_flows(config))
        assert_same(physics.drain_flows(config), table[:, 0])
        copy = dataclasses.replace(config)
        evaluated.clear()
        physics.stationary_state(copy)  # the table first, then the pass from it
        assert evaluated == [copy.n_modes * copy.n_reservoirs]
        assert "occupancy_pass" in copy.__dict__
        read = copy.occupancy_pass
        assert read.n_tilde.tobytes() == fresh.n_tilde.tobytes()
        assert read.drain.tobytes() == fresh.drain.tobytes()


@pytest.mark.parametrize(
    "pipeline", ["run_matvec", "signed_matvec", "encode_matvec", "settling_time"]
)
def test_readout_builds_no_occupancy_table(monkeypatch, pipeline):
    """run_matvec, signed_matvec, encode_matvec followed by drain_flows, and
    settling_time read each device's occupancy pass, built once, and never
    build its occupancy table."""
    a, b = problem(41, 300, 70, signed=pipeline == "signed_matvec")
    tables = counted_builds(monkeypatch, "occupancies")
    passes = counted_builds(monkeypatch, "occupancy_pass")
    if pipeline in ("run_matvec", "signed_matvec"):
        getattr(compiler, pipeline)(a, b)
    else:
        config = compiler.encode_matvec(a, b).config
        physics.drain_flows(config)
        if pipeline == "settling_time":
            config = dataclasses.replace(config)
            dynamics.settling_time(config, np.zeros(config.n_modes), 1e-6)
    assert tables == []
    assert len(passes) == len({id(config) for config in passes})
    assert len(passes) == (2 if pipeline in ("signed_matvec", "settling_time") else 1)


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
    return run_compiled(problem, True)


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
    """At 256x256 the export holds its text, one block of lines at a time and
    the joined text: at most 3.5 times the text, where a whole digest took 6.3."""
    a, b = problem(256, 256, 256)
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
    assert peak <= 3.5 * len(text)


def test_transient_peak_memory_within_trace_table(tmp_path):
    """transient --samples 1300 at 256x256 formats and writes its CSV a block of
    rows at a time: its peak is at most 3.5 trace tables, where the whole CSV
    took 9.4."""
    a, b = problem(256, 256, 256)
    doc = compile_problem({"kind": "matvec", "matrix": a.tolist(), "vector": b.tolist()})
    compiled = tmp_path / "compiled.json"
    compiled.write_text(json.dumps(doc))
    del doc
    out = tmp_path / "trace.csv"
    argv = ["transient", str(compiled), "--samples", "1300", "--output", str(out)]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    header, *rows = out.read_text().splitlines()
    assert len(rows) == 1300 and len(header.split(",")) == 1 + 256 + 257
    assert peak <= 3.5 * 1300 * (1 + 256 + 257) * 8


def test_run_matvec_peak_memory_within_one_and_a_half_devices():
    """One run_matvec at 1024x256 holds at most one and a half device-size
    arrays at a time: the coupling block and the occupancy pass's row blocks
    (a fifth of a device), but no occupancy table. Its traced peak is 1.25
    devices; the bound leaves a quarter of a device on top."""
    a, b = problem(1024, 1024, 256)
    compiler.run_matvec(a, b)
    tracemalloc.start()
    try:
        compiler.run_matvec(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * a.shape[0] * (a.shape[1] + 1) * 8


def test_signed_matvec_peak_memory_within_three_and_a_half_devices():
    """One signed_matvec at 1024x256 builds and compiles one split part at a
    time: it holds both parts' coupling blocks and one split part, never both,
    and no occupancy table. Its traced peak is 3.3 devices; the bound leaves a
    fifth of a device on top."""
    a, b = problem(1025, 1024, 256, signed=True)
    compiler.signed_matvec(a, b)
    tracemalloc.start()
    try:
        compiler.signed_matvec(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * a.shape[0] * (a.shape[1] + 1) * 8

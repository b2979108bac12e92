"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single PASS/FAIL line
on the live terminal (bypassing capture) in addition to its assertions.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import random_config
from thermoflow import cli, compiler, dynamics, physics
from thermoflow.circuit import build_crossbar, crossbar_currents, oqs_to_star, star_currents
from thermoflow.physics import DeviceConfig, T_FLOOR

GOLDEN = Path(__file__).parent / "data" / "golden_crossbar_2x2.cir"


def report(capsys, number, name, ok):
    with capsys.disabled():
        print(f"acceptance criterion {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_1_oracle_equivalence(capsys):
    rng = np.random.default_rng(1)
    started = time.monotonic()
    within_bound = 0
    rel_errors = []
    for _ in range(500):
        m = int(rng.integers(1, 17))
        n = int(rng.integers(1, 17))
        p = rng.uniform(0.05, 1.0, (m, n))
        p /= p.sum(axis=1, keepdims=True)
        b = rng.uniform(1e-6, 10.0, n)
        result = compiler.run_matvec(p, b, drain_ratio=1e-4, group_tol=1e-3)
        exact = p @ b
        err = np.abs(result.values - exact)
        if np.all(err <= result.error_bound):
            within_bound += 1
        rel_errors.append(float(np.max(err / np.abs(exact))))
    elapsed = time.monotonic() - started
    ok = (
        within_bound == 500
        and float(np.median(rel_errors)) <= 1e-3
        and elapsed < 10.0
    )
    report(capsys, 1, "oracle equivalence", ok)


@pytest.fixture(scope="module")
def thousand_configs():
    rng = np.random.default_rng(2)
    return [
        random_config(rng, max_modes=8, max_reservoirs=32, allow_zero_couplings=True)
        for _ in range(1000)
    ]


def test_criterion_2_form_equivalence(capsys, thousand_configs):
    started = time.monotonic()
    worst = 0.0
    for config in thousand_configs:
        direct = physics.stationary_flows(config).per_channel
        pairwise = physics.stationary_flows_pairwise(config).per_channel
        scale = max(np.abs(direct).max(), 1e-300)
        worst = max(worst, float(np.abs(direct - pairwise).max()) / scale)
    elapsed = time.monotonic() - started
    ok = worst <= 1e-12 and elapsed < 5.0
    report(capsys, 2, "form equivalence", ok)


def test_criterion_3_conservation_and_second_law(capsys, thousand_configs):
    ok = True
    for config in thousand_configs:
        flows = physics.stationary_flows(config)
        scale = max(np.abs(flows.per_reservoir).sum(), 1e-300)
        if abs(flows.per_reservoir.sum()) > 1e-12 * scale:
            ok = False
            break
        sigma_scale = np.abs(flows.per_reservoir / config.temperatures).sum()
        if flows.entropy_rate < -1e-12 * max(sigma_scale, 1e-300):
            ok = False
            break
    report(capsys, 3, "conservation and second law", ok)


def test_criterion_4_electrical_analogy(capsys):
    rng = np.random.default_rng(4)
    ok = True
    for _ in range(100):
        config = random_config(
            rng, max_modes=4, max_reservoirs=8, allow_zero_couplings=True
        )
        flows = physics.stationary_flows(config)
        scale = max(np.abs(flows.per_channel).max(), 1e-300)
        # star mapping: currents carry the flows divided by the mode frequency
        for kappa in range(config.n_modes):
            circuit = oqs_to_star(config, kappa)
            currents = star_currents(circuit)
            w = config.frequencies[kappa]
            for i, j in enumerate(circuit.labels):
                if abs(currents[i] * w - flows.per_channel[kappa, j]) >= 1e-12 * scale:
                    ok = False
        # crossbar: potential-drop residuals on every current-carrying branch
        crossbar = build_crossbar(config)
        for kappa in range(config.n_modes):
            for j in range(config.n_reservoirs):
                i = crossbar.currents[kappa, j]
                if i == 0.0:
                    continue
                residual = (
                    crossbar.bar_potentials[j]
                    - crossbar.node_potentials[kappa, j]
                    - i * crossbar.series_resistors[kappa, j]
                )
                if abs(residual) > 1e-12 * max(abs(crossbar.bar_potentials[j]), 1e-300):
                    ok = False
        # gauge freedom: two distinct valid bar-potential policies, same currents
        shifted = build_crossbar(
            config,
            policy=(
                "fixed",
                crossbar.bar_potentials + np.arange(config.n_reservoirs) * 0.1 + 0.1,
            ),
        )
        if not np.allclose(
            crossbar_currents(shifted), crossbar_currents(crossbar), rtol=0, atol=1e-12
        ):
            ok = False
    report(capsys, 4, "electrical analogy exactness", ok)


def test_criterion_5_settling_size_independence(capsys):
    times = []
    for n in (2, 4, 8, 16, 32, 64):
        # total relaxation rate per mode held fixed as weights spread over n wires
        row = np.empty((1, n + 1))
        row[0, 1:] = (1.0 / 1.0001) / n
        row[0, 0] = 1.0 - row[0, 1:].sum()
        t_hot = physics.inverse_temperature(1.0, 1.0)
        config = DeviceConfig([1.0], [T_FLOOR] + [t_hot] * n, row)
        times.append(dynamics.settling_time(config, np.zeros(1), 1e-6))
    spread = (max(times) - min(times)) / max(times)

    rng = np.random.default_rng(5)
    config = random_config(rng, max_modes=4, max_reservoirs=8)
    t_end = dynamics.stationary_window(config)
    finals = np.array(
        [
            dynamics.evolve(config, rng.uniform(0.0, 5.0, config.n_modes), t_end, 3).flows[-1]
            for _ in range(10)
        ]
    )
    flow_spread = np.ptp(finals, axis=0).max() / max(np.abs(finals).max(), 1e-300)
    ok = spread < 0.01 and flow_spread <= 1e-10
    report(capsys, 5, "settling-time size independence", ok)


def test_criterion_6_qfactor_timing(capsys):
    lo, hi = dynamics.qfactor_estimate(1e-3, 1e2, 1e4)
    ok = (1e-11 <= lo <= 1e-9) and (1e-9 <= hi <= 1e-7)
    ok = ok and lo == pytest.approx(5.3e-11, rel=0.01) and hi == pytest.approx(
        5.3e-9, rel=0.01
    )
    report(capsys, 6, "relaxation-time estimate", ok)


def test_criterion_7_signed_matvec(capsys):
    result = compiler.signed_matvec(np.array([[1.0, -1.0]]), np.array([3.0, 1.0]))
    ok = abs(result.values[0] - 2.0) <= result.error_bound[0]

    antisym = compiler.signed_matvec(np.array([[0.7, -0.7]]), np.array([2.5, 2.5]))
    ok = ok and abs(antisym.values[0]) <= antisym.error_bound[0]
    report(capsys, 7, "signed products", ok)


def test_criterion_8_determinism(capsys, tmp_path):
    problem = tmp_path / "problem.json"
    problem.write_text(
        json.dumps(
            {
                "kind": "matvec",
                "matrix": [[0.5, 0.5], [0.2, 0.8]],
                "vector": [1.0, 2.0],
            }
        )
    )
    reports = []
    for name in ("first.json", "second.json"):
        out = tmp_path / name
        code = cli.main(
            ["run", str(problem), "--no-timing", "--output", str(out)]
        )
        assert code == 0
        reports.append(out.read_bytes())

    golden_config = DeviceConfig(
        [1.0, 2.0],
        [T_FLOOR, physics.inverse_temperature(1.0, 1.0)],
        np.array([[1.0, 1.0], [1.0, 2.0]]),
    )
    from thermoflow.circuit import export_netlist

    netlist = export_netlist(build_crossbar(golden_config))
    ok = reports[0] == reports[1] and netlist == GOLDEN.read_text()
    report(capsys, 8, "determinism", ok)

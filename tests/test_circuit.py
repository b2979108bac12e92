from pathlib import Path

import numpy as np
import pytest

from conftest import occupancy_config, random_config, weighted_occupancy
from thermoflow.circuit import (
    NEGATIVE,
    PASSTHROUGH,
    SERIES,
    SolvabilityError,
    StarCircuit,
    build_crossbar,
    crossbar_currents,
    export_netlist,
    format_netlist,
    oqs_to_star,
    parse_netlist,
    star_currents,
    star_node_potential,
)
from thermoflow.physics import (
    T_FLOOR,
    ConfigError,
    DeviceConfig,
    inverse_temperature,
    stationary_flows,
)

GOLDEN = Path(__file__).parent / "data" / "golden_crossbar_2x2.cir"


def golden_config():
    return DeviceConfig(
        [1.0, 2.0],
        [T_FLOOR, inverse_temperature(1.0, 1.0)],
        np.array([[1.0, 1.0], [1.0, 2.0]]),
    )


class TestStarCircuit:
    def test_equal_resistance_mean(self):
        circuit = StarCircuit(np.array([1.0, 1.0]), np.array([0.0, 2.0]))
        assert star_node_potential(circuit) == 1.0

    def test_hand_evaluated_weighted_mean(self):
        circuit = StarCircuit(np.array([1.0, 3.0]), np.array([0.0, 4.0]))
        assert star_node_potential(circuit) == pytest.approx(1.0, rel=1e-14)

    def test_equal_potentials(self):
        circuit = StarCircuit(np.array([0.3, 7.0, 2.0]), np.full(3, 1.25))
        assert star_node_potential(circuit) == pytest.approx(1.25, rel=1e-14)
        np.testing.assert_allclose(star_currents(circuit), 0.0, atol=1e-14)

    def test_symmetric_divider_currents(self):
        circuit = StarCircuit(np.array([1.0, 1.0]), np.array([0.0, 2.0]))
        np.testing.assert_allclose(star_currents(circuit), [-1.0, 1.0], rtol=1e-14)

    def test_kirchhoff_randomized(self, rng):
        for _ in range(1000):
            n = int(rng.integers(2, 10))
            circuit = StarCircuit(
                rng.uniform(0.1, 10.0, n), rng.uniform(-5.0, 5.0, n)
            )
            currents = star_currents(circuit)
            assert abs(currents.sum()) <= 1e-12 * np.abs(currents).sum() + 1e-15

    def test_positive_resistance_required(self):
        with pytest.raises(ConfigError):
            StarCircuit(np.array([1.0, 0.0]), np.array([0.0, 1.0]))


class TestOqsToStar:
    def test_three_reservoir_currents(self):
        config = occupancy_config(2.0, [1.0, 0.5], [[1.0, 2.0, 1.0]])
        circuit = oqs_to_star(config, 0)
        np.testing.assert_allclose(
            star_currents(circuit), [-0.625, 0.75, -0.125], rtol=1e-12
        )

    def test_equilibrium_zero_currents(self):
        t = inverse_temperature(1.0, 1.0)
        config = DeviceConfig([1.0], [t, t], np.array([[0.4, 1.1]]))
        np.testing.assert_allclose(star_currents(oqs_to_star(config, 0)), 0.0, atol=1e-16)

    def test_node_potential_is_weighted_occupancy(self, rng):
        config = random_config(rng, max_modes=3, max_reservoirs=8)
        for kappa in range(config.n_modes):
            circuit = oqs_to_star(config, kappa)
            assert star_node_potential(circuit) == pytest.approx(
                weighted_occupancy(config, kappa), rel=1e-14
            )

    def test_zero_coupling_links_omitted(self):
        config = occupancy_config(1.0, [1.0, 2.0], [[0.5, 0.0, 1.5]])
        circuit = oqs_to_star(config, 0)
        assert circuit.labels == (0, 2)
        assert circuit.resistances.size == 2

    def test_analogy_exactness_randomized(self, rng):
        for _ in range(200):
            config = random_config(
                rng, max_modes=4, max_reservoirs=8, allow_zero_couplings=True
            )
            flows = stationary_flows(config)
            scale = max(np.abs(flows.per_channel).max(), 1e-300)
            for kappa in range(config.n_modes):
                circuit = oqs_to_star(config, kappa)
                currents = star_currents(circuit)
                w = config.frequencies[kappa]
                for i, j in enumerate(circuit.labels):
                    assert abs(currents[i] * w - flows.per_channel[kappa, j]) <= 1e-12 * scale


class TestBuildCrossbar:
    def test_single_mode_reduces_to_star(self):
        config = occupancy_config(2.0, [1.0, 0.5], [[1.0, 2.0, 1.0]])
        crossbar = build_crossbar(config)
        np.testing.assert_array_equal(crossbar.series_resistors, 0.0)
        np.testing.assert_allclose(
            crossbar.bar_potentials, crossbar.node_potentials[0], rtol=1e-14
        )

    def test_two_mode_hand_instance(self):
        crossbar = build_crossbar(golden_config())
        # mode 0 is the argmax on the hot bar: its series resistor vanishes
        assert crossbar.series_resistors[0, 1] == 0.0
        assert crossbar.series_resistors[1, 1] == pytest.approx(3.0, rel=1e-12)
        # potential-drop residual on every current-carrying branch
        for kappa in range(2):
            for j in range(2):
                i = crossbar.currents[kappa, j]
                if i == 0.0:
                    continue
                residual = (
                    crossbar.bar_potentials[j]
                    - crossbar.node_potentials[kappa, j]
                    - i * crossbar.series_resistors[kappa, j]
                )
                assert abs(residual) <= 1e-12 * max(abs(crossbar.bar_potentials[j]), 1e-300)

    def test_forward_solve_reproduces_flows(self, rng):
        for _ in range(100):
            config = random_config(
                rng, max_modes=4, max_reservoirs=6, allow_zero_couplings=True
            )
            flows = stationary_flows(config)
            crossbar = build_crossbar(config)
            recovered = crossbar_currents(crossbar) * config.frequencies[:, None]
            scale = max(np.abs(flows.per_channel).max(), 1e-300)
            assert np.abs(recovered - flows.per_channel).max() <= 1e-12 * scale

    def test_policy_freedom(self, rng):
        config = random_config(rng, max_modes=4, max_reservoirs=6)
        base = build_crossbar(config, policy="max")
        shifted = build_crossbar(
            config,
            policy=("fixed", base.bar_potentials + np.arange(config.n_reservoirs) * 0.1 + 0.1),
        )
        assert np.any(shifted.series_resistors != base.series_resistors)
        np.testing.assert_allclose(
            crossbar_currents(shifted), crossbar_currents(base), rtol=0, atol=1e-13
        )

    def test_fixed_policy_solvability(self):
        config = golden_config()
        with pytest.raises(SolvabilityError):
            build_crossbar(config, policy=("fixed", 0.0))

    def test_unknown_policy_refused(self):
        with pytest.raises(ConfigError, match="^unknown bar potential policy: 'banana'$"):
            build_crossbar(golden_config(), policy="banana")

    def test_branch_status_labels(self):
        config = occupancy_config(1.0, [1.0, 2.0], [[0.1, 0.0, 1.0]])
        crossbar = build_crossbar(config)
        assert crossbar.branch_status[0, 1] == "absent"
        assert crossbar.branch_status[0, 2] in (SERIES, PASSTHROUGH)

    def test_negative_resistors_flagged(self):
        crossbar = build_crossbar(golden_config(), policy=("fixed", 2.0))
        # drain branches carry current out of the bar at potential 2 > phi = 0
        assert crossbar.branch_status[0, 0] == NEGATIVE

    @pytest.mark.parametrize("policy", ["max", ("fixed", 2.0), "grouped"])
    def test_label_view_built_only_when_read(self, policy):
        # the solve and the netlist read the uint8 codes, not the labels
        config = occupancy_config(1.0, [1.0, 2.0], [[0.1, 0.0, 1.0]])
        crossbar = build_crossbar(config, policy=policy)
        crossbar_currents(crossbar)
        export_netlist(crossbar)
        assert "branch_status" not in vars(crossbar)
        assert crossbar.status_codes.dtype == np.uint8
        assert crossbar.branch_status is crossbar.branch_status
        assert crossbar.branch_status[0, 1] == "absent"


class TestNetlist:
    def test_smallest_star(self):
        circuit = StarCircuit(np.array([1.0, 1.0]), np.array([0.0, 2.0]))
        text = export_netlist(circuit)
        lines = text.splitlines()
        assert lines[0].startswith("* thermoflow netlist ")
        assert lines[-1] == ".end"
        body = lines[1:-1]
        assert body == [
            "R0 n_res0 n_center 1.0",
            "R1 n_res1 n_center 1.0",
            "V0 n_res0 0 DC 0.0",
            "V1 n_res1 0 DC 2.0",
        ]

    def test_golden_crossbar(self):
        crossbar = build_crossbar(golden_config())
        assert export_netlist(crossbar) == GOLDEN.read_text()

    def test_round_trip_is_byte_identical(self):
        crossbar = build_crossbar(golden_config())
        text = export_netlist(crossbar)
        header, elements = parse_netlist(text)
        assert format_netlist(header, elements) == text

    def test_deterministic(self):
        config = golden_config()
        assert export_netlist(build_crossbar(config)) == export_netlist(
            build_crossbar(config)
        )

    def test_unknown_circuit_refused(self):
        with pytest.raises(ConfigError, match="^cannot export object as a netlist$"):
            export_netlist(object())

    def test_non_finite_value_refused(self):
        star = StarCircuit(np.array([1.0, 1.0]), np.array([0.0, np.nan]))
        with pytest.raises(FloatingPointError):
            export_netlist(star)
        # w * gamma underflows to 0, so the main resistors come out infinite
        config = DeviceConfig([1e-200], [T_FLOOR, 1.0], [[1e-200, 1e-200]])
        with pytest.warns(RuntimeWarning):
            with pytest.raises(FloatingPointError):
                export_netlist(build_crossbar(config))

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import occupancy_config, random_config, weighted_occupancy
from thermoflow import physics
from thermoflow.cli import config_from_dict, config_to_dict
from thermoflow.compiler import encode_matvec
from thermoflow.physics import (
    T_FLOOR,
    ConfigError,
    DeviceConfig,
    bose_occupancy,
    inverse_temperature,
    stationary_flows,
    stationary_flows_pairwise,
)


class TestBoseOccupancy:
    def test_unit_occupancy(self):
        assert bose_occupancy(1.0, 1.0 / math.log(2.0)) == pytest.approx(1.0, rel=1e-14)

    def test_deep_suppression_flushes_to_zero(self):
        assert bose_occupancy(1.0, 1e-6) == 0.0

    def test_high_temperature_pinned(self):
        # 1/(exp(0.001) - 1), evaluated at 50 decimal digits
        assert bose_occupancy(1.0, 1000.0) == pytest.approx(
            999.50008333333194444, rel=1e-14
        )

    def test_domain_errors(self):
        with pytest.raises(ConfigError):
            bose_occupancy(0.0, 1.0)
        with pytest.raises(ConfigError):
            bose_occupancy(1.0, 0.0)
        with pytest.raises(ConfigError):
            bose_occupancy(-1.0, 1.0)

    def test_broadcasts(self):
        occ = bose_occupancy(np.array([1.0, 2.0]), 1.0 / math.log(2.0))
        assert occ.shape == (2,)
        assert occ[0] == pytest.approx(1.0)
        assert occ[1] == pytest.approx(1.0 / 3.0)


class TestInverseTemperature:
    def test_inverse_of_unit_occupancy(self):
        assert inverse_temperature(1.0, 1.0) == pytest.approx(1.4426950408889634)

    def test_linear_in_frequency(self):
        assert inverse_temperature(2.0, 1.0) == pytest.approx(2.8853900817779268)

    def test_small_occupancy(self):
        assert inverse_temperature(1.0, 0.01) == pytest.approx(
            0.21667906533553168, rel=1e-14
        )
        # round trip through the occupancy
        t = inverse_temperature(1.0, 0.01)
        assert bose_occupancy(1.0, t) == pytest.approx(0.01, rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(ConfigError):
            inverse_temperature(1.0, 0.0)
        with pytest.raises(ConfigError):
            inverse_temperature(1.0, -1.0)

    @given(st.floats(min_value=1e-6, max_value=1e6), st.floats(min_value=0.1, max_value=10.0))
    def test_round_trip(self, b, w):
        assert bose_occupancy(w, inverse_temperature(w, b)) == pytest.approx(
            b, rel=1e-12
        )


def raw_config(drains):
    """Raw config document with one mode and one reservoir per drain flag."""
    return {
        "modes": [{"frequency": 1.0}],
        "reservoirs": [{"temperature": 1.0, "is_drain": d} for d in drains],
        "couplings": [[1.0] * len(drains)],
    }


class TestConfigValidation:
    def test_drain_must_be_index_zero(self):
        with pytest.raises(ConfigError, match="at index 0"):
            config_from_dict(raw_config([False, True]))

    def test_exactly_one_drain(self):
        with pytest.raises(ConfigError, match="exactly one drain"):
            config_from_dict(raw_config([True, True]))
        with pytest.raises(ConfigError, match="exactly one drain"):
            config_from_dict(raw_config([False, False]))

    def test_drain_is_reservoir_zero(self):
        config = config_from_dict(raw_config([True, False]))
        assert config_to_dict(config)["reservoirs"] == [
            {"temperature": 1.0, "is_drain": True},
            {"temperature": 1.0, "is_drain": False},
        ]

    def test_temperature_floor(self):
        with pytest.raises(ConfigError, match="below floor"):
            DeviceConfig([1.0], [T_FLOOR, 0.0], np.ones((1, 2)))

    def test_no_isolated_modes(self):
        with pytest.raises(ConfigError):
            DeviceConfig([1.0], [T_FLOOR, 1.0], np.zeros((1, 2)))

    def test_mode_without_positive_coupling_rejected(self):
        couplings = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ConfigError, match="^every mode needs at least one positive"):
            DeviceConfig([1.0, 2.0], [T_FLOOR, 1.0], couplings)

    def test_rates_are_read_only_row_sums(self, rng):
        for _ in range(20):
            config = random_config(rng, max_modes=6, max_reservoirs=8)
            expected = config.couplings.sum(axis=1)
            assert config.rates.tobytes() == expected.tobytes()
            with pytest.raises(ValueError):
                config.rates[0] = 0.0
            assert physics.stationary_state(config)[1] is config.rates

    def test_negative_couplings_rejected(self):
        with pytest.raises(ConfigError):
            DeviceConfig([1.0], [T_FLOOR, 1.0], np.array([[1.0, -1.0]]))

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_frequency_finite_and_positive(self, bad):
        with pytest.raises(ConfigError, match="mode frequency"):
            DeviceConfig([1.0, bad], [T_FLOOR, 1.0], np.ones((2, 2)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_temperature_finite(self, bad):
        with pytest.raises(ConfigError, match="not finite"):
            DeviceConfig([1.0], [T_FLOOR, bad], np.ones((1, 2)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_coupling_finite(self, bad):
        with pytest.raises(ConfigError, match="finite and non-negative"):
            DeviceConfig([1.0], [T_FLOOR, 1.0], np.array([[1.0, bad]]))

    @pytest.mark.parametrize(
        "frequencies, temperatures, couplings, group_ids",
        [
            ([1.0, 2.0], [T_FLOOR, 1.0], np.ones((1, 2)), None),
            ([1.0], [T_FLOOR, 1.0], np.ones((1, 3)), None),
            ([[1.0]], [T_FLOOR, 1.0], np.ones((1, 2)), None),
            ([1.0], [], np.ones((1, 0)), None),
            ([1.0], [T_FLOOR, 1.0], np.ones((1, 2)), [1, 2]),
        ],
        ids=["modes", "reservoirs", "2-D-frequencies", "no-reservoirs", "group-ids"],
    )
    def test_shapes_must_agree(self, frequencies, temperatures, couplings, group_ids):
        with pytest.raises(ConfigError):
            DeviceConfig(frequencies, temperatures, couplings, group_ids)

    def test_holds_read_only_arrays(self):
        frequencies = np.array([1.0, 2.0])
        config = DeviceConfig(frequencies, [T_FLOOR, 1.0], np.ones((2, 2)))
        frequencies[0] = 5.0  # the config holds its own copy
        np.testing.assert_array_equal(config.frequencies, [1.0, 2.0])
        np.testing.assert_array_equal(config.group_ids, [1, 1])
        assert config.group_ids.dtype.kind == "i"
        for name in ("frequencies", "temperatures", "couplings", "group_ids"):
            with pytest.raises(ValueError):
                getattr(config, name)[0] = 0

    def test_copies_a_callers_array_it_does_not_own(self):
        couplings = np.ones((2, 2))
        view = couplings[:]
        view.setflags(write=False)  # read-only, but its base stays writable
        for given in (couplings, view):
            config = DeviceConfig([1.0, 2.0], [T_FLOOR, 1.0], given)
            couplings[0, 1] = 5.0
            np.testing.assert_array_equal(config.couplings, np.ones((2, 2)))
            couplings[0, 1] = 1.0

    def test_holds_a_read_only_array_that_owns_its_data(self):
        couplings = np.ones((2, 2))
        couplings.setflags(write=False)
        assert DeviceConfig([1.0, 2.0], [T_FLOOR, 1.0], couplings).couplings is couplings

    @pytest.mark.parametrize(
        "couplings",
        [[[1.0, math.nan]], [[1.0, -1.0]], [[1.0, 1.0, 1.0]]],
        ids=["nan", "negative", "shape"],
    )
    def test_checks_a_read_only_array_it_holds(self, couplings):
        couplings = np.array(couplings)
        couplings.setflags(write=False)
        with pytest.raises(ConfigError):
            DeviceConfig([1.0], [T_FLOOR, 1.0], couplings)


class TestOccupancyTable:
    """The table is a function of the device alone: the same bits, and no
    warning or error, whatever the errstate of the caller that reads it first."""

    @pytest.mark.parametrize(
        "frequencies, temperature",
        [([1.0, 2.0], 1.0), ([1e300, 2e300], 1.0), ([1e-316, 1.0], 1e10)],
        ids=["clean", "overflowing-w/T", "1/expm1-of-zero"],
    )
    def test_same_table_under_any_errstate(self, frequencies, temperature):
        config = DeviceConfig(frequencies, [T_FLOOR, temperature], np.ones((2, 2)))
        copy = dataclasses.replace(config)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="raise"):
                raised = config.occupancies
            warned = copy.occupancies  # numpy's default errstate warns
        assert raised.tobytes() == warned.tobytes()
        with np.errstate(all="raise"):
            state = dataclasses.replace(config).occupancy_pass
        assert state.drain.tobytes() == warned[:, 0].tobytes()
        assert state.n_tilde.tobytes() == physics.stationary_state(copy)[2].tobytes()

    def test_weighted_sum_overflows_as_the_caller_says(self):
        # the occupancy pass ignores errors in the occupancies alone: its
        # n_tilde = sum_j gamma_j n_j / Gamma raises or warns as the flow table's
        config = DeviceConfig([1e-300], [T_FLOOR, 1.0], [[1.0, 1e10]])
        for read in (physics.drain_flows, stationary_flows):
            with np.errstate(over="raise"):
                with pytest.raises(FloatingPointError, match="overflow encountered in multiply"):
                    read(dataclasses.replace(config))
            with pytest.warns(RuntimeWarning, match="overflow encountered in multiply"):
                read(dataclasses.replace(config))

    def test_encoded_device_and_its_copy_give_the_same_flows(self):
        # encode reads the table of a device whose w/T_FLOOR overflows first;
        # a copy builds it again under the caller's errstate
        program = encode_matvec([[0.5, 0.5], [0.2, 0.8]], [1.0, 2.0], base_frequency=1e300)
        config = program.config
        with np.errstate(all="raise"):
            flows = [stationary_flows(c) for c in (config, dataclasses.replace(config))]
        np.testing.assert_array_equal(flows[0].per_channel, flows[1].per_channel)


def normalized_couplings(config):
    """Mode 0's couplings normalized by the total rate stationary_state gives."""
    _, rates, _ = physics.stationary_state(config)
    return config.couplings[0] / rates[0]


def stationary_occupancy(config):
    """Mode 0's stationary occupancy n_tilde from stationary_state."""
    return physics.stationary_state(config)[2][0]


class TestCouplingWeights:
    def test_symmetric(self):
        config = occupancy_config(1.0, [1.0], [[1.0, 1.0]])
        np.testing.assert_allclose(normalized_couplings(config), [0.5, 0.5])

    def test_direct_normalization(self):
        config = occupancy_config(1.0, [1.0, 1.0], [[0.0, 3.0, 1.0]])
        np.testing.assert_allclose(normalized_couplings(config), [0.0, 0.75, 0.25])

    def test_rational_normalization(self):
        config = occupancy_config(1.0, [1.0, 1.0], [[1e-4, 0.3, 0.7]])
        p = normalized_couplings(config)
        np.testing.assert_allclose(
            p, [9.99900009999e-5, 0.299970003, 0.699930006999], rtol=1e-11
        )
        assert p.sum() == pytest.approx(1.0, abs=1e-15)


class TestWeightedOccupancy:
    def test_arithmetic_mean(self):
        config = occupancy_config(1.0, [0.2, 0.4], [[0.0, 1.0, 1.0]])
        assert stationary_occupancy(config) == pytest.approx(0.3, rel=1e-12)

    def test_equal_temperatures(self):
        t = inverse_temperature(1.0, 0.7)
        config = DeviceConfig([1.0], [t, t, t], np.array([[0.3, 1.2, 0.5]]))
        assert stationary_occupancy(config) == pytest.approx(0.7, rel=1e-12)

    def test_weighted_sum(self):
        config = occupancy_config(1.0, [1.0], [[1.0, 9.0]])
        # p = (0.1, 0.9), occupancies (0, 1)
        assert stationary_occupancy(config) == pytest.approx(0.9, rel=1e-12)

    def test_bounds(self, rng):
        for _ in range(50):
            config = random_config(rng, max_modes=4, max_reservoirs=8)
            occ, _, stationary = physics.stationary_state(config)
            assert np.all(occ.min(axis=1) - 1e-15 <= stationary)
            assert np.all(stationary <= occ.max(axis=1) + 1e-15)


class TestStationaryFlows:
    def test_stationary_state_is_weighted_occupancy(self, rng):
        config = random_config(rng, max_modes=4, max_reservoirs=8)
        occ, rates, n_tilde = physics.stationary_state(config)
        np.testing.assert_array_equal(
            occ, bose_occupancy(config.frequencies[:, None], config.temperatures)
        )
        np.testing.assert_array_equal(rates, config.couplings.sum(axis=1))
        for kappa in range(config.n_modes):
            assert n_tilde[kappa] == pytest.approx(
                weighted_occupancy(config, kappa), rel=1e-14
            )

    def test_equilibrium_flows_vanish(self):
        t = inverse_temperature(1.0, 1.0)
        config = DeviceConfig(
            [1.0, 2.0], [t, t, t], np.array([[1.0, 0.5, 2.0], [0.1, 0.2, 0.3]])
        )
        flows = stationary_flows(config)
        np.testing.assert_allclose(flows.per_channel, 0.0, atol=1e-18)
        assert flows.entropy_rate == pytest.approx(0.0, abs=1e-18)

    def test_two_reservoir_symmetric(self):
        config = occupancy_config(1.0, [1.0], [[1.0, 1.0]])
        flows = stationary_flows(config)
        np.testing.assert_allclose(flows.per_channel, [[-0.5, 0.5]], rtol=1e-12)

    def test_three_reservoir_hand_evaluated(self):
        config = occupancy_config(2.0, [1.0, 0.5], [[1.0, 2.0, 1.0]])
        flows = stationary_flows(config)
        np.testing.assert_allclose(
            flows.per_channel, [[-1.25, 1.5, -0.25]], rtol=1e-12
        )
        np.testing.assert_allclose(flows.per_reservoir, [-1.25, 1.5, -0.25], rtol=1e-12)
        assert abs(flows.per_reservoir.sum()) <= 1e-12 * np.abs(flows.per_reservoir).sum()

    def test_sign_follows_occupancy_ordering(self, rng):
        for _ in range(50):
            config = random_config(rng, max_modes=4, max_reservoirs=8)
            flows = stationary_flows(config)
            occ = config.occupancies
            for kappa in range(config.n_modes):
                n_tilde = weighted_occupancy(config, kappa)
                for j in range(config.n_reservoirs):
                    if flows.per_channel[kappa, j] > 0:
                        assert occ[kappa, j] > n_tilde
                    elif flows.per_channel[kappa, j] < 0:
                        assert occ[kappa, j] < n_tilde

    def test_coupling_scale_invariance(self, rng):
        config = random_config(rng, max_modes=3, max_reservoirs=6)
        flows = stationary_flows(config)
        scaled = DeviceConfig(
            config.frequencies, config.temperatures, config.couplings * 3.5
        )
        sflows = stationary_flows(scaled)
        for kappa in range(config.n_modes):
            assert weighted_occupancy(config, kappa) == pytest.approx(
                weighted_occupancy(scaled, kappa), rel=1e-14
            )
        np.testing.assert_allclose(
            sflows.per_channel, 3.5 * flows.per_channel, rtol=1e-12
        )


class TestPairwiseForm:
    def test_matches_examples(self):
        for config in (
            occupancy_config(1.0, [1.0], [[1.0, 1.0]]),
            occupancy_config(2.0, [1.0, 0.5], [[1.0, 2.0, 1.0]]),
        ):
            a = stationary_flows(config).per_channel
            b = stationary_flows_pairwise(config).per_channel
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15)

    def test_two_reservoir_reduction(self):
        g1, g2 = 0.7, 1.9
        config = occupancy_config(1.5, [0.8], [[g1, g2]])
        flows = stationary_flows_pairwise(config)
        occ = config.occupancies[0]
        expected = 1.5 * g1 * g2 / (g1 + g2) * (occ[1] - occ[0])
        assert flows.per_channel[0, 1] == pytest.approx(expected, rel=1e-12)

    def test_cross_form_randomized(self, rng):
        worst = 0.0
        for _ in range(1000):
            config = random_config(rng, max_modes=4, max_reservoirs=8)
            a = stationary_flows(config).per_channel
            b = stationary_flows_pairwise(config).per_channel
            scale = np.abs(a).max()
            worst = max(worst, np.abs(a - b).max() / scale)
        assert worst < 1e-12


class TestDrainFlowApprox:
    """The cold-drain form -w gamma_0 sum_{q>=1} p_q n_q of a mode's drain flow
    against the exact channel flow."""

    def test_exact_when_drain_empty(self):
        # drain occupancy is exactly 0 at the temperature floor
        config = occupancy_config(2.0, [1.0, 0.5], [[1.0, 2.0, 1.0]])
        exact = stationary_flows(config).per_channel[0, 0]
        w, gamma = 2.0, np.array([1.0, 2.0, 1.0])
        p, occ = gamma / gamma.sum(), bose_occupancy(w, config.temperatures)
        approx = -w * gamma[0] * float(p[1:] @ occ[1:])
        assert approx == pytest.approx(-1.25, rel=1e-12)
        assert exact == pytest.approx(-1.25, rel=1e-12)
        assert approx == exact

    def test_error_budget_with_warm_drain(self):
        # drain occupancy 1e-3, drain weight 1e-2
        t_drain = inverse_temperature(1.0, 1e-3)
        t_hot = inverse_temperature(1.0, 1.0)
        config = DeviceConfig([1.0], [t_drain, t_hot], np.array([[0.01, 0.99]]))
        exact = stationary_flows(config).per_channel[0, 0]
        w, gamma = 1.0, np.array([0.01, 0.99])
        p, occ = gamma / gamma.sum(), bose_occupancy(w, config.temperatures)
        approx = -w * gamma[0] * float(p[1:] @ occ[1:])
        assert 0.0 < abs(approx - exact) / abs(exact) < 2e-3


class TestEntropyProduction:
    def test_equilibrium_is_zero(self):
        t = inverse_temperature(1.0, 1.0)
        config = DeviceConfig([1.0], [t, t], np.ones((1, 2)))
        assert stationary_flows(config).entropy_rate == pytest.approx(0.0, abs=1e-15)

    def test_positive_out_of_equilibrium(self):
        config = occupancy_config(1.0, [1.0], [[1.0, 1.0]])
        assert stationary_flows(config).entropy_rate > 0.0

    def test_second_law_randomized(self, rng):
        for _ in range(1000):
            config = random_config(rng, max_modes=4, max_reservoirs=8)
            flows = stationary_flows(config)
            scale = np.abs(flows.per_reservoir / config.temperatures).sum()
            assert flows.entropy_rate >= -1e-12 * scale


class TestConservation:
    def test_randomized(self, rng):
        for _ in range(1000):
            config = random_config(rng, max_modes=4, max_reservoirs=8)
            flows = stationary_flows(config)
            scale = np.abs(flows.per_reservoir).sum()
            assert abs(flows.per_reservoir.sum()) <= 1e-12 * scale

import math

import numpy as np
import pytest

from conftest import occupancy_config, random_config, weighted_occupancy
from thermoflow import physics
from thermoflow.dynamics import (
    evolve,
    qfactor_estimate,
    settling_time,
    stationary_window,
)
from thermoflow.physics import ConfigError, stationary_flows


def fixed_points(config):
    return np.array(
        [weighted_occupancy(config, k) for k in range(config.n_modes)]
    )


class TestEvolve:
    def test_start_at_fixed_point_is_constant(self):
        config = occupancy_config(1.0, [1.0, 0.5], [[0.5, 1.0, 0.5]])
        n_tilde = fixed_points(config)
        trace = evolve(config, n_tilde, 5.0, 20)
        np.testing.assert_allclose(
            trace.occupancies, np.broadcast_to(n_tilde, trace.occupancies.shape), rtol=1e-15
        )
        assert trace.settled_at == 0.0

    def test_single_mode_exponential(self):
        # Gamma = 1, n_tilde ~ 0 (both reservoirs effectively empty), start at 1
        config = occupancy_config(1.0, [1e-14], [[0.5, 0.5]])
        trace = evolve(config, np.array([1.0]), math.log(10.0), 2)
        assert trace.occupancies[-1, 0] == pytest.approx(0.1, rel=1e-10)

    def test_long_time_flows_match_stationary(self, rng):
        for _ in range(20):
            config = random_config(rng, max_modes=4, max_reservoirs=8)
            t_end = stationary_window(config)
            init = rng.uniform(0.0, 3.0, config.n_modes)
            trace = evolve(config, init, t_end, 5)
            flows = stationary_flows(config)
            scale = max(np.abs(flows.per_reservoir).max(), 1e-300)
            assert np.abs(trace.flows[-1] - flows.per_reservoir).max() <= 1e-10 * scale

    def test_deviation_monotonically_decreasing(self, rng):
        config = random_config(rng, max_modes=4, max_reservoirs=6)
        init = rng.uniform(0.0, 3.0, config.n_modes)
        trace = evolve(config, init, 5.0, 100)
        n_tilde = fixed_points(config)
        dev = np.abs(trace.occupancies - n_tilde[None, :])
        assert np.all(np.diff(dev, axis=0) <= 1e-15)

    def test_occupancies_stay_non_negative(self, rng):
        config = random_config(rng, max_modes=4, max_reservoirs=6)
        trace = evolve(config, np.zeros(config.n_modes), 10.0, 50)
        assert np.all(trace.occupancies >= 0.0)

    def test_input_validation(self):
        config = occupancy_config(1.0, [1.0], [[1.0, 1.0]])
        with pytest.raises(ConfigError):
            evolve(config, np.array([-0.1]), 1.0, 10)
        with pytest.raises(ConfigError):
            evolve(config, np.array([0.0]), 0.0, 10)
        with pytest.raises(ConfigError):
            evolve(config, np.array([0.0]), 1.0, 1)

    def test_initial_state_independence_of_limit(self, rng):
        config = random_config(rng, max_modes=3, max_reservoirs=8)
        t_end = stationary_window(config)
        finals = []
        for _ in range(10):
            init = rng.uniform(0.0, 5.0, config.n_modes)
            trace = evolve(config, init, t_end, 3)
            finals.append(trace.flows[-1])
        finals = np.array(finals)
        scale = max(np.abs(finals).max(), 1e-300)
        assert np.ptp(finals, axis=0).max() <= 1e-10 * scale


class TestSettlingTime:
    def test_analytic_value(self):
        # Gamma = 1, relative deviation 1 at t = 0
        config = occupancy_config(1.0, [1.0], [[0.0, 1.0]])
        t = settling_time(config, np.array([2.0]), 1e-6)
        assert t == pytest.approx(math.log(1e6), rel=1e-12)

    def test_already_settled_returns_zero(self):
        config = occupancy_config(1.0, [1.0], [[0.0, 1.0]])
        assert settling_time(config, np.array([1.0]), 1e-6) == 0.0

    def test_doubling_rates_halves_time(self):
        config = occupancy_config(1.0, [1.0, 0.5], [[0.1, 1.0, 0.4]])
        fast = physics.DeviceConfig(
            config.frequencies, config.temperatures, config.couplings * 2.0
        )
        init = np.array([0.0])
        assert settling_time(fast, init, 1e-6) == pytest.approx(
            settling_time(config, init, 1e-6) / 2.0, rel=1e-12
        )

    def test_size_independence_under_fixed_total_rate(self):
        # weights redistributed over n reservoirs, total rate per mode held at 1
        times = []
        for n in (2, 4, 8, 16, 32, 64):
            couplings = np.empty((1, n + 1))
            couplings[0, 1:] = (1.0 / 1.0001) / n
            couplings[0, 0] = 1.0 - couplings[0, 1:].sum()
            config = occupancy_config(1.0, [1.0] * n, couplings)
            times.append(settling_time(config, np.zeros(1), 1e-6))
        spread = (max(times) - min(times)) / max(times)
        assert spread < 0.01

    def test_rel_tol_validation(self):
        config = occupancy_config(1.0, [1.0], [[0.0, 1.0]])
        with pytest.raises(ConfigError):
            settling_time(config, np.array([0.0]), 0.0)
        with pytest.raises(ConfigError):
            settling_time(config, np.array([0.0]), 1.5)


class TestQFactorEstimate:
    def test_millimeter_band_interval(self):
        lo, hi = qfactor_estimate(1e-3, 1e2, 1e4)
        assert lo == pytest.approx(5.308837459e-11, rel=1e-9)
        assert hi == pytest.approx(5.308837459e-9, rel=1e-9)
        # order-of-magnitude agreement with the 1e-10..1e-8 s ballpark
        assert 1e-11 < lo < 1e-9
        assert 1e-9 < hi < 1e-7

    def test_dimensional_identity(self):
        wavelength = 0.5
        omega = 2.0 * math.pi * 299792458.0 / wavelength
        lo, hi = qfactor_estimate(wavelength, omega, omega)
        assert lo == pytest.approx(1.0, rel=1e-12)
        assert hi == pytest.approx(1.0, rel=1e-12)

    def test_linear_in_wavelength(self):
        full = qfactor_estimate(1e-3, 1e2, 1e4)
        half = qfactor_estimate(5e-4, 1e2, 1e4)
        assert half[0] == pytest.approx(full[0] / 2.0, rel=1e-12)
        assert half[1] == pytest.approx(full[1] / 2.0, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ConfigError):
            qfactor_estimate(-1.0, 1e2, 1e4)
        with pytest.raises(ConfigError):
            qfactor_estimate(1e-3, 1e4, 1e2)

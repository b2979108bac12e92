import numpy as np
import pytest

from thermoflow.cli import random_config  # noqa: F401  (imported by the test modules)
from thermoflow.physics import (
    T_FLOOR,
    DeviceConfig,
    bose_occupancy,
    inverse_temperature,
)


def occupancy_config(frequency, occupancies, couplings):
    """Device with one drain (index 0, at the temperature floor) and the remaining
    reservoirs tuned so their occupancies at `frequency` equal `occupancies`.

    couplings: (K, len(occupancies)+1) rows including the drain column.
    """
    temperatures = [T_FLOOR] + [inverse_temperature(frequency, b) for b in occupancies]
    couplings = np.asarray(couplings, dtype=float)
    frequencies = np.full(couplings.shape[0], float(frequency))
    return DeviceConfig(frequencies, temperatures, couplings)


def coupling_weights(config, kappa):
    """Reference normalized coupling row p[kappa][j] = gamma[kappa][j] / sum_m gamma[kappa][m]."""
    row = config.couplings[kappa]
    return row / row.sum()


def weighted_occupancy(config, kappa):
    """Reference stationary occupancy of mode kappa, computed one mode at a time:
    the coupling-weighted mean p @ n_j(w_kappa, T_j) of the reservoir occupancies."""
    occ = bose_occupancy(config.frequencies[kappa], config.temperatures)
    return float(coupling_weights(config, kappa) @ occ)


def counted_builds(monkeypatch, name):
    """A list that gains each device whose cached DeviceConfig property name is
    built from then on."""
    built, prop = [], DeviceConfig.__dict__[name]
    build = prop.func
    monkeypatch.setattr(prop, "func", lambda config: built.append(config) or build(config))
    return built


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)

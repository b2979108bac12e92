import numpy as np
import pytest

from thermoflow.cli import random_config  # noqa: F401  (imported by the test modules)
from thermoflow.physics import (
    T_FLOOR,
    DeviceConfig,
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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)

import numpy as np
import pytest

from thermoflow.cli import random_config  # noqa: F401  (imported by the test modules)
from thermoflow.physics import (
    T_FLOOR,
    DeviceConfig,
    Mode,
    Reservoir,
    inverse_temperature,
)


def occupancy_config(frequency, occupancies, couplings):
    """Device with one drain (index 0, at the temperature floor) and the remaining
    reservoirs tuned so their occupancies at `frequency` equal `occupancies`.

    couplings: (K, len(occupancies)+1) rows including the drain column.
    """
    reservoirs = [Reservoir(temperature=T_FLOOR, is_drain=True)]
    for b in occupancies:
        reservoirs.append(Reservoir(temperature=inverse_temperature(frequency, b)))
    couplings = np.asarray(couplings, dtype=float)
    modes = tuple(Mode(frequency=frequency) for _ in range(couplings.shape[0]))
    return DeviceConfig(
        modes=modes, reservoirs=tuple(reservoirs), couplings=couplings
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)

"""Stationary thermodynamics of K uncoupled bosonic modes, each dissipating into
n+1 thermal reservoirs.

Natural units (hbar = k_B = 1) throughout; SI conversion is a front-end concern.
Reservoir 0 is the cold drain. Couplings are stored gamma[mode][reservoir].
Energy flow J[kappa][j] > 0 means energy flows from reservoir j into the system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Strictly positive temperature floor replacing the idealized T0 -> 0 drain:
# entropy production -sum_j J_j/T_j diverges at exactly zero temperature.
T_FLOOR = 1e-9

# Occupancies below this are flushed to exactly 0 to avoid subnormal noise
# in flow sums. ln(1e300) is where 1/expm1(x) crosses the threshold.
OCCUPANCY_FLUSH = 1e-300
_X_FLUSH = 690.77552789821368


class ConfigError(ValueError):
    """Invalid physical configuration or out-of-domain argument."""


def bose_occupancy(frequency, temperature):
    """Mean excitation number 1/(exp(w/T) - 1) of a bosonic reservoir.

    Uses expm1 so small w/T stays accurate; deep exponential suppression
    (occupancy < 1e-300) is flushed to exactly 0. Broadcasts over arrays.
    """
    f = np.asarray(frequency, dtype=float)
    t = np.asarray(temperature, dtype=float)
    if np.any(f <= 0.0):
        raise ConfigError("frequency must be positive")
    if np.any(t <= 0.0):
        raise ConfigError("temperature must be positive")
    x = f / t
    occ = 1.0 / np.expm1(np.minimum(x, _X_FLUSH))
    occ = np.where((x >= _X_FLUSH) | (occ < OCCUPANCY_FLUSH), 0.0, occ)
    if occ.ndim == 0:
        return float(occ)
    return occ


def inverse_temperature(frequency, occupancy):
    """Temperature at which a reservoir has the given occupancy: T = w/ln(1 + 1/b).

    Round-trips with bose_occupancy to ~1e-15 relative. Zero occupancies are the
    compiler's business (occupancy floor), not handled here.
    """
    f = np.asarray(frequency, dtype=float)
    b = np.asarray(occupancy, dtype=float)
    if np.any(f <= 0.0):
        raise ConfigError("frequency must be positive")
    if np.any(b <= 0.0):
        raise ConfigError("occupancy must be positive")
    t = f / np.log1p(1.0 / b)
    if t.ndim == 0:
        return float(t)
    return t


@dataclass(frozen=True)
class Mode:
    """One bosonic mode: angular frequency and the frequency-group it belongs to."""

    frequency: float
    group_id: int = 1

    def __post_init__(self):
        if self.frequency <= 0.0:
            raise ConfigError("mode frequency must be positive")


@dataclass(frozen=True)
class Reservoir:
    """Thermal reservoir; the single drain (index 0) is the cold output channel."""

    temperature: float
    is_drain: bool = False

    def __post_init__(self):
        if self.temperature < T_FLOOR:
            raise ConfigError(
                f"reservoir temperature {self.temperature} below floor {T_FLOOR}"
            )


@dataclass(frozen=True)
class DeviceConfig:
    """Full physical device: modes, reservoirs and the dissipation-rate matrix.

    couplings has shape (K, n+1), entry [kappa][j] = rate of mode kappa into
    reservoir j. Immutable after construction; all operations on it are pure.
    """

    modes: tuple
    reservoirs: tuple
    couplings: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(self.modes))
        object.__setattr__(self, "reservoirs", tuple(self.reservoirs))
        g = np.array(self.couplings, dtype=float)
        if g.ndim != 2 or g.shape != (len(self.modes), len(self.reservoirs)):
            raise ConfigError(
                f"couplings shape {g.shape} does not match "
                f"{len(self.modes)} modes x {len(self.reservoirs)} reservoirs"
            )
        if np.any(g < 0.0):
            raise ConfigError("couplings must be non-negative")
        if np.any(g.sum(axis=1) <= 0.0):
            raise ConfigError("every mode needs at least one positive coupling")
        drains = [i for i, r in enumerate(self.reservoirs) if r.is_drain]
        if drains != [0]:
            raise ConfigError("exactly one drain reservoir required, at index 0")
        g.setflags(write=False)
        object.__setattr__(self, "couplings", g)

    @property
    def frequencies(self):
        return np.array([m.frequency for m in self.modes])

    @property
    def temperatures(self):
        return np.array([r.temperature for r in self.reservoirs])

    @property
    def n_modes(self):
        return len(self.modes)

    @property
    def n_reservoirs(self):
        return len(self.reservoirs)


@dataclass(frozen=True)
class FlowReport:
    """Stationary energy flows: per (mode, reservoir) channel, per reservoir,
    and the total entropy production rate."""

    per_channel: np.ndarray
    per_reservoir: np.ndarray
    entropy_rate: float


@dataclass(frozen=True)
class DrainFlowApprox:
    """Cold-drain approximation of one mode's drain flow next to the exact value."""

    approx: float
    exact: float
    abs_error: float


def occupancy_table(config: DeviceConfig) -> np.ndarray:
    """(K, n+1) table n_j(w_kappa, T_j) of reservoir occupancies at mode frequencies."""
    return bose_occupancy(
        config.frequencies[:, None], config.temperatures[None, :]
    )


def coupling_weights(config: DeviceConfig, mode_index: int) -> np.ndarray:
    """Normalized coupling weights p[kappa][j] = gamma[kappa][j] / sum_m gamma[kappa][m]."""
    row = config.couplings[mode_index]
    total = row.sum()
    if total <= 0.0:
        raise ConfigError(f"mode {mode_index} has an all-zero coupling row")
    return row / total


def weighted_occupancy(config: DeviceConfig, mode_index: int) -> float:
    """Coupling-weighted reservoir occupancy at the mode frequency; this is the
    mode's stationary occupancy and stays between the min and max reservoir
    occupancies."""
    p = coupling_weights(config, mode_index)
    occ = bose_occupancy(config.modes[mode_index].frequency, config.temperatures)
    return float(p @ occ)


def stationary_state(config: DeviceConfig):
    """Occupancy table, total rate Gamma_kappa and stationary occupancy n_tilde.

    n_tilde[kappa] = sum_j gamma[kappa][j] n_j(w_kappa) / Gamma_kappa is the fixed
    point of every mode's rate equation and the reference of every channel flow.
    """
    occ = occupancy_table(config)
    g = config.couplings
    rates = g.sum(axis=1)
    return occ, rates, (g * occ).sum(axis=1) / rates


def stationary_flows(config: DeviceConfig) -> FlowReport:
    """Stationary energy flows J[kappa][j] = w_kappa gamma[kappa][j] (n_j - n_tilde).

    Per-reservoir totals sum the channels; sum_j J_j vanishes identically (the
    weighted occupancy is exactly the coupling-weighted mean of the n_j).
    """
    occ, _, n_tilde = stationary_state(config)
    g = config.couplings
    per_channel = config.frequencies[:, None] * g * (occ - n_tilde[:, None])
    per_reservoir = per_channel.sum(axis=0)
    sigma = entropy_rate_from_totals(config, per_reservoir)
    return FlowReport(per_channel, per_reservoir, sigma)


def stationary_flows_pairwise(config: DeviceConfig) -> FlowReport:
    """Same flows computed from the pairwise form
    J[kappa][j] = w sum_q gamma_j gamma_q / (sum_m gamma_m) (n_j - n_q);
    agrees with stationary_flows to ~1e-12 relative per channel."""
    occ = occupancy_table(config)
    g = config.couplings
    totals = g.sum(axis=1)
    k, n1 = g.shape
    per_channel = np.zeros((k, n1))
    for kappa in range(k):
        diff = occ[kappa][:, None] - occ[kappa][None, :]  # (j, q)
        pair = g[kappa][:, None] * g[kappa][None, :] / totals[kappa]
        per_channel[kappa] = config.modes[kappa].frequency * (pair * diff).sum(axis=1)
    per_reservoir = per_channel.sum(axis=0)
    sigma = entropy_rate_from_totals(config, per_reservoir)
    return FlowReport(per_channel, per_reservoir, sigma)


def drain_flow_approx(config: DeviceConfig, mode_index: int) -> DrainFlowApprox:
    """Cold-drain form of mode kappa's drain flow,
    -w gamma[kappa][0] sum_{q>=1} p[kappa][q] n_q, next to the exact channel flow.

    The absolute discrepancy is the encoding error from the drain's residual
    occupancy; it vanishes when the drain occupancy is exactly 0.
    """
    if not config.reservoirs[0].is_drain:
        raise ConfigError("reservoir 0 must be the drain")
    p = coupling_weights(config, mode_index)
    w = config.modes[mode_index].frequency
    occ = bose_occupancy(w, config.temperatures)
    approx = -w * config.couplings[mode_index, 0] * float(p[1:] @ occ[1:])
    n_tilde = float(p @ occ)
    exact = w * config.couplings[mode_index, 0] * (occ[0] - n_tilde)
    return DrainFlowApprox(approx, exact, abs(approx - exact))


def entropy_rate_from_totals(config: DeviceConfig, per_reservoir: np.ndarray) -> float:
    """sigma = -sum_j J_j / T_j; non-negative in the stationary state."""
    t = config.temperatures
    if np.any(t < T_FLOOR):
        raise ConfigError("temperature below floor")
    return float(-(per_reservoir / t).sum())


def entropy_production_rate(config: DeviceConfig, flows: FlowReport) -> float:
    """Entropy production rate of a flow report (second law: >= 0 up to roundoff)."""
    return entropy_rate_from_totals(config, flows.per_reservoir)

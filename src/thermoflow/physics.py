"""Stationary thermodynamics of K uncoupled bosonic modes, each dissipating into
n+1 thermal reservoirs.

Natural units (hbar = k_B = 1) throughout; SI conversion is a front-end concern.
The cold drain is reservoir 0. Couplings are stored gamma[mode][reservoir].
Energy flow J[kappa][j] > 0 means energy flows from reservoir j into the system.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
    occ = _bose(f / t)
    if occ.ndim == 0:
        return float(occ)
    return occ


def _bose(x):
    """bose_occupancy at x = w/T without its checks, for callers whose
    frequencies and temperatures are already known to be positive. Writes the
    occupancies over x when it is a float array (callers pass a fresh w/T)."""
    occ = np.asarray(x, dtype=float)
    flush = occ >= _X_FLUSH
    np.minimum(occ, _X_FLUSH, out=occ)
    np.expm1(occ, out=occ)
    np.divide(1.0, occ, out=occ)
    flush |= occ < OCCUPANCY_FLUSH
    occ[flush] = 0.0
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


def _read_only(values, dtype=float) -> np.ndarray:
    array = np.array(values, dtype=dtype)
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class DeviceConfig:
    """Full physical device as four read-only arrays.

    frequencies (K,) are the mode frequencies and group_ids (K,) their
    frequency groups (default 1). temperatures (n+1,) are the reservoirs';
    reservoir 0 is the cold drain. couplings (K, n+1) is the dissipation-rate
    matrix, entry [kappa][j] = rate of mode kappa into reservoir j. Validated
    once at construction; all operations on a config are pure.
    """

    frequencies: np.ndarray
    temperatures: np.ndarray
    couplings: np.ndarray
    group_ids: np.ndarray | None = None

    def __post_init__(self):
        w = _read_only(self.frequencies)
        t = _read_only(self.temperatures)
        g = _read_only(self.couplings)
        ids = np.ones(w.shape, dtype=int) if self.group_ids is None else self.group_ids
        ids = _read_only(ids, int)
        if w.ndim != 1 or t.ndim != 1 or g.shape != (w.size, t.size):
            raise ConfigError(
                f"couplings shape {g.shape} does not match "
                f"{w.size} modes x {t.size} reservoirs"
            )
        if ids.shape != w.shape:
            raise ConfigError(f"group_ids need one entry per mode ({w.size})")
        if not np.all((w > 0.0) & (w < np.inf)):
            raise ConfigError("mode frequency must be finite and positive")
        bad = t[~((t >= T_FLOOR) & (t < np.inf))]
        if bad.size:
            raise ConfigError(
                f"reservoir temperature {bad[0]} not finite or below floor {T_FLOOR}"
            )
        if not np.all((g >= 0.0) & (g < np.inf)):
            raise ConfigError("couplings must be finite and non-negative")
        if np.any(g.sum(axis=1) <= 0.0):
            raise ConfigError("every mode needs at least one positive coupling")
        object.__setattr__(self, "frequencies", w)
        object.__setattr__(self, "temperatures", t)
        object.__setattr__(self, "couplings", g)
        object.__setattr__(self, "group_ids", ids)

    @cached_property
    def occupancies(self) -> np.ndarray:
        """Read-only (K, n+1) table n_j(w_kappa, T_j) of reservoir occupancies at
        the mode frequencies, computed on first use under the errstate then active
        and shared by the flows, the dynamics and the crossbar."""
        occ = _bose(self.frequencies[:, None] / self.temperatures[None, :])
        occ.setflags(write=False)
        return occ

    @property
    def n_modes(self):
        return self.frequencies.size

    @property
    def n_reservoirs(self):
        return self.temperatures.size


@dataclass(frozen=True)
class FlowReport:
    """Stationary energy flows: per (mode, reservoir) channel, per reservoir,
    the total entropy production rate, and the device's read-only (K, n+1)
    occupancy table the flows were computed from."""

    per_channel: np.ndarray
    per_reservoir: np.ndarray
    entropy_rate: float
    occupancies: np.ndarray


def stationary_state(config: DeviceConfig):
    """Occupancy table, total rate Gamma_kappa and stationary occupancy n_tilde.

    n_tilde[kappa] = sum_j gamma[kappa][j] n_j(w_kappa) / Gamma_kappa is the fixed
    point of every mode's rate equation and the reference of every channel flow.
    """
    occ = config.occupancies
    g = config.couplings
    rates = g.sum(axis=1)
    return occ, rates, (g * occ).sum(axis=1) / rates


def stationary_flows(config: DeviceConfig) -> FlowReport:
    """Stationary energy flows J[kappa][j] = w_kappa gamma[kappa][j] (n_j - n_tilde).

    Per-reservoir totals sum the channels; sum_j J_j vanishes identically (the
    stationary occupancy n_tilde is the coupling-weighted mean of the n_j).
    """
    occ, _, n_tilde = stationary_state(config)
    g = config.couplings
    per_channel = config.frequencies[:, None] * g * (occ - n_tilde[:, None])
    return _flow_report(config, per_channel, occ)


def stationary_flows_pairwise(config: DeviceConfig) -> FlowReport:
    """Same flows computed from the pairwise form
    J[kappa][j] = w sum_q gamma_j gamma_q / (sum_m gamma_m) (n_j - n_q);
    agrees with stationary_flows to ~1e-12 relative per channel."""
    occ = config.occupancies
    g = config.couplings
    totals = g.sum(axis=1)
    k, n1 = g.shape
    per_channel = np.zeros((k, n1))
    for kappa in range(k):
        diff = occ[kappa][:, None] - occ[kappa][None, :]  # (j, q)
        pair = g[kappa][:, None] * g[kappa][None, :] / totals[kappa]
        per_channel[kappa] = config.frequencies[kappa] * (pair * diff).sum(axis=1)
    return _flow_report(config, per_channel, occ)


def _flow_report(config: DeviceConfig, per_channel, occ) -> FlowReport:
    """Per-reservoir totals and the entropy production rate
    sigma = -sum_j J_j / T_j (non-negative in the stationary state)."""
    per_reservoir = per_channel.sum(axis=0)
    # sigma may overflow (a huge flow into the drain at T_FLOOR) and stays
    # inf or NaN then: the reports that print it refuse it, the rest ignore it.
    with np.errstate(over="ignore", invalid="ignore"):
        sigma = float(-(per_reservoir / config.temperatures).sum())
    return FlowReport(per_channel, per_reservoir, sigma, occ)

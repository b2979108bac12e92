"""Stationary thermodynamics of K uncoupled bosonic modes, each dissipating into
n+1 thermal reservoirs.

Natural units (hbar = k_B = 1) throughout; SI conversion is a front-end concern.
The cold drain is reservoir 0. Couplings are stored gamma[mode][reservoir].
Energy flow J[kappa][j] > 0 means energy flows from reservoir j into the system.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

# Strictly positive temperature floor replacing the idealized T0 -> 0 drain:
# entropy production -sum_j J_j/T_j diverges at exactly zero temperature.
T_FLOOR = 1e-9

# Occupancies below this are flushed to exactly 0 to avoid subnormal noise
# in flow sums. _bose flushes every x >= _X_FLUSH, the float nearest ln(1e300)
# (just below it): 1/expm1(_X_FLUSH) is 1.0000000000000237e-300, and the
# occupancy only grows below it, so no smaller x gives one under the threshold.
OCCUPANCY_FLUSH = 1e-300
_X_FLUSH = 690.77552789821368

# Entries of a row block of DeviceConfig.occupancy_pass: 128 KB temporaries,
# whatever K.
_BLOCK_ENTRIES = 16384


class ConfigError(ValueError):
    """Invalid physical configuration or out-of-domain argument."""


def bose_occupancy(frequency, temperature):
    """Mean excitation number 1/(exp(w/T) - 1) of a bosonic reservoir.

    Uses expm1 so small w/T stays accurate; deep exponential suppression
    (occupancy < 1e-300) is flushed to exactly 0. Broadcasts over arrays.
    """
    f = np.asarray(frequency, dtype=float)
    t = np.asarray(temperature, dtype=float)
    if (f <= 0.0).any():
        raise ConfigError("frequency must be positive")
    if (t <= 0.0).any():
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
    occ[flush] = 0.0
    return occ


def inverse_temperature(frequency, occupancy):
    """Temperature at which a reservoir has the given occupancy: T = w/ln(1 + 1/b).

    Round-trips with bose_occupancy to ~1e-15 relative. Zero occupancies are the
    compiler's business (occupancy floor), not handled here.
    """
    f = np.asarray(frequency, dtype=float)
    b = np.asarray(occupancy, dtype=float)
    if (f <= 0.0).any():
        raise ConfigError("frequency must be positive")
    if (b <= 0.0).any():
        raise ConfigError("occupancy must be positive")
    t = f / np.log1p(1.0 / b)
    if t.ndim == 0:
        return float(t)
    return t


def _read_only(values, dtype=float) -> np.ndarray:
    if isinstance(values, np.ndarray) and values.dtype == dtype:
        if values.flags.owndata and not values.flags.writeable:  # as encode's
            return values
    array = np.array(values, dtype=dtype)
    array.setflags(write=False)
    return array


class OccupancyPass(NamedTuple):
    """What the drain readout and the transient read of a device's occupancy
    table: the stationary occupancies n_tilde (K,) and the drain column n_0
    (K,)."""

    n_tilde: np.ndarray
    drain: np.ndarray


@dataclass(frozen=True)
class DeviceConfig:
    """Full physical device as four read-only arrays.

    frequencies (K,) are the mode frequencies and group_ids (K,) their
    frequency groups (default 1). temperatures (n+1,) are the reservoirs';
    reservoir 0 is the cold drain. couplings (K, n+1) is the dissipation-rate
    matrix, entry [kappa][j] = rate of mode kappa into reservoir j. Validated
    once at construction; all operations on a config are pure. An input that is
    already a read-only array owning its data is held as is, any other copied.
    rates (K,), the total rates Gamma_kappa = couplings.sum(axis=1), is computed
    by that validation and kept read-only. Two views of the Bose occupancies
    n_j(w_kappa, T_j) are cached on first use: the whole table occupancies,
    which only the callers that read all of it build, and occupancy_pass, the
    one place where n_tilde is reduced; it reads the table when that is
    already built and evaluates the occupancies itself otherwise.
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
        # min and max (NaN propagates) over an empty array give the initial values
        if not (w.min(initial=np.inf) > 0.0 and w.max(initial=0.0) < np.inf):
            raise ConfigError("mode frequency must be finite and positive")
        if not (t.min(initial=np.inf) >= T_FLOOR and t.max(initial=0.0) < np.inf):
            bad = t[~((t >= T_FLOOR) & (t < np.inf))][0]
            raise ConfigError(
                f"reservoir temperature {bad} not finite or below floor {T_FLOOR}"
            )
        if not (g.min(initial=np.inf) >= 0.0 and g.max(initial=0.0) < np.inf):
            raise ConfigError("couplings must be finite and non-negative")
        rates = g.sum(axis=1)
        if rates.min(initial=np.inf) <= 0.0:
            raise ConfigError("every mode needs at least one positive coupling")
        rates.setflags(write=False)
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "frequencies", w)
        object.__setattr__(self, "temperatures", t)
        object.__setattr__(self, "couplings", g)
        object.__setattr__(self, "group_ids", ids)

    @cached_property
    def occupancies(self) -> np.ndarray:
        """Read-only (K, n+1) table n_j(w_kappa, T_j) of reservoir occupancies at
        the mode frequencies, shared by the flow table, the transient and the
        crossbar; built on first use ignoring floating-point errors, whatever
        the errstate."""
        with np.errstate(all="ignore"):
            occ = _bose(self.frequencies[:, None] / self.temperatures[None, :])
        occ.setflags(write=False)
        return occ

    @cached_property
    def occupancy_pass(self) -> OccupancyPass:
        """The read-only OccupancyPass, from one pass over the table's rows in
        blocks of at most _BLOCK_ENTRIES entries: the blocks of the table when
        it is already built, else blocks evaluated here, so that no (K, n+1)
        array is held. Either way every entry has the table's bits, as both
        evaluate the occupancies ignoring floating-point errors; n_tilde is
        reduced under the caller's errstate."""
        w, t, g = self.frequencies, self.temperatures, self.couplings
        table = self.__dict__.get("occupancies")
        n_tilde, drain = np.empty(w.size), np.empty(w.size)
        step = max(1, _BLOCK_ENTRIES // t.size)
        for start in range(0, w.size, step):
            rows = slice(start, start + step)
            with np.errstate(all="ignore"):
                occ = _bose(w[rows, None] / t) if table is None else table[rows].copy()
            drain[rows] = occ[:, 0]
            occ *= g[rows]  # in place: a fresh block costs no second array
            n_tilde[rows] = occ.sum(axis=1)
        n_tilde /= self.rates
        n_tilde.setflags(write=False)
        drain.setflags(write=False)
        return OccupancyPass(n_tilde, drain)

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


def drain_flows(config: DeviceConfig) -> np.ndarray:
    """J[:, 0] = w gamma[:, 0] (n_0 - n_tilde), bit for bit stationary_flows',
    from the device's occupancy pass alone: no occupancy table is built."""
    state = config.occupancy_pass
    return config.frequencies * config.couplings[:, 0] * (state.drain - state.n_tilde)


def stationary_flows(config: DeviceConfig) -> FlowReport:
    """Stationary energy flows J[kappa][j] = w_kappa gamma[kappa][j] (n_j - n_tilde).

    Per-reservoir totals sum the channels; sum_j J_j vanishes identically (the
    stationary occupancy n_tilde is the coupling-weighted mean of the n_j).
    """
    occ = config.occupancies  # first, so that the occupancy pass reads it
    n_tilde = config.occupancy_pass.n_tilde[:, None]
    per_channel = config.frequencies[:, None] * config.couplings * (occ - n_tilde)
    return _flow_report(config, per_channel, occ)


def stationary_flows_pairwise(config: DeviceConfig) -> FlowReport:
    """Same flows computed from the pairwise form
    J[kappa][j] = w sum_q gamma_j gamma_q / (sum_m gamma_m) (n_j - n_q);
    agrees with stationary_flows to ~1e-12 relative per channel."""
    occ = config.occupancies
    g, totals = config.couplings, config.rates
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

"""Transient relaxation of mode occupancies to the stationary state.

Each mode obeys the scalar rate equation
    d<n_kappa>/dt = sum_j gamma[kappa][j] (n_j(w_kappa, T_j) - <n_kappa>)
                  = Gamma_kappa (n_tilde_kappa - <n_kappa>),
whose unique fixed point is the weighted occupancy behind the stationary flows.
The equations are scalar, linear and decoupled, so we evaluate the exact
exponential solution instead of stepping an integrator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from thermoflow.physics import ConfigError, DeviceConfig

SPEED_OF_LIGHT = 299792458.0  # m/s; qfactor_estimate is the only SI boundary

# Denominator floor for relative deviations when a mode's stationary occupancy
# is (numerically) zero, e.g. drain-dominated modes.
SETTLING_FLOOR = 1e-15


@dataclass(frozen=True)
class TransientTrace:
    """Sampled relaxation: per-mode occupancies and per-reservoir flows over time."""

    times: np.ndarray
    occupancies: np.ndarray  # (samples, K)
    flows: np.ndarray  # (samples, n+1)
    settled_at: float | None


def evolve(
    config: DeviceConfig,
    initial_occupancies,
    t_end: float,
    sample_count: int,
    rel_tol: float = 1e-6,
) -> TransientTrace:
    """Exact transient from a given initial occupancy vector.

    <n_kappa>(t) = n_tilde + (initial - n_tilde) exp(-Gamma_kappa t); transient
    flows follow from the instantaneous occupancies. settled_at is the closed-form
    settling time at rel_tol when it falls inside [0, t_end], else None.
    """
    init = np.asarray(initial_occupancies, dtype=float)
    if init.shape != (config.n_modes,):
        raise ConfigError("initial occupancies must have one entry per mode")
    if np.any(init < 0.0):
        raise ConfigError("initial occupancies must be non-negative")
    if t_end <= 0.0:
        raise ConfigError("t_end must be positive")
    if sample_count < 2:
        raise ConfigError("sample_count must be at least 2")

    occ_table = config.occupancies  # first, so that the occupancy pass reads it
    rates, n_tilde = config.rates, config.occupancy_pass.n_tilde
    times = np.linspace(0.0, t_end, sample_count)
    decay = np.exp(-np.outer(times, rates))
    occupancies = n_tilde[None, :] + (init - n_tilde)[None, :] * decay

    w = config.frequencies
    g = config.couplings
    # J_j(t) = sum_kappa w_kappa gamma[kappa][j] (n_j(w_kappa) - <n_kappa>(t))
    flows = np.einsum("k,kj->j", w, g * occ_table)[None, :] - occupancies @ (
        w[:, None] * g
    )

    t_settle = settling_time(config, init, rel_tol)
    settled_at = t_settle if t_settle <= t_end else None
    return TransientTrace(
        times=times, occupancies=occupancies, flows=flows, settled_at=settled_at
    )


def settling_time(config: DeviceConfig, initial_occupancies, rel_tol: float) -> float:
    """Smallest t with max_kappa |<n_kappa>(t) - n_tilde| / max(n_tilde, floor)
    below rel_tol; closed form per mode, 0 if every mode starts at its fixed point."""
    if not 0.0 < rel_tol < 1.0:
        raise ConfigError("rel_tol must be in (0, 1)")
    init = np.asarray(initial_occupancies, dtype=float)
    if np.any(init < 0.0):
        raise ConfigError("initial occupancies must be non-negative")
    rates, n_tilde = config.rates, config.occupancy_pass.n_tilde  # no table
    delta = init - n_tilde
    moving = delta != 0.0
    ratio = np.abs(delta[moving]) / (
        rel_tol * np.maximum(n_tilde[moving], SETTLING_FLOOR)
    )
    # math.log per element: np.log rounds differently on some inputs
    times = np.array([math.log(r) for r in ratio.tolist()]) / rates[moving]
    times = times[times > 0.0]  # a NaN time never counts as the maximum
    return float(times.max()) if times.size else 0.0


def stationary_window(config: DeviceConfig) -> float:
    """A time by which transients are dead to ~1e-10 relative: 40 / min Gamma_kappa."""
    return 40.0 / float(config.rates.min())


def qfactor_estimate(wavelength_m: float, q_low: float, q_high: float):
    """Settling-time interval in seconds for a resonator at wavelength lambda with
    quality factor between q_low and q_high: tau = Q / omega, omega = 2 pi c / lambda.

    SI units at this boundary only.
    """
    if wavelength_m <= 0.0 or q_low <= 0.0 or q_high <= 0.0:
        raise ConfigError("wavelength and Q bounds must be positive")
    if q_low > q_high:
        raise ConfigError("q_low must not exceed q_high")
    omega = 2.0 * math.pi * SPEED_OF_LIGHT / wavelength_m
    return (q_low / omega, q_high / omega)

"""Encode linear-algebra problems into device configurations and decode the
stationary drain flows back into numbers.

Encoding: a non-negative vector a (or each matrix row) becomes a mode's
normalized coupling weights, the input vector b becomes reservoir occupancies
via temperatures, and the result is read off the spectral energy flow into the
cold drain: value = -J[kappa][0] / (w_kappa * gamma[kappa][0]), times the
recorded row scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from thermoflow import physics
from thermoflow.physics import (
    T_FLOOR,
    ConfigError,
    DeviceConfig,
    FlowReport,
    _bose,
    bose_occupancy,
    inverse_temperature,
)

# Absolute floating-point cushion folded into every error bound; covers the
# occupancy round trip (~1e-15 rel) and flow-sum cancellation across reservoirs.
_FP_CUSHION = 1e-11


@dataclass(frozen=True)
class EncodeSettings:
    """Compiler knobs with their defaults.

    drain_ratio is gamma[kappa][0] / sum_{j>=1} gamma[kappa][j]; it must be
    small for the cold-drain readout to be accurate. total_rate only sets flow
    magnitudes and settling time and cancels in decode.
    """

    base_frequency: float = 1.0
    drain_ratio: float = 1e-4
    total_rate: float = 1.0
    group_tol: float = 1e-3
    occupancy_floor: float = 1e-12

    def validate(self):
        if self.base_frequency <= 0.0:
            raise ConfigError("base_frequency must be positive")
        if not 0.0 < self.drain_ratio <= 0.01:
            raise ConfigError("drain_ratio must be in (0, 0.01]")
        if self.total_rate <= 0.0:
            raise ConfigError("total_rate must be positive")
        if not 0.0 < self.group_tol <= 0.1:
            raise ConfigError("group_tol must be in (0, 0.1]")
        if self.occupancy_floor <= 0.0:
            raise ConfigError("occupancy_floor must be positive")


@dataclass(frozen=True)
class GroupSpec:
    """One group of close-frequency modes computing against a shared input vector."""

    group_id: int
    mode_indices: tuple
    base_frequency: float
    spread: float  # relative half-width of the frequency layout
    max_occupancy_dev: float  # realized max relative occupancy deviation
    degenerate: bool  # True when the spread fell back to exactly 0
    input_occupancies: np.ndarray  # effective input vector at the base frequency


@dataclass(frozen=True)
class CompiledProgram:
    """A target problem mapped onto a device plus everything needed to decode."""

    config: DeviceConfig
    groups: tuple
    drain_ratio: float
    row_scales: np.ndarray
    occupancy_floor: float
    target_shape: tuple
    row_dots: np.ndarray  # per-mode dot of normalized row with its group input
    kind: str = "matvec"  # "scalar" | "matvec"


@dataclass(frozen=True)
class DecodedResult:
    """Decoded output values with the raw drain flows and per-entry error bounds."""

    values: np.ndarray
    raw_flows: np.ndarray
    error_bound: np.ndarray

    @property
    def value(self) -> float:
        """Scalar view for single-output programs."""
        return float(np.asarray(self.values).reshape(-1)[0])


def _check_matrix(p: np.ndarray) -> np.ndarray:
    """Validate a non-negative matrix with no all-zero row; returns its row sums."""
    if p.ndim != 2 or p.shape[0] < 1 or p.shape[1] < 1:
        raise ConfigError("matrix must be 2-D and non-empty")
    if np.any(p < 0.0):
        raise ConfigError("matrix entries must be non-negative")
    sums = p.sum(axis=1)
    if np.any(sums <= 0.0):
        raise ConfigError("matrix has an all-zero row")
    return sums


def _group_deviation(occ, base_occ):
    """Max relative deviation |occ - base_occ| / base_occ over the rows of occ,
    the non-drain occupancies at the modes' frequencies. Callers run it under
    np.errstate(all="ignore"): a mode whose maximum is NaN (0/0 at a base
    occupancy flushed to 0) is skipped, and one whose occupancy overflows or
    whose base occupancy is 0 deviates by inf."""
    dev = np.subtract(occ, base_occ)
    np.abs(dev, out=dev)
    dev /= base_occ
    return max(0.0, *dev.max(axis=1).tolist())


# Upper end of the spread bisection: frequencies stay within w(1 +- 0.9).
_MAX_SPREAD = 0.9


def _solve_spread(base_frequency, temperatures, group_tol):
    """Largest relative half-width delta such that reservoir occupancies across
    [w(1-delta), w(1+delta)] stay within group_tol of their base values.

    An 80-step bisection on [0, 0.9]; falls back to delta = 0 (degenerate,
    exactly equal frequencies) when even a vanishing spread violates the
    tolerance. The steps far from the closed-form threshold _spread_guess are
    decided without evaluating the occupancies. The deviation grows
    monotonically with delta, so when the final bracket checks out (lo within
    the tolerance, hi not), every step went the way the plain bisection takes,
    and the result is bit for bit the same; otherwise the plain bisection runs.
    """
    base_occ = bose_occupancy(base_frequency, temperatures[1:])

    def within(delta):
        freqs = base_frequency * (1.0 + np.array([-delta, delta]))
        occ = _bose(freqs[:, None] / temperatures[None, 1:])
        return _group_deviation(occ, base_occ) <= group_tol

    with np.errstate(all="ignore"):
        if not within(1e-13):
            return 0.0, True
        if within(_MAX_SPREAD):
            return _MAX_SPREAD, False
        guess = _spread_guess(base_occ, group_tol)
        if math.isfinite(guess):
            lo, hi = _bisect(within, guess)
            if (lo == 0.0 or within(lo)) and (hi == _MAX_SPREAD or not within(hi)):
                return lo, False
        return _bisect(within, math.nan)[0], False


def _spread_guess(base_occ, group_tol):
    """Closed-form threshold of _solve_spread: the smallest relative frequency
    shift that moves some occupancy n_j by group_tol of itself, from
    n(w) = 1/expm1(w/T) and w/T = L(n) with L(y) = log1p(1/y); NaN or infinite
    when some n_j is 0 (it runs under _solve_spread's errstate)."""
    level = np.log1p(1.0 / base_occ)
    up = np.log1p(1.0 / (base_occ * (1.0 - group_tol))) / level - 1.0
    down = 1.0 - np.log1p(1.0 / (base_occ * (1.0 + group_tol))) / level
    return float(np.minimum(np.minimum(up, down).min(), _MAX_SPREAD))


def _bisect(within, guess):
    """Final (lo, hi) of 80 bisection steps on [0, _MAX_SPREAD], given that
    within(_MAX_SPREAD) is False. A step whose midpoint lies more than 1e-8
    relative below guess counts as within, more than 1e-8 above as not; only
    the rest call within (all of them for a NaN guess). A midpoint equal to lo
    or hi takes the answer that end already has."""
    below, above = guess * (1.0 - 1e-8), guess * (1.0 + 1e-8)
    lo, hi = 0.0, _MAX_SPREAD
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid < below:
            lo = mid
        elif mid == hi or mid > above or not within(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def _compile_groups(tasks, b, settings: EncodeSettings, kind: str) -> CompiledProgram:
    """Shared encoder: tasks is a list of (matrix, base_frequency) sharing the
    reservoir set; group 1's base frequency defines the temperature encoding."""
    settings.validate()
    b = np.asarray(b, dtype=float)
    if b.ndim != 1:
        raise ConfigError("input vector must be 1-D")
    if np.any(b < 0.0):
        raise ConfigError("input vector entries must be non-negative")
    n = b.size

    b_floored = np.maximum(b, settings.occupancy_floor)
    w_base = tasks[0][1]
    temps = np.empty(n + 1)
    temps[0] = T_FLOOR
    temps[1:] = inverse_temperature(w_base, b_floored)

    freq_blocks = []
    group_ids = []
    blocks = []
    groups = []
    row_scales = []
    row_dots = []
    for gid, (p, w_g) in enumerate(tasks, start=1):
        p = np.asarray(p, dtype=float)
        scales = _check_matrix(p)
        if p.shape[1] != n:
            raise ConfigError(
                f"matrix has {p.shape[1]} columns but input vector has {n} entries"
            )
        if w_g <= 0.0:
            raise ConfigError("group base frequency must be positive")
        m = p.shape[0]
        p_hat = p / scales[:, None]

        if m == 1:
            spread, degenerate = 0.0, False
            deltas = np.zeros(1)
        else:
            spread, degenerate = _solve_spread(w_g, temps, settings.group_tol)
            deltas = np.linspace(-spread, spread, m)

        input_occ = bose_occupancy(w_g, temps[1:])
        block = np.empty((m, n + 1))
        np.multiply(settings.total_rate, p_hat, out=block[:, 1:])
        block[:, 0] = settings.drain_ratio * block[:, 1:].sum(axis=1)
        start = sum(map(len, freq_blocks))
        freq_blocks.append(w_g * (1.0 + deltas))
        group_ids.append(np.full(m, gid))
        blocks.append(block)
        row_scales.append(scales)
        # One dot per row: the gemv p_hat @ input_occ rounds differently.
        row_dots += [float(row @ input_occ) for row in p_hat]
        groups.append(
            GroupSpec(
                group_id=gid,
                mode_indices=tuple(range(start, start + m)),
                base_frequency=w_g,
                spread=spread,
                max_occupancy_dev=math.nan,  # read off the device's table below
                degenerate=degenerate,
                input_occupancies=input_occ,
            )
        )

    _check_group_separation(groups)

    config = DeviceConfig(
        frequencies=np.concatenate(freq_blocks),
        temperatures=temps,
        couplings=blocks[0] if len(blocks) == 1 else np.vstack(blocks),
        group_ids=np.concatenate(group_ids),
    )
    with np.errstate(all="ignore"):  # builds the table: w/T_FLOOR may overflow
        for i, g in enumerate(groups):
            occ = config.occupancies[g.mode_indices[0] : g.mode_indices[-1] + 1, 1:]
            dev = _group_deviation(occ, g.input_occupancies)
            groups[i] = replace(g, max_occupancy_dev=dev)
    return CompiledProgram(
        config=config,
        groups=tuple(groups),
        drain_ratio=settings.drain_ratio,
        row_scales=np.concatenate(row_scales),
        occupancy_floor=settings.occupancy_floor,
        target_shape=tuple(np.asarray(tasks[0][0]).shape),
        row_dots=np.array(row_dots),
        kind=kind,
    )


def _check_group_separation(groups):
    """Groups must sit at well-separated base frequencies: gaps at least 10x the
    larger intra-group absolute spread, and frequency intervals disjoint."""
    if len(groups) < 2:
        return
    spans = []
    for g in groups:
        half = g.spread * g.base_frequency
        spans.append((g.base_frequency - half, g.base_frequency + half, g))
    spans.sort(key=lambda s: s[0])
    for (lo1, hi1, g1), (lo2, hi2, g2) in zip(spans, spans[1:]):
        if lo2 <= hi1:
            raise ConfigError(
                f"groups {g1.group_id} and {g2.group_id} overlap in frequency"
            )
        gap = g2.base_frequency - g1.base_frequency
        need = 10.0 * max(g1.spread * g1.base_frequency, g2.spread * g2.base_frequency)
        if gap < need:
            raise ConfigError(
                f"groups {g1.group_id} and {g2.group_id} are closer than 10x "
                f"the intra-group spread"
            )


def encode_scalar_product(a, b, **settings) -> CompiledProgram:
    """Compile the scalar product (a, b) of non-negative vectors onto one mode.

    a is auto-normalized with the scale recorded; b maps to reservoir
    occupancies via temperatures (zero entries are floored, see EncodeSettings).
    settings: EncodeSettings fields.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 1:
        raise ConfigError("a must be a 1-D vector")
    s = EncodeSettings(**settings)
    return _compile_groups([(a[None, :], s.base_frequency)], b, s, "scalar")


def encode_matvec(p, b, **settings) -> CompiledProgram:
    """Compile P @ b for a non-negative row matrix P: one mode per row, frequencies
    spread as widely as the group-closeness tolerance allows."""
    s = EncodeSettings(**settings)
    p = np.asarray(p, dtype=float)
    return _compile_groups([(p, s.base_frequency)], b, s, "matvec")


def encode_parallel_matvec(tasks, b, **settings) -> CompiledProgram:
    """Compile several matrices at well-separated base frequencies sharing one
    reservoir set. Group 1 computes against b; group g computes against the
    occupancy vector re-evaluated at its own base frequency (functionally
    dependent on b). tasks: sequence of (matrix, base_frequency); settings:
    EncodeSettings fields other than base_frequency."""
    if not tasks:
        raise ConfigError("need at least one (matrix, base_frequency) task")
    tasks = [(np.asarray(p, dtype=float), float(w)) for p, w in tasks]
    s = EncodeSettings(base_frequency=tasks[0][1], **settings)
    return _compile_groups(tasks, b, s, "matvec")


def estimate_encoding_error(program: CompiledProgram) -> np.ndarray:
    """Per-mode upper bound on |decoded - ideal row dot input|.

    Terms, per mode kappa with normalized row dot d = row_dots[kappa]:
      - drain-weight term  eps/(1+eps) * d: the drain's share of the coupling
        weights suppresses the readout by 1/(1+eps);
      - group-spread term  max_occupancy_dev * d: the mode reads occupancies at
        its own frequency, not the group base;
      - occupancy floor: zero input entries were floored;
      - residual drain occupancy at the group base frequency;
      - a fixed floating-point cushion.
    All scaled by the recorded row scale.
    """
    eps = program.drain_ratio
    bounds = np.empty(program.row_dots.size)
    for group in program.groups:
        n0 = bose_occupancy(group.base_frequency, T_FLOOR)
        idx = list(group.mode_indices)
        d = program.row_dots[idx]
        raw = (
            eps / (1.0 + eps) * d
            + group.max_occupancy_dev * d
            + program.occupancy_floor
            + n0
            + _FP_CUSHION * (d + 1.0)
        )
        bounds[idx] = program.row_scales[idx] * raw
    return bounds


def _decode_modes(program: CompiledProgram, flows: FlowReport, mode_indices):
    idx = np.array(mode_indices, dtype=int)
    g0 = program.config.couplings[idx, 0]
    zero = idx[g0 <= 0.0]
    if zero.size:
        raise ConfigError(f"mode {zero[0]} has zero drain coupling; decode undefined")
    j0 = flows.per_channel[idx, 0]
    w = program.config.frequencies[idx]
    return program.row_scales[idx] * (-j0 / (w * g0)), j0


def decode_scalar_product(program: CompiledProgram, flows: FlowReport) -> DecodedResult:
    """Read the scalar product off the drain flow: row_scale * (-J_0 / (w gamma_0))."""
    values, raw = _decode_modes(program, flows, program.groups[0].mode_indices[:1])
    bound = estimate_encoding_error(program)[:1]
    return DecodedResult(values=values, raw_flows=raw, error_bound=bound)


def decode_matvec(program: CompiledProgram, flows: FlowReport) -> DecodedResult:
    """Per-mode decode assembled into the output vector, with per-entry bounds."""
    if len(program.groups) != 1:
        raise ConfigError(
            "decode_matvec expects a single group; use parallel_group_products"
        )
    values, raw = _decode_modes(program, flows, program.groups[0].mode_indices)
    return DecodedResult(
        values=values, raw_flows=raw, error_bound=estimate_encoding_error(program)
    )


def parallel_group_products(program: CompiledProgram, flows: FlowReport):
    """Decode every group of a multi-group program; group g's result approximates
    P_g @ n(w_g, T), the input re-evaluated at that group's base frequency."""
    bounds = estimate_encoding_error(program)
    results = []
    for group in program.groups:
        values, raw = _decode_modes(program, flows, group.mode_indices)
        results.append(
            DecodedResult(
                values=values,
                raw_flows=raw,
                error_bound=bounds[list(group.mode_indices)],
            )
        )
    return results


def signed_split(a):
    """Split A into non-negative parts with A = A_plus - A_minus exactly."""
    a = np.asarray(a, dtype=float)
    return np.where(a > 0.0, a, 0.0), np.where(a < 0.0, -a, 0.0)


def run_matvec(p, b, **settings) -> DecodedResult:
    """Convenience end-to-end pipeline: encode, solve stationary flows, decode."""
    program = encode_matvec(p, b, **settings)
    return decode_matvec(program, physics.stationary_flows(program.config))


def encode_signed_matvec(a, b, **settings):
    """Compile a mixed-sign matrix as the split A = A_plus - A_minus.

    Returns [(sign, rows, program)] for the parts with at least one non-zero
    row; program computes that part's rows `rows` (in ascending order) against
    b. All-zero rows of a part contribute exactly 0 with zero bound, so they
    are left out of its program.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ConfigError("matrix must be 2-D")
    if np.any(np.all(a == 0.0, axis=1)):
        raise ConfigError("matrix has an all-zero row")
    parts = []
    for sign, part in zip((1.0, -1.0), signed_split(a)):
        rows = np.flatnonzero(~np.all(part == 0.0, axis=1))
        if rows.size:
            parts.append((sign, rows, encode_matvec(part[rows], b, **settings)))
    return parts


def combine_signed(m: int, decoded_parts) -> DecodedResult:
    """Add decoded parts [(sign, rows, DecodedResult)] into the m outputs of A @ b.

    Values add with their sign and error bounds add. raw_flows has shape (2, m):
    the drain flows of the plus part in row 0 and of the minus part in row 1.
    """
    values, bounds, raw = np.zeros(m), np.zeros(m), np.zeros((2, m))
    for sign, rows, result in decoded_parts:
        values[rows] += sign * result.values
        bounds[rows] += result.error_bound
        raw[0 if sign > 0 else 1, rows] = result.raw_flows
    return DecodedResult(values=values, raw_flows=raw, error_bound=bounds)


def signed_matvec(a, b, **settings) -> DecodedResult:
    """A @ b for a mixed-sign matrix via the split A = A_plus - A_minus: each part
    runs through the non-negative pipeline and the error bounds of the parts add."""
    parts = encode_signed_matvec(a, b, **settings)
    decoded = [
        (sign, rows, decode_matvec(program, physics.stationary_flows(program.config)))
        for sign, rows, program in parts
    ]
    return combine_signed(np.asarray(a).shape[0], decoded)

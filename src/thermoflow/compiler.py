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
from dataclasses import dataclass

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
    magnitudes and settling time and cancels in decode. Their product, the
    drain coupling, must be a normal double, and so must occupancy_floor.
    """

    base_frequency: float = 1.0
    drain_ratio: float = 1e-4
    total_rate: float = 1.0
    group_tol: float = 1e-3
    occupancy_floor: float = 1e-12

    def validate(self):
        for name in ("base_frequency", "total_rate", "occupancy_floor"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        if self.base_frequency <= 0.0:
            raise ConfigError("base_frequency must be positive")
        if not 0.0 < self.drain_ratio <= 0.01:
            raise ConfigError("drain_ratio must be in (0, 0.01]")
        if self.total_rate <= 0.0:
            raise ConfigError("total_rate must be positive")
        if self.drain_ratio * self.total_rate < np.finfo(float).tiny:
            raise ConfigError("drain_ratio * total_rate must be >= 2.2250738585072014e-308")
        if not 0.0 < self.group_tol <= 0.1:
            raise ConfigError("group_tol must be in (0, 0.1]")
        if self.occupancy_floor <= 0.0:
            raise ConfigError("occupancy_floor must be positive")
        if self.occupancy_floor < np.finfo(float).tiny:
            raise ConfigError("occupancy_floor must be >= 2.2250738585072014e-308")


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
    """Validate a finite non-negative matrix without all-zero rows; returns row sums."""
    if p.ndim != 2 or p.shape[0] < 1 or p.shape[1] < 1:
        raise ConfigError("matrix must be 2-D and non-empty")
    if not (p >= 0.0).all() and np.isfinite(p).all():
        raise ConfigError("matrix entries must be non-negative")
    sums = p.sum(axis=1)
    if not np.isfinite(sums).all():  # also where an entry is NaN or infinite
        raise ConfigError("matrix entries must be finite, with finite row sums")
    if (sums <= 0.0).any():
        raise ConfigError("matrix has an all-zero row")
    return sums


def _group_deviation(occ, base_occ):
    """Max relative deviation |occ - base_occ| / base_occ along the last axis of
    occ, the non-drain occupancies at the modes' frequencies, skipping a NaN
    entry: 0/0, where an occupancy and its base occupancy both flushed to 0,
    deviates by nothing. The maximum is NaN only when every entry is. An entry
    whose occupancy overflows, or that is positive over a base occupancy of 0,
    deviates by inf. Callers run it under np.errstate(all="ignore")."""
    dev = np.subtract(occ, base_occ)
    np.abs(dev, out=dev)
    dev /= base_occ
    return np.fmax.reduce(dev, axis=-1)


# Upper end of the spread bisection: frequencies stay within w(1 +- 0.9).
_MAX_SPREAD = 0.9

# The spread predicate's factors 1 -+ delta at delta = 1e-13 and _MAX_SPREAD,
# and the bit steps of its window: _WINDOW consecutive doubles either side of
# fl(1 -+ guess), each row ascending in delta (1 - delta falls, 1 + delta rises).
_WINDOW = 8
_EDGES = 1.0 + np.multiply.outer((-1.0, 1.0), [1e-13, _MAX_SPREAD])
_STEPS = np.arange(-_WINDOW, _WINDOW + 1) * np.array([[-1], [1]])


def _solve_spread(base_frequency, temperatures, group_tol, base_occ=None):
    """(delta, degenerate, deviation): the largest relative half-width delta
    such that reservoir occupancies across [w(1-delta), w(1+delta)] stay within
    group_tol of their base values base_occ, bose_occupancy(w, temperatures[1:])
    unless given; 0 (degenerate, exactly equal frequencies) when even a
    vanishing spread does not. deviation is the largest _group_deviation at
    the factors 1 -+ delta, or 0 where every entry is 0/0: that of a group laid
    out from w(1 - delta) to w(1 + delta), whose edge modes deviate most.

    The result is that of an 80-step bisection on [0, 0.9]. The deviation grows
    monotonically with delta, so each step just compares its midpoint with the
    predicate's float threshold t. One call finds t: it evaluates both ends,
    and the factors fl(1 -+ delta), through which alone the predicate sees
    delta, at _WINDOW doubles either side of fl(1 -+ _spread_guess). A second
    certifies the final bracket (lo within the tolerance, hi not). When either
    fails, the plain bisection runs, one call a step, and one more call takes
    the deviation at its result.
    """
    if base_occ is None:
        base_occ = bose_occupancy(base_frequency, temperatures[1:])

    def deviation(factors):  # per factor; NaN where every entry is 0/0
        occ = _bose((base_frequency * factors)[..., None] / temperatures[1:])
        return _group_deviation(occ, base_occ)

    def edges(deltas):  # per delta, the larger of its two sides' deviations
        return np.fmax.reduce(deviation(1.0 + np.multiply.outer((-1.0, 1.0), deltas)))

    with np.errstate(all="ignore"):
        guess = _spread_guess(base_occ, group_tol)
        factors = _EDGES
        if 0.0 < guess < 0.5:
            bits = np.array([[1.0 - guess], [1.0 + guess]]).view(np.int64)
            factors = np.concatenate((_EDGES, (bits + _STEPS).view(float)), axis=1)
        dev = deviation(factors)  # a NaN deviation is within the tolerance
        (low, top, *minus), (high, over, *plus) = (~(dev > group_tol)).tolist()
        if not (low and high):
            return 0.0, True, 0.0
        if top and over:
            return _MAX_SPREAD, False, max(0.0, *dev[:, 1].tolist())
        t = math.inf  # a side that never leaves the tolerance leaves t to the other
        for sign, ok, side in zip((-1.0, 1.0), (minus, plus), factors[:, 2:].tolist()):
            count = sum(ok)
            if count == 0 or not all(ok[:count]):  # a miss, or not True then False
                t = math.nan
            elif count < len(ok):  # min keeps a NaN t
                t = min(t, _last_delta(side[count - 1], sign))
        if t < math.inf:  # and not NaN
            lo, hi = _bisect(t)
            at_lo, at_hi = edges([lo, hi]).tolist()
            if not at_lo > group_tol and at_hi > group_tol:
                return lo, False, max(0.0, at_lo)
        lo = _bisect(lambda delta: not edges(delta) > group_tol)[0]
        return lo, False, max(0.0, float(edges(lo)))


def _last_delta(factor, sign):
    """Largest delta with fl(1 + sign * delta) == factor, for a factor in [1, 2)
    (sign 1) or (0.5, 1] (sign -1): 1 + sign * delta reaches the midpoint of
    factor and the next double away from 1, which rounds to factor when its
    last significand bit is even (ties to even). Every step is exact."""
    beyond = math.nextafter(factor, sign * math.inf)
    delta = sign * (factor - 1.0) + 0.5 * abs(beyond - factor)
    odd = int(math.ldexp(math.frexp(factor)[0], 53)) & 1
    return math.nextafter(delta, 0.0) if odd else delta


def _spread_guess(base_occ, group_tol):
    """Closed-form threshold of _solve_spread: the smallest relative frequency
    shift that moves some occupancy n_j by group_tol of itself, from
    n(w) = 1/expm1(w/T) and w/T = L(n) with L(y) = log1p(1/y). Its 1 -+ guess
    lands within a few doubles of the predicate's factors at the threshold; it
    is NaN or infinite when some n_j is 0 (it runs under _solve_spread's
    errstate)."""
    level = np.log1p(1.0 / base_occ)
    up = np.log1p(1.0 / (base_occ * (1.0 - group_tol))) / level - 1.0
    down = 1.0 - np.log1p(1.0 / (base_occ * (1.0 + group_tol))) / level
    return float(np.minimum(np.minimum(up, down).min(), _MAX_SPREAD))


def _bisect(decide):
    """Final (lo, hi) of 80 bisection steps on [0, _MAX_SPREAD]: a midpoint
    where decide holds becomes lo, any other hi. decide is a predicate, or a
    float threshold t that decides mid <= t without a call per step."""
    lo, hi = 0.0, _MAX_SPREAD
    known = isinstance(decide, float)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if (mid <= decide) if known else decide(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def _temperatures(b, s: EncodeSettings) -> np.ndarray:
    """Validated reservoir temperatures encoding b at s.base_frequency, drain first."""
    s.validate()
    b = np.asarray(b, dtype=float)
    if b.ndim != 1:
        raise ConfigError("input vector must be 1-D")
    if (b < 0.0).any():
        raise ConfigError("input vector entries must be non-negative")
    temps = inverse_temperature(s.base_frequency, np.maximum(b, s.occupancy_floor))
    return np.concatenate(([T_FLOOR], temps))


def _compile_groups(tasks, temps, settings, kind, shared) -> CompiledProgram:
    """Shared encoder of tasks, (matrix, base_frequency) pairs, at temperatures
    temps; shared maps w to (input occupancies, _solve_spread's result or None)."""
    n = temps.size - 1
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
        input_occ, solved = shared.get(w_g) or (bose_occupancy(w_g, temps[1:]), None)
        if m > 1:
            solved = solved or _solve_spread(w_g, temps, settings.group_tol, input_occ)
        spread, degenerate, dev = solved if m > 1 else (0.0, False, 0.0)
        shared[w_g] = input_occ, solved
        block = np.empty((m, n + 1))
        p_hat = np.divide(p, scales[:, None], out=block[:, 1:])
        # One ddot per row, as row @ input_occ: the gemv p_hat @ input_occ
        # rounds differently.
        row_dots.append(np.matmul(p_hat[:, None, :], input_occ)[:, 0])
        p_hat *= settings.total_rate
        block[:, 0] = settings.drain_ratio * p_hat.sum(axis=1)
        start = sum(map(len, freq_blocks))
        freqs = w_g * (1.0 + np.linspace(-spread, spread, m))
        modes = tuple(range(start, start + m))
        groups.append(GroupSpec(gid, modes, w_g, spread, dev, degenerate, input_occ))
        freq_blocks.append(freqs)
        group_ids.append(np.full(m, gid))
        blocks.append(block)
        row_scales.append(scales)

    _check_group_separation(groups)

    arrays = [
        np.concatenate(freq_blocks),
        temps,
        blocks[0] if len(blocks) == 1 else np.vstack(blocks),
        np.concatenate(group_ids),
    ]
    for array in arrays:
        array.setflags(write=False)  # so that the device holds it as is
    return CompiledProgram(
        config=DeviceConfig(*arrays),
        groups=tuple(groups),
        drain_ratio=settings.drain_ratio,
        row_scales=np.concatenate(row_scales),
        occupancy_floor=settings.occupancy_floor,
        target_shape=tuple(np.asarray(tasks[0][0]).shape),
        row_dots=np.concatenate(row_dots),
        kind=kind,
    )


def _check_group_separation(groups):
    """GroupSpecs must sit at well-separated base frequencies: gaps at least 10x
    the larger intra-group absolute spread, and frequency intervals disjoint."""
    if len(groups) < 2:
        return
    spans = []
    for g in groups:
        w, half = g.base_frequency, g.spread * g.base_frequency
        spans.append((w - half, w + half, g.group_id, w, half))
    spans.sort(key=lambda s: s[0])
    for (lo1, hi1, id1, w1, half1), (lo2, hi2, id2, w2, half2) in zip(spans, spans[1:]):
        if lo2 <= hi1:
            raise ConfigError(f"groups {id1} and {id2} overlap in frequency")
        gap = w2 - w1
        need = 10.0 * max(half1, half2)
        if gap < need:
            raise ConfigError(
                f"groups {id1} and {id2} are closer than 10x the intra-group spread"
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
    task = (a[None, :], s.base_frequency)
    return _compile_groups([task], _temperatures(b, s), s, "scalar", {})


def encode_matvec(p, b, **settings) -> CompiledProgram:
    """Compile P @ b for a non-negative row matrix P: one mode per row, frequencies
    spread as widely as the group-closeness tolerance allows."""
    s = EncodeSettings(**settings)
    tasks = [(np.asarray(p, dtype=float), s.base_frequency)]
    return _compile_groups(tasks, _temperatures(b, s), s, "matvec", {})


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
    return _compile_groups(tasks, _temperatures(b, s), s, "matvec", {})


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


def _decode(program: CompiledProgram, drain, modes, bounds) -> DecodedResult:
    """Read modes, in their order, off the drain column: row_scale *
    (-J_0 / (w gamma_0)) per mode, with that mode's entry of bounds."""
    idx = np.asarray(modes, dtype=int)
    g0 = program.config.couplings[idx, 0]
    zero = idx[g0 <= 0.0]
    if zero.size:
        raise ConfigError(f"mode {zero[0]} has zero drain coupling; decode undefined")
    j0 = drain[idx]
    values = program.row_scales[idx] * (-j0 / (program.config.frequencies[idx] * g0))
    return DecodedResult(values=values, raw_flows=j0, error_bound=bounds[idx])


def decode_scalar_product(program: CompiledProgram, flows: FlowReport) -> DecodedResult:
    """Read the scalar product off mode 0's drain flow."""
    return _decode(program, flows.per_channel[:, 0], [0], estimate_encoding_error(program))


def decode_matvec(program: CompiledProgram, flows: FlowReport) -> DecodedResult:
    """Per-mode decode assembled into the output vector, with per-entry bounds."""
    return _decode_matvec(program, flows.per_channel[:, 0])


def _decode_matvec(program: CompiledProgram, drain) -> DecodedResult:
    """Output i is mode i, whatever order the group lists its modes in."""
    if len(program.groups) != 1:
        raise ConfigError(
            "decode_matvec expects a single group; use parallel_group_products"
        )
    modes = np.arange(program.row_scales.size)
    return _decode(program, drain, modes, estimate_encoding_error(program))


def parallel_group_products(program: CompiledProgram, flows: FlowReport):
    """Decode every group of a multi-group program; group g's result approximates
    P_g @ n(w_g, T), the input re-evaluated at that group's base frequency."""
    drain, bounds = flows.per_channel[:, 0], estimate_encoding_error(program)
    return [_decode(program, drain, g.mode_indices, bounds) for g in program.groups]


def _signed_parts(a):
    """(1.0, A_plus), then (-1.0, A_minus), each part built when it is asked for."""
    yield 1.0, np.fmax(a, 0.0) + 0.0  # + 0.0: -0.0 to 0.0, the bits of np.where(a > 0.0, a, 0.0)
    minus = np.subtract(0.0, a)  # never -0.0; fmax then zeroes NaN as np.where does
    np.fmax(minus, 0.0, out=minus)
    yield -1.0, minus


def run_matvec(p, b, **settings) -> DecodedResult:
    """Convenience end-to-end pipeline: encode, solve the drain flows, decode."""
    program = encode_matvec(p, b, **settings)
    return _decode_matvec(program, physics.drain_flows(program.config))


def encode_signed_matvec(a, b, **settings):
    """Compile a mixed-sign matrix as the split A = A_plus - A_minus.

    Returns [(sign, rows, program)] for the parts with at least one non-zero
    row; program computes that part's rows `rows` (in ascending order) against
    b. All-zero rows of a part contribute exactly 0 with zero bound, so they
    are left out of its program. The parts share one spread solve and are
    built and compiled one at a time.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ConfigError("matrix must be 2-D")
    if not np.isfinite(a.sum(axis=1)).all():  # the split would turn NaN into 0
        raise ConfigError("matrix entries must be finite, with finite row sums")
    if (a == 0.0).all(axis=1).any():
        raise ConfigError("matrix has an all-zero row")
    s = EncodeSettings(**settings)
    temps, shared, parts = _temperatures(b, s), {}, []
    for sign, part in _signed_parts(a):
        rows = np.flatnonzero(part.any(axis=1))  # a part holds no -0.0 or NaN
        if rows.size:
            task = (part if rows.size == len(part) else part[rows], s.base_frequency)
            parts.append((sign, rows, _compile_groups([task], temps, s, "matvec", shared)))
            del task
        del part  # so that the next part is built without this one held
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
        (sign, rows, _decode_matvec(program, physics.drain_flows(program.config)))
        for sign, rows, program in parts
    ]
    return combine_signed(np.asarray(a).shape[0], decoded)

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import coupling_weights
from thermoflow import physics
from thermoflow.compiler import (
    combine_signed,
    decode_matvec,
    decode_scalar_product,
    encode_matvec,
    encode_parallel_matvec,
    encode_scalar_product,
    encode_signed_matvec,
    estimate_encoding_error,
    parallel_group_products,
    run_matvec,
    signed_matvec,
    signed_split,
)
from thermoflow.physics import (
    T_FLOOR,
    ConfigError,
    bose_occupancy,
    inverse_temperature,
    stationary_flows,
)


def run_scalar(a, b, **kw):
    program = encode_scalar_product(a, b, **kw)
    return program, decode_scalar_product(program, stationary_flows(program.config))


class TestEncodeScalarProduct:
    def test_direct_substitution(self):
        program = encode_scalar_product([0.3, 0.7], [1.0, 2.0])
        np.testing.assert_allclose(
            program.config.couplings, [[1e-4, 0.3, 0.7]], rtol=1e-14
        )
        temps = program.config.temperatures
        assert temps[0] == T_FLOOR
        assert temps[1] == pytest.approx(1.4426950408889634, rel=1e-14)
        assert temps[2] == pytest.approx(2.466303462376432, rel=1e-14)

    def test_basis_vector_selects_entry(self):
        program, result = run_scalar(np.array([1.0, 0.0]), np.array([0.37, 5.0]))
        p = coupling_weights(program.config, 0)
        assert p[2] == 0.0
        assert p[1] == pytest.approx(1.0, abs=2e-4)
        assert result.value == pytest.approx(0.37, abs=result.error_bound[0])

    def test_unnormalized_input_bookkeeping(self):
        program = encode_scalar_product([2.0, 2.0], [1.0, 1.0])
        assert program.row_scales[0] == pytest.approx(4.0)
        np.testing.assert_allclose(
            program.config.couplings[0, 1:], [0.5, 0.5], rtol=1e-14
        )

    def test_invalid_inputs(self):
        with pytest.raises(ConfigError):
            encode_scalar_product([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ConfigError):
            encode_scalar_product([1.0, -0.1], [1.0, 1.0])
        with pytest.raises(ConfigError):
            encode_scalar_product([1.0, 1.0], [1.0, -1.0])
        with pytest.raises(ConfigError):
            encode_scalar_product([1.0], [1.0], drain_ratio=0.5)

    def test_drain_coupling_ratio_exact(self):
        program = encode_scalar_product([0.2, 0.5, 0.3], [1.0, 2.0, 0.5])
        row = program.config.couplings[0]
        assert row[0] == 1e-4 * row[1:].sum()


class TestDecodeScalarProduct:
    def test_dot_product_oracle(self):
        _, result = run_scalar([0.3, 0.7], [1.0, 2.0])
        assert abs(result.value - 1.7) <= result.error_bound[0]
        assert result.value == pytest.approx(1.7, rel=2e-4)

    def test_zero_vector(self):
        program, result = run_scalar([0.5, 0.5], [0.0, 0.0])
        assert abs(result.value) <= 2 * program.occupancy_floor + 1e-10

    @pytest.mark.parametrize("c", [0.1, 1.0, 10.0])
    def test_constant_vector(self, c):
        _, result = run_scalar([0.5, 0.5], [c, c])
        assert result.value == pytest.approx(c, rel=2e-4)


class TestEncodingErrorBudget:
    def test_bound_scales_with_drain_ratio(self):
        program = encode_scalar_product([0.4, 0.6], [2.0, 1.5], drain_ratio=1e-4)
        bound = estimate_encoding_error(program)[0]
        assert bound <= 2e-4 * program.row_scales[0] * 2.0 + 1e-6

    def test_bound_holds_over_random_programs(self, rng):
        for _ in range(300):
            n = int(rng.integers(1, 9))
            a = rng.uniform(0.0, 1.0, n)
            if a.sum() == 0.0:
                a[0] = 1.0
            b = rng.uniform(0.0, 5.0, n)
            _, result = run_scalar(a, b)
            assert abs(result.value - float(a @ b)) <= result.error_bound[0]

    def test_tighter_bound_for_smaller_drain_ratio(self):
        b = [1.0, 2.0]
        big = estimate_encoding_error(encode_scalar_product([0.5, 0.5], b, drain_ratio=1e-3))
        small = estimate_encoding_error(encode_scalar_product([0.5, 0.5], b, drain_ratio=1e-5))
        assert small[0] < big[0]


class TestEncodeMatvec:
    def test_matvec_oracle(self):
        p = np.array([[0.5, 0.5], [0.2, 0.8]])
        b = np.array([1.0, 2.0])
        result = run_matvec(p, b)
        expected = p @ b
        assert np.all(np.abs(result.values - expected) <= result.error_bound)
        np.testing.assert_allclose(result.values, [1.5, 1.8], rtol=5e-3)

    def test_basis_rows_select_entries(self):
        p = np.eye(3)[[2, 0]]
        b = np.array([0.3, 1.1, 2.7])
        result = run_matvec(p, b)
        np.testing.assert_allclose(result.values, [2.7, 0.3], rtol=5e-3)

    def test_uniform_row_averages(self):
        n = 5
        p = np.full((1, n), 1.0 / n)
        b = np.linspace(0.5, 2.5, n)
        result = run_matvec(p, b)
        assert result.values[0] == pytest.approx(b.mean(), rel=5e-3)

    def test_all_zero_row_rejected(self):
        with pytest.raises(ConfigError):
            encode_matvec([[1.0, 0.0], [0.0, 0.0]], [1.0, 1.0])

    def test_overflowing_drain_column_flushes_silently(self):
        # w/T_FLOOR overflows at this base frequency; pytest turns a
        # RuntimeWarning into an error
        program = encode_matvec([[0.5, 0.5], [0.2, 0.8]], [1.0, 2.0], base_frequency=1e300)
        assert np.all(program.config.occupancies[:, 0] == 0.0)

    def test_group_invariant_holds(self):
        p = np.random.default_rng(7).uniform(0.1, 1.0, (6, 4))
        b = np.array([0.5, 1.0, 2.0, 4.0])
        program = encode_matvec(p, b)
        group = program.groups[0]
        assert group.spread > 0.0
        base_occ = bose_occupancy(group.base_frequency, program.config.temperatures[1:])
        for kappa in group.mode_indices:
            w = program.config.frequencies[kappa]
            occ = bose_occupancy(w, program.config.temperatures[1:])
            assert np.all(np.abs(occ - base_occ) <= 1e-3 * base_occ * (1 + 1e-9))

    def test_coupling_weights_reproduce_rows(self):
        p = np.array([[0.5, 0.5], [0.2, 0.8]])
        program = encode_matvec(p, [1.0, 2.0])
        eps = program.drain_ratio
        for kappa in range(2):
            weights = coupling_weights(program.config, kappa)
            # ignoring the drain weight, the row comes back exactly
            np.testing.assert_allclose(
                weights[1:] / weights[1:].sum(), p[kappa], rtol=1e-12
            )
            # with it, within the drain ratio
            np.testing.assert_allclose(weights[1:], p[kappa], rtol=1.01 * eps)

    def test_markov_step_preserves_probability_vector(self, rng):
        p = rng.uniform(0.0, 1.0, (4, 4))
        p /= p.sum(axis=1, keepdims=True)
        b = rng.uniform(0.0, 1.0, 4)
        b /= b.sum()
        result = run_matvec(p, b)
        assert np.all(result.values >= -result.error_bound)
        expected = p @ b
        assert np.all(np.abs(result.values - expected) <= result.error_bound)
        assert result.values.sum() == pytest.approx(expected.sum(), abs=result.error_bound.sum())


class TestDecodeMatvec:
    def test_single_row_matches_scalar_pipeline(self):
        a = np.array([0.3, 0.7])
        b = np.array([1.0, 2.0])
        _, scalar_result = run_scalar(a, b)
        matvec_result = run_matvec(a[None, :], b)
        assert matvec_result.values[0] == pytest.approx(scalar_result.value, rel=1e-12)

    def test_end_to_end_random_oracle(self, rng):
        for _ in range(50):
            m = int(rng.integers(1, 7))
            n = int(rng.integers(1, 7))
            p = rng.uniform(0.0, 1.0, (m, n))
            p[p.sum(axis=1) == 0.0, 0] = 1.0
            b = rng.uniform(0.0, 3.0, n)
            result = run_matvec(p, b)
            assert np.all(np.abs(result.values - p @ b) <= result.error_bound)


class TestMonotonicityInDrainRatio:
    def test_halving_drain_ratio_never_hurts(self, rng):
        # group_tol pinned tiny so the drain ratio dominates the error budget
        instances = []
        for _ in range(10):
            m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            p = rng.uniform(0.1, 1.0, (m, n))
            b = rng.uniform(0.1, 3.0, n)
            instances.append((p, b))
        for p, b in instances:
            eps = 1e-4
            prev = None
            for _ in range(4):
                result = run_matvec(p, b, drain_ratio=eps, group_tol=1e-8)
                err = float(np.max(np.abs(result.values - p @ b)))
                if prev is not None:
                    assert err <= prev * (1.0 + 1e-6) + 1e-13
                prev = err
                eps /= 2.0


class TestSignedMatvec:
    def test_antisymmetric_cancellation(self):
        result = signed_matvec(np.array([[0.5, -0.5]]), np.array([2.0, 2.0]))
        assert abs(result.values[0]) <= result.error_bound[0]

    def test_split_oracle(self):
        result = signed_matvec(np.array([[1.0, -1.0]]), np.array([3.0, 1.0]))
        assert abs(result.values[0] - 2.0) <= result.error_bound[0]
        assert result.values[0] == pytest.approx(2.0, rel=1e-3)

    def test_zero_negative_part_contributes_exactly_zero(self):
        a = np.array([[0.5, 0.5], [0.3, -0.7]])
        result = signed_matvec(a, np.array([1.0, 2.0]))
        positive_only = run_matvec(np.array([[0.5, 0.5], [0.3, 0.0]]), np.array([1.0, 2.0]))
        # row 0 has no negative part: its value is the positive pipeline's, exactly
        assert result.values[0] == positive_only.values[0]
        assert result.raw_flows[1, 0] == 0.0

    def test_all_zero_row_rejected(self):
        with pytest.raises(ConfigError):
            signed_matvec(np.array([[1.0, -1.0], [0.0, 0.0]]), np.array([1.0, 1.0]))

    def test_encode_keeps_only_parts_with_non_zero_rows(self):
        a = np.array([[0.5, 0.5], [0.3, -0.7], [0.2, 0.0]])
        parts = encode_signed_matvec(a, np.array([1.0, 2.0]), drain_ratio=1e-3)
        assert [(sign, rows.tolist()) for sign, rows, _ in parts] == [
            (1.0, [0, 1, 2]),
            (-1.0, [1]),
        ]
        assert all(program.drain_ratio == 1e-3 for _, _, program in parts)
        non_negative = encode_signed_matvec(np.abs(a), np.array([1.0, 2.0]))
        assert [sign for sign, _, _ in non_negative] == [1.0]

    def test_combine_adds_signed_values_and_bounds(self):
        a = np.array([[0.5, -0.5], [0.0, -0.7]])
        b = np.array([1.0, 2.0])
        decoded = [
            (sign, rows, decode_matvec(program, stationary_flows(program.config)))
            for sign, rows, program in encode_signed_matvec(a, b)
        ]
        (_, _, plus), (_, _, minus) = decoded
        result = combine_signed(2, decoded)
        assert result.values[0] == plus.values[0] - minus.values[0]
        assert result.values[1] == -minus.values[1]
        assert result.error_bound[0] == plus.error_bound[0] + minus.error_bound[0]
        np.testing.assert_array_equal(result.raw_flows[1], minus.raw_flows)
        assert result.raw_flows[0, 1] == 0.0
        np.testing.assert_array_equal(result.values, signed_matvec(a, b).values)

    @given(
        arrays(
            np.float64,
            (3, 4),
            elements=st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
        )
    )
    def test_split_identity(self, a):
        plus, minus = signed_split(a)
        assert np.all(plus >= 0.0)
        assert np.all(minus >= 0.0)
        np.testing.assert_array_equal(plus - minus, a)


class TestParallelGroups:
    def test_second_group_sees_reevaluated_input(self):
        p = np.array([[0.5, 0.5], [0.2, 0.8]])
        b = np.array([1.0, 2.0])
        program = encode_parallel_matvec([(p, 1.0), (p, 2.0)], b)
        flows = stationary_flows(program.config)
        group1, group2 = parallel_group_products(program, flows)
        occ2 = bose_occupancy(2.0, program.config.temperatures[1:])
        expected2 = p @ occ2
        assert np.all(np.abs(group2.values - expected2) <= group2.error_bound)
        assert np.all(np.abs(group1.values - p @ b) <= group1.error_bound)

    def test_single_group_reduces_to_decode_matvec(self):
        p = np.array([[0.4, 0.6]])
        b = np.array([0.5, 1.5])
        program = encode_matvec(p, b)
        flows = stationary_flows(program.config)
        [only] = parallel_group_products(program, flows)
        direct = decode_matvec(program, flows)
        np.testing.assert_array_equal(only.values, direct.values)

    def test_equal_temperatures_give_constant_outputs(self):
        p = np.array([[0.3, 0.7], [0.6, 0.4]])
        b = np.array([1.0, 1.0])
        program = encode_parallel_matvec([(p, 1.0), (p, 3.0)], b)
        flows = stationary_flows(program.config)
        for group, result in zip(program.groups, parallel_group_products(program, flows)):
            c = bose_occupancy(group.base_frequency, program.config.temperatures[1])
            assert np.all(np.abs(result.values - c) <= result.error_bound)
            np.testing.assert_allclose(result.values, c, rtol=3e-3)

    def test_overlapping_groups_rejected(self):
        p = np.array([[0.5, 0.5]])
        with pytest.raises(ConfigError):
            encode_parallel_matvec([(p, 1.0), (p, 1.0)], np.array([1.0, 2.0]))

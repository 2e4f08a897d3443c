"""Unit and property tests for the mean families."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wmle import DomainError, NumericError, Sample, f_mean, holder_mean, lehmer_mean, v_weights
from wmle import means

from conftest import (
    holder_oracle,
    lehmer_condition,
    lehmer_oracle,
    random_positive_sample,
    ulps_off,
)

INF = math.inf


class TestSample:
    def test_defaults_to_unit_weights(self):
        s = Sample([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(s.weights, [1.0, 1.0, 1.0])
        assert len(s) == 3

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            Sample([])

    def test_negative_value_rejected(self):
        with pytest.raises(DomainError, match="-1"):
            Sample([2.0, -1.0])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(DomainError):
            Sample([1.0, 2.0], [1.0, 0.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(DomainError):
            Sample([1.0, 2.0], [1.0])

    def test_duplicates_count_twice(self):
        # no deduplication: a repeated value behaves like doubled weight
        left = holder_mean(2.0, [1.0, 2.0, 2.0])
        right = holder_mean(2.0, [1.0, 2.0], [1.0, 2.0])
        assert left == pytest.approx(right, rel=1e-14)


class TestFMean:
    def test_identity_is_arithmetic(self):
        assert f_mean(lambda v: v, lambda v: v, [0.6, 2.0]) == pytest.approx(1.3, abs=1e-15)

    def test_constant_sample_fixed_point(self):
        for c in (0.0, 0.7, 3.5):
            assert f_mean(lambda v: v * v, math.sqrt, [c, c]) == pytest.approx(c, abs=1e-12)

    def test_log_gives_geometric_mean(self):
        # oracle: geometric mean of 0.6 and 2 is sqrt(1.2)
        result = f_mean(math.log, math.exp, [0.6, 2.0])
        assert result == pytest.approx(1.0954451150103321, rel=1e-12)

    def test_result_within_data_range(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            values, _ = random_positive_sample(rng, weighted=False)
            got = f_mean(math.log, math.exp, values)
            assert values.min() - 1e-12 <= got <= values.max() + 1e-12

    def test_weighted_sample_is_the_weighted_geometric_mean(self):
        assert f_mean(math.log, math.exp, Sample([1.0, 2.0], [1.0, 3.0])) == pytest.approx(
            2.0**0.75, rel=4e-16)
        # Only the ratios of the weights count, however large they are.
        assert f_mean(math.log, math.exp, Sample([1e-10, 10.0], [1e308, 1e308])) == pytest.approx(
            10.0**-4.5, rel=4e-16)
        rng = np.random.default_rng(8)
        for _ in range(200):
            values, weights = random_positive_sample(rng)
            got = f_mean(math.log, math.exp, Sample(values, weights))
            want = holder_mean(0.0, values, weights)
            assert abs(got - want) <= 4 * math.ulp(want)

    def test_empty_sample_domain_error(self):
        with pytest.raises(DomainError):
            f_mean(lambda v: v, lambda v: v, [])

    def test_nonfinite_transform_numeric_error(self):
        with pytest.raises(NumericError):
            f_mean(math.log, math.exp, [0.0, 1.0])
        # math.fsum raises OverflowError on an intermediate overflow.
        with pytest.raises(NumericError, match="overflows"):
            f_mean(lambda v: v, lambda v: v, [1e308, 1e308])


class TestHolderMean:
    def test_arithmetic(self):
        assert holder_mean(1.0, [0.6, 2.0]) == pytest.approx(1.3, abs=1e-15)

    def test_harmonic(self):
        assert holder_mean(-1.0, [0.6, 2.0]) == pytest.approx(12.0 / 13.0, rel=1e-13)

    def test_geometric_limit_at_zero(self):
        assert holder_mean(0.0, [0.6, 2.0]) == pytest.approx(math.sqrt(1.2), rel=1e-13)

    def test_infinite_orders(self):
        assert holder_mean(INF, [0.6, 2.0]) == 2.0
        assert holder_mean(-INF, [0.6, 2.0]) == 0.6

    def test_weighted(self):
        # sum w x / sum w = (0.6 + 2*2) / 3
        assert holder_mean(1.0, [0.6, 2.0], [1.0, 2.0]) == pytest.approx(4.6 / 3.0, rel=1e-14)

    def test_zero_value_rejected_for_nonpositive_order(self):
        with pytest.raises(DomainError):
            holder_mean(0.0, [0.0, 1.0])
        with pytest.raises(DomainError):
            holder_mean(-2.0, [0.0, 1.0])
        with pytest.raises(DomainError):
            holder_mean(-INF, [0.0, 1.0])

    def test_zero_values_fine_for_positive_order(self):
        assert holder_mean(2.0, [0.0, 2.0]) == pytest.approx(math.sqrt(2.0), rel=1e-14)
        assert holder_mean(3.0, [0.0, 0.0]) == 0.0

    def test_nan_order_rejected(self):
        with pytest.raises(DomainError):
            holder_mean(math.nan, [1.0, 2.0])

    def test_negative_order_over_an_overflowing_value_ratio(self):
        # 1e300 / 1e-300 overflows to inf, which the power bound replaces,
        # without a numpy overflow warning (an error under this suite).
        values, weights = [1e-300, 1e300], [1.0, 2.0]
        assert ulps_off(holder_mean(-1.0, values, weights),
                        holder_oracle(-1, values, weights)) <= 4

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.integers(-500, 500).filter(bool),
           st.lists(st.tuples(st.floats(math.log(1e-3), math.log(1e3)), st.integers(1, 5)),
                    min_size=1, max_size=20))
    def test_weighted_mean_is_within_2_ulps_of_the_exact_mean(self, order, draws):
        # Negative orders take the smallest value as their reference; as at
        # positive ones, |order| = 1 leaves the last roundings undivided.
        values = [math.exp(v) for v, _ in draws]
        weights = [float(m) for _, m in draws]
        bound = 2 if abs(order) > 1 else 4
        assert ulps_off(holder_mean(order, values, weights),
                        holder_oracle(order, values, weights)) <= bound

    def test_the_kernel_takes_holder_weights_only_with_their_sum(self):
        # Raw row weights would leave the kernel's total weight unset.
        x, w = np.array([0.6, 2.0]), np.array([1.0, 3.0])
        with pytest.raises(TypeError, match="_holder_weights"):
            means._column_means("holder", x, np.array([2.0]), np.empty((1, 2)), w)
        target, total, _, _, _ = means._column_means("holder", x, np.array([2.0]),
                                                     np.empty((1, 2)), means._holder_weights(w))
        assert total[0] == 4.0 / 3.0
        assert target[0] == pytest.approx((0.09 + 3.0) / 4.0, rel=1e-15)


class TestLehmerMean:
    def test_arithmetic_at_one(self):
        assert lehmer_mean(1.0, [0.6, 2.0]) == pytest.approx(1.3, rel=1e-14)

    def test_harmonic_at_zero(self):
        assert lehmer_mean(0.0, [0.6, 2.0]) == pytest.approx(12.0 / 13.0, rel=1e-13)

    def test_contraharmonic_at_two(self):
        assert lehmer_mean(2.0, [0.6, 2.0]) == pytest.approx(4.36 / 2.6, rel=1e-13)

    def test_infinite_orders(self):
        assert lehmer_mean(INF, [0.6, 2.0]) == 2.0
        assert lehmer_mean(-INF, [0.6, 2.0]) == 0.6

    def test_zero_value_rejected_at_or_below_one(self):
        for order in (1.0, 0.5, 0.0, -3.0):
            with pytest.raises(DomainError):
                lehmer_mean(order, [0.0, 1.0])

    def test_zero_values_fine_above_one(self):
        assert lehmer_mean(2.0, [0.0, 2.0]) == pytest.approx(2.0, rel=1e-14)
        assert lehmer_mean(2.5, [0.0, 0.0]) == 0.0

    def test_zero_values_have_weight_exactly_zero(self):
        # (1 + 8) / (1 + 4): the zeros add nothing to either sum.
        assert lehmer_mean(3, [0.0, 1.0, 0.0, 2.0]) == 1.8
        assert lehmer_mean(3, [0.0, 1.0, 2.0], [5.0, 1.0, 1.0]) == 1.8

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.integers(-500, 500),
           st.lists(st.tuples(st.floats(math.log(1e-3), math.log(1e3)), st.integers(1, 5)),
                    min_size=1, max_size=20))
    def test_weighted_mean_is_within_kappa_ulps_of_the_exact_mean(self, order, draws):
        # An integer weight is that many copies of the value.
        values = [math.exp(v) for v, _ in draws]
        weights = [float(m) for _, m in draws]
        copies = [v for v, m in zip(values, weights) for _ in range(int(m))]
        bound = 4 * max(1.0, lehmer_condition(order, copies))
        assert ulps_off(lehmer_mean(order, values, weights), lehmer_oracle(order, copies)) <= bound


class TestVWeights:
    def test_lehmer_uniform_at_order_one(self):
        np.testing.assert_allclose(v_weights("lehmer", 1.0, [0.6, 2.0]), [0.5, 0.5], atol=1e-15)

    def test_lehmer_matches_power_form(self):
        # v_l[i] = x_i**(alpha-1) / sum(x**(alpha-1)) for uniform base weights
        for alpha in (-2.0, 0.3, 1.7, 3.0):
            x = np.array([0.6, 2.0])
            expected = x ** (alpha - 1.0) / np.sum(x ** (alpha - 1.0))
            np.testing.assert_allclose(v_weights("lehmer", alpha, x), expected, rtol=1e-12)

    def test_holder_power_over_total_weight(self):
        np.testing.assert_allclose(v_weights("holder", 2.0, [0.6, 2.0]), [0.3, 1.0], rtol=1e-14)

    def test_lehmer_weights_sum_to_one(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            values, weights = random_positive_sample(rng)
            alpha = rng.uniform(-3.0, 4.0)
            total = v_weights("lehmer", alpha, values, weights).sum()
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_holder_weight_sum_diagnostic(self):
        # sum v_h = holder_mean(alpha-1) ** (alpha-1) for alpha != 1
        rng = np.random.default_rng(12)
        for _ in range(100):
            values, weights = random_positive_sample(rng)
            alpha = rng.uniform(-3.0, 4.0)
            if abs(alpha - 1.0) < 1e-3:
                continue
            total = v_weights("holder", alpha, values, weights).sum()
            expected = holder_mean(alpha - 1.0, values, weights) ** (alpha - 1.0)
            assert total == pytest.approx(expected, rel=1e-10)

    def test_lehmer_mean_is_v_weighted_average(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            values, weights = random_positive_sample(rng)
            alpha = rng.uniform(-3.0, 4.0)
            v = v_weights("lehmer", alpha, values, weights)
            assert float(v @ values) == pytest.approx(
                lehmer_mean(alpha, values, weights), rel=1e-11
            )

    def test_holder_mean_from_v_weights(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            values, weights = random_positive_sample(rng)
            alpha = rng.uniform(0.2, 4.0)
            v = v_weights("holder", alpha, values, weights)
            assert float(v @ values) ** (1.0 / alpha) == pytest.approx(
                holder_mean(alpha, values, weights), rel=1e-11
            )

    def test_infinite_order_rejected(self):
        with pytest.raises(DomainError):
            v_weights("lehmer", INF, [0.6, 2.0])

    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError):
            v_weights("median", 1.0, [0.6, 2.0])

    def test_zero_value_rejected_at_low_orders(self):
        with pytest.raises(DomainError):
            v_weights("holder", 0.5, [0.0, 2.0])

    def test_overflowing_holder_weights_are_a_numeric_error(self):
        # w * x ** (alpha - 1) / sum(w) overflows in the exponential or in
        # the division; either way no numpy warning comes first.
        with pytest.raises(NumericError, match="overflow"):
            v_weights("holder", 301.0, [1000.0, 2.0])
        with pytest.raises(NumericError, match="overflow"):
            v_weights("holder", 3.0, [1e300, 2.0], [1e-300, 1e-300])


class TestFamilyProperties:
    def test_bounded_by_sample_extremes(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            values, weights = random_positive_sample(rng)
            alpha = rng.uniform(-4.0, 5.0)
            lo, hi = values.min(), values.max()
            for mean in (holder_mean(alpha, values, weights), lehmer_mean(alpha, values, weights)):
                assert lo - 1e-12 <= mean <= hi + 1e-12

    def test_nondecreasing_in_order(self):
        rng = np.random.default_rng(22)
        grid = np.linspace(-3.0, 4.0, 100)
        for _ in range(30):
            values, weights = random_positive_sample(rng, min_n=2)
            for fn in (holder_mean, lehmer_mean):
                curve = np.array([fn(a, values, weights) for a in grid])
                slack = 1e-12 * np.maximum(1.0, np.abs(curve[:-1]))
                assert np.all(np.diff(curve) >= -slack)

    def test_strictly_increasing_for_distinct_values(self):
        values = np.array([0.3, 0.9, 2.4])
        grid = np.linspace(-3.0, 4.0, 100)
        for fn in (holder_mean, lehmer_mean):
            curve = np.array([fn(a, values) for a in grid])
            assert np.all(np.diff(curve) > 0)

    def test_pythagorean_identities(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            values, weights = random_positive_sample(rng)
            assert abs(holder_mean(1.0, values, weights) - lehmer_mean(1.0, values, weights)) <= 1e-12
            assert abs(holder_mean(-1.0, values, weights) - lehmer_mean(0.0, values, weights)) <= 1e-12
        for _ in range(300):
            pair = rng.uniform(0.05, 3.0, size=2)
            assert abs(holder_mean(0.0, pair) - lehmer_mean(0.5, pair)) <= 1e-12

    def test_link_identity(self):
        rng = np.random.default_rng(24)
        for _ in range(300):
            values, weights = random_positive_sample(rng)
            alpha = rng.uniform(-3.0, 4.0)
            if alpha == 1.0:
                continue
            lehmer = lehmer_mean(alpha, values, weights)
            linked = (
                holder_mean(alpha, values, weights) ** alpha
                / holder_mean(alpha - 1.0, values, weights) ** (alpha - 1.0)
            )
            assert lehmer == pytest.approx(linked, rel=1e-10)

    def test_ordering_against_arithmetic_mean(self):
        rng = np.random.default_rng(25)
        for _ in range(200):
            values, weights = random_positive_sample(rng, min_n=2)
            arithmetic = holder_mean(1.0, values, weights)
            alpha = rng.uniform(-3.0, 4.0)
            slack = 1e-12 * max(1.0, arithmetic)
            for mean in (holder_mean(alpha, values, weights), lehmer_mean(alpha, values, weights)):
                if alpha < 1.0:
                    assert mean <= arithmetic + slack
                else:
                    assert mean >= arithmetic - slack

    def test_lehmer_vs_holder_ordering(self):
        rng = np.random.default_rng(26)
        for _ in range(200):
            values, weights = random_positive_sample(rng, min_n=2)
            alpha = rng.uniform(-3.0, 4.0)
            holder = holder_mean(alpha, values, weights)
            lehmer = lehmer_mean(alpha, values, weights)
            slack = 1e-11 * max(1.0, holder)
            if alpha > 1.0:
                assert lehmer >= holder - slack
            else:
                assert lehmer <= holder + slack

    def test_vweight_monotonicity_two_point(self):
        # with a < 1 < b the selection weight of a falls and of b rises in alpha
        a, b = 0.6, 2.0
        grid = np.linspace(-3.0, 4.0, 60)
        for kind in ("lehmer", "holder"):
            low = np.array([v_weights(kind, alpha, [a, b])[0] for alpha in grid])
            high = np.array([v_weights(kind, alpha, [a, b])[1] for alpha in grid])
            assert np.all(np.diff(low) <= 1e-12)
            assert np.all(np.diff(high) >= -1e-12)

    def test_symmetric_pair_has_uniform_lehmer_weights(self):
        for alpha in (-2.0, 0.0, 1.0, 3.0):
            np.testing.assert_allclose(
                v_weights("lehmer", alpha, [1.4, 1.4]), [0.5, 0.5], atol=1e-15
            )

    def test_two_point_curves_cross_at_one_with_larger_lehmer_variation(self):
        rng = np.random.default_rng(27)
        grid = np.linspace(0.0, 4.0, 41)
        for _ in range(50):
            pair = np.sort(rng.uniform(0.05, 3.0, size=2))
            if pair[0] == pair[1]:
                continue
            holder_curve = np.array([holder_mean(a, pair) for a in grid])
            lehmer_curve = np.array([lehmer_mean(a, pair) for a in grid])
            assert abs(holder_curve[10] - lehmer_curve[10]) <= 1e-12  # grid[10] == 1.0
            tv_holder = holder_curve[-1] - holder_curve[0]
            tv_lehmer = lehmer_curve[-1] - lehmer_curve[0]
            assert tv_lehmer >= tv_holder - 1e-12


class TestStability:
    """Extreme orders on wide data must stay finite: each power sum is taken
    relative to its largest term."""

    values = np.logspace(-3.0, 3.0, 13)

    def test_finite_at_extreme_orders(self):
        for alpha in (500.0, -500.0):
            assert math.isfinite(holder_mean(alpha, self.values))
            assert math.isfinite(lehmer_mean(alpha, self.values))

    def test_lehmer_saturates_to_extremes(self):
        assert lehmer_mean(500.0, self.values) == pytest.approx(self.values.max(), rel=1e-9)
        assert lehmer_mean(-500.0, self.values) == pytest.approx(self.values.min(), rel=1e-9)

    def test_holder_matches_analytic_saturation_form(self):
        # At order 500 every non-maximal term is negligible, leaving
        # max * n**(-1/alpha) for uniform weights; this pins the scaled
        # path against an analytically evaluated oracle.
        n = self.values.size
        expected_hi = self.values.max() * n ** (-1.0 / 500.0)
        expected_lo = self.values.min() * n ** (1.0 / 500.0)
        assert holder_mean(500.0, self.values) == pytest.approx(expected_hi, rel=1e-12)
        assert holder_mean(-500.0, self.values) == pytest.approx(expected_lo, rel=1e-12)

    def test_large_positive_order_with_huge_values_no_overflow(self):
        values = np.array([1e3, 990.0, 20.0])
        got = holder_mean(321.0, values)
        assert math.isfinite(got)
        assert got <= values.max() + 1e-9

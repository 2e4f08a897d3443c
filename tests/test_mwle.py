"""Tests for weight policies, the moment target, and the MWLE fit."""

import dataclasses
import logging
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wmle import (
    ConfigError,
    DomainError,
    FamilyModel,
    NoSolutionError,
    NumericError,
    WeightedDataset,
    WeightPolicy,
    apply_policy,
    exponential_model,
    fit,
    gaussian_known_variance_model,
    holder_mean,
    lehmer_mean,
    log_weighted_likelihood,
    mean_map,
    multinomial_fixture,
    subclass_form,
    weibull_model,
    weighted_stat_mean,
)

from conftest import holder_oracle, lehmer_condition, lehmer_oracle, ulps_off


class TestWeightPolicy:
    def test_lehmer_requires_exponents(self):
        with pytest.raises(ConfigError):
            WeightPolicy(kind="lehmer")

    def test_holder_rejects_exponents(self):
        with pytest.raises(ConfigError):
            WeightPolicy(kind="holder", exponents=np.array([1.0]))

    def test_custom_requires_map(self):
        with pytest.raises(ConfigError):
            WeightPolicy(kind="custom")

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            WeightPolicy(kind="huber")

    @pytest.mark.parametrize("exponents", [[], [2.0, math.nan], [math.inf]])
    def test_lehmer_exponents_must_be_finite(self, exponents):
        with pytest.raises(ConfigError) as excinfo:
            WeightPolicy.lehmer(exponents)
        assert str(excinfo.value) == "lehmer exponents must be a non-empty finite vector"


class TestApplyPolicy:
    def test_holder_defaults_to_unit_weights(self):
        u = apply_policy(WeightPolicy.holder(), np.array([[0.6, 1.0], [2.0, 3.0]]))
        np.testing.assert_array_equal(u, [1.0, 1.0])

    def test_lehmer_order_one_is_unweighted(self):
        u = apply_policy(WeightPolicy.lehmer([1.0]), np.array([0.6, 2.0]))
        np.testing.assert_array_equal(u, [[1.0], [1.0]])

    def test_lehmer_order_two_weights_by_value(self):
        # Weights come relative to the largest: 0.6 / 2.0 and 1.
        u = apply_policy(WeightPolicy.lehmer([2.0]), np.array([0.6, 2.0]))
        np.testing.assert_allclose(u[:, 0], [0.3, 1.0], rtol=1e-14)

    def test_lehmer_columns_get_their_own_exponent(self):
        obs = np.array([[0.5, 2.0], [1.0, 4.0]])
        u = apply_policy(WeightPolicy.lehmer([2.0, 3.0]), obs)
        np.testing.assert_allclose(u[:, 0], [0.5, 1.0], rtol=1e-14)
        np.testing.assert_allclose(u[:, 1], [0.25, 1.0], rtol=1e-12)

    def test_zero_value_under_negative_exponent_rejected(self):
        with pytest.raises(DomainError, match="column 0"):
            apply_policy(WeightPolicy.lehmer([0.5]), np.array([0.0, 2.0]))

    def test_zero_value_under_large_exponent_rejected(self):
        # x**(alpha-1) would produce a zero weight, which is not a weight
        with pytest.raises(DomainError):
            apply_policy(WeightPolicy.lehmer([3.0]), np.array([0.0, 2.0]))

    def test_negative_value_rejected_for_fractional_exponent(self):
        with pytest.raises(DomainError):
            apply_policy(WeightPolicy.lehmer([2.5]), np.array([-1.0, 2.0]))

    def test_exponent_count_must_match_columns(self):
        with pytest.raises(ConfigError):
            apply_policy(WeightPolicy.lehmer([2.0]), np.array([[1.0, 2.0]]))

    def test_holder_base_w(self):
        policy = WeightPolicy.holder(base_w=lambda rows: rows[:, 0])
        u = apply_policy(policy, np.array([[0.5], [2.0]]))
        np.testing.assert_allclose(u, [0.25, 1.0])

    def test_lehmer_base_w_elementwise(self):
        policy = WeightPolicy.lehmer([2.0], base_w=lambda x: 2.0 * np.ones_like(x))
        u = apply_policy(policy, np.array([0.6, 2.0]))
        np.testing.assert_allclose(u[:, 0], [0.3, 1.0], rtol=1e-14)

    def test_lehmer_order_one_base_w_is_divided_by_its_largest(self):
        policy = WeightPolicy.lehmer([1.0], base_w=lambda x: np.array([[2.0], [8.0]]))
        u = apply_policy(policy, np.array([0.6, 2.0]))
        assert u[:, 0].tolist() == [0.25, 1.0]

    def test_custom_map(self):
        policy = WeightPolicy.holder(base_w=lambda obs: np.full(obs.shape[0], 3.0))
        u = apply_policy(policy, np.array([1.0, 2.0]))
        np.testing.assert_array_equal(u, [1.0, 1.0])

    @pytest.mark.parametrize("beta", [200.0, -200.0, 500.0, -500.0])
    def test_extreme_lehmer_weights_are_finite_relative_to_the_largest(self, beta):
        # x ** (beta - 1) overflows or underflows on 1e-3..1e3; relative to
        # the largest weight every weight is finite, without numpy warnings.
        u = apply_policy(WeightPolicy.lehmer([beta]), np.array([1e-3, 0.5, 10.0, 1e3]))
        assert np.all(np.isfinite(u)) and np.min(u) >= 0
        assert np.max(u) == 1.0

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        x=st.lists(st.floats(1e-3, 1e3), min_size=2, max_size=12),
        beta=st.floats(-20.0, 20.0).filter(lambda b: b != 1.0),
    )
    def test_lehmer_weight_ratios_are_power_ratios(self, x, beta):
        # Relative weights are x ** (beta - 1) / x_r ** (beta - 1): within a
        # few ulps of the direct power ratio, times the condition number of
        # exp((beta - 1) * (log x - log x_r)) in the rounded logs.
        x = np.array(x)
        u = apply_policy(WeightPolicy.lehmer([beta]), x)[:, 0]
        raw = x ** (beta - 1.0)
        expected = raw / np.max(raw)
        log_x = np.abs(np.log(x))
        scale = 4.0 * (1.0 + abs(beta - 1.0) * (log_x + log_x[np.argmax(raw)]))
        np.testing.assert_array_less(np.abs(u - expected), scale * 2.0**-52 * expected)

    @pytest.mark.parametrize("policy, message", [
        (WeightPolicy.holder(base_w=lambda o: np.ones(2)), "holder base_w must return one weight per row"),
        (WeightPolicy.lehmer([2.0], base_w=lambda o: np.ones(3)),
         "lehmer base_w must return a weight per matrix entry"),
    ])
    def test_base_weights_of_the_wrong_shape(self, policy, message):
        for run in (lambda: apply_policy(policy, [1.0, 2.0, 3.0]),
                    lambda: fit(weibull_model([1.0]), [1.0, 2.0, 3.0], policy)):
            with pytest.raises(ConfigError) as excinfo:
                run()
            assert str(excinfo.value) == message

    def test_a_lehmer_column_that_cannot_be_formed_is_a_numeric_error(self):
        with pytest.raises(NumericError) as excinfo:
            apply_policy(WeightPolicy.lehmer([2.0, 0.0]), [[1.0, 1e-300], [2.0, 1e300]])
        assert str(excinfo.value) == (
            "the lehmer weights of column 1 at order 0.0 fall below exp(-700) on values more than "
            "exp(600) apart, which the shifted sums cannot represent"
        )

    def test_custom_map_must_stay_positive(self):
        policy = WeightPolicy.holder(base_w=lambda obs: obs[:, 0] - 1.0)
        with pytest.raises(DomainError):
            apply_policy(policy, np.array([0.5, 2.0]))


class TestWeightedStatMean:
    def test_unit_weights_identity_stat(self):
        data = WeightedDataset([[0.6], [2.0]], [1.0, 1.0])
        target = weighted_stat_mean(data, exponential_model())
        np.testing.assert_allclose(target, [1.3], rtol=1e-14)

    def test_weighted(self):
        data = WeightedDataset([[0.6], [2.0]], [1.0, 2.0])
        target = weighted_stat_mean(data, exponential_model())
        np.testing.assert_allclose(target, [4.6 / 3.0], rtol=1e-14)

    def test_square_statistic(self):
        data = WeightedDataset([[0.6], [2.0]], [1.0, 1.0])
        target = weighted_stat_mean(data, weibull_model([2.0]))
        np.testing.assert_allclose(target, [2.18], rtol=1e-14)


def _log_uniform(rng, shape):
    return np.exp(rng.uniform(math.log(1e-3), math.log(1e3), size=shape))


class TestSummation:
    def test_positive_sums_are_reduced_column_by_column(self):
        # One-dimensional pairwise sums stay within a few ulps at n = 2**20;
        # reducing the (n, 3) statistic matrix along axis 0, with einsum or
        # with a BLAS dot drifts to 1e-13..1e-11 on this input.
        n = 2**20
        data = WeightedDataset(np.full((n, 3), 0.1), np.ones(n))
        exact_total = math.fsum(np.ones(n))
        exact_mean = math.fsum(np.full(n, 0.1)) / exact_total
        assert data.total_weight == pytest.approx(exact_total, rel=1e-14)
        target = weighted_stat_mean(data, weibull_model(np.ones(3)))
        np.testing.assert_allclose(target, np.full(3, exact_mean), rtol=1e-14, atol=0)

    def test_signed_terms_keep_compensated_summation(self):
        # A plain or pairwise sum of these terms cancels to 1.0, not 2.0.
        result = fit(gaussian_known_variance_model([1.0]), [1e16, 1.0, -1e16, 1.0],
                     WeightPolicy.holder())
        assert result.theta_hat.tolist() == [0.5]

    def test_fsum_is_reached_only_for_signed_terms(self, monkeypatch):
        calls = []
        real_fsum = math.fsum

        def counting_fsum(terms):
            calls.append(len(terms))
            return real_fsum(terms)

        monkeypatch.setattr(math, "fsum", counting_fsum)
        x = _log_uniform(np.random.default_rng(51), (10_000, 3))
        for beta in (-2.0, 0.5, 2.0):
            fit(weibull_model(np.ones(3)), x, WeightPolicy.lehmer(np.full(3, beta)))
        fit(weibull_model(np.full(3, 2.0)), x, WeightPolicy.holder())
        assert calls == []
        fit(gaussian_known_variance_model([1.0]), [1e16, 1.0, -1e16, 1.0], WeightPolicy.holder())
        assert len(calls) >= 1


@st.composite
def lehmer_cases(draw):
    """An integer order with |alpha| <= 500 and 1..40 log-uniform values in
    [1e-3, 1e3], some of them tied or nearly tied with the largest or the
    smallest value, where the Lehmer weights concentrate."""
    n = draw(st.integers(1, 40))
    logs = draw(st.lists(st.floats(math.log(1e-3), math.log(1e3)), min_size=n, max_size=n))
    x = np.exp(np.asarray(logs))
    near = st.tuples(st.integers(0, n - 1), st.booleans(),
                     st.sampled_from([0.0, 2.0**-52, 1e-12, 1e-6, 1e-3, 3e-3, 1e-2]))
    for i, largest, gap in draw(st.lists(near, max_size=n)):
        x[i] = np.max(x) * (1.0 - gap) if largest else np.min(x) * (1.0 + gap)
    return draw(st.integers(-500, 500)), x


class TestLehmerAccuracy:
    # Within 4 * max(1, kappa) ulps of the exact mean, kappa the condition
    # number: a backward-stable algorithm cannot promise less.
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(lehmer_cases())
    def test_fit_and_mean_are_within_kappa_ulps_of_the_exact_mean(self, case):
        order, x = case
        exact = lehmer_oracle(order, x)
        bound = 4 * max(1.0, lehmer_condition(order, x))
        result = fit(weibull_model([1.0]), x, WeightPolicy.lehmer([float(order)]),
                     minimality_samples=0)
        assert ulps_off(result.theta_hat[0], exact) <= bound
        assert ulps_off(lehmer_mean(order, x), exact) <= bound


@st.composite
def holder_cases(draw):
    """An integer shape in [1, 500], 1..40 log-uniform values in [1e-3, 1e3]
    (some tied or nearly tied with the largest, which becomes exactly 1 in
    the scaled fit) and, half the time, base weights in [0.1, 10]."""
    n = draw(st.integers(1, 40))
    logs = draw(st.lists(st.floats(math.log(1e-3), math.log(1e3)), min_size=n, max_size=n))
    x = np.exp(np.asarray(logs))
    near = st.tuples(st.integers(0, n - 1), st.sampled_from([0.0, 2.0**-52, 1e-12, 1e-6, 1e-2]))
    for i, gap in draw(st.lists(near, max_size=n)):
        x[i] = np.max(x) * (1.0 - gap)
    weights = draw(st.one_of(st.none(), st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n)))
    return draw(st.integers(1, 500)), x, None if weights is None else np.asarray(weights)


def _holder_policy(weights):
    return WeightPolicy.holder(None if weights is None else (lambda obs: weights))


class TestHolderAccuracy:
    # The Holder mean of positive values has condition number at most 1.
    # Rounding before the power is divided by the shape in the estimate, so
    # from shape 2 on a fit lands within 2 ulps.  At shape 1 the roundings
    # of the sum, of -1/target and of (-eta)**-1 add up undivided: 2.86 ulps
    # at worst over 3000 samples of 23 values (2.52 fitting unscaled data),
    # inside the 4 * max(1, kappa) the Lehmer tests allow.
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(holder_cases())
    def test_fit_and_mean_are_within_2_ulps_of_the_exact_mean(self, case):
        shape, x, w = case
        exact = holder_oracle(shape, x, w)
        result = fit(weibull_model([float(shape)]), x, _holder_policy(w), minimality_samples=0)
        assert ulps_off(result.theta_hat[0], exact) <= (2 if shape > 1 else 4)
        # The mean and the fit are one computation.
        assert holder_mean(shape, x, w) == result.theta_hat[0]

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(holder_cases(),
           # numpy's power has sqrt and square shortcuts at 0.5 and 2.
           st.one_of(st.floats(0.01, 700.0), st.sampled_from([0.5, 1.0, 2.0])),
           st.integers(-60, 60))
    def test_fit_is_homogeneous_and_equals_the_mean_to_the_bit(self, case, shape, m):
        _, x, w = case
        model = weibull_model([shape])
        result = fit(model, x, _holder_policy(w), minimality_samples=0)
        assert holder_mean(shape, x, w) == result.theta_hat[0]
        scaled = fit(model, 2.0**m * x, _holder_policy(w), minimality_samples=0)
        assert scaled.theta_hat[0] == 2.0**m * result.theta_hat[0]
        np.testing.assert_array_equal(scaled.eta_hat, result.eta_hat)
        # eta_hat belongs to the data divided by the scale.
        assert result.scale[0] == np.max(x)
        np.testing.assert_allclose(model.nat_param(result.theta_hat / result.scale),
                                   result.eta_hat, rtol=1e-10)

    def test_lehmer_and_non_scale_fits_keep_unit_scale(self):
        x = _log_uniform(np.random.default_rng(58), (30, 3))
        lehmer = fit(weibull_model(np.ones(3)), x, WeightPolicy.lehmer([2.0, -3.0, 0.5]))
        gaussian = fit(gaussian_known_variance_model(np.ones(3)), x, WeightPolicy.holder())
        for result in (lehmer, gaussian):
            assert result.scale.tolist() == [1.0, 1.0, 1.0]


class TestValidation:
    def test_one_fit_checks_observations_once_and_weights_once(self, monkeypatch):
        # Every finiteness check fit makes goes through np.isfinite; count
        # the calls that read the observations or the policy's weights.
        x = _log_uniform(np.random.default_rng(53), (1000, 3))
        base = _log_uniform(np.random.default_rng(54), (1000, 3))
        passes = []
        real_isfinite = np.isfinite

        def counting_isfinite(a, *args, **kwargs):
            for name, array in (("observations", x), ("weights", base), ("weights", base[:, 0])):
                if isinstance(a, np.ndarray) and np.shares_memory(a, array):
                    passes.append(name)
                    break
            return real_isfinite(a, *args, **kwargs)

        monkeypatch.setattr(np, "isfinite", counting_isfinite)
        for model, policy, checked in (
            (weibull_model(np.ones(3)), WeightPolicy.lehmer([-200.0, 0.5, 3.0]), ["observations"]),
            (weibull_model(np.ones(3)), WeightPolicy.lehmer([2.0, 1.0, 4.0], base_w=lambda o: base),
             ["observations", "weights"]),
            (weibull_model(np.full(3, 2.0)), WeightPolicy.holder(), ["observations"]),
            (weibull_model(np.full(3, 2.0)), WeightPolicy.holder(base_w=lambda o: base[:, 0]),
             ["observations", "weights"]),
        ):
            passes.clear()
            fit(model, x, policy)
            assert sorted(passes) == checked


# fit's float.hex outputs (theta_hat, eta_hat, target, then the Hessian
# extremes) on 1e5 x 3 seeded log-uniform values, recorded from the
# apply_policy -> WeightedDataset -> weighted_stat_mean path that took these
# fits before they moved onto the column kernel of wmle.means.  fit and the
# means now share that kernel, so comparing them cannot catch a drift.
_PINNED_FITS = {
    ("lehmer", -200.0, False): (
        "0x1.078072eeee359p-10", "0x1.07508cecb08b7p-10", "0x1.079f2b88c0ff7p-10",
        "-0x1.f16c734cb3b5fp+9", "-0x1.f1c6ef454fa34p+9", "-0x1.f1327bb61abb0p+9",
        "0x1.078072eeee359p-10", "0x1.07508cecb08b7p-10", "0x1.079f2b88c0ff7p-10",
        "-0x1.8092835ec28a8p-15", "-0x1.136c3c9d83aefp-15",
    ),
    ("lehmer", -2.0, False): (
        "0x1.88e794729201ep-10", "0x1.8878c98d7c95ep-10", "0x1.88ed4909b9bcfp-10",
        "-0x1.4d98f68ceda8ep+9", "-0x1.4df722c15daa6p+9", "-0x1.4d941e7fe79d4p+9",
        "0x1.88e794729201ep-10", "0x1.8878c98d7c95ep-10", "0x1.88ed4909b9bcfp-10",
        "-0x1.623e6bcbaff9dp-8", "-0x1.5f250a9027109p-8",
    ),
    ("lehmer", 0.5, False): (
        "0x1.02598918c95fep+0", "0x1.007489ea8cc5ap+0", "0x1.024bf6166d7a6p+0",
        "-0x1.fb57df024debfp-1", "-0x1.ff1756153cef0p-1", "-0x1.fb7288944fd46p-1",
        "0x1.02598918c95fep+0", "0x1.007489ea8cc5ap+0", "0x1.024bf6166d7a6p+0",
        "-0x1.c9cd2b56fe2cap+13", "-0x1.c4fb91a75f7f0p+13",
    ),
    ("lehmer", 1.0, False): (
        "0x1.22ed025823d50p+6", "0x1.21d7e23026769p+6", "0x1.212b17a153d36p+6",
        "-0x1.c288ba856ac8cp-7", "-0x1.c4377e8740fb4p-7", "-0x1.c545b6e07108dp-7",
        "0x1.22ed025823d50p+6", "0x1.21d7e23026769p+6", "0x1.212b17a153d36p+6",
        "-0x1.f87b14bcf0f15p+28", "-0x1.f2676f4c0e9e9p+28",
    ),
    ("lehmer", 2.0, False): (
        "0x1.f412c837e8e81p+8", "0x1.f4d0f60c56b44p+8", "0x1.f042d450108ecp+8",
        "-0x1.061b04a9a2e66p-9", "-0x1.05b77c9b8ea86p-9", "-0x1.081e7a5f47fe8p-9",
        "0x1.f412c837e8e80p+8", "0x1.f4d0f60c56b43p+8", "0x1.f042d450108ecp+8",
        "-0x1.b1b1dd8fe551bp+30", "-0x1.a892fe5cedd7ap+30",
    ),
    ("lehmer", 200.0, False): (
        "0x1.f18995ef1916fp+9", "0x1.f18b12446cff4p+9", "0x1.f14ed33ca022ep+9",
        "-0x1.077104c073d95p-10", "-0x1.07703b5f03399p-10", "-0x1.07902565ab4adp-10",
        "0x1.f18995ef19170p+9", "0x1.f18b12446cff5p+9", "0x1.f14ed33ca022ep+9",
        "-0x1.266b585b5ddefp+25", "-0x1.f5ad47db39e0ap+24",
    ),
    ("lehmer", 2.0, True): (
        "0x1.f92c4cd360e35p+8", "0x1.fb31f9a9c20d8p+8", "0x1.f145c1225b6a8p+8",
        "-0x1.0375a8c3969cep-9", "-0x1.026cd6aa81adfp-9", "-0x1.0794f426e6863p-9",
        "0x1.f92c4cd360e35p+8", "0x1.fb31f9a9c20d8p+8", "0x1.f145c1225b6a8p+8",
        "-0x1.112e01ebec80ap+27", "-0x1.f57537caa9261p+26",
    ),
    ("holder", 0.5, False): (
        "0x1.512666c5ab6c3p+4", "0x1.4ef315c80d298p+4", "0x1.4fe783956a02dp+4",
        "-0x1.b8dc49aaadcb2p+2", "-0x1.ba47fbe6e70d9p+2", "-0x1.b9a71c0dac3abp+2",
        "0x1.294f393ac47f6p-3", "0x1.285abd85e3a58p-3", "0x1.28c6b064a0fa8p-3",
        "-0x1.076e7206810b8p+11", "-0x1.05bde453e2c20p+11",
    ),
    ("holder", 1.0, False): (
        "0x1.22ed025823d4fp+6", "0x1.21d7e23026769p+6", "0x1.212b17a153d36p+6",
        "-0x1.b7eb6bb0975f1p+3", "-0x1.b9833a9704948p+3", "-0x1.ba8b5ec50bb06p+3",
        "0x1.29f2020bebf7ap-4", "0x1.28deceae83da8p-4", "0x1.282d9d4cf4e5cp-4",
        "-0x1.088f39807700ep+9", "-0x1.056e346ed9c61p+9",
    ),
    ("holder", 2.0, False): (
        "0x1.7d6c89ff6cc0ep+7", "0x1.7cff120ee8ba1p+7", "0x1.7ad15ffd999f8p+7",
        "-0x1.b7cccc5f8ffbfp+4", "-0x1.b8b018e7f2d6fp+4", "-0x1.bdc6076ad4a3ep+4",
        "0x1.2a06c0d7961adp-5", "0x1.296d095e2b8d6p-5", "0x1.26085eecd090dp-5",
        "-0x1.08b4122fe9482p+7", "-0x1.01a81aaba32cep+7",
    ),
    ("holder", 6.0, False): (
        "0x1.deff81ab04ec6p+8", "0x1.ded989b69529dp+8", "0x1.dc643d5a55b7ap+8",
        "-0x1.4aed18add724cp+6", "-0x1.4b50f7e8c5198p+6", "-0x1.55b67f973244fp+6",
        "0x1.8c1386c7b44d9p-7", "0x1.8b9c221bd4ed9p-7", "0x1.7f92cf8af13e7p-7",
        "-0x1.d38734fa0164ap+3", "-0x1.b67a396f11cc7p+3",
    ),
    ("holder", 200.0, False): (
        "0x1.e0aee9ed98809p+9", "0x1.e07ac35b2f597p+9", "0x1.e03f2709f660dp+9",
        "-0x1.4248064c4ca4fp+11", "-0x1.56ef38a2aefecp+11", "-0x1.7a0ef862d17b8p+11",
        "0x1.96b357198235dp-12", "0x1.7e35076ff589ep-12", "0x1.5ab29ba9bd867p-12",
        "-0x1.ecf2419a6f2c1p-7", "-0x1.6638c72dda67fp-7",
    ),
    ("holder", 6.0, True): (
        "0x1.e09c297967472p+8", "0x1.dc5c50e23ad92p+8", "0x1.d34a973e2aa29p+8",
        "-0x1.445283394e4ddp+6", "-0x1.55d722fe20f04p+6", "-0x1.7fa2c4fb52e6fp+6",
        "0x1.942423c39f1c8p-7", "0x1.7f6e301549a0bp-7", "0x1.55a848999973ap-7",
        "-0x1.19fc695079f50p+0", "-0x1.93101d92025a0p-1",
    ),
}


def _pinned_fit(kind, order, weighted, x, base):
    if kind == "lehmer":
        return fit(weibull_model(np.ones(3)), x,
                   WeightPolicy.lehmer(np.full(3, order), base_w=(lambda o: base) if weighted else None),
                   minimality_samples=0)
    return fit(weibull_model(np.full(3, order)), x,
               WeightPolicy.holder(base_w=(lambda o: base[:, 0]) if weighted else None),
               minimality_samples=0)


def _fit_bits(result):
    diag = result.diagnostics
    return tuple(float(v).hex() for v in (*result.theta_hat, *result.eta_hat, *result.target,
                                          diag.hessian_smallest, diag.hessian_largest))


class TestKernelPath:
    def test_fit_bits_match_the_recorded_values(self):
        x = _log_uniform(np.random.default_rng(16), (100_000, 3))
        base = _log_uniform(np.random.default_rng(17), (100_000, 3))
        for (kind, order, weighted), want in _PINNED_FITS.items():
            assert _fit_bits(_pinned_fit(kind, order, weighted, x, base)) == want, (kind, order, weighted)

    @pytest.mark.parametrize("shapes, policy", [
        ([1.0, 1.0, 1.0], WeightPolicy.lehmer([-2.0, 1.0, 2.5])),
        ([1.0, 1.0, 1.0], WeightPolicy.lehmer([3.0, 1.0, -0.5], base_w=lambda o: 1.0 + o)),
        ([0.5, 2.0, 6.0], WeightPolicy.holder()),
        ([0.5, 2.0, 6.0], "row weights"),
    ])
    def test_memory_layouts_give_identical_fits(self, shapes, policy):
        big = _log_uniform(np.random.default_rng(61), (60, 9))
        view = big[::2, ::3]
        if policy == "row weights":
            w = 1.0 + view[:, 0]
            policy = WeightPolicy.holder(base_w=lambda o: w)
        fits = [fit(weibull_model(shapes), x, policy)
                for x in (view, np.ascontiguousarray(view), np.asfortranarray(view))]
        for other in fits[1:]:
            assert _fit_bits(other) == _fit_bits(fits[0])
        for j, shape in enumerate(shapes):
            column = dataclasses.replace(policy, exponents=policy.exponents[j : j + 1]) \
                if policy.kind == "lehmer" else policy
            single = fit(weibull_model([shape]), view[:, j], column, minimality_samples=0)
            for field in ("theta_hat", "eta_hat", "target", "scale"):
                assert getattr(single, field)[0] == getattr(fits[0], field)[j]

    def test_zero_values_under_lehmer_weights(self):
        x = _log_uniform(np.random.default_rng(62), (20, 3))
        x[4, 1] = 0.0
        with pytest.raises(DomainError) as excinfo:
            fit(weibull_model(np.ones(3)), x, WeightPolicy.lehmer([1.0, 2.0, 2.0]))
        assert str(excinfo.value) == (
            "value 0.0 in column 1 cannot be weighted by x**(2.0-1); "
            "the lehmer policy needs strictly positive observations"
        )
        # Order 1 weighs every value by 1, a zero included.
        result = fit(weibull_model(np.ones(3)), x, WeightPolicy.lehmer([2.0, 1.0, 2.0]))
        assert result.theta_hat[1] == pytest.approx(np.mean(x[:, 1]), rel=1e-15)

    @pytest.mark.parametrize("shapes, policy", [
        ([1.0, 1.0, 1.0], WeightPolicy.lehmer([-3.0, 1.0, 2.0])),
        ([0.5, 2.0, 6.0], WeightPolicy.holder()),
    ])
    def test_equal_base_weights_keep_the_unweighted_bits(self, shapes, policy):
        x = _log_uniform(np.random.default_rng(63), (50, 3))
        equal = (lambda o: np.full(o.shape, 3.0)) if policy.kind == "lehmer" else (lambda o: np.full(o.shape[0], 3.0))
        weighted = dataclasses.replace(policy, base_w=equal)
        assert _fit_bits(fit(weibull_model(shapes), x, weighted)) == _fit_bits(fit(weibull_model(shapes), x, policy))

    def test_all_zero_holder_column_is_no_solution(self):
        x = _log_uniform(np.random.default_rng(64), (10, 2))
        x[:, 1] = 0.0
        for policy in (WeightPolicy.holder(), WeightPolicy.holder(base_w=lambda o: np.arange(1.0, 11.0))):
            with pytest.raises(NoSolutionError, match=r"target \[0\.0\] is not attainable"):
                fit(weibull_model([2.0, 2.0]), x, policy)

    def test_an_estimate_that_underflows_is_a_numeric_error(self):
        # (1/target) ** -1e4 underflows to 0 where the Holder mean of order
        # 1e-4 is about 8.04e6; fit returned theta_hat [0.].
        with pytest.raises(NumericError, match=r"theta_hat=\[0\.0\] .* not finite and positive"):
            fit(weibull_model([1e-4]), [1e-300, 1e300, 1.0], WeightPolicy.holder())

    def test_an_overflowed_minimality_sample_gives_no_verdict(self, caplog):
        # Shape 1e-3 draws (-log u) ** 1000, which overflows.
        with caplog.at_level(logging.WARNING):
            result = fit(weibull_model([1e-3]), [1.0, 2.0, 3.0], WeightPolicy.holder(),
                         minimality_samples=2048)
        assert result.diagnostics.minimality is None
        assert result.theta_hat[0] == pytest.approx(1.8173075354, rel=1e-9)
        assert [m for m in caplog.messages if "minimality" in m] == [
            "no minimality verdict: the sampled statistic of weibull(k=[0.001]) is not finite "
            "at eta=[-1.000501381908963]"
        ]

    def test_an_overflowed_minimality_covariance_gives_no_verdict(self, caplog):
        # The sampled statistic is finite, but its covariance overflows;
        # eigh raised an uncaught LinAlgError on it.
        x = [[1e200, 2e200, 3e200], [2e200, 5e200, 1e200], [4e200, 1e201, 7e200]]
        with caplog.at_level(logging.WARNING):
            result = fit(weibull_model(np.ones(3)), x, WeightPolicy.lehmer(np.full(3, 2.0)),
                         minimality_samples=2048)
        assert result.diagnostics.minimality is None
        np.testing.assert_allclose(result.theta_hat, [3e200, 129e200 / 17, 59e200 / 11], rtol=1e-12)
        assert any(m.startswith("no minimality verdict: the sample covariance of the statistic "
                                "of weibull(k=[1.0,1.0,1.0]) is not finite") for m in caplog.messages)


def _duplicated_statistic_model():
    """A model whose two statistics are one, so its curvature is flat."""
    return FamilyModel(
        name="duplicated-statistic",
        dim_x=2,
        dim_eta=2,
        log_base_measure=lambda x: np.zeros(x.shape[0]),
        sufficient_stat=lambda x: np.column_stack([x[:, 0], x[:, 0]]),
        nat_param=lambda theta: np.asarray(theta, dtype=float).copy(),
        nat_param_inverse=lambda eta: np.asarray(eta, dtype=float).copy(),
        log_normalizer=lambda eta: 0.0,
        natural_domain=lambda eta: bool(np.all(np.isfinite(eta))),
        mean_map_closed=lambda eta: np.full(2, float(eta[0] + eta[1])),
        mean_map_inverse=lambda t: np.full(2, float(t[0]) / 2.0),
        mean_map_jacobian=lambda eta: np.ones((2, 2)),
        support=(-math.inf, math.inf),
    )


class TestLehmerRelation:
    # The Lehmer mean is the moment target of the unit-shape Weibull MWLE
    # under the Lehmer policy of the same order: one computation, to the bit.
    @pytest.mark.parametrize("weights", ["none", "equal", "unequal"])
    def test_lehmer_mean_is_the_fits_moment_target_to_the_bit(self, weights):
        rng = np.random.default_rng(44)
        for i in range(240):
            x = _log_uniform(rng, int(rng.integers(1, 40)))
            # Exactly 1 a quarter of the time, else a default-grid or an extreme order.
            order = 1.0 if i % 4 == 0 else float(rng.uniform(-3.0, 4.0) if i % 2 else rng.uniform(-500.0, 500.0))
            w = {"none": None, "equal": np.full(x.size, 2.5),
                 "unequal": np.exp(rng.uniform(-3.0, 3.0, size=x.size))}[weights]
            policy = WeightPolicy.lehmer([order], base_w=None if w is None else (lambda o, w=w: w[:, None]))
            target = fit(weibull_model([1.0]), x, policy, minimality_samples=0).target[0]
            assert lehmer_mean(order, x, w) == target, (i, order)


class TestFit:
    def test_lehmer_policy_reproduces_lehmer_mean(self):
        rng = np.random.default_rng(41)
        model = weibull_model([1.0])
        for _ in range(120):
            xs = rng.uniform(0.05, 3.0, size=rng.integers(2, 25))
            beta = rng.uniform(-3.0, 4.0)
            result = fit(model, xs, WeightPolicy.lehmer([beta]), minimality_samples=0)
            assert result.theta_hat[0] == pytest.approx(lehmer_mean(beta, xs), rel=1e-9)

    def test_holder_policy_reproduces_holder_mean(self):
        rng = np.random.default_rng(42)
        for _ in range(120):
            xs = rng.uniform(0.05, 3.0, size=rng.integers(2, 25))
            shape = rng.uniform(0.05, 6.0)
            result = fit(
                weibull_model([shape]), xs, WeightPolicy.holder(), minimality_samples=0
            )
            assert result.theta_hat[0] == pytest.approx(holder_mean(shape, xs), rel=1e-9)

    def test_exponential_arithmetic_mean(self):
        result = fit(weibull_model([1.0]), np.array([0.6, 2.0]), WeightPolicy.holder())
        assert result.theta_hat[0] == pytest.approx(1.3, rel=1e-12)

    def test_gaussian_weighted_mean(self):
        model = gaussian_known_variance_model([2.0])
        policy = WeightPolicy.holder(base_w=lambda obs: np.array([1.0, 3.0]))
        result = fit(model, np.array([-1.0, 5.0]), policy)
        assert result.theta_hat[0] == pytest.approx((-1.0 + 15.0) / 4.0, rel=1e-12)

    def test_weight_scale_invariance(self):
        rng = np.random.default_rng(43)
        xs = rng.uniform(0.1, 2.0, size=10)
        model = weibull_model([1.3])
        base = fit(model, xs, WeightPolicy.holder(base_w=lambda o: np.ones(o.shape[0])),
                   minimality_samples=0)
        scaled = fit(model, xs, WeightPolicy.holder(base_w=lambda o: np.full(o.shape[0], 17.5)),
                     minimality_samples=0)
        np.testing.assert_allclose(scaled.theta_hat, base.theta_hat, rtol=1e-13)

    def test_result_invariants(self):
        rng = np.random.default_rng(44)
        model = weibull_model([0.8, 2.2, 1.0])
        obs = rng.uniform(0.1, 2.0, size=(15, 3))
        result = fit(model, obs, WeightPolicy.lehmer([2.0, 0.5, -1.0]))
        np.testing.assert_allclose(model.nat_param(result.theta_hat), result.eta_hat,
                                   rtol=1e-10)
        np.testing.assert_allclose(mean_map(model, result.eta_hat), result.target,
                                   rtol=1e-10)
        assert result.diagnostics.hessian_largest <= 1e-9
        assert result.diagnostics.minimality is not None
        assert result.diagnostics.minimality.minimal

    def test_components_decades_apart_are_minimal(self):
        # The Lehmer weights put the two columns' curvatures 12 decades
        # apart; each component is independent and neither is flat.
        rng = np.random.default_rng(0)
        x = np.column_stack([rng.uniform(1e-3, 2e-3, 50), rng.uniform(1e3, 2e3, 50)])
        for policy in (WeightPolicy.lehmer([2.0, 2.0]), WeightPolicy.holder()):
            verdict = fit(weibull_model([1.0, 1.0]), x, policy).diagnostics.minimality
            assert verdict.minimal

    def test_no_minimality_samples_gives_the_exact_verdict(self):
        # minimality_samples=0 gave no verdict; it now gives the exact one,
        # in the scaled coordinates of the Hessian extremes.
        x = np.array([[0.5, 2.0], [1.5, 3.0], [1.0, 6.0]])
        result = fit(weibull_model([1.0, 2.0]), x, WeightPolicy.holder(), minimality_samples=0)
        verdict = result.diagnostics.minimality
        assert verdict.minimal and verdict.direction is None
        variances = 1.0 / result.eta_hat**2
        assert (verdict.smallest_eigenvalue, verdict.largest_eigenvalue) == (
            float(variances.min()), float(variances.max()))
        assert result.diagnostics.hessian_largest == pytest.approx(-3.0 * verdict.smallest_eigenvalue,
                                                                   rel=1e-15)

    def test_fit_is_a_likelihood_maximum(self):
        rng = np.random.default_rng(45)
        model = weibull_model([1.6])
        xs = rng.uniform(0.2, 2.0, size=12)
        policy = WeightPolicy.holder()
        result = fit(model, xs, policy, minimality_samples=0)
        # eta_hat maximizes the likelihood of the data divided by result.scale.
        scaled = (xs / result.scale).reshape(-1, 1)
        data = WeightedDataset(scaled, apply_policy(policy, scaled))
        best = log_weighted_likelihood(model, data, result.eta_hat)
        for _ in range(100):
            probe = result.eta_hat + rng.uniform(-2.0, 2.0, size=1)
            if model.natural_domain(probe):
                assert log_weighted_likelihood(model, data, probe) <= best + 1e-10

    def test_separable_joint_fit_equals_univariate_fits(self):
        rng = np.random.default_rng(46)
        shapes = [0.9, 1.7, 3.0]
        obs = rng.uniform(0.1, 2.5, size=(14, 3))
        joint = fit(weibull_model(shapes), obs, WeightPolicy.holder(), minimality_samples=0)
        for j, shape in enumerate(shapes):
            single = fit(weibull_model([shape]), obs[:, j], WeightPolicy.holder(),
                         minimality_samples=0)
            assert joint.theta_hat[j] == single.theta_hat[0]

    def test_nonbijective_parameter_map_rejected(self):
        fixture = multinomial_fixture(10, [0.3, 0.3, 0.4])
        with pytest.raises(ConfigError, match="non-bijective"):
            fit(fixture.full_model, np.full((5, 3), 3.0), WeightPolicy.holder())

    def test_per_column_policy_needs_separable_model(self):
        fixture = multinomial_fixture(12, [0.5, 0.3, 0.2])
        model = fixture.reduced_model
        rng = np.random.default_rng(47)
        obs = model.sampler(fixture.eta_reduced, 20, rng) + 0.5  # keep strictly positive
        with pytest.raises(ConfigError, match="separable"):
            fit(model, obs, WeightPolicy.lehmer([2.0, 2.0]))

    def test_reduced_multinomial_fit(self):
        # theta_hat has k probabilities where eta_hat has k - 1 entries, and
        # fit broadcast scale against them: a bare ValueError.
        fixture = multinomial_fixture(10, [0.2, 0.3, 0.5])
        model = fixture.reduced_model
        obs = model.sampler(fixture.eta_reduced, 40, np.random.default_rng(49))
        result = fit(model, obs, WeightPolicy.holder())
        means = obs.mean(axis=0)
        np.testing.assert_allclose(result.theta_hat, np.append(means, 10.0 - means.sum()) / 10.0,
                                   rtol=1e-12)
        np.testing.assert_allclose(model.nat_param(result.theta_hat), result.eta_hat, rtol=1e-10)
        np.testing.assert_array_equal(result.scale, np.ones(2))
        assert result.diagnostics.solve_method == "closed"
        assert result.diagnostics.minimality.minimal

    def test_column_count_mismatch(self):
        with pytest.raises(DomainError):
            fit(weibull_model([1.0, 2.0]), np.array([1.0, 2.0, 3.0]), WeightPolicy.holder())

    def test_scale_family_with_several_parameters_needs_components(self):
        # Without components fit scaled and fitted column 0 only: theta_hat
        # read [2.160, 2.160] where the separable model gives [2.160, 341.565].
        data = [[1, 100], [2, 300], [3, 500]]
        with pytest.raises(ConfigError, match="needs its components"):
            fit(dataclasses.replace(weibull_model([2.0, 2.0]), components=None), data,
                WeightPolicy.holder())
        np.testing.assert_allclose(fit(weibull_model([2.0, 2.0]), data, WeightPolicy.holder()).theta_hat,
                                   [2.160, 341.565], rtol=1e-3)

    def test_degenerate_curvature_warns_instead_of_silent_success(self, caplog):
        # two copies of the same statistic leave a flat direction in the
        # curvature at the estimate; the fit must say so
        obs = np.array([[0.4, 9.0], [1.0, 9.0], [1.6, 9.0]])
        with caplog.at_level(logging.WARNING):
            result = fit(_duplicated_statistic_model(), obs, WeightPolicy.holder())
        assert result.diagnostics.hessian_largest >= -1e-12
        assert any("degenerate" in message for message in caplog.messages)

    def test_the_degenerate_warning_follows_the_verdict(self, caplog):
        # At 1e200 the exact covariance overflows: there is no verdict, and
        # no "degenerate (largest eigenvalue -inf)" warning either.
        with caplog.at_level(logging.WARNING):
            result = fit(weibull_model([1.0]), [1e200, 2e200, 4e200], WeightPolicy.lehmer([2.0]))
        assert result.diagnostics.minimality is None
        assert result.diagnostics.hessian_largest == -math.inf
        assert caplog.messages == [
            "no minimality verdict: the covariance of the statistic of weibull(k=[1.0]) "
            "is not finite at eta=[-3.333333333333332e-201]",
        ]
        # The flat model needs no sampler for its verdict, and the warning
        # names the verdict's direction.
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            result = fit(_duplicated_statistic_model(), [[0.4, 9.0], [1.0, 9.0], [1.6, 9.0]],
                         WeightPolicy.holder())
        verdict = result.diagnostics.minimality
        assert not verdict.minimal
        assert caplog.messages == [
            "weighted log-likelihood Hessian is numerically degenerate at the estimate: "
            f"Cov[T] is flat along {verdict.direction.tolist()}"
        ]

    def test_degeneracy_is_judged_per_component(self, caplog):
        # Independent components whose curvatures lie 1e32 apart: neither is
        # flat, so nothing is logged, while the diagnostics still report the
        # pooled extremes of the spectrum.  The Gaussian is not a scale
        # family, so its data are fitted as they are.
        x = np.array([[1e-8, 1e8], [2e-8, 3e8], [3e-8, 2e8]])
        model = gaussian_known_variance_model([1e-8, 1e8])
        with caplog.at_level(logging.WARNING):
            result = fit(model, x, WeightPolicy.holder(), minimality_samples=0)
        assert caplog.messages == []
        diag = result.diagnostics
        assert diag.hessian_smallest < 1e24 * diag.hessian_largest < 0

    @pytest.mark.parametrize("x, shape", [([0.03], 205), ([0.03, 0.02, 0.5], 205)])
    def test_subnormal_holder_statistic_fits_the_exact_mean(self, x, shape):
        # 0.03 ** 205 is subnormal; relative to the column's largest value
        # the largest term is 1 and the target normal.
        result = fit(weibull_model([float(shape)]), np.reshape(x, (-1, 1)), WeightPolicy.holder())
        assert ulps_off(result.theta_hat[0], holder_oracle(shape, x)) <= 2

    def test_subnormal_target_is_no_solution_without_warnings(self):
        # A subnormal Lehmer target: -1/target overflows in the closed-form
        # inverse, which leaves the natural domain.
        with pytest.raises(NoSolutionError, match="closed-form inverse left the natural domain"):
            fit(exponential_model(1), [[1e-320]], WeightPolicy.lehmer([1.0]))

    def test_overflowing_holder_statistic_fits_the_exact_mean(self):
        # (1e3) ** 200 overflows; (1e3 / 1e3) ** 200 is 1.
        x = [1e-3, 1e3]
        result = fit(weibull_model([200.0]), np.reshape(x, (-1, 1)), WeightPolicy.holder())
        assert ulps_off(result.theta_hat[0], holder_oracle(200, x)) <= 2

    def test_overflowing_target_is_a_domain_error_without_warnings(self):
        # Each value is finite, their sum is not.
        with pytest.raises(DomainError, match="moment target must be finite"):
            fit(exponential_model(1), [[1e308], [1e308]], WeightPolicy.lehmer([1.0]))

    def test_weights_whose_total_overflows_fit_the_exact_mean(self):
        # Each weight 1e308 is finite, their sum is not; divided by the
        # largest, each is 1.
        policy = WeightPolicy.holder(base_w=lambda obs: np.full(obs.shape[0], 1e308))
        result = fit(exponential_model(1), [[1e-10], [1e-10]], policy, minimality_samples=0)
        assert result.theta_hat.tolist() == [1e-10]

    @pytest.mark.parametrize("order", [1.0, 1.0000001])
    def test_lehmer_base_w_whose_total_overflows_fits_the_exact_mean(self, order):
        # Same as above for a lehmer column: at order 1 the base weights are
        # the column's weights and must be divided by their largest too.
        policy = WeightPolicy.lehmer([order], base_w=lambda x: np.full_like(x, 1e308))
        result = fit(exponential_model(1), [[1e-10], [1e-10]], policy, minimality_samples=0)
        assert result.theta_hat.tolist() == [1e-10]

    def test_row_weights_are_divided_by_their_largest(self):
        # Power-of-two weight factors cancel to the bit.
        rng = np.random.default_rng(57)
        x = _log_uniform(rng, (50, 2))
        w = rng.uniform(0.1, 4.0, size=50)
        model = weibull_model([3.0, 1.0])
        base = fit(model, x, WeightPolicy.holder(base_w=lambda o: w))
        for factor in (2.0**-1000, 2.0**1000):
            scaled = fit(model, x, WeightPolicy.holder(base_w=lambda o, f=factor: f * w))
            assert scaled.theta_hat.tolist() == base.theta_hat.tolist()
            assert scaled.diagnostics.hessian_largest == base.diagnostics.hessian_largest

    def test_weights_far_from_the_largest_value_are_a_numeric_error(self):
        # At shape 200, 1e-3 / 1e3 is moved up to exp(-3.5) and its term to
        # exp(-700); with all the weight on that value the target, about
        # exp(-700), would be off by the move itself.
        policy = WeightPolicy.holder(base_w=lambda obs: np.array([1.0, 1e-300]))
        with pytest.raises(NumericError, match=r"exp\(-700\)"):
            fit(weibull_model([200.0]), [[1e-3], [1e3]], policy)
        with pytest.raises(NumericError, match=r"exp\(-700\)"):
            holder_mean(200.0, [1e-3, 1e3], [1.0, 1e-300])
        # At order -200 the smallest value is the reference and 1e3 / 1e-3 is
        # moved down to exp(3.5); the weight on 1e3 makes the same error.
        with pytest.raises(NumericError, match=r"exp\(-700\)"):
            holder_mean(-200.0, [1e-3, 1e3], [1e-300, 1.0])
        assert ulps_off(holder_mean(-200.0, [1e-3, 1e3], [1.0, 1e-300]),
                        holder_oracle(-200, [1e-3, 1e3], [1.0, 1e-300])) == 0
        # With the weight on the largest value nothing moved can show.
        policy = WeightPolicy.holder(base_w=lambda obs: np.array([1e-300, 1.0]))
        result = fit(weibull_model([200.0]), [[1e-3], [1e3]], policy)
        assert ulps_off(result.theta_hat[0], holder_oracle(200, [1e-3, 1e3], [1e-300, 1.0])) <= 2

    @pytest.mark.parametrize("shape", [1.0, 2.0, 2.5])
    def test_values_outside_the_support_are_a_domain_error(self, shape):
        # Before the support check, -3 gave a silent estimate at shape 2, a
        # numpy warning at 2.5 and a misleading NoSolutionError at 1.
        with pytest.raises(DomainError, match=r"value -3\.0 in column 0 is outside the support"):
            fit(weibull_model([shape]), [[-3.0], [1.0], [2.0]], WeightPolicy.holder())
        with pytest.raises(DomainError, match="column 1"):
            fit(weibull_model([shape, shape]), [[1.0, 1.0], [2.0, -3.0]], WeightPolicy.holder())
        with pytest.raises(DomainError, match="value 13.0 in column 0"):
            fixture = multinomial_fixture(12, [0.5, 0.3, 0.2])
            fit(fixture.reduced_model, [[13.0, 1.0], [2.0, 3.0]], WeightPolicy.holder())

    @pytest.mark.parametrize("x, order", [
        # 0.1446 ** -367 is finite, but the sum of two such weights is not.
        ([0.14462751, 0.14462751, 1.0], -366),
        # x ** 199 and x ** -201 overflow or underflow on 1e-3..1e3.
        ([1e-3, 0.5, 10.0, 1e3], 200),
        ([1e-3, 0.5, 10.0, 1e3], -200),
        ([1e-3, 0.5, 10.0, 1e3], 500),
        ([1e-3, 0.5, 10.0, 1e3], -500),
    ])
    def test_lehmer_orders_beyond_the_raw_weights_fit_the_exact_mean(self, x, order):
        # The raw weights x ** (order - 1) of these fits overflow; taken
        # relative to the largest weight, the fit is exact.
        result = fit(exponential_model(1), np.array(x).reshape(-1, 1),
                     WeightPolicy.lehmer([float(order)]), minimality_samples=0)
        bound = 4 * max(1.0, lehmer_condition(order, x))
        assert ulps_off(result.theta_hat[0], lehmer_oracle(order, x)) <= bound
        assert ulps_off(lehmer_mean(order, x), lehmer_oracle(order, x)) <= bound

    def test_lehmer_weights_that_cannot_be_formed_are_a_numeric_error(self):
        # Relative to the smallest value, the weight of 1e300 at order 0 is
        # 1e-600, below any float, while its numerator term, 1e-600 * 1e300,
        # equals the smallest value's own.
        x = [1e-300, 1e300]
        with pytest.raises(NumericError, match="exp\\(600\\)"):
            fit(exponential_model(1), x, WeightPolicy.lehmer([0.0]), minimality_samples=0)
        with pytest.raises(NumericError, match="exp\\(600\\)"):
            lehmer_mean(0.0, x)
        # Above order 1 the largest value is the reference and nothing is lost.
        result = fit(exponential_model(1), x, WeightPolicy.lehmer([2.0]), minimality_samples=0)
        assert result.theta_hat[0] == pytest.approx(1e300, rel=1e-15)

    def test_shape_60_on_wide_data_has_a_finite_curvature(self):
        # Shape-60 Weibull on data spanning 1e-3..1e3: unscaled, eta**2
        # underflows in the curvature and eigvalsh cannot converge; in the
        # scaled coordinates the curvature is -n * target**2.
        x = _log_uniform(np.random.default_rng(52), (200, 3))
        result = fit(weibull_model(np.full(3, 60.0)), x, WeightPolicy.holder())
        for j in range(3):
            assert ulps_off(result.theta_hat[j], holder_oracle(60, x[:, j])) <= 2
        np.testing.assert_array_equal(result.scale, np.max(x, axis=0))
        assert -200.0 <= result.diagnostics.hessian_smallest <= result.diagnostics.hessian_largest < 0

    def test_nonfinite_curvature_is_a_numeric_error(self):
        # A covariance with two infinite variances makes eigvalsh fail.
        model = dataclasses.replace(gaussian_known_variance_model(np.ones(3)),
                                    mean_map_jacobian=lambda eta: np.diag([np.inf, np.inf, 1.0]))
        with pytest.raises(NumericError, match=r"curvature of gaussian\(sigma=\[1\.0,1\.0,1\.0\]\)"):
            fit(model, np.ones((4, 3)), WeightPolicy.holder())

    @pytest.mark.filterwarnings("error")
    def test_overflowed_joint_curvature_is_a_numeric_error(self):
        # The joint Hessian overflows at 1e200, and eigvalsh returned NaN
        # extremes with no warning and no error.
        model = dataclasses.replace(weibull_model(np.ones(2)), components=None, scale_family=False)
        with pytest.raises(NumericError, match=r"curvature of weibull\(k=\[1\.0,1\.0\]\) .* not finite"):
            fit(model, [[1e200, 1.0], [3e200, 2.0]], WeightPolicy.holder(), minimality_samples=0)

    def test_negative_minimality_sample_count_is_a_domain_error(self):
        with pytest.raises(DomainError, match=r"need at least q\+1=4 samples .* got -1"):
            fit(weibull_model(np.ones(3)), np.ones((4, 3)), WeightPolicy.holder(),
                minimality_samples=-1)

    def test_newton_and_closed_form_paths_agree(self):
        rng = np.random.default_rng(48)
        for _ in range(40):
            xs = rng.uniform(0.1, 3.0, size=10)
            shape = rng.uniform(0.5, 4.0)
            model = weibull_model([shape])
            closed = fit(model, xs, WeightPolicy.holder(), method="closed",
                         minimality_samples=0)
            newton = fit(model, xs, WeightPolicy.holder(), method="newton",
                         minimality_samples=0)
            np.testing.assert_allclose(newton.theta_hat, closed.theta_hat, rtol=1e-9)
            # Newton must not start at the closed-form answer.
            assert newton.diagnostics.solve_method == "newton"
            assert newton.diagnostics.iterations > 0


class TestSubclassForm:
    def test_weibull_with_holder_policy(self):
        report = subclass_form(weibull_model([2.0, 3.0]), WeightPolicy.holder())
        assert report.is_holder_mean and not report.is_lehmer_mean

    def test_unit_shape_weibull_with_lehmer_policy(self):
        report = subclass_form(weibull_model([1.0, 1.0]), WeightPolicy.lehmer([2.0, 0.5]))
        assert report.is_lehmer_mean and not report.is_holder_mean

    def test_gaussian_with_lehmer_policy_is_neither(self):
        report = subclass_form(
            gaussian_known_variance_model([1.0]), WeightPolicy.lehmer([2.0])
        )
        assert not report.is_holder_mean and not report.is_lehmer_mean
        assert "negative" in report.reason

    def test_nonunit_shape_weibull_with_lehmer_policy_is_neither(self):
        report = subclass_form(weibull_model([2.0]), WeightPolicy.lehmer([2.0]))
        assert not report.is_lehmer_mean


class TestDispatchLevels:
    # numpy picks its exp, log and power kernels at run time by the CPU's
    # features, and its AVX-512 kernels round some results differently.  The
    # bit relations (sweep == fit, fit == holder_mean, lehmer_mean == fit's
    # target) and the exact minimality verdict must hold at every level, so
    # they run again in a child whose NPY_DISABLE_CPU_FEATURES switches the
    # AVX-512 targets off.
    RELATION_TESTS = ["tests/test_cli.py::TestBatchedSweep", "tests/test_mwle.py::TestHolderAccuracy",
                      "tests/test_mwle.py::TestLehmerRelation",
                      "tests/test_expfam.py::TestExactMinimality"]

    def test_bit_relations_hold_without_avx512(self):
        try:
            from numpy._core import _multiarray_umath as umath
        except ImportError:  # numpy 1.x
            from numpy.core import _multiarray_umath as umath
        avx512 = [t for t in umath.__cpu_dispatch__ if t == "X86_V4" or t.startswith("AVX512")]
        if not avx512:
            pytest.skip("numpy has no AVX-512 dispatch target here")
        child = ("import importlib, sys, pytest\n"
                 f"umath = importlib.import_module({umath.__name__!r})\n"
                 f"assert not any(umath.__cpu_features__[t] for t in {avx512!r})\n"
                 f"sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider', *{self.RELATION_TESTS!r}]))\n")
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        result = subprocess.run([sys.executable, "-c", child], cwd=root, capture_output=True, text=True,
                                env=dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(avx512)))
        assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-2000:]

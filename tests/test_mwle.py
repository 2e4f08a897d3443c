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
    ProportionMatrix,
    WeightedDataset,
    WeightPolicy,
    apply_policy,
    check_minimality,
    exponential_model,
    expfam,
    fit,
    gaussian_known_variance_model,
    holder_mean,
    lehmer_mean,
    log_weighted_likelihood,
    mean_map,
    means,
    multinomial_fixture,
    mwle,
    subclass_form,
    v_weights,
    weibull_model,
    weighted_stat_mean,
)
from wmle.cli import run_sweep

from conftest import (
    holder_oracle,
    lehmer_condition,
    lehmer_oracle,
    ulps_off,
    without_closed_inverse,
)


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
        # exp((beta - 1) * (log y - log y_r)) in the rounded logs of the
        # values the kernel takes them of, y = x * 2**-e.
        x = np.array(x)
        u = apply_policy(WeightPolicy.lehmer([beta]), x)[:, 0]
        raw = x ** (beta - 1.0)
        expected = raw / np.max(raw)
        e = means._scale_exponents(np.array([x.min()]), np.array([x.max()]), x.size)
        log_y = np.abs(np.log(np.ldexp(x, -e)))
        scale = 4.0 * (1.0 + abs(beta - 1.0) * (log_y + log_y[np.argmax(raw)]))
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
    smallest value, where the Lehmer weights concentrate, all times a power
    of two that keeps them normal, up to about 1e+-302."""
    n = draw(st.integers(1, 40))
    logs = draw(st.lists(st.floats(math.log(1e-3), math.log(1e3)), min_size=n, max_size=n))
    x = np.exp(np.asarray(logs))
    near = st.tuples(st.integers(0, n - 1), st.booleans(),
                     st.sampled_from([0.0, 2.0**-52, 1e-12, 1e-6, 1e-3, 3e-3, 1e-2]))
    for i, largest, gap in draw(st.lists(near, max_size=n)):
        x[i] = np.max(x) * (1.0 - gap) if largest else np.min(x) * (1.0 + gap)
    magnitude = draw(st.one_of(st.just(0), st.sampled_from([-1010, -997, -400, 400, 997, 1010]),
                               st.integers(-1010, 1010)))
    return draw(st.integers(-500, 500)), np.ldexp(x, magnitude)


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

    def test_lehmer_scales_are_powers_of_two_and_non_scale_fits_keep_ones(self):
        # A Lehmer column is fitted on x_j * 2**-e_j, its target a mantissa
        # in [1, 2); a model that is not a scale family is fitted unscaled.
        x = _log_uniform(np.random.default_rng(58), (30, 3))
        orders = [2.0, -3.0, 0.5]
        lehmer = fit(weibull_model(np.ones(3)), x, WeightPolicy.lehmer(orders))
        for j, order in enumerate(orders):
            assert math.frexp(lehmer.scale[j])[0] == 0.5
            assert 1.0 <= lehmer.target[j] < 2.0
            assert lehmer.target[j] * lehmer.scale[j] == lehmer_mean(order, x[:, j])
        gaussian = fit(gaussian_known_variance_model(np.ones(3)), x, WeightPolicy.holder())
        assert gaussian.scale.tolist() == [1.0, 1.0, 1.0]


def _fit_paths():
    """One fit of each of fit's paths, as (model, observations, policy, what
    fit checks for finiteness), and the base weights the policies use."""
    x = _log_uniform(np.random.default_rng(53), (1000, 3))
    base = _log_uniform(np.random.default_rng(54), (1000, 3))
    fixture = multinomial_fixture(10, [0.2, 0.3, 0.5])
    counts = fixture.reduced_model.sampler(fixture.eta_reduced, 1000, np.random.default_rng(55))
    row_base = WeightPolicy.holder(base_w=lambda o: base[:, 0])
    both = ["observations", "weights"]
    return [
        # The column kernels: Lehmer on the identity statistic, Holder on a scale family.
        (weibull_model(np.ones(3)), x, WeightPolicy.lehmer([-200.0, 0.5, 3.0]), ["observations"]),
        (weibull_model(np.ones(3)), x, WeightPolicy.lehmer([2.0, 1.0, 4.0], base_w=lambda o: base),
         both),
        (weibull_model(np.full(3, 2.0)), x, WeightPolicy.holder(), ["observations"]),
        (weibull_model(np.full(3, 2.0)), x, row_base, both),
        # The generic paths: row weights on a model that is not a scale
        # family, a Lehmer column on a non-identity statistic, a joint model.
        (gaussian_known_variance_model(np.ones(3)), x, WeightPolicy.holder(), ["observations"]),
        (gaussian_known_variance_model(np.ones(3)), x, row_base, both),
        (weibull_model(np.full(3, 2.0)), x,
         WeightPolicy.lehmer([2.0, 1.0, 4.0], base_w=lambda o: base), both),
        (fixture.reduced_model, counts.astype(float), WeightPolicy.holder(), ["observations"]),
    ], base


class TestValidation:
    def test_one_fit_checks_observations_once_and_weights_once(self, monkeypatch):
        # Observations are checked by expfam._observation_matrix, weight
        # vectors by means._weight_vector and a policy's base weights by
        # mwle._base_weights; count the checks fit makes, wherever it could
        # reach them.
        passes = []

        def counting(name, check):
            def counted(*args, **kwargs):
                result = check(*args, **kwargs)
                if result is not None:  # _base_weights checks only a policy's base_w
                    passes.append(name)
                return result
            return counted

        checks = [("observations", expfam._observation_matrix, (expfam, mwle)),
                  ("weights", means._weight_vector, (means, expfam)),
                  ("weights", mwle._base_weights, (mwle,))]
        for name, check, modules in checks:
            for module in modules:
                monkeypatch.setattr(module, check.__name__, counting(name, check))
        for model, obs, policy, checked in _fit_paths()[0]:
            passes.clear()
            fit(model, obs, policy)
            assert sorted(passes) == checked, (model.name, policy.kind)

    def test_fit_builds_no_weighted_dataset(self, monkeypatch):
        # fit forms every moment target from the arrays it has checked; a
        # dataset built on the way would only check them again.
        def refuse(*args, **kwargs):
            raise AssertionError("fit built a WeightedDataset")

        monkeypatch.setattr(mwle, "WeightedDataset", refuse)
        for model, obs, policy, _ in _fit_paths()[0]:
            assert np.isfinite(fit(model, obs, policy).theta_hat).all()


#: Entries observation_cases sets in a matrix of positive values.
_SPECIAL_VALUES = [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0]


@st.composite
def observation_cases(draw):
    """A row count ``m`` for the observation check's chunks, and an ``(n,
    k)`` matrix of log-uniform values in [1e-3, 1e3], ``n`` from 1 to
    several ``m``, ``k`` from 1 to 4, C-order, F-order or a strided view,
    with up to three entries anywhere (in the chunked head or in the tail
    rows) set to NaN, +-inf, +-0 or -1, and sometimes a column of zeros of
    one sign."""
    m = draw(st.sampled_from([1, 2, 3, 8]))
    n, k = draw(st.integers(1, 5 * m + 3)), draw(st.integers(1, 4))
    logs = draw(st.lists(st.floats(math.log(1e-3), math.log(1e3)), min_size=n * k, max_size=n * k))
    x = np.exp(np.asarray(logs)).reshape(n, k)
    for _ in range(draw(st.integers(0, 3))):
        x[draw(st.integers(0, n - 1)), draw(st.integers(0, k - 1))] = draw(st.sampled_from(_SPECIAL_VALUES))
    if draw(st.booleans()):
        x[:, draw(st.integers(0, k - 1))] = draw(st.sampled_from([0.0, -0.0]))
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "F":
        x = np.asfortranarray(x)
    elif layout == "strided":
        big = np.ones((n, 2 * k))
        big[:, ::2] = x
        x = big[:, ::2]
    return m, x


class TestObservationExtremes:
    # The observation check finds each column's extremes in one reduction
    # per extreme, over (n / m, m * k) rows of a C-order matrix (a strided
    # view is copied to C order first); its finite check, fit's support
    # check and the column kernels all read them.
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(observation_cases())
    def test_extremes_and_errors_are_those_of_each_column(self, case):
        m, x = case
        n, k = x.shape
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(expfam, "_EXTREME_ROWS", m)
            fits = {
                "columns": lambda: fit(weibull_model(np.ones(k + 1)), x, WeightPolicy.holder()),
                "lehmer": lambda: _fit_bits(fit(weibull_model(np.ones(k)), x, WeightPolicy.lehmer(np.full(k, 2.0)))),
                "holder": lambda: _fit_bits(fit(weibull_model(np.full(k, 2.0)), x, WeightPolicy.holder())),
                "policy": lambda: apply_policy(WeightPolicy.lehmer(np.full(k, 2.0)), x).tobytes(),
            }
            outcomes = {name: _outcome(call) for name, call in fits.items()}
            if not np.isfinite(x).all():
                # Finiteness is checked first, before the column count.
                with pytest.raises(DomainError, match="^observations must be finite$"):
                    expfam._observation_matrix(x)
                assert set(outcomes.values()) == {("raised", DomainError, "observations must be finite")}
                return
            obs, lo, hi = expfam._observation_matrix(x)
        assert obs is x if x.flags.c_contiguous or x.flags.f_contiguous else obs.flags.c_contiguous
        assert np.array_equal(lo, np.minimum.reduce(x, axis=0)) and np.array_equal(hi, np.maximum.reduce(x, axis=0))
        assert outcomes["columns"] == ("raised", DomainError,
                                       f"data has {k} columns, model {weibull_model(np.ones(k + 1)).name} expects {k + 1}")
        negative = np.argwhere(x < 0)
        if negative.size:
            i, j = negative[0]
            for name in ("lehmer", "holder"):
                assert outcomes[name][:2] == ("raised", DomainError)
                assert outcomes[name][2].startswith(f"value {float(x[i, j])!r} in column {j} is outside the support")
            return
        zeros = np.flatnonzero((x == 0).any(axis=0))
        if zeros.size:
            j = zeros[0]
            error = ("raised", DomainError, f"value {float(x[x[:, j] == 0, j][0])} in column {j} cannot be weighted "
                     "by x**(2.0-1); the lehmer policy needs strictly positive observations")
            assert outcomes["lehmer"] == outcomes["policy"] == error
        else:
            assert outcomes["lehmer"][0] == outcomes["policy"][0] == "returned"
        empty = np.flatnonzero((x == 0).all(axis=0))
        if empty.size:
            assert outcomes["holder"][:2] == ("raised", NoSolutionError)
            assert "target [0.0] is not attainable" in outcomes["holder"][2]
        else:
            theta = [float.fromhex(h) for h in outcomes["holder"][1][:k]]
            assert theta == [holder_mean(2.0, x[:, j]) for j in range(k)]


class TestLayouts:
    # The column kernels read a C- or F-order column where it lies, and the
    # observation check copies a strided view to C order, so fit and
    # apply_policy must give the same bits on every layout.  2000 rows take
    # the check's chunks and a tail; values near 2**-1060 scale by ldexp,
    # whose factor 2**-e would overflow.
    @pytest.mark.parametrize("scale", [1.0, 2.0**-1060])
    @pytest.mark.parametrize("shapes, policy", [
        ([1.0, 1.0, 1.0], WeightPolicy.lehmer([-2.0, 0.5, 200.0])),
        ([1.0, 1.0, 1.0], WeightPolicy.lehmer([2.0, 1.0, -200.0], base_w=lambda o: 1.0 + o)),
        ([0.5, 2.0, 60.0], WeightPolicy.holder()),
        ([0.5, 2.0, 60.0], WeightPolicy.holder(base_w=lambda o: 1.0 + o[:, 0])),
    ])
    def test_c_f_and_strided_matrices_give_the_same_bits(self, shapes, policy, scale):
        big = scale * _log_uniform(np.random.default_rng(71), (2000, 6))
        layouts = [np.ascontiguousarray(big[:, ::2]), np.asfortranarray(big[:, ::2]), big[:, ::2]]
        fits = [_outcome(lambda: _fit_bits(fit(weibull_model(shapes), x, policy))) for x in layouts]
        weights = [_outcome(lambda: apply_policy(policy, x).tobytes()) for x in layouts]
        assert fits[0][0] == "returned" or scale != 1.0
        assert fits[1:] == fits[:1] * 2 and weights[1:] == weights[:1] * 2


#: fit's kernel-path cases, (kind, order, weighted): the Lehmer policy on
#: the unit-shape Weibull model, or a Holder shape under row weights, with or
#: without base weights.
_KERNEL_FITS = [("lehmer", -200.0, False), ("lehmer", -2.0, False), ("lehmer", 0.5, False),
                ("lehmer", 1.0, False), ("lehmer", 2.0, False), ("lehmer", 200.0, False),
                ("lehmer", -200.0, True), ("lehmer", 0.5, True), ("lehmer", 2.0, True),
                ("holder", 0.5, False), ("holder", 1.0, False),
                ("holder", 2.0, False), ("holder", 6.0, False), ("holder", 200.0, False),
                ("holder", 6.0, True)]

#: The worst distance of those fits' estimates on 4000 x 3 values from the
#: exact mean, in ulps, as measured at native dispatch, with AVX-512 off and
#: at baseline, per kind, and for the one fit that needs more on its own:
#: the base-weighted order -200 Lehmer fit measured 1.93 at every level.
_KERNEL_ULPS = {"lehmer": 1.82, "holder": 0.71, ("lehmer", -200.0, True): 1.94}


def _kernel_policy(kind, order, weighted, base):
    if kind == "lehmer":
        return WeightPolicy.lehmer(np.full(3, order), base_w=(lambda o: base) if weighted else None)
    return WeightPolicy.holder(base_w=(lambda o: base[:, 0]) if weighted else None)


def _kernel_fit(kind, order, weighted, x, base):
    shapes = np.ones(3) if kind == "lehmer" else np.full(3, order)
    return fit(weibull_model(shapes), x, _kernel_policy(kind, order, weighted, base), minimality_samples=0)


def _fit_bits(result):
    diag = result.diagnostics
    return tuple(float(v).hex() for v in (*result.theta_hat, *result.eta_hat, *result.target,
                                          diag.hessian_smallest, diag.hessian_largest))


class TestKernelPath:
    # fit, the means and the sweep run one kernel, so these relations hold
    # to the bit at every CPU dispatch level, where the values themselves
    # may differ in the last bits.
    def test_fits_are_the_means_and_the_sweep_to_the_bit(self):
        x = _log_uniform(np.random.default_rng(16), (100_000, 3))
        base = _log_uniform(np.random.default_rng(17), (100_000, 3))
        for kind, order, weighted in _KERNEL_FITS:
            result = _kernel_fit(kind, order, weighted, x, base)
            for j in range(3):
                w = (base[:, j] if kind == "lehmer" else base[:, 0]) if weighted else None
                if kind == "lehmer":
                    assert result.target[j] * result.scale[j] == lehmer_mean(order, x[:, j], w)
                else:
                    assert result.theta_hat[j] == holder_mean(order, x[:, j], w)
            if not weighted:
                estimates, gaps = mwle._sweep_estimates(kind, x, np.array([order]))
                assert gaps == {} and estimates[0].tolist() == result.theta_hat.tolist()
            # eta_hat inverts the target in closed form, and the Hessian
            # extremes are those of -sum(u_j) / eta_j**2.
            assert result.eta_hat.tolist() == (-1.0 / result.target).tolist()
            u = apply_policy(_kernel_policy(kind, order, weighted, base), x).reshape(x.shape[0], -1)
            totals = np.array([float(np.add.reduce(u[:, min(j, u.shape[1] - 1)])) for j in range(3)])
            curvature = -totals * (1.0 / result.eta_hat**2)
            diag = result.diagnostics
            assert (diag.hessian_smallest, diag.hessian_largest) == (curvature.min(), curvature.max())

    def test_fits_are_within_the_measured_ulps_of_the_exact_mean(self):
        x = _log_uniform(np.random.default_rng(16), (4_000, 3))
        base = _log_uniform(np.random.default_rng(17), (4_000, 3))
        for kind, order, weighted in _KERNEL_FITS:
            theta = _kernel_fit(kind, order, weighted, x, base).theta_hat
            for j in range(3):
                w = (base[:, j] if kind == "lehmer" else base[:, 0]) if weighted else None
                oracle = lehmer_oracle if kind == "lehmer" else holder_oracle
                bound = _KERNEL_ULPS.get((kind, order, weighted), _KERNEL_ULPS[kind])
                assert ulps_off(theta[j], oracle(order, x[:, j], w)) <= bound, (kind, order, weighted, j)

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
        # eigh raised an uncaught LinAlgError on it.  The data are fitted
        # unscaled, as where the model is not declared a scale family, and
        # the exact curvature, -3 * (5e153)**2, is finite.
        model = dataclasses.replace(weibull_model(np.ones(3)), scale_family=False)
        x = [[4e153, 5e153, 6e153], [5e153, 6e153, 4e153], [6e153, 4e153, 5e153]]
        with caplog.at_level(logging.WARNING):
            result = fit(model, x, WeightPolicy.holder(), minimality_samples=2048)
        assert result.diagnostics.minimality is None
        np.testing.assert_allclose(result.theta_hat, np.full(3, 5e153), rtol=1e-12)
        assert any(m.startswith("no minimality verdict: the sample covariance of the statistic "
                                "of weibull(k=[1.0,1.0,1.0]) is not finite") for m in caplog.messages)


def _block_walk_results(x, base):
    """Everything the column kernels' block walk computes on ``(n, 3)``
    values ``x``, in hex or bytes: fits, apply_policy and the two means."""
    results = []
    for order in (200.0, -200.0, -2.0, 0.5, 2.0):
        for w in (None, base):
            policy = WeightPolicy.lehmer(np.full(3, order), base_w=None if w is None else (lambda o, w=w: w))
            results.append(_fit_bits(fit(weibull_model(np.ones(3)), x, policy)))
            results.append(apply_policy(policy, x).tobytes())
            results.append(lehmer_mean(order, x[:, 0], None if w is None else w[:, 0]).hex())
    for shape in (0.5, 2.0, 60.0):
        for w in (None, base[:, 0]):
            policy = WeightPolicy.holder(None if w is None else (lambda o, w=w: w))
            results.append(_fit_bits(fit(weibull_model(np.full(3, shape)), x, policy)))
            results.append(holder_mean(shape, x[:, 1], w).hex())
            results.append(holder_mean(-shape, x[:, 2], w).hex())
            results.append(apply_policy(policy, x).tobytes())
    # The sweep over all of x takes one order per buffer; over a one-column
    # corner of it, a buffer holds 2 to 20 of its 20 orders at every size
    # but 1, mostly with a short last block, and orders 0.5 and 2 are raised
    # again on their own.
    corner = x[: max(1, x.shape[0] // 16), :1]
    for kind, orders in (("holder", np.geomspace(0.1, 60.0, 17)), ("lehmer", np.linspace(-3.0, 20.0, 17))):
        orders = np.sort(np.concatenate([orders, [0.5, 1.0, 2.0]]))
        for values in (x, corner):
            estimates, gaps = mwle._sweep_estimates(kind, values, orders)
            results.append((estimates.tobytes(), gaps))
    return results


def _outcome(call):
    """What ``call()`` gives: its value, or its exception's type and message."""
    try:
        return "returned", call()
    except Exception as exc:  # noqa: BLE001 - compared, never swallowed
        return "raised", type(exc), str(exc)


class TestBlockWalk:
    # The column kernels walk their rows in blocks of means._BLOCK_ELEMENTS;
    # every step is elementwise and every sum still spans the column, so the
    # block size must not change a bit.  n = B - 1, B, B + 1 give a short
    # block, exact blocks and a one-value tail.
    SIZES = [1, 3, 7, 64, means._BLOCK_ELEMENTS]

    @pytest.mark.parametrize("size", SIZES)
    def test_every_block_size_gives_the_one_block_bits(self, monkeypatch, size):
        rng = np.random.default_rng(size)
        for n in (size - 1, size, size + 1):
            if n == 0:
                continue
            big = _log_uniform(rng, (2 * n, 6))
            base = _log_uniform(rng, (n, 3))
            layouts = {"strided": big[::2, ::2]}
            layouts["C"] = np.ascontiguousarray(layouts["strided"])
            layouts["F"] = np.asfortranarray(layouts["strided"])
            monkeypatch.setattr(means, "_BLOCK_ELEMENTS", n)
            want = _block_walk_results(layouts["C"], base)
            monkeypatch.setattr(means, "_BLOCK_ELEMENTS", size)
            for layout, x in layouts.items():
                assert _block_walk_results(x, base) == want, (n, layout)

    def test_tied_largest_weights_are_taken_relative_to_the_first_row(self, monkeypatch):
        # log w + (a - 1) * log x is log 4 at (x, w) = (2, 2) and at (4, 1),
        # the first row and the last, which most sizes put in different
        # blocks.  The weights are relative to the first, as np.argmax over
        # the whole column picks it; relative to the last, a third of them
        # differ in the last bit.
        rng = np.random.default_rng(69)
        x, w = rng.uniform(0.1, 1.9, size=(50, 1)), rng.uniform(0.1, 1.0, size=(50, 1))
        x[0], w[0], x[-1], w[-1] = 2.0, 2.0, 4.0, 1.0
        policy = WeightPolicy.lehmer([2.0], base_w=lambda o: w)
        monkeypatch.setattr(means, "_BLOCK_ELEMENTS", 50)
        want = apply_policy(policy, x).tobytes()
        for size in self.SIZES:
            monkeypatch.setattr(means, "_BLOCK_ELEMENTS", size)
            assert apply_policy(policy, x).tobytes() == want, size

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_a_bad_value_in_the_last_block_gives_the_same_error_at_every_size(self, monkeypatch, bad):
        rng = np.random.default_rng(68)
        n = 150
        good = _log_uniform(rng, (n, 3))
        x, w = good.copy(), _log_uniform(rng, (n, 3))
        x[-1, 1] = w[-1, 1] = bad
        calls = [
            lambda: _fit_bits(fit(weibull_model(np.ones(3)), x, WeightPolicy.lehmer([2.0, 0.5, -2.0]))),
            lambda: _fit_bits(fit(weibull_model(np.full(3, 2.0)), x, WeightPolicy.holder())),
            lambda: apply_policy(WeightPolicy.lehmer([2.0, 0.5, -2.0]), x).tobytes(),
            lambda: lehmer_mean(0.5, x[:, 1]),
            lambda: holder_mean(-2.0, x[:, 1]),
            lambda: _fit_bits(fit(weibull_model(np.ones(3)), good,
                                  WeightPolicy.lehmer([2.0] * 3, base_w=lambda o: w))),
            lambda: _fit_bits(fit(weibull_model(np.full(3, 2.0)), good, WeightPolicy.holder(lambda o: w[:, 1]))),
            lambda: lehmer_mean(2.0, good[:, 1], w[:, 1]),
        ]
        monkeypatch.setattr(means, "_BLOCK_ELEMENTS", n)
        want = [_outcome(call) for call in calls]
        assert [outcome[0] for outcome in want[5:]] == ["raised"] * 3  # the weights are refused
        for size in self.SIZES:
            monkeypatch.setattr(means, "_BLOCK_ELEMENTS", size)
            assert [_outcome(call) for call in calls] == want, size


@st.composite
def scaling_cases(draw):
    """1..30 log-uniform values in [1e-3, 1e3], half the time with base
    weights in [1e-3, 1e3], an order in [-500, 500] and a power of two
    2**e, e in {+-40, +-400, +-900}, by which every value stays normal."""
    n = draw(st.integers(1, 30))
    x = np.exp(np.asarray(draw(st.lists(st.floats(math.log(1e-3), math.log(1e3)), min_size=n, max_size=n))))
    w = draw(st.one_of(st.none(), st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n).map(np.asarray)))
    order = draw(st.one_of(st.floats(-500.0, 500.0), st.sampled_from([-2.0, 0.5, 1.0, 2.0, 3.7, 20.0])))
    return x, w, order, 2.0 ** draw(st.sampled_from([-900, -400, -40, 40, 400, 900]))


def _scaled(w, factor):
    return None if w is None else factor * w


def _lehmer_policy(order, w):
    return WeightPolicy.lehmer([order], base_w=None if w is None else (lambda o: w[:, None]))


def _solved_bits(result):
    """A fit's bits apart from theta_hat and scale: its scaled problem."""
    return _fit_bits(result)[1:]


class TestHomogeneity:
    # The kernels take their logs of values divided by an exact power of two
    # and of weights over their largest, so scaling the values by 2**e
    # scales each mean and estimate by exactly 2**e and leaves every weight
    # as it is, and scaling the weights by 2**e changes no bit.
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(scaling_cases())
    def test_lehmer_means_fits_and_weights(self, case):
        x, w, order, f = case
        mean = lehmer_mean(order, x, w)
        assert lehmer_mean(order, f * x, w) == f * mean
        assert lehmer_mean(order, x, _scaled(w, f)) == mean
        result = fit(weibull_model([1.0]), x, _lehmer_policy(order, w))
        scaled = fit(weibull_model([1.0]), f * x, _lehmer_policy(order, w))
        assert (scaled.theta_hat[0], scaled.scale[0]) == (f * result.theta_hat[0], f * result.scale[0])
        assert _solved_bits(scaled) == _solved_bits(result)
        reweighted = fit(weibull_model([1.0]), x, _lehmer_policy(order, _scaled(w, f)))
        assert _fit_bits(reweighted) == _fit_bits(result) and reweighted.scale.tolist() == result.scale.tolist()
        u = apply_policy(_lehmer_policy(order, w), x).tobytes()
        assert apply_policy(_lehmer_policy(order, w), f * x).tobytes() == u
        assert apply_policy(_lehmer_policy(order, _scaled(w, f)), x).tobytes() == u
        v = v_weights("lehmer", order, x, w).tobytes()
        assert v_weights("lehmer", order, f * x, w).tobytes() == v
        assert v_weights("lehmer", order, x, _scaled(w, f)).tobytes() == v

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(scaling_cases())
    def test_holder_means_and_fits(self, case):
        x, w, order, f = case
        if abs(order) < 0.01:  # no power sum at 0, and an estimate that underflows near it
            order = 1.0
        mean = holder_mean(order, x, w)
        assert holder_mean(order, f * x, w) == f * mean
        assert holder_mean(order, x, _scaled(w, f)) == mean
        model = weibull_model([abs(order)])
        result = fit(model, x, _holder_policy(w))
        scaled = fit(model, f * x, _holder_policy(w))
        assert (scaled.theta_hat[0], scaled.scale[0]) == (f * result.theta_hat[0], f * result.scale[0])
        assert _solved_bits(scaled) == _solved_bits(result)
        assert _fit_bits(fit(model, x, _holder_policy(_scaled(w, f)))) == _fit_bits(result)
        u = apply_policy(_holder_policy(w), x).tobytes()
        assert apply_policy(_holder_policy(_scaled(w, f)), x).tobytes() == u

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 20).flatmap(lambda n: st.lists(st.floats(math.log(1e-3), math.log(1e3)),
                                                         min_size=3 * n, max_size=3 * n)),
           st.lists(st.floats(-500.0, 500.0), min_size=1, max_size=12, unique=True),
           st.sampled_from([-900, -400, -40, 40, 400, 900]))
    def test_lehmer_sweep(self, logs, orders, e):
        values = np.exp(np.reshape(logs, (-1, 3)))
        years = tuple(range(values.shape[0]))
        grid = np.sort(orders)
        table = run_sweep(ProportionMatrix(years, values), "lehmer", grid)
        scaled = run_sweep(ProportionMatrix(years, np.ldexp(values, e)), "lehmer", grid)
        np.testing.assert_array_equal(scaled.estimates, np.ldexp(table.estimates, e))
        assert scaled.gaps == table.gaps


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
    # under the Lehmer policy of the same order, in the units of the fit's
    # scale: one computation, to the bit.
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
            result = fit(weibull_model([1.0]), x, policy, minimality_samples=0)
            assert lehmer_mean(order, x, w) == result.target[0] * result.scale[0], (i, order)

    @pytest.mark.parametrize("weights", ["none", "unequal"])
    def test_at_order_one_a_zero_value_keeps_its_weight_in_both(self, weights):
        # x**0 has no pole: at order 1 a zero is weighed by w alone, in the
        # mean as in the fit, which always took it.
        rng = np.random.default_rng(45)
        for i in range(60):
            x = _log_uniform(rng, int(rng.integers(2, 40)))
            x[rng.integers(1, x.size, size=1 + i % 3)] = 0.0  # x[0] stays positive
            w = None if weights == "none" else np.exp(rng.uniform(-3.0, 3.0, size=x.size))
            policy = WeightPolicy.lehmer([1.0], base_w=None if w is None else (lambda o, w=w: w[:, None]))
            result = fit(weibull_model([1.0]), x[:, None], policy, minimality_samples=0)
            assert lehmer_mean(1.0, x, w) == result.target[0] * result.scale[0], i


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

    def test_a_sampled_verdict_is_drawn_under_seed_zero(self):
        # fit takes no seed: its sampled verdict is check_minimality's at the
        # estimate with the default seed 0, eigenvalues to the bit.
        model = weibull_model([1.0, 2.0])
        x = np.array([[0.5, 2.0], [1.5, 3.0], [1.0, 6.0]])
        result = fit(model, x, WeightPolicy.holder(), minimality_samples=512)
        verdict = result.diagnostics.minimality
        assert verdict == check_minimality(model, result.eta_hat, n_samples=512, seed=0)
        other = check_minimality(model, result.eta_hat, n_samples=512, seed=1)
        assert other.smallest_eigenvalue != verdict.smallest_eigenvalue

    def test_sampling_a_model_without_a_sampler_is_a_config_error(self):
        # The message gives no hint to pass a sample, which fit cannot take.
        model = dataclasses.replace(weibull_model([1.0]), sampler=None)
        x = np.array([0.5, 1.5, 1.0])
        with pytest.raises(ConfigError, match=r"^model weibull\(k=\[1\.0\]\) has no sampler$"):
            fit(model, x, WeightPolicy.holder(), minimality_samples=64)
        assert fit(model, x, WeightPolicy.holder()).diagnostics.minimality.minimal

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
        # At 1e200 the unscaled covariance overflowed, leaving a -inf Hessian
        # extreme and no verdict.  Fitted on x * 2**-e, the target lies in
        # [1, 2), the curvature is -sum(u) * target**2 with sum(u) = 1.75,
        # and the verdict is minimal: nothing is logged.
        with caplog.at_level(logging.WARNING):
            result = fit(weibull_model([1.0]), [1e200, 2e200, 4e200], WeightPolicy.lehmer([2.0]))
        assert result.diagnostics.minimality.minimal
        assert result.diagnostics.hessian_largest == -1.75 * (1.0 / result.eta_hat[0] ** 2)
        assert 1.0 <= result.target[0] < 2.0 and result.theta_hat[0] == pytest.approx(3e200, rel=1e-15)
        assert caplog.messages == []
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
        # A subnormal target: -1/target overflows in the closed-form inverse,
        # which leaves the natural domain.  Unscaled, as where the model is
        # not declared a scale family; a scale family's target is near 1.
        unscaled = dataclasses.replace(exponential_model(1), scale_family=False)
        for policy in (WeightPolicy.lehmer([1.0]), WeightPolicy.holder()):
            with pytest.raises(NoSolutionError, match="closed-form inverse left the natural domain"):
                fit(unscaled, [[1e-320]], policy)
            assert fit(exponential_model(1), [[1e-320]], policy).theta_hat.tolist() == [1e-320]

    def test_overflowing_holder_statistic_fits_the_exact_mean(self):
        # (1e3) ** 200 overflows; (1e3 / 1e3) ** 200 is 1.
        x = [1e-3, 1e3]
        result = fit(weibull_model([200.0]), np.reshape(x, (-1, 1)), WeightPolicy.holder())
        assert ulps_off(result.theta_hat[0], holder_oracle(200, x)) <= 2

    def test_overflowing_target_is_a_domain_error_without_warnings(self):
        # Each value is finite, their sum is not.  (A Gaussian column is a
        # generic problem; the Lehmer kernel's target cannot overflow.)
        with pytest.raises(DomainError, match="moment target must be finite"):
            fit(gaussian_known_variance_model([1.0]), [[1e308], [1e308]], WeightPolicy.lehmer([1.0]))

    @pytest.mark.parametrize("order", [1.0, 2.0])
    def test_a_lehmer_target_whose_sum_overflows_fits_the_exact_mean(self, order):
        # sum(u * x) overflows; on x * 2**-e it cannot, and the estimate lands
        # within 1 ulp of the mean.
        x = [1e308, 1.7e308]
        exact = lehmer_oracle(int(order), x)
        result = fit(weibull_model([1.0]), x, WeightPolicy.lehmer([order]))
        assert ulps_off(result.theta_hat[0], exact) <= 1
        assert result.target[0] * result.scale[0] == lehmer_mean(order, x)
        assert fit(exponential_model(1), [[1e308], [1e308]], WeightPolicy.lehmer([order])).theta_hat.tolist() == [1e308]

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
        # Values 1e600 apart, whose mean at order 0.5 is exactly 1.
        pytest.param([1e-300, 1e300], 0.5, marks=pytest.mark.xfail(strict=True, reason=(
            "107 ulps: the weight of 1e300 is exp(-0.5 * t), t = log(1e300) - log(1e-300) rounded "
            "to a double near 1381.6, whose last bit alone moves the weight by ~1e-13"))),
        ([1e-300, 1e300], 0.99),
        ([1e-300, 1e300], 1.01),
    ])
    def test_lehmer_orders_beyond_the_raw_weights_fit_the_exact_mean(self, x, order):
        # The raw weights x ** (order - 1) of these fits overflow, or their
        # values lie 1e600 apart; taken relative to the largest weight, the
        # fit is within the bound.
        result = fit(exponential_model(1), np.array(x).reshape(-1, 1),
                     WeightPolicy.lehmer([float(order)]), minimality_samples=0)
        bound = 4 * max(1.0, lehmer_condition(order, x))
        assert ulps_off(result.theta_hat[0], lehmer_oracle(order, x)) <= bound
        assert ulps_off(lehmer_mean(order, x), lehmer_oracle(order, x)) <= bound

    @pytest.mark.parametrize("order", [0.5, 0.99, 1.01])
    def test_values_1e600_apart_fit_with_a_finite_curvature(self, order):
        # No power of two brings both values near 1, but each scaled value
        # is exact and the fitted target is split into a mantissa in [1, 2)
        # and a power of two, so the curvature is finite; it was -inf at
        # 0.99 and 1.01, with no verdict.
        x = [1e-300, 1e300]
        mean = lehmer_mean(order, x)
        result = fit(weibull_model([1.0]), x, WeightPolicy.lehmer([order]))
        assert math.isfinite(mean) and result.target[0] * result.scale[0] == mean
        assert -math.inf < result.diagnostics.hessian_smallest <= result.diagnostics.hessian_largest < 0
        assert result.diagnostics.minimality.minimal

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

    def test_an_overflowed_component_curvature_is_a_numeric_error(self):
        # One curvature rule for every problem: a separable component whose
        # -sum(u) * Cov[T] overflows reported a -inf Hessian extreme instead.
        component = dataclasses.replace(weibull_model([1.0]).components[0],
                                        mean_map_jacobian=lambda eta: np.full((1, 1), 1e308))
        model = dataclasses.replace(weibull_model(np.ones(2)), components=(component, component))
        x = np.array([[1.0, 2.0], [2.0, 3.0], [3.0, 4.0], [4.0, 5.0]])
        for policy in (WeightPolicy.holder(), WeightPolicy.lehmer([2.0, 2.0])):
            with pytest.raises(NumericError, match=r"curvature of weibull\(k=\[1\.0\]\) at the estimate is not finite"):
                fit(model, x, policy)

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
            closed = fit(model, xs, WeightPolicy.holder(), minimality_samples=0)
            newton = fit(without_closed_inverse(model), xs, WeightPolicy.holder(),
                         minimality_samples=0)
            np.testing.assert_allclose(newton.theta_hat, closed.theta_hat, rtol=1e-9)
            assert closed.diagnostics.solve_method == "closed"
            # Newton must not start at the closed-form answer.
            assert newton.diagnostics.solve_method == "newton"
            assert newton.diagnostics.iterations > 0

    @pytest.mark.parametrize("policy", [WeightPolicy.holder(), WeightPolicy.lehmer([2.0])])
    def test_per_component_problems_use_the_components_inverses(self, policy):
        # fit solves a scale family under row weights, and every Lehmer fit,
        # per component, with the component's callables: the model's own
        # mean_map_inverse is not read there.
        x = _log_uniform(np.random.default_rng(67), 30)
        shape = [2.0] if policy.kind == "holder" else [1.0]
        stripped = dataclasses.replace(weibull_model(shape), mean_map_inverse=None)
        result = fit(stripped, x, policy)
        assert result.diagnostics.solve_method == "closed"
        assert _fit_bits(result) == _fit_bits(fit(weibull_model(shape), x, policy))


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
    # target times its scale, any block size == one block, the power-of-two
    # scalings; numpy's SIMD loops treat a block's tail differently at each
    # level), the oracle bounds and the exact minimality verdict must hold
    # at every level, so
    # they run again in a child whose NPY_DISABLE_CPU_FEATURES switches the
    # AVX-512 targets off.
    RELATION_TESTS = ["tests/test_cli.py::TestBatchedSweep", "tests/test_mwle.py::TestHolderAccuracy",
                      "tests/test_mwle.py::TestLehmerRelation", "tests/test_mwle.py::TestBlockWalk",
                      "tests/test_mwle.py::TestKernelPath", "tests/test_mwle.py::TestHomogeneity",
                      "tests/test_mwle.py::TestLayouts", "tests/test_expfam.py::TestExactMinimality"]

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

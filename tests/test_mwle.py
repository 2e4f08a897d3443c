"""Tests for weight policies, the moment target, and the MWLE fit."""

import logging
import math

import numpy as np
import pytest

from wmle import (
    ConfigError,
    DomainError,
    FamilyModel,
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


class TestApplyPolicy:
    def test_holder_defaults_to_unit_weights(self):
        u = apply_policy(WeightPolicy.holder(), np.array([[0.6, 1.0], [2.0, 3.0]]))
        np.testing.assert_array_equal(u, [1.0, 1.0])

    def test_lehmer_order_one_is_unweighted(self):
        u = apply_policy(WeightPolicy.lehmer([1.0]), np.array([0.6, 2.0]))
        np.testing.assert_array_equal(u, [[1.0], [1.0]])

    def test_lehmer_order_two_weights_by_value(self):
        u = apply_policy(WeightPolicy.lehmer([2.0]), np.array([0.6, 2.0]))
        np.testing.assert_allclose(u[:, 0], [0.6, 2.0], rtol=1e-14)

    def test_lehmer_columns_get_their_own_exponent(self):
        obs = np.array([[0.5, 2.0], [1.0, 4.0]])
        u = apply_policy(WeightPolicy.lehmer([2.0, 3.0]), obs)
        np.testing.assert_allclose(u[:, 0], [0.5, 1.0], rtol=1e-14)
        np.testing.assert_allclose(u[:, 1], [4.0, 16.0], rtol=1e-12)

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
        np.testing.assert_allclose(u, [0.5, 2.0])

    def test_lehmer_base_w_elementwise(self):
        policy = WeightPolicy.lehmer([2.0], base_w=lambda x: 2.0 * np.ones_like(x))
        u = apply_policy(policy, np.array([0.6, 2.0]))
        np.testing.assert_allclose(u[:, 0], [1.2, 4.0], rtol=1e-14)

    def test_custom_map(self):
        policy = WeightPolicy.custom(lambda obs: np.full(obs.shape[0], 3.0))
        u = apply_policy(policy, np.array([1.0, 2.0]))
        np.testing.assert_array_equal(u, [3.0, 3.0])

    def test_overflowing_lehmer_weights_raise_without_warnings(self):
        # exp overflows (or underflows) at order +-200 on data spanning 1e-3..1e3;
        # the finiteness check reports it, numpy must not warn first
        for beta in (200.0, -200.0):
            with pytest.raises(DomainError, match="strictly positive and finite"):
                apply_policy(WeightPolicy.lehmer([beta]), np.array([1e-3, 0.5, 10.0, 1e3]))

    def test_custom_map_must_stay_positive(self):
        policy = WeightPolicy.custom(lambda obs: obs[:, 0] - 1.0)
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
        policy = WeightPolicy.custom(lambda obs: np.array([1.0, 3.0]))
        result = fit(model, np.array([-1.0, 5.0]), policy)
        assert result.theta_hat[0] == pytest.approx((-1.0 + 15.0) / 4.0, rel=1e-12)

    def test_weight_scale_invariance(self):
        rng = np.random.default_rng(43)
        xs = rng.uniform(0.1, 2.0, size=10)
        model = weibull_model([1.3])
        base = fit(model, xs, WeightPolicy.custom(lambda o: np.ones(o.shape[0])),
                   minimality_samples=0)
        scaled = fit(model, xs, WeightPolicy.custom(lambda o: np.full(o.shape[0], 17.5)),
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

    def test_fit_is_a_likelihood_maximum(self):
        rng = np.random.default_rng(45)
        model = weibull_model([1.6])
        xs = rng.uniform(0.2, 2.0, size=12)
        policy = WeightPolicy.holder()
        result = fit(model, xs, policy, minimality_samples=0)
        data = WeightedDataset(xs.reshape(-1, 1), apply_policy(policy, xs.reshape(-1, 1)))
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

    def test_column_count_mismatch(self):
        with pytest.raises(DomainError):
            fit(weibull_model([1.0, 2.0]), np.array([1.0, 2.0, 3.0]), WeightPolicy.holder())

    def test_degenerate_curvature_warns_instead_of_silent_success(self, caplog):
        # two copies of the same statistic leave a flat direction in the
        # curvature at the estimate; the fit must say so
        model = FamilyModel(
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
        obs = np.array([[0.4, 9.0], [1.0, 9.0], [1.6, 9.0]])
        with caplog.at_level(logging.WARNING):
            result = fit(model, obs, WeightPolicy.holder())
        assert result.diagnostics.hessian_largest >= -1e-12
        assert any("degenerate" in message for message in caplog.messages)

    def test_overflowing_curvature_is_a_numeric_error(self):
        # Shape-60 Weibull on data spanning 1e-3..1e3: the estimate exists,
        # but eta**2 underflows in the curvature and eigvalsh cannot converge.
        x = _log_uniform(np.random.default_rng(52), (200, 3))
        with pytest.raises(NumericError, match=r"weibull\(k=\[60\.0,60\.0,60\.0\]\)"):
            fit(weibull_model(np.full(3, 60.0)), x, WeightPolicy.holder())

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

    def test_custom_policy_is_neither(self):
        report = subclass_form(weibull_model([1.0]), WeightPolicy.custom(lambda o: o[:, 0]))
        assert not report.is_holder_mean and not report.is_lehmer_mean

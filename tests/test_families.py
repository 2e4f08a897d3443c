"""Tests for the concrete families: Weibull, Gaussian oracle, multinomial."""

import itertools
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma as gamma_fn
from scipy.special import gammaln, logsumexp

from wmle import (
    ConfigError,
    DomainError,
    NoSolutionError,
    check_minimality,
    exponential_model,
    gaussian_known_variance_model,
    inverse_mean_map,
    log_pdf,
    mean_map,
    multinomial_fixture,
    weibull_model,
    weibull_moment,
)


class TestWeibullModel:
    def test_exponential_mean(self):
        model = weibull_model([1.0])
        eta = model.nat_param(np.array([2.0]))
        np.testing.assert_allclose(mean_map(model, eta), [2.0], rtol=1e-14)

    def test_scale_to_the_shape_power(self):
        model = weibull_model([2.0])
        eta = model.nat_param(np.array([3.0]))
        np.testing.assert_allclose(mean_map(model, eta), [9.0], rtol=1e-13)

    def test_first_moment_at_unit_scale_shape_two(self):
        # E[X] = Gamma(1 + 1/2) = sqrt(pi)/2
        assert weibull_moment(1.0, 2.0, 1.0) == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-12)

    def test_nonpositive_shape_rejected(self):
        with pytest.raises(ConfigError):
            weibull_model([2.0, 0.0])
        with pytest.raises(ConfigError):
            weibull_model([-1.0])

    def test_parameter_maps_roundtrip(self):
        model = weibull_model([0.7, 2.4])
        lam = np.array([0.4, 3.2])
        np.testing.assert_allclose(model.nat_param_inverse(model.nat_param(lam)), lam,
                                   rtol=1e-13)

    def test_an_unattainable_target_names_its_component(self):
        # The message names the first unattainable component's target, as
        # that component's own inverse names it.
        with pytest.raises(NoSolutionError, match=r"^target \[0\.0\] is not attainable by a Weibull component"):
            weibull_model(np.ones(3)).mean_map_inverse([2.0, 0.0, -1.0])

    def test_exponential_model_alias(self):
        model = exponential_model(2)
        np.testing.assert_array_equal(model.stat_powers, [1.0, 1.0])

    @pytest.mark.parametrize("shape", [0.5, 1.0, 2.0, 3.7])
    @pytest.mark.parametrize("scale", [0.3, 1.0, 5.0])
    def test_density_integrates_to_one(self, shape, scale):
        model = weibull_model([shape])
        eta = model.nat_param(np.array([scale]))
        total, _ = quad(
            lambda x: math.exp(log_pdf(model, [x], eta)), 0.0, np.inf, limit=400
        )
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_sampler_is_deterministic_under_a_seed(self):
        model = weibull_model([1.3, 2.0])
        eta = model.nat_param(np.array([1.0, 2.0]))
        first = model.sampler(eta, 16, np.random.default_rng(9))
        second = model.sampler(eta, 16, np.random.default_rng(9))
        np.testing.assert_array_equal(first, second)

    def test_monte_carlo_moments_match_formula(self):
        rng = np.random.default_rng(51)
        model = weibull_model([1.8])
        scale = 1.4
        eta = model.nat_param(np.array([scale]))
        draws = model.sampler(eta, 200_000, rng)[:, 0]
        for t in (0.5, 1.0, 2.0):
            powered = draws**t
            mc = powered.mean()
            se = powered.std(ddof=1) / math.sqrt(powered.size)
            assert abs(mc - weibull_moment(scale, 1.8, t)) <= 3.0 * se


class TestWeibullMoment:
    def test_zeroth_moment_is_one(self):
        assert weibull_moment(3.7, 0.9, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_hand_value(self):
        # lam=2, k=1, t=2: 4 * Gamma(3) = 8
        assert weibull_moment(2.0, 1.0, 2.0) == pytest.approx(8.0, rel=1e-13)

    @pytest.mark.parametrize("lam", [0.3, 4.5])
    @pytest.mark.parametrize("shape", [0.5, 2.7])
    @pytest.mark.parametrize("t", [0.0, 0.5, 3.0])
    def test_matches_scipy_gamma(self, lam, shape, t):
        expected = lam**t * float(gamma_fn(1.0 + t / shape))
        assert weibull_moment(lam, shape, t) == pytest.approx(expected, rel=1e-14)

    def test_negative_order_rejected(self):
        with pytest.raises(DomainError):
            weibull_moment(1.0, 1.0, -0.5)

    def test_nonpositive_parameters_rejected(self):
        with pytest.raises(DomainError):
            weibull_moment(0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            weibull_moment(1.0, -2.0, 1.0)


class TestGaussianOracle:
    def test_zero_target_gives_zero_mean(self):
        model = gaussian_known_variance_model([1.0])
        eta = inverse_mean_map(model, [0.0])
        np.testing.assert_allclose(eta, [0.0], atol=1e-15)
        np.testing.assert_allclose(model.nat_param_inverse(eta), [0.0], atol=1e-15)

    def test_mean_map_is_identity_in_mu(self):
        model = gaussian_known_variance_model([2.0])
        eta = inverse_mean_map(model, [3.0])
        np.testing.assert_allclose(model.nat_param_inverse(eta), [3.0], rtol=1e-14)

    def test_newton_equals_closed_form_on_random_targets(self):
        rng = np.random.default_rng(52)
        model = gaussian_known_variance_model([0.7, 1.9])
        for _ in range(50):
            target = rng.uniform(-5.0, 5.0, size=2)
            closed = inverse_mean_map(model, target)
            newton = inverse_mean_map(
                model, target, init=rng.uniform(-3.0, 3.0, size=2), method="newton"
            )
            np.testing.assert_allclose(newton, closed, rtol=1e-10, atol=1e-10)

    def test_supports_negative_data(self):
        model = gaussian_known_variance_model([1.0])
        value = log_pdf(model, [-1.5], [0.3])
        assert math.isfinite(value)

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(ConfigError):
            gaussian_known_variance_model([1.0, 0.0])


class TestMultinomialFixture:
    def test_full_statistic_flagged_degenerate_along_ones(self):
        fixture = multinomial_fixture(10, np.full(3, 1.0 / 3.0))
        verdict = check_minimality(fixture.full_model, fixture.eta_full,
                                   n_samples=4096, seed=3)
        assert not verdict.minimal
        ones = np.ones(3) / math.sqrt(3.0)
        alignment = abs(float(verdict.direction @ ones))
        assert math.acos(min(alignment, 1.0)) <= 1e-3

    def test_reduced_statistic_is_minimal(self):
        fixture = multinomial_fixture(10, np.full(3, 1.0 / 3.0))
        verdict = check_minimality(fixture.reduced_model, fixture.eta_reduced,
                                   n_samples=4096, seed=3)
        assert verdict.minimal

    def test_single_category_trivially_degenerate(self):
        fixture = multinomial_fixture(7, [1.0])
        verdict = check_minimality(fixture.full_model, fixture.eta_full,
                                   n_samples=64, seed=4)
        assert not verdict.minimal
        assert fixture.reduced_model is None

    def test_reduced_pmf_sums_to_one(self):
        trials = 6
        fixture = multinomial_fixture(trials, [0.5, 0.3, 0.2])
        model = fixture.reduced_model
        total = 0.0
        for x1, x2 in itertools.product(range(trials + 1), repeat=2):
            if x1 + x2 <= trials:
                total += math.exp(log_pdf(model, [float(x1), float(x2)],
                                          fixture.eta_reduced))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_reduced_mean_map_matches_category_means(self):
        fixture = multinomial_fixture(40, [0.5, 0.3, 0.2])
        expected = 40.0 * np.array([0.5, 0.3])
        np.testing.assert_allclose(
            mean_map(fixture.reduced_model, fixture.eta_reduced), expected, rtol=1e-12
        )

    @pytest.mark.parametrize("eta", [[800.0, -800.0], [-800.0, 800.0], [-750.0, -700.0], [0.3, -0.2]])
    def test_reduced_maps_match_logsumexp_oracle(self, eta):
        trials = 12
        model = multinomial_fixture(trials, [0.5, 0.3, 0.2]).reduced_model
        eta = np.array(eta)
        lse = logsumexp(np.append(eta, 0.0))
        probabilities = np.exp(np.append(eta, 0.0) - lse)
        h = model.log_normalizer(eta)
        p = model.nat_param_inverse(eta)
        r = mean_map(model, eta)
        assert math.isfinite(h) and np.all(np.isfinite(p)) and np.all(np.isfinite(r))
        assert h == pytest.approx(trials * lse, rel=1e-14)
        np.testing.assert_allclose(p, probabilities, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(r, trials * probabilities[:2], rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("encoding", ["full", "reduced"])
    def test_log_pdf_matches_gammaln_oracle(self, encoding):
        trials = 9
        p = np.array([0.5, 0.3, 0.2])
        fixture = multinomial_fixture(trials, p)
        counts = fixture.full_model.sampler(fixture.eta_full, 40, np.random.default_rng(8))
        if encoding == "full":
            model, x, eta = fixture.full_model, counts, fixture.eta_full
        else:
            # The last row lies past the trial count, where the density is zero.
            model, eta = fixture.reduced_model, fixture.eta_reduced
            x = np.vstack([counts[:, :2], [7.0, 5.0]])
        rest = trials - x.sum(axis=1)  # zero in the full encoding
        expected = (
            gammaln(trials + 1.0)
            - gammaln(x + 1.0).sum(axis=1)
            - gammaln(rest + 1.0)
            + x @ np.log(p[: x.shape[1]])
            + rest * math.log(p[-1])
        )
        np.testing.assert_allclose(log_pdf(model, x, eta), expected, rtol=1e-13)

    def test_invalid_probabilities_rejected(self):
        with pytest.raises(ConfigError):
            multinomial_fixture(10, [0.5, 0.6])
        with pytest.raises(ConfigError):
            multinomial_fixture(10, [0.5, 0.5, 0.0])
        with pytest.raises(ConfigError):
            multinomial_fixture(0, [1.0])

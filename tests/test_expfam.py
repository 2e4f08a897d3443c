"""Tests for the exponential-family core: likelihood calculus and solvers."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from wmle import (
    ConfigError,
    ConvergenceError,
    DomainError,
    FamilyModel,
    NoSolutionError,
    NumericError,
    WeightedDataset,
    check_minimality,
    exponential_model,
    gaussian_known_variance_model,
    grad_log_weighted_likelihood,
    hessian_log_weighted_likelihood,
    inverse_mean_map,
    log_pdf,
    log_weighted_likelihood,
    mean_map,
    multinomial_fixture,
    weibull_model,
    weighted_stat_mean,
)

from wmle import expfam
from wmle.expfam import _central_difference, _solve_mean_target, _stat_covariance

FD_STEP = float(np.finfo(float).eps) ** (1.0 / 3.0)


def strip_closed_forms(model: FamilyModel) -> FamilyModel:
    """Drop every closed form so the finite-difference fallbacks run."""
    return dataclasses.replace(
        model,
        mean_map_closed=None,
        mean_map_inverse=None,
        mean_map_jacobian=None,
    )


def fd_gradient(model, data, eta):
    eta = np.asarray(eta, dtype=float)
    out = np.empty(eta.size)
    for j in range(eta.size):
        h = FD_STEP * (1.0 + abs(eta[j]))
        plus, minus = eta.copy(), eta.copy()
        plus[j] += h
        minus[j] -= h
        out[j] = (
            log_weighted_likelihood(model, data, plus)
            - log_weighted_likelihood(model, data, minus)
        ) / (2.0 * h)
    return out


def fd_hessian_from_gradient(model, data, eta):
    eta = np.asarray(eta, dtype=float)
    q = eta.size
    out = np.empty((q, q))
    for j in range(q):
        h = FD_STEP * (1.0 + abs(eta[j]))
        plus, minus = eta.copy(), eta.copy()
        plus[j] += h
        minus[j] -= h
        out[:, j] = (
            grad_log_weighted_likelihood(model, data, plus)
            - grad_log_weighted_likelihood(model, data, minus)
        ) / (2.0 * h)
    return 0.5 * (out + out.T)


def random_case(rng):
    """A random (model, dataset, valid eta) triple across all families."""
    kind = rng.integers(0, 3)
    n = int(rng.integers(2, 9))
    if kind == 0:
        q = int(rng.integers(1, 4))
        model = weibull_model(rng.uniform(0.5, 3.0, size=q))
        obs = rng.uniform(0.1, 3.0, size=(n, q))
        eta = -rng.uniform(0.2, 3.0, size=q)
    elif kind == 1:
        q = int(rng.integers(1, 4))
        model = gaussian_known_variance_model(rng.uniform(0.5, 2.0, size=q))
        obs = rng.normal(size=(n, q))
        eta = rng.uniform(-2.0, 2.0, size=q)
    else:
        p = rng.dirichlet(np.ones(3) * 5.0)
        fixture = multinomial_fixture(40, p)
        model = fixture.reduced_model
        obs = model.sampler(fixture.eta_reduced, n, rng)
        eta = rng.uniform(-1.0, 1.0, size=2)
    weights = rng.uniform(0.2, 3.0, size=n)
    return model, WeightedDataset(obs, weights), eta


class TestModelValidation:
    def test_natural_dimension_cannot_exceed_observation_dimension(self):
        base = exponential_model()
        with pytest.raises(ConfigError):
            dataclasses.replace(base, dim_eta=2)

    def test_component_count_must_match(self):
        base = weibull_model([1.0, 2.0])
        with pytest.raises(ConfigError):
            dataclasses.replace(base, components=base.components[:1])


class TestWeightedDataset:
    def test_one_dimensional_input_becomes_a_column(self):
        data = WeightedDataset([1.0, 2.0], [1.0, 1.0])
        assert data.observations.shape == (2, 1)

    def test_total_weight(self):
        data = WeightedDataset([[1.0], [2.0]], [0.5, 2.0])
        assert data.total_weight == pytest.approx(2.5)

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(DomainError):
            WeightedDataset([[1.0], [2.0]], [1.0, 0.0])

    def test_no_weights_are_unit_weights(self):
        x = np.random.default_rng(57).uniform(0.1, 3.0, size=(1000, 2))
        implicit, explicit = WeightedDataset(x), WeightedDataset(x, np.ones(1000))
        assert implicit.total_weight == explicit.total_weight == 1000.0
        np.testing.assert_array_equal(implicit.weights, explicit.weights)
        for model in (weibull_model([1.0, 1.0]), weibull_model([0.5, 3.0])):
            assert (weighted_stat_mean(implicit, model).tobytes()
                    == weighted_stat_mean(explicit, model).tobytes())

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            WeightedDataset(np.empty((0, 1)), np.empty(0))


class TestLogPdf:
    def test_exponential_hand_value(self):
        # rate-1/2 exponential density at 2 is 0.5 * exp(-1)
        model = exponential_model()
        assert log_pdf(model, [2.0], [-0.5]) == pytest.approx(math.log(0.5) - 1.0, abs=1e-12)

    def test_weibull_shape_two_hand_value(self):
        # density 2 x exp(-x^2) at x=1 with unit scale
        model = weibull_model([2.0])
        assert log_pdf(model, [1.0], [-1.0]) == pytest.approx(math.log(2.0) - 1.0, abs=1e-12)

    def test_vectorized_rows(self):
        model = exponential_model()
        values = log_pdf(model, [[1.0], [2.0], [3.0]], [-1.0])
        np.testing.assert_allclose(values, [-1.0, -2.0, -3.0], atol=1e-12)

    def test_eta_outside_natural_domain(self):
        model = exponential_model()
        with pytest.raises(DomainError):
            log_pdf(model, [1.0], [0.5])

    @pytest.mark.parametrize(
        "model,eta,support",
        [
            (exponential_model(), np.array([-0.7]), (0.0, np.inf)),
            (weibull_model([2.0]), np.array([-0.8]), (0.0, np.inf)),
            (weibull_model([3.1]), np.array([-2.0]), (0.0, np.inf)),
            (gaussian_known_variance_model([1.5]), np.array([0.4]), (-np.inf, np.inf)),
        ],
    )
    def test_density_integrates_to_one(self, model, eta, support):
        total, _ = quad(
            lambda x: math.exp(log_pdf(model, [x], eta)), support[0], support[1], limit=200
        )
        assert total == pytest.approx(1.0, abs=1e-6)


class TestLogWeightedLikelihood:
    def test_single_unit_weight_reduces_to_log_pdf(self):
        model = exponential_model()
        data = WeightedDataset([[1.7]], [1.0])
        assert log_weighted_likelihood(model, data, [-0.5]) == pytest.approx(
            log_pdf(model, [1.7], [-0.5]), abs=1e-12
        )

    def test_linear_in_weights(self):
        model = exponential_model()
        eta = [-0.8]
        base = WeightedDataset([[0.6], [2.0]], [1.0, 1.0])
        doubled = WeightedDataset([[0.6], [2.0]], [2.0, 2.0])
        assert log_weighted_likelihood(model, doubled, eta) == pytest.approx(
            2.0 * log_weighted_likelihood(model, base, eta), rel=1e-14
        )

    def test_weight_equals_multiplicity(self):
        model = exponential_model()
        eta = [-1.2]
        weighted = WeightedDataset([[0.6], [2.0]], [1.0, 2.0])
        repeated = WeightedDataset([[0.6], [2.0], [2.0]], [1.0, 1.0, 1.0])
        assert log_weighted_likelihood(model, weighted, eta) == pytest.approx(
            log_weighted_likelihood(model, repeated, eta), rel=1e-14
        )


class TestGradient:
    def test_zero_at_matched_moment(self):
        model = exponential_model()
        data = WeightedDataset([[0.6], [2.0]], [1.0, 1.0])
        # arithmetic mean 1.3 corresponds to eta = -1/1.3
        grad = grad_log_weighted_likelihood(model, data, [-1.0 / 1.3])
        np.testing.assert_allclose(grad, [0.0], atol=1e-12)

    def test_hand_value_exponential(self):
        model = exponential_model()
        data = WeightedDataset([[0.6], [2.0]], [1.0, 1.0])
        grad = grad_log_weighted_likelihood(model, data, [-1.0])
        np.testing.assert_allclose(grad, [0.6], atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            model, data, eta = random_case(rng)
            analytic = grad_log_weighted_likelihood(model, data, eta)
            numeric = fd_gradient(model, data, eta)
            np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-8)


class TestHessian:
    def test_exponential_closed_form(self):
        model = exponential_model()
        data = WeightedDataset([[0.6], [2.0]], [1.0, 1.0])
        hess = hessian_log_weighted_likelihood(model, data, [-1.0])
        np.testing.assert_allclose(hess, [[-2.0]], rtol=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(32)
        for _ in range(40):
            model, data, eta = random_case(rng)
            hess = hessian_log_weighted_likelihood(model, data, eta)
            assert np.max(np.abs(hess - hess.T)) <= 1e-12

    def test_matches_finite_differences_of_gradient(self):
        rng = np.random.default_rng(33)
        for _ in range(40):
            model, data, eta = random_case(rng)
            analytic = hessian_log_weighted_likelihood(model, data, eta)
            numeric = fd_hessian_from_gradient(model, data, eta)
            np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-6)

    def test_negative_semidefinite(self):
        rng = np.random.default_rng(34)
        for _ in range(60):
            model, data, eta = random_case(rng)
            eigenvalues = np.linalg.eigvalsh(hessian_log_weighted_likelihood(model, data, eta))
            assert np.all(eigenvalues <= 1e-9)


class TestMeanMap:
    def test_exponential_mean(self):
        model = exponential_model()
        np.testing.assert_allclose(mean_map(model, [-0.5]), [2.0], rtol=1e-14)

    def test_weibull_scale_power(self):
        # shape 2, scale 3: E[T] = lambda**k = 9
        model = weibull_model([2.0])
        eta = model.nat_param(np.array([3.0]))
        np.testing.assert_allclose(mean_map(model, eta), [9.0], rtol=1e-12)

    def test_closed_form_agrees_with_finite_difference_fallback(self):
        rng = np.random.default_rng(35)
        for _ in range(40):
            model, _, eta = random_case(rng)
            closed = mean_map(model, eta)
            numeric = mean_map(strip_closed_forms(model), eta)
            np.testing.assert_allclose(closed, numeric, rtol=1e-7, atol=1e-9)

    def test_mean_lies_in_stat_hull(self):
        rng = np.random.default_rng(36)
        model = weibull_model([1.7])
        eta = np.array([-0.6])
        draws = model.sampler(eta, 200_000, rng)
        stats = model.sufficient_stat(draws)
        r = mean_map(model, eta)
        assert stats.min() <= r[0] <= stats.max()


class TestInverseMeanMap:
    def test_exponential_closed_form(self):
        model = exponential_model()
        np.testing.assert_allclose(inverse_mean_map(model, [2.0]), [-0.5], rtol=1e-14)

    def test_weibull_shape_two_target_four(self):
        model = weibull_model([2.0])
        eta = inverse_mean_map(model, [4.0])
        lam = model.nat_param_inverse(eta)
        np.testing.assert_allclose(lam, [2.0], rtol=1e-12)

    def test_newton_agrees_with_closed_form(self):
        rng = np.random.default_rng(37)
        for _ in range(60):
            model, _, eta = random_case(rng)
            target = mean_map(model, eta)
            closed = inverse_mean_map(model, target)
            init = eta + rng.uniform(-0.05, 0.05, size=eta.size)
            if not model.natural_domain(init):
                continue
            newton = inverse_mean_map(model, target, init=init, method="newton")
            np.testing.assert_allclose(newton, closed, rtol=1e-9, atol=1e-10)

    def test_bisection_agrees_with_closed_form(self):
        model = weibull_model([1.0, 2.5])
        target = np.array([1.3, 4.0])
        closed = inverse_mean_map(model, target)
        bisect = inverse_mean_map(model, target, method="bisect")
        np.testing.assert_allclose(bisect, closed, rtol=1e-9)

    def test_newton_from_far_initialization(self):
        model = weibull_model([1.0])
        eta = inverse_mean_map(model, [2.0], init=np.array([-40.0]), method="newton")
        np.testing.assert_allclose(eta, [-0.5], rtol=1e-9)

    def test_unattainable_target_raises_no_solution(self):
        model = weibull_model([1.0])
        with pytest.raises(NoSolutionError):
            inverse_mean_map(model, [-1.0])
        with pytest.raises(NoSolutionError):
            inverse_mean_map(model, [-1.0], init=np.array([-1.0]), method="newton")

    def test_iteration_cap_raises_convergence_error_with_state(self):
        fixture = multinomial_fixture(30, [0.5, 0.3, 0.2])
        model = fixture.reduced_model
        target = mean_map(model, fixture.eta_reduced)
        with pytest.raises(ConvergenceError) as excinfo:
            inverse_mean_map(
                model, target, init=np.array([8.0, -8.0]), method="newton", max_iter=1
            )
        assert excinfo.value.last_eta is not None
        assert excinfo.value.residual is not None and excinfo.value.residual > 0

    def test_multistart_newton_reaches_one_solution(self):
        rng = np.random.default_rng(38)
        model = weibull_model([1.0, 2.0])
        target = np.array([1.3, 2.18])
        solutions = []
        for _ in range(10):
            init = -rng.uniform(0.05, 20.0, size=2)
            solutions.append(inverse_mean_map(model, target, init=init, method="newton"))
        solutions = np.array(solutions)
        spread = np.max(solutions, axis=0) - np.min(solutions, axis=0)
        assert np.all(spread <= 1e-8)

    def test_maximum_dominates_random_perturbations(self):
        rng = np.random.default_rng(39)
        model = weibull_model([1.4])
        data = WeightedDataset(rng.uniform(0.2, 2.5, size=(12, 1)), rng.uniform(0.5, 2.0, 12))
        stats = model.sufficient_stat(data.observations)
        target = np.array([float(np.average(stats[:, 0], weights=data.weights))])
        eta_hat = inverse_mean_map(model, target)
        best = log_weighted_likelihood(model, data, eta_hat)
        for _ in range(100):
            probe = eta_hat + rng.uniform(-1.5, 1.5, size=1)
            if model.natural_domain(probe):
                assert log_weighted_likelihood(model, data, probe) <= best + 1e-10


def _interval_model(interval, log_normalizer, mean):
    """A univariate family on the natural interval ``interval``, with the
    closed-form mean map ``mean`` of ``log_normalizer`` and no inverse."""
    lo, hi = interval
    return FamilyModel(
        name=f"interval{interval}",
        dim_x=1,
        dim_eta=1,
        log_base_measure=lambda x: np.zeros(x.shape[0]),
        sufficient_stat=lambda x: np.asarray(x, dtype=float),
        nat_param=lambda theta: np.asarray(theta, dtype=float),
        nat_param_inverse=lambda eta: np.asarray(eta, dtype=float),
        log_normalizer=lambda eta: log_normalizer(float(eta[0])),
        natural_domain=lambda eta: bool(lo < eta[0] < hi),
        mean_map_closed=lambda eta: np.array([mean(float(eta[0]))]),
        natural_interval=interval,
    )


class TestFallbackPaths:
    @pytest.mark.parametrize("model, eta", [
        (gaussian_known_variance_model([1.0, 2.0]), [0.3, -0.7]),
        (weibull_model([1.0, 2.5]), [-0.8, -2.0]),
        (multinomial_fixture(30, [0.5, 0.3, 0.2]).reduced_model, [0.4, -0.2]),
    ])
    def test_covariance_by_finite_differences_matches_the_closed_form(self, model, eta):
        eta = np.array(eta)
        by_differences = _stat_covariance(dataclasses.replace(model, mean_map_jacobian=None), eta)
        np.testing.assert_allclose(by_differences, _stat_covariance(model, eta), rtol=1e-7, atol=1e-12)

    def test_central_difference_halves_its_step_at_the_domain_boundary(self):
        # The first step, eps**(1/3) * (1 + 4e-6), crosses eta = 0; half of it does not.
        model = exponential_model()
        eta = np.array([-4e-6])
        h = expfam._FD_SCALE * (1.0 + 4e-6) * 0.5
        want = (model.log_normalizer(eta + h) - model.log_normalizer(eta - h)) / (2.0 * h)
        assert _central_difference(model, model.log_normalizer, eta, 0) == want

    def test_central_difference_without_a_finite_step_is_a_numeric_error(self):
        with pytest.raises(NumericError) as excinfo:
            _central_difference(exponential_model(), lambda eta: math.nan, np.array([-1.0]), 0)
        assert str(excinfo.value) == (
            "could not find a finite-difference step inside the natural domain at eta=[-1.0]"
        )

    @pytest.mark.parametrize("interval, log_normalizer, mean, target, eta", [
        ((0.0, math.inf), lambda e: -math.log(e), lambda e: -1.0 / e, -0.5, 2.0),
        ((0.0, 1.0), lambda e: -math.log(e) - math.log1p(-e), lambda e: 1.0 / (1.0 - e) - 1.0 / e,
         1.0, (math.sqrt(5.0) - 1.0) / 2.0),
    ])
    def test_bisection_anchors_inside_a_half_open_or_finite_interval(self, interval, log_normalizer,
                                                                   mean, target, eta):
        model = _interval_model(interval, log_normalizer, mean)
        for method in ("bisect", "auto"):  # auto: Newton from a coarse bisection
            info = _solve_mean_target(model, [target], method=method)
            assert info.eta[0] == pytest.approx(eta, rel=1e-10)
            assert info.method == method.replace("auto", "newton")

    @pytest.mark.parametrize("model, kwargs, error, message", [
        (exponential_model(), {"method": "secant"}, ConfigError, "unknown solve method 'secant'"),
        (strip_closed_forms(weibull_model([2.0])), {"method": "closed"}, ConfigError,
         "model weibull(k=[2.0]) declares no closed-form mean-map inverse"),
        (weibull_model([1.0]), {"method": "newton", "init": [0.5]}, DomainError,
         "Newton initialization [0.5] is outside the natural domain"),
    ])
    def test_solver_configuration_errors(self, model, kwargs, error, message):
        with pytest.raises(error) as excinfo:
            inverse_mean_map(model, [2.0], **kwargs)
        assert str(excinfo.value) == message


class TestCheckMinimality:
    def test_weibull_independent_components_minimal(self):
        model = weibull_model([1.0, 2.0, 3.0])
        eta = model.nat_param(np.array([1.0, 1.5, 0.7]))
        verdict = check_minimality(model, eta, n_samples=4096, seed=5)
        assert verdict.minimal
        assert verdict.direction is None
        assert verdict.smallest_eigenvalue > 0

    def test_scalar_nonconstant_statistic_minimal(self):
        model = exponential_model()
        verdict = check_minimality(model, [-1.0], n_samples=512, seed=6)
        assert verdict.minimal

    def test_too_few_samples_rejected(self):
        model = weibull_model([1.0, 2.0])
        for n in (2, -3):  # numpy's sampler would reject -3 with a bare ValueError
            with pytest.raises(DomainError, match=rf"need at least q\+1=3 samples .* got {n}"):
                check_minimality(model, model.nat_param(np.array([1.0, 1.0])), n_samples=n)

    def test_a_negative_seed_is_a_config_error(self):
        # numpy's default_rng rejects it with a bare ValueError.
        model = weibull_model([1.0, 2.0])
        with pytest.raises(ConfigError, match="seed must be non-negative, got -1$"):
            check_minimality(model, model.nat_param(np.array([1.0, 1.0])), n_samples=64, seed=-1)

    def test_explicit_sample_without_sampler(self):
        model = dataclasses.replace(exponential_model(), sampler=None)
        with pytest.raises(ConfigError):
            check_minimality(model, [-1.0], n_samples=128)
        xs = np.linspace(0.1, 3.0, 50).reshape(-1, 1)
        verdict = check_minimality(model, [-1.0], x_sample=xs)
        assert verdict.minimal

    def test_constant_statistic_flagged_degenerate(self):
        model = dataclasses.replace(exponential_model(), sampler=None)
        xs = np.full((32, 1), 1.23)
        verdict = check_minimality(model, [-1.0], x_sample=xs)
        assert not verdict.minimal

    def test_constant_component_of_a_separable_model_flagged_along_its_axis(self):
        model = weibull_model([1.0, 1.0])
        xs = np.column_stack([np.linspace(0.1, 3.0, 40), np.full(40, 1.23)])
        verdict = check_minimality(model, [-1.0, -1.0], x_sample=xs)
        assert not verdict.minimal
        np.testing.assert_array_equal(verdict.direction, [0.0, 1.0])

    def test_separable_components_are_judged_on_their_own_variance(self):
        # Variances 1e-7 and 1e5 lie 12 decades apart; neither is flat.
        model = weibull_model([1.0, 1.0])
        rng = np.random.default_rng(7)
        xs = np.column_stack([rng.uniform(1e-3, 2e-3, 64), rng.uniform(1e3, 2e3, 64)])
        verdict = check_minimality(model, [-1.0, -1.0], x_sample=xs)
        assert verdict.minimal and verdict.direction is None
        assert verdict.smallest_eigenvalue < 1e-8 * verdict.largest_eigenvalue

    def test_a_sample_that_overflows_is_a_numeric_error(self):
        # At shape 1e-3 the sampler raises -log(u) to the power 1000; the
        # overflowed draws gave NaN eigenvalues and a "minimal" verdict.
        model = weibull_model([1e-3])
        with pytest.raises(NumericError, match=r"sampled statistic of weibull\(k=\[0\.001\]\) is not finite"):
            check_minimality(model, [-1.0], n_samples=2048)

    @pytest.mark.filterwarnings("error")
    def test_a_covariance_that_overflows_is_a_numeric_error(self):
        # Finite statistics near 1e200 have a variance near 1e400.
        with pytest.raises(NumericError, match=r"sample covariance of the statistic of weibull\(k=\[1\.0\]\) is not finite"):
            check_minimality(weibull_model([1.0]), [-1.0], x_sample=[[1e200], [2e200], [4e200]])


class TestExactMinimality:
    # Without a sample count or a sample, the verdict is of the exact
    # covariance of T: the model's closed-form Jacobian of the mean map, or
    # central differences of the mean map where it has none.
    def test_full_multinomial_is_degenerate_along_ones(self):
        # The full statistic has no closed-form Jacobian: central differences.
        fixture = multinomial_fixture(10, [0.2, 0.3, 0.5])
        verdict = check_minimality(fixture.full_model, fixture.eta_full)
        assert not verdict.minimal
        alignment = abs(float(verdict.direction @ (np.ones(3) / math.sqrt(3.0))))
        assert math.acos(min(alignment, 1.0)) <= 1e-3
        assert abs(verdict.smallest_eigenvalue) <= 1e-8 * verdict.largest_eigenvalue

    def test_reduced_multinomial_is_minimal(self):
        fixture = multinomial_fixture(10, [0.2, 0.3, 0.5])
        verdict = check_minimality(fixture.reduced_model, fixture.eta_reduced)
        assert verdict.minimal and verdict.direction is None
        # N * (diag(p) - p p^T) for p = (0.2, 0.3) has eigenvalues 1.2 and 2.5.
        assert verdict.smallest_eigenvalue == pytest.approx(1.2, rel=1e-12)
        assert verdict.largest_eigenvalue == pytest.approx(2.5, rel=1e-12)

    def test_weibull_eigenvalues_are_the_exact_variances(self):
        # Cov[T] = diag(1 / eta**2), whose extremes eigh returns to the bit.
        rng = np.random.default_rng(2000)
        for _ in range(2000):
            q = int(rng.integers(1, 5))
            eta = -np.exp(rng.uniform(-60.0, 60.0, q) * math.log(10.0))
            verdict = check_minimality(weibull_model(rng.uniform(0.1, 5.0, q)), eta)
            variances = 1.0 / eta**2
            assert verdict.minimal and verdict.direction is None
            assert (verdict.smallest_eigenvalue, verdict.largest_eigenvalue) == (
                float(variances.min()), float(variances.max())), eta.tolist()

    def test_separable_components_decades_apart_are_minimal(self):
        # Variances 1e-200 and 1e200: neither component is flat.
        verdict = check_minimality(gaussian_known_variance_model([1e-100, 1e100]), [0.0, 0.0])
        assert verdict.minimal
        assert verdict.smallest_eigenvalue < 1e-8 * verdict.largest_eigenvalue

    def test_a_variance_that_underflows_is_flat_along_its_axis(self):
        verdict = check_minimality(weibull_model([1.0, 1.0]), [-1.0, -1e200])
        assert not verdict.minimal
        np.testing.assert_array_equal(verdict.direction, [0.0, 1.0])

    @pytest.mark.filterwarnings("error")
    def test_a_covariance_that_overflows_is_a_numeric_error(self):
        # 1 / eta**2 at eta = -1e-200 overflows: no verdict and no warning.
        with pytest.raises(NumericError, match=r"^the covariance of the statistic of weibull\(k=\[1\.0\]\) is not finite"):
            check_minimality(weibull_model([1.0]), [-1e-200])

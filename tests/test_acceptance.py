"""Acceptance suite: one test per numbered criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one pass/fail line
per criterion plus a measured-detail line.

Criterion 11 is expected to fail on its Holder half and is kept failing on
purpose: the Holder mean approaches the sample extremes only like
``max * (w_max / sum(w)) ** (1/alpha)``, so with uniform weights on n
points the relative gap at ``alpha = 500`` is ``n ** (-1/500)`` (about
5e-3 for n = 13), orders of magnitude above the required 1e-9.  The
Lehmer mean converges like ``(x_2 / x_max) ** alpha`` and does meet the
tolerance.  The implementation is verified against the exact closed form
of its large-order behaviour in ``test_means.py``.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from wmle import (
    WeightedDataset,
    check_minimality,
    fit,
    gaussian_known_variance_model,
    grad_log_weighted_likelihood,
    hessian_log_weighted_likelihood,
    holder_mean,
    inverse_mean_map,
    lehmer_mean,
    log_pdf,
    mean_map,
    multinomial_fixture,
    weibull_model,
    weibull_moment,
    WeightPolicy,
)
from wmle.cli import SweepTable, main

from conftest import random_positive_sample
from test_expfam import fd_gradient, random_case


def report(number: int, detail: str) -> None:
    print(f"[acceptance] criterion {number:02d}: PASS ({detail})")


def test_criterion_01_pythagorean_identities():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        values, weights = random_positive_sample(rng)
        gap_arith = abs(holder_mean(1.0, values, weights) - lehmer_mean(1.0, values, weights))
        gap_harm = abs(holder_mean(-1.0, values, weights) - lehmer_mean(0.0, values, weights))
        worst = max(worst, gap_arith, gap_harm)
        assert gap_arith <= 1e-12
        assert gap_harm <= 1e-12
        if len(values) == 2:
            gap_geo = abs(holder_mean(0.0, values[:2]) - lehmer_mean(0.5, values[:2]))
            worst = max(worst, gap_geo)
            assert gap_geo <= 1e-12
    # the two-point geometric identity holds for equal weights; make sure it
    # is exercised a substantial number of times as well
    for _ in range(500):
        pair = rng.uniform(0.05, 3.0, size=2)
        gap_geo = abs(holder_mean(0.0, pair) - lehmer_mean(0.5, pair))
        worst = max(worst, gap_geo)
        assert gap_geo <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(1, f"max abs gap {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_link_identity():
    rng = np.random.default_rng(102)
    worst = 0.0
    checked = 0
    while checked < 1000:
        values, weights = random_positive_sample(rng)
        alpha = rng.uniform(-3.0, 4.0)
        if alpha == 1.0:
            continue
        checked += 1
        lehmer = lehmer_mean(alpha, values, weights)
        linked = (
            holder_mean(alpha, values, weights) ** alpha
            / holder_mean(alpha - 1.0, values, weights) ** (alpha - 1.0)
        )
        rel = abs(lehmer - linked) / abs(linked)
        worst = max(worst, rel)
        assert rel <= 1e-10
    report(2, f"max rel err {worst:.2e} over 1000 pairs")


def test_criterion_03_ordering_and_bounds():
    rng = np.random.default_rng(103)
    grid = np.linspace(-3.0, 4.0, 100)
    for _ in range(60):
        values, weights = random_positive_sample(rng, min_n=2)
        lo, hi = values.min(), values.max()
        holder_curve = np.array([holder_mean(a, values, weights) for a in grid])
        lehmer_curve = np.array([lehmer_mean(a, values, weights) for a in grid])
        for curve in (holder_curve, lehmer_curve):
            assert np.all(curve >= lo - 1e-12) and np.all(curve <= hi + 1e-12)
            slack = 1e-12 * np.maximum(1.0, np.abs(curve[:-1]))
            assert np.all(np.diff(curve) >= -slack)
        above = grid > 1.0
        below = grid < 1.0
        tol = 1e-11 * np.maximum(1.0, holder_curve)
        assert np.all(lehmer_curve[above] >= holder_curve[above] - tol[above])
        assert np.all(lehmer_curve[below] <= holder_curve[below] + tol[below])
    report(3, "bounds, monotonicity and family ordering on 60 samples x 100 orders")


def test_criterion_04_lehmer_as_mwle():
    rng = np.random.default_rng(104)
    model = weibull_model([1.0])
    worst = 0.0
    for _ in range(500):
        xs = rng.uniform(0.05, 3.0, size=int(rng.integers(3, 41)))
        beta = rng.uniform(-2.0, 3.0)
        estimate = fit(model, xs, WeightPolicy.lehmer([beta]), minimality_samples=0)
        expected = lehmer_mean(beta, xs)
        rel = abs(estimate.theta_hat[0] - expected) / abs(expected)
        worst = max(worst, rel)
        assert rel <= 1e-9
    report(4, f"max rel err {worst:.2e} over 500 fits")


def test_criterion_05_holder_as_mwle():
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(500):
        xs = rng.uniform(0.05, 3.0, size=int(rng.integers(3, 41)))
        shape = rng.uniform(0.01, 5.0)
        estimate = fit(weibull_model([shape]), xs, WeightPolicy.holder(),
                       minimality_samples=0)
        expected = float(np.mean(xs**shape) ** (1.0 / shape))
        rel = abs(estimate.theta_hat[0] - expected) / abs(expected)
        worst = max(worst, rel)
        assert rel <= 1e-9
    report(5, f"max rel err {worst:.2e} over 500 fits")


def test_criterion_06_generic_solver_oracle():
    rng = np.random.default_rng(106)
    worst_rel = 0.0
    worst_grad = 0.0
    for trial in range(500):
        n = int(rng.integers(4, 25))
        if trial % 2 == 0:
            q = int(rng.integers(1, 4))
            model = weibull_model(rng.uniform(0.5, 3.0, size=q))
            obs = rng.uniform(0.2, 2.5, size=(n, q))
        else:
            q = int(rng.integers(1, 4))
            model = gaussian_known_variance_model(rng.uniform(0.5, 2.0, size=q))
            obs = rng.normal(0.0, 2.0, size=(n, q))
        weights = rng.uniform(0.2, 3.0, size=n)
        policy = WeightPolicy.custom(lambda o, w=weights: w)
        closed = fit(model, obs, policy, method="closed", minimality_samples=0)
        numeric_model = dataclasses.replace(model, mean_map_inverse=None)
        newton = fit(numeric_model, obs, policy, method="newton", minimality_samples=0)
        rel = float(np.max(np.abs(newton.theta_hat - closed.theta_hat)
                           / np.abs(closed.theta_hat)))
        worst_rel = max(worst_rel, rel)
        assert rel <= 1e-9
        data = WeightedDataset(obs, weights)
        for result in (closed, newton):
            grad_norm = float(np.linalg.norm(
                grad_log_weighted_likelihood(model, data, result.eta_hat)
            ))
            bound = 1e-8 * (1.0 + data.total_weight)
            worst_grad = max(worst_grad, grad_norm / bound)
            assert grad_norm <= bound
    report(6, f"max rel err {worst_rel:.2e}; worst gradient norm at {worst_grad:.2e} of bound")


def test_criterion_07_calculus_checks():
    rng = np.random.default_rng(107)
    worst_eig = -math.inf
    for _ in range(200):
        model, data, eta = random_case(rng)
        analytic = grad_log_weighted_likelihood(model, data, eta)
        numeric = fd_gradient(model, data, eta)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-8)
        eigenvalues = np.linalg.eigvalsh(hessian_log_weighted_likelihood(model, data, eta))
        worst_eig = max(worst_eig, float(eigenvalues[-1]))
        assert np.all(eigenvalues <= 1e-9)
    report(7, f"gradient matches finite differences; largest Hessian eigenvalue {worst_eig:.2e}")


def test_criterion_08_uniqueness_and_degeneracy():
    rng = np.random.default_rng(108)
    fixture = multinomial_fixture(40, [0.5, 0.3, 0.2])
    cases = []
    weib = weibull_model(rng.uniform(0.5, 3.0, size=3))
    lam = rng.uniform(0.8, 2.5, size=3)
    cases.append((weib, mean_map(weib, weib.nat_param(lam)),
                  lambda: -rng.uniform(0.05, 15.0, size=3)))
    gauss = gaussian_known_variance_model([0.8, 1.6])
    cases.append((gauss, np.array([1.2, -0.7]),
                  lambda: rng.uniform(-4.0, 4.0, size=2)))
    reduced = fixture.reduced_model
    cases.append((reduced, mean_map(reduced, fixture.eta_reduced),
                  lambda: rng.uniform(-1.5, 1.5, size=2)))
    worst_spread = 0.0
    for model, target, draw_init in cases:
        solutions = []
        attempts = 0
        while len(solutions) < 10 and attempts < 100:
            attempts += 1
            init = draw_init()
            if not model.natural_domain(init):
                continue
            solutions.append(inverse_mean_map(model, target, init=init, method="newton"))
        assert len(solutions) == 10
        solutions = np.array(solutions)
        spread = float(np.max(np.max(solutions, axis=0) - np.min(solutions, axis=0)))
        worst_spread = max(worst_spread, spread)
        assert spread <= 1e-8

    verdict = check_minimality(fixture.full_model, fixture.eta_full,
                               n_samples=8192, seed=208)
    assert not verdict.minimal
    ones = np.ones(3) / math.sqrt(3.0)
    angle = math.acos(min(abs(float(verdict.direction @ ones)), 1.0))
    assert angle <= 1e-3
    report(8, f"multistart spread {worst_spread:.2e}; degenerate direction angle {angle:.2e} rad")


def test_criterion_09_case_study_sweeps(tmp_path, returns_csv):
    start = time.perf_counter()
    lehmer_path = tmp_path / "lehmer_sweep.csv"
    holder_path = tmp_path / "holder_sweep.csv"
    assert main(["sweep", "--data", returns_csv, "--mode", "lehmer",
                 "--grid=-2:4:0.25", "--out", str(lehmer_path)]) == 0
    assert main(["sweep", "--data", returns_csv, "--mode", "holder",
                 "--grid=0.25:6:0.25", "--out", str(holder_path)]) == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0

    lehmer = SweepTable.from_csv(lehmer_path.read_text(encoding="utf-8"))
    holder = SweepTable.from_csv(holder_path.read_text(encoding="utf-8"))
    for table in (lehmer, holder):
        assert table.gaps == {}
        dem, rep, oth = table.estimates.T
        assert np.all(dem > rep), "dem estimate must dominate rep at every order"
        assert np.all(rep > oth), "rep estimate must dominate oth at every order"
        slack = 1e-12 * np.maximum(1.0, np.abs(table.estimates[:-1]))
        assert np.all(np.diff(table.estimates, axis=0) >= -slack)
    lehmer_at_one = lehmer.estimates[np.where(lehmer.orders == 1.0)[0][0]]
    holder_at_one = holder.estimates[np.where(holder.orders == 1.0)[0][0]]
    gap = float(np.max(np.abs(lehmer_at_one - holder_at_one)))
    assert gap <= 1e-12
    report(9, f"both sweeps ordered and monotone; order-1 gap {gap:.2e}; {elapsed:.2f}s")


def test_criterion_10_weibull_moment_formula():
    rng = np.random.default_rng(110)
    worst_sigma = 0.0
    for _ in range(20):
        lam = rng.uniform(0.3, 4.0)
        shape = rng.uniform(0.5, 4.0)
        t = rng.uniform(0.0, 3.0)
        model = weibull_model([shape])
        eta = model.nat_param(np.array([lam]))
        draws = model.sampler(eta, 1_000_000, rng)[:, 0]
        powered = draws**t
        mc_mean = float(powered.mean())
        se = float(powered.std(ddof=1)) / math.sqrt(powered.size)
        expected = weibull_moment(lam, shape, t)
        sigmas = abs(mc_mean - expected) / se if se > 0 else 0.0
        worst_sigma = max(worst_sigma, sigmas)
        assert abs(mc_mean - expected) <= 3.0 * se

    from scipy.integrate import quad

    worst_quad = 0.0
    for shape in (0.5, 1.0, 2.0, 3.7):
        for lam in (0.3, 1.0, 5.0):
            model = weibull_model([shape])
            eta = model.nat_param(np.array([lam]))
            total, _ = quad(lambda x: math.exp(log_pdf(model, [x], eta)),
                            0.0, np.inf, limit=400)
            worst_quad = max(worst_quad, abs(total - 1.0))
            assert abs(total - 1.0) <= 1e-6
    report(10, f"worst MC deviation {worst_sigma:.2f} sigma; worst quadrature gap {worst_quad:.1e}")


_STABILITY_VALUES = np.logspace(-3.0, 3.0, 13)


def test_criterion_11_stability_lehmer():
    values = _STABILITY_VALUES
    hi = lehmer_mean(500.0, values)
    lo = lehmer_mean(-500.0, values)
    assert math.isfinite(hi) and math.isfinite(lo)
    rel_hi = abs(hi - values.max()) / values.max()
    rel_lo = abs(lo - values.min()) / values.min()
    assert rel_hi <= 1e-9
    assert rel_lo <= 1e-9
    report(11, f"lehmer half: rel gaps {rel_hi:.2e}/{rel_lo:.2e}")


def test_criterion_11_stability_holder():
    """Faithful as stated, and expected to FAIL; see the module docstring.

    The computation itself is finite and exact in the log domain; the
    quantity ``holder_mean(500)`` is simply not within 1e-9 of the maximum
    for any sample with more than one uniformly weighted point.
    """
    values = _STABILITY_VALUES
    hi = holder_mean(500.0, values)
    lo = holder_mean(-500.0, values)
    assert math.isfinite(hi) and math.isfinite(lo)
    rel_hi = abs(hi - values.max()) / values.max()
    rel_lo = abs(lo - values.min()) / values.min()
    if rel_hi <= 1e-9 and rel_lo <= 1e-9:
        report(11, f"holder half: rel gaps {rel_hi:.2e}/{rel_lo:.2e}")
    else:
        print(f"[acceptance] criterion 11: FAIL on the holder half "
              f"(rel gaps {rel_hi:.2e}/{rel_lo:.2e} vs required 1e-9; "
              f"finite-order Holder means sit n**(-1/alpha) inside the extremes)")
    assert rel_hi <= 1e-9, (
        f"holder_mean(500) is {rel_hi:.2e} away from the maximum; the required "
        f"1e-9 is unattainable for uniformly weighted multi-point samples"
    )
    assert rel_lo <= 1e-9

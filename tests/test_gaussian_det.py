"""Deterministic capital for jointly normal positions."""
from __future__ import annotations

import math
import time
import warnings

import numpy as np
import pytest
import scipy.special
from scipy.integrate import quad
from scipy.optimize import brentq

from sysrisk import gaussian_det
from sysrisk.core import GaussianSystem
from sysrisk.gaussian_det import (
    INV_SQRT_2PI,
    RESIDUAL_TOL,
    mills_sum,
    norm_pdf,
    optimal_deterministic,
    sensitivities,
    shortfall_expectation,
    solve_r,
)

# frozen reference outputs (9 digits, regression-checked at 1e-6)
TABLE_DET = {
    # (sigma1, sigma2, gamma) -> (m1, m2, rho)
    (1.0, 3.0, 0.7): (0.577245079, 1.731735238, 2.308980317),
    (1.0, 1.0, 0.7): (0.102034353, 0.102034353, 0.204068706),
    (1.0, 5.0, 0.7): (0.816906733, 4.084533663, 4.901440396),
    (1.0, 10.0, 0.7): (1.137866258, 11.378662582, 12.516528841),
}


def test_mills_sum_is_the_expected_undershoot():
    # E[(R - Z)^+] by quadrature
    for r in (-3.0, -1.0, -0.2):
        val, _ = quad(lambda z: (r - z) * norm_pdf(z), -9.0, r)
        assert mills_sum(r) == pytest.approx(val, abs=1e-10)


class TestSolveR:
    def test_residual_below_tolerance(self):
        for target in (1e-6, 0.01, 0.1, 0.3, INV_SQRT_2PI - 1e-9):
            r = solve_r(target)
            assert abs(mills_sum(r) - target) <= 1e-12
            assert r < 0.0

    def test_monotone_in_target(self):
        rs = [solve_r(t) for t in (0.05, 0.10, 0.20, 0.35)]
        assert rs == sorted(rs)

    def test_large_target_root_against_quadrature(self):
        # E[(R - Z)^+] has no upper bound, so targets >= 1/sqrt(2 pi) have a
        # root R >= 0; check it against the undershoot integrated directly
        assert solve_r(INV_SQRT_2PI) == pytest.approx(0.0, abs=1e-12)
        r = solve_r(1.0)
        assert r == pytest.approx(0.8994715612537435, abs=1e-14)
        val, _ = quad(lambda z: (r - z) * norm_pdf(z), -40.0, r)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_domain_error(self):
        for target in (-0.1, 0.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                solve_r(target)

    def test_matches_brentq(self, monkeypatch):
        # Newton on log f against Brent on f, from 1e-280 to 1e6, in at most
        # 13 steps; below 1e-280 f's direct form, which Brent reads, cancels
        steps = []
        real = gaussian_det._log_mills_sum
        monkeypatch.setattr(gaussian_det, "_log_mills_sum", lambda r: steps.append(r) or real(r))
        for target in np.logspace(-280, 6, 300):
            hi = 0.0 if target < INV_SQRT_2PI else target + 1.0
            ref = brentq(lambda t: mills_sum(t) - target, -40.0, hi, xtol=1e-15, rtol=8.9e-16)
            steps.clear()
            assert solve_r(target) == pytest.approx(ref, rel=4e-13, abs=1e-15)
            assert len(steps) <= 13

    def test_huge_targets_raise_no_overflow(self):
        # f(R) = R once phi(R) underflows, so R = target; squaring R for phi
        # overflows from about 1.3e154 on
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for target in [*np.geomspace(1e155, 1.7e308, 60), 1.7976931348623157e308]:
                assert abs(solve_r(float(target)) - target) <= 1e-12 * target
                assert mills_sum(float(target)) == target

    def test_mills_sum_keeps_its_bits_below_the_cutoff(self):
        # the phi term is skipped only where it is exactly 0.0
        for r in (-3.0, 0.0, 1.0, 38.0, 39.999999):
            assert mills_sum(r) == r * float(scipy.special.ndtr(r)) + norm_pdf(r)
        assert norm_pdf(gaussian_det._PDF_UNDERFLOW) == 0.0

    def test_tiny_targets_in_log_terms(self):
        # for R <= -36, f(R) = phi(R) sum_n (-1)^(n+1) (2n-1)!! / R^(2n), the
        # asymptotic series of 1 - |R| Phi(R) / phi(R), to 1e-17 after 8 terms
        for target in (1e-300, 1e-320, 5e-324):
            r = solve_r(target)
            assert r < -36.0
            series = sum((-1) ** (n + 1) * math.prod(range(1, 2 * n, 2)) / r ** (2 * n)
                         for n in range(1, 9))
            log_f = -0.5 * r * r - 0.5 * math.log(2.0 * math.pi) + math.log(series)
            assert log_f == pytest.approx(math.log(target), rel=1e-14)


def test_shortfall_expectation_matches_quadrature():
    for m, mu, sigma, d in [(0.5, 0.0, 1.0, 0.0), (-1.0, 2.0, 3.0, 1.0), (4.0, -1.0, 0.5, 0.0)]:
        val, _ = quad(
            lambda x: max(d - x - m, 0.0) * norm_pdf((x - mu) / sigma) / sigma,
            mu - 12 * sigma,
            mu + 12 * sigma,
            limit=200,
        )
        assert shortfall_expectation(m, mu, sigma, d) == pytest.approx(val, abs=1e-10)


def test_shortfall_expectation_decreasing_and_convex_in_m():
    grid = np.linspace(-3.0, 3.0, 61)
    vals = [shortfall_expectation(m, 0.0, 2.0) for m in grid]
    diffs = np.diff(vals)
    assert np.all(diffs < 0.0)
    assert np.all(np.diff(diffs) >= -1e-12)


@pytest.mark.parametrize("key,expected", sorted(TABLE_DET.items()))
def test_regression_frozen_rows(key, expected):
    sigma1, sigma2, gamma = key
    sys_ = GaussianSystem(
        np.zeros(2), np.diag([sigma1**2, sigma2**2]).astype(float)
    )
    sol = optimal_deterministic(sys_, gamma)
    assert sol.m[0] == pytest.approx(expected[0], abs=1e-6)
    assert sol.m[1] == pytest.approx(expected[1], abs=1e-6)
    assert sol.rho == pytest.approx(expected[2], abs=1e-6)
    assert sol.residual <= 1e-9


def test_allocation_scales_with_sigma():
    sys_ = GaussianSystem(np.zeros(3), np.diag([1.0, 4.0, 9.0]).astype(float))
    sol = optimal_deterministic(sys_, 0.5)
    # m_i = -sigma_i R, so ratios follow the volatilities exactly
    assert sol.m[1] / sol.m[0] == pytest.approx(2.0, rel=1e-12)
    assert sol.m[2] / sol.m[0] == pytest.approx(3.0, rel=1e-12)


def test_correlation_does_not_matter():
    cov_indep = np.array([[1.0, 0.0], [0.0, 9.0]])
    cov_tied = np.array([[1.0, -2.7], [-2.7, 9.0]])
    a = optimal_deterministic(GaussianSystem(np.zeros(2), cov_indep), 0.7)
    b = optimal_deterministic(GaussianSystem(np.zeros(2), cov_tied), 0.7)
    assert np.array_equal(a.m, b.m)


def test_mean_shifts_capital_one_for_one():
    cov = np.array([[1.0, 0.0], [0.0, 9.0]])
    base = optimal_deterministic(GaussianSystem(np.zeros(2), cov), 0.7)
    shifted = optimal_deterministic(GaussianSystem(np.array([1.0, -2.0]), cov), 0.7)
    assert shifted.m[0] == pytest.approx(base.m[0] - 1.0, abs=1e-12)
    assert shifted.m[1] == pytest.approx(base.m[1] + 2.0, abs=1e-12)
    assert shifted.rho == pytest.approx(base.rho + 1.0, abs=1e-12)


def test_large_gamma_takes_cash_out():
    """sigma = 1, mu = 0, gamma = 1 > 1/sqrt(2 pi): the optimum extracts cash,
    and its shortfall E[(X + m)^-], integrated directly, meets gamma."""
    sol = optimal_deterministic(GaussianSystem(np.zeros(1), np.eye(1)), gamma=1.0)
    assert sol.r_star == pytest.approx(0.8994715612537435, abs=1e-14)
    m = float(sol.m[0])
    assert m == pytest.approx(-sol.r_star, abs=1e-15)
    val, _ = quad(lambda x: max(-(x + m), 0.0) * norm_pdf(x), -40.0, -m)
    assert val == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("gamma", [1e7, 1e9, 1e12])
def test_very_large_gamma_is_solved(gamma):
    """Far above the cash-out point the budget is met to relative roundoff:
    R -> gamma / sum(sigma) and the shortfall is nearly linear in m."""
    sys_ = GaussianSystem(np.array([0.5, -0.2]), np.array([[1.0, 0.3], [0.3, 2.25]]))
    sol = optimal_deterministic(sys_, gamma)
    assert sol.r_star == pytest.approx(gamma / 2.5, rel=1e-12)
    assert sol.residual <= RESIDUAL_TOL * gamma


def test_solve_is_fast():
    sys_ = GaussianSystem(np.zeros(2), np.array([[1.0, 0.0], [0.0, 9.0]]))
    optimal_deterministic(sys_, 0.7)  # warm scipy up
    start = time.perf_counter()
    optimal_deterministic(sys_, 0.7)
    assert time.perf_counter() - start < 0.010


class TestSensitivities:
    sys_ = GaussianSystem(np.zeros(2), np.array([[1.0, 0.0], [0.0, 9.0]]))

    def test_mu_derivative_is_minus_one(self):
        sens = sensitivities(self.sys_, 0.7)
        assert np.allclose(sens.dm_dmu, -1.0)

    def test_sigma_derivatives_match_finite_differences(self):
        sens = sensitivities(self.sys_, 0.7)
        h = 1e-6
        for k in range(2):
            sigma = np.array([1.0, 3.0])
            up, dn = sigma.copy(), sigma.copy()
            up[k] += h
            dn[k] -= h
            m_up = optimal_deterministic(
                GaussianSystem(np.zeros(2), np.diag(up**2)), 0.7
            ).m
            m_dn = optimal_deterministic(
                GaussianSystem(np.zeros(2), np.diag(dn**2)), 0.7
            ).m
            fd = (m_up - m_dn) / (2 * h)
            assert np.allclose(sens.dm_dsigma[:, k], fd, atol=1e-5)

    def test_own_volatility_always_costs_capital(self):
        sens = sensitivities(self.sys_, 0.7)
        assert np.all(np.diag(sens.dm_dsigma) > 0.0)

"""Deterministic capital for jointly normal positions.

For N institutions with X_i ~ N(mu_i, sigma_i^2) and critical levels d_i, the
cheapest deterministic allocation m in R^N keeping the expected shortfall
budget sum_i E[(X_i + m_i - d_i)^-] at gamma satisfies

    m_i = d_i - mu_i - sigma_i * R,

where R is the unique root of  R*Phi(R) + phi(R) = gamma / sum_i sigma_i.
Only the marginals matter; correlations drop out of the expectation.  Every
gamma > 0 is feasible: the left side is E[(R - Z)^+], which rises from 0
(R -> -inf) without bound.  For gamma / sum sigma >= 1/sqrt(2*pi), its value
at R = 0, the root has R >= 0 and the optimum takes cash out.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy

from .core import ConvergenceError, GaussianSystem

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
RESIDUAL_TOL = 1e-9   # |sum_i psi_i(m_i) - gamma| / max(1, gamma) at the solution


def norm_pdf(x):
    x = np.asarray(x, dtype=float)
    out = INV_SQRT_2PI * np.exp(-0.5 * x * x)
    return float(out) if out.ndim == 0 else out


def mills_sum(r: float) -> float:
    """R*Phi(R) + phi(R): expected undershoot E[(R - Z)^+] of a standard normal."""
    return r * float(scipy.special.ndtr(r)) + norm_pdf(r)


def solve_r(target: float) -> float:
    """Root R of R*Phi(R) + phi(R) = target for any target > 0.

    The left side, E[(R - Z)^+], increases from 0 (R -> -inf) through
    1/sqrt(2 pi) at R = 0 and exceeds max(R, 0), so Brent's bracket is
    [-40, 0] for target < 1/sqrt(2 pi) and [-40, target + 1] above it (at
    R = target the excess phi(R) - R Phi(-R) can round to 0).  target <= 0
    is a domain error.
    """
    if target <= 0.0:
        raise ValueError("target must be positive")
    hi = 0.0 if target < INV_SQRT_2PI else target + 1.0
    r = scipy.optimize.brentq(lambda t: mills_sum(t) - target, -40.0, hi, xtol=1e-15, rtol=8.9e-16)
    if abs(mills_sum(r) - target) > 1e-12 * max(1.0, target):
        raise ConvergenceError("root residual above 1e-12 relative")
    return float(r)


def shortfall_expectation(m: float, mu: float, sigma: float, d: float = 0.0) -> float:
    """psi(m) = E[(X + m - d)^-] for X ~ N(mu, sigma^2).

    Closed form: with z = (d - mu - m)/sigma,
        psi = sigma*phi(z) - (m + mu - d)*Phi(z).
    Decreasing and convex in m, -> 0 as m -> +inf.
    """
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    z = (d - mu - m) / sigma
    return sigma * norm_pdf(z) - (m + mu - d) * float(scipy.special.ndtr(z))


@dataclass(eq=False)
class DeterministicSolution:
    m: np.ndarray          # optimal deterministic allocation
    rho: float             # sum of m
    r_star: float          # common standardized level R
    gamma: float
    d: np.ndarray
    residual: float        # |sum psi_i(m_i) - gamma|


def optimal_deterministic(
    system: GaussianSystem, gamma: float, d=None
) -> DeterministicSolution:
    """Cheapest deterministic allocation meeting the expected-shortfall budget."""
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    sigma = system.sigma
    d = np.zeros(system.n) if d is None else np.asarray(d, dtype=float)
    if d.shape != (system.n,):
        raise ValueError("d must have one entry per institution")
    r = solve_r(gamma / float(sigma.sum()))
    m = d - system.mu - sigma * r
    residual = abs(
        sum(
            shortfall_expectation(m[i], system.mu[i], sigma[i], d[i])
            for i in range(system.n)
        )
        - gamma
    )
    if residual > RESIDUAL_TOL * max(1.0, gamma):
        raise ConvergenceError(f"budget residual {residual:.3g} above tolerance")
    return DeterministicSolution(
        m=m, rho=float(m.sum()), r_star=r, gamma=gamma, d=d, residual=residual
    )


@dataclass(eq=False)
class DeterministicSensitivities:
    dm_dmu: np.ndarray       # diagonal: dm_i / dmu_i (cross terms are 0)
    dm_dsigma: np.ndarray    # full matrix: dm_i / dsigma_k
    dr_dsigma: np.ndarray


def sensitivities(system: GaussianSystem, gamma: float, d=None) -> DeterministicSensitivities:
    """Exact first-order response of the deterministic optimum.

    dm_i/dmu_i = -1 (means shift capital one for one, R does not move).
    dR/dsigma_k = -(R + phi(R)/Phi(R)) / S with S = sum sigma, and hence

        dm_i/dsigma_k = (sigma_i/S) (R + phi(R)/Phi(R)) - delta_ik R.

    While R < 0 (gamma / S < 1/sqrt(2 pi)) the diagonal dm_i/dsigma_i is
    strictly positive: more volatile institutions require more capital.
    """
    sol = optimal_deterministic(system, gamma, d)
    sigma = system.sigma
    s = float(sigma.sum())
    r = sol.r_star
    hazard = r + norm_pdf(r) / float(scipy.special.ndtr(r))
    dr_dsigma = np.full(system.n, -hazard / s)
    dm_dsigma = np.outer(sigma / s, np.full(system.n, hazard)) - r * np.eye(system.n)
    return DeterministicSensitivities(
        dm_dmu=-np.ones(system.n),
        dm_dsigma=dm_dsigma,
        dr_dsigma=dr_dsigma,
    )

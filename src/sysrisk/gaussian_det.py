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
_ROOT_MAX_STEPS = 60  # solve_r takes at most 11
_PDF_UNDERFLOW = 40.0  # phi(R) is exactly 0.0 in floating point from here on


def norm_pdf(x):
    x = np.asarray(x, dtype=float)
    out = INV_SQRT_2PI * np.exp(-0.5 * x * x)
    return float(out) if out.ndim == 0 else out


def mills_sum(r: float) -> float:
    """R*Phi(R) + phi(R): expected undershoot E[(R - Z)^+] of a standard normal.

    From R = 40 on, phi(R) < 1e-347 underflows to 0, so the term is skipped
    there; squaring R for it would overflow above about 1.3e154.
    """
    if r >= _PDF_UNDERFLOW:
        return r * float(scipy.special.ndtr(r))
    return r * float(scipy.special.ndtr(r)) + norm_pdf(r)


def _log_mills_sum(r: float) -> tuple[float, float]:
    """log f(R) and its slope Phi(R)/f(R), f = ``mills_sum``.

    Below 0, f = e^(-R^2/2) (phi(0) + R erfcx(-R/sqrt 2)/2), so log f stays
    finite and accurate where f itself underflows (R below about -38).
    """
    if r >= 0.0:
        f = mills_sum(r)
        return math.log(f), float(scipy.special.ndtr(r)) / f
    half_erfcx = 0.5 * float(scipy.special.erfcx(-r / math.sqrt(2.0)))
    scaled = INV_SQRT_2PI + r * half_erfcx
    return math.log(scaled) - 0.5 * r * r, half_erfcx / scaled


def solve_r(target: float) -> float:
    """Root R of R*Phi(R) + phi(R) = target for any finite target > 0.

    The left side f(R) = E[(R - Z)^+] is the integral of the log-concave
    Phi, so it is log-concave and increasing, and exceeds max(R, 0).  Newton's
    method on log f(R) = log target from R0 = max(target, 0) + 1, right of the
    root, takes one step to the left of the root and then climbs to it
    monotonically, quadratically once close: at most 11 steps for targets
    from 5e-324 to 1e10.  It stops after a step below 1e-9 (1 + |R|), whose
    successor would be below roundoff.  target <= 0 is a domain error.
    """
    if not 0.0 < target < math.inf:
        raise ValueError("target must be positive and finite")
    log_target = math.log(target)
    r = max(float(target), 0.0) + 1.0
    for _ in range(_ROOT_MAX_STEPS):
        log_f, slope = _log_mills_sum(r)
        step = (log_target - log_f) / slope
        r += step
        if abs(step) <= 1e-9 * (1.0 + abs(r)):
            return r
    raise ConvergenceError(f"solve_r: no root in {_ROOT_MAX_STEPS} Newton steps")


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

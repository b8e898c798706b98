"""Independent derivation of the two-bank two-state optimum.

The test-side counterpart of ``sysrisk.gaussian_scen.solve_two_state``; it
shares no code with that module.  With distress capital D_i = m_i + alpha_i
(paid when S <= trigger) and calm capital C_i = m_i (paid when S > trigger),
the optimum of  min sum_i m_i  s.t.  Psi(m, alpha) = gamma,  sum alpha = 0,
with zero critical levels, satisfies

    P(X_1 < -D_1, S <= trigger) = P(X_2 < -D_2, S <= trigger),
    P(X_1 < -C_1, S >  trigger) = P(X_2 < -C_2, S >  trigger),
    D_1 + D_2 = C_1 + C_2 = rho,      Psi = gamma.

For a fixed rho each of the first two conditions is one monotone equation in
D_1 (resp. C_1), solved by ``brentq`` on the log of the probabilities; the
probabilities are single ``quad`` integrals over the conditional law of S
given X_i, written in log terms so that calm-state probabilities of 1e-14
and below keep their relative accuracy.  The budget is ``psi_reference``
(conditional quadrature on S), and rho is its root by Newton's method.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import log_ndtr

from sysrisk.core import GaussianSystem
from sysrisk.gaussian_det import optimal_deterministic, shortfall_expectation


def psi_reference(system, m, alpha, trigger):
    """Independent evaluation: condition each marginal on the trigger sum.

    For each institution the pair (X_i, S) with S = sum(X) is bivariate
    normal, so the inner expectation given S = s is a one-dimensional
    closed-form shortfall; the outer integral over s is done with
    panelled Gauss-Legendre split at the trigger.  Shares no code with
    the library's bivariate-cdf route.
    """
    cov, mu = system.cov, system.mu
    var_s = cov.sum()
    mu_s = mu.sum()
    nodes, weights = np.polynomial.legendre.leggauss(80)
    total = 0.0
    for i in range(system.n):
        beta = cov[i].sum() / var_s
        resid_var = cov[i, i] - beta * cov[i].sum()
        csd = max(math.sqrt(max(resid_var, 0.0)), 1e-14)

        def panel(lo, hi, shift):
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            s = mid + half * nodes
            dens = np.exp(-0.5 * (s - mu_s) ** 2 / var_s) / math.sqrt(
                2.0 * math.pi * var_s
            )
            cond = [
                shortfall_expectation(m[i] + shift, mu[i] + beta * (sv - mu_s), csd)
                for sv in s
            ]
            return half * float(weights @ (dens * np.asarray(cond)))

        lo, hi = mu_s - 10 * math.sqrt(var_s), mu_s + 10 * math.sqrt(var_s)
        for a, b, shift in [(lo, trigger, alpha[i]), (trigger, hi, 0.0)]:
            edges = np.linspace(a, b, 25)
            total += sum(panel(x, y, shift) for x, y in zip(edges, edges[1:]))
    return total


def log_state_probability(system, i, x, trigger, calm):
    """log P(X_i < x, S > trigger) if calm else log P(X_i < x, S <= trigger).

    With z = (X_i - mu_i)/sigma_i the probability is
    int_{-inf}^{h} phi(z) Phi(a + b z) dz, h = (x - mu_i)/sigma_i, where
    Phi(a + b z) is P(S > trigger | z) or P(S <= trigger | z).  The integrand
    is divided by its value at z = h before integrating over w = h - z, so
    the quadrature sees an O(1) function whatever the size of the result.
    w is measured in units of 1/sqrt(1 + b^2), the narrowest width the
    integrand's log-concave peak can have, so that the quadrature still sees
    its features when |corr(X_i, S)| is near 1 and b is in the hundreds.
    """
    cov, mu = system.cov, system.mu
    sd_i = math.sqrt(cov[i, i])
    cov_is = float(cov[i].sum())
    var_s, mu_s = float(cov.sum()), float(mu.sum())
    cond_sd = math.sqrt(max(var_s - cov_is**2 / cov[i, i], 1e-300))
    sign = 1.0 if calm else -1.0
    a = sign * (mu_s - trigger) / cond_sd
    b = sign * cov_is / (sd_i * cond_sd)
    h = (x - mu[i]) / sd_i

    def log_integrand(z):
        return -0.5 * z * z + float(log_ndtr(a + b * z))

    top = log_integrand(h)
    scale = math.sqrt(1.0 + b * b)
    val, _ = quad(
        lambda u: math.exp(log_integrand(h - u / scale) - top),
        0.0, math.inf, epsabs=0.0, epsrel=1e-13, limit=200,
    )
    return top - 0.5 * math.log(2.0 * math.pi) + math.log(val / scale)


def _bracket_root(f, centre, width=1.0):
    """Root of an increasing function by bracket expansion, then brentq."""
    lo, hi = centre - width, centre + width
    while f(lo) > 0.0:
        lo -= 2.0 * (hi - lo)
    while f(hi) < 0.0:
        hi += 2.0 * (hi - lo)
    return brentq(f, lo, hi, xtol=1e-13, rtol=4.0 * np.finfo(float).eps)


@dataclass(frozen=True)
class ReferenceOptimum:
    distress: tuple[float, float]    # D_i = m_i + alpha_i
    calm: tuple[float, float]        # C_i = m_i
    rho: float

    @property
    def transfer(self) -> float:
        return abs(self.distress[0] - self.calm[0])


def _split(system, rho, trigger, calm, guess):
    """First institution's share of rho that equalises the state probabilities.

    Returns the share and the common log probability.
    """

    def logs(share):
        return (
            log_state_probability(system, 0, -share, trigger, calm),
            log_state_probability(system, 1, share - rho, trigger, calm),
        )

    def gap(share):
        p1, p2 = logs(share)
        return p2 - p1          # increasing in the first share

    share = _bracket_root(gap, guess)
    return share, logs(share)[0]


def reference_optimum(system, gamma, trigger) -> ReferenceOptimum:
    """Two-bank optimum from the conditions in the module docstring.

    Along the curve on which both probability conditions hold, the budget
    falls with rho at the rate t + c, the sum of the common distress and calm
    probabilities; the budget is convex in rho, so Newton's method on
    Psi(rho) = gamma converges from any start.  It starts from the
    deterministic cost, an upper bound (alpha = 0 is a two-state allocation).
    """
    if system.n != 2:
        raise ValueError("the reference derivation covers two institutions")
    rho = float(optimal_deterministic(system, gamma).rho)
    dist1 = calm1 = 0.5 * rho
    for _ in range(50):
        dist1, log_t = _split(system, rho, trigger, False, dist1)
        calm1, log_c = _split(system, rho, trigger, True, calm1)
        m = np.array([calm1, rho - calm1])
        alpha = np.array([dist1, rho - dist1]) - m
        step = (psi_reference(system, m, alpha, trigger) - gamma) / (
            math.exp(log_t) + math.exp(log_c)
        )
        rho += step
        if abs(step) <= 1e-9 * max(1.0, abs(rho)):   # quadratic: error now ~1e-18
            break
    else:
        raise RuntimeError("reference Newton iteration did not settle")
    dist1, _ = _split(system, rho, trigger, False, dist1)
    calm1, _ = _split(system, rho, trigger, True, calm1)
    return ReferenceOptimum((dist1, rho - dist1), (calm1, rho - calm1), rho)


@functools.lru_cache(maxsize=None)
def two_bank_optimum(cov12, sigma2, gamma=0.7, trigger=2.0) -> ReferenceOptimum:
    """Cached optimum of the zero-mean system with sd (1, sigma2)."""
    system = GaussianSystem(
        np.zeros(2), np.array([[1.0, cov12], [cov12, sigma2**2]])
    )
    return reference_optimum(system, gamma, trigger)

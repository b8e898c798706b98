"""Benchmark-side reference computations, independent of sysrisk's own formulas.

Every check returns a list of failure reasons; an empty list means the
answer passed.  The checks run outside the timed span of an operation.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import sparse
from scipy.linalg import expm
from scipy.optimize import linprog

GAMMA_TOL = 1e-8          # budget identity of the two-state solution
RHO_ORDER_TOL = 1e-9      # scenario rho <= deterministic rho
COV_REL_TOL = 1e-8        # network covariance vs Van Loan reference
CLEARING_REL_TOL = 1e-8   # clearing totals vs least-clearing LP
MC_SIGMAS = 4.0           # Monte Carlo tolerance in standard errors
GROUPED_REL_TOL = 1e-6    # criterion-6 equality, relative part
GROUPED_ABS_TOL = 1e-8    # criterion-6 equality, absolute part
EXACT_ABS_TOL = 1e-12     # criterion-6 exact worst-case equalities


def fail_if(cond: bool, message: str) -> list[str]:
    return [message] if cond else []


def normal_shortfall(m, mu, sigma, d) -> float:
    """sum_i E[(X_i + m_i - d_i)^-] for X_i ~ N(mu_i, sigma_i^2), via math.erfc."""
    total = 0.0
    for mi, mui, si, di in zip(m, mu, sigma, d):
        z = (di - mui - mi) / si
        pdf = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        cdf = 0.5 * math.erfc(-z / math.sqrt(2.0))
        total += si * pdf - (mi + mui - di) * cdf
    return total


def normal_shortfall_slope(m, mu, sigma, d) -> float:
    """Smallest |d/dm_i| of normal_shortfall, Phi((d_i - mu_i - m_i) / sigma_i)."""
    return min(0.5 * math.erfc((mi + mui - di) / (si * math.sqrt(2.0)))
               for mi, mui, si, di in zip(m, mu, sigma, d))


def lyapunov_reference(rates: np.ndarray, noise: np.ndarray, x0: np.ndarray, t: float):
    """Mean and covariance of dX = -L X dt + dW, Cov(dW) = noise dt, by Van Loan.

    Over a short step h, expm([[L, noise], [0, -L']] h) has top-right block
    G and bottom-right block e^{-L' h}; the step's covariance is e^{-L h} G.
    h is t / 2^k with |L| h <= 1, so the growing block stays small, and
    k doublings Q(2h) = Q(h) + e^{-L h} Q(h) e^{-L' h} reach t exactly.
    """
    lap = np.diag(rates.sum(axis=1)) - rates
    n = lap.shape[0]
    norm = float(np.abs(lap).sum(axis=1).max()) * t
    k = max(0, math.ceil(math.log2(norm))) if norm > 1.0 else 0
    h = t / 2**k
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n] = lap
    block[:n, n:] = noise
    block[n:, n:] = -lap.T
    f = expm(block * h)
    decay = f[n:, n:].T                       # e^{-L h}
    cov = decay @ f[:n, n:]
    for _ in range(k):
        cov = cov + decay @ cov @ decay.T
        decay = decay @ decay
    return decay @ x0, 0.5 * (cov + cov.T)


def least_clearing_totals(pi: np.ndarray, losses: np.ndarray) -> np.ndarray:
    """Total cleared loss per scenario: min 1'y s.t. y >= x + pi y, y >= 0.

    One block-diagonal HiGHS LP for all scenarios gives each scenario's
    defaulting set D to LP accuracy.  The set is then made exact: solve
    (I - pi_DD) y_D = x_D, drop banks with y < 0, add banks with
    x + pi y > 0, and repeat until D stops changing.  losses is N x M
    (positive = owes money).
    """
    n, m = losses.shape
    a_ub = -sparse.kron(sparse.eye(m), sparse.csr_matrix(np.eye(n) - pi), format="csr")
    res = linprog(
        np.ones(n * m), A_ub=a_ub, b_ub=-losses.T.ravel(), bounds=(0, None), method="highs"
    )
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    y_lp = res.x.reshape(m, n)
    eye = np.eye(n)
    totals = np.empty(m)
    for j in range(m):
        x = losses[:, j]
        active = y_lp[j] > 1e-7
        for _ in range(2 * n + 1):
            y = np.zeros(n)
            if active.any():
                y[active] = np.linalg.solve(
                    eye[np.ix_(active, active)] - pi[np.ix_(active, active)], x[active]
                )
            nxt = (active & (y >= 0.0)) | (~active & (x + pi @ y > 0.0))
            if np.array_equal(nxt, active):
                break
            active = nxt
        else:
            y = y_lp[j]                       # no exact set found: keep the LP point
        totals[j] = y.sum()
    return totals


def expected_shortfall_ru(z, probabilities, level: float) -> float:
    """ES of outcome z (positive = good) by Rockafellar-Uryasev.

    ES = min_c { c + E[(-z - c)^+] / level }; the objective is piecewise
    linear and convex in c with kinks at the losses -z_j, so the minimum is
    attained at one of them.
    """
    losses = -np.asarray(z, dtype=float)
    excess = np.maximum(losses[None, :] - losses[:, None], 0.0) @ probabilities
    return float((losses + excess / level).min())


def expo_budget(positions, probabilities, alphas, y) -> float:
    """E[sum_i exp(-alpha_i (X + Y)_i)] computed directly."""
    z = positions + y
    return float(probabilities @ np.exp(-alphas[:, None] * z).sum(axis=0))


def constant_totals(y: np.ndarray, blocks, scale: float) -> bool:
    """Every block's allocation total is the same in every scenario."""
    for block in blocks:
        tot = y[list(block)].sum(axis=0)
        if tot.max() - tot.min() > 1e-9 * max(1.0, scale):
            return False
    return True


def close(a: float, b: float, rel: float, abs_: float = 0.0) -> bool:
    return abs(a - b) <= max(abs_, rel * max(abs(a), abs(b)))

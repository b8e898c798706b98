"""Moment engine for mean-reverting interbank lending networks.

Institutions hold diffusive positions that drift toward each other through
bilateral lending,

    dX_i = sum_j p_ij (X_j - X_i) dt + sigma_i ( rho_i dW0 + sqrt(1-rho_i^2) dWi ),

with a common factor W0 shared by everybody.  Lending only redistributes:
the total sum_i X_i has no drift.  This module computes exact Gaussian
moments for three settings and provides a path simulator for Monte Carlo
validation:

* ``homogeneous_variance``     -- complete graph, identical institutions
                                  (closed form in p, N, t),
* ``central_clearing_moments`` -- N institutions: one central counterparty
                                  and N-1 periphery banks (exact 4-dim linear
                                  ODE and its O(1/N) expansion),
* ``heterogeneous_covariance`` -- arbitrary symmetric lending rates
                                  (Lyapunov ODE solved in the Laplacian's
                                  eigenbasis).

``three_bank_example`` builds the 2x2 Gaussian system of a hub-and-pair
network used to compare deterministic and scenario-dependent capital.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy

from .core import GaussianSystem, _as_float_array


@dataclass(eq=False)
class NetworkModel:
    """Symmetric lending-rate matrix plus per-institution noise loadings."""

    rates: np.ndarray        # p_ij >= 0, zero diagonal, symmetric
    sigma: np.ndarray        # diffusion scales > 0 (may be zero for stubs)
    rho_common: np.ndarray   # loading on the shared factor, in [-1, 1]
    x0: np.ndarray           # initial positions

    def __post_init__(self):
        p = _as_float_array(self.rates, "rates", 2)
        n = p.shape[0]
        if p.shape != (n, n):
            raise ValueError("rates must be square")
        if np.any(p < 0.0):
            raise ValueError("lending rates must be nonnegative")
        if np.max(np.abs(p - p.T)) > 1e-12:
            raise ValueError("rates must be symmetric")
        if np.any(np.abs(np.diag(p)) > 0.0):
            raise ValueError("rates must have zero diagonal")
        sigma = _as_float_array(self.sigma, "sigma", 1)
        rho = _as_float_array(self.rho_common, "rho_common", 1)
        x0 = _as_float_array(self.x0, "x0", 1)
        if not (sigma.size == rho.size == x0.size == n):
            raise ValueError("sigma, rho_common, x0 must match the network size")
        if np.any(sigma < 0.0):
            raise ValueError("sigma must be nonnegative")
        if np.any(np.abs(rho) > 1.0):
            raise ValueError("rho_common must lie in [-1, 1]")
        self.rates, self.sigma, self.rho_common, self.x0 = p, sigma, rho, x0

    @property
    def n(self) -> int:
        return self.sigma.size

    def laplacian(self) -> np.ndarray:
        lap = -self.rates.copy()
        np.fill_diagonal(lap, self.rates.sum(axis=1))
        return lap

    def noise_covariance(self) -> np.ndarray:
        """Instantaneous covariance: common-factor outer product + idiosyncratic diag."""
        loading = self.sigma * self.rho_common
        return np.outer(loading, loading) + np.diag(self.sigma**2 * (1.0 - self.rho_common**2))


def homogeneous_variance(p: float, sigma: float, rho: float, n: int, t: float) -> float:
    """Exact Var[X_i(t)] on the complete graph with identical institutions.

    p is the aggregate mean-reversion rate of the deviation from the running
    average (the pairwise rate times N), so the formula has a continuous
    p -> 0 limit sigma^2 t and the p -> infinity limit
    sigma^2 (rho^2 + (1-rho^2)/N) t: fast lending pools all idiosyncratic
    noise, the common factor cannot be diversified.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (p >= 0.0 and 0.0 <= t < math.inf):   # NaN fails too; p = inf is the limit
        raise ValueError("p and t must be nonnegative, and t finite")
    if not (math.isfinite(sigma) and math.isfinite(rho)):
        raise ValueError("sigma and rho must be finite")
    idio = sigma**2 * (1.0 - rho**2)
    pooled = sigma**2 * (rho**2 + (1.0 - rho**2) / n)
    relax = t if p == 0.0 or t == 0.0 else -math.expm1(-2.0 * p * t) / (2.0 * p)
    return idio * (1.0 - 1.0 / n) * relax + pooled * t


@dataclass(eq=False)
class CentralClearingMoments:
    periphery_var: float          # v:   Var of one periphery bank
    center_var: float             # v1:  Var of the central counterparty
    center_cross: float           # w:   Cov of a periphery bank and the center
    pair_cov: float               # chi: Cov of two periphery banks
    periphery_var_series: float   # O(1/N) expansion of v
    center_var_series: float      # O(1/N) expansion of v1


def central_clearing_moments(
    p: float,
    sigma: float,
    sigma_c: float,
    rho: float,
    rho_c: float,
    n: int,
    t: float,
) -> CentralClearingMoments:
    """Second moments of a star network: one central counterparty, N-1 periphery banks.

    Every periphery bank lends only to the center at rate p; the center nets
    against all of them.  The four tracked moments Y = (v, v1, w, chi) =
    (periphery variance, center variance, periphery-center covariance,
    periphery-periphery covariance) satisfy the constant-coefficient linear
    ODE Y' = p A Y + B with

        A = [[-2,      0,       2,        0 ],
             [ 0, -2(N-1),  2(N-1),       0 ],
             [ 1,      1,      -N,      N-2 ],
             [ 0,      0,       2,       -2 ]],
        B = (sigma^2, sigma_c^2, sigma sigma_c rho rho_c, sigma^2 rho^2),

    and Y(0) = 0.  A is singular (each row sums to zero), so instead of an
    eigendecomposition the exact solution integral_0^t e^{pA s} B ds is read
    off the top-right block of expm of the augmented matrix [[pA, B], [0, 0]].

    Also returns the O(1/N) expansions of v and v1 used for large-N analysis.
    With lin = sigma^2 + 2 sigma sigma_c rho rho_c - 3 sigma^2 rho^2, its
    center-noise twin lin_c = sigma_c^2 + 2 sigma sigma_c rho rho_c
    - 3 sigma^2 rho^2, and relax = (1 - e^{-2pt})/(2p):

        v  = sigma^2 rho^2 t + sigma^2 (1-rho^2) relax
             + (1/N) ( lin * t - sigma^2 (1-rho^2) relax ),
        v1 = sigma^2 rho^2 t + (1/N) ( lin * t + lin_c / (2p) ).

    Both remainders are O(1/N^2): the center tracks the periphery average at
    rate 2p(N-1), so its variance keeps only the systematic part sigma^2
    rho^2 t at leading order, plus a 1/N correction combining the pooled
    cross terms (lin * t) with the quasi-static response lin_c/(2p) of the
    fast tracking loop.  (The exact identity v - chi = sigma^2 (1-rho^2)
    relax holds at every N.)
    """
    if n < 2:
        raise ValueError("need n >= 2: the center and at least one periphery bank")
    if not (0.0 < p < math.inf and 0.0 <= t < math.inf):   # NaN fails too
        raise ValueError("p must be positive and t nonnegative, both finite")
    if not all(map(math.isfinite, (sigma, sigma_c, rho, rho_c))):
        raise ValueError("sigma, sigma_c, rho and rho_c must be finite")
    a = np.array(
        [
            [-2.0, 0.0, 2.0, 0.0],
            [0.0, -2.0 * (n - 1), 2.0 * (n - 1), 0.0],
            [1.0, 1.0, -float(n), float(n - 2)],
            [0.0, 0.0, 2.0, -2.0],
        ]
    )
    b = np.array([sigma**2, sigma_c**2, sigma * sigma_c * rho * rho_c, sigma**2 * rho**2])
    aug = np.zeros((5, 5))
    aug[:4, :4] = p * a
    aug[:4, 4] = b
    y = scipy.linalg.expm(aug * t)[:4, 4]
    relax = -math.expm1(-2.0 * p * t) / (2.0 * p)
    idio = sigma**2 * (1.0 - rho**2)
    lin = sigma**2 + 2.0 * sigma * sigma_c * rho * rho_c - 3.0 * sigma**2 * rho**2
    lin_c = sigma_c**2 + 2.0 * sigma * sigma_c * rho * rho_c - 3.0 * sigma**2 * rho**2
    v1_series = sigma**2 * rho**2 * t + (lin * t + lin_c / (2.0 * p)) / n
    v_series = sigma**2 * rho**2 * t + idio * relax + (lin * t - idio * relax) / n
    return CentralClearingMoments(
        periphery_var=float(y[0]),
        center_var=float(y[1]),
        center_cross=float(y[2]),
        pair_cov=float(y[3]),
        periphery_var_series=v_series,
        center_var_series=v1_series,
    )


def heterogeneous_covariance(model: NetworkModel, t: float) -> GaussianSystem:
    """Mean and covariance of X(t) for arbitrary symmetric lending rates.

    Solves the Lyapunov ODE  Q' = -L Q - Q L + S  (S the instantaneous noise
    covariance, L the symmetric graph Laplacian) and  mu' = -L mu  exactly in
    the eigenbasis L = V diag(lam) V':

        Q(t)  = V ((V' S V) o K) V',   K_ab = (1 - e^{-(lam_a + lam_b) t}) / (lam_a + lam_b),
        mu(t) = V e^{-lam t} V' x0,

    with K_ab = t where lam_a + lam_b = 0 (the conserved directions, such as
    the total of each connected component).  GaussianSystem checks that the
    result is positive semidefinite.
    """
    if not 0.0 < t < math.inf:               # NaN fails too
        raise ValueError("t must be positive and finite")
    lam, vecs = np.linalg.eigh(model.laplacian())
    rate = lam[:, None] + lam[None, :]
    still = rate == 0.0
    relax = np.where(still, t, -np.expm1(-rate * t) / np.where(still, 1.0, rate))
    q = vecs @ ((vecs.T @ model.noise_covariance() @ vecs) * relax) @ vecs.T
    mu = vecs @ (np.exp(-lam * t) * (vecs.T @ model.x0))
    return GaussianSystem(mu=mu, cov=0.5 * (q + q.T))


@dataclass(eq=False)
class SampleMoments:
    mean: np.ndarray
    cov: np.ndarray
    se_mean: np.ndarray
    se_var: np.ndarray
    paths: int
    steps: int


_CHUNK = 65_536   # paths per Philox stream keyed [seed, chunk]; changing it changes every sample


def simulate_paths(
    model: NetworkModel, t: float, paths: int, steps: int, seed: int
) -> SampleMoments:
    """Euler-Maruyama sample moments of X(t).

    Counter-based RNG: path chunk c draws from Philox(key=[seed, c]), so the
    chunk key fixes the stream and the sample is reproducible bit for bit.
    Each step is one affine map x <- x @ (I - dt L') + z @ B of the paths'
    positions, z the path's n + 1 normals (common factor, then one per
    institution) and B = sqrt(dt) [sigma o rho ; diag(sigma o sqrt(1 - rho^2))].
    """
    if paths < 1 or steps < 1:
        raise ValueError("paths and steps must be positive")
    if not 0.0 < t < math.inf:               # NaN fails too
        raise ValueError("t must be positive and finite")
    n = model.n
    dt = t / steps
    sigma, rho = model.sigma, model.rho_common
    drift = np.eye(n) - dt * model.laplacian().T
    loading = math.sqrt(dt) * np.vstack([sigma * rho, np.diag(sigma * np.sqrt(1.0 - rho**2))])
    out = np.empty((paths, n))
    for start in range(0, paths, _CHUNK):
        count = min(_CHUNK, paths - start)
        rng = np.random.Generator(
            np.random.Philox(key=np.array([seed, start // _CHUNK], dtype=np.uint64))
        )
        x = np.tile(model.x0, (count, 1))
        for _ in range(steps):
            x = x @ drift + rng.standard_normal((count, n + 1)) @ loading
        out[start : start + count] = x
    mean = out.mean(axis=0)
    cov = np.cov(out, rowvar=False).reshape(n, n)
    var = np.diag(cov)
    return SampleMoments(
        mean=mean,
        cov=cov,
        se_mean=np.sqrt(var / paths),
        se_var=var * math.sqrt(2.0 / (paths - 1)),
        paths=paths,
        steps=steps,
    )


def three_bank_example(
    rho1: float,
    rho: float = 0.8,
    sigma_sq_t: float = 1.0,
) -> GaussianSystem:
    """Two-dimensional Gaussian system of the hub-and-pair network at time t.

    Bank 1 trades with nobody; banks 2 and 3 lend to each other at rate p/2.
    Lending conserves X2 + X3, so the aggregate of the pair is a plain
    correlated Brownian motion:

        Var[X1] = sigma^2 t,            Var[X2 + X3] = 2 sigma^2 t (1 + rho^2),
        Cov[X1, X2 + X3] = 2 rho rho1 sigma^2 t,

    where rho is the common-factor loading of banks 2, 3 and rho1 that of
    bank 1.  With sigma^2 t = 1 and rho = 0.8 the pair variance is 3.28.
    The returned system holds (X1, X2 + X3).
    """
    if abs(rho) > 1.0 or abs(rho1) > 1.0:
        raise ValueError("factor loadings must lie in [-1, 1]")
    var1 = sigma_sq_t
    var_pair = 2.0 * sigma_sq_t * (1.0 + rho**2)
    cov = 2.0 * rho * rho1 * sigma_sq_t
    return GaussianSystem(
        mu=np.zeros(2), cov=np.array([[var1, cov], [cov, var_pair]])
    )

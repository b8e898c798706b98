"""Scenario-dependent capital for jointly normal positions.

The admissible allocations here are two-valued: institution i receives

    Y_i = m_i + alpha_i * 1{S <= d},      sum_i alpha_i = 0,

where S = sum_i X_i is the aggregated system position and d the distress
trigger.  The total capital is sum m_i in both states, so rho = sum m_i; the
alpha transfer re-shuffles capital toward institutions that suffer most when
the system as a whole is down.

First-order conditions (budget constraint sum_i E[(X_i + Y_i - d_i)^-] = gamma
active, multiplier lambda < 0):

  * equal shortfall probability in the calm state,
        G_i(d_i - m_i, d) = P(X_i < d_i - m_i, S > d)          all equal,
  * equal shortfall probability in the distressed state,
        F_i(d_i - m_i - alpha_i, d) = P(X_i < d_i - m_i - alpha_i, S <= d)
                                                              all equal,

with F_i(x, y) = P(X_i <= x, S <= y) and G_i(x, y) = P(X_i <= x, S > y),
bivariate normal probabilities.  Their sum, the probability of institution i
being short, is then equal across institutions too.  The calm probabilities
can be as small as 1e-14, so the solver states their equality as log ratios
and evaluates G_i directly rather than as Phi - F_i.  It runs a damped Newton
iteration on these 2N-2 equations plus the budget constraint.

Everything else is closed form in these probabilities: each budget term is a
truncated first moment of the bivariate normal (by parts, Rosenbaum 1961),
and every derivative Newton needs is a univariate normal term of it.  So one
evaluation, two bivariate CDF values per institution, gives the residual,
the Jacobian, the budget and the multiplier.  The bivariate CDF itself is
evaluated by integrating the exact single-integral reduction with
fixed-order Gauss-Legendre panels; no library routine offers the 1e-12
absolute accuracy wanted here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr, ndtr

from .core import ConvergenceError, GaussianSystem
from .gaussian_det import norm_pdf, optimal_deterministic

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)
_CUTOFF = 9.0            # |x| beyond which Phi(x) is 0/1 to < 1e-18
_TAIL_LOG = 39.0         # e^-39 ~ 1e-17: relative size of the neglected lower tail
BINORM_TOL = 1e-12
NEWTON_TOL = 1e-8
NEWTON_MAX_ITER = 200


def _panels(f, a: float, b: float, n_panels: int) -> float:
    """Integral of f over [a, b] with n_panels 64-point Gauss-Legendre panels."""
    edges = np.linspace(a, b, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    xs = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    vals = f(xs.ravel()).reshape(xs.shape)
    return float((vals @ _GL_WEIGHTS) @ half)


def binorm_cdf(h: float, k: float, r: float) -> float:
    """P(Z1 <= h, Z2 <= k) for standard normals with correlation r.

    Exact reduction  integral_{-inf}^{h} phi(x) Phi((k - r x)/sqrt(1-r^2)) dx,
    taken over the smaller of h and k (the CDF is symmetric in them), and
    integrated with Gauss-Legendre panels whose width shrinks with
    sqrt(1-r^2) so the inner transition stays resolved.  Absolute error
    <= 1e-12.  The lower limit moves out from -9 (to no less than -16) where
    the integrand's lower tail matters, so that probabilities far below
    1e-12, down to the 0.0 returned for h or k <= -9, stay accurate relative
    to their own size.  |r| = 1 collapses to the comonotone/antimonotone
    closed forms.
    """
    if math.isnan(h) or math.isnan(k) or math.isnan(r):
        return math.nan
    if not -1.0 - 1e-12 <= r <= 1.0 + 1e-12:
        raise ValueError("correlation must lie in [-1, 1]")
    r = min(1.0, max(-1.0, r))
    if r >= 1.0 - 1e-15:
        return float(ndtr(min(h, k)))
    if r <= -1.0 + 1e-15:
        return float(max(0.0, ndtr(h) + ndtr(k) - 1.0))
    if h <= -_CUTOFF or k <= -_CUTOFF:
        return 0.0
    if k >= _CUTOFF:
        return float(ndtr(h))
    if h >= _CUTOFF:
        return float(ndtr(k))
    h, k = min(h, k), max(h, k)     # integrate over the lower limit
    s = math.sqrt((1.0 - r) * (1.0 + r))
    # below a, phi is under e^-39 of phi(h0) * Phi_inner(h0), h0 = min(h, 0),
    # so small results keep their relative accuracy.  The inner Phi factor
    # enters only for r > 0, where it grows to the left; there it is at
    # least Phi(h0) because k >= h, which keeps a above -16.
    h0 = min(h, 0.0)
    reach = h0 * h0 + 2.0 * _TAIL_LOG
    if r > 0.0:
        reach -= 2.0 * float(log_ndtr((k - r * h0) / s))
    a, b = -max(_CUTOFF, math.sqrt(reach)), min(h, _CUTOFF)
    # inner Phi varies on the x-scale s/|r|; keep several panels per transition
    width = min(0.5, 3.0 * s / max(abs(r), 0.1))
    n_panels = max(1, int(math.ceil((b - a) / width)))

    def f(x):
        return norm_pdf(x) * ndtr((k - r * x) / s)

    return float(min(1.0, max(0.0, _panels(f, a, b, n_panels))))


def _inner_cdf(x: float, q: float) -> float:
    """Phi(x / q); at q = 0 (|corr| = 1) its limit, a step that is 1/2 at x = 0."""
    if q > 0.0:
        return float(ndtr(x / q))
    return 0.5 + 0.5 * float(np.sign(x))


@dataclass(eq=False)
class _JointGeometry:
    """Joint law of each (X_i, S), S = sum X_i, for a Gaussian system."""

    mu: np.ndarray
    sigma: np.ndarray
    mu_s: float
    sigma_s: float
    corr_is: np.ndarray     # corr(X_i, S)

    @classmethod
    def of(cls, system: GaussianSystem) -> "_JointGeometry":
        cov_is = system.cov.sum(axis=1)
        var_s = float(system.cov.sum())
        if var_s <= 0.0:
            raise ValueError("aggregated position has zero variance")
        sigma_s = math.sqrt(var_s)
        sigma = system.sigma
        return cls(
            mu=system.mu,
            sigma=sigma,
            mu_s=float(system.mu.sum()),
            sigma_s=sigma_s,
            corr_is=np.clip(cov_is / (sigma * sigma_s), -1.0, 1.0),
        )

    def state(self, i: int, c: float, trigger: float, calm: bool):
        """Institution i's shortfall below c in one state of S, in closed form.

        Returns (P, p, E): P = P(X_i < c, state), its density p = dP/dc, and
        the budget term E = E[(c - X_i)^+; state], whose derivative in c is P.
        The distress state is {S <= trigger}; the calm state {S > trigger} is
        the same event for (X_i, -S), so k and r change sign.  With
        h = (c - mu_i)/sigma_i, k = (trigger - mu_S)/sigma_S, r = corr(X_i, S)
        and q = sqrt(1 - r^2), integration by parts of the truncated first
        moment (Rosenbaum 1961) gives

            P = Phi2(h, k; r),      p = phi(h) Phi((k - r h)/q) / sigma_i,
            E = sigma_i [h P + phi(h) Phi((k - r h)/q) + r phi(k) Phi((h - r k)/q)].

        At |r| = 1 (q = 0) the inner Phi terms are their limiting steps.  P is
        computed directly, not as a difference, so calm probabilities of
        1e-14 keep their relative accuracy.
        """
        sign = -1.0 if calm else 1.0
        h = (c - self.mu[i]) / self.sigma[i]
        k = sign * (trigger - self.mu_s) / self.sigma_s
        r = sign * float(self.corr_is[i])
        q = math.sqrt((1.0 - r) * (1.0 + r))
        prob = binorm_cdf(h, k, r)
        dens = norm_pdf(h) * _inner_cdf(k - r * h, q)
        moment = h * prob + dens + r * norm_pdf(k) * _inner_cdf(h - r * k, q)
        return prob, dens / self.sigma[i], self.sigma[i] * moment


def psi_two_state(
    system: GaussianSystem,
    m,
    alpha,
    d=None,
    trigger: float = 0.0,
) -> float:
    """Expected total shortfall under the two-state allocation (m, alpha).

    Psi(m, alpha) = sum_i E[(X_i + m_i + alpha_i 1{S <= trigger} - d_i)^-]
                  = sum_i [ E[(d_i - m_i - X_i)^+; S > trigger]
                            + E[(d_i - m_i - alpha_i - X_i)^+; S <= trigger] ],
    each term in closed form from the bivariate normal CDF (see
    ``_JointGeometry.state``).  alpha = 0 reproduces the deterministic budget
    sum_i psi_i(m_i).  Accurate to binorm_cdf's 1e-12 for every system
    ``GaussianSystem`` accepts, including |corr(X_i, S)| = 1.
    """
    geo = _JointGeometry.of(system)
    m = np.asarray(m, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    n = system.n
    if m.shape != (n,) or alpha.shape != (n,):
        raise ValueError("m and alpha must have one entry per institution")
    if abs(alpha.sum()) > 1e-10 * max(1.0, float(np.abs(alpha).max())):
        raise ValueError("alpha must sum to zero")
    d = np.zeros(n) if d is None else np.asarray(d, dtype=float)
    total = 0.0
    for i in range(n):
        total += geo.state(i, d[i] - m[i], trigger, calm=True)[2]
        total += geo.state(i, d[i] - m[i] - alpha[i], trigger, calm=False)[2]
    return total


@dataclass(eq=False)
class TwoStateSolution:
    """Optimum found by ``solve_two_state``.

    ``converged`` is always True: a solve that misses NEWTON_TOL raises
    ``ConvergenceError`` instead of returning.  The field stays for callers
    that read it.
    """

    m: np.ndarray            # capital in the calm state (S > trigger)
    alpha: np.ndarray        # distress-state transfer (sums to zero)
    rho: float               # total capital = sum m
    lam: float               # budget multiplier (negative)
    trigger: float
    gamma: float
    d: np.ndarray
    residual: float          # sup-norm of the first-order system at the solution
    iterations: int
    converged: bool

    @property
    def calm_allocation(self) -> np.ndarray:
        """Capital held by each institution when S > trigger (equals m)."""
        return self.m

    @property
    def distress_allocation(self) -> np.ndarray:
        """Capital held by each institution when S <= trigger (m + alpha).

        The reference tables quote this state.  The budget is flat along
        shifts between the calm-state components (its slope there is the
        calm shortfall probability, down to 1e-14), so the calm split is
        fixed by the equal-probability condition, not by the budget.
        """
        return self.m + self.alpha

    @property
    def transfer_size(self) -> float:
        """Largest absolute distress transfer, max_i |alpha_i|.

        The gap between the calm and the distress allocation.  It is only
        as accurate as the calm split, which the solver fixes by equalising
        the calm probabilities in log terms; with two institutions it
        matches an independent quadrature derivation to 1e-6.
        """
        return float(np.abs(self.alpha).max())


def solve_two_state(
    system: GaussianSystem,
    gamma: float,
    d=None,
    trigger: float = 0.0,
) -> TwoStateSolution:
    """Optimal two-state allocation by damped Newton on the first-order system.

    Unknowns are m (N) and the first N-1 transfers (the last is minus their
    sum).  The rows are N-1 log ratios of the calm-state probabilities
    G_i = P(X_i < d_i - m_i, S > trigger), N-1 differences of the
    distress-state probabilities F_i = P(X_i < d_i - m_i - alpha_i,
    S <= trigger), and the budget.  The calm probabilities can be as small as
    1e-14 at the optimum, so only their ratios carry the condition.  Each
    iterate is one exact evaluation, 2N bivariate CDF values, that gives the
    residual and the analytic Jacobian together: dPsi/dm_i = -(G_i + F_i),
    dPsi/dalpha_i = -F_i, and the probability rows differentiate through the
    densities of ``_JointGeometry.state``.  Starts from the deterministic
    optimum with a small alpha perturbation and halves a step (at most 8
    times) until the residual sup-norm falls.  Returns once that is
    <= NEWTON_TOL = 1e-8; a stalled line search, a singular system or
    NEWTON_MAX_ITER steps raise ``ConvergenceError``.

    If either state lies beyond the bivariate CDF's cutoff
    (|trigger - E[S]| >= 9 sd(S)), its probabilities are zero in floating
    point, the transfer is not identified, and the solver returns the
    deterministic optimum with alpha = 0 and no iterations.
    """
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    n = system.n
    if n < 2:
        raise ValueError("need at least two institutions to transfer capital")
    d_arr = np.zeros(n) if d is None else np.asarray(d, dtype=float)
    det = optimal_deterministic(system, gamma, d_arr)   # the start; exists for every gamma > 0
    geo = _JointGeometry.of(system)
    head = np.arange(n - 1)

    def full_alpha(a_head: np.ndarray) -> np.ndarray:
        return np.append(a_head, -a_head.sum())

    def evaluate(z: np.ndarray):
        """Residual, Jacobian and P(institution N short) at z = (m, alpha head)."""
        c = d_arr - z[:n]
        alpha = full_alpha(z[n:])
        g_prob, g_dens, g_moment = np.array(
            [geo.state(i, c[i], trigger, calm=True) for i in range(n)]
        ).T
        f_prob, f_dens, f_moment = np.array(
            [geo.state(i, c[i] - alpha[i], trigger, calm=False) for i in range(n)]
        ).T
        with np.errstate(divide="ignore", invalid="ignore"):   # G_i = 0 gives NaN rows
            log_calm = np.log(g_prob)
            hazard = g_dens / g_prob        # d log G_i / d c_i
            res = np.concatenate([
                log_calm[:-1] - log_calm[-1],
                f_prob[:-1] - f_prob[-1],
                [g_moment.sum() + f_moment.sum() - gamma],
            ])
        # columns: m_0..m_{N-1}, then alpha_0..alpha_{N-2}; dc_i/dm_i = -1
        jac = np.zeros((2 * n - 1, 2 * n - 1))
        jac[head, head] = -hazard[:-1]
        jac[head, n - 1] = hazard[-1]
        rows = n - 1 + head
        jac[rows, head] = -f_dens[:-1]
        jac[rows, n - 1] = f_dens[-1]
        jac[rows, n:] = -f_dens[-1]          # alpha_{N-1} = -sum of the head
        jac[rows, n + head] -= f_dens[:-1]
        jac[-1, :n] = -(g_prob + f_prob)
        jac[-1, n:] = f_prob[-1] - f_prob[:-1]
        return res, jac, g_prob[-1] + f_prob[-1]

    def solution(z, residual, iterations, short):
        return TwoStateSolution(
            m=z[:n],
            alpha=full_alpha(z[n:]),
            rho=float(z[:n].sum()),
            lam=-1.0 / short if short > 1e-14 else math.nan,
            trigger=trigger,
            gamma=gamma,
            d=d_arr,
            residual=residual,
            iterations=iterations,
            converged=True,
        )

    z = np.concatenate([det.m, np.zeros(n - 1)])
    if abs(trigger - geo.mu_s) >= _CUTOFF * geo.sigma_s:
        return solution(z, det.residual, 0, evaluate(z)[2])
    z[n] = 1e-3
    res, jac, short = evaluate(z)
    best = float(np.abs(res).max())
    iterations = 0
    while not best <= NEWTON_TOL:       # a NaN residual iterates, then raises
        if iterations == NEWTON_MAX_ITER:
            raise ConvergenceError(
                f"two-state Newton reached {NEWTON_MAX_ITER} steps at residual {best:.3g}"
            )
        iterations += 1
        try:
            step = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError:
            raise ConvergenceError("two-state first-order system is singular") from None
        for scale in 0.5 ** np.arange(9):
            cand = z + scale * step
            cres, cjac, cshort = evaluate(cand)
            cbest = float(np.abs(cres).max())
            if cbest < best:
                z, res, jac, short, best = cand, cres, cjac, cshort, cbest
                break
        else:
            raise ConvergenceError(f"two-state Newton stalled at residual {best:.3g}")
    return solution(z, best, iterations, short)

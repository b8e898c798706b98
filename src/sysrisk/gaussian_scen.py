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
evaluation, a single ``binorm_cdf`` call on 2N triples (each institution in
both states), gives the residual, the Jacobian, the budget and the
multiplier.  The bivariate CDF itself integrates the exact single-integral
reduction with 32-point Gauss-Legendre panels up to 4 wide, narrower only
where |r| > 0.6 makes the inner normal CDF's transition steeper than that;
a typical triple takes 3 to 4 panels.  The panels of all triples are
stacked on one node grid.  No library routine offers the 1e-12 absolute
accuracy wanted here.

``solve_two_state_batch`` solves many independent systems of the same N with
one Newton loop: each round evaluates every system still iterating in one
``binorm_cdf`` call and takes their steps in one stacked linear solve, while
each system keeps its own line search and stop.  A kernel call costs mostly
fixed dispatch, so a sweep of 37 points costs about as many calls as its
longest single solve.  ``solve_two_state`` is the batch of one.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np
import scipy

from .core import ConvergenceError, GaussianSystem
from .gaussian_det import INV_SQRT_2PI, DeterministicSolution, norm_pdf, optimal_deterministic

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)
_CUTOFF = 9.0            # |x| beyond which Phi(x) is 0/1 to < 1e-18
_TAIL_LOG = 39.0         # e^-39 ~ 1e-17: relative size of the neglected lower tail
_PANEL_WIDTH = 4.0       # widest panel: 32 nodes resolve phi on it to roundoff
_TRANSITION = 3.0        # widest panel in units of s/|r|, the inner Phi's transition scale
_PANEL_BLOCK = 256       # panels per block of the node grid: 64 KiB per array of nodes
_PDF_WEIGHTS = INV_SQRT_2PI * _GL_WEIGHTS
NEWTON_TOL = 1e-8
NEWTON_MAX_ITER = 200
_DISTRESS = np.array([[0.0], [1.0]])   # 1 in the distress row of a (calm, distress) pair
_SIGN = 2.0 * _DISTRESS - 1.0          # -1 in the calm row: the calm state is -S < -trigger


def binorm_cdf(h, k, r):
    """P(Z1 <= h, Z2 <= k) for standard normals with correlation r.

    h, k and r broadcast against each other; the result has their broadcast
    shape, and is a float when all three are scalars.  Each element is the
    exact reduction  integral_{-inf}^{h} phi(x) Phi((k - r x)/sqrt(1-r^2)) dx,
    taken over the smaller of h and k (the CDF is symmetric in them), and
    integrated with 32-point Gauss-Legendre panels of equal width.  A panel
    is at most 4 wide: on the panels that carry the integral, 32 nodes
    integrate phi to roundoff.  It is also at most 3 s/|r| wide,
    s = sqrt(1-r^2), because the inner Phi turns from 1 to 0 over an x-scale
    of s/|r| and that transition must span several panels; this bound takes
    over for |r| > 0.6.  Over [-9.3, 0], the span of a typical element, that
    is 3 panels up to |r| = 0.6, 4 at 0.7 and 10 at 0.95.  Absolute error
    <= 1e-12.  The lower limit moves out from -9 (to no less than -16)
    where the integrand's lower tail matters, so that probabilities far
    below 1e-12, down to the 0.0 returned for h or k <= -9, stay accurate
    relative to their own size.  |r| = 1 collapses to the comonotone/
    antimonotone closed forms, and a NaN in any argument gives NaN.  All
    panels of all elements are evaluated on one stacked node grid, 256
    panels at a time, so a large batch's grid is never in memory whole; no
    value depends on the block it falls in.
    """
    r = np.asarray(r, dtype=float)
    lo, hi = np.minimum(h, k, dtype=float), np.maximum(h, k, dtype=float)
    if lo.shape != r.shape:
        lo, hi, r = np.broadcast_arrays(lo, hi, r)
    shape = lo.shape
    lo, hi, r = lo.ravel(), hi.ravel(), r.ravel()
    size_r = np.abs(r)
    if size_r.max(initial=0.0) > 1.0 + 1e-12:     # NaN compares False
        raise ValueError("correlation must lie in [-1, 1]")
    free = size_r < 1.0 - 1e-15
    inner = free & (lo > -_CUTOFF) & (hi < _CUTOFF)
    if inner.all():
        out = _orthant(lo, hi, r)
    else:
        # closed forms: r = 1 (NaN where r is) or hi beyond the cutoff, then
        # r = -1, then lo beyond the cutoff
        out = scipy.special.ndtr(lo) + 0.0 * r
        anti = r <= -1.0 + 1e-15
        if anti.any():
            out[anti] = np.maximum(0.0, out[anti] + scipy.special.ndtr(hi[anti]) - 1.0)
        out[free & (lo <= -_CUTOFF)] = 0.0
        if inner.any():
            out[inner] = _orthant(lo[inner], hi[inner], r[inner])
    return float(out[0]) if not shape else out.reshape(shape)


def _orthant(lo, hi, r):
    """``binorm_cdf`` on flat arrays with |r| < 1 and -9 < lo <= hi < 9."""
    s = np.sqrt((1.0 - r) * (1.0 + r))
    k_s, r_s = hi / s, r / s        # the inner argument is k_s - r_s x
    # below a, phi is under e^-39 of phi(h0) * Phi_inner(h0), h0 = min(lo, 0),
    # so small results keep their relative accuracy.  The inner Phi factor
    # enters only for r > 0, where it grows to the left; there it is at
    # least Phi(h0) because hi >= lo, which keeps a above -16.
    h0 = np.minimum(lo, 0.0)
    tail = scipy.special.log_ndtr(k_s - r_s * h0)
    tail[r <= 0.0] = 0.0
    span = lo + np.sqrt(np.maximum(_CUTOFF**2, h0 * h0 + 2.0 * (_TAIL_LOG - tail)))   # lo - a
    # equal panels at most _PANEL_WIDTH and _TRANSITION * s/|r| wide
    counts = np.ceil(span * np.maximum(1.0 / _PANEL_WIDTH, np.abs(r_s) / _TRANSITION))
    half = 0.5 * span / counts
    counts = counts.astype(np.intp)         # >= 1: span > 0
    # one row per panel, the elements' panels stacked back to back, each
    # element's running down from lo
    first = np.cumsum(counts) - counts
    owner = np.repeat(np.arange(lo.size), counts)
    half_p, k_p, r_p = half[owner], k_s[owner], r_s[owner]
    mid = lo[owner] - half_p * (2 * (np.arange(owner.size) - first[owner]) + 1)
    panel_sums = np.empty(owner.size)
    for rows in range(0, owner.size, _PANEL_BLOCK):
        rows = slice(rows, rows + _PANEL_BLOCK)
        x = half_p[rows, None] * _GL_NODES
        x += mid[rows, None]
        f = r_p[rows, None] * x
        np.subtract(k_p[rows, None], f, out=f)
        scipy.special.ndtr(f, out=f)
        x *= x
        x *= -0.5
        f *= np.exp(x, out=x)
        # einsum rather than a BLAS product, so that no value depends on its batch
        panel_sums[rows] = np.einsum("pn,n->p", f, _PDF_WEIGHTS)
    # positive terms, so only roundoff above 1 needs clipping
    return np.minimum(1.0, np.add.reduceat(panel_sums, first) * half)


@dataclass(eq=False)
class _JointGeometry:
    """Joint law of each (X_i, S), S = sum X_i, in the two states of S.

    Every field has a leading batch axis, one entry per system; the systems
    of a batch share N.  Row 0 of the middle axis of ``k`` and ``corr`` is the
    calm state {S > trigger}, row 1 the distress state {S <= trigger}.  The
    calm state is the distress event for (X_i, -S), so there k and the
    correlation change sign.
    """

    mu: np.ndarray          # (B, 1, N)
    sigma: np.ndarray       # (B, 1, N)
    k: np.ndarray           # (B, 2, 1): -(trigger - E[S]) / sd(S), then +
    corr: np.ndarray        # (B, 2, N): -corr(X_i, S), then +
    q: np.ndarray           # (B, 1, N): sqrt(1 - corr(X_i, S)^2), 1 where that is 0
    steps: np.ndarray       # (B, 1, N): |corr(X_i, S)| = 1, where q is 0
    corr_k: np.ndarray      # (B, 2, N): corr * k
    corr_pdf_k: np.ndarray  # (B, 2, N): corr * phi(k)

    def __post_init__(self):
        self.degenerate = bool(self.steps.any())

    @classmethod
    def of(cls, system: GaussianSystem, trigger: float) -> "_JointGeometry":
        """The batch of one system."""
        var_s = float(system.cov.sum())
        if var_s <= 0.0:
            raise ValueError("aggregated position has zero variance")
        sigma_s = math.sqrt(var_s)
        sigma = system.sigma
        corr = np.clip(system.cov.sum(axis=1) / (sigma * sigma_s), -1.0, 1.0)
        q = np.sqrt((1.0 - corr) * (1.0 + corr))
        k = _SIGN * (trigger - float(system.mu.sum())) / sigma_s
        r = _SIGN * corr
        return cls(
            mu=system.mu[None, None],
            sigma=sigma[None, None],
            k=k[None],
            corr=r[None],
            q=np.where(q > 0.0, q, 1.0)[None, None],
            steps=(q == 0.0)[None, None],
            corr_k=(r * k)[None],
            corr_pdf_k=(r * norm_pdf(k))[None],
        )

    @classmethod
    def stack(cls, geometries) -> "_JointGeometry":
        if len(geometries) == 1:
            return geometries[0]
        return cls(*(np.concatenate([getattr(g, f.name) for g in geometries])
                     for f in fields(cls)))

    def take(self, rows) -> "_JointGeometry":
        return _JointGeometry(*(getattr(self, f.name)[rows] for f in fields(self)))

    def state(self, c: np.ndarray, alpha: np.ndarray):
        """Every institution's shortfall in both states of S, in closed form.

        c and alpha are (B, N).  Institution i's threshold t is c_i in the
        calm state and c_i - alpha_i in the distress state.  Returns (P, p, E),
        each (B, 2, N) with middle rows (calm, distress): P = P(X_i < t, state),
        its density p = dP/dt, and the budget term E = E[(t - X_i)^+; state],
        whose derivative in t is P.  With h = (t - mu_i)/sigma_i and the
        state's k and r = ``corr``, q = sqrt(1 - r^2), integration by parts
        of the truncated first moment (Rosenbaum 1961) gives

            P = Phi2(h, k; r),      p = phi(h) Phi((k - r h)/q) / sigma_i,
            E = sigma_i [h P + phi(h) Phi((k - r h)/q) + r phi(k) Phi((h - r k)/q)].

        At |r| = 1 (q = 0) the inner Phi terms are their limiting steps.  P is
        computed directly, not as a difference, so calm probabilities of
        1e-14 keep their relative accuracy.  All 2BN values of P come from one
        ``binorm_cdf`` call.
        """
        k, r = self.k, self.corr
        h = (c[:, None] - _DISTRESS * alpha[:, None] - self.mu) / self.sigma
        prob = binorm_cdf(h, k, r)
        x = np.array([k - r * h, h - self.corr_k])
        inner = scipy.special.ndtr(x / self.q)
        if self.degenerate:
            inner = np.where(self.steps, 0.5 + 0.5 * np.sign(x), inner)
        dens = INV_SQRT_2PI * np.exp(-0.5 * h * h) * inner[0]
        moment = h * prob + dens + self.corr_pdf_k * inner[1]
        return prob, dens / self.sigma, self.sigma * moment


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
    geo = _JointGeometry.of(system, trigger)
    m = np.asarray(m, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    n = system.n
    if m.shape != (n,) or alpha.shape != (n,):
        raise ValueError("m and alpha must have one entry per institution")
    if abs(alpha.sum()) > 1e-10 * max(1.0, float(np.abs(alpha).max())):
        raise ValueError("alpha must sum to zero")
    d = np.zeros(n) if d is None else np.asarray(d, dtype=float)
    if d.shape != (n,):
        raise ValueError("d must have one entry per institution")
    return float(geo.state((d - m)[None], alpha[None])[2][0].sum())


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
    deterministic: DeterministicSolution   # the optimum with alpha = 0: Newton's start

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
    iterate is one exact evaluation, one ``binorm_cdf`` call on 2N triples,
    that gives the residual and the analytic Jacobian together:
    dPsi/dm_i = -(G_i + F_i), dPsi/dalpha_i = -F_i, and the probability rows
    differentiate through the densities of ``_JointGeometry.state``.  Starts
    from the deterministic optimum with a small alpha perturbation and halves
    a step (at most 8 times) until the residual sup-norm falls.  Returns once
    that is <= NEWTON_TOL = 1e-8; a stalled line search, a singular system or
    NEWTON_MAX_ITER steps raise ``ConvergenceError``.

    If either state lies beyond the bivariate CDF's cutoff
    (|trigger - E[S]| >= 9 sd(S)), its probabilities are zero in floating
    point, the transfer is not identified, and the solver returns the
    deterministic optimum with alpha = 0 and no iterations.

    This is ``solve_two_state_batch`` on one problem.
    """
    (outcome,) = solve_two_state_batch([(system, gamma, d, trigger)])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def solve_two_state_batch(problems) -> list:
    """``solve_two_state`` on each (system, gamma, d, trigger) of ``problems``.

    Returns one entry per problem, in order: its ``TwoStateSolution``, or the
    exception ``solve_two_state`` raises on it.  The problems that share N run
    one damped Newton loop in lockstep.  Each round makes one ``binorm_cdf``
    call on the 2N triples of every system still iterating and one stacked
    ``np.linalg.solve`` for the systems taking a step.  Every system keeps its
    own line search, count and stop, so it follows the same iterates, to the
    bit, as when solved alone; a system that fails leaves the others alone.
    """
    outcomes: list = [None] * len(problems)
    groups: dict[int, list] = {}
    for index, (system, gamma, d, trigger) in enumerate(problems):
        try:
            n = system.n
            if n < 2:
                raise ValueError("need at least two institutions to transfer capital")
            d_arr = np.zeros(n) if d is None else np.asarray(d, dtype=float)
            det = optimal_deterministic(system, gamma, d_arr)   # the start; exists for every gamma > 0
            geo = _JointGeometry.of(system, trigger)
        except (ValueError, TypeError, ConvergenceError) as exc:
            outcomes[index] = exc
            continue
        groups.setdefault(n, []).append((index, gamma, d_arr, trigger, det, geo))
    for group in groups.values():
        _newton(group, outcomes)
    return outcomes


@functools.cache
def _jacobian_index(n: int) -> np.ndarray:
    """Where each Jacobian entry sits in ``_evaluate``'s value table.

    Columns are m_0..m_{N-1}, then alpha_0..alpha_{N-2}; dc_i/dm_i = -1.  The
    table holds, in this order: 0, -hazard, hazard, -F', F' (N each, F' the
    distress densities), -F'_{N-1} - F'_i (N-1), -(G + F) (N) and
    F_{N-1} - F_i (N-1).
    """
    neg_hazard, hazard, neg_dens, dens = 1, 1 + n, 1 + 2 * n, 1 + 3 * n
    cross, neg_short, flow = 1 + 4 * n, 5 * n, 6 * n
    head = np.arange(n - 1)
    rows = n - 1 + head
    index = np.zeros((2 * n - 1, 2 * n - 1), dtype=np.intp)
    index[head, head] = neg_hazard + head
    index[head, n - 1] = hazard + n - 1
    index[rows, head] = neg_dens + head
    index[rows, n - 1] = dens + n - 1
    index[rows, n:] = neg_dens + n - 1      # alpha_{N-1} = -sum of the head
    index[rows, n + head] = cross + head
    index[-1, :n] = neg_short + np.arange(n)
    index[-1, n:] = flow + head
    return index


def _evaluate(geo: _JointGeometry, d: np.ndarray, gamma: np.ndarray, z: np.ndarray):
    """Residuals, Jacobians and P(institution N short) at each row z = (m, alpha head)."""
    n = d.shape[1]
    head = z[:, n:]
    alpha = np.concatenate([head, -head.sum(axis=1, keepdims=True)], axis=1)
    prob, dens, moment = geo.state(d - z[:, :n], alpha)
    g_prob, f_prob, f_dens = prob[:, 0], prob[:, 1], dens[:, 1]
    budget = moment.sum(axis=2)
    with np.errstate(divide="ignore", invalid="ignore"):   # G_i = 0 gives NaN rows
        log_calm = np.log(g_prob)
        hazard = dens[:, 0] / g_prob        # d log G_i / d c_i
        res = np.concatenate([
            log_calm[:, :-1] - log_calm[:, -1:],
            f_prob[:, :-1] - f_prob[:, -1:],
            (budget[:, 0] + budget[:, 1] - gamma)[:, None],
        ], axis=1)
    short = g_prob + f_prob
    neg_dens = -f_dens
    table = np.concatenate([
        np.zeros((len(z), 1)), -hazard, hazard, neg_dens, f_dens,
        neg_dens[:, -1:] - f_dens[:, :-1], -short, f_prob[:, -1:] - f_prob[:, :-1],
    ], axis=1)
    return res, table[:, _jacobian_index(n)], short[:, -1]


def _newton_step(jac: np.ndarray, res: np.ndarray) -> np.ndarray:
    return np.linalg.solve(jac, -res[..., None])[..., 0]


_SHORTEST_STEP = 0.5 ** 8     # a step is halved at most 8 times


def _newton(group, outcomes: list) -> None:
    """Run the systems of ``group``, which share N, in lockstep; fill their outcomes.

    A row leaves the arrays once its system finishes or fails, so each round
    evaluates only the systems still iterating.  The per-row counters are
    lists: a round's decisions are a few scalar comparisons per row.
    """
    index, gammas, ds, triggers, dets, geos = zip(*group)
    n = ds[0].size
    ids = list(range(len(group)))
    d = np.array(ds)
    gamma = np.array(gammas, dtype=float)
    geo = _JointGeometry.stack(geos)
    z = np.zeros((len(group), 2 * n - 1))
    z[:, :n] = [det.m for det in dets]
    cutoff = (np.abs(geo.k[:, 1, 0]) >= _CUTOFF).tolist()
    for row, beyond in enumerate(cutoff):
        if not beyond:
            z[row, n] = 1e-3
    res, jac, short = _evaluate(geo, d, gamma, z)
    best = np.abs(res).max(axis=1).tolist()
    iterations = [0] * len(group)
    fraction = np.ones((len(group), 1))       # of each row's current step
    step = np.zeros_like(z)
    gone = [False] * len(group)

    def finish(row, residual):
        gone[row] = True
        g = ids[row]
        head = z[row, n:]
        outcomes[index[g]] = TwoStateSolution(
            m=z[row, :n].copy(),
            alpha=np.append(head, -head.sum()),
            rho=float(z[row, :n].sum()),
            lam=-1.0 / short[row] if short[row] > 1e-14 else math.nan,
            trigger=triggers[g],
            gamma=gammas[g],
            d=ds[g],
            residual=residual,
            iterations=iterations[row],
            converged=True,
            deterministic=dets[g],
        )

    def fail(row, message):
        gone[row] = True
        outcomes[index[ids[row]]] = ConvergenceError(message)

    for row, beyond in enumerate(cutoff):
        if beyond:
            finish(row, dets[row].residual)
    moved = [not beyond for beyond in cutoff]
    while True:
        # a row whose point just moved stops if it has converged, else steps
        stepping = []
        for row, moved_row in enumerate(moved):
            if not moved_row:
                continue
            if best[row] <= NEWTON_TOL:
                finish(row, best[row])
            elif iterations[row] == NEWTON_MAX_ITER:
                fail(row, f"two-state Newton reached {NEWTON_MAX_ITER} steps "
                          f"at residual {best[row]:.3g}")
            else:
                iterations[row] += 1
                fraction[row] = 1.0
                stepping.append(row)
        try:
            if len(stepping) == len(ids):
                step = _newton_step(jac, res)
            elif stepping:
                step[stepping] = _newton_step(jac[stepping], res[stepping])
        except np.linalg.LinAlgError:   # find the singular rows; the others step
            for row in stepping:
                try:
                    step[row] = _newton_step(jac[row], res[row])
                except np.linalg.LinAlgError:
                    fail(row, "two-state first-order system is singular")
        if any(gone):
            keep = [row for row, g in enumerate(gone) if not g]
            if not keep:
                return
            z, res, jac, short, step, fraction, d, gamma = (
                a[keep] for a in (z, res, jac, short, step, fraction, d, gamma)
            )
            geo = geo.take(keep)
            ids, best, iterations = ([v[row] for row in keep] for v in (ids, best, iterations))
            gone = [False] * len(ids)
        cand = z + fraction * step
        cres, cjac, cshort = _evaluate(geo, d, gamma, cand)
        cbest = np.abs(cres).max(axis=1).tolist()
        moved = [c < b for c, b in zip(cbest, best)]
        if all(moved):
            z, res, jac, short, best = cand, cres, cjac, cshort, cbest
            continue
        took = np.array(moved)
        z[took], res[took], jac[took], short[took] = cand[took], cres[took], cjac[took], cshort[took]
        for row, took_row in enumerate(moved):
            if took_row:
                best[row] = cbest[row]
                continue
            if fraction[row, 0] == _SHORTEST_STEP:
                fail(row, f"two-state Newton stalled at residual {best[row]:.3g}")
            fraction[row] *= 0.5

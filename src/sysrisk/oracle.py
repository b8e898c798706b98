"""Independent numeric optimizer used to validate every closed form.

``numeric_rho`` minimizes the price of an admissible allocation subject to
acceptability, for any combination of

* allocation class   -- Deterministic, FullyFlexible, FloorConstrained,
                        Grouped, TwoStateParametric,
* aggregation        -- any core Aggregation,
* acceptance         -- ExpectationFloor, WorstCase, ExpectedShortfall.

It shares no formulas with the analytic modules.  Every call first checks
the class against the instance, whatever the branch: a two-state indicator
needs one entry per scenario, floors one per institution, and a partition
must cover range(N), else ``ValueError``.  It then takes the first branch
that fits; ``diagnostics["method"]`` names it:

1. ``exact-worst-case`` (``-clearing``): worst-case acceptance with Sum,
   ShortfallSum or EisenbergNoe, per-scenario linear constraints in closed form;
2. ``newton-exponential``: exponential loss under an expectation floor; the
   budget's multiplier is the constant beta_N = sum_i 1/alpha_i, which turns
   the program into one unconstrained convex minimisation, solved by damped
   Newton;
3. ``exact-linear``: Sum under an expectation floor, one inequality on the total;
4. ``lp``: every other piecewise-linear concave case, one linear program.

No branch caps the size of the problem.  Both iterative branches read the
class through one sparse map from its free variables to the allocation
(``_allocation_map``).  On a 2-vCPU Intel Xeon, an ``lp`` call with
FullyFlexible, ShortfallSum and ES 0.2 takes 15-21 ms at 8 x 100
(701 variables) and 46-56 ms at 8 x 300 (2,101 variables).

Every branch returns an acceptable allocation or raises ``InfeasibleError`` or
``ConvergenceError``.  Two cases have no exact method and raise ``ValueError``:
exponential loss with floors, and GainLossWeighted with some v_i > 0 (not
concave).  An unbounded LP also raises ``ValueError``: rho is -inf there, as
for GainLossWeighted with beta_i > alpha_k (i != k) and transferable cash,
where moving cash from k to i raises the aggregate at no cost.

``numeric_rho_family`` turns a monotone family of expectation floors into a
single number, the cheapest self-consistent budget.  The schedule is flat
beyond its first and last levels, so an answer there is one ``numeric_rho``
cost, exact; only an answer between them is bisected.  The
``check_*`` helpers drive randomized structural-property audits and report
the worst violation found.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy

from .core import (
    ACCEPT_TOL,
    AcceptanceCriterion,
    Aggregation,
    ConvergenceError,
    EisenbergNoe,
    ExpectationFloor,
    ExpectedShortfall,
    ExponentialLoss,
    GainLossWeighted,
    InfeasibleError,
    RiskResult,
    RiskVector,
    ScenarioSpace,
    ShortfallSum,
    Sum,
    WorstCase,
    aggregate_scenarios,
    is_acceptable,
    rank_by_expected_allocation,
)
from .finite_alloc import normalize_partition

NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 150
FAMILY_TOL = 1e-9          # numeric_rho_family bisection width, times max(1, |m|)
AUDIT_TOL = 1e-6           # an audit counts any excess above this as a violation
AUDIT_SCALE = 10.0         # audit draws and transfers are uniform on [-AUDIT_SCALE, AUDIT_SCALE]
SUM_REDUCTION_SEED = 11


# ---------------------------------------------------------------------------
# allocation classes and their allocation maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Deterministic:
    """Scenario-independent cash per institution."""


@dataclass(frozen=True)
class FullyFlexible:
    """Scenario-dependent cash, only the total is scenario-constant."""


@dataclass(eq=False)
class FloorConstrained:
    """Scenario-dependent cash with per-institution floors (<= 0, -inf allowed)."""

    floors: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.floors, dtype=float)
        if g.ndim != 1:
            raise ValueError("floors must be a vector")
        if np.any(g > 0.0):
            raise ValueError("floors must be <= 0")
        self.floors = g


@dataclass(eq=False)
class Grouped:
    """Scenario-dependent cash; each group's total is scenario-constant."""

    partition: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        self.partition = tuple(tuple(int(i) for i in b) for b in self.partition)


@dataclass(eq=False)
class TwoStateParametric:
    """Y_i = m_i + alpha_i * indicator(scenario), sum alpha = 0."""

    indicator: np.ndarray

    def __post_init__(self):
        ind = np.asarray(self.indicator, dtype=float)
        if ind.ndim != 1 or not np.all((ind == 0.0) | (ind == 1.0)):
            raise ValueError("indicator must be a 0/1 vector over scenarios")
        self.indicator = ind


AllocationClass = Deterministic | FullyFlexible | FloorConstrained | Grouped | TwoStateParametric


def _fitted_class(cls: AllocationClass, n: int, m: int) -> AllocationClass:
    """``cls`` checked against an N x M instance (see module docstring), partition normalised."""
    if not isinstance(cls, AllocationClass):
        raise TypeError(f"unknown allocation class {cls!r}")
    if isinstance(cls, TwoStateParametric) and cls.indicator.shape != (m,):
        raise ValueError("indicator must have one entry per scenario")
    if isinstance(cls, FloorConstrained) and cls.floors.shape != (n,):
        raise ValueError("floors must have one entry per institution")
    if isinstance(cls, Grouped):
        return Grouped(normalize_partition(cls.partition, n))
    return cls


def _allocation_map(cls: AllocationClass, n: int, m: int) -> tuple[scipy.sparse.coo_array, np.ndarray]:
    """Sparse N*M x K map with vec Y = ymap @ v (Y row-major), and the price of each column.

    Every class is a list of (members, sink) blocks.  A block has one column
    per non-sink member i and scenario j, moving cash from (sink, j) to
    (i, j), then one column paying the sink in every scenario: the block's
    scenario-constant total, priced 1.  TwoStateParametric has Deterministic's
    columns, then one column per institution i < N-1 moving cash to i from
    the last institution on the indicator's scenarios.  ``cls`` is one that
    ``_fitted_class`` returned for this N x M.
    """
    if isinstance(cls, (Deterministic, TwoStateParametric)):
        blocks = [((i,), i) for i in range(n)]
    elif isinstance(cls, (FullyFlexible, FloorConstrained)):
        blocks = [(range(n), n - 1)]
    else:
        blocks = [(b, b[0]) for b in cls.partition]
    cells = np.arange(m)
    rows, cols, vals, price = [], [], [], []

    def add(cell, col, value):
        rows.append(cell)
        cols.append(np.broadcast_to(col, cell.shape))
        vals.append(np.full(cell.shape, value))

    for members, sink in blocks:
        for i in members:
            if i != sink:
                col = len(price) + cells
                add(i * m + cells, col, 1.0)
                add(sink * m + cells, col, -1.0)
                price += [0.0] * m
        add(sink * m + cells, len(price), 1.0)
        price.append(1.0)
    if isinstance(cls, TwoStateParametric):
        on = np.flatnonzero(cls.indicator)
        for i in range(n - 1):
            add(i * m + on, len(price), 1.0)
            add((n - 1) * m + on, len(price), -1.0)
            price.append(0.0)
    ymap = scipy.sparse.coo_array(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n * m, len(price)),
    )
    return ymap, np.array(price)


# ---------------------------------------------------------------------------
# exact branch: worst-case acceptance, separable aggregation
# ---------------------------------------------------------------------------

def _worst_case_exact(x: RiskVector, cls: AllocationClass, lam: Sum | ShortfallSum) -> RiskResult:
    """Per-scenario linear constraints solved class by class.

    For ShortfallSum(d), acceptability of a scenario means every institution
    is topped up to its critical level: Y_ij >= d_i - X_ij.  For Sum it means
    the scenario total is nonnegative.
    """
    if isinstance(lam, Sum):
        return _floored_total(x, cls, float((-x.positions.sum(axis=0)).max()),
                              "exact-worst-case")
    n, m = x.n, x.m
    need = lam.d[:, None] - x.positions        # N x M; a length-1 d broadcasts
    if isinstance(cls, TwoStateParametric) and np.ptp(cls.indicator) == 0.0:
        cls = Deterministic()                  # a constant indicator moves no cash
    if isinstance(cls, Deterministic):
        mh = need.max(axis=1)
        y = np.repeat(mh[:, None], m, axis=1)
    elif isinstance(cls, TwoStateParametric):
        # regime-wise requirements: m_i >= lo_i off-state, m_i + a_i >= hi_i
        # on-state, sum a = 0.  Optimal total is max(sum lo, sum hi);
        # achieved with a_i = t_i - mean(t), t = hi - lo.
        ind = cls.indicator.astype(bool)
        lo = need[:, ~ind].max(axis=1)
        hi = need[:, ind].max(axis=1)
        t = hi - lo
        a = t - t.sum() / n
        mvec = np.maximum(lo, hi - a)
        y = mvec[:, None] + a[:, None] * cls.indicator[None, :]
    else:
        # each block (all institutions unless Grouped) pays its worst
        # column requirement, the slack parked on its first member
        if isinstance(cls, FloorConstrained):
            need = np.maximum(need, cls.floors[:, None])
        blocks = [list(b) for b in cls.partition] if isinstance(cls, Grouped) else [slice(None)]
        y = np.empty((n, m))
        for rows in blocks:
            yb = need[rows].copy()
            totals = yb.sum(axis=0)
            yb[0] += float(totals.max()) - totals
            y[rows] = yb
    z = aggregate_scenarios(lam, x.positions + y)
    return RiskResult(
        rho=allocation_total(y),
        allocation=y,
        ranking=rank_by_expected_allocation(x.space, y),
        diagnostics={"method": "exact-worst-case", "min_outcome": float(z.min())},
    )


def _floored_total(x: RiskVector, cls: AllocationClass, need: float, method: str) -> RiskResult:
    """Cheapest allocation with total >= need (and >= the floors' sum).

    Finite floors are paid exactly; the rest goes to the first unfloored
    institution, else institution 0.  Optimal for Sum, which sees only totals.
    """
    y = np.zeros((x.n, x.m))
    total, sink, paid = need, 0, 0.0
    if isinstance(cls, FloorConstrained):
        finite = np.isfinite(cls.floors)
        total = max(need, float(cls.floors.sum()))
        sink = int(np.argmin(finite))            # first False, or 0 if none
        paid = float(cls.floors[finite].sum())
        y[finite] = cls.floors[finite][:, None]
    y[sink] += total - paid
    return RiskResult(
        rho=total,
        allocation=y,
        ranking=rank_by_expected_allocation(x.space, y),
        diagnostics={"method": method},
    )


def allocation_total(y: np.ndarray) -> float:
    totals = y.sum(axis=0)
    return float(totals.max())   # constant by construction; max guards roundoff


# ---------------------------------------------------------------------------
# Newton branch: expectation floor + exponential loss
# ---------------------------------------------------------------------------

def _exponential_newton(
    x: RiskVector, cls: AllocationClass, lam: ExponentialLoss, budget: float
) -> RiskResult:
    """min price(v)  s.t.  sum_j p_j sum_i exp(-alpha_i (X+Y(v))_ij) = budget.

    Every class reaching here contains the deterministic cash u with
    u_i = (1/alpha_i) / beta_N, beta_N = sum_i 1/alpha_i: it costs 1 and
    lowers the log moment L(v) by exactly t / beta_N per unit t.  So the
    budget's multiplier is beta_N, and rho is the minimum of the convex

        f(v) = price.v + beta_N (L(v) - log budget),

    which is flat along u.  u has positive weight on every priced column of
    the allocation map, so the other columns reach the same allocations up
    to a multiple of u: dropping the first priced column leaves f the same
    minimum and no flat direction (Boyd & Vandenberghe 2004, 10.1).  (The
    first, not the last: TwoStateParametric's transfers draw on the last
    institution, and without its cash the reduced Hessian is worse
    conditioned.)  At the reduced minimiser, the deterministic cash
    beta_N (L - log budget) u meets the budget exactly at its own price.  L
    is evaluated in the log domain with softmax weights, which keeps its
    derivatives O(1) where the raw exponentials span tens of orders of
    magnitude.

    Damped Newton from v = 0 with Armijo backtracking converges from any
    start on such a function (Boyd & Vandenberghe 2004, 9.5).  The Hessian
    gets a small ridge, and a step whose predicted decrease is below f's
    roundoff is taken whole.  The loop runs to roundoff: it stops once the
    gradient is at most NEWTON_TOL and no longer halving.  The answer counts
    only when that gradient and the shifted moment's absolute budget gap are
    both at most NEWTON_TOL, so it meets the floor within ACCEPT_TOL;
    otherwise it raises ``ConvergenceError``.
    """
    ymap, price = _allocation_map(cls, x.n, x.m)
    keep = np.arange(price.size) != np.flatnonzero(price)[0]
    basis = ymap.tocsc()[:, keep].T.toarray()      # K-1 x N*M, densified once
    price = price[keep]
    alpha_cells = np.repeat(lam.alpha, x.m)
    log_p = np.tile(np.log(x.space.probabilities), x.n)
    log_budget = math.log(budget)
    a_basis = basis * alpha_cells[None, :]
    beta = float((1.0 / lam.alpha).sum())
    cash = np.repeat(1.0 / (lam.alpha * beta), x.m)
    positions = x.positions.ravel()

    def state(v, shift=0.0):
        """(f, log moment, softmax cell weights) at Y = v @ basis + shift * cash."""
        z = log_p - alpha_cells * (positions + v @ basis + shift * cash)
        zmax = float(z.max())
        w = np.exp(z - zmax)
        total = float(w.sum())
        lg = zmax + math.log(total)
        return float(price @ v) + shift + beta * (lg - log_budget), lg, w / total

    v = np.zeros(price.size)
    f, lg, w = state(v)
    previous = math.inf
    for iterations in range(NEWTON_MAX_ITER + 1):
        jac = -a_basis @ w
        grad = price + beta * jac
        gap = float(np.abs(grad).max(initial=0.0))
        if gap <= NEWTON_TOL and gap >= 0.5 * previous:
            break
        previous = gap
        hess = beta * ((a_basis * w[None, :]) @ a_basis.T - np.outer(jac, jac))
        hess[np.diag_indices_from(hess)] += (
            1e-8 * float(np.linalg.norm(grad)) + 1e-14 * max(1.0, float(hess.trace()))
        )
        step = np.linalg.solve(hess, -grad)
        slope = float(grad @ step)
        t, trial = 1.0, state(v + step)
        if -slope > 1e-13 * max(1.0, abs(f)):
            while t > 1e-30 and not trial[0] <= f + 1e-4 * t * slope:
                t *= 0.5
                trial = state(v + t * step)
        v = v + t * step
        f, lg, w = trial
    else:
        raise ConvergenceError(
            f"exponential Newton gradient {gap:.3g} above {NEWTON_TOL:g} "
            f"after {NEWTON_MAX_ITER} steps"
        )

    shift = beta * (lg - log_budget)
    residual = max(gap, budget * abs(state(v, shift)[1] - log_budget))
    if residual > NEWTON_TOL:
        raise ConvergenceError(
            f"exponential budget gap {residual:.3g} above {NEWTON_TOL:g}"
        )
    y = (v @ basis + shift * cash).reshape(x.n, x.m)
    return RiskResult(
        rho=float(price @ v) + shift,
        allocation=y,
        ranking=rank_by_expected_allocation(x.space, y),
        diagnostics={
            "method": "newton-exponential",
            "converged": True,
            "iterations": iterations,
            "residual": residual,
            "multiplier": beta,
        },
    )


# ---------------------------------------------------------------------------
# LP branch: piecewise-linear concave aggregations
# ---------------------------------------------------------------------------

def _lp_solve(x: RiskVector, cls: AllocationClass, lam, criterion) -> RiskResult:
    """min price.v over acceptable allocations Y(v), as one linear program.

    Columns: the class variables v, one cell per institution and scenario,
    and for ES the Rockafellar-Uryasev (2000) pair (c, w).  The cells give
    outcomes t_j <= Lambda((X + Y)_j), with equality reachable, and
    acceptance is monotone in t.  For Sum, ShortfallSum and GainLossWeighted
    (v = 0), Lambda_i is a minimum of affine pieces; each cell u_ij lies below
    every piece and t_j = sum_i u_ij.  For EisenbergNoe the cells are
    post-fixed points y_j >= 0, (I - pi) y_j >= -(X_j + Y_j), t_j = -1'y_j;
    the least one is the cleared loss (Tarski).  Acceptance: E[t] >= b,
    t >= 0, or c + p'w / q <= 0 with w >= -t - c, w >= 0.  The answer is
    checked on the true aggregation and against the floors.
    """
    n, m = x.n, x.m
    ymap, price = _allocation_map(cls, n, m)
    k = price.size
    p = x.space.probabilities
    es = isinstance(criterion, ExpectedShortfall)
    grid, rhs = [], []

    def rows(b, v=None, cells=None, c=None, w=None):
        """One block row of A_ub z <= b over the columns [v | cells | c | w]."""
        grid.append([v, cells, c, w] if es else [v, cells])
        rhs.append(np.ravel(b))

    column_sums = _kron_eye(np.ones((1, n)), m)
    if isinstance(lam, EisenbergNoe):
        rows(x.positions, v=-ymap, cells=_kron_eye(lam.pi - np.eye(n), m))
        outcome, cell_bound = -column_sums, (0.0, None)
    else:
        for slope, shift in _pieces(lam, n):
            s = np.repeat(slope, m)
            scaled = scipy.sparse.coo_array((-s[ymap.row] * ymap.data, ymap.coords), shape=ymap.shape)
            scaled.eliminate_zeros()             # a zero slope leaves no entry
            rows(s * x.positions.ravel() + np.repeat(shift, m), v=scaled,
                 cells=scipy.sparse.eye_array(n * m))
        outcome, cell_bound = column_sums, (None, None)
    if isinstance(cls, FloorConstrained):
        finite = np.repeat(np.isfinite(cls.floors), m)
        rows(-np.repeat(cls.floors, m)[finite], v=-ymap[finite])
    if isinstance(criterion, ExpectationFloor):
        rows(-criterion.b, cells=-(outcome.T @ p)[None, :])
    elif isinstance(criterion, WorstCase):
        rows(np.zeros(m), cells=-outcome)
    elif es:
        rows(0.0, c=np.ones((1, 1)), w=p[None, :] / criterion.level)
        rows(np.zeros(m), cells=-outcome, c=-np.ones((m, 1)), w=-scipy.sparse.eye_array(m))
    else:  # pragma: no cover
        raise TypeError(f"unknown acceptance criterion {criterion!r}")
    bounds = [(None, None)] * k + [cell_bound] * (n * m)
    if es:
        bounds += [(None, None)] + [(0.0, None)] * m
    cost = np.zeros(len(bounds))
    cost[:k] = price
    a_ub = scipy.sparse.block_array(
        [[None if blk is None else scipy.sparse.coo_array(blk) for blk in r] for r in grid],
        format="csr",
    )
    out = scipy.optimize.linprog(cost, A_ub=a_ub, b_ub=np.concatenate(rhs), bounds=bounds,
                                 method="highs")
    if out.status == 2:
        raise InfeasibleError(f"no acceptable allocation: {out.message}")
    if out.status == 3:
        raise ValueError(f"rho is -inf: acceptable allocations cost arbitrarily little ({out.message})")
    if out.status != 0:
        raise ConvergenceError(f"LP solve failed: {out.message}")
    v = out.x[:k]
    y = (ymap @ v).reshape(n, m)
    if not is_acceptable(criterion, x.space, aggregate_scenarios(lam, x.positions + y)):
        raise ConvergenceError("LP optimum is not acceptable on the true aggregation")
    if isinstance(cls, FloorConstrained) and np.any(y < cls.floors[:, None] - ACCEPT_TOL):
        raise ConvergenceError("LP optimum breaks a floor")
    return RiskResult(
        rho=float(price @ v),
        allocation=y,
        ranking=rank_by_expected_allocation(x.space, y),
        diagnostics={"method": "lp", "iterations": int(out.nit)},
    )


def _kron_eye(a: np.ndarray, m: int) -> scipy.sparse.coo_array:
    """kron(a, I_m) from index arrays: entry (r m + j, c m + j) is a[r, c]."""
    r, c = np.nonzero(a)
    cells = np.arange(m)
    rows, cols = (r[:, None] * m + cells).ravel(), (c[:, None] * m + cells).ravel()
    return scipy.sparse.coo_array((np.repeat(a[r, c], m), (rows, cols)),
                            shape=(a.shape[0] * m, a.shape[1] * m))


def _pieces(lam, n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Affine pieces (slope s, shift c) with Lambda_i(x) = min over pieces of s_i x + c_i."""
    zero = np.zeros(n)
    if isinstance(lam, Sum):
        return [(np.ones(n), zero)]
    if isinstance(lam, ShortfallSum):
        d = np.broadcast_to(lam.d, (n,))
        return [(np.ones(n), -d), (zero, zero)]
    if isinstance(lam, GainLossWeighted):
        # alpha > beta >= 0: alpha min(x, 0) + beta max(x, 0) = min(alpha x, beta x)
        return [(lam.alpha, zero), (lam.beta, zero)]
    raise TypeError(f"no LP form for aggregation {lam!r}")


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def numeric_rho(
    x: RiskVector,
    cls: AllocationClass,
    lam: Aggregation,
    criterion: AcceptanceCriterion,
) -> RiskResult:
    """Cheapest acceptable allocation in the given class; see module docstring."""
    return _rho_of_fitted(x, _fitted_class(cls, x.n, x.m), lam, criterion)


def _rho_of_fitted(x: RiskVector, cls: AllocationClass, lam: Aggregation,
                   criterion: AcceptanceCriterion) -> RiskResult:
    """``numeric_rho`` for a class ``_fitted_class`` has already checked."""
    if isinstance(criterion, (WorstCase, ExpectedShortfall)) and isinstance(
        lam, ExponentialLoss
    ):
        # the aggregated outcome is strictly negative whatever the allocation
        raise InfeasibleError("exponential loss can never reach a nonnegative outcome")
    if isinstance(criterion, WorstCase):
        if isinstance(lam, (Sum, ShortfallSum)):
            return _worst_case_exact(x, cls, lam)
        if isinstance(lam, EisenbergNoe):
            # zero cleared loss in a scenario <=> no institution is short,
            # which is exactly the shortfall requirement at level 0
            res = _worst_case_exact(x, cls, ShortfallSum(np.zeros(x.n)))
            res.diagnostics["method"] = "exact-worst-case-clearing"
            return res
    if isinstance(lam, ExponentialLoss):
        if isinstance(cls, FloorConstrained):
            raise ValueError("exponential loss with floor constraints has no exact "
                             "method: floors turn the Newton system into a complementarity problem")
        budget = -criterion.b
        if budget <= 0.0:
            raise InfeasibleError("expectation floor must be negative for exponential loss")
        return _exponential_newton(x, cls, lam, budget)
    if isinstance(criterion, ExpectationFloor) and isinstance(lam, Sum):
        # E[sum X] + total >= b for every class
        need = criterion.b - float(x.space.probabilities @ x.positions.sum(axis=0))
        return _floored_total(x, cls, need, "exact-linear")
    if isinstance(lam, GainLossWeighted) and np.any(lam.v > 0.0):
        raise ValueError("GainLossWeighted with some v_i > 0 is not concave (slopes "
                         "alpha, 0, beta), so it has no exact LP form")
    return _lp_solve(x, cls, lam, criterion)


@dataclass(eq=False)
class ThetaMap:
    """Piecewise-linear nondecreasing budget schedule theta(m), clamped at the ends."""

    levels: np.ndarray
    budgets: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.levels, dtype=float)
        ys = np.asarray(self.budgets, dtype=float)
        if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 1:
            raise ValueError("levels and budgets must be equal-length vectors")
        if np.any(np.diff(xs) <= 0.0):
            raise ValueError("levels must be strictly increasing")
        if np.any(np.diff(ys) < 0.0):
            raise ValueError("budgets must be nondecreasing")
        if np.any(ys <= 0.0):
            raise ValueError("budgets must be positive")
        self.levels, self.budgets = xs, ys

    def __call__(self, m: float) -> float:
        return float(np.interp(m, self.levels, self.budgets))


def numeric_rho_family(
    x: RiskVector,
    cls: AllocationClass,
    lam: Aggregation,
    theta: ThetaMap,
) -> RiskResult:
    """Smallest budget level m that finances its own acceptance requirement.

    m is *self-consistent* when the cheapest acceptable allocation under
    floor -theta(m), of cost c(m), costs no more than m.  The budget theta
    is nondecreasing, so the floor loosens and c does not grow as m grows:
    the self-consistent levels form an up-set.  theta, and so c, is constant
    below the first level l0 and above the last level lK, so the least
    self-consistent level is c(l0) if c(l0) <= l0, c(lK) if c(lK) > lK, and
    otherwise the bisection point on [l0, lK] where c(m) <= m + FAMILY_TOL
    starts to hold, to within FAMILY_TOL * max(1, |m|).  The diagnostics
    name the case and trace every (m, c(m)) probed.
    """
    trace: list[tuple[float, float]] = []      # (level m, cost c(m)) per probe
    cls = _fitted_class(cls, x.n, x.m)         # once, not once per probe

    def cost(m: float) -> RiskResult:
        res = _rho_of_fitted(x, cls, lam, ExpectationFloor(-theta(m)))
        trace.append((m, res.rho))
        return res

    lo, hi = float(theta.levels[0]), float(theta.levels[-1])
    best = cost(lo)
    rho, method = best.rho, "family-flat-end"
    if rho > lo and hi > lo:
        best = cost(hi)
        rho = best.rho
        if rho <= hi:
            method = "family-bisection"
            while hi - lo > FAMILY_TOL * max(1.0, abs(hi)):
                mid = 0.5 * (lo + hi)
                res = cost(mid)
                if res.rho <= mid + FAMILY_TOL:
                    hi, best = mid, res
                else:
                    lo = mid
            rho = hi
    return RiskResult(
        rho=rho,
        allocation=best.allocation,
        ranking=best.ranking,
        diagnostics={"method": method, "trace": trace},
    )


# ---------------------------------------------------------------------------
# structural-property audits
# ---------------------------------------------------------------------------

@dataclass
class PropertyReport:
    property: str
    trials: int
    failures: int
    worst_violation: float
    witness: dict | None = None


def sample_instance(seed: int, n=None, m=None, low=-100.0, high=100.0):
    """One random finite instance: positions, probabilities, alphas, gamma."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5)) if n is None else n
    m = int(rng.integers(2, 7)) if m is None else m
    raw = rng.exponential(1.0, size=m)
    space = ScenarioSpace(raw / raw.sum())
    positions = rng.uniform(low, high, size=(n, m))
    alphas = rng.uniform(0.05, 0.5, size=n)
    gamma = float(rng.uniform(1.0, 100.0))
    return RiskVector(space, positions), alphas, gamma


def check_structural_properties(
    rho_fn: Callable[[RiskVector], float],
    base: RiskVector,
    trials: int = 1000,
    seed: int = 7,
) -> list[PropertyReport]:
    """Randomized audit of monotonicity, quasi-convexity and convexity.

    Pairs are drawn around the base instance; a violation is any excess above
    AUDIT_TOL.  Reports carry the worst witness for post-mortems.
    """
    rng = np.random.default_rng(seed)
    mono = PropertyReport("monotonicity", 0, 0, 0.0)
    quasi = PropertyReport("quasi-convexity", 0, 0, 0.0)
    convex = PropertyReport("convexity", 0, 0, 0.0)
    lambdas = np.array([0.25, 0.5, 0.75])
    shape = base.positions.shape

    def near() -> RiskVector:
        return RiskVector(base.space, base.positions + rng.uniform(-AUDIT_SCALE, AUDIT_SCALE, shape))

    def record(report: PropertyReport, gap: float, witness: dict) -> None:
        report.trials += 1
        if gap > AUDIT_TOL:
            report.failures += 1
            if gap > report.worst_violation:
                report.witness = witness
        report.worst_violation = max(report.worst_violation, gap)

    for _ in range(trials):
        x1 = near()
        bump = rng.uniform(0.0, AUDIT_SCALE, shape)
        r1, r2 = rho_fn(x1), rho_fn(RiskVector(base.space, x1.positions + bump))
        record(mono, r2 - r1,    # more wealth must not cost more
               {"positions": x1.positions.tolist(), "bump": bump.tolist()})
        xa, xb = near(), near()
        lam_mix = float(rng.choice(lambdas))
        xmix = RiskVector(
            base.space, lam_mix * xa.positions + (1.0 - lam_mix) * xb.positions
        )
        ra, rb, rmix = rho_fn(xa), rho_fn(xb), rho_fn(xmix)
        witness = {"lambda": lam_mix, "a": xa.positions.tolist(), "b": xb.positions.tolist()}
        record(quasi, rmix - max(ra, rb), witness)
        record(convex, rmix - (lam_mix * ra + (1.0 - lam_mix) * rb), witness)
    return [mono, quasi, convex]


@dataclass
class SumReductionReport:
    max_deviation: float
    deviations: list[float]
    invariant: bool


def check_sum_reduction(
    rho_fn: Callable[[RiskVector], float],
    x: RiskVector,
    n_transfers: int = 20,
) -> SumReductionReport:
    """Does rho only depend on the scenario-wise sum of positions?

    Applies random transfer matrices with zero column sums (wealth reshuffles
    between institutions, scenario totals untouched) and records |rho(X+T) -
    rho(X)|; rho counts as invariant if none exceeds AUDIT_TOL.  True for
    fully flexible allocations; floors break it.
    """
    rng = np.random.default_rng(SUM_REDUCTION_SEED)
    base = rho_fn(x)
    devs = []
    for _ in range(n_transfers):
        t = rng.uniform(-AUDIT_SCALE, AUDIT_SCALE, x.positions.shape)
        t -= t.mean(axis=0, keepdims=True)       # zero column sums
        devs.append(abs(rho_fn(RiskVector(x.space, x.positions + t)) - base))
    worst = max(devs)
    return SumReductionReport(worst, devs, worst <= AUDIT_TOL)


def check_cash_invariance(rho_fn: Callable[[RiskVector], float], x: RiskVector, v) -> float:
    """|rho(X + v) - (rho(X) - sum v)| for a deterministic per-institution v."""
    v = np.asarray(v, dtype=float)
    shifted = RiskVector(x.space, x.positions + v[:, None])
    return abs(rho_fn(shifted) - (rho_fn(x) - float(v.sum())))

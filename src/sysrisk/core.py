"""Model primitives for scenario-based multi-institution risk.

Conventions used throughout the package:

* A system of N institutions on a finite scenario space of size M is stored
  institution-major: ``positions[i, j]`` is the profit/loss of institution i
  in scenario j.  Positive numbers are gains.
* A capital allocation Y is an N x M matrix of the same orientation.  The
  admissible allocations have a scenario-independent total, so the price of
  an allocation is that common column sum.
* Aggregation functions map the N per-institution outcomes of one scenario
  to a single real number and are increasing in each position.  All are
  concave except GainLossWeighted with some v_i > 0, whose slopes run
  alpha_i, 0, beta_i.
* Acceptance criteria decide whether the M aggregated outcomes (weighted by
  the scenario probabilities) are good enough.

Numerical tolerances are centralized here so every module agrees on what
"equal" means.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Shared tolerances.
PROB_TOL = 1e-12          # scenario probabilities must sum to 1 within this
SYM_TOL = 1e-12           # symmetry check for covariance matrices
PSD_TOL = 1e-10           # smallest admissible eigenvalue shift for covariances
ACCEPT_TOL = 1e-9         # slack when checking acceptability of an outcome
CONSTANT_SUM_TOL = 1e-9   # scenario-total constancy of admissible allocations


class InfeasibleError(Exception):
    """The optimization problem has no admissible solution."""


class ConvergenceError(Exception):
    """An iterative scheme failed to reach its tolerance."""


def _as_float_array(a, name: str, ndim: int) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _read_only(a: np.ndarray) -> np.ndarray:
    """A read-only copy of a, for a checked field of a frozen instance."""
    a = a.copy()
    a.flags.writeable = False
    return a


def critical_levels(d, n: int) -> np.ndarray:
    """Critical levels d as floats: zeros when None, else one finite entry per institution."""
    if d is None:
        return np.zeros(n)
    d = np.asarray(d, dtype=float)
    if d.shape != (n,):
        raise ValueError("critical levels d must have one entry per institution")
    if not np.isfinite(d).all():
        raise ValueError("critical levels d must be finite")
    return d


def exponential_coefficients(alpha) -> np.ndarray:
    """Exponential-loss coefficients alpha as floats: a vector of finite entries, each > 0."""
    a = _as_float_array(alpha, "alpha", 1)
    if np.any(a <= 0.0):
        raise ValueError("alpha must be strictly positive")
    return a


def floor_levels(floors, n: int | None = None) -> np.ndarray:
    """Floors gamma as floats: a vector (of n entries, when n is given), each <= 0, -inf for none."""
    g = np.asarray(floors, dtype=float)
    if g.ndim != 1 or (n is not None and g.size != n):
        raise ValueError("floors must be a vector with one entry per institution")
    if not np.all(g <= 0.0):                 # NaN fails this too
        raise ValueError("floors must be <= 0 (-inf for none), not NaN")
    return g


# ---------------------------------------------------------------------------
# scenario space / positions
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class ScenarioSpace:
    """Finite probability space: M scenarios with strictly positive weights."""

    probabilities: np.ndarray

    def __post_init__(self):
        p = _as_float_array(self.probabilities, "probabilities", 1)
        if p.size < 1:
            raise ValueError("need at least one scenario")
        if np.any(p <= 0.0):
            raise ValueError("scenario probabilities must be strictly positive")
        if abs(p.sum() - 1.0) > PROB_TOL:
            raise ValueError(f"scenario probabilities sum to {p.sum()!r}, not 1")
        self.probabilities = p

    @property
    def m(self) -> int:
        return self.probabilities.size

    def expectation(self, z) -> float:
        z = np.asarray(z, dtype=float)
        return float(self.probabilities @ z)


@dataclass(eq=False)
class RiskVector:
    """Positions of N institutions over a common scenario space (N x M)."""

    space: ScenarioSpace
    positions: np.ndarray

    def __post_init__(self):
        x = _as_float_array(self.positions, "positions", 2)
        if x.shape[1] != self.space.m:
            raise ValueError(
                f"positions have {x.shape[1]} scenarios, space has {self.space.m}"
            )
        if x.shape[0] < 1:
            raise ValueError("need at least one institution")
        self.positions = x

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    @property
    def m(self) -> int:
        return self.positions.shape[1]


@dataclass(eq=False)
class GaussianSystem:
    """Jointly normal positions: mean vector and covariance matrix."""

    mu: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mu = _as_float_array(self.mu, "mu", 1)
        q = _as_float_array(self.cov, "cov", 2)
        n = mu.size
        if q.shape != (n, n):
            raise ValueError(f"cov has shape {q.shape}, expected ({n}, {n})")
        if np.max(np.abs(q - q.T)) > SYM_TOL:
            raise ValueError("cov must be symmetric")
        if np.any(np.diag(q) <= 0.0):
            raise ValueError("cov must have strictly positive diagonal")
        try:
            np.linalg.cholesky(q + PSD_TOL * np.eye(n))
        except np.linalg.LinAlgError:
            raise ValueError("cov is not positive semidefinite") from None
        self.mu = mu
        self.cov = q

    @property
    def n(self) -> int:
        return self.mu.size

    @property
    def sigma(self) -> np.ndarray:
        """Marginal standard deviations."""
        return np.sqrt(np.diag(self.cov))


# ---------------------------------------------------------------------------
# aggregation functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Sum:
    """Total profit/loss: the most permissive aggregation."""

    def per_scenario(self, x: np.ndarray) -> np.ndarray:
        return x.sum(axis=0)


@dataclass(eq=False, frozen=True)
class ShortfallSum:
    """Sum of shortfalls below per-institution critical levels d.

    Lambda(x) = -sum_i (x_i - d_i)^- ; always <= 0, zero iff nobody is short.
    d is checked once, at construction, so the instance is frozen and keeps
    a read-only copy, as EisenbergNoe does with pi.
    """

    d: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "d", _read_only(_as_float_array(self.d, "d", 1)))

    def per_scenario(self, x: np.ndarray) -> np.ndarray:
        short = np.minimum(x - self.d[:, None], 0.0)
        return short.sum(axis=0)


@dataclass(eq=False, frozen=True)
class ExponentialLoss:
    """Lambda(x) = -sum_i exp(-alpha_i x_i), alpha_i > 0.  Always < 0.

    alpha is checked once, at construction; the instance is frozen and keeps
    a read-only copy.
    """

    alpha: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alpha", _read_only(exponential_coefficients(self.alpha)))

    def per_scenario(self, x: np.ndarray) -> np.ndarray:
        return -np.exp(-self.alpha[:, None] * x).sum(axis=0)


@dataclass(eq=False)
class GainLossWeighted:
    """Piecewise-linear aggregation penalizing losses and crediting capped gains.

    Lambda(x) = -sum_i alpha_i x_i^-  +  sum_i beta_i (x_i - v_i)^+
    with alpha_i > beta_i >= 0 (losses hurt more than excess gains help).
    Concave only when v = 0; for v_i > 0 the slope drops to 0 on (0, v_i)
    and rises to beta_i above it.
    """

    alpha: np.ndarray
    beta: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        a = _as_float_array(self.alpha, "alpha", 1)
        b = _as_float_array(self.beta, "beta", 1)
        v = _as_float_array(self.v, "v", 1)
        if not (a.size == b.size == v.size):
            raise ValueError("alpha, beta, v must have matching length")
        if np.any(b < 0.0) or np.any(a <= b):
            raise ValueError("need alpha_i > beta_i >= 0")
        if np.any(v < 0.0):
            raise ValueError("gain thresholds v must be nonnegative")
        self.alpha, self.beta, self.v = a, b, v

    def per_scenario(self, x: np.ndarray) -> np.ndarray:
        loss = np.minimum(x, 0.0)          # x^- with a sign: -x^- = min(x, 0)
        gain = np.maximum(x - self.v[:, None], 0.0)
        return (self.alpha[:, None] * loss + self.beta[:, None] * gain).sum(axis=0)


@dataclass(eq=False, frozen=True)
class EisenbergNoe:
    """Aggregation through an interbank clearing network.

    pi[i, k] is the share of institution i's nominal obligations owed to k;
    rows sum to at most 1 and the spectral radius must be < 1 so that every
    principal block of I - pi is invertible with a nonnegative inverse, and
    the clearing problem has a unique least solution.  The aggregated outcome
    of a scenario is minus the total cleared loss of the system when the
    scenario's losses (-x) are pushed through the network, which makes the
    map increasing in x.  pi is checked here once, not on every per_scenario,
    so the instance is frozen and keeps a read-only copy: no later write skips
    the check.
    """

    pi: np.ndarray

    def __post_init__(self):
        p = _as_float_array(self.pi, "pi", 2)
        if p.shape[0] != p.shape[1]:
            raise ValueError("pi must be square")
        if np.any(p < 0.0):
            raise ValueError("pi must be nonnegative")
        if np.any(p.sum(axis=1) > 1.0 + PROB_TOL):
            raise ValueError("rows of pi must sum to at most 1")
        if spectral_radius(p) >= 1.0:
            raise ValueError("spectral radius of pi must be < 1")
        object.__setattr__(self, "pi", _read_only(p))

    def per_scenario(self, x: np.ndarray) -> np.ndarray:
        return -_clear(self.pi, -x).sum(axis=0)


Aggregation = Sum | ShortfallSum | ExponentialLoss | GainLossWeighted | EisenbergNoe


def spectral_radius(a: np.ndarray) -> float:
    """Largest |eigenvalue| of a square matrix (0 for an empty one)."""
    return float(np.max(np.abs(np.linalg.eigvals(a)), initial=0.0))


_CLEARING_BATCH = 256   # k x k blocks per batched solve; bounds the stack at 256 k^2 floats


def clearing_vector(pi: np.ndarray, x) -> np.ndarray:
    """Least nonnegative solution of y = (x + pi @ y)^+, exactly.

    x holds the institutions' net outside losses (positive = owes money), as
    an N-vector or as an N x M matrix of M scenarios cleared independently;
    y has the shape of x.  pi must be nonnegative with spectral radius < 1.

    Fictitious default (Eisenberg & Noe 2001): from a defaulting set A, solve
    (I - pi_AA) y_A = x_A with y = 0 off A, and add every institution whose
    pressure x + pi @ y is then positive.  Because (I - pi_AA)^-1 >= 0, each
    round's y lies below the least solution and above the previous round's,
    so A only grows and the least solution is reached after at most N + 1
    solves.  The first A comes from Picard sweeps y <- (x + pi @ y)^+ from
    y = 0 over all M columns at once, until a sweep leaves the count of
    defaulters unchanged (Picard from 0 only grows y, so the set is unchanged
    too) or N sweeps have run.  Picard iterates stay below the least
    solution, so every institution they mark defaults there too, and the
    rounds end on the same final set, with the same last solve, as rounds
    started from {x > 0}; the result is bit for bit the same, at about 1.01
    solves per defaulting scenario on random 12-bank networks against 1.9.
    A round groups its open scenarios by the size k of their defaulting set
    and solves each on its own k x k block of I - pi, the banks of A in
    ascending order, at most _CLEARING_BATCH blocks per batched solve.  So
    each scenario's y_A has the bits of one np.linalg.solve of that block
    alone, with no padding to N x N.  Non-finite losses raise ValueError.
    pi is checked here once; EisenbergNoe checks it at construction instead.
    """
    pi = np.asarray(pi, dtype=float)
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2):
        raise ValueError("x must be an N-vector or an N x M matrix")
    if np.any(pi < 0.0) or spectral_radius(pi) >= 1.0:
        raise ValueError("clearing needs a nonnegative pi with spectral radius < 1")
    return _clear(pi, x.reshape(x.shape[0], -1)).reshape(x.shape)


def _clear(pi: np.ndarray, x: np.ndarray) -> np.ndarray:
    """clearing_vector of an N x M matrix x, for a pi that has been checked."""
    if not np.isfinite(x).all():                       # a NaN would clear to 0, i.e. solvent
        raise ValueError("clearing needs finite losses x, not NaN or inf")
    n = pi.shape[0]
    y = np.maximum(x, 0.0)
    count = np.count_nonzero(y)
    for _ in range(n - 1):                             # the line above is sweep 1 of N
        y = np.maximum(x + pi @ y, 0.0)
        if (grown := np.count_nonzero(y)) == count:
            break
        count = grown
    active = y > 0.0
    y = np.zeros_like(x)
    todo = np.flatnonzero(active.any(axis=0))
    eye_pi = (np.eye(n) - pi).ravel()
    while todo.size:
        sizes = active[:, todo].sum(axis=0)
        for k in np.flatnonzero(np.bincount(sizes)):
            same = todo[sizes == k]
            for start in range(0, same.size, _CLEARING_BATCH):
                cols = same[start:start + _CLEARING_BATCH]
                # the C x k defaulting sets, each in ascending bank order
                rows = np.nonzero(active[:, cols].T)[1].reshape(-1, k)
                flat = rows * x.shape[1] + cols[:, None]
                blocks = eye_pi.take(rows[:, :, None] * n + rows[:, None, :])
                y.put(flat, np.linalg.solve(blocks, x.take(flat)[:, :, None])[:, :, 0])
        grown = ~active[:, todo] & (x[:, todo] + pi @ y[:, todo] > 0.0)
        active[:, todo] |= grown
        todo = todo[grown.any(axis=0)]
    return np.maximum(y, 0.0)


def aggregate(lam: Aggregation, x) -> float:
    """Aggregated outcome of a single scenario (x is the N-vector of positions)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("aggregate takes one scenario; use aggregate_scenarios")
    return float(lam.per_scenario(x[:, None])[0])


def aggregate_scenarios(lam: Aggregation, positions: np.ndarray) -> np.ndarray:
    """Aggregated outcomes of all scenarios of an N x M position matrix."""
    x = np.asarray(positions, dtype=float)
    if x.ndim != 2:
        raise ValueError("positions must be N x M")
    return lam.per_scenario(x)


# ---------------------------------------------------------------------------
# acceptance criteria
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpectationFloor:
    """Accept when E[Z] >= b.  The budget parameter gamma > 0 maps to b = -gamma."""

    b: float

    def __post_init__(self):
        if not np.isfinite(self.b):
            raise ValueError("floor b must be finite")


@dataclass(frozen=True)
class WorstCase:
    """Accept when Z >= 0 in every scenario."""


DEFAULT_ES_LEVEL = 0.05


@dataclass(frozen=True)
class ExpectedShortfall:
    """Accept when ES at the given tail level is <= 0."""

    level: float = DEFAULT_ES_LEVEL

    def __post_init__(self):
        if not 0.0 < self.level < 1.0:
            raise ValueError("tail level must lie in (0, 1)")


AcceptanceCriterion = ExpectationFloor | WorstCase | ExpectedShortfall


def expected_shortfall(z, probabilities, level: float = DEFAULT_ES_LEVEL) -> float:
    """Discrete ES of outcome z at tail level q (positive = risky).

    Uses the lower q-quantile v = inf{x : P(z <= x) >= q} and averages the
    strict left tail plus the remaining quantile mass:

        ES_q(z) = -(1/q) * ( sum_{z_j < v} p_j z_j + (q - P(z < v)) * v ).

    For a constant outcome c this returns -c.
    """
    z = np.asarray(z, dtype=float)
    p = np.asarray(probabilities, dtype=float)
    if z.shape != p.shape or z.ndim != 1:
        raise ValueError("z and probabilities must be 1-d of equal length")
    if not 0.0 < level < 1.0:
        raise ValueError("tail level must lie in (0, 1)")
    order = np.argsort(z, kind="stable")
    zs, ps = z[order], p[order]
    cum = np.cumsum(ps)
    # first index where cumulative mass reaches the tail level (float guard)
    idx = int(np.searchsorted(cum, level - 1e-15))
    v = zs[idx]
    below = zs < v
    mass_below = float(ps[below].sum())
    tail_sum = float(ps[below] @ zs[below]) + (level - mass_below) * v
    return -tail_sum / level


def is_acceptable(criterion: AcceptanceCriterion, space: ScenarioSpace, z) -> bool:
    """Decide acceptability of aggregated outcomes z (length M), with slack ACCEPT_TOL."""
    z = np.asarray(z, dtype=float)
    if isinstance(criterion, ExpectationFloor):
        return space.expectation(z) >= criterion.b - ACCEPT_TOL
    if isinstance(criterion, WorstCase):
        return float(z.min()) >= -ACCEPT_TOL
    if isinstance(criterion, ExpectedShortfall):
        return expected_shortfall(z, space.probabilities, criterion.level) <= ACCEPT_TOL
    raise TypeError(f"unknown acceptance criterion {criterion!r}")


# ---------------------------------------------------------------------------
# allocations
# ---------------------------------------------------------------------------

def allocation_price(y: np.ndarray, tol: float = CONSTANT_SUM_TOL) -> float:
    """Price of an admissible allocation: its scenario-independent column total.

    Raises ValueError when the column totals actually vary, i.e. when y is not
    in the admissible class.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim == 1:
        return float(y.sum())
    totals = y.sum(axis=0)
    spread = float(totals.max() - totals.min())
    if spread > tol * max(1.0, float(np.abs(totals).max())):
        raise ValueError(f"allocation total varies across scenarios (spread {spread:g})")
    return float(totals.mean())


@dataclass(eq=False)
class RiskResult:
    """Outcome of a risk-measure computation.

    rho        -- optimal total capital
    allocation -- an optimal (or near-optimal) N x M allocation, when available
    ranking    -- institutions ordered by expected allocation, largest first
    diagnostics-- solver metadata (method, iterations, residuals, ...)
    """

    rho: float
    allocation: np.ndarray | None = None
    ranking: tuple[int, ...] = ()
    diagnostics: dict = field(default_factory=dict)


def rank_by_expected_allocation(space: ScenarioSpace, y: np.ndarray) -> tuple[int, ...]:
    """Institution indices by decreasing E[Y_i]; ties broken by lower index."""
    ey = np.asarray(y, dtype=float) @ space.probabilities
    order = np.lexsort((np.arange(ey.size), -ey))
    return tuple(int(i) for i in order)

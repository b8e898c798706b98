"""Closed-form risk measures on finite scenario spaces.

Three families of total-capital measures for the shortfall aggregation
Lambda(x) = -sum_i (x_i - d_i)^-:

* ``rho_ag``             -- capital injected *after* aggregation,
* ``rho_deterministic``  -- scenario-independent per-institution capital,
* ``rho_constrained``    -- scenario-dependent capital with per-institution
                            floors and scenario-constant total.

All three have exact expressions in terms of scenario-wise maxima, so no
optimization is run here.  The worst-case acceptance and the expected-shortfall
acceptance lead to identical values for the two "before aggregation" measures
(an outcome that is <= 0 everywhere has nonpositive ES only if it vanishes),
hence those take no criterion argument.
"""
from __future__ import annotations

import numpy as np

from .core import (
    AcceptanceCriterion,
    ExpectedShortfall,
    RiskVector,
    ShortfallSum,
    WorstCase,
    critical_levels,
    expected_shortfall,
    floor_levels,
)


def rho_ag(
    x: RiskVector,
    criterion: AcceptanceCriterion = WorstCase(),
    d=None,
) -> float:
    """Capital added to the *aggregated* outcome.

    rho = inf{ c : Lambda(X) + c acceptable }.  For worst-case acceptance this
    is the largest scenario shortfall; for ES acceptance it is the ES of the
    aggregated outcome.
    """
    d = critical_levels(d, x.n)
    z = ShortfallSum(d).per_scenario(x.positions)
    if isinstance(criterion, WorstCase):
        return float(-z.min())
    if isinstance(criterion, ExpectedShortfall):
        return expected_shortfall(z, x.space.probabilities, criterion.level)
    raise ValueError("rho_ag supports WorstCase and ExpectedShortfall acceptance")


def rho_deterministic(x: RiskVector, d=None) -> tuple[float, np.ndarray]:
    """Cheapest deterministic per-institution capital making every scenario safe.

    m_hat_i = max_j (d_i - X_ij); returns (sum of m_hat, m_hat).  The value is
    the same under worst-case and under expected-shortfall acceptance.
    """
    d = critical_levels(d, x.n)
    m_hat = (d[:, None] - x.positions).max(axis=1)
    return float(m_hat.sum()), m_hat


def rho_constrained(x: RiskVector, floors, d=None) -> tuple[float, np.ndarray]:
    """Scenario-dependent capital with per-institution floors gamma_i <= 0.

    Institution i may be charged down to gamma_i in good scenarios (gamma_i =
    -inf removes the floor, NaN is refused by ``core.floor_levels``).  The
    admissible total must be scenario-constant, so the optimum is the worst
    scenario's total requirement:

        rho = max_j sum_i max(d_i - X_ij, gamma_i)

    Returns (rho, requirement matrix L with L_ij = max(d_i - X_ij, gamma_i)).
    An optimal allocation keeps every institution at its requirement and parks
    the slack (rho - column total) anywhere, e.g. with institution 0.
    """
    d = critical_levels(d, x.n)
    g = floor_levels(floors, x.n)
    requirement = np.maximum(d[:, None] - x.positions, g[:, None])
    rho = float(requirement.sum(axis=0).max())
    return rho, requirement

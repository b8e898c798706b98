"""Closed-form total-capital measures on finite scenario spaces."""
from __future__ import annotations

import numpy as np
import pytest

from sysrisk.closed_forms import (
    expected_shortfall,
    rho_ag,
    rho_constrained,
    rho_deterministic,
)
from sysrisk.core import ExpectedShortfall, RiskVector, ScenarioSpace, WorstCase


def test_expected_shortfall_of_constant_is_its_negation():
    p = np.array([0.2, 0.3, 0.5])
    assert expected_shortfall(np.full(3, 4.0), p) == pytest.approx(-4.0)
    assert expected_shortfall(np.full(3, -2.5), p) == pytest.approx(2.5)


def test_expected_shortfall_averages_the_tail():
    # 10% tail: scenario with z=-10 (mass 0.04) plus 0.06 of the z=-1 quantile
    z = np.array([-10.0, -1.0, 5.0])
    p = np.array([0.04, 0.06, 0.90])
    es = expected_shortfall(z, p, level=0.10)
    assert es == pytest.approx((0.04 * 10.0 + 0.06 * 1.0) / 0.10)


def test_expected_shortfall_validates_level():
    with pytest.raises(ValueError):
        expected_shortfall(np.zeros(2), np.array([0.5, 0.5]), level=0.0)


def test_expected_shortfall_exceeds_expected_loss():
    rng = np.random.default_rng(42)
    for _ in range(50):
        m = int(rng.integers(2, 8))
        p = rng.dirichlet(np.ones(m))
        z = rng.normal(0.0, 5.0, m)
        assert expected_shortfall(z, p, 0.05) >= -float(p @ z) - 1e-12


class TestRhoAg:
    def test_worst_case_is_largest_scenario_shortfall(self, small_risk_vector):
        # scenario shortfalls at d=0: (-1, -2, -0.5) => rho = 2
        assert rho_ag(small_risk_vector) == 2.0

    def test_expected_shortfall_acceptance_is_weaker(self, small_risk_vector):
        es_value = rho_ag(small_risk_vector, ExpectedShortfall(0.05))
        assert es_value <= rho_ag(small_risk_vector) + 1e-12

    def test_critical_levels_shift_the_requirement(self, small_risk_vector):
        higher = rho_ag(small_risk_vector, WorstCase(), d=np.array([1.0, 1.0]))
        assert higher >= rho_ag(small_risk_vector)


def test_rho_deterministic_hand_case(small_risk_vector):
    rho, m_hat = rho_deterministic(small_risk_vector)
    # m_hat_i = max_j (0 - X_ij)
    assert np.allclose(m_hat, [2.0, 1.0])
    assert rho == 3.0


def test_rho_deterministic_positions_already_safe():
    space = ScenarioSpace(np.array([0.5, 0.5]))
    x = RiskVector(space, np.array([[1.0, 2.0]]))
    rho, m_hat = rho_deterministic(x)
    assert rho == -1.0  # capital can be withdrawn down to the worst scenario
    assert m_hat[0] == -1.0


class TestRhoConstrained:
    def test_no_floors_reduces_to_sum_worst_case(self, small_risk_vector):
        rho, req = rho_constrained(
            small_risk_vector, np.full(2, -np.inf)
        )
        totals = small_risk_vector.positions.sum(axis=0)
        assert rho == pytest.approx(-totals.min())
        assert np.allclose(req, -small_risk_vector.positions)

    def test_zero_floors_reproduce_aggregated_measure(self, small_risk_vector):
        rho, _ = rho_constrained(small_risk_vector, np.zeros(2))
        assert rho == rho_ag(small_risk_vector)

    def test_positive_floors_rejected(self, small_risk_vector):
        with pytest.raises(ValueError, match="<= 0"):
            rho_constrained(small_risk_vector, np.array([0.1, 0.0]))

    def test_floor_ordering(self, small_risk_vector):
        loose, _ = rho_constrained(small_risk_vector, np.full(2, -np.inf))
        mid, _ = rho_constrained(small_risk_vector, np.full(2, -1.0))
        tight, _ = rho_constrained(small_risk_vector, np.zeros(2))
        assert loose <= mid <= tight


def test_monotone_in_positions():
    rng = np.random.default_rng(9)
    space = ScenarioSpace(rng.dirichlet(np.ones(4)))
    base = rng.normal(0.0, 3.0, (3, 4))
    bump = np.abs(rng.normal(0.0, 1.0, (3, 4)))
    x_lo = RiskVector(space, base)
    x_hi = RiskVector(space, base + bump)
    assert rho_ag(x_hi) <= rho_ag(x_lo) + 1e-12
    assert rho_deterministic(x_hi)[0] <= rho_deterministic(x_lo)[0] + 1e-12
    floors = np.array([-2.0, -1.0, 0.0])
    assert (
        rho_constrained(x_hi, floors)[0]
        <= rho_constrained(x_lo, floors)[0] + 1e-12
    )

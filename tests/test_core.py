"""Domain types: scenario spaces, aggregations, clearing, acceptance."""
from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sysrisk import core
from sysrisk.core import (
    EisenbergNoe,
    ExpectationFloor,
    ExpectedShortfall,
    ExponentialLoss,
    GainLossWeighted,
    GaussianSystem,
    RiskVector,
    ScenarioSpace,
    ShortfallSum,
    Sum,
    WorstCase,
    aggregate,
    aggregate_scenarios,
    allocation_price,
    clearing_vector,
    critical_levels,
    floor_levels,
    is_acceptable,
    rank_by_expected_allocation,
    spectral_radius,
)
from clearing_reference import active_set_clearing


class TestScenarioSpace:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to"):
            ScenarioSpace(np.array([0.5, 0.4]))

    def test_rejects_nonpositive_mass(self):
        with pytest.raises(ValueError):
            ScenarioSpace(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            ScenarioSpace(np.array([1.2, -0.2]))

    def test_single_scenario_space_is_allowed(self):
        space = ScenarioSpace(np.array([1.0]))
        assert space.m == 1

    def test_expectation(self):
        space = ScenarioSpace(np.array([0.25, 0.75]))
        assert space.expectation(np.array([4.0, 0.0])) == 1.0


class TestRiskVector:
    def test_scenario_count_must_match_space(self, small_risk_vector):
        with pytest.raises(ValueError, match="scenarios"):
            RiskVector(small_risk_vector.space, np.zeros((2, 4)))

    def test_shape_accessors(self, small_risk_vector):
        assert small_risk_vector.n == 2
        assert small_risk_vector.m == 3


class TestGaussianSystem:
    def test_rejects_asymmetric_cov(self):
        with pytest.raises(ValueError, match="symmetric"):
            GaussianSystem(np.zeros(2), np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_rejects_indefinite_cov(self):
        with pytest.raises(ValueError):
            GaussianSystem(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_sigma_reads_the_diagonal(self):
        sys_ = GaussianSystem(np.zeros(2), np.array([[4.0, 0.0], [0.0, 9.0]]))
        assert np.allclose(sys_.sigma, [2.0, 3.0])


# ---------------------------------------------------------------------------
# aggregation functions
# ---------------------------------------------------------------------------

def test_sum_aggregation():
    assert aggregate(Sum(), [1.0, -2.0, 0.5]) == -0.5


def test_shortfall_sum_only_counts_deficits():
    lam = ShortfallSum(np.array([0.0, 1.0]))
    # first bank is above its level, second is 3 short
    assert aggregate(lam, [5.0, -2.0]) == -3.0
    assert aggregate(lam, [5.0, 2.0]) == 0.0


def test_exponential_loss_value():
    lam = ExponentialLoss(np.array([0.5, 1.0]))
    x = np.array([1.0, -1.0])
    expected = -(np.exp(-0.5) + np.exp(1.0))
    assert aggregate(lam, x) == pytest.approx(expected, rel=1e-14)


def test_gain_loss_weighted_value():
    lam = GainLossWeighted(
        alpha=np.array([2.0, 3.0]), beta=np.array([0.5, 1.0]), v=np.array([1.0, 0.0])
    )
    # bank 1: gain of 2 above v=1 credits 0.5; bank 2: loss of 1 costs 3
    assert aggregate(lam, [3.0, -1.0]) == pytest.approx(0.5 * 2.0 - 3.0)


def test_gain_loss_weighted_validation():
    with pytest.raises(ValueError, match="alpha_i > beta_i"):
        GainLossWeighted(np.array([1.0]), np.array([1.0]), np.array([0.0]))


def test_aggregate_scenarios_matches_columnwise_aggregate(small_risk_vector):
    lam = ShortfallSum(np.zeros(2))
    per_col = aggregate_scenarios(lam, small_risk_vector.positions)
    for j in range(small_risk_vector.m):
        assert per_col[j] == aggregate(lam, small_risk_vector.positions[:, j])


@settings(max_examples=200, deadline=None)
@given(
    x=st.lists(st.floats(-50, 50), min_size=3, max_size=3),
    y=st.lists(st.floats(-50, 50), min_size=3, max_size=3),
    lam_weight=st.sampled_from([0.25, 0.5, 0.75]),
)
def test_non_clearing_aggregations_are_concave_and_monotone(x, y, lam_weight):
    x = np.asarray(x)
    y = np.asarray(y)
    rules = [
        Sum(),
        ShortfallSum(np.array([0.0, 1.0, -1.0])),
        ExponentialLoss(np.array([0.3, 0.2, 0.1])),
        GainLossWeighted(np.ones(3), np.full(3, 0.25), np.zeros(3)),
    ]
    mid = lam_weight * x + (1 - lam_weight) * y
    for rule in rules:
        lhs = aggregate(rule, mid)
        rhs = lam_weight * aggregate(rule, x) + (1 - lam_weight) * aggregate(rule, y)
        assert lhs >= rhs - 1e-10
        bumped = x.copy()
        bumped[1] += 0.7
        assert aggregate(rule, bumped) >= aggregate(rule, x) - 1e-12


# ---------------------------------------------------------------------------
# clearing
# ---------------------------------------------------------------------------

class TestClearingVector:
    def test_no_losses_clears_to_zero(self):
        pi = np.array([[0.0, 0.5], [0.5, 0.0]])
        assert np.all(clearing_vector(pi, np.array([-1.0, -2.0])) == 0.0)

    def test_two_bank_contagion_by_hand(self):
        # y1 = 1 + 0.5 y2, y2 = 0.5 y1  =>  y1 = 4/3, y2 = 2/3
        pi = np.array([[0.0, 0.5], [0.5, 0.0]])
        y = clearing_vector(pi, np.array([1.0, 0.0]))
        assert np.allclose(y, [4.0 / 3.0, 2.0 / 3.0], atol=1e-11)

    def test_fixed_point_residual(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            pi = rng.uniform(0.0, 1.0, (n, n))
            np.fill_diagonal(pi, 0.0)
            pi *= 0.9 / np.maximum(pi.sum(axis=1, keepdims=True), 1e-9)
            x = rng.uniform(-5.0, 5.0, n)
            y = clearing_vector(pi, x)
            assert np.all(y >= 0.0)
            assert np.all(y >= x + pi @ y - 1e-10)
            # on the active set the constraint binds
            active = y > 1e-12
            assert np.allclose(y[active], (x + pi @ y)[active], atol=1e-10)

    def test_monotone_in_losses(self):
        pi = np.array([[0.0, 0.3, 0.3], [0.2, 0.0, 0.4], [0.1, 0.1, 0.0]])
        x = np.array([1.0, -0.5, 0.2])
        y_lo = clearing_vector(pi, x)
        y_hi = clearing_vector(pi, x + np.array([0.5, 0.0, 0.0]))
        assert np.all(y_hi >= y_lo - 1e-12)

    def test_batched_scenarios_match_single_columns_and_reference(self):
        rng = np.random.default_rng(31)
        for n, m in [(2, 7), (5, 300), (9, 600)]:
            pi = rng.uniform(0.0, 1.0, (n, n))
            np.fill_diagonal(pi, 0.0)
            pi *= rng.uniform(0.5, 0.99, (n, 1)) / pi.sum(axis=1, keepdims=True)
            x = rng.normal(0.0, 2.0, (n, m))
            y = clearing_vector(pi, x)
            assert y.shape == x.shape
            for j in range(m):
                np.testing.assert_allclose(y[:, j], clearing_vector(pi, x[:, j]),
                                           rtol=1e-14, atol=1e-14)
                np.testing.assert_allclose(y[:, j], active_set_clearing(pi, x[:, j]),
                                           rtol=1e-12, atol=1e-12)

    def test_exact_near_unit_spectral_radius(self):
        # y1 = 1 + r y2, y2 = r y1  =>  y1 = 1 / (1 - r^2); a Picard iteration
        # stopped on its step size fails to reach this within 100,000 steps
        r = 0.9999
        pi = np.array([[0.0, r], [r, 0.0]])
        y = clearing_vector(pi, np.array([1.0, 0.0]))
        np.testing.assert_allclose(y, [1.0 / (1.0 - r**2), r / (1.0 - r**2)], rtol=1e-12)

    def test_rejects_unit_spectral_radius(self):
        with pytest.raises(ValueError, match="spectral radius"):
            clearing_vector(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([1.0, 0.0]))


def _plain_rounds(pi, x):
    """Fictitious default from {x > 0} with no warm start: each column's round
    solves its own k x k block (as clearing_reference does), the pressure of
    all columns at once."""
    x = x.reshape(x.shape[0], -1)
    active = x > 0.0
    y = np.zeros_like(x)
    todo = np.flatnonzero(active.any(axis=0))
    while todo.size:
        for j in todo:
            idx = np.flatnonzero(active[:, j])
            y[idx, j] = np.linalg.solve(np.eye(idx.size) - pi[np.ix_(idx, idx)], x[idx, j])
        grown = ~active[:, todo] & (x[:, todo] + pi @ y[:, todo] > 0.0)
        active[:, todo] |= grown
        todo = todo[grown.any(axis=0)]
    return np.maximum(y, 0.0)


def _liability_shares(rng, n, diagonal=False):
    """Random pi with row sums spread over 0.5..0.99 (the benchmark's network draw)."""
    pi = rng.uniform(size=(n, n))
    if not diagonal:
        np.fill_diagonal(pi, 0.0)
    return pi / pi.sum(axis=1, keepdims=True) * rng.permutation(np.linspace(0.5, 0.99, n))[:, None]


def _chain(n, share=0.9):
    """pi[k + 1, k] = share: y_k+1 = share * y_k, so a loss at bank 0 takes N - 1 hops."""
    return np.diag(np.full(n - 1, share), -1)


@pytest.mark.parametrize(
    "pi,x",
    [
        (np.array([[0.3]]), np.array([[1.0, -1.0, 0.0, 2.5]])),
        (_liability_shares(np.random.default_rng(1), 5), -np.ones((5, 40))),
        (_liability_shares(np.random.default_rng(2), 6), np.ones((6, 40))),
        (_chain(8), np.r_[np.linspace(0.5, 2.0, 30)[None, :], np.zeros((7, 30))]),
        (_liability_shares(np.random.default_rng(3), 7, diagonal=True),
         np.random.default_rng(4).normal(-0.2, 1.0, (7, 300))),
        (_liability_shares(np.random.default_rng(5), 12),
         np.random.default_rng(6).normal(-0.2, 1.0, (12, 3 * core._CLEARING_BATCH + 17))),
    ],
    ids=["one-bank", "no-defaulter", "all-default", "chain", "pi-diagonal", "many-columns"],
)
def test_warm_start_returns_the_plain_rounds_bits(pi, x):
    y = clearing_vector(pi, x)
    assert np.array_equal(y, _plain_rounds(pi, x))
    if x.shape[1] <= 40:
        for j in range(x.shape[1]):
            assert np.array_equal(y[:, j], clearing_vector(pi, x[:, j]))


def test_clearing_has_the_active_set_reference_bits_column_by_column():
    # one k x k solve per defaulting scenario, as the reference does, so no
    # column may differ in any bit (an N x N padded solve moves the last bits)
    rng = np.random.default_rng(43)
    columns = 0
    for n in range(1, 16):
        for m in (1, 7, 60):
            pi = _liability_shares(rng, n) if n > 1 else np.array([[rng.uniform(0.0, 0.9)]])
            x = rng.normal(-0.2, 1.0, (n, m))
            y = clearing_vector(pi, x)
            for j in range(m):
                assert np.array_equal(y[:, j], active_set_clearing(pi, x[:, j])), (n, m, j)
            columns += m
    assert columns == 15 * 68


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_clearing_rejects_non_finite_losses(bad):
    # a NaN loss must not clear to 0, which EisenbergNoe would read as solvent
    pi = np.array([[0.0, 0.5], [0.5, 0.0]])
    with pytest.raises(ValueError, match="finite losses"):
        clearing_vector(pi, np.array([bad, 1.0]))
    with pytest.raises(ValueError, match="finite losses"):
        aggregate_scenarios(EisenbergNoe(pi), np.array([[-1.0, bad], [0.5, -1.0]]))


def test_warm_start_that_stops_short_still_ends_exact():
    # banks 0 and 1 owe each other 0.99, so y0 = 1 / (1 - 0.99^2) = 50.25; bank 2
    # defaults once 0.01 y0 > 0.3, far beyond the 3 Picard sweeps (y0 <= 1.98)
    pi = np.array([[0.0, 0.99, 0.0], [0.99, 0.0, 0.0], [0.01, 0.0, 0.0]])
    x = np.array([1.0, 0.0, -0.3])
    y = clearing_vector(pi, x)
    y0 = 1.0 / (1.0 - 0.99**2)
    np.testing.assert_allclose(y, [y0, 0.99 * y0, 0.01 * y0 - 0.3], rtol=1e-12)
    assert np.array_equal(y, _plain_rounds(pi, x)[:, 0])


def test_warm_start_solves_about_once_per_defaulting_scenario(monkeypatch):
    rng = np.random.default_rng(17)
    pi = _liability_shares(rng, 12)
    losses = -rng.normal(0.2, 1.0, (12, 800))
    solve, matrices = np.linalg.solve, []

    def counted(a, b):
        matrices.append(a.shape[0])
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counted)
    clearing_vector(pi, losses)
    defaulting = int((losses > 0.0).any(axis=0).sum())
    # fictitious default from {x > 0} alone solves 1.91 per scenario here
    assert sum(matrices) <= 1.05 * defaulting
    assert defaulting > core._CLEARING_BATCH >= max(matrices)


def test_spectral_radius_of_known_matrix():
    a = np.array([[0.0, 0.5], [0.5, 0.0]])
    assert spectral_radius(a) == pytest.approx(0.5, abs=1e-7)


def test_spectral_radius_of_periodic_matrix():
    # a power iteration's Rayleigh quotient oscillates here and reads 0.745
    a = np.array([[0.0, 0.99], [0.5, 0.0]])
    assert spectral_radius(a) == pytest.approx(np.sqrt(0.99 * 0.5), rel=1e-12)


def test_eisenberg_noe_rejects_super_stochastic_rows():
    with pytest.raises(ValueError, match="sum to at most 1"):
        EisenbergNoe(np.array([[0.0, 1.2], [0.0, 0.0]]))


def test_eisenberg_noe_checks_pi_only_at_construction(monkeypatch):
    rng = np.random.default_rng(37)
    pi = _liability_shares(rng, 8)
    x = rng.normal(0.2, 1.0, (8, 300))
    lam = EisenbergNoe(pi)
    expected = -clearing_vector(pi, -x).sum(axis=0)

    def refused(a):
        raise AssertionError("pi was checked again after construction")

    monkeypatch.setattr(np.linalg, "eigvals", refused)
    assert np.array_equal(lam.per_scenario(x), expected)
    assert np.array_equal(aggregate_scenarios(lam, x), expected)
    assert aggregate(lam, x[:, 0]) == expected[0]


def test_eisenberg_noe_pi_cannot_bypass_its_check():
    # pi is checked only at construction, so the instance holds its own
    # read-only copy and refuses reassignment
    rng = np.random.default_rng(41)
    pi = _liability_shares(rng, 6)
    x = rng.normal(0.2, 1.0, (6, 50))
    lam = EisenbergNoe(pi)
    expected = aggregate_scenarios(lam, x)
    with pytest.raises(AttributeError):
        lam.pi = np.array([[0.0, 1.5], [1.5, 0.0]])
    with pytest.raises(ValueError, match="read-only"):
        lam.pi[0, 1] = 1.5
    pi[:] = 0.0
    assert lam.pi.any()
    assert np.array_equal(aggregate_scenarios(lam, x), expected)
    assert np.array_equal(expected, -clearing_vector(lam.pi, -x).sum(axis=0))


@pytest.mark.parametrize(
    "make,field,bad",
    [(ShortfallSum, "d", np.nan), (ExponentialLoss, "alpha", -1.0)],
    ids=["shortfall-d", "exponential-alpha"],
)
def test_checked_aggregation_fields_cannot_bypass_their_check(make, field, bad):
    # each field is checked only at construction, so the instance holds its
    # own read-only copy and refuses reassignment
    rng = np.random.default_rng(47)
    values = rng.uniform(0.5, 1.5, 4)
    x = rng.normal(0.2, 1.0, (4, 30))
    lam = make(values)
    expected = aggregate_scenarios(lam, x)
    with pytest.raises(AttributeError):
        setattr(lam, field, np.full(4, bad))
    with pytest.raises(ValueError, match="read-only"):
        getattr(lam, field)[0] = bad
    values[:] = bad
    assert np.all(np.isfinite(getattr(lam, field)))
    assert np.array_equal(aggregate_scenarios(lam, x), expected)


def test_eisenberg_noe_aggregation_is_nonpositive_and_monotone():
    lam = EisenbergNoe(np.array([[0.0, 0.4], [0.4, 0.0]]))
    x = np.array([[1.0, -3.0], [2.0, -1.0]])
    out = aggregate_scenarios(lam, x)
    assert np.all(out <= 1e-12)
    assert out[0] == 0.0  # nobody short, nothing to clear
    richer = aggregate_scenarios(lam, x + 0.5)
    assert np.all(richer >= out - 1e-12)


# ---------------------------------------------------------------------------
# acceptance criteria and allocation helpers
# ---------------------------------------------------------------------------

class TestAcceptance:
    space = ScenarioSpace(np.array([0.9, 0.1]))

    def test_expectation_floor(self):
        z = np.array([1.0, -5.0])  # E = 0.4
        assert is_acceptable(ExpectationFloor(0.0), self.space, z)
        assert not is_acceptable(ExpectationFloor(0.5), self.space, z)

    @pytest.mark.parametrize("b", [np.nan, np.inf, -np.inf])
    def test_expectation_floor_rejects_a_non_finite_b(self, b):
        with pytest.raises(ValueError, match="finite"):
            ExpectationFloor(b)

    def test_worst_case(self):
        assert is_acceptable(WorstCase(), self.space, np.array([0.0, 0.0]))
        assert not is_acceptable(WorstCase(), self.space, np.array([1.0, -1e-6]))

    def test_expected_shortfall_level_validation(self):
        with pytest.raises(ValueError):
            ExpectedShortfall(level=1.0)

    def test_expected_shortfall_acceptance(self):
        # a rare small loss is outweighed inside the 5% window by the quantile
        rare_loss = ScenarioSpace(np.array([0.01, 0.99]))
        assert is_acceptable(
            ExpectedShortfall(0.05), rare_loss, np.array([-1.0, 100.0])
        )
        # but any negative scenario with mass >= the tail level is decisive
        assert not is_acceptable(
            ExpectedShortfall(0.05), self.space, np.array([-1.0, 100.0])
        )


def test_critical_levels_default_to_zero_and_must_be_finite():
    np.testing.assert_array_equal(critical_levels(None, 3), np.zeros(3))
    np.testing.assert_array_equal(critical_levels([1, -2], 2), [1.0, -2.0])
    for d in ([0.0], 0.5, [0.0, 0.0, 0.0]):
        with pytest.raises(ValueError, match="one entry per institution"):
            critical_levels(d, 2)
    for d in ([np.nan, 0.0], [0.0, np.inf], [-np.inf, 0.0]):
        with pytest.raises(ValueError, match="finite"):
            critical_levels(d, 2)


def test_floor_levels_are_nonpositive_with_minus_inf_for_none():
    from sysrisk.closed_forms import rho_constrained
    from sysrisk.oracle import FloorConstrained

    g = floor_levels([0, -1.5, -np.inf])
    assert g.dtype == float
    np.testing.assert_array_equal(g, [0.0, -1.5, -np.inf])
    np.testing.assert_array_equal(floor_levels([-1, 0], 2), [-1.0, 0.0])
    for bad in (0.0, [[0.0, -1.0]]):
        with pytest.raises(ValueError, match="vector"):
            floor_levels(bad)
    with pytest.raises(ValueError, match="one entry per institution"):
        floor_levels([0.0], 2)
    x = RiskVector(ScenarioSpace(np.array([0.5, 0.5])), np.array([[1.0, -1.0], [2.0, 0.5]]))
    for bad in ([np.nan, 0.0], [0.1, 0.0], [np.inf, 0.0]):
        for check in (lambda g: floor_levels(g, 2), lambda g: rho_constrained(x, g),
                      FloorConstrained):
            with pytest.raises(ValueError, match="<= 0"):
                check(bad)


def _critical_level_callers():
    from sysrisk.closed_forms import rho_ag, rho_constrained, rho_deterministic
    from sysrisk.gaussian_det import optimal_deterministic
    from sysrisk.gaussian_scen import psi_two_state, solve_two_state

    x = RiskVector(ScenarioSpace(np.array([0.5, 0.5])), np.array([[1.0, -1.0], [2.0, 0.5]]))
    system = GaussianSystem(np.zeros(2), np.array([[1.0, -1.5], [-1.5, 9.0]]))
    return {
        "rho_ag": lambda d: rho_ag(x, d=d),
        "rho_deterministic": lambda d: rho_deterministic(x, d),
        "rho_constrained": lambda d: rho_constrained(x, np.zeros(2), d),
        "optimal_deterministic": lambda d: optimal_deterministic(system, 0.7, d),
        "psi_two_state": lambda d: psi_two_state(system, np.ones(2), np.zeros(2), d, 2.0),
        "solve_two_state": lambda d: solve_two_state(system, 0.7, d, 2.0),
    }


@pytest.mark.parametrize("caller", sorted(_critical_level_callers()))
def test_every_solver_rejects_non_finite_critical_levels(caller):
    """One check in core: a NaN level used to print nan (gaussian-det) or
    stall (gaussian-scen)."""
    run = _critical_level_callers()[caller]
    run(None)
    with pytest.raises(ValueError, match="critical levels d must be finite"):
        run([np.nan, 0.0])


def test_allocation_price_requires_constant_totals():
    y = np.array([[1.0, 2.0], [3.0, 2.0]])
    assert allocation_price(y) == 4.0
    with pytest.raises(ValueError, match="varies"):
        allocation_price(np.array([[1.0, 2.0], [3.0, 3.0]]))


def test_allocation_price_of_deterministic_vector():
    assert allocation_price(np.array([1.0, 2.0, 3.0])) == 6.0


def test_rank_by_expected_allocation_breaks_ties_by_index():
    space = ScenarioSpace(np.array([0.5, 0.5]))
    y = np.array([[3.0, 3.0], [2.0, 0.0], [0.0, 2.0]])
    # E[Y] = (3, 1, 1): institutions 1 and 2 tie, the lower index goes first
    assert rank_by_expected_allocation(space, y) == (0, 1, 2)


def test_core_makes_no_relative_import():
    """core sits below every other module: what it runs, the expected-shortfall
    check of is_acceptable included, comes from no solver it is used to check."""
    tree = ast.parse(Path(core.__file__).read_text(encoding="utf-8"))
    relative = [node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level > 0]
    assert relative == []

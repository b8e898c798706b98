"""Numeric optimizer cross-checks against every closed form it shadows.

The optimizer is deliberately independent of the analytic modules: routing
aside, it only trusts feasibility and cost.  These tests tie the two
implementations together.
"""

import ast
import csv
import io
import json
from pathlib import Path

import numpy as np
import pytest

from sysrisk.closed_forms import expected_shortfall, rho_ag, rho_deterministic
from sysrisk import oracle
from sysrisk.cli import fmt, main
from sysrisk.core import (
    ConvergenceError,
    EisenbergNoe,
    ExpectationFloor,
    ExpectedShortfall,
    ExponentialLoss,
    GainLossWeighted,
    InfeasibleError,
    RiskVector,
    ScenarioSpace,
    ShortfallSum,
    Sum,
    WorstCase,
    aggregate_scenarios,
    is_acceptable,
)
from sysrisk.finite_alloc import enumerate_partitions, solve_grouped
from sysrisk.oracle import (
    Deterministic,
    FloorConstrained,
    FullyFlexible,
    Grouped,
    ThetaMap,
    TwoStateParametric,
    allocation_total,
    check_structural_properties,
    check_sum_reduction,
    numeric_rho,
    numeric_rho_family,
    sample_instance,
)

EXP_FLOOR_50 = ExpectationFloor(-50.0)


# ---------------------------------------------------------------------------
# exponential branch vs the grouped closed form


@pytest.mark.parametrize(
    "partition",
    [
        ((0, 1, 2, 3),),
        ((0,), (1,), (2,), (3,)),
        ((0, 2), (1,), (3,)),
        ((0, 1), (2, 3)),
    ],
)
def test_exponential_matches_grouped_solver(four_bank_example, partition):
    x, alphas, gamma = four_bank_example
    analytic = solve_grouped(x, alphas, gamma, partition)
    numeric = numeric_rho(
        x, Grouped(partition), ExponentialLoss(alphas), ExpectationFloor(-gamma)
    )
    assert numeric.rho == pytest.approx(analytic.rho, rel=1e-8, abs=1e-8)
    # allocations only identify where the constraint can see them; deep in
    # the safe region the exponential underflows and any within-group split
    # is numerically optimal, so compare consumption instead of cash
    consume = lambda y: np.exp(-alphas[:, None] * (x.positions + y))
    np.testing.assert_allclose(
        consume(numeric.allocation), consume(analytic.allocation), atol=1e-8
    )
    for block in partition:
        np.testing.assert_allclose(
            numeric.allocation[list(block)].sum(axis=0),
            analytic.allocation[list(block)].sum(axis=0),
            atol=1e-6,
        )


def test_flexible_is_grand_coalition(four_bank_example):
    x, alphas, gamma = four_bank_example
    lam, crit = ExponentialLoss(alphas), ExpectationFloor(-gamma)
    flex = numeric_rho(x, FullyFlexible(), lam, crit)
    grand = numeric_rho(x, Grouped(((0, 1, 2, 3),)), lam, crit)
    assert flex.rho == pytest.approx(grand.rho, rel=1e-10)
    assert flex.rho == pytest.approx(-26.403056761, abs=1e-6)


def test_deterministic_is_all_singletons(four_bank_example):
    x, alphas, gamma = four_bank_example
    lam, crit = ExponentialLoss(alphas), ExpectationFloor(-gamma)
    det = numeric_rho(x, Deterministic(), lam, crit)
    singles = numeric_rho(x, Grouped(((0,), (1,), (2,), (3,))), lam, crit)
    assert det.rho == pytest.approx(singles.rho, rel=1e-10)
    # a deterministic allocation is scenario-constant row by row
    assert float(np.ptp(det.allocation, axis=1).max()) <= 1e-8


def test_random_instances_exponential(small_risk_vector):
    for seed in range(10):
        x, alphas, gamma = sample_instance(seed, low=-30.0, high=30.0)
        partition = tuple((i,) for i in range(x.n))
        analytic = solve_grouped(x, alphas, gamma, partition)
        numeric = numeric_rho(
            x, Grouped(partition), ExponentialLoss(alphas), ExpectationFloor(-gamma)
        )
        assert numeric.rho == pytest.approx(analytic.rho, rel=1e-8, abs=1e-8)


def _criterion_6_partition(seed):
    """The partition the acceptance gate's criterion 6 draws for an instance."""
    rng = np.random.default_rng(2024)
    for s in range(seed + 1):
        x, _, _ = sample_instance(s)
        partitions = list(enumerate_partitions(x.n))
        partition = partitions[int(rng.integers(len(partitions)))]
    return partition


# instances on which the softmax weight sits nearly all on one cell, where a
# Newton step is huge and only the line search keeps it convergent: grouped
# on 18, 49 and 99, fully flexible on 15, 35 and 44
@pytest.mark.parametrize("seed", [15, 18, 35, 44, 49, 99])
def test_exponential_converges_from_concentrated_start(seed):
    x, alphas, gamma = sample_instance(seed)
    lam, crit = ExponentialLoss(alphas), ExpectationFloor(-gamma)
    partition = _criterion_6_partition(seed)
    grouped = numeric_rho(x, Grouped(partition), lam, crit)
    assert grouped.rho == pytest.approx(
        solve_grouped(x, alphas, gamma, partition).rho, rel=1e-8, abs=1e-8
    )
    flex = numeric_rho(x, FullyFlexible(), lam, crit)
    analytic = [solve_grouped(x, alphas, gamma, p).rho for p in enumerate_partitions(x.n)]
    assert flex.rho <= min(analytic) + 1e-8 * max(1.0, abs(min(analytic)))
    assert flex.rho == pytest.approx(
        solve_grouped(x, alphas, gamma, [tuple(range(x.n))]).rho, rel=1e-8, abs=1e-8
    )
    for res in (grouped, flex):
        assert res.diagnostics["converged"]
        assert res.diagnostics["residual"] <= oracle.NEWTON_TOL


def test_exponential_answers_are_acceptable():
    """Criterion 6's instances: "converged" must mean acceptable within ACCEPT_TOL."""
    rng = np.random.default_rng(2024)
    for seed in range(100):
        x, alphas, gamma = sample_instance(seed)
        partitions = list(enumerate_partitions(x.n))
        partition = partitions[int(rng.integers(len(partitions)))]
        # two states from the positions, so the rng draws stay criterion 6's
        totals = x.positions.sum(axis=0)
        indicator = (totals < x.space.probabilities @ totals).astype(float)
        lam, crit = ExponentialLoss(alphas), ExpectationFloor(-gamma)
        for cls in (Grouped(partition), FullyFlexible(), TwoStateParametric(indicator)):
            res = numeric_rho(x, cls, lam, crit)
            z = aggregate_scenarios(lam, x.positions + res.allocation)
            assert is_acceptable(crit, x.space, z), (seed, cls)


@pytest.mark.parametrize("on", [0.0, 1.0], ids=["all-zero", "all-one"])
def test_exponential_two_state_with_constant_indicator_is_deterministic(on):
    """A constant indicator moves no cash between institutions, so the class
    is priced as Deterministic, bit for bit."""
    for seed in range(20):
        x, alphas, gamma = sample_instance(seed)
        lam, crit = ExponentialLoss(alphas), ExpectationFloor(-gamma)
        res = numeric_rho(x, TwoStateParametric(np.full(x.m, on)), lam, crit)
        z = aggregate_scenarios(lam, x.positions + res.allocation)
        assert is_acceptable(crit, x.space, z), seed
        det = numeric_rho(x, Deterministic(), lam, crit)
        assert res.rho == det.rho, seed
        np.testing.assert_array_equal(res.allocation, det.allocation)


def test_exponential_one_institution_leaves_no_free_variable():
    """With one institution every class holds only its cash column, the one
    the branch drops, so rho is the closed form log(E exp(-a X) / budget) / a."""
    x = RiskVector(ScenarioSpace(np.array([0.5, 0.5])), np.array([[1.0, -2.0]]))
    a, budget = 0.3, 5.0
    expected = np.log(x.space.probabilities @ np.exp(-a * x.positions[0]) / budget) / a
    for cls in (Deterministic(), FullyFlexible(), Grouped(((0,),)),
                TwoStateParametric(np.array([1.0, 0.0]))):
        res = numeric_rho(x, cls, ExponentialLoss(np.array([a])), ExpectationFloor(-budget))
        assert res.rho == pytest.approx(expected, rel=1e-12), cls


def test_exponential_raises_when_no_path_converges(four_bank_example, monkeypatch):
    x, alphas, gamma = four_bank_example
    monkeypatch.setattr(oracle, "NEWTON_TOL", -1.0)   # unreachable
    with pytest.raises(ConvergenceError):
        numeric_rho(x, FullyFlexible(), ExponentialLoss(alphas), ExpectationFloor(-gamma))


# ---------------------------------------------------------------------------
# exact worst-case branch


def test_worst_case_sum_closed_form(small_risk_vector):
    res = numeric_rho(small_risk_vector, FullyFlexible(), Sum(), WorstCase())
    expected = -small_risk_vector.positions.sum(axis=0).min()
    assert res.rho == expected
    assert res.diagnostics["method"] == "exact-worst-case"


def test_worst_case_shortfall_deterministic(small_risk_vector):
    d = np.array([1.0, -0.5])
    res = numeric_rho(
        small_risk_vector, Deterministic(), ShortfallSum(d), WorstCase()
    )
    expected = (d[:, None] - small_risk_vector.positions).max(axis=1).sum()
    assert res.rho == expected


def test_worst_case_shortfall_flexible(small_risk_vector):
    d = np.zeros(2)
    res = numeric_rho(
        small_risk_vector, FullyFlexible(), ShortfallSum(d), WorstCase()
    )
    expected = (d[:, None] - small_risk_vector.positions).sum(axis=0).max()
    assert res.rho == expected


def test_worst_case_zero_floors_meet_aggregated_measure(small_risk_vector):
    # cash kept nonnegative can only top institutions up, which is exactly
    # what adding capital after aggregation buys: the two costs coincide
    res = numeric_rho(
        small_risk_vector,
        FloorConstrained(np.zeros(2)),
        ShortfallSum(np.zeros(2)),
        WorstCase(),
    )
    assert res.rho == rho_ag(small_risk_vector, criterion=WorstCase())


def test_worst_case_clearing_equals_zero_shortfall(small_risk_vector):
    pi = np.array([[0.0, 0.4], [0.3, 0.0]])
    a = numeric_rho(
        small_risk_vector, FullyFlexible(), EisenbergNoe(pi), WorstCase()
    )
    b = numeric_rho(
        small_risk_vector, FullyFlexible(), ShortfallSum(np.zeros(2)), WorstCase()
    )
    assert a.rho == b.rho
    assert a.diagnostics["method"] == "exact-worst-case-clearing"


def test_worst_case_sum_with_an_unbounded_floor(small_risk_vector):
    x = small_risk_vector
    floors = np.array([0.0, -np.inf])
    res = numeric_rho(x, FloorConstrained(floors), Sum(), WorstCase())
    y = res.allocation
    assert np.all(np.isfinite(y))
    assert np.all(y >= floors[:, None])
    np.testing.assert_array_equal(y.sum(axis=0), res.rho)
    assert res.rho == -x.positions.sum(axis=0).min()
    assert is_acceptable(WorstCase(), x.space, aggregate_scenarios(Sum(), x.positions + y))


def test_floor_constrained_floors_cannot_bypass_their_check(small_risk_vector):
    # the floors are checked only at construction; a NaN floor written later
    # once gave rho NaN on the ShortfallSum worst-case branch
    x = small_risk_vector
    floors = np.array([-0.5, 0.0])
    cls = FloorConstrained(floors)
    lam = ShortfallSum(np.zeros(2))
    expected = numeric_rho(x, cls, lam, WorstCase())
    with pytest.raises(AttributeError):
        cls.floors = np.array([np.nan, 0.0])
    with pytest.raises(ValueError, match="read-only"):
        cls.floors[0] = np.nan
    floors[:] = np.nan
    res = numeric_rho(x, cls, lam, WorstCase())
    np.testing.assert_array_equal(cls.floors, [-0.5, 0.0])
    assert res.rho == expected.rho
    assert np.array_equal(res.allocation, expected.allocation)


# ---------------------------------------------------------------------------
# exact linear branch


def test_expectation_floor_sum_is_linear(small_risk_vector):
    x = small_risk_vector
    b = -4.0
    res = numeric_rho(x, FullyFlexible(), Sum(), ExpectationFloor(b))
    expected = b - float(x.space.probabilities @ x.positions.sum(axis=0))
    assert res.rho == expected
    assert res.diagnostics["method"] == "exact-linear"
    assert allocation_total(res.allocation) == pytest.approx(res.rho, abs=1e-12)


def test_expectation_floor_sum_with_floors(small_risk_vector):
    x = small_risk_vector
    base = -4.0 - float(x.space.probabilities @ x.positions.sum(axis=0))
    # binding floors push the cost up to their sum
    tight = numeric_rho(
        x, FloorConstrained(np.array([0.0, 0.0])), Sum(), ExpectationFloor(-4.0)
    )
    assert tight.rho == max(base, 0.0)
    assert np.all(tight.allocation >= 0.0)
    # one unconstrained institution absorbs the sink and restores the base cost
    loose = numeric_rho(
        x,
        FloorConstrained(np.array([0.0, -np.inf])),
        Sum(),
        ExpectationFloor(-4.0),
    )
    assert loose.rho == base
    assert np.all(loose.allocation[0] >= 0.0)


# ---------------------------------------------------------------------------
# LP branch (expected shortfall criterion)


def test_expected_shortfall_flexible_reduces_to_sum(small_risk_vector):
    x = small_risk_vector
    res = numeric_rho(x, FullyFlexible(), Sum(), ExpectedShortfall(0.05))
    expected = expected_shortfall(
        x.positions.sum(axis=0), x.space.probabilities, 0.05
    )
    assert res.rho == pytest.approx(expected, abs=1e-6)


def test_class_nesting_orders_costs(small_risk_vector):
    """Deterministic within two-state within fully flexible, so the optimal
    costs must be weakly decreasing along that chain."""
    x = small_risk_vector
    for lam, crit in [
        (Sum(), ExpectedShortfall(0.05)),
        (ExponentialLoss(np.array([0.3, 0.3])), ExpectationFloor(-10.0)),
    ]:
        det = numeric_rho(x, Deterministic(), lam, crit).rho
        two = numeric_rho(
            x, TwoStateParametric(np.array([1.0, 0.0, 0.0])), lam, crit
        ).rho
        flex = numeric_rho(x, FullyFlexible(), lam, crit).rho
        assert flex <= two + 1e-6, lam
        assert two <= det + 1e-6, lam


def test_two_state_allocation_structure(small_risk_vector):
    ind = np.array([1.0, 0.0, 0.0])
    res = numeric_rho(
        small_risk_vector,
        TwoStateParametric(ind),
        ShortfallSum(np.zeros(2)),
        ExpectedShortfall(0.05),
    )
    y = res.allocation
    # off-state columns all agree; on-state column differs by a zero-sum alpha
    np.testing.assert_allclose(y[:, 1], y[:, 2], atol=1e-9)
    alpha = y[:, 0] - y[:, 1]
    assert float(alpha.sum()) == pytest.approx(0.0, abs=1e-8)


# ---------------------------------------------------------------------------
# LP branch on random instances


def _random_classes(rng, n, m):
    floors = np.where(rng.random(n) < 0.5, -np.inf, -rng.uniform(0.0, 50.0, n))
    labels = rng.integers(0, 2, n)
    partition = tuple(tuple(np.flatnonzero(labels == g)) for g in (0, 1) if (labels == g).any())
    indicator = np.zeros(m)
    indicator[rng.choice(m, size=m // 2, replace=False)] = 1.0
    return [Deterministic(), FullyFlexible(), FloorConstrained(floors),
            Grouped(partition), TwoStateParametric(indicator)]


def _clearing_matrix(rng, n):
    pi = rng.uniform(0.0, 1.0, (n, n))
    np.fill_diagonal(pi, 0.0)
    return pi / (pi.sum(axis=1, keepdims=True) * rng.uniform(1.05, 2.0, (n, 1)))


def _lp_instances(count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n, m = int(rng.integers(2, 5)), int(rng.integers(2, 9))
        x, _, _ = sample_instance(int(rng.integers(1 << 30)), n=n, m=m)
        yield rng, x


def test_lp_matches_exact_branches():
    """Worst case with Sum / ShortfallSum / EisenbergNoe and Sum under an
    expectation floor have closed forms; the LP must reproduce them."""
    for rng, x in _lp_instances(10, seed=31):
        n = x.n
        cases = [
            (Sum(), WorstCase()),
            (ShortfallSum(rng.uniform(-5.0, 5.0, n)), WorstCase()),
            (EisenbergNoe(_clearing_matrix(rng, n)), WorstCase()),
            (Sum(), ExpectationFloor(-float(rng.uniform(0.0, 50.0)))),
        ]
        for cls in _random_classes(rng, n, x.m):
            for lam, crit in cases:
                exact = numeric_rho(x, cls, lam, crit)
                assert exact.diagnostics["method"] != "lp"
                lp = oracle._lp_solve(x, cls, lam, crit)
                assert abs(lp.rho - exact.rho) <= 1e-12 * max(1.0, abs(exact.rho)), (cls, lam, crit)


def test_lp_answers_are_acceptable():
    for rng, x in _lp_instances(8, seed=32):
        n = x.n
        alpha = rng.uniform(1.0, 2.0, n)
        aggregations = [
            Sum(),
            ShortfallSum(rng.uniform(-5.0, 5.0, n)),
            GainLossWeighted(alpha, alpha * rng.uniform(0.0, 0.5, n), np.zeros(n)),
            EisenbergNoe(_clearing_matrix(rng, n)),
        ]
        criteria = [ExpectedShortfall(float(rng.uniform(0.05, 0.5))),
                    ExpectationFloor(-float(rng.uniform(0.0, 50.0)))]
        for cls in _random_classes(rng, n, x.m):
            for lam in aggregations:
                for crit in criteria:
                    if isinstance(lam, Sum) and isinstance(crit, ExpectationFloor):
                        continue   # exact-linear
                    res = numeric_rho(x, cls, lam, crit)
                    assert res.diagnostics["method"] == "lp"
                    y = res.allocation
                    z = aggregate_scenarios(lam, x.positions + y)
                    assert is_acceptable(crit, x.space, z), (cls, lam, crit)
                    assert allocation_total(y) == pytest.approx(res.rho, abs=1e-9)
                    if isinstance(cls, FloorConstrained):
                        assert np.all(y >= cls.floors[:, None] - 1e-9)


@pytest.mark.parametrize("seed", range(5))
def test_lp_es_shortfall_grouped_spans_the_class_extremes(seed):
    x, _, _ = sample_instance(seed)
    lam, crit = ShortfallSum(np.zeros(x.n)), ExpectedShortfall(0.2)
    singles = numeric_rho(x, Grouped(tuple((i,) for i in range(x.n))), lam, crit)
    det = numeric_rho(x, Deterministic(), lam, crit)
    assert singles.rho == pytest.approx(det.rho, rel=1e-12, abs=1e-12)
    grand = numeric_rho(x, Grouped((tuple(range(x.n)),)), lam, crit)
    flex = numeric_rho(x, FullyFlexible(), lam, crit)
    assert grand.rho == pytest.approx(flex.rho, rel=1e-12, abs=1e-12)
    assert flex.rho <= det.rho


def test_lp_reports_infeasible(small_risk_vector):
    # shortfalls are never positive, so a positive expected floor is unreachable
    with pytest.raises(InfeasibleError):
        numeric_rho(small_risk_vector, FullyFlexible(), ShortfallSum(np.zeros(2)),
                    ExpectationFloor(1.0))


# ---------------------------------------------------------------------------
# routing refusals


MALFORMED_CLASSES = {
    "short-indicator": (TwoStateParametric(np.array([1.0, 0.0])), "one entry per scenario"),
    "short-floors": (FloorConstrained(np.zeros(1)), "one entry per institution"),
    "partial-partition": (Grouped(((0,),)), "cover every institution"),
}
BRANCHES = {
    "worst-case-shortfall-sum": (ShortfallSum(np.zeros(2)), WorstCase()),
    "worst-case-sum": (Sum(), WorstCase()),
    "floor-sum": (Sum(), ExpectationFloor(-1.0)),
    "lp": (ShortfallSum(np.zeros(2)), ExpectationFloor(-1.0)),
}


@pytest.mark.parametrize("branch", BRANCHES)
@pytest.mark.parametrize("kind", MALFORMED_CLASSES)
def test_class_that_does_not_fit_is_refused_on_every_branch(small_risk_vector, kind, branch):
    """N = 2, M = 3: the class is checked before any branch is chosen."""
    cls, msg = MALFORMED_CLASSES[kind]
    lam, crit = BRANCHES[branch]
    with pytest.raises(ValueError, match=msg):
        numeric_rho(small_risk_vector, cls, lam, crit)


def test_unknown_class_is_refused(small_risk_vector):
    with pytest.raises(TypeError, match="unknown allocation class"):
        numeric_rho(small_risk_vector, object(), Sum(), WorstCase())


@pytest.mark.parametrize("on", [0.0, 1.0], ids=["all-zero", "all-one"])
def test_worst_case_two_state_with_constant_indicator_is_deterministic(small_risk_vector, on):
    lam = ShortfallSum(np.array([1.0, -2.0]))
    two = numeric_rho(small_risk_vector, TwoStateParametric(np.full(3, on)), lam, WorstCase())
    det = numeric_rho(small_risk_vector, Deterministic(), lam, WorstCase())
    assert two.rho == det.rho
    np.testing.assert_array_equal(two.allocation, det.allocation)



def test_exponential_rejects_sign_criteria(small_risk_vector):
    lam = ExponentialLoss(np.array([0.2, 0.3]))
    with pytest.raises(InfeasibleError):
        numeric_rho(small_risk_vector, FullyFlexible(), lam, WorstCase())
    with pytest.raises(InfeasibleError):
        numeric_rho(small_risk_vector, FullyFlexible(), lam, ExpectedShortfall(0.05))
    with pytest.raises(InfeasibleError):
        numeric_rho(small_risk_vector, FullyFlexible(), lam, ExpectationFloor(3.0))


def test_refuses_exponential_loss_with_floors(small_risk_vector):
    lam = ExponentialLoss(np.array([0.2, 0.3]))
    for floors in (np.zeros(2), np.array([-np.inf, -1.0])):
        with pytest.raises(ValueError, match="no exact method"):
            numeric_rho(small_risk_vector, FloorConstrained(floors), lam,
                        ExpectationFloor(-10.0))


def test_exponential_loss_without_a_finite_floor_is_fully_flexible():
    """All floors at -inf leave FullyFlexible's allocation map, so the
    Newton branch gives FullyFlexible's answer to the bit."""
    for seed in range(20):
        x, alphas, gamma = sample_instance(seed)
        lam, crit = ExponentialLoss(alphas), ExpectationFloor(-gamma)
        floored = numeric_rho(x, FloorConstrained(np.full(x.n, -np.inf)), lam, crit)
        flexible = numeric_rho(x, FullyFlexible(), lam, crit)
        assert floored.rho == flexible.rho
        np.testing.assert_array_equal(floored.allocation, flexible.allocation)
        assert floored.diagnostics == flexible.diagnostics


def test_refuses_nonconcave_gain_loss(small_risk_vector):
    lam = GainLossWeighted(np.array([2.0, 2.0]), np.array([0.5, 0.5]), np.array([0.0, 1.0]))
    for crit in (WorstCase(), ExpectedShortfall(0.05), ExpectationFloor(-1.0)):
        with pytest.raises(ValueError, match="not concave"):
            numeric_rho(small_risk_vector, FullyFlexible(), lam, crit)


def test_unbounded_lp_is_reported_as_such(small_risk_vector):
    """beta_1 = 1.5 > alpha_0 = 1: shifting cash from institution 0 to 1 raises
    the aggregate at no cost, so rho is -inf, not a failed solve."""
    lam = GainLossWeighted(np.array([1.0, 2.0]), np.array([0.5, 1.5]), np.zeros(2))
    for cls in (Deterministic(), FullyFlexible()):
        with pytest.raises(ValueError, match="rho is -inf"):
            numeric_rho(small_risk_vector, cls, lam, ExpectationFloor(-1.0))


def test_flexible_beyond_the_old_cap(tmp_path, capsys):
    # FullyFlexible on 8 x 10: (8 - 1) * 10 + 1 = 71 free variables
    positions = np.random.default_rng(3).uniform(-10.0, 10.0, (8, 10)).round(3)
    x = RiskVector(ScenarioSpace(np.full(10, 0.1)), positions)
    # a nonpositive aggregate is accepted by ES exactly when it is zero in
    # every scenario, so rho is the worst scenario's total shortfall
    worst = float((-positions).sum(axis=0).max())
    res = numeric_rho(x, FullyFlexible(), ShortfallSum(np.zeros(8)), ExpectedShortfall(0.2))
    assert res.diagnostics["method"] == "lp"
    assert res.rho == pytest.approx(worst, rel=1e-9)
    src = tmp_path / "oracle.json"
    src.write_text(json.dumps({
        "probabilities": [0.1] * 10,
        "positions": positions.tolist(),
        "class": {"type": "fully-flexible"},
        "aggregation": {"type": "shortfall-sum", "d": [0.0] * 8},
        "acceptance": {"type": "expected-shortfall", "level": 0.2},
    }))
    assert main(["--solver", "oracle", "--input", str(src)]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[1] == ["rho", "", fmt(res.rho)]

    alphas = np.linspace(0.1, 0.4, 8)
    lam, crit = ExponentialLoss(alphas), ExpectationFloor(-20.0)
    flex = numeric_rho(x, FullyFlexible(), lam, crit)
    grand = solve_grouped(x, alphas, 20.0, (tuple(range(8)),))
    assert flex.diagnostics["method"] == "newton-exponential"
    assert flex.rho == pytest.approx(grand.rho, rel=1e-8, abs=1e-8)
    assert is_acceptable(crit, x.space, aggregate_scenarios(lam, positions + flex.allocation))


@pytest.mark.parametrize("shape", [(1, 3), (3, 5), (4, 2)])
@pytest.mark.parametrize("kind", ["deterministic", "flexible", "floors", "grouped", "two-state"])
def test_allocation_map_contract(kind, shape):
    """vec Y = ymap @ v keeps every scenario total at price @ v, and each
    class's own restriction, with the stated number of free variables."""
    n, m = shape
    rng = np.random.default_rng(n * 10 + m)
    partition = ((0,),) if n == 1 else ((0, n - 1),) + tuple((i,) for i in range(1, n - 1))
    indicator = (np.arange(m) % 2).astype(float)
    cls, k = {
        "deterministic": (Deterministic(), n),
        "flexible": (FullyFlexible(), (n - 1) * m + 1),
        "floors": (FloorConstrained(np.full(n, -1.0)), (n - 1) * m + 1),
        "grouped": (Grouped(partition), sum((len(b) - 1) * m + 1 for b in partition)),
        "two-state": (TwoStateParametric(indicator), 2 * n - 1),
    }[kind]
    ymap, price = oracle._allocation_map(cls, n, m)
    assert ymap.shape == (n * m, k) and price.shape == (k,)
    assert np.linalg.matrix_rank(ymap.toarray()) == k      # no idle variable
    v = rng.normal(size=k)
    y = (ymap @ v).reshape(n, m)
    np.testing.assert_allclose(y.sum(axis=0), price @ v, rtol=0, atol=1e-12)
    if kind == "deterministic":
        np.testing.assert_array_equal(y, y[:, :1].repeat(m, axis=1))
    if kind == "grouped":
        for block in partition:
            totals = y[list(block)].sum(axis=0)
            np.testing.assert_allclose(totals, totals[0], rtol=0, atol=1e-12)
    if kind == "two-state":
        on = indicator == 1.0
        np.testing.assert_array_equal(y[:, ~on], y[:, ~on][:, :1].repeat((~on).sum(), axis=1))
        cash = y[:, ~on][:, 0]
        np.testing.assert_allclose((y[:, on] - cash[:, None]).sum(axis=0), 0.0, atol=1e-12)


def test_oracle_does_not_import_closed_forms():
    """The oracle checks the closed forms, so it must not borrow from them;
    from finite_alloc it may take only the partition normalisation."""
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        assert not any("closed_forms" in name for name in names), ast.dump(node)
        if any("finite_alloc" in name for name in names):
            assert [alias.name for alias in node.names] == ["normalize_partition"], (
                ast.dump(node)
            )


# ---------------------------------------------------------------------------
# structural audits


def _exp_rho(x, alphas=(0.3, 0.3), gamma=10.0):
    return numeric_rho(
        x,
        FullyFlexible(),
        ExponentialLoss(np.asarray(alphas)),
        ExpectationFloor(-gamma),
    ).rho


def test_cash_invariance_holds(small_risk_vector):
    """rho(X + v) = rho(X) - sum v for deterministic cash v per institution."""
    base = _exp_rho(small_risk_vector)
    for v in ([1.0, -2.0], [0.5, 0.5], [-3.0, 0.0]):
        shifted = RiskVector(small_risk_vector.space,
                             small_risk_vector.positions + np.array(v)[:, None])
        assert abs(_exp_rho(shifted) - (base - sum(v))) <= 1e-6


def test_sum_reduction_flexible_vs_deterministic(small_risk_vector):
    flex = check_sum_reduction(_exp_rho, small_risk_vector, n_transfers=10)
    assert flex.invariant
    assert flex.max_deviation <= 1e-6

    def det_rho(x):
        return numeric_rho(
            x,
            Deterministic(),
            ExponentialLoss(np.array([0.3, 0.3])),
            ExpectationFloor(-10.0),
        ).rho

    det = check_sum_reduction(det_rho, small_risk_vector, n_transfers=10)
    assert not det.invariant


def test_structural_properties_smoke(small_risk_vector):
    reports = check_structural_properties(
        _exp_rho, small_risk_vector, trials=60, seed=3
    )
    assert [r.property for r in reports] == [
        "monotonicity",
        "quasi-convexity",
        "convexity",
    ]
    for r in reports:
        assert r.trials == 60
        assert r.failures == 0
        assert r.worst_violation <= 1e-6


# ---------------------------------------------------------------------------
# self-financing budget schedules


def test_constant_schedule_recovers_plain_measure(four_bank_example):
    x, alphas, gamma = four_bank_example
    theta = ThetaMap(np.array([-100.0, 200.0]), np.array([gamma, gamma]))
    res = numeric_rho_family(x, FullyFlexible(), ExponentialLoss(alphas), theta)
    assert res.rho == pytest.approx(-26.403056761, abs=1e-6)


def test_increasing_schedule_self_consistency(four_bank_example):
    x, alphas, _ = four_bank_example
    theta = ThetaMap(np.array([-80.0, 120.0]), np.array([20.0, 90.0]))
    res = numeric_rho_family(x, FullyFlexible(), ExponentialLoss(alphas), theta)
    direct = numeric_rho(
        x, FullyFlexible(), ExponentialLoss(alphas), ExpectationFloor(-theta(res.rho))
    )
    # the found level finances exactly the acceptance it induces
    assert direct.rho == pytest.approx(res.rho, abs=1e-6)
    # every level enjoys a budget of at least 20, so the self-consistent
    # cost can never exceed the flat-20 cost
    flat = numeric_rho(
        x, FullyFlexible(), ExponentialLoss(alphas), ExpectationFloor(-20.0)
    )
    assert res.rho <= flat.rho + 1e-9


@pytest.mark.parametrize(
    "levels,budgets,end",
    [
        # theta is flat below -20, and c(-20) = c at budget gamma ~ -26.4 <= -20
        ([-20.0, 100.0], [1.0, 3.0], 0),
        # theta is flat above -50, and c(-50) = c at budget gamma ~ -26.4 > -50
        ([-100.0, -50.0], [0.5, 1.0], -1),
    ],
    ids=["below-first-level", "above-last-level"],
)
def test_schedule_answer_on_a_flat_end_is_one_cost(four_bank_example, monkeypatch,
                                                    levels, budgets, end):
    x, alphas, gamma = four_bank_example
    lam = ExponentialLoss(alphas)
    theta = ThetaMap(np.array(levels), gamma * np.array(budgets))
    calls, probe = [], oracle._rho_of_fitted

    def counted(*args):
        calls.append(args)
        return probe(*args)

    monkeypatch.setattr(oracle, "_rho_of_fitted", counted)
    res = numeric_rho_family(x, FullyFlexible(), lam, theta)
    assert len(calls) <= 2
    direct = numeric_rho(x, FullyFlexible(), lam, ExpectationFloor(-theta(levels[end])))
    assert res.rho == direct.rho
    np.testing.assert_array_equal(res.allocation, direct.allocation)
    assert res.diagnostics["method"] == "family-flat-end"


@pytest.mark.parametrize("seed", range(6))
def test_grouped_family_normalises_its_partition_once(monkeypatch, seed):
    x, alphas, gamma = sample_instance(seed, n=4, low=-30.0, high=30.0)
    rng = np.random.default_rng(seed)
    raw = Grouped(((3, 1), (0,), (2,)))                # normalised: ((0,), (1, 3), (2,))
    lam = ExponentialLoss(alphas)
    levels = np.sort(rng.uniform(-60.0, 60.0, 3))
    theta = ThetaMap(levels, gamma * np.sort(rng.uniform(0.2, 3.0, 3)))
    probe = oracle._rho_of_fitted

    # the behaviour before: every probe checks and normalises the raw class anew
    monkeypatch.setattr(oracle, "_rho_of_fitted",
                        lambda x, cls, *rest: probe(x, oracle._fitted_class(raw, x.n, x.m), *rest))
    before = numeric_rho_family(x, raw, lam, theta)
    monkeypatch.setattr(oracle, "_rho_of_fitted", probe)
    calls, normalize = [], oracle.normalize_partition

    def counted(*args):
        calls.append(args)
        return normalize(*args)

    monkeypatch.setattr(oracle, "normalize_partition", counted)
    res = numeric_rho_family(x, raw, lam, theta)
    assert len(calls) == 1
    assert res.rho == before.rho
    np.testing.assert_array_equal(res.allocation, before.allocation)
    assert res.diagnostics == before.diagnostics


@pytest.mark.parametrize(
    "levels,budgets,msg",
    [
        ([0.0, 0.0], [1.0, 2.0], "strictly increasing"),
        ([0.0, 1.0], [2.0, 1.0], "nondecreasing"),
        ([0.0, 1.0], [0.0, 1.0], "positive"),
        ([0.0], [1.0, 2.0], "equal-length"),
        ([0.0, 1.0], [1.0, np.nan], "finite"),
        ([0.0, 1.0], [1.0, np.inf], "finite"),
        ([np.nan, 1.0], [1.0, 2.0], "finite"),
    ],
)
def test_theta_map_validation(levels, budgets, msg):
    with pytest.raises(ValueError, match=msg):
        ThetaMap(np.array(levels), np.array(budgets))


# ---------------------------------------------------------------------------
# instance sampler


def test_sample_instance_reproducible():
    x1, a1, g1 = sample_instance(123)
    x2, a2, g2 = sample_instance(123)
    np.testing.assert_array_equal(x1.positions, x2.positions)
    np.testing.assert_array_equal(a1, a2)
    assert g1 == g2


def test_sample_instance_ranges():
    for seed in range(20):
        x, alphas, gamma = sample_instance(seed)
        assert 2 <= x.n <= 4 and 2 <= x.m <= 6
        assert x.space.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all((alphas >= 0.05) & (alphas <= 0.5))
        assert 1.0 <= gamma <= 100.0
        assert np.all(np.abs(x.positions) <= 100.0)

"""Grouped exponential allocations on finite scenario spaces."""

import math
import warnings

import numpy as np
import pytest

from sysrisk import finite_alloc
from sysrisk.core import RiskVector, ScenarioSpace, rank_by_expected_allocation
from sysrisk.finite_alloc import (
    MAX_SWEEP_INSTITUTIONS,
    enumerate_partitions,
    group_sweep,
    normalize_partition,
    solve_grouped,
)

SINGLES = [(0,), (1,), (2,), (3,)]
GRAND = [(0, 1, 2, 3)]


@pytest.fixture
def example(four_bank_example):
    return four_bank_example  # (RiskVector, alphas, gamma) = (x, 0.3*ones, 50)


# ---------------------------------------------------------------------------
# partition bookkeeping


@pytest.mark.parametrize("n,bell", [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52)])
def test_partition_counts(n, bell):
    parts = list(enumerate_partitions(n))
    assert len(parts) == bell
    # no duplicates after normalisation
    assert len({normalize_partition(p, n) for p in parts}) == bell


def _restricted_growth_listing(n):
    """Set partitions of range(n) from every restricted-growth string, sorted."""
    strings = [(0,)]
    for _ in range(n - 1):
        strings = [s + (g,) for s in strings for g in range(max(s) + 2)]
    return [
        tuple(tuple(i for i in range(n) if s[i] == g) for g in range(max(s) + 1))
        for s in sorted(strings)
    ]


@pytest.mark.parametrize("n", range(1, 8))
def test_partition_order_is_lexicographic_restricted_growth(n):
    # the criterion-6 tests and the benchmark draw partitions by index
    assert list(enumerate_partitions(n)) == _restricted_growth_listing(n)


def test_partition_enumeration_cap():
    with pytest.raises(ValueError, match="capped"):
        list(enumerate_partitions(MAX_SWEEP_INSTITUTIONS + 1))


def test_normalize_partition_canonical_form():
    assert normalize_partition([(3, 1), (2,), (0,)], 4) == ((0,), (1, 3), (2,))
    # idempotent
    canon = normalize_partition([(2, 0), (1,)], 3)
    assert normalize_partition(canon, 3) == canon


@pytest.mark.parametrize(
    "bad,msg",
    [
        ([(0, 1), (1, 2)], "two groups"),
        ([(0,), (2,)], "cover"),
        ([(0, 1, 2, 5)], "out of range"),
        ([], "cover"),
    ],
)
def test_normalize_partition_rejects_malformed(bad, msg):
    with pytest.raises(ValueError, match=msg):
        normalize_partition(bad, 3)


# ---------------------------------------------------------------------------
# frozen four-institution worked example (alphas all 0.3, budget 50).
# Values taken from the solver at first implementation, 1e-6 guard.

PAIR_CASES = {
    (0, 1): (47.432222955, 74.485427116),
    (0, 2): (-27.567430193, -5.135207233),
    (0, 3): (36.702983729, 63.756187890),
    (1, 2): (-41.838190962, 5.594031995),
    (1, 3): (11.703330577, 63.756534736),
    (2, 3): (20.944967811, 68.377190768),
}


def test_fully_separate_frozen(example):
    x, alphas, gamma = example
    sol = solve_grouped(x, alphas, gamma, SINGLES)
    np.testing.assert_allclose(
        sol.group_constants,
        [36.216111478, 11.216111480, 15.837092681, 11.216111480],
        atol=1e-6,
    )
    assert sol.rho == pytest.approx(74.485427118, abs=1e-6)
    assert sol.lam == pytest.approx(4.0 / 15.0, abs=1e-12)


def test_grand_coalition_frozen(example):
    x, alphas, gamma = example
    sol = solve_grouped(x, alphas, gamma, GRAND)
    assert sol.rho == pytest.approx(-26.403056761, abs=1e-6)


def test_grand_coalition_closed_form(example):
    """Equal alphas make the pooled problem one-dimensional: every member
    holds (S + c) / n after transfers, so the constant follows from a
    single log-moment of the column sums."""
    x, alphas, gamma = example
    a = alphas[0]
    s = x.positions.sum(axis=0)
    mgf = float(x.space.probabilities @ np.exp(-a * s / len(alphas)))
    c = math.log(len(alphas) * mgf / gamma) * len(alphas) / a
    sol = solve_grouped(x, alphas, gamma, GRAND)
    assert sol.rho == pytest.approx(c, rel=1e-10)


@pytest.mark.parametrize("pair", sorted(PAIR_CASES))
def test_pair_partitions_frozen(example, pair):
    x, alphas, gamma = example
    partition = [pair] + [(i,) for i in range(4) if i not in pair]
    sol = solve_grouped(x, alphas, gamma, partition)
    c_ref, rho_ref = PAIR_CASES[pair]
    blocks = dict(zip(sol.partition, sol.group_constants))
    assert blocks[pair] == pytest.approx(c_ref, abs=1e-6)
    assert sol.rho == pytest.approx(rho_ref, abs=1e-6)
    # untouched singletons keep their stand-alone constants
    stand_alone = {0: 36.216111478, 1: 11.216111480, 2: 15.837092681, 3: 11.216111480}
    for i in range(4):
        if i not in pair:
            assert blocks[(i,)] == pytest.approx(stand_alone[i], abs=1e-6)


def test_merged_pair_detail(example):
    x, alphas, gamma = example
    sol = solve_grouped(x, alphas, gamma, [(0, 2), (1,), (3,)])
    np.testing.assert_allclose(
        sol.allocation[0],
        [-76.283715096, 36.216284904, -76.283715096, 36.216284904],
        atol=1e-6,
    )
    np.testing.assert_allclose(
        sol.allocation[2],
        [48.716284904, -63.783715096, 48.716284904, -63.783715096],
        atol=1e-6,
    )
    # members outside the merged block stay scenario-constant
    for i in (1, 3):
        assert np.ptp(sol.allocation[i]) <= 1e-12
    np.testing.assert_allclose(
        sol.expected_allocation,
        [-53.783715096, 11.216111480, 26.216284904, 11.216111480],
        atol=1e-6,
    )


# ---------------------------------------------------------------------------
# structural identities


def _rng_instance(seed, n=4, m=5):
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(m))
    positions = rng.uniform(-40.0, 40.0, size=(n, m)).round(1)
    x = RiskVector(ScenarioSpace(probs), positions)
    alphas = rng.uniform(0.05, 0.6, size=n)
    return x, alphas, rng.uniform(5.0, 80.0)


def test_multiplier_is_weight_sum_over_budget():
    for seed in range(6):
        x, alphas, gamma = _rng_instance(seed)
        beta_total = float(np.sum(1.0 / alphas))
        for partition in ([(0, 1), (2, 3)], [(0, 1, 2, 3)], [(i,) for i in range(4)]):
            sol = solve_grouped(x, alphas, gamma, partition)
            assert sol.lam == pytest.approx(beta_total / gamma, rel=1e-12)


def test_member_budget_shares():
    """Each institution consumes the slice beta_i / beta_N of the budget in
    expectation, no matter how the groups are drawn."""
    for seed in (3, 11):
        x, alphas, gamma = _rng_instance(seed)
        beta = 1.0 / alphas
        w = x.space.probabilities
        for partition in ([(0, 2), (1, 3)], [(0, 1, 2), (3,)]):
            sol = solve_grouped(x, alphas, gamma, partition)
            for i in range(4):
                used = float(
                    w @ np.exp(-alphas[i] * (x.positions[i] + sol.allocation[i]))
                )
                assert used == pytest.approx(
                    gamma * beta[i] / beta.sum(), rel=1e-9
                )


def test_group_totals_scenario_constant(example):
    x, alphas, gamma = example
    sol = solve_grouped(x, alphas, gamma, [(0, 1, 3), (2,)])
    for block, c in zip(sol.partition, sol.group_constants):
        totals = sol.allocation[list(block)].sum(axis=0)
        np.testing.assert_allclose(totals, c, atol=1e-9)
    assert sol.rho == pytest.approx(float(np.sum(sol.group_constants)), abs=1e-12)


def test_within_group_marginals_equalised():
    # scenario by scenario, members of one group see the same marginal
    # utility alpha_i * exp(-alpha_i (x_i + y_i))
    x, alphas, gamma = _rng_instance(17)
    sol = solve_grouped(x, alphas, gamma, [(0, 1, 2), (3,)])
    marg = alphas[:, None] * np.exp(
        -alphas[:, None] * (x.positions + sol.allocation)
    )
    spread = np.ptp(marg[[0, 1, 2]], axis=0) / marg[[0, 1, 2]].mean(axis=0)
    assert float(spread.max()) <= 1e-9


def test_stand_alone_constant_closed_form():
    # singleton blocks admit a one-line formula through the log-moment
    x, alphas, gamma = _rng_instance(29)
    beta = 1.0 / alphas
    sol = solve_grouped(x, alphas, gamma, [(i,) for i in range(4)])
    w = x.space.probabilities
    for i in range(4):
        mgf = float(w @ np.exp(-alphas[i] * x.positions[i]))
        c = math.log(mgf * beta.sum() / (gamma * beta[i])) / alphas[i]
        assert sol.group_constants[i] == pytest.approx(c, rel=1e-10)


def test_coarser_partitions_cost_less(example):
    x, alphas, gamma = example
    rho = lambda p: solve_grouped(x, alphas, gamma, p).rho
    grand = rho(GRAND)
    singles = rho(SINGLES)
    for pair in PAIR_CASES:
        partition = [pair] + [(i,) for i in range(4) if i not in pair]
        mid = rho(partition)
        assert grand <= mid + 1e-9
        assert mid <= singles + 1e-9


def test_refinement_chain_on_random_instances():
    chains = [
        [(0, 1, 2, 3)],
        [(0, 1, 2), (3,)],
        [(0, 1), (2,), (3,)],
        [(0,), (1,), (2,), (3,)],
    ]
    for seed in range(8):
        x, alphas, gamma = _rng_instance(seed + 100)
        costs = [solve_grouped(x, alphas, gamma, p).rho for p in chains]
        assert all(a <= b + 1e-9 for a, b in zip(costs, costs[1:]))


# ---------------------------------------------------------------------------
# sweep and ranking


def test_group_sweep_ordering(example):
    x, alphas, gamma = example
    entries = group_sweep(x, alphas, gamma)
    assert len(entries) == 15
    costs = [e.rho for e in entries]
    assert costs == sorted(costs)
    assert entries[0].partition == ((0, 1, 2, 3),)
    assert entries[0].rho == pytest.approx(-26.403056761, abs=1e-6)
    assert entries[-1].partition == ((0,), (1,), (2,), (3,))


def test_group_sweep_consistent_with_direct_solves(example):
    x, alphas, gamma = example
    for entry in group_sweep(x, alphas, gamma):
        direct = solve_grouped(x, alphas, gamma, entry.partition)
        assert entry.rho == pytest.approx(direct.rho, abs=1e-12)
        np.testing.assert_allclose(
            entry.group_constants, direct.group_constants, atol=1e-12
        )


def test_group_sweep_cap():
    space = ScenarioSpace(np.full(2, 0.5))
    x = RiskVector(space, np.zeros((MAX_SWEEP_INSTITUTIONS + 1, 2)))
    with pytest.raises(ValueError, match="capped"):
        group_sweep(x, np.full(MAX_SWEEP_INSTITUTIONS + 1, 0.3), 50.0)


def _sweep_instance(seed, n, m=5):
    """Drawn like the benchmark's finite instances."""
    rng = np.random.default_rng(seed)
    raw = rng.exponential(1.0, size=m)
    positions = rng.uniform(-100.0, 100.0, size=(n, m))
    x = RiskVector(ScenarioSpace(raw / raw.sum()), positions)
    return x, rng.uniform(0.05, 0.5, size=n), float(rng.uniform(1.0, 100.0))


@pytest.mark.parametrize("n,seed", [(6, 61), (6, 62), (7, 71)])
def test_group_sweep_equals_solve_grouped_exactly(n, seed):
    x, alphas, gamma = _sweep_instance(seed, n)
    entries = group_sweep(x, alphas, gamma)
    direct = [solve_grouped(x, alphas, gamma, p) for p in enumerate_partitions(n)]
    direct.sort(key=lambda s: (s.rho, s.partition))
    assert [e.partition for e in entries] == [s.partition for s in direct]
    assert [e.rho for e in entries] == [s.rho for s in direct]
    for e, s in zip(entries, direct):
        assert e.group_constants.tolist() == s.group_constants.tolist()


def test_group_sweep_solves_each_block_once(monkeypatch):
    # one log-sum-exp per block constant: 2^n - 1 blocks, not one per group of
    # every partition (151 at n = 5)
    calls = []
    real = finite_alloc._logsumexp

    def counted(a):
        calls.append(a)
        return real(a)

    monkeypatch.setattr(finite_alloc, "_logsumexp", counted)
    n = 5
    x, alphas, gamma = _sweep_instance(5, n)
    assert len(group_sweep(x, alphas, gamma)) == 52
    assert len(calls) == 2**n - 1


def _lse_vectors():
    """Seeded vectors of length 1 to 40: spread O(1), all entries equal (the
    log(count) path), tied maxima, spreads of several hundred around 1e4, and
    one entry more than 745 above the rest, whose terms then underflow to 0
    (the rest == 0 path)."""
    rng = np.random.default_rng(1962)
    for m in range(1, 41):
        yield rng.normal(0.0, 1.0, m)
        yield np.full(m, rng.normal(0.0, 100.0))
        yield np.round(rng.normal(0.0, 2.0, m))
        yield rng.uniform(-800.0, 0.0, m) + rng.normal(0.0, 1e4)
        far = rng.normal(0.0, 1.0, m)
        far[rng.integers(m)] += rng.uniform(750.0, 1500.0)
        yield far


def test_logsumexp_matches_50_digit_reference():
    mpmath = pytest.importorskip("mpmath")
    rest_zero = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow, underflow or invalid warnings
        for a in _lse_vectors():
            got = finite_alloc._logsumexp(a)
            with mpmath.workdps(50):
                exact = mpmath.log(mpmath.fsum(mpmath.exp(mpmath.mpf(v)) for v in a.tolist()))
                err = abs(mpmath.mpf(got) - exact)
            # the last step adds the shift a.max(), so the rounding error is
            # bounded in ulps of the larger of the result and the shift
            assert err <= 2 * np.spacing(max(abs(got), abs(a.max()))), (a, got)
            below = a[a < a.max()]
            rest_zero += below.size > 0 and not np.exp(below - a.max()).any()
    assert rest_zero >= 39


@pytest.mark.parametrize(
    "alphas,gamma,msg",
    [
        (np.full(3, 0.3), 50.0, "one entry per institution"),
        (np.array([0.3, 0.0, 0.3, 0.3]), 50.0, "strictly positive"),
        (np.array([0.3, -0.1, 0.3, 0.3]), 50.0, "strictly positive"),
        (np.full(4, 0.3), 0.0, "gamma"),
        (np.full(4, 0.3), -1.0, "gamma"),
        (np.full(4, 0.3), math.nan, "gamma"),
        (np.full(4, 0.3), math.inf, "gamma"),
        (np.array([math.nan, 0.3, 0.3, 0.3]), 50.0, "non-finite"),
        (np.array([math.inf, 0.3, 0.3, 0.3]), 50.0, "non-finite"),
    ],
)
def test_group_sweep_validates_inputs(example, alphas, gamma, msg):
    x, _, _ = example
    with pytest.raises(ValueError, match=msg):
        group_sweep(x, alphas, gamma)
    with pytest.raises(ValueError, match=msg):
        solve_grouped(x, alphas, gamma, [[0, 1, 2, 3]])


def test_group_sweep_nine_institutions():
    x, alphas, gamma = _sweep_instance(9, 9)
    entries = group_sweep(x, alphas, gamma)
    assert len(entries) == 21147   # Bell(9)
    assert entries[0].partition == (tuple(range(9)),)
    assert entries[-1].partition == tuple((i,) for i in range(9))


def test_rank_institutions_frozen(example):
    x, alphas, gamma = example
    sol = solve_grouped(x, alphas, gamma, SINGLES)
    # descending expected allocation; the 11.216 tie breaks by index
    assert rank_by_expected_allocation(x.space, sol.allocation) == (0, 2, 1, 3)

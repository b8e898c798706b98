"""Two-bank scenario-dependent solver: bivariate normal plumbing, the
objective itself, and the balanced-transfer optimum."""

import json
import math

import numpy as np
import pytest
import scipy.special
from scipy.integrate import quad
from scipy.stats import multivariate_normal, norm

from sysrisk import gaussian_scen
from sysrisk.cli import main, parse_sweep, table_1
from sysrisk.core import ConvergenceError, GaussianSystem
from sysrisk.gaussian_det import optimal_deterministic, shortfall_expectation
from sysrisk.gaussian_scen import (
    NEWTON_TOL,
    binorm_cdf,
    psi_two_state,
    solve_two_state,
    solve_two_state_batch,
)
from two_state_reference import (
    log_state_probability,
    psi_reference,
    two_bank_optimum,
)

GAMMA = 0.7
TRIGGER = 2.0


def _system(cov12, sigma2):
    return GaussianSystem(
        np.zeros(2), np.array([[1.0, cov12], [cov12, sigma2**2]])
    )


# ---------------------------------------------------------------------------
# binorm_cdf


def test_binorm_independent_factorises():
    for h in (-2.0, -0.3, 0.0, 0.7, 1.9):
        for k in (-1.5, 0.0, 0.4, 2.2):
            assert binorm_cdf(h, k, 0.0) == pytest.approx(
                norm.cdf(h) * norm.cdf(k), abs=1e-14
            )


@pytest.mark.parametrize("r", [-0.9, -0.5, -0.1, 0.3, 0.5, 0.8])
def test_binorm_origin_closed_form(r):
    # P(Z1 <= 0, Z2 <= 0) = 1/4 + arcsin(r) / (2 pi)
    assert binorm_cdf(0.0, 0.0, r) == pytest.approx(
        0.25 + math.asin(r) / (2.0 * math.pi), abs=1e-13
    )


def test_binorm_matches_scipy():
    rng = np.random.default_rng(42)
    for _ in range(30):
        h, k = rng.uniform(-3, 3, size=2)
        r = rng.uniform(-0.95, 0.95)
        ref = multivariate_normal(mean=[0, 0], cov=[[1, r], [r, 1]]).cdf([h, k])
        assert binorm_cdf(h, k, r) == pytest.approx(ref, abs=1e-9)


def test_binorm_symmetry_and_monotonicity():
    assert binorm_cdf(0.4, -1.1, 0.6) == pytest.approx(
        binorm_cdf(-1.1, 0.4, 0.6), abs=1e-14
    )
    grid = [binorm_cdf(h, 0.5, -0.3) for h in np.linspace(-3, 3, 25)]
    assert all(a <= b + 1e-14 for a, b in zip(grid, grid[1:]))


def test_binorm_perfect_dependence():
    """r = +1 collapses to the min marginal, r = -1 to the overlap."""
    h, k = 0.3, -0.2
    assert binorm_cdf(h, k, 1.0) == pytest.approx(norm.cdf(k), abs=1e-14)
    assert binorm_cdf(h, k, -1.0) == pytest.approx(
        max(norm.cdf(h) + norm.cdf(k) - 1.0, 0.0), abs=1e-14
    )
    # continuity into the limit
    assert binorm_cdf(h, k, 0.999999) == pytest.approx(
        binorm_cdf(h, k, 1.0), abs=1e-5
    )


@pytest.mark.parametrize("h", [-8.5, -7.66, -4.0])
@pytest.mark.parametrize("k,r", [(-8.0, 0.0), (0.2, -0.42), (1.5, 0.6), (-2.0, 0.95)])
def test_binorm_lower_tail_relative_accuracy(h, k, r):
    """Probabilities far below the 1e-12 absolute bound keep their relative
    accuracy: the two orthants below h add up to Phi(h), and with r = 0 the
    CDF factorises."""
    below, above = binorm_cdf(h, k, r), binorm_cdf(h, -k, -r)
    assert below + above == pytest.approx(norm.cdf(h), rel=1e-12, abs=0.0)
    if r == 0.0:
        assert below == pytest.approx(norm.cdf(h) * norm.cdf(k), rel=1e-12, abs=0.0)


def test_binorm_marginal_recovery():
    # sending one argument far out recovers the other marginal
    assert binorm_cdf(9.0, -0.7, 0.4) == pytest.approx(norm.cdf(-0.7), abs=1e-12)
    assert binorm_cdf(1.3, 9.0, -0.6) == pytest.approx(norm.cdf(1.3), abs=1e-12)


def test_binorm_array_contract():
    """Arguments broadcast, scalars give a float, and one array mixing every
    branch equals element-wise calls and the closed forms."""
    grid = binorm_cdf(np.linspace(-2.0, 2.0, 3)[:, None], np.linspace(-1.0, 1.0, 4), 0.3)
    assert grid.shape == (3, 4)
    assert grid[2, 1] == binorm_cdf(2.0, -1.0 / 3.0, 0.3)
    assert type(binorm_cdf(0.1, -0.2, 0.3)) is float
    h = np.array([0.3, 0.3, -9.5, 0.4, -0.4, 1.2, 9.2, math.nan, 0.5, -1.0, -7.9])
    k = np.array([-0.2, -0.2, 0.4, -9.0, 9.5, 0.2, -0.5, 0.3, 0.2, 0.7, 1.1])
    r = np.array([1.0, -1.0, 0.5, -0.2, -0.3, 0.9, 0.0, 0.1, math.nan, 0.6, -0.8])
    got = binorm_cdf(h, k, r)
    np.testing.assert_array_equal(got, [binorm_cdf(*t) for t in zip(h, k, r)])
    closed = [norm.cdf(-0.2), max(norm.cdf(0.3) + norm.cdf(-0.2) - 1.0, 0.0), 0.0, 0.0,
              norm.cdf(-0.4)]
    np.testing.assert_allclose(got[:5], closed, rtol=0.0, atol=1e-16)
    assert got[6] == norm.cdf(-0.5)
    assert np.isnan(got[7:9]).all()
    ref = multivariate_normal(mean=[0, 0], cov=[[1, 0.6], [0.6, 1]]).cdf([-1.0, 0.7])
    assert got[9] == pytest.approx(ref, abs=1e-9)
    with pytest.raises(ValueError):
        binorm_cdf(h, k, np.full(h.shape, 1.01))
    # thousands of panels, integrated in many blocks, give each element's own value
    rng = np.random.default_rng(3)
    h, k, r = rng.uniform(-3, 3, 200), rng.uniform(-3, 3, 200), rng.uniform(-0.99, 0.99, 200)
    np.testing.assert_array_equal(binorm_cdf(h, k, r), [binorm_cdf(*t) for t in zip(h, k, r)])


def _state_triples(seed):
    """(system, i, x, trigger, calm, h, k, r) for each institution and state
    of one random 2-4-bank system, with h uniform on [-8.5, 2]."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    a = rng.normal(size=(n, n)) * rng.uniform(0.3, 2.0, size=n)[:, None]
    system = GaussianSystem(rng.uniform(-1.0, 1.0, n), a @ a.T + 0.05 * np.eye(n))
    sd, sd_s = np.sqrt(np.diag(system.cov)), math.sqrt(system.cov.sum())
    corr = system.cov.sum(axis=1) / (sd * sd_s)
    trigger = system.mu.sum() + sd_s * rng.uniform(-3.0, 3.0)
    for i in range(n):
        for calm in (True, False):
            h, sign = rng.uniform(-8.5, 2.0), -1.0 if calm else 1.0
            x = system.mu[i] + sd[i] * h
            k = sign * (trigger - system.mu.sum()) / sd_s
            yield system, i, x, trigger, calm, h, k, sign * corr[i]


def test_binorm_state_probabilities_relative_accuracy():
    """Against the independent log-domain quadrature of tests/two_state_reference,
    every calm and distress probability from 1 down to 1e-90 on 60 random
    systems is accurate to 2e-12 of its own size."""
    rows = [t for seed in range(60) for t in _state_triples(seed)]
    log_ref = np.array([log_state_probability(*t[:5]) for t in rows])
    h, k, r = np.array([t[5:] for t in rows]).T
    keep = log_ref >= math.log(1e-90)
    assert keep.sum() >= 300 and log_ref[keep].min() < math.log(1e-60)
    got = binorm_cdf(h[keep], k[keep], r[keep])
    assert got == pytest.approx(np.exp(log_ref[keep]), rel=2e-12, abs=0.0)


def _exact_corr_system(r):
    """Two banks with X_1 standard, sd(S) = 1 and corr(X_1, S) = r.  For r =
    +-(1 - m 2^-p) with a short m, r^2, 1 - r^2 and the moments the reference
    reads from the covariance are exact, so the kernel and the reference get
    the same triple even where 1 - r^2 is 3e-5."""
    return GaussianSystem(np.zeros(2), np.array([[1.0, r - 1.0], [r - 1.0, 2.0 * (1.0 - r)]]))


# 92 correlations, |r| = 0 to 0.9999847: the panel cap sets the panels up to
# |r| = 0.6 and the transition rule above; 52 lie in [0.99, 0.99999]
_DENSE_CORR = sorted(sgn * (1.0 - m * 2.0**-p) for p in range(17) for m in (1, 3, 5)
                     if m * 2.0**-p <= 1.0 for sgn in (1.0, -1.0))


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_binorm_dense_relative_accuracy():
    """Against tests/two_state_reference.log_state_probability on a dense grid
    of correlations, h from -8.5 to 2, triggers from -2.5 to 2.5 and both
    states, every probability down to 1e-90 is accurate to 2e-12 of its own
    size.  The reference integrates over X_1, so the grid keeps h <= k, the
    side the kernel integrates over too.  quad reports that it cannot
    certify its 1e-13 on a few far-tail rows; the comparison bounds both."""
    rows = []
    for corr in _DENSE_CORR:
        system = _exact_corr_system(corr)
        assert system.cov.sum() == 1.0 and system.cov[0].sum() == corr
        for h in (-8.5, -7.0, -5.0, -3.0, -1.5, -0.5, 0.5, 2.0):
            for trigger in (-2.5, -1.0, 0.0, 1.0, 2.5):
                for calm in (True, False):
                    k, r = (-trigger, -corr) if calm else (trigger, corr)
                    if h <= k:
                        rows.append((h, k, r, log_state_probability(system, 0, h, trigger, calm)))
    h, k, r, log_ref = np.array(rows).T
    keep = log_ref >= math.log(1e-90)
    near_one = keep & (np.abs(r) >= 0.99)
    assert keep.sum() >= 1000 and near_one.sum() >= 500 and (near_one & (r <= -0.99)).sum() >= 250
    assert log_ref[keep].min() < math.log(1e-80) and h[near_one].min() == -8.5
    got = binorm_cdf(h[keep], k[keep], r[keep])
    assert got == pytest.approx(np.exp(log_ref[keep]), rel=2e-12, abs=0.0)


# ---------------------------------------------------------------------------
# psi_two_state


# (system, m, alpha); two-bank ids are cov12-sigma2-m-alpha
PSI_CASES = [
    pytest.param(_system(-2.4, 3.0), (0.3, 1.5), (2.0, -2.0), id="-2.4-3.0-m0-alpha0"),
    pytest.param(_system(0.9, 2.0), (0.0, 0.8), (-0.6, 0.6), id="0.9-2.0-m1-alpha1"),
    pytest.param(_system(0.0, 1.0), (1.1, -0.2), (0.0, 0.0), id="0.0-1.0-m2-alpha2"),
    pytest.param(
        GaussianSystem(
            np.array([0.5, -0.3, 0.2]),
            np.array([[1.0, 0.3, -0.2], [0.3, 2.25, 0.4], [-0.2, 0.4, 0.64]]),
        ),
        (0.4, 1.1, -0.2), (0.8, -1.1, 0.3), id="3-bank",
    ),
    pytest.param(
        GaussianSystem(
            np.array([-0.4, 0.1, 0.6, 0.0]),
            np.array([
                [1.0, -0.5, 0.2, 0.3],
                [-0.5, 4.0, -1.2, 0.6],
                [0.2, -1.2, 2.25, -0.9],
                [0.3, 0.6, -0.9, 1.44],
            ]),
        ),
        (0.9, 0.2, -0.5, 1.3), (-1.2, 1.5, 0.4, -0.7), id="4-bank",
    ),
]


@pytest.mark.parametrize("system,m,alpha", PSI_CASES)
def test_psi_against_conditional_quadrature(system, m, alpha):
    m, alpha = np.asarray(m), np.asarray(alpha)
    lib = psi_two_state(system, m, alpha, trigger=TRIGGER)
    ref = psi_reference(system, m, alpha, TRIGGER)
    assert lib == pytest.approx(ref, abs=1e-9)


@pytest.mark.parametrize(
    "loadings,trigger",
    [((1.0, -2.0), 0.5), ((1.0, 3.0), 1.0)],
    ids=["antimonotone", "comonotone"],
)
def test_psi_with_perfectly_correlated_banks(loadings, trigger):
    """X = b Z for one standard normal Z, so |corr(X_i, S)| = 1 and the
    covariance has rank 1.  The expected value integrates the shortfall over
    Z piecewise, split where a shortfall starts and at the trigger."""
    b = np.array(loadings)
    m, alpha = np.array([0.3, 1.2]), np.array([0.7, -0.7])
    edge = trigger / b.sum()     # S = b.sum() Z crosses the trigger here

    def shortfall(z):
        y = m + alpha * (b.sum() * z <= trigger)
        return np.maximum(-(b * z + y), 0.0).sum() * norm.pdf(z)

    cuts = [-40.0, *sorted({edge, *(-m / b), *(-(m + alpha) / b)}), 40.0]
    expected = sum(
        quad(shortfall, lo, hi, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
        for lo, hi in zip(cuts, cuts[1:])
    )
    system = GaussianSystem(np.zeros(2), np.outer(b, b))
    assert psi_two_state(system, m, alpha, trigger=trigger) == pytest.approx(
        expected, abs=1e-12
    )


def test_psi_zero_transfer_is_static_shortfall():
    """With no transfer the trigger is irrelevant and the objective is the
    plain sum of marginal shortfalls."""
    system = _system(-1.5, 3.0)
    m = np.array([0.4, 1.2])
    static = sum(
        shortfall_expectation(m[i], 0.0, math.sqrt(system.cov[i, i]))
        for i in range(2)
    )
    for trig in (-1.0, 0.0, 2.0, 5.0):
        assert psi_two_state(system, m, np.zeros(2), trigger=trig) == pytest.approx(
            static, abs=1e-12
        )


def test_psi_decreasing_in_cash():
    system = _system(1.0, 2.0)
    alpha = np.array([0.5, -0.5])
    base = psi_two_state(system, np.array([0.2, 0.2]), alpha, trigger=TRIGGER)
    for bump in (np.array([0.1, 0.0]), np.array([0.0, 0.1])):
        assert (
            psi_two_state(system, np.array([0.2, 0.2]) + bump, alpha, trigger=TRIGGER)
            < base
        )


@pytest.mark.parametrize("d", [[0.0], 0.5, [0.0, 0.0, 0.0]],
                         ids=["length-1", "scalar", "length-3"])
def test_psi_rejects_d_without_one_entry_per_institution(d):
    """psi_two_state validates d as solve_two_state does, instead of
    broadcasting a scalar or length-1 d."""
    system = _system(-1.5, 3.0)
    m, alpha = np.array([0.4, 1.2]), np.array([0.5, -0.5])
    with pytest.raises(ValueError, match="one entry per institution"):
        psi_two_state(system, m, alpha, d, TRIGGER)
    with pytest.raises(ValueError, match="one entry per institution"):
        solve_two_state(system, GAMMA, d, TRIGGER)


# ---------------------------------------------------------------------------
# solve_two_state: frozen optima.  Tuples are (distress_1, distress_2,
# transfer, rho), guarding against regressions at 1e-6.  They were frozen
# from the solver at first implementation, except three transfers (corr 0.8,
# sigma2 5 and 10) that come from the independent derivation in
# two_state_reference: the solver of that time stopped before the calm-state
# probabilities were equal.  Every row is checked against the derivation.

TABLE_WIDE_SPREAD = {
    -0.8: (0.160583028, 1.717996514, 2.877578589, 1.878579542),
    -0.5: (0.290438253, 1.776851819, 2.306790787, 2.067290072),
    0.0: (0.448280268, 1.778962931, 1.730126683, 2.227243198),
    0.5: (0.547834155, 1.748759079, 1.348028995, 2.296593234),
    0.8: (0.575402441, 1.733159045, 1.174122854, 2.308561486),
}

TABLE_SCALE_SWEEP = {
    5.0: (0.317527337, 4.131504618, 3.570435934, 4.449031955),
    10.0: (0.459238094, 11.413754235, 7.198649798, 11.872992329),
}

TABLE_MERGED_UNIT = {
    -0.8: (0.271396284, 0.657315067, 1.261273288, 0.928711351),
    -0.32: (0.291246242, 0.656801071, 0.978594068, 0.948047313),
    0.0: (0.305038053, 0.652685305, 0.848081108, 0.957723358),
    0.32: (0.318131017, 0.647097166, 0.743654418, 0.965228183),
    0.8: (0.334992207, 0.637959230, 0.618562496, 0.972951437),
}

SIGMA2_MERGED = math.sqrt(3.28)

# (cov12, sigma2) of each frozen row
FROZEN_ROWS = {
    **{("wide", c): (c * 3.0, 3.0, TABLE_WIDE_SPREAD[c]) for c in TABLE_WIDE_SPREAD},
    **{("scale", s): (-0.5 * s, s, TABLE_SCALE_SWEEP[s]) for s in TABLE_SCALE_SWEEP},
    **{("merged", c): (c, SIGMA2_MERGED, TABLE_MERGED_UNIT[c]) for c in TABLE_MERGED_UNIT},
}

# every system behind a frozen row or an acceptance reference row: the
# correlation and sigma sweeps, and the merged unit with its keys read both as
# covariances (the frozen rows) and as correlations (the reference table)
REFERENCE_SYSTEMS = sorted(
    {(cov12, sigma2) for cov12, sigma2, _ in FROZEN_ROWS.values()}
    | {(-0.5 * s, s) for s in (1.0, 5.0, 10.0)}
    | {(c * SIGMA2_MERGED, SIGMA2_MERGED) for c in TABLE_MERGED_UNIT}
)

def _check_frozen(system, expected):
    d1, d2, transfer, rho = expected
    sol = solve_two_state(system, GAMMA, trigger=TRIGGER)
    assert sol.converged
    assert sol.residual <= NEWTON_TOL
    assert sol.distress_allocation[0] == pytest.approx(d1, abs=1e-6)
    assert sol.distress_allocation[1] == pytest.approx(d2, abs=1e-6)
    assert sol.transfer_size == pytest.approx(transfer, abs=1e-6)
    assert sol.rho == pytest.approx(rho, abs=1e-6)
    return sol


@pytest.mark.parametrize("corr", sorted(TABLE_WIDE_SPREAD))
def test_frozen_wide_spread(corr):
    sol = _check_frozen(_system(corr * 3.0, 3.0), TABLE_WIDE_SPREAD[corr])
    # balanced transfer, scenario-constant total
    assert sol.alpha.sum() == pytest.approx(0.0, abs=1e-9)
    assert sol.rho == sol.m.sum()


@pytest.mark.parametrize("sigma2", sorted(TABLE_SCALE_SWEEP))
def test_frozen_scale_sweep(sigma2):
    _check_frozen(_system(-0.5 * sigma2, sigma2), TABLE_SCALE_SWEEP[sigma2])


@pytest.mark.parametrize("cov12", sorted(TABLE_MERGED_UNIT))
def test_frozen_merged_unit(cov12):
    _check_frozen(_system(cov12, SIGMA2_MERGED), TABLE_MERGED_UNIT[cov12])


@pytest.mark.parametrize(
    "row", sorted(FROZEN_ROWS), ids=[f"{table}-{key:g}" for table, key in sorted(FROZEN_ROWS)]
)
def test_frozen_rows_match_independent_derivation(row):
    cov12, sigma2, (d1, d2, transfer, rho) = FROZEN_ROWS[row]
    ref = two_bank_optimum(cov12, sigma2, GAMMA, TRIGGER)
    assert ref.distress[0] == pytest.approx(d1, abs=1e-6)
    assert ref.distress[1] == pytest.approx(d2, abs=1e-6)
    assert ref.transfer == pytest.approx(transfer, abs=1e-6)
    assert ref.rho == pytest.approx(rho, abs=1e-6)


@pytest.mark.parametrize(
    "cov12,sigma2", REFERENCE_SYSTEMS, ids=[f"{c:.4g}-{s:.4g}" for c, s in REFERENCE_SYSTEMS]
)
def test_solver_matches_independent_derivation(cov12, sigma2):
    sol = solve_two_state(_system(cov12, sigma2), GAMMA, trigger=TRIGGER)
    ref = two_bank_optimum(cov12, sigma2, GAMMA, TRIGGER)
    assert sol.converged
    assert sol.transfer_size == pytest.approx(ref.transfer, abs=1e-6)
    np.testing.assert_allclose(sol.distress_allocation, ref.distress, atol=1e-6)
    np.testing.assert_allclose(sol.calm_allocation, ref.calm, atol=1e-6)
    assert sol.rho == pytest.approx(ref.rho, abs=1e-6)


# systems on which the solver once met NEWTON_TOL, or stalled just above it,
# with calm-state probabilities still unequal: (cov, gamma, trigger).  The
# first three are the benchmark's gaussian probe (a grid point at corr 0.8,
# sigma2 3, budget 0.3 of sum(sigma)/sqrt(2 pi), and two points near it).
UNEQUAL_CALM_SYSTEMS = [
    ([[1.0, 2.4], [2.4, 9.0]], 1.2 / math.sqrt(2.0 * math.pi), 2.0),
    ([[1.0, 2.424714025837647], [2.424714025837647, 9.21309112694474]],
     0.4284945099623808, 1.944186577954893),
    ([[1.0, 1.745137960580508], [1.745137960580508, 4.967772845989245]],
     0.3391057945830038, 2.1965231141941666),
    ([[1.0, 2.4], [2.4, 9.0]], GAMMA, TRIGGER),
    ([[1.0, -5.0], [-5.0, 100.0]], GAMMA, TRIGGER),
]


@pytest.mark.parametrize(
    "cov,gamma,trigger",
    UNEQUAL_CALM_SYSTEMS,
    ids=["probe-grid", "probe-near-1", "probe-near-2", "corr-0.8", "sigma2-10"],
)
def test_calm_probabilities_equal_at_the_optimum(cov, gamma, trigger):
    """The optimum equalises P(X_i < d_i - m_i, S > trigger) across banks,
    however small (down to 1e-14 here); checked with the independent
    quadrature, in log terms."""
    system = GaussianSystem(np.zeros(2), np.array(cov))
    sol = solve_two_state(system, gamma, trigger=trigger)
    assert sol.converged
    assert sol.residual <= NEWTON_TOL
    log_calm = [
        log_state_probability(system, i, -sol.m[i], trigger, calm=True)
        for i in range(2)
    ]
    log_tail = [
        log_state_probability(system, i, -sol.distress_allocation[i], trigger, calm=False)
        for i in range(2)
    ]
    # each row of the first-order system is met to NEWTON_TOL; 1e-10 covers
    # the quadrature's own error
    tol = NEWTON_TOL + 1e-10
    assert log_calm[0] == pytest.approx(log_calm[1], abs=tol)
    assert math.exp(log_tail[0]) == pytest.approx(math.exp(log_tail[1]), abs=tol)
    assert psi_reference(system, sol.m, sol.alpha, trigger) == pytest.approx(gamma, abs=tol)


def test_missed_tolerance_raises(monkeypatch):
    """A solve that has not met NEWTON_TOL within NEWTON_MAX_ITER steps raises
    instead of returning an answer a caller could miss."""
    system = _system(0.0, 3.0)
    assert solve_two_state(system, GAMMA, trigger=TRIGGER).iterations > 1
    monkeypatch.setattr(gaussian_scen, "NEWTON_MAX_ITER", 1)
    with pytest.raises(ConvergenceError):
        solve_two_state(system, GAMMA, trigger=TRIGGER)


@pytest.mark.parametrize("corr", sorted(TABLE_WIDE_SPREAD))
def test_one_evaluation_per_iterate(corr, monkeypatch):
    """Work budget: each iterate is one exact evaluation, one bivariate CDF
    call carrying two values per institution, and these solves take full
    Newton steps, so a solve makes iterations + 1 calls of 2N triples each.
    Finite differences, line-search retries, a separate budget pass or a
    call per institution would show here."""
    sizes = []

    def counted(h, k, r):
        sizes.append(np.size(h))
        return binorm_cdf(h, k, r)

    monkeypatch.setattr(gaussian_scen, "binorm_cdf", counted)
    system = _system(corr * 3.0, 3.0)
    sol = solve_two_state(system, GAMMA, trigger=TRIGGER)
    assert len(sizes) == sol.iterations + 1
    assert sum(sizes) == 2 * system.n * (sol.iterations + 1)


def test_kernel_nodes_per_triple_on_table_1(monkeypatch):
    """Work budget of the kernel: on the table-1 solves (corr(X_i, S) from
    0.19 to 0.99) ``binorm_cdf`` evaluates Phi at 231 nodes per triple, about
    7 panels of 32.  Panels capped at width 0.5 took 536."""
    real_ndtr = scipy.special.ndtr
    counts = {"nodes": 0, "triples": 0, "inside": False}

    def ndtr(x, *args, **kwargs):
        if counts["inside"]:
            counts["nodes"] += np.size(x)
        return real_ndtr(x, *args, **kwargs)

    def counted(h, k, r):
        counts["triples"] += np.broadcast(h, k, r).size
        counts["inside"] = True
        try:
            return binorm_cdf(h, k, r)
        finally:
            counts["inside"] = False

    monkeypatch.setattr(scipy.special, "ndtr", ndtr)
    monkeypatch.setattr(gaussian_scen, "binorm_cdf", counted)
    table_1()
    assert counts["triples"] == 100
    assert counts["nodes"] <= 232 * counts["triples"]


def _counted_solves(monkeypatch, run):
    """(binorm_cdf call count, triples passed) while ``run()`` runs."""
    sizes = []

    def counted(h, k, r):
        sizes.append(np.size(h))
        return binorm_cdf(h, k, r)

    monkeypatch.setattr(gaussian_scen, "binorm_cdf", counted)
    run()
    monkeypatch.setattr(gaussian_scen, "binorm_cdf", binorm_cdf)
    return len(sizes), sum(sizes)


def test_sweep_batch_makes_one_call_per_round(monkeypatch, tmp_path):
    """Work budget of a batched sweep: each Newton round is one bivariate CDF
    call for every point still iterating, so a 37-point sweep makes as many
    calls as its longest single solve, and carries exactly the triples the
    37 single solves carry between them."""
    model = {"mu": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 2.2**2]], "gamma": 0.6, "trigger": 1.3}
    src = tmp_path / "model.json"
    src.write_text(json.dumps(model))
    argv = ["--solver", "gaussian-scen", "--input", str(src),
            "--sweep", "correlation:-0.9:0.9:0.05", "--out", str(tmp_path / "out.csv")]
    codes = []
    calls, triples = _counted_solves(monkeypatch, lambda: codes.append(main(argv)))
    assert codes == [0]
    _, values = parse_sweep("correlation:-0.9:0.9:0.05")
    alone = [
        _counted_solves(monkeypatch, lambda c=c: solve_two_state(_system(c * 2.2, 2.2), 0.6,
                                                                 trigger=1.3))
        for c in values
    ]
    assert len(alone) == 37
    assert calls == max(n for n, _ in alone)
    assert triples == sum(t for _, t in alone)


def test_equal_marginals_need_no_transfer():
    """Identical marginal laws leave nothing to reshuffle: the optimum sits
    on the deterministic solution with a vanishing transfer."""
    system = _system(-0.5, 1.0)
    sol = solve_two_state(system, GAMMA, trigger=TRIGGER)
    det = optimal_deterministic(system, GAMMA)
    assert sol.transfer_size <= 1e-3
    assert sol.rho == pytest.approx(det.rho, abs=1e-6)
    np.testing.assert_allclose(sol.m, det.m, atol=1e-3)


def test_certain_distress_recovers_deterministic_cost():
    # trigger far above any plausible sum: the transfer state is almost
    # sure, so splitting cash between m and alpha buys nothing
    system = _system(-1.5, 3.0)
    det = optimal_deterministic(system, GAMMA)
    sol = solve_two_state(system, GAMMA, trigger=40.0)
    assert sol.converged
    assert sol.rho == pytest.approx(det.rho, abs=1e-9)
    # the calm state's probability is zero in floating point, so the split
    # is not identified and the solver keeps the deterministic allocation
    assert sol.transfer_size == 0.0
    np.testing.assert_array_equal(sol.m, det.m)


def test_budget_binds_and_cheaper_is_infeasible():
    system = _system(1.5, 3.0)
    sol = solve_two_state(system, GAMMA, trigger=TRIGGER)
    at_opt = psi_two_state(system, sol.m, sol.alpha, trigger=TRIGGER)
    assert at_opt == pytest.approx(GAMMA, abs=NEWTON_TOL)
    # shaving the total uniformly must push the shortfall past the budget
    cheaper = psi_two_state(system, sol.m - 5e-4, sol.alpha, trigger=TRIGGER)
    assert cheaper > GAMMA


def test_budget_above_the_deterministic_cash_out_point():
    """gamma 2 exceeds sum(sigma) / sqrt(2 pi) ~ 1.596, so the deterministic
    start takes cash out (R > 0); the two-state solve still meets the budget
    and matches the independent two-bank derivation."""
    system = _system(-1.5, 3.0)
    det = optimal_deterministic(system, 2.0)
    assert det.r_star > 0.0
    sol = solve_two_state(system, 2.0, trigger=TRIGGER)
    assert sol.rho == pytest.approx(-0.99329, abs=1e-5)
    assert sol.rho <= det.rho
    assert sol.rho == pytest.approx(two_bank_optimum(-1.5, 3.0, gamma=2.0).rho, abs=1e-8)
    assert psi_two_state(system, sol.m, sol.alpha, trigger=TRIGGER) == pytest.approx(
        2.0, abs=1e-10
    )


def test_first_order_certificates():
    """Finite-difference stationarity at the reported optimum: equal
    marginal pressure across institutions, a flat ridge along the
    balanced-transfer direction, and a multiplier consistent with the
    budget gradient."""
    system = _system(1.5, 3.0)
    sol = solve_two_state(system, GAMMA, trigger=TRIGGER)
    h = 1e-5

    def psi_at(dm1=0.0, dm2=0.0, da=0.0):
        return psi_two_state(
            system,
            sol.m + np.array([dm1, dm2]),
            sol.alpha + np.array([da, -da]),
            trigger=TRIGGER,
        )

    g1 = (psi_at(dm1=h) - psi_at(dm1=-h)) / (2 * h)
    g2 = (psi_at(dm2=h) - psi_at(dm2=-h)) / (2 * h)
    ridge = (psi_at(da=h) - psi_at(da=-h)) / (2 * h)
    assert g1 == pytest.approx(g2, abs=1e-6)
    assert abs(ridge) <= 1e-6
    assert sol.lam * g1 == pytest.approx(1.0, abs=1e-5)
    assert sol.lam < 0


def test_solution_record_fields():
    sol = solve_two_state(_system(0.0, 2.0), GAMMA, trigger=TRIGGER)
    np.testing.assert_array_equal(sol.calm_allocation, sol.m)
    np.testing.assert_allclose(
        sol.distress_allocation, sol.m + sol.alpha, atol=0
    )
    assert sol.gamma == GAMMA
    assert sol.trigger == TRIGGER
    np.testing.assert_array_equal(sol.d, np.zeros(2))
    assert sol.iterations >= 1
    assert sol.transfer_size == pytest.approx(abs(sol.alpha[0]), abs=0)


def test_interpolates_between_book_ends():
    # scenario-dependent cost is sandwiched between the pooled floor and
    # the deterministic cost for every correlation
    for corr in (-0.7, -0.2, 0.3, 0.9):
        system = _system(corr * 3.0, 3.0)
        det = optimal_deterministic(system, GAMMA)
        sol = solve_two_state(system, GAMMA, trigger=TRIGGER)
        assert sol.rho <= det.rho + 1e-9


# ---------------------------------------------------------------------------
# solve_two_state_batch: every system follows its own iterates, to the bit


def _same_outcome(batched, alone):
    """Bit-identical answers, or the same error with the same message."""
    if isinstance(alone, Exception):
        assert type(batched) is type(alone)
        assert str(batched) == str(alone)
        return
    assert np.array_equal(batched.m, alone.m)
    assert np.array_equal(batched.alpha, alone.alpha)
    assert batched.rho == alone.rho
    assert batched.lam == alone.lam or (math.isnan(batched.lam) and math.isnan(alone.lam))
    assert batched.residual == alone.residual
    assert batched.iterations == alone.iterations


def _solve_alone(problem):
    try:
        return solve_two_state(*problem)
    except (ConvergenceError, ValueError) as exc:
        return exc


def _assert_batch_is_each_alone(problems):
    outcomes = solve_two_state_batch(problems)
    assert len(outcomes) == len(problems)
    for problem, outcome in zip(problems, outcomes):
        _same_outcome(outcome, _solve_alone(problem))
    return outcomes


GRID = np.arange(37)
SWEEPS = {    # the 37 points of a gaussian-scen sweep of each parameter
    "correlation": [(_system(c * 2.2, 2.2), 0.6, None, 1.3) for c in -0.9 + 0.05 * GRID],
    "gamma": [(_system(-1.5, 3.0), g, None, TRIGGER) for g in 0.1 + 0.05 * GRID],
    "trigger": [(_system(-1.5, 3.0), GAMMA, None, t) for t in -3.0 + 0.25 * GRID],
}
# the 13 cases of tables 1-3, with table 3's keys read as covariances
TABLE_CASES = (
    [(_system(c * 3.0, 3.0), GAMMA, None, TRIGGER) for c in sorted(TABLE_WIDE_SPREAD)]
    + [(_system(-0.5 * s, s), GAMMA, None, TRIGGER) for s in (1.0, 5.0, 10.0)]
    + [(_system(c, SIGMA2_MERGED), GAMMA, None, TRIGGER) for c in sorted(TABLE_MERGED_UNIT)]
)


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_batched_sweep_is_each_point_alone(name):
    outcomes = _assert_batch_is_each_alone(SWEEPS[name])
    # the points stop at different rounds, so the lockstep really shrinks
    assert len({sol.iterations for sol in outcomes}) > 1


def test_batched_tables_are_each_case_alone():
    assert len(TABLE_CASES) == 13
    _assert_batch_is_each_alone(TABLE_CASES)


def _random_problem(seed):
    """A seeded random system of 2, 3 or 4 banks (by seed), with its budget,
    trigger and, for every fourth seed, critical levels."""
    rng = np.random.default_rng([2014, seed])
    n = 2 + seed % 3
    a = rng.normal(size=(n, n)) * rng.uniform(0.3, 2.0, size=n)[:, None]
    system = GaussianSystem(rng.uniform(-1.0, 1.0, n), a @ a.T + 0.05 * np.eye(n))
    gamma = rng.uniform(0.2, 0.7) * float(np.sqrt(np.diag(system.cov)).sum()) / math.sqrt(2 * math.pi)
    trigger = float(system.mu.sum()) + rng.uniform(-1.5, 0.5) * math.sqrt(system.cov.sum())
    d = rng.uniform(-0.5, 0.5, n) if seed % 4 == 0 else None
    return system, gamma, d, trigger


RANDOM_PROBLEMS = [_random_problem(seed) for seed in range(60)]


@pytest.mark.parametrize("n", [2, 3, 4, "mixed"])
def test_batched_random_systems_are_each_alone(n):
    """60 seeded random 2-4-bank systems, batched by N and all together (the
    batch groups them by N itself)."""
    problems = [p for p in RANDOM_PROBLEMS if n == "mixed" or p[0].n == n]
    outcomes = _assert_batch_is_each_alone(problems)
    if n != "mixed":
        assert len(problems) == 20
        assert len({o.iterations for o in outcomes if not isinstance(o, Exception)}) > 1


@pytest.mark.parametrize("n", [2, 3, 4, 9])
def test_batched_evaluation_and_step_match_each_row(n):
    """The batch axis moves no bit of an evaluation or a Newton step: the row
    sums (the budget and the last transfer) and the stacked linear solve give
    each system what it gets alone.  N = 9 puts both sums past numpy's
    eight-wide pairwise summation blocks."""
    rng = np.random.default_rng([99, n])
    geos, zs = [], []
    for _ in range(6):
        a = rng.normal(size=(n, n))
        system = GaussianSystem(rng.normal(0.0, 0.5, n), a @ a.T / n + 0.3 * np.eye(n))
        geos.append(gaussian_scen._JointGeometry.of(system, float(rng.uniform(-1.0, 1.0))))
        zs.append(np.concatenate([rng.uniform(0.0, 2.0, n), rng.normal(0.0, 0.3, n - 1)]))
    d, gamma, z = rng.uniform(-0.5, 0.5, (6, n)), rng.uniform(0.2, 1.0, 6), np.array(zs)
    res, jac, short = gaussian_scen._evaluate(
        gaussian_scen._JointGeometry.stack(geos), d, gamma, z
    )
    step = gaussian_scen._newton_step(jac, res)
    for i, geo in enumerate(geos):
        one = gaussian_scen._evaluate(geo, d[i:i + 1], gamma[i:i + 1], z[i:i + 1])
        assert np.array_equal(res[i], one[0][0])
        assert np.array_equal(jac[i], one[1][0])
        assert short[i] == one[2][0]
        assert np.array_equal(step[i], np.linalg.solve(jac[i], -res[i]))


# the 3-bank system on which Newton stalls (CHANGES.md FOUND): the second step
# lowers the log rows but sends the budget residual to 14.7
STALLING = (
    GaussianSystem(
        np.array([0.381, 0.431, 0.37]),
        np.array([[19.699, 7.288, -5.297], [7.288, 3.117, -2.349], [-5.297, -2.349, 1.896]]),
    ),
    0.3913, None, 2.131,
)
# a rank-one 2-bank system whose first Jacobian is exactly singular
SINGULAR = (GaussianSystem(np.zeros(2), np.outer([1.0, -2.0], [1.0, -2.0])), 0.6, None, -0.5)


def test_a_failing_system_leaves_the_others_alone():
    """A stall, a singular Jacobian in the stacked solve and a rejected input
    each fail only their own system, with the error they raise alone; the
    healthy systems beside them give their single-solve answers."""
    with pytest.raises(ConvergenceError, match="stalled at residual 14.7") as stalled:
        solve_two_state(*STALLING)
    with pytest.raises(ConvergenceError, match="singular") as singular:
        solve_two_state(*SINGULAR)
    healthy3 = [p for p in RANDOM_PROBLEMS if p[0].n == 3][:4]
    healthy2 = [p for p in RANDOM_PROBLEMS if p[0].n == 2][:4]
    bad_gamma = (healthy2[0][0], -0.5, None, 1.0)
    problems = healthy3[:2] + [STALLING] + healthy3[2:] + healthy2[:2] + [SINGULAR, bad_gamma]
    problems += healthy2[2:]
    outcomes = _assert_batch_is_each_alone(problems)
    assert str(outcomes[2]) == str(stalled.value)
    assert str(outcomes[7]) == str(singular.value)
    assert isinstance(outcomes[8], ValueError)
    assert all(isinstance(outcomes[i], gaussian_scen.TwoStateSolution)
               for i in (0, 1, 3, 4, 5, 6, 9, 10))


def test_batched_step_cap_is_each_system_alone(monkeypatch):
    """Under a cap of 3 Newton steps, the table systems that need more raise
    the cap's error and the others finish, each as alone."""
    monkeypatch.setattr(gaussian_scen, "NEWTON_MAX_ITER", 3)
    outcomes = _assert_batch_is_each_alone(TABLE_CASES)
    capped = [o for o in outcomes if isinstance(o, ConvergenceError)]
    assert capped and len(capped) < len(outcomes)
    assert all("reached 3 steps" in str(o) for o in capped)

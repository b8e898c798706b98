"""Ornstein-Uhlenbeck lending-network moments: closed forms, the exact
eigenbasis and matrix-exponential routes against independent references,
large-N series, and the path simulator."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from sysrisk.core import GaussianSystem
from sysrisk.ou_network import (
    _CHUNK,
    CentralClearingMoments,
    NetworkModel,
    central_clearing_moments,
    heterogeneous_covariance,
    homogeneous_variance,
    simulate_paths,
    three_bank_example,
)

P, SIGMA, SIGMA_C, RHO, RHO_C, T = 1.3, 1.0, 0.5, 0.3, 0.6, 2.0


def _complete_graph_model(p, sigma, rho, n, x0=None):
    rates = p / n * (np.ones((n, n)) - np.eye(n))
    return NetworkModel(
        rates=rates,
        sigma=np.full(n, sigma),
        rho_common=np.full(n, rho),
        x0=np.zeros(n) if x0 is None else x0,
    )


# ---------------------------------------------------------------------------
# homogeneous closed form


def test_homogeneous_frozen_value():
    assert homogeneous_variance(1.3, 1.2, 0.4, 10, 2.0) == pytest.approx(
        1.119117864350, abs=1e-10
    )


def test_homogeneous_no_lending_is_brownian():
    # p = 0 decouples the institutions entirely
    for sigma, t in [(1.2, 2.0), (0.7, 5.0)]:
        assert homogeneous_variance(0.0, sigma, 0.5, 8, t) == sigma**2 * t


def test_homogeneous_fast_lending_pools_balances():
    """As p grows the balances collapse onto their average, whose variance
    only keeps the common factor plus the 1/n idiosyncratic residue."""
    n, sigma, rho, t = 10, 1.2, 0.4, 2.0
    pooled = sigma**2 * t * (1.0 + (n - 1) * rho**2) / n
    assert homogeneous_variance(1e8, sigma, rho, n, t) == pytest.approx(
        pooled, rel=1e-6
    )
    # p = inf is the limit itself, also at t = 0, where p * t alone would be NaN
    assert homogeneous_variance(math.inf, sigma, rho, n, t) == pytest.approx(pooled, rel=1e-14)
    assert homogeneous_variance(math.inf, sigma, rho, n, 0.0) == 0.0


def test_homogeneous_interpolates_monotonically():
    vals = [homogeneous_variance(p, 1.0, 0.3, 6, 1.5) for p in (0.0, 0.5, 2.0, 10.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_homogeneous_matches_general_solver():
    # complete graph with pairwise rate p/n is the homogeneous special case
    for n, p, sigma, rho, t in [(4, 1.3, 1.2, 0.4, 2.0), (7, 0.6, 0.9, -0.5, 3.5)]:
        model = _complete_graph_model(p, sigma, rho, n)
        cov = heterogeneous_covariance(model, t).cov
        target = homogeneous_variance(p, sigma, rho, n, t)
        np.testing.assert_allclose(np.diag(cov), target, atol=1e-12)
        # exchangeability: every off-diagonal entry coincides too
        off = cov[~np.eye(n, dtype=bool)]
        assert np.ptp(off) <= 1e-12


def _van_loan_moments(model, t):
    """Mean and covariance by Van Loan's augmented exponential (1978).

    vec Q obeys the linear ODE  vec Q' = -(L (+) L) vec Q + vec S  with
    L (+) L = L x I + I x L, so Q(t) is the top-right block of
    expm([[-(L (+) L), vec S], [0, 0]] t).  This shares nothing with the
    eigenbasis solve but the model's Laplacian and noise covariance.
    """
    lap, noise, n = model.laplacian(), model.noise_covariance(), model.n
    aug = np.zeros((n * n + 1, n * n + 1))
    aug[:-1, :-1] = -(np.kron(lap, np.eye(n)) + np.kron(np.eye(n), lap))
    aug[:-1, -1] = noise.ravel()
    cov = expm(aug * t)[:-1, -1].reshape(n, n)
    return expm(-lap * t) @ model.x0, cov


def _network(rng, kind):
    n = 7 if kind == "disconnected" else int(rng.integers(2, 9))
    rates = np.zeros((n, n))
    if kind == "random":
        mask = np.triu(rng.uniform(size=(n, n)) < 0.5, 1)
        rates = np.where(mask, rng.uniform(0.05, 2.0, (n, n)), 0.0)
        rates = rates + rates.T
    elif kind == "disconnected":
        # two triangles and an isolated bank: three zero Laplacian eigenvalues
        for block in (slice(0, 3), slice(3, 6)):
            rates[block, block] = rng.uniform(0.1, 1.5)
        np.fill_diagonal(rates, 0.0)
    return NetworkModel(rates, rng.uniform(0.5, 1.5, n), rng.uniform(-0.95, 0.95, n),
                        rng.normal(0.0, 1.0, n))


@pytest.mark.parametrize("kind", ["random", "disconnected", "zero-rate"])
def test_heterogeneous_matches_van_loan_reference(kind):
    rng = np.random.default_rng(17)
    for t in (0.3, 1.0, 2.5):
        model = _network(rng, kind)
        got = heterogeneous_covariance(model, t)
        mu, cov = _van_loan_moments(model, t)
        np.testing.assert_allclose(got.cov, cov, rtol=0, atol=1e-12 * np.abs(cov).max())
        np.testing.assert_allclose(got.mu, mu, rtol=0, atol=1e-12 * max(1.0, np.abs(mu).max()))
        # lending only redistributes: the total position is conserved
        assert got.mu.sum() == pytest.approx(model.x0.sum(), abs=1e-12)


def test_heterogeneous_zero_rate_covariance():
    # without lending, cov(t) is just the correlated diffusion: the shared
    # factor contributes rho_i rho_j, the rest stays on the diagonal
    sigma = np.array([1.0, 2.0, 0.5])
    rho = np.array([0.8, -0.3, 0.0])
    model = NetworkModel(np.zeros((3, 3)), sigma, rho, np.zeros(3))
    got = heterogeneous_covariance(model, 1.7)
    outer = np.outer(sigma * rho, sigma * rho)
    expected = 1.7 * (outer + np.diag(sigma**2 * (1 - rho**2)))
    np.testing.assert_allclose(got.cov, expected, atol=1e-12)
    assert isinstance(got, GaussianSystem)


def test_heterogeneous_respects_initial_positions():
    model = _complete_graph_model(0.9, 1.1, 0.2, 3, x0=np.array([5.0, -1.0, 2.0]))
    sys_t = heterogeneous_covariance(model, 0.8)
    # means follow the deterministic averaging flow; totals are conserved
    assert sys_t.mu.sum() == pytest.approx(6.0, abs=1e-12)
    spread_now = np.ptp(sys_t.mu)
    assert spread_now < np.ptp(model.x0)


# ---------------------------------------------------------------------------
# central clearing block


def test_central_clearing_frozen_values():
    m = central_clearing_moments(P, SIGMA, SIGMA_C, RHO, RHO_C, 50, T)
    assert isinstance(m, CentralClearingMoments)
    assert m.periphery_var == pytest.approx(0.556775529561, abs=1e-10)
    assert m.center_var == pytest.approx(0.216666923077, abs=1e-10)
    assert m.center_cross == pytest.approx(0.215551538462, abs=1e-10)
    assert m.pair_cov == pytest.approx(0.208706327109, abs=1e-10)
    assert m.periphery_var_series == pytest.approx(0.557507818404, abs=1e-10)
    assert m.center_var_series == pytest.approx(0.217630769231, abs=1e-10)


def _central_clearing_moments_rk4(p, sigma, sigma_c, rho, rho_c, n, t, steps=10_000):
    """RK4 cross-check of the augmented-exponential solve (same A, B)."""
    a = np.array(
        [
            [-2.0, 0.0, 2.0, 0.0],
            [0.0, -2.0 * (n - 1), 2.0 * (n - 1), 0.0],
            [1.0, 1.0, -float(n), float(n - 2)],
            [0.0, 0.0, 2.0, -2.0],
        ]
    )
    b = np.array([sigma**2, sigma_c**2, sigma * sigma_c * rho * rho_c, sigma**2 * rho**2])
    y = np.zeros(4)
    h = t / steps

    def rhs(v):
        return p * (a @ v) + b

    for _ in range(steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def test_central_clearing_agrees_with_rk4():
    for n in (5, 50):
        m = central_clearing_moments(P, SIGMA, SIGMA_C, RHO, RHO_C, n, T)
        raw = np.asarray(_central_clearing_moments_rk4(P, SIGMA, SIGMA_C, RHO, RHO_C, n, T))
        exact = np.array([m.periphery_var, m.center_var, m.center_cross, m.pair_cov])
        np.testing.assert_allclose(raw, exact, atol=1e-12)


def test_periphery_minus_pair_identity():
    """The gap between a periphery variance and a periphery pair covariance
    is carried entirely by the idiosyncratic noise relaxing at rate 2p:
    v - chi = sigma^2 (1 - rho^2) (1 - e^{-2pt}) / (2p), at every n."""
    idio = SIGMA**2 * (1.0 - RHO**2)
    relax = (1.0 - math.exp(-2.0 * P * T)) / (2.0 * P)
    for n in (3, 10, 50, 200):
        m = central_clearing_moments(P, SIGMA, SIGMA_C, RHO, RHO_C, n, T)
        assert m.periphery_var - m.pair_cov == pytest.approx(
            idio * relax, abs=1e-13
        )


def test_series_remainders_shrink_like_one_over_n_squared():
    ns = np.array([25, 50, 100, 200])
    rem_v, rem_v1 = [], []
    for n in ns:
        m = central_clearing_moments(P, SIGMA, SIGMA_C, RHO, RHO_C, int(n), T)
        rem_v.append(m.periphery_var - m.periphery_var_series)
        rem_v1.append(m.center_var - m.center_var_series)
    scaled_v = ns**2 * np.array(rem_v)
    scaled_v1 = ns**2 * np.array(rem_v1)
    # scaled remainders settle to a constant instead of drifting
    assert abs(scaled_v[-1] - scaled_v[-2]) < 0.04 * abs(scaled_v[-1])
    assert abs(scaled_v1[-1] - scaled_v1[-2]) < 0.04 * abs(scaled_v1[-1])
    assert abs(scaled_v[-1]) < 5.0 and abs(scaled_v1[-1]) < 5.0


def test_series_uncorrelated_special_case():
    # with both loadings zero the common-factor line vanishes and the
    # periphery series is the relaxed idiosyncratic variance plus a 1/n
    # slice of the un-relaxed remainder
    relax = (1.0 - math.exp(-2.0 * 1.5)) / 2.0
    for n in (50, 200):
        m = central_clearing_moments(1.0, 1.0, 1.0, 0.0, 0.0, n, 1.5)
        v_expect = relax + (1.5 - relax) / n
        assert m.periphery_var_series == pytest.approx(v_expect, abs=1e-12)


def test_center_series_tracks_center_variance():
    # center variance grows like the common-factor line with a 1/n correction
    m_small = central_clearing_moments(P, SIGMA, SIGMA_C, RHO, RHO_C, 30, T)
    m_big = central_clearing_moments(P, SIGMA, SIGMA_C, RHO, RHO_C, 3000, T)
    line = SIGMA**2 * RHO**2 * T
    assert abs(m_big.center_var - line) < abs(m_small.center_var - line)
    assert m_big.center_var == pytest.approx(m_big.center_var_series, abs=1e-6)


# ---------------------------------------------------------------------------
# worked three-bank reduction


def test_three_bank_example_matrix():
    sys_ = three_bank_example(0.25)
    np.testing.assert_allclose(
        sys_.cov, [[1.0, 0.4], [0.4, 3.28]], atol=1e-12
    )
    np.testing.assert_array_equal(sys_.mu, np.zeros(2))


def test_three_bank_example_loading_sweep():
    for rho1 in (-0.5, 0.0, 0.32, 0.8):
        sys_ = three_bank_example(rho1)
        assert sys_.cov[0, 1] == pytest.approx(2.0 * 0.8 * rho1, abs=1e-12)
        assert sys_.cov[1, 1] == pytest.approx(3.28, abs=1e-12)


# ---------------------------------------------------------------------------
# simulation


def test_simulated_moments_match_exact_covariance():
    model = _complete_graph_model(1.1, 1.0, 0.4, 3)
    exact = heterogeneous_covariance(model, 1.0)
    sm = simulate_paths(model, 1.0, paths=20_000, steps=250, seed=99)
    z_mean = np.abs(sm.mean - exact.mu) / sm.se_mean
    assert float(z_mean.max()) < 4.0
    z_var = np.abs(np.diag(sm.cov) - np.diag(exact.cov)) / sm.se_var
    assert float(z_var.max()) < 4.0


def test_simulation_is_reproducible():
    model = _complete_graph_model(0.8, 1.0, 0.3, 2)
    a = simulate_paths(model, 0.5, paths=2_000, steps=50, seed=7)
    b = simulate_paths(model, 0.5, paths=2_000, steps=50, seed=7)
    np.testing.assert_array_equal(a.mean, b.mean)
    np.testing.assert_array_equal(a.cov, b.cov)
    c = simulate_paths(model, 0.5, paths=2_000, steps=50, seed=8)
    assert not np.array_equal(a.mean, c.mean)


def _five_term_euler(model, t, paths, steps, seed):
    """Euler-Maruyama written term by term: drift, common factor, idiosyncratic noise."""
    n, dt = model.n, t / steps
    lap = model.laplacian()
    common = model.sigma * model.rho_common * math.sqrt(dt)
    idio = model.sigma * np.sqrt(1.0 - model.rho_common**2) * math.sqrt(dt)
    chunks = []
    for start in range(0, paths, _CHUNK):
        count = min(_CHUNK, paths - start)
        rng = np.random.Generator(
            np.random.Philox(key=np.array([seed, start // _CHUNK], dtype=np.uint64))
        )
        x = np.tile(model.x0, (count, 1))
        for _ in range(steps):
            z = rng.standard_normal((count, n + 1))
            x = x - (x @ lap.T) * dt + z[:, :1] * common + z[:, 1:] * idio
        chunks.append(x)
    return np.vstack(chunks)


def test_affine_step_is_the_euler_scheme():
    rates = np.array([[0.0, 0.7, 0.2], [0.7, 0.0, 1.1], [0.2, 1.1, 0.0]])
    model = NetworkModel(rates, np.array([1.0, 0.5, 2.0]), np.array([0.4, -0.3, 0.9]),
                         np.array([1.0, -0.5, 2.0]))
    paths, steps, seed = 70_000, 20, 11
    assert paths > _CHUNK
    ref = _five_term_euler(model, 0.8, paths, steps, seed)
    sm = simulate_paths(model, 0.8, paths=paths, steps=steps, seed=seed)
    np.testing.assert_allclose(sm.mean, ref.mean(axis=0), rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(sm.cov, np.cov(ref, rowvar=False), rtol=1e-12, atol=0.0)


def test_simulation_records_its_shape():
    model = _complete_graph_model(0.8, 1.0, 0.3, 2)
    sm = simulate_paths(model, 0.5, paths=1_000, steps=40, seed=1)
    assert sm.paths == 1_000
    assert sm.steps == 40
    assert sm.cov.shape == (2, 2)


# ---------------------------------------------------------------------------
# model validation


_NAN_DOMAIN_CALLS = {   # name: (call on a 3-bank model, its domain message)
    "homogeneous-p": (lambda m: homogeneous_variance(math.nan, 1.0, 0.4, 3, 1.0),
                      "p and t must be nonnegative"),
    "homogeneous-t": (lambda m: homogeneous_variance(1.0, 1.0, 0.4, 3, math.nan),
                      "p and t must be nonnegative"),
    "central-p": (lambda m: central_clearing_moments(math.nan, 1.0, 1.0, 0.4, 0.4, 3, 1.0),
                  "p must be positive and t nonnegative"),
    "central-t": (lambda m: central_clearing_moments(1.0, 1.0, 1.0, 0.4, 0.4, 3, math.nan),
                  "p must be positive and t nonnegative"),
    "heterogeneous-t": (lambda m: heterogeneous_covariance(m, math.nan), "t must be positive"),
    "simulate-t": (lambda m: simulate_paths(m, math.nan, paths=10, steps=5, seed=0),
                   "t must be positive"),
    "homogeneous-t-inf": (lambda m: homogeneous_variance(1.0, 1.0, 0.4, 3, math.inf),
                          "t finite"),
    "homogeneous-sigma": (lambda m: homogeneous_variance(1.0, math.nan, 0.4, 3, 1.0),
                          "sigma and rho must be finite"),
    "homogeneous-rho": (lambda m: homogeneous_variance(1.0, 1.0, math.nan, 3, 1.0),
                        "sigma and rho must be finite"),
    "central-p-inf": (lambda m: central_clearing_moments(math.inf, 1.0, 1.0, 0.4, 0.4, 3, 1.0),
                      "both finite"),
    "central-t-inf": (lambda m: central_clearing_moments(1.0, 1.0, 1.0, 0.4, 0.4, 3, math.inf),
                      "both finite"),
    "central-sigma": (lambda m: central_clearing_moments(1.0, math.nan, 1.0, 0.4, 0.4, 3, 1.0),
                      "sigma, sigma_c, rho and rho_c must be finite"),
    "central-sigma_c": (lambda m: central_clearing_moments(1.0, 1.0, math.nan, 0.4, 0.4, 3, 1.0),
                        "sigma, sigma_c, rho and rho_c must be finite"),
    "central-rho": (lambda m: central_clearing_moments(1.0, 1.0, 1.0, math.nan, 0.4, 3, 1.0),
                    "sigma, sigma_c, rho and rho_c must be finite"),
    "central-rho_c": (lambda m: central_clearing_moments(1.0, 1.0, 1.0, 0.4, math.nan, 3, 1.0),
                      "sigma, sigma_c, rho and rho_c must be finite"),
    "heterogeneous-t-inf": (lambda m: heterogeneous_covariance(m, math.inf),
                            "t must be positive and finite"),
    "simulate-t-inf": (lambda m: simulate_paths(m, math.inf, paths=10, steps=5, seed=0),
                       "t must be positive and finite"),
}


@pytest.mark.parametrize("call", sorted(_NAN_DOMAIN_CALLS))
def test_nan_rates_and_horizons_are_rejected(call):
    """Each once returned NaN or inf moments, or failed only inside GaussianSystem."""
    model = NetworkModel(0.5 * (np.ones((3, 3)) - np.eye(3)), np.ones(3), np.zeros(3), np.zeros(3))
    run, msg = _NAN_DOMAIN_CALLS[call]
    with pytest.raises(ValueError, match=msg):
        run(model)


@pytest.mark.parametrize(
    "mangle,msg",
    [
        (lambda r: r + np.triu(np.full((3, 3), 0.1), 1), "symmetric"),
        (lambda r: r - 0.2, "nonnegative"),
        (lambda r: r + np.eye(3), "zero diagonal"),
    ],
)
def test_network_model_rejects_bad_rates(mangle, msg):
    rates = 0.5 * (np.ones((3, 3)) - np.eye(3))
    with pytest.raises(ValueError, match=msg):
        NetworkModel(mangle(rates), np.ones(3), np.zeros(3), np.zeros(3))

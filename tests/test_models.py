"""Sampler correctness for the built-in models.

The conjugate samplers are checked against two kinds of independent oracle:
a random-walk Metropolis chain written directly in this file, and brute-force
numerical integration of the unnormalized posterior densities.
"""

import logging
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from bayesgof import binning, gof, models, probkit
from bayesgof.errors import ConfigError, DataError, DomainError, EvaluationError
from bayesgof.models import (
    ChainSettings,
    NormalModel,
    PoissonCommonRate,
    PoissonExchangeable,
    PoissonSaturated,
    generate_t,
    normal_posterior_from_uniforms,
)
from bayesgof.probkit import RngStream, split


def rwm_normal_posterior(y: np.ndarray, iters: int, burn: int, seed: int):
    """Oracle: random-walk Metropolis on (mu, log sigma), prior 1/sigma.

    The prior is flat in (mu, log sigma), so the log target is the
    log-likelihood plus -n*log(sigma) absorbed into the -n*ls term.
    """
    gen = np.random.default_rng(seed)
    n = y.size
    mu = float(y.mean())
    ls = 0.5 * math.log(float(y.var()))
    sd_mu = math.sqrt(y.var() / n)

    def logpost(mu_, ls_):
        return -n * ls_ - 0.5 * float(((y - mu_) ** 2).sum()) * math.exp(-2.0 * ls_)

    cur = logpost(mu, ls)
    mus, sig2s = [], []
    for t in range(iters):
        pm = mu + 2.4 * sd_mu * gen.standard_normal()
        pl = ls + 1.2 / math.sqrt(n) * gen.standard_normal()
        cand = logpost(pm, pl)
        if math.log(gen.random()) < cand - cur:
            mu, ls, cur = pm, pl, cand
        if t >= burn:
            mus.append(mu)
            sig2s.append(math.exp(2.0 * ls))
    return np.array(mus), np.array(sig2s)


@pytest.fixture(scope="module")
def normal_data():
    return RngStream(1).generator.normal(1.5, 2.0, 40)


def test_normal_posterior_mean_recovers_ybar(normal_data):
    model = NormalModel()
    mu, sigma = model.posterior_draws(normal_data, 100_000, RngStream(2)).T
    tol = 3.0 * mu.std() / math.sqrt(mu.size)
    assert abs(mu.mean() - normal_data.mean()) < tol


def test_normal_sigma2_mean_identity(normal_data):
    # E[sigma^2 | y] = (n-1) s^2 / (n-3) for the 1/sigma prior
    n = normal_data.size
    s2 = normal_data.var(ddof=1)
    want = (n - 1) * s2 / (n - 3)
    _, sigma = NormalModel().posterior_draws(normal_data, 200_000, RngStream(3)).T
    got = (sigma**2).mean()
    tol = 3.0 * (sigma**2).std() / math.sqrt(sigma.size)
    assert abs(got - want) < tol


def test_normal_posterior_matches_metropolis_oracle(normal_data):
    mu_c, sigma_c = NormalModel().posterior_draws(normal_data, 100_000, RngStream(5)).T
    mu_m, sig2_m = rwm_normal_posterior(normal_data, 60_000, 5_000, seed=17)
    # effective size of the chain is far below its length; budget 1/20th
    se_mu = mu_m.std() / math.sqrt(mu_m.size / 20)
    se_s2 = sig2_m.std() / math.sqrt(sig2_m.size / 20)
    assert abs(mu_c.mean() - mu_m.mean()) < 4 * se_mu
    assert abs((sigma_c**2).mean() - sig2_m.mean()) < 4 * se_s2


def test_normal_from_uniforms_shift_equivariance(normal_data):
    v1, v2 = 0.37, 0.81
    mu0, s0 = normal_posterior_from_uniforms(normal_data, v1, v2)
    mu1, s1 = normal_posterior_from_uniforms(normal_data + 7.0, v1, v2)
    assert mu1 == pytest.approx(mu0 + 7.0, abs=1e-9)
    assert s1 == pytest.approx(s0, abs=1e-9)


def test_normal_from_uniforms_scale_equivariance(normal_data):
    v1, v2 = 0.11, 0.64
    mu0, s0 = normal_posterior_from_uniforms(normal_data, v1, v2)
    mu1, s1 = normal_posterior_from_uniforms(3.0 * normal_data, v1, v2)
    assert mu1 == pytest.approx(3.0 * mu0, rel=1e-12)
    assert s1 == pytest.approx(3.0 * s0, rel=1e-12)


def test_normal_from_uniforms_vectorized_matches_scalar(normal_data):
    v1 = np.array([0.37, 0.11, 1e-300, 0.999])
    v2 = np.array([0.81, 0.64, 0.5, 1e-9])
    mu, sigma = normal_posterior_from_uniforms(normal_data, v1, v2)
    for i in range(v1.size):
        assert (mu[i], sigma[i]) == normal_posterior_from_uniforms(normal_data, v1[i], v2[i])
    with pytest.raises(DomainError):
        normal_posterior_from_uniforms(normal_data, v1, np.array([0.5, 0.5, 1.0, 0.5]))


def test_posterior_draw_is_draw_zero_of_posterior_draws():
    # draw 0 of a stack, at any stack size, equals one draw made directly from
    # the same stream, and posterior_draw returns it
    gen = np.random.default_rng(31)
    y = gen.normal(1.0, 2.0, 25)
    counts = gen.poisson(3.0, 25)
    offsets = gen.uniform(0.5, 2.0, 25)
    normal, common = NormalModel(), PoissonCommonRate(offsets)
    saturated = PoissonSaturated(offsets, prior_exponent=0.5)
    for seed in range(300):
        v = RngStream(seed).open_uniform(2)
        direct = normal_posterior_from_uniforms(y, v[0], v[1])
        assert np.array_equal(normal.posterior_draw(y, RngStream(seed)), direct)
        for size in (1, 7):
            mu, sigma = normal.posterior_draws(y, size, RngStream(seed)).T
            assert (mu[0], sigma[0]) == direct
    for seed in range(200):
        rate = RngStream(seed).generator.gamma(counts.sum(), 1.0 / offsets.sum())
        means = RngStream(seed).generator.gamma(counts + 0.5, 1.0)
        assert np.array_equal(common.posterior_draw(counts, RngStream(seed)), [rate])
        assert np.array_equal(saturated.posterior_draw(counts, RngStream(seed)), means)
        for size in (1, 7):
            assert np.array_equal(common.posterior_draws(counts, size, RngStream(seed))[0], [rate])
            stack = saturated.posterior_draws(counts, size, RngStream(seed))
            assert np.array_equal(stack[0], means)


def test_normal_mle_hand_value():
    mu, sigma = NormalModel().mle(np.array([0.0, 2.0]))
    assert mu == 1.0
    assert sigma == 1.0


def test_normal_mle_affine_equivariance(normal_data):
    model = NormalModel()
    mu0, s0 = model.mle(normal_data)
    mu1, s1 = model.mle(-2.5 * normal_data + 4.0)
    assert mu1 == pytest.approx(-2.5 * mu0 + 4.0)
    assert s1 == pytest.approx(2.5 * s0)


def test_normal_mle_is_local_maximum(normal_data):
    model = NormalModel()
    mu, sigma = model.mle(normal_data)
    y = normal_data

    def loglik(m, s):
        return -y.size * math.log(s) - 0.5 * float(((y - m) ** 2).sum()) / s**2

    best = loglik(mu, sigma)
    gen = np.random.default_rng(9)
    for _ in range(100):
        dm, ds = 0.05 * gen.standard_normal(2)
        assert loglik(mu + dm, sigma * math.exp(ds)) <= best + 1e-9


def test_normal_moments_are_numpy_mean_and_var_bit_for_bit():
    # mle and the posterior draws reduce the sample once; their values are
    # those of the ndarray.mean and ndarray.var formulation, bit for bit
    gen = np.random.default_rng(12)
    for n in (2, 3, 7, 50, 1000):
        for _ in range(20):
            y = gen.normal(3.0, 2.0, n) * 10.0 ** gen.integers(-5, 6)
            assert NormalModel().mle(y) == (y.mean(), math.sqrt(y.var()))
            v = gen.random((2, 5))
            mu, sigma = normal_posterior_from_uniforms(y, v[0], v[1])
            ref_sigma = np.sqrt(
                (n - 1) * y.var(ddof=1) / probkit.chi2_upper_quantile(n - 1, v[0])
            )
            ref_mu = y.mean() + ref_sigma / math.sqrt(n) * probkit.normal_quantile(v[1])
            assert np.array_equal(sigma, ref_sigma) and np.array_equal(mu, ref_mu)


def test_normal_degenerate_data_rejected():
    with pytest.raises(DataError):
        NormalModel().mle(np.full(10, 2.2))
    with pytest.raises(DataError):
        NormalModel().posterior_draw(np.array([5.0]), RngStream(0))


def test_normal_cdf_monotone_in_y():
    model = NormalModel()
    grid = np.linspace(-6, 6, 200)
    u = model.obs_cdf(grid, (0.3, 1.7))
    assert np.all(np.diff(u) > 0)
    assert u[0] < 1e-3 and u[-1] > 1 - 1e-3


def test_common_rate_posterior_mean():
    model = PoissonCommonRate(offsets=[1.0, 1.0])
    draws = model.posterior_draws(np.array([2, 3]), 100_000, RngStream(6))
    assert abs(draws.mean() - 2.5) < 0.02


def test_common_rate_integration_oracle():
    # unnormalized posterior on lambda: lambda^(sum y - 1) exp(-lambda sum E)
    sy, se = 5.0, 2.0
    norm, _ = integrate.quad(lambda lam: lam ** (sy - 1) * math.exp(-lam * se), 0, 60)
    mean, _ = integrate.quad(lambda lam: lam**sy * math.exp(-lam * se), 0, 60)
    model = PoissonCommonRate(offsets=[1.0, 1.0])
    draws = model.posterior_draws(np.array([2, 3]), 200_000, RngStream(8))
    assert abs(draws.mean() - mean / norm) / (mean / norm) < 0.005


def test_common_rate_offset_scaling():
    y = np.array([2, 3])
    a = PoissonCommonRate(offsets=[1.0, 1.0]).posterior_draws(y, 50_000, RngStream(12))
    b = PoissonCommonRate(offsets=[10.0, 10.0]).posterior_draws(y, 50_000, RngStream(12))
    assert np.allclose(a / 10.0, b)


def test_common_rate_matches_gamma_ks():
    from bayesgof.harness import ks_statistic

    model = PoissonCommonRate(offsets=[1.0])
    draws = model.posterior_draws(np.array([5]), 5000, RngStream(13))
    res = ks_statistic(draws[:, 0], stats.gamma(5.0).cdf, alpha=0.01)
    assert res.passed


def test_common_rate_rejects_all_zero():
    with pytest.raises(DataError):
        PoissonCommonRate(offsets=[1.0, 1.0]).posterior_draw(np.array([0, 0]), RngStream(0))


def test_saturated_posterior_means():
    y = np.array([3])
    d1 = PoissonSaturated([1.0], prior_exponent=1.0).posterior_draws(y, 100_000, RngStream(14))
    d2 = PoissonSaturated([1.0], prior_exponent=0.5).posterior_draws(y, 100_000, RngStream(14))
    assert abs(d1.mean() - 3.0) < 0.02
    assert abs(d2.mean() - 3.5) < 0.02


def test_saturated_shrinkage_ordering():
    y = np.arange(1, 9)
    m1 = PoissonSaturated(np.ones(8), 1.0).posterior_draws(y, 50_000, RngStream(16))
    m2 = PoissonSaturated(np.ones(8), 0.5).posterior_draws(y, 50_000, RngStream(16))
    assert np.all(m1.mean(axis=0) < m2.mean(axis=0))


def test_saturated_zero_counts_named():
    model = PoissonSaturated(np.ones(4), prior_exponent=1.0)
    with pytest.raises(DataError) as err:
        model.posterior_draw(np.array([2, 0, 1, 0]), RngStream(0))
    assert "1" in str(err.value) and "3" in str(err.value)


def test_saturated_prior_exponent_validated():
    with pytest.raises(DomainError):
        PoissonSaturated(np.ones(3), prior_exponent=0.3)


def test_offsets_validated():
    with pytest.raises(DataError):
        PoissonCommonRate(offsets=[1.0, 0.0])
    with pytest.raises(DataError):
        PoissonCommonRate(offsets=[1.0, -2.0])


def test_counts_validated():
    model = PoissonCommonRate(offsets=np.ones(3))
    with pytest.raises(DataError):
        model.posterior_draw(np.array([1, -2, 3]), RngStream(0))
    with pytest.raises(DataError):
        model.posterior_draw(np.array([1.5, 2.0, 3.0]), RngStream(0))
    with pytest.raises(DataError):
        model.posterior_draw(np.array([1, 2]), RngStream(0))


def test_poisson_cdf_pair_examples():
    model = PoissonCommonRate(offsets=[1.0])
    below, at = model.obs_cdf_pair(np.array([0]), [1.0])
    assert below[0] == 0.0
    assert at[0] == pytest.approx(math.exp(-1.0), abs=1e-12)


def test_poisson_cdf_pair_pmf_identity():
    model = PoissonCommonRate(offsets=np.ones(5))
    y = np.array([0, 1, 3, 7, 2])
    below, at = model.obs_cdf_pair(y, [4.2])
    pmf = stats.poisson.pmf(y, 4.2)
    assert np.allclose(at - below, pmf, atol=1e-12)


def test_poisson_cdf_series_oracle():
    model = PoissonCommonRate(offsets=[1.0])
    _, at = model.obs_cdf_pair(np.array([2]), [4.2])
    series = sum(math.exp(-4.2) * 4.2**j / math.factorial(j) for j in range(3))
    assert abs(at[0] - series) < 1e-9


def test_generator_moments():
    y = NormalModel().predictive_draw((0.0, 1.0), RngStream(18), n=100_000)
    assert abs(y.mean()) < 0.01
    assert abs(y.var() - 1.0) < 0.02
    t10 = generate_t(100_000, 10, RngStream(19))
    assert abs(t10.var() - 1.25) < 0.05
    t1 = generate_t(100_000, 1, RngStream(20))
    assert abs(np.median(t1)) < 0.05


def test_generate_t_rejects_bad_df():
    for df in (0, -1.0, float("nan"), float("inf")):
        with pytest.raises(DomainError):
            generate_t(10, df, RngStream(0))


@pytest.mark.parametrize("n", [1, 0])
def test_generate_t_refuses_fewer_than_two_draws(n):
    with pytest.raises(DomainError, match=rf"^need n >= 2, got {n}$"):
        generate_t(n, 5.0, RngStream(0))


@pytest.mark.parametrize("theta, shape", [
    ((0.0, 1.0, 2.0), "(3,)"), ([[[0.0, 1.0]]], "(1, 1, 2)"), (0.5, "()"),
])
def test_normal_obs_cdf_refuses_a_theta_of_another_shape(theta, shape):
    message = rf"^need \(mu, sigma\) or rows of them, got shape {re.escape(shape)}$"
    with pytest.raises(DomainError, match=message):
        NormalModel().obs_cdf(np.array([0.1, 0.2]), theta)


@pytest.mark.parametrize("model", [PoissonCommonRate, PoissonSaturated, PoissonExchangeable])
@pytest.mark.parametrize("offsets", [[], [[1.0, 2.0], [3.0, 4.0]], 2.0])
def test_poisson_models_refuse_offsets_that_are_not_a_non_empty_vector(model, offsets):
    with pytest.raises(DataError, match="^offsets must be a non-empty 1-D vector$"):
        model(offsets)


def test_poisson_predictive_draw_uses_means():
    means = np.array([2.0, 20.0, 200.0])
    model = PoissonSaturated(np.ones(3))
    y = np.stack([model.predictive_draw(means, split(RngStream(21), i)) for i in range(4000)])
    assert np.allclose(y.mean(axis=0), means, rtol=0.05)


@pytest.mark.parametrize("means", [
    [2.0, 0.0], [2.0, -1.0], [2.0, np.nan], [np.inf, 2.0], [2.0, 1e300],
    [2.0, np.nextafter(models._POISSON_MEAN_MAX, np.inf)],  # just past the sampler's limit
])
def test_poisson_predictive_draw_rejects_invalid_means(means):
    with pytest.raises(DomainError, match="positive and finite"):
        PoissonSaturated(np.ones(2)).predictive_draw(np.array(means), RngStream(0))


def test_poisson_predictive_draw_takes_means_up_to_the_sampler_limit():
    means = np.array([2.0, models._POISSON_MEAN_MAX])
    y = PoissonSaturated(np.ones(2)).predictive_draw(means, RngStream(0))
    assert y[1] > 9e18


def test_counts_above_2_to_the_53_message_names_ten_observations_and_the_total():
    model = PoissonSaturated(np.ones(50))
    with pytest.raises(DataError) as err:
        model.validate_data([0] * 5 + [2**60] * 45)
    assert str(err.value) == ("counts above 2**53 are not held exactly, at observations "
                              f"{list(range(5, 15))} and 35 more, 45 in all")


def test_normal_obs_cdf_refusal_names_ten_draws_and_the_total():
    thetas = np.tile([0.0, 1.0], (200, 1))
    thetas[5:, 1] = np.inf
    thetas[7] = [np.nan, -1.0]
    with pytest.raises(DomainError) as err:
        NormalModel().obs_cdf(np.zeros(3), thetas)
    assert str(err.value) == (
        "normal parameters (mu, sigma) outside the space at draws 5: (0.0, inf), "
        "6: (0.0, inf), 7: (nan, -1.0), "
        + ", ".join(f"{i}: (0.0, inf)" for i in range(8, 15))
        + " and 185 more, 195 in all"
    )
    with pytest.raises(DomainError) as err:
        NormalModel().obs_cdf(np.zeros(3), (1.0, 0.0))
    assert str(err.value) == (
        "normal parameters (mu, sigma) outside the space at draws 0: (1.0, 0.0)"
    )


def test_improper_saturated_posterior_refusal_names_ten_observations_and_the_total():
    model = PoissonSaturated(np.ones(500), prior_exponent=1.0)
    with pytest.raises(DataError) as err:
        model.posterior_draws(np.arange(500) % 2, 10, RngStream(0))
    assert str(err.value) == (
        "improper posterior components (zero count with prior exponent 1) at observations "
        f"{list(range(0, 20, 2))} and 240 more, 250 in all"
    )
    with pytest.raises(DataError) as err:
        model.posterior_draws(np.r_[np.zeros(10), np.ones(490)], 10, RngStream(0))
    assert str(err.value).endswith(f"at observations {list(range(10))}")


def test_out_of_range_cdf_refusal_names_ten_observations_and_the_total():
    class TooHigh:
        def obs_cdf(self, y, theta):
            return np.where(np.arange(y.size) >= 3, 1.5, 0.5)

    with pytest.raises(EvaluationError) as err:
        gof.posterior_chisq_continuous(np.zeros(40), TooHigh(), None, binning.equiprobable(4))
    assert str(err.value) == (
        "CDF transform produced invalid values at observations "
        f"{list(range(3, 13))} and 27 more, 37 in all"
    )
    with pytest.raises(EvaluationError) as err:
        gof.posterior_chisq_continuous(np.zeros(13), TooHigh(), None, binning.equiprobable(4))
    assert str(err.value).endswith(f"at observations {list(range(3, 13))}")


def test_cell_probabilities_below_the_floor_refusal_names_ten_cells_and_the_total():
    p = np.full(100, 1e-14)
    p[[0, 50]] = 0.5 - 49e-14
    with pytest.raises(EvaluationError) as err:
        binning.check_cell_probs(p)
    assert str(err.value) == (
        f"cell probability below the {binning.PROB_FLOOR} floor in cells "
        f"{list(range(1, 11))} and 88 more, 98 in all"
    )
    with pytest.raises(EvaluationError) as err:
        binning.check_cell_probs(np.r_[[1e-14] * 10, [0.5 - 5e-14] * 2])
    assert str(err.value).endswith(f"floor in cells {list(range(10))}")


def test_counts_up_to_2_to_the_53_are_read_and_the_common_rate_total_does_not_wrap():
    model = PoissonCommonRate(np.ones(1100))
    with pytest.raises(DataError, match=r"above 2\*\*53 are not held exactly, at observations \[1\]"):
        model.validate_data([2**53] + [2**53 + 2] + [0] * 1098)
    # 1100 counts of 2**53 sum past the int64 range
    draws = model.posterior_draws(np.full(1100, 2**53), 4, RngStream(0))
    np.testing.assert_allclose(draws, 2.0**53, rtol=1e-8)


@pytest.mark.parametrize("model", [
    PoissonCommonRate(np.ones(5)), PoissonSaturated(np.ones(5)), PoissonExchangeable(np.ones(5)),
])
def test_count_models_validate_data_to_float64_holding_each_count(model):
    counts = [0, 7, 2**52 + 1, 2**53 - 1, 2**53]
    for data in (counts, np.array(counts, dtype=np.int64), np.array(counts, dtype=float)):
        y = model.validate_data(data)
        assert y.dtype == np.float64
        assert [int(v) for v in y.tolist()] == counts


def test_common_rate_shape_is_the_count_total_rounded_once():
    # 2**53 + 1 + 1 summed in floats rounds to 2**53 at each step; the shape
    # is the exact total 2**53 + 2, a double
    model = PoissonCommonRate(np.ones(3))
    draws = model.posterior_draws([2**53, 1, 1], 5, RngStream(3))
    assert np.array_equal(draws, RngStream(3).generator.gamma(2.0**53 + 2, 1 / 3, (5, 1)))
    assert not np.array_equal(draws, RngStream(3).generator.gamma(2.0**53, 1 / 3, (5, 1)))


def test_exchangeable_collapse_to_common_rate():
    # sigma2 pinned at ~0 makes exp(alpha0) follow the common-rate posterior
    from bayesgof.harness import ks_statistic

    y = np.array([12, 7, 9, 11, 8, 10])
    offsets = np.ones(6)
    model = PoissonExchangeable(
        offsets, sigma2_fixed=1e-10, settings=ChainSettings(burn_in=2000, thin=10)
    )
    chain = model.run_chain(y, 5000, RngStream(22))
    rates = np.exp([d[0] for d in chain.draws])
    res = ks_statistic(rates, stats.gamma(float(y.sum()), scale=1.0 / 6.0).cdf, alpha=0.01)
    assert res.passed


def test_exchangeable_acceptance_rates():
    y = RngStream(23).generator.poisson(6.0, 30)
    model = PoissonExchangeable(np.ones(30), settings=ChainSettings(burn_in=1500, thin=2))
    chain = model.run_chain(y, 1500, RngStream(24))
    assert 0.2 <= chain.accept_alpha0 <= 0.6
    assert 0.2 <= chain.accept_gamma <= 0.6


def test_exchangeable_split_half_stationarity():
    # 4x analyze's default draw count so half-chain means are tight; the
    # default settings: burn-in 2000, thinning 4
    y = RngStream(25).generator.poisson(8.0, 30)
    model = PoissonExchangeable(np.ones(30))
    chain = model.run_chain(y, 20_000, RngStream(26))
    cols = np.array([[d[0], d[-1], *d[1:-1]] for d in chain.draws])
    half = cols.shape[0] // 2
    gap = np.abs(cols[:half].mean(axis=0) - cols[half:].mean(axis=0))
    sd = cols.std(axis=0)
    assert np.all(gap < 0.1 * sd + 1e-12)


def test_exchangeable_interval_coverage():
    # simulation-based calibration at reduced chain lengths
    n = 20
    offsets = np.ones(n)
    true_a0, true_sg = 1.2, 0.5
    settings = ChainSettings(burn_in=400, thin=2)
    hits = 0
    root = RngStream(27)
    for r in range(100):
        rep = split(root, r)
        gamma = true_sg * split(rep, 0).generator.standard_normal(n)
        model = PoissonExchangeable(offsets, settings=settings)
        y = model.predictive_draw(np.r_[true_a0, gamma, true_sg**2], split(rep, 1))
        if y.sum() < 1:
            continue
        draws = model.run_chain(y, 300, split(rep, 2)).draws
        a0s = np.array([d[0] for d in draws])
        lo, hi = np.quantile(a0s, [0.025, 0.975])
        hits += int(lo <= true_a0 <= hi)
    assert hits >= 90


def test_exchangeable_means_match_grid_quadrature():
    # oracle: the posterior of (alpha0, gamma_1, gamma_2) summed on a tensor
    # grid; given alpha0 the two effects are independent, so the 3-D sum
    # factors into one sum over gamma per observation
    y = np.array([3, 11])
    offsets = np.array([1.0, 2.0])
    sigma2 = 0.5
    a = np.linspace(-3.0, 5.5, 681)[:, None]
    g = np.linspace(-6.0, 6.0, 961)[None, :]
    log_w = np.zeros(a.shape[0])
    cond_g = []
    for yi, ei in zip(y, offsets):
        log_f = yi * (a + g) - ei * np.exp(a + g) - g * g / (2.0 * sigma2)
        peak = log_f.max(axis=1, keepdims=True)
        f = np.exp(log_f - peak)
        log_w += np.log(f.sum(axis=1)) + peak[:, 0]
        cond_g.append((f * g).sum(axis=1) / f.sum(axis=1))  # E[gamma_i | alpha0]
    w = np.exp(log_w - log_w.max())
    w /= w.sum()
    mean_a0 = float(w @ a[:, 0])
    oracle = np.array([mean_a0] + [mean_a0 + float(w @ c) for c in cond_g])

    model = PoissonExchangeable(
        offsets, sigma2_fixed=sigma2, settings=ChainSettings(burn_in=2000, thin=2)
    )
    draws = model.run_chain(y, 20_000, RngStream(29)).draws
    a0 = np.array([d[0] for d in draws])
    cols = np.column_stack([a0, a0[:, None] + np.array([d[1:-1] for d in draws])])
    batches = cols.reshape(40, -1, 3).mean(axis=1)  # 40 batch means per column
    se = batches.std(axis=0, ddof=1) / math.sqrt(40)
    assert np.all(np.abs(cols.mean(axis=0) - oracle) < 4.0 * se)


def _chain_values(result):
    return (
        np.array([d[0] for d in result.draws]),
        np.array([d[1:-1] for d in result.draws]),
        np.array([d[-1] for d in result.draws]),
        result.accept_alpha0,
        result.accept_gamma,
        result.step_alpha0,
        result.step_gamma,
        result.iterations,
    )


def _same_chain(a, b):
    return all(np.array_equal(u, v) for u, v in zip(_chain_values(a), _chain_values(b)))


def test_exchangeable_draws_do_not_depend_on_block_size(monkeypatch):
    from bayesgof import models

    y = RngStream(30).generator.poisson(5.0, 6)
    default = models.CHAIN_ELEMENTS
    # burn-in 150 ends inside a block of 7 and inside the second block of
    # 100; burn-in 0 leaves no sweep to adapt, so the steps are frozen from
    # the first; burn-in 700 ends on a boundary of blocks of 1, 7 and 100; a
    # fixed sigma2 skips the refresh
    for burn_in, sigma2_fixed in ((150, None), (0, None), (700, None), (150, 0.5)):
        monkeypatch.setattr(models, "CHAIN_ELEMENTS", default)
        model = PoissonExchangeable(
            np.ones(6), sigma2_fixed=sigma2_fixed,
            settings=ChainSettings(burn_in=burn_in, thin=3),
        )
        reference = model.run_chain(y, 100, RngStream(31))  # one default block
        assert _same_chain(model.run_chain(y, 100, RngStream(31)), reference)
        # blocks of 1, 7, 100, 2730; a block of 1 forms each sweep's moves alone
        for elements in (1, 42, 600, default):
            monkeypatch.setattr(models, "CHAIN_ELEMENTS", elements)
            assert _same_chain(model.run_chain(y, 100, RngStream(31)), reference)


def test_exchangeable_chain_memory_does_not_grow_with_the_block():
    # the variate blocks are capped in elements, so with many counts a block
    # holds few sweeps; a block of 256 sweeps would need 17 MB here
    import tracemalloc

    n = 5000
    y = RngStream(32).generator.poisson(5.0, n)
    model = PoissonExchangeable(np.ones(n), settings=ChainSettings(burn_in=190, thin=1))
    tracemalloc.start()
    try:
        model.run_chain(y, 10, RngStream(33))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 8 * n  # a few dozen vectors of n doubles


@pytest.mark.parametrize("step", [1000.0, 1e308])
def test_exchangeable_chain_rejects_a_proposal_whose_log_ratio_overflows(step):
    # at step 1000 exp of an alpha0 proposal overflows; at step 1e308 a
    # proposal is infinite and its log-ratio inf - inf: either is rejected,
    # with no exception and no numpy warning
    model = PoissonExchangeable(
        np.ones(4), settings=ChainSettings(burn_in=50, initial_step=step)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        chain = model.run_chain(np.array([3, 0, 6, 2]), 50, RngStream(5))
    assert np.isfinite(chain.draws).all()


def test_exchangeable_chain_that_accepts_nothing_warns(caplog):
    # at step 1e308 the burn-in cannot shrink the steps enough: every
    # retained draw is one point, and the chain says so once
    model = PoissonExchangeable(np.ones(5), settings=ChainSettings(initial_step=1e308))
    with caplog.at_level(logging.WARNING, logger="bayesgof.models"):
        chain = model.run_chain(np.array([3, 0, 6, 2, 5]), 200, RngStream(5))
    assert chain.accept_alpha0 == chain.accept_gamma == 0.0
    assert len(np.unique(chain.draws[:, 0])) == 1
    (record,) = caplog.records
    assert record.name == "bayesgof.models" and record.levelno == logging.WARNING
    message = record.getMessage()
    assert "accepted no proposal" in message
    assert "accept_alpha0 0.0, accept_gamma 0.0" in message
    assert repr(chain.step_alpha0) in message
    assert repr(float(chain.step_gamma.max())) in message


def test_exchangeable_chain_at_default_settings_logs_nothing(caplog):
    model = PoissonExchangeable(np.ones(5))
    with caplog.at_level(logging.DEBUG, logger="bayesgof"):
        chain = model.run_chain(np.array([3, 0, 6, 2, 5]), 200, RngStream(5))
    assert chain.accept_alpha0 > 0.0 and chain.accept_gamma > 0.0
    assert caplog.records == []


def test_exchangeable_chain_does_not_advance_its_stream():
    # the chain reads children split(rng, 0..4), pure in (seed, path), so a
    # second call on the same stream repeats the first
    y = RngStream(34).generator.poisson(5.0, 6)
    model = PoissonExchangeable(np.ones(6), settings=ChainSettings(burn_in=50))
    rng = RngStream(35)
    first = model.posterior_sample(y, 20, rng)
    second = model.posterior_sample(y, 20, rng)
    assert rng.generator.random() == RngStream(35).generator.random()
    assert all(
        a[0] == b[0] and np.array_equal(a[1:-1], b[1:-1]) and a[-1] == b[-1]
        for a, b in zip(first, second)
    )


def test_exchangeable_rejects_all_zero():
    model = PoissonExchangeable(np.ones(4))
    with pytest.raises(DataError):
        model.run_chain(np.zeros(4, dtype=int), 10, RngStream(0))


@pytest.mark.parametrize("size", [0, -1])
def test_exchangeable_chain_needs_a_retained_draw(size):
    # no retained sweep would leave the acceptance rates 0 / 0
    model = PoissonExchangeable(np.ones(4), settings=ChainSettings(burn_in=10))
    with pytest.raises(ConfigError, match="at least one retained draw"):
        model.run_chain(np.array([1, 2, 3, 4]), size, RngStream(0))
    with pytest.raises(ConfigError, match="at least one retained draw"):
        model.posterior_sample(np.array([1, 2, 3, 4]), size, RngStream(0))


def test_posterior_predictive_round_trip():
    # draws from the fitted posterior should sit near the generating value
    model = PoissonCommonRate(offsets=np.ones(300))
    root = RngStream(28)
    good = 0
    for r in range(100):
        rep = split(root, r)
        y = model.predictive_draw([3.5], split(rep, 0))
        draws = model.posterior_draws(y, 2000, split(rep, 1))
        good += int(abs(draws.mean() - 3.5) <= 3.0 * draws.std())
    assert good >= 95


def _layout_cases():
    offsets = np.array([1.0, 2.0, 3.0])
    return [
        (NormalModel(), [0.5, 2.0], 1),
        (PoissonCommonRate(offsets), [1.5], 0),
        (PoissonSaturated(offsets), [1.0, 2.5, 4.0], 2),
        (PoissonExchangeable(offsets), [0.1, -0.2, 0.0, 0.3, 0.5], 4),
    ]


@pytest.mark.parametrize("model, values, positive", _layout_cases())
def test_theta_from_vector_round_trip(model, values, positive):
    assert model.theta_size == len(values)
    theta = model.theta_from_vector(values)
    flat = np.atleast_1d(np.asarray(theta, dtype=float)).tolist()
    assert flat == values


@pytest.mark.parametrize("model, values, positive", _layout_cases())
def test_theta_from_vector_rejects_bad_vectors(model, values, positive):
    # index `positive` holds a scale, rate, mean or sigma2
    for bad in (0.0, -1.0, float("nan")):
        broken = list(values)
        broken[positive] = bad
        with pytest.raises(DomainError):
            model.theta_from_vector(broken)
    with pytest.raises(DomainError):
        model.theta_from_vector(values + [1.0])
    with pytest.raises(DomainError):
        model.theta_from_vector(values[:-1])


_finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0]),
)


@settings(max_examples=150, deadline=None)
@given(
    y=st.lists(_finite, min_size=0, max_size=8),
    draws=st.lists(
        st.tuples(_finite, st.floats(5e-324, 1e308, allow_subnormal=True)), min_size=1, max_size=5
    ),
)
def test_normal_obs_cdf_stacked_rows_equal_single_calls_at_extremes(y, draws):
    model = NormalModel()
    y = np.array(y, dtype=float)
    mu, sigma = (np.array(v) for v in zip(*draws))
    with np.errstate(over="ignore"):  # y - mu may overflow to an infinite z
        rows = model.obs_cdf(y, np.column_stack((mu, sigma)))
        singles = [model.obs_cdf(y, (float(m), float(s))) for m, s in draws]
    assert rows.shape == (len(draws), y.size)
    for row, single in zip(rows, singles):
        assert np.array_equal(row, single)


@pytest.mark.parametrize("k", [2, 5, 12])
@pytest.mark.parametrize("mu, sigma", [(0.0, 1.0), (-1.3, 0.4), (2.0, 3.0)])
def test_normal_cell_probs_jacobian_matches_central_differences(k, mu, sigma):
    model = NormalModel()
    edges = probkit.normal_quantile(np.arange(1, k) / k)
    free = model.free_params((mu, sigma))
    jac = np.asarray(model.cell_probs_jacobian(edges, (mu, sigma)))
    assert jac.shape == (k, 2)
    h = 1e-6
    for j in range(2):
        up, down = free.copy(), free.copy()
        up[j] += h
        down[j] -= h
        fd = (
            np.asarray(model.cell_probs(edges, model.theta_from_free(up)))
            - np.asarray(model.cell_probs(edges, model.theta_from_free(down)))
        ) / (2.0 * h)
        np.testing.assert_allclose(jac[:, j], fd, rtol=1e-6, atol=1e-9)


_NULL_EDGES_5 = probkit.normal_quantile(np.arange(1, 5) / 5)


@pytest.mark.parametrize("mu, sigma", [
    # grouped optimum for 49 zeros and one 5.0: top cell p near 1.6e-6
    (0.03661955270257277, 0.17281561038455204),
    (0.0, _NULL_EDGES_5[-1] / 5.5),  # top edge at z = 5.5
    (-1.5, 1.0),  # every edge above 0: the first cell holds 0
    (1.5, 1.0),  # every edge below 0: the last cell holds 0
])
def test_normal_cell_probs_keep_relative_precision_in_both_tails(mu, sigma):
    from scipy.stats import norm

    p = np.asarray(NormalModel().cell_probs(_NULL_EDGES_5, (mu, sigma)))
    z = (_NULL_EDGES_5 - mu) / sigma
    lo, hi = np.concatenate(([-np.inf], z)), np.concatenate((z, [np.inf]))
    # each cell on the side of 0 where scipy's tails are exact
    ref = np.where(hi <= 0.0, norm.cdf(hi) - norm.cdf(lo), norm.sf(lo) - norm.sf(hi))
    np.testing.assert_allclose(p, ref, rtol=1e-14, atol=0.0)
    assert abs(p.sum() - 1.0) < 1e-15

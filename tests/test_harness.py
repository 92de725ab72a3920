"""Experiment-level behavior: KS utility, replicate bookkeeping, determinism,
analysis summaries, the predictive significance test, and the stream monitor."""

import collections
import dataclasses

import numpy as np
import pytest
from scipy import special, stats

from bayesgof import probkit
from bayesgof.binning import equiprobable
from bayesgof.errors import ConfigError, DomainError
from bayesgof.gof import posterior_chisq_continuous
from bayesgof.harness import (
    ExperimentConfig,
    analyze,
    ks_statistic,
    null_auc_distribution,
    null_calibration,
    power_study,
    predictive_auc_test,
    stream_monitor,
)
from bayesgof.models import (
    ChainSettings,
    NormalModel,
    PoissonCommonRate,
    PoissonExchangeable,
    PoissonSaturated,
    generate_t,
)
from bayesgof.probkit import RngStream, split
from conftest import STANDARD_NORMAL


def normal_null(config):
    return null_calibration(config, NormalModel(), STANDARD_NORMAL)


def chi2_cdf(df):
    return lambda x: probkit.chi2_cdf(df, x)


def test_ks_exact_plotting_quantiles():
    n = 100
    sample = probkit.chi2_quantile(4, (np.arange(1, n + 1) - 0.5) / n)
    res = ks_statistic(sample, chi2_cdf(4))
    assert res.statistic == pytest.approx(0.5 / n, abs=1e-12)


def test_ks_needs_twenty_points():
    with pytest.raises(DomainError):
        ks_statistic(np.ones(19), chi2_cdf(4))


def test_ks_accepts_matching_law():
    for seed in (0, 1, 2, 3, 4):
        draws = RngStream(seed).generator.chisquare(4, 2000)
        assert ks_statistic(draws, chi2_cdf(4), alpha=0.01).passed


def test_ks_rejects_wrong_df():
    draws = RngStream(77).generator.chisquare(2, 2000)
    res = ks_statistic(draws, chi2_cdf(4), alpha=0.01)
    assert not res.passed
    assert res.statistic > 0.15


def test_ks_critical_constants():
    # the critical value depends on the sample size and alpha alone
    v = probkit.chi2_quantile(2, np.linspace(0.01, 0.99, 400))
    r1 = ks_statistic(v, chi2_cdf(2), alpha=0.01)
    r5 = ks_statistic(v, chi2_cdf(2), alpha=0.05)
    assert r1.critical == pytest.approx(1.628 / 20, abs=2e-4)
    assert r5.critical == pytest.approx(1.358 / 20, abs=2e-4)


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(replicates=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(alpha=1.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(methods=("auc", "bogus"))
    with pytest.raises(ConfigError):
        ExperimentConfig(bins=1)


def test_default_bin_rule_in_config():
    assert ExperimentConfig(n=50).k == 5
    assert ExperimentConfig(n=200).k == 8
    assert ExperimentConfig(n=200, bins=5).k == 5


def test_single_replicate_skips_ks():
    res = normal_null(ExperimentConfig(n=30, replicates=1, seed=4))
    s = res.series["posterior"]
    assert s.values.shape == (1,)
    assert s.ks is None


def test_replicate_values_are_independent_of_count():
    # the first 10 replicates must not change when 15 more are appended
    small = normal_null(ExperimentConfig(n=30, replicates=10, seed=9))
    large = normal_null(ExperimentConfig(n=30, replicates=25, seed=9))
    small_counts = collections.Counter(np.round(small.series["posterior"].values, 12))
    large_counts = collections.Counter(np.round(large.series["posterior"].values, 12))
    assert all(large_counts[v] >= c for v, c in small_counts.items())


def test_worker_count_does_not_change_results():
    base = ExperimentConfig(n=40, replicates=60, seed=14, include_classical=True)
    one = normal_null(base)
    four = normal_null(ExperimentConfig(**{**base.__dict__, "workers": 4}))
    for name in ("posterior", "plugin", "grouped"):
        assert np.array_equal(one.series[name].values, four.series[name].values)


def test_classical_requires_normal_model():
    cfg = ExperimentConfig(n=30, replicates=5, include_classical=True)
    model = PoissonSaturated(np.ones(cfg.n))
    with pytest.raises(ConfigError):
        null_calibration(cfg, model, 4.2 * model.offsets)


def test_auc_null_requires_normal_model():
    cfg = ExperimentConfig(n=30, replicates=30)
    model = PoissonSaturated(np.ones(cfg.n))
    with pytest.raises(ConfigError):
        null_auc_distribution(cfg, model, 4.2 * model.offsets)
    with pytest.raises(ConfigError):
        power_study(cfg, 0.786, model, 4.2 * model.offsets)


def test_null_calibration_runs_a_model_the_cli_never_maps():
    # the common-rate model has no simulate-null mapping; the study takes it
    # as it takes any model, and its draws are calibrated
    cfg = ExperimentConfig(n=60, replicates=300, seed=17)
    model = PoissonCommonRate(np.ones(cfg.n))
    one = null_calibration(cfg, model, [4.2])
    two = null_calibration(dataclasses.replace(cfg, workers=2), model, [4.2])
    assert one.series["posterior"].ks.passed
    assert np.array_equal(one.series["posterior"].values, two.series["posterior"].values)


def test_auc_null_centering(stored_auc_null):
    assert abs(stored_auc_null.values.mean() - 0.5) < 0.02
    assert stored_auc_null.critical > 0.5
    assert np.all(np.diff(stored_auc_null.values) >= 0)


def test_exceedance_critical_is_upper_alpha_point(stored_auc_null):
    null = stored_auc_null
    v = null.exceedance_values
    assert v.shape == (null.replicates,)
    assert np.all(np.diff(v) >= 0)
    # fractions of a fixed number of draws
    assert np.allclose(v * null.draws_per_dataset, np.round(v * null.draws_per_dataset))
    crit = null.exceedance_critical
    assert crit in v
    assert np.mean(v > crit) <= null.alpha
    # and it is the smallest such value: the next one down leaves more above
    below = v[v < crit]
    if below.size:
        assert np.mean(v > below[-1]) > null.alpha


def test_power_exceedance_matches_scalar_recomputation():
    cfg = ExperimentConfig(n=50, bins=5, replicates=20, seed=21, df_grid=(2, 5),
                           draws_per_dataset=50, methods=("auc", "single-draw"))
    res = power_study(cfg, 0.786, NormalModel(), STANDARD_NORMAL)
    assert sorted(res.exceedance_fractions) == [2.0, 5.0]
    model = NormalModel()
    scheme = equiprobable(5)
    threshold = probkit.chi2_quantile(4, 0.95)
    root = RngStream(21)
    for d_index, df in enumerate(cfg.df_grid):
        base = split(root, d_index)
        fractions = []
        for r in range(cfg.replicates):
            c = split(base, r)
            y = generate_t(cfg.n, df, split(c, 0))
            mu, sigma = model.posterior_draws(y, cfg.draws_per_dataset, split(c, 1)).T
            values = [posterior_chisq_continuous(y, model, theta, scheme).value
                      for theta in zip(mu, sigma)]
            fractions.append(np.mean(np.asarray(values) > threshold))
        np.testing.assert_allclose(res.exceedance_fractions[df], fractions, atol=1e-12)


def _oracle_values(y, draws, k, rng):
    """Statistic at each posterior draw, by numpy and scipy alone: sigma^2 is
    (n - 1) s^2 over a chi-square(n - 1) variate, mu | sigma is normal."""
    n = y.size
    sigma = np.sqrt((n - 1) * y.var(ddof=1) / rng.chisquare(n - 1, draws))
    mu = rng.normal(y.mean(), sigma / np.sqrt(n))
    u = special.ndtr((y[None, :] - mu[:, None]) / sigma[:, None])
    cells = np.minimum((u * k).astype(int), k - 1)
    counts = np.stack([np.sum(cells == j, axis=1) for j in range(k)], axis=1)
    return np.sum((counts - n / k) ** 2 / (n / k), axis=1)


def test_power_gap_matches_independent_oracle(power_result):
    """The AUC and single-draw powers at df 2 and 3, rebuilt without the package.

    A correct program puts the AUC test more than 0.1 above the single-draw
    test there: given the data, the single-draw test rejects with probability
    equal to the exceedance fraction, while the AUC test decides from all
    draws.  The oracle's gap is averaged over df 2 and 3; with 4000 null and
    2000 alternative datasets per df its Monte Carlo SD, critical-value noise
    included, is about 0.008 (twelve other seeds gave 0.124 to 0.147).
    """
    n, k, draws = 50, 5, 500
    rng = np.random.default_rng(2004)
    single_crit = stats.chi2.ppf(0.95, k - 1)
    null = np.sort([
        stats.chi2.cdf(_oracle_values(rng.standard_normal(n), draws, k, rng), k - 1).mean()
        for _ in range(4000)
    ])
    auc_crit = null[int(np.ceil(0.95 * null.size)) - 1]
    gaps = []
    for df in (2, 3):
        values = [_oracle_values(rng.standard_t(df, n), draws, k, rng) for _ in range(2000)]
        auc = np.array([stats.chi2.cdf(v, k - 1).mean() for v in values]) > auc_crit
        fraction = np.array([np.mean(v > single_crit) for v in values])
        # the program's powers agree with the oracle's within about 3.5
        # Monte Carlo SE of the difference (0.017 for the rates, critical
        # values included, and 0.012 for the mean fraction)
        assert abs(power_result.rate(df, "auc") - auc.mean()) <= 0.06
        assert abs(power_result.rate(df, "single-draw") - fraction.mean()) <= 0.06
        assert abs(power_result.exceedance_fractions[df].mean() - fraction.mean()) <= 0.04
        gaps.append(np.mean(auc - fraction))
    assert np.mean(gaps) > 0.1


def test_power_rows_shape():
    cfg = ExperimentConfig(n=50, replicates=40, seed=3, df_grid=(1, 5),
                           draws_per_dataset=100)
    res = power_study(cfg, 0.786, NormalModel(), STANDARD_NORMAL)
    assert len(res.rows) == 2 * 3
    for row in res.rows:
        assert 0.0 <= row.rate <= 1.0
        assert row.replicates == 40
    assert res.rate(1, "auc") >= res.rate(5, "auc") - 0.05


def test_analyze_summary_consistency():
    y = RngStream(33).generator.normal(0, 1, 50)
    res = analyze(y, NormalModel(), RngStream(34), n_draws=400)
    s = res.summary
    assert s.k == 5
    assert s.n_draws == 400
    assert res.values.shape == (400,)
    assert 0.0 <= s.exceedance_rate <= 1.0
    assert sum(s.mean_bin_counts) == pytest.approx(50.0)
    assert s.threshold == pytest.approx(probkit.chi2_quantile(4, 0.95))
    assert s.small_cells == ()


def test_analyze_one_draw_gives_one_value_for_every_model():
    offsets = np.linspace(0.5, 2.0, 12)
    counts = RngStream(52).generator.poisson(4.0, offsets.size)
    normal = RngStream(53).generator.normal(0.0, 1.0, 12)
    for y, model in (
        (normal, NormalModel()),
        (counts, PoissonCommonRate(offsets)),
        (counts, PoissonSaturated(offsets)),
        (counts, PoissonExchangeable(offsets, settings=ChainSettings(burn_in=50))),
    ):
        res = analyze(y, model, RngStream(54), n_draws=1)
        assert res.values.shape == (1,) and res.summary.n_draws == 1
        assert sum(res.summary.mean_bin_counts) == pytest.approx(12.0)


def test_analyze_nominal_centering():
    # synthetic data from the fitted model centers the AUC on one half; the
    # per-dataset spread is wide (null 90% band is roughly 0.23 to 0.79 at
    # n=50), so the tight statement holds for the mean, not each dataset
    root = RngStream(35)
    aucs = []
    for r in range(100):
        rep = split(root, r)
        y = rep.generator.normal(0.0, 1.0, 50)
        aucs.append(analyze(y, NormalModel(), split(rep, 1), n_draws=200).summary.auc)
    aucs = np.asarray(aucs)
    assert abs(aucs.mean() - 0.5) < 0.05
    assert np.mean((aucs >= 0.15) & (aucs <= 0.85)) >= 0.90


def test_analyze_flags_small_cells():
    # ten equiprobable cells for eight observations: each expects 0.8 counts,
    # so every cell is flagged, on the batch and the per-draw path alike
    n = 8
    scheme = equiprobable(10)
    counts = RngStream(50).generator.poisson(8.0, n)
    normal = RngStream(51).generator.normal(0.0, 1.0, n)
    for y, model in ((counts, PoissonCommonRate(offsets=np.ones(n))), (normal, NormalModel())):
        res = analyze(y, model, RngStream(36), n_draws=50, scheme=scheme)
        assert res.summary.small_cells == tuple(range(10))
    res = analyze(normal, NormalModel(), RngStream(36), n_draws=50, scheme=equiprobable(4))
    assert res.summary.small_cells == ()


def test_pp_test_p_value_granularity():
    y = RngStream(37).generator.normal(0, 1, 50)
    res = predictive_auc_test(y, NormalModel(), RngStream(38), pp_reps=20, n_draws=100)
    assert res.predictive_aucs.shape == (20,)
    assert res.p_value in {i / 20 for i in range(21)}


def test_pp_test_all_below_gives_zero():
    y = generate_t(50, 1, RngStream(39))
    res = predictive_auc_test(y, NormalModel(), RngStream(40), pp_reps=20, n_draws=200)
    if np.all(res.predictive_aucs < res.auc_observed):
        assert res.p_value == 0.0
    assert res.p_value == np.mean(res.predictive_aucs >= res.auc_observed)


def test_pp_test_self_consistency():
    root = RngStream(41)
    rejections = 0
    for r in range(100):
        rep = split(root, r)
        y = rep.generator.normal(0.0, 1.0, 50)
        res = predictive_auc_test(y, NormalModel(), split(rep, 1), pp_reps=20, n_draws=150)
        rejections += int(res.p_value <= 0.05)
    assert abs(rejections / 100 - 0.05) <= 0.03 + 1e-9


def test_pp_test_detects_heavy_tails():
    root = RngStream(42)
    low = 0
    for r in range(25):
        rep = split(root, r)
        y = generate_t(50, 1, split(rep, 0))
        res = predictive_auc_test(y, NormalModel(), split(rep, 1), pp_reps=20, n_draws=150)
        low += int(res.p_value < 0.05)
    assert low >= 20


def test_monitor_empty_stream():
    records = list(
        stream_monitor(iter([]), np.zeros(50) + np.arange(50), NormalModel(), equiprobable(5))
    )
    assert records == []


def test_monitor_null_rate_settles():
    y = RngStream(43).generator.normal(0, 1, 50)
    model = NormalModel()
    mu, sigma = model.posterior_draws(y, 1500, RngStream(44)).T
    recs = list(stream_monitor(zip(mu, sigma), y, model, equiprobable(5)))
    assert len(recs) == 1500
    assert abs(recs[-1].cumulative_rate - 0.05) <= 0.03
    assert not recs[-1].alert


def test_monitor_marks_invalid_draws():
    y = RngStream(45).generator.normal(0, 1, 50)
    model = NormalModel()
    mu, sigma = model.posterior_draws(y, 10, RngStream(46)).T
    stream = [(mu[0], sigma[0]), (0.0, 0.0), (mu[1], sigma[1])]
    recs = list(stream_monitor(stream, y, model, equiprobable(5)))
    assert [r.valid for r in recs] == [True, False, True]
    assert [r.reason for r in recs] == ["", "DomainError", ""]
    assert np.isnan(recs[1].value)
    # invalid draws are excluded from the running denominator
    assert recs[2].cumulative_rate in (0.0, 0.5, 1.0)


def test_monitor_evaluator_faults_propagate():
    # only package errors mark a draw invalid; a TypeError is a bug to surface
    class Faulty(NormalModel):
        def obs_cdf(self, y, theta):
            raise TypeError("evaluator bug")

    y = RngStream(45).generator.normal(0, 1, 50)
    with pytest.raises(TypeError):
        list(stream_monitor([(0.0, 1.0)], y, Faulty(), equiprobable(5)))


def test_monitor_alert_latches():
    y = RngStream(47).generator.normal(0, 1, 50)
    model = NormalModel()
    bad = [(50.0, 0.1)] * 200
    mu, sigma = model.posterior_draws(y, 2000, RngStream(48)).T
    stream = bad + list(zip(mu, sigma))
    recs = list(stream_monitor(stream, y, model, equiprobable(5),
                               alert_factor=3.0, min_draws=10))
    assert recs[199].alert
    band = 3.0 * probkit.chi2_survival(4, probkit.chi2_quantile(4, 0.95))
    assert recs[-1].cumulative_rate < band
    assert recs[-1].alert


def test_monitor_config_errors():
    y = RngStream(49).generator.normal(0, 1, 30)
    with pytest.raises(ConfigError):
        list(stream_monitor([], y, NormalModel(), equiprobable(5), alert_factor=1.0))
    with pytest.raises(ConfigError):
        list(stream_monitor([], y, NormalModel(), equiprobable(5), min_draws=0))

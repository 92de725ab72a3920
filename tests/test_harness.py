"""Experiment-level behavior: KS utility, replicate bookkeeping, determinism,
analysis summaries, the predictive significance test, and the stream monitor."""

import collections
import dataclasses
import functools
import multiprocessing
import os
import pickle
import warnings

import numpy as np
import pytest
from scipy import special, stats

from bayesgof import gof, harness, probkit
from bayesgof.binning import equiprobable
from bayesgof.errors import ConfigError, DomainError, EvaluationError, OptimizationError
from bayesgof.gof import (
    BinnedStat,
    exceedance,
    posterior_chisq_continuous,
    posterior_chisq_discrete_randomized,
    reference_auc,
)
from bayesgof.harness import (
    ExperimentConfig,
    MonitorRecord,
    PowerResult,
    PowerRow,
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
from conftest import AUC_NULL_CONFIG, STANDARD_NORMAL


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


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, float("nan")])
def test_ks_refuses_an_alpha_outside_the_unit_interval(alpha):
    with pytest.raises(DomainError, match=r"^alpha must lie in \(0, 1\)$"):
        ks_statistic(np.linspace(0.1, 9.0, 20), chi2_cdf(4), alpha)


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


@pytest.mark.parametrize("df_grid", [(), (1.0, 0.0), (-2.0,)])
def test_config_refuses_an_empty_or_non_positive_df_grid(df_grid):
    with pytest.raises(ConfigError, match=r"^df_grid must be non-empty with positive entries$"):
        ExperimentConfig(df_grid=df_grid)


def test_power_result_rate_of_a_row_it_lacks_is_a_key_error():
    res = PowerResult((PowerRow(1.0, "auc", 3, 0.3),), 0.8, {1.0: np.zeros(10)})
    assert res.rate(1.0, "auc") == 0.3
    for df, method in ((2.0, "auc"), (1.0, "grouped")):
        with pytest.raises(KeyError) as caught:
            res.rate(df, method)
        assert caught.value.args == ((df, method),)


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


def test_worker_count_does_not_change_results(monkeypatch):
    # through real pools: the floor lowered so that 60 replicates fill three
    # worker processes, the most a test starts
    monkeypatch.setattr(harness, "MIN_REPS_PER_PROCESS", 10)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 3)
    base = ExperimentConfig(n=40, replicates=60, seed=14, include_classical=True)
    one = normal_null(base)
    for workers in (2, 3, 10**6):
        many = normal_null(dataclasses.replace(base, workers=workers))
        for name in ("posterior", "plugin", "grouped"):
            assert np.array_equal(one.series[name].values, many.series[name].values)
        assert np.array_equal(one.grouped_iterations, many.grouped_iterations)
    assert multiprocessing.active_children() == []


class _RecordingPool:
    """Stands in for harness._pool: records the worker count it is asked
    for and the (start, stop) pairs of the blocks it maps, and runs the map
    inline, starting no process."""

    def __init__(self, sizes, processes, bounds):
        sizes.append(processes)
        self.bounds = bounds

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable):
        blocks = list(iterable)
        self.bounds.append(blocks)
        return map(fn, blocks)


@pytest.mark.parametrize("cpus, reps, pool", [(4, 6, [4]), (64, 6, [6]), (1, 6, [])])
def test_replicate_threads_are_capped(monkeypatch, cpus, reps, pool):
    # with one replicate enough for a process, a million workers get
    # min(workers, usable CPUs, replicates) worker processes, none at all
    # when that is 1
    sizes = []
    monkeypatch.setattr(harness, "MIN_REPS_PER_PROCESS", 1)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(harness, "_pool",
                        lambda processes: _RecordingPool(sizes, processes, []))
    cfg = ExperimentConfig(n=30, replicates=reps, seed=4, include_classical=True, bins=5)
    many = normal_null(dataclasses.replace(cfg, workers=10**6))
    assert sizes == pool
    one = normal_null(cfg)
    for name in ("posterior", "plugin", "grouped"):
        assert np.array_equal(many.series[name].values, one.series[name].values)
    assert np.array_equal(many.grouped_iterations, one.grouped_iterations)
    # the power study runs the engine once per df, each capped alike
    sizes.clear()
    cfg = ExperimentConfig(n=30, replicates=reps, seed=4, draws_per_dataset=20,
                           df_grid=(1, 5), bins=5)
    many = power_study(dataclasses.replace(cfg, workers=10**6), 0.786, NormalModel(),
                       STANDARD_NORMAL)
    assert sizes == 2 * pool
    one = power_study(cfg, 0.786, NormalModel(), STANDARD_NORMAL)
    assert many.rows == one.rows
    for df, fractions in one.exceedance_fractions.items():
        assert np.array_equal(many.exceedance_fractions[df], fractions)


@pytest.mark.parametrize("reps, fork, pool", [
    (5, True, []), (6, True, [2]), (8, True, [2]), (9, True, [3]), (9, False, []),
])
def test_a_process_runs_at_least_the_floor_of_replicates(monkeypatch, reps, fork, pool):
    # with a floor of 3, reps // 3 caps the processes, and a study that
    # would give one of them fewer, or a platform with no fork, runs inline
    sizes = []
    monkeypatch.setattr(harness, "MIN_REPS_PER_PROCESS", 3)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 64)
    monkeypatch.setattr(harness, "_pool",
                        lambda processes: _RecordingPool(sizes, processes, []))
    if not fork:
        monkeypatch.delattr(harness.os, "fork", raising=False)
    cfg = ExperimentConfig(n=30, replicates=reps, seed=4, bins=5)
    many = normal_null(dataclasses.replace(cfg, workers=10**6))
    assert sizes == pool
    assert np.array_equal(many.series["posterior"].values, normal_null(cfg).series["posterior"].values)


def test_the_floor_keeps_small_studies_inline(monkeypatch):
    # fewer than 2 * MIN_REPS_PER_PROCESS replicates start no process at any
    # worker count
    sizes = []
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 64)
    monkeypatch.setattr(harness, "_pool",
                        lambda processes: _RecordingPool(sizes, processes, []))
    cfg = ExperimentConfig(n=30, replicates=2 * harness.MIN_REPS_PER_PROCESS - 1, seed=4,
                           bins=5, workers=10**6)
    normal_null(cfg)
    assert sizes == []


@pytest.mark.parametrize("workers, threads", [(2, 2), (3, 3), (10**6, 7)])
def test_each_thread_runs_one_contiguous_block(monkeypatch, workers, threads):
    # 7 replicates on `threads` worker processes: one block per process, in
    # replicate order, covering range(7), sizes within one of each other
    sizes, bounds = [], []
    monkeypatch.setattr(harness, "MIN_REPS_PER_PROCESS", 1)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 64)
    monkeypatch.setattr(harness, "_pool",
                        lambda processes: _RecordingPool(sizes, processes, bounds))
    cfg = ExperimentConfig(n=30, replicates=7, seed=4, include_classical=True, bins=5)
    many = normal_null(dataclasses.replace(cfg, workers=workers))
    assert sizes == [threads] and len(bounds) == 1
    (blocks,) = bounds
    assert len(blocks) == threads
    assert blocks[0][0] == 0 and blocks[-1][1] == 7
    assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
    lengths = [stop - start for start, stop in blocks]
    assert min(lengths) >= 1 and max(lengths) - min(lengths) <= 1
    one = normal_null(cfg)
    for name in ("posterior", "plugin", "grouped"):
        assert np.array_equal(many.series[name].values, one.series[name].values)
    assert np.array_equal(many.grouped_iterations, one.grouped_iterations)


def test_usable_cpus_bounds_the_threads():
    assert 1 <= harness._usable_cpus() <= (os.cpu_count() or 1)


def test_replicate_spec_pickles():
    # with the null studies' data and with the power study's
    model, root = NormalModel(), RngStream(5)
    for data in (functools.partial(model.predictive_draw, STANDARD_NORMAL),
                 functools.partial(generate_t, df=3)):
        spec = harness._Replicate(model, data, 30, equiprobable(5), draws=20,
                                  threshold=probkit.chi2_quantile(4, 0.95),
                                  edges=model.quantile_edges(STANDARD_NORMAL, 5), plugin=True)
        record = spec(split(root, 0))
        assert not any(np.isnan(record))
        assert pickle.loads(pickle.dumps(spec))(split(root, 0)) == record
        # a block of replicates pickles too and gives the records run inline
        block = functools.partial(harness._block, spec, root)
        inline = [spec(split(root, r)) for r in range(2, 5)]
        assert pickle.loads(pickle.dumps(block))((2, 5)) == inline


@pytest.mark.parametrize("discrete", [False, True])
def test_each_replicate_opens_only_the_streams_it_reads(monkeypatch, discrete):
    # a stream is opened at the first use of its generator: the normal
    # model's data and posterior streams, classical fits included, and a
    # count model's randomization stream as well
    opened = []
    generator = RngStream.generator.fget

    def counted(stream):
        if stream._gen is None:
            opened.append(stream.path)
        return generator(stream)

    monkeypatch.setattr(RngStream, "generator", property(counted))
    cfg = ExperimentConfig(n=30, replicates=7, seed=41, include_classical=not discrete)
    if discrete:
        null_calibration(cfg, PoissonCommonRate(np.ones(cfg.n)), [4.2])
    else:
        normal_null(cfg)
    children = (0, 1, 2) if discrete else (0, 1)
    assert sorted(opened) == [(r, j) for r in range(7) for j in children]


def test_null_calibration_stream_layout_on_counts():
    # replicate r, rebuilt from the stream table: data split(c, 0), posterior
    # split(c, 1), randomized allocation split(c, 2), with c = split(root, r)
    cfg = ExperimentConfig(n=30, bins=4, replicates=12, seed=23)
    model = PoissonCommonRate(np.ones(cfg.n))
    res = null_calibration(cfg, model, [4.2])
    scheme = equiprobable(4)

    def rebuilt(randomization_child):
        values = []
        for r in range(cfg.replicates):
            c = split(RngStream(23), r)
            y = model.predictive_draw([4.2], split(c, 0), n=cfg.n)
            theta = model.posterior_draws(y, 1, split(c, 1))[0]
            stream = split(c, randomization_child)
            values.append(posterior_chisq_discrete_randomized(y, model, theta, scheme, stream).value)
        return np.sort(values)

    assert np.array_equal(res.series["posterior"].values, rebuilt(2))
    # the randomization is read: another child gives other values
    assert not np.array_equal(res.series["posterior"].values, rebuilt(3))


def test_auc_null_stream_layout():
    # dataset r from split(c, 0), its draws from split(c, 1), each draw
    # scored alone
    cfg = ExperimentConfig(n=40, bins=5, replicates=10, seed=31, draws_per_dataset=30)
    model = NormalModel()
    res = null_auc_distribution(cfg, model, STANDARD_NORMAL)
    scheme = equiprobable(5)
    threshold = probkit.chi2_quantile(4, 0.95)
    aucs, fractions = [], []
    for r in range(cfg.replicates):
        c = split(RngStream(31), r)
        y = model.predictive_draw(STANDARD_NORMAL, split(c, 0), n=cfg.n)
        mu, sigma = model.posterior_draws(y, cfg.draws_per_dataset, split(c, 1)).T
        values = np.array([posterior_chisq_continuous(y, model, theta, scheme).value
                           for theta in zip(mu, sigma)])
        aucs.append(reference_auc(values, 4))
        fractions.append(np.count_nonzero(values > threshold) / values.size)
    assert np.array_equal(res.values, np.sort(aucs))
    assert np.array_equal(res.exceedance_values, np.sort(fractions))


def test_classical_requires_normal_model():
    cfg = ExperimentConfig(n=30, replicates=5, include_classical=True)
    model = PoissonSaturated(np.ones(cfg.n))
    with pytest.raises(ConfigError):
        null_calibration(cfg, model, 4.2 * model.offsets)


class _CountingNormal(NormalModel):
    """The normal model, counting the datasets drawn from it."""

    datasets = 0

    def predictive_draw(self, theta, rng, n):
        self.datasets += 1
        return super().predictive_draw(theta, rng, n)


@pytest.mark.parametrize("n, bins", [(20, None), (50, 3), (50, 2)])
def test_classical_null_without_grouped_degrees_of_freedom_is_refused(n, bins):
    # n 20 gives the rule-of-thumb 3 cells: 3 - 1 - 2 fitted parameters
    # leaves the grouped statistic no reference law
    cfg = ExperimentConfig(n=n, bins=bins, replicates=40, include_classical=True)
    model = _CountingNormal()
    with pytest.raises(ConfigError, match=rf"k = {cfg.k} cells and s = 2 fitted parameters"):
        null_calibration(cfg, model, STANDARD_NORMAL)
    assert model.datasets == 0
    # without the classical fits the posterior series alone is studied
    null_calibration(dataclasses.replace(cfg, include_classical=False), model, STANDARD_NORMAL)
    assert model.datasets == 40


class _SingularInformation(NormalModel):
    """NormalModel whose Jacobian has a zero log-sigma column, so that every
    grouped fit meets a singular information matrix."""

    def cell_probs_jacobian(self, edges, theta):
        return [(d_mu, 0.0) for d_mu, _ in super().cell_probs_jacobian(edges, theta)]


def test_a_numerical_failure_names_its_replicate_and_keeps_its_type(monkeypatch):
    cfg = ExperimentConfig(n=30, bins=5, replicates=4, seed=3, include_classical=True)
    with pytest.raises(OptimizationError) as info:
        null_calibration(cfg, _SingularInformation(), STANDARD_NORMAL)
    assert str(info.value) == (
        "replicate 0: grouped-fit information matrix is not positive definite"
    )
    # an EvaluationError stays one; the replicate named is the first to fail
    fits = iter([None, None, EvaluationError("grouped-fit cell probability below floor")])

    def grouped_chisq(*args):
        failure = next(fits)
        if failure is not None:
            raise failure
        return harness.gof.FittedStat(1.0, None, None, (0.0, 1.0), 3)

    monkeypatch.setattr(harness.gof, "grouped_chisq", grouped_chisq)
    with pytest.raises(EvaluationError) as info:
        null_calibration(cfg, NormalModel(), STANDARD_NORMAL)
    assert str(info.value) == "replicate 2: grouped-fit cell probability below floor"


def test_grouped_power_without_degrees_of_freedom_is_refused(monkeypatch):
    def no_replicate(n, df, rng):
        raise AssertionError("a replicate ran")

    monkeypatch.setattr("bayesgof.harness.generate_t", no_replicate)
    cfg = ExperimentConfig(n=20, replicates=5, draws_per_dataset=20, df_grid=(1,))
    with pytest.raises(ConfigError, match=r"k = 3 cells and s = 2 fitted parameters"):
        power_study(cfg, 0.786, NormalModel(), STANDARD_NORMAL)
    # the other methods need no grouped fit
    monkeypatch.undo()
    res = power_study(
        dataclasses.replace(cfg, methods=("auc", "single-draw")), 0.786, NormalModel(),
        STANDARD_NORMAL,
    )
    assert [row.method for row in res.rows] == ["auc", "single-draw"]


def test_power_study_without_a_critical_value_runs_the_null_at_seed_plus_one():
    cfg = ExperimentConfig(n=30, replicates=8, seed=6, draws_per_dataset=40, df_grid=(1, 5))
    null = null_auc_distribution(
        dataclasses.replace(cfg, seed=7), NormalModel(), STANDARD_NORMAL
    )
    explicit = power_study(cfg, null.critical, NormalModel(), STANDARD_NORMAL)
    implied = power_study(cfg, None, NormalModel(), STANDARD_NORMAL)
    assert implied.auc_critical == explicit.auc_critical == null.critical
    assert implied.rows == explicit.rows
    assert np.array_equal(implied.grouped_iterations, explicit.grouped_iterations)
    assert implied.exceedance_fractions.keys() == explicit.exceedance_fractions.keys()
    for df, fractions in explicit.exceedance_fractions.items():
        assert np.array_equal(implied.exceedance_fractions[df], fractions)


def test_power_study_requires_a_continuous_model():
    cfg = ExperimentConfig(n=30, replicates=30)
    model = PoissonSaturated(np.ones(cfg.n))
    with pytest.raises(ConfigError):
        power_study(cfg, 0.786, model, 4.2 * model.offsets)


def test_auc_null_runs_on_a_count_model():
    # replicate r, rebuilt from the stream table: data split(c, 0), posterior
    # split(c, 1), randomized allocation split(c, 2), with c = split(root, r)
    cfg = ExperimentConfig(n=50, replicates=40, seed=3, draws_per_dataset=100)
    model = PoissonSaturated(np.ones(cfg.n))
    truth = 4.2 * model.offsets
    res = null_auc_distribution(cfg, model, truth)
    two = null_auc_distribution(dataclasses.replace(cfg, workers=2), model, truth)
    assert np.array_equal(res.values, two.values)
    assert np.array_equal(res.exceedance_values, two.exceedance_values)
    assert 0.35 < res.values[0] and res.values[-1] < 0.65
    scheme = equiprobable(cfg.k)
    threshold = probkit.chi2_quantile(cfg.k - 1, 0.95)
    aucs, fractions = [], []
    for r in range(cfg.replicates):
        c = split(RngStream(3), r)
        y = model.predictive_draw(truth, split(c, 0), n=cfg.n)
        thetas = model.posterior_draws(y, cfg.draws_per_dataset, split(c, 1))
        stream = split(c, 2)  # read by the draws in turn
        values = np.array([
            posterior_chisq_discrete_randomized(y, model, theta, scheme, stream).value
            for theta in thetas
        ])
        aucs.append(reference_auc(values, cfg.k - 1))
        fractions.append(np.count_nonzero(values > threshold) / values.size)
    assert np.array_equal(res.values, np.sort(aucs))
    assert np.array_equal(res.exceedance_values, np.sort(fractions))


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
    cfg, null = AUC_NULL_CONFIG, stored_auc_null
    v = null.exceedance_values
    assert v.shape == (cfg.replicates,)
    assert np.all(np.diff(v) >= 0)
    # fractions of a fixed number of draws
    assert np.allclose(v * cfg.draws_per_dataset, np.round(v * cfg.draws_per_dataset))
    crit = null.exceedance_critical
    assert crit in v
    assert np.mean(v > crit) <= cfg.alpha
    # and it is the smallest such value: the next one down leaves more above
    below = v[v < crit]
    if below.size:
        assert np.mean(v > below[-1]) > cfg.alpha


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
        assert row.rate * 40 == row.rejections
    assert res.rate(1, "auc") >= res.rate(5, "auc") - 0.05


def test_analyze_summary_consistency():
    y = RngStream(33).generator.normal(0, 1, 50)
    res = analyze(y, NormalModel(), RngStream(34), n_draws=400)
    assert len(res.mean_bin_counts) == 5
    assert res.values.shape == (400,)
    assert 0.0 <= res.exceedance_rate <= 1.0
    assert res.exceedance_rate == exceedance(res.values, res.threshold)
    assert sum(res.mean_bin_counts) == pytest.approx(50.0)
    assert res.threshold == pytest.approx(probkit.chi2_quantile(4, 0.95))
    assert res.small_cells == ()


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
        assert res.values.shape == (1,)
        assert sum(res.mean_bin_counts) == pytest.approx(12.0)


def test_analyze_nominal_centering():
    # synthetic data from the fitted model centers the AUC on one half; the
    # per-dataset spread is wide (null 90% band is roughly 0.23 to 0.79 at
    # n=50), so the tight statement holds for the mean, not each dataset
    root = RngStream(35)
    aucs = []
    for r in range(100):
        rep = split(root, r)
        y = rep.generator.normal(0.0, 1.0, 50)
        aucs.append(analyze(y, NormalModel(), split(rep, 1), n_draws=200).auc)
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
        assert res.small_cells == tuple(range(10))
    res = analyze(normal, NormalModel(), RngStream(36), n_draws=50, scheme=equiprobable(4))
    assert res.small_cells == ()


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


def test_per_draw_records_are_named_tuples_in_their_field_order():
    y = RngStream(45).generator.normal(0, 1, 50)
    rec, = stream_monitor([(0.0, 1.0)], y, NormalModel(), equiprobable(5))
    assert type(rec) is MonitorRecord and isinstance(rec, tuple)
    assert MonitorRecord._fields == (
        "index", "value", "valid", "exceeds", "cumulative_rate", "alert", "reason"
    )
    assert rec[0] == rec.index == 0 and rec[-1] == rec.reason == ""
    stat = posterior_chisq_continuous(y, NormalModel(), (0.0, 1.0), equiprobable(5))
    assert type(stat) is BinnedStat and BinnedStat._fields == ("value", "counts")
    value, counts = stat
    assert value == stat.value and counts is stat.counts


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
        stream_monitor([], y, NormalModel(), equiprobable(5), alert_factor=1.0)
    with pytest.raises(ConfigError):
        stream_monitor([], y, NormalModel(), equiprobable(5), min_draws=0)


class _UnreadStream:
    def __iter__(self):
        raise AssertionError("a draw was read")


def test_monitor_refuses_a_count_model_without_rng_on_the_call():
    # the settings are checked before the first draw is read
    model = PoissonCommonRate(np.ones(4))
    with pytest.raises(ConfigError, match="rng"):
        stream_monitor(_UnreadStream(), np.array([3, 0, 6, 2]), model, equiprobable(3))


class _NoDraws(NormalModel):
    def posterior_sample(self, data, n_draws, rng):
        raise AssertionError("a draw was made")


@pytest.mark.parametrize("k", [3, 5, 12])
def test_analyze_and_monitor_default_to_the_upper_alpha_point(k):
    # one rule: the upper ExperimentConfig.alpha point of chi-square(k - 1),
    # the 0.95 quantile bit for bit
    y = RngStream(45).generator.normal(0, 1, 50)
    expected = probkit.chi2_quantile(k - 1, 0.95)
    res = analyze(y, NormalModel(), RngStream(3), n_draws=20, scheme=equiprobable(k))
    assert res.threshold.hex() == expected.hex()
    mu, sigma = NormalModel().posterior_draws(y, 200, RngStream(4)).T
    recs = list(stream_monitor(zip(mu, sigma), y, NormalModel(), equiprobable(k)))
    assert [r.exceeds for r in recs] == [r.value > expected for r in recs]


@pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_threshold_is_refused_before_any_draw(threshold):
    y = RngStream(45).generator.normal(0, 1, 50)
    message = rf"^threshold must be finite, got {threshold}$"
    with pytest.raises(ConfigError, match=message):
        analyze(y, _NoDraws(), RngStream(3), threshold=threshold)
    with pytest.raises(ConfigError, match=message):
        stream_monitor(_UnreadStream(), y, NormalModel(), equiprobable(5), threshold=threshold)


def test_monitor_randomization_reads_child_0_of_its_stream():
    # draw after draw, as a count model's randomized allocation reads it
    offsets = np.ones(4)
    y, model, scheme = np.array([3, 0, 6, 2]), PoissonCommonRate(offsets), equiprobable(3)
    rates = [model.theta_from_vector([r]) for r in (2.0, 2.5, 3.0, 3.5, 4.0)]
    recs = list(stream_monitor(rates, y, model, scheme, RngStream(6)))
    child = split(RngStream(6), 0)
    expected = [gof.posterior_chisq(y, model, t, scheme, child).value for t in rates]
    assert [r.value for r in recs] == expected


def test_monitor_leaves_numpy_error_state_to_its_caller():
    # a scale of 1e-310 overflows (y - mu) / sigma; the generator sets no
    # errstate of its own, so the caller's decides, as in the monitor command
    y = RngStream(45).generator.normal(0, 1, 6)
    draw = np.array([0.0, 1e-310])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore"):
            rec, = stream_monitor([draw], y, NormalModel(), equiprobable(3))
        with pytest.raises(RuntimeWarning, match="overflow"):
            list(stream_monitor([draw], y, NormalModel(), equiprobable(3)))
    assert rec.valid and rec.reason == "" and np.isfinite(rec.value)

"""Monte Carlo harness: calibration, size/power studies, data analysis, monitoring.

The studies name no model.  The caller passes a model and its true
parameter, and a null replicate's data are model.predictive_draw(truth, ...)
as in Cook, Gelman & Rubin (2006).  The power study's alternatives are
Student-t data; there, truth fixes the classical cells.  _Replicate, the one
implementation of the table's study rows, takes its data as a callable, a
partial of model.predictive_draw or of generate_t, and names neither.

Replicates are independent work units.  Each replicate r derives its own
random stream as split(root, r), so results are identical for any worker
count and unaffected by adding or removing other replicates.  A study's
replicates run in one contiguous block inline, or, when --workers asks for
more and each worker would get at least MIN_REPS_PER_PROCESS of them, in one
block per forked worker process: partial(_block, spec, root) at a
(start, stop) pair, the blocks' records joined in replicate order, so every
output is byte-identical at any worker count.

Stream layout (fixed, documented so runs can be reproduced precisely):
  calibration / size studies   replicate r: data split(c,0), posterior
                               split(c,1), discrete randomization split(c,2),
                               where c = split(root, r)
  power studies                per alternative d: base = split(root, d),
                               then per replicate as above; with no stored
                               AUC critical value, first the AUC null run at
                               root seed + 1, laid out as a size study
  analyze                      posterior split(rng,0), randomization split(rng,1);
                               the exchangeable model's chain reads children
                               0-4 of the posterior stream p = split(rng,0):
                               alpha0 proposals split(p,0), alpha0 acceptance
                               uniforms split(p,1), gamma proposals split(p,2),
                               gamma acceptance uniforms split(p,3), sigma2
                               gamma variates split(p,4)
  predictive recalibration     observed split(rng,0), predictive parameters
                               split(rng,1), replicate m: split(rng, 2 + m)
  streaming monitor            a discrete model's randomization reads
                               split(rng,0), draw after draw

The AUC null and power studies also record each dataset's exceedance
fraction, the share of its posterior draws above the upper-alpha
chi-square(k - 1) point (AucDistribution, PowerResult).  It is
gof.exceedance of the draws the AUC already evaluates, as in analyze, so it
adds no random-stream use.

The records made once per replicate or per monitored draw, _Record and
MonitorRecord, are named tuples, which cost less to build than frozen
dataclasses; the study results, made once per run, stay dataclasses.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from . import probkit, gof
from .binning import BinScheme, equiprobable, default_bin_count
from .errors import ConfigError, DataError, DomainError, EvaluationError, OptimizationError
from .gof import reference_auc, exceedance
from .models import generate_t
from .probkit import RngStream, split

__all__ = [
    "ExperimentConfig",
    "KsResult",
    "CalibrationSeries",
    "CalibrationResult",
    "AucDistribution",
    "PowerRow",
    "PowerResult",
    "AnalysisResult",
    "PredictiveAucResult",
    "MonitorRecord",
    "ks_statistic",
    "null_calibration",
    "null_auc_distribution",
    "power_study",
    "analyze",
    "predictive_auc_test",
    "stream_monitor",
]

POWER_METHODS = ("auc", "single-draw", "grouped")


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs for the simulation studies; unused fields are ignored by each op."""

    n: int = 50
    bins: int | None = None  # None: rule-of-thumb count for n
    replicates: int = 2000
    seed: int = 0
    draws_per_dataset: int = 500
    alpha: float = 0.05
    ks_alpha: float = 0.01
    include_classical: bool = False
    workers: int = 1
    df_grid: tuple[float, ...] = (1.0, 2.0, 3.0, 5.0, 10.0)
    methods: tuple[str, ...] = POWER_METHODS

    def __post_init__(self) -> None:
        if self.n < 2 or self.replicates < 1 or self.draws_per_dataset < 1:
            raise ConfigError("n, replicates and draws_per_dataset must be positive")
        if self.bins is not None and self.bins < 2:
            raise ConfigError("bins must be at least 2")
        if not 0.0 < self.alpha < 1.0 or not 0.0 < self.ks_alpha < 1.0:
            raise ConfigError("alpha levels must lie in (0, 1)")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if any(m not in POWER_METHODS for m in self.methods):
            raise ConfigError(f"methods must be among {POWER_METHODS}")
        if len(self.df_grid) < 1 or any(d <= 0 for d in self.df_grid):
            raise ConfigError("df_grid must be non-empty with positive entries")

    @property
    def k(self) -> int:
        return self.bins if self.bins is not None else default_bin_count(self.n)


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KsResult:
    statistic: float
    critical: float
    passed: bool


@dataclass(frozen=True)
class CalibrationSeries:
    """Sorted replicate values with summaries, and the quantiles of the
    chi-square reference law at their plotting positions; ref_quantiles is
    None for a series with no reference law."""

    values: np.ndarray
    ref_quantiles: np.ndarray | None
    mean: float
    variance: float
    ks: KsResult | None


@dataclass(frozen=True)
class CalibrationResult:
    """grouped_iterations holds the Fisher-scoring steps of each replicate's
    grouped fit, in replicate order; None when no grouped fit ran."""

    series: dict[str, CalibrationSeries]
    runtime_s: float
    grouped_iterations: np.ndarray | None = None


@dataclass(frozen=True)
class AucDistribution:
    """Null values of two per-dataset summaries of the posterior draws.

    values and critical belong to the AUC.  exceedance_values are the
    fractions of each dataset's draws above the upper-alpha chi-square(k - 1)
    point, and exceedance_critical is their empirical upper-alpha point, by
    the same rule as critical.  The level, replicate and draw counts are the
    ExperimentConfig's that made it.
    """

    values: np.ndarray  # sorted
    critical: float
    exceedance_values: np.ndarray  # sorted
    exceedance_critical: float


@dataclass(frozen=True)
class PowerRow:
    df: float
    method: str
    rejections: int
    rate: float


@dataclass(frozen=True)
class PowerResult:
    """Rejection rates per alternative and method.

    exceedance_fractions maps each df to its datasets' exceedance fractions,
    in replicate order.  Given the data, the single-draw test rejects with
    probability equal to the fraction, so its power is their mean; the
    exceedance-proportion test rejects when the fraction lies above
    AucDistribution.exceedance_critical.  grouped_iterations holds the
    Fisher-scoring steps of each grouped fit, in df-grid then replicate
    order; None when the grouped method is not run.
    """

    rows: tuple[PowerRow, ...]
    auc_critical: float
    exceedance_fractions: dict[float, np.ndarray]
    grouped_iterations: np.ndarray | None = None

    def rate(self, df: float, method: str) -> float:
        for row in self.rows:
            if row.df == df and row.method == method:
                return row.rate
        raise KeyError((df, method))


@dataclass(frozen=True)
class AnalysisResult:
    """One dataset's per-draw statistic trace, in draw order, with its AUC,
    exceedance rate, mean cell counts and 0-based cells expecting below 1."""

    values: np.ndarray
    auc: float
    exceedance_rate: float
    threshold: float
    mean_bin_counts: tuple[float, ...]
    small_cells: tuple[int, ...]


@dataclass(frozen=True)
class PredictiveAucResult:
    auc_observed: float
    predictive_aucs: np.ndarray
    p_value: float


class MonitorRecord(NamedTuple):
    """One monitored draw; reason names the exception that made an invalid
    draw give no statistic, and is empty for a valid one."""

    index: int
    value: float
    valid: bool
    exceeds: bool
    cumulative_rate: float
    alert: bool
    reason: str


# ---------------------------------------------------------------------------
# small shared pieces
# ---------------------------------------------------------------------------

def ks_statistic(values, cdf: Callable, alpha: float = 0.01) -> KsResult:
    """One-sample Kolmogorov-Smirnov distance from the reference CDF, a
    vectorized callable, with its asymptotic critical value.

    critical = c(alpha) / sqrt(N) with c = sqrt(-ln(alpha/2) / 2); the sample
    must hold at least 20 points for the asymptotic regime to be meaningful.
    """
    v = np.sort(np.asarray(values, dtype=float))
    if v.size < 20:
        raise DomainError(f"KS needs at least 20 observations, got {v.size}")
    if not 0.0 < alpha < 1.0:
        raise DomainError("alpha must lie in (0, 1)")
    cdf_vals = np.asarray(cdf(v), dtype=float)
    i = np.arange(1, v.size + 1)
    d_plus = np.max(i / v.size - cdf_vals)
    d_minus = np.max(cdf_vals - (i - 1) / v.size)
    d = float(max(d_plus, d_minus))
    critical = math.sqrt(-math.log(alpha / 2.0) / 2.0) / math.sqrt(v.size)
    return KsResult(d, critical, d < critical)


def _require_continuous(model, what: str) -> None:
    if model.is_discrete:
        raise ConfigError(f"{what} defined for continuous models only")


def _tail_threshold(threshold: float | None, k: int) -> float:
    """threshold if finite; None gives the upper ExperimentConfig.alpha chi2(k - 1) point."""
    if threshold is None:
        return probkit.chi2_quantile(k - 1, 1.0 - ExperimentConfig.alpha)
    if not math.isfinite(threshold):
        raise ConfigError(f"threshold must be finite, got {threshold}")
    return threshold


def _series(values: np.ndarray, ref_df: int | None, ks_alpha: float) -> CalibrationSeries:
    v = np.sort(np.asarray(values, dtype=float))
    ref = ks = None
    if ref_df is not None:
        pp = (np.arange(1, v.size + 1) - 0.5) / v.size
        ref = probkit.chi2_quantile(ref_df, pp)
        # below the KS asymptotic minimum the test is skipped, not failed
        if v.size >= 20:
            ks = ks_statistic(v, lambda x: probkit.chi2_cdf(ref_df, x), ks_alpha)
    var = float(v.var(ddof=1)) if v.size > 1 else 0.0
    return CalibrationSeries(v, ref, float(v.mean()), var, ks)


# ---------------------------------------------------------------------------
# the replicate engine
# ---------------------------------------------------------------------------

class _Record(NamedTuple):
    """One replicate's values, nan (iterations 0) where its study skips them."""

    statistic: float  # at the first posterior draw
    auc: float
    fraction: float  # of the draws above the spec's threshold
    plugin: float
    grouped: float
    iterations: int  # Fisher-scoring steps of the grouped fit


@dataclass(frozen=True)
class _Replicate:
    """One replicate from its stream c: data(rng=split(c, 0), n=n), the
    posterior from split(c, 1) and a discrete model's randomization from
    split(c, 2), which a continuous model neither reads nor makes.  draws
    None scores one model.posterior_draw, else model.posterior_sample's
    stack gives the AUC and the fraction above threshold.  With edges the
    grouped fit runs on those classical cells, from the plugin fit's start
    when plugin is set.  Pickles if data does."""

    model: object
    data: Callable[..., np.ndarray]
    n: int
    scheme: BinScheme
    draws: int | None = None
    threshold: float = math.nan
    edges: np.ndarray | None = None
    plugin: bool = False

    def __call__(self, c: RngStream) -> _Record:
        model, scheme = self.model, self.scheme
        y = self.data(rng=split(c, 0), n=self.n)
        rng = split(c, 2) if model.is_discrete else None
        auc = fraction = plugin = grouped = math.nan
        iterations = 0
        if self.draws is None:
            theta = model.posterior_draw(y, split(c, 1))
            statistic = gof.posterior_chisq(y, model, theta, scheme, rng).value
        else:
            thetas = model.posterior_sample(y, self.draws, split(c, 1))
            values = gof.posterior_chisq(y, model, thetas, scheme, rng).value
            statistic, auc = float(values[0]), reference_auc(values, scheme.k - 1)
            fraction = exceedance(values, self.threshold)
        if self.edges is not None:
            start = None
            if self.plugin:
                plug = gof.plugin_chisq(y, model, self.edges)
                plugin, start = plug.value, plug.start
            fit = gof.grouped_chisq(y, model, self.edges, start)
            grouped, iterations = fit.value, fit.iterations
        return _Record(statistic, auc, fraction, plugin, grouped, iterations)


def _usable_cpus() -> int:
    affinity = getattr(os, "sched_getaffinity", None)  # not on every platform
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _block(spec: _Replicate, root: RngStream, bounds: tuple[int, int]) -> list[_Record]:
    """spec's records at the streams split(root, r), start <= r < stop for
    bounds = (start, stop), in replicate order.  A replicate's data that
    the model refuses are the program's, not the user's: the DataError is
    raised as an EvaluationError naming r, and any numerical error keeps
    its type, named "replicate r: ".  Module-level, so a partial pickles."""
    start, stop = bounds
    records = []
    for r in range(start, stop):
        try:
            records.append(spec(split(root, r)))
        except DataError as exc:
            raise EvaluationError(
                f"replicate {r} violates model data requirements: {exc}"
            ) from exc
        except (EvaluationError, OptimizationError) as exc:
            raise type(exc)(f"replicate {r}: {exc}") from exc
    return records


# the fewest replicates a worker process repays on the cheapest study, the
# normal null without the classical fits: on a 2-vCPU Xeon two worker
# processes broke even with the inline run at about 300 of its replicates
# and won from 400 on, and broke even at about 150 of the classical study's
# (BENCH_process_pool.json)
MIN_REPS_PER_PROCESS = 200


def _pool(processes: int):
    """An executor of `processes` forked workers, imported here, so a study
    run inline never loads multiprocessing.  Fork, not spawn: a spawned
    worker imports numpy and scipy afresh, and on the 2-vCPU Xeon two of
    them ran 2000 classical-null replicates in 608 ms against 349 inline and
    219 forked.  The workers fork before the executor starts its threads,
    and the program starts no other.  An executor, not multiprocessing.Pool:
    the pool waits forever on the block of a worker killed from outside,
    where the executor raises BrokenProcessPool."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(processes, mp_context=multiprocessing.get_context("fork"))


def _run(spec: _Replicate, root: RngStream, reps: int, workers: int) -> _Record:
    """spec at the streams split(root, r) for r < reps, each field an array
    in replicate order.  With processes = min(workers, usable CPUs,
    reps // MIN_REPS_PER_PROCESS) above 1 on a platform that forks,
    range(reps) is cut into that many contiguous blocks whose sizes differ
    by at most one, one per worker process, and the executor's map returns
    them in replicate order, so a failing study names its lowest failing
    replicate; otherwise the one block runs inline.  A worker process that
    ends abruptly, killed from outside or crashed, is a ConfigError."""
    processes = min(workers, _usable_cpus(), reps // MIN_REPS_PER_PROCESS)
    block = partial(_block, spec, root)
    if processes <= 1 or not hasattr(os, "fork"):
        records = block((0, reps))
    else:
        from concurrent.futures.process import BrokenProcessPool

        bounds = [b * reps // processes for b in range(processes + 1)]
        try:
            with _pool(processes) as pool:
                records = [rec for recs in pool.map(block, zip(bounds, bounds[1:]))
                           for rec in recs]
        except BrokenProcessPool as exc:
            raise ConfigError(
                f"one of {processes} worker processes ended abruptly before its "
                "replicates were done (killed, as by the out-of-memory killer, or "
                "crashed); try fewer --workers"
            ) from exc
    return _Record(*map(np.array, zip(*records)))


# ---------------------------------------------------------------------------
# the studies: null calibration, the AUC null distribution and power
# ---------------------------------------------------------------------------

def null_calibration(config: ExperimentConfig, model, truth) -> CalibrationResult:
    """Sampling distribution of the statistics under a correctly specified model.

    Replicate r's data are model.predictive_draw(truth, split(c, 0)), with
    c = split(root, r); its posterior draw is evaluated by gof.posterior_chisq
    and compared to chi-square(k - 1).  When include_classical is set
    (continuous models only) the raw-MLE and grouped-MLE statistics are
    computed on the same datasets with cells fixed at the model's k-tiles at
    truth.  The grouped fit starts from the plugin fit's RawStart, so each
    replicate computes its raw MLE and its data-space counts once.
    ConfigError, before any replicate runs: the classical statistics are
    asked for a discrete model, or for k - 1 - s < 1 degrees of freedom.
    """
    t0 = time.perf_counter()
    root = RngStream(config.seed)
    k = config.k
    edges = None
    if config.include_classical:
        _require_continuous(model, "classical statistics are")
        grouped_dof = gof.grouped_dof(k)
        edges = model.quantile_edges(truth, k)
    data = partial(model.predictive_draw, truth)
    spec = _Replicate(model, data, config.n, equiprobable(k), edges=edges, plugin=True)
    out = _run(spec, root, config.replicates, config.workers)
    series = {"posterior": _series(out.statistic, k - 1, config.ks_alpha)}
    grouped_iterations = None
    if config.include_classical:
        series["plugin"] = _series(out.plugin, None, config.ks_alpha)
        series["grouped"] = _series(out.grouped, grouped_dof, config.ks_alpha)
        grouped_iterations = out.iterations
    runtime_s = time.perf_counter() - t0
    return CalibrationResult(series, runtime_s, grouped_iterations)


def _upper_critical(values: np.ndarray, alpha: float) -> float:
    """Empirical upper-alpha point of sorted values: the smallest order
    statistic with at most alpha mass strictly above it."""
    idx = min(values.size - 1, max(0, math.ceil((1.0 - alpha) * values.size) - 1))
    return float(values[idx])


def null_auc_distribution(config: ExperimentConfig, model, truth) -> AucDistribution:
    """Null sampling distribution of the AUC summary, and the empirical
    critical value at the configured test level.

    Dataset r is model.predictive_draw(truth, split(c, 0)); a discrete
    model's randomized allocation reads split(c, 2).  The same draws give
    the null distribution of the exceedance fraction over the upper-alpha
    chi-square(k - 1) point, with its critical value.
    """
    root = RngStream(config.seed)
    k = config.k
    threshold = probkit.chi2_quantile(k - 1, 1.0 - config.alpha)
    data = partial(model.predictive_draw, truth)
    spec = _Replicate(model, data, config.n, equiprobable(k), config.draws_per_dataset, threshold)
    out = _run(spec, root, config.replicates, config.workers)
    values, fractions = np.sort(out.auc), np.sort(out.fraction)
    return AucDistribution(
        values, _upper_critical(values, config.alpha),
        fractions, _upper_critical(fractions, config.alpha),
    )


def power_study(
    config: ExperimentConfig, auc_critical: float | None, model, truth
) -> PowerResult:
    """Rejection rates of a continuous model against heavier-tailed Student-t
    alternatives on the df grid.

    Three tests, all at the same nominal level: the AUC summary against its
    null critical value; the first-draw statistic against the upper
    chi-square(k - 1) point; and the grouped-MLE statistic against the upper
    chi-square(k - 1 - s) point with cells fixed at the model's k-tiles at
    truth.  With auc_critical None the AUC's critical value comes from
    null_auc_distribution at seed + 1, whose datasets are not the study's.

    The AUC test decides from all of a dataset's draws.  The single-draw test
    is randomized given the data: it rejects with probability equal to the
    dataset's exceedance fraction, the share of draws above the chi-square
    point, so its power is the mean exceedance fraction over datasets.  The
    fractions are kept per df (PowerResult.exceedance_fractions); against
    AucDistribution.exceedance_critical from a null run at the same n, k,
    alpha and draw count they give the exceedance-proportion test, the
    non-randomized form of the single-draw test.

    ConfigError, before any replicate runs, null ones included: the model is
    discrete, the grouped method has k - 1 - s < 1 degrees of freedom, or
    auc_critical lies outside (0, 1), or is None with seed + 1 out of range.
    """
    _require_continuous(model, "the power study is")
    grouped = "grouped" in config.methods
    grouped_crit = None
    if grouped:
        grouped_crit = probkit.chi2_quantile(gof.grouped_dof(config.k), 1.0 - config.alpha)
    root = RngStream(config.seed)
    if auc_critical is None:
        if config.seed + 1 >= probkit.MAX_SEED:
            raise ConfigError("the AUC null run's seed, seed + 1, must be below 2**64")
        null_config = replace(config, seed=config.seed + 1)
        auc_critical = null_auc_distribution(null_config, model, truth).critical
    elif not np.isfinite(auc_critical) or not 0.0 < auc_critical < 1.0:
        raise ConfigError(f"auc_critical must lie in (0, 1), got {auc_critical}")
    k = config.k
    single_crit = probkit.chi2_quantile(k - 1, 1.0 - config.alpha)
    scheme, reps = equiprobable(k), config.replicates
    edges = model.quantile_edges(truth, k) if grouped else None
    specs = [_Replicate(model, partial(generate_t, df=df), config.n, scheme,
                        config.draws_per_dataset, single_crit, edges) for df in config.df_grid]
    outs = [_run(spec, split(root, d), reps, config.workers) for d, spec in enumerate(specs)]
    critical = {"auc": auc_critical, "single-draw": single_crit, "grouped": grouped_crit}
    rows = []
    for df, out in zip(config.df_grid, outs):
        values = {"auc": out.auc, "single-draw": out.statistic, "grouped": out.grouped}
        for method in POWER_METHODS:
            if method in config.methods:
                rej = int(np.count_nonzero(values[method] > critical[method]))
                rows.append(PowerRow(float(df), method, rej, rej / reps))
    return PowerResult(
        tuple(rows),
        float(auc_critical),
        {float(df): out.fraction for df, out in zip(config.df_grid, outs)},
        np.concatenate([out.iterations for out in outs]) if grouped else None,
    )


# ---------------------------------------------------------------------------
# applied analysis
# ---------------------------------------------------------------------------

def analyze(
    data,
    model,
    rng: RngStream,
    *,
    n_draws: int = 5000,
    scheme: BinScheme | None = None,
    threshold: float | None = None,
) -> AnalysisResult:
    """Fit diagnostics for one dataset: one statistic value per posterior draw,
    summarized by the AUC, the exceedance rate over the threshold, and mean
    cell counts, in one AnalysisResult.

    The draws are model.posterior_sample's stack from split(rng, 0), scored
    by one gof.posterior_chisq call for every model; a discrete model's
    randomized allocation reads split(rng, 1) across the draws, so results
    are reproducible from (seed, path).  threshold defaults to the upper
    ExperimentConfig.alpha point of chi-square(k - 1); a ConfigError,
    before any draw is made, when it is not finite.
    """
    y = model.validate_data(data)
    if n_draws < 1:
        raise ConfigError("n_draws must be positive")
    sch = scheme if scheme is not None else equiprobable(default_bin_count(y.size))
    k = sch.k
    thr = _tail_threshold(threshold, k)

    thetas = model.posterior_sample(y, n_draws, split(rng, 0))
    stat = gof.posterior_chisq(y, model, thetas, sch, split(rng, 1))
    values = stat.value
    mean_counts = stat.counts.sum(axis=0) / n_draws
    # cells this thin degrade the chi-square approximation; kept, but flagged
    small = tuple(int(i) for i in np.nonzero(y.size * sch.widths() < 1.0)[0])
    return AnalysisResult(
        values=values, auc=reference_auc(values, k - 1),
        exceedance_rate=exceedance(values, thr), threshold=float(thr),
        mean_bin_counts=tuple(float(c) for c in mean_counts), small_cells=small,
    )


def predictive_auc_test(
    data,
    model,
    rng: RngStream,
    *,
    pp_reps: int = 100,
    n_draws: int = 1000,
    scheme: BinScheme | None = None,
) -> PredictiveAucResult:
    """Significance of an observed AUC by posterior-predictive recalibration.

    For each replicate, a parameter draw generates a replicate dataset, the
    posterior is re-fit to that dataset, and its AUC is recorded; the p-value
    is the fraction of replicate AUCs at least as large as the observed one.
    """
    y = model.validate_data(data)
    if pp_reps < 1:
        raise ConfigError("pp_reps must be positive")
    observed = analyze(y, model, split(rng, 0), n_draws=n_draws, scheme=scheme).auc
    thetas = model.posterior_sample(y, pp_reps, split(rng, 1))
    aucs = np.empty(pp_reps)
    for m_idx, theta in enumerate(thetas):
        c = split(rng, 2 + m_idx)
        y_pp = model.predictive_draw(theta, split(c, 0), n=y.size)
        try:
            aucs[m_idx] = analyze(y_pp, model, split(c, 1), n_draws=n_draws, scheme=scheme).auc
        except DataError as exc:
            raise EvaluationError(
                f"predictive replicate {m_idx} violates model data requirements: {exc}"
            ) from exc
    p_value = float(np.mean(aucs >= observed))
    return PredictiveAucResult(float(observed), aucs, p_value)


# ---------------------------------------------------------------------------
# streaming monitor
# ---------------------------------------------------------------------------

def stream_monitor(
    draw_stream: Iterable,
    data,
    model,
    scheme: BinScheme,
    rng: RngStream | None = None,
    *,
    threshold: float | None = None,
    alert_factor: float = 8.0,
    min_draws: int = 200,
) -> Iterator[MonitorRecord]:
    """Walk a stream of parameter draws and track tail exceedances online.

    The data and every setting are checked on the call itself, before any
    draw is read, and the call returns an iterator of records.  Each draw
    yields one record with the statistic value and the running exceedance
    rate over valid draws.  The alert flag latches once the rate sits above
    alert_factor times the reference tail mass with at least min_draws valid
    draws seen.  Memory use is constant in stream length.  Each draw is
    evaluated by gof.posterior_chisq, so a discrete model needs rng: its
    randomized allocation reads split(rng, 0), draw after draw.  threshold
    defaults to the upper ExperimentConfig.alpha point of chi-square(k - 1).

    numpy's floating-point error state is the caller's: an extreme draw
    may overflow on its way to a CDF limit or a refused mean, and the
    generator sets no np.errstate of its own, since one set around a yield
    leaks into the caller's frames and one per draw costs some 7 % of a
    monitored line.  A caller that makes warnings errors wraps the whole
    iteration in np.errstate(over="ignore"), as the monitor command does.

    The default factor is deliberately far above 1: on a well-specified
    model the per-dataset exceedance rate varies widely around the nominal
    tail mass (its 95th percentile sits near 4x nominal for 50 observations
    and five cells), and a factor of 8 keeps false alarms near 1% while a
    grossly miscoded evaluator overshoots it within a few hundred draws.
    """
    y = model.validate_data(data)
    if model.is_discrete and rng is None:
        raise ConfigError("discrete models need an rng for randomized allocation")
    if not (alert_factor > 1.0 and math.isfinite(alert_factor)):  # NaN fails too
        raise ConfigError(f"alert_factor must be a finite number above 1, got {alert_factor}")
    if min_draws < 1:
        raise ConfigError("min_draws must be positive")
    thr = _tail_threshold(threshold, scheme.k)
    rng = None if rng is None else split(rng, 0)
    nominal = probkit.chi2_survival(scheme.k - 1, thr)
    band = alert_factor * nominal

    def records() -> Iterator[MonitorRecord]:
        seen_valid = 0
        exceed_count = 0
        alerted = False
        for index, theta in enumerate(draw_stream):
            try:
                value = gof.posterior_chisq(y, model, theta, scheme, rng).value
                valid = True
                reason = ""
            # package errors only: anything else is a fault in the evaluator
            except (EvaluationError, DomainError, DataError) as exc:
                value = float("nan")
                valid = False
                reason = type(exc).__name__
            exceeds = bool(valid and value > thr)
            if valid:
                seen_valid += 1
                exceed_count += int(exceeds)
            rate = exceed_count / seen_valid if seen_valid else 0.0
            if seen_valid >= min_draws and rate > band:
                alerted = True
            yield MonitorRecord(index, value, valid, exceeds, rate, alerted, reason)

    return records()

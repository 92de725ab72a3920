"""Monte Carlo harness: calibration, size/power studies, data analysis, monitoring.

The studies name no model.  The caller passes a model and its true
parameter, and a null replicate's data are model.predictive_draw(truth, ...)
as in Cook, Gelman & Rubin (2006).  The power study's alternatives are
Student-t data; there, truth fixes the classical cells.

Replicates are independent work units.  Each replicate r derives its own
random stream as split(root, r), so results are identical for any worker
count and unaffected by adding or removing other replicates.  Worker threads
only ever assemble results by replicate index.

Stream layout (fixed, documented so runs can be reproduced precisely):
  calibration / size studies   replicate r: data split(c,0), posterior
                               split(c,1), discrete randomization split(c,2),
                               where c = split(root, r)
  power studies                per alternative d: base = split(root, d),
                               then per replicate as above
  analyze                      posterior split(rng,0), randomization split(rng,1);
                               the exchangeable model's chain reads children
                               0-4 of the posterior stream p = split(rng,0):
                               alpha0 proposals split(p,0), alpha0 acceptance
                               uniforms split(p,1), gamma proposals split(p,2),
                               gamma acceptance uniforms split(p,3), sigma2
                               gamma variates split(p,4)
  predictive recalibration     observed split(rng,0), predictive parameters
                               split(rng,1), replicate m: split(rng, 2 + m)

The AUC null and power studies also record, per dataset, the exceedance
fraction: the share of its posterior draws whose statistic lies above the
upper-alpha chi-square(k - 1) point.  The null run tabulates that fraction
and its empirical critical value (AucDistribution.exceedance_values and
exceedance_critical); the power study keeps each alternative's fractions
(PowerResult.exceedance_fractions).  Their mean is the power of the
single-draw test, and the share above exceedance_critical is the power of
the exceedance-proportion test.  Both read the draws the AUC already
evaluates, so they add no random-stream use.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from . import probkit, gof
from .binning import BinScheme, equiprobable, default_bin_count
from .errors import ConfigError, DataError, DomainError, EvaluationError
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
    "GofSummary",
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
    df_grid: tuple[int, ...] = (1, 2, 3, 5, 10)
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
    alpha: float
    n: int
    passed: bool


@dataclass(frozen=True)
class CalibrationSeries:
    """Sorted replicate values with reference quantiles and summaries."""

    name: str
    values: np.ndarray
    ref_quantiles: np.ndarray
    mean: float
    variance: float
    ks: KsResult | None


@dataclass(frozen=True)
class CalibrationResult:
    """grouped_iterations holds the Fisher-scoring steps of each replicate's
    grouped fit, in replicate order; None when no grouped fit ran."""

    series: dict[str, CalibrationSeries]
    n: int
    k: int
    replicates: int
    runtime_s: float
    grouped_iterations: np.ndarray | None = None


@dataclass(frozen=True)
class AucDistribution:
    """Null values of two per-dataset summaries of the posterior draws.

    values and critical belong to the AUC.  exceedance_values are the
    fractions of each dataset's draws above the upper-alpha chi-square(k - 1)
    point, and exceedance_critical is their empirical upper-alpha point, by
    the same rule as critical.
    """

    values: np.ndarray  # sorted
    critical: float
    alpha: float
    replicates: int
    draws_per_dataset: int
    exceedance_values: np.ndarray  # sorted
    exceedance_critical: float


@dataclass(frozen=True)
class PowerRow:
    df: float
    method: str
    rejections: int
    replicates: int
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
class GofSummary:
    auc: float
    exceedance_rate: float
    threshold: float
    n_draws: int
    k: int
    mean_bin_counts: tuple[float, ...]
    small_cells: tuple[int, ...]


@dataclass(frozen=True)
class AnalysisResult:
    summary: GofSummary
    values: np.ndarray  # per-draw statistic trace, in draw order


@dataclass(frozen=True)
class PredictiveAucResult:
    auc_observed: float
    predictive_aucs: np.ndarray
    p_value: float


@dataclass(frozen=True)
class MonitorRecord:
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
    return KsResult(d, critical, alpha, int(v.size), d < critical)


def _map_replicates(fn: Callable[[int], object], reps: int, workers: int) -> list:
    if workers <= 1:
        return [fn(r) for r in range(reps)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(reps)))


def _require_continuous(model, what: str) -> None:
    if model.is_discrete:
        raise ConfigError(f"{what} defined for continuous models only")


def _series(
    name: str, values: np.ndarray, ref_df: int | None, ks_alpha: float
) -> CalibrationSeries:
    v = np.sort(np.asarray(values, dtype=float))
    pp = (np.arange(1, v.size + 1) - 0.5) / v.size
    if ref_df is not None:
        ref = probkit.chi2_quantile(ref_df, pp)
        # below the KS asymptotic minimum the test is skipped, not failed
        ks = (
            ks_statistic(v, lambda x: probkit.chi2_cdf(ref_df, x), ks_alpha)
            if v.size >= 20 else None
        )
    else:
        ref = np.full(v.size, np.nan)
        ks = None
    var = float(v.var(ddof=1)) if v.size > 1 else 0.0
    return CalibrationSeries(name, v, np.asarray(ref), float(v.mean()), var, ks)


# ---------------------------------------------------------------------------
# null calibration
# ---------------------------------------------------------------------------

def null_calibration(config: ExperimentConfig, model, truth) -> CalibrationResult:
    """Sampling distribution of the statistics under a correctly specified model.

    Replicate r's data are model.predictive_draw(truth, split(c, 0)), with
    c = split(root, r); its posterior draw is evaluated by gof.posterior_chisq
    and compared to chi-square(k - 1).  When include_classical is set
    (continuous models only) the raw-MLE and grouped-MLE statistics are
    computed on the same datasets with cells fixed at the model's k-tiles at
    truth.
    """
    t0 = time.perf_counter()
    root = RngStream(config.seed)
    k = config.k
    scheme = equiprobable(k)
    if config.include_classical:
        _require_continuous(model, "classical statistics are")
        edges = model.quantile_edges(truth, k)

    def one(r: int) -> tuple[float, float, float, int]:
        c = split(root, r)
        y = model.predictive_draw(truth, split(c, 0), n=config.n)
        theta = model.posterior_draw(y, split(c, 1))
        value = gof.posterior_chisq(y, model, theta, scheme, split(c, 2)).value
        if not config.include_classical:
            return (value, np.nan, np.nan, 0)
        plug = gof.plugin_chisq(y, model, edges).value
        grouped = gof.grouped_chisq(y, model, edges)
        return (value, plug, grouped.value, grouped.iterations)

    rows = np.asarray(_map_replicates(one, config.replicates, config.workers))
    series = {"posterior": _series("posterior", rows[:, 0], k - 1, config.ks_alpha)}
    grouped_iterations = None
    if config.include_classical:
        series["plugin"] = _series("plugin", rows[:, 1], None, config.ks_alpha)
        series["grouped"] = _series(
            "grouped", rows[:, 2], k - 1 - model.n_params, config.ks_alpha
        )
        grouped_iterations = rows[:, 3].astype(int)

    return CalibrationResult(
        series=series,
        n=config.n,
        k=k,
        replicates=config.replicates,
        runtime_s=time.perf_counter() - t0,
        grouped_iterations=grouped_iterations,
    )


# ---------------------------------------------------------------------------
# reference-exceedance AUC: null distribution and power
# ---------------------------------------------------------------------------

def _auc_for_dataset(
    y: np.ndarray,
    model,
    scheme: BinScheme,
    draws: int,
    rng: RngStream,
    threshold: float,
) -> tuple[float, float, float]:
    """(auc, first-draw statistic, exceedance fraction over threshold) from a
    batch of posterior draws."""
    thetas = model.posterior_draws(y, draws, rng)
    values = gof.posterior_chisq(y, model, thetas, scheme).value
    fraction = np.count_nonzero(values > threshold) / values.size
    return reference_auc(values, scheme.k - 1), float(values[0]), fraction


def _upper_critical(values: np.ndarray, alpha: float) -> float:
    """Empirical upper-alpha point of sorted values: the smallest order
    statistic with at most alpha mass strictly above it."""
    idx = min(values.size - 1, max(0, math.ceil((1.0 - alpha) * values.size) - 1))
    return float(values[idx])


def null_auc_distribution(config: ExperimentConfig, model, truth) -> AucDistribution:
    """Null sampling distribution of the AUC summary for a continuous model,
    and the empirical critical value at the configured test level.

    Dataset r is model.predictive_draw(truth, split(c, 0)).  The same draws
    give the null distribution of the exceedance fraction over the
    upper-alpha chi-square(k - 1) point, with its critical value.
    """
    _require_continuous(model, "the AUC null distribution is")
    root = RngStream(config.seed)
    k = config.k
    scheme = equiprobable(k)
    threshold = probkit.chi2_quantile(k - 1, 1.0 - config.alpha)

    def one(r: int) -> tuple[float, float]:
        c = split(root, r)
        y = model.predictive_draw(truth, split(c, 0), n=config.n)
        auc, _, fraction = _auc_for_dataset(
            y, model, scheme, config.draws_per_dataset, split(c, 1), threshold
        )
        return auc, fraction

    rows = np.asarray(_map_replicates(one, config.replicates, config.workers))
    values = np.sort(rows[:, 0])
    fractions = np.sort(rows[:, 1])
    return AucDistribution(
        values=values,
        critical=_upper_critical(values, config.alpha),
        alpha=config.alpha,
        replicates=config.replicates,
        draws_per_dataset=config.draws_per_dataset,
        exceedance_values=fractions,
        exceedance_critical=_upper_critical(fractions, config.alpha),
    )


def power_study(config: ExperimentConfig, auc_critical: float, model, truth) -> PowerResult:
    """Rejection rates of a continuous model against heavier-tailed Student-t
    alternatives on the df grid.

    Three tests, all at the same nominal level: the AUC summary against its
    stored null critical value; the first-draw statistic against the upper
    chi-square(k - 1) point; and the grouped-MLE statistic against the upper
    chi-square(k - 1 - s) point with cells fixed at the model's k-tiles at
    truth.

    The AUC test decides from all of a dataset's draws.  The single-draw test
    is randomized given the data: it rejects with probability equal to the
    dataset's exceedance fraction, the share of draws above the chi-square
    point, so its power is the mean exceedance fraction over datasets.  The
    fractions are kept per df (PowerResult.exceedance_fractions); against
    AucDistribution.exceedance_critical from a null run at the same n, k,
    alpha and draw count they give the exceedance-proportion test, the
    non-randomized form of the single-draw test.
    """
    _require_continuous(model, "the power study is")
    if not np.isfinite(auc_critical) or not 0.0 < auc_critical < 1.0:
        raise ConfigError(f"auc_critical must lie in (0, 1), got {auc_critical}")
    root = RngStream(config.seed)
    k = config.k
    scheme = equiprobable(k)
    edges = model.quantile_edges(truth, k)
    single_crit = probkit.chi2_quantile(k - 1, 1.0 - config.alpha)
    grouped_crit = probkit.chi2_quantile(k - 1 - model.n_params, 1.0 - config.alpha)

    grouped = "grouped" in config.methods
    rows: list[PowerRow] = []
    fractions_by_df: dict[float, np.ndarray] = {}
    iterations_by_df: list[np.ndarray] = []
    for d_index, df in enumerate(config.df_grid):
        base = split(root, d_index)

        def one(r: int) -> tuple[bool, bool, bool, float, int]:
            c = split(base, r)
            y = generate_t(config.n, df, split(c, 0))
            auc, first, fraction = _auc_for_dataset(
                y, model, scheme, config.draws_per_dataset, split(c, 1), single_crit
            )
            rej_auc = auc > auc_critical
            rej_single = first > single_crit
            rej_grouped, iterations = False, 0
            if grouped:
                fit = gof.grouped_chisq(y, model, edges)
                rej_grouped, iterations = fit.value > grouped_crit, fit.iterations
            return (rej_auc, rej_single, rej_grouped, fraction, iterations)

        out = np.asarray(_map_replicates(one, config.replicates, config.workers))
        flags, fractions = out[:, :3].astype(bool), out[:, 3]
        iterations_by_df.append(out[:, 4].astype(int))
        for j, method in enumerate(POWER_METHODS):
            if method not in config.methods:
                continue
            rej = int(flags[:, j].sum())
            rows.append(
                PowerRow(float(df), method, rej, config.replicates, rej / config.replicates)
            )
        fractions_by_df[float(df)] = fractions
    return PowerResult(
        tuple(rows),
        float(auc_critical),
        fractions_by_df,
        np.concatenate(iterations_by_df) if grouped else None,
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
    cell counts.

    The draws are model.posterior_sample's stack, scored by one
    gof.posterior_chisq call for every model; a discrete model's randomized
    allocation reads one dedicated child stream across the draws, so results
    are reproducible from (seed, path).
    """
    y = model.validate_data(data)
    if n_draws < 1:
        raise ConfigError("n_draws must be positive")
    sch = scheme if scheme is not None else equiprobable(default_bin_count(y.size))
    k = sch.k
    thr = threshold if threshold is not None else probkit.chi2_quantile(k - 1, 0.95)

    thetas = model.posterior_sample(y, n_draws, split(rng, 0))
    stat = gof.posterior_chisq(y, model, thetas, sch, split(rng, 1))
    values = stat.value
    mean_counts = stat.counts.sum(axis=0) / n_draws
    # cells this thin degrade the chi-square approximation; kept, but flagged
    small = tuple(int(i) for i in np.nonzero(y.size * sch.widths() < 1.0)[0])
    summary = GofSummary(
        auc=reference_auc(values, k - 1),
        exceedance_rate=exceedance(values, thr),
        threshold=float(thr),
        n_draws=n_draws,
        k=k,
        mean_bin_counts=tuple(float(c) for c in mean_counts),
        small_cells=small,
    )
    return AnalysisResult(summary, values)


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
    sch = scheme if scheme is not None else equiprobable(default_bin_count(y.size))

    observed = analyze(y, model, split(rng, 0), n_draws=n_draws, scheme=sch).summary.auc
    thetas = model.posterior_sample(y, pp_reps, split(rng, 1))
    aucs = np.empty(pp_reps)
    for m_idx, theta in enumerate(thetas):
        c = split(rng, 2 + m_idx)
        y_pp = model.predictive_draw(theta, split(c, 0), n=y.size)
        try:
            aucs[m_idx] = analyze(
                y_pp, model, split(c, 1), n_draws=n_draws, scheme=sch
            ).summary.auc
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

    Each draw yields one record with the statistic value and the running
    exceedance rate over valid draws.  The alert flag latches once the rate
    sits above alert_factor times the reference tail mass with at least
    min_draws valid draws seen.  Memory use is constant in stream length.
    Each draw is evaluated by gof.posterior_chisq, so a discrete model needs
    rng for its randomized allocation.

    The default factor is deliberately far above 1: on a well-specified
    model the per-dataset exceedance rate varies widely around the nominal
    tail mass (its 95th percentile sits near 4x nominal for 50 observations
    and five cells), and a factor of 8 keeps false alarms near 1% while a
    grossly miscoded evaluator overshoots it within a few hundred draws.
    """
    y = model.validate_data(data)
    if not (alert_factor > 1.0 and math.isfinite(alert_factor)):  # NaN fails too
        raise ConfigError(f"alert_factor must be a finite number above 1, got {alert_factor}")
    if min_draws < 1:
        raise ConfigError("min_draws must be positive")
    thr = threshold if threshold is not None else probkit.chi2_quantile(scheme.k - 1, 0.95)
    if not math.isfinite(thr):
        raise ConfigError(f"threshold must be finite, got {thr}")
    nominal = probkit.chi2_survival(scheme.k - 1, thr)
    band = alert_factor * nominal

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

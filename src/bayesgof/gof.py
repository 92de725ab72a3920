"""Chi-square goodness-of-fit statistics and their summaries.

The central quantity is a Pearson statistic whose cell counts come from
probability-integral transforms of the observations, evaluated at a single
parameter value sampled from the posterior.  Its reference law is chi-square
with (cells - 1) degrees of freedom regardless of how many parameters the
model carries, which is what makes averaging tail areas over posterior draws
meaningful.  Classical comparators (cells fixed in data space, parameters
fitted by raw-data or grouped maximum likelihood) are provided for the same
cell layouts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import probkit
from .binning import BinScheme, assign_discrete_randomized, tally
from .errors import ConfigError, DomainError, EvaluationError, OptimizationError
from .probkit import RngStream

__all__ = [
    "BinnedStat",
    "FittedStat",
    "pearson",
    "posterior_chisq",
    "posterior_chisq_continuous",
    "posterior_chisq_discrete_randomized",
    "plugin_chisq",
    "grouped_chisq",
    "chisq_discrepancy",
    "reference_auc",
    "exceedance",
]

PROB_FLOOR = 1e-12
# grouped-MLE Fisher scoring: stop below this Newton decrement relative to the
# rounding scale of the log-likelihood (steps stall near 1e-17 of it), give up
# after this many steps, and halve a step at most this many times
SCORING_TOL = 1e-14
SCORING_MAX_ITER = 50
SCORING_MAX_HALVINGS = 60


@dataclass(frozen=True)
class BinnedStat:
    """A float and K counts at one parameter value; D values and D x K counts
    for a batch of D draws.  probs holds the K cell probabilities the
    statistic used."""

    value: float | np.ndarray
    counts: np.ndarray
    probs: np.ndarray


@dataclass(frozen=True)
class FittedStat:
    """A classical statistic together with the parameter value it used."""

    value: float
    counts: np.ndarray
    probs: np.ndarray
    theta: tuple
    iterations: int = 0


def pearson(counts, probs):
    """Sum of (observed - expected)^2 / expected over cells: a float for a
    vector of counts, one value per row for a 2-D array of counts."""
    m = np.asarray(counts)
    p = np.asarray(probs, dtype=float)
    if m.ndim not in (1, 2) or p.ndim != 1 or m.shape[-1] != p.size or m.size < 2:
        raise DomainError(
            "counts must be a vector, or rows of vectors, matching probs of length >= 2"
        )
    if m.dtype.kind not in "iu":  # an integer dtype needs no whole-number check
        m = m.astype(float)
    # the checks call the ufunc reductions that ndarray.min/sum end in,
    # without their Python-level wrappers
    if not np.minimum.reduce(m, axis=None) >= 0 or (
        m.dtype.kind == "f" and not np.logical_and.reduce(m == np.floor(m), axis=None)
    ):
        raise DomainError("counts must be non-negative integers")
    n = np.add.reduce(m, axis=-1, keepdims=True)  # one total per row, as a column
    if not np.minimum.reduce(n, axis=None) > 0:
        raise DomainError("counts must sum to a positive total")
    # written so that NaN fails both tests
    total = np.add.reduce(p)
    if not abs(total - 1.0) <= 1e-9:
        raise DomainError(f"cell probabilities must sum to 1, got {total!r}")
    if not np.minimum.reduce(p) >= PROB_FLOOR:
        raise EvaluationError(
            f"cell probability below the {PROB_FLOOR} floor in cells "
            f"{np.nonzero(p < PROB_FLOOR)[0].tolist()}"
        )
    expected = n * p
    value = np.add.reduce((m - expected) ** 2 / expected, axis=-1)
    return float(value) if m.ndim == 1 else value


def _check_unit_interval(u: np.ndarray, what: str) -> None:
    # one min/max pass; NaN fails both comparisons
    if u.size and not (u.min() >= 0.0 and u.max() <= 1.0):
        bad = ~((u >= 0.0) & (u <= 1.0))
        raise EvaluationError(
            f"{what} produced invalid values at observations "
            f"{np.unique(np.nonzero(bad)[-1]).tolist()}"
        )


def _diagnose_randomized(y, model, theta, f_below, f_at) -> None:
    """Raise EvaluationError naming the observations whose CDF pair leaves
    [0, 1], or whose collapsed interval holds zero mass by the log pmf."""
    _check_unit_interval(f_below, "CDF-below transform")
    _check_unit_interval(f_at, "CDF-at transform")
    collapsed = ~(f_at > f_below)
    if np.any(collapsed):
        zero = collapsed & (np.asarray(model.obs_logpmf(y, theta)) == -np.inf)
        if np.any(zero):
            raise EvaluationError(
                "observed outcome has zero probability at this draw for observations "
                f"{np.nonzero(zero)[0].tolist()}"
            )


def posterior_chisq_continuous(data, model, theta, scheme: BinScheme) -> BinnedStat:
    """Pearson statistic from CDF transforms at one parameter value or a batch.

    Each observation is mapped to u = F_j(y_j | theta) and assigned to a
    right-closed cell of the scheme; cell probabilities are the scheme's
    widths.  Reference law: chi-square with scheme.k - 1 degrees of freedom
    when theta is a posterior draw.

    theta may also be the stacked draws of the model's posterior_draws; row i
    of the result then equals the call at draw i alone.
    """
    y = np.asarray(data, dtype=float)
    u = np.asarray(model.obs_cdf(y, theta), dtype=float)
    try:
        counts = tally(scheme, u)
    except DomainError:
        # tally has found a value outside [0, 1]; name the observations
        _check_unit_interval(u, "CDF transform")
        raise
    widths = scheme.widths()
    return BinnedStat(pearson(counts, widths), counts, widths)


def posterior_chisq_discrete_randomized(
    data, model, theta, scheme: BinScheme, rng: RngStream
) -> BinnedStat:
    """Discrete-data variant: each outcome's CDF mass interval is resolved
    to a single point drawn uniformly within it, then binned as usual.

    A far-tail count can have a collapsed interval, so zero mass is judged
    by the model's log pmf, which does not round to zero.
    """
    y = np.asarray(data)
    f_below, f_at = model.obs_cdf_pair(y, theta)
    f_below = np.asarray(f_below, dtype=float)
    f_at = np.asarray(f_at, dtype=float)
    # A collapsed interval may be a zero-mass outcome, which only the log pmf
    # tells apart, so it is diagnosed before any point is drawn.  Otherwise
    # assign_discrete_randomized checks the ranges, and its DomainError is
    # diagnosed afterwards.  NaN fails the comparison, which never warns.
    if not np.logical_and.reduce(f_below < f_at, axis=None):
        _diagnose_randomized(y, model, theta, f_below, f_at)
    try:
        idx = assign_discrete_randomized(scheme, f_below, f_at, rng)
    except DomainError:
        _diagnose_randomized(y, model, theta, f_below, f_at)
        raise
    counts = np.bincount(idx, minlength=scheme.k)
    widths = scheme.widths()
    return BinnedStat(pearson(counts, widths), counts, widths)


def posterior_chisq(data, model, theta, scheme: BinScheme, rng=None) -> BinnedStat:
    """Pearson statistic at a posterior draw, or at each row of a stack of
    draws, by the model's kind: the CDF transform for a continuous model,
    which reads no rng; randomized allocation from rng for a discrete model,
    a stack's rows in order from the one rng.  A stack gives D values and
    D x K counts."""
    if not model.is_discrete:
        return posterior_chisq_continuous(data, model, theta, scheme)
    if rng is None:
        raise ConfigError("discrete models need an rng for randomized allocation")
    if np.ndim(theta) != 2:
        return posterior_chisq_discrete_randomized(data, model, theta, scheme, rng)
    values = np.empty(len(theta))
    counts = np.empty((len(theta), scheme.k), dtype=np.int64)
    for i, row in enumerate(theta):
        stat = posterior_chisq_discrete_randomized(data, model, row, scheme, rng)
        values[i], counts[i] = stat.value, stat.counts
    return BinnedStat(values, counts, scheme.widths())


def _data_space_counts(y: np.ndarray, edges) -> np.ndarray:
    cuts = np.asarray(edges, dtype=float)
    if cuts.ndim != 1 or cuts.size < 1 or np.any(np.diff(cuts) <= 0):
        raise DomainError("data-space edges must be strictly increasing interior cut points")
    idx = np.searchsorted(cuts, y, side="left")
    return np.bincount(idx, minlength=cuts.size + 1)


def plugin_chisq(data, model, edges) -> FittedStat:
    """Pearson statistic with cells fixed in data space and cell
    probabilities evaluated at the raw-data maximum-likelihood estimate.

    Its null law is not chi-square: it sits stochastically between
    chi-square(K - 1 - s) and chi-square(K - 1), s the number of fitted
    parameters.
    """
    y = np.asarray(data, dtype=float)
    theta = model.mle(y)
    counts = _data_space_counts(y, edges)
    probs = np.asarray(model.cell_probs(edges, theta), dtype=float)
    if np.any(probs < PROB_FLOOR):
        raise EvaluationError("fitted cell probability below floor at the MLE")
    return FittedStat(pearson(counts, probs), counts, probs, tuple(np.atleast_1d(theta)))


def _group_loglik(model, edges, counts: np.ndarray, vec: np.ndarray):
    """(log-likelihood, theta, cell probabilities) of the grouped counts at
    free parameters vec; the log-likelihood is -inf where a cell probability
    underflows or theta leaves the representable range."""
    try:
        theta = model.theta_from_free(vec)
    except OverflowError:
        return -np.inf, None, None
    p = np.asarray(model.cell_probs(edges, theta), dtype=float)
    if not np.minimum.reduce(p) >= 1e-300:  # NaN fails too
        return -np.inf, None, None
    return float(np.dot(counts, np.log(p))), theta, p


def grouped_chisq(data, model, edges) -> FittedStat:
    """Pearson statistic at the grouped-data maximum-likelihood estimate.

    The parameter maximizes the multinomial log-likelihood
    l = sum_j m_j log p_j of the observed cell counts m.  It is found by
    Fisher scoring in the model's free coordinates, started at the raw-data
    MLE: with J the model's cell_probs_jacobian, each step is I^-1 score,
    where score = J'(m / p) and I = n J' diag(1 / p) J, halved until l does
    not decrease.  The fit ends with the step whose Newton decrement
    score' I^-1 score is below SCORING_TOL * (1 + |l| + sum(m / p)), the
    scale on which l is rounded: about 3e-12 for 50 observations in 5
    well-fitting cells.  FittedStat.iterations counts the steps.  Reference
    law: chi-square(K - 1 - s).

    EvaluationError: l is not finite at the start, or a fitted cell
    probability lies below the floor.  OptimizationError: the information
    is singular, not finite or not positive definite, no halving of a step
    keeps l, or the fit takes more than SCORING_MAX_ITER steps.
    """
    y = np.asarray(data, dtype=float)
    counts = _data_space_counts(y, edges)
    n = counts.sum()
    vec = np.asarray(model.free_params(model.mle(y)), dtype=float)
    loglik, theta, probs = _group_loglik(model, edges, counts, vec)
    if loglik == -np.inf:
        raise EvaluationError("grouped likelihood is not finite at the raw MLE start")
    # a trial step may push theta to where the cell probabilities over- or
    # underflow; such a trial has l = -inf and is halved, so numpy's warnings
    # about it would only be noise
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for iterations in range(1, SCORING_MAX_ITER + 1):
            jac = np.asarray(model.cell_probs_jacobian(edges, theta), dtype=float)
            ratio = counts / probs
            score = jac.T @ ratio
            # l is rounded by about one unit per unit of |l| + sum(m / p): the
            # sum, and cell probabilities with an absolute rounding error
            tol = SCORING_TOL * (1.0 + abs(loglik) + np.add.reduce(ratio))
            info = n * (jac.T / probs) @ jac
            if not np.logical_and.reduce(np.isfinite(info), axis=None):
                raise OptimizationError("grouped-fit information matrix is not finite")
            try:
                step = np.linalg.solve(info, score)
            except np.linalg.LinAlgError:
                raise OptimizationError("grouped-fit information matrix is singular") from None
            decrement = float(score @ step)
            if not decrement >= 0.0:  # NaN fails too
                raise OptimizationError(
                    "grouped-fit information matrix is not positive definite"
                )
            for _ in range(SCORING_MAX_HALVINGS):
                trial = _group_loglik(model, edges, counts, vec + step)
                if trial[0] >= loglik:
                    break
                step = 0.5 * step
            else:
                raise OptimizationError(
                    "no halving of the scoring step keeps the grouped likelihood"
                )
            vec = vec + step
            loglik, theta, probs = trial
            # scoring converges linearly, so the step that meets the
            # tolerance is still worth taking
            if decrement < tol:
                break
        else:
            raise OptimizationError(
                f"grouped MLE did not converge in {SCORING_MAX_ITER} scoring steps"
            )
    if np.any(probs < PROB_FLOOR):
        raise EvaluationError("grouped-fit cell probability below floor")
    return FittedStat(
        pearson(counts, probs), counts, probs, tuple(np.atleast_1d(theta)), iterations
    )


def chisq_discrepancy(y_rep, model, theta) -> float:
    """Variance-scaled squared-residual discrepancy for a replicate dataset.

    Useful as a posterior-predictive comparator; unlike the binned statistics
    it has no chi-square reference law under parameter uncertainty.
    """
    y = np.asarray(y_rep, dtype=float)
    mean, var = model.obs_mean_var(theta)
    mean = np.broadcast_to(np.asarray(mean, dtype=float), y.shape)
    var = np.broadcast_to(np.asarray(var, dtype=float), y.shape)
    if np.any(var <= 0) or not np.all(np.isfinite(var)):
        raise EvaluationError("observation variances must be positive and finite")
    return float(np.sum((y - mean) ** 2 / var))


def reference_auc(values, dof: int) -> float:
    """Probability that the statistic exceeds an independent chi-square(dof)
    variate, averaged over the supplied draws.

    Equals the area under the ROC curve separating the two laws; 0.5 when the
    draws follow the reference chi-square exactly, and near 1 under misfit.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise DomainError("need a non-empty 1-D vector of statistic values")
    # one min/max pass; NaN fails both comparisons
    if not (np.minimum.reduce(v) >= 0.0 and np.maximum.reduce(v) < np.inf):
        raise DomainError("statistic values must be finite and non-negative")
    if dof < 1:
        raise DomainError(f"dof must be >= 1, got {dof}")
    # Pr(value > X) for X ~ chi-square(dof): the CDF at each draw, averaged;
    # the sum over the count is the arithmetic of np.mean without its wrapper
    return float(np.add.reduce(probkit.chi2_cdf(dof, v)) / v.size)


def exceedance(values, threshold: float) -> float:
    """Fraction of draws strictly above the threshold."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise DomainError("need a non-empty 1-D vector of statistic values")
    if not np.isfinite(threshold):
        raise DomainError("threshold must be finite")
    return float(np.mean(v > threshold))

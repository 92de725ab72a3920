"""Chi-square goodness-of-fit statistics and their summaries.

The central quantity is a Pearson statistic whose cell counts come from
probability-integral transforms of the observations, evaluated at a single
parameter value sampled from the posterior.  Its reference law is chi-square
with (cells - 1) degrees of freedom regardless of how many parameters the
model carries, which is what makes averaging tail areas over posterior draws
meaningful.  Classical comparators (cells fixed in data space, parameters
fitted by raw-data or grouped maximum likelihood) are provided for the same
cell layouts.

The posterior statistic comes back as a BinnedStat, the value and the cell
counts, once per evaluated draw on the per-draw paths; the classical fits
come back as a FittedStat and begin from a RawStart.  All three are named
tuples, which cost less to build than frozen dataclasses.

Each Fisher-scoring step of the grouped fit is one pass over the cells on
Python floats: the score, the information and sum(m / p), and the
log-likelihood of a trial point, are each added left to right from 0.0, in
cell order.  Those are plain IEEE additions, so the fit gives the same bits
on every CPython, unlike builtin sum, which compensates float sums from
Python 3.12 on.

pearson on a vector of integer counts adds its terms the same way when there
are fewer than PAIRWISE_BLOCK (8) cells.  That is the order in which numpy's
pairwise sum adds so short a run, so the value is np.add.reduce's bit for
bit without building an array; from 8 cells on, np.add.reduce sums them.
Neither math.fsum nor builtin sum would keep those bits.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import probkit
from .binning import PROB_FLOOR, BinScheme, assign_discrete_randomized, check_cell_probs, tally
from .errors import ConfigError, DomainError, EvaluationError, OptimizationError, first_ten
from .probkit import RngStream

__all__ = [
    "BinnedStat",
    "FittedStat",
    "RawStart",
    "pearson",
    "posterior_chisq",
    "posterior_chisq_continuous",
    "posterior_chisq_discrete_randomized",
    "plugin_chisq",
    "grouped_chisq",
    "grouped_dof",
    "reference_auc",
    "exceedance",
]

# grouped-MLE Fisher scoring: stop below this Newton decrement relative to the
# rounding scale of the log-likelihood (steps stall near 1e-17 of it), give up
# after this many steps, and halve a step at most this many times
SCORING_TOL = 1e-14
SCORING_MAX_ITER = 50
SCORING_MAX_HALVINGS = 60

# numpy's pairwise float sum adds a run shorter than its 8-value block left
# to right from zero, and a longer one in 8 interleaved accumulators
# (pairwise_sum in numpy/_core/src/umath/loops_utils.h.src); below this
# length a Python loop adds a vector's Pearson terms in numpy's order
PAIRWISE_BLOCK = 8

# an integer batch whose largest count times K reaches this may hold a row
# total that a 64-bit sum wraps or a float rounds; its rows are scored as
# vectors, on Python ints
EXACT_TOTAL = 2**53


class BinnedStat(NamedTuple):
    """A float and K counts at one parameter value; D values and D x K counts
    for a batch of D draws."""

    value: float | np.ndarray
    counts: np.ndarray


class RawStart(NamedTuple):
    """What both classical fits begin from: the data-space cell counts, the
    cut points as floats, theta = the raw-data MLE and the cell
    probabilities at theta as floats."""

    counts: np.ndarray
    cuts: list
    theta: tuple
    probs: list


class FittedStat(NamedTuple):
    """A classical statistic together with the parameter value it used; the
    plugin statistic also keeps the RawStart it was evaluated at."""

    value: float
    counts: np.ndarray
    probs: np.ndarray
    theta: tuple
    iterations: int = 0
    start: RawStart | None = None


def pearson(counts, probs):
    """Sum of (observed - expected)^2 / expected over cells: a float for a
    vector of counts, one value per row for a 2-D array of counts.

    probs is a vector of cell probabilities, checked on each call by
    binning.check_cell_probs, or a BinScheme, whose widths are the cell
    probabilities and passed that check when it was built, so that
    pearson(counts, scheme) is pearson(counts, scheme.widths()).

    A vector of an integer dtype, as np.bincount, tally and the data-space
    counts give it, is scored on Python numbers: each term is
    (m - n p)^2 / (n p) in the same IEEE operations.  Below PAIRWISE_BLOCK
    cells the K terms are added into one float left to right from 0.0,
    which is the order of numpy's pairwise sum on so short a run; from
    PAIRWISE_BLOCK cells on, np.add.reduce sums them.  Either way the value
    is the array path's bit for bit.  Its total n is exact, where an int64
    total would wrap above 2^63.  Float counts and 2-D batches are scored as
    arrays, except an integer batch whose largest count times K reaches
    EXACT_TOTAL: each of its rows is scored by its own vector call, so it
    gives that call's value or refusal.  Both paths make the same checks,
    with the same messages and warnings.
    """
    m = np.asarray(counts)
    fixed = isinstance(probs, BinScheme)
    p = probs.widths() if fixed else np.asarray(probs, dtype=float)
    if m.ndim not in (1, 2) or p.ndim != 1 or m.shape[-1] != p.size or m.size < 2:
        raise DomainError(
            "counts must be a vector, or rows of vectors, matching probs of length >= 2"
        )
    vector = m.ndim == 1 and m.dtype.kind in "iu"
    if vector:  # an integer dtype needs no whole-number check
        m = m.tolist()
        whole = min(m) >= 0
    else:
        if m.dtype.kind not in "iu":
            m = m.astype(float)
        elif int(np.maximum.reduce(m, axis=None)) * m.shape[-1] >= EXACT_TOTAL:
            return np.array([pearson(row, probs) for row in m])
        # the checks call the ufunc reductions that ndarray.min/sum end in,
        # without their Python-level wrappers
        whole = np.minimum.reduce(m, axis=None) >= 0 and (
            m.dtype.kind != "f" or np.logical_and.reduce(m == np.floor(m), axis=None)
        )
    if not whole:
        raise DomainError("counts must be non-negative integers")
    if vector:
        n = lowest_total = sum(m)
    else:
        n = np.add.reduce(m, axis=-1, keepdims=True)  # one total per row, as a column
        lowest_total = np.minimum.reduce(n, axis=None)
    if not lowest_total > 0:
        raise DomainError("counts must sum to a positive total")
    q = probs.cell_probs() if fixed else check_cell_probs(p)
    if vector:
        if len(m) < PAIRWISE_BLOCK:
            total = 0.0
            for m_j, p_j in zip(m, q):
                e_j = n * p_j
                d_j = m_j - e_j
                total += d_j * d_j / e_j
            return total
        terms = []
        for m_j, p_j in zip(m, q):
            e_j = n * p_j
            d_j = m_j - e_j
            terms.append(d_j * d_j / e_j)
        return float(np.add.reduce(terms))
    expected = n * p
    value = np.add.reduce((m - expected) ** 2 / expected, axis=-1)
    return float(value) if m.ndim == 1 else value


def _check_unit_interval(u, what: str) -> None:
    # one min/max pass; NaN fails both comparisons
    u = np.asarray(u, dtype=float)
    if u.size and not (u.min() >= 0.0 and u.max() <= 1.0):
        bad = ~((u >= 0.0) & (u <= 1.0))
        raise EvaluationError(
            f"{what} produced invalid values at observations "
            f"{first_ten(np.unique(np.nonzero(bad)[-1]).tolist())}"
        )


def posterior_chisq_continuous(data, model, theta, scheme: BinScheme) -> BinnedStat:
    """Pearson statistic from CDF transforms at one parameter value or a batch.

    Each observation is mapped to u = F_j(y_j | theta) and assigned to a
    right-closed cell of the scheme; cell probabilities are the scheme's
    widths.  Reference law: chi-square with scheme.k - 1 degrees of freedom
    when theta is a posterior draw.

    theta may also be a stack of draws from the model's posterior_sample; row i
    of the result then equals the call at draw i alone.
    """
    u = model.obs_cdf(data, theta)
    try:
        counts = tally(scheme, u)
    except DomainError:
        # tally has found a value outside [0, 1]; name the observations
        _check_unit_interval(u, "CDF transform")
        raise
    return BinnedStat(pearson(counts, scheme), counts)


def posterior_chisq_discrete_randomized(
    data, model, theta, scheme: BinScheme, rng: RngStream
) -> BinnedStat:
    """Discrete-data variant: each outcome's CDF mass interval is resolved
    to a single point drawn uniformly within it, then binned as usual.

    The model's CDF pair is taken as it is: a far-tail count whose mass is
    below the rounding of its CDF values has a collapsed interval and lands
    at its CDF value, so an outlier count gives a statistic.  A pair outside
    0 <= f_below <= f_at <= 1 is refused, naming the observations whose
    CDF values leave [0, 1].
    """
    f_below, f_at = model.obs_cdf_pair(data, theta)
    try:
        idx = assign_discrete_randomized(scheme, f_below, f_at, rng)
    except DomainError:
        # a value outside [0, 1] is named; an inverted pair is raised as it is
        _check_unit_interval(f_below, "CDF-below transform")
        _check_unit_interval(f_at, "CDF-at transform")
        raise
    counts = np.bincount(idx, minlength=scheme.k)
    return BinnedStat(pearson(counts, scheme), counts)


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
    y = np.asarray(data, dtype=float)  # converted once for all rows
    values = np.empty(len(theta))
    counts = np.empty((len(theta), scheme.k), dtype=np.int64)
    for i, row in enumerate(theta):
        stat = posterior_chisq_discrete_randomized(y, model, row, scheme, rng)
        values[i], counts[i] = stat.value, stat.counts
    return BinnedStat(values, counts)


def _data_space_counts(y: np.ndarray, edges) -> tuple[np.ndarray, list[float]]:
    """The counts of y in the cells between the edges, and the edges as floats."""
    cuts = np.asarray(edges, dtype=float)
    floats = cuts.tolist()
    if cuts.ndim != 1 or cuts.size < 1 or any(b <= a for a, b in zip(floats, floats[1:])):
        raise DomainError("data-space edges must be strictly increasing interior cut points")
    idx = np.searchsorted(cuts, y, side="left")
    return np.bincount(idx, minlength=cuts.size + 1), floats


def _raw_start(data, model, edges) -> RawStart:
    """The raw-MLE start of the classical fits on data with cells between
    the edges.  It checks no floor on the cell probabilities: each fit
    applies its own."""
    y = np.asarray(data, dtype=float)
    theta = tuple(model.mle(y))
    counts, cuts = _data_space_counts(y, edges)
    return RawStart(counts, cuts, theta, model.cell_probs(cuts, theta))


def plugin_chisq(data, model, edges) -> FittedStat:
    """Pearson statistic with cells fixed in data space and cell
    probabilities evaluated at the raw-data maximum-likelihood estimate.

    Its null law is not chi-square: it sits stochastically between
    chi-square(K - 1 - s) and chi-square(K - 1), s the number of fitted
    parameters.  EvaluationError: a cell probability at the MLE lies below
    the PROB_FLOOR.  FittedStat.start holds the RawStart it used, which
    grouped_chisq takes so as not to build it again.
    """
    start = _raw_start(data, model, edges)
    if any(q < PROB_FLOOR for q in start.probs):
        raise EvaluationError("fitted cell probability below floor at the MLE")
    probs = np.asarray(start.probs, dtype=float)
    return FittedStat(
        pearson(start.counts, probs), start.counts, probs, start.theta, start=start
    )


def _group_loglik(model, edges: list, counts: list, vec: list, start: RawStart | None = None):
    """(log-likelihood, theta, cell probabilities) of the grouped counts at
    free parameters vec, all as floats; the log-likelihood is -inf where
    theta leaves the representable range (an overflow, or a scale that
    underflows to 0 and is divided by) or a cell probability is NaN or
    below 1e-300.  The probabilities of a RawStart are taken as they are
    when theta is the start's theta."""
    try:
        theta = model.theta_from_free(vec)
        if start is not None and theta == start.theta:
            p = start.probs
        else:
            p = model.cell_probs(edges, theta)
    except (OverflowError, ZeroDivisionError):
        return -math.inf, None, None
    loglik = 0.0
    for m_j, p_j in zip(counts, p):
        if not p_j >= 1e-300:  # NaN fails too
            return -math.inf, None, None
        loglik += m_j * math.log(p_j)
    return loglik, theta, p


def _cholesky_step(i_aa: float, i_ba: float, i_bb: float, g_a: float, g_b: float) -> tuple:
    """x with I x = g for the 2 x 2 information I = [[i_aa, i_ba], [i_ba,
    i_bb]] and the score g, through the Cholesky factor of I: pivots d_a =
    sqrt(i_aa) and d_b = sqrt(i_bb - l^2), l = i_ba / d_a.
    OptimizationError unless I is positive definite, which a singular I is
    not."""
    if not i_aa > 0.0:  # NaN fails too
        raise OptimizationError("grouped-fit information matrix is not positive definite")
    d_a = math.sqrt(i_aa)
    low = i_ba / d_a
    pivot = i_bb - low * low
    if not pivot > 0.0:
        raise OptimizationError("grouped-fit information matrix is not positive definite")
    d_b = math.sqrt(pivot)
    z_a = g_a / d_a  # L z = g, then L' x = z
    x_b = (g_b - low * z_a) / d_b / d_b
    return (z_a - low * x_b) / d_a, x_b


def grouped_chisq(data, model, edges, start: RawStart | None = None) -> FittedStat:
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
    law: chi-square(K - 1 - s), grouped_dof degrees of freedom.

    start is the RawStart of the data and edges, built here when it is
    None; a caller that has the plugin fit passes its FittedStat.start, so
    that the MLE and the counts are not computed twice.  The start's cell
    probabilities need only lie at or above 1e-300, not at PROB_FLOOR as
    for the plugin statistic.

    The fit frees s = 2 parameters, as every classical comparator has,
    and the steps run on Python floats, with no array inside the
    loop: the counts and edges are converted once, the model's cell_probs
    and cell_probs_jacobian return lists, one pass over the K cells adds
    the two score entries, the three distinct entries of I and sum(m / p)
    into six floats, and the step solves I through its 2 x 2 Cholesky
    factor.  A trial point's l is added up in one more pass, which stops
    at the first cell probability below 1e-300.  Every such sum starts
    at 0.0 and adds the cells left to right, so the fit rounds the same on
    every CPython version.  A trial step at which theta overflows, sigma
    underflows to 0, or a cell probability is NaN or below 1e-300, has
    l = -inf and is halved.  The FittedStat is a named tuple.

    EvaluationError: l is not finite at the start, or a fitted cell
    probability lies below the floor.  OptimizationError: the information
    is not finite or not positive definite (a singular one included), no
    halving of a step keeps l, or the fit takes more than SCORING_MAX_ITER
    steps.
    """
    if start is None:
        start = _raw_start(data, model, edges)
    cuts = start.cuts
    counts = start.counts.tolist()
    n = sum(counts)
    vec = model.free_params(start.theta)
    loglik, theta, probs = _group_loglik(model, cuts, counts, vec, start)
    if loglik == -math.inf:
        raise EvaluationError("grouped likelihood is not finite at the raw MLE start")
    for iterations in range(1, SCORING_MAX_ITER + 1):
        # one pass over the K rows (J_a, J_b) of J sums the score terms, the
        # information terms (J_a / p) J_a, (J_b / p) J_a and (J_b / p) J_b,
        # and m / p
        g_a = g_b = s_aa = s_ba = s_bb = ratio_sum = 0.0
        for m_j, p_j, (ja, jb) in zip(counts, probs, model.cell_probs_jacobian(cuts, theta)):
            r = m_j / p_j
            wa, wb = ja / p_j, jb / p_j
            g_a += ja * r
            g_b += jb * r
            s_aa += wa * ja
            s_ba += wb * ja
            s_bb += wb * jb
            ratio_sum += r
        i_aa, i_ba, i_bb = n * s_aa, n * s_ba, n * s_bb
        if not all(map(math.isfinite, (i_aa, i_ba, i_bb))):
            raise OptimizationError("grouped-fit information matrix is not finite")
        # l is rounded by about one unit per unit of |l| + sum(m / p): the
        # sum, and cell probabilities with an absolute rounding error
        tol = SCORING_TOL * (1.0 + abs(loglik) + ratio_sum)
        d_a, d_b = _cholesky_step(i_aa, i_ba, i_bb, g_a, g_b)
        decrement = g_a * d_a + g_b * d_b
        for _ in range(SCORING_MAX_HALVINGS):
            trial_vec = [vec[0] + d_a, vec[1] + d_b]
            trial = _group_loglik(model, cuts, counts, trial_vec)
            if trial[0] >= loglik:
                break
            d_a, d_b = 0.5 * d_a, 0.5 * d_b
        else:
            raise OptimizationError(
                "no halving of the scoring step keeps the grouped likelihood"
            )
        vec = trial_vec
        loglik, theta, probs = trial
        # scoring converges linearly, so the step that meets the
        # tolerance is still worth taking
        if decrement < tol:
            break
    else:
        raise OptimizationError(
            f"grouped MLE did not converge in {SCORING_MAX_ITER} scoring steps"
        )
    if not all(q >= PROB_FLOOR for q in probs):
        raise EvaluationError("grouped-fit cell probability below floor")
    p = np.asarray(probs)
    return FittedStat(pearson(start.counts, p), start.counts, p, tuple(theta), iterations)


def grouped_dof(k: int) -> int:
    """The degrees of freedom k - 1 - s of grouped_chisq's statistic on k
    cells, s = 2 the parameters its fit frees; ConfigError unless at least 1."""
    dof = k - 3
    if dof < 1:
        raise ConfigError(
            f"the grouped-MLE statistic has k - 1 - s = {dof} degrees of freedom "
            f"with k = {k} cells and s = 2 fitted parameters; it needs k >= 4"
        )
    return dof


def _statistic_vector(values) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise DomainError("need a non-empty 1-D vector of statistic values")
    return v


def reference_auc(values, dof: int) -> float:
    """Probability that the statistic exceeds an independent chi-square(dof)
    variate, averaged over the supplied draws.

    Equals the area under the ROC curve separating the two laws; 0.5 when the
    draws follow the reference chi-square exactly, and near 1 under misfit.
    """
    v = _statistic_vector(values)
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
    v = _statistic_vector(values)
    if not math.isfinite(threshold):
        raise DomainError("threshold must be finite")
    return float(np.count_nonzero(v > threshold) / v.size)

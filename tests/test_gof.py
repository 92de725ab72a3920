"""Statistic-level checks: hand-computable Pearson values, exact-fit zeros,
the classical comparators, and the tail-area summaries."""

import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayesgof import gof, probkit
from bayesgof.binning import assign, assign_discrete_randomized, equiprobable
from bayesgof.errors import DomainError, EvaluationError, OptimizationError
from bayesgof.gof import (
    chisq_discrepancy,
    exceedance,
    grouped_chisq,
    pearson,
    plugin_chisq,
    posterior_chisq_continuous,
    posterior_chisq_discrete_randomized,
    reference_auc,
)
from bayesgof.models import (
    ChainSettings,
    NormalModel,
    PoissonCommonRate,
    PoissonExchangeable,
    PoissonSaturated,
)
from bayesgof.probkit import RngStream, split


def test_pearson_exact_fit_is_zero():
    assert pearson([1, 1, 1, 1, 1], [0.2] * 5) == 0.0


def test_pearson_total_concentration():
    assert pearson([5, 0, 0, 0, 0], [0.2] * 5) == pytest.approx(20.0)


def test_pearson_two_cells():
    assert pearson([3, 2], [0.5, 0.5]) == pytest.approx(0.2)


def test_pearson_rejects_bad_probs():
    with pytest.raises(DomainError):
        pearson([1, 1], [0.6, 0.6])
    with pytest.raises(DomainError):
        pearson([1, -1], [0.5, 0.5])
    with pytest.raises(EvaluationError):
        pearson([1, 1, 0], [0.5, 0.5, 0.0])


def test_pearson_rows_equal_single_calls():
    probs = np.array([0.1, 0.2, 0.3, 0.4])
    counts = RngStream(5).generator.multinomial(40, probs, size=7)
    values = pearson(counts, probs)
    assert values.shape == (7,)
    assert values.tolist() == [pearson(row, probs) for row in counts]


@pytest.mark.parametrize(
    "counts, probs, error",
    [
        ([1, 1], [0.6, 0.6], DomainError),
        ([1, -1], [0.5, 0.5], DomainError),
        ([1.5, 1], [0.5, 0.5], DomainError),
        ([0, 0], [0.5, 0.5], DomainError),
        ([1, 1, 0], [0.5, 0.5], DomainError),
        ([1, 1, 0], [0.5, 0.5, 0.0], EvaluationError),
    ],
)
def test_pearson_rows_reject_what_single_calls_reject(counts, probs, error):
    with pytest.raises(error):
        pearson(counts, probs)
    with pytest.raises(error):
        pearson(np.array([[2] * len(counts), counts]), probs)


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(2, 12),
    draws=st.integers(1, 6),
    n=st.integers(2, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_continuous_equals_single_draw_calls(k, draws, n, seed):
    model = NormalModel()
    y = RngStream(seed).generator.normal(0.3, 1.7, n)
    mu, sigma = model.posterior_draws(y, draws, split(RngStream(seed), 1)).T
    scheme = equiprobable(k)
    batch = posterior_chisq_continuous(y, model, np.column_stack((mu, sigma)), scheme)
    assert batch.counts.shape == (draws, k)
    for i in range(draws):
        one = posterior_chisq_continuous(y, model, (mu[i], sigma[i]), scheme)
        assert batch.value[i] == one.value
        assert np.array_equal(batch.counts[i], one.counts)


_OFFSETS = np.linspace(0.5, 2.0, 12)


@pytest.mark.parametrize("model", [
    PoissonCommonRate(_OFFSETS),
    PoissonSaturated(_OFFSETS),
    PoissonExchangeable(_OFFSETS, settings=ChainSettings(burn_in=50)),
])
def test_discrete_stack_equals_row_by_row_calls(model):
    # a stack's rows are allocated in order from the one stream
    y = RngStream(60).generator.poisson(4.0, _OFFSETS.size)
    thetas = model.posterior_sample(y, 9, RngStream(61))
    scheme = equiprobable(4)
    stack = gof.posterior_chisq(y, model, thetas, scheme, RngStream(62))
    rng = RngStream(62)
    rows = [gof.posterior_chisq(y, model, theta, scheme, rng) for theta in thetas]
    assert np.array_equal(stack.value, [row.value for row in rows])
    assert np.array_equal(stack.counts, [row.counts for row in rows])


def test_continuous_exact_fit():
    model = NormalModel()
    data = probkit.normal_quantile(np.array([0.1, 0.3, 0.5, 0.7, 0.9]))
    stat = posterior_chisq_continuous(data, model, (0.0, 1.0), equiprobable(5))
    assert stat.value == pytest.approx(0.0, abs=1e-12)
    assert list(stat.counts) == [1, 1, 1, 1, 1]


def test_continuous_gross_misfit():
    model = NormalModel()
    data = probkit.normal_quantile(np.array([0.1, 0.3, 0.5, 0.7, 0.9]))
    stat = posterior_chisq_continuous(data, model, (10.0, 1.0), equiprobable(5))
    assert stat.value == pytest.approx(20.0)
    assert list(stat.counts) == [5, 0, 0, 0, 0]


class _FixedCdf:
    """Hands back fixed CDF values, whatever the draw."""

    def __init__(self, u):
        self.u = np.array(u, dtype=float)

    def obs_cdf(self, y, theta):
        return self.u


@pytest.mark.parametrize("u, named", [
    ([0.1, 1.5, 0.3, np.nan, 0.0, 1.0], [1, 3]),
    ([[0.1, 0.2, 0.3, 0.4], [0.1, -0.2, 0.3, np.inf], [0.9, -0.0, 1.0, 0.5]], [1, 3]),
    ([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6], [np.nan, 0.0, 1.0]], [0]),
    ([[1.0, 0.0, 1.0 + 2.0**-52], [-0.0, 0.5, 0.5]], [2]),
])
def test_continuous_out_of_range_cdf_names_its_observations(u, named):
    model = _FixedCdf(u)
    y = np.zeros(model.u.shape[-1])
    with pytest.raises(EvaluationError, match=rf"CDF transform produced invalid values at "
                                              rf"observations \[{', '.join(map(str, named))}\]$"):
        posterior_chisq_continuous(y, model, None, equiprobable(4))


def test_randomized_single_observation_two_cells():
    # n=1, K=2: value is 1.0 whichever cell receives the point
    model = PoissonCommonRate(offsets=[1.0])
    stat = posterior_chisq_discrete_randomized(
        np.array([2]), model, [2.0], equiprobable(2), RngStream(4)
    )
    assert stat.value == pytest.approx(1.0)


def test_randomized_impossible_outcome_rejected():
    model = PoissonCommonRate(offsets=[1.0, 1.0])
    tiny = 1e-310
    with pytest.raises(EvaluationError):
        posterior_chisq_discrete_randomized(
            np.array([40, 40]), model, [tiny], equiprobable(5), RngStream(0)
        )


def test_randomized_outlier_lands_in_top_cell():
    # pdtr(299, 25) and pdtr(300, 25) both round to 1.0, yet the mass of 300
    # is about 1e-206; the outlier is binned at 1, in the top cell
    model = PoissonCommonRate(offsets=[25.0, 25.0, 25.0])
    stat = posterior_chisq_discrete_randomized(
        np.array([300, 0, 0]), model, [1.0], equiprobable(5), RngStream(6)
    )
    assert stat.counts[4] >= 1
    lone = PoissonCommonRate(offsets=[25.0])
    stat = posterior_chisq_discrete_randomized(
        np.array([300]), lone, [1.0], equiprobable(5), RngStream(6)
    )
    assert list(stat.counts) == [0, 0, 0, 0, 1]
    assert stat.value == pytest.approx(4.0)


def test_randomized_zero_count_at_huge_mean_lands_in_bottom_cell():
    # exp(-1e4) underflows, so both CDF values are 0.0
    model = PoissonCommonRate(offsets=[1e4])
    stat = posterior_chisq_discrete_randomized(
        np.array([0]), model, [1.0], equiprobable(5), RngStream(7)
    )
    assert list(stat.counts) == [1, 0, 0, 0, 0]


class _ZeroMassModel:
    """Outcome 0 has no mass: its CDF interval is empty at 0.5."""

    def obs_cdf_pair(self, y, theta):
        return np.where(y == 0, 0.5, 0.25), np.where(y == 0, 0.5, 0.75)

    def obs_logpmf(self, y, theta):
        return np.where(y == 0, -np.inf, np.log(0.5))


def test_randomized_true_zero_mass_rejected():
    with pytest.raises(EvaluationError):
        posterior_chisq_discrete_randomized(
            np.array([1, 0, 1]), _ZeroMassModel(), None, equiprobable(4), RngStream(8)
        )


def test_plugin_counts_and_probs():
    model = NormalModel()
    rng = RngStream(15)
    y = rng.generator.normal(0.0, 1.0, 80)
    edges = probkit.normal_quantile(np.arange(1, 5) / 5)
    stat = plugin_chisq(y, model, edges)
    assert stat.counts.sum() == 80
    assert abs(stat.probs.sum() - 1.0) < 1e-9
    assert stat.value >= 0.0


def test_grouped_improves_group_likelihood():
    model = NormalModel()
    rng = RngStream(21)
    y = rng.generator.normal(0.4, 1.3, 60)
    edges = probkit.normal_quantile(np.arange(1, 5) / 5)
    raw = plugin_chisq(y, model, edges)
    grp = grouped_chisq(y, model, edges)

    def group_loglik(theta):
        p = model.cell_probs(edges, theta)
        return float(np.dot(grp.counts, np.log(p)))

    assert group_loglik(grp.theta) >= group_loglik(raw.theta) - 1e-9


def test_grouped_statistic_not_above_plugin_on_average():
    model = NormalModel()
    edges = probkit.normal_quantile(np.arange(1, 5) / 5)
    root = RngStream(61)
    diffs = []
    for r in range(60):
        y = split(root, r).generator.normal(0.0, 1.0, 50)
        diffs.append(plugin_chisq(y, model, edges).value - grouped_chisq(y, model, edges).value)
    assert np.mean(diffs) > 0.0


def _grouped_datasets(reps):
    """(edges, y) for seeded normal and t(2) samples of 50 at k 5 and 12."""
    root = RngStream(83)
    for k in (5, 12):
        edges = probkit.normal_quantile(np.arange(1, k) / k)
        for d, draw in enumerate((
            lambda g: g.standard_normal(50),
            lambda g: g.standard_t(2, 50),
        )):
            for r in range(reps):
                yield edges, draw(split(split(root, 2 * k + d), r).generator)


def test_grouped_score_vanishes_at_optimum():
    model = NormalModel()
    for edges, y in _grouped_datasets(10):
        grp = grouped_chisq(y, model, edges)
        jac = model.cell_probs_jacobian(edges, grp.theta)
        score = jac.T @ (grp.counts / grp.probs)
        assert np.abs(score).max() <= 1e-6 * y.size
        assert 1 <= grp.iterations <= gof.SCORING_MAX_ITER


def test_grouped_matches_tight_nelder_mead_reference():
    from scipy import optimize

    model = NormalModel()
    for edges, y in _grouped_datasets(50):
        grp = grouped_chisq(y, model, edges)
        counts = grp.counts

        def neg_loglik(vec):
            p = model.cell_probs(edges, model.theta_from_free(vec))
            return np.inf if np.any(p < 1e-300) else -float(counts @ np.log(p))

        ref = optimize.minimize(
            neg_loglik, model.free_params(model.mle(y)), method="Nelder-Mead",
            options={"xatol": 1e-12, "fatol": 1e-12, "maxiter": 20000},
        )
        ref_probs = model.cell_probs(edges, model.theta_from_free(ref.x))
        # at least the reference's likelihood, up to rounding of the sum
        assert float(counts @ np.log(grp.probs)) >= -ref.fun - 1e-11
        assert abs(grp.value - pearson(counts, ref_probs)) <= 1e-6


def _one_or_two_cell_samples(edges):
    spread = np.linspace(0.0, 0.1, 25)
    return [
        np.linspace(-0.05, 0.05, 50),  # around the median
        np.linspace(-40.0, -3.0, 50),  # the bottom cell
        np.r_[-3.0 + spread, 3.0 + spread],  # bottom and top cells, evenly
        np.r_[np.linspace(-3.0, -2.5, 40), np.linspace(2.5, 3.0, 10)],  # unevenly
        np.r_[edges[1] - 0.01 - spread / 2, edges[1] + 0.01 + spread / 2],  # adjacent
    ]


@pytest.mark.parametrize("k", [5, 12])
def test_grouped_one_or_two_cell_data_raise_documented_errors(k):
    model = NormalModel()
    edges = probkit.normal_quantile(np.arange(1, k) / k)
    for y in _one_or_two_cell_samples(edges):
        assert np.count_nonzero(np.bincount(np.searchsorted(edges, y))) <= 2
        with pytest.raises((EvaluationError, OptimizationError)):
            grouped_chisq(y, model, edges)


def test_scipy_optimize_not_imported_by_cli():
    src = os.path.dirname(os.path.dirname(os.path.abspath(gof.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, bayesgof.cli; sys.exit('scipy.optimize' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_discrepancy_zero_at_exact_mean():
    model = PoissonCommonRate(offsets=np.ones(6))
    y = np.full(6, 3.0)
    assert chisq_discrepancy(y, model, [3.0]) == 0.0


def test_discrepancy_one_sd_residual():
    model = PoissonCommonRate(offsets=np.ones(4))
    y = np.array([4.0, 4.0, 4.0, 6.0])
    assert chisq_discrepancy(y, model, [4.0]) == pytest.approx(1.0)


def test_discrepancy_mean_near_n():
    n = 30
    model = PoissonCommonRate(offsets=np.ones(n))
    gen = RngStream(99).generator
    y = gen.poisson(4.2, size=(10_000, n)).astype(float)
    vals = ((y - 4.2) ** 2 / 4.2).sum(axis=1)
    assert abs(vals.mean() - n) / n < 0.02
    one = chisq_discrepancy(y[0], model, [4.2])
    assert one == pytest.approx(((y[0] - 4.2) ** 2 / 4.2).sum())


def test_auc_all_zero_values():
    assert reference_auc(np.zeros(10), 4) == 0.0


def test_auc_at_chi2_median():
    # chi-square(4) median
    med = probkit.chi2_quantile(4, 0.5)
    assert abs(med - 3.3567) < 1e-3
    assert abs(reference_auc([med], 4) - 0.5) < 1e-3


def test_auc_null_centering():
    rng = RngStream(40)
    v = rng.generator.chisquare(4, 100_000)
    assert abs(reference_auc(v, 4) - 0.5) < 0.01


def test_auc_matches_direct_tail_simulation():
    # the closed form is the average of Pr(value > X), X an independent
    # chi-square(4) variate; compare with brute-force indicator pairs
    rng = RngStream(41)
    v = rng.generator.chisquare(4, 2000)
    x = rng.generator.chisquare(4, 2000)
    brute = float(np.mean(v > x))
    se = np.sqrt(0.25 / 2000)
    assert abs(reference_auc(v, 4) - brute) < 3 * se


def test_exceedance_examples():
    assert exceedance([10.0, 8.0], 9.49) == pytest.approx(0.5)
    assert exceedance([9.49], 9.49) == 0.0
    rng = RngStream(43)
    v = rng.generator.chisquare(4, 10_000)
    assert abs(exceedance(v, probkit.chi2_quantile(4, 0.95)) - 0.05) < 0.007


def test_classical_cdf_ordering(null_run_2000):
    # grouped stochastically below plugin, plugin below the posterior draw
    res, _ = null_run_2000
    post = np.asarray(res.series["posterior"].values)
    plug = np.asarray(res.series["plugin"].values)
    grp = np.asarray(res.series["grouped"].values)
    grid = np.linspace(0.1, probkit.chi2_quantile(4, 0.99), 50)

    def ecdf(sample, x):
        return np.searchsorted(np.sort(sample), x, side="right") / sample.size

    f_post = ecdf(post, grid)
    f_plug = ecdf(plug, grid)
    f_grp = ecdf(grp, grid)
    assert np.all(f_grp >= f_plug - 0.03)
    assert np.all(f_plug >= f_post - 0.03)


# --- the per-draw checks decide by reductions first; outcomes must not move --

def _reference_unit_interval(u, what):
    if u.size and not (u.min() >= 0.0 and u.max() <= 1.0):
        bad = ~((u >= 0.0) & (u <= 1.0))
        raise EvaluationError(
            f"{what} produced invalid values at observations "
            f"{np.unique(np.nonzero(bad)[-1]).tolist()}"
        )


def _reference_assign_randomized(scheme, f_below, f_at, rng):
    """The element-wise check sequence of assign_discrete_randomized, kept as
    the reference its one-reduction form must agree with."""
    lo = np.asarray(f_below, dtype=float)
    hi = np.asarray(f_at, dtype=float)
    if lo.size and not (lo.min() >= 0.0 and hi.max() <= 1.0):
        raise DomainError("CDF values must lie in [0, 1]")
    width = hi - lo
    at_edge = (width == 0.0) & ((hi == 0.0) | (lo == 1.0))
    if np.any(~((width > 0.0) | at_edge)):
        raise DomainError("zero-probability outcome: f_below must be < f_at, or equal at 0 or 1")
    v = rng.generator.random(lo.shape if lo.ndim else None)
    return assign(scheme, hi - v * width)


def _reference_discrete_randomized(y, model, theta, scheme, rng):
    f_below, f_at = model.obs_cdf_pair(y, theta)
    f_below = np.asarray(f_below, dtype=float)
    f_at = np.asarray(f_at, dtype=float)
    _reference_unit_interval(f_below, "CDF-below transform")
    _reference_unit_interval(f_at, "CDF-at transform")
    collapsed = ~(f_at > f_below)
    if np.any(collapsed):
        zero = collapsed & (np.asarray(model.obs_logpmf(y, theta)) == -np.inf)
        if np.any(zero):
            raise EvaluationError(
                "observed outcome has zero probability at this draw for observations "
                f"{np.nonzero(zero)[0].tolist()}"
            )
    idx = _reference_assign_randomized(scheme, f_below, f_at, rng)
    counts = np.bincount(idx, minlength=scheme.k)
    return gof.BinnedStat(pearson(counts, scheme.widths()), counts, scheme.widths())


class _TableModel:
    """Hands back fixed CDF pairs and log masses, whatever the draw."""

    def __init__(self, f_below, f_at, logpmf):
        self.pair = (np.array(f_below, dtype=float), np.array(f_at, dtype=float))
        self.logpmf = np.array(logpmf, dtype=float)

    def obs_cdf_pair(self, y, theta):
        return self.pair

    def obs_logpmf(self, y, theta):
        return self.logpmf


def _outcome(fn, *args):
    """What a call did: the exception type and message, or its result; a
    numpy warning counts as a failure of the call."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = fn(*args)
        except (DomainError, EvaluationError) as exc:
            return type(exc), str(exc)
    if isinstance(out, gof.BinnedStat):
        return float(out.value), np.asarray(out.counts).tolist()
    return np.asarray(out).tolist()


_cdf_value = st.floats(min_value=0.0, max_value=1.0)
_wild_value = st.one_of(
    _cdf_value, st.sampled_from([np.nan, np.inf, -np.inf, -0.25, 1.25, -0.0, 1e-300])
)
_cdf_interval = st.one_of(
    st.tuples(_cdf_value, _cdf_value).map(lambda t: tuple(sorted(t))),  # may collapse
    st.tuples(_cdf_value, _cdf_value),  # either order
    _cdf_value.map(lambda x: (x, x)),  # collapsed in the interior
    st.sampled_from([(0.0, 0.0), (1.0, 1.0)]),  # collapsed at an end
    st.tuples(_wild_value, _wild_value),  # NaN and values outside [0, 1]
)


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(
        st.tuples(_cdf_interval, st.sampled_from([-np.inf, -2.5])), min_size=0, max_size=8
    ),
    k=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_randomized_checks_match_the_element_wise_reference(rows, k, seed):
    f_below = [lo for (lo, _), _ in rows]
    f_at = [hi for (_, hi), _ in rows]
    logpmf = [lp for _, lp in rows]
    model = _TableModel(f_below, f_at, logpmf)
    y = np.zeros(len(rows), dtype=np.int64)
    scheme = equiprobable(k)
    assert _outcome(
        posterior_chisq_discrete_randomized, y, model, None, scheme, RngStream(seed)
    ) == _outcome(_reference_discrete_randomized, y, model, None, scheme, RngStream(seed))
    lo, hi = model.pair
    assert _outcome(assign_discrete_randomized, scheme, lo, hi, RngStream(seed)) == _outcome(
        _reference_assign_randomized, scheme, lo, hi, RngStream(seed)
    )


@pytest.mark.parametrize("probs", [
    [np.nan, 0.5], [0.5, np.nan], [np.nan, np.nan], [np.inf, 0.5], [0.5, -np.inf],
])
def test_pearson_rejects_nan_and_infinite_probs(probs):
    with pytest.raises(DomainError, match="must sum to 1"):
        pearson([3, 2], probs)
    with pytest.raises(DomainError, match="must sum to 1"):
        pearson(np.array([[3, 2], [1, 4]]), probs)

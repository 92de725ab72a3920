"""Statistic-level checks: hand-computable Pearson values, exact-fit zeros,
the classical comparators, and the tail-area summaries."""

import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp

from bayesgof import gof, probkit
from bayesgof.binning import assign, assign_discrete_randomized, equiprobable
from bayesgof.errors import ConfigError, DomainError, EvaluationError, OptimizationError
from bayesgof.gof import (
    exceedance,
    grouped_chisq,
    grouped_dof,
    pearson,
    plugin_chisq,
    posterior_chisq_continuous,
    posterior_chisq_discrete_randomized,
    reference_auc,
)
from bayesgof.models import NormalModel, PoissonCommonRate
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


def _pearson_terms(row, probs):
    # pearson's terms on Python numbers, in its IEEE operations
    n = sum(row.tolist())
    terms = []
    for m_j, p_j in zip(row.tolist(), probs):
        e_j = n * p_j
        d_j = m_j - e_j
        terms.append(d_j * d_j / e_j)
    return terms


@pytest.mark.parametrize(
    "dtype", [np.int8, np.uint16, np.int64, np.intp], ids=["int8", "uint16", "int64", "intp"]
)
@pytest.mark.parametrize("k", range(2, 10))
@pytest.mark.parametrize("equal", [True, False])
def test_pearson_vector_sums_its_terms_in_numpy_order(k, dtype, equal):
    # below gof.PAIRWISE_BLOCK cells the terms are added on Python floats,
    # from there on by np.add.reduce; either way the bits are numpy's
    gen = RngStream(1000 * k + 10 * np.dtype(dtype).itemsize + equal).generator
    probs = np.full(k, 1.0 / k) if equal else gen.dirichlet(np.full(k, 2.0))
    probs = (probs / probs.sum()).tolist()
    top = 15 if dtype is np.int8 else 400  # int8 holds a count up to 127
    rows = gen.multinomial(gen.integers(1, top * k // 2, 300), probs).astype(dtype)
    batch = pearson(rows, probs)
    for row, batch_value in zip(rows, batch.tolist()):
        value = pearson(row, probs)
        assert type(value) is float
        reference = float(np.add.reduce(_pearson_terms(row, probs)))
        assert value.hex() == reference.hex() == batch_value.hex()


@pytest.mark.parametrize(
    "row",
    [
        # two terms round once in any order, so no sum can differ at k = 2
        [100001000003, 99999999997, 99999000001],
        [100001000003, 99999999997, 100000000000, 99999000001],
        [100003000009, 100000000000, 99999999998, 99999999996, 99996999998],
        [100009000027, 99999999999, 99999999997, 100000000000, 99999999998, 99990999980],
        [100004000012, 99999999999, 99999999997, 100000000000, 99999999998,
         99999999996, 99995999999],
    ],
    ids=lambda row: f"k{len(row)}",
)
def test_pearson_vector_of_wide_terms_is_not_a_compensated_sum(row):
    # the terms span over ten orders of magnitude, so math.fsum, and builtin
    # sum from Python 3.12 on, round them otherwise than numpy's left to right
    row = np.array(row, dtype=np.int64)
    probs = [1.0 / row.size] * row.size
    terms = _pearson_terms(row, probs)
    assert row.size < gof.PAIRWISE_BLOCK and max(terms) / min(terms) >= 1e10
    left_to_right = 0.0
    for term in terms:
        left_to_right += term
    assert math.fsum(terms) != left_to_right
    value = pearson(row, probs)
    assert value.hex() == left_to_right.hex() == float(np.add.reduce(terms)).hex()
    assert value.hex() == pearson(row[None, :], probs)[0].hex()


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


def test_continuous_cdf_of_another_rank_gets_the_tally_error_as_it_is():
    # the values lie in [0, 1], so the unit-interval diagnosis names nothing
    model = _FixedCdf(np.full((2, 2, 3), 0.5))
    with pytest.raises(DomainError) as err:
        posterior_chisq_continuous(np.zeros(3), model, None, equiprobable(4))
    assert str(err.value) == "tally takes a vector or a 2-D batch, got shape (2, 2, 3)"


def test_count_model_without_an_rng_is_refused():
    with pytest.raises(ConfigError, match="discrete models need an rng"):
        gof.posterior_chisq([1, 2, 3], PoissonCommonRate(np.ones(3)), [2.0], equiprobable(3))


@pytest.mark.parametrize("model, data, draws", [
    (NormalModel(), [0.3, -1.2, 2.5, 0.7, 1.1, -0.4], [(0.5, 1.5), (0.1, 0.9), (1.0, 2.0)]),
    (PoissonCommonRate(np.ones(6)), [3, 0, 5, 2, 7, 1], [(2.5,), (3.0,), (4.5,)]),
])
def test_posterior_chisq_of_lists_and_tuples_equals_the_array_call(model, data, draws):
    # each layer converts what it first needs: the data as a list, a draw as
    # a tuple and a stack as a list of tuples give the arrays' statistic
    scheme = equiprobable(3)
    for theta in (draws[0], draws):
        given = gof.posterior_chisq(data, model, theta, scheme, RngStream(4))
        arrays = gof.posterior_chisq(np.array(data), model, np.array(theta), scheme, RngStream(4))
        assert np.asarray(given.value).tobytes() == np.asarray(arrays.value).tobytes()
        assert np.array_equal(given.counts, arrays.counts)


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


def _collapsed_pairs(means, counts_at):
    """The (mean, count) pairs among means x counts_at(mean) whose pdtr pair
    collapses strictly inside (0, 1), with that CDF value."""
    pairs = []
    for mean in means:
        ks = counts_at(mean)
        f_at = sp.pdtr(ks, mean)
        f_below = sp.pdtr(ks - 1.0, mean)
        hit = (f_below == f_at) & (f_at > 0.0) & (f_at < 1.0)
        pairs += [(float(mean), int(k), float(f)) for k, f in zip(ks[hit], f_at[hit])]
    return pairs


def test_randomized_interior_collapse_gives_a_statistic():
    # a count whose mass is below the rounding of its CDF values has a
    # collapsed pair inside (0, 1); it lands in the cell of its CDF value.
    # Means 0.25..400 give 1956 such pairs, with masses near the spacing of
    # doubles at 1; means 1e9..1e12 give some whose mass is far above it.
    small = _collapsed_pairs(
        np.arange(1, 1601) / 4, lambda m: np.arange(m + 40 * m**0.5 + 60, dtype=float)
    )
    large = _collapsed_pairs(
        [1e9, 1e10, 1e11, 1e12], lambda m: np.floor(m + np.arange(250, 450) * m**0.5 / 50)
    )
    assert len(small) == 1956 and len(large) > 20
    log_mass_over_spacing = max(
        k * math.log(m) - m - math.lgamma(k + 1) - math.log(np.spacing(f))
        for m, k, f in large
    )
    assert log_mass_over_spacing > math.log(10.0)
    model, scheme = PoissonCommonRate([1.0]), equiprobable(5)
    for mean, count, f_at in small + large:
        stat = posterior_chisq_discrete_randomized(
            np.array([count]), model, [mean], scheme, RngStream(count)
        )
        cell = np.zeros(scheme.k, dtype=int)
        cell[assign(scheme, f_at)] = 1
        assert stat.counts.tolist() == cell.tolist() and stat.value == pytest.approx(4.0)


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
        jac = np.asarray(model.cell_probs_jacobian(edges, grp.theta))
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
            p = np.asarray(model.cell_probs(edges, model.theta_from_free(vec)))
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


class _BadFirstTrial(NormalModel):
    """NormalModel spoiled at the fit's first trial step, the second point
    at which the fit evaluates the grouped likelihood: theta_from_free gives
    sigma = 0, or raises OverflowError, or cell_probs gives NaN in one cell.
    It records every free-parameter vector the fit evaluates."""

    def __init__(self, fault, nan_cell=0):
        self.fault, self.nan_cell, self.vecs = fault, nan_cell, []

    def _first_trial(self):
        return len(self.vecs) == 2

    def theta_from_free(self, vec):
        self.vecs.append(list(vec))
        if self._first_trial() and self.fault == "sigma zero":
            return (vec[0], 0.0)
        if self._first_trial() and self.fault == "overflow":
            raise OverflowError("math range error")
        return super().theta_from_free(vec)

    def cell_probs(self, edges, theta):
        p = super().cell_probs(edges, theta)
        if self._first_trial() and self.fault == "nan":
            p[self.nan_cell] = float("nan")
        return p


def _spread_sample():
    return split(RngStream(97), 0).generator.normal(0.3, 1.4, 50)


@pytest.mark.parametrize("fault, nan_cell", [
    ("sigma zero", 0), ("overflow", 0), ("nan", 0), ("nan", 3),
])
def test_grouped_halves_a_trial_whose_likelihood_is_not_finite(fault, nan_cell):
    edges = probkit.normal_quantile(np.arange(1, 5) / 5)
    y = _spread_sample()
    model = _BadFirstTrial(fault, nan_cell)
    grp = grouped_chisq(y, model, edges)
    ref = grouped_chisq(y, NormalModel(), edges)
    # the start, the spoiled trial, then the same step halved
    start, spoiled, halved = (np.array(v) for v in model.vecs[:3])
    np.testing.assert_allclose(halved - start, 0.5 * (spoiled - start), rtol=1e-12)
    assert grp.iterations >= ref.iterations
    assert abs(grp.value - ref.value) <= 1e-6
    np.testing.assert_allclose(grp.theta, ref.theta, rtol=1e-6)


@pytest.mark.parametrize("nan_cell", [0, 3])
def test_grouped_start_with_a_nan_cell_is_not_finite(nan_cell):
    class NanAtStart(NormalModel):
        def cell_probs(self, edges, theta):
            p = super().cell_probs(edges, theta)
            p[nan_cell] = float("nan")
            return p

    edges = probkit.normal_quantile(np.arange(1, 5) / 5)
    with pytest.raises(EvaluationError, match="raw MLE start"):
        grouped_chisq(_spread_sample(), NanAtStart(), edges)


def test_group_loglik_is_minus_inf_where_sigma_over_or_underflows():
    model = NormalModel()
    cuts = probkit.normal_quantile(np.arange(1, 5) / 5).tolist()
    counts = [10, 10, 10, 10, 10]
    assert gof._group_loglik(model, cuts, counts, [0.0, 0.0])[0] > -np.inf
    # exp(-800) is 0.0, and exp(800) raises OverflowError
    assert model.theta_from_free([0.0, -800.0])[1] == 0.0
    for log_sigma in (-800.0, 800.0):
        assert gof._group_loglik(model, cuts, counts, [0.0, log_sigma])[0] == -np.inf


def _fit_bits(fit):
    return (
        np.float64(fit.value).tobytes(), np.array(fit.theta).tobytes(), fit.probs.tobytes(),
        fit.iterations, fit.counts.tobytes(),
    )


@pytest.mark.parametrize("k", [5, 12])
def test_grouped_from_the_plugin_start_equals_the_fit_from_scratch(k):
    model = NormalModel()
    root = RngStream(131 + k)
    moved = 0  # starts whose theta the free-coordinate round trip changes
    for r in range(200):
        gen = split(root, r).generator
        # half at unit scale, half over six decades, where exp(log(sigma))
        # often differs from sigma in the last bit
        scale = 1.0 if r % 2 else 10.0 ** gen.uniform(-3.0, 3.0)
        edges = model.quantile_edges((0.5 * scale, scale), k)
        y = 0.5 * scale + scale * gen.standard_normal(50)
        plug = plugin_chisq(y, model, edges)
        assert plug.start.theta == plug.theta and plug.start.counts is plug.counts
        handed = grouped_chisq(y, model, edges, plug.start)
        assert _fit_bits(handed) == _fit_bits(grouped_chisq(y, model, edges))
        # the fit's first probabilities are those at the theta it starts from
        cuts, counts = plug.start.cuts, plug.counts.tolist()
        _, theta, probs = gof._group_loglik(
            model, cuts, counts, model.free_params(plug.theta), plug.start
        )
        assert probs == model.cell_probs(cuts, theta)
        moved += theta != plug.theta
    assert 0 < moved < 100


# (plugin value, grouped value, grouped theta, grouped iterations) as
# float.hex, recorded from the fits before their sums were written as
# one-pass loops; the arithmetic is IEEE double and libm's erfc, exp and log
_CLASSICAL_FIT_BITS = [
    ("0x1.c2d773a29a316p+1", "0x1.cfb556a3bb144p-6",
     ("0x1.8181f3f1dc458p-4", "0x1.70b3d022f1e4ep+0"), 5),
    ("0x1.c283616d89ef6p+0", "0x1.55d80a8a5a894p+0",
     ("0x1.64948da4ae103p-3", "0x1.1e8a6e7d86b7bp+0"), 5),
    ("0x1.4a5539e5c8be4p+1", "0x1.40c4d16b41db1p+1",
     ("0x1.65a0371d19eadp-5", "0x1.b0ad490c31fbcp-1"), 5),
    ("0x1.02b34d7a0bf7dp+6", "0x1.a07223f01d166p-6",
     ("-0x1.ff02629ceb11cp-5", "0x1.ff1da22d31594p-1"), 6),
]


@pytest.mark.parametrize("case", range(4))
def test_classical_fits_keep_their_bits(case):
    # three normal samples of 50, and a t(2) sample whose first trial step
    # is halved, at the standard normal's quintiles
    edges = probkit.normal_quantile(np.arange(1, 5) / 5)
    if case < 3:
        y = split(RngStream(211), case).generator.standard_normal(50)
    else:
        y = split(RngStream(29), 1).generator.standard_t(2, 50)
    model = _BadFirstTrial(None)  # spoils nothing, records each vector
    plugin, value, theta, iterations = _CLASSICAL_FIT_BITS[case]
    assert plugin_chisq(y, model, edges).value.hex() == plugin
    model.vecs.clear()
    grp = grouped_chisq(y, model, edges)
    assert (grp.value.hex(), tuple(t.hex() for t in grp.theta), grp.iterations) == (
        value, theta, iterations
    )
    start, first, second = (np.array(v) for v in model.vecs[:3])
    halved = np.allclose(second - start, 0.5 * (first - start), rtol=1e-12)
    assert halved == (case == 3)


class _FarStart(NormalModel):
    """NormalModel whose raw MLE is moved 8 sigma up, so that the bottom
    cell's probability at the start lies far below PROB_FLOOR; it records
    each start."""

    def __init__(self):
        self.starts = []

    def mle(self, data):
        mu, sigma = super().mle(data)
        self.starts.append((mu + 8.0 * sigma, sigma))
        return self.starts[-1]


def test_power_grouped_fit_starts_below_the_plugin_floor():
    from bayesgof.harness import ExperimentConfig, power_study

    cfg = ExperimentConfig(n=50, bins=5, replicates=20, seed=3, draws_per_dataset=20,
                           df_grid=(1, 3, 10))
    model = _FarStart()
    far = power_study(cfg, 0.8, model, (0.0, 1.0))
    ref = power_study(cfg, 0.8, NormalModel(), (0.0, 1.0))
    edges = NormalModel().quantile_edges((0.0, 1.0), 5).tolist()
    lowest = [min(NormalModel().cell_probs(edges, theta)) for theta in model.starts]
    assert len(lowest) == 60 and 1e-300 <= min(lowest) and max(lowest) < gof.PROB_FLOOR
    assert far.rows == ref.rows
    assert far.grouped_iterations.sum() > ref.grouped_iterations.sum()
    # the plugin statistic at such a start is refused
    with pytest.raises(EvaluationError, match="below floor at the MLE"):
        plugin_chisq(_spread_sample(), _FarStart(), edges)


class _SingularInformation(NormalModel):
    """NormalModel whose Jacobian has a zero log-sigma column, so that the
    information J' diag(n / p) J is singular."""

    def cell_probs_jacobian(self, edges, theta):
        return [(d_mu, 0.0) for d_mu, _ in super().cell_probs_jacobian(edges, theta)]


def test_grouped_raises_on_an_information_not_positive_definite():
    edges = probkit.normal_quantile(np.arange(1, 5) / 5)
    with pytest.raises(OptimizationError, match="not positive definite"):
        grouped_chisq(_spread_sample(), _SingularInformation(), edges)


class _InfiniteInformation(NormalModel):
    """NormalModel whose Jacobian has an infinite entry in its last row."""

    def cell_probs_jacobian(self, edges, theta):
        *rows, (d_mu, _) = super().cell_probs_jacobian(edges, theta)
        return [*rows, (d_mu, math.inf)]


def test_grouped_raises_on_an_information_not_finite():
    edges = probkit.normal_quantile(np.arange(1, 5) / 5)
    with pytest.raises(OptimizationError, match="information matrix is not finite"):
        grouped_chisq(_spread_sample(), _InfiniteInformation(), edges)


def test_grouped_dof_is_k_less_one_less_the_two_fitted_parameters():
    assert [grouped_dof(k) for k in (4, 5, 12)] == [1, 2, 9]
    for k in (3, 2):
        with pytest.raises(ConfigError) as info:
            grouped_dof(k)
        assert str(info.value) == (
            f"the grouped-MLE statistic has k - 1 - s = {k - 3} degrees of freedom "
            f"with k = {k} cells and s = 2 fitted parameters; it needs k >= 4"
        )


def test_cholesky_solve_matches_numpy():
    gen = np.random.default_rng(42)
    for _ in range(50):
        a = gen.standard_normal((2, 2))
        spd = a @ a.T + 0.1 * np.eye(2)
        b = gen.standard_normal(2)
        (i_aa, _), (i_ba, i_bb) = spd.tolist()
        x = np.array(gof._cholesky_step(i_aa, i_ba, i_bb, *b.tolist()))
        ref = np.linalg.solve(spd, b)
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("lower", [
    [[1.0], [1.0, 1.0]],  # singular: rank one
    [[0.0], [0.0, 1.0]],  # singular: a zero pivot first
    [[1.0], [2.0, 1.0]],  # indefinite: eigenvalues 3 and -1
    [[4.0], [0.0, -1.0]],  # indefinite, diagonal
    [[1.0], [0.0, 0.0]],  # singular: a zero pivot last
    [[float("nan")], [0.0, 1.0]],
])
def test_cholesky_solve_rejects_matrices_not_positive_definite(lower):
    (i_aa,), (i_ba, i_bb) = lower
    with pytest.raises(OptimizationError, match="not positive definite"):
        gof._cholesky_step(i_aa, i_ba, i_bb, 1.0, 1.0)


def test_scipy_optimize_not_imported_by_cli():
    src = os.path.dirname(os.path.dirname(os.path.abspath(gof.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, bayesgof.cli; sys.exit('scipy.optimize' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


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
        bad = np.unique(np.nonzero(~((u >= 0.0) & (u <= 1.0)))[-1]).tolist()
        more = f" and {len(bad) - 10} more, {len(bad)} in all" if len(bad) > 10 else ""
        raise EvaluationError(f"{what} produced invalid values at observations {bad[:10]}{more}")


def _reference_assign_randomized(scheme, f_below, f_at, rng):
    """The element-wise check sequence of assign_discrete_randomized, kept as
    the reference its one-reduction form must agree with."""
    lo = np.asarray(f_below, dtype=float)
    hi = np.asarray(f_at, dtype=float)
    if lo.size and not (lo.min() >= 0.0 and hi.max() <= 1.0):
        raise DomainError("CDF values must lie in [0, 1]")
    width = hi - lo
    if np.any(~(width >= 0.0)):
        raise DomainError("CDF values must not decrease: f_below must be <= f_at")
    v = rng.generator.random(lo.shape if lo.ndim else None)
    return assign(scheme, hi - v * width)


def _reference_discrete_randomized(y, model, theta, scheme, rng):
    f_below, f_at = model.obs_cdf_pair(y, theta)
    f_below = np.asarray(f_below, dtype=float)
    f_at = np.asarray(f_at, dtype=float)
    _reference_unit_interval(f_below, "CDF-below transform")
    _reference_unit_interval(f_at, "CDF-at transform")
    idx = _reference_assign_randomized(scheme, f_below, f_at, rng)
    counts = np.bincount(idx, minlength=scheme.k)
    return gof.BinnedStat(pearson(counts, scheme.widths()), counts)


class _TableModel:
    """Hands back fixed CDF pairs, whatever the draw."""

    def __init__(self, f_below, f_at):
        self.pair = (np.array(f_below, dtype=float), np.array(f_at, dtype=float))

    def obs_cdf_pair(self, y, theta):
        return self.pair


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
    rows=st.lists(_cdf_interval, min_size=0, max_size=8),
    k=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_randomized_checks_match_the_element_wise_reference(rows, k, seed):
    model = _TableModel([lo for lo, _ in rows], [hi for _, hi in rows])
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

"""Distribution-function accuracy and stream-splitting behavior.

Oracles here are deliberately independent of the implementation: Gauss
quadrature for the normal CDF, direct density integration for chi-square,
a Lentz continued fraction for the far upper tail, plain bisection for
quantiles, and scipy.stats for quantile round trips and tail complements.
"""

import math

import numpy as np
import pytest
from scipy import integrate, stats
from scipy import special as sp

from bayesgof import probkit
from bayesgof.errors import DomainError
from bayesgof.probkit import RngStream, split


def quad_normal_cdf(z: float) -> float:
    val, _ = integrate.quad(
        lambda t: math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi),
        -12.0, z,
    )
    return val


def quad_chi2_cdf(df: float, x: float) -> float:
    a = df / 2.0
    log_norm = a * math.log(2.0) + math.lgamma(a)

    def dens(t: float) -> float:
        return math.exp((a - 1.0) * math.log(t) - t / 2.0 - log_norm)

    val, _ = integrate.quad(dens, 0.0, x, limit=200)
    return val


def lentz_upper_gamma_q(a: float, x: float) -> float:
    # regularized upper incomplete gamma via modified Lentz continued fraction
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 500):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    return math.exp(-x + a * math.log(x) - math.lgamma(a)) * h


def bisect_quantile(cdf, p: float, lo: float, hi: float, tol: float = 1e-12) -> float:
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_chi2_cdf_at_classic_critical_value():
    assert abs(probkit.chi2_cdf(4, 9.49) - 0.95) < 5e-4


def test_normal_cdf_against_quadrature():
    for z in (-3.0, -1.0, 0.0, 0.5, 1.95996, 4.0):
        assert abs(probkit.normal_cdf(z) - quad_normal_cdf(z)) < 1e-5
    assert abs(probkit.normal_cdf(1.95996) - 0.975) < 1e-5


def test_chi2_cdf_against_quadrature():
    for df, x in ((1, 0.5), (2, 3.0), (4, 9.49), (7, 12.0), (49, 60.0)):
        assert abs(probkit.chi2_cdf(df, x) - quad_chi2_cdf(df, x)) < 1e-9


def test_chi2_quantile_against_bisection():
    got = probkit.chi2_quantile(2, 0.95)
    want = bisect_quantile(lambda x: quad_chi2_cdf(2, x), 0.95, 0.0, 50.0)
    assert abs(got - 5.9915) < 1e-3
    assert abs(got - want) < 1e-8


def test_normal_quantile_value():
    assert abs(probkit.normal_quantile(0.8) - 0.84162) < 1e-4
    want = bisect_quantile(quad_normal_cdf, 0.8, -10.0, 10.0)
    assert abs(probkit.normal_quantile(0.8) - want) < 1e-8


def test_deep_tail_survival_stays_positive():
    s = probkit.chi2_survival(4, 200.0)
    assert s > 0.0
    assert s < 1e-30
    oracle = lentz_upper_gamma_q(2.0, 100.0)
    assert abs(s - oracle) / oracle < 1e-10


def test_quantile_cdf_round_trip():
    # scipy.stats quantiles mapped back through the chi-square CDF
    oracle = stats.chi2(4)
    for p in (0.01, 0.1, 0.5, 0.9, 0.99):
        assert abs(probkit.chi2_cdf(4, oracle.ppf(p)) - p) < 1e-8


def test_survival_complements_cdf():
    for x in (0.5, 3.0, 10.0):
        s = probkit.chi2_survival(6, x)
        assert abs(probkit.chi2_cdf(6, x) + s - 1.0) < 1e-12
        assert abs(s - stats.chi2.sf(x, 6)) < 1e-12
    for k in (-1, 0, 3, 12):
        s = stats.poisson.sf(k, 4.2)
        assert abs(probkit.poisson_cdf(4.2, k) + s - 1.0) < 1e-12


def test_uniform_sample_mean():
    u = RngStream(101).open_uniform(100_000)
    assert abs(u.mean() - 0.5) < 0.005
    assert u.min() > 0.0 and u.max() < 1.0


def test_chi2_sample_moments():
    rng = RngStream(7)
    x = rng.generator.chisquare(4, 100_000)
    assert abs(x.mean() - 4.0) < 0.05
    assert abs(x.var() - 8.0) < 0.3


def test_poisson_sample_total_variation():
    # a sample against its pmf in the lgamma form
    mean = 4.2
    x = RngStream(31).generator.poisson(mean, 100_000)
    kmax = int(x.max()) + 1
    counts = np.bincount(x, minlength=kmax)
    emp = counts / x.size
    ks = np.arange(kmax)
    log_pmf = ks * math.log(mean) - mean - np.array([math.lgamma(k + 1) for k in ks])
    pmf = np.exp(log_pmf)
    tv = 0.5 * (np.abs(emp - pmf).sum() + max(0.0, 1.0 - pmf.sum()))
    assert tv < 0.01


def test_same_seed_same_bits():
    a = RngStream(42).generator.random(1000)
    b = RngStream(42).generator.random(1000)
    assert np.array_equal(a, b)


def test_split_is_deterministic_and_distinct():
    root = RngStream(5)
    c1 = split(root, 3).generator.random(100)
    c2 = split(RngStream(5), 3).generator.random(100)
    assert np.array_equal(c1, c2)
    other = split(RngStream(5), 4).generator.random(100)
    assert not np.array_equal(c1, other)


def test_split_does_not_disturb_parent():
    root = RngStream(9)
    before = RngStream(9).generator.random(50)
    split(root, 0)
    split(root, 1)
    assert np.array_equal(root.generator.random(50), before)


def test_child_streams_first_draws_uniform():
    # Pearson test on 20 cells over the first draw of 1000 children
    root = RngStream(1234)
    firsts = np.array([float(split(root, i).generator.random()) for i in range(1000)])
    counts = np.bincount(np.minimum((firsts * 20).astype(int), 19), minlength=20)
    expected = 1000 / 20
    stat = ((counts - expected) ** 2 / expected).sum()
    assert stat < probkit.chi2_quantile(19, 0.99)


def test_nested_paths_are_independent_addresses():
    a = split(split(RngStream(0), 1), 2).generator.random(64)
    b = RngStream(0, path=(1, 2)).generator.random(64)
    assert np.array_equal(a, b)


def test_open_uniform_excludes_zero():
    rng = RngStream(77)
    u = rng.open_uniform(100_000)
    assert u.min() > 0.0
    assert u.max() < 1.0


def test_domain_errors():
    with pytest.raises(DomainError):
        RngStream(-1)
    with pytest.raises(DomainError):
        RngStream(True)
    with pytest.raises(DomainError):
        split(RngStream(0), -1)


@pytest.mark.parametrize("path", [(-1,), (0, 3, -2)])
def test_stream_refuses_a_negative_path_entry(path):
    with pytest.raises(DomainError, match="^stream path entries must be non-negative$"):
        RngStream(0, path)


@pytest.mark.parametrize("child_id", [1.0, "1", True, None])
def test_split_refuses_a_child_id_that_is_not_an_integer(child_id):
    with pytest.raises(DomainError, match="^child_id must be an integer$"):
        split(RngStream(0), child_id)


def test_poisson_cdf_matches_pmf_sum():
    mean = 3.7
    direct = sum(
        math.exp(k * math.log(mean) - mean - math.lgamma(k + 1)) for k in range(6)
    )
    assert abs(probkit.poisson_cdf(mean, 5) - direct) < 1e-12


def test_poisson_cdf_equals_its_clipped_form_bit_for_bit():
    # the form that floors and clips every k, kept as the reference for the
    # path that skips the clip when no k is negative, and for both paths
    # leaving the floor to pdtr
    gen = RngStream(12).generator
    for size in (1, 5, 56):
        for low in (-3, 0):
            for whole in (True, False):
                k = gen.integers(low, 40, size).astype(float)
                if not whole:
                    k += gen.random(size)  # fractions in [0, 1)
                if not whole and low < 0:
                    k[gen.random(size) < 0.1] = -0.5
                    k[gen.random(size) < 0.1] = -1e-300
                k[gen.random(size) < 0.1] = np.nan
                k[gen.random(size) < 0.1] = -0.0
                mean = gen.gamma(2.0, 5.0, size)
                floor = np.floor(k)
                ref = np.where(floor < 0.0, 0.0, sp.pdtr(np.maximum(floor, 0.0), mean))
                assert probkit.poisson_cdf(mean, k).tobytes() == ref.tobytes()
    assert probkit.poisson_cdf(2.0, 3.0) == sp.pdtr(3.0, 2.0)
    assert probkit.poisson_cdf(2.0, 3.7) == sp.pdtr(3.0, 2.0)
    assert probkit.poisson_cdf(2.0, -1.0) == 0.0
    assert probkit.poisson_cdf(2.0, -0.5) == 0.0
    assert probkit.poisson_cdf(2.0, -1e-300) == 0.0

"""Acceptance checks, one test per criterion.

Each test emits a single CRITERION verdict line; the lines are replayed as
a block after the run (see conftest) so they survive pytest's capture and
appear in piped logs.  Tolerances are Monte Carlo bands at the desk-scale
replicate counts; seeds are pinned so every number below is reproducible.
"""

import os

import numpy as np
import pytest

import conftest

from bayesgof import probkit
from bayesgof.binning import equiprobable
from bayesgof.gof import posterior_chisq_continuous, reference_auc
from bayesgof.harness import (
    ExperimentConfig,
    analyze,
    null_calibration,
    stream_monitor,
)
from bayesgof.models import (
    NormalModel,
    PoissonCommonRate,
    PoissonExchangeable,
    PoissonSaturated,
    normal_posterior_from_uniforms,
)
from bayesgof.probkit import RngStream, split


def report(num: int, verdict: str, detail: str) -> None:
    line = f"CRITERION {num:2d}: {verdict} ({detail})"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line, flush=True)


def outcome(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def test_criterion_01_null_calibration(null_run_2000):
    res, runtime = null_run_2000
    s = res.series["posterior"]
    ks = s.ks
    ok = (3.7 <= s.mean <= 4.3 and 6.5 <= s.variance <= 9.5
          and ks.statistic < 0.0365 and runtime < 60.0)
    report(1, outcome(ok),
           f"mean {s.mean:.3f} in [3.7,4.3], variance {s.variance:.3f} in [6.5,9.5], "
           f"KS {ks.statistic:.4f} < 0.0365, runtime {runtime:.1f}s < 60s")
    assert 3.7 <= s.mean <= 4.3
    assert 6.5 <= s.variance <= 9.5
    assert ks.statistic < 0.0365
    assert ks.passed
    assert runtime < 60.0


def test_criterion_02_grouped_calibration(null_run_2000):
    res, _ = null_run_2000
    s = res.series["grouped"]
    values = s.values
    q95 = values[int(np.ceil(0.95 * values.size)) - 1]
    ok = 1.7 <= s.mean <= 2.3 and 5.4 <= q95 <= 6.6
    report(2, outcome(ok),
           f"mean {s.mean:.3f} in [1.7,2.3], 95th pct {q95:.3f} in [5.4,6.6]")
    assert 1.7 <= s.mean <= 2.3
    assert 5.4 <= q95 <= 6.6


def test_criterion_03_plugin_bracket(null_run_2000):
    res, _ = null_run_2000
    values = np.sort(res.series["plugin"].values)
    mean = float(values.mean())
    grid = np.linspace(0.1, probkit.chi2_quantile(4, 0.99), 50)
    emp = np.searchsorted(values, grid, side="right") / values.size
    lower_gap = float(np.max(probkit.chi2_cdf(4, grid) - emp))
    upper_gap = float(np.max(emp - probkit.chi2_cdf(2, grid)))
    ok = lower_gap <= 0.03 and upper_gap <= 0.03 and 2.0 < mean < 4.0
    report(3, outcome(ok),
           f"CDF within 0.03 of the chi2(2)..chi2(4) bracket "
           f"(gaps {lower_gap:.3f}, {upper_gap:.3f}), mean {mean:.3f} in (2,4)")
    assert lower_gap <= 0.03
    assert upper_gap <= 0.03
    assert 2.0 < mean < 4.0


def test_criterion_04_test_sizes(stored_auc_null):
    model = NormalModel()
    scheme = equiprobable(5)
    single_crit = probkit.chi2_quantile(4, 0.95)
    root = RngStream(304)
    auc_rej = single_rej = 0
    trials = 1000
    for r in range(trials):
        c = split(root, r)
        y = model.predictive_draw(conftest.STANDARD_NORMAL, split(c, 0), n=50)
        res = analyze(y, model, split(c, 1), n_draws=500, scheme=scheme)
        auc_rej += int(res.auc > stored_auc_null.critical)
        single_rej += int(res.values[0] > single_crit)
    auc_rate = auc_rej / trials
    single_rate = single_rej / trials
    ok = abs(auc_rate - 0.05) <= 0.015 and abs(single_rate - 0.05) <= 0.015
    report(4, outcome(ok),
           f"AUC-test size {auc_rate:.3f}, single-draw size {single_rate:.3f}, "
           f"both within 0.05 +/- 0.015 over {trials} trials")
    assert abs(auc_rate - 0.05) <= 0.015
    assert abs(single_rate - 0.05) <= 0.015


def test_criterion_05_power_ordering(power_result, stored_auc_null):
    dfs = (1, 2, 3, 5, 10)
    a = {d: power_result.rate(d, "auc") for d in dfs}
    s = {d: power_result.rate(d, "single-draw") for d in dfs}
    g = {d: power_result.rate(d, "grouped") for d in dfs}
    f = {d: power_result.exceedance_fractions[d] for d in dfs}
    vs_grouped = all(a[d] >= g[d] for d in dfs)
    margin_df3 = a[3] - g[3]
    ceiling = a[1] >= 0.9
    # AUC vs single-draw.  The single-draw test is randomized given the data:
    # it rejects with probability equal to the dataset's exceedance fraction.
    # The AUC test decides from all draws, so it may gain more than 0.1 on it
    # (test_power_gap_matches_independent_oracle reproduces a gap near 0.13
    # at df 2 and 3 from scratch), but it must not lose more than 0.1.
    raw_gaps = {d: a[d] - s[d] for d in dfs}
    not_below = all(gap >= -0.1 for gap in raw_gaps.values())
    # the AUC test against the non-randomized single-draw test: the
    # exceedance proportion at its critical value from the same stored null
    e = {d: float(np.mean(f[d] > stored_auc_null.exceedance_critical)) for d in dfs}
    gaps = {d: abs(a[d] - e[d]) for d in dfs}
    comparable = all(gap <= 0.1 for gap in gaps.values())
    # consistency: the single-draw power is the mean exceedance fraction.
    # Given the data the first draw rejects with probability f, so the
    # paired difference has variance mean(f(1 - f)).
    fbar = {d: float(np.mean(f[d])) for d in dfs}
    se = {d: float(np.sqrt(np.mean(f[d] * (1 - f[d])) / f[d].size)) for d in dfs}
    consistent = all(abs(s[d] - fbar[d]) <= 3 * se[d] + 1e-12 for d in dfs)
    ok = (vs_grouped and margin_df3 >= 0.1 and ceiling and not_below
          and comparable and consistent)
    report(5, outcome(ok),
           "AUC power " + " ".join(f"df{d}={a[d]:.3f}" for d in dfs)
           + f"; AUC>=grouped at all df {vs_grouped}, df3 margin {margin_df3:.3f}>=0.1, "
           f"df1 {a[1]:.3f}>=0.9; AUC-single-draw gaps "
           + " ".join(f"df{d}={raw_gaps[d]:+.3f}" for d in dfs)
           + f", all>=-0.1 {not_below}; exceedance test "
           f"(critical {stored_auc_null.exceedance_critical:.3f}) "
           + " ".join(f"df{d}={e[d]:.3f}" for d in dfs)
           + ", |AUC-exceedance| " + " ".join(f"df{d}={gaps[d]:.3f}" for d in dfs)
           + f" all<=0.1 {comparable}; single-draw vs mean exceedance fraction "
           + " ".join(f"df{d}={s[d]:.3f}/{fbar[d]:.3f}" for d in dfs)
           + " (paired SE " + " ".join(f"{se[d]:.3f}" for d in dfs)
           + f") all within 3 SE {consistent}")
    assert vs_grouped
    assert margin_df3 >= 0.1
    assert ceiling
    assert not_below, f"AUC power falls more than 0.1 below single-draw: {raw_gaps}"
    assert comparable, f"AUC vs exceedance-test power gaps exceed 0.1: {gaps}"
    assert consistent, f"single-draw power vs mean exceedance fraction: {s}, {fbar}, SE {se}"


def test_criterion_06_dimension_independence():
    cfg = ExperimentConfig(n=200, bins=5, replicates=1000, seed=42)
    model = PoissonSaturated(np.ones(cfg.n), prior_exponent=0.5)
    res = null_calibration(cfg, model, 4.2 * model.offsets)
    s = res.series["posterior"]
    ks = s.ks
    ok = ks.passed
    report(6, outcome(ok),
           f"saturated model, n=200 parameters: mean {s.mean:.3f}, "
           f"KS {ks.statistic:.4f} < {ks.critical:.4f} at alpha 0.01")
    assert ks.passed


def test_criterion_07_location_scale_invariance():
    model = NormalModel()
    scheme = equiprobable(5)
    y = RngStream(123).generator.normal(0.7, 1.9, 50)
    v1, v2 = 0.31, 0.83
    base = posterior_chisq_continuous(
        y, model, normal_posterior_from_uniforms(y, v1, v2), scheme
    )
    identical = True
    for a in (0.5, 3.0):
        for b in (-2.0, 10.0):
            yt = a * y + b
            st = posterior_chisq_continuous(
                yt, model, normal_posterior_from_uniforms(yt, v1, v2), scheme
            )
            identical = identical and np.array_equal(st.counts, base.counts)
            identical = identical and st.value == base.value
    report(7, outcome(identical),
           "bin counts and statistic bit-identical under y -> a*y + b "
           "for a in {0.5, 3}, b in {-2, 10} with fixed posterior uniforms")
    assert identical


def quad_gamma_moments(shape: float, rate: float) -> tuple[float, float]:
    # numerical integration of the unnormalized density x^(shape-1) e^(-rate x)
    from scipy import integrate

    hi = (shape + 40 * np.sqrt(shape) + 40) / rate
    norm = integrate.quad(lambda x: x ** (shape - 1) * np.exp(-rate * x), 0, hi)[0]
    m1 = integrate.quad(lambda x: x**shape * np.exp(-rate * x), 0, hi)[0] / norm
    m2 = integrate.quad(lambda x: x ** (shape + 1) * np.exp(-rate * x), 0, hi)[0] / norm
    return m1, m2 - m1**2


def test_criterion_08_conjugacy_oracles():
    # 5M draws keep the MC noise of the smallest-shape component's sample
    # variance near 0.1% relative, well inside the 0.5% band
    n_draws = 5_000_000
    worst = 0.0

    y1 = RngStream(81).generator.poisson(5.0, 20)
    common = PoissonCommonRate(offsets=np.ones(20))
    draws = common.posterior_draws(y1, n_draws, RngStream(82))
    want_m, want_v = quad_gamma_moments(float(y1.sum()), 20.0)
    worst = max(worst, abs(draws.mean() - want_m) / want_m,
                abs(draws.var() - want_v) / want_v)

    sat = PoissonSaturated(np.ones(3), prior_exponent=0.5)
    y5 = np.array([1, 3, 7])
    mat = sat.posterior_draws(y5, n_draws, RngStream(83))
    for j, yj in enumerate(y5):
        want_m, want_v = quad_gamma_moments(yj + 0.5, 1.0)
        worst = max(worst, abs(mat[:, j].mean() - want_m) / want_m,
                    abs(mat[:, j].var() - want_v) / want_v)

    y = RngStream(84).generator.normal(0, 1, 50)
    values = analyze(y, NormalModel(), RngStream(85), n_draws=2000,
                     scheme=equiprobable(5)).values
    x = RngStream(86).generator.chisquare(4, 2000)
    brute = float(np.mean(values > x))
    closed = reference_auc(values, 4)
    se = np.sqrt(max(brute * (1 - brute), 1e-4) / 2000)
    auc_ok = abs(closed - brute) < 3 * se

    ok = worst < 0.005 and auc_ok
    report(8, outcome(ok),
           f"gamma posterior moments within {worst:.4%} of quadrature (cap 0.5%); "
           f"closed-form AUC {closed:.4f} vs simulated tail rate {brute:.4f}, "
           f"within 3 se ({3 * se:.4f})")
    assert worst < 0.005
    assert auc_ok


def test_criterion_09_prior_sensitivity_direction():
    y = np.maximum(RngStream(7, (99,)).generator.poisson(5.0, 50), 1)
    offsets = np.ones(50)
    scheme = equiprobable(5)
    a_shrink = analyze(y, PoissonSaturated(offsets, 1.0), RngStream(0),
                       n_draws=1000, scheme=scheme).auc
    a_half = analyze(y, PoissonSaturated(offsets, 0.5), RngStream(100),
                     n_draws=1000, scheme=scheme).auc
    gap = a_shrink - a_half
    ok = gap >= 0.05
    report(9, outcome(ok),
           f"AUC {a_shrink:.3f} under the 1/mean prior vs {a_half:.3f} under "
           f"1/sqrt(mean), gap {gap:.3f} >= 0.05")
    assert gap >= 0.05


def lip_cancer_path() -> str | None:
    env = os.environ.get("BAYESGOF_LIPCANCER")
    if env and os.path.exists(env):
        return env
    bundled = os.path.join(os.path.dirname(__file__), "..", "data", "lipcancer.csv")
    return bundled if os.path.exists(bundled) else None


def test_criterion_10_conditional_table_reproduction():
    path = lip_cancer_path()
    if path is None:
        report(10, "SKIP",
               "Scottish lip-cancer dataset not supplied; set BAYESGOF_LIPCANCER "
               "or place data/lipcancer.csv (columns y,E) to enable")
        pytest.skip("lip-cancer dataset not supplied (BAYESGOF_LIPCANCER or data/lipcancer.csv)")
    from bayesgof.cli import read_dataset

    y, offsets = read_dataset(path)
    assert offsets is not None, "the lip-cancer file must carry the E column"
    scheme = equiprobable(5)

    r1 = analyze(y, PoissonCommonRate(offsets), RngStream(10),
                 n_draws=5000, scheme=scheme)
    r2 = analyze(y, PoissonExchangeable(offsets), RngStream(20),
                 n_draws=5000, scheme=scheme)
    r5 = analyze(y, PoissonSaturated(offsets, 0.5), RngStream(30),
                 n_draws=5000, scheme=scheme)
    ok = (r1.auc >= 0.99 and r1.exceedance_rate >= 0.99
          and abs(r2.auc - 0.517) <= 0.05 and abs(r2.exceedance_rate - 0.055) <= 0.03
          and abs(r5.auc - 0.501) <= 0.05 and abs(r5.exceedance_rate - 0.047) <= 0.02)
    report(10, outcome(ok),
           f"common rate AUC {r1.auc:.3f}/exc {r1.exceedance_rate:.3f} (>=0.99); "
           f"exchangeable {r2.auc:.3f}/{r2.exceedance_rate:.3f} "
           f"(0.517+/-0.05, 0.055+/-0.03); saturated half-prior "
           f"{r5.auc:.3f}/{r5.exceedance_rate:.3f} (0.501+/-0.05, 0.047+/-0.02)")
    assert r1.auc >= 0.99 and r1.exceedance_rate >= 0.99
    assert abs(r2.auc - 0.517) <= 0.05
    assert abs(r2.exceedance_rate - 0.055) <= 0.03
    assert abs(r5.auc - 0.501) <= 0.05
    assert abs(r5.exceedance_rate - 0.047) <= 0.02


def test_criterion_11_monitor_fault_injection():
    model = NormalModel()
    scheme = equiprobable(5)
    root = RngStream(1717)
    false_alarms = detections = 0
    for r in range(100):
        c = split(root, r)
        y = split(c, 0).generator.normal(0.0, 1.0, 50)
        mu, sigma = model.posterior_draws(y, 1000, split(c, 1)).T
        clean = stream_monitor(zip(mu, sigma), y, model, scheme)
        false_alarms += int(any(rec.alert for rec in clean))
        # the fault: a CDF evaluator whose scale is coded twice too large
        faulty = stream_monitor(zip(mu, 2.0 * sigma), y, model, scheme)
        detections += int(any(rec.alert for rec in faulty))
    ok = detections >= 95 and false_alarms <= 5
    report(11, outcome(ok),
           f"scale-doubled evaluator alerts in {detections}/100 runs within 1000 "
           f"draws (>=95), well-specified alerts in {false_alarms}/100 (<=5)")
    assert detections >= 95
    assert false_alarms <= 5


def test_criterion_12_byte_identical_reruns(tmp_path, monkeypatch):
    import multiprocessing

    from bayesgof import harness
    from bayesgof.cli import main

    # the floor lowered and four CPUs reported, so that each multi-worker
    # run below starts worker processes: 150 replicates in 4, and each
    # power df's 50 in 3
    monkeypatch.setattr(harness, "MIN_REPS_PER_PROCESS", 10)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 4)
    pools = []
    pool = harness._pool

    def counted_pool(processes):
        pools.append(processes)
        return pool(processes)

    monkeypatch.setattr(harness, "_pool", counted_pool)
    started = []  # the pools each run started

    def run(outdir, *args):
        before = len(pools)
        assert main([*map(str, args), "--outdir", str(outdir)]) == 0
        started.append(pools[before:])
        return outdir

    identical = True
    sim = ["simulate-null", "--model", "normal", "--n", "40", "--reps", "150",
           "--seed", "12", "--classical"]
    outs = [run(tmp_path / f"sim{i}", *sim, "--workers", w)
            for i, w in enumerate(("1", "4", "1"))]
    for name in ("qq.csv", "summary.csv"):
        blobs = [(o / name).read_bytes() for o in outs]
        identical = identical and blobs[0] == blobs[1] == blobs[2]

    pow_args = ["power", "--df", "1,3", "--reps", "50", "--draws", "100",
                "--n", "40", "--seed", "7", "--auc-critical", "0.78"]
    pouts = [run(tmp_path / f"pow{i}", *pow_args, "--workers", w)
             for i, w in enumerate(("1", "3"))]
    # the inline runs start no pool; each multi-worker run starts its own
    assert started == [[], [4], [], [], [3, 3]]
    assert multiprocessing.active_children() == []
    pblobs = [(o / "power.csv").read_bytes() for o in pouts]
    identical = identical and pblobs[0] == pblobs[1]

    data = tmp_path / "y.csv"
    gen = RngStream(5).generator
    data.write_text("y,E\n" + "\n".join(f"{int(v)},1.0" for v in gen.poisson(4.0, 40)) + "\n")
    a1 = run(tmp_path / "an1", "analyze", "--data", data, "--model", "poisson-common",
             "--draws", "200", "--seed", "3")
    assert main(["replay", str(a1 / "manifest.json"), "--outdir", str(tmp_path / "an2")]) == 0
    for name in ("summary.csv", "trace.csv"):
        identical = identical and (
            (a1 / name).read_bytes() == (tmp_path / "an2" / name).read_bytes()
        )

    report(12, outcome(identical),
           "simulate-null at workers 1/4/1, power at workers 1/3, the "
           "multi-worker runs in worker processes, and a manifest replay all "
           "reproduced byte-identical CSV outputs")
    assert identical

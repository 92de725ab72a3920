"""Workloads of the bayesgof benchmark: their inputs, CLI calls and output checks.

Every input is generated from the workload seed, and the same seed is passed
to the CLI, so one seed reproduces every output byte.  A workload is a
``Plan``: the CLI call that is timed, a small warm-up call that is part of
set-up, and optionally a reference call whose outputs the timed call must
reproduce and a robustness probe that counts toward no throughput and is
tallied apart from the measured calls.

The checks hold for any correct program and any seed: they test exit codes,
CSV headers and row counts, finiteness, ranges, and identities that follow
from how each output is defined.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

K = 5  # cells; also the rule-of-thumb count for n = 50 and n = 56
N_NORMAL = 50
N_COUNTS = 56
NULL_REPS = 100
POWER_REPS = 50
POWER_DF = (1, 2, 3, 5, 10)
POWER_METHODS = ("auc", "single-draw")
POWER_DRAWS = 500
ANALYZE_DRAWS = 5000
PP_REPS = 3
PP_DRAWS = 1000
MCMC_DRAWS = 5000
MCMC_BURN_IN = 2000  # the CLI default
MCMC_THIN = 4  # the CLI default
NORMAL_LINES = 5000
COUNT_LINES = 3000
MALFORMED_SHARE = 0.01  # the CLI tolerates up to 10 %
OUTLIER_COUNT = 300
OUTLIER_OFFSET = 25.0


class CheckError(Exception):
    """An output broke a property that every correct run has."""


@dataclass
class Op:
    """One CLI call, the work items it completes and the check of its outputs.

    ``expect`` maps traced counters to the values one call must produce; the
    traced run compares them, so a wrapper that misses a binding shows as a
    failure instead of a silent zero.
    """

    name: str
    argv: list[str]
    items: int
    check: Callable[[Path, int], None]
    ok_codes: tuple[int, ...] = (0,)
    expect: dict[str, float] = field(default_factory=dict)
    threads: int = 1  # compute threads the call runs


@dataclass
class Plan:
    metric: str  # the name its wall-clock items per second are printed under
    timed: Op
    warmup: Op
    reference: Op | None = None  # untimed; the timed call's outputs must equal its outputs
    probe: Op | None = None  # robustness probe; reported apart from the measured calls
    latency_draws: list[tuple[float, float]] = field(default_factory=list)
    latency_data: Path | None = None


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------

def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _write_dataset(path: Path, y, offsets=None) -> Path:
    with open(path, "w") as fh:
        if offsets is None:
            fh.write("y\n")
            fh.writelines(f"{float(v)!r}\n" for v in y)
        else:
            fh.write("y,E\n")
            fh.writelines(f"{int(v)},{float(e)!r}\n" for v, e in zip(y, offsets))
    return path


def _offsets(seed: int) -> np.ndarray:
    # spread like the expected counts of small-area disease maps
    return np.clip(np.exp(_rng(seed, 1).normal(math.log(8.0), 0.8, N_COUNTS)), 1.0, 90.0)


def count_datasets(seed: int, workdir: Path) -> dict[str, Path]:
    """fit: common-rate model; overdispersed: log-normal effects, sd 0.6;
    outlier: fit with one count set to 300 at offset 25."""
    e = _offsets(seed)
    y_fit = _rng(seed, 2).poisson(e)
    effects = _rng(seed, 3).normal(0.0, 0.6, N_COUNTS)
    y_over = _rng(seed, 4).poisson(e * np.exp(effects))
    y_out, e_out = y_fit.copy(), e.copy()
    y_out[0], e_out[0] = OUTLIER_COUNT, OUTLIER_OFFSET
    return {
        "fit": _write_dataset(workdir / "fit.csv", y_fit, e),
        "overdispersed": _write_dataset(workdir / "overdispersed.csv", y_over, e),
        "outlier": _write_dataset(workdir / "outlier.csv", y_out, e_out),
    }


def _malformed_lines(seed: int, lines: int, bad: list[str]) -> dict[int, str]:
    count = max(1, int(lines * MALFORMED_SHARE))
    where = _rng(seed, 9).choice(lines, size=count, replace=False)
    return {int(i): bad[j % len(bad)] for j, i in enumerate(sorted(where))}


def _write_draws(path: Path, draws: list[str], malformed: dict[int, str]) -> None:
    with open(path, "w") as fh:
        fh.writelines((malformed.get(i, d) + "\n") for i, d in enumerate(draws))


def normal_stream(seed: int, workdir: Path) -> tuple[Path, Path, Path, int, list]:
    """An n = 50 normal dataset and exact posterior draws (mu, sigma) of it."""
    y = _rng(seed, 5).normal(10.0, 2.0, N_NORMAL)
    data = _write_dataset(workdir / "normal.csv", y)
    g = _rng(seed, 6)
    s2 = y.var(ddof=1)
    sigma = np.sqrt((N_NORMAL - 1) * s2 / g.chisquare(N_NORMAL - 1, NORMAL_LINES))
    mu = y.mean() + sigma / math.sqrt(N_NORMAL) * g.standard_normal(NORMAL_LINES)
    thetas = list(zip(mu.tolist(), sigma.tolist()))
    text = [f"{m!r} {s!r}" for m, s in thetas]
    bad = ["1.5", "abc 1.0", "nan 1.0", "0.5 -1.0", "1 2 3"]
    malformed = _malformed_lines(seed, NORMAL_LINES, bad)
    _write_draws(workdir / "normal_draws.txt", text, malformed)
    _write_draws(workdir / "normal_draws_warmup.txt", text[:200], {})
    valid = [t for i, t in enumerate(thetas) if i not in malformed]
    return data, workdir / "normal_draws.txt", workdir / "normal_draws_warmup.txt", len(malformed), valid


def rate_stream(seed: int, workdir: Path, fit: Path) -> tuple[Path, Path, int]:
    """Posterior draws of the common rate for the ``fit`` dataset."""
    y, e = np.loadtxt(fit, delimiter=",", skiprows=1, unpack=True)
    rates = _rng(seed, 8).gamma(y.sum(), 1.0 / e.sum(), COUNT_LINES)
    text = [f"{r!r}" for r in rates.tolist()]
    malformed = _malformed_lines(seed, COUNT_LINES, ["x", "-1.0", "1.0 2.0", "inf"])
    _write_draws(workdir / "rate_draws.txt", text, malformed)
    _write_draws(workdir / "rate_draws_warmup.txt", text[:200], {})
    return workdir / "rate_draws.txt", workdir / "rate_draws_warmup.txt", len(malformed)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _read_csv(path: Path, header: list[str], rows: int) -> list[list[str]]:
    try:
        with open(path, newline="") as fh:
            table = list(csv.reader(fh))
    except OSError as exc:
        raise CheckError(f"{path.name}: {exc}") from exc
    _require(bool(table) and table[0] == header, f"{path.name}: header {table[:1]} != {header}")
    _require(len(table) - 1 == rows, f"{path.name}: {len(table) - 1} rows, expected {rows}")
    return table[1:]


def _num(text: str, what: str, lo: float = -math.inf, hi: float = math.inf) -> float:
    try:
        v = float(text)
    except ValueError:
        raise CheckError(f"{what}: {text!r} is not a number") from None
    _require(math.isfinite(v) and lo <= v <= hi, f"{what}: {v} outside [{lo}, {hi}]")
    return v


def _manifest(outdir: Path) -> dict:
    try:
        with open(outdir / "manifest.json") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckError(f"manifest.json: {exc}") from exc


def digests(outdir: Path) -> dict[str, str]:
    """sha256 of every output but the manifest, which records wall times."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(outdir.iterdir())
        if p.name != "manifest.json"
    }


def check_null(reps: int) -> Callable[[Path, int], None]:
    def check(outdir: Path, code: int) -> None:
        header = ["rank", "posterior", "posterior_ref", "plugin", "grouped", "grouped_ref"]
        rows = _read_csv(outdir / "qq.csv", header, reps)
        prev = [-math.inf] * 5
        for i, row in enumerate(rows):
            _require(row[0] == str(i + 1), f"qq.csv: rank {row[0]} at row {i + 1}")
            vals = [_num(v, f"qq.csv row {i + 1}", 0.0) for v in row[1:]]
            # each column is a sorted series or its reference quantiles
            _require(all(a <= b for a, b in zip(prev, vals)), f"qq.csv: row {i + 1} not sorted")
            prev = vals
        header = ["series", "replicates", "n", "k", "mean", "variance",
                  "ks_statistic", "ks_critical", "ks_alpha", "ks_passed"]
        rows = _read_csv(outdir / "summary.csv", header, 3)
        _require([r[0] for r in rows] == ["posterior", "plugin", "grouped"], "summary.csv: series")
        for r in rows:
            _require(r[1:4] == [str(reps), str(N_NORMAL), str(K)], f"summary.csv: {r[:4]}")
            _num(r[4], "mean", 0.0)
            _num(r[5], "variance", 0.0)
            if r[0] == "plugin":
                _require(r[6:] == ["", "", "", ""], "summary.csv: plugin has no KS reference")
            else:
                _num(r[6], "ks_statistic", 0.0, 1.0)
                _num(r[7], "ks_critical", 0.0, 1.0)
                _require(r[8] == "0.01" and r[9] in ("true", "false"), f"summary.csv: {r[8:]}")

    return check


def check_power(reps: int) -> Callable[[Path, int], None]:
    def check(outdir: Path, code: int) -> None:
        header = ["df", "method", "rejections", "replicates", "rate"]
        rows = _read_csv(outdir / "power.csv", header, len(POWER_DF) * len(POWER_METHODS))
        cells = {(float(r[0]), r[1]) for r in rows}
        _require(cells == {(float(d), m) for d in POWER_DF for m in POWER_METHODS},
                 f"power.csv: cells {sorted(cells)}")
        for r in rows:
            rej = int(_num(r[2], "rejections", 0, reps))
            _require(r[3] == str(reps), f"power.csv: replicates {r[3]}")
            _require(_num(r[4], "rate", 0.0, 1.0) == rej / reps, f"power.csv: rate {r[4]}")
        critical = _manifest(outdir).get("derived", {}).get("auc_critical")
        _require(isinstance(critical, float) and 0.0 < critical < 1.0,
                 f"manifest: auc_critical {critical}")

    return check


def check_analyze(model: str, draws: int, n: int) -> Callable[[Path, int], None]:
    def check(outdir: Path, code: int) -> None:
        header = ["model", "auc", "exceedance", "threshold", "n_draws", "k", "small_cells"]
        header += [f"mean_count_bin{i + 1}" for i in range(K)]
        (row,) = _read_csv(outdir / "summary.csv", header, 1)
        _require(row[0] == model and row[4:6] == [str(draws), str(K)], f"summary.csv: {row[:7]}")
        _num(row[1], "auc", 0.0, 1.0)
        exceedance = _num(row[2], "exceedance", 0.0, 1.0)
        threshold = _num(row[3], "threshold", 0.0)
        means = [_num(v, "mean bin count", 0.0, n) for v in row[7:]]
        # every draw allocates all n observations
        _require(abs(sum(means) - n) <= 1e-9 * n, f"summary.csv: mean counts sum to {sum(means)}")
        rows = _read_csv(outdir / "trace.csv", ["draw", "value", "dof"], draws)
        above = 0
        for i, r in enumerate(rows):
            _require(r[0] == str(i) and r[2] == str(K - 1), f"trace.csv: row {r}")
            above += _num(r[1], "trace value", 0.0) > threshold
        _require(exceedance == above / draws, f"exceedance {exceedance} != {above}/{draws}")

    return check


def check_pp(reps: int) -> Callable[[Path, int], None]:
    def check(outdir: Path, code: int) -> None:
        (row,) = _read_csv(outdir / "summary.csv", ["auc_observed", "pp_reps", "p_value"], 1)
        observed = _num(row[0], "auc_observed", 0.0, 1.0)
        _require(row[1] == str(reps), f"summary.csv: pp_reps {row[1]}")
        p_value = _num(row[2], "p_value", 0.0, 1.0)
        rows = _read_csv(outdir / "predictive.csv", ["replicate", "auc"], reps)
        aucs = []
        for i, r in enumerate(rows):
            _require(r[0] == str(i), f"predictive.csv: replicate {r[0]} at row {i}")
            aucs.append(_num(r[1], "predictive auc", 0.0, 1.0))
        at_least = sum(a >= observed for a in aucs)
        _require(p_value == at_least / reps, f"p_value {p_value} != {at_least}/{reps}")

    return check


def check_monitor(lines: int, malformed: int) -> Callable[[Path, int], None]:
    def check(outdir: Path, code: int) -> None:
        header = ["index", "value", "valid", "exceeds", "cumulative_rate", "alert"]
        rows = _read_csv(outdir / "trace.csv", header, lines - malformed)
        exceeded = 0
        alert = False
        for i, r in enumerate(rows):
            _require(r[0] == str(i) and r[2] == "true", f"trace.csv: row {r}")
            _num(r[1], "statistic", 0.0)
            _require(r[3] in ("true", "false") and r[5] in ("true", "false"), f"trace.csv: {r}")
            exceeded += r[3] == "true"
            _require(float(r[4]) == exceeded / (i + 1), f"trace.csv: rate {r[4]} at row {i}")
            _require(alert <= (r[5] == "true"), f"trace.csv: alert unlatched at row {i}")
            alert = r[5] == "true"
        _require(code == (3 if alert else 0), f"exit {code} with alert={alert}")
        derived = _manifest(outdir).get("derived", {})
        _require(derived == {"draw_lines": lines, "malformed_lines": malformed},
                 f"manifest: {derived}")

    return check


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------

def _null(seed: int, workers: int) -> Plan:
    def op(name: str, reps: int, workers: int) -> Op:
        argv = ["simulate-null", "--model", "normal", "--n", str(N_NORMAL), "--k", str(K),
                "--classical", "--reps", str(reps), "--workers", str(workers), "--seed", str(seed)]
        return Op(name, argv, reps, check_null(reps), threads=workers, expect={
            "harness.null_calibration.calls": 1,
            "harness.replicates": reps,
            "binning.equiprobable.calls": 1,  # bound in harness by from-import
            "models.posterior_draw.calls": reps,
            "probkit.chi2_upper_quantile.calls": reps,
            "probkit.streams_opened": 2 * reps,  # data and posterior streams
            "gof.posterior_chisq.calls": reps,
            "binning.assign.calls": reps,  # bound in gof by from-import
            "gof.plugin_chisq.calls": reps,
            "gof.grouped_chisq.calls": reps,
            "gof.grouped_chisq.failures": 0,
            "gof.pearson.calls": 3 * reps,
            "cli.main.calls": 1,
        })

    timed = op(f"simulate-null-w{workers}", NULL_REPS, workers)
    metric = "null_reps_per_s" if workers == 1 else f"null_reps_per_s_w{workers}"
    plan = Plan(metric, timed=timed, warmup=op("warmup", 20, workers))
    if workers > 1:
        plan.reference = op("simulate-null-w1", NULL_REPS, 1)
    return plan


def plan_null_classical(seed: int, workdir: Path) -> Plan:
    return _null(seed, 1)


def plan_null_classical_w2(seed: int, workdir: Path) -> Plan:
    return _null(seed, 2)


def plan_power_batched(seed: int, workdir: Path) -> Plan:
    def op(name: str, reps: int) -> Op:
        argv = ["power", "--n", str(N_NORMAL), "--k", str(K), "--draws", str(POWER_DRAWS),
                "--df", ",".join(map(str, POWER_DF)), "--methods", ",".join(POWER_METHODS),
                "--reps", str(reps), "--seed", str(seed)]
        datasets = reps * (1 + len(POWER_DF))  # null-AUC replicates, then reps per df
        return Op(name, argv, datasets, check_power(reps), expect={
            "harness.null_auc_distribution.calls": 1,
            "harness.power_study.calls": 1,
            "harness.replicates": datasets,
            "binning.equiprobable.calls": 2,  # bound in harness by from-import
            "gof.reference_auc.calls": datasets,  # bound in harness by from-import
            "models.posterior_draws.calls": datasets,
            "models.posterior_draws.draws": datasets * POWER_DRAWS,
            "probkit.chi2_upper_quantile.calls": datasets,
            "probkit.chi2_upper_quantile.elements": datasets * POWER_DRAWS,
            "probkit.normal_cdf.elements": datasets * POWER_DRAWS * N_NORMAL,
            "probkit.streams_opened": 2 * datasets,
            "gof.grouped_chisq.calls": 0,
            "cli.main.calls": 1,
        })

    return Plan("power_datasets_per_s", timed=op("power", POWER_REPS), warmup=op("warmup", 5))


def _analyze_expect(draws: int, extra: dict[str, float]) -> dict[str, float]:
    return {
        "cli.main.calls": 1,
        "cli.read_dataset.calls": 1,
        "binning.equiprobable.calls": 1,  # bound in cli by from-import
        "harness.analyze.calls": 1,
        "gof.posterior_chisq.calls": draws,
        "gof.pearson.calls": draws,
        "binning.assign_discrete_randomized.calls": draws,  # bound in gof by from-import
        "binning.assign.calls": draws,
        "probkit.poisson_cdf.calls": 2 * draws,
        "probkit.poisson_cdf.elements": 2 * draws * N_COUNTS,
        "gof.reference_auc.calls": 1,  # bound in harness by from-import
        "gof.exceedance.calls": 1,  # bound in harness by from-import
        "gof.evaluation_failures": 0,
        **extra,
    }


def _analyze_op(name: str, data: Path, model: str, draws: int, seed: int,
                expect: dict[str, float], extra_argv: tuple[str, ...] = ()) -> Op:
    argv = ["analyze", "--data", str(data), "--model", model, "--draws", str(draws),
            "--seed", str(seed), *extra_argv]
    return Op(name, argv, draws, check_analyze(model, draws, N_COUNTS), expect=expect)


def plan_counts_analyze(seed: int, workdir: Path) -> Plan:
    data = count_datasets(seed, workdir)
    expect = _analyze_expect(ANALYZE_DRAWS, {
        "models.posterior_draws.calls": 1,
        "models.posterior_draws.draws": ANALYZE_DRAWS,
    })
    return Plan(
        "analyze_draws_per_s",
        timed=_analyze_op("analyze-fit", data["fit"], "poisson-common", ANALYZE_DRAWS, seed, expect),
        warmup=_analyze_op("warmup", data["fit"], "poisson-common", 200, seed, {}),
        # pdtr(299) and pdtr(300) both round to 1.0 at the fitted mean, so the
        # program reports a zero-probability outcome; kept as a known failure
        probe=_analyze_op("analyze-outlier", data["outlier"], "poisson-common",
                          ANALYZE_DRAWS, seed, {}),
    )


def plan_counts_pp(seed: int, workdir: Path) -> Plan:
    data = count_datasets(seed, workdir)

    def op(name: str, reps: int, draws: int) -> Op:
        argv = ["pp-test", "--data", str(data["fit"]), "--model", "poisson-common",
                "--draws", str(draws), "--pp-reps", str(reps), "--seed", str(seed)]
        fits = reps + 1  # the observed data, then one fit per replicate
        return Op(name, argv, reps, check_pp(reps), expect={
            "cli.main.calls": 1,
            "cli.read_dataset.calls": 1,
            "harness.predictive_auc_test.calls": 1,
            "harness.analyze.calls": fits,
            "models.posterior_draws.calls": fits + 1,
            "models.posterior_draws.draws": fits * draws + reps,
            "models.predictive_draw.calls": reps,
            "gof.posterior_chisq.calls": fits * draws,
            "binning.assign_discrete_randomized.calls": fits * draws,
            "probkit.poisson_cdf.calls": 2 * fits * draws,
            "gof.reference_auc.calls": fits,
            "gof.exceedance.calls": fits,
            "gof.evaluation_failures": 0,
        })

    return Plan("pp_reps_per_s", timed=op("pp-test", PP_REPS, PP_DRAWS),
                warmup=op("warmup", 2, 100))


def plan_counts_mcmc(seed: int, workdir: Path) -> Plan:
    data = count_datasets(seed, workdir)
    expect = _analyze_expect(MCMC_DRAWS, {
        "models.run_chain.calls": 1,
        "models.run_chain.iterations": MCMC_BURN_IN + MCMC_THIN * MCMC_DRAWS,
        "models.posterior_draws.calls": 0,
    })
    return Plan(
        "mcmc_draws_per_s",
        timed=_analyze_op("analyze-exchangeable", data["overdispersed"], "poisson-exchangeable",
                          MCMC_DRAWS, seed, expect),
        warmup=_analyze_op("warmup", data["overdispersed"], "poisson-exchangeable", 100, seed,
                           {}, ("--chain-burn-in", "100")),
    )


def _monitor_op(name: str, data: Path, model: str, draws: Path, lines: int, malformed: int,
                seed: int, expect: dict[str, float]) -> Op:
    argv = ["monitor", "--data", str(data), "--model", model, "--draws-file", str(draws),
            "--seed", str(seed)]
    valid = lines - malformed
    expect = {
        "cli.main.calls": 1,
        "cli.read_dataset.calls": 1,
        "binning.equiprobable.calls": 1,  # bound in cli by from-import
        "harness.stream_monitor.calls": 1,
        "gof.posterior_chisq.calls": valid,
        "gof.pearson.calls": valid,
        "binning.assign.calls": valid,
        "gof.evaluation_failures": 0,
        "cli.monitor.malformed_lines": malformed,
        **expect,
    }
    return Op(name, argv, lines, check_monitor(lines, malformed), ok_codes=(0, 3), expect=expect)


def plan_monitor_normal(seed: int, workdir: Path) -> Plan:
    data, draws, warm, malformed, valid = normal_stream(seed, workdir)
    expect = {"probkit.normal_cdf.calls": NORMAL_LINES - malformed,
              "probkit.normal_cdf.elements": (NORMAL_LINES - malformed) * N_NORMAL}
    return Plan(
        "monitor_normal_draws_per_s",
        timed=_monitor_op("monitor-normal", data, "normal", draws, NORMAL_LINES, malformed,
                          seed, expect),
        warmup=_monitor_op("warmup", data, "normal", warm, 200, 0, seed, {}),
        latency_draws=valid,
        latency_data=data,
    )


def plan_monitor_count(seed: int, workdir: Path) -> Plan:
    fit = count_datasets(seed, workdir)["fit"]
    draws, warm, malformed = rate_stream(seed, workdir, fit)
    valid = COUNT_LINES - malformed
    expect = {"binning.assign_discrete_randomized.calls": valid,
              "probkit.poisson_cdf.calls": 2 * valid,
              "probkit.streams_opened": 1}  # one randomization stream for the whole run
    return Plan(
        "monitor_count_draws_per_s",
        timed=_monitor_op("monitor-count", fit, "poisson-common", draws, COUNT_LINES,
                          malformed, seed, expect),
        warmup=_monitor_op("warmup", fit, "poisson-common", warm, 200, 0, seed, {}),
    )


PLANS: dict[str, Callable[[int, Path], Plan]] = {
    "null-classical": plan_null_classical,
    "null-classical-w2": plan_null_classical_w2,
    "power-batched": plan_power_batched,
    "counts-analyze": plan_counts_analyze,
    "counts-pp": plan_counts_pp,
    "counts-mcmc": plan_counts_mcmc,
    "monitor-normal": plan_monitor_normal,
    "monitor-count": plan_monitor_count,
}

"""End-to-end command-line behavior: exit codes, file schemas, config
precedence, and manifest replay."""

import argparse
import csv
import dataclasses
import errno
import io
import json
import math
import os
import threading
import warnings

import numpy as np
import pytest
from scipy import special as sp

from bayesgof import cli, harness
from bayesgof.probkit import RngStream


def run_cli(*args) -> int:
    return cli.main([str(a) for a in args])


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.fixture()
def normal_csv(tmp_path):
    y = RngStream(1).generator.normal(0.0, 1.0, 50)
    path = tmp_path / "normal.csv"
    path.write_text("y\n" + "\n".join(repr(float(v)) for v in y) + "\n")
    return path


@pytest.fixture()
def poisson_csv(tmp_path):
    gen = RngStream(2).generator
    y = gen.poisson(5.0, 30)
    path = tmp_path / "counts.csv"
    rows = "\n".join(f"{int(v)},1.0" for v in y)
    path.write_text("y,E\n" + rows + "\n")
    return path


@pytest.mark.parametrize(
    "command", ["", "simulate-null", "power", "analyze", "pp-test", "monitor", "validate", "replay"],
    ids=lambda command: command or "top-level",
)
def test_help_of_every_parser_ends_in_the_exit_codes(capsys, command):
    with pytest.raises(SystemExit) as done:
        run_cli(*command.split(), "--help")
    assert done.value.code == 0
    assert capsys.readouterr().out.endswith("\n" + cli.EXIT_HELP)


def test_usage_errors_exit_64(tmp_path, capsys, normal_csv):
    assert run_cli("no-such-command") == 64
    assert run_cli("simulate-null", "--bogus-flag") == 64
    assert run_cli("power", "--df", "0..3", "--outdir", tmp_path) == 64
    for df in ("2..1", "a..3", "x"):
        assert run_cli("power", "--df", df, "--outdir", tmp_path) == 64
    assert run_cli("power", "--methods", "bogus", "--outdir", tmp_path) == 64
    assert run_cli("power", "--reps", "5", "--full-scale", "--outdir", tmp_path) == 64
    # settings out of range, refused before any draw
    assert run_cli("analyze", "--data", normal_csv, "--model", "normal", "--draws", "0",
                   "--outdir", tmp_path) == 64
    assert run_cli("pp-test", "--data", normal_csv, "--model", "normal", "--pp-reps", "0",
                   "--outdir", tmp_path) == 64
    assert run_cli("simulate-null", "--workers", "0", "--outdir", tmp_path) == 64
    for critical in ("1.5", "0", "nan"):
        assert run_cli("power", "--auc-critical", critical, "--outdir", tmp_path) == 64
    err = capsys.readouterr().err
    assert "usage" in err


def test_missing_data_file_exit_65(tmp_path):
    assert run_cli("analyze", "--data", tmp_path / "nope.csv",
                   "--model", "normal", "--outdir", tmp_path) == 65


def test_bad_header_exit_65(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("value\n1.0\n")
    assert run_cli("validate", "--data", bad, "--outdir", tmp_path) == 65
    assert "header" in capsys.readouterr().err


def test_non_numeric_row_exit_65(tmp_path, capsys):
    path = tmp_path / "text.csv"
    path.write_text("y\n1.0\nabc\n")
    assert run_cli("validate", "--data", path, "--outdir", tmp_path) == 65
    assert "row 3 is not numeric" in capsys.readouterr().err
    for value in ("nan", "inf"):
        path.write_text(f"y\n1.0\n{value}\n")
        assert run_cli("validate", "--data", path, "--outdir", tmp_path) == 65
        assert "column y contains non-finite values" in capsys.readouterr().err


@pytest.mark.parametrize("values, message", [
    ("5 5 5", "degenerate sample: all observations are equal"),
    ("1e-320 2e-320 3e-320", "sample spread underflows: the observations differ, but their "
                             "squared deviations round to 0 in double precision"),
])
def test_sample_without_spread_exit_65_saying_why(tmp_path, capsys, values, message):
    path = tmp_path / "flat.csv"
    path.write_text("y\n" + "\n".join(values.split()) + "\n")
    assert run_cli("analyze", "--data", path, "--model", "normal", "--draws", "10",
                   "--outdir", tmp_path) == 65
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("model", ["poisson-common", "poisson-saturated", "poisson-exchangeable"])
def test_missing_offset_column_named(tmp_path, normal_csv, capsys, model):
    code = run_cli("analyze", "--data", normal_csv, "--model", model, "--outdir", tmp_path)
    assert code == 65
    assert capsys.readouterr().err == (
        f"error: dataset is missing the offset column 'E' required by model {model}\n"
    )


def test_non_integer_counts_exit_65(tmp_path, capsys):
    path = tmp_path / "frac.csv"
    path.write_text("y,E\n1.5,1.0\n2,1.0\n3,1.0\n")
    assert run_cli("validate", "--data", path, "--model", "poisson-common",
                   "--outdir", tmp_path) == 65


def test_nonpositive_offset_exit_65(tmp_path):
    path = tmp_path / "zeroE.csv"
    path.write_text("y,E\n1,1.0\n2,0.0\n3,1.0\n")
    assert run_cli("validate", "--data", path, "--outdir", tmp_path) == 65


@pytest.mark.parametrize("model", ["poisson-common", "poisson-exchangeable"])
def test_offsets_whose_sum_overflows_exit_65(tmp_path, model, capsys):
    # each offset is finite, their sum is not
    path = tmp_path / "huge.csv"
    path.write_text("y,E\n3,1e308\n4,1e308\n")
    assert run_cli("analyze", "--data", path, "--model", model, "--outdir", tmp_path / "run") == 65
    assert "finite sum" in capsys.readouterr().err


def test_validate_reports_shape(tmp_path, poisson_csv, capsys):
    assert run_cli("validate", "--data", poisson_csv, "--model", "poisson-common",
                   "--outdir", tmp_path) == 0
    out = capsys.readouterr().out
    assert "30 rows" in out
    assert "accepted" in out


def test_simulate_null_outputs(tmp_path):
    out = tmp_path / "run"
    assert run_cli("simulate-null", "--model", "normal", "--n", "40", "--reps", "50",
                   "--seed", "3", "--outdir", out) == 0
    qq = read_csv(out / "qq.csv")
    assert qq[0] == ["rank", "posterior", "posterior_ref"]
    assert len(qq) == 51
    summary = read_csv(out / "summary.csv")
    assert summary[0] == ["series", "replicates", "n", "k", "mean", "variance",
                          "ks_statistic", "ks_critical", "ks_alpha", "ks_passed"]
    assert summary[1][0] == "posterior"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "simulate-null"
    assert manifest["config"]["seed"] == 3
    assert "runtime_s" in manifest["derived"]


def test_simulate_null_classical_columns(tmp_path):
    out = tmp_path / "run"
    assert run_cli("simulate-null", "--model", "normal", "--n", "40", "--reps", "30",
                   "--classical", "--outdir", out) == 0
    qq = read_csv(out / "qq.csv")
    # plugin carries no reference law column
    assert qq[0] == ["rank", "posterior", "posterior_ref", "plugin",
                     "grouped", "grouped_ref"]
    summary = read_csv(out / "summary.csv")
    assert [r[0] for r in summary[1:]] == ["posterior", "plugin", "grouped"]
    plugin_row = summary[2]
    assert plugin_row[6] == ""  # no KS against a named law
    fit = json.loads((out / "manifest.json").read_text())["derived"]["grouped_fit"]
    assert fit["fits"] == 30
    assert 30 <= fit["iterations_total"] <= 30 * fit["iterations_max"]


def test_assert_calibrated_failure_exit_2(tmp_path):
    out = tmp_path / "run"
    code = run_cli("simulate-null", "--model", "poisson-synthetic", "--mean", "2.0",
                   "--n", "200", "--k", "5", "--reps", "200", "--seed", "0",
                   "--assert-calibrated", "--outdir", out)
    assert code == 2


def test_assert_calibrated_pass_exit_0(tmp_path):
    out = tmp_path / "run"
    code = run_cli("simulate-null", "--model", "normal", "--n", "50", "--reps", "100",
                   "--seed", "3", "--assert-calibrated", "--outdir", out)
    assert code == 0


def test_mean_is_checked_for_the_poisson_synthetic_model_only(tmp_path, capsys):
    common = ("simulate-null", "--n", "20", "--reps", "20", "--seed", "5")
    # the normal model never reads --mean, so any value leaves its output as is
    assert run_cli(*common, "--model", "normal", "--outdir", tmp_path / "a") == 0
    assert run_cli(*common, "--model", "normal", "--mean", "-1",
                   "--outdir", tmp_path / "b") == 0
    for name in ("qq.csv", "summary.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    capsys.readouterr()
    for mean in ("-1", "nan", "inf"):
        assert run_cli(*common, "--model", "poisson-synthetic", "--mean", mean,
                       "--outdir", tmp_path / "c") == 64
        assert "--mean must be positive and finite" in capsys.readouterr().err
    # above 2**52 the Poisson counts could pass 2**53: the flag is named, not
    # the observations of a synthetic replicate
    for mean in ("4503599627370497", "1e17", "1e300"):
        assert run_cli(*common, "--model", "poisson-synthetic", "--mean", mean,
                       "--outdir", tmp_path / "d") == 64
        err = capsys.readouterr().err
        assert "--mean must be at most 2**52" in err and "observations" not in err
    assert run_cli(*common, "--model", "poisson-synthetic", "--mean", "4503599627370496",
                   "--outdir", tmp_path / "e") == 0


@pytest.mark.parametrize("model", ["poisson-common", "poisson-saturated", "poisson-exchangeable"])
@pytest.mark.parametrize("counts, bad", [
    (("1e19", "2", "3", "4"), [0]),  # beyond int64
    (("5e18", "5e18", "3", "4"), [0, 1]),  # a total beyond int64
])
def test_counts_above_2_to_the_53_exit_65_naming_them(tmp_path, capsys, model, counts, bad):
    data = tmp_path / "big.csv"
    data.write_text("y,E\n" + "".join(f"{c},1.0\n" for c in counts))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("analyze", "--data", data, "--model", model, "--draws", "20",
                       "--chain-burn-in", "10", "--outdir", tmp_path / "out") == 65
    err = capsys.readouterr().err
    assert f"counts above 2**53 are not held exactly, at observations {bad}" in err


def test_improper_saturated_posterior_refusal_is_one_line_naming_ten(tmp_path, capsys):
    # 500 counts alternating 1, 0: the 250 zeros, under the prior exponent 1,
    # are named ten at a time with the total
    path = tmp_path / "zeros.csv"
    path.write_text("y,E\n" + "".join(f"{i % 2},1.0\n" for i in range(1, 501)))
    out = tmp_path / "run"
    assert run_cli("analyze", "--data", path, "--model", "poisson-saturated",
                   "--prior-exponent", "1", "--draws", "10", "--outdir", out) == 65
    assert capsys.readouterr().err == (
        "error: improper posterior components (zero count with prior exponent 1) at "
        f"observations {list(range(1, 20, 2))} and 240 more, 250 in all\n"
    )
    assert list(out.iterdir()) == []


def test_power_outputs(tmp_path):
    out = tmp_path / "run"
    assert run_cli("power", "--df", "1,5", "--reps", "10", "--draws", "50",
                   "--n", "30", "--auc-critical", "0.786", "--seed", "4",
                   "--outdir", out) == 0
    rows = read_csv(out / "power.csv")
    assert rows[0] == ["df", "method", "rejections", "replicates", "rate"]
    assert len(rows) == 1 + 2 * 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["derived"]["auc_critical"] == 0.786
    assert manifest["derived"]["grouped_fit"]["fits"] == 2 * 10


def test_power_df_range_parsing(tmp_path):
    out = tmp_path / "run"
    assert run_cli("power", "--df", "1..3", "--methods", "grouped", "--reps", "5",
                   "--draws", "20", "--n", "30", "--auc-critical", "0.7",
                   "--outdir", out) == 0
    rows = read_csv(out / "power.csv")
    assert [r[0] for r in rows[1:]] == ["1", "2", "3"]
    assert all(r[1] == "grouped" for r in rows[1:])
    out = tmp_path / "auc-only"
    assert run_cli("power", "--df", "1", "--methods", "auc", "--reps", "5",
                   "--draws", "20", "--n", "30", "--auc-critical", "0.7",
                   "--outdir", out) == 0
    assert "grouped_fit" not in json.loads((out / "manifest.json").read_text())["derived"]


def test_power_df_range_is_checked_before_it_is_expanded(capsys):
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(argparse.ArgumentTypeError, match=r"1\.\.10"):
            cli._parse_df_list("1..3000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # 1e11 values would not fit in memory: the range is refused unexpanded
    assert run_cli("power", "--df", "1..100000000000", "--reps", "1") == 64
    assert "df values must lie in 1..10" in capsys.readouterr().err


def test_power_refuses_its_settings_before_the_null_run(tmp_path, monkeypatch, capsys):
    # at n 20 the grouped method has k 3 cells and k - 1 - s = 0 degrees of
    # freedom, so the AUC null study must not run
    def no_null_run(*args):
        raise AssertionError("the AUC null study ran")

    monkeypatch.setattr(harness, "null_auc_distribution", no_null_run)
    assert run_cli("power", "--n", "20", "--df", "1", "--reps", "5",
                   "--outdir", tmp_path / "run") == 64
    assert "degrees of freedom" in capsys.readouterr().err


def test_power_without_a_critical_value_matches_the_recorded_one(tmp_path):
    # the null run at seed + 1 gives the critical value the manifest records;
    # passing that value back gives the same study byte for byte
    common = ("power", "--df", "1,5", "--reps", "6", "--draws", "40", "--n", "30", "--seed", "9")
    fresh, stored = tmp_path / "fresh", tmp_path / "stored"
    assert run_cli(*common, "--outdir", fresh) == 0
    critical = json.loads((fresh / "manifest.json").read_text())["derived"]["auc_critical"]
    assert run_cli(*common, "--auc-critical", repr(critical), "--outdir", stored) == 0
    assert (fresh / "power.csv").read_bytes() == (stored / "power.csv").read_bytes()
    derived = json.loads((stored / "manifest.json").read_text())["derived"]
    assert derived["auc_critical"] == critical


def test_power_null_seed_out_of_range_exit_64(tmp_path, monkeypatch, capsys):
    # the null run would take seed + 1 = 2**64: refused before any replicate
    def no_run(*args):
        raise AssertionError("a replicate ran")

    monkeypatch.setattr(harness, "null_auc_distribution", no_run)
    monkeypatch.setattr(harness, "generate_t", no_run)
    top = str(2**64 - 1)
    common = ("power", "--df", "1", "--reps", "3", "--draws", "20", "--n", "30", "--seed", top)
    out = tmp_path / "run"
    assert run_cli(*common, "--outdir", out) == 64
    assert "seed + 1" in capsys.readouterr().err
    assert list(out.iterdir()) == []
    # a stored critical value needs no null run
    monkeypatch.undo()
    assert run_cli(*common, "--auc-critical", "0.7", "--outdir", out) == 0


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
@pytest.mark.parametrize(
    "command", ["simulate-null", "power", "analyze", "pp-test", "monitor", "validate"]
)
def test_out_of_range_seed_exit_64(tmp_path, poisson_csv, command, seed, capsys):
    args = [command]
    if command not in ("simulate-null", "power"):
        args += ["--data", poisson_csv, "--model", "poisson-common"]
    out = tmp_path / "run"
    assert run_cli(*args, "--seed", seed, "--outdir", out) == 64
    assert f"seed must be in [0, 2**64), got {seed}" in capsys.readouterr().err
    assert not out.exists()


def test_power_on_data_without_a_grouped_mle_exit_70(tmp_path, monkeypatch, capsys):
    # 40 observations in the bottom cell and 10 in the top one: the grouped
    # likelihood rises without bound as sigma grows
    def two_cell_sample(n, df, rng):
        return np.r_[np.linspace(-3.0, -2.5, 40), np.linspace(2.5, 3.0, 10)]

    monkeypatch.setattr(harness, "generate_t", two_cell_sample)
    assert run_cli("power", "--df", "3", "--methods", "grouped", "--reps", "2",
                   "--draws", "20", "--n", "50", "--k", "5", "--auc-critical", "0.7",
                   "--outdir", tmp_path) == 70
    assert "numerical failure" in capsys.readouterr().err


def test_analyze_outputs(tmp_path, poisson_csv):
    out = tmp_path / "run"
    assert run_cli("analyze", "--data", poisson_csv, "--model", "poisson-common",
                   "--draws", "200", "--seed", "5", "--outdir", out) == 0
    summary = read_csv(out / "summary.csv")
    assert summary[0][:7] == ["model", "auc", "exceedance", "threshold",
                              "n_draws", "k", "small_cells"]
    # default rule gives K=4 at n=30
    assert summary[0][7:] == [f"mean_count_bin{i}" for i in range(1, 5)]
    assert summary[1][0] == "poisson-common"
    assert 0.0 <= float(summary[1][1]) <= 1.0
    trace = read_csv(out / "trace.csv")
    assert trace[0] == ["draw", "value", "dof"]
    assert len(trace) == 201
    assert all(r[2] == "3" for r in trace[1:])


def test_outlier_count_gives_a_statistic(tmp_path, poisson_csv):
    # one count of 300 at exposure 25: its CDF values both round to 1.0
    path = tmp_path / "outlier.csv"
    path.write_text(poisson_csv.read_text() + "300,25.0\n")
    for command in (("analyze", "--draws", "100"), ("pp-test", "--pp-reps", "3", "--draws", "50")):
        out = tmp_path / command[0]
        assert run_cli(*command, "--data", path, "--model", "poisson-common",
                       "--seed", "5", "--outdir", out) == 0
    summary = read_csv(tmp_path / "analyze" / "summary.csv")
    assert float(summary[1][1]) > 0.9  # a gross outlier reads as misfit


def far_tail_csv(tmp_path, outlier):
    """40 counts of 30 and one far-tail count, every offset 1."""
    path = tmp_path / f"far-tail-{outlier}.csv"
    path.write_text("y,E\n" + "30,1.0\n" * 40 + f"{outlier},1.0\n")
    return path


@pytest.mark.parametrize("outlier", [84, 88, 92])
def test_far_tail_count_with_a_collapsed_cdf_pair_gives_a_statistic(tmp_path, outlier):
    # at some draws pdtr(outlier - 1, m) and pdtr(outlier, m) are the same
    # double below 1; the outlier lands at that value, in the top cell
    path = far_tail_csv(tmp_path, outlier)
    out = tmp_path / "analyze"
    assert run_cli("analyze", "--data", path, "--model", "poisson-common",
                   "--draws", "2000", "--seed", "1", "--outdir", out) == 0
    summary = dict(zip(*read_csv(out / "summary.csv")))
    assert summary["k"] == "4" and float(summary["mean_count_bin4"]) == 1.0
    assert run_cli("pp-test", "--data", path, "--model", "poisson-common", "--pp-reps", "3",
                   "--draws", "2000", "--seed", "1", "--outdir", tmp_path / "pp") == 0


def test_monitor_on_rates_where_the_outlier_pair_collapses_exit_0(tmp_path):
    # at every rate in 29.367..29.383, pdtr(83, m) == pdtr(84, m) < 1
    rates = np.linspace(29.3675, 29.3825, 40)
    assert all(sp.pdtr(83, m) == sp.pdtr(84, m) < 1.0 for m in rates)
    path = far_tail_csv(tmp_path, 84)
    draws = write_draw_file(tmp_path, path, "rates.txt", [repr(float(m)) for m in rates])
    out = tmp_path / "run"
    assert run_cli("monitor", "--data", path, "--model", "poisson-common",
                   "--draws-file", draws, "--outdir", out) == 0
    trace = read_csv(out / "trace.csv")
    assert len(trace) == 41 and all(row[2] == "true" for row in trace[1:])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["derived"] == {"draw_lines": 40, "malformed_lines": 0}


@pytest.mark.parametrize("model", ["poisson-common", "poisson-exchangeable"])
def test_pp_test_replicate_violating_the_model_exit_70(tmp_path, model, capsys):
    # at offsets 0.01 a predictive replicate of these counts can be all zero
    path = tmp_path / "sparse.csv"
    path.write_text("y,E\n1,0.01\n" + "0,0.01\n" * 19)
    out = tmp_path / "run"
    assert run_cli("pp-test", "--data", path, "--model", model, "--pp-reps", "20",
                   "--draws", "50", "--outdir", out) == 70
    err = capsys.readouterr().err
    assert "predictive replicate 2 violates model data requirements: all counts are zero" in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", [
    ("analyze", "--model", "normal", "--draws", "100000000000000"),
    ("power", "--draws", "100000000000000", "--reps", "2"),
    ("simulate-null", "--n", "100000000000000", "--reps", "1"),
])
def test_setting_too_large_for_memory_exits_64(tmp_path, capsys, normal_csv, command):
    # 1e14 elements: numpy refuses the array at once, allocating nothing
    data = ("--data", normal_csv) if command[0] == "analyze" else ()
    out = tmp_path / "run"
    assert run_cli(*command, *data, "--outdir", out) == 64
    err = capsys.readouterr().err
    assert err.startswith("error: a setting is too large for memory: Unable to allocate ")
    assert err.count("\n") == 1
    assert not out.exists() or list(out.iterdir()) == []


@pytest.mark.parametrize("workers", ["1", "3"])
def test_simulated_replicate_violating_the_model_exit_70(tmp_path, monkeypatch, capsys, workers):
    # at mean 6 and seed 2, replicates 9, 11 and 19 hold a zero count, which
    # the prior exponent 1 refuses; three threads run 0-5, 6-12 and 13-19,
    # and the lowest, 9, is named at any worker count
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 64)
    out = tmp_path / "run"
    assert run_cli("simulate-null", "--model", "poisson-synthetic", "--prior-exponent", "1",
                   "--mean", "6", "--seed", "2", "--reps", "20", "--workers", workers,
                   "--outdir", out) == 70
    assert capsys.readouterr().err == (
        "numerical failure: replicate 9 violates model data requirements: improper "
        "posterior components (zero count with prior exponent 1) at observations [49]\n"
    )
    assert list(out.iterdir()) == []


def test_pp_test_outputs(tmp_path, normal_csv):
    out = tmp_path / "run"
    assert run_cli("pp-test", "--data", normal_csv, "--model", "normal",
                   "--pp-reps", "10", "--draws", "50", "--seed", "6",
                   "--outdir", out) == 0
    summary = read_csv(out / "summary.csv")
    assert summary[0] == ["auc_observed", "pp_reps", "p_value"]
    p = float(summary[1][2])
    assert p in {i / 10 for i in range(11)}
    pred = read_csv(out / "predictive.csv")
    assert pred[0] == ["replicate", "auc"]
    assert len(pred) == 11


def write_draw_file(tmp_path, normal_csv, name, rows):
    path = tmp_path / name
    path.write_text("\n".join(rows) + "\n")
    return path


def posterior_rows(normal_csv, n_draws, seed=7):
    from bayesgof.models import NormalModel

    y = np.loadtxt(normal_csv, skiprows=1)
    mu, sigma = NormalModel().posterior_draws(y, n_draws, RngStream(seed)).T
    return [f"{float(m)!r} {float(s)!r}" for m, s in zip(mu, sigma)]


def test_monitor_clean_stream_exit_0(tmp_path, normal_csv):
    out = tmp_path / "run"
    rows = posterior_rows(normal_csv, 400)
    rows[100:100] = ["", "   "]  # blank lines are neither draws nor malformed
    draws = write_draw_file(tmp_path, normal_csv, "draws.txt", [*rows, ""])
    code = run_cli("monitor", "--data", normal_csv, "--model", "normal",
                   "--draws-file", draws, "--outdir", out)
    assert code == 0
    trace = read_csv(out / "trace.csv")
    assert trace[0] == ["index", "value", "valid", "exceeds",
                        "cumulative_rate", "alert"]
    assert len(trace) == 401
    assert trace[-1][5] == "false"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["derived"] == {"draw_lines": 400, "malformed_lines": 0}


def test_monitor_reads_the_exchangeable_chain_rows(tmp_path, poisson_csv):
    # each row of the chain's draws is a monitor draw line as it stands
    from bayesgof.models import ChainSettings, PoissonExchangeable

    y = np.loadtxt(poisson_csv, delimiter=",", skiprows=1)[:, 0].astype(int)
    model = PoissonExchangeable(np.ones(y.size), settings=ChainSettings(burn_in=40, thin=1))
    draws = model.run_chain(y, 60, RngStream(9)).draws
    assert draws.shape == (60, y.size + 2)
    for row in draws:
        assert np.array_equal(model.theta_from_vector(row), row)
    path = write_draw_file(tmp_path, poisson_csv, "chain.txt",
                           [" ".join(repr(float(v)) for v in row) for row in draws])
    out = tmp_path / "run"
    assert run_cli("monitor", "--data", poisson_csv, "--model", "poisson-exchangeable",
                   "--draws-file", path, "--outdir", out) == 0
    derived = json.loads((out / "manifest.json").read_text())["derived"]
    assert derived == {"draw_lines": 60, "malformed_lines": 0}


def test_monitor_alert_exit_3(tmp_path, normal_csv):
    out = tmp_path / "run"
    rows = ["100.0 0.01"] * 80
    draws = write_draw_file(tmp_path, normal_csv, "bad.txt", rows)
    code = run_cli("monitor", "--data", normal_csv, "--model", "normal",
                   "--draws-file", draws, "--min-draws", "20",
                   "--alert-factor", "4.0", "--outdir", out)
    assert code == 3
    trace = read_csv(out / "trace.csv")
    assert trace[-1][5] == "true"


@pytest.mark.parametrize("setting", [
    "--alert-factor=nan", "--alert-factor=inf", "--threshold=nan", "--threshold=inf",
    "--threshold=-inf",
])
def test_monitor_non_finite_alert_setting_exit_64(tmp_path, normal_csv, setting):
    # every draw exceeds, so an alert that could fire would exit 3
    draws = write_draw_file(tmp_path, normal_csv, "bad.txt", ["3.0 0.2"] * 400)
    assert run_cli("monitor", "--data", normal_csv, "--model", "normal", "--draws-file", draws,
                   setting, "--outdir", tmp_path / "run") == 64


@pytest.mark.parametrize("data, model, flags, code", [
    (None, "normal", ["--alert-factor", "0.5"], 64),
    (None, "normal", ["--min-draws", "0"], 64),
    (None, "normal", ["--threshold", "inf"], 64),
    ("y\n" + "2.5\n" * 20, "normal", [], 65),  # all values equal
    ("y,E\n1.5,1.0\n2,1.0\n3,1.0\n", "poisson-common", [], 65),  # non-integer counts
], ids=["alert-factor", "min-draws", "threshold", "equal-values", "non-integer-counts"])
def test_rejected_monitor_run_writes_nothing(tmp_path, normal_csv, data, model, flags, code):
    # the settings and the data are checked before trace.csv is opened
    if data is not None:
        (tmp_path / "data.csv").write_text(data)
    draws = write_draw_file(tmp_path, normal_csv, "draws.txt", posterior_rows(normal_csv, 30))
    args = ["monitor", "--data", tmp_path / "data.csv" if data else normal_csv,
            "--model", model, "--draws-file", draws, *flags]
    fresh = tmp_path / "fresh"
    assert run_cli(*args, "--outdir", fresh) == code
    assert list(fresh.iterdir()) == []
    earlier = tmp_path / "earlier"
    assert run_cli("monitor", "--data", normal_csv, "--model", "normal",
                   "--draws-file", draws, "--outdir", earlier) == 0
    kept = {p.name: p.read_bytes() for p in earlier.iterdir()}
    assert sorted(kept) == ["manifest.json", "trace.csv"]
    assert run_cli(*args, "--outdir", earlier) == code
    assert {p.name: p.read_bytes() for p in earlier.iterdir()} == kept


@pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
def test_analyze_non_finite_threshold_exit_64(tmp_path, normal_csv, threshold, capsys):
    out = tmp_path / "run"
    assert run_cli("analyze", "--data", normal_csv, "--model", "normal",
                   f"--threshold={threshold}", "--outdir", out) == 64
    assert "threshold must be finite" in capsys.readouterr().err
    assert list(out.iterdir()) == []  # no summary.csv, trace.csv or manifest.json


_EXCHANGEABLE = ("analyze", "--model", "poisson-exchangeable", "--draws", "20")


@pytest.mark.parametrize("step", ["1000", "1e308"])
def test_chain_step_whose_proposals_overflow_exit_0(tmp_path, poisson_csv, capsys, step):
    # at step 1000 exp of an alpha0 proposal overflows, and at 1e308 its
    # log-ratio is inf - inf: the chain rejects such a proposal, with no
    # RuntimeWarning (an error in this suite) and nothing on stderr
    out = tmp_path / "run"
    assert run_cli("analyze", "--data", poisson_csv, "--model", "poisson-exchangeable",
                   "--draws", "50", "--chain-burn-in", "100", "--chain-step", step,
                   "--outdir", out) == 0
    assert capsys.readouterr().err == ""
    assert len(read_csv(out / "trace.csv")) == 51


@pytest.mark.parametrize("args", [
    ("simulate-null", "--classical", "--n", "20", "--reps", "40", "--assert-calibrated"),
    ("power", "--n", "20", "--df", "1", "--reps", "5", "--draws", "20"),
    (*_EXCHANGEABLE, "--sigma2-fixed", "nan"),
    (*_EXCHANGEABLE, "--sigma2-fixed", "0"),
    (*_EXCHANGEABLE, "--chain-step", "nan"),
    (*_EXCHANGEABLE, "--chain-step", "inf"),
    (*_EXCHANGEABLE, "--chain-step", "0"),
    (*_EXCHANGEABLE, "--chain-thin", "0"),
    (*_EXCHANGEABLE, "--chain-burn-in", "-1"),
    (*_EXCHANGEABLE, "--chain-target-accept", "1.5"),
    ("analyze", "--model", "poisson-common", "--k", "1"),
    ("pp-test", "--model", "poisson-common", "--k", "1"),
    ("monitor", "--model", "poisson-common", "--k", "1"),
], ids=lambda args: " ".join(args).replace(" ".join(_EXCHANGEABLE), "exchangeable"))
def test_bad_setting_exit_64_and_writes_nothing(tmp_path, poisson_csv, args, capsys):
    # a grouped statistic with no degrees of freedom (n 20 gives 3 cells for
    # 2 fitted parameters), a non-finite or out-of-range chain setting, and
    # fewer than 2 cells are usage errors, found before any output is written
    if args[0] not in ("simulate-null", "power"):
        args = (*args, "--data", poisson_csv)
    out = tmp_path / "run"
    assert run_cli(*args, "--outdir", out) == 64
    assert "error: " in capsys.readouterr().err
    assert list(out.iterdir()) == []


def _reference_csv(header, rows) -> bytes:
    """A file as csv.writer writes it with cli._fmt fields."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([cli._fmt(v) for v in row])
    return buf.getvalue().encode()


def test_monitor_trace_bytes_match_csv_writer(tmp_path, normal_csv, monkeypatch):
    # "0 0" parses into a draw that gives no statistic; the misfit draws then
    # latch the alert
    from bayesgof.models import NormalModel

    monkeypatch.setattr(NormalModel, "theta_from_vector",
                        lambda self, values: tuple(float(v) for v in values))
    original, records = harness.stream_monitor, []

    def recording(*args, **kwargs):
        for rec in original(*args, **kwargs):
            records.append(rec)
            yield rec

    monkeypatch.setattr(harness, "stream_monitor", recording)
    rows = posterior_rows(normal_csv, 30) + ["0 0"] * 3 + ["100.0 0.01"] * 40 + ["0 0"]
    draws = write_draw_file(tmp_path, normal_csv, "draws.txt", rows)
    out = tmp_path / "run"
    assert run_cli("monitor", "--data", normal_csv, "--model", "normal", "--draws-file", draws,
                   "--min-draws", "20", "--alert-factor", "4.0", "--outdir", out) == 3
    assert [r.valid for r in records].count(False) == 4 and records[-1].alert
    header = ["index", "value", "valid", "exceeds", "cumulative_rate", "alert"]
    assert (out / "trace.csv").read_bytes() == _reference_csv(header, (
        [r.index, r.value, r.valid, r.exceeds, r.cumulative_rate, r.alert] for r in records
    ))
    assert b",nan,false," in (out / "trace.csv").read_bytes()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["derived"] == {
        "draw_lines": 74, "malformed_lines": 0, "invalid_draws": {"DomainError": 4},
    }


def test_analyze_trace_bytes_match_csv_writer(tmp_path, poisson_csv, monkeypatch):
    original, results = harness.analyze, []

    def recording(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(harness, "analyze", recording)
    out = tmp_path / "run"
    assert run_cli("analyze", "--data", poisson_csv, "--model", "poisson-common",
                   "--draws", "300", "--seed", "8", "--outdir", out) == 0
    (result,) = results
    dof = len(result.mean_bin_counts) - 1
    assert (out / "trace.csv").read_bytes() == _reference_csv(
        ["draw", "value", "dof"], ([i, v, dof] for i, v in enumerate(result.values))
    )


def test_monitor_tolerates_some_malformed(tmp_path, normal_csv, capsys):
    out = tmp_path / "run"
    rows = posterior_rows(normal_csv, 100)
    rows[10] = "not numbers"
    rows[20] = "1.0"  # wrong arity
    draws = write_draw_file(tmp_path, normal_csv, "mixed.txt", rows)
    code = run_cli("monitor", "--data", normal_csv, "--model", "normal",
                   "--draws-file", draws, "--outdir", out)
    assert code == 0
    assert "2 malformed" in capsys.readouterr().err
    trace = read_csv(out / "trace.csv")
    assert len(trace) == 99  # skipped lines never reach the trace


def test_monitor_malformed_over_cap_exit_65(tmp_path, normal_csv):
    out = tmp_path / "run"
    rows = posterior_rows(normal_csv, 20) + ["junk"] * 10
    draws = write_draw_file(tmp_path, normal_csv, "junk.txt", rows)
    code = run_cli("monitor", "--data", normal_csv, "--model", "normal",
                   "--draws-file", draws, "--outdir", out)
    assert code == 65


def test_failed_run_leaves_the_earlier_run_byte_identical(tmp_path, normal_csv):
    # the handler writes into a staging directory, so a run that fails after
    # writing trace.csv moves nothing into the output directory
    out = tmp_path / "o"
    clean = write_draw_file(tmp_path, normal_csv, "clean.txt", posterior_rows(normal_csv, 300))
    assert run_cli("monitor", "--data", normal_csv, "--model", "normal",
                   "--draws-file", clean, "--outdir", out) == 0
    kept = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(kept) == ["manifest.json", "trace.csv"]
    assert kept["trace.csv"].count(b"\n") == 301
    junk = write_draw_file(tmp_path, normal_csv, "junk.txt",
                           posterior_rows(normal_csv, 50, seed=8) + ["junk"] * 20)
    assert run_cli("monitor", "--data", normal_csv, "--model", "normal",
                   "--draws-file", junk, "--outdir", out) == 65
    assert {p.name: p.read_bytes() for p in out.iterdir()} == kept


def test_monitor_reads_stdin(tmp_path, normal_csv, monkeypatch):
    out = tmp_path / "run"
    text = "\n".join(posterior_rows(normal_csv, 50)) + "\n"
    # a process's standard input always has a byte buffer beneath its text
    stdin = io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8")
    monkeypatch.setattr("sys.stdin", stdin)
    code = run_cli("monitor", "--data", normal_csv, "--model", "normal",
                   "--outdir", out)
    assert code == 0
    assert len(read_csv(out / "trace.csv")) == 51
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["input"] == {"path": "-", "sha256": None}


@pytest.mark.parametrize("ending", [b"\n", b"\r\n", b"\r"], ids=["LF", "CRLF", "CR"])
def test_monitor_reads_stdin_as_it_reads_a_file(tmp_path, normal_csv, monkeypatch, ending):
    # two lines that are not UTF-8 count as malformed on either path
    rows = [row.encode() for row in posterior_rows(normal_csv, 60)]
    data = ending.join([*rows, b"0.1 \xff1.0", b"\xfe\xfe", b""])
    draws = tmp_path / "draws.txt"
    draws.write_bytes(data)
    common = ("monitor", "--data", normal_csv, "--model", "normal")
    assert run_cli(*common, "--draws-file", draws, "--outdir", tmp_path / "file") == 0
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    assert run_cli(*common, "--draws-file", "-", "--outdir", tmp_path / "stdin") == 0
    trace = (tmp_path / "file" / "trace.csv").read_bytes()
    assert trace.count(b"\n") == 61
    assert (tmp_path / "stdin" / "trace.csv").read_bytes() == trace


def test_monitor_on_a_closed_stdin_exit_65(tmp_path, normal_csv, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", None)
    assert run_cli("monitor", "--data", normal_csv, "--model", "normal",
                   "--outdir", tmp_path / "run") == 65
    assert "standard input is closed" in capsys.readouterr().err


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs POSIX FIFOs")
def test_monitor_reads_a_fifo_once(tmp_path, normal_csv):
    fifo = tmp_path / "draws.fifo"
    os.mkfifo(fifo)
    data = ("\n".join(posterior_rows(normal_csv, 50)) + "\n").encode()
    done = threading.Event()

    def writer():
        with open(fifo, "wb") as fh:
            fh.write(data)
        # a run that opens the FIFO again waits for a writer that never
        # comes; open it without writing, so that such a run ends and fails
        while not done.wait(5):
            try:
                os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            except OSError:  # no reader has the FIFO open
                pass

    thread = threading.Thread(target=writer, daemon=True)
    thread.start()
    out = tmp_path / "run"
    try:
        code = run_cli("monitor", "--data", normal_csv, "--model", "normal",
                       "--draws-file", fifo, "--outdir", out)
    finally:
        done.set()
        thread.join(10)  # a writer still waiting for its reader is left behind
    assert code == 0
    assert read_csv(out / "trace.csv")[-1][0] == "49"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["input"] == {"path": str(fifo), "sha256": None}


def test_monitor_undecodable_draw_lines_count_as_malformed(
    tmp_path, normal_csv, capsys, monkeypatch
):
    rows = posterior_rows(normal_csv, 60)
    data = ("\n".join(rows) + "\n").encode()
    data += b"0.1 \xff1.0\n\xfe\xfe\n"  # two lines that are not UTF-8
    draws = tmp_path / "draws.txt"
    draws.write_bytes(data)
    out = tmp_path / "file"
    assert run_cli("monitor", "--data", normal_csv, "--model", "normal",
                   "--draws-file", draws, "--outdir", out) == 0
    assert "skipped 2 malformed draw line(s) of 62" in capsys.readouterr().err
    # the same bytes on standard input
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    assert run_cli("monitor", "--data", normal_csv, "--model", "normal",
                   "--outdir", tmp_path / "stdin") == 0
    assert "skipped 2 malformed draw line(s) of 62" in capsys.readouterr().err
    assert (tmp_path / "stdin" / "trace.csv").read_bytes() == (out / "trace.csv").read_bytes()


def test_monitor_undecodable_lines_over_cap_exit_65(tmp_path, normal_csv):
    rows = posterior_rows(normal_csv, 20)
    draws = tmp_path / "draws.txt"
    draws.write_bytes(("\n".join(rows) + "\n").encode() + b"\xff\n" * 10)
    assert run_cli("monitor", "--data", normal_csv, "--model", "normal",
                   "--draws-file", draws, "--outdir", tmp_path / "run") == 65


def test_undecodable_dataset_exit_65(tmp_path, capsys):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"y,E\n1,1.0\n2,1.5\xb5\n")
    assert run_cli("validate", "--data", path, "--outdir", tmp_path) == 65
    err = capsys.readouterr().err
    assert f"{path}: not UTF-8 text" in err and "Traceback" not in err


def test_dataset_field_over_the_csv_limit_exit_65(tmp_path, capsys):
    path = tmp_path / "wide.csv"
    path.write_text("y\n" + "1" * 200_000 + "\n")
    assert run_cli("validate", "--data", path, "--outdir", tmp_path) == 65
    assert f"{path}: not a CSV table" in capsys.readouterr().err


def test_dataset_with_a_byte_order_mark_is_read(tmp_path, capsys):
    path = tmp_path / "excel.csv"
    path.write_bytes(b"\xef\xbb\xbfy,E\r\n3,1.0\r\n5,2.0\r\n")
    assert run_cli("validate", "--data", path, "--model", "poisson-common",
                   "--outdir", tmp_path) == 0
    assert "2 rows, columns y,E" in capsys.readouterr().out
    y, e = cli.read_dataset(str(path))
    assert y.tolist() == [3.0, 5.0] and e.tolist() == [1.0, 2.0]


def test_undecodable_config_exit_65(tmp_path, normal_csv, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_bytes(b"seed = 21\n# caf\xe9\n")
    assert run_cli("analyze", "--data", normal_csv, "--model", "normal",
                   "--config", cfgfile, "--outdir", tmp_path / "run") == 65
    assert f"{cfgfile}: not UTF-8 text" in capsys.readouterr().err


def test_undecodable_manifest_exit_65(tmp_path, poisson_csv, capsys):
    first, manifest = _recorded_analyze(tmp_path, poisson_csv)
    path = tmp_path / "manifest.json"
    path.write_bytes(json.dumps(manifest).encode().replace(b'"analyze"', b'"an\xe4lyze"'))
    assert run_cli("replay", path, "--outdir", tmp_path / "second") == 65
    assert f"{path}: not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "1", "[]", "null", '"analyze"', '{"command": ["validate"]}',
    "[" * 100_000,  # deeper than the json module recurses
    '{"command": "validate", "version": "0.1.0"}',  # no config block
])
def test_replay_rejects_a_manifest_that_is_not_an_object(tmp_path, text):
    path = tmp_path / "manifest.json"
    path.write_text(text)
    assert run_cli("replay", path, "--outdir", tmp_path / "run") == 65


def test_replay_reproduces_bytes(tmp_path, poisson_csv):
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert run_cli("analyze", "--data", poisson_csv, "--model", "poisson-common",
                   "--draws", "150", "--seed", "11", "--outdir", first) == 0
    assert run_cli("replay", first / "manifest.json", "--outdir", second) == 0
    for name in ("summary.csv", "trace.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def _recorded_analyze(tmp_path, poisson_csv):
    first = tmp_path / "first"
    assert run_cli("analyze", "--data", poisson_csv, "--model", "poisson-common",
                   "--draws", "150", "--seed", "11", "--outdir", first) == 0
    return first, json.loads((first / "manifest.json").read_text())


def test_replay_fills_missing_keys_from_defaults(tmp_path, poisson_csv):
    first, manifest = _recorded_analyze(tmp_path, poisson_csv)
    assert manifest["config"].pop("threshold") is None
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    second = tmp_path / "second"
    assert run_cli("replay", path, "--outdir", second) == 0
    assert (first / "trace.csv").read_bytes() == (second / "trace.csv").read_bytes()


def test_replay_of_another_version_warns_and_reproduces_bytes(tmp_path, poisson_csv, capsys):
    first, manifest = _recorded_analyze(tmp_path, poisson_csv)
    manifest["version"] = "0.0.1"
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    second = tmp_path / "second"
    assert run_cli("replay", path, "--outdir", second) == 0
    assert "warning: manifest written by version 0.0.1" in capsys.readouterr().err
    for name in ("summary.csv", "trace.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_replay_rejects_unknown_key(tmp_path, poisson_csv, capsys):
    _, manifest = _recorded_analyze(tmp_path, poisson_csv)
    manifest["config"]["thresh_old"] = 3.0
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    assert run_cli("replay", path, "--outdir", tmp_path / "second") == 65
    assert "thresh_old" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("draws", "abc"),  # an int flag
    ("draws", 2.5),
    ("draws", True),
    ("threshold", "high"),  # a float flag
    ("model", "gamma"),  # outside the flag's choices
    ("data", 7),  # a string flag
    ("seed", None),
    ("seed", -1),  # out of range
    ("seed", 2**64),
])
def test_replay_rejects_mistyped_value(tmp_path, poisson_csv, capsys, key, value):
    _, manifest = _recorded_analyze(tmp_path, poisson_csv)
    manifest["config"][key] = value
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    assert run_cli("replay", path, "--outdir", tmp_path / "second") == 65
    assert repr(key) in capsys.readouterr().err


def test_replay_converts_recorded_values_like_flags(tmp_path, poisson_csv):
    first, manifest = _recorded_analyze(tmp_path, poisson_csv)
    manifest["config"].update(draws="150", seed=11.0)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    second = tmp_path / "second"
    assert run_cli("replay", path, "--outdir", second) == 0
    assert (first / "trace.csv").read_bytes() == (second / "trace.csv").read_bytes()


def test_replay_store_true_flag_needs_a_bool(tmp_path, capsys):
    first = tmp_path / "first"
    assert run_cli("simulate-null", "--reps", "5", "--classical", "--outdir", first) == 0
    manifest = json.loads((first / "manifest.json").read_text())
    manifest["config"]["classical"] = "true"
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    assert run_cli("replay", path, "--outdir", tmp_path / "second") == 65
    assert "'classical'" in capsys.readouterr().err


def test_replay_rejects_garbage(tmp_path):
    path = tmp_path / "not.json"
    path.write_text("{]")
    assert run_cli("replay", path) == 65


def test_config_file_provides_defaults(tmp_path, normal_csv):
    out = tmp_path / "run"
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("# comment line\nseed = 21\ndraws = 80\n")
    assert run_cli("analyze", "--data", normal_csv, "--model", "normal",
                   "--config", cfgfile, "--outdir", out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 21
    assert manifest["config"]["draws"] == 80


def test_flags_beat_config_file(tmp_path, normal_csv):
    out = tmp_path / "run"
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("seed = 21\ndraws = 80\n")
    assert run_cli("analyze", "--data", normal_csv, "--model", "normal",
                   "--config", cfgfile, "--seed", "9", "--outdir", out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 9
    assert manifest["config"]["draws"] == 80


def test_config_file_supplies_required_flags(tmp_path, normal_csv, poisson_csv):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"data = {normal_csv}\nmodel = normal\ndraws = 40\n")
    out = tmp_path / "from_file"
    assert run_cli("analyze", "--config", cfgfile, "--outdir", out) == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert (config["data"], config["model"], config["draws"]) == (str(normal_csv), "normal", 40)
    # and the bytes the same flags give on the command line
    flags = tmp_path / "from_flags"
    assert run_cli("analyze", "--data", normal_csv, "--model", "normal", "--draws", "40",
                   "--outdir", flags) == 0
    for name in ("summary.csv", "trace.csv"):
        assert (out / name).read_bytes() == (flags / name).read_bytes()
    # the command line still wins over the file, required flags included
    out = tmp_path / "overridden"
    assert run_cli("analyze", "--config", cfgfile, "--data", poisson_csv,
                   "--model", "poisson-common", "--outdir", out) == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert (config["data"], config["model"]) == (str(poisson_csv), "poisson-common")


def test_required_flag_missing_from_file_and_command_line_exit_64(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("model = normal\n")
    assert run_cli("analyze", "--config", cfgfile, "--outdir", tmp_path) == 64
    assert "the following arguments are required: --data" in capsys.readouterr().err


def test_required_flags_missing_without_a_config_file_exit_64(tmp_path, capsys):
    assert run_cli("analyze", "--outdir", tmp_path) == 64
    err = capsys.readouterr().err
    assert "the following arguments are required: --data, --model" in err
    assert "[-h] --data DATA --model" in err


def test_usage_error_beside_a_config_file_keeps_the_strict_usage(tmp_path, normal_csv, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"data = {normal_csv}\n")
    assert run_cli("analyze", "--config", cfgfile, "--model", "bogus", "--outdir", tmp_path) == 64
    err = capsys.readouterr().err
    assert "argument --model: invalid choice: 'bogus'" in err
    assert "[-h] --data DATA --model" in err  # the required flags shown as required


@pytest.mark.parametrize("form", [["--conf", "{}"], ["--config={}"]])
def test_config_flag_forms_give_the_bytes_of_config(tmp_path, normal_csv, form):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"data = {normal_csv}\nmodel = normal\ndraws = 40\n")
    spaced, other = tmp_path / "spaced", tmp_path / "other"
    assert run_cli("analyze", "--config", cfgfile, "--outdir", spaced) == 0
    assert run_cli("analyze", *[token.format(cfgfile) for token in form], "--outdir", other) == 0
    for name in ("summary.csv", "trace.csv"):
        assert (spaced / name).read_bytes() == (other / name).read_bytes()


def test_config_flag_without_a_value_exit_64_with_the_subcommand_usage(capsys):
    assert run_cli("analyze", "--config") == 64
    err = capsys.readouterr().err
    assert "usage: bayesgof analyze [-h] --data DATA --model" in err
    assert "argument --config: expected one argument" in err


def test_replay_takes_no_config_flag_exit_64(tmp_path, capsys):
    assert run_cli("replay", tmp_path / "manifest.json", "--config", tmp_path / "x") == 64
    assert "unrecognized arguments: --config" in capsys.readouterr().err


def test_help_beside_a_missing_config_file_exit_0(tmp_path, capsys):
    with pytest.raises(SystemExit) as done:
        run_cli("analyze", "--config", tmp_path / "missing.cfg", "-h")
    assert done.value.code == 0
    assert "usage: bayesgof analyze" in capsys.readouterr().out


def test_missing_config_file_is_reported_before_a_usage_error_exit_65(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    assert run_cli("analyze", "--config", missing, "--k", "abc", "--outdir", tmp_path) == 65
    err = capsys.readouterr().err
    assert err == f"error: cannot read {missing}: No such file or directory\n"


def _required_flags(parser):
    return {
        (command, a.dest): a.required
        for command, sub in cli._subcommands(parser).items() for a in sub._actions
    }


def test_the_shared_parser_parses_each_call_as_a_fresh_one(tmp_path, normal_csv, capsys):
    # main parses with one parser per process, with and without a config
    # file and after a usage error: each parse must match a fresh parser's,
    # and the parser's required flags must stay required
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"data = {normal_csv}\nmodel = normal\ndraws = 40\n")
    first = tmp_path / "first"
    calls = [
        ["analyze", "--config", str(cfgfile), "--outdir", str(first)],
        ["analyze", "--model", "bogus", "--outdir", str(tmp_path)],
        ["replay", str(first / "manifest.json"), "--outdir", str(tmp_path / "second")],
    ]
    fresh = _required_flags(cli.build_parser())
    assert [run_cli(*args) for args in calls] == [0, 64, 0]
    assert "argument --model: invalid choice: 'bogus'" in capsys.readouterr().err
    shared = cli._parser()
    assert shared is cli._parser()
    assert _required_flags(shared) == fresh
    assert {a for a, required in fresh.items() if required} == {
        ("analyze", "data"), ("analyze", "model"), ("pp-test", "data"), ("pp-test", "model"),
        ("monitor", "data"), ("monitor", "model"), ("validate", "data"),
        ("replay", "manifest"),
    }
    for args in (calls[0], calls[2]):
        assert cli._parse_command_line(shared, args) == cli._parse_command_line(
            cli.build_parser(), args
        )
    second = tmp_path / "second"
    assert (first / "summary.csv").read_bytes() == (second / "summary.csv").read_bytes()


def test_input_path_holding_a_nul_byte_exit_65(tmp_path, normal_csv, capsys):
    assert run_cli("validate", "--data", "a\0b", "--outdir", tmp_path) == 65
    assert run_cli("monitor", "--data", normal_csv, "--model", "normal",
                   "--draws-file", "c\0d", "--outdir", tmp_path) == 65
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("data = e\0f\n")
    assert run_cli("monitor", "--config", cfgfile, "--model", "normal", "--outdir", tmp_path) == 65
    first = tmp_path / "first"
    assert run_cli("validate", "--data", normal_csv, "--outdir", first) == 0
    manifest = json.loads((first / "manifest.json").read_text())
    manifest["config"]["data"] = "g\0h"
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    assert run_cli("replay", path, "--outdir", tmp_path / "second") == 65
    err = capsys.readouterr().err
    for name in ("a\0b", "c\0d", "e\0f", "g\0h"):
        assert f"error: cannot read {name}: embedded null byte" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value, flags", [
    ("true", ["--classical"]), ("yes", ["--classical"]), ("false", []), ("0", []),
])
def test_config_file_boolean_sets_the_flag(tmp_path, value, flags):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"classical = {value}\nreps = 20\nseed = 3\n")
    from_file, from_flags = tmp_path / "from_file", tmp_path / "from_flags"
    assert run_cli("simulate-null", "--config", cfgfile, "--outdir", from_file) == 0
    assert run_cli("simulate-null", *flags, "--reps", "20", "--seed", "3",
                   "--outdir", from_flags) == 0
    for name in ("qq.csv", "summary.csv"):
        assert (from_file / name).read_bytes() == (from_flags / name).read_bytes()


def test_config_file_boolean_neither_true_nor_false_exit_64(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("classical = maybe\n")
    assert run_cli("simulate-null", "--config", cfgfile, "--outdir", tmp_path / "run") == 64
    assert "boolean 'classical' must be true or false" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_config_file_unknown_key_exit_64(tmp_path, normal_csv, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("sede = 21\n")
    assert run_cli("analyze", "--data", normal_csv, "--model", "normal",
                   "--config", cfgfile, "--outdir", tmp_path) == 64
    assert "sede" in capsys.readouterr().err


def test_outdir_env_default(tmp_path, normal_csv, monkeypatch):
    env_out = tmp_path / "from_env"
    monkeypatch.setenv("BAYESGOF_OUTDIR", str(env_out))
    assert run_cli("analyze", "--data", normal_csv, "--model", "normal",
                   "--draws", "30") == 0
    assert (env_out / "summary.csv").exists()


def test_unusable_outdir_exit_64(tmp_path, normal_csv, capsys):
    afile = tmp_path / "afile"
    afile.write_text("")
    assert run_cli("validate", "--data", normal_csv, "--outdir", afile) == 64
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("outdir = a\0b\n")
    assert run_cli("validate", "--data", normal_csv, "--config", cfgfile) == 64
    err = capsys.readouterr().err
    assert f"cannot use output directory {str(afile)!r}: File exists" in err
    assert "cannot use output directory 'a\\x00b': embedded null byte" in err
    assert "Traceback" not in err


# an output path that is a directory cannot be written: a usage error naming
# the file, never a traceback, and never reported as an input error
def test_unwritable_analyze_output_exit_64(tmp_path, normal_csv, capsys):
    out = tmp_path / "o6"
    (out / "summary.csv").mkdir(parents=True)
    assert run_cli("analyze", "--data", normal_csv, "--model", "normal", "--draws", "30",
                   "--outdir", out) == 64
    err = capsys.readouterr().err
    assert f"error: cannot write {out / 'summary.csv'}: Is a directory" in err
    assert "Traceback" not in err


def test_unwritable_later_output_moves_no_earlier_one(tmp_path, normal_csv, capsys):
    # summary.csv is published before trace.csv, so a trace.csv that cannot
    # be written must be found before summary.csv is moved
    out = tmp_path / "o7"
    (out / "trace.csv").mkdir(parents=True)
    (out / "summary.csv").write_text("an earlier summary\n")
    assert run_cli("analyze", "--data", normal_csv, "--model", "normal", "--draws", "30",
                   "--outdir", out) == 64
    assert f"error: cannot write {out / 'trace.csv'}: Is a directory" in capsys.readouterr().err
    assert (out / "summary.csv").read_text() == "an earlier summary\n"
    assert sorted(p.name for p in out.iterdir()) == ["summary.csv", "trace.csv"]


def test_unwritable_monitor_output_exit_64(tmp_path, normal_csv, capsys):
    out = tmp_path / "o5"
    (out / "trace.csv").mkdir(parents=True)
    draws = tmp_path / "d.txt"
    draws.write_text("0.1 1.2\n")
    assert run_cli("monitor", "--data", normal_csv, "--model", "normal",
                   "--draws-file", draws, "--outdir", out) == 64
    err = capsys.readouterr().err
    assert f"error: cannot write {out / 'trace.csv'}: Is a directory" in err
    assert "cannot read" not in err


_ENOSPC = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class _FullDisk(io.StringIO):
    """An output file on a full disk: each write raises ENOSPC."""

    def write(self, text):
        raise _ENOSPC


class _FullOnClose(io.StringIO):
    """An output file whose buffered bytes meet a full disk when it is closed."""

    def close(self):
        if not self.closed:
            super().close()
            raise _ENOSPC


def _fail_output(monkeypatch, name, file_type):
    """Give an output file called name as a file_type; every other open()
    made by the CLI is the real one."""
    real_open = open

    def fake_open(path, mode="r", *args, **kwargs):
        if "w" in mode and os.path.basename(path) == name:
            return file_type()
        return real_open(path, mode, *args, **kwargs)

    monkeypatch.setattr(cli, "open", fake_open, raising=False)


@pytest.mark.parametrize("argv, name, file_type", [
    (["simulate-null", "--reps", "5", "--n", "20"], "qq.csv", _FullDisk),
    (["analyze", "--model", "normal", "--draws", "30"], "trace.csv", _FullDisk),
    (["monitor", "--model", "normal"], "trace.csv", _FullDisk),
    (["analyze", "--model", "normal", "--draws", "30"], "manifest.json", _FullDisk),
    (["analyze", "--model", "normal", "--draws", "30"], "trace.csv", _FullOnClose),
], ids=["csv", "analyze-trace", "monitor-trace", "manifest", "analyze-trace-close"])
def test_a_failed_write_exits_64_naming_the_file(
    tmp_path, normal_csv, capsys, monkeypatch, argv, name, file_type
):
    if argv[0] != "simulate-null":
        argv += ["--data", normal_csv]
    if argv[0] == "monitor":
        argv += ["--draws-file", write_draw_file(tmp_path, normal_csv, "d.txt", ["0.1 1.2"])]
    out = tmp_path / "out"
    out.mkdir()
    _fail_output(monkeypatch, name, file_type)
    assert run_cli(*argv, "--outdir", out) == 64
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ")
    assert err.endswith(f"{os.sep}{name}: No space left on device\n")
    assert list(out.iterdir()) == []


def test_a_draw_stream_read_error_inside_the_monitor_loop_stays_a_data_error(
    tmp_path, normal_csv, capsys, monkeypatch
):
    # the stream fails while trace.csv is open: its DataError passes through
    # the output file's error mapping unchanged
    draws = write_draw_file(tmp_path, normal_csv, "d.txt", ["0.1 1.2"])
    real_open = open

    class FailingRead(io.StringIO):
        def __iter__(self):
            yield "0.1 1.2\n"
            raise OSError(errno.EIO, os.strerror(errno.EIO))

    def fake_open(path, mode="r", *args, **kwargs):
        return FailingRead() if path == str(draws) else real_open(path, mode, *args, **kwargs)

    monkeypatch.setattr(cli, "open", fake_open, raising=False)
    out = tmp_path / "out"
    assert run_cli("monitor", "--data", normal_csv, "--model", "normal",
                   "--draws-file", draws, "--outdir", out) == 65
    assert capsys.readouterr().err == f"error: cannot read {draws}: Input/output error\n"
    assert list(out.iterdir()) == []


def test_config_value_may_begin_with_a_dash(tmp_path, normal_csv, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("outdir = -out\n")
    assert run_cli("validate", "--data", normal_csv, "--config", cfgfile) == 0
    manifest = json.loads((tmp_path / "-out" / "manifest.json").read_text())
    assert manifest["config"]["outdir"] == "-out"


def test_same_seed_same_bytes_any_workers(tmp_path, monkeypatch):
    # on four usable CPUs, 64 workers are capped at four threads
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 4)
    runs = []
    for label, workers in (("a", "1"), ("b", "2"), ("c", "4"), ("d", "64"), ("e", "1")):
        out = tmp_path / label
        assert run_cli("simulate-null", "--model", "normal", "--n", "40",
                       "--reps", "60", "--seed", "12", "--classical",
                       "--workers", workers, "--outdir", out) == 0
        runs.append([(out / name).read_bytes() for name in ("qq.csv", "summary.csv")])
    assert all(run == runs[0] for run in runs)


def test_replay_rejects_mutually_exclusive_keys(tmp_path, monkeypatch, capsys):
    first = tmp_path / "first"
    assert run_cli("simulate-null", "--reps", "5", "--outdir", first) == 0
    manifest = json.loads((first / "manifest.json").read_text())
    manifest["config"]["full_scale"] = True
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))

    def no_study(config, model, truth):
        raise AssertionError("a replicate ran")

    monkeypatch.setattr(harness, "null_calibration", no_study)
    assert run_cli("replay", path, "--outdir", tmp_path / "second") == 65
    err = capsys.readouterr().err
    assert "'reps'" in err and "'full_scale'" in err
    assert not (tmp_path / "second" / "qq.csv").exists()


def test_replay_of_a_full_scale_manifest_runs_full_scale(tmp_path, monkeypatch):
    # 10000 replicates are recorded, then cut to 5 so the test stays short
    asked = []
    study = harness.null_calibration

    def short_study(config, model, truth):
        asked.append(config.replicates)
        return study(dataclasses.replace(config, replicates=5), model, truth)

    monkeypatch.setattr(harness, "null_calibration", short_study)
    first, second = tmp_path / "first", tmp_path / "second"
    assert run_cli("simulate-null", "--full-scale", "--outdir", first) == 0
    manifest = json.loads((first / "manifest.json").read_text())
    assert manifest["config"]["full_scale"] is True
    assert run_cli("replay", first / "manifest.json", "--outdir", second) == 0
    assert asked == [10000, 10000]
    assert (first / "qq.csv").read_bytes() == (second / "qq.csv").read_bytes()


# the recorded runs, by case: one of every command that records a manifest,
# with values away from their defaults of every kind (lists, floats, ints,
# choices and a store_true flag; a mean of 12.5 keeps zero counts, which prior
# exponent 1 rejects, out of the simulated data), then every dataset model on
# analyze and monitor, the normal one on pp-test, the classical study and a
# power study with its own null run; "{name}" is one of _recorded_inputs
_RECORDED_RUNS = {
    "power": ("power", "--df", "1,3", "--methods", "auc,grouped", "--auc-critical", "0.78",
              "--reps", "4", "--n", "30", "--draws", "20", "--seed", "4"),
    "power-null-critical": ("power", "--reps", "5", "--draws", "50"),
    "simulate-null": ("simulate-null", "--model", "poisson-synthetic", "--prior-exponent", "1.0",
                      "--mean", "12.5", "--reps", "20", "--n", "30", "--assert-calibrated"),
    "simulate-null-classical-k12": ("simulate-null", "--classical", "--k", "12", "--reps", "50"),
    "simulate-null-classical-w2": ("simulate-null", "--classical", "--workers", "2",
                                   "--reps", "50"),
    "analyze": ("analyze", "--data", "{counts}", "--model", "poisson-common", "--draws", "50",
                "--threshold", "2.5", "--k", "4", "--seed", "3"),
    "analyze-normal": ("analyze", "--data", "{normal}", "--model", "normal", "--draws", "200",
                       "--seed", "4"),
    "analyze-saturated": ("analyze", "--data", "{counts}", "--model", "poisson-saturated",
                          "--draws", "200", "--seed", "4"),
    "analyze-exchangeable": ("analyze", "--data", "{counts}", "--model", "poisson-exchangeable",
                             "--draws", "50", "--chain-burn-in", "100"),
    "pp-test": ("pp-test", "--data", "{counts}", "--model", "poisson-common",
                "--pp-reps", "3", "--draws", "40", "--seed", "5"),
    "pp-test-normal": ("pp-test", "--data", "{normal}", "--model", "normal",
                       "--pp-reps", "5", "--draws", "50", "--seed", "4"),
    "monitor": ("monitor", "--data", "{counts}", "--model", "poisson-common",
                "--draws-file", "{rates}", "--min-draws", "5", "--alert-factor", "2.5"),
    "monitor-normal": ("monitor", "--data", "{normal}", "--model", "normal",
                       "--draws-file", "{normal_draws}"),
    "monitor-saturated": ("monitor", "--data", "{counts}", "--model", "poisson-saturated",
                          "--draws-file", "{means}"),
    "monitor-exchangeable": ("monitor", "--data", "{counts}", "--model", "poisson-exchangeable",
                             "--draws-file", "{effects}"),
    "validate": ("validate", "--data", "{counts}", "--model", "poisson-common",
                 "--prior-exponent", "1.0"),
}


# each recording command's outputs, and the flag naming the one input file its
# manifest hashes (the studies read none)
_RECORDS = {
    "simulate-null": (["qq.csv", "summary.csv"], None),
    "power": (["power.csv"], None),
    "analyze": (["summary.csv", "trace.csv"], "--data"),
    "pp-test": (["predictive.csv", "summary.csv"], "--data"),
    "monitor": (["trace.csv"], "--draws-file"),
    "validate": ([], "--data"),
}


def _recorded_inputs(tmp_path, poisson_csv, normal_csv) -> dict:
    """The input files of the recorded runs, by name: the two datasets, and
    draw lines of each layout for the 30 counts (30 rates; 40 lines of means,
    and of alpha0, effects and sigma2) and for the normal data (40 lines)."""
    gen = RngStream(8).generator
    rows = {
        "rates": [repr(4.0 + 0.05 * i) for i in range(30)],
        "means": [" ".join(map(repr, row)) for row in gen.gamma(100.0, 0.05, (40, 30)).tolist()],
        "effects": [" ".join(map(repr, [math.log(5.0), *row, 0.01]))
                    for row in gen.normal(0.0, 0.1, (40, 30)).tolist()],
        "normal_draws": posterior_rows(normal_csv, 40),
    }
    files = {name: write_draw_file(tmp_path, normal_csv, f"{name}.txt", lines)
             for name, lines in rows.items()}
    return {"counts": poisson_csv, "normal": normal_csv, **files}


def _checked_manifest(out, command, input_path) -> dict:
    """out/manifest.json, checked against its run: the command, the outputs
    (the command's, and every other file in out) and the one input."""
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == command
    found = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
    assert manifest["outputs"] == _RECORDS[command][0] == found
    assert (manifest["input"] and manifest["input"]["path"]) == input_path
    return manifest


@pytest.mark.parametrize("case", sorted(_RECORDED_RUNS))
def test_replay_round_trip_of_every_recording_command(
    tmp_path, poisson_csv, normal_csv, monkeypatch, case
):
    # output directories beginning with '-' must stay values on every route
    monkeypatch.chdir(tmp_path)
    inputs = _recorded_inputs(tmp_path, poisson_csv, normal_csv)
    args = [a.format(**inputs) for a in _RECORDED_RUNS[case]]
    command = args[0]
    code = run_cli(*args, "--outdir=-first")
    assert code in (0, 2, 3)
    first = tmp_path / "-first"
    flag = _RECORDS[command][1]
    input_path = args[args.index(flag) + 1] if flag else None
    manifest = _checked_manifest(first, command, input_path)
    outputs = {name: (first / name).read_bytes() for name in manifest["outputs"]}
    assert run_cli("replay", first / "manifest.json", "--outdir=-second") == code
    assert run_cli("replay", first / "manifest.json") == code  # into -first again
    for out in (tmp_path / "-second", first):
        replayed = _checked_manifest(out, command, input_path)
        assert replayed["config"] == dict(manifest["config"], outdir=out.name)
        assert replayed["outputs"] == manifest["outputs"]
        for name, data in outputs.items():
            assert (out / name).read_bytes() == data, name


# every subcommand's parsed defaults, required flags aside; the manifest
# records them, so a change of value or of type (8 for 8.0) changes its bytes
PARSED_DEFAULTS = {
    "simulate-null": {
        "command": "simulate-null", "model": "normal", "n": 50, "k": None, "reps": 2000,
        "full_scale": False, "workers": 1, "classical": False, "assert_calibrated": False,
        "ks_alpha": 0.01, "mean": 4.2, "prior_exponent": 0.5, "seed": 0, "outdir": None,
        "config": None,
    },
    "power": {
        "command": "power", "df": (1.0, 2.0, 3.0, 5.0, 10.0),
        "methods": ("auc", "single-draw", "grouped"), "n": 50, "k": None, "reps": 1000,
        "full_scale": False, "workers": 1, "draws": 500, "alpha": 0.05,
        "auc_critical": None, "seed": 0, "outdir": None, "config": None,
    },
    "analyze": {
        "command": "analyze", "data": "d.csv", "model": "normal", "prior_exponent": 0.5,
        "sigma2_fixed": None, "chain_burn_in": 2000, "chain_thin": 4, "chain_step": 0.2,
        "chain_target_accept": 0.44, "k": None, "draws": 5000, "threshold": None,
        "seed": 0, "outdir": None, "config": None,
    },
    "pp-test": {
        "command": "pp-test", "data": "d.csv", "model": "normal", "prior_exponent": 0.5,
        "sigma2_fixed": None, "chain_burn_in": 2000, "chain_thin": 4, "chain_step": 0.2,
        "chain_target_accept": 0.44, "k": None, "pp_reps": 100, "draws": 1000,
        "seed": 0, "outdir": None, "config": None,
    },
    "monitor": {
        "command": "monitor", "data": "d.csv", "model": "normal", "prior_exponent": 0.5,
        "sigma2_fixed": None, "chain_burn_in": 2000, "chain_thin": 4, "chain_step": 0.2,
        "chain_target_accept": 0.44, "k": None, "draws_file": "-", "threshold": None,
        "alert_factor": 8.0, "min_draws": 200, "seed": 0, "outdir": None, "config": None,
    },
    "validate": {
        "command": "validate", "data": "d.csv", "model": None, "prior_exponent": 0.5,
        "sigma2_fixed": None, "chain_burn_in": 2000, "chain_thin": 4, "chain_step": 0.2,
        "chain_target_accept": 0.44, "seed": 0, "outdir": None, "config": None,
    },
    "replay": {"command": "replay", "manifest": "m.json", "outdir": None},
}


def test_parsed_defaults_are_the_recorded_ones():
    parser = cli.build_parser()
    dataset = ["--data", "d.csv", "--model", "normal"]
    required = {
        "simulate-null": [], "power": [], "analyze": dataset, "pp-test": dataset,
        "monitor": dataset, "validate": ["--data", "d.csv"], "replay": ["m.json"],
    }
    parsed = {command: vars(parser.parse_args([command, *args]))
              for command, args in required.items()}
    assert parsed == PARSED_DEFAULTS
    assert json.dumps(parsed, sort_keys=True) == json.dumps(PARSED_DEFAULTS, sort_keys=True)

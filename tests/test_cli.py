"""End-to-end command-line behavior: exit codes, file schemas, config
precedence, and manifest replay."""

import csv
import dataclasses
import io
import json
import os

import numpy as np
import pytest

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


def test_usage_errors_exit_64(tmp_path, capsys):
    assert run_cli("no-such-command") == 64
    assert run_cli("simulate-null", "--bogus-flag") == 64
    assert run_cli("power", "--df", "0..3", "--outdir", tmp_path) == 64
    assert run_cli("power", "--reps", "5", "--full-scale", "--outdir", tmp_path) == 64
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


def test_missing_offset_column_named(tmp_path, normal_csv, capsys):
    code = run_cli("analyze", "--data", normal_csv, "--model", "poisson-common",
                   "--outdir", tmp_path)
    assert code == 65
    err = capsys.readouterr().err
    assert "E" in err and "poisson-common" in err


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
    assert run_cli(*common, "--model", "poisson-synthetic", "--mean", "-1",
                   "--outdir", tmp_path / "c") == 64
    assert "--mean must be positive" in capsys.readouterr().err
    assert run_cli(*common, "--model", "poisson-synthetic", "--mean", "nan",
                   "--outdir", tmp_path / "d") == 65


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
    draws = write_draw_file(tmp_path, normal_csv, "draws.txt",
                            posterior_rows(normal_csv, 400))
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
    model = PoissonExchangeable(np.ones(y.size))
    draws = model.run_chain(y, RngStream(9), ChainSettings(retained=60, burn_in=40, thin=1)).draws
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
    dof = result.summary.k - 1
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


def test_monitor_reads_stdin(tmp_path, normal_csv, monkeypatch):
    out = tmp_path / "run"
    text = "\n".join(posterior_rows(normal_csv, 50)) + "\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code = run_cli("monitor", "--data", normal_csv, "--model", "normal",
                   "--outdir", out)
    assert code == 0
    assert len(read_csv(out / "trace.csv")) == 51
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["input"] == {"path": "-", "sha256": None}


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


def test_config_value_may_begin_with_a_dash(tmp_path, normal_csv, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("outdir = -out\n")
    assert run_cli("validate", "--data", normal_csv, "--config", cfgfile) == 0
    manifest = json.loads((tmp_path / "-out" / "manifest.json").read_text())
    assert manifest["config"]["outdir"] == "-out"


def test_same_seed_same_bytes_any_workers(tmp_path):
    runs = []
    for name, workers in (("a", "1"), ("b", "4"), ("c", "1")):
        out = tmp_path / name
        assert run_cli("simulate-null", "--model", "normal", "--n", "40",
                       "--reps", "60", "--seed", "12", "--classical",
                       "--workers", workers, "--outdir", out) == 0
        runs.append((out / "qq.csv").read_bytes())
    assert runs[0] == runs[1] == runs[2]


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


# one run of every command that records a manifest, with values away from
# their defaults of every kind: lists, floats, ints, choices and a store_true
# flag (a mean of 12.5 keeps zero counts, which prior exponent 1 rejects,
# out of the simulated data); "{counts}" and "{rates}" name the input files
_RECORDED_RUNS = {
    "power": ("power", "--df", "1,3", "--methods", "auc,grouped", "--auc-critical", "0.78",
              "--reps", "4", "--n", "30", "--draws", "20", "--seed", "4"),
    "simulate-null": ("simulate-null", "--model", "poisson-synthetic", "--prior-exponent", "1.0",
                      "--mean", "12.5", "--reps", "20", "--n", "30", "--assert-calibrated"),
    "analyze": ("analyze", "--data", "{counts}", "--model", "poisson-common", "--draws", "50",
                "--threshold", "2.5", "--k", "4", "--seed", "3"),
    "pp-test": ("pp-test", "--data", "{counts}", "--model", "poisson-common",
                "--pp-reps", "3", "--draws", "40", "--seed", "5"),
    "monitor": ("monitor", "--data", "{counts}", "--model", "poisson-common",
                "--draws-file", "{rates}", "--min-draws", "5", "--alert-factor", "2.5"),
    "validate": ("validate", "--data", "{counts}", "--model", "poisson-common",
                 "--prior-exponent", "1.0"),
}


@pytest.mark.parametrize("command", sorted(_RECORDED_RUNS))
def test_replay_round_trip_of_every_recording_command(
    tmp_path, poisson_csv, monkeypatch, command
):
    # output directories beginning with '-' must stay values on every route
    monkeypatch.chdir(tmp_path)
    rates = tmp_path / "rates.txt"
    rates.write_text("".join(f"{4.0 + 0.05 * i!r}\n" for i in range(30)))
    args = [a.format(counts=poisson_csv, rates=rates) for a in _RECORDED_RUNS[command]]
    code = run_cli(*args, "--outdir=-first")
    assert code in (0, 2, 3)
    first = tmp_path / "-first"
    manifest = json.loads((first / "manifest.json").read_text())
    outputs = {name: (first / name).read_bytes() for name in manifest["outputs"]}
    assert run_cli("replay", first / "manifest.json", "--outdir=-second") == code
    assert run_cli("replay", first / "manifest.json") == code  # into -first again
    for out in (tmp_path / "-second", first):
        replayed = json.loads((out / "manifest.json").read_text())
        assert replayed["config"] == dict(manifest["config"], outdir=out.name)
        for name, data in outputs.items():
            assert (out / name).read_bytes() == data, name

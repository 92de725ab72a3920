"""Command-line front end: data ingestion, configuration, dispatch, results.

Subcommands map one-to-one onto harness entry points.  A handler computes
its result and writes its own output files; one run lifecycle around every
handler, replay's included, makes --outdir, times the run and, after the last
output, writes manifest.json: the fully resolved configuration, the seed, the
tool version, the output names and a digest of the one input file (the
dataset, or the draw stream for monitor).  The handler writes into a fresh
temporary directory inside --outdir, and its files are renamed into place,
the manifest last, only once it has returned: a run that fails moves no file
into --outdir, so an earlier run's outputs and manifest stay as they were.
`bayesgof replay manifest.json` re-executes the run and reproduces the
output files byte for byte.

simulate-null builds its model and the null truth from one table,
_NULL_MODELS, as the dataset subcommands build theirs from _DATA_MODELS; a
model joins either through one entry there.  A default the library also
holds (ExperimentConfig's, ChainSettings', the keyword defaults of
harness.analyze, predictive_auc_test and stream_monitor, and the saturated
model's prior exponents) is read from it, never written here a second time.

A --config file or manifest becomes --flag=value tokens for the subcommand's
own parser; a config file may set required flags, and a manifest key it
lacks takes the flag's default.

Exit codes: 0 success, 2 calibration assertion failed, 3 monitor alert,
64 usage error, unusable output directory or file, or a setting too large
for memory, 65 data error (a recorded value the flag rejects too), 70
numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import errno
import hashlib
import io
import json
import os
import re
import shutil
import sys
import tempfile
import time
from contextlib import contextmanager
from datetime import datetime, timezone
from functools import cache

import numpy as np

from . import __version__, harness, models
from .binning import default_bin_count, equiprobable
from .errors import (
    ConfigError,
    DataError,
    DomainError,
    EvaluationError,
    OptimizationError,
)
from .harness import ExperimentConfig
from .probkit import MAX_SEED, RngStream

EXIT_OK = 0
EXIT_CALIBRATION = 2
EXIT_ALERT = 3
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_NUMERIC = 70

MALFORMED_CAP = 0.10

STANDARD_NORMAL = (0.0, 1.0)  # true (mu, sigma) of the normal model's null data

# the library's defaults, read at import, before a wrapper put around one of
# these functions (as a tracer does) can hide its keyword defaults
_STUDY = ExperimentConfig()
_CHAIN = models.ChainSettings()
_ANALYZE = harness.analyze.__kwdefaults__
_PP_TEST = harness.predictive_auc_test.__kwdefaults__
_MONITOR = harness.stream_monitor.__kwdefaults__

DATASET_SCHEMA = """\
Dataset files are headered CSV with column y (observations) and, for count
models with known exposures, column E (positive offsets).  No other columns
are allowed.  Poisson models require non-negative integer y and the E column.
"""

CONFIG_HELP = """\
--config FILE reads flat key=value lines mirroring long flag names
(hyphen or underscore), required flags included.  A '#' at the start of a
line or after whitespace begins a comment; one inside a value, as in a
path, is kept.  Precedence: command-line flags > config file > built-in
defaults.  Boolean flags take true/false.
"""

EXIT_HELP = """\
Exit codes: 0 ok; 2 calibration assertion failed (--assert-calibrated);
3 monitor alert; 64 usage error, unusable output or a setting too large
for memory; 65 data error; 70 numerical failure.
Environment: BAYESGOF_OUTDIR sets the default output directory.
"""


WORKERS_HELP = (
    "worker processes (default 1); outputs are byte-identical for any count. "
    "The replicates are cut into min(workers, usable CPUs, replicates // "
    f"{harness.MIN_REPS_PER_PROCESS}) contiguous blocks, one per forked "
    "process; when that is under 2, or the platform cannot fork, they run inline"
)

THRESHOLD_HELP = f"exceedance threshold (default: {1.0 - _STUDY.alpha:g} reference quantile)"


class _UsageError(Exception):
    def __init__(self, message: str, usage: str) -> None:
        super().__init__(message)
        self.usage = usage


class _Parser(argparse.ArgumentParser):
    """argparse with the BSD-style usage exit code instead of 2, and one help
    layout: text as written, every epilog ending in the exit codes."""

    def __init__(self, *, epilog: str = "", **kwargs) -> None:
        kwargs["formatter_class"] = argparse.RawDescriptionHelpFormatter
        super().__init__(epilog=epilog + EXIT_HELP, **kwargs)

    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message, self.format_usage())


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    # 17 significant digits: lossless round trip for 64-bit floats
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if value is None:
        return ""
    return str(value)


@contextmanager
def _open_output(path: str):
    """open() for writing, as a context manager.  An OSError while the file
    is created, written or closed, as for a path that is a directory or on a
    full disk, is a ConfigError naming the file.  The bodies do no other I/O
    that raises one (a draw stream's read errors are DataErrors), and any
    other exception passes through unchanged."""
    try:
        with open(path, "w", newline="") as fh:
            yield fh
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None


def _write_csv(outdir: str, name: str, header: list[str], rows) -> None:
    with _open_output(os.path.join(outdir, name)) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _digest(path: str) -> str | None:
    """The sha256 of a regular file; None for standard input ('-') and for
    a pipe, FIFO or device, whose bytes the run has read and cannot read
    again."""
    if path == "-" or not os.path.isfile(path):
        return None
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _input_path(config: dict) -> str | None:
    """The one input a run hashes: its draw stream if it reads one, else its
    dataset; None for a study, which reads neither."""
    return config.get("draws_file", config.get("data"))


def _write_manifest(
    outdir: str, ns: argparse.Namespace, outputs: list[str], started: float, derived: dict
) -> None:
    config = {k: v for k, v in vars(ns).items() if k not in ("command", "config")}
    input_path = _input_path(config)
    entry = None
    if input_path is not None:
        entry = {"path": input_path, "sha256": _digest(input_path)}
    manifest = {
        "tool": "bayesgof",
        "version": __version__,
        "command": ns.command,
        "config": config,
        "input": entry,
        "outputs": outputs,
        "timings": {"total_s": time.perf_counter() - started},
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    if derived:
        manifest["derived"] = derived
    with _open_output(os.path.join(outdir, "manifest.json")) as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _grouped_fit(iterations: np.ndarray) -> dict:
    """Manifest entry for a study's grouped fits: how many, and their total
    and largest Fisher-scoring step counts."""
    return {
        "fits": int(iterations.size),
        "iterations_total": int(iterations.sum()),
        "iterations_max": int(iterations.max()),
    }


def _staging_dir(outdir: str) -> str:
    """A fresh temporary directory inside outdir, which is made if need be;
    an unusable outdir is a ConfigError naming it."""
    try:
        os.makedirs(outdir, exist_ok=True)
        return tempfile.mkdtemp(prefix=".bayesgof-run-", dir=outdir)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"cannot use output directory {outdir!r}: {reason}") from None


def _publish(staging: str, outdir: str, names: list[str]) -> None:
    """Rename each named file of staging into outdir, in order.  A target
    that is a directory is a ConfigError naming it, raised before any file
    is moved."""
    targets = [os.path.join(outdir, name) for name in names]
    for target in targets:
        if os.path.isdir(target):
            raise ConfigError(f"cannot write {target}: {os.strerror(errno.EISDIR)}")
    for name, target in zip(names, targets):
        try:
            os.replace(os.path.join(staging, name), target)
        except OSError as exc:
            raise ConfigError(f"cannot write {target}: {exc.strerror or exc}") from None


# ---------------------------------------------------------------------------
# dataset ingestion
# ---------------------------------------------------------------------------

def _unreadable(path: str, exc: OSError | ValueError) -> DataError:
    """The error for an input file that cannot be opened or read."""
    return DataError(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}")


# the one reading rule of every input, the dataset, a config file, a manifest
# and a draw stream alike: UTF-8 with LF, CRLF or CR-only line endings, each
# read as "\n", and a leading byte-order mark, as spreadsheets write, skipped
_ENCODING = "utf-8-sig"


def _open_text(path: str, errors: str):
    """The file at path as text by the reading rule; errors says what becomes
    of bytes that are not UTF-8.  A path that cannot be opened, one holding a
    NUL byte included, is a DataError naming it."""
    try:
        return open(path, encoding=_ENCODING, errors=errors)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise _unreadable(path, exc) from None


def _open_input(path: str):
    """A draw stream as text: the file at path, or standard input for '-',
    both decoded by the reading rule, with bytes that are not UTF-8 replaced
    by U+FFFD, so that their line counts as malformed."""
    if path == "-":
        if sys.stdin is None:  # the process was started with it closed
            raise DataError("cannot read -: standard input is closed")
        return io.TextIOWrapper(sys.stdin.buffer, encoding=_ENCODING, errors="replace")
    return _open_text(path, "replace")


def _read_lines(path: str, fh):
    """The lines of fh; an error reading them is a DataError naming path."""
    try:
        yield from fh
    except OSError as exc:
        raise _unreadable(path, exc) from exc


def _read_text(path: str) -> str:
    """The whole text of an input file by the reading rule; a file that
    cannot be opened or read, or that holds bytes that are not UTF-8, is a
    DataError naming it (and the bytes)."""
    try:
        with _open_text(path, "strict") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:  # a ValueError, so caught first
        bad = exc.object[exc.start:exc.end]
        raise DataError(f"{path}: not UTF-8 text (bytes {bad.hex()}: {exc.reason})") from None
    except OSError as exc:
        raise _unreadable(path, exc) from None


def read_dataset(path: str) -> tuple[np.ndarray, np.ndarray | None]:
    """Parse a headered CSV with column y and optional positive-offset column
    E, read by the reading rule."""
    text = _read_text(path)
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader, None)
        rows = [r for r in reader if any(cell.strip() for cell in r)]
    except csv.Error as exc:
        raise DataError(f"{path}: not a CSV table ({exc})") from None
    if header is None:
        raise DataError(f"{path}: empty file")
    cols = [c.strip().lower() for c in header]
    if cols not in (["y"], ["y", "e"]):
        raise DataError(f"{path}: header must be 'y' or 'y,E', got {','.join(header)}")
    if not rows:
        raise DataError(f"{path}: no data rows")
    y = np.empty(len(rows))
    e = np.empty(len(rows)) if len(cols) == 2 else None
    for i, row in enumerate(rows):
        if len(row) != len(cols):
            raise DataError(f"{path}: row {i + 2} has {len(row)} fields, expected {len(cols)}")
        try:
            y[i] = float(row[0])
            if e is not None:
                e[i] = float(row[1])
        except ValueError:
            raise DataError(f"{path}: row {i + 2} is not numeric") from None
    if not np.all(np.isfinite(y)):
        raise DataError(f"{path}: column y contains non-finite values")
    if e is not None and (not np.all(np.isfinite(e)) or np.any(e <= 0.0)):
        raise DataError(f"{path}: column E must be finite and positive")
    return y, e


def _exchangeable(ns: argparse.Namespace, offsets: np.ndarray) -> models.PoissonExchangeable:
    settings = models.ChainSettings(
        burn_in=ns.chain_burn_in, thin=ns.chain_thin,
        target_accept=ns.chain_target_accept, initial_step=ns.chain_step,
    )
    return models.PoissonExchangeable(offsets, sigma2_fixed=ns.sigma2_fixed, settings=settings)


# the dataset models, by --model name: whether the model needs the offsets of
# the E column, the layout of a monitor draw line, and its builder from the
# flags and the offsets e
_DATA_MODELS = {
    "normal": (False, "location scale", lambda ns, e: models.NormalModel()),
    "poisson-common": (True, "rate", lambda ns, e: models.PoissonCommonRate(e)),
    "poisson-saturated": (True, "one mean per observation",
                          lambda ns, e: models.PoissonSaturated(e, ns.prior_exponent)),
    "poisson-exchangeable": (True, "alpha0, effects..., sigma2", _exchangeable),
}


def _poisson_synthetic(ns: argparse.Namespace, n: int):
    """One free mean per observation, all at --mean."""
    if not 0.0 < ns.mean < np.inf:  # NaN fails too
        raise ConfigError(f"--mean must be positive and finite, got {ns.mean}")
    if ns.mean > 2.0**52:  # 2**26 standard deviations below 2**53
        raise ConfigError(
            f"--mean must be at most 2**52, so that its Poisson counts stay below "
            f"2**53 and are held exactly; got {ns.mean}"
        )
    model = models.PoissonSaturated(np.ones(n), ns.prior_exponent)
    return model, ns.mean * model.offsets


# the simulated-data models, by --model name: each builds the model and its
# true parameter from the flags and the observations per dataset
_NULL_MODELS = {
    "normal": lambda ns, n: (models.NormalModel(), STANDARD_NORMAL),
    "poisson-synthetic": _poisson_synthetic,
}


def _build_model(ns: argparse.Namespace, offsets: np.ndarray | None):
    needs_offsets, _, build = _DATA_MODELS[ns.model]
    if needs_offsets and offsets is None:
        raise DataError(
            f"dataset is missing the offset column 'E' required by model {ns.model}"
        )
    return build(ns, offsets)


# ---------------------------------------------------------------------------
# flag value parsers
# ---------------------------------------------------------------------------

def _parse_df_list(text: str) -> tuple[float, ...]:
    out: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if ".." in part:
            lo_s, hi_s = part.split("..", 1)
            try:
                lo, hi = int(lo_s), int(hi_s)
            except ValueError:
                raise argparse.ArgumentTypeError(f"bad df range {part!r}") from None
            if lo > hi:
                raise argparse.ArgumentTypeError(f"empty df range {part!r}")
            # a range out of 1..10 is not expanded: its ends fail the check
            out.extend(range(lo, hi + 1) if 1 <= lo and hi <= 10 else (lo, hi))
        else:
            try:
                out.append(int(part))
            except ValueError:
                raise argparse.ArgumentTypeError(f"bad df value {part!r}") from None
    if any(d < 1 or d > 10 for d in out):
        raise argparse.ArgumentTypeError("df values must lie in 1..10")
    return tuple(float(d) for d in out)


def _parse_seed(text: str) -> int:
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if not 0 <= seed < MAX_SEED:
        raise argparse.ArgumentTypeError(f"seed must be in [0, 2**64), got {seed}")
    return seed


def _parse_methods(text: str) -> tuple[str, ...]:
    methods = tuple(m.strip() for m in text.split(",") if m.strip())
    bad = [m for m in methods if m not in harness.POWER_METHODS]
    if bad or not methods:
        raise argparse.ArgumentTypeError(
            f"methods must be among {','.join(harness.POWER_METHODS)}"
        )
    return methods


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

# a handler's (exit code, manifest "derived" block)
_Outcome = tuple[int, dict]


def _run(ns: argparse.Namespace) -> int:
    """The one run lifecycle: make the output directory, run the handler in a
    staging directory inside it, write manifest.json there, listing the files
    the handler wrote in name order, and, once both are done, whatever the
    exit code, rename the outputs into place, the manifest last.  A handler
    that raises moves no file into the output directory; the staging
    directory is removed either way."""
    started = time.perf_counter()
    if ns.outdir is None:  # recorded in the manifest as resolved here
        ns.outdir = os.environ.get("BAYESGOF_OUTDIR", ".")
    staging = _staging_dir(ns.outdir)
    try:
        code, derived = _COMMANDS[ns.command](ns, staging)
        outputs = sorted(os.listdir(staging))
        _write_manifest(staging, ns, outputs, started, derived)
        _publish(staging, ns.outdir, [*outputs, "manifest.json"])
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return code


def _study_config(ns: argparse.Namespace, **fields) -> ExperimentConfig:
    """ExperimentConfig of a study from _add_study_flags' flags and fields."""
    return ExperimentConfig(
        n=ns.n, bins=ns.k, replicates=10000 if ns.full_scale else ns.reps,
        seed=ns.seed, workers=ns.workers, **fields,
    )


def cmd_simulate_null(ns: argparse.Namespace, outdir: str) -> _Outcome:
    cfg = _study_config(ns, ks_alpha=ns.ks_alpha, include_classical=ns.classical)
    model, truth = _NULL_MODELS[ns.model](ns, cfg.n)
    result = harness.null_calibration(cfg, model, truth)

    # a series gets a reference column iff it has a chi-square reference law
    # (the plugin statistic has none); the KS entry may still be skipped for
    # runs too small for the asymptotic test
    header, columns = ["rank"], [range(1, cfg.replicates + 1)]
    for name, series in result.series.items():
        header.append(name)
        columns.append(series.values)
        if series.ref_quantiles is not None:
            header.append(f"{name}_ref")
            columns.append(series.ref_quantiles)
    _write_csv(outdir, "qq.csv", header, zip(*columns))

    summary_header = [
        "series", "replicates", "n", "k", "mean", "variance",
        "ks_statistic", "ks_critical", "ks_alpha", "ks_passed",
    ]
    summary_rows = []
    for name, s in result.series.items():
        ks = s.ks
        summary_rows.append([
            name, cfg.replicates, cfg.n, cfg.k, s.mean, s.variance,
            ks.statistic if ks else None, ks.critical if ks else None,
            cfg.ks_alpha if ks else None, ks.passed if ks else None,
        ])
    _write_csv(outdir, "summary.csv", summary_header, summary_rows)
    derived = {"runtime_s": result.runtime_s}
    if result.grouped_iterations is not None:
        derived["grouped_fit"] = _grouped_fit(result.grouped_iterations)

    failed = [n for n, s in result.series.items() if s.ks and not s.ks.passed]
    if ns.assert_calibrated and failed:
        print(f"calibration failed: {', '.join(failed)}", file=sys.stderr)
        return EXIT_CALIBRATION, derived
    return EXIT_OK, derived


def cmd_power(ns: argparse.Namespace, outdir: str) -> _Outcome:
    cfg = _study_config(
        ns, draws_per_dataset=ns.draws, alpha=ns.alpha,
        df_grid=tuple(ns.df), methods=tuple(ns.methods),
    )
    # the normal null model, whose alternatives are the t data
    result = harness.power_study(cfg, ns.auc_critical, *_NULL_MODELS["normal"](ns, cfg.n))
    rows = [[row.df, row.method, row.rejections, cfg.replicates, row.rate] for row in result.rows]
    _write_csv(outdir, "power.csv", ["df", "method", "rejections", "replicates", "rate"], rows)
    derived = {"auc_critical": result.auc_critical}
    if result.grouped_iterations is not None:
        derived["grouped_fit"] = _grouped_fit(result.grouped_iterations)
    return EXIT_OK, derived


def _load_fit(ns: argparse.Namespace):
    """Dataset, model and equiprobable cells of a dataset subcommand."""
    if ns.k is not None and ns.k < 2:
        raise ConfigError(f"--k must be at least 2, got {ns.k}")
    y, offsets = read_dataset(ns.data)
    model = _build_model(ns, offsets)
    k = ns.k if ns.k is not None else default_bin_count(y.size)
    return y, model, equiprobable(k)


def cmd_analyze(ns: argparse.Namespace, outdir: str) -> _Outcome:
    y, model, scheme = _load_fit(ns)
    result = harness.analyze(
        y, model, RngStream(ns.seed),
        n_draws=ns.draws, scheme=scheme, threshold=ns.threshold,
    )
    k = scheme.k
    header = ["model", "auc", "exceedance", "threshold", "n_draws", "k", "small_cells"]
    header += [f"mean_count_bin{i + 1}" for i in range(k)]
    row: list = [
        ns.model, result.auc, result.exceedance_rate, result.threshold, result.values.size, k,
        ";".join(str(i + 1) for i in result.small_cells),
    ]
    row += list(result.mean_bin_counts)
    _write_csv(outdir, "summary.csv", header, [row])
    # the fields _write_csv would give (no field can need CSV quoting)
    dof = k - 1
    with _open_output(os.path.join(outdir, "trace.csv")) as fh:
        fh.write("draw,value,dof\n")
        fh.writelines(f"{i},{v:.17g},{dof}\n" for i, v in enumerate(result.values.tolist()))
    return EXIT_OK, {}


def cmd_pp_test(ns: argparse.Namespace, outdir: str) -> _Outcome:
    y, model, scheme = _load_fit(ns)
    result = harness.predictive_auc_test(
        y, model, RngStream(ns.seed),
        pp_reps=ns.pp_reps, n_draws=ns.draws, scheme=scheme,
    )
    _write_csv(
        outdir, "summary.csv", ["auc_observed", "pp_reps", "p_value"],
        [[result.auc_observed, ns.pp_reps, result.p_value]],
    )
    _write_csv(
        outdir, "predictive.csv", ["replicate", "auc"],
        ([i, a] for i, a in enumerate(result.predictive_aucs)),
    )
    return EXIT_OK, {}


def cmd_monitor(ns: argparse.Namespace, outdir: str) -> _Outcome:
    y, model, scheme = _load_fit(ns)

    counters = {"total": 0, "malformed": 0}
    invalid: dict[str, int] = {}  # draws that gave no statistic, by exception name

    def parse_stream(lines):
        for line in lines:
            text = line.strip()
            if not text:
                continue
            counters["total"] += 1
            try:
                # DomainError, raised for a wrong length or an invalid value,
                # is a ValueError like a token that is not a number
                theta = model.theta_from_vector([float(t) for t in text.split()])
            except ValueError:
                counters["malformed"] += 1
                continue
            yield theta

    alerted = False
    with _open_input(ns.draws_file) as lines:
        # stream_monitor checks the settings and the data here, before trace.csv is opened
        records = harness.stream_monitor(
            parse_stream(_read_lines(ns.draws_file, lines)), y, model, scheme,
            RngStream(ns.seed),
            threshold=ns.threshold, alert_factor=ns.alert_factor,
            min_draws=ns.min_draws,
        )
        # one preformatted line per record, with the fields _write_csv would
        # give: ints, .17g floats (nan for an invalid draw) and true/false,
        # none of which can need CSV quoting.  An overflow ends in a CDF limit
        # or a refused mean; stream_monitor leaves the errstate to its caller.
        flag = ("false", "true")
        with _open_output(os.path.join(outdir, "trace.csv")) as fh, np.errstate(over="ignore"):
            fh.write("index,value,valid,exceeds,cumulative_rate,alert\n")
            for rec in records:
                fh.write(
                    f"{rec.index},{rec.value:.17g},{flag[rec.valid]},"
                    f"{flag[rec.exceeds]},{rec.cumulative_rate:.17g},{flag[rec.alert]}\n"
                )
                if not rec.valid:
                    invalid[rec.reason] = invalid.get(rec.reason, 0) + 1
                alerted = alerted or rec.alert

    if counters["malformed"]:
        print(
            f"monitor: skipped {counters['malformed']} malformed draw line(s) "
            f"of {counters['total']}",
            file=sys.stderr,
        )
    if counters["total"] and counters["malformed"] > MALFORMED_CAP * counters["total"]:
        raise DataError(
            f"malformed draw lines exceed the {MALFORMED_CAP:.0%} cap: "
            f"{counters['malformed']} of {counters['total']}"
        )
    derived = {"draw_lines": counters["total"], "malformed_lines": counters["malformed"]}
    if invalid:
        derived["invalid_draws"] = invalid
    return EXIT_ALERT if alerted else EXIT_OK, derived


def cmd_validate(ns: argparse.Namespace, outdir: str) -> _Outcome:
    y, offsets = read_dataset(ns.data)
    print(f"{ns.data}: {y.size} rows, columns y{',E' if offsets is not None else ''}")
    if ns.model is not None:
        _build_model(ns, offsets).posterior_sample(y, 1, RngStream(ns.seed))
        print(f"model {ns.model}: data accepted")
    return EXIT_OK, {}


def cmd_replay(ns: argparse.Namespace) -> int:
    text = _read_text(ns.manifest)
    try:
        manifest = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: deep nesting
        raise DataError(f"{ns.manifest}: not valid JSON ({exc})") from exc
    if not isinstance(manifest, dict):
        raise DataError(f"{ns.manifest}: not a manifest object")
    command = manifest.get("command")
    if not isinstance(command, str) or command not in _COMMANDS:
        raise DataError(f"{ns.manifest}: unknown or missing command {command!r}")
    if manifest.get("version") != __version__:
        print(
            f"warning: manifest written by version {manifest.get('version')}, "
            f"running {__version__}",
            file=sys.stderr,
        )
    config = manifest.get("config")
    if not isinstance(config, dict):
        raise DataError(f"{ns.manifest}: missing config block")
    parser = _parser()
    actions = _settable(parser, command)
    tokens = _manifest_tokens(ns.manifest, config, actions)
    if ns.outdir is not None:
        tokens.append(f"--outdir={ns.outdir}")  # the last --outdir wins
    try:
        replay_ns = parser.parse_args([command, *tokens])
    except _UsageError as exc:
        named = set(re.findall(r"--[\w-]+", str(exc)))
        keys = [repr(dest) for dest, a in actions.items() if named & set(a.option_strings)]
        raise DataError(f"{ns.manifest}: config key(s) {', '.join(keys)}: {exc}") from None
    # a run's input must be the one recorded, where both ends were hashed
    entry, path = manifest.get("input"), _input_path(vars(replay_ns))
    recorded = entry.get("sha256") if isinstance(entry, dict) else None
    if recorded is not None and path is not None:
        try:
            actual = _digest(path)
        except OSError as exc:
            raise _unreadable(path, exc) from None
        if actual is not None and actual != recorded:
            raise DataError(
                f"{path}: input differs from the one {ns.manifest} recorded: "
                f"sha256 {actual}, recorded {recorded}"
            )
    return _run(replay_ns)


_COMMANDS = {
    "simulate-null": cmd_simulate_null,
    "power": cmd_power,
    "analyze": cmd_analyze,
    "pp-test": cmd_pp_test,
    "monitor": cmd_monitor,
    "validate": cmd_validate,
}


# ---------------------------------------------------------------------------
# parser construction
# ---------------------------------------------------------------------------

def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=_parse_seed, default=0,
                     help="root random seed, in [0, 2**64)")
    sub.add_argument("--outdir", help="output directory (default: $BAYESGOF_OUTDIR or '.')")
    sub.add_argument("--config", default=None, help="key=value config file")


def _add_prior_exponent(sub: argparse.ArgumentParser, **kwargs) -> None:
    sub.add_argument("--prior-exponent", type=float, default=models.PRIOR_EXPONENTS[0],
                     choices=models.PRIOR_EXPONENTS, **kwargs)


def _add_model_flags(sub: argparse.ArgumentParser) -> None:
    _add_prior_exponent(sub, help="saturated-model prior is mean**(-exponent)")
    sub.add_argument("--sigma2-fixed", type=float, default=None,
                     help="freeze the exchangeable random-effect variance")
    sub.add_argument("--chain-burn-in", type=int, default=_CHAIN.burn_in)
    sub.add_argument("--chain-thin", type=int, default=_CHAIN.thin)
    sub.add_argument("--chain-step", type=float, default=_CHAIN.initial_step)
    sub.add_argument("--chain-target-accept", type=float, default=_CHAIN.target_accept)


def _add_dataset_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--data", required=True, help="headered CSV with columns y[,E]")
    sub.add_argument("--model", required=True, choices=_DATA_MODELS)
    _add_model_flags(sub)
    sub.add_argument("--k", type=int, default=None,
                     help="bin count (default: rule-of-thumb from n)")


def _add_study_flags(sub: argparse.ArgumentParser, reps_default: int, reps_help: str) -> None:
    sub.add_argument("--n", type=int, default=_STUDY.n, help="observations per dataset")
    sub.add_argument("--k", type=int, default=None, help="bin count (default: rule from n)")
    scale = sub.add_mutually_exclusive_group()
    scale.add_argument("--reps", type=int, default=reps_default, help=reps_help)
    scale.add_argument("--full-scale", action="store_true",
                       help=f"{reps_help}: 10000 instead of the desk-scale {reps_default}")
    sub.add_argument("--workers", type=int, default=_STUDY.workers, help=WORKERS_HELP)


def build_parser() -> _Parser:
    parser = _Parser(
        prog="bayesgof",
        description="Posterior-draw chi-square goodness-of-fit toolkit.",
        epilog=DATASET_SCHEMA + CONFIG_HELP,
    )
    parser.add_argument("--version", action="version", version=f"bayesgof {__version__}")
    subs = parser.add_subparsers(dest="command", required=True, metavar="command")

    sim = subs.add_parser(
        "simulate-null",
        help="null-calibration study; writes qq.csv and summary.csv",
        description="Simulate replicate datasets under the null and record the "
        "statistic's distribution against its reference law.",
        epilog="qq.csv: rank, <series>, <series>_ref per included series.\n"
        "summary.csv: series, replicates, n, k, mean, variance, ks_statistic, "
        "ks_critical, ks_alpha, ks_passed.\n",
    )
    sim.add_argument("--model", choices=_NULL_MODELS, default="normal")
    _add_study_flags(sim, _STUDY.replicates, "replicate datasets")
    sim.add_argument("--classical", action="store_true",
                     help="also tabulate the plugin and grouped-MLE statistics")
    sim.add_argument("--assert-calibrated", action="store_true",
                     help="exit 2 if any tracked series fails its KS check")
    sim.add_argument("--ks-alpha", type=float, default=_STUDY.ks_alpha)
    sim.add_argument("--mean", type=float, default=4.2,
                     help="true mean for poisson-synthetic data, in (0, 2**52]")
    _add_prior_exponent(sim)
    _add_common(sim)

    pw = subs.add_parser(
        "power",
        help="size/power study over t alternatives; writes power.csv",
        description="Reject-rate study against heavy-tailed alternatives indexed "
        "by degrees of freedom (df=1 far, df=10 near the null).",
        epilog="power.csv: df, method, rejections, replicates, rate.\n",
    )
    pw.add_argument("--df", type=_parse_df_list, default=_STUDY.df_grid,
                    help="comma list, ranges allowed: 1,2,3 or 1..10")
    pw.add_argument("--methods", type=_parse_methods, default=harness.POWER_METHODS,
                    help=f"comma list among {','.join(harness.POWER_METHODS)}")
    _add_study_flags(pw, 1000, "replicates per df")
    pw.add_argument("--draws", type=int, default=_STUDY.draws_per_dataset,
                    help="posterior draws per dataset for the averaged test")
    pw.add_argument("--alpha", type=float, default=_STUDY.alpha, help="test size")
    pw.add_argument("--auc-critical", type=float, default=None,
                    help="stored null critical value; computed fresh at seed+1 if omitted")
    _add_common(pw)

    an = subs.add_parser(
        "analyze",
        help="fit diagnostics for one dataset; writes summary.csv and trace.csv",
        description="Per-draw goodness-of-fit trace for a dataset under a chosen "
        "model, with the tail-area AUC summary and threshold exceedance rate.",
        epilog="summary.csv: model, auc, exceedance, threshold, n_draws, k, "
        "small_cells, mean_count_bin1..K. small_cells holds 1-based bin "
        "indexes whose mean expected count fell below 1, ';'-joined.\n"
        "trace.csv: draw, value, dof.\n" + DATASET_SCHEMA,
    )
    _add_dataset_flags(an)
    an.add_argument("--draws", type=int, default=_ANALYZE["n_draws"], help="posterior draws")
    an.add_argument("--threshold", type=float, default=None, help=THRESHOLD_HELP)
    _add_common(an)

    pp = subs.add_parser(
        "pp-test",
        help="significance for an observed AUC by predictive recalibration",
        description="Approximate the sampling distribution of the AUC by "
        "regenerating datasets from the fitted model and re-fitting.",
        epilog="summary.csv: auc_observed, pp_reps, p_value.\n"
        "predictive.csv: replicate, auc.\n" + DATASET_SCHEMA,
    )
    _add_dataset_flags(pp)
    pp.add_argument("--pp-reps", type=int, default=_PP_TEST["pp_reps"],
                    help="predictive replicates")
    pp.add_argument("--draws", type=int, default=_PP_TEST["n_draws"],
                    help="posterior draws per fit")
    _add_common(pp)

    mon = subs.add_parser(
        "monitor",
        help="stream parameter draws and alert on tail-rate excess; exit 3 on alert",
        description="Read one whitespace-separated parameter vector per line ("
        + "; ".join(f"{name}: {layout}" for name, (_, layout, _) in _DATA_MODELS.items())
        + ") and track the statistic's running exceedance rate.  Malformed lines are "
        f"skipped and counted, tolerated up to {MALFORMED_CAP:.0%} of the stream.",
        epilog="trace.csv: index, value, valid, exceeds, cumulative_rate, alert.\n"
        + DATASET_SCHEMA,
    )
    _add_dataset_flags(mon)
    mon.add_argument("--draws-file", default="-",
                     help="draw stream path, or '-' for standard input")
    mon.add_argument("--threshold", type=float, default=None, help=THRESHOLD_HELP)
    mon.add_argument("--alert-factor", type=float, default=_MONITOR["alert_factor"],
                     help="alert when the running rate exceeds factor x nominal")
    mon.add_argument("--min-draws", type=int, default=_MONITOR["min_draws"],
                     help="valid draws required before alerting")
    _add_common(mon)

    val = subs.add_parser(
        "validate",
        help="check a dataset file, and with --model what analyze and pp-test need",
        description="Parse a dataset and, with --model, make one posterior draw from "
        "--seed and the chain flags, as analyze and pp-test do.  The monitor takes "
        "external draws, so it may take data refused here.",
        epilog=DATASET_SCHEMA,
    )
    val.add_argument("--data", required=True)
    val.add_argument("--model", choices=_DATA_MODELS, default=None)
    _add_model_flags(val)
    _add_common(val)

    rp = subs.add_parser(
        "replay",
        help="re-run a recorded manifest; outputs are byte-identical",
        description="Re-execute the command recorded in a manifest.json with its "
        "stored configuration and seed.",
    )
    rp.add_argument("manifest", help="path to a manifest.json")
    rp.add_argument("--outdir", default=None,
                    help="write outputs here instead of the recorded directory")

    return parser


@cache
def _parser() -> _Parser:
    """The process's one parser, built on first use."""
    return build_parser()


# ---------------------------------------------------------------------------
# config files and manifests as parser tokens
# ---------------------------------------------------------------------------

def _subcommands(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return subs.choices


def _settable(parser: argparse.ArgumentParser, command: str) -> dict[str, argparse.Action]:
    """The options of a subcommand that a config file or manifest may set,
    by destination."""
    return {
        a.dest: a for a in _subcommands(parser)[command]._actions
        if a.option_strings and a.dest not in ("help", "config")
    }


def _parse_command_line(parser: _Parser, args: list[str]) -> argparse.Namespace:
    """Parse a command line and the --config file it names.  The file is read
    first, so a fault in it is reported before the command line is checked;
    its tokens and the command line are then parsed together, the command
    line last, so its flags win over the file's."""
    if args and args[0] in _COMMANDS:
        peek = _Parser(add_help=False)
        peek.add_argument("--config")
        peek.add_argument("-h", "--help", action="store_true")
        try:
            given, _ = peek.parse_known_args(args[1:])
        except _UsageError:  # as --config with no value: the full parse says so
            given = None
        if given and given.config and not given.help:
            tokens = _config_tokens(given.config, _settable(parser, args[0]))
            return parser.parse_args([args[0], *tokens, *args[1:]])
    return parser.parse_args(args)


def _token(action: argparse.Action, text: str) -> str:
    """The token setting action to text: a store_true flag alone, any other as
    one --flag=text token, so that a text beginning with '-' stays a value."""
    flag = action.option_strings[0]
    return flag if action.nargs == 0 else f"{flag}={text}"


# a '#' that begins a line or follows whitespace begins a comment, so that a
# value may hold one, as a path can
_COMMENT = re.compile(r"(?:^|\s)#.*")


def _config_tokens(path: str, actions: dict) -> list[str]:
    tokens: list[str] = []
    # the reading rule has made every line end "\n"
    for lineno, raw in enumerate(_read_text(path).split("\n"), start=1):
        line = _COMMENT.sub("", raw).strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise ConfigError(f"{path}:{lineno}: unknown option {key!r}")
        if action.nargs == 0 and value.lower() not in ("true", "1", "yes"):
            if value.lower() not in ("false", "0", "no"):
                raise ConfigError(f"{path}:{lineno}: boolean {key!r} must be true or false")
            continue  # a store_true flag left unset
        tokens.append(_token(action, value))
    return tokens


def _manifest_tokens(path: str, config: dict, actions: dict) -> list[str]:
    """A manifest's config block as tokens for its parser, which makes every
    check but those JSON's types need.  Values at their flag's default are
    left out, as on the command line, so none collides with its mutually
    exclusive partner."""
    unknown = sorted(set(config) - set(actions))
    if unknown:
        raise DataError(f"{path}: unknown config key(s) {', '.join(unknown)}")
    tokens: list[str] = []
    for dest, value in config.items():
        action = actions[dest]
        if action.nargs == 0:  # a store_true flag
            ok = isinstance(value, bool)
        elif action.type is None:
            ok = isinstance(value, str)
        else:
            ok = value is not None and not isinstance(value, bool)
        if not ok and not (value is None and action.default is None):
            raise DataError(f"{path}: config key {dest!r} has an invalid value {value!r}")
        if value != action.default:
            text = ",".join(map(_fmt, value)) if isinstance(value, list) else _fmt(value)
            tokens.append(_token(action, text))
    return tokens


def main(argv: list[str] | None = None) -> int:
    args = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        ns = _parse_command_line(_parser(), args)
        return cmd_replay(ns) if ns.command == "replay" else _run(ns)
    except _UsageError as exc:
        print(exc.usage, end="", file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # as numpy's refusal of a 1e14-element array
        detail = f": {exc}" if str(exc) else ""  # Python's own has no text
        print(f"error: a setting is too large for memory{detail}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (EvaluationError, OptimizationError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())

"""Shared fixtures for the expensive Monte Carlo runs, and the model table.

The 2000-replicate null run and the stored null AUC distribution are reused
across several test modules, so they are computed once per session.  They
and the power run ask for two workers: their results are byte-identical at
any worker count, and a host with one usable CPU runs them inline.
MODEL_CASES holds every model the CLI builds for a dataset; the protocol
suite and the theta-layout checks run on it.  NULL_CASES holds every model
and true parameter simulate-null builds, each at its flags' defaults.
scheme_of_cuts builds the bin schemes the property tests draw.
"""

import time
from typing import NamedTuple

import numpy as np
import pytest

from bayesgof import cli
from bayesgof.binning import PROB_FLOOR, BinScheme
from bayesgof.cli import STANDARD_NORMAL
from bayesgof.harness import (
    ExperimentConfig,
    null_auc_distribution,
    null_calibration,
    power_study,
)
from bayesgof.models import NormalModel


# The largest cut that leaves the last cell at least PROB_FLOOR wide: the
# float nearest 1 - PROB_FLOOR is above it, and leaves a last cell of 9.9998e-13.
MAX_CUT = float(np.nextafter(1.0 - PROB_FLOOR, 0.0))
assert 1.0 - MAX_CUT >= PROB_FLOOR


def scheme_of_cuts(cuts) -> BinScheme:
    """The scheme of the sorted cuts, each in [PROB_FLOOR, MAX_CUT],
    less any cut that would leave a cell below PROB_FLOOR, which no scheme
    may have; the first cut is always kept."""
    kept = [0.0]
    for cut in sorted(cuts):
        if cut - kept[-1] >= PROB_FLOOR and 1.0 - cut >= PROB_FLOOR:
            kept.append(cut)
    return BinScheme((*kept, 1.0))


class ModelCase(NamedTuple):
    """A model as the CLI builds it, a dataset it accepts, a valid theta in
    its theta_from_vector layout, and the indexes of that theta's positive
    entries (a scale, rate, mean or sigma2); its other entries are free."""

    name: str
    model: object
    data: np.ndarray
    values: list[float]
    positive: list[int]


def _model_cases() -> list[ModelCase]:
    offsets = np.array([0.5, 1.0, 2.0, 3.0])
    counts = np.array([3, 0, 6, 2])
    layouts = {
        "normal": (np.array([0.3, -1.2, 2.1, 0.8]), [0.5, 2.0], [1]),
        "poisson-common": (counts, [1.5], [0]),
        "poisson-saturated": (counts, [1.0, 2.5, 4.0, 0.7], [0, 1, 2, 3]),
        "poisson-exchangeable": (counts, [0.1, -0.2, 0.0, 0.3, -0.4, 0.5], [5]),
    }
    parser = cli.build_parser()
    cases = []
    for name in cli._DATA_MODELS:
        # every flag at its default but a short chain for the exchangeable model
        ns = parser.parse_args(
            ["analyze", "--data", "unread.csv", "--model", name, "--chain-burn-in", "50"]
        )
        data, values, positive = layouts[name]
        cases.append(ModelCase(name, cli._build_model(ns, offsets), data, values, positive))
    return cases


MODEL_CASES = _model_cases()


class NullCase(NamedTuple):
    """A model and its true parameter as simulate-null builds them."""

    name: str
    model: object
    truth: object


def _null_cases() -> list[NullCase]:
    parser = cli.build_parser()
    cases = []
    for name in cli._NULL_MODELS:
        ns = parser.parse_args(["simulate-null", "--model", name])
        cases.append(NullCase(name, *cli._NULL_MODELS[name](ns, ns.n)))
    return cases


NULL_CASES = _null_cases()

# the configuration of the stored null AUC distribution
AUC_NULL_CONFIG = ExperimentConfig(
    n=50, bins=5, replicates=2000, seed=11, draws_per_dataset=500, workers=2
)

# verdict lines recorded by the acceptance tests; replayed after the run so
# they land on the real terminal rather than in pytest's captured stdout
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def null_run_2000():
    """Normal-model null calibration with the classical comparators.

    Returns (result, wall_seconds); the timing feeds criterion 1's runtime
    budget, so on a host with two or more usable CPUs that budget times a run
    split across two worker processes, and on one CPU the inline run.
    """
    cfg = ExperimentConfig(
        n=50, bins=5, replicates=2000, seed=8, include_classical=True, workers=2
    )
    t0 = time.perf_counter()
    res = null_calibration(cfg, NormalModel(), STANDARD_NORMAL)
    return res, time.perf_counter() - t0


@pytest.fixture(scope="session")
def stored_auc_null():
    """Null distribution of the tail-area summary at AUC_NULL_CONFIG, 2000
    datasets x 500 draws."""
    return null_auc_distribution(AUC_NULL_CONFIG, NormalModel(), STANDARD_NORMAL)


@pytest.fixture(scope="session")
def power_result(stored_auc_null):
    """Rejection rates against t alternatives at df 1, 2, 3, 5, 10."""
    cfg = ExperimentConfig(
        n=50, bins=5, replicates=1000, seed=500,
        draws_per_dataset=500, df_grid=(1, 2, 3, 5, 10), workers=2,
    )
    return power_study(cfg, stored_auc_null.critical, NormalModel(), STANDARD_NORMAL)

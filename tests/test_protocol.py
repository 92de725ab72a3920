"""The model protocol, checked alike for every model the CLI builds.

The diagnostics need only a finite-dimensional parameter vector and
conditionally independent observations; the models module states what a
model must provide for that.  Each test here runs on every entry of
conftest.MODEL_CASES, one per name in cli._DATA_MODELS, so a model the CLI
can build is held to the whole protocol.  The simulated-data models of
conftest.NULL_CASES, one per name in cli._NULL_MODELS, are checked to
simulate data they accept and to run a null calibration.
"""

import math

import numpy as np
import pytest

from bayesgof import cli, gof
from bayesgof.binning import equiprobable
from bayesgof.errors import DomainError
from bayesgof.harness import ExperimentConfig, null_calibration
from bayesgof.probkit import RngStream

from conftest import MODEL_CASES, NULL_CASES

DRAWS = 20

each_model = pytest.mark.parametrize("case", MODEL_CASES, ids=lambda case: case.name)


def _outcome(f, *args):
    """What f(*args) raised, by type, or the array it returned."""
    try:
        return np.asarray(f(*args))
    except Exception as exc:  # the type is the outcome
        return type(exc)


def _transform(model):
    """The observation-level transform a model of its kind provides."""
    return model.obs_cdf_pair if model.is_discrete else model.obs_cdf


def test_the_table_holds_every_data_model():
    assert [case.name for case in MODEL_CASES] == list(cli._DATA_MODELS)


@each_model
def test_a_stack_is_a_float_array_of_thetas(case):
    model = case.model
    for size in (1, DRAWS):
        stack = model.posterior_sample(case.data, size, RngStream(1))
        assert stack.shape == (size, model.theta_size) and stack.dtype == float
        for row in stack:
            assert np.array_equal(model.theta_from_vector(row), row)


@each_model
def test_a_stack_scores_as_its_rows_one_at_a_time(case):
    # a discrete model allocates the rows in order from the one stream, so
    # its single draws are scored in order from a stream of the same seed
    model, y = case.model, case.model.validate_data(case.data)
    thetas = model.posterior_sample(y, DRAWS, RngStream(2))
    scheme = equiprobable(3)
    stack = gof.posterior_chisq(y, model, thetas, scheme, RngStream(3))
    rng = RngStream(3)
    rows = [gof.posterior_chisq(y, model, theta, scheme, rng) for theta in thetas]
    assert stack.value.shape == (DRAWS,) and stack.counts.shape == (DRAWS, scheme.k)
    assert np.array_equal(stack.value, [row.value for row in rows])
    assert np.array_equal(stack.counts, [row.counts for row in rows])


@each_model
def test_a_stack_transforms_as_its_rows_one_at_a_time(case):
    model, y = case.model, case.model.validate_data(case.data)
    thetas = model.posterior_sample(y, DRAWS, RngStream(4))
    transform = _transform(model)
    stacked = np.asarray(transform(y, thetas))
    assert stacked.shape[-2:] == (DRAWS, y.size)
    for i, theta in enumerate(thetas):
        assert np.array_equal(stacked[..., i, :], transform(y, theta))


@each_model
def test_a_stack_with_a_row_outside_the_space_fails_as_that_row_does(case):
    model, y = case.model, case.model.validate_data(case.data)
    thetas = model.posterior_sample(y, DRAWS, RngStream(5))
    thetas[3, case.positive[0]] = 0.0
    transform = _transform(model)
    stacked, single = _outcome(transform, y, thetas), _outcome(transform, y, thetas[3])
    if isinstance(single, type):
        assert stacked is single
    else:
        assert np.array_equal(stacked[..., 3, :], single)
    if not model.is_discrete:
        assert _outcome(model.obs_cdf, y, thetas) is DomainError


@each_model
def test_posterior_draw_is_row_zero_of_a_one_draw_stack(case):
    for seed in range(5):
        draw = case.model.posterior_draw(case.data, RngStream(seed))
        stack = case.model.posterior_sample(case.data, 1, RngStream(seed))
        assert np.array_equal(draw, stack[0])


@each_model
def test_theta_from_vector_reads_its_layout_and_refuses_what_lies_outside_the_space(case):
    model, values = case.model, case.values
    assert model.theta_size == len(values)
    theta = model.theta_from_vector(values)
    assert theta.dtype == float and theta.tolist() == values
    refused = [values[:-1], values + [1.0], []]
    for j in range(len(values)):
        bad = [math.nan, math.inf, -math.inf]
        if j in case.positive:
            bad += [0.0, -0.0, -1.0]
        else:  # a free entry may be negative
            assert model.theta_from_vector(values[:j] + [-3.0] + values[j + 1:])[j] == -3.0
        refused += [values[:j] + [v] + values[j + 1:] for v in bad]
    for vector in refused:
        with pytest.raises(DomainError):
            model.theta_from_vector(vector)


@each_model
def test_predictive_data_at_a_posterior_draw_pass_validate_data(case):
    model, y = case.model, case.model.validate_data(case.data)
    for seed in range(5):
        theta = model.posterior_draw(y, RngStream(seed))
        replicate = model.predictive_draw(theta, RngStream(100 + seed), n=y.size)
        assert model.validate_data(replicate).shape == y.shape


# ---------------------------------------------------------------------------
# simulate-null's models
# ---------------------------------------------------------------------------

each_null_model = pytest.mark.parametrize("case", NULL_CASES, ids=lambda case: case.name)


def test_the_table_holds_every_null_model():
    assert [case.name for case in NULL_CASES] == list(cli._NULL_MODELS)


@each_null_model
def test_null_data_at_the_truth_pass_validate_data(case):
    n = ExperimentConfig().n  # simulate-null's default --n
    for seed in range(5):
        y = case.model.predictive_draw(case.truth, RngStream(seed), n=n)
        assert case.model.validate_data(y).shape == (n,)


@each_null_model
def test_a_null_calibration_runs_at_the_defaults(case):
    result = null_calibration(ExperimentConfig(replicates=20), case.model, case.truth)
    posterior = result.series["posterior"]
    assert posterior.values.shape == (20,)
    assert np.isfinite(posterior.values).all()

"""The per-draw checks call numpy's ufunc reductions directly.  Each function
must decide, raise and return exactly as its earlier method-based form
(ndarray.min/max/sum/all, np.any, np.mean, np.searchsorted), kept here as the
oracle: the same exception type and message, the same kinds of warning, or
bit-identical results.  So must pearson of a BinScheme, whose cell
probabilities were checked when it was built, against pearson of its widths;
a scheme is built exactly when its widths pass that check.
The theta check, which runs on Python floats, must also decide exactly as its
ufunc-reduction form did.  The randomized statistic's range checks are
checked against their element-wise reference in test_gof."""

import dataclasses
import math
import struct
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import special as sp

from bayesgof import binning, gof, models, probkit
from bayesgof.binning import BinScheme, equiprobable
from bayesgof.errors import DataError, DomainError, EvaluationError
from bayesgof.probkit import RngStream

from conftest import MAX_CUT, MODEL_CASES, scheme_of_cuts

# --- the earlier forms, as they were before the ufunc reductions -------------


def _old_poisson_cdf(mean, k):
    k = np.floor(np.asarray(k, dtype=float))
    if k.size and k.min() >= 0.0:  # NaN fails too
        out = sp.pdtr(k, mean)
    else:
        out = np.where(k < 0.0, 0.0, sp.pdtr(np.maximum(k, 0.0), mean))
    return out if out.ndim else float(out)


def _old_poisson_cdf_pair(y, means):
    if not (models._TINY <= means.min() and means.max() < np.inf):
        raise EvaluationError(f"Poisson means must be normal finite doubles, got {means.min()}")
    f_at = _old_poisson_cdf(means, y)
    f_below = _old_poisson_cdf(means, y - 1)
    return f_below, f_at


def _old_parameter_vector(values, size, positive):
    v = np.asarray(values, dtype=float)
    if v.shape != (size,) or not np.isfinite(v).all() or not (v[positive] > 0.0).all():
        raise DomainError(
            f"need {size} finite parameter values with a positive scale, rate, mean or sigma2"
        )
    return v


def _old_normal_cdf(z):
    z = np.asarray(z, dtype=float)
    out = 0.5 * sp.erfc(-z / math.sqrt(2.0))
    return out if out.ndim else float(out)


def _old_normal_obs_cdf(y, theta):
    t = np.asarray(theta, dtype=float)
    return probkit.normal_cdf((np.asarray(y, dtype=float) - t[..., :1]) / t[..., 1:])


def _old_assign(scheme, u):
    arr = np.asarray(u, dtype=float)
    if arr.size and not (arr.min() >= 0.0 and arr.max() <= 1.0):
        raise DomainError("assign requires values in [0, 1]")
    return np.searchsorted(scheme._interior, arr, side="left")


def _old_assign_discrete_randomized(scheme, f_below, f_at, rng):
    lo = np.asarray(f_below, dtype=float)
    hi = np.asarray(f_at, dtype=float)
    if lo.size and not (lo.min() >= 0.0 and hi.max() <= 1.0):
        raise DomainError("CDF values must lie in [0, 1]")
    width = hi - lo
    if width.size and not width.min() >= 0.0:
        raise DomainError("CDF values must not decrease: f_below must be <= f_at")
    v = rng.generator.random(lo.shape if lo.ndim else None)
    return _old_assign(scheme, hi - v * width)


def _old_pearson(counts, probs):
    m = np.asarray(counts)
    p = np.asarray(probs, dtype=float)
    if m.ndim not in (1, 2) or p.ndim != 1 or m.shape[-1] != p.size or m.size < 2:
        raise DomainError(
            "counts must be a vector, or rows of vectors, matching probs of length >= 2"
        )
    if m.dtype.kind not in "iu":
        m = m.astype(float)
    if not m.min() >= 0 or (m.dtype.kind == "f" and np.any(m != np.floor(m))):
        raise DomainError("counts must be non-negative integers")
    n = m.sum(axis=-1)
    if not n.min() > 0:
        raise DomainError("counts must sum to a positive total")
    if not abs(p.sum() - 1.0) <= 1e-9:
        raise DomainError(f"cell probabilities must sum to 1, got {p.sum()!r}")
    if not p.min() >= gof.PROB_FLOOR:
        low = np.nonzero(p < gof.PROB_FLOOR)[0].tolist()
        more = f" and {len(low) - 10} more, {len(low)} in all" if len(low) > 10 else ""
        raise EvaluationError(
            f"cell probability below the {gof.PROB_FLOOR} floor in cells {low[:10]}{more}"
        )
    expected = n[..., None] * p
    value = ((m - expected) ** 2 / expected).sum(axis=-1)
    return float(value) if m.ndim == 1 else value


def _old_normal_sample(data):
    y = np.asarray(data, dtype=float)
    if y.ndim != 1 or y.size < 2:
        raise DataError("need a 1-D sample with at least two observations")
    if not np.all(np.isfinite(y)):
        raise DataError("observations must be finite")
    mean = np.add.reduce(y) / y.size
    d = y - mean
    ss = np.add.reduce(d * d)
    if ss / (y.size - 1) <= 0.0:
        if np.all(y == y[0]):
            raise DataError("degenerate sample: all observations are equal")
        raise DataError("sample spread underflows: the observations differ, but their "
                        "squared deviations round to 0 in double precision")
    return y, mean, ss


def _old_reference_auc(values, dof):
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise DomainError("need a non-empty 1-D vector of statistic values")
    if not np.all(np.isfinite(v)) or np.any(v < 0):
        raise DomainError("statistic values must be finite and non-negative")
    if dof < 1:
        raise DomainError(f"dof must be >= 1, got {dof}")
    return float(np.mean(probkit.chi2_cdf(dof, v)))


def _old_exceedance(values, threshold):
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise DomainError("need a non-empty 1-D vector of statistic values")
    if not np.isfinite(threshold):
        raise DomainError("threshold must be finite")
    return float(np.mean(v > threshold))


# --- outcomes, compared bit for bit -----------------------------------------


def _bits(out):
    if isinstance(out, tuple):  # a named tuple, as BinnedStat, keeps its type
        return type(out), tuple(_bits(v) for v in out)
    if dataclasses.is_dataclass(out):
        return type(out), _bits(tuple(getattr(out, f.name) for f in dataclasses.fields(out)))
    if isinstance(out, (np.ndarray, np.generic)):
        return type(out), out.dtype.str, out.shape, out.tobytes()
    if isinstance(out, float):
        return float, np.float64(out).tobytes()
    return type(out), out


def _outcome(fn, *args):
    """What a call did: its result's bits or its exception's type and
    message, with the kinds of warning it gave (the earlier form of pearson
    summed the probabilities a second time for its message, so an overflow
    there warned twice)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = ("returned", _bits(fn(*args)))
        except Exception as exc:  # the type and message are what is compared
            result = ("raised", type(exc), str(exc))
    return result, {(w.category, str(w.message)) for w in caught}


_SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, -1.0, -2.5, 5e-324, 1e-300, 0.5, 1.0, 1e308]
_any_float = st.one_of(st.floats(), st.sampled_from(_SPECIAL))
_unit_float = st.one_of(st.floats(0.0, 1.0), st.sampled_from(_SPECIAL))
_shapes = hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=5)


def _float_arrays(elements, shape=_shapes):
    return hnp.arrays(np.float64, shape, elements=elements)


@settings(max_examples=300, deadline=None)
@given(k=_float_arrays(_any_float), data=st.data(), scalar=st.booleans())
def test_poisson_cdf_matches_its_method_form(k, data, scalar):
    mean = data.draw(st.one_of(
        _float_arrays(_any_float, shape=k.shape),
        _float_arrays(_any_float, shape=()),
        _float_arrays(_any_float),  # shapes that may not broadcast
    ))
    if scalar and k.ndim == 0:
        k = float(k)
    assert _outcome(probkit.poisson_cdf, mean, k) == _outcome(_old_poisson_cdf, mean, k)


_counts = st.one_of(
    st.integers(-3, 400),
    st.integers(1 - 2**53, 2**53),  # y and y - 1 are exact doubles, as for any real count
)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 4),
    theta=_any_float,
    data=st.data(),
)
def test_common_rate_cdf_pair_matches_its_method_form(n, theta, data):
    # counts as validate_data gives them (int64), or floats; one per
    # observation, one for all, or none against a single offset
    offsets = data.draw(_float_arrays(st.floats(0.1, 50.0), shape=(n,)))
    shape = data.draw(st.sampled_from([(n,), ()] + ([(0,)] if n == 1 else [])))
    y = data.draw(st.one_of(
        hnp.arrays(np.int64, shape, elements=_counts),
        _float_arrays(_any_float, shape=shape),
    ))
    model = models.PoissonCommonRate(offsets)
    new = _outcome(model.obs_cdf_pair, y, [theta])
    with mock.patch.object(models, "_poisson_cdf_pair", _old_poisson_cdf_pair):
        assert new == _outcome(model.obs_cdf_pair, y, [theta])


@settings(max_examples=300, deadline=None)
@given(
    model=st.sampled_from([case.model for case in MODEL_CASES]),
    values=st.one_of(
        st.lists(_any_float, min_size=0, max_size=6),
        _float_arrays(_any_float),
        _any_float,
    ),
)
def test_theta_from_vector_matches_its_method_form(model, values):
    new = _outcome(model.theta_from_vector, values)
    with mock.patch.object(models, "_parameter_vector", _old_parameter_vector):
        assert new == _outcome(model.theta_from_vector, values)


def _parameter_vector_inputs(size):
    """Vectors of about size values: one special value at the first, second
    or last entry, or at all of them; wrong lengths; 2-D and 0-D input."""
    base = [0.5] * size
    specials = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -1.0, 1e308]
    vectors = [base, [-1.0] * size]
    for v in specials:
        vectors.append([v] * size)
        for j in {0, min(1, size - 1), size - 1}:
            vectors.append(base[:j] + [v] + base[j + 1:])
    wrong = [base[:-1], base + [0.5], [], [base], [[v] for v in base], 0.5]
    return vectors + [np.array(v) for v in vectors] + wrong


@pytest.mark.parametrize("size, positive", [
    (size, positive)
    for size in (1, 2, 56, 58)
    for positive in (0, 1, -1, slice(None))
    if positive != 1 or size > 1  # no model names an entry beyond its vector
], ids=lambda p: "all" if isinstance(p, slice) else str(p))
def test_parameter_vector_matches_its_numpy_form(size, positive):
    for values in _parameter_vector_inputs(size):
        assert _outcome(models._parameter_vector, values, size, positive) == _outcome(
            _old_parameter_vector, values, size, positive
        )


_schemes = st.one_of(
    st.integers(2, 7).map(equiprobable),
    st.just(BinScheme((0.0, 0.1, 0.15, 0.7, 1.0))),
)


@settings(max_examples=300, deadline=None)
@given(scheme=_schemes, u=_float_arrays(_unit_float), scalar=st.booleans())
def test_assign_matches_its_method_form(scheme, u, scalar):
    if scalar and u.ndim == 0:
        u = float(u)
    assert _outcome(binning.assign, scheme, u) == _outcome(_old_assign, scheme, u)


@settings(max_examples=300, deadline=None)
@given(
    scheme=_schemes,
    shape=_shapes,
    data=st.data(),
    seed=st.integers(0, 2**32),
)
def test_assign_randomized_matches_its_method_form(scheme, shape, data, seed):
    lo = data.draw(_float_arrays(_unit_float, shape=shape))
    hi = data.draw(st.one_of(
        _float_arrays(_unit_float, shape=shape),
        st.just(lo.copy()),  # collapsed everywhere
        st.just(np.nextafter(lo, 2.0)),  # one ulp wide
    ))
    assert _outcome(
        binning.assign_discrete_randomized, scheme, lo, hi, RngStream(seed)
    ) == _outcome(_old_assign_discrete_randomized, scheme, lo, hi, RngStream(seed))


_probs = st.one_of(
    st.integers(2, 6).map(lambda k: equiprobable(k).widths()),
    st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6).map(
        lambda w: np.asarray(w) / max(sum(w), 1e-300)
    ),
    _float_arrays(_any_float, shape=hnp.array_shapes(min_dims=0, max_dims=2, max_side=6)),
)


@settings(max_examples=400, deadline=None)
@given(probs=_probs, data=st.data())
def test_pearson_matches_its_method_form(probs, data):
    k = probs.shape[-1] if probs.ndim else 1
    shape = data.draw(st.one_of(
        st.sampled_from([(k,), (1, k), (3, k), (0, k)]),
        _shapes,
    ))
    counts = data.draw(st.one_of(
        hnp.arrays(np.int64, shape, elements=st.integers(-2, 60)),
        hnp.arrays(np.int8, shape, elements=st.integers(-2, 60)),
        hnp.arrays(np.uint16, shape, elements=st.integers(0, 60)),
        _float_arrays(st.one_of(st.integers(0, 60).map(float), _any_float), shape=shape),
    ))
    assert _outcome(gof.pearson, counts, probs) == _outcome(_old_pearson, counts, probs)


@settings(max_examples=300, deadline=None)
@given(
    values=st.one_of(
        _float_arrays(_any_float),
        hnp.arrays(np.float64, st.integers(1, 40), elements=st.floats(0.0, 60.0)),
    ),
    dof=st.sampled_from([0, 1, 2, 4, 9]),
)
def test_reference_auc_matches_its_method_form(values, dof):
    assert _outcome(gof.reference_auc, values, dof) == _outcome(_old_reference_auc, values, dof)


@settings(max_examples=300, deadline=None)
@given(
    values=st.one_of(
        _float_arrays(_any_float),
        hnp.arrays(np.float64, st.integers(1, 600), elements=st.floats(0.0, 30.0)),
    ),
    threshold=_any_float,
)
def test_exceedance_matches_its_mean_form(values, threshold):
    new, old = (_outcome(f, values, threshold) for f in (gof.exceedance, _old_exceedance))
    assert new == old


@settings(max_examples=300, deadline=None)
@given(
    k=st.integers(2, 300),
    rows=st.integers(1, 4),
    dtype=st.sampled_from([np.int8, np.uint16, np.int64, np.intp]),
    equal=st.booleans(),
    data=st.data(),
)
def test_pearson_vector_equals_its_row_of_the_batch(k, rows, dtype, equal, data):
    # an integer vector is scored on Python numbers, a batch as arrays
    counts = data.draw(hnp.arrays(dtype, (rows, k), elements=st.integers(0, 120)))
    counts[:, 0] += 1  # a positive total in every row
    if equal:
        probs = equiprobable(k).widths()
    else:
        w = data.draw(hnp.arrays(np.float64, k, elements=st.floats(0.01, 1.0)))
        probs = w / np.add.reduce(w)
    batch = gof.pearson(counts, probs)
    for row, value in zip(counts, batch):
        assert np.float64(gof.pearson(row, probs)).tobytes() == value.tobytes()
        assert _outcome(gof.pearson, row, probs) == _outcome(_old_pearson, row, probs)


@settings(max_examples=300, deadline=None)
@given(data=st.one_of(
    _float_arrays(_any_float),
    _float_arrays(st.sampled_from([np.nan, np.inf, -np.inf, 1.0, 2.5]), shape=st.integers(0, 6)),
    st.lists(_any_float, min_size=0, max_size=6),
))
def test_normal_sample_matches_its_method_form(data):
    # NaN and +-inf among the observations, and 0-d and 2-D inputs
    assert _outcome(models._normal_sample, data) == _outcome(_old_normal_sample, data)


# values where erfc is neither 0 nor 2, a NaN of either sign, one with a
# payload, and subnormals of either sign
_NAN_PAYLOAD = struct.unpack("<d", struct.pack("<Q", 0x7FF8_0000_0000_0ABC))[0]
_cdf_float = st.one_of(_any_float, st.floats(-40.0, 40.0), st.sampled_from(
    [math.copysign(math.nan, -1.0), _NAN_PAYLOAD, -_NAN_PAYLOAD, -5e-324, 1e-310, -1e-310]
))


@settings(max_examples=400, deadline=None)
@given(z=_float_arrays(_cdf_float), scalar=st.booleans())
def test_normal_cdf_matches_its_negate_first_form(z, scalar):
    if scalar and z.ndim == 0:
        z = float(z)
    assert _outcome(probkit.normal_cdf, z) == _outcome(_old_normal_cdf, z)


@settings(max_examples=300, deadline=None)
@given(
    y=st.one_of(
        _float_arrays(_any_float, shape=st.integers(0, 6)), st.lists(_any_float, max_size=4)
    ),
    mu=st.one_of(
        st.floats(allow_nan=False, allow_infinity=False), st.sampled_from([-0.0, 5e-324, 1e308])
    ),
    sigma=st.one_of(st.floats(5e-324, 1e308), st.sampled_from([5e-324, 1e-300, 1e308])),
)
def test_normal_obs_cdf_of_one_draw_matches_its_slice_form(y, mu, sigma):
    # one draw is standardized with its two floats, not two 1-element slices
    new = _outcome(models.NormalModel().obs_cdf, y, (mu, sigma))
    assert new == _outcome(_old_normal_obs_cdf, y, (mu, sigma))


_edges = st.one_of(
    st.integers(2, 8).map(lambda k: equiprobable(k).edges),
    st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), min_size=1, max_size=6,
             unique=True).map(lambda cuts: (0.0, *sorted(cuts), 1.0)),
    # a cell narrower than PROB_FLOOR, or about as wide, inside or at either end
    st.tuples(st.floats(1e-3, 0.99), st.sampled_from([1e-15, 1e-13, 9e-13, 1e-12, 2e-12])).map(
        lambda cut: (0.0, cut[0], cut[0] + cut[1], 1.0)
    ),
    st.sampled_from([
        (0.0, 5e-324, 0.5, 1.0),
        (0.0, 0.5, np.nextafter(1.0, 0.0), 1.0),
        (0.0, gof.PROB_FLOOR, 0.5, 1.0),
        (0.0, 0.5, 1.0 - 2e-12, 1.0),
    ]),
)


def _cell_probs_of_a_scheme(edges):
    return BinScheme(edges).cell_probs()


@settings(max_examples=400, deadline=None)
@given(edges=_edges)
def test_a_scheme_is_built_exactly_when_its_widths_pass_the_cell_check(edges):
    widths = np.diff(np.asarray(edges))
    assert _outcome(_cell_probs_of_a_scheme, edges) == _outcome(binning.check_cell_probs, widths)


_pearson_schemes = st.one_of(
    st.integers(2, 8).map(equiprobable),
    st.lists(st.floats(gof.PROB_FLOOR, MAX_CUT), min_size=1, max_size=6).map(
        scheme_of_cuts
    ),
    # a cell about as wide as PROB_FLOOR, inside or at either end
    st.tuples(st.floats(1e-3, 0.99), st.sampled_from([1e-12, 1.001e-12, 2e-12])).map(
        lambda cut: scheme_of_cuts((cut[0], cut[0] + cut[1]))
    ),
    st.sampled_from([(gof.PROB_FLOOR, 0.5), (0.5, 1.0 - 2e-12)]).map(scheme_of_cuts),
)


@settings(max_examples=400, deadline=None)
@given(scheme=_pearson_schemes, data=st.data())
def test_pearson_of_a_scheme_matches_pearson_of_its_widths(scheme, data):
    k = scheme.k
    shape = data.draw(st.one_of(
        st.sampled_from([(k,), (1, k), (3, k), (0, k), (k + 1,)]),
        _shapes,
    ))
    counts = data.draw(st.one_of(
        hnp.arrays(np.int64, shape, elements=st.integers(-2, 60)),
        hnp.arrays(np.uint16, shape, elements=st.integers(0, 60)),
        _float_arrays(st.one_of(st.integers(0, 60).map(float), _any_float), shape=shape),
    ))
    assert _outcome(gof.pearson, counts, scheme) == _outcome(gof.pearson, counts, scheme.widths())


def test_a_scheme_with_a_cell_below_the_floor_is_refused_when_built():
    edges = (0.0, 0.5, 0.5 + 1e-13, 1.0)
    with pytest.raises(EvaluationError, match=r"floor in cells \[1\]$"):
        BinScheme(edges)


@pytest.mark.parametrize(
    "model, values, positive", [(case.model, case.values, case.positive) for case in MODEL_CASES]
)
def test_theta_from_vector_rejects_what_it_rejected_before(model, values, positive):
    accepted = [values]
    refused = [values[:-1], values + [1.0], [], [values]]
    for j in positive:
        for v in (5e-324, 1e300):
            accepted.append(values[:j] + [v] + values[j + 1:])
        for v in (math.nan, math.inf, -math.inf, 0.0, -0.0, -5e-324, -1.0):
            refused.append(values[:j] + [v] + values[j + 1:])
    if 0 not in positive:  # a free entry may be negative, never non-finite
        accepted.append([-3.0] + values[1:])
        refused += [[v] + values[1:] for v in (math.nan, math.inf, -math.inf)]
    for vector in accepted + refused:
        new = _outcome(model.theta_from_vector, vector)
        with mock.patch.object(models, "_parameter_vector", _old_parameter_vector):
            assert new == _outcome(model.theta_from_vector, vector)
        assert new[0][:2] == (
            ("returned", (np.ndarray, "<f8", (len(values),), np.asarray(vector).tobytes()))
            if vector in accepted else ("raised", DomainError)
        )

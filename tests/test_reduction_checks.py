"""The per-draw checks call numpy's ufunc reductions directly.  Each function
must decide, raise and return exactly as its earlier method-based form
(ndarray.min/max/sum/all, np.any, np.mean, np.searchsorted), kept here as the
oracle: the same exception type and message, the same kinds of warning, or
bit-identical results.  The randomized statistic's collapse test is checked
against its element-wise reference in test_gof."""

import dataclasses
import warnings
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import special as sp

from bayesgof import binning, gof, models, probkit
from bayesgof.binning import BinScheme, equiprobable
from bayesgof.errors import DomainError, EvaluationError
from bayesgof.probkit import RngStream

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
    if width.size and not width.min() > 0.0:
        at_edge = (width == 0.0) & ((hi == 0.0) | (lo == 1.0))
        if np.any(~((width > 0.0) | at_edge)):
            raise DomainError(
                "zero-probability outcome: f_below must be < f_at, or equal at 0 or 1"
            )
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
        raise EvaluationError(
            f"cell probability below the {gof.PROB_FLOOR} floor in cells "
            f"{np.nonzero(p < gof.PROB_FLOOR)[0].tolist()}"
        )
    expected = n[..., None] * p
    value = ((m - expected) ** 2 / expected).sum(axis=-1)
    return float(value) if m.ndim == 1 else value


def _old_reference_auc(values, dof):
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise DomainError("need a non-empty 1-D vector of statistic values")
    if not np.all(np.isfinite(v)) or np.any(v < 0):
        raise DomainError("statistic values must be finite and non-negative")
    if dof < 1:
        raise DomainError(f"dof must be >= 1, got {dof}")
    return float(np.mean(probkit.chi2_cdf(dof, v)))


# --- outcomes, compared bit for bit -----------------------------------------


def _bits(out):
    if isinstance(out, tuple):
        return tuple(_bits(v) for v in out)
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


_MODELS = [
    models.NormalModel(),
    models.PoissonCommonRate([1.0, 2.0]),
    models.PoissonSaturated([1.0, 2.0, 3.0]),
    models.PoissonExchangeable([1.0, 2.0]),
]


@settings(max_examples=300, deadline=None)
@given(
    model=st.sampled_from(_MODELS),
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

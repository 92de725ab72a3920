"""Bin-scheme construction, right-closed assignment, and randomized allocation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayesgof import binning
from bayesgof.binning import BinScheme, assign, assign_discrete_randomized, equiprobable, tally
from bayesgof.errors import DomainError
from bayesgof.probkit import RngStream

from conftest import MAX_CUT, scheme_of_cuts


@pytest.mark.parametrize("k", [4, binning._EDGE_LOOP_MAX_CELLS, binning._EDGE_LOOP_MAX_CELLS + 1])
def test_tally_of_lists_equals_the_array_call(k):
    # a 2-D batch is counted edge by edge up to _EDGE_LOOP_MAX_CELLS cells,
    # by search above; a vector always by search
    u = RngStream(7).generator.random((3, 40))
    u[0, :3] = (0.0, -0.0, 1.0)
    scheme = equiprobable(k)
    assert np.array_equal(tally(scheme, u[0].tolist()), tally(scheme, u[0]))
    assert np.array_equal(tally(scheme, u.tolist()), tally(scheme, u))
    with pytest.raises(DomainError, match=r"got shape \(1, 3, 40\)$"):
        tally(scheme, [u.tolist()])


def test_equiprobable_edges():
    assert np.allclose(equiprobable(5).edges, (0.0, 0.2, 0.4, 0.6, 0.8, 1.0))
    assert np.allclose(equiprobable(2).edges, (0.0, 0.5, 1.0))
    assert np.allclose(equiprobable(10).widths(), 0.1, atol=1e-15)


def test_equiprobable_rejects_tiny_k():
    with pytest.raises(DomainError):
        equiprobable(1)


def test_default_bin_count():
    assert binning.default_bin_count(50) == 5
    assert binning.default_bin_count(56) == 5
    assert binning.default_bin_count(10) == 3
    assert binning.default_bin_count(200) == 8


def test_assign_boundaries():
    # indexes are 0-based: spec-level "bin 1" is index 0
    s = equiprobable(5)
    assert assign(s, 0.2) == 0
    assert assign(s, 0.200001) == 1
    assert assign(s, 1.0) == 4
    assert assign(s, 0.0) == 0


def test_assign_right_closed_at_every_interior_edge():
    s = equiprobable(5)
    for k, edge in enumerate(s.edges[1:-1]):
        assert assign(s, edge) == k


def test_assign_rejects_out_of_range():
    s = equiprobable(3)
    with pytest.raises(DomainError):
        assign(s, -0.01)
    with pytest.raises(DomainError):
        assign(s, 1.01)


def test_assign_vectorized_matches_scalar():
    s = BinScheme(edges=(0.0, 0.1, 0.55, 1.0))
    u = np.linspace(0.0, 1.0, 101)
    vec = assign(s, u)
    assert list(vec) == [assign(s, float(x)) for x in u]


def _assign_by_all_edges(scheme, u):
    """Bin index searched over every edge, 0 moved to bin 0: the reference
    the interior-edge search must agree with."""
    idx = np.searchsorted(np.asarray(scheme.edges), np.asarray(u, dtype=float), side="left")
    return np.maximum(idx, 1) - 1


_schemes = st.one_of(
    st.integers(2, 12).map(equiprobable),
    st.lists(st.floats(binning.PROB_FLOOR, MAX_CUT), min_size=1, max_size=10).map(
        scheme_of_cuts
    ),
)


@settings(max_examples=200, deadline=None)
@given(scheme=_schemes, data=st.data())
def test_assign_matches_the_all_edge_search(scheme, data):
    points = st.one_of(
        st.floats(0.0, 1.0), st.sampled_from([*scheme.edges, 0.0, -0.0, 1.0])
    )
    values = data.draw(st.lists(points, min_size=1, max_size=24))
    for u in values:  # scalar
        assert assign(scheme, u) == _assign_by_all_edges(scheme, u)
    vector = np.array(values)
    assert np.array_equal(assign(scheme, vector), _assign_by_all_edges(scheme, vector))
    rows = data.draw(st.integers(1, 4))
    batch = np.resize(vector, (rows, vector.size))
    got = assign(scheme, batch)
    assert got.shape == batch.shape
    assert np.array_equal(got, _assign_by_all_edges(scheme, batch))


def test_randomized_split_between_two_bins():
    # mass interval (0.1, 0.3] overlaps cells 1 and 2 equally
    s = equiprobable(5)
    rng = RngStream(314)
    hits = np.array([assign_discrete_randomized(s, 0.1, 0.3, rng) for _ in range(100_000)])
    frac0 = np.mean(hits == 0)
    frac1 = np.mean(hits == 1)
    assert abs(frac0 - 0.5) < 0.01
    assert abs(frac1 - 0.5) < 0.01


def test_randomized_interval_inside_one_cell():
    s = equiprobable(5)
    rng = RngStream(3)
    for _ in range(200):
        assert assign_discrete_randomized(s, 0.25, 0.35, rng) == 1


def test_randomized_full_support_matches_cell_probs():
    s = equiprobable(4)
    rng = RngStream(55)
    hits = np.array([assign_discrete_randomized(s, 0.0, 1.0, rng) for _ in range(100_000)])
    for k in range(4):
        assert abs(np.mean(hits == k) - 0.25) < 0.01


def test_randomized_takes_a_collapsed_pair_and_rejects_a_bad_one():
    # a pair collapsed inside (0, 1) holds a mass below the rounding of its
    # CDF values, and its point is f_at: 0.4 lies in (0.2, 0.4], cell 1.  An
    # inverted pair, or one with a NaN, is refused.
    s = equiprobable(5)
    assert assign_discrete_randomized(s, 0.4, 0.4, RngStream(0)) == assign(s, 0.4) == 1
    with pytest.raises(DomainError):
        assign_discrete_randomized(s, 0.4, 0.3, RngStream(0))
    for lo, hi in ((np.nan, np.nan), (np.nan, 0.4), (0.4, np.nan)):
        with pytest.raises(DomainError):
            assign_discrete_randomized(s, lo, hi, RngStream(0))


def test_randomized_collapsed_edges_take_their_point():
    # a far-tail outcome whose CDF values round to 1 (or 0) lands in the cell
    # its exact interval lies in; an inverted interval is still rejected
    s = equiprobable(5)
    idx = assign_discrete_randomized(
        s, np.array([1.0, 0.0, 0.3]), np.array([1.0, 0.0, 0.5]), RngStream(2)
    )
    assert idx[0] == 4 and idx[1] == 0
    with pytest.raises(DomainError):
        assign_discrete_randomized(s, 1.0, 0.9, RngStream(0))


def test_tally_rows_match_single_tallies():
    s = equiprobable(4)
    u = RngStream(89).generator.random((6, 30))
    rows = tally(s, u)
    assert rows.shape == (6, 4)
    for i in range(6):
        assert np.array_equal(rows[i], tally(s, u[i]))


def _tally_by_search(scheme, u):
    """Rows of counts by a search per value and one bincount over row-offset
    indexes: the form the 2-D tally replaced, kept as its reference."""
    idx = assign(scheme, u)
    rows, k = idx.shape[0], scheme.k
    idx = idx + np.arange(rows)[:, None] * k  # row r counts in cells r*k .. r*k + k - 1
    return np.bincount(idx.ravel(), minlength=rows * k).reshape(rows, k)


# the schemes above, and equiprobable ones on both sides of the cell count
# where a 2-D tally moves from the edge-by-edge count to the search
_batch_schemes = st.one_of(
    _schemes,
    st.integers(binning._EDGE_LOOP_MAX_CELLS - 2, binning._EDGE_LOOP_MAX_CELLS + 2).map(
        equiprobable
    ),
)


@settings(max_examples=200, deadline=None)
@given(scheme=_batch_schemes, data=st.data())
def test_batch_tally_matches_the_search_form(scheme, data):
    points = st.one_of(
        st.floats(0.0, 1.0), st.sampled_from([*scheme.edges, 0.0, -0.0, 1.0])
    )
    rows = data.draw(st.integers(0, 5))
    cols = data.draw(st.integers(0, 12))
    u = np.array(data.draw(st.lists(points, min_size=rows * cols, max_size=rows * cols)),
                 dtype=float).reshape(rows, cols)
    got = tally(scheme, u)
    want = _tally_by_search(scheme, u)
    assert got.shape == (rows, scheme.k) and got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert got.flags.c_contiguous  # pearson sums each row as it would the search form's


@pytest.mark.parametrize("n", [127, 128, 255, 256, 65535, 65536, 70000])
def test_batch_tally_counts_past_each_small_integer_width(n):
    # every value in the last cell, or in the first: a count of n above or
    # below every edge, at the widths where a narrower sum type would wrap
    s = equiprobable(3)
    u = np.zeros((3, n))
    u[0] = 1.0
    u[2, ::2] = 0.5
    assert np.array_equal(tally(s, u), _tally_by_search(s, u))
    assert tally(s, u)[0].tolist() == [0, 0, n]


@settings(max_examples=100, deadline=None)
@given(scheme=_batch_schemes, data=st.data())
def test_batch_tally_rejects_what_the_search_form_rejects(scheme, data):
    bad = data.draw(st.sampled_from(
        [np.nan, -np.inf, np.inf, -1e-300, 1.0 + 2.0**-52, -0.5, 7.0]
    ))
    rows, cols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 8))
    u = np.resize(np.linspace(0.0, 1.0, rows * cols), (rows, cols))
    u[data.draw(st.integers(0, rows - 1)), data.draw(st.integers(0, cols - 1))] = bad
    messages = []
    for count in (tally, _tally_by_search):
        with pytest.raises(DomainError) as info:
            count(scheme, u)
        messages.append(str(info.value))
    assert messages[0] == messages[1] == "assign requires values in [0, 1]"


def test_tally_hand_example():
    # u values landing in cells 1,1,2,5 of equiprobable(5), spec's 1-based terms
    s = equiprobable(5)
    counts = tally(s, np.array([0.1, 0.15, 0.3, 0.9]))
    assert list(counts) == [2, 1, 0, 0, 1]


def test_tally_empty():
    assert list(tally(equiprobable(3), np.array([]))) == [0, 0, 0]


@pytest.mark.parametrize("k", [5, 100])  # the edge loop and the search form
@pytest.mark.parametrize("shape", [(), (2, 3, 4), (1, 1, 1, 1)])
def test_tally_refuses_other_ranks(k, shape):
    with pytest.raises(DomainError, match="a vector or a 2-D batch"):
        tally(equiprobable(k), np.full(shape, 0.5))


def test_tally_uniform_band():
    rng = RngStream(88)
    counts = tally(equiprobable(5), rng.generator.random(1000))
    assert counts.sum() == 1000
    # binomial 3-sigma band around 200
    assert all(abs(int(c) - 200) <= 50 for c in counts)


def test_tally_multinomial_moments():
    # 200 replicate tallies, Pearson test against multinomial expectation
    s = equiprobable(5)
    rng = RngStream(1001)
    n = 250
    stats = []
    for _ in range(200):
        m = tally(s, rng.generator.random(n))
        stats.append(float(((m - n / 5) ** 2 / (n / 5)).sum()))
    # mean of chi2_4 draws: 4 with sd sqrt(8/200)
    assert abs(np.mean(stats) - 4.0) < 3 * np.sqrt(8.0 / 200)


def test_randomized_pit_uniformity():
    # outcomes drawn from the model used for the CDF pair give uniform u
    from bayesgof import probkit

    mean = 3.0
    rng = RngStream(707)
    gen = rng.generator
    y = gen.poisson(mean, 10_000)
    f_at = probkit.poisson_cdf(mean, y)
    f_below = np.where(y > 0, probkit.poisson_cdf(mean, y - 1), 0.0)
    v = rng.open_uniform(10_000)
    u = np.sort(f_at - v * (f_at - f_below))
    grid = (np.arange(1, u.size + 1)) / u.size
    d = float(np.max(np.maximum(grid - u, u - (grid - 1.0 / u.size))))
    assert d < 1.628 / np.sqrt(u.size)


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=0, max_size=400),
       st.integers(min_value=2, max_value=12))
@settings(deadline=None, max_examples=60)
def test_counts_always_sum_to_n(us, k):
    counts = tally(equiprobable(k), np.array(us))
    assert counts.sum() == len(us)
    assert counts.shape == (k,)


@given(st.integers(min_value=2, max_value=10))
@settings(deadline=None, max_examples=30)
def test_interior_edges_belong_to_left_cell(k):
    s = equiprobable(k)
    for j in range(1, k):
        assert assign(s, s.edges[j]) == j - 1


def test_scheme_requires_monotone_edges():
    with pytest.raises(DomainError):
        BinScheme(edges=(0.0, 0.6, 0.4, 1.0))
    with pytest.raises(DomainError):
        BinScheme(edges=(0.1, 0.5, 1.0))


@pytest.mark.parametrize(
    "scheme",
    [equiprobable(k) for k in range(2, 13)] + [BinScheme((0.0, 0.05, 0.3, 0.31, 0.9, 1.0))],
)
def test_widths_are_the_edge_differences_and_read_only(scheme):
    w = scheme.widths()
    assert np.array_equal(w, np.diff(np.asarray(scheme.edges)))
    assert w is scheme.widths()
    with pytest.raises(ValueError):
        w[0] = 0.5
    assert np.array_equal(assign(scheme, scheme.edges), [0, *range(scheme.k)])


def test_equal_schemes_compare_and_hash_equal():
    a, b = equiprobable(5), BinScheme(tuple(j / 5 for j in range(6)))
    assert a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert a != equiprobable(4)
    assert repr(a) == f"BinScheme(edges={a.edges!r})"

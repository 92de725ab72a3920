"""Bin schemes on the unit interval and assignment of probability transforms.

Bins are right-closed: bin k is (edges[k], edges[k+1]], except that 0 itself
belongs to the first bin.  Assignment uses exact comparisons against the
stored edges; no epsilon fuzzing, so callers get reproducible counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EvaluationError, first_ten
from .probkit import RngStream

__all__ = [
    "PROB_FLOOR",
    "BinScheme",
    "check_cell_probs",
    "equiprobable",
    "default_bin_count",
    "assign",
    "assign_discrete_randomized",
    "tally",
]


# the least probability a cell of a Pearson statistic may have
PROB_FLOOR = 1e-12


def check_cell_probs(p: np.ndarray) -> list[float]:
    """The cell probabilities of a float vector p as Python floats.
    DomainError unless they sum to 1 within 1e-9; EvaluationError, naming
    the cells, if one lies below PROB_FLOOR."""
    total = np.add.reduce(p)
    # written so that NaN fails
    if not abs(total - 1.0) <= 1e-9:
        raise DomainError(f"cell probabilities must sum to 1, got {total!r}")
    q = p.tolist()
    # the sum is finite, so no probability is NaN
    if not min(q) >= PROB_FLOOR:
        raise EvaluationError(
            f"cell probability below the {PROB_FLOOR} floor in cells "
            f"{first_ten(np.nonzero(p < PROB_FLOOR)[0].tolist())}"
        )
    return q


@dataclass(frozen=True)
class BinScheme:
    """Ordered cut points 0 = a_0 < a_1 < ... < a_K = 1 on the unit interval.

    The widths are the cell probabilities of a Pearson statistic: a scheme
    whose widths fail check_cell_probs is refused, with what it raises.
    The interior edges, the widths and the checked probabilities are kept,
    built once: a scheme is evaluated once per posterior draw.  None of
    these are fields, so equality, hashing and repr see the edge tuple only.
    """

    edges: tuple[float, ...]

    def __post_init__(self) -> None:
        e = self.edges
        if len(e) < 3:
            raise DomainError("a bin scheme needs at least two bins")
        if e[0] != 0.0 or e[-1] != 1.0:
            raise DomainError(f"edges must start at 0 and end at 1, got {e[0]}..{e[-1]}")
        if any(not (lo < hi) for lo, hi in zip(e, e[1:])):
            raise DomainError("edges must be strictly increasing")
        interior = np.asarray(e[1:-1], dtype=float)
        widths = np.asarray(np.diff(np.asarray(e)), dtype=float)
        interior.setflags(write=False)
        widths.setflags(write=False)
        object.__setattr__(self, "_interior", interior)
        object.__setattr__(self, "_widths", widths)
        object.__setattr__(self, "_probs", check_cell_probs(widths))

    @property
    def k(self) -> int:
        return len(self.edges) - 1

    def widths(self) -> np.ndarray:
        """Cell probabilities implied by the edges (read-only, shared)."""
        return self._widths

    def cell_probs(self) -> list[float]:
        """What check_cell_probs(self.widths()) returned when the scheme was
        built (shared)."""
        return self._probs


def equiprobable(k: int) -> BinScheme:
    """K cells of probability 1/K each."""
    if k < 2:
        raise DomainError(f"equiprobable requires k >= 2, got {k}")
    return BinScheme(tuple(j / k for j in range(k + 1)))


def default_bin_count(n: int) -> int:
    """Rule-of-thumb cell count n**0.4, floored at 3."""
    if n < 1:
        raise DomainError(f"default_bin_count requires n >= 1, got {n}")
    return max(3, int(math.floor(n**0.4 + 0.5)))


def assign(scheme: BinScheme, u):
    """0-based bin index of u in [0, 1]; right-closed cells, 0 goes to bin 0.

    The index is the number of interior edges strictly below u, so an
    interior edge belongs to the cell on its left and 0 (or -0.0) to bin 0.
    Vectorized over u, with an index of the same shape; raises DomainError
    if any value leaves [0, 1].
    """
    return scheme._interior.searchsorted(_unit_values(u), side="left")


def _unit_values(u) -> np.ndarray:
    """u as a float array; DomainError if any value leaves [0, 1]."""
    arr = np.asarray(u, dtype=float)
    # one min/max pass; NaN fails both comparisons.  The ufunc reductions are
    # what ndarray.min/max call, without their Python-level wrappers.
    if arr.size and not (
        np.minimum.reduce(arr, axis=None) >= 0.0 and np.maximum.reduce(arr, axis=None) <= 1.0
    ):
        raise DomainError("assign requires values in [0, 1]")
    return arr


def assign_discrete_randomized(scheme: BinScheme, f_below, f_at, rng: RngStream):
    """Bin for a discrete outcome via a uniform draw on its CDF mass interval.

    The outcome occupies (f_below, f_at] of the unit interval; a point u is
    drawn uniformly from that interval and assigned as usual, which is
    equivalent in law to allocating the outcome's mass proportionally across
    the cells it straddles.

    The pair must satisfy 0 <= f_below <= f_at <= 1, or DomainError is
    raised (NaN fails).  A collapsed pair, f_below == f_at, is an outcome
    whose mass is below the rounding of its CDF values; its point is f_at.
    Every outcome draws its uniform, collapsed or not.
    """
    lo = np.asarray(f_below, dtype=float)
    hi = np.asarray(f_at, dtype=float)
    if lo.size and not (
        np.minimum.reduce(lo, axis=None) >= 0.0 and np.maximum.reduce(hi, axis=None) <= 1.0
    ):
        raise DomainError("CDF values must lie in [0, 1]")
    width = hi - lo
    if width.size and not np.minimum.reduce(width, axis=None) >= 0.0:
        raise DomainError("CDF values must not decrease: f_below must be <= f_at")
    v = rng.generator.random(lo.shape if lo.ndim else None)
    u = hi - v * width  # lands in (f_below, f_at], or on f_at when collapsed
    return assign(scheme, u)


def tally(scheme: BinScheme, u) -> np.ndarray:
    """Counts per cell for a vector of unit-interval values, or one row of
    counts per row of a 2-D batch; DomainError for any other rank.

    A vector, and a 2-D batch of more than _EDGE_LOOP_MAX_CELLS cells, go
    through assign: a binary search per value, then one bincount, over
    row-offset indexes for a batch.  A 2-D batch of fewer cells is counted
    edge by edge instead (_tally_by_edge), with the same counts.
    """
    rank = np.ndim(u)
    if rank == 1:
        return np.bincount(assign(scheme, u), minlength=scheme.k)
    if rank != 2:
        raise DomainError(f"tally takes a vector or a 2-D batch, got shape {np.shape(u)}")
    if scheme.k <= _EDGE_LOOP_MAX_CELLS:
        return _tally_by_edge(scheme, u)
    idx = assign(scheme, u)
    rows, k = idx.shape[0], scheme.k
    idx += np.arange(rows)[:, None] * k  # row r counts in cells r*k .. r*k + k - 1
    return np.bincount(idx.ravel(), minlength=rows * k).reshape(rows, k)


# The edge-by-edge count makes one pass over the batch per interior edge, so
# its cost grows with k where the search's grows with log k.  On a 2-core
# Xeon it ran 1.9x, 1.45x and 1.08x the search's speed at 64 cells on
# 500 x 50, 500 x 1000 and 100 x 10 000 batches, and fell behind it at
# about 130, 110 and 80 cells.
_EDGE_LOOP_MAX_CELLS = 64


def _tally_by_edge(scheme: BinScheme, u) -> np.ndarray:
    """tally of a 2-D batch: for each interior edge, the number of values in
    each row strictly above it.  A cell's count is the count above its left
    edge less the count above its right edge, all n values counted for the
    edge 0 and none for the edge 1.  These are assign's counts (right-closed
    cells, 0 and -0.0 in the first).

    The batch is copied as observations x rows, so each edge takes one
    comparison into a reused bool buffer and one sum that adds whole rows of
    it, in the smallest unsigned type that holds n (no count exceeds n).
    """
    by_obs = np.ascontiguousarray(_unit_values(u).T)
    n, rows = by_obs.shape
    above = np.empty((rows, scheme.k + 1), dtype=np.intp)
    above[:, 0] = n
    above[:, -1] = 0
    above_edge = np.empty(by_obs.shape, dtype=bool)
    count_type = np.min_scalar_type(n)
    for j, edge in enumerate(scheme.edges[1:-1], start=1):
        np.greater(by_obs, edge, out=above_edge)
        above[:, j] = np.add.reduce(above_edge, axis=0, dtype=count_type)
    return above[:, :-1] - above[:, 1:]

"""Probability kit: distribution functions and splittable random streams.

Distribution functions are thin, vectorized wrappers over scipy.special
primitives (regularized incomplete gamma, erfc), chosen
so that upper tails are computed directly instead of as 1 - cdf.  Random
streams are counter-based (Philox) and keyed by (seed, path), so any stream
can be split into child streams that are independent by construction and
reproducible across runs and worker counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special as sp

from .errors import DomainError

__all__ = [
    "MAX_SEED",
    "RngStream",
    "split",
    "normal_cdf",
    "normal_quantile",
    "chi2_cdf",
    "chi2_survival",
    "chi2_quantile",
    "chi2_upper_quantile",
    "poisson_cdf",
]

MAX_SEED = 2**64  # root seeds lie in [0, MAX_SEED)


# ---------------------------------------------------------------------------
# random streams
# ---------------------------------------------------------------------------

@dataclass
class RngStream:
    """A seeded random stream addressed by (seed, path).

    ``path`` is the sequence of child ids produced by successive ``split``
    calls; the empty path is the root stream.  Identical (seed, path) pairs
    produce identical draw sequences on any host and with any number of
    concurrent workers, because the underlying bit generator is Philox keyed
    deterministically from those two values.  A stream is stateful: draws
    advance it, so a stream should be owned by one execution context at a
    time and fresh work should get fresh children via ``split``.
    """

    seed: int
    path: tuple[int, ...] = ()
    _gen: np.random.Generator | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not isinstance(self.seed, (int, np.integer)) or isinstance(self.seed, bool):
            raise DomainError("seed must be an integer")
        if not 0 <= self.seed < MAX_SEED:
            raise DomainError(f"seed must be in [0, 2**64), got {self.seed}")
        if any(c < 0 for c in self.path):
            raise DomainError("stream path entries must be non-negative")

    @property
    def generator(self) -> np.random.Generator:
        if self._gen is None:
            ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.path)
            self._gen = np.random.Generator(np.random.Philox(ss))
        return self._gen

    def open_uniform(self, size: int | tuple[int, ...]) -> np.ndarray:
        """An array of uniform draws nudged into the open interval (0, 1)."""
        return np.maximum(self.generator.random(size), np.nextafter(0.0, 1.0))


def split(rng: RngStream, child_id: int) -> RngStream:
    """Derive an independent child stream; pure in (seed, path, child_id)."""
    if not isinstance(child_id, (int, np.integer)) or isinstance(child_id, bool):
        raise DomainError("child_id must be an integer")
    if child_id < 0:
        raise DomainError(f"child_id must be non-negative, got {child_id}")
    return RngStream(rng.seed, rng.path + (int(child_id),))


# ---------------------------------------------------------------------------
# vectorized primitive curves
# ---------------------------------------------------------------------------

# dividing by -sqrt(2) rounds as -z / sqrt(2) does, in one pass over z, not
# two; the CDF is the same bit for bit
_NEG_SQRT2 = -math.sqrt(2.0)


def normal_cdf(z):
    """Standard normal CDF via erfc; absolute error at double precision."""
    z = np.asarray(z, dtype=float)
    out = 0.5 * sp.erfc(z / _NEG_SQRT2)
    return out if out.ndim else float(out)


def normal_quantile(p):
    p = np.asarray(p, dtype=float)
    out = sp.ndtri(p)
    return out if out.ndim else float(out)


def chi2_cdf(df: float, x):
    x = np.asarray(x, dtype=float)
    out = sp.gammainc(df / 2.0, np.maximum(x, 0.0) / 2.0)
    return out if out.ndim else float(out)


def chi2_survival(df: float, x):
    x = np.asarray(x, dtype=float)
    out = sp.gammaincc(df / 2.0, np.maximum(x, 0.0) / 2.0)
    return out if out.ndim else float(out)


def chi2_quantile(df: float, p):
    p = np.asarray(p, dtype=float)
    out = 2.0 * sp.gammaincinv(df / 2.0, p)
    return out if out.ndim else float(out)


def chi2_upper_quantile(df: float, q):
    """x with chi2_survival(df, x) = q; stable deep in the upper tail."""
    q = np.asarray(q, dtype=float)
    out = 2.0 * sp.gammainccinv(df / 2.0, q)
    return out if out.ndim else float(out)


def poisson_cdf(mean, k):
    """P(Y <= floor(k)) for Y ~ poisson(mean); 0 below the support.

    scipy's pdtr floors k itself; for a k below 0 it gives NaN, which
    becomes 0 here.
    """
    k = np.asarray(k, dtype=float)
    if k.size and np.minimum.reduce(k, axis=None) >= 0.0:  # NaN fails too
        out = sp.pdtr(k, mean)
    else:
        out = np.where(k < 0.0, 0.0, sp.pdtr(k, mean))
    return out if out.ndim else float(out)


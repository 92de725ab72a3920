"""Built-in models with posterior samplers and observation-level CDFs.

Every model exposes the same behavioral surface consumed by the gof,
harness and cli modules:

- ``obs_cdf(y, theta)`` (continuous) evaluates each observation's own CDF at
  the observed value; given a stack of draws it returns draws x
  observations, row i equal to the call at draw i alone;
- ``obs_cdf_pair(y, theta)`` (discrete) gives each outcome's CDF below and at
  the observed value, and ``obs_logpmf`` its log mass, which tells a zero
  mass from one too small for the rounded CDF pair to resolve;
- ``posterior_sample(data, size, rng)`` returns a stack of size draws from
  the posterior given the data, and ``posterior_draw`` one draw; the
  conjugate models make both by ``posterior_draws``, whose draw 0 is
  ``posterior_draw``, and the exchangeable model by ``run_chain``;
- ``predictive_draw`` replicates a dataset at a fixed parameter value;
- ``obs_mean_var`` gives per-observation predictive moments;
- ``theta_from_vector(values)`` builds theta from a flat vector of
  ``theta_size`` values, raising DomainError for a wrong length, a
  non-finite value or a non-positive scale, rate, mean or sigma2;
- for the classical comparators the normal model also has ``mle`` for the
  raw-data maximum-likelihood estimate, ``quantile_edges`` for the
  data-space cut points at a parameter value, ``cell_probs`` for the cells
  between cut points, ``free_params`` / ``theta_from_free`` for unconstrained
  coordinates, and ``cell_probs_jacobian`` for the derivative of the cell
  probabilities in those coordinates.

theta is a float vector of ``theta_size`` values in ``theta_from_vector``'s
layout: (mu, sigma) for the normal model, (rate,) for the pooled Poisson
model, the n means for the saturated model and (alpha0, gamma_1, ...,
gamma_n, sigma2) for the exchangeable model.  A stack of D draws is a
(D, theta_size) array whose row i is draw i; a (mu, sigma) pair, as ``mle``
gives it, reads as a normal theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import probkit
from .errors import DataError, DomainError, EvaluationError
from .probkit import RngStream, split

__all__ = [
    "NormalModel",
    "PoissonCommonRate",
    "PoissonSaturated",
    "PoissonExchangeable",
    "ChainSettings",
    "ChainResult",
    "normal_posterior_from_uniforms",
    "generate_t",
]


# ---------------------------------------------------------------------------
# normal model, reference prior 1/sigma
# ---------------------------------------------------------------------------

def _normal_sample(data) -> tuple[np.ndarray, float]:
    """The sample as floats and its variance s^2, checked to be positive."""
    y = np.asarray(data, dtype=float)
    if y.ndim != 1 or y.size < 2:
        raise DataError("need a 1-D sample with at least two observations")
    if not np.all(np.isfinite(y)):
        raise DataError("observations must be finite")
    s2 = y.var(ddof=1)
    if s2 <= 0.0:
        raise DataError("degenerate sample: all observations are equal")
    return y, s2


def _parameter_vector(values, size: int, positive) -> np.ndarray:
    """values as a vector of size finite floats whose [positive] entries are > 0."""
    v = np.asarray(values, dtype=float)
    if (
        v.shape != (size,)
        or not np.logical_and.reduce(np.isfinite(v))
        or not np.logical_and.reduce(v[positive] > 0.0, axis=None)
    ):
        raise DomainError(
            f"need {size} finite parameter values with a positive scale, rate, mean or sigma2"
        )
    return v


def _column_span(t: np.ndarray) -> tuple[list, list]:
    """Each column's smallest and largest entry as floats; a single draw skips
    numpy's reductions, which cost more than the rest of its CDF transform."""
    if t.ndim == 1:
        row = t.tolist()
        return row, row
    return np.minimum.reduce(t, axis=0).tolist(), np.maximum.reduce(t, axis=0).tolist()


def normal_posterior_from_uniforms(data, v_sigma, v_mu):
    """Deterministic posterior draws from explicit uniforms.

    The scale is inverted first from its marginal posterior, then the
    location from its conditional posterior given that scale:

        sigma^2 = (n - 1) s^2 / Q   with Q the upper-tail chi-square(n - 1)
                  point at v_sigma,
        mu      = ybar + sigma / sqrt(n) * Phi^{-1}(v_mu).

    Two floats give one draw; two arrays of uniforms give arrays of draws,
    element i from (v_sigma[i], v_mu[i]).  Feeding fixed uniforms makes the
    construction exactly equivariant under affine changes of the data, which
    is what pins down location-scale invariance of the downstream statistics.
    """
    y, s2 = _normal_sample(data)
    v_sigma, v_mu = np.asarray(v_sigma, dtype=float), np.asarray(v_mu, dtype=float)
    lo, hi = np.minimum(v_sigma, v_mu), np.maximum(v_sigma, v_mu)  # NaN propagates
    if not (0.0 < np.minimum.reduce(lo, axis=None) and np.maximum.reduce(hi, axis=None) < 1.0):
        raise DomainError("uniforms must lie strictly inside (0, 1)")
    n = y.size
    sigma = np.sqrt((n - 1) * s2 / probkit.chi2_upper_quantile(n - 1, v_sigma))
    mu = y.mean() + sigma / math.sqrt(n) * probkit.normal_quantile(v_mu)
    return mu, sigma


class NormalModel:
    """I.i.d. normal observations under the scale-reference prior 1/sigma."""

    is_discrete = False
    n_params = 2
    theta_size = 2

    def validate_data(self, data) -> np.ndarray:
        return _normal_sample(data)[0]

    def theta_from_vector(self, values) -> np.ndarray:
        return _parameter_vector(values, self.theta_size, positive=1)

    def obs_cdf(self, y, theta):
        t = np.asarray(theta, dtype=float)
        if t.shape[-1:] != (2,) or t.ndim > 2:
            raise DomainError(f"need (mu, sigma) or rows of them, got shape {t.shape}")
        (mu_lo, sigma_lo), (mu_hi, sigma_hi) = _column_span(t)
        # NaN fails every comparison
        if not (-math.inf < mu_lo and mu_hi < math.inf and 0.0 < sigma_lo and sigma_hi < math.inf):
            raise DomainError(f"normal parameters (mu, sigma) outside the space: {t}")
        # columns mu and sigma: n values for a draw, D x n for a stack of D
        return probkit.normal_cdf((np.asarray(y, dtype=float) - t[..., :1]) / t[..., 1:])

    def posterior_draw(self, data, rng: RngStream) -> np.ndarray:
        return self.posterior_draws(data, 1, rng)[0]

    def posterior_draws(self, data, size: int, rng: RngStream) -> np.ndarray:
        """size x 2 stacked draws (mu, sigma), each column contiguous for
        obs_cdf's checks; draw 0 equals posterior_draw under the same stream."""
        v = rng.open_uniform((size, 2))
        return np.array(normal_posterior_from_uniforms(data, v[:, 0], v[:, 1])).T

    def posterior_sample(self, data, n_draws: int, rng: RngStream) -> np.ndarray:
        return self.posterior_draws(data, n_draws, rng)

    def predictive_draw(self, theta, rng: RngStream, n: int) -> np.ndarray:
        mu, sigma = theta
        return mu + sigma * rng.generator.standard_normal(n)

    def quantile_edges(self, theta, k: int) -> np.ndarray:
        """The k - 1 data-space cut points at the k-tiles of the model at theta."""
        mu, sigma = theta
        return mu + sigma * probkit.normal_quantile(np.arange(1, k) / k)

    def mle(self, data) -> tuple[float, float]:
        y = _normal_sample(data)[0]
        return (float(y.mean()), float(math.sqrt(y.var(ddof=0))))

    def obs_mean_var(self, theta) -> tuple[float, float]:
        mu, sigma = theta
        return mu, sigma * sigma

    def cell_probs(self, edges, theta) -> np.ndarray:
        """Cell probabilities between increasing cut points, each taken on
        the side of 0 where it keeps full relative precision: a cell below 0
        as Phi(z_hi) - Phi(z_lo), a cell above 0 as Phi(-z_lo) - Phi(-z_hi),
        and the cell that holds 0 as 1 - Phi(z_lo) - Phi(-z_hi).  All three
        are differences of the smaller tail Phi(-|z|) at each edge."""
        mu, sigma = theta
        z = (np.asarray(edges, dtype=float) - mu) / sigma
        small = np.zeros(z.size + 2)  # 0 at the infinite outer edges
        small[1:-1] = probkit.normal_cdf(-np.abs(z))
        p = small[1:] - small[:-1]
        m = int(np.count_nonzero(z <= 0.0))  # cells 0..m-1 lie below 0
        p[m + 1:] = small[m + 1:-1] - small[m + 2:]
        p[m] = 1.0 - small[m] - small[m + 1]
        return p

    def cell_probs_jacobian(self, edges, theta) -> np.ndarray:
        """K x 2 derivative of cell_probs with respect to free_params
        (mu, log sigma): -diff(phi(z)) / sigma and -diff(z phi(z)), the
        differences taken between each cell's upper and lower edge, where
        phi and z phi vanish at the infinite outer edges."""
        mu, sigma = theta
        z = (np.asarray(edges, dtype=float) - mu) / sigma
        phi = probkit.normal_pdf(z)
        at_edges = np.zeros((z.size + 2, 2))
        at_edges[1:-1, 0] = phi / sigma
        at_edges[1:-1, 1] = z * phi
        return -np.diff(at_edges, axis=0)

    def free_params(self, theta) -> np.ndarray:
        mu, sigma = theta
        return np.array([mu, math.log(sigma)])

    def theta_from_free(self, vec) -> tuple[float, float]:
        return (float(vec[0]), float(math.exp(vec[1])))


# ---------------------------------------------------------------------------
# Poisson count models with known exposures
# ---------------------------------------------------------------------------

def _validate_offsets(offsets) -> np.ndarray:
    e = np.asarray(offsets, dtype=float)
    if e.ndim != 1 or e.size < 1:
        raise DataError("offsets must be a non-empty 1-D vector")
    if not np.all(np.isfinite(e)) or np.any(e <= 0.0):
        raise DataError("offsets must be finite and positive")
    with np.errstate(over="ignore"):
        total = e.sum()
    if not np.isfinite(total):  # the rate posterior and the chain start divide by it
        raise DataError(f"offsets must have a finite sum, got {total}")
    return e


def _validate_counts(data, n: int) -> np.ndarray:
    y = np.asarray(data)
    if y.ndim != 1 or y.size != n:
        raise DataError(f"need a 1-D count vector of length {n}, got shape {y.shape}")
    yf = y.astype(float)
    if not np.all(np.isfinite(yf)) or np.any(yf < 0) or np.any(yf != np.floor(yf)):
        raise DataError("counts must be non-negative integers")
    return yf.astype(np.int64)


_TINY = np.finfo(float).tiny


def _poisson_cdf_pair(y: np.ndarray, means: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # a mean below the smallest normal double has underflowed; a positive
    # count's log mass there is finite but meaningless
    low = np.minimum.reduce(means, axis=None)
    if not (_TINY <= low and np.maximum.reduce(means, axis=None) < np.inf):
        raise EvaluationError(f"Poisson means must be normal finite doubles, got {low}")
    k = np.asarray(y, dtype=float)  # converted once; poisson_cdf takes floats as they are
    f_at = probkit.poisson_cdf(means, k)
    f_below = probkit.poisson_cdf(means, k - 1.0)
    return f_below, f_at


class _PoissonBase:
    is_discrete = True

    def __init__(self, offsets) -> None:
        self.offsets = _validate_offsets(offsets)

    @property
    def n_obs(self) -> int:
        return self.offsets.size

    def validate_data(self, data) -> np.ndarray:
        return _validate_counts(data, self.n_obs)

    def obs_cdf_pair(self, y, theta):
        return _poisson_cdf_pair(np.asarray(y), self.means(theta))

    def obs_logpmf(self, y, theta):
        return probkit.poisson_logpmf(self.means(theta), np.asarray(y))

    def posterior_draw(self, data, rng: RngStream) -> np.ndarray:
        return self.posterior_draws(data, 1, rng)[0]

    def posterior_sample(self, data, n_draws: int, rng: RngStream) -> np.ndarray:
        return self.posterior_draws(data, n_draws, rng)

    def predictive_draw(self, theta, rng: RngStream, n: int | None = None) -> np.ndarray:
        means = self.means(theta)
        low, high = np.minimum.reduce(means, axis=None), np.maximum.reduce(means, axis=None)
        if not (0.0 < low and high < np.inf):  # NaN fails too
            raise DomainError("Poisson means must be positive and finite")
        return rng.generator.poisson(means)

    def obs_mean_var(self, theta):
        m = self.means(theta)
        return m, m


class PoissonCommonRate(_PoissonBase):
    """One shared rate: y_i ~ poisson(lam * E_i), flat prior on log(lam).

    The flat prior on the log-rate is 1/lam on the rate itself, so the
    posterior is gamma with shape sum(y) and rate sum(E) exactly.
    """

    n_params = 1
    theta_size = 1

    def theta_from_vector(self, values) -> np.ndarray:
        return _parameter_vector(values, self.theta_size, positive=0)

    def means(self, theta) -> np.ndarray:
        """n means for a draw, D x n for a stack of D."""
        return np.asarray(theta, dtype=float)[..., :1] * self.offsets

    def posterior_draws(self, data, size: int, rng: RngStream) -> np.ndarray:
        total = int(self.validate_data(data).sum())
        if total < 1:
            raise DataError("all counts are zero: the rate posterior is improper")
        return rng.generator.gamma(float(total), 1.0 / self.offsets.sum(), (size, 1))


class PoissonSaturated(_PoissonBase):
    """One free mean per observation, prior mu_i ** (-prior_exponent).

    Component posteriors are independent gamma(y_i + 1 - c, rate 1); with
    c = 1 a zero count makes its component improper, which is reported as a
    data error naming the offending observations.
    """

    def __init__(self, offsets, prior_exponent: float = 0.5) -> None:
        super().__init__(offsets)
        if prior_exponent not in (0.5, 1.0):
            raise DomainError(f"prior_exponent must be 0.5 or 1.0, got {prior_exponent}")
        self.prior_exponent = float(prior_exponent)

    @property
    def n_params(self) -> int:
        return self.n_obs

    @property
    def theta_size(self) -> int:
        return self.n_obs

    def theta_from_vector(self, values) -> np.ndarray:
        return _parameter_vector(values, self.theta_size, positive=slice(None))

    def means(self, theta) -> np.ndarray:
        return np.asarray(theta, dtype=float)

    def _posterior_shapes(self, data) -> np.ndarray:
        y = self.validate_data(data)
        shapes = y + 1.0 - self.prior_exponent
        if np.any(shapes <= 0.0):
            bad = np.nonzero(shapes <= 0.0)[0].tolist()
            raise DataError(
                "improper posterior components (zero count with prior exponent 1) "
                f"at observations {bad}"
            )
        return shapes

    def posterior_draws(self, data, size: int, rng: RngStream) -> np.ndarray:
        shapes = self._posterior_shapes(data)
        return rng.generator.gamma(shapes[None, :], 1.0, size=(size, shapes.size))


# ---------------------------------------------------------------------------
# exchangeable log-rates via Metropolis-within-Gibbs
# ---------------------------------------------------------------------------

# gamma variates drawn at once: a block of the chain holds CHAIN_ELEMENTS // n
# sweeps (at least one) of n counts, and its two float and one bool (block, n)
# arrays take about 17 * CHAIN_ELEMENTS bytes, 272 KB, whatever n is
CHAIN_ELEMENTS = 1 << 14


@dataclass(frozen=True)
class ChainSettings:
    """MCMC run lengths and adaptation targets for the exchangeable model."""

    retained: int = 5000
    burn_in: int = 2000
    thin: int = 4
    target_accept: float = 0.44
    initial_step: float = 0.2

    def __post_init__(self) -> None:
        if self.retained < 1 or self.burn_in < 0 or self.thin < 1:
            raise DomainError("chain settings must be positive (burn_in may be 0)")
        if not 0.0 < self.target_accept < 1.0:
            raise DomainError("target_accept must lie in (0, 1)")
        if self.initial_step <= 0.0:
            raise DomainError("initial_step must be positive")


@dataclass
class ChainResult:
    draws: np.ndarray  # retained x (n + 2), rows in theta_from_vector's layout
    accept_alpha0: float
    accept_gamma: float
    step_alpha0: float
    step_gamma: np.ndarray
    iterations: int


class PoissonExchangeable(_PoissonBase):
    """Log-rates alpha0 + gamma_i with exchangeable normal random effects.

    Priors: flat on alpha0, gamma_i ~ normal(0, sigma2) i.i.d., and
    inverse-gamma(0.001, 0.001) on sigma2 unless a fixed value is supplied.
    Sampling is random-walk Metropolis within Gibbs: scalar updates for
    alpha0, per-coordinate vectorized updates for gamma, and a conjugate
    inverse-gamma refresh for sigma2.  Step sizes adapt toward the target
    acceptance rate during burn-in only and are frozen afterwards, so the
    retained draws come from a fixed transition kernel.

    Each kind of variate has its own child of the chain's stream rng:
    split(rng, 0) the alpha0 proposal normals, split(rng, 1) the alpha0
    acceptance uniforms, split(rng, 2) the gamma proposal normals (one row of
    n per sweep), split(rng, 3) the gamma acceptance uniforms (likewise) and
    split(rng, 4) the sigma2 gamma variates.  Each is read a block of sweeps
    at a time (see CHAIN_ELEMENTS), and the draws are the same for any block
    size.  The children are derived from rng's (seed, path) alone, so the
    chain never advances rng itself: two calls with the same stream give the
    same draws.  Pass fresh children of a stream for independent chains.
    """

    def __init__(
        self,
        offsets,
        sigma2_shape: float = 0.001,
        sigma2_rate: float = 0.001,
        sigma2_fixed: float | None = None,
        settings: ChainSettings = ChainSettings(),
    ) -> None:
        super().__init__(offsets)
        if sigma2_shape <= 0.0 or sigma2_rate <= 0.0:
            raise DomainError("inverse-gamma hyperparameters must be positive")
        if sigma2_fixed is not None and sigma2_fixed <= 0.0:
            raise DomainError("a fixed sigma2 must be positive")
        self.sigma2_shape = float(sigma2_shape)
        self.sigma2_rate = float(sigma2_rate)
        self.sigma2_fixed = sigma2_fixed
        self.settings = settings

    @property
    def n_params(self) -> int:
        # alpha0 plus one random effect per observation (sigma2 is a hyperparameter)
        return 1 + self.n_obs

    @property
    def theta_size(self) -> int:
        return self.n_obs + 2

    def theta_from_vector(self, values) -> np.ndarray:
        return _parameter_vector(values, self.theta_size, positive=-1)

    def means(self, theta) -> np.ndarray:
        """n means for a draw, D x n for a stack of D."""
        t = np.asarray(theta, dtype=float)
        return np.exp(t[..., :1] + t[..., 1:-1]) * self.offsets

    def run_chain(
        self, data, rng: RngStream, settings: ChainSettings | None = None
    ) -> ChainResult:
        y = self.validate_data(data).astype(float)
        if y.sum() < 1:
            raise DataError("all counts are zero: cannot initialize the chain")
        cfg = settings if settings is not None else self.settings
        m = self.n_obs
        e = self.offsets

        alpha0 = math.log(float(y.sum() / e.sum()))
        sigma2 = self.sigma2_fixed if self.sigma2_fixed is not None else 0.1
        if not math.isfinite(alpha0):
            raise EvaluationError("log-posterior is not finite at initialization")

        step_a = cfg.initial_step
        step_g = np.full(m, cfg.initial_step)
        total = cfg.burn_in + cfg.retained * cfg.thin
        y_sum = float(y.sum())
        sigma2_shape = self.sigma2_shape + m / 2.0
        # one child stream per variate family, so the draws do not depend on
        # how the sweeps are cut into blocks
        gen_za, gen_ua, gen_zg, gen_ug, gen_s2 = (split(rng, i).generator for i in range(5))

        # rows gamma, exp(gamma) and gamma^2, so that one acceptance mask
        # carries all three from a proposal into the state
        state = np.zeros((3, m))
        state[1] = 1.0
        gamma, exp_g, sq_g = state
        prop = np.empty((3, m))
        prop_g, exp_prop_g, sq_prop_g = prop
        exp_a = math.exp(alpha0)
        rate_e = exp_a * e
        draws = np.empty((cfg.retained, m + 2))
        kept = 0
        acc_a = 0
        acc_g = np.zeros(m, dtype=np.int64)
        # each sweep's gamma acceptances, summed once per block
        block = max(1, CHAIN_ELEMENTS // m)
        accepted = np.empty((block, m), dtype=bool)
        move = np.empty(m)

        with np.errstate(over="ignore"):
            for start in range(0, total, block):
                size = min(block, total - start)
                z_a = gen_za.standard_normal(size).tolist()
                log_u_a = np.log(np.maximum(gen_ua.random(size), 1e-300)).tolist()
                z_g = gen_zg.standard_normal((size, m))
                log_u_g = np.log(np.maximum(gen_ug.random((size, m)), 1e-300))
                if self.sigma2_fixed is None:
                    v_s2 = gen_s2.gamma(sigma2_shape, 1.0, size).tolist()

                for j in range(size):
                    t = start + j
                    # alpha0: random walk on the shared log-rate
                    prop_a = alpha0 + step_a * z_a[j]
                    exp_prop_a = math.exp(prop_a)
                    s_eg = float(np.dot(e, exp_g))
                    delta = y_sum * (prop_a - alpha0) - s_eg * (exp_prop_a - exp_a)
                    a_accepted = log_u_a[j] < delta
                    if a_accepted:
                        alpha0, exp_a = prop_a, exp_prop_a
                        rate_e = exp_a * e

                    # gamma: independent per-coordinate proposals, accepted coordinatewise
                    np.multiply(step_g, z_g[j], out=move)
                    np.add(gamma, move, out=prop_g)
                    np.exp(prop_g, out=exp_prop_g)
                    np.multiply(prop_g, prop_g, out=sq_prop_g)
                    delta_g = (
                        y * move
                        - rate_e * (exp_prop_g - exp_g)
                        - (sq_prop_g - sq_g) * (0.5 / sigma2)
                    )
                    g_accepted = np.less(log_u_g[j], delta_g, out=accepted[j])
                    np.copyto(state, prop, where=g_accepted)

                    # sigma2: conjugate inverse-gamma refresh
                    if self.sigma2_fixed is None:
                        rate = self.sigma2_rate + float(np.dot(gamma, gamma)) / 2.0
                        sigma2 = rate / v_s2[j]

                    if t < cfg.burn_in:
                        lr = (t + 1) ** -0.6
                        step_a *= math.exp(lr * ((1.0 if a_accepted else 0.0) - cfg.target_accept))
                        step_g *= np.exp(lr * (g_accepted - cfg.target_accept))
                    else:
                        acc_a += a_accepted
                        if (t - cfg.burn_in) % cfg.thin == cfg.thin - 1:
                            row = draws[kept]
                            row[0], row[1:-1], row[-1] = alpha0, gamma, sigma2
                            kept += 1
                acc_g += accepted[max(cfg.burn_in - start, 0):size].sum(axis=0)

        kept_iters = total - cfg.burn_in
        return ChainResult(
            draws=draws,
            accept_alpha0=acc_a / kept_iters,
            accept_gamma=int(acc_g.sum()) / (kept_iters * m),
            step_alpha0=step_a,
            step_gamma=step_g,
            iterations=total,
        )

    def posterior_sample(self, data, n_draws: int, rng: RngStream) -> np.ndarray:
        return self.run_chain(data, rng, replace(self.settings, retained=n_draws)).draws

    def posterior_draw(self, data, rng: RngStream) -> np.ndarray:
        return self.posterior_sample(data, 1, rng)[-1]


# ---------------------------------------------------------------------------
# alternative data for the power study
# ---------------------------------------------------------------------------

def generate_t(n: int, df: float, rng: RngStream) -> np.ndarray:
    """Heavier-tailed alternative: i.i.d. Student-t draws."""
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    if not math.isfinite(df) or df <= 0.0:
        raise DomainError(f"need df > 0, got {df}")
    gen = rng.generator
    z = gen.standard_normal(n)  # the normals come first in the stream
    return z / np.sqrt(gen.chisquare(df, n) / df)

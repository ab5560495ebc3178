"""Aggregated birth-death chain for the number of active pairs.

States count concurrently served pairs; spatial detail is folded into the
per-state rejection probability Q_n.  Three Q_n shapes are supported, and
the exponential one additionally admits a telescoped product form and a
Lambert-W closed form for the mean population.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .radio import RadioParams, coverage_radius, pair_coverage_area
from .simulator import DeploymentParams

_LOG_EPS_FLOOR = -745.0  # below exp() underflow; treated as impossible state
_MAX_STATES = 10_000_000
# steady_state block sizes: the cap keeps each temporary array near 0.5 MB
_BLOCK_MIN = 1_024
_BLOCK_MAX = 65_536


class Variant(Enum):
    PIECEWISE_LINEAR = "piecewise-linear"
    LOGISTIC = "logistic"
    EXPONENTIAL = "exponential"


class NonConvergenceError(RuntimeError):
    """Raised when the steady-state truncation bound is not reached."""


@dataclass(frozen=True)
class ChainParams:
    """Birth-death chain parameters.

    lambda_total: arrival rate over the whole region [1/s]
    mu:           service rate of one pair [1/s]
    gamma:        interference-footprint to region-area ratio
    variant:      rejection-probability shape
    """

    lambda_total: float
    mu: float
    gamma: float
    variant: Variant = Variant.EXPONENTIAL

    def __post_init__(self) -> None:
        if self.lambda_total < 0:
            raise ValueError(f"lambda_total must be >= 0, got {self.lambda_total}")
        if self.mu <= 0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        if self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")

    @property
    def load(self) -> float:
        return self.lambda_total / self.mu


def gamma_from_geometry(r: float, kappa: float, theta: float, area: float) -> float:
    """Footprint ratio of one pair relative to the deployment region."""
    if area <= 0:
        raise ValueError(f"area must be positive, got {area}")
    return pair_coverage_area(r, theta, kappa) / area


def chain_params(radio: RadioParams, deployment: DeploymentParams,
                 variant: Variant = Variant.EXPONENTIAL) -> ChainParams:
    """Chain of a deployment: footprint ratio from the coverage radius at radio's power."""
    gamma = gamma_from_geometry(coverage_radius(radio), radio.kappa, radio.theta, deployment.area)
    return ChainParams(deployment.lambda_total, deployment.mu, gamma, variant)


def _log_accept(n: np.ndarray, gamma: float, variant: Variant) -> np.ndarray:
    """log(1 - Q_n) for an array of states n, exact in log space for every variant."""
    x = n * gamma
    if variant is Variant.PIECEWISE_LINEAR:
        return np.log1p(-x, out=np.full(x.shape, -np.inf), where=x < 1.0)
    if variant is Variant.LOGISTIC:
        # 1 - tanh(x) = 2 exp(-2x) / (1 + exp(-2x))
        return math.log(2.0) - 2.0 * x - np.logaddexp(0.0, -2.0 * x)
    return -2.0 * x


@dataclass(frozen=True, eq=False)
class SteadyState:
    """Truncated steady-state distribution pi_0..pi_M plus the excluded mass."""

    probs: np.ndarray
    tail_bound: float
    params: ChainParams

    def __post_init__(self) -> None:
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("probs must be a non-empty 1-D vector")
        if np.any(p < 0) or np.any(p > 1):
            raise ValueError("steady-state probabilities must lie in [0, 1]")
        if self.tail_bound < 0:
            raise ValueError("tail_bound must be >= 0")
        total = float(p.sum()) + self.tail_bound
        if not (1.0 - 1e-12 <= total <= 1.0 + 1e-12):
            raise ValueError(f"probabilities plus tail must sum to 1, got {total}")
        object.__setattr__(self, "probs", p)


def _first_block(params: ChainParams) -> int:
    """Size of steady_state's first block of states.

    The Lambert-W mean is exact for the exponential shape only.  The logistic
    shape rejects less, and its mean sits up to about 9% above it at paper
    scale, so the block covers 1.1 times the mean plus eight square roots of
    it.  A short first block costs one more block, never a different answer.
    """
    try:
        mean = mean_pairs_closed_form(params)
    except OverflowError:  # exp(gamma) overflows: the mean is below one pair
        return _BLOCK_MIN
    if not mean < _BLOCK_MAX:  # also a nan from an overflowing Lambert-W argument
        return _BLOCK_MAX
    return min(max(_BLOCK_MIN, math.ceil(1.1 * mean + 8.0 * math.sqrt(mean))), _BLOCK_MAX)


def _not_truncated(params: ChainParams, max_states: int) -> NonConvergenceError:
    return NonConvergenceError(f"steady state not truncated within {max_states} states "
                               f"(load lambda/mu = {params.load:g}, gamma = {params.gamma:g})")


def check_state_limit(params: ChainParams, max_states: int = _MAX_STATES) -> None:
    """Raise steady_state's NonConvergenceError up front where state
    max_states can neither end the chain nor start a convergent tail.

    Both log(1-Q_m) and the log step ratio are non-increasing in m, so then
    no earlier state can either, and the walk would reach the same raise.
    Both also fall as gamma grows, so a power sweep need only check its
    lowest power.
    """
    a = params.load
    if a == 0.0:
        return
    last = np.array([max_states])
    la = _log_accept(last, params.gamma, params.variant)
    if la[0] >= _LOG_EPS_FLOOR and (math.log(a) + la - np.log(last + 1))[0] >= 0.0:
        raise _not_truncated(params, max_states)


def steady_state(params: ChainParams, epsilon: float = 1e-9,
                 max_states: int = _MAX_STATES) -> SteadyState:
    """Solve the chain by the ratio recurrence, truncating by a tail bound.

    Successive state weights obey w_{m+1} = w_m * (lambda/mu)(1-Q_m)/(m+1);
    the recurrence runs in log space so loads around 1e7 cannot overflow.
    Because the step ratio is non-increasing in m, once it drops below one
    the remaining mass is bounded by a geometric series.  The solve stops at
    the first state m where the birth rate vanishes (the truncation is then
    exact) or where that bound falls below epsilon of the total mass
    including states 0..m.  States 0..max_states are examined before
    NonConvergenceError is raised; check_state_limit raises it before the
    walk where it can tell that no state will stop it.

    States are evaluated in array blocks.  The first block is sized from the
    Lambert-W mean (at least 1,024 states); each later block doubles, up to
    65,536 states, so no temporary array exceeds about 0.5 MB.  Within a
    block, log w_m is carried by cumsum and the running log-sum by
    logaddexp.accumulate, each seeded with the previous block's last value.
    Both accumulate strictly left to right, so they round exactly as the
    state-by-state recurrence does, and the stopping rule is tested on every
    state of the block at once.
    """
    if not 0.0 < epsilon <= 1e-3:
        raise ValueError(f"epsilon must be in (0, 1e-3], got {epsilon}")
    a = params.load
    if a == 0.0:
        return SteadyState(np.array([1.0]), 0.0, params)
    check_state_limit(params, max_states)
    log_a = math.log(a)
    log_eps = math.log(epsilon)
    logws = []
    logw, log_sum = 0.0, -math.inf  # log weight of state m0; log of the summed weights below m0
    m0, size = 0, _first_block(params)
    while True:
        m = np.arange(m0, min(m0 + size, max_states + 1))
        la = _log_accept(m, params.gamma, params.variant)
        log_r = log_a + la - np.log(m + 1)
        w = np.cumsum(np.concatenate(([logw], log_r)))
        block_logw = w[:-1]
        block_sum = np.logaddexp.accumulate(np.concatenate(([log_sum], block_logw)))[1:]
        # where log_r >= 0 the bound is undefined (nan or inf) and the test is masked
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            block_tail = block_logw + log_r - np.log1p(-np.exp(log_r))
            converged = (log_r < 0.0) & (block_tail - np.logaddexp(block_sum, block_tail) <= log_eps)
        dead = la < _LOG_EPS_FLOOR  # birth rate vanished, la == -inf included
        stop = np.flatnonzero(dead | converged)
        if stop.size:
            k = int(stop[0])
            logws.append(block_logw[:k + 1])
            log_sum = block_sum[k]
            log_tail = -math.inf if dead[k] else block_tail[k]
            break
        if m0 + m.size > max_states:
            raise _not_truncated(params, max_states)
        logws.append(block_logw)
        logw, log_sum = w[-1], block_sum[-1]
        m0 += m.size
        size = min(2 * size, _BLOCK_MAX)
    log_z = np.logaddexp(log_sum, log_tail)
    probs = np.exp(np.concatenate(logws) - log_z)
    tail = float(np.exp(log_tail - log_z)) if log_tail != -math.inf else 0.0
    total = float(probs.sum()) + tail
    probs /= total
    tail /= total
    return SteadyState(probs, float(tail), params)


def mean_pairs(ss: SteadyState) -> float:
    """Expected number of active pairs under the truncated distribution."""
    return float(np.arange(ss.probs.size) @ ss.probs)


def acceptance_prob(ss: SteadyState) -> float:
    """Probability that an arrival is admitted: sum over states of (1-Q_n) pi_n.

    The truncated tail mass is credited with the acceptance factor of the
    first excluded state, which keeps the gamma = 0 case exactly one.
    """
    p = ss.params
    n = np.arange(ss.probs.size + 1)
    x = n * p.gamma
    if p.variant is Variant.PIECEWISE_LINEAR:
        accept = np.maximum(1.0 - np.minimum(x, 1.0), 0.0)
    elif p.variant is Variant.LOGISTIC:
        accept = 1.0 - np.tanh(x)
    else:
        accept = np.exp(-2.0 * x)
    total = accept[:-1] @ ss.probs + accept[-1] * ss.tail_bound
    return float(min(total, 1.0))


def lambert_w0(x: float) -> float:
    """Principal branch of the Lambert W function for x >= -1/e.

    Guarded initial guess followed by Halley updates until the residual
    w*exp(w) - x is within 1e-12 of scale.
    """
    inv_e = math.exp(-1.0)
    if x < -inv_e:
        raise ValueError(f"lambert_w0 requires x >= -1/e, got {x}")
    if x == 0.0:
        return 0.0
    if x < -0.25:
        # series around the branch point
        p = math.sqrt(2.0 * (math.e * x + 1.0))
        w = -1.0 + p - p * p / 3.0 + 11.0 * p ** 3 / 72.0
    elif x < 1.0:
        w = x
    elif x < math.e:
        w = math.log1p(x)
    else:
        lx = math.log(x)
        w = lx - math.log(lx)
    tol = 1e-13 * max(1.0, abs(x))
    for _ in range(100):
        ew = math.exp(w)
        f = w * ew - x
        if abs(f) <= tol:
            break
        wp1 = w + 1.0
        dw = f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1))
        w -= dw
        if abs(dw) <= 1e-16 * (1.0 + abs(w)):
            break
    return w


def mean_pairs_closed_form(params: ChainParams) -> float:
    """Closed-form mean population W(2*gamma*(lambda/mu)*e^gamma) / (2*gamma).

    The gamma -> 0 limit is lambda/mu, matching the pure immigration-death
    reduction, and is returned exactly at gamma == 0.
    """
    a = params.load
    g = params.gamma
    if g == 0.0:
        return a
    return lambert_w0(2.0 * g * a * math.exp(g)) / (2.0 * g)


def telescoped_state_weight(m: int, params: ChainParams) -> float:
    """Unnormalized state weight (lambda/mu)^m e^{-gamma m(m-1)} / m!.

    Valid for the exponential variant only, where the acceptance product
    telescopes exactly: sum of 2n over n < m equals m(m-1).
    """
    if params.variant is not Variant.EXPONENTIAL:
        raise ValueError("telescoped weights require the exponential variant")
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if m == 0:
        return 1.0
    a = params.load
    if a == 0.0:
        return 0.0
    log_w = m * math.log(a) - params.gamma * m * (m - 1) - math.lgamma(m + 1)
    return math.exp(log_w) if log_w > _LOG_EPS_FLOOR else 0.0

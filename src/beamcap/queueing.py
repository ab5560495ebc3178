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

_LOG_EPS_FLOOR = -745.0  # below exp() underflow; treated as impossible state
_MAX_STATES = 10_000_000
# steady_state block sizes: the cap keeps each temporary array near 0.5 MB
_BLOCK_MIN = 1_024
_BLOCK_MAX = 65_536
# _late_start: the running log-sum skips states more than _LATE_DROP below
# the peak's log weight (their probabilities underflow to 0.0; exp does from
# -745.2 on) where the sum is at least _LATE_MIN; its two runs go on until a
# state outweighs the upper seed by _LATE_MARGIN (e^-64, far below one ulp).
# steady_state's final exp skips the states _LATE_DROP below the total
_LATE_DROP = 746.0
_LATE_MIN = 1_024.0
_LATE_MARGIN = 64.0


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
        if not self.load < math.inf:
            raise ValueError(f"lambda_total, mu must give a finite load lambda_total / mu, got "
                             f"{self.lambda_total:g} / {self.mu:g}")
        if not 0 <= self.gamma < math.inf:
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma}")

    @property
    def load(self) -> float:
        return self.lambda_total / self.mu


def _log_accept(n: np.ndarray, gamma: float, variant: Variant) -> np.ndarray:
    """log(1 - Q_n) for an array of states n, exact in log space for every variant."""
    with np.errstate(over="ignore"):   # x or 2x past the floats is inf: exactly a dead state
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
        if p.min() < 0 or p.max() > 1:   # NaN passes here and fails the sum below
            raise ValueError("steady-state probabilities must lie in [0, 1]")
        if self.tail_bound < 0:
            raise ValueError("tail_bound must be >= 0")
        total = float(p.sum()) + self.tail_bound
        if not (1.0 - 1e-12 <= total <= 1.0 + 1e-12):
            raise ValueError(f"probabilities plus tail must sum to 1, got {total}")
        object.__setattr__(self, "probs", p)


def _first_block(params: ChainParams) -> int:
    """Size of steady_state's first block of states, per rejection shape.

    The exponential block covers its Lambert-W mean plus eight square roots
    of it.  The logistic and piecewise-linear shapes reject less at low
    occupancy, and their means can sit above that one (the logistic one by up
    to 9% at paper scale), so their blocks cover 1.1 times it plus the eight
    square roots.  A piecewise-linear block stops at the chain's first dead
    state, at most floor(1/gamma) + 1; 1/gamma is capped while still a float,
    so a subnormal gamma cannot overflow.  A short first block costs one more
    block, never a different answer.
    """
    mean = min(mean_pairs_closed_form(params), _BLOCK_MAX)
    scale = 1.0 if params.variant is Variant.EXPONENTIAL else 1.1
    block = math.ceil(scale * mean + 8.0 * math.sqrt(mean))
    if params.variant is Variant.PIECEWISE_LINEAR and params.gamma > 0.0:
        block = min(block, math.floor(min(1.0 / params.gamma, _BLOCK_MAX)) + 2)
    return min(max(_BLOCK_MIN, block), _BLOCK_MAX)


def _not_truncated(params: ChainParams) -> NonConvergenceError:
    return NonConvergenceError(f"lambda_total, mu, gamma give a steady state not truncated within "
                               f"{_MAX_STATES} states (load lambda/mu = {params.load:g}, "
                               f"gamma = {params.gamma:g})")


def check_state_limit(params: ChainParams) -> None:
    """Raise steady_state's NonConvergenceError up front where state
    _MAX_STATES can neither end the chain nor start a convergent tail.

    Both log(1-Q_m) and the log step ratio are non-increasing in m, so then
    no earlier state can either, and the walk would reach the same raise.
    Both also fall as gamma grows, so a power sweep need only check its
    lowest power.
    """
    a = params.load
    if a == 0.0:
        return
    last = np.array([_MAX_STATES])
    la = _log_accept(last, params.gamma, params.variant)
    if la[0] >= _LOG_EPS_FLOOR and (math.log(a) + la - np.log(last + 1))[0] >= 0.0:
        raise _not_truncated(params)


def _late_start(lws: np.ndarray, s: int) -> tuple[int, float]:
    """Where steady_state's running log-sum may start: (c, its value at c),
    c <= s, with the bits of np.logaddexp.accumulate(lws)[c]; (-1, -inf) to
    start at state 0.  lws[:s + 1] is non-decreasing, up to the peak s.

    States below j0, the first with lws[j0] >= lws[s] - _LATE_DROP, add
    nothing to any sum from s on, but their rounding still reaches it.  So
    the accumulate runs twice from j0, over a window ending by s: once
    seeded with -inf, once with high = lws[j0 - 1] + log(j0) + 1, above the
    sum of those j0 states, which all weigh at most lws[j0 - 1].  The window
    ends at the first state that outweighs high by _LATE_MARGIN.  The walk
    from state 0 lies between the two runs, so where both hold the same
    float it holds it too.  This rests on a float logaddexp step never
    falling as its first input grows: from a sum of _LATE_MIN on, one ulp of
    it is over a thousand times glibc's error on log1p(exp(d)) <= log 2.
    Where lws[j0] < _LATE_MIN, or the runs do not meet, the sum starts at 0.
    """
    j0 = int(np.searchsorted(lws[:s + 1], lws[s] - _LATE_DROP))
    if j0 == 0 or lws[j0] < _LATE_MIN:
        return -1, -math.inf
    high = lws[j0 - 1] + math.log(j0) + 1.0
    window = lws[j0:s + 1]
    window = window[:np.searchsorted(window, high + _LATE_MARGIN) + 1]
    low = np.logaddexp.accumulate(window)
    met = np.flatnonzero(low == np.logaddexp.accumulate(np.concatenate(([high], window)))[1:])
    if not met.size:
        return -1, -math.inf
    return j0 + int(met[0]), low[met[0]]


def steady_state(params: ChainParams, epsilon: float = 1e-9) -> SteadyState:
    """Solve the chain by the ratio recurrence, truncating by a tail bound.

    Successive state weights obey w_{m+1} = w_m * (lambda/mu)(1-Q_m)/(m+1);
    the recurrence runs in log space so loads around 1e7 cannot overflow.
    Because the step ratio is non-increasing in m, once it drops below one
    the remaining mass is bounded by a geometric series.  The solve stops at
    the first state m where the birth rate vanishes (the truncation is then
    exact) or where that bound falls below epsilon of the total mass
    including states 0..m.  States 0.._MAX_STATES are examined before
    NonConvergenceError is raised; check_state_limit raises it before the
    walk where it can tell that no state will stop it.

    States are evaluated in array blocks.  The first block is sized per
    rejection shape (_first_block, at least 1,024 states); each later block
    doubles, up to 65,536 states, so no temporary array exceeds about 0.5 MB.
    The log weights live in one array that grows by doubling; each block
    writes its log step ratios after the last weight and runs cumsum over
    them in place, strictly left to right, so it rounds exactly as the
    state-by-state recurrence does.  Neither the end of the chain nor the
    tail bound can stop the walk before the peak s, the first state with a
    step ratio below one, so the running log-sum is needed only from s on.
    It is one carry, the log-sum of states 0..c: _late_start sets it near
    the peak, with the bits of a sum from state 0, and each block from s on
    carries it on by logaddexp.accumulate.  The end of the chain and the
    tail bound are tested only from s, which past the mode is a short run.

    The probabilities are exp(log w_m - log Z).  Every state whose log weight
    lies more than _LATE_DROP below log Z underflows to 0.0, and below the
    peak those states form a prefix, found by binary search; exp and the
    final divide run only on the window after it, and the prefix stays 0.0.
    The normalising sum runs over the whole zero-padded array, as do the
    dot products of mean_pairs and acceptance_prob: a reduction over a
    shorter array would group its terms in other SIMD/BLAS lanes and could
    round the last bit otherwise.
    """
    if not 0.0 < epsilon <= 1e-3:
        raise ValueError(f"epsilon must be in (0, 1e-3], got {epsilon}")
    a = params.load
    if a == 0.0:
        return SteadyState(np.array([1.0]), 0.0, params)
    check_state_limit(params)
    log_a = math.log(a)
    log_eps = math.log(epsilon)
    lws = np.zeros(1)   # log weights of states 0..m0; lws[m0] seeds the next block
    peak = None   # from the peak on, (c, log_sum) is the log-sum of states 0..c
    m0, size = 0, _first_block(params)
    while True:
        end = min(m0 + size, _MAX_STATES + 1)
        m = np.arange(m0, end)
        la = _log_accept(m, params.gamma, params.variant)
        log_r = log_a + la - np.log(m + 1)
        if lws.size <= end:   # doubling keeps the copies linear in the states walked
            lws, old = np.empty(max(end + 1, 2 * lws.size)), lws
            lws[:m0 + 1] = old[:m0 + 1]
        w = lws[m0:end + 1]
        w[1:] = log_r
        with np.errstate(over="ignore"):   # only past a dead state can this reach -inf
            np.cumsum(w, out=w)
        # the tail bound is tested from the first state with log_r < 0; where
        # log_r >= 0 it is undefined (nan or inf) and masked
        below = log_r < 0.0
        s = int(below.argmax())
        if below[s]:   # below the peak nothing stops the walk
            if peak is None:
                peak = m0 + s
                c, log_sum = _late_start(lws, peak)
            sums = np.logaddexp.accumulate(np.concatenate(([log_sum], lws[c + 1:end])))
            sums = sums[m0 + s - c:]
            r = log_r[s:]
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                block_tail = lws[m0 + s:end] + r - np.log1p(-np.exp(r))
                # the birth rate vanishes (la == -inf included) only from s on:
                # below it log_r >= 0, so la >= -log(lambda/mu) >= -709.8
                stop = (la[s:] < _LOG_EPS_FLOOR) | (
                    (r < 0.0) & (block_tail - np.logaddexp(sums, block_tail) <= log_eps))
            k = int(stop.argmax())
            if stop[k]:
                log_sum = sums[k]
                log_tail = -math.inf if la[s + k] < _LOG_EPS_FLOOR else block_tail[k]
                break
            c, log_sum = end - 1, sums[-1]
        if end > _MAX_STATES:
            raise _not_truncated(params)
        m0 = end
        size = min(2 * size, _BLOCK_MAX)
    log_z = np.logaddexp(log_sum, log_tail)
    # below lo every probability underflows to 0.0; the sum stays full length
    lo = int(np.searchsorted(lws[:peak + 1], log_z - _LATE_DROP))
    probs = np.zeros(m0 + s + k + 1)
    window = probs[lo:]
    np.exp(np.subtract(lws[lo:probs.size], log_z, out=window), out=window)
    tail = float(np.exp(log_tail - log_z)) if log_tail != -math.inf else 0.0
    total = float(probs.sum()) + tail
    window /= total
    tail /= total
    return SteadyState(probs, float(tail), params)


def mean_pairs(ss: SteadyState) -> float:
    """Expected number of active pairs under the truncated distribution."""
    return float(np.arange(ss.probs.size, dtype=float) @ ss.probs)


def acceptance_prob(ss: SteadyState) -> float:
    """Probability that an arrival is admitted: sum over states of (1-Q_n) pi_n.

    The truncated tail mass is credited with the acceptance factor of the
    first excluded state, which keeps the gamma = 0 case exactly one.
    """
    p = ss.params
    # states before the first nonzero probability add nothing: their factors stay 0.0
    lo = int(np.argmax(ss.probs != 0.0))
    accept = np.zeros(ss.probs.size + 1)
    x = np.arange(lo, accept.size, dtype=float) * p.gamma
    if p.variant is Variant.PIECEWISE_LINEAR:
        accept[lo:] = np.maximum(1.0 - np.minimum(x, 1.0), 0.0)
    elif p.variant is Variant.LOGISTIC:
        accept[lo:] = 1.0 - np.tanh(x)
    else:
        with np.errstate(over="ignore"):   # 2x past the floats is inf: exactly no acceptance
            accept[lo:] = np.exp(-2.0 * x)
    total = accept[:-1] @ ss.probs + accept[-1] * ss.tail_bound
    return float(min(total, 1.0))


def lambert_w0(x: float) -> float:
    """Principal branch of the Lambert W function for x >= 0.

    Guarded initial guess followed by Halley updates until the residual
    w*exp(w) - x is within 1e-12 of scale.
    """
    if x < 0.0:
        raise ValueError(f"lambert_w0 requires x >= 0, got {x}")
    if x == 0.0:
        return 0.0
    if x < 1.0:
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
    """Closed-form mean population W(x) / (2*gamma), x = 2*gamma*(lambda/mu)*e^gamma.

    The gamma -> 0 limit is lambda/mu, matching the pure immigration-death
    reduction, and is returned exactly at gamma == 0.  Past the floats (gamma
    near 700 on), w = W(x) solves w + log w = y = log x: Newton's method from
    y - log y, below the root for y > 1, rises to it and stops where a step no
    longer does; y <= 1 needs a subnormal load, and there W(e^y) is taken.  Where
    2*gamma itself overflows (gamma > 9e307), log(2*gamma) is taken as log 2 + log gamma.
    """
    a, g = params.load, params.gamma
    if g == 0.0 or a == 0.0:
        return a
    try:
        x = 2.0 * g * a * math.exp(g)
    except OverflowError:
        x = math.inf
    if x < math.inf:
        return lambert_w0(x) / (2.0 * g)
    log_2g = math.log(2.0 * g) if 2.0 * g < math.inf else math.log(2.0) + math.log(g)
    y = log_2g + math.log(a) + g
    if y <= 1.0:
        return lambert_w0(math.exp(y)) / (2.0 * g)
    w = y - math.log(y)
    while (w_next := w + (y - w - math.log(w)) / (1.0 + 1.0 / w)) > w:
        w = w_next
    return w / 2.0 / g   # the bits of w / (2 gamma), where 2 gamma is a float

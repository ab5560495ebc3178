"""Link-rate and area-throughput estimates plus transmit-power optimization.

A pair's rate follows Shannon-Hartley with the SNR capped by the highest
modulation and coding scheme.  The noise term is the sensitivity threshold
scaled by a fixed neighbour count K.  The optimization objective is the
per-area rate c * E[N] / S_R as a function of transmit power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import TYPE_CHECKING

from . import queueing, simulator
from .radio import RadioParams, dbm_to_mw, received_power_mw

if TYPE_CHECKING:  # scenario imports MeanEngine from here
    from .scenario import Scenario

OPT_TOL_DB = 0.1   # optimize_power's largest grid step [dB]; it refines to a thousandth of it
MAX_REFINE_EVALS = 38   # optimize_power's refinement: 2 per step, 2 * ceil(log 2000 / log 1.5)


class MeanEngine(Enum):
    """How the rate layer computes E[N].

    CLOSED uses the Lambert-W mean of the exponential shape whatever the
    variant (cheap, accurate in dense regimes).  SERIES sums the truncated
    chain of the variant: exact, but it walks about one state per expected
    pair, and past 1e7 states steady_state raises NonConvergenceError
    (paper-fig6 at 52 deg and -20 dBm: load 5.65e7, mean 1.21e7).
    """

    CLOSED = "closed"
    SERIES = "series"


def noise_power(n_thr_dbm: float, k: int) -> float:
    """Noise power [mW] under the K-closest-neighbours rule: N_thr * K."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return dbm_to_mw(n_thr_dbm) * k


def link_rate(radio: RadioParams, p_rx_mw: float, p_n_mw: float) -> float:
    """Shannon-Hartley rate [bit/s] with the SNR capped at snr_max_db.

    The cap is compared on the linear ratio.
    """
    if p_n_mw <= 0:
        raise ValueError(f"noise power must be positive, got {p_n_mw}")
    snr = min(p_rx_mw / p_n_mw, 10.0 ** (radio.snr_max_db / 10.0))
    return radio.bandwidth_hz * math.log2(1.0 + snr)


@dataclass(frozen=True)
class RatePoint:
    p_tx_dbm: float
    gamma: float
    mean_pairs: float
    link_rate_bps: float
    area_rate_bps_m2: float


def rate_components(scn: Scenario, p_tx_dbm: float) -> RatePoint:
    """Area-rate breakdown at one transmit power.

    The per-link rate is evaluated at the expected pair distance on
    boresight; E[N] comes from the selected queueing engine and reacts to
    transmit power through the coverage radius and footprint ratio.
    """
    chain = scn.chain(p_tx_dbm)
    if scn.mean_engine is MeanEngine.CLOSED:
        e_n = queueing.mean_pairs_closed_form(chain)
    else:
        e_n = queueing.mean_pairs(queueing.steady_state(chain))
    radio = replace(scn.radio, p_tx_dbm=p_tx_dbm)
    e_d = simulator.mean_projected_distance(scn.deployment.pair_model)
    p_rx = received_power_mw(e_d, 0.0, 0.0, radio, scn.antenna)
    c = link_rate(radio, p_rx, noise_power(radio.n_thr_dbm, scn.k_neighbors))
    area = scn.deployment.area   # c * e_n may pass the floats where the area rate does not
    rate = c * e_n / area
    return RatePoint(p_tx_dbm, chain.gamma, e_n, c, rate if rate < math.inf else c * (e_n / area))


def optimizer_grid(scn: Scenario) -> list[float]:
    """optimize_power's grid: the power range in equal steps of at most OPT_TOL_DB."""
    lo, hi = scn.p_tx_min_dbm, scn.p_tx_max_dbm
    n = max(math.ceil((hi - lo) / OPT_TOL_DB), 1)
    return [lo + (hi - lo) * i / n for i in range(n + 1)]


@dataclass(frozen=True)
class PowerOptimum:
    point: RatePoint
    flat: bool


def optimize_power(scn: Scenario) -> PowerOptimum:
    """Maximize the area rate over [p_tx_min_dbm, p_tx_max_dbm].

    Grid search over optimizer_grid, then ternary refinement between the grid
    neighbours of the best point, each two evaluations cutting a third off the
    bracket (<= 2*OPT_TOL_DB) down to OPT_TOL_DB/1000.  Ties break toward lower power.
    A flat, finite objective returns the point at the range minimum,
    p_tx_min_dbm itself, with the flat flag set.
    """
    points = [rate_components(scn, p) for p in optimizer_grid(scn)]
    vals = [pt.area_rate_bps_m2 for pt in points]
    hi = max(vals)
    if hi < math.inf and hi - min(vals) <= 1e-12 * max(1.0, abs(hi)):   # inf is a peak
        return PowerOptimum(replace(points[0], p_tx_dbm=scn.p_tx_min_dbm), True)
    i = vals.index(hi)
    lo_p = points[max(i - 1, 0)].p_tx_dbm
    hi_p = points[min(i + 1, len(points) - 1)].p_tx_dbm
    best = points[i]
    while hi_p - lo_p > OPT_TOL_DB * 1e-3:
        m1 = lo_p + (hi_p - lo_p) / 3.0
        m2 = hi_p - (hi_p - lo_p) / 3.0
        pt1, pt2 = rate_components(scn, m1), rate_components(scn, m2)
        v1, v2 = pt1.area_rate_bps_m2, pt2.area_rate_bps_m2
        if v1 > best.area_rate_bps_m2 or (v1 == best.area_rate_bps_m2 and m1 < best.p_tx_dbm):
            best = pt1
        if v2 > best.area_rate_bps_m2:
            best = pt2
        if v1 >= v2:
            hi_p = m2
        else:
            lo_p = m1
    return PowerOptimum(best, False)

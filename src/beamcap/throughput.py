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

from . import queueing, simulator
from .queueing import Variant
from .radio import AntennaModel, RadioParams, dbm_to_mw, received_power_mw
from .simulator import DeploymentParams


class MeanEngine(Enum):
    CLOSED = "closed"
    SERIES = "series"


@dataclass(frozen=True)
class RateModel:
    """Noise model for link-rate estimates; the SNR cap is RadioParams.snr_max_db."""

    k_neighbors: int = 6

    def __post_init__(self) -> None:
        if self.k_neighbors < 1:
            raise ValueError(f"k_neighbors must be >= 1, got {self.k_neighbors}")


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
class RateScenario:
    """Inputs for area-rate evaluation and power sweeps.

    mean_engine selects how E[N] is computed.  CLOSED uses the Lambert-W
    mean of the exponential shape whatever variant says (cheap, accurate
    in dense regimes).  SERIES sums the truncated chain of variant: exact,
    but it walks about one state per expected pair, and past 1e7 states
    steady_state raises NonConvergenceError (paper-fig6 at 52 deg and
    -20 dBm: load 5.65e7, mean 1.21e7).
    """

    radio: RadioParams
    antenna: AntennaModel
    deployment: DeploymentParams
    rate_model: RateModel = RateModel()
    variant: Variant = Variant.EXPONENTIAL
    mean_engine: MeanEngine = MeanEngine.CLOSED


@dataclass(frozen=True)
class RatePoint:
    p_tx_dbm: float
    gamma: float
    mean_pairs: float
    link_rate_bps: float
    area_rate_bps_m2: float


def rate_components(scn: RateScenario, p_tx_dbm: float | None = None) -> RatePoint:
    """Area-rate breakdown at one transmit power.

    The per-link rate is evaluated at the expected pair distance on
    boresight; E[N] comes from the selected queueing engine and reacts to
    transmit power through the coverage radius and footprint ratio.
    """
    radio = scn.radio if p_tx_dbm is None else replace(scn.radio, p_tx_dbm=p_tx_dbm)
    chain = queueing.chain_params(radio, scn.deployment, scn.variant)
    if scn.mean_engine is MeanEngine.CLOSED:
        e_n = queueing.mean_pairs_closed_form(chain)
    else:
        e_n = queueing.mean_pairs(queueing.steady_state(chain))
    e_d = simulator.mean_projected_distance(scn.deployment.pair_model)
    p_rx = float(received_power_mw(e_d, 0.0, 0.0, radio, scn.antenna))
    p_n = noise_power(radio.n_thr_dbm, scn.rate_model.k_neighbors)
    c = link_rate(radio, p_rx, p_n)
    return RatePoint(radio.p_tx_dbm, chain.gamma, e_n, c, c * e_n / scn.deployment.area)


def area_rate(scn: RateScenario, p_tx_dbm: float | None = None) -> float:
    """Aggregate rate per unit area [bit/s/m^2]."""
    return rate_components(scn, p_tx_dbm).area_rate_bps_m2


@dataclass(frozen=True)
class PowerOptimum:
    p_tx_dbm: float
    area_rate_bps_m2: float
    flat: bool = False


def optimize_power(scn: RateScenario, p_min_dbm: float, p_max_dbm: float,
                   tol_db: float = 0.1) -> PowerOptimum:
    """Maximize the area rate over a transmit-power interval.

    Grid search at tol_db spacing, then ternary refinement between the
    grid neighbours of the best point.  Ties break toward lower power.
    A flat objective returns the range minimum with the flat flag set.
    """
    if tol_db <= 0:
        raise ValueError(f"tol_db must be positive, got {tol_db}")
    if p_max_dbm < p_min_dbm:
        raise ValueError(f"empty power range [{p_min_dbm}, {p_max_dbm}]")
    n = max(int(math.ceil((p_max_dbm - p_min_dbm) / tol_db)), 1)
    grid = [p_min_dbm + (p_max_dbm - p_min_dbm) * i / n for i in range(n + 1)]
    vals = [area_rate(scn, p) for p in grid]
    hi = max(vals)
    if hi - min(vals) <= 1e-12 * max(1.0, abs(hi)):
        return PowerOptimum(p_min_dbm, vals[0], flat=True)
    i = vals.index(hi)
    lo_p = grid[max(i - 1, 0)]
    hi_p = grid[min(i + 1, n)]
    best_p, best_v = grid[i], vals[i]
    while hi_p - lo_p > tol_db * 1e-3:
        m1 = lo_p + (hi_p - lo_p) / 3.0
        m2 = hi_p - (hi_p - lo_p) / 3.0
        v1 = area_rate(scn, m1)
        v2 = area_rate(scn, m2)
        if v1 > best_v or (v1 == best_v and m1 < best_p):
            best_p, best_v = m1, v1
        if v2 > best_v:
            best_p, best_v = m2, v2
        if v1 >= v2:
            hi_p = m2
        else:
            lo_p = m1
    return PowerOptimum(best_p, best_v, flat=False)


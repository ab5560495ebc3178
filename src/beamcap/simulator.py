"""Spatial discrete-event Monte Carlo of pair arrivals in a disk.

Pairs arrive as a Poisson stream, are placed by a pair-distance model,
pass a listen-before-talk admission test against every active device,
and depart after an exponential service time.  Rejected arrivals are
cleared.  Statistics are time averages over a post-warmup window,
aggregated across independent replications with Student-t intervals.

One kernel, radio.received_power_mw, defines received power for
admission and the audit.  Admission first drops, in one array pass, the
active devices beyond the peak-gain boresight range of both candidate
devices: they cannot deliver the threshold.  With a table antenna the
kernel decides the rest in array passes.  With the analytic antenna each
near (transmitter, receiver) pair is decided in scalar math code by the
equivalent test (1 - alpha/theta)*k0 >= d^kappa; a pair whose ratio lies
within a derived rounding band of 1, at the beam edge, or at d -> 0 goes to
the kernel.  Every decision is the kernel's, so output bytes do not depend
on the path (see _admit).
"""

from __future__ import annotations

import heapq
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .radio import AntennaModel, AntennaVariant, RadioParams, received_power_mw

_PLACEMENT_RETRIES = 100


class CheckMode(Enum):
    ONE_WAY = "one-way"
    TWO_WAY = "two-way"


@dataclass(frozen=True)
class FixedDistance:
    """Partner at an exact distance, uniform direction."""

    distance: float

    def __post_init__(self) -> None:
        if self.distance <= 0:
            raise ValueError(f"distance must be positive, got {self.distance}")


@dataclass(frozen=True, eq=False)
class TruncatedDistribution:
    """Pair distance drawn from a CDF tabulated on a grid over [0, d_max].

    Sampling inverts the table by linear interpolation, so the model is
    picklable and costs one uniform draw.
    """

    d_grid: np.ndarray
    cdf: np.ndarray
    d_max: float

    def __post_init__(self) -> None:
        if self.d_max <= 0:
            raise ValueError(f"d_max must be positive, got {self.d_max}")

    @classmethod
    def uniform(cls, d_max: float) -> "TruncatedDistribution":
        return cls(np.linspace(0.0, d_max, 3), np.array([0.0, 0.5, 1.0]), float(d_max))

    def sample(self, rng: np.random.Generator, size=None):
        return np.interp(rng.random(size), self.cdf, self.d_grid)

    def mean(self) -> float:
        # E[D] = integral of (1 - F) for a non-negative variable
        return float(np.trapezoid(1.0 - self.cdf, self.d_grid))


@dataclass(frozen=True)
class CuboidProjection:
    """Both devices i.i.d. uniform in a pair-local 3-D cuboid; horizontal
    components of the two positions are kept."""

    dx: float
    dy: float
    dz: float

    def __post_init__(self) -> None:
        if min(self.dx, self.dy, self.dz) <= 0:
            raise ValueError("cuboid dimensions must be positive")


PairModel = FixedDistance | TruncatedDistribution | CuboidProjection


@dataclass(frozen=True)
class DeploymentParams:
    """Region, traffic, and pair-distance model.

    region_radius:  disk radius of the area of interest [m]
    lambda_density: arrival rate density [1/s/m^2]
    mu:             service rate [1/s]
    """

    region_radius: float
    lambda_density: float
    mu: float
    pair_model: PairModel

    def __post_init__(self) -> None:
        if self.region_radius <= 0:
            raise ValueError(f"region_radius must be positive, got {self.region_radius}")
        if self.lambda_density < 0:
            raise ValueError(f"lambda_density must be >= 0, got {self.lambda_density}")
        if self.mu <= 0:
            raise ValueError(f"mu must be positive, got {self.mu}")

    @property
    def area(self) -> float:
        return math.pi * self.region_radius ** 2

    @property
    def lambda_total(self) -> float:
        return self.lambda_density * self.area


class PlacementError(RuntimeError):
    """No placement inside the disk within the retry cap: the pair model barely fits."""


@dataclass(frozen=True)
class PairPlacement:
    """Positions of the two devices and their mutual boresights."""

    pos_a: tuple[float, float]
    pos_b: tuple[float, float]
    boresight_ab: float
    boresight_ba: float


@dataclass(frozen=True)
class SimConfig:
    deployment: DeploymentParams
    radio: RadioParams
    antenna: AntennaModel
    check_mode: CheckMode = CheckMode.TWO_WAY
    warmup: float = 20.0
    horizon: float = 120.0
    replications: int = 20
    seed: int = 1

    def __post_init__(self) -> None:
        if not self.horizon > self.warmup > 0:
            raise ValueError(
                f"horizon must exceed warmup > 0, got horizon={self.horizon} warmup={self.warmup}"
            )
        if self.replications < 1:
            raise ValueError(f"replications must be >= 1, got {self.replications}")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")


@dataclass(frozen=True, eq=False)
class SimStats:
    """Replication-aggregated simulation outputs.

    p_accept is NaN (with an 'undefined' flag) when no post-warmup arrival
    was observed.  CI halfwidths are 95% Student-t over replication means
    and infinite when fewer than two replications are available.
    """

    mean_pairs: float
    mean_pairs_per_m2: float
    p_accept: float
    state_histogram: np.ndarray
    ci_halfwidth_mean_pairs: float
    ci_halfwidth_p_accept: float
    arrivals_observed: int
    flags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        hist = np.asarray(self.state_histogram, dtype=float)
        if hist.size and abs(hist.sum() - 1.0) > 1e-12:
            raise ValueError(f"state histogram must sum to 1, got {hist.sum()}")
        if not math.isnan(self.p_accept) and not 0.0 <= self.p_accept <= 1.0:
            raise ValueError(f"p_accept must lie in [0, 1], got {self.p_accept}")
        if self.ci_halfwidth_mean_pairs < 0 or self.ci_halfwidth_p_accept < 0:
            raise ValueError("CI halfwidths must be >= 0")
        object.__setattr__(self, "state_histogram", hist)


@dataclass(frozen=True)
class ReplicationResult:
    mean_pairs: float
    p_accept: float
    observed: int
    accepted: int
    state_time: dict[int, float]
    measured_time: float
    snapshots: tuple[tuple[PairPlacement, ...], ...] = ()


def place_pair(rng: np.random.Generator, deployment: DeploymentParams) -> PairPlacement:
    """Draw one pair: anchor uniform in the disk, partner by the pair model.

    Placements with a device outside the disk are resampled from scratch,
    up to a retry cap; the edge effect is negligible while pair distances
    stay far below the region radius.
    """
    r_d = deployment.region_radius
    model = deployment.pair_model
    for _ in range(_PLACEMENT_RETRIES):
        r = r_d * math.sqrt(rng.random())
        phi = 2.0 * math.pi * rng.random()
        ax = r * math.cos(phi)
        ay = r * math.sin(phi)
        if isinstance(model, FixedDistance):
            psi = 2.0 * math.pi * rng.random()
            bx = ax + model.distance * math.cos(psi)
            by = ay + model.distance * math.sin(psi)
        elif isinstance(model, TruncatedDistribution):
            d = float(model.sample(rng))
            psi = 2.0 * math.pi * rng.random()
            bx = ax + d * math.cos(psi)
            by = ay + d * math.sin(psi)
        else:
            # anchor marks the cuboid centre; z components do not project
            dims = (model.dx, model.dy, model.dz)
            off = rng.uniform(-0.5, 0.5, size=(2, 3)) * dims
            bx = ax + off[1, 0]
            by = ay + off[1, 1]
            ax = ax + off[0, 0]
            ay = ay + off[0, 1]
        if ax * ax + ay * ay > r_d * r_d or bx * bx + by * by > r_d * r_d:
            continue
        return PairPlacement((ax, ay), (bx, by), math.atan2(by - ay, bx - ax),
                             math.atan2(ay - by, ax - bx))
    raise PlacementError(
        f"no placement inside the disk after {_PLACEMENT_RETRIES} attempts "
        f"(region_radius={r_d}, pair_model={model})"
    )


def _reach(radio: RadioParams, antenna: AntennaModel) -> float:
    """Farthest any transmitter delivers the threshold (gain <= peak), plus a rounding margin."""
    ratio = radio.p_tx_mw * antenna.peak_gain_linear(radio) / (radio.n_thr_mw * radio.c_const)
    return ratio ** (1.0 / radio.kappa) * (1.0 + 1e-9)


class _ScalarTest(NamedTuple):
    """Per-replication constants of the scalar admission test (analytic antenna)."""

    k0: float          # p_tx*D0/(C*N_thr): power >= N_thr iff (1 - alpha/theta)*k0 >= d^kappa
    r2: float          # squared screen radius: k0^(2/kappa) widened by its rounding bound
    theta: float
    half_kappa: float
    rel: float         # angle-free part of the band, 2*(9*kappa + 32)*u


_U = 2.0 ** -53                 # float64 unit roundoff
_ANGLE_ERR = 40.0 * _U          # |computed - exact| deviation angle on either path [rad]
_ANGLE_BAND = 88.0 * _U         # 2*(_ANGLE_ERR + pi*u), rounded up
_TINY = 1e-300                  # smaller d^2 or d^kappa may be subnormal: the kernel decides
_RANGE = 1e250                  # k0, r2 and C*k0 inside (1/_RANGE, _RANGE) keep both paths normal
_TWO_PI = 2.0 * math.pi


def _scalar_test(radio: RadioParams, antenna: AntennaModel) -> _ScalarTest | None:
    """Constants of the scalar test, or None where the kernel decides every pair:
    a table antenna, or a link budget whose intermediates could leave the normal range."""
    if antenna.variant is not AntennaVariant.ANALYTIC:
        return None
    kappa = radio.kappa
    k0 = radio.p_tx_mw * antenna.peak_gain_linear(radio) / (radio.c_const * radio.n_thr_mw)
    if not (1.0 / _RANGE < k0 < _RANGE and k0 * radio.c_const < _RANGE):
        return None
    r2 = k0 ** (2.0 / kappa) * (1.0 + (32.0 + (32.0 + 2.0 * abs(math.log(k0))) / kappa) * _U)
    if not 1.0 / _RANGE < r2 < _RANGE:
        return None
    return _ScalarTest(k0, r2, radio.theta, 0.5 * kappa, 2.0 * (9.0 * kappa + 32.0) * _U)


def _covers(alpha: float, dx: float, dy: float, bore: float, d2: float, st: _ScalarTest,
            radio: RadioParams, antenna: AntennaModel) -> bool:
    """Whether a transmitter with boresight bore delivers the threshold over
    (dx, dy), with d2 = dx*dx + dy*dy and alpha its wrapped deviation angle;
    the kernel's decision (see _admit)."""
    gap = st.theta - alpha - 2.0 * _ANGLE_ERR
    if d2 >= _TINY and gap > 0.0:
        band = st.rel + 2.0 * _ANGLE_BAND / gap
        rhs = d2 ** st.half_kappa
        if band < 1.0 and rhs >= _TINY:
            lhs = (1.0 - alpha / st.theta) * st.k0
            if lhs >= rhs * (1.0 + band):
                return True
            if lhs < rhs * (1.0 - band):
                return False
    # inside the band, at the beam edge or at d -> 0: the kernel decides, on
    # arrays, whose pow, hypot and arctan2 round as the table path's do
    return bool(received_power_mw(np.array([dx]), np.array([dy]), bore, radio, antenna)[0]
                >= radio.n_thr_mw)


def _admit(candidate: PairPlacement, pos, bore, radio: RadioParams, antenna: AntennaModel,
           mode: CheckMode, reach: float, scalar: _ScalarTest | None) -> bool:
    """Listen-before-talk test of candidate against active devices (pos, bore).

    One array pass drops the devices farther than reach + half the
    candidate's separation from its midpoint: they cannot deliver the
    threshold to, or receive it from, either candidate device.  With a table
    antenna (scalar is None) the near devices then take one (2, K) kernel
    pass per direction, the reverse one only if the forward one admits.

    With the analytic antenna each near (transmitter, receiver) pair is
    decided in scalar math code, returning on the first hit.  With
    k0 = p_tx*D0/(C*N_thr) and gain D0*(1 - alpha/theta), power >= N_thr
    is the same as q = (1 - alpha/theta)*k0/d^kappa >= 1.  A pair with
    d^2 > r2 is skipped before atan2; every other pair compares
    lhs = (1 - alpha/theta)*k0 with rhs = d^kappa.  Outside a band
    |q - 1| < eps the sign of q - 1 is the kernel's decision; inside it,
    and where alpha is within 2*eta of theta, received_power_mw decides the
    pair, so the kernel stays the one definition of power.

    The band.  Let u = 2^-53, take every float input (the differences dx,
    dy, which both paths compute alike, the boresights, p_tx, D0, theta,
    kappa, C, N_thr) as exact, and let q* be the exact ratio.  Count each + - * / as one rounding (relative <= u)
    and each of hypot, pow and atan2, in libm or numpy, as at most 4 ulp
    (relative <= 8u; absolute <= 16u for an angle of size <= pi).

    - Angle, per path: atan2 16u, the subtraction of bore 4u, the wrap
      ((x + pi) % 2pi - pi: 8u + 4u + 2u, plus 3.3u for the float pi and
      2pi) give |alpha - alpha*| <= eta = 40u.  With alpha/theta rounded
      (abs. error <= pi*u/theta) and 1 - x rounded (u), the gain factor g
      has |g/g* - 1| <= u + (eta + pi*u)/(theta - alpha*).  This term
      grows as 1/(theta - alpha): 1 - alpha/theta cancels at the beam
      edge.  gap = theta - alpha - 2*eta <= theta - alpha* on either path.
      Near alpha = pi, where the wrap may land on either side of +-pi, every
      computed alpha stays within eta of pi >= theta, so gap < 0 there.
    - Distance, power and products.  Kernel: hypot 8u, raised to kappa
      8*kappa*u, pow 8u, four products and quotients 4u: (8*kappa + 12)u.
      Scalar: d^2 2u, raised to kappa/2 kappa*u, pow 8u, k0 3u, lhs u,
      the compared product rhs*(1 +- eps) and its constant 2u:
      (kappa + 15)u.
    - So q_s = q*(1 + a) and q_k = q*(1 + b), the kernel's p/N_thr, with
      |a| + |b| <= e = (9*kappa + 29)u + 2*(eta + pi*u)/gap; rounding the
      coefficients up to (9*kappa + 32)u and 88u covers the second-order
      terms.  For e <= 1/2, q_k/q_s lies in [1 - e, 1 + 2e], so q_s >= 1 + 2e
      gives q_k >= (1 + 2e)(1 - e) >= 1 and q_s < 1 - 2e gives
      q_k < (1 - 2e)(1 + 2e) < 1.  The band is eps = 2e, used only while
      eps < 1: eps = rel + 2*88u/gap with rel = 2*(9*kappa + 32)u.
    - Zero gain.  alpha - theta >= 2*eta puts both paths' angles at or
      past theta, where the kernel's gain is exactly 0.
    - Screen.  The kernel's gain factor is at most 1, so it cannot reach
      N_thr unless kappa*ln d* - ln k0* < (8*kappa + 12)u.  d2 carries 2u,
      k0 3u, 2/kappa u (an error of u*|ln k0| in the power), pow 8u and
      the widened product 2u; so d2 > r2 = k0^(2/kappa)*(1 + delta) with
      delta = (32 + (32 + 2|ln k0|)/kappa)u rules the pair out.
    - Range.  The bounds hold for normal floats.  _scalar_test keeps k0,
      C*k0 and r2 within (1e-250, 1e250), and d^2 or d^kappa below 1e-300
      (d -> 0, coincident devices included) goes to the kernel.
    """
    (ax, ay), (bx, by) = candidate.pos_a, candidate.pos_b
    mx, my = 0.5 * (ax + bx), 0.5 * (ay + by)
    # devices beyond reach of both candidate devices cannot decide (+ midpoint rounding)
    limit = reach + 0.5 * math.hypot(bx - ax, by - ay) + 1e-12 * (abs(mx) + abs(my))
    dx, dy = pos[:, 0] - mx, pos[:, 1] - my
    near = (dx * dx + dy * dy <= limit * limit).nonzero()[0]
    if near.size == 0:
        return True
    if scalar is not None:
        return _admit_scalar(candidate, pos.take(near, 0).tolist(), bore.take(near).tolist(),
                             radio, antenna, mode, scalar)
    (px, py), near_bore = pos.take(near, 0).T, bore.take(near)
    cx, cy = np.array([[ax], [bx]]), np.array([[ay], [by]])
    thr = radio.n_thr_mw
    # one-way: near transmitters at both candidate devices, one (2, K) pass
    if (received_power_mw(cx - px, cy - py, near_bore, radio, antenna) >= thr).any():
        return False
    if mode is CheckMode.ONE_WAY:
        return True
    cand_bore = np.array([[candidate.boresight_ab], [candidate.boresight_ba]])
    return not (received_power_mw(px - cx, py - cy, cand_bore, radio, antenna) >= thr).any()


def _admit_scalar(candidate: PairPlacement, near_pos: list, near_bore: list,
                  radio: RadioParams, antenna: AntennaModel, mode: CheckMode,
                  st: _ScalarTest) -> bool:
    """_admit over the near devices as lists, one (transmitter, receiver) pair at a time."""
    two_way = mode is CheckMode.TWO_WAY
    r2, theta, edge, pi, atan2 = st.r2, st.theta, 2.0 * _ANGLE_ERR, math.pi, math.atan2
    for (cx, cy), cbore in ((candidate.pos_a, candidate.boresight_ab),
                            (candidate.pos_b, candidate.boresight_ba)):
        for (px, py), pbore in zip(near_pos, near_bore):
            dx, dy = cx - px, cy - py
            d2 = dx * dx + dy * dy
            if d2 > r2:
                continue
            # alpha - theta >= 2*eta: zero gain on both paths, unless d -> 0
            alpha = abs((atan2(dy, dx) - pbore + pi) % _TWO_PI - pi)
            if ((alpha - theta < edge or d2 < _TINY)
                    and _covers(alpha, dx, dy, pbore, d2, st, radio, antenna)):
                return False
            if two_way:
                rx, ry = px - cx, py - cy
                alpha = abs((atan2(ry, rx) - cbore + pi) % _TWO_PI - pi)
                if ((alpha - theta < edge or d2 < _TINY)
                        and _covers(alpha, rx, ry, cbore, d2, st, radio, antenna)):
                    return False
    return True


def admission_check(candidate: PairPlacement, active: Sequence[PairPlacement],
                    radio: RadioParams, antenna: AntennaModel,
                    mode: CheckMode = CheckMode.TWO_WAY) -> bool:
    """Admission test of a candidate pair against every active device.

    One-way: reject if any active transmitter delivers at least the
    sensitivity threshold at either candidate device.  Two-way: also
    reject if either candidate transmitter would do so at any active
    device.
    """
    pos, bore = _placements_to_arrays(active)
    return _admit(candidate, pos, bore, radio, antenna, mode, _reach(radio, antenna),
                  _scalar_test(radio, antenna))


def _placements_to_arrays(placements: Sequence[PairPlacement]):
    pos = np.array([xy for p in placements for xy in (p.pos_a, p.pos_b)], dtype=float)
    bore = np.array([b for p in placements for b in (p.boresight_ab, p.boresight_ba)], dtype=float)
    return pos.reshape(-1, 2), bore


class _ActiveSet:
    """Active devices in flat arrays with O(1) pair insert/remove."""

    def __init__(self):
        self._pos = np.empty((128, 2))            # room for 64 pairs, doubled when full
        self._bore = np.empty(128)
        self._pairs: list[int] = []           # pair id per block
        self._block_of: dict[int, int] = {}
        self._placements: dict[int, PairPlacement] = {}

    def __len__(self) -> int:
        return len(self._pairs)

    def arrays(self):
        """Positions (2n, 2) and boresights (2n,) of the active devices."""
        n = 2 * len(self._pairs)
        return self._pos[:n], self._bore[:n]

    def placements(self) -> tuple[PairPlacement, ...]:
        return tuple(self._placements[pid] for pid in self._pairs)

    def add(self, pair_id: int, placement: PairPlacement) -> None:
        blk = len(self._pairs)
        if 2 * (blk + 1) > self._pos.shape[0]:
            self._pos = np.resize(self._pos, (2 * self._pos.shape[0], 2))
            self._bore = np.resize(self._bore, 2 * self._bore.shape[0])
        self._pos[2 * blk: 2 * blk + 2] = placement.pos_a, placement.pos_b
        self._bore[2 * blk: 2 * blk + 2] = placement.boresight_ab, placement.boresight_ba
        self._pairs.append(pair_id)
        self._block_of[pair_id] = blk
        self._placements[pair_id] = placement

    def remove(self, pair_id: int) -> None:
        blk = self._block_of.pop(pair_id)
        del self._placements[pair_id]
        last = len(self._pairs) - 1
        last_id = self._pairs[last]
        if blk != last:
            self._pos[2 * blk: 2 * blk + 2] = self._pos[2 * last: 2 * last + 2]
            self._bore[2 * blk: 2 * blk + 2] = self._bore[2 * last: 2 * last + 2]
            self._pairs[blk] = last_id
            self._block_of[last_id] = blk
        self._pairs.pop()


def run_replication(config: SimConfig, rep_index: int, *,
                    snapshot_times: Sequence[float] = ()) -> ReplicationResult:
    """One independent replication with its own generator and event set.

    The Poisson stream has exactly one pending arrival, held in t_arrival;
    the heap holds departures as (time, pair id), and pair ids rise in
    admission order, which orders tied departures as admission order does.
    An arrival and a departure at exactly the same time (probability zero)
    are taken arrival first.
    """
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(rep_index,)))
    dep = config.deployment
    lam = dep.lambda_total
    warmup, horizon = config.warmup, config.horizon
    active = _ActiveSet()
    departures: list[tuple[float, int]] = []
    next_pair_id = 0
    state_time: dict[int, float] = {}
    observed = accepted = 0
    t_prev = 0.0
    snap_iter = iter(sorted(snapshot_times))
    next_snap = next(snap_iter, None)
    snapshots: list[tuple[PairPlacement, ...]] = []
    reach = _reach(config.radio, config.antenna)
    scalar = _scalar_test(config.radio, config.antenna)

    def integrate_to(t_end: float) -> None:
        lo = max(t_prev, warmup)
        hi = min(t_end, horizon)
        if hi > lo:
            n = len(active)
            state_time[n] = state_time.get(n, 0.0) + (hi - lo)

    t_arrival = rng.exponential(1.0 / lam) if lam > 0.0 else math.inf
    while True:
        t = min(t_arrival, departures[0][0] if departures else math.inf)
        while next_snap is not None and next_snap < min(t, horizon):
            snapshots.append(active.placements())
            next_snap = next(snap_iter, None)
        integrate_to(t)
        if t > horizon:
            break
        t_prev = t
        if t == t_arrival:
            placement = place_pair(rng, dep)
            post = t >= warmup
            if post:
                observed += 1
            if _admit(placement, *active.arrays(), config.radio, config.antenna,
                      config.check_mode, reach, scalar):
                active.add(next_pair_id, placement)
                if post:
                    accepted += 1
                heapq.heappush(departures, (t + rng.exponential(1.0 / dep.mu), next_pair_id))
                next_pair_id += 1
            t_arrival = t + rng.exponential(1.0 / lam)
        else:
            active.remove(heapq.heappop(departures)[1])
        assert len(departures) == len(active)           # one pending departure per active pair

    while next_snap is not None and next_snap <= horizon:
        snapshots.append(active.placements())
        next_snap = next(snap_iter, None)

    measured = horizon - warmup
    mean_n = sum(n * dt for n, dt in state_time.items()) / measured
    p_acc = accepted / observed if observed > 0 else math.nan
    return ReplicationResult(
        mean_pairs=mean_n, p_accept=p_acc, observed=observed, accepted=accepted,
        state_time=state_time, measured_time=measured, snapshots=tuple(snapshots),
    )


def _replicate(config: SimConfig, rep_index: int) -> ReplicationResult:
    # the pool pickles its function by name, and the module attribute
    # run_replication may be a wrapper that does not pickle (perfbench's tracer)
    return run_replication(config, rep_index)


def run(config: SimConfig, jobs: int = 1) -> SimStats:
    """Run every replication and aggregate time-averaged statistics.

    Identical configs (seed included) produce identical SimStats; the
    replication results are reduced in index order regardless of how many
    workers execute them.  At most one worker per replication is started.
    """
    indices = range(config.replications)
    workers = min(jobs, config.replications)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            reps = list(pool.map(_replicate, [config] * len(indices), indices))
    else:
        reps = [run_replication(config, i) for i in indices]
    return aggregate(reps, config)


def aggregate(reps: Sequence[ReplicationResult], config: SimConfig) -> SimStats:
    flags = []
    means = np.array([r.mean_pairs for r in reps])
    mean_pairs = float(means.mean())
    ci_mean = _t_halfwidth(means)
    p_vals = np.array([r.p_accept for r in reps])
    defined = p_vals[~np.isnan(p_vals)]
    if defined.size == 0:
        p_accept = math.nan
        ci_p = math.inf
        flags.append("undefined")
    else:
        p_accept = float(defined.mean())
        ci_p = _t_halfwidth(defined)
        if defined.size < p_vals.size:
            flags.append("partial-arrivals")
    if len(reps) < 2:
        flags.append("low-confidence")
    max_state = max(max(r.state_time) if r.state_time else 0 for r in reps)
    hist = np.zeros(max_state + 1)
    total_time = 0.0
    for r in reps:
        for n, dt in r.state_time.items():
            hist[n] += dt
        total_time += r.measured_time
    hist /= total_time
    hist /= hist.sum()
    return SimStats(
        mean_pairs=mean_pairs,
        mean_pairs_per_m2=mean_pairs / config.deployment.area,
        p_accept=p_accept,
        state_histogram=hist,
        ci_halfwidth_mean_pairs=ci_mean,
        ci_halfwidth_p_accept=ci_p,
        arrivals_observed=int(sum(r.observed for r in reps)),
        flags=tuple(flags),
    )


def _t_halfwidth(values: np.ndarray) -> float:
    """Halfwidth of the 95% Student-t interval of the mean of values."""
    n = values.size
    if n < 2:
        return math.inf
    from scipy import stats  # imported here: scipy costs about 1 s of start-up

    q = stats.t.ppf(0.975, n - 1)
    return float(q * values.std(ddof=1) / math.sqrt(n))


@dataclass(frozen=True)
class DistanceEstimate:
    mean: float
    std_error: float


def expected_pair_distance(deployment: DeploymentParams, samples: int = 1_000_000,
                           seed: int = 0) -> DistanceEstimate:
    """Monte Carlo estimate of the projected pair distance with its SE."""
    if samples < 100_000:
        raise ValueError(f"need at least 1e5 samples, got {samples}")
    model = deployment.pair_model
    if isinstance(model, FixedDistance):
        return DistanceEstimate(model.distance, 0.0)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    if isinstance(model, TruncatedDistribution):
        d = model.sample(rng, samples)
    else:
        dims = np.array([model.dx, model.dy])
        a = rng.uniform(0.0, 1.0, size=(samples, 2)) * dims
        b = rng.uniform(0.0, 1.0, size=(samples, 2)) * dims
        d = np.hypot(*(a - b).T)
    return DistanceEstimate(float(d.mean()), float(d.std(ddof=1) / math.sqrt(samples)))


@lru_cache(maxsize=64)
def mean_projected_distance(model: PairModel) -> float:
    """Deterministic expected projected pair distance, for the analytic side."""
    if isinstance(model, FixedDistance):
        return model.distance
    if isinstance(model, TruncatedDistribution):
        return model.mean()
    from scipy import integrate  # imported here: scipy costs about 1 s of start-up

    # |U1-U2| on [0, L] has the triangular density 2(L-u)/L^2
    dx, dy = model.dx, model.dy
    val, _ = integrate.dblquad(
        lambda v, u: math.hypot(u, v) * (2.0 * (dx - u) / dx ** 2) * (2.0 * (dy - v) / dy ** 2),
        0.0, dx, 0.0, dy, epsabs=1e-12, epsrel=1e-12,
    )
    return val


def max_cross_pair_power(placements: Sequence[PairPlacement], radio: RadioParams,
                         antenna: AntennaModel) -> float:
    """Largest power any device receives from another pair's transmitter.

    Audit helper for the mutual-exclusion property of admitted pairs;
    returns 0 when fewer than two pairs are present.
    """
    if len(placements) < 2:
        return 0.0
    pos, bore = _placements_to_arrays(placements)
    # power from each device i (row) at each device j
    p = received_power_mw(pos[None, :, 0] - pos[:, None, 0], pos[None, :, 1] - pos[:, None, 1],
                          bore[:, None], radio, antenna)
    blk = np.arange(pos.shape[0]) // 2
    p[blk[:, None] == blk[None, :]] = 0.0              # own pair is the desired link
    p[~np.isfinite(p)] = np.inf
    return float(p.max())

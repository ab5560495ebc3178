"""Spatial discrete-event Monte Carlo of pair arrivals in a disk.

Pairs arrive as a Poisson stream, are placed by a pair-distance model,
pass a listen-before-talk admission test against every active device,
and depart after an exponential service time.  Rejected arrivals are
cleared.  Statistics are time averages over a post-warmup window,
aggregated across independent replications with Student-t intervals.
The run reads the same Scenario the chain is formed from (Scenario.chain):
one object serves both engines.

One scalar kernel, radio.power_kernel (received_power_mw's), decides
admission and the audit: a transmitter covers a receiver when it delivers
the sensitivity threshold.  A replication keeps its active devices in one
admission index for every antenna, a grid with each device in its own cell
(_CellGrid), which hands the kernel only the pairs two exact screens leave.
"""

from __future__ import annotations

import heapq
import math
import os
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from .radio import AntennaModel, RadioParams, deviation_angle, power_kernel

if TYPE_CHECKING:  # scenario imports the parameter classes from here
    from .scenario import Scenario

_PLACEMENT_RETRIES = 100
MAX_ACTIVE_PAIRS = 10**6   # about 1.7 KB each in a replication: 1.7 GB per worker


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


@dataclass(frozen=True)
class UniformDistance:
    """Partner at a distance uniform on [0, d_max], uniform direction."""

    d_max: float

    def __post_init__(self) -> None:
        if self.d_max <= 0:
            raise ValueError(f"d_max must be positive, got {self.d_max}")

    def quantile(self, u: float) -> float:
        # np.interp(u, [0, 1/2, 1], [0, d_max/2, d_max]), the inverse CDF the
        # golden simulate outputs hold, in scalar code: slope*(u - x_j) + y_j
        # per segment as numpy rounds it; d_max*u rounds otherwise on some
        # upper-half draws
        half = 0.5 * self.d_max
        if u < 0.5:
            return half / 0.5 * u
        return (self.d_max - half) / 0.5 * (u - 0.5) + half


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


PairModel = FixedDistance | UniformDistance | CuboidProjection


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
        try:   # the square may leave the floats
            area = self.area
        except OverflowError:
            area = math.inf
        if not 0.0 < area < math.inf:
            raise ValueError(f"region_radius must give a positive, finite disk area, "
                             f"got {area} m^2")
        if not self.lambda_total < math.inf:
            raise ValueError(f"region_radius, lambda_density give an infinite arrival rate "
                             f"lambda_total, got {self.lambda_total}")
        if not self.lambda_total / self.mu < math.inf:
            raise ValueError(f"lambda_total, mu must give a finite load lambda_total / mu, got "
                             f"{self.lambda_total:g} / {self.mu:g}")

    @property
    def area(self) -> float:
        return math.pi * self.region_radius ** 2

    @property
    def lambda_total(self) -> float:
        return self.lambda_density * self.area


class PlacementError(RuntimeError):
    """No placement inside the disk within the retry cap: the pair model barely fits."""


class PairPlacement(NamedTuple):
    """Positions of the two devices and their mutual boresights."""

    pos_a: tuple[float, float]
    pos_b: tuple[float, float]
    boresight_ab: float
    boresight_ba: float


@dataclass(frozen=True, eq=False)
class SimStats:
    """Replication-aggregated simulation outputs: simulate's columns, in order.

    p_accept is NaN (with an 'undefined' flag) when no post-warmup arrival
    was observed.  CI halfwidths are 95% Student-t over replication means
    and infinite when fewer than two replications are available.  Flags are ;-joined.
    """

    mean_pairs: float
    ci_mean_pairs: float
    mean_pairs_per_m2: float
    p_accept: float
    ci_p_accept: float
    arrivals_observed: int
    flags: str

    def __post_init__(self) -> None:
        if not math.isnan(self.p_accept) and not 0.0 <= self.p_accept <= 1.0:
            raise ValueError(f"p_accept must lie in [0, 1], got {self.p_accept}")
        if self.ci_mean_pairs < 0 or self.ci_p_accept < 0:
            raise ValueError("CI halfwidths must be >= 0")


@dataclass(frozen=True)
class ReplicationResult:
    observed: int
    accepted: int
    state_time: dict[int, float]
    snapshots: tuple[tuple[PairPlacement, ...], ...] = ()


def place_pair(rng: np.random.Generator, deployment: DeploymentParams) -> PairPlacement:
    """Draw one pair: anchor uniform in the disk, partner by the pair model.

    Placements with a device outside the disk are resampled from scratch,
    up to a retry cap; the edge effect is negligible while pair distances
    stay far below the region radius.
    """
    r_d = deployment.region_radius
    model = deployment.pair_model
    cuboid, fixed = isinstance(model, CuboidProjection), isinstance(model, FixedDistance)
    # one block of uniforms per attempt: r, phi, then d and psi, psi alone, or six
    # cuboid offsets; random(k) yields the same doubles, in order, as k scalar calls
    draw, k = rng.random, 8 if cuboid else 3 if fixed else 4
    sqrt, cos, sin, atan2 = math.sqrt, math.cos, math.sin, math.atan2
    for _ in range(_PLACEMENT_RETRIES):
        u = draw(k).tolist()
        r = r_d * sqrt(u[0])
        phi = _TWO_PI * u[1]
        ax, ay = r * cos(phi), r * sin(phi)
        if cuboid:
            # anchor marks the cuboid centre; z components do not project.
            # (u - 0.5)*dim is rng.uniform(-0.5, 0.5, (2, 3))*dims bit for bit
            bx, by = ax + (u[5] - 0.5) * model.dx, ay + (u[6] - 0.5) * model.dy
            ax, ay = ax + (u[2] - 0.5) * model.dx, ay + (u[3] - 0.5) * model.dy
        else:
            d = model.distance if fixed else model.quantile(u[2])
            psi = _TWO_PI * u[k - 1]
            bx, by = ax + d * cos(psi), ay + d * sin(psi)
        if ax * ax + ay * ay > r_d * r_d or bx * bx + by * by > r_d * r_d:
            continue
        return PairPlacement((ax, ay), (bx, by), atan2(by - ay, bx - ax), atan2(ay - by, ax - bx))
    raise PlacementError(f"pair_model, region_radius leave no placement inside the disk "
                         f"after {_PLACEMENT_RETRIES} attempts (region_radius={r_d}, "
                         f"pair_model={model})")


_TWO_PI = 2.0 * math.pi
# the 3x3 block around a cell, nearest first: a covering device is likeliest in the cell itself
_BLOCK = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1))


class _CellGrid:
    """Admission index: a uniform grid of square cells, each active device listed
    once, as (x, y, boresight), in its own cell.  A candidate device, a then b,
    walks the 3x3 block around its cell in _BLOCK's order; for each listed device
    the kernel, radio.power_kernel, decides whether it covers the candidate device
    and, two-way, whether the candidate device covers it, on the deviation angle
    alpha the scan computes as radio.deviation_angle does.  Admission is "no pair
    covers", so the order of the pairs does not matter.

    Two screens skip a pair the kernel would not cover: d^2 > r2, and alpha >
    theta at d^2 > 0.  No pair covers past the antenna's reach; radius is reach
    widened by 1e-9, which outweighs the rounding of reach and of the kernel's
    d^kappa while kappa is above about 1e-6, and r2 = max(radius^2, 1e-300)
    keeps a subnormal square from falling below a d^2 the kernel covers.  Past
    theta the analytic gain is exactly 0 (alpha/theta rounds to at least 1):
    power 0 at d > 0, or NaN where d^kappa underflows.  A table may cover at
    any angle, so its theta is pi.

    The block holds every pair that covers, and every pair d^2 <= r2 = radius^2
    passes: |dx| <= radius(1 + 3u), u = 2^-53, while the side is max(radius,
    min_side)(1 + 1e-6).  Where side >= 1e-9*|x| for every coordinate x (min_side
    is 1e-9 of the largest coordinate, or of the region radius), rounded x/side
    is within 1.2e-7 of exact, so the pair's cells differ by at most 1 an axis.
    """

    def __init__(self, radio: RadioParams, antenna: AntennaModel, mode: CheckMode,
                 min_side: float):
        self._radius = radius = antenna.reach(radio) * (1.0 + 1e-9)
        self._r2 = max(radius * radius, 1e-300)
        self._theta = radio.theta if antenna.angles is None else math.pi
        self._power, self._thr = power_kernel(radio, antenna), radio.n_thr_mw
        self._two_way = mode is CheckMode.TWO_WAY
        self._side = max(radius, min_side) * (1.0 + 1e-6)
        self._cells: defaultdict[tuple[int, int], dict[int, tuple]] = defaultdict(dict)

    def _devices(self, pair_id: int, placement: PairPlacement):
        """(key, cell, entry) of the pair's devices, keys 2*pair_id and 2*pair_id + 1."""
        side, floor = self._side, math.floor
        for key, (x, y), bore in ((2 * pair_id, placement.pos_a, placement.boresight_ab),
                                  (2 * pair_id + 1, placement.pos_b, placement.boresight_ba)):
            yield key, (floor(x / side), floor(y / side)), (x, y, bore)

    def add(self, pair_id: int, placement: PairPlacement) -> None:
        """List the pair's devices, each in its own cell."""
        for key, cell, entry in self._devices(pair_id, placement):
            self._cells[cell][key] = entry

    def remove(self, pair_id: int, placement: PairPlacement) -> None:
        """Unlist the pair's devices; a cell leaves the index with its last device."""
        cells = self._cells
        for key, cell, _ in self._devices(pair_id, placement):
            listed = cells[cell]
            del listed[key]
            if not listed:
                del cells[cell]

    def blocked(self, candidate: PairPlacement) -> bool:
        """Whether a listed device covers a candidate device or, two-way, a candidate
        device covers a listed one.  The index is left as it was."""
        get, r2, theta, power, thr = self._cells.get, self._r2, self._theta, self._power, self._thr
        two_way, side, floor, atan2, fabs, pi, two_pi = self._two_way, self._side, math.floor, \
            math.atan2, math.fabs, math.pi, _TWO_PI
        pos_a, pos_b, bore_ab, bore_ba = candidate
        for (cx, cy), cbore in ((pos_a, bore_ab), (pos_b, bore_ba)):
            i, j = floor(cx / side), floor(cy / side)
            for di, dj in _BLOCK:
                listed = get((i + di, j + dj))
                for px, py, pbore in listed.values() if listed else ():
                    dx, dy = cx - px, cy - py
                    d2 = dx * dx + dy * dy
                    if d2 > r2:
                        continue
                    alpha = fabs((atan2(dy, dx) - pbore + pi) % two_pi - pi)
                    if (alpha <= theta or d2 == 0.0) and power(dx, dy, alpha) >= thr:
                        return True
                    if two_way:
                        rx, ry = px - cx, py - cy
                        alpha = fabs((atan2(ry, rx) - cbore + pi) % two_pi - pi)
                        if (alpha <= theta or d2 == 0.0) and power(rx, ry, alpha) >= thr:
                            return True
        return False


def admission_check(candidate: PairPlacement, active: Sequence[PairPlacement],
                    radio: RadioParams, antenna: AntennaModel,
                    mode: CheckMode = CheckMode.TWO_WAY) -> bool:
    """Admission test of a candidate pair against every active device, on the
    index a replication keeps, built from active; its cells are at least 1e-9
    of the largest coordinate wide, as a replication's are of its region radius.

    One-way: reject if any active transmitter delivers at least the
    sensitivity threshold at either candidate device.  Two-way: also
    reject if either candidate transmitter would do so at any active device.
    """
    extent = max(abs(v) for p in (candidate, *active) for v in (*p.pos_a, *p.pos_b))
    index = _CellGrid(radio, antenna, mode, 1e-9 * extent)
    for pair_id, placement in enumerate(active):
        index.add(pair_id, placement)
    return not index.blocked(candidate)


def run_replication(scn: Scenario, rep_index: int, *,
                    snapshot_times: Sequence[float] = ()) -> ReplicationResult:
    """One independent replication with its own generator and event set.

    The Poisson stream has exactly one pending arrival, held in t_arrival; the
    departure heap is the active set, (time, pair id, placement) per pair.  Pair
    ids rise in admission order, which orders tied departures and snapshots.
    An arrival and a departure at exactly the same time (probability zero)
    are taken arrival first.  An admission past MAX_ACTIVE_PAIRS active pairs
    raises ValueError, before the run outgrows memory.
    """
    rng = np.random.default_rng(np.random.SeedSequence(scn.seed, spawn_key=(rep_index,)))
    dep = scn.deployment
    lam = dep.lambda_total
    warmup, horizon = scn.warmup, scn.horizon
    index = _CellGrid(scn.radio, scn.antenna, scn.check_mode, 1e-9 * dep.region_radius)
    blocked, add, remove = index.blocked, index.add, index.remove
    exponential, push, pop = rng.exponential, heapq.heappush, heapq.heappop
    mean_gap, mean_service = (1.0 / lam if lam > 0.0 else math.inf), 1.0 / dep.mu
    departures: list[tuple[float, int, PairPlacement]] = []
    next_pair_id = 0
    state_time: dict[int, float] = {}
    observed = accepted = 0
    t_prev = 0.0
    pending = sorted((s for s in snapshot_times if s <= horizon), reverse=True)
    snapshots: list[tuple[PairPlacement, ...]] = []

    t_arrival = exponential(mean_gap) if lam > 0.0 else math.inf
    while True:
        t = departures[0][0] if departures and departures[0][0] < t_arrival else t_arrival
        while pending and pending[-1] < t:
            pending.pop()
            snapshots.append(tuple(p for _, _, p in sorted(departures, key=lambda e: e[1])))
        if t > warmup:              # time in the state since t_prev, clipped to the window
            hi = t if t < horizon else horizon
            lo = t_prev if t_prev > warmup else warmup
            if hi > lo:
                n = len(departures)
                state_time[n] = state_time.get(n, 0.0) + (hi - lo)
        if t > horizon:
            break
        t_prev = t
        if t == t_arrival:
            # a module global, looked up per arrival: a wrapper set on the module sees each one
            placement = place_pair(rng, dep)
            post = t >= warmup
            if post:
                observed += 1
            if not blocked(placement):
                if len(departures) >= MAX_ACTIVE_PAIRS:
                    raise ValueError(f"lambda_total, mu, gamma keep {len(departures)} pairs "
                                     f"active at t = {t:g} s, the limit of one replication "
                                     f"(load lambda_total/mu = {lam / dep.mu:g})")
                if post:
                    accepted += 1
                add(next_pair_id, placement)
                push(departures, (t + exponential(mean_service), next_pair_id, placement))
                next_pair_id += 1
            t_arrival = t + exponential(mean_gap)
        else:
            _, pair_id, placement = pop(departures)
            remove(pair_id, placement)

    return ReplicationResult(observed, accepted, state_time, tuple(snapshots))


def _replicate(scn: Scenario, rep_index: int) -> ReplicationResult:
    # the pool pickles its function by name, and the module attribute
    # run_replication may be a wrapper that does not pickle (perfbench's tracer)
    return run_replication(scn, rep_index)


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS keeps one, else the machine's."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run(scn: Scenario, jobs: int = 1) -> SimStats:
    """Run every replication and aggregate time-averaged statistics.

    Identical scenarios (seed included) produce identical SimStats; the
    replication results are reduced in index order regardless of how many
    workers execute them.  At most one worker per replication and per usable CPU is started.
    """
    indices = range(scn.replications)
    workers = min(jobs, scn.replications, usable_cpus())   # a pool forks all at once
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # imported here: 10-20 ms of start-up

        with ProcessPoolExecutor(max_workers=workers) as pool:
            reps = list(pool.map(_replicate, [scn] * len(indices), indices))
    else:
        reps = [run_replication(scn, i) for i in indices]
    return aggregate(reps, scn)


def aggregate(reps: Sequence[ReplicationResult], scn: Scenario) -> SimStats:
    flags = []
    window = scn.horizon - scn.warmup
    means = np.array([sum(n * dt for n, dt in r.state_time.items()) / window for r in reps])
    mean_pairs = float(means.mean())
    ci_mean = _t_halfwidth(means)
    defined = np.array([r.accepted / r.observed for r in reps if r.observed > 0])
    if defined.size == 0:
        p_accept = math.nan
        ci_p = math.inf
        flags.append("undefined")
    else:
        p_accept = float(defined.mean())
        ci_p = _t_halfwidth(defined)
        if defined.size < len(reps):
            flags.append("partial-arrivals")
    if len(reps) < 2:
        flags.append("low-confidence")
    return SimStats(
        mean_pairs=mean_pairs,
        ci_mean_pairs=ci_mean,
        mean_pairs_per_m2=mean_pairs / scn.deployment.area,
        p_accept=p_accept,
        ci_p_accept=ci_p,
        arrivals_observed=int(sum(r.observed for r in reps)),
        flags=";".join(flags),
    )


def _t_halfwidth(values: np.ndarray) -> float:
    """Halfwidth of the 95% Student-t interval of the mean of values."""
    n = values.size
    if n < 2:
        return math.inf
    from scipy import special  # imported here: scipy costs about 1 s of start-up

    q = special.stdtrit(n - 1, 0.975)
    return float(q * values.std(ddof=1) / math.sqrt(n))


@lru_cache(maxsize=64)
def mean_projected_distance(model: PairModel) -> float:
    """Deterministic expected projected pair distance, for the analytic side."""
    if isinstance(model, FixedDistance):
        return model.distance
    if isinstance(model, UniformDistance):
        return 0.5 * model.d_max
    from scipy import integrate  # imported here: scipy costs about 1 s of start-up

    # |U1-U2| on [0, L] has the triangular density 2(L-u)/L^2
    dx, dy = model.dx, model.dy
    val, _ = integrate.dblquad(
        lambda v, u: math.hypot(u, v) * (2.0 * (dx - u) / dx ** 2) * (2.0 * (dy - v) / dy ** 2),
        0.0, dx, 0.0, dy, epsabs=1e-12, epsrel=1e-12,
    )
    return val


def max_cross_pair_power(placements: Sequence[PairPlacement], radio: RadioParams,
                         antenna: AntennaModel, mode: CheckMode = CheckMode.TWO_WAY) -> float:
    """Largest power any device receives from another pair's transmitter.

    Audit helper for the mutual-exclusion property of admitted pairs; 0 when
    fewer than two pairs are present.  A one-way newcomer may cover earlier
    pairs, so ONE_WAY counts only earlier pairs' power at later ones
    (placements in admission order, as snapshots list them).
    """
    power, one_way = power_kernel(radio, antenna), mode is CheckMode.ONE_WAY
    devices = [(k, xy, bore) for k, p in enumerate(placements)
               for xy, bore in ((p.pos_a, p.boresight_ab), (p.pos_b, p.boresight_ba))]
    worst = 0.0
    for tx_pair, (tx, ty), bore in devices:
        for rx_pair, (rx, ry), _ in devices:
            if rx_pair == tx_pair or (one_way and rx_pair < tx_pair):
                continue    # own pair: the desired link
            dx, dy = rx - tx, ry - ty
            p = power(dx, dy, deviation_angle(dx, dy, bore))
            if not p <= worst:      # a NaN (0/0 under zero gain) counts as inf
                worst = p if p == p else math.inf
    return worst

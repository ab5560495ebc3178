"""Spatial discrete-event Monte Carlo of pair arrivals in a disk.

Pairs arrive as a Poisson stream, are placed by a pair-distance model,
pass a listen-before-talk admission test against every active device,
and depart after an exponential service time.  Rejected arrivals are
cleared.  Statistics are time averages over a post-warmup window,
aggregated across independent replications with Student-t intervals.

One kernel, radio.received_power_mw, computes received power for
admission, interference and the audit.  Admission skips active devices
beyond the peak-gain boresight range of both candidate devices: they
cannot deliver the threshold.
"""

from __future__ import annotations

import contextlib
import csv
import heapq
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Sequence

import numpy as np
from scipy import integrate, stats

from .radio import AntennaModel, RadioParams, received_power_mw

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
    admitted_total: int
    departed_total: int
    final_active: int
    interference_mw: float = math.nan
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
    raise RuntimeError(
        f"no placement inside the disk after {_PLACEMENT_RETRIES} attempts "
        f"(region_radius={r_d}, pair_model={model})"
    )


def _reach(radio: RadioParams, antenna: AntennaModel) -> float:
    """Farthest any transmitter delivers the threshold (gain <= peak), plus a rounding margin."""
    ratio = radio.p_tx_mw * antenna.peak_gain_linear(radio) / (radio.n_thr_mw * radio.c_const)
    return ratio ** (1.0 / radio.kappa) * (1.0 + 1e-9)


def _admit(candidate: PairPlacement, pos, bore, radio: RadioParams,
           antenna: AntennaModel, mode: CheckMode, reach: float) -> bool:
    (ax, ay), (bx, by) = candidate.pos_a, candidate.pos_b
    mx, my = 0.5 * (ax + bx), 0.5 * (ay + by)
    # devices beyond reach of both candidate devices cannot decide (+ midpoint rounding)
    limit = reach + 0.5 * math.hypot(bx - ax, by - ay) + 1e-12 * (abs(mx) + abs(my))
    dx, dy = pos[:, 0] - mx, pos[:, 1] - my
    near = (dx * dx + dy * dy <= limit * limit).nonzero()[0]
    if near.size == 0:
        return True
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
    return _admit(candidate, pos, bore, radio, antenna, mode, _reach(radio, antenna))


def _placements_to_arrays(placements: Sequence[PairPlacement]):
    pos = np.array([xy for p in placements for xy in (p.pos_a, p.pos_b)], dtype=float)
    bore = np.array([b for p in placements for b in (p.boresight_ab, p.boresight_ba)], dtype=float)
    return pos.reshape(-1, 2), bore


class _ActiveSet:
    """Active devices in flat arrays with O(1) pair insert/remove."""

    def __init__(self, capacity: int = 64):
        self._pos = np.empty((2 * capacity, 2))
        self._bore = np.empty(2 * capacity)
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


def _cross_pair_powers(pos, bore, radio: RadioParams, antenna: AntennaModel):
    """Power [mW] from each device i (row) at each device j, own pair zeroed."""
    p = received_power_mw(pos[None, :, 0] - pos[:, None, 0], pos[None, :, 1] - pos[:, None, 1],
                          bore[:, None], radio, antenna)
    blk = np.arange(pos.shape[0]) // 2
    p[blk[:, None] == blk[None, :]] = 0.0              # own pair is the desired link
    return p


def _aggregate_interference_mw(pos, radio: RadioParams, antenna: AntennaModel, bore) -> float:
    """Mean over devices of the summed power received from other pairs."""
    if pos.shape[0] < 4:
        return math.nan
    p = _cross_pair_powers(pos, bore, radio, antenna)
    p[~np.isfinite(p)] = 0.0
    return float(p.sum(axis=0).mean())


_ARRIVAL, _DEPARTURE = 0, 1


def run_replication(config: SimConfig, rep_index: int, *, trace_path=None,
                    snapshot_times: Sequence[float] = (),
                    collect_interference: bool = False) -> ReplicationResult:
    """One independent replication with its own generator and event set."""
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(rep_index,)))
    dep = config.deployment
    lam = dep.lambda_total
    warmup, horizon = config.warmup, config.horizon
    active = _ActiveSet()
    heap: list[tuple[float, int, int, int]] = []
    seq = 0
    next_pair_id = 0
    state_time: dict[int, float] = {}
    observed = accepted = admitted_total = departed_total = 0
    t_prev = 0.0
    snap_iter = iter(sorted(snapshot_times))
    next_snap = next(snap_iter, None)
    snapshots: list[tuple[PairPlacement, ...]] = []
    interference_num = 0.0
    interference_den = 0.0
    reach = _reach(config.radio, config.antenna)

    def integrate_to(t_end: float) -> None:
        nonlocal interference_num, interference_den
        lo = max(t_prev, warmup)
        hi = min(t_end, horizon)
        if hi > lo:
            n = len(active)
            state_time[n] = state_time.get(n, 0.0) + (hi - lo)
            if collect_interference and n >= 2:
                pos, bore = active.arrays()
                agg = _aggregate_interference_mw(pos, config.radio, config.antenna, bore)
                if not math.isnan(agg):
                    interference_num += agg * (hi - lo)
                    interference_den += hi - lo

    if lam > 0.0:
        heapq.heappush(heap, (rng.exponential(1.0 / lam), seq, _ARRIVAL, -1))
        seq += 1

    with (open(trace_path, "w", newline="") if trace_path
          else contextlib.nullcontext()) as trace_file:
        writer = csv.writer(trace_file, lineterminator="\n") if trace_file else None
        if writer:
            writer.writerow(["t", "event", "n_active", "accepted"])
        while heap:
            t, _, kind, pid = heapq.heappop(heap)
            while next_snap is not None and next_snap < min(t, horizon):
                snapshots.append(active.placements())
                next_snap = next(snap_iter, None)
            integrate_to(t)
            if t > horizon:
                t_prev = horizon
                break
            t_prev = t
            if kind == _ARRIVAL:
                placement = place_pair(rng, dep)
                post = t >= warmup
                if post:
                    observed += 1
                ok = _admit(placement, *active.arrays(), config.radio, config.antenna,
                            config.check_mode, reach)
                if ok:
                    active.add(next_pair_id, placement)
                    admitted_total += 1
                    if post:
                        accepted += 1
                    heapq.heappush(heap, (t + rng.exponential(1.0 / dep.mu), seq, _DEPARTURE, next_pair_id))
                    seq += 1
                    next_pair_id += 1
                heapq.heappush(heap, (t + rng.exponential(1.0 / lam), seq, _ARRIVAL, -1))
                seq += 1
                if writer:
                    writer.writerow([repr(t), "arrival", len(active), int(ok)])
            else:
                active.remove(pid)
                departed_total += 1
                if writer:
                    writer.writerow([repr(t), "departure", len(active), ""])
            assert admitted_total - departed_total == len(active)
        else:
            integrate_to(horizon)
            t_prev = horizon

    while next_snap is not None and next_snap <= horizon:
        snapshots.append(active.placements())
        next_snap = next(snap_iter, None)

    measured = horizon - warmup
    mean_n = sum(n * dt for n, dt in state_time.items()) / measured
    p_acc = accepted / observed if observed > 0 else math.nan
    interference = interference_num / interference_den if interference_den > 0 else math.nan
    return ReplicationResult(
        mean_pairs=mean_n, p_accept=p_acc, observed=observed, accepted=accepted,
        state_time=state_time, measured_time=measured,
        admitted_total=admitted_total, departed_total=departed_total,
        final_active=admitted_total - departed_total,
        interference_mw=interference, snapshots=tuple(snapshots),
    )


def _rep_worker(args):
    config, idx, trace_dir = args
    trace_path = None if trace_dir is None else f"{trace_dir}/replication_{idx:03d}.csv"
    return run_replication(config, idx, trace_path=trace_path)


def run(config: SimConfig, jobs: int = 1, trace_dir=None) -> SimStats:
    """Run every replication and aggregate time-averaged statistics.

    Identical configs (seed included) produce identical SimStats; the
    replication results are reduced in index order regardless of how many
    workers execute them.
    """
    tasks = [(config, i, trace_dir) for i in range(config.replications)]
    if jobs > 1 and config.replications > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            reps = list(pool.map(_rep_worker, tasks))
    else:
        reps = [_rep_worker(t) for t in tasks]
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


def _t_halfwidth(values: np.ndarray, level: float = 0.95) -> float:
    n = values.size
    if n < 2:
        return math.inf
    q = stats.t.ppf(0.5 + level / 2.0, n - 1)
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
    p = _cross_pair_powers(*_placements_to_arrays(placements), radio, antenna)
    p[~np.isfinite(p)] = np.inf
    return float(p.max())

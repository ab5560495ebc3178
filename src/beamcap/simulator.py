"""Spatial discrete-event Monte Carlo of pair arrivals in a disk.

Pairs arrive as a Poisson stream, are placed by a pair-distance model,
pass a listen-before-talk admission test against every active device,
and depart after an exponential service time.  Rejected arrivals are
cleared.  Statistics are time averages over a post-warmup window,
aggregated across independent replications with Student-t intervals.
The run reads the same Scenario the chain is formed from (Scenario.chain):
one object serves both engines.

One kernel, radio.received_power_mw, defines received power for
admission and the audit.  A replication keeps its active devices in one
admission index for every antenna, a grid of beam sectors (_SectorGrid),
whose pairs are decided in scalar code (_covers), or by the kernel inside
a rounding band and where the scalar test cannot decide (a table antenna,
a link budget out of range).  Every decision is the kernel's, so output
bytes do not depend on which side decides.
"""

from __future__ import annotations

import heapq
import math
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from .radio import AntennaModel, RadioParams, link_budget, received_power_mw

if TYPE_CHECKING:  # scenario imports the parameter classes from here
    from .scenario import Scenario

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
            raise ValueError(f"mu must give a finite load lambda_total / mu, got "
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
    """Replication-aggregated simulation outputs.

    p_accept is NaN (with an 'undefined' flag) when no post-warmup arrival
    was observed.  CI halfwidths are 95% Student-t over replication means
    and infinite when fewer than two replications are available.
    """

    mean_pairs: float
    p_accept: float
    ci_halfwidth_mean_pairs: float
    ci_halfwidth_p_accept: float
    arrivals_observed: int
    flags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not math.isnan(self.p_accept) and not 0.0 <= self.p_accept <= 1.0:
            raise ValueError(f"p_accept must lie in [0, 1], got {self.p_accept}")
        if self.ci_halfwidth_mean_pairs < 0 or self.ci_halfwidth_p_accept < 0:
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


class _ScalarTest(NamedTuple):
    """Per-replication constants of the scalar admission test."""

    k0: float          # p_tx*D0/(C*N_thr): power >= N_thr iff (1 - alpha/theta)*k0 >= d^kappa
    r2: float          # squared screen radius: no pair farther apart covers
    radius: float      # the grid's sector radius and cell side: sqrt(r2), or reach
    theta: float       # the sector's half-angle: no pair past theta + 2*eta covers at d > 0
    half_kappa: float
    rel: float         # angle-free part of the band, 2*(9*kappa + 32)*u; inf: the kernel decides


_U = 2.0 ** -53                 # float64 unit roundoff
_ANGLE_ERR = 40.0 * _U          # |computed - exact| deviation angle on either path [rad]
_ANGLE_BAND = 88.0 * _U         # 2*(_ANGLE_ERR + pi*u), rounded up
_TINY = 1e-300                  # smaller d^2 or d^kappa may be subnormal: the kernel decides
_RANGE = 1e250                  # k0, reach^2 and C*k0 inside (1/R, R) keep both paths normal
_TWO_PI = 2.0 * math.pi


def _scalar_test(radio: RadioParams, antenna: AntennaModel) -> _ScalarTest:
    """Constants of the scalar test.  Where it cannot decide, rel = inf and the kernel
    decides every pair the screens leave: a table antenna, whose sector is the disk of
    radius reach (theta = pi), or an analytic link budget out of range.  There r2 =
    reach^2, at least 1e-300, as a subnormal r2 could round below a d2 the kernel covers."""
    kappa, k0 = radio.kappa, link_budget(radio, antenna.peak_gain_linear(radio))
    reach = k0 ** (1.0 / kappa) * (1.0 + 1e-9)      # farthest any gain (<= peak) reaches
    analytic = antenna.angles is None
    if (analytic and 1.0 / _RANGE < k0 < _RANGE and k0 * radio.c_const < _RANGE
            and 1.0 / _RANGE < reach * reach < _RANGE):
        r2 = k0 ** (2.0 / kappa) * (1.0 + (32.0 + (32.0 + 2.0 * abs(math.log(k0))) / kappa) * _U)
        return _ScalarTest(k0, r2, math.sqrt(r2), radio.theta, 0.5 * kappa,
                           2.0 * (9.0 * kappa + 32.0) * _U)
    return _ScalarTest(k0, max(reach * reach, _TINY), reach, radio.theta if analytic else math.pi,
                       0.5 * kappa, math.inf)


def _covers(alpha: float, d2: float, st: _ScalarTest) -> bool | None:
    """Whether a transmitter delivers the threshold to a receiver at squared
    distance d2 and wrapped deviation angle alpha: the kernel's decision, or
    None where the test defers to received_power_mw, the one definition of
    power.  Callers skip pairs with d^2 > r2 before atan2, and those with
    alpha - theta >= 2*eta unless d^2 < 1e-300.

    With k0 = p_tx*D0/(C*N_thr), power >= N_thr is q = (1 - alpha/theta)*k0
    / d^kappa >= 1.  Outside a band |q - 1| < eps the sign of q - 1 is the
    kernel's decision; inside it, where alpha is within 2*eta of theta, at
    d -> 0 and wherever rel = inf, the test defers.

    The band.  Let u = 2^-53, take the float inputs (dx and dy, which both
    paths compute alike, the boresights, p_tx, D0, theta, kappa, C, N_thr) as
    exact and q* as the exact ratio.  Count each + - * / as one rounding
    (relative <= u) and each hypot, pow and atan2, libm or numpy, as at most
    4 ulp (relative <= 8u; absolute <= 16u for an angle of size <= pi).

    - Angle, per path: atan2 16u, the subtraction of bore 4u, the wrap
      ((x + pi) % 2pi - pi: 8u + 4u + 2u, plus 3.3u for the float pi and
      2pi) give |alpha - alpha*| <= eta = 40u.  With alpha/theta rounded
      (abs. error <= pi*u/theta) and 1 - x rounded (u), the gain factor g
      has |g/g* - 1| <= u + (eta + pi*u)/(theta - alpha*), which grows at
      the beam edge; gap = theta - alpha - 2*eta <= theta - alpha* on either
      path.  Near alpha = pi, where the wrap may land on either side of
      +-pi, every computed alpha is within eta of pi >= theta: gap < 0.
    - Distance, power and products.  Kernel: hypot 8u, raised to kappa
      8*kappa*u, pow 8u, four products and quotients 4u: (8*kappa + 12)u.
      Scalar: d^2 2u, raised to kappa/2 kappa*u, pow 8u, k0 3u, lhs u, the
      compared product rhs*(1 +- eps) and its constant 2u: (kappa + 15)u.
    - So q_s = q*(1 + a) and q_k = q*(1 + b), the kernel's p/N_thr, with
      |a| + |b| <= e = (9*kappa + 29)u + 2*(eta + pi*u)/gap; rounding the
      coefficients up to (9*kappa + 32)u and 88u covers the second-order
      terms.  For e <= 1/2, q_k/q_s lies in [1 - e, 1 + 2e], so q_s >= 1 + 2e
      gives q_k >= (1 + 2e)(1 - e) >= 1 and q_s < 1 - 2e gives q_k < 1.  The
      band is eps = 2e = rel + 2*88u/gap, rel = 2*(9*kappa + 32)u, if < 1.
    - Zero gain.  alpha - theta >= 2*eta puts both paths' angles at or past
      theta, where the kernel's gain is exactly 0: power 0, or NaN, at d > 0.
    - Screen.  The kernel's gain factor is at most 1, so it cannot reach
      N_thr unless kappa*ln d* - ln k0* < (8*kappa + 12)u.  d2 carries 2u,
      k0 3u, 2/kappa u (an error of u*|ln k0| in the power), pow 8u and the
      widened product 2u; so d2 > r2 = k0^(2/kappa)*(1 + delta), delta =
      (32 + (32 + 2|ln k0|)/kappa)u, rules the pair out.  Where the test
      defers, r2 = reach^2 (normal) rules it out by reach's 1e-9 margin.
    - Range.  The bounds hold for normal floats: _scalar_test keeps k0, C*k0
      and reach^2 within (1e-250, 1e250) or defers, and d^2 or d^kappa below
      1e-300 (d -> 0, coincident devices included) goes to the kernel.
    """
    gap = st.theta - alpha - 2.0 * _ANGLE_ERR
    if d2 >= _TINY and gap > 0.0:
        band = st.rel + 2.0 * _ANGLE_BAND / gap
        if band < 1.0:
            rhs = d2 ** st.half_kappa
            if rhs >= _TINY:
                lhs = (1.0 - alpha / st.theta) * st.k0
                if lhs >= rhs * (1.0 + band):
                    return True
                if lhs < rhs * (1.0 - band):
                    return False
    return None


class _SectorGrid:
    """Admission index: a uniform grid of square cells of side radius, at least
    min_side.  Each active device is listed as a receiver in its own cell, and
    as a transmitter in every cell that meets the box of its beam sector.  A
    candidate device meets the transmitters listed in its cell and, in a
    two-way test, the receivers in the cells of its own beam's box.  The
    scalar test (_covers) decides each pair found, and one kernel call per
    direction the pairs it defers; admission is "no pair covers", so the
    order of the pairs does not matter.

    The cells hold every pair that could reach the threshold.  The screens
    rule a pair out, as the kernel would, when d^2 > r2, or when alpha - theta
    >= 2*eta and d^2 >= 1e-300, and a pair at d > 0 past that angle has zero
    gain.  So a covered receiver sits on the transmitter, or within radius*(1
    + 3u) of it (where the test defers, reach bounds the kernel's range) at an
    exact bearing within theta + 4*eta of the boresight (eta for alpha, 2u for
    dx and dy): within 1e-9*radius of the sector of that radius and half-angle
    theta, the disk at theta = pi.  The box is widened by that much, plus
    1e-12*(|x| + |y|) for its corners' rounding; rounded x/side does not
    decrease as x grows, so the receiver's cell is among the box's.  The side
    only chooses which pairs are examined; its floor min_side, 1e-9 of the
    region radius, keeps that rounding term within a cell or two of a box.
    """

    def __init__(self, radio: RadioParams, antenna: AntennaModel, mode: CheckMode,
                 min_side: float):
        self._st = st = _scalar_test(radio, antenna)
        self._radio, self._antenna = radio, antenna
        self._two_way = mode is CheckMode.TWO_WAY
        self._side, self._radius = max(st.radius, min_side), st.radius
        self._cos, self._sin = math.cos(st.theta), math.sin(st.theta)
        self._tx: defaultdict[tuple[int, int], dict[int, tuple]] = defaultdict(dict)
        self._rx: defaultdict[tuple[int, int], dict[int, tuple]] = defaultdict(dict)
        self._listed: dict[int, tuple] = {}     # device -> (its cell, its sector's cells)

    def _box_cells(self, x: float, y: float, bore: float) -> list[tuple[int, int]]:
        """Cells that meet the widened box of the beam sector at (x, y) about bore."""
        r, ch, sh, c, s = self._radius, self._cos, self._sin, math.cos(bore), math.sin(bore)
        # the apex, the arc ends at bore -+ theta, and each axis direction within
        # theta of the boresight (rounding included) bound the sector
        x1, y1, x2, y2 = c * ch + s * sh, s * ch - c * sh, c * ch - s * sh, s * ch + c * sh
        lo = ch - 1e-9
        x_hi = r if c >= lo else r * max(0.0, x1, x2)
        x_lo = -r if -c >= lo else r * min(0.0, x1, x2)
        y_hi = r if s >= lo else r * max(0.0, y1, y2)
        y_lo = -r if -s >= lo else r * min(0.0, y1, y2)
        m, side, floor = 1e-9 * r + 1e-12 * (abs(x) + abs(y)), self._side, math.floor
        rows = range(floor((y + y_lo - m) / side), floor((y + y_hi + m) / side) + 1)
        return [(i, j) for i in range(floor((x + x_lo - m) / side),
                                      floor((x + x_hi + m) / side) + 1) for j in rows]

    def add(self, pair_id: int, placement: PairPlacement, boxes=None) -> None:
        """List the devices as 2*pair_id and 2*pair_id + 1 (boxes: their sectors' cells)."""
        side, floor = self._side, math.floor
        devices = ((placement.pos_a, placement.boresight_ab),
                   (placement.pos_b, placement.boresight_ba))
        boxes = boxes or [self._box_cells(x, y, bore) for (x, y), bore in devices]
        for key, ((x, y), bore), box in zip((2 * pair_id, 2 * pair_id + 1), devices, boxes):
            entry, own = (x, y, bore), (floor(x / side), floor(y / side))
            self._rx[own][key] = entry
            for cell in box:
                self._tx[cell][key] = entry
            self._listed[key] = own, box

    def remove(self, pair_id: int) -> None:
        for key in (2 * pair_id, 2 * pair_id + 1):
            own, box = self._listed.pop(key)
            del self._rx[own][key]
            for cell in box:
                del self._tx[cell][key]

    def admit(self, pair_id: int, candidate: PairPlacement) -> bool:
        """Admit candidate as pair_id unless a (transmitter, receiver) pair covers."""
        st = self._st
        r2, theta, edge, tiny, pi = st.r2, st.theta, 2.0 * _ANGLE_ERR, _TINY, math.pi
        side, floor, atan2, fabs, two_pi = self._side, math.floor, math.atan2, math.fabs, _TWO_PI
        pos_a, pos_b, bore_ab, bore_ba = candidate
        deferred = []                           # (dx, dy, boresight) for the kernel
        for cx, cy in (pos_a, pos_b):
            listed = self._tx.get((floor(cx / side), floor(cy / side)))
            for px, py, pbore in listed.values() if listed else ():
                dx, dy = cx - px, cy - py
                d2 = dx * dx + dy * dy
                if d2 > r2:
                    continue
                # alpha - theta >= 2*eta: zero gain on both paths, unless d -> 0
                alpha = fabs((atan2(dy, dx) - pbore + pi) % two_pi - pi)
                if alpha - theta < edge or d2 < tiny:
                    covers = _covers(alpha, d2, st)
                    if covers:
                        return False
                    if covers is None:
                        deferred.append((dx, dy, pbore))
        if deferred and self._kernel_covers(deferred):
            return False
        devices = ((pos_a, bore_ab), (pos_b, bore_ba))
        boxes = [self._box_cells(x, y, bore) for (x, y), bore in devices]
        deferred = []
        for ((cx, cy), cbore), box in zip(devices, boxes if self._two_way else ()):
            for cell in box:
                listed = self._rx.get(cell)
                for px, py, _ in listed.values() if listed else ():
                    rx, ry = px - cx, py - cy
                    d2 = rx * rx + ry * ry
                    if d2 > r2:
                        continue
                    alpha = fabs((atan2(ry, rx) - cbore + pi) % two_pi - pi)
                    if alpha - theta < edge or d2 < tiny:
                        covers = _covers(alpha, d2, st)
                        if covers:
                            return False
                        if covers is None:
                            deferred.append((rx, ry, cbore))
        if deferred and self._kernel_covers(deferred):
            return False
        self.add(pair_id, candidate, boxes)
        return True

    def _kernel_covers(self, pairs: list[tuple[float, float, float]]) -> bool:
        """Whether the kernel delivers the threshold over any (dx, dy, boresight)."""
        dx, dy, bore = np.array(pairs).T.copy()
        return bool((received_power_mw(dx, dy, bore, self._radio, self._antenna)
                     >= self._radio.n_thr_mw).any())


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
    index = _SectorGrid(radio, antenna, mode, 1e-9 * extent)
    for pair_id, placement in enumerate(active):
        index.add(pair_id, placement)
    return index.admit(len(active), candidate)


def run_replication(scn: Scenario, rep_index: int, *,
                    snapshot_times: Sequence[float] = ()) -> ReplicationResult:
    """One independent replication with its own generator and event set.

    The Poisson stream has exactly one pending arrival, held in t_arrival; the
    departure heap is the active set, (time, pair id, placement) per pair.  Pair
    ids rise in admission order, which orders tied departures and snapshots.
    An arrival and a departure at exactly the same time (probability zero)
    are taken arrival first.
    """
    rng = np.random.default_rng(np.random.SeedSequence(scn.seed, spawn_key=(rep_index,)))
    dep = scn.deployment
    lam = dep.lambda_total
    warmup, horizon = scn.warmup, scn.horizon
    index = _SectorGrid(scn.radio, scn.antenna, scn.check_mode, 1e-9 * dep.region_radius)
    admit, remove = index.admit, index.remove
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
            if admit(next_pair_id, placement):
                if post:
                    accepted += 1
                push(departures, (t + exponential(mean_service), next_pair_id, placement))
                next_pair_id += 1
            t_arrival = t + exponential(mean_gap)
        else:
            remove(pop(departures)[1])

    return ReplicationResult(observed, accepted, state_time, tuple(snapshots))


def _replicate(scn: Scenario, rep_index: int) -> ReplicationResult:
    # the pool pickles its function by name, and the module attribute
    # run_replication may be a wrapper that does not pickle (perfbench's tracer)
    return run_replication(scn, rep_index)


def run(scn: Scenario, jobs: int = 1) -> SimStats:
    """Run every replication and aggregate time-averaged statistics.

    Identical scenarios (seed included) produce identical SimStats; the
    replication results are reduced in index order regardless of how many
    workers execute them.  At most one worker per replication is started.
    """
    indices = range(scn.replications)
    workers = min(jobs, scn.replications)
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
        p_accept=p_accept,
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
    if len(placements) < 2:
        return 0.0
    pos = np.array([xy for p in placements for xy in (p.pos_a, p.pos_b)], dtype=float)
    bore = np.array([b for p in placements for b in (p.boresight_ab, p.boresight_ba)])
    # power from each device i (row) at each device j
    p = received_power_mw(pos[None, :, 0] - pos[:, None, 0], pos[None, :, 1] - pos[:, None, 1],
                          bore[:, None], radio, antenna)
    blk = np.arange(pos.shape[0]) // 2
    row, col = blk[:, None], blk[None, :]
    p[row >= col if mode is CheckMode.ONE_WAY else row == col] = 0.0   # own pair: the desired link
    p[~np.isfinite(p)] = np.inf
    return float(p.max())

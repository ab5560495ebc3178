import hashlib
import math
import os
from dataclasses import dataclass, replace

import numpy as np
import pytest
from scipy import stats as sps

from beamcap import (AntennaModel, CheckMode, CuboidProjection, DeploymentParams,
                     FixedDistance, PairPlacement, RadioParams,
                     UniformDistance, admission_check, coverage_radius,
                     place_pair, run, run_replication)
from beamcap.cli import main
from beamcap.scenario import ScenarioError, build_scenario, load_scenario
from beamcap.simulator import (PlacementError, aggregate, max_cross_pair_power,
                               mean_projected_distance)

DEG = math.pi / 180.0

# deterministic high-precision integral of the projected cuboid distance
CUBOID_MEAN_D = 0.211954083336


def deployment(r_d=300.0, lam=3.33e-4, mu=1.0, model=None):
    return DeploymentParams(r_d, lam, mu, model or CuboidProjection(0.3, 0.5, 0.6))


def small_radio(**kw):
    defaults = dict(p_tx_dbm=10.0, n_thr_dbm=-78.0, theta=52 * DEG, kappa=2.0, c_const=6.3e6)
    defaults.update(kw)
    return RadioParams(**defaults)


def pair(ax, ay, bx, by):
    return PairPlacement((ax, ay), (bx, by),
                         math.atan2(by - ay, bx - ax), math.atan2(ay - by, ax - bx))


class TestPlacePair:
    def test_fixed_distance_exact(self):
        rng = np.random.default_rng(1)
        dep = deployment(model=FixedDistance(0.5))
        for _ in range(200):
            p = place_pair(rng, dep)
            d = math.dist(p.pos_a, p.pos_b)
            assert d == pytest.approx(0.5, rel=1e-12)
            assert math.hypot(*p.pos_a) <= dep.region_radius
            assert math.hypot(*p.pos_b) <= dep.region_radius

    def test_boresights_point_at_partner(self):
        rng = np.random.default_rng(2)
        p = place_pair(rng, deployment(model=FixedDistance(1.0)))
        expect_ab = math.atan2(p.pos_b[1] - p.pos_a[1], p.pos_b[0] - p.pos_a[0])
        assert p.boresight_ab == pytest.approx(expect_ab)
        assert abs(abs(p.boresight_ab - p.boresight_ba) - math.pi) < 1e-12

    def test_cuboid_projected_bound(self):
        rng = np.random.default_rng(3)
        dep = deployment(model=CuboidProjection(0.3, 0.5, 0.6))
        bound = math.hypot(0.3, 0.5)
        for _ in range(500):
            p = place_pair(rng, dep)
            assert math.dist(p.pos_a, p.pos_b) <= bound + 1e-12

    def test_cuboid_mean_distance(self):
        rng = np.random.default_rng(4)
        dep = deployment(model=CuboidProjection(0.3, 0.5, 0.6))
        ds = [math.dist(*(lambda q: (q.pos_a, q.pos_b))(place_pair(rng, dep)))
              for _ in range(20000)]
        se = np.std(ds, ddof=1) / math.sqrt(len(ds))
        assert np.mean(ds) == pytest.approx(CUBOID_MEAN_D, abs=4 * se)

    def test_truncated_uniform(self):
        rng = np.random.default_rng(5)
        model = UniformDistance(1.0)
        dep = deployment(model=model)
        ds = [math.dist(p.pos_a, p.pos_b)
              for p in (place_pair(rng, dep) for _ in range(5000))]
        assert max(ds) <= 1.0
        assert np.mean(ds) == pytest.approx(0.5, abs=0.02)

    def test_partner_resampled_inside_disk(self):
        rng = np.random.default_rng(6)
        dep = deployment(r_d=10.0, model=FixedDistance(15.0))
        for _ in range(200):
            p = place_pair(rng, dep)
            assert math.hypot(*p.pos_a) <= 10.0
            assert math.hypot(*p.pos_b) <= 10.0

    @pytest.mark.parametrize("model", [FixedDistance(0.7), UniformDistance(5.0),
                                       CuboidProjection(0.3, 0.5, 0.6)])
    def test_matches_numpy_draws(self, model):
        # the array draws place_pair made before its scalar draws, the stream
        # the golden simulate outputs hold
        dep = deployment(r_d=20.0, model=model)
        ours, theirs = np.random.default_rng(12), np.random.default_rng(12)
        for _ in range(5_000):
            assert place_pair(ours, dep) == reference_place_pair(theirs, dep)

    @pytest.mark.parametrize("model, r_d", [(FixedDistance(0.7), 1.5), (UniformDistance(5.0), 6.0),
                                            (CuboidProjection(0.3, 0.5, 0.6), 0.4)])
    def test_draw_counts_match_reference(self, model, r_d):
        # a region small enough that many attempts retry: each placement leaves
        # the generator where the reference's scalar and array draws leave it
        dep = deployment(r_d=r_d, model=model)
        ours, theirs = np.random.default_rng(31), np.random.default_rng(31)
        attempts = []
        for _ in range(2_000):
            assert place_pair(ours, dep) == reference_place_pair(theirs, dep, attempts)
            assert ours.bit_generator.state == theirs.bit_generator.state
        assert sum(a - 1 for a in attempts) >= 0.1 * sum(attempts)

    @pytest.mark.parametrize("model, r_d", [(FixedDistance(50.0), 10.0),
                                            (UniformDistance(1000.0), 1e-3),
                                            (CuboidProjection(100.0, 100.0, 1.0), 1.0)])
    def test_exhaustion_draws_match_reference(self, model, r_d):
        dep = deployment(r_d=r_d, model=model)
        ours, theirs = np.random.default_rng(32), np.random.default_rng(32)
        with pytest.raises(PlacementError):
            place_pair(ours, dep)
        with pytest.raises(PlacementError):
            reference_place_pair(theirs, dep)
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_impossible_placement_raises(self):
        rng = np.random.default_rng(7)
        dep = deployment(r_d=10.0, model=FixedDistance(50.0))
        with pytest.raises(RuntimeError, match="100 attempts"):
            place_pair(rng, dep)


class TestScalarDraws:
    """Scalar placement draws against the numpy calls they replace, bit for bit."""

    N = 200_000

    @pytest.mark.parametrize("d_max", [1e-3, 0.7, 1.0, 5.0, 13.37, 250.0])
    def test_uniform_distance_matches_interp(self, d_max):
        model = UniformDistance(d_max)
        u = np.random.default_rng(21).random(self.N)
        got = np.array([model.quantile(v) for v in u.tolist()])
        want = np.interp(u, [0.0, 0.5, 1.0], [0.0, 0.5 * d_max, d_max])
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("dims", [(0.3, 0.5, 0.6), (1.0, 1.0, 1.0), (7.1, 0.02, 3.3)])
    def test_cuboid_offsets_match_uniform(self, dims):
        u = np.random.default_rng(22).random(6 * self.N).tolist()
        got = np.array([(v - 0.5) * dims[i % 3] for i, v in enumerate(u)]).reshape(-1, 2, 3)
        want = np.random.default_rng(22).uniform(-0.5, 0.5, size=(self.N, 2, 3)) * dims
        assert np.array_equal(got, want)


def reference_place_pair(rng, deployment, attempts=None):
    """place_pair with the draws it used to make, one call per uniform:
    np.interp for the uniform distance, rng.uniform for the cuboid offsets.
    attempts, if given, gets the number of attempts each placement took."""
    r_d, model = deployment.region_radius, deployment.pair_model
    for attempt in range(1, 101):
        r = r_d * math.sqrt(rng.random())
        phi = 2.0 * math.pi * rng.random()
        ax, ay = r * math.cos(phi), r * math.sin(phi)
        if isinstance(model, CuboidProjection):
            off = rng.uniform(-0.5, 0.5, size=(2, 3)) * (model.dx, model.dy, model.dz)
            bx, by = ax + off[1, 0], ay + off[1, 1]
            ax, ay = ax + off[0, 0], ay + off[0, 1]
        else:
            d = model.distance if isinstance(model, FixedDistance) else float(np.interp(
                rng.random(), [0.0, 0.5, 1.0], [0.0, 0.5 * model.d_max, model.d_max]))
            psi = 2.0 * math.pi * rng.random()
            bx, by = ax + d * math.cos(psi), ay + d * math.sin(psi)
        if ax * ax + ay * ay > r_d * r_d or bx * bx + by * by > r_d * r_d:
            continue
        if attempts is not None:
            attempts.append(attempt)
        return PairPlacement((ax, ay), (bx, by), math.atan2(by - ay, bx - ax),
                             math.atan2(ay - by, ax - bx))
    raise PlacementError("no placement")


class TestAdmissionCheck:
    def setup_method(self):
        self.radio = small_radio()
        self.antenna = AntennaModel()
        self.r = coverage_radius(self.radio)

    def test_empty_system_accepts(self):
        cand = pair(0, 0, 0.5, 0)
        assert admission_check(cand, [], self.radio, self.antenna, CheckMode.ONE_WAY)
        assert admission_check(cand, [], self.radio, self.antenna, CheckMode.TWO_WAY)

    def test_on_boresight_within_range_rejects(self):
        active = [pair(0, 0, 1, 0)]  # transmits toward +x
        cand = pair(self.r / 2, 0, self.r / 2 + 0.5, 0)
        assert not admission_check(cand, active, self.radio, self.antenna, CheckMode.ONE_WAY)

    def test_outside_every_beam_accepts(self):
        active = [pair(0, 0, 0.5, 0)]  # beams along the x axis
        cand = pair(0, 60, 0.5, 60)    # straight above, 90 deg off both bores
        assert admission_check(cand, active, self.radio, self.antenna, CheckMode.ONE_WAY)
        assert admission_check(cand, active, self.radio, self.antenna, CheckMode.TWO_WAY)

    def test_two_way_rejects_reverse_interference(self):
        # candidate sits outside the active beams but its own beam covers
        # the active pair from 22 m away
        active = [pair(0, 0, 0.5, 0)]
        cand = pair(10, 20, 10, 19.5)
        assert admission_check(cand, active, self.radio, self.antenna, CheckMode.ONE_WAY)
        assert not admission_check(cand, active, self.radio, self.antenna, CheckMode.TWO_WAY)

    def test_coincident_device_rejects(self):
        active = [pair(0, 0, 0.5, 0)]
        cand = pair(0, 0, -0.5, 0)
        assert not admission_check(cand, active, self.radio, self.antenna, CheckMode.ONE_WAY)

    def test_two_way_implies_one_way(self):
        # two-way only adds constraints: any candidate it admits must also
        # pass the one-way test against the same active set
        rng = np.random.default_rng(99)
        dep = deployment(r_d=80.0, model=FixedDistance(0.5))
        for _ in range(300):
            active = [place_pair(rng, dep) for _ in range(rng.integers(0, 6))]
            cand = place_pair(rng, dep)
            two = admission_check(cand, active, self.radio, self.antenna, CheckMode.TWO_WAY)
            one = admission_check(cand, active, self.radio, self.antenna, CheckMode.ONE_WAY)
            if two:
                assert one


def sim_scenario(lam=3.33e-4, r_d=300.0, seed=11, reps=2, warmup=10.0, horizon=40.0,
                 mode=CheckMode.TWO_WAY, p_tx_dbm=10.0):
    """The small_radio link budget and the deployment() pair model, as config keys."""
    return build_scenario({
        "lambda_per_m2": repr(lam), "r_d_m": repr(r_d), "seed": str(seed),
        "replications": str(reps), "warmup_s": repr(warmup), "horizon_s": repr(horizon),
        "check_mode": mode.value, "p_tx_dbm": repr(p_tx_dbm),
    })


class TestRun:
    def test_no_arrivals(self):
        stats = run(sim_scenario(lam=0.0, reps=2))
        assert stats.mean_pairs == 0.0
        assert math.isnan(stats.p_accept)
        assert "undefined" in stats.flags
        assert stats.arrivals_observed == 0

    def test_determinism_and_seed_sensitivity(self):
        cfg = sim_scenario(seed=42)
        s1, s2 = run(cfg), run(cfg)
        assert s1.mean_pairs == s2.mean_pairs
        assert s1.p_accept == s2.p_accept
        assert s1.ci_halfwidth_mean_pairs == s2.ci_halfwidth_mean_pairs
        s3 = run(sim_scenario(seed=43))
        assert s3.mean_pairs != s1.mean_pairs

    def test_table_antenna_tracks_analytic(self):
        # a pattern sampled from the conical gain must reproduce analytic
        # admission behaviour up to interpolation error
        radio = small_radio()
        d0 = 2.0 / (1.0 - math.cos(radio.theta / 2.0))
        rows = []
        steps = 104
        for i in range(steps):
            a = radio.theta * i / steps
            rows.append((a, 10 * math.log10(d0 * (1 - a / radio.theta))))
        rows.append((radio.theta, -150.0))
        table = AntennaModel(*zip(*rows))
        base = sim_scenario(lam=20.0 / (math.pi * 200.0**2), r_d=200.0, seed=17,
                          warmup=5.0, horizon=30.0)
        tbl_cfg = replace(base, antenna=table)
        s_analytic = run(base)
        s_table = run(tbl_cfg)
        assert s_table.p_accept == pytest.approx(s_analytic.p_accept, abs=0.05)
        assert s_table.mean_pairs == pytest.approx(s_analytic.mean_pairs, rel=0.1)

    def test_parallel_matches_serial(self, tmp_path, capsys):
        # desk-fig5 geometry at 0.02 /s/m^2: the admission index holds
        # hundreds of pairs by the end of the window
        cfg = tmp_path / "dense.cfg"
        cfg.write_text("r_d_m = 300\nlambda_per_m2 = 0.02\ntheta_deg = 30\n"
                       "pair_model = uniform:5\nreplications = 2\nwarmup_s = 1.5\n"
                       "horizon_s = 2\n")
        out = {}
        for jobs in (1, 2):
            assert main(["simulate", "--config", str(cfg), "--seed", "13",
                         "--jobs", str(jobs)]) == 0
            out[jobs] = capsys.readouterr().out
        assert out[1] == out[2]
        assert float(out[1].splitlines()[1].split(",")[4]) > 100.0

    def test_negligible_footprint_matches_mminf(self):
        # -70 dBm transmit power shrinks coverage to millimetres: no pair
        # ever interacts and the population is pure immigration-death
        lam_density = 5.0 / (math.pi * 50.0**2)
        cfg = sim_scenario(lam=lam_density, r_d=50.0, p_tx_dbm=-70.0, seed=5,
                         reps=4, warmup=20.0, horizon=520.0)
        reps = [run_replication(cfg, i) for i in range(cfg.replications)]
        stats = aggregate(reps, cfg)
        assert stats.p_accept == 1.0
        assert abs(stats.mean_pairs - 5.0) <= max(3 * stats.ci_halfwidth_mean_pairs, 0.15)
        # chi-square against the Poisson pmf at the 1% level, effective
        # sample count discounted for autocorrelation (one per 2/mu)
        n_eff = 4 * 500.0 / 2.0
        occupancy = np.zeros(max(max(r.state_time) for r in reps) + 1)
        for r in reps:
            for k, dt in r.state_time.items():
                occupancy[k] += dt
        pmf = np.array([math.exp(k * math.log(5.0) - 5.0 - math.lgamma(k + 1))
                        for k in range(occupancy.size)])
        obs = occupancy / occupancy.sum() * n_eff
        exp = pmf * n_eff
        keep = exp >= 5.0
        obs_binned = np.append(obs[keep], obs[~keep].sum())
        exp_binned = np.append(exp[keep], exp[~keep].sum() + (n_eff - exp.sum()))
        chi2 = float(((obs_binned - exp_binned) ** 2 / exp_binned).sum())
        p_value = float(sps.chi2.sf(chi2, df=obs_binned.size - 1))
        assert p_value >= 0.01

    def test_two_way_not_more_permissive(self):
        lam = 30.0 / (math.pi * 200.0**2)
        one = run(sim_scenario(lam=lam, r_d=200.0, seed=21, mode=CheckMode.ONE_WAY))
        two = run(sim_scenario(lam=lam, r_d=200.0, seed=21, mode=CheckMode.TWO_WAY))
        assert two.p_accept <= one.p_accept

    def test_population_conservation(self):
        cfg = sim_scenario(seed=31, reps=1)
        rep = run_replication(cfg, 0)
        assert 0 <= rep.accepted <= rep.observed

    def test_hardcore_property_two_way(self):
        lam = 30.0 / (math.pi * 200.0**2)
        cfg = sim_scenario(lam=lam, r_d=200.0, seed=8, reps=1, warmup=5.0, horizon=30.0)
        rep = run_replication(cfg, 0, snapshot_times=np.linspace(6, 29, 12))
        assert any(len(s) >= 2 for s in rep.snapshots)
        for snapshot in rep.snapshots:
            worst = max_cross_pair_power(snapshot, cfg.radio, cfg.antenna)
            assert worst < cfg.radio.n_thr_mw

    def test_hardcore_property_one_way(self):
        # a one-way newcomer may cover earlier pairs, never the reverse
        lam = 30.0 / (math.pi * 200.0**2)
        cfg = sim_scenario(lam=lam, r_d=200.0, seed=8, reps=1, warmup=5.0, horizon=30.0,
                         mode=CheckMode.ONE_WAY)
        rep = run_replication(cfg, 0, snapshot_times=np.linspace(6, 29, 12))
        ordered = max(max_cross_pair_power(s, cfg.radio, cfg.antenna, CheckMode.ONE_WAY)
                      for s in rep.snapshots)
        either = max(max_cross_pair_power(s, cfg.radio, cfg.antenna) for s in rep.snapshots)
        assert ordered < cfg.radio.n_thr_mw <= either

    @pytest.mark.parametrize("mode, digest", [
        ("two-way", "3ecc4f9d9d6ce62c59b470514ac43da173a3c35d014f9c3f64f91d5168a450da"),
        ("one-way", "2b4db0a796f7d63294251e6fe53c819bbed6de5ddf2d0846089b43d17168dcdd"),
    ])
    def test_snapshots_pinned(self, mode, digest):
        # snapshots list the active pairs in admission order, which the one-way
        # audit reads; the digest pins their order as well as their contents
        scn = load_scenario(preset="desk-fig4", overrides={"check_mode": mode, "seed": "7"})
        rep = run_replication(scn, 3, snapshot_times=np.linspace(21.0, 89.0, 18))
        assert hashlib.sha256(repr(rep.snapshots).encode()).hexdigest() == digest

    def test_place_pair_wrapper_sees_every_arrival(self, tmp_path, capsys, monkeypatch):
        # perfbench counts arrivals with a wrapper set on simulator.place_pair:
        # the loop calls it once per arrival, and the output keeps every byte
        from beamcap import simulator
        cfg = tmp_path / "desk.cfg"
        cfg.write_text("r_d_m = 300\nlambda_per_m2 = 3.33e-4\nreplications = 2\n"
                       "warmup_s = 5\nhorizon_s = 20\n")
        argv = ["simulate", "--config", str(cfg), "--seed", "5"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        calls = {"place_pair": 0, "blocked": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(simulator, "place_pair", counting("place_pair", simulator.place_pair))
        monkeypatch.setattr(simulator._CellGrid, "blocked",
                            counting("blocked", simulator._CellGrid.blocked))
        assert main(argv) == 0
        assert capsys.readouterr().out == plain
        observed = int(plain.splitlines()[1].split(",")[9])
        assert calls["place_pair"] == calls["blocked"] >= observed > 0

    @pytest.mark.parametrize("affinity, cpus, reps, workers", [
        (range(64), 64, 2, [2]),
        # a fork pool starts every worker at its first submit
        (range(2), 64, 3, [2]),
        # a process pinned to one of the machine's CPUs starts no pool
        (range(1), 2, 3, []),
        # where the OS keeps no affinity mask, the machine's CPU count caps
        (None, 2, 3, [2]),
        (None, None, 3, []),
    ], ids=["replications", "affinity", "one-cpu-in-affinity", "cpus", "cpu-count-unknown"])
    def test_workers_capped_at_replications(self, affinity, cpus, reps, workers, monkeypatch):
        import concurrent.futures
        started = []

        class InProcessPool:
            """Records max_workers and runs the map here; starts no process."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(affinity), raising=False)
        cfg = sim_scenario(seed=3, reps=reps, warmup=5.0, horizon=10.0)
        fanned = run(cfg, jobs=10_000)
        assert started == workers
        serial = run(cfg, jobs=1)
        assert started == workers
        assert (fanned.mean_pairs, fanned.p_accept) == (serial.mean_pairs, serial.p_accept)

    def test_partial_arrivals_flag(self):
        # a 3 m disk at 0.02 /s/m^2 expects 1.1 arrivals per 2-s window: at seed 2
        # some replications see none, and p_accept averages those that see one
        scn = sim_scenario(lam=0.02, r_d=3.0, seed=2, reps=3, warmup=1.0, horizon=3.0)
        reps = [run_replication(scn, i) for i in range(3)]
        seen = [r.accepted / r.observed for r in reps if r.observed > 0]
        assert 0 < len(seen) < len(reps)
        stats = run(scn)
        assert stats.flags == ("partial-arrivals",)
        assert stats.p_accept == np.mean(seen)

    def test_low_confidence_flag(self):
        stats = run(sim_scenario(seed=2, reps=1, warmup=10.0, horizon=12.0))
        assert "low-confidence" in stats.flags
        assert stats.ci_halfwidth_mean_pairs == math.inf

    def test_config_invariants(self):
        with pytest.raises(ScenarioError, match="^horizon_s, warmup_s: horizon, warmup must "
                                                "satisfy horizon > warmup > 0"):
            sim_scenario(warmup=10.0, horizon=10.0)
        with pytest.raises(ScenarioError, match="^replications: replications must be >= 1"):
            sim_scenario(reps=0)
        with pytest.raises(ScenarioError, match="^seed: seed must be a non-negative integer"):
            sim_scenario(seed=-1)


@dataclass(frozen=True)
class DistanceEstimate:
    mean: float
    std_error: float


def expected_pair_distance(deployment: DeploymentParams, samples: int = 1_000_000,
                           seed: int = 0) -> DistanceEstimate:
    """Monte Carlo estimate of the projected pair distance with its SE, an
    independent route to mean_projected_distance."""
    if samples < 100_000:
        raise ValueError(f"need at least 1e5 samples, got {samples}")
    model = deployment.pair_model
    if isinstance(model, FixedDistance):
        return DistanceEstimate(model.distance, 0.0)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    if isinstance(model, UniformDistance):
        d = model.d_max * rng.random(samples)
    else:
        dims = np.array([model.dx, model.dy])
        a = rng.uniform(0.0, 1.0, size=(samples, 2)) * dims
        b = rng.uniform(0.0, 1.0, size=(samples, 2)) * dims
        d = np.hypot(*(a - b).T)
    return DistanceEstimate(float(d.mean()), float(d.std(ddof=1) / math.sqrt(samples)))


class TestExpectedPairDistance:
    def test_fixed(self):
        est = expected_pair_distance(deployment(model=FixedDistance(0.7)), samples=100_000)
        assert est.mean == 0.7
        assert est.std_error == 0.0

    def test_uniform(self):
        est = expected_pair_distance(deployment(model=UniformDistance(1.0)),
                                     samples=200_000, seed=9)
        assert est.mean == pytest.approx(0.5, abs=4 * est.std_error + 1e-4)

    def test_cuboid_matches_quadrature(self):
        est = expected_pair_distance(deployment(), samples=1_000_000, seed=10)
        assert est.mean == pytest.approx(CUBOID_MEAN_D, abs=4 * est.std_error)

    def test_sample_floor(self):
        with pytest.raises(ValueError, match="1e5"):
            expected_pair_distance(deployment(), samples=50_000)

    def test_deterministic_mean_helpers(self):
        assert mean_projected_distance(FixedDistance(0.7)) == 0.7
        assert mean_projected_distance(UniformDistance(2.0)) == pytest.approx(1.0, rel=1e-9)
        assert mean_projected_distance(CuboidProjection(0.3, 0.5, 0.6)) == pytest.approx(
            CUBOID_MEAN_D, rel=1e-9)

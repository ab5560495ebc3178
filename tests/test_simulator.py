import math

import numpy as np
import pytest
from scipy import stats as sps

from beamcap import (AntennaModel, CheckMode, CuboidProjection, DeploymentParams,
                     FixedDistance, PairPlacement, RadioParams, SimConfig,
                     TruncatedDistribution, admission_check, coverage_radius,
                     expected_pair_distance, place_pair, run, run_replication)
from beamcap.simulator import max_cross_pair_power, mean_projected_distance

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
        model = TruncatedDistribution.uniform(1.0)
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

    def test_impossible_placement_raises(self):
        rng = np.random.default_rng(7)
        dep = deployment(r_d=10.0, model=FixedDistance(50.0))
        with pytest.raises(RuntimeError, match="100 attempts"):
            place_pair(rng, dep)


class TestAdmissionCheck:
    def setup_method(self):
        self.radio = small_radio()
        self.antenna = AntennaModel.analytic()
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


def sim_config(lam=3.33e-4, r_d=300.0, seed=11, reps=2, warmup=10.0, horizon=40.0,
               mode=CheckMode.TWO_WAY, radio=None, model=None):
    return SimConfig(
        deployment=deployment(r_d=r_d, lam=lam, model=model),
        radio=radio or small_radio(),
        antenna=AntennaModel.analytic(),
        check_mode=mode, warmup=warmup, horizon=horizon, replications=reps, seed=seed,
    )


class TestRun:
    def test_no_arrivals(self):
        stats = run(sim_config(lam=0.0, reps=2))
        assert stats.mean_pairs == 0.0
        assert stats.state_histogram.tolist() == [1.0]
        assert math.isnan(stats.p_accept)
        assert "undefined" in stats.flags
        assert stats.arrivals_observed == 0

    def test_determinism_and_seed_sensitivity(self):
        cfg = sim_config(seed=42)
        s1, s2 = run(cfg), run(cfg)
        assert s1.mean_pairs == s2.mean_pairs
        assert s1.p_accept == s2.p_accept
        assert np.array_equal(s1.state_histogram, s2.state_histogram)
        assert s1.ci_halfwidth_mean_pairs == s2.ci_halfwidth_mean_pairs
        assert s1.mean_pairs_per_m2 == pytest.approx(
            s1.mean_pairs / cfg.deployment.area, rel=1e-15)
        s3 = run(sim_config(seed=43))
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
        table = AntennaModel.from_table(rows)
        base = sim_config(lam=20.0 / (math.pi * 200.0**2), r_d=200.0, seed=17,
                          warmup=5.0, horizon=30.0)
        tbl_cfg = SimConfig(deployment=base.deployment, radio=base.radio, antenna=table,
                            check_mode=base.check_mode, warmup=base.warmup,
                            horizon=base.horizon, replications=base.replications,
                            seed=base.seed)
        s_analytic = run(base)
        s_table = run(tbl_cfg)
        assert s_table.p_accept == pytest.approx(s_analytic.p_accept, abs=0.05)
        assert s_table.mean_pairs == pytest.approx(s_analytic.mean_pairs, rel=0.1)

    def test_parallel_matches_serial(self):
        cfg = sim_config(seed=13)
        assert run(cfg, jobs=2).mean_pairs == run(cfg, jobs=1).mean_pairs

    def test_negligible_footprint_matches_mminf(self):
        # -70 dBm transmit power shrinks coverage to millimetres: no pair
        # ever interacts and the population is pure immigration-death
        radio = small_radio(p_tx_dbm=-70.0)
        lam_density = 5.0 / (math.pi * 50.0**2)
        cfg = sim_config(lam=lam_density, r_d=50.0, radio=radio, seed=5,
                         reps=4, warmup=20.0, horizon=520.0)
        stats = run(cfg)
        assert stats.p_accept == 1.0
        assert abs(stats.mean_pairs - 5.0) <= max(3 * stats.ci_halfwidth_mean_pairs, 0.15)
        # chi-square against the Poisson pmf at the 1% level, effective
        # sample count discounted for autocorrelation (one per 2/mu)
        n_eff = 4 * 500.0 / 2.0
        pmf = np.array([math.exp(k * math.log(5.0) - 5.0 - math.lgamma(k + 1))
                        for k in range(stats.state_histogram.size)])
        obs = stats.state_histogram * n_eff
        exp = pmf * n_eff
        keep = exp >= 5.0
        obs_binned = np.append(obs[keep], obs[~keep].sum())
        exp_binned = np.append(exp[keep], exp[~keep].sum() + (n_eff - exp.sum()))
        chi2 = float(((obs_binned - exp_binned) ** 2 / exp_binned).sum())
        p_value = float(sps.chi2.sf(chi2, df=obs_binned.size - 1))
        assert p_value >= 0.01

    def test_two_way_not_more_permissive(self):
        lam = 30.0 / (math.pi * 200.0**2)
        one = run(sim_config(lam=lam, r_d=200.0, seed=21, mode=CheckMode.ONE_WAY))
        two = run(sim_config(lam=lam, r_d=200.0, seed=21, mode=CheckMode.TWO_WAY))
        assert two.p_accept <= one.p_accept

    def test_population_conservation(self):
        cfg = sim_config(seed=31, reps=1)
        rep = run_replication(cfg, 0)
        assert 0 <= rep.accepted <= rep.observed

    def test_hardcore_property_two_way(self):
        lam = 30.0 / (math.pi * 200.0**2)
        cfg = sim_config(lam=lam, r_d=200.0, seed=8, reps=1, warmup=5.0, horizon=30.0)
        rep = run_replication(cfg, 0, snapshot_times=np.linspace(6, 29, 12))
        assert any(len(s) >= 2 for s in rep.snapshots)
        for snapshot in rep.snapshots:
            worst = max_cross_pair_power(snapshot, cfg.radio, cfg.antenna)
            assert worst < cfg.radio.n_thr_mw

    def test_workers_capped_at_replications(self, monkeypatch):
        from beamcap import simulator
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

        monkeypatch.setattr(simulator, "ProcessPoolExecutor", InProcessPool)
        cfg = sim_config(seed=3, reps=2, warmup=5.0, horizon=10.0)
        fanned = run(cfg, jobs=10_000)
        assert started == [2]
        serial = run(cfg, jobs=1)
        assert started == [2]
        assert (fanned.mean_pairs, fanned.p_accept) == (serial.mean_pairs, serial.p_accept)

    def test_low_confidence_flag(self):
        stats = run(sim_config(seed=2, reps=1, warmup=10.0, horizon=12.0))
        assert "low-confidence" in stats.flags
        assert stats.ci_halfwidth_mean_pairs == math.inf

    def test_config_invariants(self):
        with pytest.raises(ValueError):
            sim_config(warmup=10.0, horizon=10.0)
        with pytest.raises(ValueError):
            sim_config(reps=0)
        with pytest.raises(ValueError):
            sim_config(seed=-1)


class TestExpectedPairDistance:
    def test_fixed(self):
        est = expected_pair_distance(deployment(model=FixedDistance(0.7)), samples=100_000)
        assert est.mean == 0.7
        assert est.std_error == 0.0

    def test_uniform(self):
        est = expected_pair_distance(deployment(model=TruncatedDistribution.uniform(1.0)),
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
        assert mean_projected_distance(TruncatedDistribution.uniform(2.0)) == pytest.approx(1.0, rel=1e-9)
        assert mean_projected_distance(CuboidProjection(0.3, 0.5, 0.6)) == pytest.approx(
            CUBOID_MEAN_D, rel=1e-9)

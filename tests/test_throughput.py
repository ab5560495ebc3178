import math

import numpy as np
import pytest

from beamcap import (AntennaModel, DeploymentParams, MeanEngine, RadioParams, RateModel,
                     RateScenario, TruncatedDistribution, area_rate, link_rate, noise_power,
                     optimize_power, rate_components)

DEG = math.pi / 180.0


def radio(p_tx=10.0, theta_deg=30.0, bandwidth=2.16e9, snr_max=20.0):
    return RadioParams(p_tx, -78.0, theta_deg * DEG, 2.0, 6.3e6, bandwidth, snr_max)


def scenario(lam=2.0, theta_deg=30.0, r_d=3000.0, d_max=5.0, bandwidth=2.16e9,
             engine=MeanEngine.CLOSED, snr_max=20.0):
    return RateScenario(
        radio=radio(theta_deg=theta_deg, bandwidth=bandwidth, snr_max=snr_max),
        antenna=AntennaModel.analytic(),
        deployment=DeploymentParams(r_d, lam, 1.0, TruncatedDistribution.uniform(d_max)),
        rate_model=RateModel(6), mean_engine=engine,
    )


class TestNoisePower:
    def test_single_neighbor(self):
        assert noise_power(-78.0, 1) == pytest.approx(10 ** -7.8, rel=1e-12)

    def test_six_neighbors(self):
        assert noise_power(-78.0, 6) == pytest.approx(9.5093591547666809e-08, rel=1e-12)

    def test_doubling(self):
        assert noise_power(-78.0, 2) == pytest.approx(2 * 10 ** -7.8, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            noise_power(-78.0, 0)


class TestLinkRate:
    def test_cap(self):
        r = radio()
        cap = r.bandwidth_hz * math.log2(1 + 100.0)
        assert link_rate(r, 1.0, 1e-9) == pytest.approx(cap, rel=1e-12)

    def test_equal_powers(self):
        r = radio()
        assert link_rate(r, 1e-6, 1e-6) == pytest.approx(r.bandwidth_hz, rel=1e-12)

    def test_zero_signal(self):
        assert link_rate(radio(), 0.0, 1e-6) == 0.0

    def test_noise_domain(self):
        with pytest.raises(ValueError):
            link_rate(radio(), 1.0, 0.0)

    def test_monotone(self):
        r = radio()
        assert link_rate(r, 2e-7, 1e-7) > link_rate(r, 1e-7, 1e-7)
        assert link_rate(r, 1e-7, 2e-7) < link_rate(r, 1e-7, 1e-7)


class TestAreaRate:
    def test_zero_arrivals(self):
        assert area_rate(scenario(lam=0.0), 10.0) == 0.0

    def test_linear_in_bandwidth(self):
        base = area_rate(scenario(bandwidth=2.16e9), 10.0)
        assert area_rate(scenario(bandwidth=4.32e9), 10.0) == pytest.approx(2 * base, rel=1e-12)

    def test_interior_maximum_exists(self):
        scn = scenario(lam=2.0, theta_deg=30.0)
        grid = np.arange(-20.0, 20.5, 1.0)
        vals = [area_rate(scn, float(p)) for p in grid]
        i = int(np.argmax(vals))
        assert 0 < i < len(grid) - 1
        assert vals[i] > vals[0] and vals[i] > vals[-1]

    def test_upper_bound(self):
        scn = scenario()
        dep = scn.deployment
        bound = (scn.radio.bandwidth_hz * math.log2(1 + 100.0)
                 * dep.lambda_density * dep.area / dep.mu / dep.area)
        for p in (-20.0, -5.0, 10.0, 20.0):
            assert area_rate(scn, p) <= bound * (1 + 1e-12)

    def test_vanishes_at_low_power(self):
        scn = scenario()
        assert area_rate(scn, -70.0) < 1e-3 * area_rate(scn, -20.0)

    def test_series_engine_close_to_closed_in_dense_regime(self):
        dense = scenario(lam=2e-3, r_d=300.0)
        closed = rate_components(dense, 10.0)
        series = rate_components(scenario(lam=2e-3, r_d=300.0, engine=MeanEngine.SERIES), 10.0)
        assert series.mean_pairs == pytest.approx(closed.mean_pairs, rel=0.05)
        assert series.link_rate_bps == closed.link_rate_bps

    def test_link_rate_capped_at_radio_snr_max(self):
        # 22 dB boresight SNR at 10 dBm: the radio's cap binds, not a default
        for snr_max, cap in ((10.0, 11.0), (20.0, 101.0)):
            pt = rate_components(scenario(snr_max=snr_max), 10.0)
            assert pt.link_rate_bps == 2.16e9 * math.log2(cap)

    def test_gamma_tracks_power(self):
        scn = scenario()
        low = rate_components(scn, -10.0)
        high = rate_components(scn, 10.0)
        # footprint area scales linearly with transmit power at kappa=2
        assert high.gamma == pytest.approx(100 * low.gamma, rel=1e-9)


class TestOptimizePower:
    def test_increasing_objective_hits_upper_end(self):
        scn = scenario(lam=1e-9)  # interference negligible: rate grows with power
        opt = optimize_power(scn, -40.0, -30.0, tol_db=0.5)
        assert opt.p_tx_dbm == pytest.approx(-30.0, abs=0.5)
        assert not opt.flat

    def test_decreasing_objective_hits_lower_end(self):
        scn = scenario(lam=2.0)  # beyond the cap only interference grows
        opt = optimize_power(scn, 5.0, 20.0, tol_db=0.5)
        assert opt.p_tx_dbm == pytest.approx(5.0, abs=0.5)

    def test_interior_optimum_and_density_ordering(self):
        dense = optimize_power(scenario(lam=2.0), -20.0, 20.0, tol_db=0.1)
        sparse = optimize_power(scenario(lam=0.5), -20.0, 20.0, tol_db=0.1)
        assert -20.0 < dense.p_tx_dbm < 20.0
        assert -20.0 < sparse.p_tx_dbm < 20.0
        assert dense.p_tx_dbm <= sparse.p_tx_dbm + 0.1

    def test_flat_objective_flagged(self):
        opt = optimize_power(scenario(lam=0.0), -10.0, 10.0, tol_db=1.0)
        assert opt.flat
        assert opt.p_tx_dbm == -10.0
        assert opt.area_rate_bps_m2 == 0.0

    def test_grid_offset_stability(self):
        scn = scenario(lam=2.0)
        a = optimize_power(scn, -20.0, 20.0, tol_db=0.1)
        b = optimize_power(scn, -20.05, 20.05, tol_db=0.1)
        assert abs(a.p_tx_dbm - b.p_tx_dbm) <= 0.1

    def test_domain(self):
        with pytest.raises(ValueError):
            optimize_power(scenario(), 10.0, -10.0)
        with pytest.raises(ValueError):
            optimize_power(scenario(), -10.0, 10.0, tol_db=0.0)


class TestRateModelInvariants:
    def test_k_floor(self):
        with pytest.raises(ValueError):
            RateModel(k_neighbors=0)

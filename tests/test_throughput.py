import math

import numpy as np
import pytest
from conftest import examples
from hypothesis import given, settings
from hypothesis import strategies as st

from beamcap import (RadioParams, link_rate, noise_power, optimize_power, rate_components,
                     throughput)
from beamcap.cli_rows import render_csv, sweep_power_rows
from beamcap.scenario import build_scenario
from beamcap.throughput import MAX_REFINE_EVALS, OPT_TOL_DB, optimizer_grid

DEG = math.pi / 180.0


def radio(p_tx=10.0, theta_deg=30.0, bandwidth=2.16e9, snr_max=20.0):
    return RadioParams(p_tx, -78.0, theta_deg * DEG, 2.0, 6.3e6, bandwidth, snr_max)


def scenario(lam=2.0, theta_deg=30.0, r_d=3000.0, bandwidth=2.16e9, engine="closed",
             snr_max=20.0, **keys):
    """A uniform:5 pair model, six noise neighbours, other keys at their defaults."""
    return build_scenario({
        "lambda_per_m2": repr(lam), "theta_deg": repr(theta_deg), "r_d_m": repr(r_d),
        "bandwidth_hz": repr(bandwidth), "mean_engine": engine, "snr_max_db": repr(snr_max),
        "pair_model": "uniform:5", "k_neighbors": "6", **keys,
    })


def per_area(scn, p_tx_dbm):
    return rate_components(scn, p_tx_dbm).area_rate_bps_m2


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
        assert per_area(scenario(lam=0.0), 10.0) == 0.0

    def test_linear_in_bandwidth(self):
        base = per_area(scenario(bandwidth=2.16e9), 10.0)
        assert per_area(scenario(bandwidth=4.32e9), 10.0) == pytest.approx(2 * base, rel=1e-12)

    def test_interior_maximum_exists(self):
        scn = scenario(lam=2.0, theta_deg=30.0)
        grid = np.arange(-20.0, 20.5, 1.0)
        vals = [per_area(scn, float(p)) for p in grid]
        i = int(np.argmax(vals))
        assert 0 < i < len(grid) - 1
        assert vals[i] > vals[0] and vals[i] > vals[-1]

    def test_upper_bound(self):
        scn = scenario()
        dep = scn.deployment
        bound = (scn.radio.bandwidth_hz * math.log2(1 + 100.0)
                 * dep.lambda_density * dep.area / dep.mu / dep.area)
        for p in (-20.0, -5.0, 10.0, 20.0):
            assert per_area(scn, p) <= bound * (1 + 1e-12)

    def test_vanishes_at_low_power(self):
        scn = scenario()
        assert per_area(scn, -70.0) < 1e-3 * per_area(scn, -20.0)

    def test_series_engine_close_to_closed_in_dense_regime(self):
        dense = scenario(lam=2e-3, r_d=300.0)
        closed = rate_components(dense, 10.0)
        series = rate_components(scenario(lam=2e-3, r_d=300.0, engine="series"), 10.0)
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
        # interference negligible: rate grows with power
        scn = scenario(lam=1e-9, p_tx_min_dbm="-40", p_tx_max_dbm="-30")
        opt = optimize_power(scn)
        assert opt.p_tx_dbm == pytest.approx(-30.0, abs=0.5)
        assert opt.flags == ""

    def test_decreasing_objective_hits_lower_end(self):
        # beyond the cap only interference grows
        scn = scenario(lam=2.0, p_tx_min_dbm="5", p_tx_max_dbm="20")
        opt = optimize_power(scn)
        assert opt.p_tx_dbm == pytest.approx(5.0, abs=0.5)

    def test_interior_optimum_and_density_ordering(self):
        dense = optimize_power(scenario(lam=2.0))
        sparse = optimize_power(scenario(lam=0.5))
        assert -20.0 < dense.p_tx_dbm < 20.0
        assert -20.0 < sparse.p_tx_dbm < 20.0
        assert dense.p_tx_dbm <= sparse.p_tx_dbm + 0.1
        assert dense == rate_components(scenario(lam=2.0), dense.p_tx_dbm)

    def test_flat_objective_flagged(self):
        for lo, hi in (("-10", "10"), ("-0.0", "0.0")):
            scn = scenario(lam=0.0, p_tx_min_dbm=lo, p_tx_max_dbm=hi)
            opt = optimize_power(scn)
            assert opt.flags == "flat"
            # the range minimum itself, though the grid starts at lo + 0.0 (0.0 for -0.0)
            assert repr(opt.p_tx_dbm) == repr(float(lo))
            assert opt.area_rate_bps_m2 == 0.0
            optimum = render_csv(sweep_power_rows(scn)).splitlines()[-1]
            assert optimum.startswith(f"optimum,,,{float(lo)!r},") and optimum.endswith(",flat")

    def test_grid_offset_stability(self):
        a = optimize_power(scenario(lam=2.0))
        b = optimize_power(scenario(lam=2.0, p_tx_min_dbm="-20.05", p_tx_max_dbm="20.05"))
        assert abs(a.p_tx_dbm - b.p_tx_dbm) <= 0.1

    @settings(max_examples=examples(50), deadline=None)
    @given(lo=st.floats(-30.0, 20.0), span=st.floats(0.0, 20.0),
           variant=st.sampled_from(["exponential", "logistic", "piecewise-linear"]))
    def test_evaluations_within_the_series_budget(self, lo, span, variant):
        # sweep_power_rows budgets the series walks of optimize_power at its
        # grid plus MAX_REFINE_EVALS refinement evaluations
        scn = scenario(lam=2e-3, r_d=300.0, engine="series", variant=variant,
                       p_tx_min_dbm=repr(lo), p_tx_max_dbm=repr(lo + span))
        calls = []

        def counted(scn, p_tx_dbm):
            calls.append(p_tx_dbm)
            return rate_components(scn, p_tx_dbm)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(throughput, "rate_components", counted)
            optimize_power(scn)
        assert len(calls) <= len(optimizer_grid(scn)) + MAX_REFINE_EVALS

    @pytest.mark.parametrize("lo, hi", [
        ("10", "10.00000000001"),   # a range some 5,600 floats wide
        ("7.99999999999999", "8.00000000000001"),   # the spacing doubles at 8
    ])
    def test_refinement_stops_at_the_float_spacing(self, lo, hi):
        scn = scenario(lam=2.0, p_tx_min_dbm=lo, p_tx_max_dbm=hi)
        grid = len(optimizer_grid(scn))
        calls = []

        def counted(scn, p_tx_dbm):   # fails where the refinement would never end
            calls.append(p_tx_dbm)
            assert len(calls) <= grid + MAX_REFINE_EVALS
            return rate_components(scn, p_tx_dbm)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(throughput, "rate_components", counted)
            opt = optimize_power(scn)
        assert scn.p_tx_min_dbm <= opt.p_tx_dbm <= scn.p_tx_max_dbm

    def test_refinement_thirds_stay_far_above_the_float_spacing(self):
        # so the refinement needs no float-spacing guard: a range end with a
        # coverage radius lies above n_thr_dbm, whose mW value is at least 5e-324
        # (-3,233 dBm), and has a finite mW value itself (below 3,083 dBm)
        assert OPT_TOL_DB * 1e-3 / 3.0 > 1e7 * math.ulp(3234.0)

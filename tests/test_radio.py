import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamcap import (AntennaModel, RadioParams, beam_area, coverage_radius,
                     dbm_to_mw, max_directivity, pair_coverage_area,
                     received_power_mw)

DEG = math.pi / 180.0


def radio(p_tx=10.0, n_thr=-78.0, theta_deg=52.0, kappa=2.0, c=6.3e6):
    return RadioParams(p_tx, n_thr, theta_deg * DEG, kappa, c)


def receive_power(params, antenna, d, alpha):
    """Received power at distance d, alpha off the transmitter's boresight."""
    return float(received_power_mw(d, 0.0, -alpha, params, antenna))


class TestRadioParams:
    def test_snr_finite(self):
        with pytest.raises(ValueError, match="snr_max_db"):
            RadioParams(10.0, -78.0, 52 * DEG, 2.0, 6.3e6, 2.16e9, math.inf)


class TestDirectivityReduction:
    """The analytic gain roll-off: gain_linear relative to the peak directivity."""

    @staticmethod
    def reduction(alpha):
        r = radio(theta_deg=52.0)
        return float(AntennaModel.analytic().gain_linear(alpha, r)) / max_directivity(r.theta)

    def test_boresight(self):
        assert self.reduction(0.0) == 1.0

    def test_beam_edge(self):
        assert self.reduction(52 * DEG) == 0.0

    def test_half(self):
        assert self.reduction(26 * DEG) == pytest.approx(0.5, rel=1e-12)

    def test_beyond_edge_is_zero(self):
        assert self.reduction(60 * DEG) == 0.0


class TestMaxDirectivity:
    def test_half_sphere(self):
        assert max_directivity(math.pi) == pytest.approx(2.0, rel=1e-15)

    def test_52_degrees(self):
        # high-precision evaluation of 2/(1 - cos 26 deg)
        assert max_directivity(52 * DEG) == pytest.approx(19.761683249505698, rel=1e-12)

    def test_narrow_beam(self):
        d0 = max_directivity(0.2)
        assert d0 == pytest.approx(400.33350006616072, rel=1e-12)
        # small-angle behaviour ~ 16/theta^2
        assert d0 == pytest.approx(16.0 / 0.2**2, rel=2e-3)

    def test_strictly_decreasing(self):
        grid = np.linspace(0.05, 2 * math.pi - 0.05, 64)
        vals = [max_directivity(t) for t in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("theta", [0.0, -1.0, 2 * math.pi])
    def test_domain_errors(self, theta):
        with pytest.raises(ValueError):
            max_directivity(theta)


class TestReceivePower:
    def test_threshold_at_coverage_radius(self, baseline_radio, analytic_antenna):
        r = coverage_radius(baseline_radio)
        p = receive_power(baseline_radio, analytic_antenna, r, 0.0)
        assert p == pytest.approx(baseline_radio.n_thr_mw, rel=1e-12)

    def test_zero_beyond_beam(self, baseline_radio, analytic_antenna):
        assert receive_power(baseline_radio, analytic_antenna, 5.0, baseline_radio.theta) == 0.0

    def test_example_at_10m(self, baseline_radio, analytic_antenna):
        # direct evaluation p_tx_mw * D0 / (C d^kappa), cross-checked in
        # arbitrary precision
        p = receive_power(baseline_radio, analytic_antenna, 10.0, 0.0)
        assert p == pytest.approx(3.1367751189691571e-07, rel=1e-12)

    def test_invalid_distance(self, baseline_radio, analytic_antenna):
        # a coincident receiver reads infinite power, so it always decides admission
        assert receive_power(baseline_radio, analytic_antenna, 0.0, 0.0) == math.inf

    def test_overflow_near_zero_distance_is_silent(self, baseline_radio, analytic_antenna):
        # d^kappa is subnormal at 1e-160 (kappa = 2): the quotient overflows
        # to inf, which pytest's RuntimeWarning filter would turn into an error
        assert receive_power(baseline_radio, analytic_antenna, 1e-160, 0.0) == math.inf

    @given(d1=st.floats(0.1, 1e4), scale=st.floats(1.01, 100.0))
    def test_decreasing_in_distance(self, d1, scale):
        r = radio()
        ant = AntennaModel.analytic()
        assert receive_power(r, ant, d1, 0.0) > receive_power(r, ant, d1 * scale, 0.0)

    @given(a1=st.floats(0.0, 1.5), a2=st.floats(0.0, 1.5))
    def test_non_increasing_in_deviation(self, a1, a2):
        lo, hi = sorted((a1, a2))
        r = radio()
        ant = AntennaModel.analytic()
        assert receive_power(r, ant, 25.0, lo) >= receive_power(r, ant, 25.0, hi)

    @settings(max_examples=60)
    @given(p_tx=st.floats(-20.0, 30.0), margin=st.floats(10.0, 100.0),
           theta_deg=st.floats(4.0, 179.0), kappa=st.floats(1.5, 5.0),
           c=st.floats(1e3, 1e8))
    def test_radius_threshold_identity(self, p_tx, margin, theta_deg, kappa, c):
        r = RadioParams(p_tx, p_tx - margin, theta_deg * DEG, kappa, c)
        rr = coverage_radius(r)
        p = receive_power(r, AntennaModel.analytic(), rr, 0.0)
        assert p == pytest.approx(r.n_thr_mw, rel=1e-9)


class TestCoverageRadius:
    def test_baseline_values(self, baseline_radio):
        assert coverage_radius(baseline_radio) == pytest.approx(44.487878116362457, rel=1e-12)

    def test_fourth_root_relation(self):
        r2 = coverage_radius(radio(kappa=2.0))
        r4 = coverage_radius(radio(kappa=4.0))
        assert r4 == pytest.approx(6.6699233965887837, rel=1e-12)
        assert r4 == pytest.approx(math.sqrt(r2), rel=1e-12)

    def test_unit_ratio(self):
        # P_tx = N_thr impossible by invariant; arrange D0 = C instead with
        # theta = pi (D0 = 2) and a 3 dB margin folded into C
        r = RadioParams(0.0, -3.0103, math.pi, 2.0, 2.0 * dbm_to_mw(3.0103))
        assert coverage_radius(r) == pytest.approx(1.0, rel=1e-5)

    def test_param_invariants(self):
        with pytest.raises(ValueError):
            RadioParams(10, -78, 0.0, 2, 6.3e6)
        with pytest.raises(ValueError):
            RadioParams(10, -78, 4.0, 2, 6.3e6)  # theta > pi
        with pytest.raises(ValueError):
            RadioParams(10, -78, 1.0, 0.0, 6.3e6)
        with pytest.raises(ValueError):
            RadioParams(10, -78, 1.0, 2, -1.0)
        with pytest.raises(ValueError):
            RadioParams(-80, -78, 1.0, 2, 6.3e6)  # p_tx below sensitivity
        with pytest.raises(ValueError):
            RadioParams(10, -78, 1.0, 2, 6.3e6, bandwidth_hz=0.0)


class TestBeamGeometry:
    def test_area_vanishes_with_beamwidth(self):
        assert beam_area(10.0, 1e-12, 2.0) < 1e-9

    def test_area_unit_case(self):
        assert beam_area(1.0, 1.0, 2.0) == pytest.approx(0.5, rel=1e-15)

    def test_area_baseline_case(self):
        assert beam_area(44.5, 52 * DEG, 2.0) == pytest.approx(898.6089453280605, rel=1e-12)

    def test_pair_coverage_is_twice(self):
        assert pair_coverage_area(44.5, 52 * DEG, 2.0) == pytest.approx(
            2 * beam_area(44.5, 52 * DEG, 2.0), rel=1e-15)
        assert pair_coverage_area(1.0, 1.0, 2.0) == pytest.approx(1.0, rel=1e-15)

    def test_area_scaling(self):
        # linear in theta, quadratic in R
        a = beam_area(3.0, 0.4, 2.0)
        assert beam_area(3.0, 0.8, 2.0) == pytest.approx(2 * a, rel=1e-12)
        assert beam_area(6.0, 0.4, 2.0) == pytest.approx(4 * a, rel=1e-12)


class TestAntennaTable:
    def sampled_table(self, r, step_deg=0.1):
        d0 = max_directivity(r.theta)
        angles, gains = [], []
        a = 0.0
        while a < r.theta - 1e-9:
            rho = 1.0 - a / r.theta
            angles.append(a)
            gains.append(10 * math.log10(d0 * rho))
            a += step_deg * DEG
        angles.append(r.theta)
        gains.append(-120.0)  # pattern floor at the beam edge
        return AntennaModel.from_table(zip(angles, gains))

    def test_matches_analytic_within_interpolation_error(self, baseline_radio):
        table = self.sampled_table(baseline_radio)
        analytic = AntennaModel.analytic()
        for frac in np.linspace(0.0, 0.95, 40):
            alpha = frac * baseline_radio.theta
            pa = receive_power(baseline_radio, analytic, 20.0, alpha)
            pt = receive_power(baseline_radio, table, 20.0, alpha)
            assert pt == pytest.approx(pa, rel=1e-3)

    def test_clamps_beyond_last_angle(self, baseline_radio):
        table = AntennaModel.from_table([(0.0, 10.0), (0.5, 0.0)])
        assert table.gain_linear(2.0, baseline_radio) == pytest.approx(1.0)

    def test_pattern_file_roundtrip(self, tmp_path, baseline_radio):
        path = tmp_path / "pattern.csv"
        path.write_text("angle_deg,gain_dbi\n0,12.96\n26,9.95\n52,-120\n")
        ant = AntennaModel.from_pattern_file(path)
        assert ant.gain_linear(0.0, baseline_radio) == pytest.approx(10 ** 1.296)
        mid = ant.gain_linear(13 * DEG, baseline_radio)
        assert 10 ** 0.995 < mid < 10 ** 1.296

    def test_pattern_file_errors(self, tmp_path):
        bad_header = tmp_path / "a.csv"
        bad_header.write_text("deg,dbi\n0,1\n")
        with pytest.raises(ValueError, match="header"):
            AntennaModel.from_pattern_file(bad_header)
        bad_row = tmp_path / "b.csv"
        bad_row.write_text("angle_deg,gain_dbi\n0,1\nx,2\n")
        with pytest.raises(ValueError, match="b.csv:3"):
            AntennaModel.from_pattern_file(bad_row)

    def test_table_invariants(self):
        with pytest.raises(ValueError, match="start at angle 0"):
            AntennaModel.from_table([(0.1, 1.0), (0.2, 0.0)])
        with pytest.raises(ValueError, match="strictly increasing"):
            AntennaModel.from_table([(0.0, 1.0), (0.0, 0.0)])
        with pytest.raises(ValueError, match="finite"):
            AntennaModel.from_table([(0.0, 1.0), (0.2, -math.inf)])
        with pytest.raises(ValueError, match="no pattern table"):
            AntennaModel(angles=np.array([0.0, 1.0]), gains_dbi=np.array([1.0, 0.0]))


def test_dbm_roundtrip():
    assert dbm_to_mw(10.0) == pytest.approx(10.0, rel=1e-15)
    assert 10.0 * math.log10(dbm_to_mw(-78.0)) == pytest.approx(-78.0, rel=1e-12)

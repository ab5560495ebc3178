"""Admission and the received-power kernel against the formulas they replaced.

The references below are the simulator's earlier code, kept verbatim: the
four-pass admission test with its two per-direction power functions, and
the N x N power matrix of the audit path.  Admission, scalar path
included, must decide every case as they do, and the kernel must
reproduce their powers bit for bit.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamcap import (AntennaModel, CheckMode, PairPlacement, RadioParams, admission_check,
                     coverage_radius, simulator)
from beamcap.radio import _wrap_angle, max_directivity, received_power_mw
from beamcap.simulator import (_placements_to_arrays, _reach, _scalar_test,
                               max_cross_pair_power)


def examples(n):
    """n under the default Hypothesis profile, scaled with the loaded profile's count."""
    return n * settings.default.max_examples // 100


def _powers_from_devices(pos, bore, target, radio, antenna):
    vec = target - pos
    dist = np.hypot(vec[:, 0], vec[:, 1])
    alpha = np.abs(_wrap_angle(np.arctan2(vec[:, 1], vec[:, 0]) - bore))
    gain = antenna.gain_linear(alpha, radio)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.where(dist > 0.0, radio.p_tx_mw * gain / (radio.c_const * dist ** radio.kappa), np.inf)


def _powers_at_devices(tx_pos, tx_bore, pos, radio, antenna):
    vec = pos - tx_pos
    dist = np.hypot(vec[:, 0], vec[:, 1])
    alpha = np.abs(_wrap_angle(np.arctan2(vec[:, 1], vec[:, 0]) - tx_bore))
    gain = antenna.gain_linear(alpha, radio)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.where(dist > 0.0, radio.p_tx_mw * gain / (radio.c_const * dist ** radio.kappa), np.inf)


def reference_admit(candidate, active, radio, antenna, mode):
    """Four passes over every active device, no prefilter."""
    pos, bore = _placements_to_arrays(active)
    if pos.shape[0] == 0:
        return True
    thr = radio.n_thr_mw
    for victim in (candidate.pos_a, candidate.pos_b):
        if np.any(_powers_from_devices(pos, bore, np.asarray(victim), radio, antenna) >= thr):
            return False
    if mode is CheckMode.TWO_WAY:
        for tx, tx_bore in ((candidate.pos_a, candidate.boresight_ab),
                            (candidate.pos_b, candidate.boresight_ba)):
            if np.any(_powers_at_devices(np.asarray(tx), tx_bore, pos, radio, antenna) >= thr):
                return False
    return True


def reference_power_matrix(pos, bore, radio, antenna):
    """Power from device i (row) at device j, own pair zeroed, non-finite left in place."""
    diff = pos[None, :, :] - pos[:, None, :]
    dist = np.hypot(diff[:, :, 0], diff[:, :, 1])
    alpha = np.abs(_wrap_angle(np.arctan2(diff[:, :, 1], diff[:, :, 0]) - bore[:, None]))
    gain = antenna.gain_linear(alpha, radio)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        p = radio.p_tx_mw * gain / (radio.c_const * dist ** radio.kappa)
    blk = np.arange(pos.shape[0]) // 2
    p[blk[:, None] == blk[None, :]] = 0.0
    return p


def reference_max_cross(placements, radio, antenna):
    if len(placements) < 2:
        return 0.0
    p = reference_power_matrix(*_placements_to_arrays(placements), radio, antenna)
    p[~np.isfinite(p)] = np.inf
    return float(p.max())


def pair_at(ax, ay, bx, by):
    return PairPlacement((ax, ay), (bx, by),
                         float(np.arctan2(by - ay, bx - ax)), float(np.arctan2(ay - by, ax - bx)))


def table_antenna(theta, peak_offset_db):
    """Peak on boresight at D0 + offset, rolling off in dB past theta."""
    peak = 10.0 * math.log10(max_directivity(theta)) + peak_offset_db
    rows = [(0.0, peak), (0.5 * theta, peak - 3.0), (theta, peak - 20.0),
            (1.5 * theta, peak - 45.0), (math.pi, peak - 60.0)]
    kept = [rows[0]]
    for angle, gain in rows[1:]:
        if kept[-1][0] < angle <= math.pi:
            kept.append((angle, gain))
    return AntennaModel.from_table(kept)


ANTENNAS = ("analytic", "table-above", "table-below")


def make_antenna(kind, theta):
    if kind == "analytic":
        return AntennaModel.analytic()
    return table_antenna(theta, 3.5 if kind == "table-above" else -4.0)


radios = st.builds(
    lambda theta_deg, kappa, p_tx, margin, c: RadioParams(p_tx, p_tx - margin,
                                                          math.radians(theta_deg), kappa, c),
    theta_deg=st.floats(2.0, 180.0), kappa=st.floats(1.5, 4.5),
    p_tx=st.floats(-20.0, 20.0), margin=st.floats(5.0, 100.0),
    c=st.sampled_from([6.3e5, 6.3e6, 6.3e7]),
)


def random_pairs(rng, n, radius, max_sep, min_sep=1e-3):
    """n pairs uniform in a disk of the given radius, separations in [min_sep, min_sep + max_sep)."""
    out = []
    for _ in range(n):
        r, phi = radius * math.sqrt(rng.random()), 2.0 * math.pi * rng.random()
        d, psi = min_sep + max_sep * rng.random(), 2.0 * math.pi * rng.random()
        ax, ay = r * math.cos(phi), r * math.sin(phi)
        out.append(pair_at(ax, ay, ax + d * math.cos(psi), ay + d * math.sin(psi)))
    return out


class TestAdmissionAgainstReference:
    @settings(max_examples=examples(250), deadline=None)
    @given(radio=radios, kind=st.sampled_from(ANTENNAS), seed=st.integers(0, 2 ** 32 - 1),
           n=st.integers(0, 40), spread=st.floats(0.2, 3.0), sep=st.floats(0.05, 0.6))
    def test_matches_four_pass_reference(self, radio, kind, seed, n, spread, sep):
        antenna = make_antenna(kind, radio.theta)
        reach = _reach(radio, antenna)
        rng = np.random.default_rng(seed)
        # region scaled to the reach, so both decisions occur
        active = random_pairs(rng, n, spread * reach, sep * reach)
        for cand in random_pairs(rng, 4, spread * reach, sep * reach):
            for mode in CheckMode:
                assert (admission_check(cand, active, radio, antenna, mode)
                        == reference_admit(cand, active, radio, antenna, mode))

    @settings(max_examples=examples(150), deadline=None)
    @given(radio=radios, kind=st.sampled_from(ANTENNAS), seed=st.integers(0, 2 ** 32 - 1),
           spread=st.floats(0.1, 2.0), sep=st.floats(0.05, 0.6))
    def test_two_way_symmetric_under_role_swap(self, radio, kind, seed, spread, sep):
        antenna = make_antenna(kind, radio.theta)
        reach = _reach(radio, antenna)
        first, second = random_pairs(np.random.default_rng(seed), 2, spread * reach, sep * reach)
        assert (admission_check(first, [second], radio, antenna, CheckMode.TWO_WAY)
                == admission_check(second, [first], radio, antenna, CheckMode.TWO_WAY))

    @settings(max_examples=examples(150), deadline=None)
    @given(radio=radios, kind=st.sampled_from(ANTENNAS), seed=st.integers(0, 2 ** 32 - 1),
           n=st.integers(1, 30), spread=st.floats(0.2, 3.0))
    def test_two_way_implies_one_way(self, radio, kind, seed, n, spread):
        antenna = make_antenna(kind, radio.theta)
        reach = _reach(radio, antenna)
        rng = np.random.default_rng(seed)
        active = random_pairs(rng, n, spread * reach, 0.3 * reach)
        for cand in random_pairs(rng, 8, spread * reach, 0.3 * reach):
            if admission_check(cand, active, radio, antenna, CheckMode.TWO_WAY):
                assert admission_check(cand, active, radio, antenna, CheckMode.ONE_WAY)

    @settings(max_examples=examples(100), deadline=None)
    @given(radio=radios, kind=st.sampled_from(ANTENNAS), seed=st.integers(0, 2 ** 32 - 1),
           which=st.integers(0, 3), mode=st.sampled_from(CheckMode))
    def test_coincident_device_rejects(self, radio, kind, seed, which, mode):
        antenna = make_antenna(kind, radio.theta)
        reach = _reach(radio, antenna)
        rng = np.random.default_rng(seed)
        # partners beyond reach, so the coincident device alone decides,
        # even where its gain toward the shared point is zero
        active = random_pairs(rng, 3, 8.0 * reach, 0.5 * reach, min_sep=1.5 * reach)
        x, y = (active[which // 2].pos_a, active[which // 2].pos_b)[which % 2]
        psi = 2.0 * math.pi * rng.random()
        cand = pair_at(x, y, x + 1.5 * reach * math.cos(psi), y + 1.5 * reach * math.sin(psi))
        assert not admission_check(cand, active, radio, antenna, mode)
        assert not reference_admit(cand, active, radio, antenna, mode)

    @settings(max_examples=examples(150), deadline=None)
    @given(radio=radios, kind=st.sampled_from(ANTENNAS), rotation=st.floats(-math.pi, math.pi),
           offset=st.tuples(st.floats(-500.0, 500.0), st.floats(-500.0, 500.0)),
           direction=st.sampled_from([-1.0, 1.0]), mode=st.sampled_from(CheckMode))
    def test_reach_boundary_on_boresight(self, radio, kind, rotation, offset, direction, mode):
        # an active transmitter points straight at a candidate device that
        # sits at reach * (1 -/+ 1e-6); in two-way mode the candidate's far
        # device also points back along the same line at the same distance
        antenna = make_antenna(kind, radio.theta)
        exact = (radio.p_tx_mw * antenna.peak_gain_linear(radio)
                 / (radio.n_thr_mw * radio.c_const)) ** (1.0 / radio.kappa)
        d = exact * (1.0 + direction * 1e-6)
        ux, uy = math.cos(rotation), math.sin(rotation)
        ox, oy = offset

        def along(s):
            return ox + s * ux, oy + s * uy

        active = [pair_at(*along(0.0), *along(0.1 * exact))]
        cand = pair_at(*along(d), *along(d + 0.1 * exact))
        new = admission_check(cand, active, radio, antenna, mode)
        assert new == reference_admit(cand, active, radio, antenna, mode)
        assert new == (direction > 0)

    def test_peak_above_analytic_directivity_is_honoured(self):
        # a table 3.5 dB above D0 reaches past coverage_radius; a device in
        # between must still be rejected
        radio = RadioParams(10.0, -78.0, math.radians(30.0), 2.0, 6.3e6)
        antenna = table_antenna(radio.theta, 3.5)
        d0_reach, table_reach = ((radio.p_tx_mw * g / (radio.n_thr_mw * radio.c_const)) ** 0.5
                                 for g in (max_directivity(radio.theta), 10.0 ** 0.35 * max_directivity(radio.theta)))
        d = 0.5 * (d0_reach + table_reach)
        active = [pair_at(0.0, 0.0, 1.0, 0.0)]
        cand = pair_at(d, 0.0, d + 1.0, 0.0)
        assert not admission_check(cand, active, radio, antenna, CheckMode.ONE_WAY)
        assert not reference_admit(cand, active, radio, antenna, CheckMode.ONE_WAY)
        assert admission_check(cand, active, radio, AntennaModel.analytic(), CheckMode.ONE_WAY)


def nudge(x, ulps):
    """x moved by the given number of ulps."""
    for _ in range(abs(ulps)):
        x = float(np.nextafter(x, math.copysign(math.inf, ulps)))
    return x


def border_case(radio, bore, bearing, d):
    """An active transmitter at the origin with boresight exactly bore, and a
    candidate device at distance d and the given bearing from it.  The other
    device of each pair lies 3 reach away, beyond reach of the rest (its
    direction points the candidate's beam away from the origin)."""
    far = 3.0 * _reach(radio, AntennaModel.analytic())
    active = [PairPlacement((0.0, 0.0), (far * math.cos(bore), far * math.sin(bore)),
                            bore, _wrap_angle(bore + math.pi))]
    vx, vy = d * math.cos(bearing), d * math.sin(bearing)
    return active, pair_at(vx, vy, vx + far * math.cos(bearing), vy + far * math.sin(bearing))


def assert_matches_reference(active, cand, radio, antenna=None):
    antenna = antenna or AntennaModel.analytic()
    for mode in CheckMode:
        assert (admission_check(cand, active, radio, antenna, mode)
                == reference_admit(cand, active, radio, antenna, mode))


angles = st.floats(-math.pi, math.pi)
signs = st.sampled_from([-1.0, 1.0])


class TestScalarAdmission:
    """Cases built to sit where the scalar test's rounding could decide."""

    @settings(max_examples=examples(300), deadline=None)
    @given(radio=radios, frac=st.floats(0.0, 1.0, exclude_max=True), bore=angles, side=signs,
           ulps=st.integers(-8, 8))
    def test_coverage_border(self, radio, frac, bore, side, ulps):
        # d = r (1 - alpha/theta)^(1/kappa): received power equals N_thr exactly
        alpha = frac * radio.theta
        d = nudge(coverage_radius(radio) * (1.0 - alpha / radio.theta) ** (1.0 / radio.kappa), ulps)
        assert_matches_reference(*border_case(radio, bore, bore + side * alpha, d), radio)

    @settings(max_examples=examples(300), deadline=None)
    @given(radio=radios, ulps=st.integers(-6, 6), bore=angles, side=signs,
           scale=st.floats(0.25, 4.0))
    def test_alpha_within_ulps_of_theta(self, radio, ulps, bore, side, scale):
        # at the beam edge the gain factor 1 - alpha/theta cancels; place the
        # device near the border it implies
        alpha = nudge(radio.theta, ulps)
        g = max(1.0 - alpha / radio.theta, 2.0 ** -52)
        d = scale * coverage_radius(radio) * g ** (1.0 / radio.kappa)
        assert_matches_reference(*border_case(radio, bore, bore + side * alpha, d), radio)

    @settings(max_examples=examples(300), deadline=None)
    @given(radio=radios, bore=st.sampled_from([math.pi, -math.pi, nudge(math.pi, -1),
                                               nudge(-math.pi, 1), nudge(math.pi, -3)]),
           bearing=st.sampled_from(["+0", "-0", "pi", "-pi", "pi-", "-pi+", "off"]),
           off=st.floats(-1e-6, 1e-6), scale=st.floats(1.0 - 1e-12, 1.0 + 1e-12))
    def test_boresight_and_bearing_at_the_wrap(self, radio, bore, bearing, off, scale):
        d = scale * coverage_radius(radio)
        active, _ = border_case(radio, bore, 0.0, d)
        # bearings of pi from the transmitter, reached through +0.0 and -0.0
        if bearing in ("+0", "-0"):
            vx, vy = -d, math.copysign(0.0, -1.0 if bearing == "-0" else 1.0)
        else:
            phi = {"pi": math.pi, "-pi": -math.pi, "pi-": nudge(math.pi, -2),
                   "-pi+": nudge(-math.pi, 2), "off": math.pi + off}[bearing]
            vx, vy = d * math.cos(phi), d * math.sin(phi)
        cand = pair_at(vx, vy, vx - 3.0 * d, vy)
        assert_matches_reference(active, cand, radio)

    @settings(max_examples=examples(300), deadline=None)
    @given(radio=radios, d=st.sampled_from([0.0, 5e-324, 1e-310, 1e-300, 1e-200, 1e-160,
                                            1e-150, 1e-100, 1e-30, 1e-8]),
           bore=angles, bearing=angles)
    def test_near_zero_distance(self, radio, d, bore, bearing):
        # coincident devices reject at any gain; as d -> 0, d^kappa underflows
        # and the kernel's 0/0 and x/0 cases decide
        assert_matches_reference(*border_case(radio, bore, bearing, d), radio)

    def test_border_and_beam_edge_grid(self):
        # every decision here hangs on the last bits: on the coverage border at
        # 0 and theta/2 off boresight, and just inside and past the beam edge
        # at a tenth of the border distance its gain implies
        for theta_deg, kappa, (p_tx, margin), c in itertools.product(
                (2.0, 8.0, 30.0, 52.0, 120.0, 180.0), (1.5, 2.0, 2.2736704605076508, 3.0, 4.5),
                ((10.0, 88.0), (1.0, 11.0), (-20.0, 45.0)), (6.3e5, 6.3e7)):
            radio = RadioParams(p_tx, p_tx - margin, math.radians(theta_deg), kappa, c)
            r = coverage_radius(radio)
            for bore in (0.0, 1.0, -2.5, math.pi):
                cases = [(0.0, r), (0.5 * radio.theta, r * 0.5 ** (1.0 / kappa))]
                for ulps in (-2, -1, 0, 1, 2):
                    alpha = nudge(radio.theta, ulps)
                    g = max(1.0 - alpha / radio.theta, 2.0 ** -52)
                    cases.append((alpha, 0.1 * r * g ** (1.0 / kappa)))
                for alpha, d in cases:
                    assert_matches_reference(*border_case(radio, bore, bore + alpha, d), radio)

    def test_beam_edge_where_atan2_implementations_disagree(self):
        # math.atan2 (scalar path) one ulp above np.arctan2 (kernel), and
        # theta set to the larger: the scalar angle sits on the edge, the
        # kernel's just inside the beam; close in, the kernel rejects
        rng = np.random.default_rng(0)
        for _ in range(20_000):
            t = rng.uniform(0.1, 1.5)
            x, y = math.cos(t), math.sin(t)
            if math.atan2(y, x) > np.arctan2(np.array([y]), np.array([x]))[0]:
                break
        else:
            pytest.skip("math.atan2 and np.arctan2 agree on every sampled input")
        radio = RadioParams(10.0, -78.0, math.atan2(y, x), 2.0, 6.3e6)
        scale = 2.0 ** -40                   # exact: both angles unchanged
        active, _ = border_case(radio, 0.0, 0.0, 1.0)
        cand = pair_at(x * scale, y * scale, 3.0 * x, 3.0 * y)
        assert not reference_admit(cand, active, radio, AntennaModel.analytic(), CheckMode.ONE_WAY)
        assert_matches_reference(active, cand, radio)

    @pytest.mark.parametrize("where", ["border", "coincident"])
    def test_fallback_runs_and_agrees(self, monkeypatch, where):
        radio = RadioParams(10.0, -78.0, math.radians(30.0), 2.0, 6.3e6)
        # on boresight at d = sqrt(k0), d^2 and k0 agree to an ulp: inside the band
        d = math.sqrt(_scalar_test(radio, AntennaModel.analytic()).k0) if where == "border" else 0.0
        active, cand = border_case(radio, 0.0, 0.0, d)
        calls = []

        def counted(*args):
            calls.append(args)
            return received_power_mw(*args)

        monkeypatch.setattr(simulator, "received_power_mw", counted)
        got = admission_check(cand, active, radio, AntennaModel.analytic(), CheckMode.ONE_WAY)
        assert calls
        assert got == reference_admit(cand, active, radio, AntennaModel.analytic(), CheckMode.ONE_WAY)

    def test_table_antenna_never_takes_the_scalar_path(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("scalar path entered with a table antenna")

        monkeypatch.setattr(simulator, "_admit_scalar", forbidden)
        monkeypatch.setattr(simulator, "_covers", forbidden)
        rng = np.random.default_rng(5)
        for theta_deg, offset in ((8.0, 3.5), (30.0, -4.0), (52.0, 0.0)):
            radio = RadioParams(10.0, -78.0, math.radians(theta_deg), 2.0, 6.3e6)
            antenna = table_antenna(radio.theta, offset)
            assert _scalar_test(radio, antenna) is None
            reach = _reach(radio, antenna)
            active = random_pairs(rng, 10, 3.0 * reach, 0.3 * reach)
            decisions = {admission_check(cand, active, radio, antenna, mode)
                         for cand in random_pairs(rng, 20, 3.0 * reach, 0.3 * reach)
                         for mode in CheckMode}
            assert decisions == {True, False}


class TestPowerMatrixAgainstReference:
    @settings(max_examples=examples(80), deadline=None)
    @given(radio=radios, kind=st.sampled_from(ANTENNAS), seed=st.integers(0, 2 ** 32 - 1),
           n=st.integers(0, 25), coincide=st.booleans())
    def test_max_cross_pair_power_bit_identical(self, radio, kind, seed, n, coincide):
        antenna = make_antenna(kind, radio.theta)
        rng = np.random.default_rng(seed)
        pairs = random_pairs(rng, n, 50.0, 2.0)
        if coincide and n >= 2:
            pairs[1] = pair_at(*pairs[0].pos_b, *pairs[1].pos_b)
        got = max_cross_pair_power(pairs, radio, antenna)
        want = reference_max_cross(pairs, radio, antenna)
        assert np.array_equal(np.float64(got), np.float64(want))


class TestPeakGain:
    ALPHA = np.linspace(0.0, math.pi, 200_001)

    @pytest.mark.parametrize("theta_deg", [2.0, 8.0, 30.0, 52.0, 120.0, 180.0])
    def test_analytic_peak_is_max_directivity(self, theta_deg):
        radio = RadioParams(10.0, -78.0, math.radians(theta_deg), 2.0, 6.3e6)
        antenna = AntennaModel.analytic()
        peak = antenna.peak_gain_linear(radio)
        assert peak == max_directivity(radio.theta)
        assert np.all(antenna.gain_linear(self.ALPHA, radio) <= peak)
        assert antenna.gain_linear(0.0, radio) == peak

    @pytest.mark.parametrize("offset_db", [-4.0, 3.5])
    @pytest.mark.parametrize("theta_deg", [8.0, 30.0, 52.0])
    def test_table_peak_bounds_every_angle(self, theta_deg, offset_db):
        radio = RadioParams(10.0, -78.0, math.radians(theta_deg), 2.0, 6.3e6)
        antenna = table_antenna(radio.theta, offset_db)
        peak = antenna.peak_gain_linear(radio)
        assert np.all(antenna.gain_linear(self.ALPHA, radio) <= peak)
        assert antenna.gain_linear(0.0, radio) == peak
        assert (peak > max_directivity(radio.theta)) == (offset_db > 0)

    def test_table_peak_off_boresight(self):
        radio = RadioParams(10.0, -78.0, math.radians(30.0), 2.0, 6.3e6)
        antenna = AntennaModel.from_table([(0.0, 5.0), (0.2, 21.0), (math.pi, -30.0)])
        assert antenna.peak_gain_linear(radio) == 10.0 ** 2.1
        assert np.all(antenna.gain_linear(self.ALPHA, radio) <= antenna.peak_gain_linear(radio))

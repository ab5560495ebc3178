"""The received-power kernel against the formulas it replaced.

The references below are the simulator's earlier code, kept verbatim: the
four-pass admission test with its two per-direction power functions, and
the N x N power matrix of the audit path.  The kernel
must decide every admission as they do and reproduce their powers bit for
bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamcap import AntennaModel, CheckMode, PairPlacement, RadioParams, admission_check
from beamcap.radio import _wrap_angle, max_directivity
from beamcap.simulator import _placements_to_arrays, _reach, max_cross_pair_power


def _powers_from_devices(pos, bore, target, radio, antenna):
    vec = target - pos
    dist = np.hypot(vec[:, 0], vec[:, 1])
    alpha = np.abs(_wrap_angle(np.arctan2(vec[:, 1], vec[:, 0]) - bore))
    gain = antenna.gain_linear(alpha, radio)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(dist > 0.0, radio.p_tx_mw * gain / (radio.c_const * dist ** radio.kappa), np.inf)


def _powers_at_devices(tx_pos, tx_bore, pos, radio, antenna):
    vec = pos - tx_pos
    dist = np.hypot(vec[:, 0], vec[:, 1])
    alpha = np.abs(_wrap_angle(np.arctan2(vec[:, 1], vec[:, 0]) - tx_bore))
    gain = antenna.gain_linear(alpha, radio)
    with np.errstate(divide="ignore", invalid="ignore"):
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
    with np.errstate(divide="ignore", invalid="ignore"):
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
    @settings(max_examples=250, deadline=None)
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

    @settings(max_examples=150, deadline=None)
    @given(radio=radios, kind=st.sampled_from(ANTENNAS), seed=st.integers(0, 2 ** 32 - 1),
           spread=st.floats(0.1, 2.0), sep=st.floats(0.05, 0.6))
    def test_two_way_symmetric_under_role_swap(self, radio, kind, seed, spread, sep):
        antenna = make_antenna(kind, radio.theta)
        reach = _reach(radio, antenna)
        first, second = random_pairs(np.random.default_rng(seed), 2, spread * reach, sep * reach)
        assert (admission_check(first, [second], radio, antenna, CheckMode.TWO_WAY)
                == admission_check(second, [first], radio, antenna, CheckMode.TWO_WAY))

    @settings(max_examples=150, deadline=None)
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

    @settings(max_examples=100, deadline=None)
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

    @settings(max_examples=150, deadline=None)
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


class TestPowerMatrixAgainstReference:
    @settings(max_examples=80, deadline=None)
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

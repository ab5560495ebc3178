"""Admission and the audit against the received-power kernel, pair by pair.

The references below call radio.received_power_mw on every (transmitter,
receiver) pair, with no index and no screen.  Admission must decide every
case as they do, adversarial inputs included: ulps at the coverage border
and the beam edge, the +-pi wrap, coincident devices, tables and link
budgets near the ends of the floats.
"""

import itertools
import math

import numpy as np
import pytest
from conftest import examples
from hypothesis import given, settings
from hypothesis import strategies as st

from beamcap import (AntennaModel, CheckMode, PairPlacement, RadioParams, admission_check,
                     coverage_radius, load_scenario, simulator)
from beamcap.radio import max_directivity, received_power_mw
from beamcap.simulator import _CellGrid, max_cross_pair_power, run_replication

ETA = 40.0 * 2.0 ** -53     # a bound on the rounding of a computed deviation angle [rad]


def reach_of(radio, antenna):
    """The grid's radius, reach widened by its rounding: beyond it no gain covers."""
    return _CellGrid(radio, antenna, CheckMode.TWO_WAY, 0.0)._radius


def devices_of(placements):
    """((x, y), boresight) of the pairs' devices, in pair order."""
    return [(xy, bore) for p in placements
            for xy, bore in ((p.pos_a, p.boresight_ab), (p.pos_b, p.boresight_ba))]


def kernel_covers(tx, bore, rx, radio, antenna):
    return received_power_mw(rx[0] - tx[0], rx[1] - tx[1], bore, radio, antenna) >= radio.n_thr_mw


def reference_admit(candidate, active, radio, antenna, mode):
    """The kernel on every pair: active transmitters at the candidate's devices, then
    in a two-way test the candidate's transmitters at every active device."""
    active, cand = devices_of(active), devices_of([candidate])
    if any(kernel_covers(tx, bore, rx, radio, antenna) for tx, bore in active for rx, _ in cand):
        return False
    return not (mode is CheckMode.TWO_WAY and any(
        kernel_covers(tx, bore, rx, radio, antenna) for tx, bore in cand for rx, _ in active))


def reference_power_matrix(placements, radio, antenna):
    """Power from device i (row) at device j by the kernel, own pair zeroed, non-finite kept."""
    devices = devices_of(placements)
    return np.array([[0.0 if i // 2 == j // 2 else
                      received_power_mw(rx - tx, ry - ty, bore, radio, antenna)
                      for j, ((rx, ry), _) in enumerate(devices)]
                     for i, ((tx, ty), bore) in enumerate(devices)])


def reference_max_cross(placements, radio, antenna):
    if len(placements) < 2:
        return 0.0
    p = reference_power_matrix(placements, radio, antenna)
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
    return AntennaModel(*zip(*kept))


ANTENNAS = ("analytic", "table-above", "table-below")


def make_antenna(kind, theta):
    if kind == "analytic":
        return AntennaModel()
    return table_antenna(theta, 3.5 if kind == "table-above" else -4.0)


def radio_strategy(c_consts):
    return st.builds(
        lambda theta_deg, kappa, p_tx, margin, c: RadioParams(p_tx, p_tx - margin,
                                                              math.radians(theta_deg), kappa, c),
        theta_deg=st.floats(2.0, 180.0), kappa=st.floats(1.5, 4.5),
        p_tx=st.floats(-20.0, 20.0), margin=st.floats(5.0, 100.0),
        c=st.sampled_from(c_consts),
    )


radios = radio_strategy([6.3e5, 6.3e6, 6.3e7])
# link budgets k0 from 6e-261 to 1e-247 and from 6e245 to 1e259: near the reach, d^kappa and
# C*d^kappa come close to the ends of the floats
far_radios = radio_strategy([1e-245, 1e261])


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
    @given(radio=radios | far_radios, kind=st.sampled_from(ANTENNAS),
           seed=st.integers(0, 2 ** 32 - 1), n=st.integers(0, 40), spread=st.floats(0.2, 3.0),
           sep=st.floats(0.05, 0.6))
    def test_matches_four_pass_reference(self, radio, kind, seed, n, spread, sep):
        antenna = make_antenna(kind, radio.theta)
        reach = reach_of(radio, antenna)
        rng = np.random.default_rng(seed)
        # region scaled to the reach, so both decisions occur
        active = random_pairs(rng, n, spread * reach, sep * reach)
        for cand in random_pairs(rng, 4, spread * reach, sep * reach):
            for mode in CheckMode:
                assert (admission_check(cand, active, radio, antenna, mode)
                        == reference_admit(cand, active, radio, antenna, mode))

    @settings(max_examples=examples(150), deadline=None)
    @given(radio=radios | far_radios, kind=st.sampled_from(ANTENNAS),
           seed=st.integers(0, 2 ** 32 - 1), spread=st.floats(0.1, 2.0), sep=st.floats(0.05, 0.6))
    def test_two_way_symmetric_under_role_swap(self, radio, kind, seed, spread, sep):
        antenna = make_antenna(kind, radio.theta)
        reach = reach_of(radio, antenna)
        first, second = random_pairs(np.random.default_rng(seed), 2, spread * reach, sep * reach)
        assert (admission_check(first, [second], radio, antenna, CheckMode.TWO_WAY)
                == admission_check(second, [first], radio, antenna, CheckMode.TWO_WAY))

    @settings(max_examples=examples(150), deadline=None)
    @given(radio=radios, kind=st.sampled_from(ANTENNAS), seed=st.integers(0, 2 ** 32 - 1),
           n=st.integers(1, 30), spread=st.floats(0.2, 3.0))
    def test_two_way_implies_one_way(self, radio, kind, seed, n, spread):
        antenna = make_antenna(kind, radio.theta)
        reach = reach_of(radio, antenna)
        rng = np.random.default_rng(seed)
        active = random_pairs(rng, n, spread * reach, 0.3 * reach)
        for cand in random_pairs(rng, 8, spread * reach, 0.3 * reach):
            if admission_check(cand, active, radio, antenna, CheckMode.TWO_WAY):
                assert admission_check(cand, active, radio, antenna, CheckMode.ONE_WAY)

    @settings(max_examples=examples(100), deadline=None)
    @given(radio=radios | far_radios, kind=st.sampled_from(ANTENNAS),
           seed=st.integers(0, 2 ** 32 - 1), which=st.integers(0, 3), mode=st.sampled_from(CheckMode))
    def test_coincident_device_rejects(self, radio, kind, seed, which, mode):
        antenna = make_antenna(kind, radio.theta)
        reach = reach_of(radio, antenna)
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
        assert admission_check(cand, active, radio, AntennaModel(), CheckMode.ONE_WAY)


def rejecting_tests(candidate, active, radio, antenna):
    """The directed tests the kernel rejects on: (device, "forward") where an active
    transmitter covers that candidate device, (device, "reverse") where its own
    transmitter covers an active device."""
    found = set()
    for name, (xy, bore) in zip("ab", devices_of([candidate])):
        for tx, tx_bore in devices_of(active):
            if kernel_covers(tx, tx_bore, xy, radio, antenna):
                found.add((name, "forward"))
            if kernel_covers(xy, bore, tx, radio, antenna):
                found.add((name, "reverse"))
    return found


# (active pair, candidate pair) as (ax, ay, bx, by) in coverage radii: each beam reaches
# one device half a radius down its boresight, every other device lies beyond reach or
# more than 30 degrees off the beam
DIRECTED_LAYOUTS = {
    "a-forward": (((0.0, 0.0, 3.0, 0.0), (0.5, 0.0, 0.5, 3.0)), {("a", "forward")}),
    "a-reverse": (((0.5, 0.0, 0.5, 3.0), (0.0, 0.0, 3.0, 0.0)), {("a", "reverse")}),
    "b-forward": (((0.0, 0.0, 3.0, 0.0), (0.5, 3.0, 0.5, 0.0)), {("b", "forward")}),
    "b-reverse": (((0.5, 0.0, 0.5, 3.0), (3.0, 0.0, 0.0, 0.0)), {("b", "reverse")}),
    # a's own beam rejects before the active device that covers b is met
    "a-reverse-and-b-forward": (((0.0, 0.5, 0.0, 3.5), (0.0, 0.0, 0.0, 3.0)),
                                {("a", "reverse"), ("b", "forward")}),
}


class TestEachDirectedTest:
    """Hand-built layouts where exactly the named directed tests reject."""

    @pytest.mark.parametrize("layout", DIRECTED_LAYOUTS)
    @pytest.mark.parametrize("rotation, offset", [(0.0, (0.0, 0.0)), (1.0, (-40.0, 25.0)),
                                                  (-2.5, (7.0, -300.0))])
    def test_decision_is_the_reference(self, layout, rotation, offset):
        radio = RadioParams(10.0, -78.0, math.radians(30.0), 2.0, 6.3e6)
        antenna, r = AntennaModel(), coverage_radius(radio)
        c, s = math.cos(rotation), math.sin(rotation)

        def placed(ax, ay, bx, by):
            return pair_at(offset[0] + r * (ax * c - ay * s), offset[1] + r * (ax * s + ay * c),
                           offset[0] + r * (bx * c - by * s), offset[1] + r * (bx * s + by * c))

        (active, cand), rejecting = DIRECTED_LAYOUTS[layout]
        active, cand = [placed(*active)], placed(*cand)
        assert rejecting_tests(cand, active, radio, antenna) == rejecting
        for mode in CheckMode:
            expected = not any(kind == "forward" or mode is CheckMode.TWO_WAY
                               for _, kind in rejecting)
            assert admission_check(cand, active, radio, antenna, mode) == expected
            assert reference_admit(cand, active, radio, antenna, mode) == expected

    @pytest.mark.parametrize("layout", DIRECTED_LAYOUTS)
    def test_blocked_stops_at_the_first_covering_pair(self, layout):
        # the active pair listed twice: the kernel decides each close pair once one-way,
        # at most twice two-way, and the first power at the threshold rejects before the
        # copy is met; the index is left as it was
        radio = RadioParams(10.0, -78.0, math.radians(30.0), 2.0, 6.3e6)
        antenna, r = AntennaModel(), coverage_radius(radio)
        (active, cand), rejecting = DIRECTED_LAYOUTS[layout]
        active, cand = pair_at(*(r * v for v in active)), pair_at(*(r * v for v in cand))
        for mode in CheckMode:
            index = _CellGrid(radio, antenna, mode, 0.0)
            index.add(0, active)
            index.add(1, active)
            listing = grid_listing(index)
            close = 2 * sum(math.dist(c, p) ** 2 <= index._r2 for c in (cand.pos_a, cand.pos_b)
                            for p in (active.pos_a, active.pos_b))
            powers, kernel = [], index._power

            def recorded(dx, dy, alpha):
                powers.append(kernel(dx, dy, alpha))
                return powers[-1]

            index._power = recorded
            expected = any(kind == "forward" or mode is CheckMode.TWO_WAY
                           for _, kind in rejecting)
            assert index.blocked(cand) == expected
            assert grid_listing(index) == listing
            assert len(powers) <= (2 if mode is CheckMode.TWO_WAY else 1) * close
            assert all(p < radio.n_thr_mw for p in powers[:-1])
            assert (bool(powers) and powers[-1] >= radio.n_thr_mw) == expected


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
    far = 3.0 * reach_of(radio, AntennaModel())
    active = [PairPlacement((0.0, 0.0), (far * math.cos(bore), far * math.sin(bore)),
                            bore, (bore + math.pi + math.pi) % (2.0 * math.pi) - math.pi)]
    vx, vy = d * math.cos(bearing), d * math.sin(bearing)
    return active, pair_at(vx, vy, vx + far * math.cos(bearing), vy + far * math.sin(bearing))


def assert_matches_reference(active, cand, radio, antenna=None):
    antenna = antenna or AntennaModel()
    for mode in CheckMode:
        assert (admission_check(cand, active, radio, antenna, mode)
                == reference_admit(cand, active, radio, antenna, mode))


angles = st.floats(-math.pi, math.pi)
signs = st.sampled_from([-1.0, 1.0])


class TestScalarAdmission:
    """Cases whose decision hangs on the last bits: admission equals the kernel."""

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

    def test_beam_edge_at_the_computed_bearing(self):
        # theta within 2 ulps of the deviation angle computed for a device close
        # in: a gain of a few ulps covers it there, a zero gain does not
        rng = np.random.default_rng(0)
        scale = 2.0 ** -40                   # exact: the bearing is unchanged
        for _ in range(20):
            t = rng.uniform(0.1, 1.5)
            x, y = math.cos(t), math.sin(t)
            alpha = abs((math.atan2(y * scale, x * scale) - 0.0 + math.pi) % (2.0 * math.pi)
                        - math.pi)
            decisions = set()
            for ulps in range(-2, 3):
                radio = RadioParams(10.0, -78.0, nudge(alpha, ulps), 2.0, 6.3e6)
                active, _ = border_case(radio, 0.0, 0.0, 1.0)
                cand = pair_at(x * scale, y * scale, 3.0 * x, 3.0 * y)
                assert_matches_reference(active, cand, radio)
                decisions.add(admission_check(cand, active, radio, AntennaModel(),
                                              CheckMode.ONE_WAY))
            assert decisions == {True, False}

    @pytest.mark.parametrize("where", ["border", "coincident"])
    def test_border_and_coincident_agree_with_the_kernel(self, where):
        # on boresight at d = sqrt(k0) the power is N_thr to an ulp
        radio = RadioParams(10.0, -78.0, math.radians(30.0), 2.0, 6.3e6)
        k0 = radio.p_tx_mw * max_directivity(radio.theta) / (radio.n_thr_mw * radio.c_const)
        for ulps in range(-4, 5):
            d = nudge(math.sqrt(k0), ulps) if where == "border" else 0.0
            assert_matches_reference(*border_case(radio, 0.0, 0.0, d), radio)

    @pytest.mark.parametrize("case", ["table", "k0-above-range", "k0-below-range"])
    def test_tables_and_far_link_budgets_agree_with_the_kernel(self, case):
        # a table's screen keeps every angle (theta = pi) within reach; link
        # budgets near the ends of the floats push d^kappa there too
        c = {"k0-above-range": 1e-245, "k0-below-range": 1e261}.get(case, 6.3e6)
        rng = np.random.default_rng(5)
        for theta_deg, offset in ((30.0, 3.5), (52.0, -4.0), (120.0, 0.0)):
            radio = RadioParams(10.0, -78.0, math.radians(theta_deg), 2.0, c)
            antenna = (table_antenna(radio.theta, offset) if case == "table"
                       else AntennaModel())
            index = _CellGrid(radio, antenna, CheckMode.TWO_WAY, 0.0)
            assert index._theta == (math.pi if case == "table" else radio.theta)
            reach = reach_of(radio, antenna)
            active = random_pairs(rng, 10, 3.0 * reach, 0.3 * reach)
            decisions = set()
            for cand in random_pairs(rng, 20, 3.0 * reach, 0.3 * reach):
                for mode in CheckMode:
                    got = admission_check(cand, active, radio, antenna, mode)
                    assert got == reference_admit(cand, active, radio, antenna, mode)
                    decisions.add(got)
            assert decisions == {True, False}


def lattice_pairs(rng, n, side, span):
    """n pairs whose devices sit on cell corners and edges of a grid of the
    given side, some an ulp off them, or between them, within span cells of
    the origin on either side."""
    def coord():
        k = int(rng.integers(-span, span + 1))
        kind = int(rng.integers(4))
        if kind == 0:
            return k * side
        if kind == 1:
            return nudge(k * side, int(rng.choice([-1, 1])))
        return (k + rng.random()) * side

    out = []
    for _ in range(n):
        ax, ay = coord(), coord()
        if rng.random() < 0.5:
            bx, by = coord(), coord()
        else:
            d, psi = side * rng.random(), 2.0 * math.pi * rng.random()
            bx, by = ax + d * math.cos(psi), ay + d * math.sin(psi)
        out.append(pair_at(ax, ay, bx, by))
    return out


def beam_edge_pair(rng, active, radio):
    """A candidate with one device at deviation theta + k*eta, k in -2..2,
    from the beam of an active device, at the distance where that gain would
    reach the threshold times a random scale, or anywhere within reach."""
    placement = active[int(rng.integers(len(active)))]
    (x, y), bore = ((placement.pos_a, placement.boresight_ab),
                    (placement.pos_b, placement.boresight_ba))[int(rng.integers(2))]
    alpha = min(radio.theta + int(rng.integers(-2, 3)) * ETA, math.pi)
    g = max(1.0 - alpha / radio.theta, 2.0 ** -52)
    r = coverage_radius(radio)
    d = (r * g ** (1.0 / radio.kappa) * rng.uniform(0.25, 4.0) if rng.random() < 0.5
         else r * rng.random())
    bearing = bore + rng.choice([-1.0, 1.0]) * alpha
    vx, vy = x + d * math.cos(bearing), y + d * math.sin(bearing)
    psi = 2.0 * math.pi * rng.random()
    return pair_at(vx, vy, vx + 0.5 * r * math.cos(psi), vy + 0.5 * r * math.sin(psi))


def grid_listing(index):
    """The devices listed per cell."""
    return {cell: dict(keys) for cell, keys in index._cells.items()}


def cell_of(index, x, y):
    return math.floor(x / index._side), math.floor(y / index._side)


class TestCellGrid:
    """The grid index: every decision the reference's, blocked leaves it as it was,
    and after any add/remove sequence it is the one built from the live set."""

    @settings(max_examples=examples(200), deadline=None)
    @given(radio=radios | far_radios, kind=st.sampled_from(ANTENNAS),
           seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 30), span=st.integers(1, 4))
    def test_matches_reference_on_hard_layouts(self, radio, kind, seed, n, span):
        antenna = make_antenna(kind, radio.theta)
        side = _CellGrid(radio, antenna, CheckMode.TWO_WAY, 0.0)._side
        rng = np.random.default_rng(seed)
        active = lattice_pairs(rng, n, side, span)
        shared = active[int(rng.integers(n))].pos_b
        psi = 2.0 * math.pi * rng.random()
        candidates = lattice_pairs(rng, 3, side, span) + [
            pair_at(*shared, shared[0] + side * math.cos(psi), shared[1] + side * math.sin(psi))
        ] + [beam_edge_pair(rng, active, radio) for _ in range(4)]
        for cand in candidates:
            assert_matches_reference(active, cand, radio, antenna)

    @settings(max_examples=examples(200), deadline=None)
    @given(radio=radios | far_radios, kind=st.sampled_from(ANTENNAS),
           x=st.floats(-1e4, 1e4), y=st.floats(-1e4, 1e4),
           where=st.sampled_from(["inside", "x-edge", "y-edge", "corner"]),
           ulps=st.integers(-4, 4), far=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_block_holds_every_device_within_radius(self, radio, kind, x, y, where, ulps, far,
                                                    seed):
        # a candidate device (x, y) reaches from the origin, or 1e10 times that, where the
        # min_side floor sets the side, optionally on a cell edge or corner nudged by
        # ulps; every device within radius*(1 + 2^-50) of it, in the 8 neighbour
        # directions and at random bearings, lies in the 3x3 block around its cell
        antenna = make_antenna(kind, radio.theta)
        reach = reach_of(radio, antenna)
        cx, cy = (v * reach * (1e10 if far else 1.0) for v in (x, y))
        index = _CellGrid(radio, antenna, CheckMode.TWO_WAY,
                          1e-9 * (max(abs(cx), abs(cy)) + 2.0 * reach))
        side = index._side
        assert side == max(reach, 1e-9 * (max(abs(cx), abs(cy)) + 2.0 * reach)) * (1.0 + 1e-6)
        if where in ("x-edge", "corner"):
            cx = nudge(math.floor(cx / side) * side, ulps)
        if where in ("y-edge", "corner"):
            cy = nudge(math.floor(cy / side) * side, ulps)
        i, j = cell_of(index, cx, cy)
        rng = np.random.default_rng(seed)
        radius = reach * (1.0 + 2.0 ** -50)
        bearings = [k * 0.25 * math.pi for k in range(-4, 4)] + list(rng.uniform(-3.2, 3.2, 8))
        for bearing in bearings:
            for d in (0.0, min(1e-160, radius), radius * rng.random(), radius):
                px, py = cx + d * math.cos(bearing), cy + d * math.sin(bearing)
                pi, pj = cell_of(index, px, py)
                assert (pi - i, pj - j) in simulator._BLOCK

    @pytest.mark.parametrize("kind", ["analytic", "table-above"])
    @pytest.mark.parametrize("theta_deg", [4.0, 30.0, 180.0])
    def test_block_holds_a_device_past_a_cell_edge(self, theta_deg, kind):
        # a candidate device on a cell edge or corner, or one radius*(1 + 2^-50) short of
        # it, each coordinate nudged by up to 4 ulps: the device that far off in each of
        # the 8 neighbour directions lies in the 3x3 block around the candidate's cell
        radio = RadioParams(10.0, -78.0, math.radians(theta_deg), 2.0, 6.3e6)
        index = _CellGrid(radio, make_antenna(kind, radio.theta), CheckMode.TWO_WAY, 0.0)
        radius, side = index._radius * (1.0 + 2.0 ** -50), index._side
        for di, dj in simulator._BLOCK[1:]:
            ux, uy = di / math.hypot(di, dj), dj / math.hypot(di, dj)
            for j in range(-40, 41, 4):
                for ulps in range(-4, 5):
                    for short in (0.0, radius):
                        cx, cy = (nudge(j * side - short * u, ulps) for u in (ux, uy))
                        i, k = cell_of(index, cx, cy)
                        pi, pk = cell_of(index, cx + radius * ux, cy + radius * uy)
                        assert (pi - i, pk - k) in simulator._BLOCK

    @settings(max_examples=examples(100), deadline=None)
    @given(radio=radios, kind=st.sampled_from(ANTENNAS), mode=st.sampled_from(CheckMode),
           seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 30), spread=st.floats(0.2, 3.0))
    def test_blocked_leaves_the_index_as_it_was(self, radio, kind, mode, seed, n, spread):
        # a candidate on an active device is rejected, one 3 reaches past every active
        # device admitted (random_pairs' 1e-3 floor on the separation can outrun reach)
        antenna = make_antenna(kind, radio.theta)
        reach = reach_of(radio, antenna)
        rng = np.random.default_rng(seed)
        active = random_pairs(rng, n, spread * reach, 0.5 * reach)
        index = _CellGrid(radio, antenna, mode, 0.0)
        for pair_id, placement in enumerate(active):
            index.add(pair_id, placement)
        listing = grid_listing(index)
        x, y = active[0].pos_a
        far = 3.0 * reach + max(abs(v) for p in active for v in (*p.pos_a, *p.pos_b))
        candidates = [pair_at(x, y, x + 2.0 * reach, y),
                      pair_at(far, 0.0, far + 0.5 * reach, 0.0),
                      *random_pairs(rng, 4, spread * reach, 0.5 * reach)]
        decisions = []
        for cand in candidates:
            decisions.append(index.blocked(cand))
            assert decisions[-1] == (not reference_admit(cand, active, radio, antenna, mode))
            assert grid_listing(index) == listing
        assert decisions[:2] == [True, False]

    @settings(max_examples=examples(100), deadline=None)
    @given(radio=radios | far_radios, kind=st.sampled_from(ANTENNAS),
           seed=st.integers(0, 2 ** 32 - 1), mode=st.sampled_from(CheckMode),
           steps=st.integers(1, 80), spread=st.floats(0.5, 4.0))
    def test_upkeep_lists_exactly_the_live_devices(self, radio, kind, seed, mode, steps, spread):
        antenna = make_antenna(kind, radio.theta)
        reach = reach_of(radio, antenna)
        rng = np.random.default_rng(seed)
        # cells at least 1e-9 of the largest coordinate wide, as admission_check's
        min_side = 1e-9 * ((spread + 0.5) * reach + 1e-3)
        index = _CellGrid(radio, antenna, mode, min_side)
        live = {}
        for pair_id in range(steps):
            if live and rng.random() < 0.4:
                gone = list(live)[int(rng.integers(len(live)))]
                index.remove(gone, live.pop(gone))
                continue
            cand = random_pairs(rng, 1, spread * reach, 0.5 * reach)[0]
            if rng.random() < 0.3 or not index.blocked(cand):   # listed whatever it covers
                index.add(pair_id, cand)
                live[pair_id] = cand
        fresh = _CellGrid(radio, antenna, mode, min_side)
        for pair_id, placement in live.items():
            fresh.add(pair_id, placement)
        listing = grid_listing(index)
        assert listing == grid_listing(fresh)
        assert sorted(key for keys in listing.values() for key in keys) == sorted(
            2 * p + k for p in live for k in (0, 1))
        for cand in random_pairs(rng, 4, spread * reach, 0.5 * reach):
            admitted = not index.blocked(cand)
            assert admitted == reference_admit(cand, list(live.values()), radio, antenna, mode)
        assert grid_listing(index) == listing

    @pytest.mark.parametrize("kind", ["analytic", "table-above"])
    @pytest.mark.parametrize("mode", CheckMode)
    def test_removing_every_pair_empties_the_index(self, baseline_radio, mode, kind):
        # a cell leaves the index with its last device
        radio, antenna = baseline_radio, make_antenna(kind, baseline_radio.theta)
        reach = reach_of(radio, antenna)
        rng = np.random.default_rng(3)
        index = _CellGrid(radio, antenna, mode, 0.0)
        pairs = random_pairs(rng, 40, 3.0 * reach, 0.5 * reach)
        for pair_id, placement in enumerate(pairs):
            index.add(pair_id, placement)
        assert index._cells
        for pair_id in rng.permutation(len(pairs)).tolist():
            index.remove(pair_id, pairs[pair_id])
        assert index._cells == {}


@pytest.fixture()
def replication_grids(monkeypatch):
    """The admission index of each replication the test runs, in order, each with
    the placements it lists (live) and every blocked call's (candidate, live, answer)."""
    grids = []

    class Recorded(_CellGrid):
        def __init__(self, *args):
            super().__init__(*args)
            self.live, self.decisions = {}, []
            grids.append(self)

        def add(self, pair_id, placement):
            super().add(pair_id, placement)
            self.live[pair_id] = placement

        def remove(self, pair_id, placement):
            super().remove(pair_id, placement)
            del self.live[pair_id]

        def blocked(self, candidate):
            answer = super().blocked(candidate)
            self.decisions.append((candidate, list(self.live.values()), answer))
            return answer

    monkeypatch.setattr(simulator, "_CellGrid", Recorded)
    return grids


@pytest.mark.parametrize("mode", ["two-way", "one-way"])
def test_replication_index_holds_only_the_live_devices(replication_grids, mode):
    # reach 1.41 m in a 300 m disk: about 280 arrivals, nearly all admitted,
    # and every departure empties the cells its devices were alone in
    scn = load_scenario(preset="desk-fig4", overrides={
        "p_tx_dbm": "-20", "check_mode": mode, "warmup_s": "1", "horizon_s": "3"})
    result = run_replication(scn, 0, snapshot_times=[scn.horizon])
    (grid,) = replication_grids
    (live,) = result.snapshots
    assert result.accepted > len(live) > 0
    assert all(grid._cells.values())
    assert sum(map(len, grid._cells.values())) == 2 * len(live)


@pytest.mark.parametrize("preset, overrides", [
    ("desk-fig5", {"lambda_per_m2": "0.02"}),         # load * radius^2 = 118
    ("desk-fig5", {"lambda_per_m2": "0.018"}),        # 106
    ("desk-fig5", {"lambda_per_m2": "0.016"}),        # 94
    ("desk-fig5", {"lambda_per_m2": "0.005"}),        # 29.4
    ("desk-fig4", {}),                                # 0.66
    ("desk-fig4", {"check_mode": "one-way"}),
    ("desk-fig4", {"lambda_per_m2": "0.2", "r_d_m": "100"}),          # 396
    ("desk-fig4", {"lambda_per_m2": "0.2", "r_d_m": "100", "check_mode": "one-way"}),
])
def test_replication_cell_side_is_the_radius_at_any_load(replication_grids, preset, overrides):
    scn = load_scenario(preset=preset, overrides={**overrides, "sweep_param": "",
                                                  "warmup_s": "0.05", "horizon_s": "0.1"})
    run_replication(scn, 0)
    (grid,) = replication_grids
    assert grid._radius > 1e-9 * scn.deployment.region_radius
    assert grid._side == grid._radius * (1.0 + 1e-6)


@pytest.mark.parametrize("mode", CheckMode)
def test_replication_decisions_are_the_references(replication_grids, mode):
    # desk-fig5 geometry at 0.02 /s/m^2, the first ~2k arrivals: each decision of
    # the replication, one by one, is the kernel's on the live set
    scn = load_scenario(preset="desk-fig5", overrides={
        "lambda_per_m2": "0.02", "check_mode": mode.value, "sweep_param": "",
        "warmup_s": "0.01", "horizon_s": "0.35"})
    result = run_replication(scn, 0)
    (grid,) = replication_grids
    assert len(grid.decisions) > result.observed > 1500
    for candidate, live, answer in grid.decisions:
        assert answer == (not reference_admit(candidate, live, scn.radio, scn.antenna, mode))
    assert {answer for _, _, answer in grid.decisions} == {True, False}


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
    ALPHA = np.linspace(0.0, math.pi, 200_001).tolist()

    @pytest.mark.parametrize("theta_deg", [2.0, 8.0, 30.0, 52.0, 120.0, 180.0])
    def test_analytic_peak_is_max_directivity(self, theta_deg):
        radio = RadioParams(10.0, -78.0, math.radians(theta_deg), 2.0, 6.3e6)
        antenna = AntennaModel()
        peak, gain = antenna.peak_gain_linear(radio), antenna.gain_law(radio)
        assert peak == max_directivity(radio.theta)
        assert max(map(gain, self.ALPHA)) <= peak
        assert gain(0.0) == peak

    @pytest.mark.parametrize("offset_db", [-4.0, 3.5])
    @pytest.mark.parametrize("theta_deg", [8.0, 30.0, 52.0])
    def test_table_peak_bounds_every_angle(self, theta_deg, offset_db):
        radio = RadioParams(10.0, -78.0, math.radians(theta_deg), 2.0, 6.3e6)
        antenna = table_antenna(radio.theta, offset_db)
        peak, gain = antenna.peak_gain_linear(radio), antenna.gain_law(radio)
        assert max(map(gain, self.ALPHA)) <= peak
        assert gain(0.0) == peak
        assert (peak > max_directivity(radio.theta)) == (offset_db > 0)

    def test_table_peak_off_boresight(self):
        radio = RadioParams(10.0, -78.0, math.radians(30.0), 2.0, 6.3e6)
        antenna = AntennaModel((0.0, 0.2, math.pi), (5.0, 21.0, -30.0))
        assert antenna.peak_gain_linear(radio) == 10.0 ** 2.1
        assert max(map(antenna.gain_law(radio), self.ALPHA)) <= antenna.peak_gain_linear(radio)

import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import lambertw as scipy_lambertw

from beamcap import (ChainParams, NonConvergenceError, SteadyState, Variant,
                     acceptance_prob, gamma_from_geometry, lambert_w0, mean_pairs,
                     mean_pairs_closed_form, pair_coverage_area, steady_state,
                     telescoped_state_weight)
from beamcap.queueing import _log_accept

DEG = math.pi / 180.0
VARIANTS = [Variant.PIECEWISE_LINEAR, Variant.LOGISTIC, Variant.EXPONENTIAL]


def chain(lam=1.0, mu=1.0, gamma=0.1, variant=Variant.EXPONENTIAL):
    return ChainParams(lam, mu, gamma, variant)


def q_log(n, gamma, variant):
    """Q_n from the chain's log form log(1 - Q_n); n may be real."""
    return float(-np.expm1(_log_accept(np.array([n], dtype=float), gamma, variant)[0]))


def q_linear(n, gamma, variant):
    """Q_n from acceptance_prob's linear form, on a point mass at state n."""
    probs = np.zeros(n + 1)
    probs[n] = 1.0
    return 1.0 - acceptance_prob(SteadyState(probs, 0.0, chain(gamma=gamma, variant=variant)))


def reference_steady_state(params, epsilon):
    """State-by-state ratio recurrence with scalar libm calls: the reference
    that the block solver must reproduce.  Returns (probs, tail_bound)."""
    def log_accept(n):
        x = n * params.gamma
        if params.variant is Variant.PIECEWISE_LINEAR:
            return math.log1p(-x) if x < 1.0 else -math.inf
        if params.variant is Variant.LOGISTIC:
            return math.log(2.0) - 2.0 * x - math.log1p(math.exp(-2.0 * x))
        return -2.0 * x

    log_a, log_eps = math.log(params.load), math.log(epsilon)
    logws, logw, log_sum, m = [0.0], 0.0, 0.0, 0
    while True:
        la = log_accept(m)
        if la < -745.0:
            log_tail = -math.inf
            break
        log_r = log_a + la - math.log(m + 1)
        if log_r < 0.0:
            log_tail = logw + log_r - math.log1p(-math.exp(log_r))
            if log_tail - np.logaddexp(log_sum, log_tail) <= log_eps:
                break
        m += 1
        logw += log_r
        logws.append(logw)
        log_sum = np.logaddexp(log_sum, logw)
    log_z = np.logaddexp(log_sum, log_tail)
    probs = np.exp(np.asarray(logws) - log_z)
    tail = float(np.exp(log_tail - log_z)) if log_tail != -math.inf else 0.0
    total = float(probs.sum()) + tail
    return probs / total, tail / total


class TestGammaFromGeometry:
    def test_zero_radius(self):
        assert gamma_from_geometry(0.0, 2.0, 1.0, 100.0) == 0.0

    def test_full_scale_geometry(self):
        g = gamma_from_geometry(44.5, 2.0, 52 * DEG, math.pi * 3000**2)
        assert g == pytest.approx(pair_coverage_area(44.5, 52 * DEG, 2.0) / (math.pi * 3000**2),
                                  rel=1e-15)
        assert g == pytest.approx(6.36e-5, rel=1e-2)

    def test_footprint_fills_region(self):
        area = pair_coverage_area(44.5, 52 * DEG, 2.0)
        assert gamma_from_geometry(44.5, 2.0, 52 * DEG, area) == pytest.approx(1.0, rel=1e-15)

    def test_bad_area(self):
        with pytest.raises(ValueError):
            gamma_from_geometry(1.0, 2.0, 1.0, 0.0)


class TestRejectionProb:
    """The Q_n shapes in both forms the chain uses: log for the solve, linear for P_acc."""

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("gamma", [0.0, 1e-4, 0.3, 5.0])
    def test_empty_system_always_accepts(self, variant, gamma):
        for q in (q_log, q_linear):
            assert q(0, gamma, variant) == 0.0

    def test_logistic_saturates(self):
        assert q_log(10**9, 0.1, Variant.LOGISTIC) >= 1.0 - 1e-9
        assert q_linear(1000, 0.1, Variant.LOGISTIC) >= 1.0 - 1e-9

    def test_exponential_example(self):
        for q in (q_log, q_linear):
            assert q(3, 0.1, Variant.EXPONENTIAL) == pytest.approx(0.451188363905974, rel=1e-12)

    def test_piecewise_saturates_at_one(self):
        for q in (q_log, q_linear):
            assert q(11, 0.1, Variant.PIECEWISE_LINEAR) == 1.0

    @pytest.mark.parametrize("variant", VARIANTS)
    @given(gamma=st.floats(1e-6, 2.0), n=st.integers(0, 1000))
    def test_monotone_in_n(self, variant, gamma, n):
        for q in (q_log, q_linear):
            assert q(n + 1, gamma, variant) >= q(n, gamma, variant)

    @given(gamma=st.floats(1e-6, 2.0), n=st.integers(1, 500))
    def test_logistic_is_lowest(self, gamma, n):
        for q in (q_log, q_linear):
            q_logistic = q(n, gamma, Variant.LOGISTIC)
            assert q_logistic <= q(n, gamma, Variant.EXPONENTIAL) + 1e-15
            assert q_logistic <= q(n, gamma, Variant.PIECEWISE_LINEAR) + 1e-15

    @pytest.mark.parametrize("gamma", [1e-5, 1e-3, 0.05, 0.2, 0.5])
    def test_logistic_slope_matches_gamma(self, gamma):
        # the logistic shape is calibrated so its slope at the origin is
        # exactly the footprint ratio
        h = 1e-6
        slope = q_log(h, gamma, Variant.LOGISTIC) / h
        assert slope == pytest.approx(gamma, rel=1e-6)


class TestSteadyState:
    def test_zero_arrivals(self):
        ss = steady_state(chain(lam=0.0))
        assert ss.probs.tolist() == [1.0]
        assert ss.tail_bound == 0.0
        assert mean_pairs(ss) == 0.0

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("a", [0.5, 5.0, 50.0])
    def test_poisson_reduction(self, a, variant):
        ss = steady_state(chain(lam=a, gamma=0.0, variant=variant), epsilon=1e-12)
        n = np.arange(ss.probs.size)
        log_pois = n * math.log(a) - a - np.array([math.lgamma(k + 1) for k in n])
        assert np.max(np.abs(ss.probs - np.exp(log_pois))) < 1e-9
        assert mean_pairs(ss) == pytest.approx(a, abs=1e-9)

    def test_extended_precision_example(self):
        # frozen from a 50-digit summation of the telescoped series
        ss = steady_state(chain(), epsilon=1e-12)
        assert ss.probs[0] == pytest.approx(0.397680132432863, rel=1e-9)
        assert ss.probs[1] == pytest.approx(0.397680132432863, rel=1e-9)
        assert ss.probs[2] == pytest.approx(0.162796477155455, rel=1e-9)
        assert mean_pairs(ss) == pytest.approx(0.854778070447717, rel=1e-9)

    @pytest.mark.parametrize("variant", VARIANTS)
    @settings(max_examples=40, deadline=None)
    @given(a=st.floats(0.01, 200.0), gamma=st.floats(0.0, 0.5))
    def test_normalization(self, variant, a, gamma):
        ss = steady_state(chain(lam=a, gamma=gamma, variant=variant))
        total = ss.probs.sum() + ss.tail_bound
        assert abs(total - 1.0) <= 1e-12
        assert ss.tail_bound <= 1e-9

    def test_piecewise_truncates_exactly(self):
        # birth rate hits zero at n*gamma >= 1, so the chain is finite
        ss = steady_state(chain(lam=5.0, gamma=0.3, variant=Variant.PIECEWISE_LINEAR))
        assert ss.probs.size - 1 == 4
        assert ss.tail_bound == 0.0

    def test_huge_load_stays_finite(self):
        # footprint interference caps the population long before the load
        ss = steady_state(chain(lam=5.65e7, gamma=6.35e-5))
        assert ss.probs.size - 1 < 100_000
        assert mean_pairs(ss) == pytest.approx(5.46e4, rel=2e-2)

    def test_non_convergence_error(self):
        with pytest.raises(NonConvergenceError, match="lambda/mu"):
            steady_state(chain(lam=1e6, gamma=0.0), max_states=1000)

    def test_non_convergence_fails_fast(self):
        t0 = time.perf_counter()
        with pytest.raises(NonConvergenceError) as err:
            steady_state(chain(lam=1e8, gamma=0.0), max_states=10_000_000)
        assert time.perf_counter() - t0 < 0.2
        assert str(err.value) == ("steady state not truncated within 10000000 states "
                                  "(load lambda/mu = 1e+08, gamma = 0)")

    def test_max_states_is_the_last_state_examined(self):
        params = chain(lam=50.0, gamma=0.0)
        last = steady_state(params).probs.size - 1
        assert np.array_equal(steady_state(params, max_states=last).probs,
                              steady_state(params).probs)
        with pytest.raises(NonConvergenceError):
            steady_state(params, max_states=last - 1)

    @pytest.mark.parametrize("variant", VARIANTS)
    @settings(max_examples=25, deadline=None)
    @given(a=st.floats(0.01, 1e5), gamma=st.floats(0.0, 1.0),
           k=st.integers(0, 100_000))
    def test_max_states_limits_exactly_the_walk(self, variant, a, gamma, k):
        # the up-front check may raise only where the walk itself would: a
        # chain truncating at index t solves unchanged for any limit >= t and
        # raises for any limit < t
        params = chain(lam=a, gamma=gamma, variant=variant)
        ss = steady_state(params)
        t = ss.probs.size - 1
        for limit in (t, t + k):
            got = steady_state(params, max_states=limit)
            assert np.array_equal(got.probs, ss.probs) and got.tail_bound == ss.tail_bound
        for limit in {t - 1, t - 1 - k}:
            if limit >= 0:
                with pytest.raises(NonConvergenceError):
                    steady_state(params, max_states=limit)

    @pytest.mark.parametrize("lam, gamma", [(1e308, 1.0), (1.0, 1000.0)])
    def test_closed_form_overflow_only_sizes_blocks(self, lam, gamma):
        # 2*gamma*load*e^gamma overflows: to inf, and in exp(gamma) itself
        params = chain(lam=lam, gamma=gamma)
        probs, tail = reference_steady_state(params, 1e-9)
        ss = steady_state(params)
        np.testing.assert_allclose(ss.probs, probs, rtol=1e-12, atol=1e-300)
        assert ss.tail_bound == pytest.approx(tail, rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("variant", VARIANTS)
    @settings(max_examples=25, deadline=None)
    @given(a=st.floats(0.01, 1e4), gamma=st.floats(0.0, 1.0),
           epsilon=st.sampled_from([1e-12, 1e-9, 1e-6]))
    @example(a=2e5, gamma=0.0, epsilon=1e-9)   # four blocks for every shape
    @example(a=1e5, gamma=1e-4, epsilon=1e-9)  # two blocks for the logistic shape
    def test_matches_reference_recurrence(self, variant, a, gamma, epsilon):
        # vectorised exp/log may round the last bit unlike libm; the log
        # weights then drift by a few ulp, far inside this tolerance
        params = chain(lam=a, gamma=gamma, variant=variant)
        probs, tail = reference_steady_state(params, epsilon)
        ss = steady_state(params, epsilon=epsilon)
        assert ss.probs.size == probs.size
        np.testing.assert_allclose(ss.probs, probs, rtol=1e-12, atol=1e-300)
        assert ss.tail_bound == pytest.approx(tail, rel=1e-12, abs=1e-300)

    def test_epsilon_domain(self):
        with pytest.raises(ValueError):
            steady_state(chain(), epsilon=0.0)
        with pytest.raises(ValueError):
            steady_state(chain(), epsilon=0.1)

    def test_invariants_rejected(self):
        with pytest.raises(ValueError):
            SteadyState(np.array([0.5, 0.4]), 0.0, chain())
        with pytest.raises(ValueError):
            ChainParams(-1.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            ChainParams(1.0, 0.0, 0.1)
        with pytest.raises(ValueError):
            ChainParams(1.0, 1.0, -0.1)


class TestMetrics:
    def test_mean_empty(self):
        assert mean_pairs(SteadyState(np.array([1.0]), 0.0, chain(lam=0.0))) == 0.0

    def test_acceptance_no_interference(self):
        ss = steady_state(chain(lam=3.0, gamma=0.0))
        assert acceptance_prob(ss) == pytest.approx(1.0, abs=1e-12)

    def test_acceptance_empty(self):
        ss = steady_state(chain(lam=0.0))
        assert acceptance_prob(ss) == 1.0

    def test_acceptance_example(self):
        # frozen from the same 50-digit summation as the state probabilities
        ss = steady_state(chain(), epsilon=1e-12)
        assert acceptance_prob(ss) == pytest.approx(0.854778070447717, rel=1e-9)

    @pytest.mark.parametrize("variant", VARIANTS)
    @settings(max_examples=30, deadline=None)
    @given(a=st.floats(0.1, 100.0), gamma=st.floats(1e-5, 0.5))
    def test_flow_balance(self, variant, a, gamma):
        # in equilibrium the admitted rate equals the departure rate:
        # lambda * P_accept = mu * E[N]
        params = chain(lam=a, gamma=gamma, variant=variant)
        ss = steady_state(params, epsilon=1e-12)
        assert acceptance_prob(ss) == pytest.approx(mean_pairs(ss) / a, rel=1e-8)


class TestChainProperties:
    """Invariants of the solved chain over random load, footprint and shape."""

    @settings(max_examples=100, deadline=None)
    @given(load=st.floats(0.01, 1e5), mu=st.floats(0.01, 100.0),
           gamma=st.floats(0.0, 1.0), variant=st.sampled_from(VARIANTS))
    def test_littles_law_and_tail_bound(self, load, mu, gamma, variant):
        params = ChainParams(load * mu, mu, gamma, variant)
        ss = steady_state(params, epsilon=1e-12)
        assert ss.tail_bound <= 1e-12
        assert params.lambda_total * acceptance_prob(ss) == pytest.approx(
            params.mu * mean_pairs(ss), rel=1e-8)

    @settings(max_examples=100, deadline=None)
    @given(load=st.floats(0.01, 100.0), gamma=st.floats(0.0, 1.0))
    def test_exponential_matches_telescoped_weights(self, load, gamma):
        # an independent route: closed-form weights, no recurrence.  Rounding
        # in the recurrence grows with |log w| ~ load, hence loads <= 100
        params = chain(lam=load, gamma=gamma)
        ss = steady_state(params)
        weights = np.array([telescoped_state_weight(m, params) for m in range(ss.probs.size)])
        normal = weights > 1e-290
        ratio = ss.probs[normal] / weights[normal]
        np.testing.assert_allclose(ratio, ratio[0], rtol=1e-12)


class TestLambertW:
    def test_trivial_points(self):
        assert lambert_w0(0.0) == 0.0
        assert lambert_w0(math.e) == pytest.approx(1.0, rel=1e-14)
        assert lambert_w0(1.0) == pytest.approx(0.5671432904097838, abs=1e-10)

    def test_branch_point(self):
        assert lambert_w0(-1.0 / math.e) == pytest.approx(-1.0, abs=1e-6)
        assert lambert_w0(-0.3) == pytest.approx(-0.4894022271802149, rel=1e-9)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            lambert_w0(-1.0 / math.e - 1e-6)

    def test_residual_on_log_grid(self):
        for x in np.geomspace(1e-12, 1e9, 200):
            w = lambert_w0(float(x))
            assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, x)

    def test_against_scipy(self):
        for x in np.geomspace(1e-10, 1e8, 50):
            ref = float(scipy_lambertw(float(x)).real)
            assert lambert_w0(float(x)) == pytest.approx(ref, rel=1e-10)


class TestClosedForm:
    def test_gamma_zero_is_load(self):
        assert mean_pairs_closed_form(chain(lam=7.0, gamma=0.0)) == 7.0

    def test_small_gamma_limit(self):
        assert mean_pairs_closed_form(chain(lam=7.0, gamma=1e-12)) == pytest.approx(7.0, rel=1e-6)

    def test_unit_load_example(self):
        # 5 * W(0.2 * e^0.1) evaluated through the residual-verified solver
        assert mean_pairs_closed_form(chain()) == pytest.approx(0.919519599403794, rel=1e-10)

    def test_dense_deployment_vs_series(self):
        params = chain(lam=2 * math.pi * 3000**2, gamma=6.3528955286054768e-5)
        closed = mean_pairs_closed_form(params)
        assert closed == pytest.approx(54638.0049702, rel=1e-8)
        ss = steady_state(params)
        # closed form targets the series maximum in the dense regime
        mode = int(np.argmax(ss.probs))
        assert abs(closed - mode) / mode < 1e-3
        assert closed == pytest.approx(mean_pairs(ss), rel=5e-3)

    @given(a=st.floats(1.0, 1e6), g1=st.floats(1e-6, 0.5), scale=st.floats(1.5, 100.0))
    def test_decreasing_in_gamma(self, a, g1, scale):
        lo = mean_pairs_closed_form(chain(lam=a, gamma=g1))
        hi = mean_pairs_closed_form(chain(lam=a, gamma=g1 * scale))
        assert hi <= lo


class TestTelescopedWeight:
    def test_empty_product(self):
        assert telescoped_state_weight(0, chain()) == 1.0

    def test_single_state(self):
        assert telescoped_state_weight(1, chain(lam=3.0)) == pytest.approx(3.0, rel=1e-15)

    def test_example(self):
        # (1-Q1)(1-Q2)/3! = e^{-0.2} e^{-0.4} / 6
        assert telescoped_state_weight(3, chain()) == pytest.approx(
            0.0914686060156711, rel=1e-12)

    def test_matches_explicit_product(self):
        params = chain(lam=2.0, gamma=0.05)
        for m in range(2, 60):
            explicit = 2.0**m / math.factorial(m)
            for n in range(1, m):
                explicit *= 1.0 - q_linear(n, 0.05, Variant.EXPONENTIAL)
            assert telescoped_state_weight(m, params) == pytest.approx(explicit, rel=1e-10)

    def test_requires_exponential_variant(self):
        with pytest.raises(ValueError, match="exponential"):
            telescoped_state_weight(2, chain(variant=Variant.LOGISTIC))

    def test_telescoping_identity(self):
        # product of acceptance factors vs the closed exponent
        for gamma in (1e-4, 1e-2, 0.1, 1.0):
            for m in (2, 10, 50, 200):
                product_log = math.fsum(-2.0 * n * gamma for n in range(1, m))
                assert abs(math.expm1(product_log + gamma * m * (m - 1))) <= 1e-12

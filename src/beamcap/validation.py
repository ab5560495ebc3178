"""End-to-end verification checks shared by the CLI and the test suite.

Each check compares library output against an independent route (explicit products,
direct summation, quadrature, the second engine) and reports a measured figure
against a pinned tolerance.  The cross-engine, monotonicity and power checks
read the rows that simulate, analyze and sweep-power print.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import cli_rows, queueing, simulator
from .queueing import ChainParams, Variant
from .radio import beam_area
from .scenario import Scenario, ScenarioError, check_simulation_budget, load_scenario


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (f"[{verdict}] {self.name}: measured={self.measured:.6g} "
                f"tolerance={self.tolerance:.6g} {self.detail}".rstrip())


def check_telescoping() -> CheckResult:
    """Acceptance product against its telescoped exponential form.

    The product of the chain's per-state acceptance factors is accumulated
    in the log domain (deep tails underflow any linear representation);
    |expm1(delta-log)| is exactly the relative disagreement of the values.
    """
    worst = 0.0
    for gamma in (1e-4, 1e-2, 0.1, 1.0):
        for m in range(2, 201):
            factors = np.exp(queueing._log_accept(np.arange(1, m), gamma, Variant.EXPONENTIAL))
            product_log = math.fsum(np.log(factors))
            telescoped_log = -gamma * m * (m - 1)
            worst = max(worst, abs(math.expm1(product_log - telescoped_log)))
    return CheckResult("telescoping-identity", worst <= 1e-12, worst, 1e-12,
                       "m<=200, gamma in {1e-4,1e-2,0.1,1}")


def check_mminf_reduction() -> CheckResult:
    """Zero-footprint chain must collapse to the Poisson distribution."""
    worst = 0.0
    for a in (0.5, 5.0, 50.0):
        params = ChainParams(a, 1.0, 0.0)
        ss = queueing.steady_state(params, epsilon=1e-12)
        n = np.arange(ss.probs.size)
        pois = np.exp(n * math.log(a) - a - np.array([math.lgamma(k + 1) for k in n]))
        worst = max(worst, float(np.max(np.abs(ss.probs - pois))))
        worst = max(worst, abs(queueing.mean_pairs(ss) - a))
    return CheckResult("poisson-reduction", worst <= 1e-9, worst, 1e-9,
                       "load in {0.5, 5, 50}")


def check_lambert() -> CheckResult:
    grid = np.geomspace(1e-12, 1e9, 300)
    worst = 0.0
    for x in grid:
        w = queueing.lambert_w0(float(x))
        worst = max(worst, abs(w * math.exp(w) - x) / max(1.0, x))
    w1_err = abs(queueing.lambert_w0(1.0) - 0.56714329)
    ok = worst <= 1e-12 and w1_err <= 1e-8
    return CheckResult("lambert-w-residual", ok, worst, 1e-12,
                       f"|W(1)-0.56714329|={w1_err:.2e}")


def check_beam_area() -> CheckResult:
    """Closed form against adaptive quadrature of the border integral."""
    from scipy import integrate  # imported here: scipy costs about 1 s of start-up

    worst = 0.0
    r = 44.5
    for kappa in (2.0, 3.0, 4.0):
        for theta in (math.radians(t) for t in (4, 15, 30, 52)):
            def d(a):
                return r * (1.0 - a / theta) ** (1.0 / kappa)

            def dprime(a):
                return -r / (kappa * theta) * (1.0 - a / theta) ** (1.0 / kappa - 1.0)

            def f(a):
                return d(a) * math.cos(a) * (dprime(a) * math.sin(a) + d(a) * math.cos(a))

            with warnings.catch_warnings():
                warnings.simplefilter("ignore", integrate.IntegrationWarning)
                val, _ = integrate.quad(f, 0.0, theta, limit=400, epsabs=1e-13, epsrel=1e-13)
            closed = beam_area(r, theta, kappa)
            worst = max(worst, abs(2.0 * val - closed) / closed)
    return CheckResult("beam-area-quadrature", worst <= 1e-6, worst, 1e-6,
                       "kappa in {2,3,4}, theta in {4,15,30,52} deg")


def check_closed_vs_series() -> CheckResult:
    """Lambert-W mean against the summed series in the dense regime."""
    cases = [(g, x / (2.0 * g)) for g in (1e-4, 1e-2, 0.1, 0.2) for x in (10.0, 100.0, 1e4)]
    cases.append((6.3528955286054768e-5, 2.0 * math.pi * 3000.0 ** 2))
    worst = 0.0
    for gamma, a in cases:
        params = ChainParams(a, 1.0, gamma)
        series = queueing.mean_pairs(queueing.steady_state(params))
        closed = queueing.mean_pairs_closed_form(params)
        worst = max(worst, abs(closed - series) / series)
    return CheckResult("closed-form-vs-series", worst <= 0.05, worst, 0.05,
                       "2*gamma*load >= 10, bell-shaped regime")


def check_cross_engine(scn: Scenario, sim: dict) -> list[CheckResult]:
    """A simulate row of scn against its analyze row."""
    analytic = cli_rows.analyze_rows(scn)[0]
    e_n, p_acc = analytic["mean_pairs_series"], analytic["p_accept"]
    rel = abs(sim["mean_pairs"] - e_n) / e_n
    absd = abs(sim["p_accept"] - p_acc)
    return [
        CheckResult("cross-engine-mean-pairs", rel <= 0.15, rel, 0.15,
                    f"sim={sim['mean_pairs']:.2f} analytic={e_n:.2f}"),
        CheckResult("cross-engine-p-accept", absd <= 0.05, absd, 0.05,
                    f"sim={sim['p_accept']:.4f} analytic={p_acc:.4f}"),
    ]


def check_monotonicity() -> CheckResult:
    """analyze rows: monotone in load, and footprint ordering across beamwidths."""
    lams = ",".join(repr(float(lam)) for lam in np.linspace(3.33e-5, 6.66e-4, 10))
    load = cli_rows.analyze_rows(load_scenario(preset="desk-fig4", overrides={
        "sweep_param": "lambda_per_m2", "sweep_values": lams}))
    ok = all(b["mean_pairs_series"] >= a["mean_pairs_series"] - 1e-12
             and b["p_accept"] <= a["p_accept"] + 1e-12 for a, b in zip(load, load[1:]))
    # high-load beamwidth ordering: wider beams have smaller footprints here
    beams = cli_rows.analyze_rows(load_scenario(preset="paper-fig4", overrides={
        "lambda_per_m2": "2.0", "sweep_param": "theta_deg", "sweep_values": "8,30,52"}))
    gs, es = zip(*[(r["gamma"], r["mean_pairs_series"]) for r in beams])
    ok = ok and all(gs[i] > gs[i + 1] and es[i] < es[i + 1] for i in range(2))
    return CheckResult("monotonicity-suite", ok, float(ok), 1.0,
                       f"gamma(8,30,52deg)={gs[0]:.3g},{gs[1]:.3g},{gs[2]:.3g}")


def check_power_optimum() -> list[CheckResult]:
    """paper-fig5 sweep-power rows: interior optimum at 2/m2, density ordering of optima."""
    rows = cli_rows.sweep_power_rows(load_scenario(preset="paper-fig5"))
    dense = [r for r in rows if r["row_type"] == "point" and r["sweep_value"] == 2.0]
    optima = {r["sweep_value"]: r["p_tx_dbm"] for r in rows if r["row_type"] == "optimum"}
    vals = [r["area_rate_bps_m2"] for r in dense]
    i = vals.index(max(vals))
    interior = 0 < i < len(vals) - 1 and vals[i] > vals[0] and vals[i] > vals[-1]
    p_arg, p_dense, p_sparse = dense[i]["p_tx_dbm"], optima[2.0], optima[0.5]
    ordered = p_dense <= p_sparse + 0.1
    return [
        CheckResult("power-interior-maximum", interior, p_arg, 20.0,
                    f"argmax={p_arg:.1f} dBm of [-20,20]"),
        CheckResult("power-optimum-density-ordering", ordered, p_dense - p_sparse, 0.1,
                    f"p_opt(2/m2)={p_dense:.2f} <= p_opt(0.5/m2)={p_sparse:.2f}"),
    ]


def check_hard_core(scn: Scenario) -> CheckResult:
    """No device of an admitted pair receives the threshold from another pair's
    transmitter (one-way: an earlier pair's), on six snapshots of one replication."""
    times = [scn.warmup + (scn.horizon - scn.warmup) * k / 7 for k in range(1, 7)]
    snaps = simulator.run_replication(scn, 0, snapshot_times=times).snapshots
    worst = max(simulator.max_cross_pair_power(s, scn.radio, scn.antenna, scn.check_mode)
                for s in snaps) / scn.radio.n_thr_mw
    return CheckResult("hard-core-audit", len(snaps) == len(times) and worst < 1.0, worst, 1.0,
                       f"max cross-pair power/N_thr; snapshot pairs {[len(s) for s in snaps]}")


def check_determinism(jobs: int = 1) -> CheckResult:
    """Byte-identical fixed-seed simulate output, serial against jobs workers."""
    scn = load_scenario(preset="desk-fig4", overrides={
        "replications": "4", "horizon_s": "40", "warmup_s": "10", "seed": "99",
    })
    out1 = cli_rows.render_csv(cli_rows.simulate_rows(scn, jobs=1))
    out2 = cli_rows.render_csv(cli_rows.simulate_rows(scn, jobs=jobs))
    same = out1.encode() == out2.encode()
    return CheckResult("simulate-determinism", same, float(same), 1.0,
                       f"{len(out1.encode())} bytes compared, serial against --jobs {jobs}")


def run_all(scn: Scenario, jobs: int) -> list[CheckResult]:
    check_simulation_budget([scn])
    if scn.sweep is not None:
        raise ScenarioError("sweep_param: validate checks one scenario, not a sweep")
    if scn.deployment.lambda_density == 0.0:
        # the cross-engine check is relative to the analytic mean, which is then 0
        raise ScenarioError("lambda_per_m2: validate compares the engines on a loaded "
                            "scenario, got 0")
    results = [
        check_telescoping(),
        check_mminf_reduction(),
        check_lambert(),
        check_beam_area(),
        check_closed_vs_series(),
    ]
    results.extend(check_cross_engine(scn, cli_rows.simulate_rows(scn, jobs=jobs)[0]))
    results.append(check_hard_core(scn))
    results.append(check_monotonicity())
    results.extend(check_power_optimum())
    results.append(check_determinism(jobs=jobs))
    return results

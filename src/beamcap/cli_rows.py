"""Row builders and renderers for the command-line experiment runner.

Every command emits a fixed column set.  csv writes each value as str, which
for a Python float is its repr, so output is locale-independent and
reproduces bit-exactly for equal seeds; a numpy float prints as a plain number.
"""

from __future__ import annotations

import csv
import io
import json
import math

from . import queueing, simulator, throughput
from .scenario import (Scenario, ScenarioError, check_simulation_budget, field_keys,
                       sweep_points)

MAX_POWER_POINTS = 100_000
MAX_SERIES_STATES = 1e8


def render_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def render_json(rows: list[dict]) -> str:
    """Rows as a JSON array; a non-finite float (NaN, an infinite CI) prints as null."""
    def clean(v):
        if isinstance(v, float) and not math.isfinite(v):
            return None
        return v
    return json.dumps([{k: clean(v) for k, v in r.items()} for r in rows], indent=2,
                      allow_nan=False) + "\n"


def analyze_rows(scenario: Scenario) -> list[dict]:
    """Per sweep value: footprint ratio, both mean-pair engines, acceptance."""
    rows = []
    for param, value, scn in sweep_points(scenario):
        chain = scn.chain(scn.radio.p_tx_dbm)
        ss = queueing.steady_state(chain)
        e_series = queueing.mean_pairs(ss)
        rows.append({
            "sweep_param": param,
            "sweep_value": value,
            "gamma": chain.gamma,
            "mean_pairs_series": e_series,
            "mean_pairs_closed": queueing.mean_pairs_closed_form(chain),
            "mean_pairs_per_m2": e_series / scn.deployment.area,
            "p_accept": queueing.acceptance_prob(ss),
            "tail_bound": ss.tail_bound,
        })
    return rows


def simulate_rows(scenario: Scenario, jobs: int = 1) -> list[dict]:
    """Per sweep value: aggregated simulator statistics, the seed echoed; the
    whole sweep is checked against the simulation budget before any run."""
    points = list(sweep_points(scenario))
    check_simulation_budget(scn for _, _, scn in points)
    rows = []
    for param, value, scn in points:
        stats = simulator.run(scn, jobs=jobs)
        rows.append({
            "sweep_param": param,
            "sweep_value": value,
            "seed": scn.seed,
            "replications": scn.replications,
            "mean_pairs": stats.mean_pairs,
            "ci_mean_pairs": stats.ci_halfwidth_mean_pairs,
            "mean_pairs_per_m2": stats.mean_pairs / scn.deployment.area,
            "p_accept": stats.p_accept,
            "ci_p_accept": stats.ci_halfwidth_p_accept,
            "arrivals_observed": stats.arrivals_observed,
            "flags": ";".join(stats.flags),
        })
    return rows


def sweep_power_rows(scenario: Scenario) -> list[dict]:
    """Power-sweep points plus one optimum summary row per sweep value.

    Refused before any work, in this order: a display grid of more than
    MAX_POWER_POINTS powers, a range end whose coverage radius
    degenerates (the radius grows with power, so the ends bound the range),
    and with the series engine every sweep value's chain
    at p_tx_min_dbm (the smallest gamma, the largest mean) past the state limit,
    then walks of more than MAX_SERIES_STATES states in all: the closed-form mean
    (about one state per pair) over the display grid, the optimizer's grid, and
    its MAX_REFINE_EVALS or fewer refinement evaluations (at the p_tx_min_dbm mean).
    A row whose area rate is not finite is refused once computed: a sweep
    value's point rows before the optimizer runs, its optimum row after.
    """
    lo, hi = scenario.p_tx_min_dbm, scenario.p_tx_max_dbm   # no power key is sweepable
    count = (hi - lo) / scenario.p_tx_step_db + 1.0
    if count > MAX_POWER_POINTS:
        raise ScenarioError(f"p_tx_min_dbm, p_tx_max_dbm, p_tx_step_db: {count:.3g} power grid "
                            f"points per sweep value exceed the limit of {MAX_POWER_POINTS}")
    points = list(sweep_points(scenario))
    for _, _, scn in points:
        for key in ("p_tx_max_dbm", "p_tx_min_dbm"):   # chain is left at the minimum
            try:
                chain = scn.chain(getattr(scn, key))
            except ValueError as exc:   # the power key, and the fields the check compares
                keys = dict.fromkeys([key, *field_keys(exc, key)])
                raise ScenarioError(f"{', '.join(keys)}: {exc}") from None
        if scn.mean_engine is throughput.MeanEngine.SERIES:
            try:
                queueing.check_state_limit(chain)
            except queueing.NonConvergenceError as exc:   # the chain at p_tx_min_dbm
                raise ScenarioError(f"{', '.join(field_keys(exc, 'p_tx_min_dbm'))}: {exc}") from None
    n_steps = math.floor((hi - lo) / scenario.p_tx_step_db + 1e-9)
    grid = [lo + i * scenario.p_tx_step_db for i in range(n_steps + 1)]
    # a step that does not divide the range ends on the maximum itself
    grid = [p for p in grid if p < hi - 1e-9] + [hi]
    powers = grid + throughput.optimizer_grid(scenario) + [lo] * throughput.MAX_REFINE_EVALS
    states = sum(queueing.mean_pairs_closed_form(scn.chain(p)) for _, _, scn in points
                 if scn.mean_engine is throughput.MeanEngine.SERIES for p in powers)
    if states > MAX_SERIES_STATES:
        raise ScenarioError(f"mean_engine, lambda_per_m2, r_d_m, mu_per_s, p_tx_min_dbm, "
                            f"p_tx_max_dbm, p_tx_step_db, n_thr_dbm, theta_deg, kappa, c_const: "
                            f"the series engine would walk about {states:.3g} chain "
                            f"states, past the limit of {MAX_SERIES_STATES:.0e}")
    rows = []
    for param, value, scn in points:
        found = [("point", throughput.rate_components(scn, p), "") for p in grid]
        _check_area_rates(scn, found)   # before any optimizer work
        opt = throughput.optimize_power(scn)
        found.append(("optimum", opt.point, "flat" if opt.flat else ""))
        _check_area_rates(scn, found[-1:])
        rows.extend({
            "row_type": row_type, "sweep_param": param, "sweep_value": value,
            "p_tx_dbm": pt.p_tx_dbm, "gamma": pt.gamma, "mean_pairs": pt.mean_pairs,
            "link_rate_bps": pt.link_rate_bps, "area_rate_bps_m2": pt.area_rate_bps_m2,
            "flags": flags,
        } for row_type, pt, flags in found)
    return rows


def _check_area_rates(scn: Scenario, found: list) -> None:
    """Refuse a row whose area rate is inf, or NaN: an infinite link rate times no pairs."""
    for _, pt, _ in found:
        if not math.isfinite(pt.area_rate_bps_m2):
            raise ScenarioError(
                f"r_d_m, bandwidth_hz, lambda_per_m2, mu_per_s: the area rate at {pt.p_tx_dbm:g} "
                f"dBm is {pt.area_rate_bps_m2:g} b/s/m^2, {pt.link_rate_bps:g} b/s times "
                f"{pt.mean_pairs:g} pairs over a disk of {scn.deployment.area:g} m^2")

"""Row builders and renderers for the command-line experiment runner.

Every command emits a fixed column set; floats are rendered with repr so
output is locale-independent and reproduces bit-exactly for equal seeds.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import replace

from . import queueing, simulator, throughput
from .scenario import Scenario, sweep_points

ANALYZE_COLUMNS = ("sweep_param", "sweep_value", "gamma", "mean_pairs_series",
                   "mean_pairs_closed", "mean_pairs_per_m2", "p_accept", "tail_bound")
SIMULATE_COLUMNS = ("sweep_param", "sweep_value", "seed", "replications", "mean_pairs",
                    "ci_mean_pairs", "mean_pairs_per_m2", "p_accept", "ci_p_accept",
                    "arrivals_observed", "flags")
SWEEP_POWER_COLUMNS = ("row_type", "sweep_param", "sweep_value", "p_tx_dbm", "gamma",
                       "mean_pairs", "link_rate_bps", "area_rate_bps_m2", "flags")


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def render_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    if not rows:
        return ""
    writer = csv.writer(buf, lineterminator="\n")
    columns = list(rows[0].keys())
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(row[c]) for c in columns])
    return buf.getvalue()


def render_json(rows: list[dict]) -> str:
    def clean(v):
        if isinstance(v, float) and math.isnan(v):
            return None
        return v
    return json.dumps([{k: clean(v) for k, v in r.items()} for r in rows], indent=2) + "\n"


def analyze_rows(scenario: Scenario) -> list[dict]:
    """Per sweep value: footprint ratio, both mean-pair engines, acceptance."""
    rows = []
    for param, value, scn in sweep_points(scenario):
        chain = queueing.chain_params(scn.radio, scn.deployment, scn.variant)
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


def simulate_rows(scenario: Scenario, jobs: int = 1, seed: int | None = None) -> list[dict]:
    """Per sweep value: aggregated simulator statistics with the seed echoed."""
    rows = []
    for param, value, scn in sweep_points(scenario):
        config = scn.sim_config(seed=seed)
        stats = simulator.run(config, jobs=jobs)
        rows.append({
            "sweep_param": param,
            "sweep_value": value,
            "seed": config.seed,
            "replications": config.replications,
            "mean_pairs": stats.mean_pairs,
            "ci_mean_pairs": stats.ci_halfwidth_mean_pairs,
            "mean_pairs_per_m2": stats.mean_pairs_per_m2,
            "p_accept": stats.p_accept,
            "ci_p_accept": stats.ci_halfwidth_p_accept,
            "arrivals_observed": stats.arrivals_observed,
            "flags": ";".join(stats.flags),
        })
    return rows


def sweep_power_rows(scenario: Scenario) -> list[dict]:
    """Power-sweep points plus one optimum summary row per sweep value.

    With the series engine, every sweep value's chain at p_tx_min_dbm (the
    smallest gamma, the largest mean) is checked against the state limit
    before any walk, so an infeasible sweep fails at once.
    """
    points = list(sweep_points(scenario))
    for _, _, scn in points:
        if scn.mean_engine is throughput.MeanEngine.SERIES:
            low = replace(scn.radio, p_tx_dbm=scn.p_tx_min_dbm)
            queueing.check_state_limit(queueing.chain_params(low, scn.deployment, scn.variant))
    rows = []
    for param, value, scn in points:
        rate_scn = scn.rate_scenario()
        n_steps = math.floor((scn.p_tx_max_dbm - scn.p_tx_min_dbm) / scn.p_tx_step_db + 1e-9)
        grid = [scn.p_tx_min_dbm + i * scn.p_tx_step_db for i in range(n_steps + 1)]
        # a step that does not divide the range ends on the maximum itself
        grid = [p for p in grid if p < scn.p_tx_max_dbm - 1e-9] + [scn.p_tx_max_dbm]
        for p in grid:
            pt = throughput.rate_components(rate_scn, p)
            rows.append({
                "row_type": "point", "sweep_param": param, "sweep_value": value,
                "p_tx_dbm": pt.p_tx_dbm, "gamma": pt.gamma, "mean_pairs": pt.mean_pairs,
                "link_rate_bps": pt.link_rate_bps,
                "area_rate_bps_m2": pt.area_rate_bps_m2, "flags": "",
            })
        opt = throughput.optimize_power(rate_scn, scn.p_tx_min_dbm, scn.p_tx_max_dbm,
                                        tol_db=scn.opt_tol_db)
        pt = throughput.rate_components(rate_scn, opt.p_tx_dbm)
        rows.append({
            "row_type": "optimum", "sweep_param": param, "sweep_value": value,
            "p_tx_dbm": opt.p_tx_dbm, "gamma": pt.gamma, "mean_pairs": pt.mean_pairs,
            "link_rate_bps": pt.link_rate_bps,
            "area_rate_bps_m2": opt.area_rate_bps_m2,
            "flags": "flat" if opt.flat else "",
        })
    return rows

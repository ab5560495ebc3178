"""In-process workload driver: one closed-loop client calling ``beamcap.cli.main``.

Run by ``run.py`` with ``src`` on the path; writes its findings as JSON to
``<workdir>/driver.json``.  With ``--trace 0`` it repeats the workload's
pass until ``--seconds`` have passed.  With ``--trace 1`` it alternates
untraced and traced passes (their ratio is the tracing overhead), then runs
the serial, fan-out and companion commands and the hard-core audit that the
per-layer metrics need.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback

import numpy as np
import scipy
from scipy import stats

import workloads as W
from beamcap import cli, scenario, simulator
from tracing import NAME, Tracer, summarize


class Runner:
    """Runs ops through ``cli.main``, checks every output and records each execution."""

    def __init__(self, workdir: str, tracer: Tracer | None = None):
        self.cfg_dir = os.path.join(workdir, "configs")
        os.makedirs(self.cfg_dir, exist_ok=True)
        self.tracer = tracer
        self.records: list[dict] = []
        self.ops: dict[str, W.Op] = {}
        self.digests: dict[str, str] = {}

    def config_path(self, op: W.Op) -> str:
        text = op.config_text()
        path = os.path.join(self.cfg_dir, hashlib.sha256(text.encode()).hexdigest()[:16] + ".cfg")
        if not os.path.exists(path):
            with open(path, "w") as fh:
                fh.write(text)
        return path

    def run(self, op: W.Op, *, jobs: int | None = None, phase: str = "timed",
            traced: bool = False) -> dict:
        argv = op.argv(self.config_path(op), jobs)
        self.ops[op.name] = op
        out, err = io.StringIO(), io.StringIO()
        first_span = len(self.tracer.spans) if self.tracer else 0
        if traced:
            self.tracer.op, self.tracer.phase = op.name, phase
            self.tracer.install()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.tracer.call("cli.main", cli.main, argv) if traced else cli.main(argv)
        except SystemExit as exc:               # argparse rejects the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:                       # an unhandled crash fails this op only
            rc = -1
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - t0
        if traced:
            self.tracer.uninstall()
        stdout = out.getvalue()
        problems = W.check_output(op, stdout) if rc == 0 else [f"exit {rc}: {err.getvalue()[-400:]}"]
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        # every run of one command (any --jobs, traced or not) must print the same bytes
        if self.digests.setdefault(op.name, digest) != digest:
            problems.append("stdout differs from an earlier run of the same command")
        rec = {"op": op.name, "phase": phase, "jobs": op.jobs if jobs is None else jobs,
               "traced": traced, "argv": argv, "seconds": seconds, "rc": rc,
               "sha256": digest, "problems": problems, "stdout": stdout}
        if traced:
            rec["rep_ns"] = sum(s[2] - s[1] for s in self.tracer.spans[first_span:]
                                if s[NAME] == "simulator.run_replication")
        self.records.append(rec)
        return rec

    def run_pass(self, ops, **kw) -> float:
        t0 = time.perf_counter()
        for op in ops:
            self.run(op, **kw)
        return time.perf_counter() - t0


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0          # ru_maxrss is in KiB on Linux


def _rows(rec) -> list[dict]:
    return W.parse_csv(rec["stdout"])


def timed(args, runner: Runner) -> dict:
    """Repeat the workload's pass until --seconds have passed; report best-of-N times.

    The host this was tuned on switches between two CPU speeds about 2x
    apart, each lasting up to a minute, so a median over one run reports
    whichever state the run landed in.  A command's fastest repeat is its
    cost with the least interference (the reasoning of ``timeit``); the
    spread of each metric across seeds is what makes this choice.
    """
    ops = W.pass_ops(args.workload, args.seed)
    runner.run(ops[0], phase="warmup")
    pass_walls = []
    deadline = time.perf_counter() + args.seconds
    while not pass_walls or time.perf_counter() < deadline:
        pass_walls.append(runner.run_pass(ops))
    recs = [r for r in runner.records if r["phase"] == "timed"]
    best = {}
    for r in recs:
        best[r["op"]] = min(best.get(r["op"], math.inf), r["seconds"])
    best_times = sorted(best.values())
    metrics = {
        "wall_s": min(pass_walls),
        "op_p50_ms": statistics.median(best_times) * 1e3,
        "op_tail_ms": _percentile(best_times, 0.9) * 1e3,
    }
    extra = {"passes": len(pass_walls), "pass_walls_s": pass_walls, "commands_per_pass": len(ops),
             "op_best_s": best, "op_p50_pooled_ms": statistics.median(r["seconds"] for r in recs) * 1e3}
    sims = [r for r in recs if r["rc"] == 0 and r["argv"][0] == "simulate"]
    if sims:
        arrivals = {r["op"]: sum(int(row["arrivals_observed"]) for row in _rows(r)) for r in sims}
        extra["arrivals_per_s"] = sum(arrivals.values()) / sum(best[k] for k in arrivals)
    return {"metrics": metrics, "extra": extra}


def _percentile(sorted_values, q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def run_checks(runner: Runner) -> tuple[dict, list[str]]:
    """Poisson and Little's-law checks pooled over every distinct simulate command.

    One command's four replications cannot bound Little's law tightly
    without false alarms (its CI half-widths rest on three degrees of
    freedom); pooled over a run they can, and a small systematic bias, such
    as an arrival over-count, adds up across commands instead of hiding in
    each command's noise.
    """
    first = {}
    for r in runner.records:
        if r["argv"][0] == "simulate" and r["rc"] == 0:
            first.setdefault(r["op"], r)
    if not first:
        return {}, []
    observed = expected = 0.0
    resid = var = var_sq_per_df = 0.0
    for name, r in first.items():
        op, rows = runner.ops[name], _rows(r)
        observed += sum(int(row["arrivals_observed"]) for row in rows)
        expected += W.expected_arrivals(op)
        for d, half_p, half_n, reps in W.little_terms(op, rows):
            t975 = stats.t.ppf(0.975, reps - 1)
            v = (half_p / t975) ** 2 + (half_n / t975) ** 2
            resid += d
            var += v
            var_sq_per_df += v * v / (reps - 1)
    df = var * var / var_sq_per_df                  # Welch-Satterthwaite
    little_z = resid / math.sqrt(var)
    little_limit = stats.t.ppf(1 - 5e-7, df)       # two-sided false-alarm rate 1e-6
    poisson_z = W.poisson_z(observed, expected)
    out = {"commands": len(first), "arrivals_observed": observed, "arrivals_expected": expected,
           "poisson_z": poisson_z, "little_z": little_z, "little_df": df, "little_limit": little_limit}
    failures = []
    if abs(poisson_z) > W.POISSON_Z:
        failures.append(f"run total arrivals_observed is {poisson_z:+.1f} sigma from its Poisson mean")
    if abs(little_z) > little_limit:
        failures.append(f"pooled Little's-law residual is {little_z:+.2f} standard errors "
                        f"(limit {little_limit:.2f} at {df:.0f} df)")
    return out, failures


def _admission_probe(op: W.Op, runner: Runner) -> dict:
    """Hard-core audit on snapshots, then admission_check timings on the same snapshots."""
    scn = scenario.load_scenario(path=runner.config_path(op))
    config = scn.sim_config(seed=op.seed)
    times = [config.warmup + (config.horizon - config.warmup) * (k + 1) / 6 for k in range(6)]
    rep = simulator.run_replication(config, 0, snapshot_times=times)
    thr = config.radio.n_thr_mw
    ratios = [simulator.max_cross_pair_power(s, config.radio, config.antenna) / thr
              for s in rep.snapshots]
    rng = np.random.default_rng(op.seed)
    samples = {True: [], False: []}
    draws = 0
    while draws < 3000 and min(len(v) for v in samples.values()) < 60:
        snap = rep.snapshots[draws % len(rep.snapshots)]
        cand = simulator.place_pair(rng, config.deployment)
        t0 = time.perf_counter_ns()
        ok = simulator.admission_check(cand, snap, config.radio, config.antenna, config.check_mode)
        samples[ok].append(time.perf_counter_ns() - t0)
        draws += 1
    return {
        "snapshots": len(rep.snapshots),
        "snapshot_pairs": [len(s) for s in rep.snapshots],
        "max_cross_power_ratio": max(ratios),
        "audit_passed": len(ratios) == len(times) and max(ratios) < 1.0,
        "accept_us": statistics.median(samples[True]) / 1e3 if samples[True] else math.nan,
        "reject_us": statistics.median(samples[False]) / 1e3 if samples[False] else math.nan,
        "accept_samples": len(samples[True]), "reject_samples": len(samples[False]),
    }


def traced(args, runner: Runner) -> dict:
    tracer = runner.tracer
    ops0 = W.pass_ops(args.workload, args.seed)
    companions = W.companion_ops(args.workload, args.seed)
    runner.run_pass(ops0, phase="warmup")
    untraced_walls, traced_walls = [], []
    deadline = time.perf_counter() + args.seconds / 2
    while not traced_walls or (time.perf_counter() < deadline and len(traced_walls) < 3):
        untraced_walls.append(runner.run_pass(ops0, phase="untraced"))
        traced_walls.append(runner.run_pass(ops0, phase="workload", traced=True))
    rounds = len(traced_walls)

    # serial simulator runs feed simulator.* and, against the same ops at --jobs 2, fanout.*
    if args.workload == "sim-dense":
        serial_ops = ops0
    else:
        serial_ops = [op for op in companions if op.command == "simulate"]
    jobs = W.DENSE_JOBS
    for op in serial_ops:
        runner.run(op, jobs=1, phase="serial", traced=True)
        if args.workload != "sim-dense":
            runner.run(op, jobs=jobs, phase="fanout")
    for op in companions:
        if op.command != "simulate":
            runner.run(op, phase="companion", traced=True)
    probe = _admission_probe(serial_ops[0], runner)

    spans = tracer.spans
    work = summarize(spans, "workload")
    work_commands = sum(1 for r in runner.records if r["phase"] == "workload")

    def source(name):
        """Workload spans when the workload calls name, else the companion commands'."""
        rec = work["by_name"].get(name)
        if rec:
            return rec, rounds, "workload"
        return summarize(spans, "companion")["by_name"].get(name), 1, "companion"

    metrics, sources = {}, {}

    def per_call(key, name, field, scale):
        rec, _, src = source(name)
        metrics[key] = rec[field] / rec["calls"] / scale if rec else math.nan
        sources[key] = src

    def count(key, name, field="calls"):
        rec, div, src = source(name)
        metrics[key] = rec[field] / div if rec else math.nan
        sources[key] = src

    per_call("scenario.build_us", "scenario.build_scenario", "total_ns", 1e3)
    count("scenario.build_calls", "scenario.build_scenario")
    per_call("queueing.steady_state_ms", "queueing.steady_state", "total_ns", 1e6)
    count("queueing.states", "queueing.steady_state", "states")
    rec, _, src = source("queueing.steady_state")
    metrics["queueing.ns_per_state"] = rec["total_ns"] / rec["states"] if rec else math.nan
    sources["queueing.ns_per_state"] = src
    per_call("queueing.closed_form_us", "queueing.mean_pairs_closed_form", "total_ns", 1e3)
    per_call("throughput.rate_components_us", "throughput.rate_components", "self_ns", 1e3)
    count("throughput.rate_components_calls", "throughput.rate_components")
    per_call("throughput.optimize_power_ms", "throughput.optimize_power", "total_ns", 1e6)

    serial = summarize(spans, "serial")["by_name"]
    arrivals = serial["simulator.place_pair"]["calls"]
    loop = serial["simulator.run_replication"]
    metrics["simulator.place_pair_us"] = serial["simulator.place_pair"]["total_ns"] / arrivals / 1e3
    metrics["simulator.arrivals"] = arrivals
    metrics["simulator.loop_self_us"] = loop["self_ns"] / arrivals / 1e3
    metrics["simulator.us_per_arrival"] = loop["total_ns"] / arrivals / 1e3
    serial_recs = [r for r in runner.records if r["phase"] == "serial"]
    rows = [row for r in serial_recs for row in _rows(r)]
    observed = sum(int(row["arrivals_observed"]) for row in rows)
    metrics["simulator.mean_active_pairs"] = statistics.fmean(float(row["mean_pairs"]) for row in rows)
    metrics["simulator.accept_ratio"] = sum(
        float(row["p_accept"]) * int(row["arrivals_observed"]) for row in rows) / observed
    metrics["simulator.admission_check_us.accept"] = probe["accept_us"]
    metrics["simulator.admission_check_us.reject"] = probe["reject_us"]

    # fan-out: serial replication time against --jobs wall time of the same commands
    fan_phase = "untraced" if args.workload == "sim-dense" else "fanout"
    fan_walls = {}
    for r in runner.records:
        if r["phase"] == fan_phase and r["op"] in {op.name for op in serial_ops}:
            fan_walls.setdefault(r["op"], []).append(r["seconds"])
    serial_s = {r["op"]: r["rep_ns"] / 1e9 for r in serial_recs}
    wall_sum = sum(statistics.median(v) for v in fan_walls.values())
    metrics["fanout.efficiency"] = sum(serial_s.values()) / (jobs * wall_sum)
    metrics["fanout.overhead_s"] = statistics.fmean(
        statistics.median(fan_walls[k]) - serial_s[k] / jobs for k in fan_walls)
    sources.update({k: "serial" for k in metrics if k.startswith(("simulator.", "fanout."))})

    metrics["cli.self_ms"] = work["by_layer"]["cli"] / work_commands / 1e6
    metrics["trace.overhead_frac"] = statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0
    sources["cli.self_ms"] = sources["trace.overhead_frac"] = "workload"

    pass_ns = sum(work["by_layer"].values())
    layers = {layer: {"self_ms_per_pass": ns / rounds / 1e6, "share": ns / pass_ns if pass_ns else 0.0}
              for layer, ns in work["by_layer"].items()}
    calls = {name: {k: v / rounds for k, v in rec.items()} for name, rec in work["by_name"].items()}
    with open(os.path.join(args.workdir, "spans.json"), "w") as fh:
        json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op", "phase", "states"],
                   "spans": spans}, fh)
    failures = []
    if not probe["audit_passed"]:
        failures.append(f"hard-core audit failed: max cross-pair power {probe['max_cross_power_ratio']:.3g} "
                        f"x threshold over {probe['snapshots']} snapshots")
    return {"metrics": metrics, "extra": {
        "sources": sources, "rounds": rounds, "untraced_walls_s": untraced_walls,
        "traced_walls_s": traced_walls, "workload_layers": layers, "workload_calls_per_pass": calls,
        "admission_probe": probe, "spans": len(spans)}, "failures": failures}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=W.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    args = p.parse_args()
    runner = Runner(args.workdir, Tracer() if args.trace else None)
    result = (traced if args.trace else timed)(args, runner)
    failures = result.pop("failures", [])
    result["extra"]["run_checks"], run_failures = run_checks(runner)
    failures.extend(run_failures)
    for r in runner.records:
        failures.extend(f"{r['op']} ({r['phase']}, --jobs {r['jobs']}): {p}" for p in r["problems"])
    failed_ops = sum(1 for r in runner.records if r["problems"])
    result.update({
        "attempted": len(runner.records),
        "failed": failed_ops,
        "failures": failures,
        "peak_rss_mb": _peak_rss_mb(),
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "configs": sorted({runner.config_path(op) for op in W.pass_ops(args.workload, args.seed)}),
        "commands": [{k: r[k] for k in ("op", "phase", "jobs", "argv", "seconds", "rc", "sha256")}
                     for r in runner.records],
    })
    with open(os.path.join(args.workdir, "driver.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())

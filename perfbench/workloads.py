"""Seeded workload designs and the output checks that decide each command's verdict.

A workload under seed ``s`` is a fixed list of CLI commands (one *pass*),
drawn from a generator seeded with ``(w, s)``, so one seed always yields the
same commands.  Passes are stratified designs: every seed covers the same
factor levels and one draw from each stratum of each continuous factor, so
seeds cost about the same.

Stdlib only: the driver imports this next to beamcap, the orchestrator
without it.
"""

from __future__ import annotations

import csv
import io
import math
import random
from dataclasses import dataclass

WORKLOADS = ("analytic", "sim-dense")

THETAS = ("8", "15", "30", "52")
VARIANTS = ("piecewise-linear", "logistic", "exponential")
PAIR_MODELS = ("uniform:5", "cuboid:0.3x0.5x0.6")

# desk-fig4 geometry: ~53 active pairs, accept-heavy; the companion simulation
# in the analytic workload's traced run
SPARSE_CONFIG = {
    "r_d_m": "300", "lambda_per_m2": "3.33e-4", "theta_deg": "52",
    "pair_model": "cuboid:0.3x0.5x0.6", "replications": "4",
    "warmup_s": "4", "horizon_s": "8",
}
# desk-fig5 geometry at 0.02 /s/m2: ~200 active pairs, reject-heavy
DENSE_CONFIG = {
    "r_d_m": "300", "lambda_per_m2": "0.02", "theta_deg": "30",
    "pair_model": "uniform:5", "replications": "2",
    "warmup_s": "5", "horizon_s": "6",
}
DENSE_JOBS = 2


@dataclass(frozen=True)
class Op:
    """One CLI command: ``beamcap <command> --config <file> --seed <seed> --jobs <jobs>``."""

    name: str
    command: str
    config: tuple[tuple[str, str], ...]
    seed: int
    jobs: int = 1

    @property
    def kv(self) -> dict[str, str]:
        return dict(self.config)

    def config_text(self) -> str:
        return "".join(f"{k} = {v}\n" for k, v in self.config)

    def argv(self, config_path: str, jobs: int | None = None) -> list[str]:
        return [self.command, "--config", config_path, "--seed", str(self.seed),
                "--jobs", str(self.jobs if jobs is None else jobs)]


def _rng(workload: str, seed: int, stream: str) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}:{stream}")


def _strata(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """One jittered draw from each of n equal strata of [lo, hi], shuffled."""
    width = (hi - lo) / n
    vals = [float(f"{lo + (k + rng.random()) * width:.6g}") for k in range(n)]
    rng.shuffle(vals)
    return vals


def _op(name, command, kv, seed, jobs=1) -> Op:
    return Op(name, command, tuple(kv.items()), seed, jobs)


def pass_ops(workload: str, seed: int) -> list[Op]:
    """The commands of one pass of a workload."""
    rng = _rng(workload, seed, "pass")
    if workload == "analytic":
        # full factorial theta x variant x pair model, two strata of lambda each
        cells = [(t, v, p) for t in THETAS for v in VARIANTS for p in PAIR_MODELS]
        lams = _strata(rng, 2 * len(cells), 0.2, 2.0)
        ops = []
        for i, (t, v, p) in enumerate(cells):
            kv = {"r_d_m": "3000", "theta_deg": t, "variant": v, "pair_model": p,
                  "sweep_param": "lambda_per_m2",
                  "sweep_values": f"{lams[2 * i]!r},{lams[2 * i + 1]!r}"}
            ops.append(_op(f"analyze-{i:02d}", "analyze", kv, rng.randrange(1, 2 ** 31)))
    elif workload == "sim-dense":
        ops = [_op(f"simulate-{i}", "simulate", DENSE_CONFIG, rng.randrange(1, 2 ** 31), DENSE_JOBS)
               for i in range(2)]
    else:
        raise ValueError(f"unknown workload {workload!r} (have {', '.join(WORKLOADS)})")
    return ops


def companion_ops(workload: str, seed: int) -> list[Op]:
    """Small commands that reach the layers a workload's own commands never call.

    Only the traced run executes them, so each per-layer metric is measured
    on every workload; the timed run never does.
    """
    rng = _rng(workload, seed, "companion")
    if workload == "sim-dense":
        return [_op("companion-analyze", "analyze", DENSE_CONFIG, rng.randrange(1, 2 ** 31)),
                _op("companion-sweep", "sweep-power", DENSE_CONFIG, rng.randrange(1, 2 ** 31))]
    first = pass_ops(workload, seed)[0]
    return [_op("companion-sim", "simulate", SPARSE_CONFIG, rng.randrange(1, 2 ** 31)),
            _op("companion-sweep", "sweep-power", first.kv, first.seed)]


# ---------------------------------------------------------------- checks

def parse_csv(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def _area(kv) -> float:
    return math.pi * float(kv.get("r_d_m", "3000")) ** 2


def _sweep(kv) -> list[float]:
    if kv.get("sweep_param"):
        return [float(v) for v in kv["sweep_values"].split(",")]
    return [float(kv.get("lambda_per_m2", "1.0"))]


def _lambdas(kv) -> list[float]:
    """Arrival-rate density per output row (all sweeps here are over lambda)."""
    if kv.get("sweep_param") and kv["sweep_param"] != "lambda_per_m2":
        raise ValueError("benchmark configs sweep lambda_per_m2 only")
    return _sweep(kv)


def check_analyze(op: Op, rows) -> list[str]:
    kv = op.kv
    problems = []
    lams = _lambdas(kv)
    if len(rows) != len(lams):
        return [f"expected {len(lams)} rows, got {len(rows)}"]
    mu = float(kv.get("mu_per_s", "1.0"))
    for lam, row in zip(lams, rows):
        series = float(row["mean_pairs_series"])
        closed = float(row["mean_pairs_closed"])
        p_acc = float(row["p_accept"])
        tail = float(row["tail_bound"])
        if not all(math.isfinite(x) for x in (series, closed, p_acc, tail)):
            problems.append(f"lambda={lam}: non-finite value")
            continue
        # Little's law for the chain: admitted rate equals departure rate
        lhs = lam * _area(kv) * p_acc
        if abs(lhs - mu * series) > 1e-8 * mu * series:
            problems.append(f"lambda={lam}: Little's law off by {abs(lhs / (mu * series) - 1):.3g}")
        if tail > 1e-9:
            problems.append(f"lambda={lam}: tail_bound {tail} > 1e-9")
        # the Lambert-W form is derived for the exponential shape, in the dense regime
        if kv.get("variant", "exponential") == "exponential" and series >= 100 \
                and abs(closed - series) > 0.05 * series:
            problems.append(f"lambda={lam}: closed form {closed} not within 5% of series {series}")
    return problems


def check_sweep_power(op: Op, rows) -> list[str]:
    kv = op.kv
    problems = []
    groups: dict[str, dict[str, list]] = {}
    for row in rows:
        g = groups.setdefault(row["sweep_value"], {"point": [], "optimum": []})
        g[row["row_type"]].append(float(row["area_rate_bps_m2"]))
    expected = [repr(v) for v in _sweep(kv)] if kv.get("sweep_param") else [""]
    if sorted(groups) != sorted(expected):
        return [f"sweep values {sorted(groups)} != {sorted(expected)}"]
    for value, g in groups.items():
        if len(g["optimum"]) != 1 or not g["point"]:
            problems.append(f"sweep value {value}: {len(g['optimum'])} optimum rows, "
                            f"{len(g['point'])} point rows")
            continue
        best_point = max(g["point"])
        opt = g["optimum"][0]
        if not (math.isfinite(opt) and opt >= best_point * (1.0 - 1e-9)):
            problems.append(f"sweep value {value}: optimum {opt} below best grid point {best_point}")
    return problems


def expected_arrivals(op: Op) -> float:
    """Mean post-warm-up arrival count of one simulate command (Poisson)."""
    kv = op.kv
    window = float(kv["horizon_s"]) - float(kv["warmup_s"])
    return sum(lam * _area(kv) * window * int(kv["replications"]) for lam in _lambdas(kv))


POISSON_Z = 5.0


def check_simulate(op: Op, rows) -> list[str]:
    kv = op.kv
    problems = []
    if len(rows) != len(_lambdas(kv)):
        return [f"expected {len(_lambdas(kv))} rows, got {len(rows)}"]
    for row in rows:
        if "undefined" in row["flags"].split(";"):
            problems.append(f"sweep value {row['sweep_value']!r}: undefined flag")
        if int(row["seed"]) != op.seed or int(row["replications"]) != int(kv["replications"]):
            problems.append(f"sweep value {row['sweep_value']!r}: seed or replications not echoed")
    observed = sum(int(row["arrivals_observed"]) for row in rows)
    z = poisson_z(observed, expected_arrivals(op))
    if abs(z) > POISSON_Z:
        problems.append(f"arrivals_observed {observed} is {z:+.1f} sigma from its Poisson mean")
    return problems


def little_terms(op: Op, rows) -> list[tuple[float, float, float, int]]:
    """Per output row: Little's-law residual lambda_total*p_accept - mu*mean_pairs [1/s],
    the sum of the two printed 95% half-widths carried to the same unit, and the
    replication count they were computed from.
    """
    kv = op.kv
    mu = float(kv.get("mu_per_s", "1.0"))
    terms = []
    for lam, row in zip(_lambdas(kv), rows):
        lam_total = lam * _area(kv)
        resid = lam_total * float(row["p_accept"]) - mu * float(row["mean_pairs"])
        terms.append((resid, lam_total * float(row["ci_p_accept"]), mu * float(row["ci_mean_pairs"]),
                      int(row["replications"])))
    return terms


def poisson_z(observed: int, mean: float) -> float:
    return (observed - mean) / math.sqrt(mean)


CHECKS = {"analyze": check_analyze, "sweep-power": check_sweep_power, "simulate": check_simulate}


def check_output(op: Op, stdout: str) -> list[str]:
    try:
        return CHECKS[op.command](op, parse_csv(stdout))
    except (KeyError, ValueError) as exc:
        return [f"malformed output: {exc!r}"]

"""Declarative experiment scenarios: key-value configs and bundled presets.

Config files are plain text, one ``key = value`` per line with ``#``
comments.  Angles are configured in degrees and powers in dBm; values are
converted to the internal units (radians, linear milliwatts) on load.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .queueing import Variant
from .radio import AntennaModel, RadioParams
from .simulator import (CheckMode, CuboidProjection, DeploymentParams, FixedDistance,
                        PairModel, SimConfig, TruncatedDistribution)
from .throughput import MeanEngine, NoiseMode, RateModel, RateScenario


class ScenarioError(ValueError):
    """Configuration problem; message names the offending key or line."""


DEFAULTS: dict[str, str] = {
    "p_tx_dbm": "10",
    "n_thr_dbm": "-78",
    "theta_deg": "52",
    "kappa": "2",
    "c_const": "6.3e6",
    "bandwidth_hz": "2.16e9",
    "snr_max_db": "20",
    "r_d_m": "3000",
    "lambda_per_m2": "1.0",
    "mu_per_s": "1.0",
    "pair_model": "cuboid:0.3x0.5x0.6",
    "antenna": "analytic",
    "check_mode": "two-way",
    "variant": "exponential",
    "k_neighbors": "6",
    "noise_mode": "threshold-k",
    "mean_engine": "closed",
    "seed": "1",
    "replications": "20",
    "warmup_s": "20",
    "horizon_s": "120",
    "p_tx_min_dbm": "-20",
    "p_tx_max_dbm": "20",
    "p_tx_step_db": "0.5",
    "opt_tol_db": "0.1",
    "sweep_param": "",
    "sweep_values": "",
}

# paper-* presets use the full-scale 3 km deployment; desk-*
# variants shrink the region so cross-validation runs in minutes
PRESETS: dict[str, dict[str, str]] = {
    "paper-fig4": {
        "sweep_param": "lambda_per_m2",
        "sweep_values": "0.2,0.4,0.6,0.8,1.0,1.2,1.4,1.6,1.8,2.0",
    },
    "paper-fig5": {
        "theta_deg": "30",
        "pair_model": "uniform:5",
        "sweep_param": "lambda_per_m2",
        "sweep_values": "0.5,2.0",
    },
    "paper-fig6": {
        "lambda_per_m2": "2.0",
        "pair_model": "uniform:5",
        "sweep_param": "theta_deg",
        "sweep_values": "8,15,30,52",
    },
    "desk-fig4": {
        "r_d_m": "300",
        "lambda_per_m2": "3.33e-4",
        "warmup_s": "20",
        "horizon_s": "90",
        "replications": "20",
    },
    "desk-fig5": {
        "r_d_m": "300",
        "theta_deg": "30",
        "pair_model": "uniform:5",
        "lambda_per_m2": "0.02",
        "warmup_s": "10",
        "horizon_s": "60",
        "replications": "10",
        "sweep_param": "lambda_per_m2",
        "sweep_values": "0.005,0.02",
    },
}

SWEEPABLE_KEYS = frozenset({
    "p_tx_dbm", "n_thr_dbm", "theta_deg", "kappa", "c_const", "bandwidth_hz",
    "snr_max_db", "r_d_m", "lambda_per_m2", "mu_per_s", "k_neighbors",
})


@dataclass(frozen=True, eq=False)
class Scenario:
    """Validated experiment description binding all module parameter sets."""

    radio: RadioParams
    deployment: DeploymentParams
    antenna: AntennaModel
    rate_model: RateModel
    variant: Variant
    check_mode: CheckMode
    mean_engine: MeanEngine
    seed: int
    replications: int
    warmup_s: float
    horizon_s: float
    p_tx_min_dbm: float
    p_tx_max_dbm: float
    p_tx_step_db: float
    opt_tol_db: float
    sweep: tuple[str, tuple[float, ...]] | None
    raw: dict[str, str]

    def sim_config(self, seed: int | None = None) -> SimConfig:
        return SimConfig(
            deployment=self.deployment, radio=self.radio, antenna=self.antenna,
            check_mode=self.check_mode, warmup=self.warmup_s, horizon=self.horizon_s,
            replications=self.replications, seed=self.seed if seed is None else seed,
        )

    def rate_scenario(self, measured_noise_mw: float | None = None) -> RateScenario:
        return RateScenario(
            radio=self.radio, antenna=self.antenna, deployment=self.deployment,
            rate_model=self.rate_model, variant=self.variant, mean_engine=self.mean_engine,
            measured_noise_mw=measured_noise_mw,
        )

    def with_value(self, key: str, value) -> "Scenario":
        """Rebuild with one key overridden; used to apply sweep points."""
        kv = dict(self.raw)
        kv[key] = repr(value) if isinstance(value, float) else str(value)
        return build_scenario(kv)


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Parse ``key = value`` lines; unknown keys are rejected by line number."""
    kv: dict[str, str] = {}
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError(f"{source}:{lineno}: expected 'key = value', got {rawline!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in DEFAULTS:
            raise ScenarioError(f"{source}:{lineno}: unknown key {key!r}")
        kv[key] = value
    return kv


def _parse_float(kv: dict[str, str], key: str) -> float:
    try:
        v = float(kv[key])
    except ValueError:
        raise ScenarioError(f"{key}: not a number: {kv[key]!r}") from None
    if not math.isfinite(v):
        raise ScenarioError(f"{key}: must be finite, got {kv[key]!r}")
    return v


def _parse_positive(kv: dict[str, str], key: str) -> float:
    v = _parse_float(kv, key)
    if v <= 0:
        raise ScenarioError(f"{key}: must be positive, got {v}")
    return v


def _parse_int(kv: dict[str, str], key: str) -> int:
    try:
        return int(kv[key])
    except ValueError:
        raise ScenarioError(f"{key}: not an integer: {kv[key]!r}") from None


def _parse_pair_model(spec: str) -> PairModel:
    kind, _, arg = spec.partition(":")
    try:
        if kind == "fixed":
            return FixedDistance(float(arg))
        if kind == "uniform":
            return TruncatedDistribution.uniform(float(arg))
        if kind == "cuboid":
            dx, dy, dz = (float(p) for p in arg.split("x"))
            return CuboidProjection(dx, dy, dz)
    except (ValueError, ScenarioError) as exc:
        raise ScenarioError(f"pair_model: {exc}") from None
    raise ScenarioError(
        f"pair_model: expected fixed:<d>, uniform:<d_max>, or cuboid:<dx>x<dy>x<dz>, got {spec!r}"
    )


def _parse_enum(kv: dict[str, str], key: str, enum_cls):
    try:
        return enum_cls(kv[key])
    except ValueError:
        choices = ", ".join(e.value for e in enum_cls)
        raise ScenarioError(f"{key}: expected one of {choices}, got {kv[key]!r}") from None


def build_scenario(kv: dict[str, str]) -> Scenario:
    """Validate a key-value mapping (defaults applied) into a Scenario."""
    merged = dict(DEFAULTS)
    merged.update(kv)

    theta_deg = _parse_float(merged, "theta_deg")
    if not 0.0 < theta_deg <= 180.0:
        raise ScenarioError(f"theta_deg: must be in (0, 180], got {theta_deg}")
    kappa = _parse_positive(merged, "kappa")
    c_const = _parse_positive(merged, "c_const")
    bandwidth = _parse_positive(merged, "bandwidth_hz")
    p_tx = _parse_float(merged, "p_tx_dbm")
    n_thr = _parse_float(merged, "n_thr_dbm")
    if p_tx <= n_thr:
        raise ScenarioError(f"p_tx_dbm: must exceed n_thr_dbm, got {p_tx} <= {n_thr}")
    snr_max = _parse_float(merged, "snr_max_db")
    radio = RadioParams(p_tx, n_thr, math.radians(theta_deg), kappa, c_const,
                        bandwidth, snr_max)

    r_d = _parse_positive(merged, "r_d_m")
    lam = _parse_float(merged, "lambda_per_m2")
    if lam < 0:
        raise ScenarioError(f"lambda_per_m2: must be >= 0, got {lam}")
    mu = _parse_positive(merged, "mu_per_s")
    deployment = DeploymentParams(r_d, lam, mu, _parse_pair_model(merged["pair_model"]))

    antenna_spec = merged["antenna"]
    if antenna_spec == "analytic":
        antenna = AntennaModel.analytic()
    elif antenna_spec.startswith("table:"):
        try:
            antenna = AntennaModel.from_pattern_file(antenna_spec[len("table:"):])
        except (OSError, ValueError) as exc:
            raise ScenarioError(f"antenna: {exc}") from None
    else:
        raise ScenarioError(f"antenna: expected 'analytic' or 'table:<path>', got {antenna_spec!r}")

    k = _parse_int(merged, "k_neighbors")
    if k < 1:
        raise ScenarioError(f"k_neighbors: must be >= 1, got {k}")
    rate_model = RateModel(k, _parse_enum(merged, "noise_mode", NoiseMode))

    variant = _parse_enum(merged, "variant", Variant)
    check_mode = _parse_enum(merged, "check_mode", CheckMode)
    mean_engine = _parse_enum(merged, "mean_engine", MeanEngine)

    seed = _parse_int(merged, "seed")
    if seed < 0:
        raise ScenarioError(f"seed: must be >= 0, got {seed}")
    replications = _parse_int(merged, "replications")
    if replications < 1:
        raise ScenarioError(f"replications: must be >= 1, got {replications}")
    warmup = _parse_float(merged, "warmup_s")
    horizon = _parse_float(merged, "horizon_s")
    if not horizon > warmup > 0:
        raise ScenarioError(f"horizon_s: need horizon_s > warmup_s > 0, got {horizon} vs {warmup}")

    p_min = _parse_float(merged, "p_tx_min_dbm")
    p_max = _parse_float(merged, "p_tx_max_dbm")
    if p_max < p_min:
        raise ScenarioError(f"p_tx_max_dbm: empty range [{p_min}, {p_max}]")
    p_step = _parse_positive(merged, "p_tx_step_db")
    opt_tol = _parse_positive(merged, "opt_tol_db")

    sweep = None
    if merged["sweep_param"]:
        param = merged["sweep_param"]
        if param not in SWEEPABLE_KEYS:
            raise ScenarioError(
                f"sweep_param: {param!r} is not a sweepable scalar key "
                f"(choose from {', '.join(sorted(SWEEPABLE_KEYS))})"
            )
        if not merged["sweep_values"]:
            raise ScenarioError("sweep_values: required when sweep_param is set")
        try:
            values = tuple(float(v) for v in merged["sweep_values"].split(","))
        except ValueError:
            raise ScenarioError(f"sweep_values: not a number list: {merged['sweep_values']!r}") from None
        if not values or not all(math.isfinite(v) for v in values):
            raise ScenarioError("sweep_values: must be non-empty and finite")
        sweep = (param, values)

    return Scenario(
        radio=radio, deployment=deployment, antenna=antenna, rate_model=rate_model,
        variant=variant, check_mode=check_mode, mean_engine=mean_engine, seed=seed,
        replications=replications, warmup_s=warmup, horizon_s=horizon,
        p_tx_min_dbm=p_min, p_tx_max_dbm=p_max, p_tx_step_db=p_step,
        opt_tol_db=opt_tol, sweep=sweep, raw=merged,
    )


def load_scenario(path=None, preset: str | None = None,
                  overrides: dict[str, str] | None = None) -> Scenario:
    """Assemble a Scenario from an optional preset, config file, and overrides."""
    kv: dict[str, str] = {}
    if preset is not None:
        if preset not in PRESETS:
            raise ScenarioError(f"unknown preset {preset!r} (have {', '.join(sorted(PRESETS))})")
        kv.update(PRESETS[preset])
    if path is not None:
        try:
            text = open(path).read()
        except OSError as exc:
            raise ScenarioError(str(exc)) from None
        kv.update(parse_config_text(text, source=str(path)))
    if overrides:
        kv.update(overrides)
    return build_scenario(kv)


def sweep_points(scenario: Scenario):
    """Yield (sweep_param, value, scenario-at-value); a single point if no sweep."""
    if scenario.sweep is None:
        yield "", "", scenario
        return
    param, values = scenario.sweep
    for v in values:
        yield param, v, scenario.with_value(param, v)


MAX_SIM_ARRIVALS = 1e9


def check_simulation_budget(scenarios) -> None:
    """Refuse up front a simulation expecting more than MAX_SIM_ARRIVALS arrivals."""
    for scn in scenarios:
        arrivals = scn.deployment.lambda_total * scn.horizon_s * scn.replications
        if arrivals > MAX_SIM_ARRIVALS:
            raise ScenarioError(f"lambda_per_m2, horizon_s, replications: {arrivals:.3g} expected "
                                f"arrivals (lambda_per_m2 * disk area * horizon_s * replications) "
                                f"exceed the limit of {MAX_SIM_ARRIVALS:.0e}")

"""Declarative experiment scenarios: key-value configs and bundled presets.

Config files are plain text, one ``key = value`` per line.  A ``#`` at
the start of a line or after whitespace begins a comment; any other ``#``
is part of the value.  Angles are configured in degrees and powers in
dBm; values are converted to the internal units (radians, linear
milliwatts) on load.
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

from .queueing import Variant
from .radio import AntennaModel, RadioParams
from .simulator import (CheckMode, CuboidProjection, DeploymentParams, FixedDistance,
                        PairModel, SimConfig, TruncatedDistribution)
from .throughput import MeanEngine, RateModel, RateScenario


class ScenarioError(ValueError):
    """Configuration problem; message names the offending key or line."""


def _float(text: str) -> float:
    v = float(text)
    if not math.isfinite(v):
        raise ValueError(f"must be finite, got {text!r}")
    return v


def _int(text: str) -> int:
    """An integer; integral floats pass too, so a float sweep value can set k_neighbors."""
    try:
        return int(text)
    except ValueError:
        v = _float(text)
        if not v.is_integer():
            raise ValueError(f"not an integer: {text!r}") from None
        return int(v)


def _choice(enum_cls):
    def parse(text: str):
        try:
            return enum_cls(text)
        except ValueError:
            choices = ", ".join(e.value for e in enum_cls)
            raise ValueError(f"expected one of {choices}, got {text!r}") from None
    return parse


def _pair_model(spec: str) -> PairModel:
    kind, _, arg = spec.partition(":")
    if kind == "fixed":
        return FixedDistance(_float(arg))
    if kind == "uniform":
        return TruncatedDistribution.uniform(_float(arg))
    if kind == "cuboid":
        dx, dy, dz = (_float(p) for p in arg.split("x"))
        return CuboidProjection(dx, dy, dz)
    raise ValueError(f"expected fixed:<d>, uniform:<d_max>, or cuboid:<dx>x<dy>x<dz>, got {spec!r}")


def _antenna(spec: str) -> AntennaModel:
    if spec == "analytic":
        return AntennaModel.analytic()
    if not spec.startswith("table:"):
        raise ValueError(f"expected 'analytic' or 'table:<path>', got {spec!r}")
    return AntennaModel.from_pattern_file(spec[len("table:"):])


def _sweep_values(text: str) -> tuple[float, ...]:
    return tuple(_float(v) for v in text.split(",")) if text else ()


# key -> (default text, parser, sweepable).  Parsers turn text into values
# and raise ValueError (OSError for an unreadable antenna table); range
# checks belong to the dataclass that takes the value, and build_scenario
# names the key in either failure.
KEYS: dict[str, tuple[str, Callable[[str], object], bool]] = {
    "p_tx_dbm": ("10", _float, True),
    "n_thr_dbm": ("-78", _float, True),
    "theta_deg": ("52", _float, True),
    "kappa": ("2", _float, True),
    "c_const": ("6.3e6", _float, True),
    "bandwidth_hz": ("2.16e9", _float, True),
    "snr_max_db": ("20", _float, True),
    "r_d_m": ("3000", _float, True),
    "lambda_per_m2": ("1.0", _float, True),
    "mu_per_s": ("1.0", _float, True),
    "pair_model": ("cuboid:0.3x0.5x0.6", _pair_model, False),
    "antenna": ("analytic", _antenna, False),
    "check_mode": ("two-way", _choice(CheckMode), False),
    "variant": ("exponential", _choice(Variant), False),
    "k_neighbors": ("6", _int, True),
    "mean_engine": ("closed", _choice(MeanEngine), False),
    "seed": ("1", _int, False),
    "replications": ("20", _int, False),
    "warmup_s": ("20", _float, False),
    "horizon_s": ("120", _float, False),
    "p_tx_min_dbm": ("-20", _float, False),
    "p_tx_max_dbm": ("20", _float, False),
    "p_tx_step_db": ("0.5", _float, False),
    "opt_tol_db": ("0.1", _float, False),
    "sweep_param": ("", str, False),
    "sweep_values": ("", _sweep_values, False),
}
DEFAULTS: dict[str, str] = {key: default for key, (default, _, _) in KEYS.items()}
SWEEPABLE_KEYS = frozenset(key for key, (_, _, sweepable) in KEYS.items() if sweepable)

# dataclass field -> config key, where the names differ; every dataclass
# check message starts with its field name
_FIELD_KEYS = {"theta": "theta_deg", "region_radius": "r_d_m", "lambda_density": "lambda_per_m2",
               "mu": "mu_per_s", "horizon": "horizon_s", "warmup": "warmup_s"}

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

    def rate_scenario(self) -> RateScenario:
        return RateScenario(
            radio=self.radio, antenna=self.antenna, deployment=self.deployment,
            rate_model=self.rate_model, variant=self.variant, mean_engine=self.mean_engine,
        )

    def with_value(self, key: str, value) -> "Scenario":
        """Rebuild with one key overridden; used to apply sweep points.

        The parsed antenna is reused unless key is antenna, so a table is
        read once per command, not once per sweep value.
        """
        kv = dict(self.raw)
        kv[key] = repr(value) if isinstance(value, float) else str(value)
        return build_scenario(kv, antenna=None if key == "antenna" else self.antenna)


_COMMENT = re.compile(r"(?:^|\s)#")


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Parse ``key = value`` lines; unknown keys are rejected by line number."""
    kv: dict[str, str] = {}
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = _COMMENT.split(rawline, 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError(f"{source}:{lineno}: expected 'key = value', got {rawline!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in KEYS:
            raise ScenarioError(f"{source}:{lineno}: unknown key {key!r}")
        kv[key] = value
    return kv


def build_scenario(kv: dict[str, str], antenna: AntennaModel | None = None) -> Scenario:
    """Validate a key-value mapping (defaults applied) into a Scenario.

    antenna, if given, is the model already parsed from kv's antenna text.
    """
    merged = dict(DEFAULTS)
    merged.update(kv)
    v = {} if antenna is None else {"antenna": antenna}
    for key, (_, parse, _) in KEYS.items():
        if key in v:
            continue
        try:
            v[key] = parse(merged[key])
        except (OSError, ValueError) as exc:
            raise ScenarioError(f"{key}: {exc}") from None

    for key in ("p_tx_step_db", "opt_tol_db"):
        if v[key] <= 0:
            raise ScenarioError(f"{key}: must be positive, got {v[key]}")
    if v["p_tx_max_dbm"] < v["p_tx_min_dbm"]:
        raise ScenarioError(f"p_tx_max_dbm: empty range [{v['p_tx_min_dbm']}, {v['p_tx_max_dbm']}]")
    sweep = None
    param = v["sweep_param"]
    if param:
        if param not in SWEEPABLE_KEYS:
            raise ScenarioError(
                f"sweep_param: {param!r} is not a sweepable scalar key "
                f"(choose from {', '.join(sorted(SWEEPABLE_KEYS))})"
            )
        if not v["sweep_values"]:
            raise ScenarioError("sweep_values: required when sweep_param is set")
        sweep = (param, v["sweep_values"])

    try:
        scenario = Scenario(
            radio=RadioParams(v["p_tx_dbm"], v["n_thr_dbm"], math.radians(v["theta_deg"]),
                              v["kappa"], v["c_const"], v["bandwidth_hz"], v["snr_max_db"]),
            deployment=DeploymentParams(v["r_d_m"], v["lambda_per_m2"], v["mu_per_s"],
                                        v["pair_model"]),
            antenna=v["antenna"], rate_model=RateModel(v["k_neighbors"]),
            variant=v["variant"], check_mode=v["check_mode"], mean_engine=v["mean_engine"],
            seed=v["seed"], replications=v["replications"], warmup_s=v["warmup_s"],
            horizon_s=v["horizon_s"], p_tx_min_dbm=v["p_tx_min_dbm"],
            p_tx_max_dbm=v["p_tx_max_dbm"], p_tx_step_db=v["p_tx_step_db"],
            opt_tol_db=v["opt_tol_db"], sweep=sweep, raw=merged,
        )
        scenario.sim_config()
    except ValueError as exc:
        field = str(exc).split(" ", 1)[0]
        raise ScenarioError(f"{_FIELD_KEYS.get(field, field)}: {exc}") from None
    model = v["pair_model"]
    if isinstance(model, FixedDistance) and model.distance >= 2.0 * v["r_d_m"]:
        raise ScenarioError(f"pair_model: fixed distance {model.distance:g} m does not fit "
                            f"in a disk of diameter {2.0 * v['r_d_m']:g} m (r_d_m)")
    return scenario


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
            text = Path(path).read_text()
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

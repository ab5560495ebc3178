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
from dataclasses import dataclass, replace
from pathlib import Path

from .queueing import ChainParams, Variant
from .radio import AntennaModel, RadioParams, beam_area, coverage_radius
from .simulator import (CheckMode, CuboidProjection, DeploymentParams, FixedDistance,
                        PairModel, UniformDistance)
from .throughput import MeanEngine


class ScenarioError(ValueError):
    """Configuration problem; message names the offending key or line."""


def _float(text: str) -> float:
    v = float(text)
    if not math.isfinite(v):
        raise ValueError(f"must be finite, got {text!r}")
    return v


def _int(text: str) -> int:
    """A finite integer, kept exact; integral floats pass too, so a float sweep value
    can set k_neighbors."""
    v = _float(text)
    if not v.is_integer():
        raise ValueError(f"not an integer: {text!r}")
    try:
        return int(text)
    except ValueError:
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
        return UniformDistance(_float(arg))
    if kind == "cuboid":
        dx, dy, dz = (_float(p) for p in arg.split("x"))
        return CuboidProjection(dx, dy, dz)
    raise ValueError(f"expected fixed:<d>, uniform:<d_max>, or cuboid:<dx>x<dy>x<dz>, got {spec!r}")


def _antenna(spec: str) -> AntennaModel:
    if spec == "analytic":
        return AntennaModel()
    if not spec.startswith("table:"):
        raise ValueError(f"expected 'analytic' or 'table:<path>', got {spec!r}")
    return AntennaModel.from_pattern_file(spec[len("table:"):])


def pattern_file(scn: Scenario) -> str | None:
    """The path a table antenna was read from; None for the analytic cone."""
    spec = scn.raw["antenna"]
    return spec[len("table:"):] if spec.startswith("table:") else None


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
    "sweep_param": ("", str, False),
    "sweep_values": ("", _sweep_values, False),
}
DEFAULTS: dict[str, str] = {key: default for key, (default, _, _) in KEYS.items()}
SWEEPABLE_KEYS = frozenset(key for key, (_, _, sweepable) in KEYS.items() if sweepable)

# engine field -> the config keys that set it, where they differ; every engine
# check message starts with its field name, or a list of them ("a, b, c ...")
_FIELD_KEYS = {"theta": "theta_deg", "region_radius": "r_d_m", "lambda_density": "lambda_per_m2",
               "mu": "mu_per_s", "horizon": "horizon_s", "warmup": "warmup_s",
               "lambda_total": "lambda_per_m2, r_d_m",
               "gamma": "r_d_m, p_tx_dbm, n_thr_dbm, theta_deg, kappa, c_const"}

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
    """Validated experiment description binding all module parameter sets.

    One object serves both engines: the simulator and the rate layer
    (throughput) read the scenario itself, and the analytic engine takes
    its chain (chain).
    """

    radio: RadioParams
    deployment: DeploymentParams
    antenna: AntennaModel
    k_neighbors: int
    variant: Variant
    check_mode: CheckMode
    mean_engine: MeanEngine
    seed: int
    replications: int
    warmup: float
    horizon: float
    p_tx_min_dbm: float
    p_tx_max_dbm: float
    p_tx_step_db: float
    sweep: tuple[str, tuple[float, ...]] | None
    raw: dict[str, str]

    def __post_init__(self) -> None:
        if self.k_neighbors < 1:
            raise ValueError(f"k_neighbors must be >= 1, got {self.k_neighbors}")
        if self.p_tx_step_db <= 0:
            raise ValueError(f"p_tx_step_db must be positive, got {self.p_tx_step_db}")
        if self.p_tx_max_dbm < self.p_tx_min_dbm:
            raise ValueError(f"p_tx_min_dbm, p_tx_max_dbm must not decrease, got "
                             f"{self.p_tx_min_dbm} > {self.p_tx_max_dbm}")
        if not self.horizon > self.warmup > 0:
            raise ValueError(f"horizon, warmup must satisfy horizon > warmup > 0, got "
                             f"horizon={self.horizon} warmup={self.warmup}")
        if self.replications < 1:
            raise ValueError(f"replications must be >= 1, got {self.replications}")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        try:   # a table's peak may lie far from D0, which RadioParams checks
            reach = self.antenna.reach(self.radio)
        except OverflowError:
            reach = math.inf
        if not 0.0 < reach < math.inf:
            raise ValueError(f"antenna peak gain gives reach {reach} m with this link budget")

    def sim_config(self, seed: int) -> "Scenario":
        """This scenario under another seed; perfbench's admission probe calls it."""
        return self.with_value("seed", seed)

    def chain(self, p_tx_dbm: float) -> ChainParams:
        """Chain at transmit power p_tx_dbm: footprint ratio from the coverage radius.

        A pair's footprint is its two beams, overlap disregarded.  A two-way
        test rejects on two events per active pair: the candidate lies in
        the pair's beams, or the pair in the candidate's; hence the
        exponential Q_n = 1 - exp(-2n*gamma).  A one-way test has only the
        first event, so its chain carries gamma/2 and Q_n = 1 - exp(-n*gamma).
        """
        radio = replace(self.radio, p_tx_dbm=p_tx_dbm)
        footprint = 2.0 * beam_area(coverage_radius(radio), radio.theta, radio.kappa)
        gamma = footprint / self.deployment.area
        if self.check_mode is CheckMode.ONE_WAY:
            gamma *= 0.5
        return ChainParams(self.deployment.lambda_total, self.deployment.mu, gamma, self.variant)

    def with_value(self, key: str, value) -> "Scenario":
        """Rebuild with one key overridden; used to apply sweep points.

        The parsed antenna is reused unless key is antenna, so a table is
        read once per command, not once per sweep value.
        """
        kv = dict(self.raw)
        kv[key] = str(value)
        return build_scenario(kv, antenna=None if key == "antenna" else self.antenna)


_COMMENT = re.compile(r"(?:^|\s)#")


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Parse ``key = value`` lines; unknown and repeated keys are rejected by line number."""
    kv: dict[str, str] = {}
    first_line: dict[str, int] = {}
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
        if key in first_line:
            raise ScenarioError(f"{source}:{lineno}: duplicate key {key!r} "
                                f"(first set on line {first_line[key]})")
        first_line[key] = lineno
        kv[key] = value
    return kv


def build_scenario(kv: dict[str, str], antenna: AntennaModel | None = None) -> Scenario:
    """Validate a key-value mapping (defaults applied) into a Scenario.

    antenna, if given, is the model already parsed from kv's antenna text.
    """
    if unknown := kv.keys() - KEYS.keys():
        raise ScenarioError(f"{', '.join(sorted(unknown))}: unknown key")
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
            antenna=v["antenna"], k_neighbors=v["k_neighbors"],
            variant=v["variant"], check_mode=v["check_mode"], mean_engine=v["mean_engine"],
            seed=v["seed"], replications=v["replications"], warmup=v["warmup_s"],
            horizon=v["horizon_s"], p_tx_min_dbm=v["p_tx_min_dbm"],
            p_tx_max_dbm=v["p_tx_max_dbm"], p_tx_step_db=v["p_tx_step_db"], sweep=sweep,
            raw=merged,
        )
    except ValueError as exc:
        raise ScenarioError(refusal(exc)) from None
    model = v["pair_model"]
    if isinstance(model, FixedDistance) and model.distance >= 2.0 * v["r_d_m"]:
        raise ScenarioError(f"pair_model, r_d_m: fixed distance {model.distance:g} m does not "
                            f"fit in a disk of diameter {2.0 * v['r_d_m']:g} m")
    return scenario


def field_keys(exc: Exception, power: str = "p_tx_dbm") -> list[str]:
    """The keys, each once, that set an engine check's leading fields; p_tx_dbm reads as power."""
    fields = re.match(r"\w*(?:, \w+)*", str(exc)).group().split(", ")
    keys = ", ".join(_FIELD_KEYS.get(f, f) for f in fields).split(", ")
    return list(dict.fromkeys(power if k == "p_tx_dbm" else k for k in keys))


def refusal(exc: Exception) -> str:
    """A refusal's text led by its keys: a ScenarioError's own, or field_keys' for an engine check."""
    if isinstance(exc, ScenarioError):
        return str(exc)
    return f"{', '.join(field_keys(exc))}: {exc}"


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
            text = Path(path).read_text(encoding="utf-8-sig")   # a BOM is not part of a key
        except OSError as exc:
            raise ScenarioError(f"--config: {exc}") from None
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
MAX_SIM_REPLICATIONS = 10**6   # about 25 us and 430 B each, even with no arrival


def check_simulation_budget(scenarios) -> None:
    """Refuse up front a simulation expecting more than MAX_SIM_ARRIVALS arrivals
    at one sweep point or summed over its points, or running more than
    MAX_SIM_REPLICATIONS replications at one point."""
    total = 0.0
    for scn in scenarios:
        arrivals = scn.deployment.lambda_total * scn.horizon * scn.replications
        if arrivals > MAX_SIM_ARRIVALS:
            raise ScenarioError(f"lambda_per_m2, r_d_m, horizon_s, replications: {arrivals:.3g} "
                                f"expected arrivals (lambda_per_m2 * disk area * horizon_s * "
                                f"replications) exceed the limit of {MAX_SIM_ARRIVALS:.0e}")
        if scn.replications > MAX_SIM_REPLICATIONS:
            raise ScenarioError(f"replications: {scn.replications:.3g} replications exceed the "
                                f"limit of {MAX_SIM_REPLICATIONS:.0e}")
        total += arrivals
    if total > MAX_SIM_ARRIVALS:
        raise ScenarioError(f"lambda_per_m2, r_d_m, horizon_s, replications, sweep_values: "
                            f"{total:.3g} expected arrivals summed over the sweep values "
                            f"exceed the limit of {MAX_SIM_ARRIVALS:.0e}")

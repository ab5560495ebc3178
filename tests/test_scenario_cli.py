import csv
import dataclasses
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import textwrap
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import beamcap
from beamcap import (ChainParams, CheckMode, MeanEngine, NonConvergenceError, RadioParams,
                     Variant, beam_area, cli, coverage_radius, optimize_power, queueing,
                     rate_components, validation)
from beamcap.cli import main
from beamcap.cli_rows import (analyze_rows, render_csv, render_json, simulate_rows,
                              sweep_power_rows)
from beamcap.scenario import (DEFAULTS, KEYS, MAX_SIM_ARRIVALS, MAX_SIM_REPLICATIONS, PRESETS,
                              ScenarioError, build_scenario, check_simulation_budget, field_keys,
                              load_scenario, parse_config_text, sweep_points)
from beamcap.simulator import (DeploymentParams, FixedDistance, PlacementError, SimStats,
                               place_pair)
from beamcap.throughput import RatePoint, optimizer_grid

# a refusal: one line whose key list names the keys its check compares, each
# once: the message after it does not start with another key list
ERROR_LINE = re.compile(r"beamcap: error: (\w+(?:, \w+)*): (?!\w+(?:, \w+)*: ).+\n")

# one bad value per key: (overrides, keys the error must name); a cross-key
# failure names every key the range check compares
BAD_VALUES = {
    "p_tx_dbm": ({"p_tx_dbm": "-90"}, "p_tx_dbm, n_thr_dbm"),
    "n_thr_dbm": ({"n_thr_dbm": "20"}, "p_tx_dbm, n_thr_dbm"),
    "theta_deg": ({"theta_deg": "0"}, "theta_deg"),
    "kappa": ({"kappa": "-1"}, "kappa"),
    "c_const": ({"c_const": "0"}, "c_const"),
    "bandwidth_hz": ({"bandwidth_hz": "-5"}, "bandwidth_hz"),
    "snr_max_db": ({"snr_max_db": "inf"}, "snr_max_db"),
    "r_d_m": ({"r_d_m": "0"}, "r_d_m"),
    "lambda_per_m2": ({"lambda_per_m2": "-1"}, "lambda_per_m2"),
    "mu_per_s": ({"mu_per_s": "0"}, "mu_per_s"),
    "pair_model": ({"pair_model": "fixed:-1"}, "pair_model"),
    "antenna": ({"antenna": "omni"}, "antenna"),
    "check_mode": ({"check_mode": "three-way"}, "check_mode"),
    "variant": ({"variant": "quadratic"}, "variant"),
    "k_neighbors": ({"k_neighbors": "0"}, "k_neighbors"),
    "mean_engine": ({"mean_engine": "exact"}, "mean_engine"),
    "seed": ({"seed": "-1"}, "seed"),
    "replications": ({"replications": "0"}, "replications"),
    "warmup_s": ({"warmup_s": "200"}, "horizon_s, warmup_s"),
    "horizon_s": ({"horizon_s": "10"}, "horizon_s, warmup_s"),
    "p_tx_min_dbm": ({"p_tx_min_dbm": "30"}, "p_tx_min_dbm, p_tx_max_dbm"),
    "p_tx_max_dbm": ({"p_tx_max_dbm": "-30"}, "p_tx_min_dbm, p_tx_max_dbm"),
    "p_tx_step_db": ({"p_tx_step_db": "0"}, "p_tx_step_db"),
    "sweep_param": ({"sweep_param": "pair_model", "sweep_values": "1"}, "sweep_param"),
    "sweep_values": ({"sweep_param": "kappa", "sweep_values": "1,x"}, "sweep_values"),
}


def strict_json(text: str):
    """Parse text as JSON proper: NaN and Infinity, which json.loads accepts, raise."""
    def reject(name):
        raise ValueError(f"not JSON: {name}")
    return json.loads(text, parse_constant=reject)


def run_python(code: str) -> str:
    """Stdout of code run in a fresh interpreter that imports this beamcap."""
    src = str(Path(beamcap.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True).stdout


def _radio(**kw):
    return RadioParams(**{"p_tx_dbm": 10.0, "n_thr_dbm": -78.0, "theta": 0.9, "kappa": 2.0,
                          "c_const": 6.3e6, **kw})


def _deployment(**kw):
    return DeploymentParams(**{"region_radius": 300.0, "lambda_density": 1.0, "mu": 1.0,
                               "pair_model": FixedDistance(1.0), **kw})


# (owner, a call that fails one of its checks, the keys that check names):
# every range check of the engine parameter objects, the state limit and the
# placement cap; each message leads with fields that field_keys maps to keys
ENGINE_CHECKS = [
    (RadioParams, lambda: _radio(theta=0.0), "theta_deg"),
    (RadioParams, lambda: _radio(kappa=-1.0), "kappa"),
    (RadioParams, lambda: _radio(c_const=0.0), "c_const"),
    (RadioParams, lambda: _radio(p_tx_dbm=-90.0), "p_tx_dbm, n_thr_dbm"),
    (RadioParams, lambda: _radio(bandwidth_hz=-5.0), "bandwidth_hz"),
    (RadioParams, lambda: _radio(snr_max_db=1e6), "snr_max_db"),
    (RadioParams, lambda: _radio(c_const=1e-300), "p_tx_dbm, n_thr_dbm, theta_deg, kappa, c_const"),
    (DeploymentParams, lambda: _deployment(region_radius=0.0), "r_d_m"),
    (DeploymentParams, lambda: _deployment(lambda_density=-1.0), "lambda_per_m2"),
    (DeploymentParams, lambda: _deployment(mu=0.0), "mu_per_s"),
    (DeploymentParams, lambda: _deployment(region_radius=1e-170), "r_d_m"),
    (DeploymentParams, lambda: _deployment(region_radius=1e150, lambda_density=1e300),
     "r_d_m, lambda_per_m2"),
    (DeploymentParams, lambda: _deployment(mu=5e-324), "lambda_per_m2, r_d_m, mu_per_s"),
    (ChainParams, lambda: ChainParams(-1.0, 1.0, 0.1), "lambda_per_m2, r_d_m"),
    (ChainParams, lambda: ChainParams(1.0, 0.0, 0.1), "mu_per_s"),
    (ChainParams, lambda: ChainParams(1e308, 1e-10, 0.1), "lambda_per_m2, r_d_m, mu_per_s"),
    (ChainParams, lambda: ChainParams(1.0, 1.0, math.inf),
     "r_d_m, p_tx_dbm, n_thr_dbm, theta_deg, kappa, c_const"),
    (queueing.check_state_limit, lambda: queueing.check_state_limit(ChainParams(1e8, 1.0, 0.0)),
     "lambda_per_m2, r_d_m, mu_per_s, p_tx_dbm, n_thr_dbm, theta_deg, kappa, c_const"),
    (place_pair, lambda: place_pair(np.random.default_rng(1),
                                    _deployment(region_radius=10.0, pair_model=FixedDistance(50.0))),
     "pair_model, r_d_m"),
]


class TestConfigParsing:
    def test_minimal_file_gets_defaults(self, tmp_path):
        path = tmp_path / "min.cfg"
        path.write_text("# just one override\nlambda_per_m2 = 0.4\n")
        scn = load_scenario(path=path)
        assert scn.deployment.lambda_density == 0.4
        assert scn.radio.p_tx_dbm == 10.0
        assert scn.radio.theta == pytest.approx(math.radians(52.0))
        assert scn.variant is Variant.EXPONENTIAL
        assert scn.check_mode is CheckMode.TWO_WAY

    def test_unknown_key_rejected_with_line(self):
        with pytest.raises(ScenarioError, match=r"<config>:2: unknown key 'lambda'"):
            parse_config_text("mu_per_s = 1\nlambda = 3\n")

    def test_duplicate_key_rejected_with_both_lines(self):
        with pytest.raises(ScenarioError,
                           match=r"^f.cfg:4: duplicate key 'seed' \(first set on line 2\)$"):
            parse_config_text("mu_per_s = 1\nseed = 3\n# again\nseed = 4\n", source="f.cfg")

    def test_duplicate_key_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "dup.cfg"
        cfg.write_text("theta_deg = 30\ntheta_deg = 8\n")
        assert main(["analyze", "--config", str(cfg)]) == 2
        assert f"{cfg}:2: duplicate key 'theta_deg' (first set on line 1)" in capsys.readouterr().err

    def test_preset_and_override_still_override_file_keys(self, tmp_path):
        cfg = tmp_path / "one.cfg"
        cfg.write_text("r_d_m = 250\nseed = 3\n")
        scn = load_scenario(path=cfg, preset="desk-fig4", overrides={"seed": "9"})
        assert (scn.deployment.region_radius, scn.seed) == (250.0, 9)

    def test_bad_syntax_line(self):
        with pytest.raises(ScenarioError, match=":1: expected 'key = value'"):
            parse_config_text("what even is this")

    def test_zero_theta_names_field(self):
        with pytest.raises(ScenarioError, match="theta_deg"):
            build_scenario({"theta_deg": "0"})

    def test_power_below_sensitivity_names_field(self):
        with pytest.raises(ScenarioError, match="p_tx_dbm"):
            build_scenario({"p_tx_dbm": "-80"})

    def test_bad_pair_model(self):
        with pytest.raises(ScenarioError, match="pair_model"):
            build_scenario({"pair_model": "sphere:1"})

    def test_fixed_pair_distance_must_fit_the_disk(self):
        build_scenario({"r_d_m": "2", "pair_model": "fixed:3.99"})
        with pytest.raises(ScenarioError,
                           match="^pair_model, r_d_m: fixed distance 4 m does not fit"):
            build_scenario({"r_d_m": "2", "pair_model": "fixed:4"})

    def test_mean_engine_is_an_enum(self):
        assert build_scenario({"mean_engine": "series"}).mean_engine is MeanEngine.SERIES
        with pytest.raises(ScenarioError, match="mean_engine: expected one of closed, series"):
            build_scenario({"mean_engine": "exact"})

    def test_bad_number(self):
        with pytest.raises(ScenarioError, match="kappa"):
            build_scenario({"kappa": "two"})

    def test_sweep_validation(self):
        with pytest.raises(ScenarioError, match="sweep_param"):
            build_scenario({"sweep_param": "pair_model", "sweep_values": "1,2"})
        with pytest.raises(ScenarioError, match="sweep_values"):
            build_scenario({"sweep_param": "lambda_per_m2"})
        with pytest.raises(ScenarioError, match="sweep_values"):
            build_scenario({"sweep_param": "lambda_per_m2", "sweep_values": "1,oops"})

    def test_unknown_preset(self):
        with pytest.raises(ScenarioError, match="unknown preset"):
            load_scenario(preset="paper-fig9")

    def test_table_antenna_from_config(self, tmp_path):
        pattern = tmp_path / "pattern.csv"
        pattern.write_text("angle_deg,gain_dbi\n0,12.96\n26,9.95\n52,-150\n")
        scn = load_scenario(overrides={"antenna": f"table:{pattern}"})
        assert scn.antenna.angles == (0.0, math.radians(26.0), math.radians(52.0))
        assert scn.antenna.gains_dbi == (12.96, 9.95, -150.0)

    def test_hash_inside_a_value_is_not_a_comment(self, tmp_path):
        pattern_dir = tmp_path / "a#b"
        pattern_dir.mkdir()
        pattern = pattern_dir / "p.csv"
        pattern.write_text("angle_deg,gain_dbi\n0,12.96\n26,9.95\n52,-150\n")
        cfg = tmp_path / "table.cfg"
        cfg.write_text(f"# antenna from a table\nantenna = table:{pattern}  # 3 points\n"
                       "theta_deg = 30 #52\n")
        scn = load_scenario(path=cfg)
        assert scn.antenna.gains_dbi == (12.96, 9.95, -150.0)
        assert scn.raw["antenna"] == f"table:{pattern}"
        assert scn.radio.theta == pytest.approx(math.radians(30.0))

    def test_table_antenna_read_once_per_command(self, monkeypatch, tmp_path, capsys):
        from beamcap import AntennaModel
        calls = []
        read = AntennaModel.from_pattern_file.__func__

        def counting(cls, path):
            calls.append(path)
            return read(cls, path)

        monkeypatch.setattr(AntennaModel, "from_pattern_file", classmethod(counting))
        table = Path(__file__).parent / "golden" / "antenna-peak-21dbi.csv"
        cfg = tmp_path / "table.cfg"
        cfg.write_text(f"antenna = table:{table}\n")
        assert main(["analyze", "--preset", "paper-fig4", "--config", str(cfg)]) == 0
        assert calls == [str(table)]
        capsys.readouterr()

    def test_header_only_pattern_file_exit_code(self, tmp_path, capsys):
        pattern = tmp_path / "empty.csv"
        pattern.write_text("angle_deg,gain_dbi\n")
        cfg = tmp_path / "table.cfg"
        cfg.write_text(f"antenna = table:{pattern}\n")
        assert main(["analyze", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "antenna: pattern table needs matching 1-D angle/gain samples" in err
        assert "Traceback" not in err

    def test_missing_pattern_file_names_key(self):
        with pytest.raises(ScenarioError, match="antenna"):
            build_scenario({"antenna": "table:/does/not/exist.csv"})

    def test_full_scale_fig4_preset_values(self):
        scn = load_scenario(preset="paper-fig4")
        assert scn.radio.p_tx_dbm == 10.0
        assert scn.radio.n_thr_dbm == -78.0
        assert scn.radio.kappa == 2.0
        assert scn.radio.c_const == 6.3e6
        assert scn.deployment.region_radius == 3000.0
        assert scn.radio.theta == pytest.approx(math.radians(52.0))
        assert scn.sweep == ("lambda_per_m2", (0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0))

    def test_every_preset_builds(self):
        for name in PRESETS:
            load_scenario(preset=name)

    def test_defaults_are_a_valid_scenario(self):
        build_scenario(dict(DEFAULTS))

    @pytest.mark.parametrize("key", sorted(KEYS))
    def test_bad_value_names_its_key(self, key):
        overrides, named = BAD_VALUES[key]
        with pytest.raises(ScenarioError) as info:
            build_scenario(overrides)
        assert str(info.value).startswith(f"{named}: ")

    def test_bad_values_cover_every_key(self):
        assert set(BAD_VALUES) == set(KEYS)

    def test_integer_key_takes_integral_sweep_values(self):
        scn = build_scenario({"sweep_param": "k_neighbors", "sweep_values": "4,6"})
        assert [s.k_neighbors for _, _, s in sweep_points(scn)] == [4, 6]
        with pytest.raises(ScenarioError, match="k_neighbors: not an integer"):
            build_scenario({"k_neighbors": "2.5"})

    @pytest.mark.parametrize("key", ["k_neighbors", "seed", "replications"])
    def test_integer_key_past_the_floats_is_refused(self, key):
        # a 401-digit k_neighbors used to overflow in noise_power, and replications
        # in the simulation budget, each with a traceback
        with pytest.raises(ScenarioError, match=f"^{key}: must be finite, got '9{{401}}'$"):
            build_scenario({key: "9" * 401})

    def test_integer_key_stays_exact_past_two_to_the_53(self):
        assert build_scenario({"seed": str(2**53 + 1)}).seed == 2**53 + 1

    def test_unknown_key_is_refused(self):
        # a library caller's misspelt key used to be kept in raw and ignored
        with pytest.raises(ScenarioError, match="^lamda_per_m2: unknown key$"):
            load_scenario(preset="desk-fig4", overrides={"lamda_per_m2": "9"})
        with pytest.raises(ScenarioError, match="^horizon: unknown key$"):
            build_scenario({}).with_value("horizon", 5)

    def test_with_value_takes_a_numpy_float(self):
        scn = build_scenario({}).with_value("kappa", np.float64(2.5))
        assert scn.raw["kappa"] == "2.5" and scn.radio.kappa == 2.5

    @pytest.mark.parametrize("spec", ["fixed:nan", "uniform:inf", "cuboid:0.3xnanx0.6"])
    def test_non_finite_pair_model_rejected(self, spec):
        with pytest.raises(ScenarioError, match="pair_model: must be finite"):
            build_scenario({"pair_model": spec})

    @pytest.mark.parametrize("spec, message", [
        ("uniform:0", "d_max must be positive, got 0.0"),
        ("cuboid:0x0.5x0.6", "cuboid dimensions must be positive"),
    ])
    def test_zero_pair_model_dimension_rejected(self, spec, message):
        with pytest.raises(ScenarioError, match=f"^pair_model: {message}$"):
            build_scenario({"pair_model": spec})

    def test_infinite_arrival_rate_names_its_keys(self):
        # the disk area, 3.1e300 m^2, is finite; times 1e300 /s/m^2 it is not
        with pytest.raises(ScenarioError, match="^r_d_m, lambda_per_m2: region_radius, "
                                                "lambda_density give an infinite arrival rate"):
            build_scenario({"r_d_m": "1e150", "lambda_per_m2": "1e300"})

    @pytest.mark.parametrize("owner, fails, keys", ENGINE_CHECKS,
                             ids=[f"{owner.__name__}-{keys}" for owner, _, keys in ENGINE_CHECKS])
    def test_every_engine_check_leads_with_fields_that_name_keys(self, owner, fails, keys):
        with pytest.raises((ValueError, NonConvergenceError, PlacementError)) as exc:
            fails()
        assert set(field_keys(exc.value)) <= set(KEYS)
        assert ", ".join(field_keys(exc.value)) == keys

    def test_engine_checks_cover_every_raise(self):
        for owner in (RadioParams, DeploymentParams, ChainParams):
            raises = inspect.getsource(owner.__post_init__).count("raise ValueError")
            assert raises == sum(o is owner for o, _, _ in ENGINE_CHECKS), owner.__name__

    def test_missing_config_file_exit_code(self, tmp_path, capsys):
        assert main(["analyze", "--config", str(tmp_path / "absent.cfg")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("beamcap: error: --config: ")
        assert "absent.cfg" in captured.err and len(captured.err.splitlines()) == 1

    def test_readme_table_lists_every_key_with_its_default(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        table = readme.split("| key | default | meaning |\n", 1)[1].split("\n\n", 1)[0]
        listed = {}
        for row in table.splitlines()[1:]:
            key_cell, default_cell = row.split(" | ")[:2]
            keys = re.findall(r"`([^`]+)`", key_cell)
            defaults = ([""] * len(keys) if default_cell == "none"
                        else re.findall(r"`([^`]*)`", default_cell))
            assert len(defaults) == len(keys), row
            listed.update(zip(keys, defaults))
        assert listed == DEFAULTS


class TestScenarioChain:
    """Scenario.chain is the one mapping from a scenario to its birth-death chain."""

    @pytest.mark.parametrize("theta_deg, kappa", [(52.0, 2.0), (30.0, 3.0), (8.0, 4.0)])
    def test_gamma_is_two_beam_areas_over_region(self, theta_deg, kappa):
        # theta and kappa differ in every case, so swapping them moves gamma
        scn = build_scenario({"theta_deg": repr(theta_deg), "kappa": repr(kappa)})
        for p in (-20.0, 10.0, 20.0):
            radio = scn.with_value("p_tx_dbm", p).radio
            footprint = 2.0 * beam_area(coverage_radius(radio), radio.theta, radio.kappa)
            assert scn.chain(p).gamma == footprint / scn.deployment.area

    def test_full_scale_geometry(self):
        scn = build_scenario({})
        chain = scn.chain(10.0)
        assert chain.gamma == pytest.approx(6.36e-5, rel=1e-2)
        assert (chain.lambda_total, chain.mu) == (scn.deployment.lambda_total, 1.0)
        assert chain.variant is Variant.EXPONENTIAL

    def test_footprint_fills_region(self):
        radio = build_scenario({}).radio
        footprint = 2.0 * beam_area(coverage_radius(radio), radio.theta, radio.kappa)
        scn = build_scenario({"r_d_m": repr(math.sqrt(footprint / math.pi))})
        assert scn.chain(radio.p_tx_dbm).gamma == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_one_way_halves_gamma(self, variant):
        two = build_scenario({"variant": variant.value})
        one = build_scenario({"variant": variant.value, "check_mode": "one-way"})
        for p in (-20.0, 0.0, 20.0):
            assert one.chain(p).gamma == 0.5 * two.chain(p).gamma
            assert one.chain(p).variant is variant

    def test_chain_at_power_is_the_chain_of_the_scenario_at_that_power(self):
        scn = load_scenario(preset="paper-fig5", overrides={"sweep_param": ""})
        for p in (-20.0, -3.25, 10.0, 20.0):
            at_p = scn.with_value("p_tx_dbm", p)
            assert scn.chain(p) == at_p.chain(at_p.radio.p_tx_dbm)

    def test_chain_ignores_a_table_antenna(self):
        # gamma comes from the analytic cone's coverage radius whatever the antenna
        # (README, Known limits): analyze prints the same bytes and sweep-power the
        # same gamma and mean, while its link rate follows the table's peak gain
        table = Path(__file__).parent / "golden" / "antenna-peak-21dbi.csv"
        cone = load_scenario(preset="desk-fig4")
        tbl = load_scenario(preset="desk-fig4", overrides={"antenna": f"table:{table}"})
        assert tbl.antenna.angles is not None and cone.antenna.angles is None
        assert render_csv(analyze_rows(tbl)) == render_csv(analyze_rows(cone))
        points = [[r for r in sweep_power_rows(scn) if r["row_type"] == "point"]
                  for scn in (cone, tbl)]
        assert [(r["p_tx_dbm"], r["gamma"], r["mean_pairs"]) for r in points[0]] == \
            [(r["p_tx_dbm"], r["gamma"], r["mean_pairs"]) for r in points[1]]
        # at -20 dBm both link rates lie below the SNR cap, which both reach by 20 dBm
        assert points[0][0]["link_rate_bps"] == pytest.approx(6.61e9, rel=1e-3)
        assert points[1][0]["link_rate_bps"] == pytest.approx(1.205e10, rel=1e-3)

    def test_readme_library_example_runs(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        section = readme.split("## Library example\n", 1)[1]
        code = section.split("```python\n", 1)[1].split("```", 1)[0]
        assert run_python(code) == "54637.94988939513 54638.00497022279\n"


class TestAnalyzeRows:
    def test_negligible_footprint_row_collapses_to_load(self):
        scn = load_scenario(overrides={"p_tx_dbm": "-77.9", "lambda_per_m2": "1e-6",
                                       "r_d_m": "100"})
        row = analyze_rows(scn)[0]
        load = scn.deployment.lambda_total / scn.deployment.mu
        assert row["mean_pairs_series"] == pytest.approx(load, rel=1e-6)
        assert row["mean_pairs_closed"] == pytest.approx(load, rel=1e-6)
        assert row["mean_pairs_series"] == pytest.approx(row["mean_pairs_closed"], rel=1e-6)
        assert row["p_accept"] == pytest.approx(1.0, abs=1e-9)

    def test_no_sweep_single_row(self):
        rows = analyze_rows(load_scenario(preset="desk-fig4"))
        assert len(rows) == 1
        assert rows[0]["sweep_param"] == ""

    def test_desk_sweep_monotone_per_m2(self):
        scn = load_scenario(preset="desk-fig4", overrides={
            "sweep_param": "lambda_per_m2",
            "sweep_values": "1e-4,2e-4,3e-4,4e-4,5e-4",
        })
        rows = analyze_rows(scn)
        per_m2 = [r["mean_pairs_per_m2"] for r in rows]
        assert all(a < b for a, b in zip(per_m2, per_m2[1:]))
        p_acc = [r["p_accept"] for r in rows]
        assert all(a >= b for a, b in zip(p_acc, p_acc[1:]))

    def test_csv_schema(self):
        text = render_csv(analyze_rows(load_scenario(preset="desk-fig4")))
        header = text.splitlines()[0]
        assert header == ("sweep_param,sweep_value,gamma,mean_pairs_series,"
                          "mean_pairs_closed,mean_pairs_per_m2,p_accept,tail_bound")
        assert len(text.splitlines()) == 2


FAST_SIM = {
    "r_d_m": "200", "lambda_per_m2": "2.4e-4", "replications": "2",
    "warmup_s": "5", "horizon_s": "25", "seed": "7",
}


class TestSimulateRows:
    def test_row_fields_and_seed_echo(self):
        rows = simulate_rows(load_scenario(overrides=dict(FAST_SIM, seed="123")))
        assert len(rows) == 1
        assert rows[0]["seed"] == 123
        assert rows[0]["replications"] == 2
        assert 0.0 <= rows[0]["p_accept"] <= 1.0

    def test_byte_identical_reruns(self):
        scn = load_scenario(overrides=FAST_SIM)
        a = render_csv(simulate_rows(scn))
        b = render_csv(simulate_rows(scn))
        assert a.encode() == b.encode()

    def test_low_confidence_flagged(self):
        scn = load_scenario(overrides=dict(FAST_SIM, replications="1", horizon_s="6"))
        rows = simulate_rows(scn)
        assert "low-confidence" in rows[0]["flags"]

    def test_csv_schema(self):
        text = render_csv(simulate_rows(load_scenario(overrides=FAST_SIM)))
        assert text.splitlines()[0] == (
            "sweep_param,sweep_value,seed,replications,mean_pairs,ci_mean_pairs,"
            "mean_pairs_per_m2,p_accept,ci_p_accept,arrivals_observed,flags")

    def test_columns_are_the_result_fields(self):
        # a row is its result object behind the sweep and echo columns, for
        # simulate and sweep-power alike
        sim = simulate_rows(load_scenario(overrides=FAST_SIM))[0]
        assert list(sim) == ["sweep_param", "sweep_value", "seed", "replications",
                             *(f.name for f in dataclasses.fields(SimStats))]
        rate = [f.name for f in dataclasses.fields(RatePoint)]
        for row in sweep_power_rows(load_scenario(preset="paper-fig5")):
            assert list(row) == ["row_type", "sweep_param", "sweep_value", *rate]


class TestSeedOverride:
    """--seed overrides the seed key at load time, for every command."""

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_simulate_seed_flag_prints_the_seed_key_bytes(self, jobs, tmp_path, capsys):
        base = "".join(f"{k} = {v}\n" for k, v in FAST_SIM.items() if k != "seed")
        base += "sweep_param = lambda_per_m2\nsweep_values = 2.4e-4,3e-4\n"
        plain, keyed = tmp_path / "plain.cfg", tmp_path / "keyed.cfg"
        plain.write_text(base)
        keyed.write_text(base + "seed = 7\n")
        assert main(["simulate", "--config", str(plain), "--seed", "7", "--jobs", jobs]) == 0
        flagged = capsys.readouterr().out
        assert main(["simulate", "--config", str(keyed), "--jobs", jobs]) == 0
        assert capsys.readouterr().out.encode() == flagged.encode()
        assert [row.split(",")[2] for row in flagged.splitlines()[1:]] == ["7", "7"]

    def test_validate_seed_without_config_is_desk_fig4_at_that_seed(self, monkeypatch, capsys):
        from beamcap import validation
        ran = []
        monkeypatch.setattr(validation, "run_all", lambda scn, jobs: ran.append(scn) or [])
        assert main(["validate", "--seed", "5"]) == 0
        assert main(["validate", "--preset", "desk-fig4", "--seed", "5"]) == 0
        assert main(["validate"]) == 0
        assert ran[0].raw == ran[1].raw == dict(ran[2].raw, seed="5")
        assert (ran[0].seed, ran[2].seed) == (5, 1)
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["analyze", "simulate", "sweep-power", "validate"])
    def test_negative_seed_exit_code(self, command, capsys):
        assert main([command, "--preset", "desk-fig4", "--seed", "-1"]) == 2
        assert "seed: seed must be a non-negative integer, got -1" in capsys.readouterr().err


class TestSweepPowerRows:
    def test_single_power_point(self):
        scn = load_scenario(preset="paper-fig5", overrides={
            "sweep_param": "", "sweep_values": "",
            "p_tx_min_dbm": "3", "p_tx_max_dbm": "3", "p_tx_step_db": "1",
        })
        rows = sweep_power_rows(scn)
        points = [r for r in rows if r["row_type"] == "point"]
        optima = [r for r in rows if r["row_type"] == "optimum"]
        assert len(points) == 1 and len(optima) == 1
        assert optima[0]["p_tx_dbm"] == points[0]["p_tx_dbm"]
        assert optima[0]["area_rate_bps_m2"] == pytest.approx(
            points[0]["area_rate_bps_m2"], rel=1e-12)

    @pytest.mark.parametrize("lo, hi, step", [(-20, 20, 0.45), (0, 0.3, 0.1), (-20, 20, 0.5),
                                              (10, 10.000000001, 1e-10)])
    def test_power_grid_stays_in_range_and_ends_on_max(self, lo, hi, step):
        scn = load_scenario(preset="paper-fig5", overrides={
            "sweep_param": "", "p_tx_min_dbm": str(lo), "p_tx_max_dbm": str(hi),
            "p_tx_step_db": str(step),
        })
        grid = [r["p_tx_dbm"] for r in sweep_power_rows(scn) if r["row_type"] == "point"]
        assert grid[0] == lo and grid[-1] == hi
        assert all(lo <= p <= hi for p in grid)
        assert all(b - a <= step + 1e-9 for a, b in zip(grid, grid[1:]))

    def test_cap_regime_pins_link_rate(self):
        scn = load_scenario(preset="paper-fig5", overrides={
            "sweep_param": "", "sweep_values": "",
            "p_tx_min_dbm": "15", "p_tx_max_dbm": "20", "p_tx_step_db": "1",
        })
        rows = sweep_power_rows(scn)
        cap = scn.radio.bandwidth_hz * math.log2(1 + 100.0)
        for row in rows:
            if row["row_type"] == "point":
                assert row["link_rate_bps"] == pytest.approx(cap, rel=1e-12)

    def test_optimum_rows_per_sweep_value(self):
        scn = load_scenario(preset="paper-fig5", overrides={
            "p_tx_min_dbm": "-16", "p_tx_max_dbm": "-8", "p_tx_step_db": "2",
        })
        rows = sweep_power_rows(scn)
        optima = [r for r in rows if r["row_type"] == "optimum"]
        assert [r["sweep_value"] for r in optima] == [0.5, 2.0]
        assert optima[1]["p_tx_dbm"] <= optima[0]["p_tx_dbm"] + 0.5
        assert render_csv(rows).splitlines()[0] == (
            "row_type,sweep_param,sweep_value,p_tx_dbm,gamma,mean_pairs,"
            "link_rate_bps,area_rate_bps_m2,flags")


class TestCliEntry:
    def test_analyze_csv_stdout(self, capsys):
        assert main(["analyze", "--preset", "desk-fig4"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("sweep_param,sweep_value,gamma,")

    def test_json_format(self, capsys):
        assert main(["analyze", "--preset", "desk-fig4", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["gamma"] == pytest.approx(6.352895528605475e-3, rel=1e-9)

    def test_json_is_strict_with_an_infinite_ci(self, tmp_path, capsys):
        cfg = tmp_path / "one.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in
                               dict(FAST_SIM, replications="1", horizon_s="8").items()))
        assert main(["simulate", "--config", str(cfg), "--format", "json"]) == 0
        rows = strict_json(capsys.readouterr().out)
        assert rows[0]["ci_mean_pairs"] is None and rows[0]["ci_p_accept"] is None
        assert "low-confidence" in rows[0]["flags"]

    def test_render_csv_prints_a_numpy_float_as_its_number(self):
        rows = [{"a": np.float64(0.1), "b": 0.1, "c": np.float64(1e-300), "d": 3, "e": ""}]
        assert render_csv(rows) == "a,b,c,d,e\n0.1,0.1,1e-300,3,\n"

    def test_validate_json_format(self, monkeypatch, capsys):
        results = [validation.CheckResult("first", True, 0.5, 1.0, "ok"),
                   validation.CheckResult("second", False, math.inf, 0.05)]
        monkeypatch.setattr(cli.validation, "run_all", lambda scn, jobs: results)
        assert main(["validate", "--format", "json"]) == 1
        assert strict_json(capsys.readouterr().out) == [
            {"name": "first", "passed": True, "measured": 0.5, "tolerance": 1.0, "detail": "ok"},
            {"name": "second", "passed": False, "measured": None, "tolerance": 0.05,
             "detail": ""}]

    def test_render_json_prints_every_non_finite_float_as_null(self):
        text = render_json([{"a": math.inf, "b": -math.inf, "c": math.nan, "d": 1.5}])
        assert strict_json(text) == [
            {"a": None, "b": None, "c": None, "d": 1.5}]

    def test_simulate_determinism_through_cli(self, tmp_path, capsys):
        cfg = tmp_path / "fast.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in FAST_SIM.items()))
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--config", str(cfg), "--seed", "5",
                     "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(cfg), "--seed", "5",
                     "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        capsys.readouterr()

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("horizon_s = 5\nwarmup_s = 10\n")
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert "horizon_s" in capsys.readouterr().err

    @pytest.mark.parametrize("variant", ["exponential", "logistic", "piecewise-linear"])
    def test_infinite_gamma_exit_code(self, variant, tmp_path, capsys):
        # the footprint ratio of this tiny region overflows to inf
        cfg = tmp_path / "inf.cfg"
        cfg.write_text(f"r_d_m = 1e-153\npair_model = fixed:1e-300\nvariant = {variant}\n")
        assert main(["analyze", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("beamcap: error: r_d_m, p_tx_dbm, n_thr_dbm, theta_deg, kappa, "
                                "c_const: gamma must be finite and >= 0, got inf\n")

    @pytest.mark.parametrize("variant", ["exponential", "logistic", "piecewise-linear"])
    @pytest.mark.parametrize("r_d, row", [
        # n*gamma overflows at state 1e7 and the log weights past state 1 sum
        # below -1.8e308
        ("1e-150", ",,5.717605975744928e+302,0.0,0.5,0.0,1.0,3.141592653589914e-300"),
        # n*gamma is finite at state 1e7, but 2n*gamma is not
        ("7e-150", ",,1.1668583623969242e+301,0.0,0.5,0.0,1.0,1.5393804002589984e-298"),
        # 2*gamma overflows, in the closed form's log(2*gamma) and in exp(-2*gamma)
        ("2e-153", ",,1.429401493936232e+308,0.0,0.5,0.0,1.0,1.2566370614358997e-305"),
    ], ids=["r_d_1e-150", "r_d_7e-150", "r_d_2e-153"])
    def test_huge_finite_gamma_runs_without_warnings(self, variant, r_d, row, tmp_path,
                                                     capsys):
        # the overflows are exact limits (a dead state), not faults to report;
        # numpy attributes the cumsum's warning to its own module, so pyproject's
        # error::RuntimeWarning:beamcap filter alone would not catch it
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(f"r_d_m = {r_d}\npair_model = fixed:1e-300\nvariant = {variant}\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["analyze", "--config", str(cfg)]) == 0
        assert [str(w.message) for w in caught] == []
        captured = capsys.readouterr()
        assert captured.out.splitlines()[1] == row
        assert captured.err == ""

    @pytest.mark.parametrize("command, lines, key", [
        ("analyze", "r_d_m = 1e-170\n", "r_d_m"),            # the disk area underflows to 0
        ("sweep-power", "r_d_m = 1e-170\n", "r_d_m"),
        ("analyze", "r_d_m = 1e300\n", "r_d_m"),             # its square overflows
        ("sweep-power", "r_d_m = 1e300\n", "r_d_m"),
        ("analyze", "mu_per_s = 5e-324\n", "lambda_per_m2, r_d_m, mu_per_s"),  # lambda/mu is inf
        ("sweep-power", "mu_per_s = 5e-324\n", "lambda_per_m2, r_d_m, mu_per_s"),
        ("sweep-power", "snr_max_db = 1e6\n", "snr_max_db"),  # the linear cap overflows
        # a 3e-300 m^2 disk: c * E[N] / area is inf at every power
        ("sweep-power", "r_d_m = 1e-150\nlambda_per_m2 = 89.9\ncheck_mode = one-way\n"
                        "p_tx_max_dbm = 10\np_tx_step_db = 10\n", "r_d_m"),
    ], ids=["tiny-area-analyze", "tiny-area-sweep", "huge-area-analyze", "huge-area-sweep",
            "inf-load-analyze", "inf-load-sweep", "huge-snr-cap-sweep", "inf-area-rate-sweep"])
    def test_non_finite_deployment_or_rate_exit_code(self, command, lines, key, tmp_path,
                                                     capsys):
        cfg = tmp_path / "extreme.cfg"
        cfg.write_text(lines)
        t0 = time.perf_counter()
        assert main([command, "--config", str(cfg)]) == 2
        assert time.perf_counter() - t0 < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"beamcap: error: {key}")

    def test_unknown_key_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad2.cfg"
        cfg.write_text("bogus = 1\n")
        assert main(["analyze", "--config", str(cfg)]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_nonconvergence_exit_code(self, monkeypatch, capsys):
        import beamcap.cli as cli_mod
        from beamcap import NonConvergenceError

        def explode(scn):
            raise NonConvergenceError("lambda_total, mu, gamma give a steady state not truncated "
                                      "within 10000000 states")

        monkeypatch.setattr(cli_mod.cli_rows, "analyze_rows", explode)
        assert cli_mod.main(["analyze", "--preset", "desk-fig4"]) == 2
        assert capsys.readouterr().err == (
            "beamcap: error: lambda_per_m2, r_d_m, mu_per_s, p_tx_dbm, n_thr_dbm, theta_deg, "
            "kappa, c_const: lambda_total, mu, gamma give a steady state not truncated within "
            "10000000 states\n")

    def test_series_sweep_power_fails_before_any_walk(self, tmp_path, capsys):
        # 8, 15 and 30 deg walk millions of states per power; only 52 deg at
        # the lowest power (mean 1.21e7) passes the state limit
        cfg = tmp_path / "series.cfg"
        cfg.write_text("mean_engine = series\n")
        t0 = time.perf_counter()
        assert main(["sweep-power", "--preset", "paper-fig6", "--config", str(cfg)]) == 2
        assert time.perf_counter() - t0 < 5.0
        scn = load_scenario(preset="paper-fig6", overrides={"theta_deg": "52", "sweep_param": ""})
        with pytest.raises(NonConvergenceError) as exc:
            queueing.steady_state(scn.chain(scn.p_tx_min_dbm))
        assert capsys.readouterr().err == (
            "beamcap: error: lambda_per_m2, r_d_m, mu_per_s, p_tx_min_dbm, n_thr_dbm, theta_deg, "
            f"kappa, c_const: {exc.value}\n")

    def test_series_sweep_power_at_zero_load(self, tmp_path, capsys):
        # a chain with no arrivals passes the state limit at once and holds no pair
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("mean_engine = series\nlambda_per_m2 = 0\np_tx_step_db = 10\n")
        assert main(["sweep-power", "--config", str(cfg)]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [r["row_type"] for r in rows] == ["point"] * 5 + ["optimum"]
        assert {(r["mean_pairs"], r["area_rate_bps_m2"]) for r in rows} == {("0.0", "0.0")}
        assert rows[-1]["flags"] == "flat" and rows[-1]["p_tx_dbm"] == "-20.0"

    def test_series_sweep_power_past_the_state_budget_fails_at_once(self, tmp_path, capsys):
        # paper-fig5 with the series engine passes the state limit at every
        # power but would walk 1.55e9 states in all, about 5 minutes
        cfg = tmp_path / "series.cfg"
        cfg.write_text("mean_engine = series\n")
        t0 = time.perf_counter()
        assert main(["sweep-power", "--preset", "paper-fig5", "--config", str(cfg)]) == 2
        assert time.perf_counter() - t0 < 1.0
        assert capsys.readouterr().err == (
            "beamcap: error: mean_engine, lambda_per_m2, r_d_m, mu_per_s, p_tx_min_dbm, "
            "p_tx_max_dbm, p_tx_step_db, n_thr_dbm, theta_deg, kappa, c_const: the "
            "series engine would walk about 1.55e+09 chain states, past the limit of 1e+08\n")

    @pytest.mark.parametrize("line, key, count", [
        ("p_tx_step_db = 1e-7", "p_tx_step_db", "4e+08"),
        ("opt_tol_db = 1e-7", "opt_tol_db", "4e+08"),
        ("p_tx_step_db = 0.0004", "p_tx_step_db", "1e+05"),
        ("opt_tol_db = 5e-324", "opt_tol_db", "inf"),
        ("p_tx_min_dbm = -80", "p_tx_min_dbm", "-80.0 <= -78.0"),
        ("p_tx_max_dbm = 4000", "p_tx_max_dbm", "coverage radius inf"),
    ])
    def test_infeasible_power_grid_fails_before_any_work(self, line, key, count, tmp_path,
                                                        capsys):
        # a grid past 1e5 powers per sweep value would take hours and tens of GB
        # at 1e-7; a range end below n_thr_dbm used to name p_tx_dbm, a key not set;
        # opt_tol_db is not a key: the optimizer's grid step is a constant
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(line + "\n")
        t0 = time.perf_counter()
        assert main(["sweep-power", "--preset", "paper-fig5", "--config", str(cfg)]) == 2
        assert time.perf_counter() - t0 < 1.0
        err = capsys.readouterr().err
        if key == "opt_tol_db":
            assert err == f"beamcap: error: {cfg}:1: unknown key 'opt_tol_db'\n"
            return
        line = ERROR_LINE.fullmatch(err)
        assert line and key in line.group(1).split(", ") and count in err

    def test_cli_import_loads_no_scipy(self):
        # then each command twice in one process: the second call, on the parser
        # the first one built, prints the same bytes and still loads no scipy
        code = textwrap.dedent("""
            import contextlib, io, sys, beamcap.cli
            scipy = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')
            print(scipy())
            for argv in (['analyze', '--preset', 'paper-fig4'],
                         ['sweep-power', '--preset', 'paper-fig5']):
                codes, outs = [], []
                for _ in range(2):
                    with contextlib.redirect_stdout(io.StringIO()) as out:
                        codes.append(beamcap.cli.main(argv))
                    outs.append(out.getvalue())
                print(argv[0], codes, scipy(), outs[0] == outs[1] != '')
        """)
        assert run_python(code) == ("[]\nanalyze [0, 0] [] True\n"
                                    "sweep-power [0, 0] [] True\n")

    def test_cli_import_loads_no_process_pool(self):
        # only a --jobs run with two or more replications starts a pool
        code = "import sys, beamcap.cli; print('concurrent.futures.process' in sys.modules)"
        assert run_python(code) == "False\n"

    def test_simulate_loads_no_scipy_stats(self, tmp_path):
        # the Student-t quantile of the intervals comes from scipy.special
        cfg = tmp_path / "fast.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in FAST_SIM.items()))
        code = ("import sys; from beamcap.cli import main; "
                f"assert main(['simulate', '--config', {str(cfg)!r}, "
                f"'--out', {str(tmp_path / 'rows.csv')!r}]) == 0; "
                "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))")
        assert run_python(code) == "[]\n"
        assert (tmp_path / "rows.csv").read_text().count("\n") == 2

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exit_code(self, jobs, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--preset", "desk-fig4", "--jobs", jobs])
        assert exc.value.code == 2
        assert f"--jobs must be >= 1, got {jobs}" in capsys.readouterr().err

    def test_unwritable_out_fails_before_any_work(self, monkeypatch, tmp_path, capsys):
        import beamcap.cli as cli_mod

        def no_work(scn):
            raise AssertionError("work started before --out was checked")

        monkeypatch.setattr(cli_mod.cli_rows, "analyze_rows", no_work)
        out = tmp_path / "missing" / "x.csv"
        assert main(["analyze", "--preset", "paper-fig5", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("beamcap: error: --out: ")

    @pytest.mark.parametrize("command, config", [
        ("analyze", "r_d_m = -1\n"),
        # the default 3 km disk expects ~6.8e10 arrivals
        ("simulate", "lambda_per_m2 = 1.0\n"),
    ], ids=["bad-value", "past-arrival-budget"])
    def test_refused_run_leaves_out_as_it_was(self, command, config, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        out = tmp_path / "rows.csv"
        out.write_bytes(b"earlier rows\r\n")
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert ERROR_LINE.fullmatch(capsys.readouterr().err)
        assert out.read_bytes() == b"earlier rows\r\n"

    @pytest.mark.parametrize("target", ["config", "table"])
    def test_out_naming_an_input_file_is_refused(self, target, tmp_path, capsys):
        pattern = tmp_path / "pattern.csv"
        pattern.write_text("angle_deg,gain_dbi\n0,12.96\n26,9.95\n52,-150\n")
        cfg = tmp_path / "same.cfg"
        cfg.write_text(f"r_d_m = 300\nantenna = table:{pattern}\n")
        inputs = {p: p.read_bytes() for p in (cfg, pattern)}
        out = f"{tmp_path}/./{cfg.name if target == 'config' else pattern.name}"
        assert main(["analyze", "--config", str(cfg), "--out", out]) == 2
        assert capsys.readouterr().err.startswith("beamcap: error: --out: ")
        assert {p: p.read_bytes() for p in inputs} == inputs

    def test_out_to_a_device(self, capsys):
        assert main(["analyze", "--preset", "desk-fig4", "--out", os.devnull]) == 0
        assert capsys.readouterr() == ("", "")

    def test_config_with_a_byte_order_mark(self, tmp_path, capsys):
        # a UTF-8 BOM, as some editors write, is not part of the first key
        text = "r_d_m = 300\nlambda_per_m2 = 3.33e-4\n"
        plain, bom = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
        plain.write_text(text, encoding="utf-8")
        bom.write_text(text, encoding="utf-8-sig")
        assert main(["analyze", "--config", str(plain)]) == 0
        want = capsys.readouterr().out
        assert main(["analyze", "--config", str(bom)]) == 0
        assert capsys.readouterr().out == want

    def test_infeasible_fixed_pair_model_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text("r_d_m = 2\npair_model = fixed:5\n")
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("beamcap: error: pair_model, r_d_m: fixed ")

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_placement_retry_exhaustion_exit_code(self, jobs, tmp_path, capsys):
        # a partner 3.999 m away fits a 2 m disk only from a sliver of its
        # edge, so 100 placement attempts miss it
        cfg = tmp_path / "edge.cfg"
        cfg.write_text("r_d_m = 2\npair_model = fixed:3.999\nlambda_per_m2 = 1\n"
                       "replications = 2\nwarmup_s = 1\nhorizon_s = 2\n")
        assert main(["simulate", "--config", str(cfg), "--jobs", jobs]) == 2
        err = capsys.readouterr().err
        assert err.startswith("beamcap: error: pair_model, r_d_m: pair_model, region_radius leave "
                              "no placement inside the disk after 100 attempts")

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_active_pair_cap_exit_code(self, jobs, tmp_path, capsys, monkeypatch):
        # a 1.4-cm reach admits every arrival and a 1e6-s session keeps it: a
        # replication is refused at the cap, before it outgrows memory
        from beamcap import simulator
        monkeypatch.setattr(simulator, "MAX_ACTIVE_PAIRS", 50)
        cfg = tmp_path / "crowd.cfg"
        cfg.write_text("r_d_m = 1000\np_tx_dbm = -60\nlambda_per_m2 = 1e-4\nmu_per_s = 1e-6\n"
                       "replications = 2\nwarmup_s = 1\nhorizon_s = 2\n")
        assert main(["simulate", "--config", str(cfg), "--jobs", jobs]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ERROR_LINE.fullmatch(captured.err)
        assert captured.err.startswith(
            "beamcap: error: lambda_per_m2, r_d_m, mu_per_s, p_tx_dbm, n_thr_dbm, theta_deg, "
            "kappa, c_const: lambda_total, mu, gamma keep 50 pairs active at t = ")

    @pytest.mark.parametrize("argv, lines, keys", [
        # a load past the state limit: the footprint ratio is set by the link budget
        (["analyze"], "n_thr_dbm = 1e-150\n",
         "lambda_per_m2, r_d_m, mu_per_s, p_tx_dbm, n_thr_dbm, theta_deg, kappa, c_const"),
        (["sweep-power", "--preset", "paper-fig6"], "mean_engine = series\n",
         "lambda_per_m2, r_d_m, mu_per_s, p_tx_min_dbm, n_thr_dbm, theta_deg, kappa, c_const"),
        (["analyze"], "warmup_s = -1\n", "horizon_s, warmup_s"),
        (["analyze"], "p_tx_min_dbm = 180\n", "p_tx_min_dbm, p_tx_max_dbm"),
        (["analyze"], "n_thr_dbm = 180\n", "p_tx_dbm, n_thr_dbm"),
        (["sweep-power"], "n_thr_dbm = 0\n", "p_tx_min_dbm, n_thr_dbm"),
        (["sweep-power"], "p_tx_max_dbm = 1e300\n", "p_tx_min_dbm, p_tx_max_dbm, p_tx_step_db"),
        # the link rate is inf: times 9e6 pairs, or times the 0 pairs of no arrivals (NaN)
        (["sweep-power"], "bandwidth_hz = 1e308\n", "r_d_m, bandwidth_hz, lambda_per_m2, mu_per_s"),
        (["sweep-power"], "bandwidth_hz = 1e308\nlambda_per_m2 = 0\n",
         "r_d_m, bandwidth_hz, lambda_per_m2, mu_per_s"),
        # a footprint ratio past the floats: a tiny disk, or a huge coverage radius
        (["sweep-power"], "r_d_m = 1e-153\npair_model = fixed:1e-300\n",
         "p_tx_max_dbm, r_d_m, n_thr_dbm, theta_deg, kappa, c_const"),
        (["analyze"], "kappa = 0.5\nc_const = 1e-80\n",
         "r_d_m, p_tx_dbm, n_thr_dbm, theta_deg, kappa, c_const"),
        (["sweep-power"], "kappa = 0.5\nc_const = 1e-80\n",
         "p_tx_max_dbm, r_d_m, n_thr_dbm, theta_deg, kappa, c_const"),
        (["simulate"], "r_d_m = 2\npair_model = fixed:3.999\nlambda_per_m2 = 1\n"
                       "replications = 2\nwarmup_s = 1\nhorizon_s = 2\n", "pair_model, r_d_m"),
    ], ids=["analyze-state-limit", "sweep-state-limit", "negative-warmup", "empty-power-range",
            "threshold-above-power", "threshold-above-range-start", "huge-power-range",
            "inf-link-rate", "inf-link-rate-no-pairs", "inf-gamma-at-range-end",
            "inf-gamma-analyze", "inf-gamma-sweep", "placement"])
    def test_refusal_names_every_key_it_compares(self, argv, lines, keys, tmp_path, capsys):
        cfg = tmp_path / "refused.cfg"
        cfg.write_text(lines)
        assert main([*argv, "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        line = ERROR_LINE.fullmatch(captured.err)
        assert line and line.group(1) == keys, captured.err

    def test_sweep_power_at_a_tiny_service_rate(self, tmp_path, capsys):
        # a load of 2.8e307 pairs, but the footprint caps E[N] at 5.4e9: every rate is finite
        cfg = tmp_path / "slow.cfg"
        cfg.write_text("mu_per_s = 1e-300\n")
        assert main(["sweep-power", "--config", str(cfg)]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [r["row_type"] for r in rows] == ["point"] * 81 + ["optimum"]
        assert all(math.isfinite(float(r[column])) for r in rows for column in
                   ("gamma", "mean_pairs", "link_rate_bps", "area_rate_bps_m2"))

    @pytest.mark.parametrize("bandwidth_hz", ["9.2084e306", "9.21e306"],
                             ids=["in-refinement", "on-opt-grid"])
    def test_sweep_power_refuses_an_infinite_optimum(self, bandwidth_hz, tmp_path, capsys):
        # the point rows at -60 and 20 dBm are finite, but the area rate itself
        # overflows near its peak at -34.04 dBm: within 4e-6 of the peak, first in
        # the refinement, or on the optimizer's grid from -34.2 to -33.8 dBm, where
        # an infinite peak must not read as a flat objective
        keys = {"bandwidth_hz": bandwidth_hz, "lambda_per_m2": "1e5", "p_tx_min_dbm": "-60",
                "p_tx_max_dbm": "20", "p_tx_step_db": "80"}
        scn = load_scenario(overrides=keys)
        grid = [rate_components(scn, p).area_rate_bps_m2 for p in optimizer_grid(scn)]
        assert grid[0] < math.inf and grid[-1] < math.inf
        assert (math.inf in grid) == (bandwidth_hz == "9.21e306")
        opt = optimize_power(scn)
        assert opt.area_rate_bps_m2 == math.inf and opt.flags == ""
        cfg = tmp_path / "peak.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
        assert main(["sweep-power", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("beamcap: error: r_d_m, bandwidth_hz, lambda_per_m2, "
                                       f"mu_per_s: the area rate at {opt.p_tx_dbm:g} dBm "
                                       "is inf b/s/m^2")

    def test_sweep_power_area_rate_where_only_rate_times_pairs_overflows(self, tmp_path, capsys):
        # near -22 dBm c * E[N] is 2.5e302 b/s times 1.1e7 pairs, past the floats,
        # but over the 2.8e7 m^2 disk the area rate is 1e302 b/s/m^2
        cfg = tmp_path / "peak.cfg"
        cfg.write_text("bandwidth_hz = 1e302\np_tx_min_dbm = -60\np_tx_max_dbm = 20\n"
                       "p_tx_step_db = 80\n")
        assert main(["sweep-power", "--config", str(cfg)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = list(csv.DictReader(io.StringIO(captured.out)))
        assert [r["row_type"] for r in rows] == ["point", "point", "optimum"]
        opt = {k: float(v) for k, v in rows[-1].items() if k in ("p_tx_dbm", "mean_pairs",
                                                                 "link_rate_bps", "area_rate_bps_m2")}
        assert opt["p_tx_dbm"] == pytest.approx(-22.02, abs=0.01)
        assert opt["link_rate_bps"] * opt["mean_pairs"] == math.inf
        area = load_scenario(path=cfg).deployment.area
        assert opt["area_rate_bps_m2"] == opt["link_rate_bps"] * (opt["mean_pairs"] / area)

    def test_out_file(self, tmp_path, capsys):
        # the output replaces a longer file's contents
        out = tmp_path / "rows.csv"
        out.write_text("x" * 100_000)
        assert main(["analyze", "--preset", "desk-fig4", "--out", str(out)]) == 0
        assert main(["analyze", "--preset", "desk-fig4"]) == 0
        assert out.read_text() == capsys.readouterr().out
        assert out.read_text().startswith("sweep_param,")


class TestParser:
    """One parser: a command plus six flags, which may sit on either side of it."""

    PURPOSES = {
        "analyze": "steady-state chain metrics per sweep value",
        "simulate": "spatial Monte Carlo statistics per sweep value",
        "sweep-power": "area-rate sweep over transmit power with optimum summary",
        "validate": "run the acceptance checks and report verdicts",
    }
    FLAGS = ["--config", "x.cfg", "--preset", "desk-fig4", "--seed", "3", "--jobs", "2",
             "--out", "rows.json", "--format", "json"]

    @pytest.mark.parametrize("command", sorted(PURPOSES))
    def test_flags_on_either_side_of_the_command(self, command):
        expected = {"command": command, "config": "x.cfg", "preset": "desk-fig4", "seed": 3,
                    "jobs": 2, "out": "rows.json", "format": "json"}
        for argv in ([command, *self.FLAGS], [*self.FLAGS, command],
                     [*self.FLAGS[:6], command, *self.FLAGS[6:]]):
            assert vars(cli._build_parser().parse_args(argv)) == expected

    def test_flags_first_prints_the_same_bytes(self, capsys):
        assert main(["analyze", "--preset", "desk-fig4", "--format", "json"]) == 0
        after = capsys.readouterr()
        assert main(["--preset", "desk-fig4", "--format", "json", "analyze"]) == 0
        assert capsys.readouterr() == after

    @pytest.mark.parametrize("argv, line", [
        ([], "beamcap: error: the following arguments are required: command"),
        (["--preset", "desk-fig4"], "beamcap: error: the following arguments are required: command"),
        (["frob"], "beamcap: error: argument command: invalid choice: 'frob' (choose from "
                   "'analyze', 'simulate', 'sweep-power', 'validate')"),
        (["--jobs", "0", "validate"], "beamcap: error: --jobs must be >= 1, got 0"),
    ])
    def test_bad_arguments_exit_2_with_one_error_line(self, argv, line, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"usage: beamcap <command> [flags]\n{line}\n"

    def test_help_names_every_command_with_its_purpose(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        lines = capsys.readouterr().out.splitlines()
        for command, purpose in self.PURPOSES.items():
            assert any(line.split() == [command, *purpose.split()] for line in lines), command

    def test_parser_is_built_once_per_process(self):
        assert cli._build_parser() is cli._build_parser()

    def test_a_json_call_leaves_the_next_default_call_unchanged(self, capsys):
        argv = ["analyze", "--preset", "desk-fig4"]
        assert main(argv) == 0
        before = capsys.readouterr()
        assert before.out == render_csv(analyze_rows(load_scenario(preset="desk-fig4")))
        assert main([*argv, "--format", "json"]) == 0
        assert capsys.readouterr().out.startswith("[")
        assert main(argv) == 0
        assert capsys.readouterr() == before

    def test_refusals_leave_the_next_call_unchanged(self, capsys):
        argv = ["analyze", "--preset", "desk-fig4"]
        assert main(argv) == 0
        before = capsys.readouterr()
        assert before.out == render_csv(analyze_rows(load_scenario(preset="desk-fig4")))
        for bad in (["--jobs", "0", *argv], ["frob"]):
            with pytest.raises(SystemExit) as exc:
                main(bad)
            assert exc.value.code == 2
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr() == before

    def test_help_prints_the_same_text_twice(self, capsys):
        texts = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["--help"])
            assert exc.value.code == 0
            texts.append(capsys.readouterr())
        assert texts[0] == texts[1]


class TestSimulationBudget:
    @pytest.mark.parametrize("command", ["simulate", "validate"])
    def test_paper_scale_simulation_fails_fast(self, command, capsys):
        # paper-fig4 expects ~1.4e10 arrivals at its first sweep point alone
        t0 = time.perf_counter()
        assert main([command, "--preset", "paper-fig4"]) == 2
        assert time.perf_counter() - t0 < 5.0
        err = capsys.readouterr().err
        for key in ("lambda_per_m2", "horizon_s", "replications"):
            assert key in err

    def test_validate_without_arrivals_fails_before_any_simulation(self, monkeypatch, tmp_path,
                                                                   capsys):
        import beamcap.validation as validation_mod

        def no_simulation(config, jobs):
            raise AssertionError("simulation started with lambda_per_m2 = 0")

        monkeypatch.setattr(validation_mod.simulator, "run", no_simulation)
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("lambda_per_m2 = 0\n")
        assert main(["validate", "--preset", "desk-fig4", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("beamcap: error: lambda_per_m2: ")

    def test_simulate_rows_checks_the_whole_sweep_before_any_run(self, monkeypatch):
        # library callers are refused too; 200 /s/m2 expects ~3.4e10 arrivals
        from beamcap import simulator

        def no_simulation(config, jobs):
            raise AssertionError("simulation started before the budget check")

        monkeypatch.setattr(simulator, "run", no_simulation)
        scn = load_scenario(preset="desk-fig5", overrides={"sweep_values": "0.005,200"})
        with pytest.raises(ScenarioError,
                           match="^lambda_per_m2, r_d_m, horizon_s, replications: "):
            simulate_rows(scn)

    def test_sweep_power_does_not_simulate_and_is_not_limited(self, capsys):
        # simulating paper-fig5 would expect ~3.4e10 arrivals at its first sweep value
        assert main(["sweep-power", "--preset", "paper-fig5"]) == 0
        capsys.readouterr()

    def test_limit_is_on_expected_arrivals(self):
        area = math.pi * 300.0 ** 2
        below = load_scenario(preset="desk-fig4", overrides={
            "lambda_per_m2": repr(0.99 * MAX_SIM_ARRIVALS / (area * 100.0 * 10)),
            "horizon_s": "100", "replications": "10"})
        check_simulation_budget([below])
        with pytest.raises(ScenarioError, match="replications"):
            check_simulation_budget([below.with_value("replications", 11)])

    def test_limit_is_on_the_arrivals_of_the_whole_sweep(self):
        # 5.43e8 + 6.11e8 expected arrivals: each point passes alone, the sweep does not
        scn = load_scenario(preset="desk-fig5", overrides={
            "sweep_values": "0.8,0.9", "horizon_s": "120", "replications": "20"})
        points = [point for _, _, point in sweep_points(scn)]
        for point in points:
            check_simulation_budget([point])
        with pytest.raises(ScenarioError) as info:
            check_simulation_budget(points)
        assert str(info.value) == ("lambda_per_m2, r_d_m, horizon_s, replications, sweep_values: "
                                   "1.15e+09 expected arrivals summed over the sweep values "
                                   "exceed the limit of 1e+09")
        # a point past the limit alone is refused as a single point
        with pytest.raises(ScenarioError) as info:
            check_simulation_budget([points[0], points[1].with_value("replications", 40)])
        assert str(info.value) == ("lambda_per_m2, r_d_m, horizon_s, replications: 1.22e+09 "
                                   "expected arrivals (lambda_per_m2 * disk area * horizon_s * "
                                   "replications) exceed the limit of 1e+09")

    def test_limit_on_replications_without_arrivals(self):
        # no arrival is expected at zero load, but each replication still costs
        # about 25 us and 430 B: 1e9 of them would take hours and hundreds of GB
        idle = load_scenario(preset="desk-fig4", overrides={
            "lambda_per_m2": "0", "replications": str(MAX_SIM_REPLICATIONS)})
        check_simulation_budget([idle])
        with pytest.raises(ScenarioError) as info:
            check_simulation_budget([idle.with_value("replications", 10**9)])
        assert str(info.value) == ("replications: 1e+09 replications exceed the limit of "
                                   "1e+06")


class TestLinkBudgetRange:
    """Link budgets whose coverage radius or reach leaves the floats exit 2 at load,
    naming their keys; tiny but finite ones run."""

    @pytest.mark.parametrize("command", ["analyze", "simulate", "sweep-power"])
    @pytest.mark.parametrize("lines, keys", [
        ("p_tx_dbm = 4000\n", ["p_tx_dbm"]),
        ("p_tx_dbm = 3000\nkappa = 0.5\n", ["p_tx_dbm", "kappa"]),
        ("c_const = 1e-300\n", ["c_const"]),
        ("antenna = table:{peak}\n", ["antenna"]),
        ("theta_deg = 1e-7\n", ["theta_deg"]),            # 1 - cos(theta/2) rounds to 0
    ])
    def test_overflowing_budget_exit_code(self, command, lines, keys, tmp_path, capsys):
        peak = tmp_path / "peak.csv"
        peak.write_text("angle_deg,gain_dbi\n0,4000\n180,0\n")
        cfg = tmp_path / "budget.cfg"
        cfg.write_text(lines.format(peak=peak))
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("beamcap: error: ")
        assert "Traceback" not in err
        for key in keys:
            assert key in err.splitlines()[0].split(": ")[2]

    def test_vanishing_table_reach_names_antenna(self, tmp_path):
        table = tmp_path / "faint.csv"
        table.write_text("angle_deg,gain_dbi\n0,-3500\n180,-3600\n")
        with pytest.raises(ScenarioError, match=r"^antenna: .*reach 0\.0 m"):
            load_scenario(overrides={"antenna": f"table:{table}"})

    @pytest.mark.parametrize("overrides", [
        {"c_const": "1e33"},                                 # reach 3.5e-12 m
        {"kappa": "0.1", "p_tx_dbm": "-77.99"},              # reach 9e-56 m
        {"c_const": "1e261"},                                # k0 ~ 1e-251: the kernel decides
    ])
    def test_tiny_reach_runs_in_seconds(self, overrides, monkeypatch):
        from beamcap import simulator

        grids, looked = [], []

        class Recorded(simulator._CellGrid):
            def __init__(self, *args):
                super().__init__(*args)
                grids.append(self)

        class Cells(dict):
            def get(self, cell, default=None):
                looked.append(cell)
                return super().get(cell, default)

        monkeypatch.setattr(simulator, "_CellGrid", Recorded)
        scn = load_scenario(preset="desk-fig4", overrides=dict(
            overrides, replications="1", warmup_s="20", horizon_s="25"))
        # a replication's cells are at least 1e-9 of the region radius wide, which
        # keeps the 3x3 block exact; a candidate device looks up 9 cells, whatever the reach
        simulator.run_replication(scn.with_value("lambda_per_m2", 0.0), 0)
        grid = grids[0]
        assert grid._side >= 1e-9 * 300.0
        grid._cells = Cells()
        assert not grid.blocked(simulator.PairPlacement((-212.0, 212.0), (-211.5, 212.0), 0.0,
                                                        math.pi))
        i, j = math.floor(-212.0 / grid._side), math.floor(212.0 / grid._side)
        assert looked[0] == (i, j) and len(looked) == 18
        assert set(looked[:9]) == {(i + di, j + dj) for di in (-1, 0, 1) for dj in (-1, 0, 1)}
        t0 = time.perf_counter()
        row = simulate_rows(scn)[0]
        assert time.perf_counter() - t0 < 10.0
        assert row["arrivals_observed"] > 300
        assert row["p_accept"] == 1.0                     # no pair within reach of another


    @pytest.mark.parametrize("command, lines", [
        ("analyze", "p_tx_dbm = 78\nsweep_param =\n"),     # gamma 687: the argument is inf
        ("analyze", "p_tx_dbm = 80\nsweep_param =\n"),     # exp(gamma) overflows
        ("analyze", "p_tx_dbm = 300\nsweep_param =\n"),
        ("sweep-power", "p_tx_max_dbm = 80\n"),
        ("sweep-power", "p_tx_max_dbm = 300\n"),
        ("sweep-power", "p_tx_max_dbm = 1000\n"),
    ])
    def test_closed_form_past_the_float_range(self, command, lines, tmp_path, capsys):
        # 2*gamma*load*e^gamma leaves the floats from about 78 dBm on paper-fig5;
        # test_queueing checks the closed form there against mpmath
        cfg = tmp_path / "hot.cfg"
        cfg.write_text(lines)
        t0 = time.perf_counter()
        assert main([command, "--preset", "paper-fig5", "--config", str(cfg)]) == 0
        assert time.perf_counter() - t0 < 5.0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        means = [float(v) for row in rows for k, v in row.items() if k.startswith("mean_pairs")]
        assert max(float(row["gamma"]) for row in rows) > 686.0
        assert means and all(math.isfinite(v) for v in means)

    def test_reach_whose_square_overflows_runs(self):
        # kappa = 0.02: coverage radius ~6e164 m, r2 = inf, and the kernel
        # decides every pair; admitted pairs still cover no other
        from beamcap import simulator

        scn = load_scenario(preset="desk-fig4", overrides={
            "kappa": "0.02", "replications": "1", "warmup_s": "20", "horizon_s": "25"})
        assert 0.0 < simulate_rows(scn)[0]["p_accept"] < 0.5
        snaps = simulator.run_replication(scn, 0, snapshot_times=(21.0, 23.0, 25.0)).snapshots
        assert all(len(s) >= 2 for s in snaps)
        assert max(simulator.max_cross_pair_power(s, scn.radio, scn.antenna, scn.check_mode)
                   for s in snaps) < scn.radio.n_thr_mw


class TestValidateScope:
    def test_swept_config_exit_code(self, monkeypatch, tmp_path, capsys):
        import beamcap.validation as validation_mod

        def no_simulation(config, jobs):
            raise AssertionError("simulation started on a swept scenario")

        monkeypatch.setattr(validation_mod.simulator, "run", no_simulation)
        cfg = tmp_path / "swept.cfg"
        cfg.write_text("sweep_param = lambda_per_m2\nsweep_values = 1e-4,2e-4\n")
        assert main(["validate", "--preset", "desk-fig4", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("beamcap: error: sweep_param: ")
        assert main(["validate", "--preset", "desk-fig5"]) == 2
        assert "sweep_param" in capsys.readouterr().err

import json
import math
import os
import re
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

import beamcap
from beamcap import CheckMode, MeanEngine, NonConvergenceError, Variant, queueing
from beamcap.cli import main
from beamcap.cli_rows import analyze_rows, render_csv, simulate_rows, sweep_power_rows
from beamcap.scenario import (DEFAULTS, KEYS, MAX_SIM_ARRIVALS, PRESETS, ScenarioError,
                              build_scenario, check_simulation_budget, load_scenario,
                              parse_config_text, sweep_points)

# one bad value per key: (overrides, key the error must name); a cross-key
# failure names the key the range check is attached to
BAD_VALUES = {
    "p_tx_dbm": ({"p_tx_dbm": "-90"}, "p_tx_dbm"),
    "n_thr_dbm": ({"n_thr_dbm": "20"}, "p_tx_dbm"),
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
    "warmup_s": ({"warmup_s": "200"}, "horizon_s"),
    "horizon_s": ({"horizon_s": "10"}, "horizon_s"),
    "p_tx_min_dbm": ({"p_tx_min_dbm": "30"}, "p_tx_max_dbm"),
    "p_tx_max_dbm": ({"p_tx_max_dbm": "-30"}, "p_tx_max_dbm"),
    "p_tx_step_db": ({"p_tx_step_db": "0"}, "p_tx_step_db"),
    "opt_tol_db": ({"opt_tol_db": "-0.1"}, "opt_tol_db"),
    "sweep_param": ({"sweep_param": "pair_model", "sweep_values": "1"}, "sweep_param"),
    "sweep_values": ({"sweep_param": "kappa", "sweep_values": "1,x"}, "sweep_values"),
}


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
        with pytest.raises(ScenarioError, match="^pair_model: fixed distance 4 m does not fit"):
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
        from beamcap import AntennaVariant
        assert scn.antenna.variant is AntennaVariant.TABLE

    def test_hash_inside_a_value_is_not_a_comment(self, tmp_path):
        pattern_dir = tmp_path / "a#b"
        pattern_dir.mkdir()
        pattern = pattern_dir / "p.csv"
        pattern.write_text("angle_deg,gain_dbi\n0,12.96\n26,9.95\n52,-150\n")
        cfg = tmp_path / "table.cfg"
        cfg.write_text(f"# antenna from a table\nantenna = table:{pattern}  # 3 points\n"
                       "theta_deg = 30 #52\n")
        scn = load_scenario(path=cfg)
        assert scn.antenna.gains_dbi.tolist() == [12.96, 9.95, -150.0]
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
        assert [s.rate_model.k_neighbors for _, _, s in sweep_points(scn)] == [4, 6]
        with pytest.raises(ScenarioError, match="k_neighbors: not an integer"):
            build_scenario({"k_neighbors": "2.5"})

    @pytest.mark.parametrize("spec", ["fixed:nan", "uniform:inf", "cuboid:0.3xnanx0.6"])
    def test_non_finite_pair_model_rejected(self, spec):
        with pytest.raises(ScenarioError, match="pair_model: must be finite"):
            build_scenario({"pair_model": spec})

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
        rows = simulate_rows(load_scenario(overrides=FAST_SIM), seed=123)
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

    @pytest.mark.parametrize("lo, hi, step", [(-20, 20, 0.45), (0, 0.3, 0.1), (-20, 20, 0.5)])
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
            "opt_tol_db": "0.5",
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

    def test_unknown_key_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad2.cfg"
        cfg.write_text("bogus = 1\n")
        assert main(["analyze", "--config", str(cfg)]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_nonconvergence_exit_code(self, monkeypatch, capsys):
        import beamcap.cli as cli_mod
        from beamcap import NonConvergenceError

        def explode(scn):
            raise NonConvergenceError("steady state not truncated within 10000000 states")

        monkeypatch.setattr(cli_mod.cli_rows, "analyze_rows", explode)
        assert cli_mod.main(["analyze", "--preset", "desk-fig4"]) == 2
        assert "not truncated" in capsys.readouterr().err

    def test_series_sweep_power_fails_before_any_walk(self, tmp_path, capsys):
        # 8, 15 and 30 deg walk millions of states per power; only 52 deg at
        # the lowest power (mean 1.21e7) passes the state limit
        cfg = tmp_path / "series.cfg"
        cfg.write_text("mean_engine = series\n")
        t0 = time.perf_counter()
        assert main(["sweep-power", "--preset", "paper-fig6", "--config", str(cfg)]) == 2
        assert time.perf_counter() - t0 < 5.0
        scn = load_scenario(preset="paper-fig6", overrides={"theta_deg": "52", "sweep_param": ""})
        low = replace(scn.radio, p_tx_dbm=scn.p_tx_min_dbm)
        with pytest.raises(NonConvergenceError) as exc:
            queueing.steady_state(queueing.chain_params(low, scn.deployment, scn.variant))
        assert capsys.readouterr().err == f"beamcap: error: {exc.value}\n"

    def test_cli_import_loads_no_scipy(self):
        src = str(Path(beamcap.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = "import sys, beamcap.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        assert proc.stdout == "[]\n"

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

    def test_infeasible_fixed_pair_model_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text("r_d_m = 2\npair_model = fixed:5\n")
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("beamcap: error: pair_model: ")

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_placement_retry_exhaustion_exit_code(self, jobs, tmp_path, capsys):
        # a partner 3.999 m away fits a 2 m disk only from a sliver of its
        # edge, so 100 placement attempts miss it
        cfg = tmp_path / "edge.cfg"
        cfg.write_text("r_d_m = 2\npair_model = fixed:3.999\nlambda_per_m2 = 1\n"
                       "replications = 2\nwarmup_s = 1\nhorizon_s = 2\n")
        assert main(["simulate", "--config", str(cfg), "--jobs", jobs]) == 2
        err = capsys.readouterr().err
        assert err.startswith("beamcap: error: no placement inside the disk after 100 attempts")

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        assert main(["analyze", "--preset", "desk-fig4", "--out", str(out)]) == 0
        assert out.read_text().startswith("sweep_param,")
        capsys.readouterr()


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

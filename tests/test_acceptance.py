"""Acceptance suite: one test per release criterion, tolerances pinned.

Each test prints a PASS/FAIL line (visible with -s or on failure) and the
same checks back the ``beamcap validate`` command.
"""

import time
from pathlib import Path

import pytest

from beamcap import cli_rows, simulator, validation
from beamcap.scenario import load_scenario

JOBS = min(4, simulator.usable_cpus())


def report(result, budget_s, elapsed_s):
    print(f"{result.line()}  [{elapsed_s:.2f}s of {budget_s:.0f}s budget]")
    assert elapsed_s < budget_s
    assert result.passed, result.line()


def timed(fn, *args, **kwargs):
    t0 = time.time()
    out = fn(*args, **kwargs)
    return out, time.time() - t0


def test_criterion_1_telescoping_identity():
    result, dt = timed(validation.check_telescoping)
    report(result, 1.0, dt)


def test_criterion_2_poisson_reduction():
    result, dt = timed(validation.check_mminf_reduction)
    report(result, 1.0, dt)


def test_criterion_3_lambert_w_residual():
    result, dt = timed(validation.check_lambert)
    report(result, 1.0, dt)


def test_criterion_4_beam_area_quadrature():
    result, dt = timed(validation.check_beam_area)
    report(result, 5.0, dt)


def test_criterion_5_closed_form_vs_series():
    result, dt = timed(validation.check_closed_vs_series)
    report(result, 10.0, dt)


@pytest.fixture(scope="module")
def desk_stats():
    """desk-fig4 and its simulate row, with the time the row took."""
    scn = load_scenario(preset="desk-fig4")
    t0 = time.time()
    row = cli_rows.simulate_rows(scn, jobs=JOBS)[0]
    return scn, row, time.time() - t0


def test_criterion_6_cross_engine_validation(desk_stats):
    scn, row, dt = desk_stats
    results = validation.check_cross_engine(scn, row)
    for result in results:
        report(result, 300.0, dt)


def test_cross_engine_reads_the_analyze_row(desk_stats, monkeypatch):
    """The check compares the mean that analyze prints: doubling it there fails the check."""
    scn, row, _ = desk_stats
    analyze_rows = cli_rows.analyze_rows
    monkeypatch.setattr(cli_rows, "analyze_rows", lambda s: [
        dict(r, mean_pairs_series=2.0 * r["mean_pairs_series"]) for r in analyze_rows(s)])
    results = {r.name: r for r in validation.check_cross_engine(scn, row)}
    assert not results["cross-engine-mean-pairs"].passed
    assert results["cross-engine-p-accept"].passed


def test_one_way_chain_matches_one_way_simulation():
    """analyze's one-way chain (one rejection event per active pair) against
    the one-way simulator on desk-fig4, 6 replications at seed 1."""
    scn = load_scenario(preset="desk-fig4", overrides={
        "check_mode": "one-way", "replications": "6", "seed": "1"})
    stats = simulator.run(scn, jobs=JOBS)
    e_n = cli_rows.analyze_rows(scn)[0]["mean_pairs_series"]
    assert abs(e_n - stats.mean_pairs) / stats.mean_pairs <= 0.05, (e_n, stats.mean_pairs)


def test_criterion_7_monotonicity_suite():
    result, dt = timed(validation.check_monotonicity)
    report(result, 10.0, dt)


def test_criterion_8_power_optimum_properties():
    results, dt = timed(validation.check_power_optimum)
    for result in results:
        report(result, 30.0, dt)


def test_criterion_9_simulate_determinism():
    result, dt = timed(validation.check_determinism)
    report(result, 60.0, dt)


@pytest.mark.parametrize("mode", ["two-way", "one-way"])
def test_hard_core_audit_follows_check_mode(mode):
    """One-way admission lets a newcomer cover earlier pairs; the audit counts
    only earlier pairs' power at later ones there, and passes in both modes."""
    scn = load_scenario(preset="desk-fig4", overrides={"check_mode": mode, "horizon_s": "50"})
    result = validation.check_hard_core(scn)
    assert result.passed, result.line()


def test_hard_core_audit_catches_overlapping_pairs(monkeypatch):
    def admit_all(self, candidate):
        return False        # blocked by nothing

    monkeypatch.setattr(simulator._CellGrid, "blocked", admit_all)
    scn = load_scenario(preset="desk-fig4", overrides={"horizon_s": "50"})
    result = validation.check_hard_core(scn)
    assert not result.passed and result.measured > 1.0


def test_fault_isolation_damaged_gamma(desk_stats):
    """A corrupted footprint ratio must trip the cross-engine comparison
    while leaving the self-contained identity checks untouched."""
    scn, row, _ = desk_stats
    assert validation.check_telescoping().passed
    gamma = cli_rows.analyze_rows(scn)[0]["gamma"]
    from beamcap.queueing import ChainParams, mean_pairs, steady_state
    wrong = ChainParams(scn.deployment.lambda_total, scn.deployment.mu,
                        2.0 * gamma, scn.variant)
    e_wrong = mean_pairs(steady_state(wrong))
    assert abs(row["mean_pairs"] - e_wrong) / e_wrong > 0.15


def test_validate_command_reports_all_checks(tmp_path, capsys):
    """The validate command on a reduced desk bundle prints, byte for byte, its
    12 verdicts pinned in tests/golden/validate-mini.txt, all of them PASS."""
    from beamcap.cli import main
    cfg = tmp_path / "mini.cfg"
    cfg.write_text("r_d_m = 300\nlambda_per_m2 = 3.33e-4\nreplications = 6\n"
                   "warmup_s = 20\nhorizon_s = 90\nseed = 3\n")
    code = main(["validate", "--config", str(cfg), "--jobs", "2"])
    out = capsys.readouterr().out
    assert out.encode() == (Path(__file__).parent / "golden" / "validate-mini.txt").read_bytes()
    assert code == 0

"""Byte-exact CLI output, pinned in tests/golden/.

`analyze` is pinned for every preset.  `simulate` is pinned on short
fixed-seed runs that cover both check modes, both sweep values of
desk-fig5, and a table antenna whose peak (21 dBi) exceeds the analytic
maximum directivity at the same beamwidth.  `sweep-power` is pinned on
paper-fig5 and paper-fig6, on desk-fig5 with the series engine under the
logistic shape, and on paper-fig4 with the 21 dBi table antenna.

Regenerate only for an intended change of output, and say which file moved:

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

import pytest

from beamcap import cli_rows
from beamcap.scenario import PRESETS, load_scenario

GOLDEN = Path(__file__).parent / "golden"
SHORT = {"replications": "2", "warmup_s": "4", "horizon_s": "12", "seed": "7"}

CASES = {f"analyze-{preset}.csv": ("analyze", preset, {}) for preset in PRESETS}
CASES.update({f"analyze-paper-fig6-{variant}.csv": ("analyze", "paper-fig6", {"variant": variant})
              for variant in ("logistic", "piecewise-linear")})
SIM_CASES = {
    "simulate-desk-fig4.csv": ("simulate", "desk-fig4", SHORT),
    "simulate-desk-fig5.csv": ("simulate", "desk-fig5",
                               {**SHORT, "warmup_s": "1", "horizon_s": "2.5"}),
    "simulate-desk-fig4-one-way.csv": ("simulate", "desk-fig4",
                                       {**SHORT, "check_mode": "one-way"}),
    "simulate-table-antenna.csv": ("simulate", "desk-fig5",
                                   {**SHORT, "sweep_param": "", "lambda_per_m2": "0.005",
                                    "antenna": f"table:{GOLDEN / 'antenna-peak-21dbi.csv'}"}),
}
CASES.update(SIM_CASES)
RATE_CASES = {
    "sweep-power-paper-fig5.csv": ("sweep-power", "paper-fig5", {}),
    "sweep-power-paper-fig6.csv": ("sweep-power", "paper-fig6", {}),
    "sweep-power-desk-fig5-series-logistic.csv": (
        "sweep-power", "desk-fig5",
        {"mean_engine": "series", "variant": "logistic", "p_tx_step_db": "2"}),
    "sweep-power-paper-fig4-table-antenna.csv": (
        "sweep-power", "paper-fig4",
        {"antenna": f"table:{GOLDEN / 'antenna-peak-21dbi.csv'}", "sweep_param": "",
         "p_tx_step_db": "2"}),
}
CASES.update(RATE_CASES)

ROWS = {"analyze": cli_rows.analyze_rows, "simulate": cli_rows.simulate_rows,
        "sweep-power": cli_rows.sweep_power_rows}


def render(name: str) -> str:
    command, preset, overrides = CASES[name]
    return cli_rows.render_csv(ROWS[command](load_scenario(preset=preset, overrides=overrides)))


def simd_level() -> str:
    """numpy's SIMD extensions found and not found here, as numpy.show_runtime()
    lists them: analyze and sweep-power bytes may move in the last digit with them
    (README, Known limits).  The lists come from a numpy module that is not
    public, so a numpy that moves it gets a plain message, not a failed import."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
        found = [f for f in __cpu_dispatch__ if __cpu_features__[f]]
        missing = [f for f in __cpu_dispatch__ if not __cpu_features__[f]]
    except (ImportError, KeyError):
        return "numpy SIMD level unknown here; numpy.show_runtime() prints it"
    return f"numpy SIMD found: {' '.join(found)}; not found: {' '.join(missing)}"


@pytest.mark.parametrize("name", sorted(set(CASES) - set(SIM_CASES) - set(RATE_CASES)))
def test_analyze_matches_golden(name):
    assert render(name).encode() == (GOLDEN / name).read_bytes(), simd_level()


@pytest.mark.parametrize("name", sorted(SIM_CASES))
def test_simulate_matches_golden(name):
    assert render(name).encode() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", sorted(RATE_CASES))
def test_sweep_power_matches_golden(name):
    assert render(name).encode() == (GOLDEN / name).read_bytes(), simd_level()


if __name__ == "__main__":
    for name in sorted(CASES):
        (GOLDEN / name).write_text(render(name), newline="")

"""Byte-exact `analyze` output for every preset, pinned in tests/golden/.

Regenerate only for an intended change of output, and say which file moved:

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

import pytest

from beamcap import cli_rows
from beamcap.scenario import PRESETS, load_scenario

GOLDEN = Path(__file__).parent / "golden"
CASES = {f"analyze-{preset}.csv": (preset, {}) for preset in PRESETS}
CASES.update({f"analyze-paper-fig6-{variant}.csv": ("paper-fig6", {"variant": variant})
              for variant in ("logistic", "piecewise-linear")})


def render(name: str) -> str:
    preset, overrides = CASES[name]
    return cli_rows.render_csv(cli_rows.analyze_rows(load_scenario(preset=preset,
                                                                   overrides=overrides)))


@pytest.mark.parametrize("name", sorted(CASES))
def test_analyze_matches_golden(name):
    assert render(name).encode() == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    for name in sorted(CASES):
        (GOLDEN / name).write_text(render(name), newline="")

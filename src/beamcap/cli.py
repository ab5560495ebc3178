"""Command-line experiment runner.

    beamcap analyze     --preset paper-fig4
    beamcap simulate    --preset desk-fig4 --seed 7 --jobs 4
    beamcap sweep-power --preset paper-fig5 --out fig5.csv
    beamcap validate    --jobs 4

Exit codes: 0 success, 1 failed validation checks, 2 bad arguments,
configuration, placement or convergence errors.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from . import cli_rows, validation
from .queueing import NonConvergenceError
from .scenario import ScenarioError, check_simulation_budget, load_scenario, sweep_points
from .simulator import PlacementError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beamcap",
        description="Capacity analysis for dynamic networks of directional device pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("analyze", "steady-state chain metrics per sweep value"),
        ("simulate", "spatial Monte Carlo statistics per sweep value"),
        ("sweep-power", "area-rate sweep over transmit power with optimum summary"),
        ("validate", "run the acceptance checks and report verdicts"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="scenario config file (key = value lines)")
        p.add_argument("--preset", help="bundled scenario preset name")
        p.add_argument("--seed", type=int, help="override the scenario seed")
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes for replications (>= 1; at most one per replication)")
        p.add_argument("--out", help="write output to this path instead of stdout")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def _output(path):
    """The result stream; a file is opened before any work, so a bad --out fails at once."""
    if not path:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w", newline="")
    except OSError as exc:
        raise ScenarioError(f"--out: {exc}") from None


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    try:
        with _output(args.out) as out:
            scenario = None
            if args.command != "validate" or args.config or args.preset:
                scenario = load_scenario(path=args.config, preset=args.preset)
            if args.command == "simulate":
                check_simulation_budget(scn for _, _, scn in sweep_points(scenario))
            if args.command == "analyze":
                rows = cli_rows.analyze_rows(scenario)
            elif args.command == "simulate":
                rows = cli_rows.simulate_rows(scenario, jobs=args.jobs, seed=args.seed)
            elif args.command == "sweep-power":
                rows = cli_rows.sweep_power_rows(scenario)
            else:
                if scenario is None:
                    scenario = validation.desk_scenario(seed=args.seed)
                elif args.seed is not None:
                    scenario = scenario.with_value("seed", args.seed)
                check_simulation_budget([scenario])
                results = validation.run_all(scenario, jobs=args.jobs)
                if args.format == "json":
                    rows = [{"name": r.name, "passed": r.passed, "measured": r.measured,
                             "tolerance": r.tolerance, "detail": r.detail} for r in results]
                    out.write(cli_rows.render_json(rows))
                else:
                    out.write("".join(r.line() + "\n" for r in results))
                return 0 if all(r.passed for r in results) else 1
            render = cli_rows.render_json if args.format == "json" else cli_rows.render_csv
            out.write(render(rows))
            return 0
    except (ScenarioError, NonConvergenceError, PlacementError, ValueError) as exc:
        print(f"beamcap: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

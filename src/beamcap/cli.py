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
import functools
import sys

from . import cli_rows, validation
from .queueing import NonConvergenceError
from .scenario import ScenarioError, load_scenario, refusal
from .simulator import PlacementError


@functools.cache    # built on first use, from constants only; parse_args returns a new Namespace
def _build_parser() -> argparse.ArgumentParser:
    commands = {"analyze": "steady-state chain metrics per sweep value",
                "simulate": "spatial Monte Carlo statistics per sweep value",
                "sweep-power": "area-rate sweep over transmit power with optimum summary",
                "validate": "run the acceptance checks and report verdicts"}
    parser = argparse.ArgumentParser(
        prog="beamcap", usage="%(prog)s <command> [flags]", formatter_class=argparse.RawDescriptionHelpFormatter,
        description="Capacity analysis for dynamic networks of directional device pairs.",
        epilog="commands:\n" + "".join(f"  {name:<13}{text}\n" for name, text in commands.items()))
    parser.add_argument("command", choices=commands, help="flags may come before or after it")
    parser.add_argument("--config", help="scenario config file (key = value lines)")
    parser.add_argument("--preset", help="bundled scenario preset name")
    parser.add_argument("--seed", type=int, help="override the scenario's seed key (>= 0)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for replications (>= 1; at most one per replication and CPU)")
    parser.add_argument("--out", help="write output to this path instead of stdout")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
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
            preset = args.preset
            if args.command == "validate" and not (args.config or preset):
                preset = "desk-fig4"
            overrides = {} if args.seed is None else {"seed": str(args.seed)}
            scenario = load_scenario(path=args.config, preset=preset, overrides=overrides)
            if args.command == "analyze":
                rows = cli_rows.analyze_rows(scenario)
            elif args.command == "simulate":
                rows = cli_rows.simulate_rows(scenario, jobs=args.jobs)
            elif args.command == "sweep-power":
                rows = cli_rows.sweep_power_rows(scenario)
            else:
                results = validation.run_all(scenario, jobs=args.jobs)
                if args.format == "json":
                    out.write(cli_rows.render_json([vars(r) for r in results]))
                else:
                    out.write("".join(r.line() + "\n" for r in results))
                return 0 if all(r.passed for r in results) else 1
            render = cli_rows.render_json if args.format == "json" else cli_rows.render_csv
            out.write(render(rows))
            return 0
    except (NonConvergenceError, PlacementError, ValueError) as exc:   # ScenarioError included
        print(f"beamcap: error: {refusal(exc)}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

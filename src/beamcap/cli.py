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
import os
import sys

from . import cli_rows, validation
from .queueing import NonConvergenceError
from .scenario import ScenarioError, load_scenario, pattern_file, refusal
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
    """The result stream.  A file is opened for appending before any work, so a bad --out
    fails at once; main empties a regular file only once the output text exists."""
    if not path:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "a", newline="")
    except OSError as exc:
        raise ScenarioError(f"--out: {exc}") from None


def _refuse_input(out, path, what: str) -> None:
    """Refuse an --out that names an input file, which writing the output would destroy."""
    with contextlib.suppress(OSError):   # a missing input is refused where it is read
        if out and path and os.path.samefile(out, path):
            raise ScenarioError(f"--out: {out!r} is the {what} file")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    try:
        with _output(args.out) as out:
            _refuse_input(args.out, args.config, "--config")
            preset = args.preset
            if args.command == "validate" and not (args.config or preset):
                preset = "desk-fig4"
            overrides = {} if args.seed is None else {"seed": str(args.seed)}
            scenario = load_scenario(path=args.config, preset=preset, overrides=overrides)
            _refuse_input(args.out, pattern_file(scenario), "antenna table")
            render = cli_rows.render_json if args.format == "json" else cli_rows.render_csv
            code = 0
            if args.command == "analyze":
                text = render(cli_rows.analyze_rows(scenario))
            elif args.command == "simulate":
                text = render(cli_rows.simulate_rows(scenario, jobs=args.jobs))
            elif args.command == "sweep-power":
                text = render(cli_rows.sweep_power_rows(scenario))
            else:
                results = validation.run_all(scenario, jobs=args.jobs)
                code = 0 if all(r.passed for r in results) else 1
                text = (render([vars(r) for r in results]) if args.format == "json"
                        else "".join(r.line() + "\n" for r in results))
            if args.out and os.path.isfile(args.out):   # a device cannot be truncated
                out.truncate(0)   # the appending stream now writes from the start
            out.write(text)
            return code
    except (NonConvergenceError, PlacementError, ValueError) as exc:   # ScenarioError included
        print(f"beamcap: error: {refusal(exc)}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: ``run`` a config file or a built-in ``preset``; a
config with a ``sweep`` key prints a sweep table, one without it a report row.

Exit codes: 0 success, 1 configuration error or an output path that cannot be
written, 2 numerical failure (the failing stage is named on stderr).
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .scenarios import (
    CHOP_TOL,
    PRESET_NAMES,
    PRESETS,
    ConfigError,
    StageError,
    dump_mode_tables,
    format_report_csv,
    format_report_json,
    format_sweep_csv,
    format_sweep_json,
    read_config,
    run_scenario,
    run_sweep,
    scenario_from_dict,
)

# the end of the warning for a result whose grid level is not resolved
_UNRESOLVED = (f"the finest tried, leaves more than {CHOP_TOL:g} of the joint "
               f"amplitude's weight in its top Legendre degrees")
# the config keys that the common flags set, one per flag; each flag's value
# is passed on as the text given, and scenario_from_dict reads and checks it
# as it reads the same key in a config file
_FLAG_KEYS = ("output_path", "output_format", "grid_signal", "grid_idler", "modes", "phase")


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", dest="output_path", metavar="PATH",
                     help="write output here instead of stdout")
    sub.add_argument("--format", dest="output_format", metavar="csv|json",
                     help="output encoding")
    sub.add_argument("--grid-signal", metavar="N", help="signal grid size")
    sub.add_argument("--grid-idler", metavar="N", help="idler grid size")
    sub.add_argument("--modes", metavar="M", help="retained detection modes")
    sub.add_argument("--phase", metavar="on|off",
                     help="include the group-delay phase in the joint amplitude")
    sub.add_argument("--dump-modes", metavar="DIR",
                     help="also write detection-mode and idler-eigenmode sample tables")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heraldsim",
        description="Simulate heralded single-photon sources: heralding "
                    "efficiency, detection efficiency, and production rates.")
    subs = parser.add_subparsers(dest="command", required=True)

    run_p = subs.add_parser("run", help="evaluate a scenario or its sweep from a config file")
    run_p.add_argument("config")
    _add_common_flags(run_p)

    preset_p = subs.add_parser("preset", help="run a built-in worked example")
    preset_p.add_argument("name", choices=PRESET_NAMES)
    _add_common_flags(preset_p)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "preset":
            data = {"name": args.name, **PRESETS[args.name]}
        else:
            data = read_config(args.config)
        # a flag replaces the key it names before the keys are validated
        data.update((k, getattr(args, k)) for k in _FLAG_KEYS
                    if getattr(args, k) is not None)
        scenario = scenario_from_dict(data)

        if scenario.sweep is not None:
            rows = run_sweep(scenario)
            for t_value, _, report in rows:
                if not report.resolved:
                    print(f"warning: not converged at T = {t_value:.9g}: the grid, "
                          f"{_UNRESOLVED}", file=sys.stderr)
            text = (format_sweep_json(rows) if scenario.output_format == "json"
                    else format_sweep_csv(rows))
            result = None
        else:
            result = run_scenario(scenario)
            text = (format_report_json(scenario, result.report)
                    if scenario.output_format == "json"
                    else format_report_csv(scenario, result.report))
            if not result.report.resolved:
                print(f"warning: not converged: the {result.n_signal}x"
                      f"{result.n_idler} grid, {_UNRESOLVED}", file=sys.stderr)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except StageError as exc:
        print(f"numerical failure in {exc.stage}: {exc.cause}", file=sys.stderr)
        return 2

    try:
        if scenario.output_path is None:
            sys.stdout.write(text)
        else:
            Path(scenario.output_path).write_text(text)
        if args.dump_modes and result is None:
            print("warning: --dump-modes is ignored for sweeps", file=sys.stderr)
        elif args.dump_modes:
            dump_mode_tables(result, args.dump_modes)
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

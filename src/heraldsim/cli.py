"""Command-line interface: run scenarios, sweeps, and paper-figure presets.

Exit codes: 0 success, 1 configuration error or an output path that cannot be
written, 2 numerical failure (the failing stage is named on stderr).
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .scenarios import (
    PRESET_NAMES,
    ConfigError,
    Scenario,
    StageError,
    dump_mode_tables,
    format_report_csv,
    format_report_json,
    format_sweep_csv,
    format_sweep_json,
    load_scenario,
    preset,
    run_scenario,
    run_sweep,
)


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
    sub.add_argument("--format", choices=("csv", "json"), help="output encoding")
    sub.add_argument("--grid-signal", type=int, metavar="N", help="signal grid size")
    sub.add_argument("--grid-idler", type=int, metavar="N", help="idler grid size")
    sub.add_argument("--modes", type=int, metavar="M", help="retained detection modes")
    sub.add_argument("--phase", choices=("on", "off"),
                     help="include the group-delay phase in the joint amplitude")
    sub.add_argument("--dump-modes", metavar="DIR",
                     help="also write detection-mode and idler-eigenmode sample tables")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heraldsim",
        description="Simulate heralded single-photon sources: heralding "
                    "efficiency, detection efficiency, and production rates.")
    subs = parser.add_subparsers(dest="command", required=True)

    run_p = subs.add_parser("run", help="evaluate one scenario from a config file")
    run_p.add_argument("config")
    _add_common_flags(run_p)

    sweep_p = subs.add_parser("sweep", help="evaluate a sweep over the detection window")
    sweep_p.add_argument("config")
    _add_common_flags(sweep_p)

    preset_p = subs.add_parser("preset", help="run a built-in worked example")
    preset_p.add_argument("name", choices=PRESET_NAMES)
    _add_common_flags(preset_p)
    return parser


def _apply_overrides(s: Scenario, args: argparse.Namespace) -> Scenario:
    if args.grid_signal is not None:
        s = replace(s, n_signal=args.grid_signal)
    if args.grid_idler is not None:
        s = replace(s, n_idler=args.grid_idler)
    if args.modes is not None:
        s = replace(s, m_modes=args.modes)
    if args.phase is not None:
        s = replace(s, source=replace(s.source,
                                      include_group_delay_phase=args.phase == "on"))
    if args.format is not None:
        s = replace(s, output_format=args.format)
    if args.out is not None:
        s = replace(s, output_path=args.out)
    return s


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "preset":
            scenario = preset(args.name)
        else:
            scenario = load_scenario(args.config)
        scenario = _apply_overrides(scenario, args)

        if scenario.sweep is not None and args.command in ("sweep", "preset"):
            rows = run_sweep(scenario)
            text = (format_sweep_json(rows) if scenario.output_format == "json"
                    else format_sweep_csv(rows))
            result = None
        elif args.command == "sweep":
            raise ConfigError("sweep command needs a 'sweep' key in the config")
        else:
            result = run_scenario(scenario)
            text = (format_report_json(scenario, result.report)
                    if scenario.output_format == "json"
                    else format_report_csv(scenario, result.report))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except StageError as exc:
        print(f"numerical failure in {exc.stage}: {exc.cause}", file=sys.stderr)
        return 2

    try:
        _emit(text, scenario.output_path)
        if args.dump_modes and result is None:
            print("--dump-modes is ignored for sweeps", file=sys.stderr)
        elif args.dump_modes:
            dump_mode_tables(result, args.dump_modes)
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

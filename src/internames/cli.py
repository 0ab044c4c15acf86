"""Command line front end: run scenarios, diff traces, apply migrations.

Exit status: 0 success, 1 trace mismatch, 2 parse or validation error, or
a file that cannot be read or written.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import InternamesError
from .scenario import (
    BUILTIN_NAMES,
    LOADABLE_NAMES,
    _read_file,
    apply_migration,
    diff_trace,
    golden_trace,
    load_builtin,
    load_plan,
    load_scenario,
    run_scenario,
    save_scenario,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INVALID = 2


def _is_builtin(arg: str) -> bool:
    return arg in LOADABLE_NAMES


def _resolve_scenario(arg: str):
    if _is_builtin(arg):
        return load_builtin(arg)
    return load_scenario(arg)


def _golden_path_for(arg: str) -> str:
    """A builtin's golden lives in the package; a scenario file's sits beside it."""
    if _is_builtin(arg):
        here = os.path.dirname(os.path.abspath(__file__))
        return os.path.join(here, "scenarios", f"{arg}.golden")
    return os.path.splitext(arg)[0] + ".golden"


def _cmd_run(args) -> int:
    if args.bless and args.until is not None:
        # diff runs to idle, so a golden cut at a tick could never match.
        print("error: --bless freezes a run to idle; it cannot take --until", file=sys.stderr)
        return EXIT_INVALID
    scenario = _resolve_scenario(args.scenario)
    result = run_scenario(scenario, until_tick=args.until)
    text = result.trace_text + "\n"
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.bless:
        # Freezing a golden is always explicit; it is never rewritten as a
        # side effect of an ordinary run.
        path = _golden_path_for(args.scenario)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"blessed golden trace: {path}", file=sys.stderr)
    return EXIT_OK


def _cmd_diff(args) -> int:
    scenario = _resolve_scenario(args.scenario)
    result = run_scenario(scenario)
    if _is_builtin(args.golden) and not os.path.exists(args.golden):
        golden = golden_trace(args.golden)
    else:
        golden = _read_file(args.golden)
    status, message = diff_trace(result.trace_text + "\n", golden)
    print(message)
    return EXIT_OK if status == 0 else EXIT_MISMATCH


def _cmd_migrate(args) -> int:
    scenario = _resolve_scenario(args.scenario)
    plan = load_plan(args.plan)
    migrated = apply_migration(scenario, plan)
    text = save_scenario(migrated)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_list_builtin(_args) -> int:
    for name in BUILTIN_NAMES:
        print(name)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="internames",
        description="deterministic name-to-name internetworking simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and emit its trace")
    p_run.add_argument("scenario", help="scenario file path or builtin name")
    p_run.add_argument("--until", type=int, default=None, help="stop after this tick")
    p_run.add_argument("--trace", default=None, help="write the trace to this file")
    p_run.add_argument("--bless", action="store_true",
                       help="freeze the produced trace as the scenario's golden file")
    p_run.set_defaults(fn=_cmd_run)

    p_diff = sub.add_parser("diff", help="run a scenario and compare against a golden trace")
    p_diff.add_argument("scenario", help="scenario file path or builtin name")
    p_diff.add_argument("golden", help="golden trace file path or builtin name")
    p_diff.set_defaults(fn=_cmd_diff)

    p_mig = sub.add_parser("migrate", help="apply a migration plan to a scenario")
    p_mig.add_argument("scenario", help="scenario file path or builtin name")
    p_mig.add_argument("plan", help="migration plan file")
    p_mig.add_argument("--out", default=None, help="write the migrated scenario here")
    p_mig.set_defaults(fn=_cmd_migrate)

    p_list = sub.add_parser("list-builtin", help="list builtin scenario names")
    p_list.set_defaults(fn=_cmd_list_builtin)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (InternamesError, OSError) as exc:
        # An OSError here is from a file the command writes; a file it
        # reads raises ParseError.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())

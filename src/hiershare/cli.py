"""Command-line front end: run scenarios, verify curve profiles, snapshot
and resume runs.

``run`` drives ``World.run``, fresh or resumed: register (all users in one
batch) -> round -> distribute -> epochs -> final reconstruction. It writes
``<name>.report`` (JSON, schema-versioned) and ``<name>.txt`` (fixed-width
summary table). Exit codes: 0 success, 1 configuration error, 2 invariant
violation or failed final reconstruction.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .config import (
    ConfigError,
    bundled_scenario_names,
    load_bundled_scenario,
    load_scenario,
    parse_curve_inline,
    parse_scenario,
    read_json,
    serialize_scenario,
)
from .curve import PROFILES, validate_curve
from .errors import HierShareError, InvariantViolation
from .simnet import SimReport, World
from .snapshot import load_world, save_world

ENV_OUT = "HIERSHARE_OUT"

TABLE_HEADER = (
    f"{'epoch':>5} | {'messages':>8} | {'compromises':>11} | "
    f"{'claims':>6} | {'verdicts':>8} | {'secret-intact':>13}"
)


def render_table(report: SimReport) -> str:
    lines = [TABLE_HEADER, "-" * len(TABLE_HEADER)]
    for row in report.rows:
        lines.append(
            f"{row['epoch']:>5} | {row['messages_total']:>8} | "
            f"{len(row['compromised']):>11} | {row['claims']:>6} | "
            f"{len(row['verdicts']):>8} | {str(row['secret_intact']).lower():>13}"
        )
    final = report.final
    lines.append("-" * len(TABLE_HEADER))
    lines.append(
        f"final: reconstruction-correct={str(final['reconstruction_correct']).lower()} "
        f"secret-recovered-by-adversary={str(final['secret_recovered_by_adversary']).lower()}"
    )
    return "\n".join(lines) + "\n"


def report_json(report: SimReport) -> str:
    return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"


def write_reports(report: SimReport, out_dir: str) -> tuple[str, str]:
    os.makedirs(out_dir, exist_ok=True)
    base = os.path.join(out_dir, report.scenario)
    report_path = base + ".report"
    table_path = base + ".txt"
    with open(report_path, "w", encoding="utf-8") as handle:
        handle.write(report_json(report))
    with open(table_path, "w", encoding="utf-8") as handle:
        handle.write(render_table(report))
    return report_path, table_path


def _resolve_scenario(ref: str):
    if os.path.exists(ref):
        return load_scenario(ref)
    if ref in bundled_scenario_names():
        return load_bundled_scenario(ref)
    raise ConfigError(
        f"{ref}: no such scenario file; bundled scenarios are "
        f"{', '.join(bundled_scenario_names())}"
    )


def _with_overrides(config, args, source: str):
    """The scenario with the ``--seed``/``--epochs`` overrides applied,
    validated like the file's own fields (events and script entries must
    still fall within the epochs)."""
    if args.seed is None and args.epochs is None:
        return config
    data = serialize_scenario(config)
    if args.seed is not None:
        data["seed"] = str(args.seed)
    if args.epochs is not None:
        data["epochs"] = args.epochs
    return parse_scenario(data, source=f"{source} with overrides")


def cmd_run(args) -> int:
    out_dir = args.out or os.environ.get(ENV_OUT) or "."
    if args.resume:
        if args.scenario or args.seed is not None:
            print("run --resume takes no scenario or --seed override", file=sys.stderr)
            return 1
        world = load_world(args.resume)
        world.config = _with_overrides(world.config, args, args.resume)
        if world.config.epochs < world.epoch:
            raise ConfigError(
                f"{args.resume}: --epochs {world.config.epochs} ends before "
                f"the snapshot's epoch {world.epoch}"
            )
    else:
        if not args.scenario:
            print("run needs a scenario (or --resume <file>)", file=sys.stderr)
            return 1
        world = World(_with_overrides(_resolve_scenario(args.scenario), args, args.scenario))

    if args.save_at is not None and not 0 <= args.save_at <= world.config.epochs:
        raise ConfigError(
            f"--save-at {args.save_at}: the run's epoch boundaries are 0..{world.config.epochs}"
        )
    snapshot_path = None

    def save_if_due(world: World) -> None:
        """Snapshot the --save-at boundary when this run reaches it."""
        nonlocal snapshot_path
        if args.save_at == world.epoch:
            os.makedirs(out_dir, exist_ok=True)
            snapshot_path = os.path.join(out_dir, f"{world.config.name}.epoch{world.epoch}.snapshot")
            save_world(world, snapshot_path)

    final = world.run(save_if_due).final

    report_path, table_path = write_reports(world.report, out_dir)
    sys.stdout.write(render_table(world.report))
    print(f"report: {report_path}")
    print(f"table:  {table_path}")
    if snapshot_path:
        print(f"snapshot: {snapshot_path}")

    if not final["reconstruction_correct"]:
        print("invariant violated: reconstruction-correct", file=sys.stderr)
        return 2
    return 0


def cmd_verify_curve(args) -> int:
    ref = args.profile
    if ref in PROFILES:
        params = PROFILES[ref]
    elif not os.path.exists(ref):
        print(
            f"{ref}: not a known profile ({', '.join(sorted(PROFILES))}) "
            f"or parameter file",
            file=sys.stderr,
        )
        return 1
    else:
        params = parse_curve_inline(read_json(ref), ref)
    report = validate_curve(params)
    print(f"curve {params.name!r}: p={params.p} a={params.a} b={params.b} "
          f"G=({params.gx}, {params.gy}) order={params.order}")
    if report.ok:
        print("valid")
        return 0
    for failure in report.failures:
        print(f"invalid: {failure}")
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hiershare",
        description="Hierarchical threshold secret sharing simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario")
    run_p.add_argument("scenario", nargs="?", help="scenario file or bundled name")
    run_p.add_argument("--seed", type=int, help="override the scenario seed")
    run_p.add_argument("--epochs", type=int, help="override the epoch count")
    run_p.add_argument("--out", help=f"output directory (default ${ENV_OUT} or .)")
    run_p.add_argument("--save-at", type=int, dest="save_at", metavar="EPOCH",
                       help="write a snapshot at this epoch boundary")
    run_p.add_argument("--resume", metavar="FILE", help="resume from a snapshot")
    run_p.set_defaults(func=cmd_run)

    vc_p = sub.add_parser("verify-curve", help="validate a curve profile or file")
    vc_p.add_argument("profile", help="profile name or JSON parameter file")
    vc_p.set_defaults(func=cmd_verify_curve)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        print(f"invariant violated: {exc.invariant}"
              + (f" ({exc.detail})" if exc.detail else ""), file=sys.stderr)
        return 2
    except HierShareError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

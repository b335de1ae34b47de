"""Command-line entry point for the benchmark harness.

Subcommands:

* ``assim run --config FILE [--set key=value ...] --out DIR`` runs the
  configured experiment and writes results.csv, aggregates.csv,
  pod_decay.csv, diagnostics.csv (where applicable), timings.csv and
  run.json into DIR;
* ``assim pod-decay --config FILE [--set ...] [--out DIR]`` prints (or
  writes) the rows ``assim run`` writes to pod_decay.csv, computed from the
  experiment's offline set-up alone, with no solves;
* ``assim info`` prints the configuration schema.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bench import (
    POD_DECAY_FIELDS,
    _write_table,
    describe_schema,
    load_config,
    run_experiment,
    setup_experiment,
)
from .solver import StabilityError

__all__ = ["main"]


def _add_config_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="path to a key = value config file")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one config key (repeatable)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="assim",
        description="state-estimation benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment and write result files")
    _add_config_args(run_p)
    run_p.add_argument("--out", required=True, help="output directory")

    decay_p = sub.add_parser("pod-decay", help="emit only the reduced-model decay curves")
    _add_config_args(decay_p)
    decay_p.add_argument("--out", default=None, help="output directory (default: print)")

    sub.add_parser("info", help="print the configuration schema")
    return parser


def _cmd_run(args) -> int:
    cfg = load_config(args.config, args.overrides)
    result = run_experiment(cfg)
    result.write(args.out)
    aggregates = result.aggregates
    # every row is in one aggregate, so this counts them without building them
    rows = sum(agg["count"] for agg in aggregates)
    print(f"{cfg['experiment']}: {rows} rows -> {args.out}")
    header = f"{'method':>8} {'n':>4} {'m':>4} {'alpha':>6} | {'mean%':>8} {'max%':>8} {'min%':>8} {'std%':>8}"
    print(header)
    for agg in aggregates:
        print(
            f"{agg['method']:>8} {agg['n']:>4} {agg['m']:>4} {agg['alpha']:>6g} | "
            f"{100 * agg['mean']:8.3f} {100 * agg['max']:8.3f} "
            f"{100 * agg['min']:8.3f} {100 * agg['stddev']:8.3f}"
        )
    return 0


def _cmd_pod_decay(args) -> int:
    cfg = load_config(args.config, args.overrides)
    rows = setup_experiment(cfg).decay()
    if args.out is None:
        print("label,n,approximation_error")
        for row in rows:
            print(f"{row['label']},{row['n']},{row['approximation_error']!r}")
    else:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_table(out / "pod_decay.csv", POD_DECAY_FIELDS, rows)
        print(f"pod decay -> {out / 'pod_decay.csv'}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "pod-decay":
            return _cmd_pod_decay(args)
        if args.command == "info":
            print(describe_schema())
            return 0
    # ValueError covers ConfigError and the library's input checks
    except (ValueError, StabilityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1


if __name__ == "__main__":
    sys.exit(main())

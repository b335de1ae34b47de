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

The program starts at :func:`console`, which ends the process once ``main``
has returned and its output is flushed; :func:`main` returns the exit code,
for tests and library callers.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import NoReturn

from .bench import (
    POD_DECAY_FIELDS,
    _table_text,
    _write_table,
    describe_schema,
    load_config,
    run_experiment,
    setup_experiment,
)

__all__ = ["console", "main"]


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
    lines = [f"{cfg['experiment']}: {rows} rows -> {args.out}",
             f"{'method':>8} {'n':>4} {'m':>4} {'alpha':>6} | "
             f"{'mean%':>8} {'max%':>8} {'min%':>8} {'std%':>8}"]
    # alpha by repr, so that two swept values never print the same label
    lines += [f"{agg['method']:>8} {agg['n']:>4} {agg['m']:>4} {agg['alpha']!r:>6} | "
              f"{100 * agg['mean']:8.3f} {100 * agg['max']:8.3f} "
              f"{100 * agg['min']:8.3f} {100 * agg['stddev']:8.3f}" for agg in aggregates]
    lines += [f"skipped n={cell['n']} m={cell['m']}: {cell['reason']}" for cell in result.skipped]
    print("\n".join(lines))
    return 0


def _cmd_pod_decay(args) -> int:
    cfg = load_config(args.config, args.overrides)
    rows = setup_experiment(cfg).decay()
    if args.out is None:
        print(_table_text(POD_DECAY_FIELDS, rows), end="")
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
        # an --out whose nearest existing path is not a directory fails first, creating nothing
        if (out := getattr(args, "out", None)) is not None:
            existing = next(p for p in (Path(out), *Path(out).parents) if os.path.lexists(p))
            if not existing.is_dir():
                raise ValueError(f"--out {out}: {existing} exists and is not a directory")
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "pod-decay":
            return _cmd_pod_decay(args)
        if args.command == "info":
            print(describe_schema())
            return 0
    except BrokenPipeError:     # stdout's reader has gone; console() ends quietly
        raise
    # ValueError covers ConfigError and the library's input checks; MemoryError,
    # a size too large to allocate
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1


def console() -> NoReturn:
    """Run :func:`main`, flush stdout and stderr, and end the process with its code.

    ``os._exit`` skips the interpreter's teardown (module clean-up and a last
    garbage collection over numpy's objects), 20-30 ms of every run.  That
    is safe because every file ``main`` writes is closed before it returns and
    the package registers no ``atexit`` work.  A closed stdout pipe (``assim
    info | head -n 1``) ends the process with status 1 and nothing on stderr,
    as the "Note on SIGPIPE" in the ``signal`` module's documentation
    advises.  Any other exception propagates, with its traceback and a normal
    shutdown.
    """
    try:
        code = main()
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        os._exit(1)
    os._exit(code)


if __name__ == "__main__":
    console()

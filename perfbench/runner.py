"""Library-level benchmark runner; every invocation is a fresh process.

    python3 perfbench/runner.py MODE --workload NAME --seed N [--seconds S] [--out DIR]

Modes:

* ``setup``: time ``import assim`` plus the offline build, then exit;
* ``online``: build, then run passes over the workload's cases, in blocks
  of ``BLOCK_CASES``, until a pass ends after ``--seconds``; the rows of the
  first pass are written to ``--out`` with the package's own writer;
* ``traced``: as ``online``, but every block runs twice, untraced then with
  a span around each call into the package, followed by the decay curves
  and emission under spans.  Spans go to ``--out/trace.jsonl`` at the end.

A case that raises is counted as failed and the run goes on.  Prints one
JSON object on stdout.  Needs ``src`` on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

from tracing import NullTracer, Tracer
from workloads import NOMINAL_PROBE_S, RESIDUAL_BOUND, WORKLOADS

BLOCK_CASES = 50


def run_cases(plan, seconds: float, tracer, twice: bool, probe=None) -> dict:
    """Run ``plan.cases`` in blocks; with ``twice`` each block runs untraced, then traced.

    With ``probe``, the machine-speed probe runs before the first block and
    after every untraced block; each block keeps the mean of the two probes
    around it.  Blocks are (cases, seconds, probe seconds, case latencies in ms).
    """
    cases = plan.cases
    first: list = [None] * len(cases)
    untraced = NullTracer()
    sides = (untraced, tracer) if twice else (untraced,)
    stats = {"attempted": 0, "failed": 0, "failures": {}, "residual_max": 0.0,
             "blocks": {"untraced": [], "traced": []}, "passes": 0,
             "greedy_steps": [], "jump_hits": []}

    def fail(reason: str) -> None:
        stats["failed"] += 1
        stats["failures"][reason] = stats["failures"].get(reason, 0) + 1

    seq, pos, start = 0, 0, perf_counter()
    last_probe = probe() if probe else NOMINAL_PROBE_S
    while True:
        block = range(pos, min(pos + BLOCK_CASES, len(cases)))
        for side in sides:
            traced = side is not untraced
            latencies = []
            block_start = perf_counter()
            for i in block:
                stats["attempted"] += 1
                seq += 1
                t = perf_counter()
                try:
                    with side.span("runner.case", seq):
                        out = cases[i](side, seq)
                except Exception as exc:        # a raising case is a failed operation
                    fail(type(exc).__name__)
                    continue
                latencies.append((perf_counter() - t) * 1e3)
                stats["residual_max"] = max(stats["residual_max"], out.residual)
                if out.residual > RESIDUAL_BOUND:
                    fail("constraint_residual")
                key = [(r.error_e, r.beta) for r in out.rows]
                if first[i] is None:
                    first[i] = out
                    if out.greedy_steps is not None:
                        stats["greedy_steps"].append(out.greedy_steps)
                        stats["jump_hits"].append(out.jump_hit)
                elif key != [(r.error_e, r.beta) for r in first[i].rows]:
                    fail("rerun_mismatch")
            elapsed = perf_counter() - block_start
            if traced:
                stats["blocks"]["traced"].append((len(block), elapsed, None, latencies))
            else:
                now = probe() if probe else NOMINAL_PROBE_S
                stats["blocks"]["untraced"].append(
                    (len(block), elapsed, (last_probe + now) / 2, latencies))
                last_probe = now
        pos = block.stop
        if pos == len(cases):
            pos = 0
            stats["passes"] += 1
            if perf_counter() - start >= seconds:
                break
    stats["first"] = [out for out in first if out is not None]
    return stats


def _per_case_ms(blocks) -> float:
    cases = sum(b[0] for b in blocks)
    return 1e3 * sum(b[1] for b in blocks) / cases if cases else 0.0


def gain_ratio(rows, corrected: str) -> float:
    """Mean corrected error / mean plain error over alpha > 0 rows (all rows if none)."""
    biased = [r for r in rows if r.alpha > 0] or rows
    plain = [r.error_e for r in biased if r.method == "pbdw"]
    corr = [r.error_e for r in biased if r.method == corrected]
    if not plain or not corr:
        return 0.0
    return (sum(corr) / len(corr)) / (sum(plain) / len(plain))


def _versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("mode", choices=("setup", "online", "traced"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.mode == "traced" else NullTracer()

    t0 = perf_counter()
    with tracer.span("assim.import"):
        import assim.bench
    import_s = perf_counter() - t0
    scipy_optimize_loaded = "scipy.optimize" in sys.modules
    from plan import build_plan

    with tracer.span("runner.setup"):
        cfg = assim.bench.load_config(workload.config, workload.set_args(args.seed))
        plan = build_plan(cfg, tracer)
    setup_s = perf_counter() - t0
    report = {"import_s": import_s, "setup_s": setup_s,
              "scipy_optimize_loaded": scipy_optimize_loaded, "counters": plan.counters,
              "cases_per_pass": len(plan.cases), "pairs": len(plan.pairs)}
    if args.mode != "online":
        report["versions"] = _versions()
    if args.mode == "setup":
        from probe import probe
        report["probe_s"] = sorted(probe() for _ in range(3))[1]
        print(json.dumps(report))
        return 0

    if args.mode == "traced":
        stats = run_cases(plan, args.seconds, tracer, twice=True)
    else:
        from probe import probe
        stats = run_cases(plan, args.seconds, tracer, twice=False, probe=probe)
    first = stats.pop("first")
    rows = [r for out in first for r in out.rows]
    steps, hits = stats.pop("greedy_steps"), stats.pop("jump_hits")
    blocks = stats.pop("blocks")
    report.update(stats)
    report.update({
        # scaled to the nominal machine speed: times x NOMINAL_PROBE_S / probe
        "block_rates": [n / t * p / NOMINAL_PROBE_S for n, t, p, _ in blocks["untraced"]],
        "latencies_ms": [ms * NOMINAL_PROBE_S / p for _, _, p, lat in blocks["untraced"]
                         for ms in lat],
        "raw_block_rates": [n / t for n, t, _, _ in blocks["untraced"]],
        "probe_s": [p for _, _, p, _ in blocks["untraced"]],
        "rows": len(rows),
        "gain_ratio": gain_ratio(rows, workload.corrected),
        "greedy_steps_mean": sum(steps) / len(steps) if steps else 0.0,
        "jump_hit_rate": sum(hits) / len(hits) if hits else 0.0,
    })
    if args.mode == "traced":
        report["untraced_case_ms"] = _per_case_ms(blocks["untraced"])
        report["traced_case_ms"] = _per_case_ms(blocks["traced"])

    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with tracer.span("rom.decay"):
            decay = plan.decay() if args.mode == "traced" else []
        result = assim.bench.RunResult(cfg, rows, decay,
                                       [d for o in first for d in o.diagnostics],
                                       [t for o in first for t in o.timings])
        with tracer.span("bench.write"):
            result.write(out / "result")
        report["bytes_written"] = sum(p.stat().st_size for p in (out / "result").iterdir())
        if args.mode == "traced":
            tracer.write(out / "trace.jsonl")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

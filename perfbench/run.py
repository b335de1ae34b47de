"""Benchmark entry point; run it from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures what a user sees, with no tracing:

* ``setup_s``: median over fresh runner processes of ``import assim`` plus
  the offline build;
* ``wall_s`` and ``peak_rss_mb``: median over ``assim run`` processes, from
  launch to exit; every run's output files are checked, all runs must write
  byte-identical results.csv, and the aggregates must match the library
  runner's (and, for the default seed, the stored reference);
* ``cases_per_s``, ``case_ms_p50``, ``case_ms_p99``: the runner's online phase,
  ``--seconds`` long;
* ``err_plain_mean``, ``err_corrected_mean``: accuracy from aggregates.csv;
* ``ok_frac``: operations that succeeded over operations attempted.

Every time and rate is scaled to a nominal machine speed with the probe in
``probe.py`` (README.md, "Machine-speed scaling").  Everything runs on one CPU.

``--trace 1`` runs the library runner once with a span around every call it makes
into the package and reports per-layer numbers.

Facts about the machine and the run go on the line before the result.  The
last line of stdout is the result object.  The package under test runs only
in child processes.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from time import perf_counter

import checks
import tracing
from probe import probe
from workloads import (AGG_RTOL, BLAS_THREADS, DEFAULT_SEED, NOMINAL_PROBE_S, WORKLOADS, blas_env,
                       percentile)

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
ROUNDS = 3              # each adds set-ups, assim runs and one online runner process
SETUPS_PER_ROUND = 2    # fresh set-up processes per round
CLI_SECONDS_PER_ROUND = 3.0     # assim run is repeated until a round spent this long in it
CHILD_TIMEOUT_S = 150
SLICE_S = 0.25          # assim run is paused for a probe after every slice


class Ledger:
    """Operations attempted and failed, and the output-check problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, problems: list[str], what: str) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)

    def runner_cases(self, report: dict) -> None:
        """Add the cases a runner process attempted and the ones that failed."""
        self.attempted += report["attempted"]
        self.failed += report["failed"]
        self.problems.extend(f"runner case: {k} x{v}" for k, v in report["failures"].items())


def child(args: list[str], log: Path, sliced: bool = False):
    """Run a child from the checkout root.

    Returns (exit code, wall s, scaled wall s, peak RSS KiB, stdout).  With
    ``sliced`` the child is stopped every SLICE_S seconds while the probe runs
    here: each slice's time is scaled by the mean of the probes on both sides
    of it and the pauses are not counted.  Without it the scaled wall is None.
    """
    env = blas_env()
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with open(log, "w") as out, open(log.with_suffix(".err"), "w") as err:
        before = probe() if sliced else None
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env, stdout=out,
                                stderr=err, stdin=subprocess.DEVNULL)
        try:
            if sliced:
                status, usage, wall, scaled = _sliced_wait(proc, start, before)
            else:
                timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
                timer.start()
                try:
                    _, status, usage = os.wait4(proc.pid, 0)
                finally:
                    timer.cancel()
                wall, scaled = perf_counter() - start, None
        except BaseException:
            with contextlib.suppress(OSError):     # the child may be reaped already
                proc.kill()                        # also ends a child left stopped
                os.waitpid(proc.pid, 0)
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, scaled, usage.ru_maxrss, log.read_text()


def _sliced_wait(proc, resumed: float, before: float):
    wall = scaled = 0.0
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        now = perf_counter()
        if not pid:
            if now - resumed < SLICE_S:
                time.sleep(0.005)
                continue
            os.kill(proc.pid, signal.SIGSTOP)
            # returns the exit status instead if the child ended meanwhile
            _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
        after = probe()
        wall += now - resumed
        scaled += (now - resumed) * NOMINAL_PROBE_S / ((before + after) / 2)
        if not os.WIFSTOPPED(status):
            return status, usage, wall, scaled
        if wall > CHILD_TIMEOUT_S:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            return status, usage, wall, scaled
        before = after
        os.kill(proc.pid, signal.SIGCONT)
        resumed = perf_counter()


def runner(mode: str, workload: str, seed: int, log: Path, *extra: str) -> dict:
    code, _, _, _, out = child([str(HERE / "runner.py"), mode, "--workload", workload,
                             "--seed", str(seed), *extra], log)
    if code != 0:
        raise RuntimeError(f"runner {mode} exited {code}; see {log.with_suffix('.err')}")
    return json.loads(out.strip().splitlines()[-1])


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def measure_end_to_end(name: str, seed: int, seconds: float, work: Path, ledger: Ledger,
                       facts: dict) -> dict:
    """ROUNDS rounds, each: set-up processes, ``assim run``s, one online runner.

    Spreading every kind of sample over the whole run makes each median less
    sensitive to a slow spell of the machine.
    """
    workload = WORKLOADS[name]
    cli = ["-m", "assim.cli", "run", "--config", workload.config]
    for arg in workload.set_args(seed):
        cli += ["--set", arg]
    setups, walls, raw_walls, rss, rates, raw_rates, latencies = [], [], [], [], [], [], []
    for r in range(ROUNDS):
        for i in range(SETUPS_PER_ROUND):
            setups.append(runner("setup", name, seed, work / f"setup{r}_{i}.log"))
            ledger.attempted += 1

        # repeat short runs so that every round spends about the same time in them
        spent = 0.0
        while spent < CLI_SECONDS_PER_ROUND:
            i = len(walls)
            out = work / f"cli{i}"
            code, wall, scaled, maxrss_kib, _ = child(cli + ["--out", str(out)],
                                                      work / f"cli{i}.log", sliced=True)
            problems = [f"exit code {code}"] if code else checks.check_run_dir(out, workload)
            if i and not problems and (out / "results.csv").read_bytes() != (
                    work / "cli0" / "results.csv").read_bytes():
                problems.append("results.csv differs from the first run's")
            ledger.op(problems, f"assim run #{i}")
            walls.append(scaled)
            raw_walls.append(wall)
            rss.append(maxrss_kib / 1024)
            spent += wall

        online = runner("online", name, seed, work / f"online{r}.log",
                        "--seconds", str(seconds / ROUNDS), "--out", str(work / f"online{r}"))
        ledger.runner_cases(online)
        rates += online["block_rates"]
        raw_rates += online["raw_block_rates"]
        latencies += online["latencies_ms"]

    aggregates = work / "cli0" / "aggregates.csv"
    ledger.op(checks.compare_aggregates(work / "online0" / "result" / "aggregates.csv",
                                        aggregates, AGG_RTOL), "runner vs assim run")
    if seed == DEFAULT_SEED:
        ledger.op(checks.compare_aggregates(aggregates, HERE / "reference" / f"{name}.csv",
                                            AGG_RTOL), "reference")
    plain, corrected = checks.error_means(aggregates, workload)
    facts["versions"] = setups[0]["versions"]
    facts["import_s_median"] = statistics.median(s["import_s"] for s in setups)
    facts["raw"] = {"wall_s": statistics.median(raw_walls),
                    "setup_s": statistics.median(s["setup_s"] for s in setups),
                    "cases_per_s": statistics.median(raw_rates),
                    "probe_s": statistics.median(s["probe_s"] for s in setups)}
    facts["samples"] = {"setup_s": len(setups), "wall_s": len(walls), "peak_rss_mb": len(rss),
                        "cases_per_s": len(rates), "case_ms": len(latencies),
                        "cases_per_pass": online["cases_per_pass"]}
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(s["setup_s"] * NOMINAL_PROBE_S / s["probe_s"]
                                     for s in setups),
        "cases_per_s": statistics.median(rates),
        "case_ms_p50": percentile(latencies, 50),
        "case_ms_p99": percentile(latencies, 99),
        "peak_rss_mb": statistics.median(rss),
        "err_plain_mean": plain,
        "err_corrected_mean": corrected,
        "ok_frac": (ledger.attempted - ledger.failed) / ledger.attempted,
    }


def measure_layers(name: str, seed: int, seconds: float, work: Path, ledger: Ledger,
                   facts: dict) -> dict:
    workload = WORKLOADS[name]
    report = runner("traced", name, seed, work / "traced.log", "--seconds", str(seconds),
                    "--out", str(work / "traced"))
    ledger.runner_cases(report)
    result = work / "traced" / "result"
    ledger.op(checks.check_run_dir(result, workload), "runner output")
    if seed == DEFAULT_SEED:
        ledger.op(checks.compare_aggregates(result / "aggregates.csv",
                                            HERE / "reference" / f"{name}.csv", AGG_RTOL),
                  "reference")
    spans = tracing.by_name(tracing.read_spans(work / "traced" / "trace.jsonl"))

    def total(span: str) -> float:
        return spans.get(span, {}).get("self_s", 0.0)

    def calls(span: str) -> int:
        return spans.get(span, {}).get("calls", 0)

    def ms(span: str, q: float) -> float:
        return 1e3 * percentile(spans.get(span, {}).get("durations", []), q)

    solves = sum(calls(s) for s in ("solver.plain", "solver.boxed", "bias.corrected",
                                    "multiscale.split"))
    facts["versions"] = report["versions"]
    facts["samples"] = {span: entry["calls"] for span, entry in spans.items()}
    counters = report["counters"]
    untraced = report["untraced_case_ms"]
    raised = sum(v for k, v in report["failures"].items()
                 if k not in ("constraint_residual", "rerun_mismatch"))
    return {
        "manifold.sample_s": total("manifold.sample"),
        "manifold.snapshots": counters.get("manifold.snapshots", 0),
        "rom.pod_s": total("rom.pod"),
        "rom.pod_calls": calls("rom.pod"),
        "obs.space_build_s": total("obs.space_build"),
        "obs.space_builds": calls("obs.space_build"),
        "multiscale.dictionary_s": total("multiscale.dictionary"),
        "multiscale.dictionary_size": counters.get("multiscale.dictionary_size", 0),
        "solver.box_build_s": total("solver.box_build"),
        "assim.import_s": total("assim.import"),
        "assim.scipy_optimize_loaded": int(report["scipy_optimize_loaded"]),
        "bias.noise_s": total("bias.noise"),
        "bias.noise_calls": calls("bias.noise"),
        "solver.plain_s": total("solver.plain"),
        "solver.plain_calls": calls("solver.plain"),
        "solver.plain_ms_p50": ms("solver.plain", 50),
        "solver.plain_ms_p99": ms("solver.plain", 99),
        "bias.corrected_s": total("bias.corrected"),
        "bias.corrected_calls": calls("bias.corrected"),
        "bias.corrected_ms_p50": ms("bias.corrected", 50),
        "solver.solves_per_pair": solves / report["pairs"],
        "solver.boxed_s": total("solver.boxed"),
        "solver.boxed_calls": calls("solver.boxed"),
        "solver.boxed_ms_p50": ms("solver.boxed", 50),
        "multiscale.split_s": total("multiscale.split"),
        "multiscale.split_calls": calls("multiscale.split"),
        "multiscale.split_ms_p50": ms("multiscale.split", 50),
        "multiscale.greedy_iters_mean": report["greedy_steps_mean"],
        "multiscale.jump_hit_rate": report["jump_hit_rate"],
        "rom.decay_s": total("rom.decay"),
        "bench.write_s": total("bench.write"),
        "bench.bytes_written": report["bytes_written"],
        "bench.rows": report["rows"],
        "bench.cells_skipped": counters.get("bench.cells_skipped", 0),
        "solver.failed": raised,
        "solver.constraint_residual_max": report["residual_max"],
        "bias.gain_ratio": report["gain_ratio"],
        "trace.untraced_case_ms": untraced,
        "trace.overhead_frac": report["traced_case_ms"] / untraced - 1 if untraced else 0.0,
    }


def units(kind: str) -> dict:
    """Unit of each metric of one kind ("end_to_end" or "per_layer") in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="assim benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("BENCHMARK.json", "src/assim/__init__.py",
                           WORKLOADS[args.workload].config)
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: run from the root of an assim checkout; missing {missing}",
              file=sys.stderr)
        return 2

    # one CPU for this process and, by inheritance, every child: the probe that
    # run.py takes between slices of assim run then measures that run's CPU
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    facts = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
             "python": sys.version.split()[0], "commit": git_commit(),
             "case_count": WORKLOADS[args.workload].count}
    ledger = Ledger()
    # one untimed process first: fills __pycache__ and the page cache
    runner("setup", args.workload, args.seed, work / "warmup.log")
    if args.trace:
        values = measure_layers(args.workload, args.seed, args.seconds, work, ledger, facts)
        unit = units("per_layer")
    else:
        values = measure_end_to_end(args.workload, args.seed, args.seconds, work, ledger, facts)
        unit = units("end_to_end")
    if set(values) != set(unit):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(unit))} disagree with BENCHMARK.json")
    for problem in ledger.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"facts": facts}))
    print(json.dumps({
        "correct": not ledger.problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": unit[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

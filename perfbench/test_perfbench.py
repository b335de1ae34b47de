"""Tests of the benchmark's own parts: failure accounting, checks and tracing.

Run from the repository root with ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
from plan import build_plan  # noqa: E402
from runner import run_cases  # noqa: E402
from workloads import AGG_RTOL, DEFAULT_SEED, WORKLOADS  # noqa: E402

from assim.bench import load_config, run_experiment  # noqa: E402

ROOT = HERE.parent


def test_raising_case_is_counted_and_the_run_goes_on():
    # example3_analog at n=8, m=10 has beta ~ 4e-17: every boxed solve raises
    # StabilityError, while the n=3 cell next to it solves normally
    cfg = load_config(ROOT / "configs/example3.cfg",
                      ["sweep.n=3,8", "sweep.m=10", "validation.count=4"])
    plan = build_plan(cfg, tracing.NullTracer())
    stats = run_cases(plan, 0.0, tracing.NullTracer(), twice=False)
    assert stats["attempted"] == 8
    assert stats["failed"] == 4
    assert stats["failures"] == {"StabilityError": 4}
    assert {r.n for out in stats["first"] for r in out.rows} == {3}


@pytest.fixture(scope="module")
def boxed_run(tmp_path_factory):
    workload = WORKLOADS["boxed_flow"]
    cfg = load_config(ROOT / workload.config, workload.set_args(DEFAULT_SEED))
    out = tmp_path_factory.mktemp("boxed_flow")
    run_experiment(cfg).write(out)
    return workload, cfg, out


def test_run_output_passes_checks_and_matches_reference(boxed_run):
    workload, _, out = boxed_run
    assert checks.check_run_dir(out, workload) == []
    reference = HERE / "reference" / "boxed_flow.csv"
    assert checks.compare_aggregates(out / "aggregates.csv", reference, AGG_RTOL) == []


def test_runner_replicates_the_harness(boxed_run):
    _, cfg, out = boxed_run
    stats = run_cases(build_plan(cfg, tracing.NullTracer()), 0.0, tracing.NullTracer(),
                      twice=False)
    harness = {(r.case_id, r.method, r.n, r.m): r.error_e for r in run_experiment(cfg).rows}
    runner = {(r.case_id, r.method, r.n, r.m): r.error_e
              for o in stats["first"] for r in o.rows}
    assert runner == harness
    assert stats["failed"] == 0


def test_checks_catch_a_missing_row_and_a_changed_error(boxed_run, tmp_path):
    workload, _, out = boxed_run
    lines = (out / "results.csv").read_text().splitlines(keepends=True)
    (tmp_path / "results.csv").write_text("".join(lines[:-1]))
    for name in checks.RUN_FILES[1:]:
        (tmp_path / name).write_bytes((out / name).read_bytes())
    assert any("rows" in p for p in checks.check_run_dir(tmp_path, workload))

    text = (out / "aggregates.csv").read_text()
    mean = text.splitlines()[2].split(",")[5]
    changed = tmp_path / "aggregates.csv"
    changed.write_text(text.replace(mean, repr(float(mean) * (1 + 1e-4)), 1))
    assert checks.compare_aggregates(changed, out / "aggregates.csv", AGG_RTOL)


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        {"id": 0, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "start": 1.0, "end": 3.0},
        {"id": 2, "parent": 0, "start": 2.0, "end": 4.0},     # overlaps span 1
        {"id": 3, "parent": 0, "start": 6.0, "end": 7.0},
        {"id": 4, "parent": 3, "start": 6.5, "end": 7.0},
    ]
    assert tracing.self_times(spans) == {0: 6.0, 1: 2.0, 2: 2.0, 3: 0.5, 4: 0.5}


def test_tracer_records_parent_and_case(tmp_path):
    tracer = tracing.Tracer()
    with tracer.span("runner.case", 7):
        with tracer.span("solver.plain", 7):
            pass
    with tracer.span("bench.write"):
        pass
    tracer.write(tmp_path / "trace.jsonl")
    spans = tracing.read_spans(tmp_path / "trace.jsonl")
    assert [(s["name"], s["layer"], s["parent"], s["case"]) for s in spans] == [
        ("runner.case", "runner", None, 7),
        ("solver.plain", "solver", 0, 7),
        ("bench.write", "bench", None, None),
    ]
    assert all(s["end"] >= s["start"] for s in spans)
    summary = tracing.by_name(spans)
    assert summary["runner.case"]["calls"] == 1

"""Output checks on the files ``assim run`` writes.  Standard library only.

Each check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

from workloads import Workload

# Spelled out rather than imported from assim.bench, so that a change to the
# program's output format fails the check instead of redefining it.
RESULT_FIELDS = ["case_id", "method", "n", "m", "alpha", "sigma", "error_e", "beta", "seed"]
AGGREGATE_FIELDS = ["method", "n", "m", "alpha", "sigma", "mean", "max", "min", "stddev", "count"]
RUN_FILES = ("results.csv", "aggregates.csv", "pod_decay.csv", "timings.csv", "run.json")


def read_csv(path: Path) -> tuple[list[str], list[dict]]:
    """Header and rows of a versioned CSV (first line ``# schema_version=...``)."""
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    reader = csv.DictReader(lines)
    return list(reader.fieldnames or []), list(reader)


def check_run_dir(out: Path, workload: Workload) -> list[str]:
    """Files, row counts, per-cell keys and finite values of one ``assim run``."""
    problems = [f"missing {name}" for name in RUN_FILES if not (out / name).is_file()]
    if problems:
        return problems
    header, rows = read_csv(out / "results.csv")
    if header != RESULT_FIELDS:
        return [f"results.csv header {header} != {RESULT_FIELDS}"]
    expected = {(method, n, m, a) for n, m, a in workload.cells for method in workload.methods}
    want_rows = len(expected) * workload.count
    if len(rows) != want_rows:
        problems.append(f"results.csv has {len(rows)} rows, expected {want_rows}")
    cases: dict[tuple, list[int]] = {}
    for row in rows:
        key = (row["method"], int(row["n"]), int(row["m"]), float(row["alpha"]))
        cases.setdefault(key, []).append(int(row["case_id"]))
        for name in ("error_e", "beta"):
            value = float(row[name])
            if not math.isfinite(value) or value < 0:
                problems.append(f"results.csv: {name}={row[name]} in cell {key}")
    if set(cases) != expected:
        problems.append(f"results.csv cells: {len(set(cases) - expected)} unexpected, "
                        f"{len(expected - set(cases))} missing")
    wrong = [key for key, ids in cases.items() if sorted(ids) != list(range(workload.count))]
    if wrong:
        problems.append(f"results.csv: {len(wrong)} cells without case ids 0..{workload.count - 1}")
    header, aggregates = read_csv(out / "aggregates.csv")
    if header != AGGREGATE_FIELDS:
        problems.append(f"aggregates.csv header {header} != {AGGREGATE_FIELDS}")
    elif len(aggregates) != len(expected) or any(
            int(a["count"]) != workload.count for a in aggregates):
        problems.append("aggregates.csv does not hold one full cell per expected cell")
    return problems


def compare_aggregates(ours: Path, theirs: Path, rtol: float) -> list[str]:
    """Same cells, and every statistic equal within ``rtol`` relative."""
    _, a = read_csv(ours)
    _, b = read_csv(theirs)
    key = ("method", "n", "m", "alpha", "sigma")
    cells_a = {tuple(r[k] for k in key): r for r in a}
    cells_b = {tuple(r[k] for k in key): r for r in b}
    if set(cells_a) != set(cells_b):
        return [f"{ours.name} vs {theirs}: the cells differ"]
    problems = []
    for cell, row in cells_a.items():
        for stat in ("mean", "max", "min", "stddev"):
            x, y = float(row[stat]), float(cells_b[cell][stat])
            if not math.isclose(x, y, rel_tol=rtol, abs_tol=1e-300):
                problems.append(f"{cell} {stat}: {x!r} vs {y!r}")
    return problems[:5]


def error_means(aggregates: Path, workload: Workload) -> tuple[float, float]:
    """(plain, corrected) geometric mean over cells of the cell mean error, in %.

    The geometric mean keeps the ill-conditioned n = m cells, whose errors
    are tens of times larger, from swamping the other cells.
    """
    _, rows = read_csv(aggregates)
    out = []
    for method in workload.methods:
        logs = [math.log(100 * float(r["mean"])) for r in rows if r["method"] == method]
        out.append(math.exp(sum(logs) / len(logs)) if logs else math.nan)
    return out[0], out[1]

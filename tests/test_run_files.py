"""The files ``assim run`` writes, held to what the benchmark in ``perfbench/`` reads.

The ``checks`` fixture is ``perfbench/checks.py`` as it is: its ``RUN_FILES``
and its CSV reader are the benchmark's side of the contract.
"""

import math
from pathlib import Path

import pytest

from assim.cli import main as cli_main

ROOT = Path(__file__).parents[1]


@pytest.mark.parametrize(
    "config, overrides",
    [
        ("example1.cfg", ["sweep.n=2,5", "sweep.m=10,25", "sweep.alpha=0,0.1",
                          "validation.count=6"]),
        # 70 cases: two full column blocks and a partial one
        ("example2.cfg", ["sweep.m=40", "validation.count=70"]),
        ("example3.cfg", ["sweep.n=3,8", "sweep.m=5,20", "validation.count=5"]),
    ],
)
def test_run_writes_the_files_the_benchmark_reads(tmp_path, capsys, checks, config,
                                                  overrides):
    out = tmp_path / "out"
    args = ["run", "--config", str(ROOT / "configs" / config), "--out", str(out)]
    for override in overrides:
        args += ["--set", override]
    assert cli_main(args) == 0
    capsys.readouterr()
    assert [name for name in checks.RUN_FILES if not (out / name).is_file()] == []

    _, results = checks.read_csv(out / "results.csv")
    header, timings = checks.read_csv(out / "timings.csv")
    assert header == ["method", "n", "m", "sigma", "first_case", "cases", "block_ms"]
    # a block holds case ids first_case ... at each of the run's alphas
    alphas = sorted({row["alpha"] for row in results}, key=float)
    block = ("method", "n", "m", "sigma")
    covered: dict[tuple, list[tuple]] = {}
    for row in timings:
        first, cases = int(row["first_case"]), int(row["cases"])
        assert cases % len(alphas) == 0
        covered.setdefault(tuple(row[k] for k in block), []).extend(
            (alpha, case_id) for alpha in alphas
            for case_id in range(first, first + cases // len(alphas)))
        assert 0 <= float(row["block_ms"]) < math.inf
    # each results row is covered by exactly one timing row
    produced: dict[tuple, list[tuple]] = {}
    for row in results:
        produced.setdefault(tuple(row[k] for k in block), []).append(
            (row["alpha"], int(row["case_id"])))
    assert covered.keys() == produced.keys()
    for key, cases in produced.items():
        assert sorted(covered[key]) == sorted(cases), key
    # so the cases columns of a method sum to its results.csv rows
    for method in {row["method"] for row in results}:
        assert sum(int(row["cases"]) for row in timings if row["method"] == method) == \
            sum(row["method"] == method for row in results)

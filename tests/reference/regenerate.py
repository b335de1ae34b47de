"""Reference outputs of the shipped configs, and the rule that holds a run to them.

``tests/reference/<entry>/`` keeps what ``assim run --config
configs/<config>.cfg --set ...`` writes for each entry of ``EXAMPLES``, at
the config's default seed: ``results.csv``, ``aggregates.csv``,
``pod_decay.csv`` and, where written, ``diagnostics.csv``.
``tests/test_reference.py`` runs each entry and compares its outputs with
these files by ``compare``:

* the schema line, headers, row count and row order match exactly;
* keys, case ids, seeds and every integer match exactly;
* every other float matches within ``RTOL`` relative;
* ``approximation_error`` may instead match within ``FLOOR`` times the
  largest snapshot norm of its label, and ``error_e``, already relative to
  its truth's norm, within ``FLOOR``: a value at the roundoff of its scale
  moves by a large relative amount when the arithmetic's order changes.

To regenerate after a change that moves outputs on purpose, run

    PYTHONPATH=src python tests/reference/regenerate.py [entry ...]

from the repository root.  It rewrites the named ``EXAMPLES`` entries, or
every entry when none is named, and prints the largest relative drift of each
file against the files it replaces before it overwrites them.
"""

from __future__ import annotations

import csv
import math
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from assim.bench import load_config, run_experiment, setup_experiment

HERE = Path(__file__).resolve().parent
CONFIGS = HERE.parents[1] / "configs"
# entry -> (shipped config, its --set overrides)
EXAMPLES = {
    "example1": ("example1", ()),
    "example2": ("example2", ()),
    "example3": ("example3", ()),
    # the benchmark's four bias slopes at two of its sensor counts: every block spans
    # the slopes; 16 cases keep the files small and give the benchmark's 64-column blocks
    "example1_alpha_sweep": ("example1", ("sweep.alpha=0,0.05,0.1,0.2", "sweep.m=10,25",
                                          "validation.count=16")),
    # the boxed benchmark's cells: at n = 8 most bounds end up active and a BVLS
    # solve takes many free-set passes, which the single default cell never reaches
    "example3_boxed_sweep": ("example3", ("sweep.n=3,5,8", "sweep.m=20,40",
                                          "validation.count=40")),
}
FILES = ("results.csv", "aggregates.csv", "pod_decay.csv", "diagnostics.csv")

RTOL = 1e-10
FLOOR = 1e-14
# columns compared as text even where they hold floats
EXACT = frozenset({"case_id", "method", "n", "m", "alpha", "sigma", "seed", "label", "count"})


def produce(example: str, out: Path) -> dict[str, float]:
    """Run one ``EXAMPLES`` entry in-process and write its outputs to ``out``.

    Returns the largest snapshot norm of each ``pod_decay.csv`` label.
    """
    config, overrides = EXAMPLES[example]
    cfg = load_config(CONFIGS / f"{config}.cfg", list(overrides))
    run_experiment(cfg).write(out)
    scales = {}
    for label, (snapshots, _) in setup_experiment(cfg).labeled.items():
        scales[label] = float(np.sqrt((snapshots.matrix**2) @ snapshots.grid.weights).max())
    return scales


def _read(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _is_float(text: str) -> bool:
    try:
        value = float(text)
    except ValueError:
        return False
    return math.isfinite(value) and any(c in text for c in ".eE")


def compare(out: Path, ref: Path, scales: dict[str, float]) -> tuple[list[str], dict[str, float]]:
    """Problems of the outputs in ``out`` against the reference in ``ref``.

    Returns the problems, one line each (none when the outputs are held to
    the reference), and the largest relative drift of a float in each file.
    """
    problems: list[str] = []
    drift: dict[str, float] = {}
    for name in FILES:
        if (out / name).exists() != (ref / name).exists():
            problems.append(f"{name}: written {(out / name).exists()}, "
                            f"in the reference {(ref / name).exists()}")
            continue
        if not (ref / name).exists():
            continue
        got, want = _read(out / name), _read(ref / name)
        if got[:2] != want[:2] or len(got) != len(want):
            problems.append(f"{name}: schema, header or row count differs")
            continue
        header = want[1]
        drift[name] = 0.0
        for line, (row, expected) in enumerate(zip(got[2:], want[2:]), start=3):
            if len(row) != len(expected):
                problems.append(f"{name} line {line}: {len(row)} fields, expected {len(expected)}")
                continue
            for column, a, b in zip(header, row, expected):
                if a == b:
                    continue
                if column in EXACT or not (_is_float(a) and _is_float(b)):
                    problems.append(f"{name} line {line}: {column} {a} != {b}")
                    continue
                x, y = float(a), float(b)
                rel = abs(x - y) / abs(y) if y else math.inf
                drift[name] = max(drift[name], rel)
                floor = 0.0
                if column == "approximation_error":
                    floor = FLOOR * scales[row[header.index("label")]]
                if column == "error_e":
                    floor = FLOOR
                if rel > RTOL and abs(x - y) > floor:
                    problems.append(f"{name} line {line}: {column} {a} != {b} "
                                    f"(relative {rel:.2e})")
    return problems, drift


def main(names: list[str]) -> int:
    """Rewrite the named entries, or every entry when ``names`` is empty."""
    if unknown := [name for name in names if name not in EXAMPLES]:
        print(f"unknown entries {unknown}; the entries are {list(EXAMPLES)}", file=sys.stderr)
        return 2
    for example in names or EXAMPLES:
        ref = HERE / example
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            scales = produce(example, out)
            if ref.exists():
                problems, drift = compare(out, ref, scales)
                for name, rel in drift.items():
                    print(f"{example}/{name}: largest relative drift {rel:.3e}")
                for line in problems:
                    print(f"{example}/{line}")
            ref.mkdir(exist_ok=True)
            for name in FILES:
                (ref / name).unlink(missing_ok=True)
                if (out / name).exists():
                    shutil.copyfile(out / name, ref / name)
        print(f"wrote {ref}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

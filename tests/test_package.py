"""The package's public names: every ``__all__`` entry resolves, the
multiscale split's module loads only where a run needs it, the records keep
their contract, and the README's quickstart runs."""

import contextlib
import importlib
import io
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import assim
from assim.bench import ResultRow, Setup, _Cases
from assim.bias import BiasCorrectedReconstruction, NoiseModel
from assim.manifold import MultiscaleSpec, PowerLawSpec, SinusoidSpec, SnapshotSet
from assim.multiscale import (
    GreedyBlock,
    MultiscaleDecomposition,
    Smoother,
    SlowDictionary,
    SplitBlock,
)
from assim.obs import Measurement, ObservationSpace, SensorArray, build_observation_space
from assim.rom import ReducedBasis
from assim.solver import BlockReconstruction, Box, Reconstruction, _SolvePlan
from assim.space import Grid, GridFunction, Subspace, _Record, orthonormalize

ROOT = Path(__file__).parents[1]

MODULES = ["assim"] + [f"assim.{info.name}" for info in pkgutil.iter_modules(assim.__path__)
                       if info.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves_every_name(name):
    namespace = {}
    exec(f"from {name} import *", namespace)    # raises on a name that does not resolve
    assert set(importlib.import_module(name).__all__) <= set(namespace)


@pytest.mark.parametrize("args, loaded", [
    (None, False),
    (["info"], False),
    (["run", "--config", "configs/example1.cfg", "--set", "sweep.n=1,2",
      "--set", "validation.count=2"], False),
    (["run", "--config", "configs/example3.cfg", "--set", "validation.count=2"], False),
    (["run", "--config", "configs/example2.cfg", "--set", "sweep.n=2",
      "--set", "training.count=8", "--set", "validation.count=2"], True),
], ids=["import", "info", "example1", "example3", "example2"])
def test_only_example2_loads_the_multiscale_module(tmp_path, args, loaded):
    # and no run loads dataclasses: the records are plain classes
    report = "print('assim.multiscale' in sys.modules, 'dataclasses' in sys.modules)"
    if args is None:
        script, args = f"import sys, assim; {report}", []
    else:
        script = (f"import sys; from assim.cli import main; code = main(sys.argv[1:]); "
                  f"{report}; sys.exit(code)")
    if args[:1] == ["run"]:
        args = args + ["--out", str(tmp_path / "out")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"{loaded} False"


def _records():
    """(class, arguments, arguments of a record unequal to it or None) for each record class.

    The second arguments differ in one field and are given for the classes that
    compare by value; the others compare by identity.
    """
    grid = Grid(0.0, 1.0, 5)
    fn = GridFunction(grid, np.linspace(0.0, 1.0, 5))
    basis = orthonormalize([fn])
    sensors = SensorArray((0.3, 0.7), "pointwise")
    space = build_observation_space(sensors, grid)
    measurement = Measurement(np.ones(2), space)
    reconstruction = Reconstruction(fn, np.ones(1), np.zeros(2), 1.0, 0.0)
    block = BlockReconstruction(np.zeros((5, 1)), np.ones((1, 1)), np.zeros((2, 1)),
                                np.ones((2, 1)), 1.0, np.zeros(1))
    greedy = GreedyBlock(np.zeros((1, 1), dtype=int), np.ones((1, 1)), np.ones(1, dtype=int))
    models = (NoiseModel(alpha=0.1), NoiseModel(alpha=0.2))
    return [
        (Grid, (0.0, 1.0, 5), (0.0, 1.0, 6)),
        (GridFunction, (grid, fn.values), None),
        (Subspace, (grid, basis.matrix), None),
        (SensorArray, (sensors.centers, "pointwise"), ((0.3, 0.8), "pointwise")),
        (ObservationSpace, (grid, sensors, space.representers, space.onb), None),
        (Measurement, (np.ones(2), space), None),
        (SinusoidSpec, (), ((20.0, 40.0),)),
        (MultiscaleSpec, (), (2,)),
        (PowerLawSpec, (), ((40.0, 60.0), (0.8, 1.2), 1.0)),
        (SnapshotSet, (grid, fn.values[None], [{}]), None),
        (ReducedBasis, (basis, np.ones(1)), None),
        (Reconstruction, (fn, np.ones(1), np.zeros(2), 1.0, 0.0), None),
        (Box, (np.zeros(1), np.ones(1)), None),
        (BlockReconstruction, (np.zeros((5, 1)), np.ones((1, 1)), np.zeros((2, 1)),
                               np.ones((2, 1)), 1.0, np.zeros(1)), None),
        (_SolvePlan, (np.ones((2, 1)), 1.0, np.ones((1, 2)), np.ones((1, 1)), np.ones((1, 2)),
                      np.ones((5, 1)), np.ones((5, 2)), np.ones((2, 5))), None),
        (NoiseModel, (), ("linear_bias_gaussian", 0.1)),
        (BiasCorrectedReconstruction, (fn, np.ones(1), np.zeros(2), 1.0, 0.0, reconstruction,
                                       measurement), None),
        (SlowDictionary, (np.ones((5, 1)), np.ones((2, 1)), ({},), space), None),
        (Smoother, (fn, 1.0, 0, {}), None),
        (MultiscaleDecomposition, ((), fn, measurement, reconstruction, fn, fn, (), ()), None),
        (GreedyBlock, (greedy.indices, greedy.amplitudes, greedy.counts), None),
        (SplitBlock, (greedy, np.zeros((5, 1)), block, np.ones((1, 1)), np.zeros((5, 1))), None),
        (ResultRow, (0, "pbdw", 1, 2, 0.1, 0.0, 0.5, 1.0, 7),
         (0, "pbdw", 1, 2, 0.1, 0.0, 0.6, 1.0, 7)),
        (Setup, (grid, {}, [1], len), None),
        (_Cases, (1, 2, models, range(2), [7, 8, 9, 10], None), None),
    ]


RECORDS = _records()
CACHED = {Grid: "nodes", Subspace: "weighted_matrix", ObservationSpace: "functional_matrix",
          _Cases: "alpha", SlowDictionary: "observed_norms"}


def test_every_record_class_is_covered():
    modules = [importlib.import_module(name) for name in MODULES]
    found = {obj for module in modules for obj in vars(module).values()
             if isinstance(obj, type) and issubclass(obj, _Record)
             and obj.__module__.startswith("assim.") and obj.__name__ not in ("_Record", "_Value")}
    assert found == {cls for cls, *_ in RECORDS}
    assert len(found) == 25


@pytest.mark.parametrize("cls, args, other", RECORDS, ids=[cls.__name__ for cls, *_ in RECORDS])
def test_records_are_immutable_and_compare_as_before(cls, args, other):
    record, twin = cls(*args), cls(*args)
    for name in [*vars(record), "extra"]:
        with pytest.raises(AttributeError, match=cls.__name__):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match=cls.__name__):
            delattr(record, name)
    if cls in CACHED:
        name = CACHED[cls]
        value = getattr(record, name)
        assert vars(record)[name] is value and getattr(record, name) is value
    assert record == record
    if other is None:       # compares by identity
        assert record != twin and hash(record) != hash(twin)
    else:
        assert record == twin and not record != twin
        assert record != cls(*other)
        assert hash(record) == hash(twin) and {record: 1}[twin] == 1
        assert hash(record) != hash(cls(*other))
    assert repr(record).startswith(f"{cls.__name__}(")


def test_readme_quickstart_runs_and_the_correction_helps():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Library quickstart\n\n```python\n(.*?)```", readme, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    errors = dict(re.findall(r"^\s*(plain|corrected): ([0-9.]+)%$", out.getvalue(), re.M))
    assert set(errors) == {"plain", "corrected"}, out.getvalue()
    assert float(errors["corrected"]) < float(errors["plain"])

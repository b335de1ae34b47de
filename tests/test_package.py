"""The package's public names: every ``__all__`` entry resolves, and the
multiscale split's module loads only where a run needs it."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import assim

MODULES = ["assim"] + [f"assim.{info.name}" for info in pkgutil.iter_modules(assim.__path__)
                       if info.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves_every_name(name):
    namespace = {}
    exec(f"from {name} import *", namespace)    # raises on a name that does not resolve
    assert set(importlib.import_module(name).__all__) <= set(namespace)


@pytest.mark.parametrize("args, loaded", [
    (["info"], False),
    (["run", "--config", "configs/example1.cfg", "--set", "sweep.n=1,2",
      "--set", "validation.count=2"], False),
    (["run", "--config", "configs/example3.cfg", "--set", "validation.count=2"], False),
    (["run", "--config", "configs/example2.cfg", "--set", "sweep.n=2",
      "--set", "training.count=8", "--set", "validation.count=2"], True),
], ids=["info", "example1", "example3", "example2"])
def test_only_example2_loads_the_multiscale_module(tmp_path, args, loaded):
    root = Path(__file__).parents[1]
    if args[0] == "run":
        args = args + ["--out", str(tmp_path / "out")]
    script = ("import sys; from assim.cli import main; code = main(sys.argv[1:]); "
              "print('assim.multiscale' in sys.modules); sys.exit(code)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, *args], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == str(loaded)

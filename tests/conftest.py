import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from assim import Grid

# the cross-commit contract's rule (tests/reference/regenerate.py) is shared by its
# own test and by the oracle tests that check matrix forms under the same tolerance
sys.path.insert(0, str(Path(__file__).parent / "reference"))


@pytest.fixture(scope="session")
def checks():
    """``perfbench/checks.py``, loaded from its path as it is."""
    perfbench = Path(__file__).parents[1] / "perfbench"
    # checks.py imports its sibling workloads.py; both use the standard library only
    sys.path.insert(0, str(perfbench))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_checks", perfbench / "checks.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(perfbench))
    return module


@pytest.fixture
def grid():
    """Default working grid: [0, 2*pi] with 512 nodes."""
    return Grid(0.0, 2 * np.pi, 512)


@pytest.fixture
def small_grid():
    return Grid(0.0, 1.0, 8)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)

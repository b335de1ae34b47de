import sys
from pathlib import Path

import numpy as np
import pytest

from assim import Grid

# the cross-commit contract's rule (tests/reference/regenerate.py) is shared by its
# own test and by the oracle tests that check matrix forms under the same tolerance
sys.path.insert(0, str(Path(__file__).parent / "reference"))


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

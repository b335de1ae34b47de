"""Machine-speed probe: a fixed mix of small numpy calls and Python object work.

It touches numpy and the standard library only, never the package under
test, so no change to ``assim`` can move it.  It moves when other load on
the machine slows this process down, and the benchmark divides that out of
its times (see README.md, "Machine-speed scaling").
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

_REPS = 120
_rng = np.random.default_rng(0)
_G = _rng.standard_normal((40, 12))
_W = _rng.standard_normal((40, 512))
_d = _rng.standard_normal(40)


def probe() -> float:
    """Seconds one pass of the fixed probe takes now."""
    start = perf_counter()
    for _ in range(_REPS):
        c, *_ = np.linalg.lstsq(_G, _d, rcond=None)
        s = np.linalg.svd(_G, compute_uv=False)
        u = _W.T @ (_d - _G @ c)
        record = {"beta": float(s[-1]), "coeffs": [float(v) for v in c], "sum": float(u.sum())}
        del record
    return perf_counter() - start

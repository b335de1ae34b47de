"""Workload definitions and small helpers shared by the benchmark scripts.

Only the standard library is imported here, so the orchestrator can load
this module without importing numpy or the package under test.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

# The shipped configs' own master seed.  Runs with this seed also compare
# aggregates.csv against the stored reference in perfbench/reference/.
DEFAULT_SEED = 20240605

# One BLAS thread: the matrices are at most 512 x 80, where extra threads add
# scheduling noise and no speed.  Must not exceed nproc.
BLAS_THREADS = 1

# Relative tolerance for comparing aggregate errors between two computations
# (CLI vs library runner, CLI vs stored reference).  Not byte equality: a
# batched or reordered solve may change the last bits of an error.
AGG_RTOL = 1e-6

# Time of one probe.probe() pass on this benchmark's reference machine, an
# unloaded 2-core Xeon virtual machine at 2.1 GHz.  Times are scaled by
# NOMINAL_PROBE_S / (probe time measured next to them).
NOMINAL_PROBE_S = 0.010

# Bound on every runner solve's constraint residual ||P_W u* - d||.
RESIDUAL_BOUND = 1e-8


@dataclass(frozen=True)
class Workload:
    name: str
    config: str                     # shipped config, relative to the checkout root
    overrides: tuple[str, ...]      # --set overrides; the case count is one of them
    count: int                      # validation.count
    n_values: tuple[int, ...]       # the sweep the config resolves to
    m_values: tuple[int, ...]
    alphas: tuple[float, ...]
    corrected: str                  # method reported as err_corrected_mean

    @property
    def cells(self) -> list[tuple[int, int, float]]:
        """(n, m, alpha) cells the program runs; n > m cells are skipped."""
        return [(n, m, a) for m in self.m_values for n in self.n_values for a in self.alphas
                if n <= m]

    @property
    def methods(self) -> tuple[str, str]:
        return ("pbdw", self.corrected)

    def set_args(self, seed: int) -> list[str]:
        return list(self.overrides) + [f"validation.count={self.count}", f"master_seed={seed}"]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep_bias",
            config="configs/example1.cfg",
            overrides=("sweep.m=10,20,25,40,80", "sweep.alpha=0,0.05,0.1,0.2"),
            count=16,
            n_values=tuple(range(1, 13)),
            m_values=(10, 20, 25, 40, 80),
            alphas=(0.0, 0.05, 0.1, 0.2),
            corrected="bpbdw",
        ),
        Workload(
            name="split_jump",
            config="configs/example2.cfg",
            overrides=("sweep.m=40,80",),
            count=400,
            n_values=(20,),
            m_values=(40, 80),
            alphas=(0.0,),
            corrected="spbdw",
        ),
        Workload(
            name="boxed_flow",
            config="configs/example3.cfg",
            overrides=("sweep.n=3,5,8", "sweep.m=20,40"),
            count=40,
            n_values=(3, 5, 8),
            m_values=(20, 40),
            alphas=(0.15,),
            corrected="bpbdw",
        ),
    )
}


def blas_env() -> dict:
    """Environment for a child process with a fixed BLAS thread count."""
    env = dict(os.environ)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = str(BLAS_THREADS)
    return env


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]); 0.0 for an empty sample."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return float(ordered[rank - 1])


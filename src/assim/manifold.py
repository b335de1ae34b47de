"""Parametrized-background generators.

Three families of synthetic states:

* sinusoids  ``A sin(2 pi x / T)``,
* multiscale signals, a small sum of sinusoids plus a Heaviside jump
  ``(1/N_f) sum_i A_i sin(2 pi x / T_i + d_i) + height * HS(x >= x')``,
* power-law pipe-flow profiles ``v0 [1 - (|r| / R)^(1 + 1/n)]``.

Each sampler draws parameters i.i.d. uniformly from the configured ranges
using a stream derived from an integer seed, so identical inputs reproduce
identical snapshot sets bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .space import Grid, GridFunction

__all__ = [
    "SinusoidSpec",
    "MultiscaleSpec",
    "PowerLawSpec",
    "SnapshotSet",
    "sample_sinusoids",
    "sample_multiscale",
    "sample_powerlaw",
    "heaviside",
]


def _check_range(name: str, lo: float, hi: float) -> None:
    if not lo <= hi:
        raise ValueError(f"{name} range [{lo}, {hi}] is not well ordered")


@dataclass(frozen=True)
class SinusoidSpec:
    """Amplitude and period ranges for the sinusoid family."""

    amplitude_range: tuple[float, float] = (25.0, 40.0)
    period_range: tuple[float, float] = (np.pi, 2 * np.pi)

    def __post_init__(self) -> None:
        _check_range("amplitude", *self.amplitude_range)
        _check_range("period", *self.period_range)
        if self.period_range[0] <= 0:
            raise ValueError("periods must be positive")


@dataclass(frozen=True)
class MultiscaleSpec:
    """Parameter ranges for the oscillation-plus-jump family.

    ``jump_height`` is the Heaviside amplitude (the step is closed on the
    right: value 1 at x = x').  The default periods put the oscillations on
    a clearly faster scale than the discontinuity so that the two components
    remain separable downstream.
    """

    num_frequencies: int = 3
    amplitude_range: tuple[float, float] = (0.4, 1.0)
    period_range: tuple[float, float] = (np.pi / 4, np.pi)
    phase_range: tuple[float, float] = (0.0, 2 * np.pi)
    jump_location_range: tuple[float, float] = (np.pi / 2, 3 * np.pi / 2)
    jump_height_range: tuple[float, float] = (2.5, 4.5)

    def __post_init__(self) -> None:
        if self.num_frequencies < 1:
            raise ValueError("num_frequencies must be >= 1")
        _check_range("amplitude", *self.amplitude_range)
        _check_range("period", *self.period_range)
        if self.period_range[0] <= 0:
            raise ValueError("periods must be positive")
        _check_range("phase", *self.phase_range)
        _check_range("jump_location", *self.jump_location_range)
        _check_range("jump_height", *self.jump_height_range)

    def validate_on(self, grid: Grid) -> None:
        lo, hi = self.jump_location_range
        if not (grid.a < lo and hi < grid.b):
            raise ValueError(
                f"jump locations [{lo}, {hi}] must lie strictly inside ({grid.a}, {grid.b})"
            )


@dataclass(frozen=True)
class PowerLawSpec:
    """Power-law velocity profiles on a tube cross-section [-R, R]."""

    peak_velocity_range: tuple[float, float] = (40.0, 60.0)
    flow_index_range: tuple[float, float] = (0.8, 1.2)
    radius: float = 0.5

    def __post_init__(self) -> None:
        _check_range("peak_velocity", *self.peak_velocity_range)
        _check_range("flow_index", *self.flow_index_range)
        if self.peak_velocity_range[0] < 0:
            raise ValueError("peak velocities must be nonnegative")
        if self.flow_index_range[0] <= 0:
            raise ValueError("flow indices must be positive")
        if self.radius <= 0:
            raise ValueError("radius must be positive")


@dataclass(frozen=True, eq=False)
class SnapshotSet:
    """Snapshots with their parameter records; all on one grid."""

    snapshots: tuple[GridFunction, ...]
    parameters: tuple[dict, ...]
    label: str = "full"

    def __post_init__(self) -> None:
        object.__setattr__(self, "snapshots", tuple(self.snapshots))
        object.__setattr__(self, "parameters", tuple(self.parameters))
        if len(self.snapshots) != len(self.parameters):
            raise ValueError("snapshots and parameters must have equal length")
        if self.snapshots:
            grid = self.snapshots[0].grid
            for snap in self.snapshots:
                if snap.grid != grid:
                    raise ValueError("all snapshots must share one grid")

    def __len__(self) -> int:
        return len(self.snapshots)

    def __iter__(self):
        return iter(self.snapshots)

    @property
    def grid(self) -> Grid:
        if not self.snapshots:
            raise ValueError("empty snapshot set has no grid")
        return self.snapshots[0].grid

    @cached_property
    def matrix(self) -> np.ndarray:
        """Snapshot values stacked row-wise, shape (count, num_points)."""
        return np.stack([s.values for s in self.snapshots])


def heaviside(grid: Grid, location: float) -> GridFunction:
    """Unit step on the grid, closed on the right (1 where x >= location)."""
    return GridFunction(grid, (grid.nodes >= location).astype(float))


def _sinusoid(grid: Grid, amplitude: float, period: float, phase: float = 0.0) -> np.ndarray:
    return amplitude * np.sin((2 * np.pi / period) * grid.nodes + phase)


def sample_sinusoids(spec: SinusoidSpec, grid: Grid, count: int, seed: int) -> SnapshotSet:
    """Draw ``count`` sinusoid snapshots with uniform (A, T)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    snaps, params = [], []
    for _ in range(count):
        A = rng.uniform(*spec.amplitude_range)
        T = rng.uniform(*spec.period_range)
        snaps.append(GridFunction(grid, _sinusoid(grid, A, T)))
        params.append({"amplitude": A, "period": T})
    return SnapshotSet(tuple(snaps), tuple(params), label="full")


def sample_multiscale(
    spec: MultiscaleSpec, grid: Grid, count: int, seed: int
) -> tuple[SnapshotSet, SnapshotSet, SnapshotSet]:
    """Draw fast, slow and full snapshot sets sharing the same parameters.

    The parameter draws are shared across the three sets, so pointwise
    ``full[k] == fast[k] + slow[k]`` holds exactly.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    spec.validate_on(grid)
    rng = np.random.default_rng(seed)
    fast, slow, full, params = [], [], [], []
    for _ in range(count):
        A = rng.uniform(*spec.amplitude_range, spec.num_frequencies)
        T = rng.uniform(*spec.period_range, spec.num_frequencies)
        d = rng.uniform(*spec.phase_range, spec.num_frequencies)
        x_jump = rng.uniform(*spec.jump_location_range)
        height = rng.uniform(*spec.jump_height_range)
        f = sum(_sinusoid(grid, A[i], T[i], d[i]) for i in range(spec.num_frequencies))
        f /= spec.num_frequencies
        s = height * (grid.nodes >= x_jump).astype(float)
        fast.append(GridFunction(grid, f))
        slow.append(GridFunction(grid, s))
        full.append(GridFunction(grid, f + s))
        params.append(
            {
                "amplitudes": A.tolist(),
                "periods": T.tolist(),
                "phases": d.tolist(),
                "jump_location": x_jump,
                "jump_height": height,
            }
        )
    params = tuple(params)
    return (
        SnapshotSet(tuple(fast), params, label="fast"),
        SnapshotSet(tuple(slow), params, label="slow"),
        SnapshotSet(tuple(full), params, label="full"),
    )


def powerlaw_profile(grid: Grid, peak_velocity: float, flow_index: float, radius: float) -> GridFunction:
    """Evaluate ``v0 [1 - (|r|/R)^(1+1/n)]`` on the grid (even in r)."""
    if flow_index <= 0:
        raise ValueError(f"flow index must be positive, got {flow_index}")
    rr = np.abs(grid.nodes) / radius
    return GridFunction(grid, peak_velocity * (1.0 - rr ** (1.0 + 1.0 / flow_index)))


def sample_powerlaw(spec: PowerLawSpec, grid: Grid, count: int, seed: int) -> SnapshotSet:
    """Draw ``count`` power-law profiles with uniform (v0, n)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    R = spec.radius
    tol = 1e-12 * max(1.0, R)
    if abs(grid.a + R) > tol or abs(grid.b - R) > tol:
        raise ValueError(
            f"grid domain [{grid.a}, {grid.b}] must equal [-R, R] = [{-R}, {R}]"
        )
    rng = np.random.default_rng(seed)
    snaps, params = [], []
    for _ in range(count):
        v0 = rng.uniform(*spec.peak_velocity_range)
        n = rng.uniform(*spec.flow_index_range)
        snaps.append(powerlaw_profile(grid, v0, n, R))
        params.append({"peak_velocity": v0, "flow_index": n})
    return SnapshotSet(tuple(snaps), tuple(params), label="full")

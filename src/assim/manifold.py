"""Parametrized-background generators.

Three families of synthetic states:

* sinusoids  ``A sin(2 pi x / T)``,
* multiscale signals, a small sum of sinusoids plus a Heaviside jump
  ``(1/N_f) sum_i A_i sin(2 pi x / T_i + d_i) + height * HS(x >= x')``,
* power-law pipe-flow profiles ``v0 [1 - (|r| / R)^(1 + 1/n)]``.

A snapshot set is stored as one ``(count, num_points)`` matrix, checked once;
its rows become grid functions only when a caller iterates or indexes it.
Each sampler draws all of its parameters i.i.d. uniformly from the configured
ranges as one block from a stream derived from an integer seed, and
evaluates the snapshots as array expressions, so identical inputs reproduce
identical snapshot sets bit for bit.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .space import Grid, GridFunction, _Record, _Value

__all__ = [
    "SinusoidSpec",
    "MultiscaleSpec",
    "PowerLawSpec",
    "SnapshotSet",
    "sample_sinusoids",
    "sample_multiscale",
    "sample_powerlaw",
    "heaviside",
    "unit_steps",
]


def _check_range(name: str, lo: float, hi: float) -> None:
    if not lo <= hi:
        raise ValueError(f"{name} range [{lo}, {hi}] is not well ordered")


class SinusoidSpec(_Value):
    """Amplitude and period ranges for the sinusoid family."""

    def __init__(self, amplitude_range: tuple[float, float] = (25.0, 40.0),
                 period_range: tuple[float, float] = (np.pi, 2 * np.pi)) -> None:
        _check_range("amplitude", *amplitude_range)
        _check_range("period", *period_range)
        if period_range[0] <= 0:
            raise ValueError("periods must be positive")
        self.__dict__.update(amplitude_range=amplitude_range, period_range=period_range)


class MultiscaleSpec(_Value):
    """Parameter ranges for the oscillation-plus-jump family.

    ``jump_height`` is the Heaviside amplitude (the step is closed on the
    right: value 1 at x = x').  The default periods put the oscillations on
    a clearly faster scale than the discontinuity so that the two components
    remain separable downstream.
    """

    def __init__(
        self,
        num_frequencies: int = 3,
        amplitude_range: tuple[float, float] = (0.4, 1.0),
        period_range: tuple[float, float] = (np.pi / 4, np.pi),
        phase_range: tuple[float, float] = (0.0, 2 * np.pi),
        jump_location_range: tuple[float, float] = (np.pi / 2, 3 * np.pi / 2),
        jump_height_range: tuple[float, float] = (2.5, 4.5),
    ) -> None:
        if num_frequencies < 1:
            raise ValueError("num_frequencies must be >= 1")
        _check_range("amplitude", *amplitude_range)
        _check_range("period", *period_range)
        if period_range[0] <= 0:
            raise ValueError("periods must be positive")
        _check_range("phase", *phase_range)
        _check_range("jump_location", *jump_location_range)
        _check_range("jump_height", *jump_height_range)
        self.__dict__.update(
            num_frequencies=num_frequencies, amplitude_range=amplitude_range,
            period_range=period_range, phase_range=phase_range,
            jump_location_range=jump_location_range, jump_height_range=jump_height_range,
        )

    def validate_on(self, grid: Grid) -> None:
        lo, hi = self.jump_location_range
        if not (grid.a < lo and hi < grid.b):
            raise ValueError(
                f"jump locations [{lo}, {hi}] must lie strictly inside ({grid.a}, {grid.b})"
            )


class PowerLawSpec(_Value):
    """Power-law velocity profiles on a tube cross-section [-R, R]."""

    def __init__(self, peak_velocity_range: tuple[float, float] = (40.0, 60.0),
                 flow_index_range: tuple[float, float] = (0.8, 1.2),
                 radius: float = 0.5) -> None:
        _check_range("peak_velocity", *peak_velocity_range)
        _check_range("flow_index", *flow_index_range)
        if peak_velocity_range[0] < 0:
            raise ValueError("peak velocities must be nonnegative")
        if flow_index_range[0] <= 0:
            raise ValueError("flow indices must be positive")
        if radius <= 0:
            raise ValueError("radius must be positive")
        self.__dict__.update(peak_velocity_range=peak_velocity_range,
                             flow_index_range=flow_index_range, radius=radius)

    def validate_on(self, grid: Grid) -> None:
        """Reject a grid whose domain is not the cross-section [-R, R]."""
        R, tol = self.radius, 1e-12 * max(1.0, self.radius)
        if abs(grid.a + R) > tol or abs(grid.b - R) > tol:
            raise ValueError(f"grid domain [{grid.a}, {grid.b}] must equal [-R, R] = [{-R}, {R}]")


class SnapshotSet(_Record):
    """Snapshots on one grid, one per row of ``matrix``, with their parameter records."""

    def __init__(self, grid: Grid, matrix: np.ndarray,     # (count, num_points)
                 parameters: tuple[dict, ...]) -> None:
        matrix = np.asarray(matrix, dtype=float)
        parameters = tuple(parameters)
        if matrix.ndim != 2 or matrix.shape[1] != grid.num_points:
            raise ValueError(
                f"snapshot matrix has shape {matrix.shape}, expected (count, {grid.num_points})"
            )
        if len(matrix) != len(parameters):
            raise ValueError("snapshots and parameters must have equal length")
        if not np.isfinite(matrix).all():
            raise ValueError("snapshot values must be finite")
        self.__dict__.update(grid=grid, matrix=matrix, parameters=parameters)

    def __len__(self) -> int:
        return len(self.matrix)

    def __iter__(self):
        return iter(self.snapshots)

    @cached_property
    def snapshots(self) -> tuple[GridFunction, ...]:
        """The rows of ``matrix`` as grid functions (views, not copies)."""
        return tuple(GridFunction(self.grid, row) for row in self.matrix)


def unit_steps(grid: Grid, locations) -> np.ndarray:
    """Unit steps closed on the right, one boolean row per location: True where
    x >= location.  Booleans, not floats: a caller scales them by its heights."""
    return grid.nodes >= np.asarray(locations, dtype=float)[:, None]


def heaviside(grid: Grid, location: float) -> GridFunction:
    """Unit step on the grid, closed on the right (1 where x >= location)."""
    return GridFunction(grid, unit_steps(grid, [location])[0])


def _uniform_block(rng: np.random.Generator, count: int, ranges) -> np.ndarray:
    """(count, len(ranges)) uniform draws, column j scaled to ``ranges[j]``; count >= 1.

    Row k holds the draws that ``rng.uniform`` makes one range after another
    for sample k, with the same ``lo + (hi - lo) u``, so a per-sample loop is
    reproduced bit for bit.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    lo, hi = np.array(ranges, dtype=float).T
    return lo + (hi - lo) * rng.random((count, len(ranges)))


def sample_sinusoids(spec: SinusoidSpec, grid: Grid, count: int, seed: int) -> SnapshotSet:
    """Draw ``count`` sinusoid snapshots with uniform (A, T)."""
    draws = _uniform_block(
        np.random.default_rng(seed), count, (spec.amplitude_range, spec.period_range)
    )
    A, T = draws[:, :1], draws[:, 1:]
    params = [{"amplitude": a, "period": t} for a, t in draws.tolist()]
    return SnapshotSet(grid, A * np.sin((2 * np.pi / T) * grid.nodes), params)


def sample_multiscale(
    spec: MultiscaleSpec, grid: Grid, count: int, seed: int
) -> tuple[SnapshotSet, SnapshotSet, SnapshotSet]:
    """Draw fast, slow and full snapshot sets sharing the same parameters.

    The parameter draws are shared across the three sets, so pointwise
    ``full[k] == fast[k] + slow[k]`` holds exactly.
    """
    spec.validate_on(grid)
    k = spec.num_frequencies
    draws = _uniform_block(
        np.random.default_rng(seed), count,
        [spec.amplitude_range] * k + [spec.period_range] * k + [spec.phase_range] * k
        + [spec.jump_location_range, spec.jump_height_range],
    )
    A, T, d = draws[:, :k], draws[:, k:2 * k], draws[:, 2 * k:3 * k]
    x_jump, height = draws[:, -2:-1], draws[:, -1:]
    # one frequency at a time and in order, which keeps the per-sample sum's rounding
    fast = np.zeros((count, grid.num_points))
    for i in range(k):
        fast += A[:, i, None] * np.sin((2 * np.pi / T[:, i, None]) * grid.nodes + d[:, i, None])
    fast /= k
    slow = height * unit_steps(grid, x_jump[:, 0])
    params = tuple(
        {"amplitudes": row[:k], "periods": row[k:2 * k], "phases": row[2 * k:3 * k],
         "jump_location": row[-2], "jump_height": row[-1]}
        for row in draws.tolist()
    )
    return (
        SnapshotSet(grid, fast, params),
        SnapshotSet(grid, slow, params),
        SnapshotSet(grid, fast + slow, params),
    )


def powerlaw_profile(grid: Grid, peak_velocity: float, flow_index: float, radius: float) -> GridFunction:
    """Evaluate ``v0 [1 - (|r|/R)^(1+1/n)]`` on the grid (even in r)."""
    if flow_index <= 0:
        raise ValueError(f"flow index must be positive, got {flow_index}")
    rr = np.abs(grid.nodes) / radius
    return GridFunction(grid, peak_velocity * (1.0 - rr ** (1.0 + 1.0 / flow_index)))


def sample_powerlaw(spec: PowerLawSpec, grid: Grid, count: int, seed: int) -> SnapshotSet:
    """Draw ``count`` power-law profiles with uniform (v0, n)."""
    spec.validate_on(grid)
    draws = _uniform_block(
        np.random.default_rng(seed), count, (spec.peak_velocity_range, spec.flow_index_range)
    ).tolist()
    # row by row: one power with a per-row exponent rounds some entries differently
    matrix = [powerlaw_profile(grid, v0, n, spec.radius).values for v0, n in draws]
    params = [{"peak_velocity": v0, "flow_index": n} for v0, n in draws]
    return SnapshotSet(grid, matrix, params)

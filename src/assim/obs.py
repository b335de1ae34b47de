"""Sensors, Riesz representers and the observation space.

Each sensor is a linear functional l_i on the ambient space.  Its Riesz
representer w_i satisfies ``<w_i, u> = l_i(u)`` for every state u, and the
observation space is the span of the representers, stored as the rows of one
array.  Noiseless data for a state is its projection onto that span; a
measurement is stored through its coordinates in an orthonormalized basis of
the observation space.

Two sensor kinds are provided: ``pointwise`` (reads the state at the nearest
grid node) and ``box_average`` (mean of the state over a window centered at
the sensor).  Box sensors are the default elsewhere since finite apertures
model real transducers and keep the representers independent.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .space import (
    Grid,
    GridFunction,
    GridMismatchError,
    Subspace,
    _frozen,
    _read_only,
    _Record,
    _Value,
    _weighted_qr,
)

__all__ = [
    "SensorArray",
    "ObservationSpace",
    "Measurement",
    "DependentSensorsError",
    "build_observation_space",
    "observe",
    "inf_sup_beta",
    "cross_gramian",
]

POINTWISE = "pointwise"
BOX_AVERAGE = "box_average"


class DependentSensorsError(ValueError):
    """Sensor functionals are linearly dependent on the given grid."""


class SensorArray(_Value):
    """Sensor centers plus the functional kind.

    ``width`` is required for ``box_average`` and ignored for ``pointwise``.
    """

    def __init__(self, centers: tuple[float, ...], kind: str = BOX_AVERAGE,
                 width: float | None = None) -> None:
        centers = tuple(float(c) for c in centers)
        if len(centers) < 1:
            raise ValueError("need at least one sensor")
        if not np.isfinite(centers).all():
            raise ValueError(f"sensor centers {centers} must be finite")
        if any(c2 <= c1 for c1, c2 in zip(centers, centers[1:])):
            raise ValueError("sensor centers must be strictly increasing")
        if kind not in (POINTWISE, BOX_AVERAGE):
            raise ValueError(f"unknown sensor kind {kind!r}")
        if kind == BOX_AVERAGE:
            if width is None or not 0 < width < np.inf:
                raise ValueError(f"box_average sensors need a positive, finite width, got {width}")
        self.__dict__.update(centers=centers, kind=kind, width=width)

    @property
    def m(self) -> int:
        return len(self.centers)

    @classmethod
    def equidistant(cls, m: int, grid: Grid, kind: str = BOX_AVERAGE,
                    width: float | None = None) -> "SensorArray":
        """m sensors at cell centers of a uniform partition of the domain.

        For box sensors the default width equals the inter-sensor spacing,
        so the windows tile the domain.
        """
        if m < 1:
            raise ValueError("need at least one sensor")
        spacing = (grid.b - grid.a) / m
        centers = grid.a + (np.arange(m) + 0.5) * spacing
        if kind == BOX_AVERAGE and width is None:
            width = spacing
        return cls(tuple(centers), kind, width)

    def validate_on(self, grid: Grid) -> None:
        """Check that every sensor can be built on the grid."""
        if self.centers[0] <= grid.a or self.centers[-1] >= grid.b:
            raise ValueError("sensor centers must lie strictly inside the domain")
        if self.kind == BOX_AVERAGE:
            _window_mask(grid, self.centers, self.width)

    def apply(self, u: GridFunction) -> np.ndarray:
        """Exact functional readings l_i(u) for every sensor."""
        grid = u.grid
        out = np.empty(self.m)
        for i, c in enumerate(self.centers):
            if self.kind == POINTWISE:
                out[i] = u.values[_nearest_node(grid, c)]
            else:
                mask = _window_mask(grid, c, self.width)
                out[i] = np.sum(grid.weights[mask] * u.values[mask]) / np.sum(grid.weights[mask])
        return out


def _nearest_node(grid: Grid, center):
    """Index of the node nearest one center, or one index per center of a sequence."""
    return np.argmin(np.abs(grid.nodes - np.asarray(center, dtype=float)[..., None]), axis=-1)


def _window_mask(grid: Grid, center, width: float) -> np.ndarray:
    """Nodes inside the window of one center, or one row per center of a sequence."""
    offsets = grid.nodes - np.asarray(center, dtype=float)[..., None]
    mask = np.abs(offsets) <= width / 2 + 1e-12 * max(1.0, abs(width))
    empty = ~mask.any(axis=-1)
    if empty.any():
        first = np.atleast_1d(center)[np.argmax(empty)]
        raise ValueError(
            f"sensor window of width {width:g} at {first:g} contains no grid node "
            f"(grid spacing {grid.h:g})"
        )
    return mask


class ObservationSpace(_Record):
    """Riesz representers of the sensors, one per row, and an orthonormal basis of their span.

    The representers and the matrices cached from them are read-only; a
    representer array the caller can still write to is copied first.
    """

    def __init__(self, grid: Grid, sensors: SensorArray,
                 representers: np.ndarray,      # (m, num_points)
                 onb: Subspace) -> None:
        self.__dict__.update(grid=grid, sensors=sensors, representers=_read_only(representers),
                             onb=onb)

    @property
    def m(self) -> int:
        return self.sensors.m

    @cached_property
    def functional_matrix(self) -> np.ndarray:
        """Row i applied to state values yields the exact reading l_i(u)."""
        return _frozen(self.representers * self.grid.weights)

    def apply_functionals(self, u: GridFunction) -> np.ndarray:
        """All raw sensor readings of a state at once."""
        if u.grid != self.grid:
            raise GridMismatchError("state lives on a different grid")
        return self.functional_matrix @ u.values

    @cached_property
    def raw_to_onb_matrix(self) -> np.ndarray:
        """B[i, j] = <w_i, q_j>; maps onb coordinates to raw readings."""
        return _frozen(self.functional_matrix @ self.onb.matrix.T)

    @cached_property
    def raw_to_onb_inverse(self) -> np.ndarray:
        """Inverse of ``raw_to_onb_matrix``, factored once per space."""
        return _frozen(np.linalg.inv(self.raw_to_onb_matrix))

    def coords_from_raw(self, readings: np.ndarray) -> np.ndarray:
        """Coordinates of the unique element of the span whose readings match.

        ``readings`` is one reading vector or an m x K block, one column each.
        """
        return self.raw_to_onb_inverse @ np.asarray(readings, dtype=float)

    def raw_from_coords(self, coords: np.ndarray) -> np.ndarray:
        return self.raw_to_onb_matrix @ np.asarray(coords, dtype=float)


class Measurement(_Record):
    """Coordinates of an observation-space element in the orthonormal basis."""

    def __init__(self, coeffs: np.ndarray, space: ObservationSpace) -> None:
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (space.m,):
            raise ValueError(f"expected {space.m} coefficients, got {coeffs.shape}")
        if not np.isfinite(coeffs).all():
            raise ValueError("measurement coefficients must be finite")
        self.__dict__.update(coeffs=coeffs, space=space)

    def lift(self) -> GridFunction:
        """The observation-space element with these coordinates."""
        return self.space.onb.combine(self.coeffs)

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def __add__(self, other: "Measurement") -> "Measurement":
        self._check_space(other)
        return Measurement(self.coeffs + other.coeffs, self.space)

    def __sub__(self, other: "Measurement") -> "Measurement":
        self._check_space(other)
        return Measurement(self.coeffs - other.coeffs, self.space)

    def __mul__(self, scalar: float) -> "Measurement":
        return Measurement(self.coeffs * float(scalar), self.space)

    __rmul__ = __mul__

    def _check_space(self, other: "Measurement") -> None:
        if other.space is not self.space:
            raise ValueError("measurements belong to different observation spaces")


def build_observation_space(sensors: SensorArray, grid: Grid) -> ObservationSpace:
    """Assemble Riesz representers and orthonormalize their span.

    Pointwise representers are discrete deltas at the nearest node divided by
    that node's quadrature weight; box representers are window indicators
    divided by the window measure.  Either way ``<w_i, u>`` reproduces the
    functional exactly on the grid.  All m representers are built as one
    array and orthonormalized by one weighted Householder QR
    (``space._weighted_qr``), so the basis is their Gram-Schmidt basis in
    sensor order and ``raw_to_onb_matrix`` is lower triangular with a
    positive diagonal.  Sensor i is dependent when its representer is zero or
    its residual against the kept sensors before it is below 1e-10 times its
    norm; after the first such sensor is dropped the rest are factored again,
    and every dependent sensor is named in one ``DependentSensorsError``.
    """
    sensors.validate_on(grid)
    if sensors.kind == POINTWISE:
        nearest = _nearest_node(grid, sensors.centers)
        reps = np.zeros((sensors.m, grid.num_points))
        reps[np.arange(sensors.m), nearest] = 1.0 / grid.weights[nearest]
    else:
        mask = _window_mask(grid, sensors.centers, sensors.width)
        reps = mask / (mask @ grid.weights)[:, None]
    rows, kept = _weighted_qr(reps, grid.weights)
    if len(kept) != sensors.m:
        dropped = sorted(set(range(sensors.m)) - set(kept))
        names = ", ".join(f"#{i} (center {sensors.centers[i]:g})" for i in dropped)
        raise DependentSensorsError(
            f"sensors {names} are linearly dependent on this grid; "
            "spread the sensors or refine the grid"
        )
    return ObservationSpace(grid, sensors, _frozen(reps), Subspace(grid, rows))


def observe(u: GridFunction, space: ObservationSpace) -> Measurement:
    """Exact measurement of a state: the coordinates of its projection.

    A noisy measurement is :func:`assim.bias.apply_noise`.
    """
    return Measurement(space.onb.coefficients(u), space)


def cross_gramian(space: ObservationSpace, subspace: Subspace) -> np.ndarray:
    """G[j, i] = <q_j, v_i> for the observation onb q and the given basis v."""
    return space.onb.weighted_matrix @ subspace.matrix.T


def inf_sup_beta(subspace: Subspace, space: ObservationSpace) -> float:
    """Stability constant: worst ratio ||P_W v|| / ||v|| over the subspace.

    Computed as the smallest singular value of the cross-Gramian between the
    two orthonormal bases; lies in [0, 1] up to roundoff.  The trivial
    subspace poses no stability constraint, so it reports 1.
    """
    n = subspace.dimension
    if n == 0:
        return 1.0
    if n > space.m:
        return 0.0
    G = cross_gramian(space, subspace)
    return float(np.linalg.svd(G, compute_uv=False)[-1])

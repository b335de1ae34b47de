"""Reduced-order model construction via proper orthogonal decomposition.

The POD basis consists of the leading left singular directions of the
quadrature-weighted snapshot matrix: each snapshot is scaled nodewise by
sqrt(w_k) before the factorization and unscaled afterwards, which makes the
modes orthonormal in the weighted ambient inner product.  Snapshots are not
mean-centered.  Each mode is sign-normalized so that its entry of largest
magnitude is positive, keeping the basis deterministic across factorization
backends.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .manifold import SnapshotSet
from .space import GridMismatchError, Subspace

__all__ = [
    "ReducedBasis",
    "pod",
    "approximation_error",
    "projection_residuals",
    "decay_curve",
]


@dataclass(frozen=True, eq=False)
class ReducedBasis:
    """POD subspace together with the full singular spectrum."""

    subspace: Subspace
    singular_values: np.ndarray

    def __post_init__(self) -> None:
        sv = np.asarray(self.singular_values, dtype=float)
        object.__setattr__(self, "singular_values", sv)
        if np.any(sv < -1e-300):
            raise ValueError("singular values must be nonnegative")
        if np.any(np.diff(sv) > 1e-12 * max(sv[0] if sv.size else 0.0, 1.0)):
            raise ValueError("singular values must be nonincreasing")
        if self.subspace.dimension > sv.size:
            raise ValueError("basis dimension exceeds the number of snapshots")

    @property
    def dimension(self) -> int:
        return self.subspace.dimension

    def truncate(self, n: int) -> "ReducedBasis":
        return ReducedBasis(self.subspace.truncate(n), self.singular_values)


def pod(snapshots: SnapshotSet, n: int) -> ReducedBasis:
    """Build the n-dimensional POD basis of a snapshot set."""
    count = len(snapshots)
    if not 1 <= n <= count:
        raise ValueError(f"POD dimension n={n} must lie in [1, {count}]")
    grid = snapshots.grid
    sqrt_w = np.sqrt(grid.weights)
    X = (snapshots.matrix * sqrt_w).T            # (num_points, count)
    U, S, _ = np.linalg.svd(X, full_matrices=False)
    modes = (U[:, :n] / sqrt_w[:, None]).T       # rows, V-orthonormal
    for row in modes:
        k = int(np.argmax(np.abs(row)))
        if row[k] < 0:
            row *= -1.0
    return ReducedBasis(Subspace(grid, modes), S)


def _project(validation: SnapshotSet, subspace: Subspace) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates and squared residual norms of every snapshot, by one matrix product."""
    if len(validation) == 0:
        raise ValueError("validation set is empty")
    if validation.grid != subspace.grid:
        raise GridMismatchError("snapshots live on a different grid than the subspace")
    C = validation.matrix @ subspace.weighted_matrix.T
    R = validation.matrix - C @ subspace.matrix
    return C, (R**2) @ validation.grid.weights


def projection_residuals(validation: SnapshotSet, basis: ReducedBasis | Subspace) -> np.ndarray:
    """Projection residual norm for every snapshot in the set, by one matrix product."""
    subspace = basis.subspace if isinstance(basis, ReducedBasis) else basis
    return np.sqrt(_project(validation, subspace)[1])


def approximation_error(validation: SnapshotSet, basis: ReducedBasis | Subspace) -> float:
    """Worst-case projection residual of the set onto the reduced space."""
    return float(projection_residuals(validation, basis).max())


def decay_curve(validation: SnapshotSet, basis: ReducedBasis, n_values: list[int]) -> list[float]:
    """Approximation error as a function of the reduced dimension.

    One projection of the whole set (one matrix product) at the largest
    requested dimension anchors the curve; smaller dimensions add back the
    dropped coefficients, avoiding the cancellation of ``||u||^2 - sum c_i^2``.
    """
    if not n_values or min(n_values) < 0 or max(n_values) > basis.dimension:
        raise ValueError(f"n_values={n_values} must be a nonempty list of dimensions "
                         f"in [0, {basis.dimension}]")
    coeffs, anchor2 = _project(validation, basis.subspace.truncate(max(n_values)))
    # tail2[:, n] = sum_{i > n} c_i^2, the energy the first n modes leave out
    tail2 = np.pad(np.cumsum(coeffs[:, ::-1] ** 2, axis=1), ((0, 0), (1, 0)))[:, ::-1]
    res2 = anchor2[:, None] + tail2[:, n_values]
    return np.sqrt(np.maximum(res2, 0.0)).max(axis=0).tolist()

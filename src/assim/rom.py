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
from .space import Subspace, project_onto

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


def projection_residuals(validation: SnapshotSet, basis: ReducedBasis | Subspace) -> np.ndarray:
    """Projection residual norm for every snapshot in the set."""
    if len(validation) == 0:
        raise ValueError("validation set is empty")
    subspace = basis.subspace if isinstance(basis, ReducedBasis) else basis
    return np.array(
        [(u - project_onto(u, subspace)).norm() for u in validation]
    )


def approximation_error(validation: SnapshotSet, basis: ReducedBasis | Subspace) -> float:
    """Worst-case projection residual of the set onto the reduced space."""
    return float(projection_residuals(validation, basis).max())


def decay_curve(validation: SnapshotSet, basis: ReducedBasis, n_values: list[int]) -> list[float]:
    """Approximation error as a function of the reduced dimension.

    One direct projection at the largest requested dimension anchors the
    curve; smaller dimensions add back the dropped coefficients, which avoids
    the cancellation of the naive ``||u||^2 - sum of coefficients`` formula.
    """
    if len(validation) == 0:
        raise ValueError("validation set is empty")
    n_max = max(n_values)
    if n_max > basis.dimension:
        raise ValueError(f"requested n={n_max} exceeds basis dimension {basis.dimension}")
    sub = basis.subspace.truncate(n_max)
    coeffs = np.stack([sub.coefficients(u) for u in validation])   # (count, n_max)
    anchor2 = projection_residuals(validation, sub) ** 2
    tail2 = np.concatenate(
        [np.cumsum(coeffs[:, ::-1] ** 2, axis=1)[:, ::-1], np.zeros((len(coeffs), 1))],
        axis=1,
    )                                                              # tail2[:, n] = sum_{i > n} c_i^2
    out = []
    for n in n_values:
        res2 = anchor2 + tail2[:, n]
        out.append(float(np.sqrt(np.maximum(res2, 0.0)).max()))
    return out

"""Discrete ambient Hilbert space on a uniform 1-D grid.

States live in l2(Omega) for an interval Omega = [a, b], discretized on a
uniform grid with trapezoid quadrature weights.  The weighted inner product

    <u, v> = sum_k w_k u_k v_k

is exact for constants and keeps the Gram algebra symmetric positive, which
is all the downstream reconstruction machinery relies on.  A subspace is one
``(dimension, num_points)`` matrix of orthonormal rows, checked when it is built.

The grid's nodes and weights, a subspace's matrix and the matrices cached from
them are read-only, so that nothing derived from them, such as a solve plan,
can go stale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Grid",
    "GridFunction",
    "Subspace",
    "GridMismatchError",
    "NotOrthonormalError",
    "inner_product",
    "norm",
    "project_onto",
    "orthonormalize",
]

ORTHONORMALITY_TOL = 1e-10


class GridMismatchError(ValueError):
    """Two grid functions come from incompatible discretizations."""


class NotOrthonormalError(ValueError):
    """A basis that must be orthonormal is not."""


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [a, b] with trapezoid quadrature weights."""

    a: float
    b: float
    num_points: int

    def __post_init__(self) -> None:
        if not self.b > self.a:
            raise ValueError(f"grid requires b > a, got [{self.a}, {self.b}]")
        if self.num_points < 2:
            raise ValueError(f"grid needs at least 2 points, got {self.num_points}")

    @property
    def h(self) -> float:
        return (self.b - self.a) / (self.num_points - 1)

    @cached_property
    def nodes(self) -> np.ndarray:
        return _frozen(np.linspace(self.a, self.b, self.num_points))

    @cached_property
    def weights(self) -> np.ndarray:
        w = np.full(self.num_points, self.h)
        w[0] = w[-1] = self.h / 2
        return _frozen(w)

    def zero(self) -> "GridFunction":
        return GridFunction(self, np.zeros(self.num_points))

    def function(self, f) -> "GridFunction":
        """Sample a callable on the grid nodes."""
        return GridFunction(self, np.asarray(f(self.nodes), dtype=float))


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Real values on a grid; an element of the ambient space."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != (self.grid.num_points,):
            raise ValueError(
                f"values have shape {values.shape}, expected ({self.grid.num_points},)"
            )
        if not np.isfinite(values).all():
            raise ValueError("grid function values must be finite")

    def __add__(self, other: "GridFunction") -> "GridFunction":
        _check_same_grid(self, other)
        return GridFunction(self.grid, self.values + other.values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        _check_same_grid(self, other)
        return GridFunction(self.grid, self.values - other.values)

    def __mul__(self, scalar: float) -> "GridFunction":
        return GridFunction(self.grid, self.values * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "GridFunction":
        return GridFunction(self.grid, -self.values)

    def norm(self) -> float:
        return norm(self)


def _frozen(array: np.ndarray) -> np.ndarray:
    """``array``, made read-only in place; for arrays the package has just built."""
    array.flags.writeable = False
    return array


def _read_only(array) -> np.ndarray:
    """A read-only C-contiguous float array of ``array``'s values that nothing can write to.

    An array that the conversion builds is frozen in place.  One that shares
    the caller's memory is copied once, unless it and every array it views
    are read-only already (a frozen matrix or a view of one).
    """
    converted = np.ascontiguousarray(array, dtype=float)
    if np.may_share_memory(converted, array):
        base = converted
        while isinstance(base, np.ndarray):
            if base.flags.writeable:
                return _frozen(converted.copy())
            base = base.base
    return _frozen(converted)


def _check_same_grid(u: GridFunction, v: GridFunction) -> None:
    if u.grid != v.grid:
        raise GridMismatchError(
            f"incompatible discretizations: {u.grid} vs {v.grid}"
        )


def inner_product(u: GridFunction, v: GridFunction) -> float:
    """Weighted l2(Omega) inner product of two grid functions."""
    _check_same_grid(u, v)
    return float(np.sum(u.grid.weights * u.values * v.values))


def norm(u: GridFunction) -> float:
    return float(np.sqrt(np.sum(u.grid.weights * u.values**2)))


@dataclass(frozen=True, eq=False)
class Subspace:
    """Orthonormal basis, one grid function per row of a read-only C-contiguous matrix.

    Shape, finiteness and orthonormality are checked once, here; a matrix
    the caller can still write to is copied first (see ``_read_only``).
    Construct via :func:`orthonormalize` unless the rows are orthonormal already.
    """

    grid: Grid
    matrix: np.ndarray          # (dimension, num_points)

    def __post_init__(self) -> None:
        matrix = _read_only(self.matrix)
        object.__setattr__(self, "matrix", matrix)
        if matrix.ndim != 2 or matrix.shape[1] != self.grid.num_points:
            raise ValueError(f"basis matrix has shape {matrix.shape}, "
                             f"expected (dimension, {self.grid.num_points})")
        if not np.isfinite(matrix).all():
            raise ValueError("basis values must be finite")
        gram = self.weighted_matrix @ matrix.T
        if np.abs(gram - np.eye(self.dimension)).max(initial=0.0) > ORTHONORMALITY_TOL:
            raise NotOrthonormalError("basis is not orthonormal; run orthonormalize() first")

    @property
    def dimension(self) -> int:
        return len(self.matrix)

    @cached_property
    def basis(self) -> tuple[GridFunction, ...]:
        """The rows of ``matrix`` as grid functions (views, not copies)."""
        return tuple(GridFunction(self.grid, row) for row in self.matrix)

    @cached_property
    def weighted_matrix(self) -> np.ndarray:
        """``matrix`` times the quadrature weights: row i maps u to <v_i, u>."""
        return _frozen(self.matrix * self.grid.weights)

    def coefficients(self, u: GridFunction) -> np.ndarray:
        """Coordinates of the projection of ``u`` onto the subspace."""
        if u.grid != self.grid:
            raise GridMismatchError("function lives on a different grid")
        return self.weighted_matrix @ u.values

    def combine(self, coeffs: np.ndarray) -> GridFunction:
        """Linear combination of the basis with the given coordinates."""
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (self.dimension,):
            raise ValueError(f"expected {self.dimension} coefficients, got {coeffs.shape}")
        return GridFunction(self.grid, self.matrix.T @ coeffs)

    def truncate(self, n: int) -> "Subspace":
        """The first ``n`` basis functions; the matrix is a view of this one's."""
        if not 0 <= n <= self.dimension:
            raise ValueError(f"cannot truncate dimension {self.dimension} to {n}")
        return Subspace(self.grid, self.matrix[:n])


def project_onto(u: GridFunction, subspace: Subspace) -> GridFunction:
    """Orthogonal projection of ``u`` onto an orthonormal subspace."""
    return subspace.combine(subspace.coefficients(u))


def _weighted_qr(vectors: np.ndarray, weights: np.ndarray, tol_drop: float):
    """Orthonormalize rows in the weighted inner product with one Householder QR.

    The rows are scaled by sqrt(w), so that the weighted product becomes the
    plain dot product, and factored as A^T = Q R.  Each column of Q is flipped
    so that diag(R) > 0, which makes it the Gram-Schmidt basis up to
    roundoff, and is then unscaled.  Row i is dropped when its norm is zero,
    or when its residual against the kept rows before it, |R_ii|, is below
    ``tol_drop`` times its norm.  Once a row fails, the later diagonal
    entries of an unpivoted QR no longer measure those residuals, so only the
    first failing row is dropped and the rest are factored again: one QR for
    full-rank rows, d + 1 for d dropped rows.

    Returns the orthonormal rows and the indices of the inputs that were kept.
    """
    root_w = np.sqrt(weights)
    scaled = np.asarray(vectors, dtype=float) * root_w
    norms = np.linalg.norm(scaled, axis=1)
    kept = np.flatnonzero(norms > 0)
    while kept.size:
        q, r = np.linalg.qr(scaled[kept].T)
        diag = np.diag(r)
        failed = np.flatnonzero(np.abs(diag) < tol_drop * norms[kept[:diag.size]])
        # with more rows than nodes, row diag.size lies in the span of those before it
        first = failed[0] if failed.size else diag.size
        if first == kept.size:
            return (q * np.sign(diag)).T / root_w, kept
        kept = np.delete(kept, first)
    return np.zeros((0, weights.size)), kept


def orthonormalize(
    fns: list[GridFunction] | tuple[GridFunction, ...],
    tol_drop: float = 1e-10,
    grid: Grid | None = None,
) -> Subspace:
    """Orthonormalize a family of grid functions, dropping dependent ones.

    One weighted Householder QR (``_weighted_qr``) yields the Gram-Schmidt
    basis of the family, in order, with the sign that makes each function's
    coordinate on its own basis vector positive.  A function is dropped when
    it is zero or its residual against the kept functions before it is below
    ``tol_drop`` times its norm; after the first such function is dropped the
    rest are factored again.  An empty family yields the trivial subspace
    (``grid`` must then be given).
    """
    if tol_drop <= 0:
        raise ValueError("tol_drop must be positive")
    fns = list(fns)
    if not fns:
        if grid is None:
            raise ValueError("empty family: pass grid= to build the trivial subspace")
        return Subspace(grid, _frozen(np.zeros((0, grid.num_points))))
    grid = fns[0].grid
    for fn in fns[1:]:
        _check_same_grid(fns[0], fn)
    rows, _ = _weighted_qr(np.stack([fn.values for fn in fns]), grid.weights, tol_drop)
    return Subspace(grid, rows)

"""Constrained state reconstruction from observation-space data.

Given a reduced background space V_n and an observation space W_m, the
reconstruction solves

    min_u ||u - P_{V_n} u||^2   s.t.   P_{W_m} u = target,

realized in orthonormal coordinates: with d the target coordinates and G the
cross-Gramian between the two bases, solve the least-squares problem
min_c ||G c - d|| and assemble

    u* = V c + W (d - G c).

The observation constraint then holds exactly (the correction term restores
whatever the background cannot explain), u* lies in V_n + W_m, and among all
states satisfying the constraint there it is the closest to V_n.  The
normal-equation residual d - G c is orthogonal to the columns of G, so the
background and correction components are orthogonal in the ambient space.

Everything that depends only on the pair (V_n, W_m) -- G, the stability
constant beta and the pseudo-inverse of G -- is computed once per pair, from
one thin SVD, and reused by every later solve on that pair; a solve then
costs a few m x n products.

A box-constrained variant clamps the background coefficients to bounds
derived from the training snapshots, which guards the solve against data far
outside the calibrated regime.
"""

from __future__ import annotations

import json
import weakref
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .manifold import SnapshotSet
from .obs import Measurement, ObservationSpace, cross_gramian
from .space import GridFunction, GridMismatchError, Subspace, write_grid_function

__all__ = [
    "Reconstruction",
    "Box",
    "StabilityError",
    "pbdw_solve",
    "pbdw_solve_boxed",
    "compute_box",
    "write_reconstruction",
]

BETA_FLOOR = 1e-12


class StabilityError(RuntimeError):
    """The background space is not observable enough for a stable solve."""


@dataclass(frozen=True, eq=False)
class Reconstruction:
    """Reconstructed state plus solve diagnostics."""

    state: GridFunction
    rom_coeffs: np.ndarray
    correction_coeffs: np.ndarray
    beta: float
    constraint_residual: float


@dataclass(frozen=True)
class Box:
    """Per-coefficient bounds for the background component."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self) -> None:
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if lo.shape != hi.shape:
            raise ValueError("bound arrays must have the same shape")
        if np.any(lo > hi):
            raise ValueError("infeasible box: some lower bound exceeds its upper bound")

    @property
    def dimension(self) -> int:
        return self.lo.size


def _target_coeffs(target, space: ObservationSpace) -> np.ndarray:
    if isinstance(target, Measurement):
        if target.space is not space:
            raise ValueError("measurement belongs to a different observation space")
        return target.coeffs
    if isinstance(target, GridFunction):
        return space.onb.coefficients(target)
    raise TypeError(f"target must be a Measurement or GridFunction, got {type(target)!r}")


@dataclass(frozen=True, eq=False)
class _SolvePlan:
    """Offline part of the solve for one (background, observation space) pair.

    ``pinv`` is None when ``beta`` falls below ``BETA_FLOOR``: such a pair is
    rejected on every solve, so its pseudo-inverse is never needed.
    """

    G: np.ndarray
    beta: float
    pinv: np.ndarray | None


# background -> {observation space -> plan}.  Both key types are immutable and
# compare by identity, so a plan never goes stale, and the weak keys drop a
# pair's plan as soon as either object is collected.
_PLANS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _build_plan(background: Subspace, space: ObservationSpace) -> _SolvePlan:
    if background.grid != space.grid:
        raise GridMismatchError("background and observation space live on different grids")
    G = cross_gramian(space, background)
    if background.dimension == 0:
        return _SolvePlan(G, 1.0, np.zeros((0, space.m)))
    U, S, Vt = np.linalg.svd(G, full_matrices=False)
    beta = float(S[-1])
    # lstsq(rcond=None) truncates below eps * m * S[0], far under BETA_FLOOR,
    # so every pair that passes the floor gets the full pseudo-inverse
    pinv = (Vt.T / S) @ U.T if beta >= BETA_FLOOR else None
    return _SolvePlan(G, beta, pinv)


def _plan(background: Subspace, space: ObservationSpace) -> _SolvePlan:
    """The pair's cached plan, checked for stability on every call."""
    n, m = background.dimension, space.m
    if n > m:
        raise ValueError(
            f"background dimension n={n} exceeds the number of sensors m={m}"
        )
    per_space = _PLANS.get(background)
    if per_space is None:
        per_space = _PLANS[background] = weakref.WeakKeyDictionary()
    plan = per_space.get(space)
    if plan is None:
        plan = per_space[space] = _build_plan(background, space)
    if plan.pinv is None:
        raise StabilityError(
            f"stability constant beta={plan.beta:.3e} below {BETA_FLOOR:g}; "
            "reduce the background dimension or add sensors"
        )
    return plan


def _assemble(
    d: np.ndarray,
    c: np.ndarray,
    background: Subspace,
    space: ObservationSpace,
    plan: _SolvePlan,
) -> Reconstruction:
    correction = d - plan.G @ c
    state = GridFunction(
        space.grid, space.onb.matrix.T @ correction + background.matrix.T @ c
    )
    # measure the constraint violation on the assembled state, not on paper
    residual = float(np.linalg.norm(space.onb.coefficients(state) - d))
    return Reconstruction(
        state=state,
        rom_coeffs=c,
        correction_coeffs=correction,
        beta=plan.beta,
        constraint_residual=residual,
    )


def pbdw_solve(target, background: Subspace, space: ObservationSpace) -> Reconstruction:
    """Reconstruct a state from observation data over a background space.

    ``target`` is a :class:`Measurement` or a state whose projection supplies
    the data.  With an empty background the result is the plain lift of the
    data into the observation space.
    """
    d = _target_coeffs(target, space)
    plan = _plan(background, space)
    return _assemble(d, plan.pinv @ d, background, space, plan)


def pbdw_solve_boxed(
    target,
    background: Subspace,
    space: ObservationSpace,
    box: Box,
) -> Reconstruction:
    """Reconstruction with the background coefficients clamped to a box."""
    if box.dimension != background.dimension:
        raise ValueError(
            f"box has {box.dimension} bounds for a background of dimension "
            f"{background.dimension}"
        )
    d = _target_coeffs(target, space)
    plan = _plan(background, space)
    G = plan.G
    c = np.empty(background.dimension)
    fixed = box.lo == box.hi
    c[fixed] = box.lo[fixed]
    free = ~fixed
    if free.any():
        # only this path needs scipy.optimize, which dominates the import time
        from scipy.optimize import lsq_linear

        d_free = d - G[:, fixed] @ c[fixed]
        # bvls solves the bounded least-squares subproblem to optimality
        result = lsq_linear(
            G[:, free],
            d_free,
            bounds=(box.lo[free], box.hi[free]),
            method="bvls",
            tol=1e-14,
        )
        c[free] = result.x
    return _assemble(d, c, background, space, plan)


def compute_box(snapshots: SnapshotSet, background: Subspace, margin: float = 1.1) -> Box:
    """Coefficient bounds from the projections of training snapshots.

    Each coordinate's interval is widened about its center by ``margin`` so
    that unseen states near the edge of the sampled family are not clipped.
    """
    if len(snapshots) == 0:
        raise ValueError("cannot derive a box from an empty snapshot set")
    if margin < 0:
        raise ValueError("margin must be nonnegative")
    coeffs = np.stack([background.coefficients(u) for u in snapshots])
    lo = coeffs.min(axis=0)
    hi = coeffs.max(axis=0)
    center = (lo + hi) / 2
    half = (hi - lo) / 2
    return Box(center - margin * half, center + margin * half)


def write_reconstruction(
    rec: Reconstruction, csv_path: str | Path, json_path: str | Path | None = None
) -> None:
    """Write the state as CSV plus a JSON diagnostics sidecar."""
    csv_path = Path(csv_path)
    write_grid_function(rec.state, csv_path)
    if json_path is None:
        json_path = csv_path.with_suffix(".json")
    diagnostics = {
        "beta": rec.beta,
        "constraint_residual": rec.constraint_residual,
        "rom_coeffs": rec.rom_coeffs.tolist(),
        "correction_coeffs": rec.correction_coeffs.tolist(),
    }
    with open(json_path, "w") as fh:
        json.dump(diagnostics, fh, indent=2)

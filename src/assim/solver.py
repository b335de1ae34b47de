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
one thin SVD, and reused by every later solve on that pair.  The online part
is linear in the data, so it runs on an m x K block of data columns at once
(``pbdw_solve_block``) at the cost of a few products; a single solve runs
the same kernel on one data vector.

A box-constrained variant clamps the background coefficients to bounds
derived from the training snapshots, which guards the solve against data far
outside the calibrated regime.  With the thin SVD G = U diag(S) V^T,

    ||G c - d||^2 = ||R c - U^T d||^2 + ||d - U U^T d||^2,   R = diag(S) V^T,

so the bounded problem is solved exactly on the n x n factor R, which the
plan keeps, by bounded-variable least squares (Stark & Parker, Comput. Stat.
10, 1995).  Its subproblems are least-squares solves on the free columns of
R: those of coordinates neither fixed by the box (lo == hi) nor held at a
bound.  Each is the product of the free columns' pseudo-inverse with the data
the held columns leave, so it sees the condition number of G, not its
square.  A solve visits few of the 2^n free sets, and later solves on the
pair mostly revisit them, so the plan caches each set's pseudo-inverse,
held columns and free and held indices the first time it is needed, up to
``FREE_SET_CAP`` sets per plan.  The box is an argument of the same two
solves, ``pbdw_solve`` and ``pbdw_solve_block``.  The bounded solve is
nonlinear in the data, so a boxed block runs column by column: every product
runs once per column in one batched call (``_matvec``), and the bounded
least-squares passes of a block's columns run in lockstep, grouped by free set
(``_bvls_lockstep``), so column k equals the boxed solve of column k alone bit
for bit.
"""

from __future__ import annotations

import functools
import math
import operator
import weakref

import numpy as np

from .manifold import SnapshotSet
from .obs import Measurement, ObservationSpace, cross_gramian
from .space import GridFunction, GridMismatchError, Subspace, _Record

__all__ = [
    "Reconstruction",
    "BlockReconstruction",
    "Box",
    "StabilityError",
    "pbdw_solve",
    "pbdw_solve_block",
    "pbdw_solve_boxed",
    "compute_box",
]

BETA_FLOOR = 1e-12

# most free sets whose pseudo-inverses one plan caches: BVLS may visit any of
# the 2^n subsets of the coordinates, and n may reach 20
FREE_SET_CAP = 1024

# BVLS's iteration caps, per coordinate of a solve on n coordinates and rounded
# up: at most PUSH_CAP * n pushes (passes of the main loop, each freeing a held
# coordinate), each followed by at most PASS_CAP * n free-set solves.  Every
# crossing solve holds one more coordinate, so a pass cap of n changes no result;
# fractions are allowed, and PASS_CAP must be positive
PUSH_CAP, PASS_CAP = 3, 1


class StabilityError(RuntimeError):
    """The background space is not observable enough for a stable solve."""


class Reconstruction(_Record):
    """Reconstructed state plus solve diagnostics."""

    def __init__(self, state: GridFunction, rom_coeffs: np.ndarray,
                 correction_coeffs: np.ndarray, beta: float, constraint_residual: float) -> None:
        self.__dict__.update(state=state, rom_coeffs=rom_coeffs,
                             correction_coeffs=correction_coeffs, beta=beta,
                             constraint_residual=constraint_residual)


class Box(_Record):
    """Per-coefficient bounds for the background component.

    A bound may be infinite, which leaves its side of the coordinate open;
    ``lo == hi`` fixes the coordinate, at a finite value.
    """

    def __init__(self, lo: np.ndarray, hi: np.ndarray) -> None:
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if lo.shape != hi.shape:
            raise ValueError("bound arrays must have the same shape")
        if lo.ndim != 1:
            raise ValueError(f"box bounds must be 1-D, got shape {lo.shape}")
        if np.isnan(lo).any() or np.isnan(hi).any():
            raise ValueError("box bounds must not be NaN; use -inf/inf for a one-sided bound")
        if np.any(lo > hi):
            raise ValueError("infeasible box: some lower bound exceeds its upper bound")
        fixed = lo == hi
        if np.isinf(lo[fixed]).any():
            raise ValueError("a fixed coordinate (lo == hi) must have a finite bound")
        self.__dict__.update(lo=lo, hi=hi, fixed=fixed)

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


class BlockReconstruction(_Record):
    """K reconstructions on one (background, observation space) pair.

    Column k of every array belongs to the k-th data column; ``observed``
    holds the observation-space coordinates of each assembled state, from
    which ``constraint_residuals`` are measured.  A single solve runs the
    same kernel on one data vector, and then no array has the K axis.  A
    boxed block's arrays are transposed views of one contiguous row per
    column (``_SolvePlan.assemble``).
    """

    def __init__(
        self,
        states: np.ndarray,                 # (num_points, K)
        rom_coeffs: np.ndarray,             # (n, K)
        correction_coeffs: np.ndarray,      # (m, K)
        observed: np.ndarray,               # (m, K)
        beta: float,
        constraint_residuals: np.ndarray,   # (K,)
    ) -> None:
        self.__dict__.update(states=states, rom_coeffs=rom_coeffs,
                             correction_coeffs=correction_coeffs, observed=observed, beta=beta,
                             constraint_residuals=constraint_residuals)


class _SolvePlan(_Record):
    """Offline part of the solve for one (background, observation space) pair.

    ``pinv`` is None when ``beta`` falls below ``BETA_FLOOR``: such a pair is
    rejected on every solve, so its pseudo-inverse is never needed.  ``R``
    and ``Ut`` are the SVD factors diag(S) V^T and U^T of G = U diag(S) V^T
    that the box-constrained solve runs on, and ``free_sets`` caches what
    that solve needs of each subset of R's columns it has visited so far (see
    ``_bvls``); each plan starts its own, empty.  The remaining fields are the
    two bases' cached matrices, kept here so that the online kernel needs
    nothing but the plan.
    """

    def __init__(
        self,
        G: np.ndarray,
        beta: float,
        pinv: np.ndarray | None,
        R: np.ndarray,                  # (n, n)
        Ut: np.ndarray,                 # (n, m)
        background_t: np.ndarray,       # (num_points, n): background basis as columns
        onb_t: np.ndarray,              # (num_points, m): observation onb as columns
        onb_weighted: np.ndarray,       # (m, num_points): maps states to onb coordinates
    ) -> None:
        self.__dict__.update(G=G, beta=beta, pinv=pinv, R=R, Ut=Ut, background_t=background_t,
                             onb_t=onb_t, onb_weighted=onb_weighted, free_sets={})

    def assemble(self, D: np.ndarray, C: np.ndarray,
                 columnwise: bool = False) -> BlockReconstruction:
        """States V C + W (D - G C) for m x K data D and n x K coefficients C.

        D and C may also be one data vector and its coefficients.  With
        ``columnwise``, D and C are K x m and K x n, one row per column, and
        every product and sum runs once per row (``_matvec``), so column k is
        the assembly of column k alone bit for bit; one vector gives the same
        bits.  The caller checks the states for finiteness: once per block, or
        in the ``GridFunction`` of a single solve.
        """
        product = _matvec if columnwise else operator.matmul
        correction = D - product(self.G, C)
        states = product(self.onb_t, correction) + product(self.background_t, C)
        # measure the constraint violation on the assembled states, not on paper
        observed = product(self.onb_weighted, states)
        residuals = np.sqrt(((observed - D) ** 2).sum(axis=-1 if columnwise else 0))
        if columnwise:
            states, C, correction, observed = states.T, C.T, correction.T, observed.T
        return BlockReconstruction(states, C, correction, observed, self.beta, residuals)

    def solve(self, D: np.ndarray) -> BlockReconstruction:
        return self.assemble(D, self.pinv @ D)


# background -> {observation space -> plan}.  Both key types are immutable and
# compare by identity, so a plan never goes stale, and the weak keys drop a
# pair's plan as soon as either object is collected.
_PLANS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _build_plan(background: Subspace, space: ObservationSpace) -> _SolvePlan:
    if background.grid != space.grid:
        raise GridMismatchError("background and observation space live on different grids")
    G = cross_gramian(space, background)
    bases = (background.matrix.T, space.onb.matrix.T, space.onb.weighted_matrix)
    if background.dimension == 0:
        empty = np.zeros((0, space.m))
        return _SolvePlan(G, 1.0, empty, np.zeros((0, 0)), empty, *bases)
    U, S, Vt = np.linalg.svd(G, full_matrices=False)
    beta = float(S[-1])
    # lstsq(rcond=None) truncates below eps * m * S[0], far under BETA_FLOOR,
    # so every pair that passes the floor gets the full pseudo-inverse
    pinv = (Vt.T / S) @ U.T if beta >= BETA_FLOOR else None
    return _SolvePlan(G, beta, pinv, S[:, None] * Vt, U.T, *bases)


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
            f"stability constant beta={plan.beta:.3e} below {BETA_FLOOR:g} "
            f"for n={n}, m={m}; reduce the background dimension or add sensors"
        )
    return plan


def _single(block: BlockReconstruction, grid) -> Reconstruction:
    """The reconstruction of a kernel run on one data vector."""
    return Reconstruction(
        state=GridFunction(grid, block.states),
        rom_coeffs=block.rom_coeffs,
        correction_coeffs=block.correction_coeffs,
        beta=block.beta,
        constraint_residual=float(block.constraint_residuals),
    )


def pbdw_solve(target, background: Subspace, space: ObservationSpace,
               box: Box | None = None) -> Reconstruction:
    """Reconstruct a state from observation data over a background space.

    ``target`` is a :class:`Measurement` or a state whose projection supplies
    the data.  With an empty background the result is the plain lift of the
    data into the observation space.  Passing ``box`` clamps the background
    coefficients to it; the result then equals the boxed block solve's column
    for the same data bit for bit.
    """
    d = _target_coeffs(target, space)
    return _single(_solve(d, background, space, box), space.grid)


def pbdw_solve_block(
    data: np.ndarray, background: Subspace, space: ObservationSpace, box: Box | None = None
) -> BlockReconstruction:
    """Solve for every column of an m x K block of onb data coordinates at once.

    Column k equals ``pbdw_solve`` on column k up to roundoff, and bit for
    bit with a ``box``: a boxed block runs every product once per column
    (``_matvec``), never as one gemm over the block, and the columns' bounded
    least-squares passes in lockstep (``_bvls_lockstep``, one column too).
    The pair's checks run once for the whole block.
    """
    D = _block_data(data, space.m)
    return _finite(_solve(D if box is None else np.ascontiguousarray(D.T), background, space, box))


def pbdw_solve_boxed(
    target, background: Subspace, space: ObservationSpace, box: Box
) -> Reconstruction:
    """``pbdw_solve`` with a box, under the name the benchmark's library runner imports."""
    return pbdw_solve(target, background, space, box)


def _block_data(data, m: int) -> np.ndarray:
    """``data`` as an (m, K) float block, rejected unless it has that shape and is finite."""
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[0] != m:
        raise ValueError(f"expected an ({m}, K) data block, got {data.shape}")
    if not np.isfinite(data).all():
        raise ValueError("data block must be finite")
    return data


def _finite(block: BlockReconstruction) -> BlockReconstruction:
    """A block solve's result, rejected unless every state is finite."""
    if not np.isfinite(block.states).all():
        raise ValueError("reconstructed states must be finite")
    return block


def _solve(D: np.ndarray, background: Subspace, space: ObservationSpace,
           box: Box | None) -> BlockReconstruction:
    """The solve of one data vector D or of an m x K block D; with a box, of one
    data vector D or of each row of a K x m stack D."""
    if box is None:
        return _plan(background, space).solve(D)
    if box.dimension != background.dimension:
        raise ValueError(
            f"box has {box.dimension} bounds for a background of dimension "
            f"{background.dimension}"
        )
    plan = _plan(background, space)
    # G c - d = U (R c - U^T d) + (U U^T d - d): same minimizer on R
    B = _matvec(plan.Ut, D)
    kernel = _bvls if D.ndim == 1 else _bvls_lockstep
    C = kernel(plan.R, B, box.lo, box.hi, box.fixed, plan.free_sets)
    # on one vector the plain products are the same gemv as _matvec's
    return plan.assemble(D, C, columnwise=D.ndim == 2)


def _matvec(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """``M @ x`` for every row x of the K x columns block X, as a K x rows
    block; ``M @ X`` for one vector X.

    One batched matmul runs, for each row, the gemv that the 1-D product
    ``M @ x`` runs, on the row made contiguous as a 1-D vector is, so row k
    equals ``M @ X[k]`` bit for bit; one gemm over the block does not.
    """
    if X.ndim == 1:
        return M @ X
    return np.matmul(M, np.ascontiguousarray(X)[:, :, None])[:, :, 0]


def _dots(X: np.ndarray) -> np.ndarray:
    """``x @ x`` for every row x of X, each the 1-D product's own dot, bit for bit."""
    return np.matmul(X[:, None, :], X[:, :, None])[:, 0, 0]


def _lstsq_pinv(A: np.ndarray) -> np.ndarray:
    """Pseudo-inverse of a matrix or of each in a stack, at ``lstsq(rcond=None)``'s
    cutoff: singular values at most eps * max(rows, columns) times the largest."""
    return np.linalg.pinv(A, rcond=np.finfo(float).eps * max(A.shape[-2:]))


def _bvls(
    A: np.ndarray,
    b: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    fixed: np.ndarray,
    free_sets: dict,
) -> np.ndarray:
    """argmin ||A x - b|| over lo <= x <= hi, for A of full column rank.

    Bounded-variable least squares (Stark & Parker, Comput. Stat. 10, 1995):
    clip the unconstrained solution to the box, pin coordinates whose
    free-set solution leaves the box until that solution is feasible, then
    free one bound coordinate at a time whose gradient points into the box,
    re-solving on the free set and stepping back to the first bound crossed.
    It stops when no held coordinate's gradient points into the box (the KKT
    sign test) or a pass no longer lowers the objective, and every loop has an
    iteration cap.  ``lo`` may hold -inf and ``hi`` inf.  The ``fixed``
    coordinates, those with ``lo == hi``, stay at their bound throughout.

    Every subproblem is the least-squares solve on the free columns A_F with
    the held ones A_H at their bounds: P_F (b - A_H x_H), with P_F the
    pseudo-inverse of A_F at lstsq's default rank cutoff.  ``free_sets`` maps
    each free set (its mask's bytes) to (P_F, A_H, free index, held index),
    through which each pass gathers and scatters ``x``, the bounds and the
    coordinates' states; missing entries are built and stored until it holds
    ``FREE_SET_CAP`` of them.  Each entry depends only on A and the set, so a
    cold, warm or full cache gives the same result bit for bit.
    """
    n = A.shape[1]
    x = np.where(fixed, lo, 0.0)
    free = ~fixed
    # side[i] is -1 / +1 while x[i] is held at its lower / upper bound, else 0
    side = np.zeros(n)
    free_set = functools.partial(_free_set, A, free, free_sets)

    # initialisation, from the unconstrained solution: each pass pins at least
    # one coordinate or ends with a feasible free-set solution
    for _ in range(n if free.any() else 0):
        P_F, A_H, f, h = free_set()
        z = P_F @ (b - A_H @ x[h])
        lo_F, hi_F = lo[f], hi[f]
        below, above = z < lo_F, z > hi_F
        x[f] = np.minimum(np.maximum(z, lo_F), hi_F)
        side[f[below]] = -1.0
        side[f[above]] = 1.0
        out = f[below | above]
        free[out] = False
        if out.size == 0 or out.size == f.size:    # feasible, or nothing left free
            break

    # main loop: each pass frees the held coordinate whose gradient points
    # furthest into the box, which strictly lowers the objective; a fixed
    # coordinate's side stays 0, so it is never freed
    At = A.T
    residual = A @ x - b
    cost = residual @ residual
    for _ in range(math.ceil(PUSH_CAP * n)):
        push = (At @ residual) * side
        k = push.argmax()
        if push[k] <= 0.0:                   # KKT sign test: x is optimal
            break
        side[k] = 0.0
        free[k] = True
        # re-solve on the free set, stepping back to the first bound crossed
        for _ in range(math.ceil(PASS_CAP * n)):
            P_F, A_H, f, h = free_set()
            z = P_F @ (b - A_H @ x[h])
            x_free, lo_free, hi_free = x[f], lo[f], hi[f]
            below = z < lo_free
            crossed = (below | (z > hi_free)).nonzero()[0]
            if crossed.size == 0:
                x[f] = z
                break
            bound = np.where(below, lo_free, hi_free)[crossed]
            steps = (bound - x_free[crossed]) / (z[crossed] - x_free[crossed])
            i = steps.argmin()
            j = crossed[i]
            x_free += steps[i] * (z - x_free)
            x_free[j] = bound[i]
            x[f] = x_free
            side[f[j]] = -1.0 if below[j] else 1.0
            free[f[j]] = False
        residual = A @ x - b
        previous, cost = cost, residual @ residual
        if cost >= previous:                 # no descent: the push was roundoff
            break
    return x


def _free_set(A: np.ndarray, free: np.ndarray, free_sets: dict) -> tuple:
    """(P_F, A_H, free index, held index) of the free mask ``free``, from the
    cache ``free_sets`` or built and stored while it holds fewer than
    ``FREE_SET_CAP`` sets (see ``_bvls``)."""
    key = free.tobytes()
    entry = free_sets.get(key)
    if entry is None:
        f, h = np.flatnonzero(free), np.flatnonzero(~free)
        entry = (_lstsq_pinv(A[:, f]), A[:, h], f, h)
        if len(free_sets) < FREE_SET_CAP:
            free_sets[key] = entry
    return entry


def _bvls_lockstep(
    A: np.ndarray,
    B: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    fixed: np.ndarray,
    free_sets: dict,
) -> np.ndarray:
    """``_bvls`` on every row b of the K x n block B at once; row k of the
    result is ``_bvls(A, B[k], lo, hi, fixed, free_sets)`` bit for bit.

    The rows run ``_bvls``'s passes in lockstep, each row with its own pass
    counts.  Every pass groups the rows still iterating by their current free
    set, as combinatorial NNLS does (Van Benthem & Keenan, J. Chemometrics
    18, 2004), and solves each group with one ``_matvec`` on the set's cached
    P_F and A_H.  The bound, step-length, KKT-sign and no-descent tests then
    run once for all those rows, as array operations on whole rows, masked
    to each row's free coordinates.
    """
    B = np.ascontiguousarray(B)     # rows as contiguous as 1-D vectors, for _matvec and _dots
    K, n = B.shape
    X = np.tile(np.where(fixed, lo, 0.0), (K, 1))
    free = np.tile(~fixed, (K, 1))
    side = np.zeros((K, n))         # as in _bvls, a row per row of B
    none = np.arange(0)

    def solve(rows: np.ndarray) -> tuple:
        """The rows' free masks, and their free-set solutions written into the
        free coordinates of a copy of their X rows."""
        F, Z = free[rows], X[rows]
        keys = F.tobytes()
        groups: dict = {}
        for i in range(rows.size):
            groups.setdefault(keys[i * n:(i + 1) * n], []).append(i)
        for at in map(np.array, groups.values()):
            P_F, A_H, f, h = _free_set(A, F[at[0]], free_sets)
            group = rows[at]
            Z[at[:, None], f] = _matvec(P_F, B[group] - _matvec(A_H, X[group[:, None], h]))
        return F, Z

    # initialisation: every row starts from the unconstrained solution
    rows = np.arange(K)
    for _ in range(n if free.any() else 0):
        F, Z = solve(rows)
        below, above = F & (Z < lo), F & (Z > hi)
        out = below | above
        X[rows] = np.where(F, np.minimum(np.maximum(Z, lo), hi), X[rows])
        side[rows] = np.where(below, -1.0, np.where(above, 1.0, side[rows]))
        free[rows] = F & ~out
        pinned = out.sum(axis=1)
        rows = rows[(pinned > 0) & (pinned < F.sum(axis=1))]
        if rows.size == 0:
            break

    # main loop: a row pushes (frees a held coordinate), re-solves until no
    # bound is crossed or its passes are spent, then tests for descent
    At = A.T
    residual = _matvec(A, X) - B
    cost = _dots(residual)
    outer = np.zeros(K, dtype=np.intp)
    inner = np.zeros(K, dtype=np.intp)
    pushes, passes = math.ceil(PUSH_CAP * n), math.ceil(PASS_CAP * n)
    pushing, solving = (np.arange(K) if pushes else none), none
    while pushing.size or solving.size:
        if pushing.size:
            push = _matvec(At, residual[pushing]) * side[pushing]
            k = push.argmax(axis=1)
            go = ~(push[np.arange(pushing.size), k] <= 0.0)     # the KKT sign test
            rows, k = pushing[go], k[go]
            side[rows, k] = 0.0
            free[rows, k] = True
            inner[rows] = 0
            solving = np.concatenate([solving, rows])
        F, Z = solve(solving)
        below = F & (Z < lo)
        crossed = below | (F & (Z > hi))
        hit = crossed.any(axis=1)
        done = solving[~hit]
        X[done] = np.where(F[~hit], Z[~hit], X[done])
        rows, Z, below, crossed = solving[hit], Z[hit], below[hit], crossed[hit]
        if rows.size:
            # step back to the first bound crossed
            X_F = X[rows]
            bound = np.where(below, lo, hi)
            steps = np.divide(bound - X_F, Z - X_F, out=np.full(Z.shape, np.inf), where=crossed)
            r = np.arange(rows.size)
            j = steps.argmin(axis=1)
            # _bvls takes the first least step among the crossed ones; the fill
            # ties with it only where every crossed step is inf
            tie = ~crossed[r, j]
            j[tie] = crossed[tie].argmax(axis=1)
            X_F = np.where(F[hit], X_F + steps[r, j][:, None] * (Z - X_F), X_F)
            X_F[r, j] = bound[r, j]
            X[rows] = X_F
            side[rows, j] = np.where(below[r, j], -1.0, 1.0)
            free[rows, j] = False
            inner[rows] += 1
            spent = inner[rows] == passes
            done = np.concatenate([done, rows[spent]])
            rows = rows[~spent]
        solving = rows
        residual[done] = _matvec(A, X[done]) - B[done]
        previous, cost[done] = cost[done], _dots(residual[done])
        outer[done] += 1
        # no descent means the push was roundoff
        pushing = done[~(cost[done] >= previous) & (outer[done] < pushes)]
    return X


def compute_box(snapshots: SnapshotSet, background: Subspace, margin: float = 1.1) -> Box:
    """Coefficient bounds from the training snapshots' coordinates, one matrix product.

    Each coordinate's interval is widened about its center by ``margin`` so
    that unseen states near the edge of the sampled family are not clipped.
    """
    if len(snapshots) == 0:
        raise ValueError("cannot derive a box from an empty snapshot set")
    if margin < 0:
        raise ValueError("margin must be nonnegative")
    if snapshots.grid != background.grid:
        raise GridMismatchError("snapshots live on a different grid than the background")
    coeffs = snapshots.matrix @ background.weighted_matrix.T
    lo, hi = coeffs.min(axis=0), coeffs.max(axis=0)
    center = (lo + hi) / 2
    half = (hi - lo) / 2
    return Box(center - margin * half, center + margin * half)

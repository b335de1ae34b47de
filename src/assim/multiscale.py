"""Multiscale split reconstruction for signals with discontinuities.

A reduced basis built from snapshots with jumps decays slowly and smears the
discontinuity over many modes.  The split pipeline instead keeps the smooth
(fast-decaying) dynamics in the reduced background and handles the jumps
through a dictionary of step candidates:

1. greedily fit step candidates to the measurements (orthogonal search) and
   subtract the fitted part, leaving smoothed measurements;
2. reconstruct the smooth component from the smoothed measurements over the
   fast reduced space (optionally with bias correction);
3. refit the recorded steps against the (bias-corrected) measurements and
   add them back onto the smooth reconstruction.

The search scores every candidate by the projection of the data onto its
normalized observed image; candidates are normalized to unit ambient norm so
the fitted amplitude is also the reconstructed step height.  A dictionary
holds its candidates and their observed images as the columns of two matrices.
"""

from __future__ import annotations

import warnings
from functools import cached_property

import numpy as np

from .bias import NoiseModel, bpbdw_correct_block, bpbdw_reconstruct, corrected_constraint_block
from .manifold import SnapshotSet, unit_steps
from .obs import Measurement, ObservationSpace, cross_gramian, inf_sup_beta
from .solver import (
    BlockReconstruction,
    Reconstruction,
    _block_data,
    _lstsq_pinv,
    _matvec,
    pbdw_solve,
    pbdw_solve_block,
)
from .space import (
    Grid,
    GridFunction,
    GridMismatchError,
    Subspace,
    _Record,
    orthonormalize,
)

__all__ = [
    "SlowDictionary",
    "Smoother",
    "MultiscaleDecomposition",
    "build_slow_dictionary",
    "step_nodes",
    "step_dictionary",
    "orthogonal_search",
    "extract_smoothers",
    "spbdw_reconstruct",
    "GreedyBlock",
    "SplitBlock",
    "extract_smoothers_block",
    "spbdw_reconstruct_block",
    "multiscale_beta_bound",
    "total_variation",
]

VISIBILITY_TOL = 1e-12      # observed-image norm at or below which a candidate is invisible


class SlowDictionary(_Record):
    """Unit-norm slow-component candidates, as columns, and their observed images."""

    def __init__(
        self,
        candidate_matrix: np.ndarray,       # (num_points, K): candidate values
        observed: np.ndarray,               # (m, K): observed image coordinates
        parameters: tuple[dict, ...],
        space: ObservationSpace,
    ) -> None:
        if len(parameters) == 0:
            raise ValueError("slow dictionary is empty")
        if observed.shape != (space.m, len(parameters)):
            raise ValueError("observed image matrix has the wrong shape")
        self.__dict__.update(candidate_matrix=candidate_matrix, observed=observed,
                             parameters=parameters, space=space)

    def __len__(self) -> int:
        return len(self.parameters)

    @cached_property
    def observed_norms(self) -> np.ndarray:
        return np.linalg.norm(self.observed, axis=0)

    def scores(self, X: np.ndarray) -> np.ndarray:
        """``<x, P_W v / ||P_W v||>`` for every candidate v, of one coefficient vector
        or of each row of a stack; the search picks the largest."""
        return (X @ self.observed) / self.observed_norms

    @cached_property
    def candidates(self) -> tuple[GridFunction, ...]:
        """The columns of ``candidate_matrix`` as grid functions (views, not copies)."""
        return tuple(GridFunction(self.space.grid, col) for col in self.candidate_matrix.T)


def build_slow_dictionary(candidates: SnapshotSet, space: ObservationSpace) -> SlowDictionary:
    """Normalize slow-manifold samples and precompute their observed images.

    Candidates of zero norm, or invisible to the sensors (observed image at
    most ``VISIBILITY_TOL``, 1e-12), cannot be fitted and are dropped with a
    warning.
    """
    if candidates.grid != space.grid:
        raise GridMismatchError("candidates and observation space live on different grids")
    X = candidates.matrix
    norms = np.sqrt(np.sum(space.grid.weights * X**2, axis=1))
    kept = norms != 0.0
    units = X[kept] * (1.0 / norms[kept])[:, None]
    # one gemv per candidate (_matvec): a single matrix product rounds differently
    images = _matvec(space.onb.weighted_matrix, units)
    visible = np.linalg.norm(images, axis=1) > VISIBILITY_TOL
    kept[kept] = visible                # of the nonzero candidates, the visible ones
    dropped = np.flatnonzero(~kept).tolist()
    if dropped:
        warnings.warn(
            f"dropped {len(dropped)} slow candidate(s) invisible to the sensors: "
            f"indices {dropped}",
            stacklevel=2,
        )
    if not kept.any():
        raise ValueError("no slow candidate is visible to the sensors")
    return SlowDictionary(
        candidate_matrix=np.ascontiguousarray(units[visible].T),
        observed=np.ascontiguousarray(images[visible].T),
        parameters=tuple(candidates.parameters[k] for k in np.flatnonzero(kept)),
        space=space,
    )


def step_nodes(grid: Grid, location_range: tuple[float, float], stride: int) -> np.ndarray:
    """Indices of the ``stride``-th grid nodes in a closed range; it must hold one."""
    lo, hi = location_range
    nodes = np.array(range(0, grid.num_points, stride), dtype=int)   # stride 0: ValueError
    nodes = nodes[(lo <= grid.nodes[nodes]) & (grid.nodes[nodes] <= hi)]
    if not nodes.size:
        raise ValueError(f"no step node (one every {stride} grid nodes) falls inside "
                         f"the jump range [{lo}, {hi}]")
    return nodes


def step_dictionary(
    grid: Grid,
    space: ObservationSpace,
    location_range: tuple[float, float],
    stride: int = 12,
) -> SlowDictionary:
    """Dictionary of upward unit steps at the ``step_nodes`` of a range.

    The default spacing is on the order of one sensor window, which keeps
    neighboring candidates distinguishable in the observed coordinates.
    Every candidate rises by one, so the search (``orthogonal_search``) looks
    for upward steps: a downward jump is matched, if at all, by an upward
    candidate somewhere else.
    """
    nodes = step_nodes(grid, location_range, stride)
    x = grid.nodes[nodes]
    params = [{"jump_location": loc, "jump_height": 1.0, "node": k}
              for loc, k in zip(x.tolist(), nodes.tolist())]
    return build_slow_dictionary(SnapshotSet(grid, unit_steps(grid, x), params),
                                 space)


def _check_space(space: ObservationSpace, dictionary: SlowDictionary) -> None:
    if dictionary.space is not space:
        raise ValueError("dictionary belongs to a different observation space")


def orthogonal_search(
    omega: Measurement, dictionary: SlowDictionary
) -> tuple[GridFunction, float, int]:
    """Best-correlated slow candidate and its least-squares amplitude.

    Scores ``<omega, P_W v / ||P_W v||>`` for every candidate, exhaustively,
    and picks the largest signed score; ties resolve to the lowest index.
    With ``step_dictionary``'s candidates it therefore looks for upward unit
    steps.  Returns (candidate, amplitude, index).
    """
    _check_space(omega.space, dictionary)
    best = int(np.argmax(dictionary.scores(omega.coeffs)))
    g = dictionary.observed[:, best]
    amplitude = float(omega.coeffs @ g) / float(g @ g)
    return dictionary.candidates[best], amplitude, best


class Smoother(_Record):
    """One fitted slow component: unit-norm candidate and its amplitude."""

    def __init__(self, function: GridFunction, amplitude: float, index: int,
                 params: dict) -> None:
        self.__dict__.update(function=function, amplitude=amplitude, index=index, params=params)


def _check_greedy(rel_tol: float, max_iters: int) -> None:
    if not 0 < rel_tol <= 1:
        raise ValueError("rel_tol must lie in (0, 1]")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")


def extract_smoothers(
    omega: Measurement,
    dictionary: SlowDictionary,
    rel_tol: float = 0.05,
    max_iters: int = 5,
) -> tuple[list[Smoother], GridFunction, Measurement, list[float]]:
    """Greedy slow-component extraction from measurements.

    Repeats the orthogonal search on the running residual; after each
    selection, the amplitudes of every recorded candidate are refitted
    jointly (the residual stays orthogonal to the selected observed images,
    which keeps coherent step candidates from polluting each other).  A
    candidate is kept only when it reduces the residual norm by at least
    ``rel_tol`` relative.  Returns the smoothers, their sum f*, the smoothed
    measurements omega - P_W f*, and the residual-norm history.
    """
    _check_greedy(rel_tol, max_iters)
    _check_space(omega.space, dictionary)
    data = omega.coeffs
    residual = data.copy()
    history = [float(np.linalg.norm(residual))]
    selected: list[int] = []
    amplitudes = np.zeros(0)
    for _ in range(max_iters):
        rn = history[-1]
        if rn <= 1e-12 * history[0]:        # residual is numerical noise
            break
        index = int(np.argmax(dictionary.scores(residual)))     # orthogonal_search's pick
        if index in selected:
            break
        trial = selected + [index]
        A = dictionary.observed[:, trial]
        sol, *_ = np.linalg.lstsq(A, data, rcond=None)
        new_residual = data - A @ sol
        rn_new = float(np.linalg.norm(new_residual))
        if (rn - rn_new) / rn < rel_tol:
            break
        selected = trial
        amplitudes = sol
        residual = new_residual
        history.append(rn_new)

    smoothers = [
        Smoother(dictionary.candidates[k], float(a), k, dictionary.parameters[k])
        for k, a in zip(selected, amplitudes)
    ]
    f_star = _step_sum(omega.space.grid, smoothers, [sm.amplitude for sm in smoothers])
    omega_f = Measurement(data - omega.space.onb.weighted_matrix @ f_star, omega.space)
    return smoothers, GridFunction(omega.space.grid, f_star), omega_f, history


def _step_sum(grid: Grid, smoothers: list[Smoother], amplitudes) -> np.ndarray:
    """Values of the smoothers' steps at the given amplitudes, summed from zeros in
    selection order; the order fixes the rounding."""
    values = np.zeros(grid.num_points)
    for sm, amplitude in zip(smoothers, amplitudes):
        values = values + sm.function.values * amplitude
    return values


class MultiscaleDecomposition(_Record):
    """Outputs of the split reconstruction."""

    def __init__(
        self,
        smoothers: tuple[Smoother, ...],
        f_star: GridFunction,
        omega_f: Measurement,
        u_f: Reconstruction,
        f_u: GridFunction,
        u_star: GridFunction,
        corrected_amplitudes: tuple[float, ...],
        residual_history: tuple[float, ...],
    ) -> None:
        self.__dict__.update(smoothers=smoothers, f_star=f_star, omega_f=omega_f, u_f=u_f,
                             f_u=f_u, u_star=u_star, corrected_amplitudes=corrected_amplitudes,
                             residual_history=residual_history)

    def dominant_jump_location(self) -> float | None:
        """Location of the largest refitted step, if any step was recorded."""
        if not self.smoothers:
            return None
        k = int(np.argmax(np.abs(self.corrected_amplitudes)))
        return self.smoothers[k].params.get("jump_location")


def spbdw_reconstruct(
    omega_star: Measurement,
    background: Subspace,
    space: ObservationSpace,
    dictionary: SlowDictionary,
    model: NoiseModel | None = None,
    seed: int = 0,
    rel_tol: float = 0.05,
    max_iters: int = 5,
) -> MultiscaleDecomposition:
    """Three-step multiscale reconstruction (smooth background + steps).

    Without a noise model the smooth solve is the plain reconstruction, and
    the steps keep their greedy amplitudes: a refit against the raw
    measurements is the extraction's own last least-squares solve.  With a
    model, the smooth solve is bias-corrected and the steps are refitted
    against bias-corrected measurements built from the first-pass composite
    estimate.  The expectation is exact, so ``seed`` is unused; it is kept
    because callers outside the package pass it.
    """
    smoothers, f_star, omega_f, history = extract_smoothers(
        omega_star, dictionary, rel_tol, max_iters
    )

    if model is None:
        u_f = pbdw_solve(omega_f, background, space)
        corrected = [sm.amplitude for sm in smoothers]
        f_u = f_star
    else:
        u_f = bpbdw_reconstruct(omega_f, background, space, model)
        # u_f.initial is the plain smooth solve of omega_f
        eta = corrected_constraint_block(space.onb.coefficients(u_f.initial.state + f_star),
                                         space, model)
        # refit the recorded steps jointly against eta
        corrected = []
        if smoothers:
            A = dictionary.observed[:, [sm.index for sm in smoothers]]
            gamma, *_ = np.linalg.lstsq(A, eta, rcond=None)
            corrected = [float(g) for g in gamma]
        f_u = GridFunction(space.grid, _step_sum(space.grid, smoothers, corrected))

    u_star = u_f.state + f_u
    return MultiscaleDecomposition(
        smoothers=tuple(smoothers),
        f_star=f_star,
        omega_f=omega_f,
        u_f=u_f,
        f_u=f_u,
        u_star=u_star,
        corrected_amplitudes=tuple(corrected),
        residual_history=tuple(history),
    )


def _stacked_lstsq(A: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Least-squares solution of A[k] x = d[k] for a (K, m, j) stack and (K, m) rows."""
    return (_lstsq_pinv(A) @ d[:, :, None])[..., 0]


def _stacked_images(dictionary: SlowDictionary, indices: np.ndarray) -> np.ndarray:
    """(K, m, j) observed images of the selections in a (K, j) index array."""
    return dictionary.observed.T[indices].transpose(0, 2, 1)


class GreedyBlock(_Record):
    """``extract_smoothers`` outputs for every column of an (m, K) data block.

    Row k belongs to column k: the first ``counts[k]`` entries of its
    ``indices`` and ``amplitudes`` are the selected candidates in selection
    order and their joint amplitudes; the rest hold -1 and 0.  A row has
    min(max_iters, len(dictionary)) slots.
    """

    def __init__(
        self,
        indices: np.ndarray,        # (K, slots) dictionary indices
        amplitudes: np.ndarray,     # (K, slots)
        counts: np.ndarray,         # (K,) greedy iterations
    ) -> None:
        self.__dict__.update(indices=indices, amplitudes=amplitudes, counts=counts)

    def coefficients(self, size: int, amplitudes: np.ndarray | None = None) -> np.ndarray:
        """(size, K) block holding each column's amplitudes at its selected indices."""
        amplitudes = self.amplitudes if amplitudes is None else amplitudes
        selected = self.indices >= 0
        out = np.zeros((size, len(self.indices)))
        out[self.indices[selected], np.nonzero(selected)[0]] = amplitudes[selected]
        return out


def extract_smoothers_block(
    data: np.ndarray,
    dictionary: SlowDictionary,
    rel_tol: float = 0.05,
    max_iters: int = 5,
) -> GreedyBlock:
    """``extract_smoothers`` for every column of an (m, K) block of onb data.

    All columns run the greedy at once in m-dimensional coordinates: one
    score product per step with ties to the lowest index, then a stacked
    least-squares fit of each column's selection through its pseudo-inverse
    at lstsq's rank cutoff, the per-case path's rule.  A column retires under
    the per-case rules: residual below 1e-12 of its data norm, a re-picked
    index, a relative drop below ``rel_tol``, or ``max_iters`` steps.  Each
    new residual is formed as d - A x, as in the per-case path, so every
    stop decision sees the same numbers up to roundoff.  A column picks each
    index at most once, so it never fills more than len(dictionary) slots.
    """
    _check_greedy(rel_tol, max_iters)
    max_iters = min(max_iters, len(dictionary))
    cases = _block_data(data, dictionary.space.m).T      # one case per row
    K = len(cases)
    indices = np.full((K, max_iters), -1)
    amplitudes = np.zeros((K, max_iters))
    counts = np.zeros(K, dtype=int)
    residual = cases.copy()
    norms = np.linalg.norm(cases, axis=1)           # current residual norms
    floor = 1e-12 * norms
    active = np.arange(K)
    for t in range(max_iters):
        active = active[norms[active] > floor[active]]
        if not active.size:
            break
        picked = np.argmax(dictionary.scores(residual[active]), axis=1)
        fresh = (indices[active, :t] != picked[:, None]).all(axis=1)
        active, picked = active[fresh], picked[fresh]
        if not active.size:
            break
        trial = np.concatenate((indices[active, :t], picked[:, None]), axis=1)
        A = _stacked_images(dictionary, trial)
        d = cases[active]
        x = _stacked_lstsq(A, d)
        new_residual = d - (A @ x[:, :, None])[..., 0]
        new_norms = np.linalg.norm(new_residual, axis=1)
        old = norms[active]
        keep = ~((old - new_norms) / old < rel_tol)
        active = active[keep]
        indices[active, : t + 1] = trial[keep]
        amplitudes[active, : t + 1] = x[keep]
        residual[active] = new_residual[keep]
        norms[active] = new_norms[keep]
        counts[active] = t + 1
    return GreedyBlock(indices, amplitudes, counts)


class SplitBlock(_Record):
    """``spbdw_reconstruct`` outputs for every column of an (m, K) data block."""

    def __init__(
        self,
        greedy: GreedyBlock,
        f_star: np.ndarray,                 # (num_points, K)
        u_f: BlockReconstruction,           # smooth solve of the smoothed data
        corrected_amplitudes: np.ndarray,   # (K, slots), laid out as greedy.amplitudes
        u_star: np.ndarray,                 # (num_points, K)
    ) -> None:
        self.__dict__.update(greedy=greedy, f_star=f_star, u_f=u_f,
                             corrected_amplitudes=corrected_amplitudes, u_star=u_star)

    def dominant_indices(self) -> np.ndarray:
        """Dictionary index of each column's largest refitted step; -1 without steps."""
        k = np.argmax(np.abs(self.corrected_amplitudes), axis=1)
        picked = self.greedy.indices[np.arange(len(k)), k]
        return np.where(self.greedy.counts > 0, picked, -1)


def spbdw_reconstruct_block(
    data: np.ndarray,
    background: Subspace,
    space: ObservationSpace,
    dictionary: SlowDictionary,
    model: NoiseModel | None = None,
    rel_tol: float = 0.05,
    max_iters: int = 5,
) -> SplitBlock:
    """``spbdw_reconstruct`` for every column of an (m, K) block of onb data.

    The greedy split is ``extract_smoothers_block``; f* and the smoothed data
    are built for the whole block and the smooth solve is
    ``pbdw_solve_block``, followed under a noise model by
    ``bpbdw_correct_block``.  The steps of every column are then
    refitted in one stacked fit, the same pseudo-inverse rule as the greedy's:
    an unused slot (index -1) is a zero column, which gets amplitude 0.
    Column k matches ``spbdw_reconstruct`` on column k up to roundoff.
    """
    _check_space(space, dictionary)
    greedy = extract_smoothers_block(data, dictionary, rel_tol, max_iters)
    f_star = dictionary.candidate_matrix @ greedy.coefficients(len(dictionary))
    weighted = space.onb.weighted_matrix
    first = pbdw_solve_block(data - weighted @ f_star, background, space)
    if model is None:
        # refitting against the data reproduces the greedy amplitudes
        return SplitBlock(greedy, f_star, first, greedy.amplitudes, first.states + f_star)

    u_f = bpbdw_correct_block(first, background, space, model)
    eta = corrected_constraint_block(weighted @ (first.states + f_star), space, model).T
    # an unused slot (index -1) is a zero column, whose amplitude the fit sets to 0
    selected = (greedy.indices >= 0)[:, None, :]
    A = np.where(selected, _stacked_images(dictionary, greedy.indices), 0.0)
    corrected = _stacked_lstsq(A, eta)
    f_u = dictionary.candidate_matrix @ greedy.coefficients(len(dictionary), corrected)
    return SplitBlock(greedy, f_star, u_f, corrected, u_f.states + f_u)


def multiscale_beta_bound(
    slow_space: Subspace,
    background: Subspace,
    space: ObservationSpace,
    orthogonality_tol: float = 1e-8,
) -> tuple[float, float, float]:
    """Stability constants of the combined and individual spaces.

    Requires the slow space orthogonal to the background AND to the observed
    images of the background basis.  Plain orthogonality is not enough: the
    lower bound expands ``||P(v_s + v_f)||^2`` into separate terms, which
    needs the projected components orthogonal as well (for merely orthogonal
    pairs the inequality can fail outright).  Under the full hypothesis the
    combined constant provably dominates the smaller individual one; a
    violation raises ``ValueError``.  Returns (beta_combined,
    beta_background, beta_slow).
    """
    if not slow_space.grid == background.grid == space.grid:
        raise GridMismatchError("slow space, background and observation space grids differ")
    # <v_s, v_f> and <v_s, P_W v_f> for every pair; the first failing pair in
    # row-major order decides the message
    plain = np.abs(slow_space.weighted_matrix @ background.matrix.T) > orthogonality_tol
    images = space.onb.matrix.T @ cross_gramian(space, background)
    coupled = np.abs(slow_space.weighted_matrix @ images) > orthogonality_tol
    failed = np.flatnonzero(plain | coupled)
    if failed.size and plain.flat[failed[0]]:
        raise ValueError("slow space is not orthogonal to the background; "
                         "orthogonalize it against the background first")
    if failed.size:
        raise ValueError("slow space couples to the background through the sensors; "
                         "orthogonalize it against the observed images of the "
                         "background basis as well")
    beta_f = inf_sup_beta(background, space)
    if slow_space.dimension == 0:
        return beta_f, beta_f, 1.0
    beta_s = inf_sup_beta(slow_space, space)
    combined = orthonormalize(list(background.basis) + list(slow_space.basis))
    if combined.dimension != background.dimension + slow_space.dimension:
        raise ValueError("combined basis lost rank; inputs were not independent")
    beta_combined = inf_sup_beta(combined, space)
    if beta_combined < min(beta_f, beta_s) - 1e-8:
        raise ValueError(
            f"combined stability constant {beta_combined:.3e} is below "
            f"min(beta_background, beta_slow) = {min(beta_f, beta_s):.3e}; the "
            "inputs break the orthogonality hypothesis by more than "
            f"orthogonality_tol={orthogonality_tol:g} allows"
        )
    return beta_combined, beta_f, beta_s


def total_variation(u: GridFunction) -> float:
    """Sum of absolute nodewise increments."""
    v = u.values
    return float(np.add.reduce(np.abs(v[1:] - v[:-1])))

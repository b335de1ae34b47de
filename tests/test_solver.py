import functools
import gc
import itertools
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from assim import (
    Box,
    Grid,
    GridFunction,
    GridMismatchError,
    Measurement,
    SensorArray,
    SinusoidSpec,
    SnapshotSet,
    StabilityError,
    Subspace,
    build_observation_space,
    compute_box,
    inf_sup_beta,
    observe,
    orthonormalize,
    pbdw_solve,
    pbdw_solve_boxed,
    pod,
    sample_sinusoids,
)
from assim import solver
from assim.rom import projection_residuals
from assim.obs import cross_gramian
from assim.solver import pbdw_solve_block

SRC = Path(__file__).parents[1] / "src"


def kkt_oracle(grid, V, Q, d):
    """Dense equality-constrained quadratic program via explicit KKT assembly.

    Minimizes the weighted distance to the span of V subject to matching the
    observation coordinates d; V and Q are row bases, both orthonormal in the
    weighted inner product.
    """
    w = grid.weights
    B = np.diag(w)
    H = B - B @ V.T @ V @ B
    A = Q @ B
    n_pts, m = grid.num_points, Q.shape[0]
    kkt = np.block([[H, A.T], [A, np.zeros((m, m))]])
    rhs = np.concatenate([np.zeros(n_pts), d])
    sol = np.linalg.solve(kkt, rhs)
    return sol[:n_pts]


def face_oracle(G, d, lo, hi):
    """argmin ||G c - d|| over lo <= c <= hi by scanning every face of the box.

    Each coordinate is held at its lower bound, held at its upper bound or
    left free (3**n faces; a coordinate with lo == hi is only ever held).
    The free coordinates of a face are the least-squares solution with the
    others held; faces that hold a coordinate at an infinite bound or whose
    solution leaves the box are dropped, and the smallest objective wins.
    """
    n = G.shape[1]
    best, best_c = np.inf, None
    for face in itertools.product((-1, 0, 1), repeat=n):
        face = np.array(face)
        free = face == 0
        if (free & (lo == hi)).any():
            continue
        c = np.where(face < 0, lo, hi)
        c[free] = 0.0
        if not np.isfinite(c).all():
            continue
        held = ~free
        c[free] = np.linalg.lstsq(G[:, free], d - G[:, held] @ c[held], rcond=None)[0]
        if not ((lo <= c) & (c <= hi)).all():
            continue
        value = float(np.sum((G @ c - d) ** 2))
        if value < best:
            best, best_c = value, c
    return best_c, best


def reference_bvls(A, b, lo, hi):
    """``solver._bvls`` as a plain loop that rebuilds every subproblem.

    Each pass recomputes its free set's pseudo-inverse, held block and
    indices from the masks, with the same arithmetic in the same order as the
    kernel, so the kernel must match it bit for bit on any cache state.
    """
    n = A.shape[1]
    fixed = lo == hi
    x = np.where(fixed, lo, 0.0)
    held = fixed.copy()
    side = np.zeros(n)

    def free_solve(free):
        A_free = A[:, free]
        P_free = np.linalg.pinv(A_free, rcond=np.finfo(float).eps * max(A_free.shape))
        return P_free @ (b - A[:, held] @ x[held])

    for _ in range(n):
        free = ~held
        if not free.any():
            break
        z = free_solve(free)
        below, above = z < lo[free], z > hi[free]
        x[free] = np.clip(z, lo[free], hi[free])
        index = np.flatnonzero(free)
        side[index[below]] = -1.0
        side[index[above]] = 1.0
        held[index[below | above]] = True
        if not (below | above).any():
            break

    residual = A @ x - b
    cost = residual @ residual
    for _ in range(math.ceil(solver.PUSH_CAP * n)):
        push = (A.T @ residual) * side
        k = int(np.argmax(push))
        if push[k] <= 0.0:
            break
        side[k] = 0.0
        held[k] = False
        for _ in range(math.ceil(solver.PASS_CAP * n)):
            free = ~held
            z = free_solve(free)
            x_free, lo_free, hi_free = x[free], lo[free], hi[free]
            below = z < lo_free
            crossed = np.flatnonzero(below | (z > hi_free))
            if crossed.size == 0:
                x[free] = z
                break
            bound = np.where(below, lo_free, hi_free)[crossed]
            steps = (bound - x_free[crossed]) / (z[crossed] - x_free[crossed])
            i = int(np.argmin(steps))
            j = crossed[i]
            x_free += steps[i] * (z - x_free)
            x_free[j] = bound[i]
            x[free] = x_free
            pinned = np.flatnonzero(free)[j]
            side[pinned] = -1.0 if below[j] else 1.0
            held[pinned] = True
        residual = A @ x - b
        previous, cost = cost, residual @ residual
        if cost >= previous:
            break
    return x


def assert_matches_face_oracle(G, d, lo, hi, c):
    """c is feasible and its objective is the oracle's to rel 1e-10.

    The coefficients are compared as well, to 1e-10 * cond(G), while
    cond(G) <= 1e3.  Beyond that the objective is flat to roundoff over a
    range of coefficients wider than this, and which of the near-equal faces
    the oracle picks there is arbitrary.
    """
    expected, best = face_oracle(G, d, lo, hi)
    assert ((lo <= c) & (c <= hi)).all()
    value = float(np.sum((G @ c - d) ** 2))
    # evaluating the objective rounds G c and d, whose sizes set the absolute floor
    floor = (1e-10 * (np.linalg.norm(G, 2) * np.linalg.norm(expected) + np.linalg.norm(d))) ** 2
    assert value == pytest.approx(best, rel=1e-10, abs=floor)
    cond = np.linalg.cond(G)
    if cond <= 1e3:
        scale = 1e-10 * cond * max(1.0, float(np.abs(expected).max()))
        np.testing.assert_allclose(c, expected, rtol=0, atol=scale)


# per coordinate: both bounds finite, no lower bound, no upper bound, unbounded
BOUND_KINDS = ("finite", "no_lower", "no_upper", "unbounded")


def random_bounds(rng, kinds):
    """Bounds of the given kinds; a "fixed" coordinate has lo == hi."""
    lo = rng.normal(size=len(kinds))
    hi = lo + rng.uniform(0.01, 2.0, size=len(kinds))
    kinds = np.array(kinds)
    lo[(kinds == "no_lower") | (kinds == "unbounded")] = -np.inf
    hi[(kinds == "no_upper") | (kinds == "unbounded")] = np.inf
    hi[kinds == "fixed"] = lo[kinds == "fixed"]
    return lo, hi


def interior_point(rng, lo, hi):
    """A point strictly inside the box, also along infinite bounds."""
    u = rng.uniform(0.1, 0.9, lo.size)
    step = 0.1 + np.abs(rng.normal(size=lo.size))
    has_lo, has_hi = np.isfinite(lo), np.isfinite(hi)
    lo, hi = np.where(has_lo, lo, 0.0), np.where(has_hi, hi, 0.0)
    return np.select(
        [has_lo & has_hi, has_lo, has_hi],
        [lo + u * (hi - lo), lo + step, hi - step],
        rng.normal(size=lo.size),
    )


def random_instance(rng, num_points, n, m):
    grid = Grid(0.0, 1.0, num_points)
    V = orthonormalize(
        [GridFunction(grid, rng.normal(size=num_points)) for _ in range(n)]
    )
    interior = rng.choice(np.arange(1, num_points - 1), size=m, replace=False)
    sensors = SensorArray(tuple(np.sort(grid.nodes[interior])), "pointwise")
    space = build_observation_space(sensors, grid)
    d = rng.normal(size=m)
    return grid, V, space, Measurement(d, space)


class TestPbdwSolve:
    def test_recovers_in_model_states(self, grid):
        snaps = sample_sinusoids(SinusoidSpec(), grid, 32, seed=1)
        basis = pod(snaps, 5)
        space = build_observation_space(SensorArray.equidistant(25, grid), grid)
        v = basis.subspace.combine(np.array([3.0, -1.0, 0.5, 2.0, -0.25]))
        rec = pbdw_solve(observe(v, space), basis.subspace, space)
        assert (rec.state - v).norm() <= 1e-9 * v.norm()

    def test_empty_background_is_observation_lift(self, grid, rng):
        space = build_observation_space(SensorArray.equidistant(6, grid), grid)
        d = rng.normal(size=6)
        target = Measurement(d, space)
        rec = pbdw_solve(target, Subspace(grid, np.zeros((0, grid.num_points))), space)
        assert (rec.state - target.lift()).norm() < 1e-12
        assert rec.rom_coeffs.size == 0

    def test_against_kkt_oracle_single(self, rng):
        grid, V, space, target = random_instance(rng, num_points=6, n=2, m=3)
        other = Measurement(rng.normal(size=3), space)
        # the later solves reuse the plan the first one built for (V, space)
        for d in (target, other, target):
            expected = kkt_oracle(grid, V.matrix, space.onb.matrix, d.coeffs)
            rec = pbdw_solve(d, V, space)
            assert np.max(np.abs(rec.state.values - expected)) < 1e-10

    def test_plans_are_per_pair(self, rng):
        grid = Grid(0.0, 1.0, 40)
        fns = [GridFunction(grid, rng.normal(size=40)) for _ in range(3)]
        narrow, wide = orthonormalize(fns[:2]), orthonormalize(fns)
        spaces = [
            build_observation_space(SensorArray(tuple(grid.nodes[idx]), "pointwise"), grid)
            for idx in (np.arange(3, 37, 3), np.arange(2, 38, 3))
        ]
        pairs = [(narrow, spaces[0]), (wide, spaces[0]), (narrow, spaces[1])]
        # interleaved twice: a plan built for one pair must not serve another
        for V, space in pairs + pairs[::-1]:
            d = rng.normal(size=space.m)
            expected = kkt_oracle(grid, V.matrix, space.onb.matrix, d)
            rec = pbdw_solve(Measurement(d, space), V, space)
            assert np.max(np.abs(rec.state.values - expected)) < 1e-10
            assert rec.beta == pytest.approx(inf_sup_beta(V, space), rel=1e-12)
        assert len(solver._PLANS[narrow]) == 2
        assert len(solver._PLANS[wide]) == 1

    def test_cached_plan_inputs_cannot_be_changed(self, grid):
        # a plan caches products of these arrays; a write after a solve would leave it stale
        basis = pod(sample_sinusoids(SinusoidSpec(), grid, 20, seed=3), 4)
        space = build_observation_space(SensorArray.equidistant(10, grid), grid)
        pbdw_solve(observe(basis.subspace.basis[0], space), basis.subspace, space)
        plan = solver._plan(basis.subspace, space)
        for array in (basis.subspace.matrix, plan.background_t, plan.onb_t, plan.onb_weighted):
            with pytest.raises(ValueError, match="read-only"):
                array[0] *= -1

    def test_plan_cache_keeps_neither_object_alive(self, grid, rng):
        snaps = sample_sinusoids(SinusoidSpec(), grid, 10, seed=14)
        background = pod(snaps, 3).subspace
        space = build_observation_space(SensorArray.equidistant(8, grid), grid)
        pbdw_solve(observe(snaps.snapshots[0], space), background, space)
        assert space in solver._PLANS[background]
        del snaps
        gc.collect()
        dead_space = weakref.ref(space)
        del space
        gc.collect()
        assert dead_space() is None
        assert len(solver._PLANS[background]) == 0
        dead_background = weakref.ref(background)
        count = len(solver._PLANS)
        del background
        gc.collect()
        assert dead_background() is None
        assert len(solver._PLANS) == count - 1

    def test_constraint_exact(self, grid, rng):
        snaps = sample_sinusoids(SinusoidSpec(), grid, 20, seed=2)
        basis = pod(snaps, 4)
        space = build_observation_space(SensorArray.equidistant(10, grid), grid)
        d = rng.normal(size=10) * 30.0
        rec = pbdw_solve(Measurement(d, space), basis.subspace, space)
        assert rec.constraint_residual <= 1e-8 * max(1.0, float(np.linalg.norm(d)))
        assert np.allclose(space.onb.coefficients(rec.state), d, atol=1e-8)

    def test_orthogonal_split(self, grid, rng):
        snaps = sample_sinusoids(SinusoidSpec(), grid, 20, seed=3)
        basis = pod(snaps, 4)
        space = build_observation_space(SensorArray.equidistant(10, grid), grid)
        d = rng.normal(size=10) * 30.0
        rec = pbdw_solve(Measurement(d, space), basis.subspace, space)
        rom_part = basis.subspace.combine(rec.rom_coeffs)
        corr_part = space.onb.combine(rec.correction_coeffs)
        cross = rec.state.norm() ** 2 - rom_part.norm() ** 2 - corr_part.norm() ** 2
        assert abs(cross) <= 1e-8 * max(1.0, rec.state.norm() ** 2)

    def test_unobservable_background_rejected(self, grid, rng):
        space = build_observation_space(SensorArray.equidistant(6, grid), grid)
        u = GridFunction(grid, rng.normal(size=grid.num_points))
        perp = u - space.onb.combine(space.onb.coefficients(u))
        V = orthonormalize([perp])
        target = Measurement(rng.normal(size=6), space)
        # rejected on every call, not only when the pair's plan is built
        for _ in range(2):
            with pytest.raises(StabilityError):
                pbdw_solve(target, V, space)
            with pytest.raises(StabilityError):
                pbdw_solve_boxed(target, V, space, Box([-1.0], [1.0]))

    def test_stability_error_names_the_cell(self, grid, rng):
        space = build_observation_space(SensorArray.equidistant(6, grid), grid)
        u = GridFunction(grid, rng.normal(size=grid.num_points))
        V = orthonormalize([u - space.onb.combine(space.onb.coefficients(u))])
        with pytest.raises(StabilityError, match=r"n=1, m=6"):
            pbdw_solve(Measurement(np.zeros(6), space), V, space)

    def test_more_modes_than_sensors_rejected(self, grid):
        snaps = sample_sinusoids(SinusoidSpec(), grid, 16, seed=4)
        basis = pod(snaps, 8)
        space = build_observation_space(SensorArray.equidistant(5, grid), grid)
        for _ in range(2):
            with pytest.raises(ValueError):
                pbdw_solve(Measurement(np.zeros(5), space), basis.subspace, space)

    def test_error_bound(self, grid):
        # noiseless targets from validation snapshots satisfy the a priori bound
        spec = SinusoidSpec()
        training = sample_sinusoids(spec, grid, 64, seed=5)
        validation = sample_sinusoids(spec, grid, 25, seed=6)
        basis = pod(training, 10)
        space = build_observation_space(SensorArray.equidistant(25, grid), grid)
        for n in (2, 5, 8):
            sub = basis.subspace.truncate(n)
            eps = float(projection_residuals(validation, sub).max())
            beta = inf_sup_beta(sub, space)
            for truth in validation:
                rec = pbdw_solve(observe(truth, space), sub, space)
                assert (rec.state - truth).norm() <= eps / beta + 1e-8


class TestPbdwSolveBlock:
    def test_columns_match_single_solves(self, rng):
        grid, V, space, _ = random_instance(rng, num_points=30, n=4, m=9)
        D = rng.normal(size=(9, 5))
        block = pbdw_solve_block(D, V, space)
        assert block.states.shape == (30, 5)
        for k in range(5):
            rec = pbdw_solve(Measurement(D[:, k], space), V, space)
            expected = kkt_oracle(grid, V.matrix, space.onb.matrix, D[:, k])
            assert np.max(np.abs(block.states[:, k] - expected)) < 1e-10
            assert np.max(np.abs(block.states[:, k] - rec.state.values)) < 1e-12
            assert np.allclose(block.rom_coeffs[:, k], rec.rom_coeffs, rtol=0, atol=1e-12)
            assert block.constraint_residuals[k] < 1e-10
            assert np.allclose(block.observed[:, k], D[:, k], rtol=0, atol=1e-10)
        assert block.beta == rec.beta

    def test_single_column_is_the_per_case_solve(self, rng):
        # a one-column block and the single solve run the same kernel, to the last bit
        grid, V, space, target = random_instance(rng, num_points=30, n=4, m=9)
        block = pbdw_solve_block(target.coeffs[:, None], V, space)
        rec = pbdw_solve(target, V, space)
        assert np.array_equal(block.states[:, 0], rec.state.values)
        assert np.array_equal(block.correction_coeffs[:, 0], rec.correction_coeffs)

    def test_bad_blocks_rejected(self, rng):
        grid, V, space, _ = random_instance(rng, num_points=30, n=4, m=9)
        for bad in (np.zeros(9), np.zeros((8, 3))):
            with pytest.raises(ValueError, match="data block"):
                pbdw_solve_block(bad, V, space)
        D = np.zeros((9, 3))
        D[2, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            pbdw_solve_block(D, V, space)


class TestPbdwSolveBoxed:
    def test_inactive_box_matches_unboxed(self, grid, rng):
        snaps = sample_sinusoids(SinusoidSpec(), grid, 20, seed=7)
        basis = pod(snaps, 4)
        space = build_observation_space(SensorArray.equidistant(12, grid), grid)
        truth = snaps.snapshots[0]
        target = observe(truth, space)
        plain = pbdw_solve(target, basis.subspace, space)
        wide = Box(plain.rom_coeffs - 100.0, plain.rom_coeffs + 100.0)
        boxed = pbdw_solve_boxed(target, basis.subspace, space, wide)
        assert (boxed.state - plain.state).norm() <= 1e-9 * max(1.0, plain.state.norm())

    def test_fully_clamped_box(self, grid, rng):
        snaps = sample_sinusoids(SinusoidSpec(), grid, 20, seed=8)
        basis = pod(snaps, 3)
        space = build_observation_space(SensorArray.equidistant(10, grid), grid)
        target = Measurement(rng.normal(size=10), space)
        zero_box = Box(np.zeros(3), np.zeros(3))
        rec = pbdw_solve_boxed(target, basis.subspace, space, zero_box)
        assert np.array_equal(rec.rom_coeffs, np.zeros(3))
        assert (rec.state - target.lift()).norm() < 1e-10

    def test_scalar_clamp_against_interval_oracle(self, grid):
        snaps = sample_sinusoids(SinusoidSpec(), grid, 10, seed=9)
        basis = pod(snaps, 1)
        space = build_observation_space(SensorArray.equidistant(8, grid), grid)
        v = basis.subspace.basis[0]
        target = observe(2.0 * v, space)                # unconstrained coefficient = 2
        plain = pbdw_solve(target, basis.subspace, space)
        assert plain.rom_coeffs[0] == pytest.approx(2.0, abs=1e-9)
        rec = pbdw_solve_boxed(target, basis.subspace, space, Box([-1.0], [1.0]))
        # oracle: scalar quadratic on an interval clamps at the nearest endpoint
        assert rec.rom_coeffs[0] == pytest.approx(1.0, abs=1e-9)
        assert rec.constraint_residual <= 1e-8 * max(1.0, target.norm())

    def test_infeasible_box(self):
        with pytest.raises(ValueError):
            Box([1.0], [0.0])

    @pytest.mark.parametrize("lo, hi", [([np.nan], [1.0]), ([0.0], [np.nan]),
                                        ([0.0, np.nan], [1.0, np.nan])])
    def test_nan_bounds_rejected(self, lo, hi):
        with pytest.raises(ValueError, match="NaN"):
            Box(lo, hi)

    def test_non_vector_bounds_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            Box(-100 * np.ones((2, 2)), 100 * np.ones((2, 2)))

    @pytest.mark.parametrize("bound", [np.inf, -np.inf])
    def test_coordinate_fixed_at_infinity_rejected(self, bound):
        with pytest.raises(ValueError, match="fixed coordinate"):
            Box([0.0, bound], [1.0, bound])

    def test_boxes_compare_by_identity(self):
        box = Box([0.0, 1.0], [1.0, 1.0])
        assert box == box and box != Box([0.0, 1.0], [1.0, 1.0])
        assert len({box, Box(box.lo, box.hi)}) == 2

    def test_infinite_bounds_allowed(self):
        box = Box([-np.inf, 0.0, -np.inf], [np.inf, np.inf, 2.0])
        assert box.dimension == 3

    def test_one_sided_box_against_face_oracle(self, rng):
        grid, V, space, target = random_instance(rng, 40, 4, 9)
        plain = pbdw_solve(target, V, space)
        # cap every coefficient below its unconstrained value, no lower bounds
        upper = plain.rom_coeffs - 0.5 * np.abs(plain.rom_coeffs) - 0.1
        box = Box(np.full(4, -np.inf), upper)
        rec = pbdw_solve_boxed(target, V, space, box)
        assert_matches_face_oracle(
            cross_gramian(space, V), target.coeffs, box.lo, box.hi, rec.rom_coeffs
        )
        assert (rec.rom_coeffs >= upper).any()     # some bound is active
        assert rec.constraint_residual <= 1e-8 * max(1.0, target.norm())

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 5),
        extra=st.integers(0, 4),
        kinds=st.lists(st.sampled_from(BOUND_KINDS + ("fixed",)), min_size=5, max_size=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_against_face_oracle(self, seed, n, extra, kinds):
        rng = np.random.default_rng(seed)
        grid, V, space, target = random_instance(rng, 30, n, n + extra)
        kinds = kinds[:n]
        lo, hi = random_bounds(rng, kinds)
        fixed = np.array(kinds) == "fixed"
        rec = pbdw_solve_boxed(target, V, space, Box(lo, hi))
        assert np.array_equal(rec.rom_coeffs[fixed], lo[fixed])
        assert_matches_face_oracle(cross_gramian(space, V), target.coeffs, lo, hi, rec.rom_coeffs)
        assert rec.constraint_residual <= 1e-8 * max(1.0, target.norm())


def boxed_columns(D, V, space, box):
    """``pbdw_solve_boxed`` on each column of an m x K data block.

    Every column runs on the pair's one plan, so later columns reuse the
    free sets that earlier ones cached.  Returns the (n, K) coefficients, the
    (num_points, K) states and the reconstructions.
    """
    recs = [pbdw_solve_boxed(Measurement(d, space), V, space, box) for d in D.T]
    C = np.column_stack([rec.rom_coeffs for rec in recs])
    states = np.column_stack([rec.state.values for rec in recs])
    return C, states, recs


BLOCK_KINDS = pytest.mark.parametrize(
    "kinds",
    [
        ("fixed", "finite", "finite", "fixed"),
        ("unbounded", "no_lower", "no_upper", "finite"),
        ("no_lower", "no_lower", "no_lower", "no_lower"),
    ],
    ids=["fixed", "infinite", "one_sided"],
)


class TestPbdwSolveBoxedBlock:
    """The boxed solve of a block of data columns, against ``pbdw_solve_boxed``
    on each column and the face oracle."""

    @BLOCK_KINDS
    def test_columns_against_face_oracle(self, rng, kinds):
        grid, V, space, _ = random_instance(rng, num_points=40, n=4, m=9)
        lo, hi = random_bounds(rng, kinds)
        fixed = np.array(kinds) == "fixed"
        box = Box(lo, hi)
        D = 3.0 * rng.normal(size=(9, 6))
        C, _, recs = boxed_columns(D, V, space, box)
        held = np.isclose(C, lo[:, None]) | np.isclose(C, hi[:, None])
        assert held[~fixed].any()                   # the box is active somewhere
        G = cross_gramian(space, V)
        for k, rec in enumerate(recs):
            assert_matches_face_oracle(G, D[:, k], lo, hi, rec.rom_coeffs)
            assert np.array_equal(rec.rom_coeffs[fixed], lo[fixed])
            assert rec.constraint_residual < 1e-10 * max(1.0, np.linalg.norm(D[:, k]))

    @BLOCK_KINDS
    def test_columns_are_the_per_case_solves(self, rng, kinds):
        grid, V, space, _ = random_instance(rng, num_points=40, n=4, m=9)
        box = Box(*random_bounds(rng, kinds))
        D = 3.0 * rng.normal(size=(9, 6))
        C, states, recs = boxed_columns(D, V, space, box)
        # the columns end on different active sets, so the lockstep passes split them
        held = np.isclose(C, box.lo[:, None]) | np.isclose(C, box.hi[:, None])
        assert len({column.tobytes() for column in held.T}) > 1
        for block in (pbdw_solve_block(D, V, space, box),
                      pbdw_solve_block(D[:, :1], V, space, box)):   # K = 1 too
            K = block.states.shape[1]
            assert np.array_equal(block.states, states[:, :K])
            assert np.array_equal(block.rom_coeffs, C[:, :K])
            for k, rec in enumerate(recs[:K]):
                assert block.beta == rec.beta
                assert np.array_equal(block.correction_coeffs[:, k], rec.correction_coeffs)
                assert block.constraint_residuals[k] == rec.constraint_residual

    @BLOCK_KINDS
    def test_box_is_an_argument_of_pbdw_solve(self, rng, kinds):
        grid, V, space, _ = random_instance(rng, num_points=40, n=4, m=9)
        box = Box(*random_bounds(rng, kinds))
        D = 3.0 * rng.normal(size=(9, 6))
        C, _, recs = boxed_columns(D, V, space, box)
        assert not np.allclose(C, pbdw_solve_block(D, V, space).rom_coeffs)   # the box binds
        for d, rec in zip(D.T, recs):
            got = pbdw_solve(Measurement(d, space), V, space, box)
            assert np.array_equal(got.state.values, rec.state.values)
            assert np.array_equal(got.rom_coeffs, rec.rom_coeffs)
            assert np.array_equal(got.correction_coeffs, rec.correction_coeffs)
            assert (got.beta, got.constraint_residual) == (rec.beta, rec.constraint_residual)

    def test_bad_inputs_rejected(self, rng):
        grid, V, space, target = random_instance(rng, num_points=30, n=4, m=9)
        with pytest.raises(ValueError, match="box has 3 bounds"):
            pbdw_solve_boxed(target, V, space, Box(-np.ones(3), np.ones(3)))
        box = Box(-np.ones(4), np.ones(4))
        for bad in (np.zeros(9), np.zeros((8, 3))):
            with pytest.raises(ValueError, match="data block"):
                pbdw_solve_block(bad, V, space, box)
        D = np.zeros((9, 3))
        D[2, 1] = np.inf
        with pytest.raises(ValueError, match="finite"):
            pbdw_solve_block(D, V, space, box)


class TestFreeSetCache:
    """The plan's cache of free-set pseudo-inverses changes no bits of a solve."""

    @staticmethod
    def instance(rng, kinds=("finite",) * 5):
        grid, V, space, _ = random_instance(rng, num_points=40, n=len(kinds), m=9)
        lo, hi = random_bounds(rng, kinds)
        return V, space, Box(lo, hi), 3.0 * rng.normal(size=(9, 12))

    @pytest.mark.parametrize(
        "kinds",
        [("finite",) * 5, ("fixed", "finite", "no_lower", "fixed", "finite")],
        ids=["free", "fixed"],
    )
    def test_cold_and_warm_caches_agree(self, rng, kinds):
        V, space, box, D = self.instance(rng, kinds)
        free_sets = solver._plan(V, space).free_sets
        cold = []
        for d in D.T:
            free_sets.clear()
            cold.append(pbdw_solve_boxed(Measurement(d, space), V, space, box))
        free_sets.clear()
        C, states, _ = boxed_columns(D, V, space, box)
        assert len(free_sets) > 1                  # the columns share the cache
        held = np.isclose(C, box.lo[:, None]) | np.isclose(C, box.hi[:, None])
        assert held[~box.fixed].any()              # the box is active somewhere
        # every single solve now runs on sets the other columns cached
        for k, (d, rec) in enumerate(zip(D.T, cold)):
            warm = pbdw_solve_boxed(Measurement(d, space), V, space, box)
            assert np.array_equal(warm.rom_coeffs, rec.rom_coeffs)
            assert np.array_equal(warm.state.values, rec.state.values)
            assert np.array_equal(C[:, k], rec.rom_coeffs)
            assert np.array_equal(states[:, k], rec.state.values)
            assert np.array_equal(rec.rom_coeffs[box.fixed], box.lo[box.fixed])

    def test_warm_plan_factors_nothing(self, rng, monkeypatch):
        V, space, box, D = self.instance(rng)
        calls = []
        for module, name in ((np.linalg, "lstsq"), (np.linalg, "pinv"), (np, "flatnonzero")):
            def counting(*args, _name=name, _call=getattr(module, name), **kwargs):
                calls.append(_name)
                return _call(*args, **kwargs)
            monkeypatch.setattr(module, name, counting)
        boxed_columns(D, V, space, box)
        assert {"pinv", "flatnonzero"} <= set(calls) and "lstsq" not in calls
        # a revisited free set rebuilds neither its pseudo-inverse nor its indices
        calls.clear()
        boxed_columns(D, V, space, box)
        assert calls == []
        # the lockstep passes of a block visit the free sets of its columns' own solves
        pbdw_solve_block(D, V, space, box)
        assert calls == []

    def test_capped_cache_gives_the_same_results(self, rng, monkeypatch):
        V, space, box, D = self.instance(rng)
        free_sets = solver._plan(V, space).free_sets
        full_C, full_states, _ = boxed_columns(D, V, space, box)
        assert len(free_sets) > 2
        free_sets.clear()
        monkeypatch.setattr(solver, "FREE_SET_CAP", 2)
        for _ in range(2):
            C, states, _ = boxed_columns(D, V, space, box)
            assert len(free_sets) == 2
            assert np.array_equal(C, full_C)
            assert np.array_equal(states, full_states)


class TestLstsqPinv:
    def test_drops_what_lstsq_drops(self, rng):
        # a singular value of 4e-15 relative lies between pinv's own default
        # cutoff (1e-15) and lstsq's eps * max(rows, columns) (8.9e-15 at 40)
        for shape in ((40, 3), (3, 40)):
            U = np.linalg.qr(rng.normal(size=(shape[0], 3)))[0]
            V = np.linalg.qr(rng.normal(size=(shape[1], 3)))[0]
            A = (U * [1.0, 0.5, 4e-15]) @ V.T
            b = rng.normal(size=shape[0])
            expected = np.linalg.lstsq(A, b, rcond=None)[0]
            np.testing.assert_allclose(solver._lstsq_pinv(A) @ b, expected, rtol=1e-10)
            stacked = solver._lstsq_pinv(np.stack([A, 2.0 * A])) @ b
            np.testing.assert_allclose(stacked, [expected, expected / 2.0], rtol=1e-10)


class TestBvls:
    """The bounded least-squares kernel on the SVD factors of a cross-Gramian."""

    @staticmethod
    def gramian(rng, m, n, log_beta):
        """An m x n G with orthonormal left factor U and beta = 10**log_beta."""
        U = np.linalg.qr(rng.normal(size=(m, n)))[0]
        W = np.linalg.qr(rng.normal(size=(n, n)))[0]
        return U, (U * np.geomspace(1.0, 10.0**log_beta, n)) @ W

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 5),
        extra=st.integers(0, 3),
        log_beta=st.floats(-6.0, 0.0),
        kinds=st.lists(st.sampled_from(BOUND_KINDS), min_size=5, max_size=5),
        inside=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_against_face_oracle(self, seed, n, extra, log_beta, kinds, inside):
        rng = np.random.default_rng(seed)
        m = n + extra
        U, G = self.gramian(rng, m, n, log_beta)
        lo, hi = random_bounds(rng, kinds[:n])
        if inside:
            # the unconstrained optimum lies strictly inside the box
            r = rng.normal(size=m)
            d = G @ interior_point(rng, lo, hi) + (r - U @ (U.T @ r))
        else:
            d = G @ (3.0 * rng.normal(size=n)) + 0.3 * rng.normal(size=m)
        Uf, S, Vt = np.linalg.svd(G, full_matrices=False)
        x = solver._bvls(S[:, None] * Vt, Uf.T @ d, lo, hi, lo == hi, {})
        assert_matches_face_oracle(G, d, lo, hi, x)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 8),
        extra=st.integers(0, 3),
        log_beta=st.floats(-6.0, 0.0),
        kinds=st.lists(st.sampled_from(BOUND_KINDS + ("fixed",)), min_size=8, max_size=8),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_bit_for_bit(self, seed, n, extra, log_beta, kinds):
        rng = np.random.default_rng(seed)
        _, G = self.gramian(rng, n + extra, n, log_beta)
        lo, hi = random_bounds(rng, kinds[:n])
        Uf, S, Vt = np.linalg.svd(G, full_matrices=False)
        R, B = S[:, None] * Vt, Uf.T @ (G @ (3.0 * rng.normal(size=(n, 6))))
        expected = [reference_bvls(R, b, lo, hi) for b in B.T]
        warm, capped = {}, {}
        for _ in range(2):                   # the second pass runs on filled caches
            for b, x in zip(B.T, expected):
                assert np.array_equal(solver._bvls(R, b, lo, hi, lo == hi, {}), x)
                assert np.array_equal(solver._bvls(R, b, lo, hi, lo == hi, warm), x)
                with mock.patch.object(solver, "FREE_SET_CAP", 2):
                    assert np.array_equal(solver._bvls(R, b, lo, hi, lo == hi, capped), x)
            # the six columns at once, each row with its own passes
            lockstep = functools.partial(solver._bvls_lockstep, R, B.T, lo, hi, lo == hi)
            assert np.array_equal(lockstep({}), expected)
            assert np.array_equal(lockstep(warm), expected)
            with mock.patch.object(solver, "FREE_SET_CAP", 2):
                assert np.array_equal(lockstep(capped), expected)
        assert len(capped) <= 2

    # push and pass caps per coordinate: each binds for some rows below the default
    LOW_CAPS = [(0, 1), (0.25, 1), (0.5, 1), (1, 1), (3, 0.1), (3, 0.25), (0.5, 0.25)]

    @pytest.mark.parametrize("seed", [1, 5])
    def test_rows_keep_their_own_counts_where_the_caps_bind(self, seed):
        # 256 rows on one box of mixed widths: below the default caps the caps stop
        # rows at different passes, and row k of the lockstep kernel must still be
        # _bvls, and the reference loop, on row k alone; the seeds are ones where a
        # pass count, a step length or a no-descent verdict shared across rows
        # would change some row
        rng = np.random.default_rng(seed)
        n = 6
        _, G = self.gramian(rng, n + 2, n, -1.0)
        lo = rng.normal(size=n)
        hi = lo + rng.uniform(0.01, 2.0, size=n)
        Uf, S, Vt = np.linalg.svd(G, full_matrices=False)
        R, B = S[:, None] * Vt, Uf.T @ (G @ rng.normal(size=(n, 256)))
        default = (solver.PUSH_CAP, solver.PASS_CAP)
        results = {}
        for caps in self.LOW_CAPS + [default]:
            with mock.patch.multiple(solver, PUSH_CAP=caps[0], PASS_CAP=caps[1]):
                expected = [solver._bvls(R, b, lo, hi, lo == hi, {}) for b in B.T]
                for b, x in zip(B.T[:16], expected):
                    assert np.array_equal(reference_bvls(R, b, lo, hi), x)
                results[caps] = solver._bvls_lockstep(R, B.T, lo, hi, lo == hi, {})
            assert np.array_equal(results[caps], expected), caps
        # each cap binds: some rows, not all, stop short of their solution
        for caps in [(0.25, 1), (3, 0.1)]:
            stopped = (results[caps] != results[default]).any(axis=1)
            assert 0 < stopped.sum() < len(stopped), caps

    def test_no_scipy_import(self):
        code = (
            "import sys, numpy as np\n"
            "import assim\n"
            "from assim import *\n"
            "grid = Grid(0.0, 1.0, 64)\n"
            "basis = pod(sample_sinusoids(SinusoidSpec(), grid, 8, seed=1), 3)\n"
            "space = build_observation_space(SensorArray.equidistant(6, grid), grid)\n"
            "target = Measurement(np.arange(6.0), space)\n"
            "rec = pbdw_solve_boxed(target, basis.subspace, space, Box(-np.ones(3), np.ones(3)))\n"
            "assert np.isfinite(rec.rom_coeffs).all()\n"
            "print(sorted(k for k in sys.modules if k == 'scipy' or k.startswith('scipy.')))\n"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": str(SRC)})
        assert out.stdout.strip() == "[]"


class TestComputeBox:
    def test_singleton(self, grid, rng):
        snaps = sample_sinusoids(SinusoidSpec(), grid, 12, seed=10)
        basis = pod(snaps, 3)
        single = SnapshotSet(grid, snaps.matrix[:1], snaps.parameters[:1])
        box = compute_box(single, basis.subspace, margin=1.0)
        coeffs = basis.subspace.coefficients(snaps.snapshots[0])
        assert np.allclose(box.lo, coeffs, atol=1e-12)
        assert np.allclose(box.hi, coeffs, atol=1e-12)

    def test_symmetric_snapshots(self, grid, rng):
        fns = [GridFunction(grid, rng.normal(size=grid.num_points)) for _ in range(4)]
        arrays = [f.values for f in fns] + [-f.values for f in fns]
        snaps = SnapshotSet(grid, arrays, tuple({} for _ in arrays))
        basis = pod(snaps, 3)
        box = compute_box(snaps, basis.subspace, margin=1.3)
        assert np.allclose(box.lo, -box.hi, atol=1e-12)

    def test_against_exhaustive_scan(self, grid):
        snaps = sample_sinusoids(SinusoidSpec(), grid, 5, seed=11)
        basis = pod(snaps, 2)
        box = compute_box(snaps, basis.subspace, margin=1.0)
        coeffs = np.stack([basis.subspace.coefficients(s) for s in snaps])
        assert np.allclose(box.lo, coeffs.min(axis=0), atol=1e-12)
        assert np.allclose(box.hi, coeffs.max(axis=0), atol=1e-12)

    def test_empty_set_rejected(self, grid):
        snaps = sample_sinusoids(SinusoidSpec(), grid, 3, seed=12)
        basis = pod(snaps, 2)
        with pytest.raises(ValueError):
            compute_box(SnapshotSet(grid, np.empty((0, grid.num_points)), ()),
                        basis.subspace)

    def test_snapshots_on_another_grid_rejected(self, grid):
        snaps = sample_sinusoids(SinusoidSpec(), grid, 5, seed=12)
        basis = pod(snaps, 2)
        other = Grid(0.0, 1.0, grid.num_points)     # same node count, other interval
        with pytest.raises(GridMismatchError):
            compute_box(SnapshotSet(other, snaps.matrix, snaps.parameters), basis.subspace)

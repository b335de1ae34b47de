from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from assim import (
    Grid,
    GridFunction,
    GridMismatchError,
    NotOrthonormalError,
    Subspace,
    inner_product,
    norm,
    orthonormalize,
    project_onto,
)

# frozen from an independent 1e6-node trapezoid quadrature of sin^2 on [0, 2*pi]
SIN_SIN_ORACLE = 3.1415926535897936


def random_fn(grid, rng, scale=1.0):
    return GridFunction(grid, rng.normal(0.0, scale, grid.num_points))


def reference_gram_schmidt(vectors, weights, tol_drop=1e-10):
    """Modified Gram-Schmidt with a second pass, one row at a time.

    A row is dropped when it is zero or its residual falls below ``tol_drop``
    times its norm.  Returns the orthonormal rows and the kept indices.
    """
    rows, kept = [], []
    for i, v in enumerate(np.array(vectors, dtype=float)):
        n0 = np.sqrt(np.sum(weights * v**2))
        if n0 == 0.0:
            continue
        for _ in range(2):
            for q in rows:
                v -= np.sum(weights * q * v) * q
        nv = np.sqrt(np.sum(weights * v**2))
        if nv >= tol_drop * n0:
            rows.append(v / nv)
            kept.append(i)
    return np.array(rows).reshape(len(rows), len(weights)), kept


class TestGrid:
    def test_weights_sum_to_length(self):
        for num_points in (2, 3, 17, 512):
            g = Grid(0.0, 2 * np.pi, num_points)
            assert g.weights.sum() == pytest.approx(2 * np.pi, abs=1e-12)
            assert (g.weights > 0).all()

    def test_invalid_grids(self):
        with pytest.raises(ValueError):
            Grid(1.0, 0.0, 16)
        with pytest.raises(ValueError):
            Grid(0.0, 1.0, 1)
        # an infinite end would give h = inf
        for a, b in ((0.0, float("inf")), (-float("inf"), 0.0), (0.0, float("nan"))):
            with pytest.raises(ValueError, match="finite a < b"):
                Grid(a, b, 5)


class TestInnerProduct:
    def test_constants_exact(self):
        for num_points in (2, 51, 512):
            g = Grid(0.0, 2 * np.pi, num_points)
            one = g.function(np.ones_like)
            assert inner_product(one, one) == pytest.approx(2 * np.pi, abs=1e-13)

    def test_zero_element(self, grid, rng):
        u = random_fn(grid, rng)
        assert inner_product(u, grid.zero()) == 0.0

    def test_sin_sin_against_quadrature_oracle(self):
        g = Grid(0.0, 2 * np.pi, 2049)
        u = g.function(np.sin)
        assert abs(inner_product(u, u) - SIN_SIN_ORACLE) < 1e-6

    def test_grid_mismatch(self, grid):
        other = Grid(0.0, 2 * np.pi, 256)
        with pytest.raises(GridMismatchError):
            inner_product(grid.zero(), other.zero())


class TestProjection:
    def test_projection_onto_own_span(self, grid, rng):
        u = random_fn(grid, rng)
        X = orthonormalize([u])
        pu = project_onto(u, X)
        assert (pu - u).norm() <= 1e-12 * u.norm()

    def test_empty_subspace(self, grid, rng):
        u = random_fn(grid, rng)
        X = Subspace(grid, np.zeros((0, grid.num_points)))
        assert project_onto(u, X).norm() == 0.0

    def test_against_dense_least_squares_oracle(self, rng):
        # 3-node grid; oracle solves the weighted normal equations directly
        g = Grid(0.0, 1.0, 3)
        raw = random_fn(g, rng)
        X = orthonormalize([raw])
        u = random_fn(g, rng)

        W = np.diag(g.weights)
        A = raw.values[:, None]
        coef = np.linalg.solve(A.T @ W @ A, A.T @ W @ u.values)
        expected = A @ coef
        got = project_onto(u, X)
        assert np.allclose(got.values, expected.ravel(), atol=1e-12)

    def test_residual_orthogonality(self, grid, rng):
        fns = [random_fn(grid, rng) for _ in range(4)]
        X = orthonormalize(fns)
        u = random_fn(grid, rng)
        r = u - project_onto(u, X)
        for q in X.basis:
            assert abs(inner_product(r, q)) < 1e-10

    def test_non_orthonormal_basis_rejected(self, grid, rng):
        u = random_fn(grid, rng)
        with pytest.raises(NotOrthonormalError):
            Subspace(grid, np.stack([u.values, 2.0 * u.values]))


class TestSubspaceMatrix:
    def test_one_dimensional_array_rejected(self, grid, rng):
        row = orthonormalize([random_fn(grid, rng)]).matrix[0]
        with pytest.raises(ValueError, match="shape"):
            Subspace(grid, row)

    def test_wrong_width_rejected(self, grid, small_grid, rng):
        other = orthonormalize([random_fn(small_grid, rng)])
        with pytest.raises(ValueError, match="shape"):
            Subspace(grid, other.matrix)

    def test_non_finite_entry_rejected(self, grid, rng):
        matrix = orthonormalize([random_fn(grid, rng)]).matrix.copy()
        matrix[0, 3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            Subspace(grid, matrix)

    def test_truncate_shares_the_parent_matrix(self, grid, rng):
        X = orthonormalize([random_fn(grid, rng) for _ in range(4)])
        Y = X.truncate(2)
        assert Y.dimension == 2
        assert np.shares_memory(Y.matrix, X.matrix)
        assert np.array_equal(Y.matrix, X.matrix[:2])

    def test_basis_rows_are_views(self, grid, rng):
        X = orthonormalize([random_fn(grid, rng) for _ in range(3)])
        for row, fn in zip(X.matrix, X.basis):
            assert np.shares_memory(fn.values, X.matrix)
            assert np.array_equal(fn.values, row)


class TestReadOnlyArrays:
    def test_grid_arrays_reject_writes(self, grid):
        for array in (grid.nodes, grid.weights):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    def test_subspace_arrays_reject_writes(self, grid, rng):
        X = orthonormalize([random_fn(grid, rng) for _ in range(3)])
        for array in (X.matrix, X.weighted_matrix, X.truncate(2).matrix, X.basis[0].values):
            with pytest.raises(ValueError, match="read-only"):
                array[0] *= -1.0

    def test_caller_matrix_is_copied_once_and_stays_writable(self, grid, rng):
        matrix = orthonormalize([random_fn(grid, rng) for _ in range(2)]).matrix.copy()
        X = Subspace(grid, matrix)
        assert matrix.flags.writeable and not np.shares_memory(X.matrix, matrix)
        before = X.matrix.copy()
        matrix[0] *= -1.0
        assert np.array_equal(X.matrix, before)
        # a read-only view of a writable array is copied too
        view = matrix.view()
        view.flags.writeable = False
        assert not np.shares_memory(Subspace(grid, view).matrix, matrix)


class TestOrthonormalize:
    def test_dependent_inputs_collapse(self, grid, rng):
        u = random_fn(grid, rng)
        X = orthonormalize([u, GridFunction(grid, u.values.copy())])
        assert X.dimension == 1

    def test_orthonormal_pair_is_fixed_point(self, grid, rng):
        X = orthonormalize([random_fn(grid, rng) for _ in range(2)])
        Y = orthonormalize(list(X.basis))
        for a, b in zip(X.basis, Y.basis):
            assert (a - b).norm() < 1e-12

    def test_gram_and_span(self, small_grid, rng):
        fns = [random_fn(small_grid, rng) for _ in range(3)]
        X = orthonormalize(fns)
        gram = (X.matrix * small_grid.weights) @ X.matrix.T
        assert np.max(np.abs(gram - np.eye(X.dimension))) <= 1e-10
        for fn in fns:
            assert (fn - project_onto(fn, X)).norm() < 1e-10 * max(1.0, fn.norm())

    def test_empty_input(self, grid):
        X = orthonormalize([], grid=grid)
        assert X.dimension == 0

    @pytest.mark.parametrize(
        "family, dimension",
        [
            ("random", 6),
            ("zero_and_dependent", 2),      # [u, 0, v, u + v, 2v]
            ("more_than_nodes", 3),         # 5 functions on 3 nodes
            ("duplicate_nodes", 11),        # 20 deltas on 11 nodes
        ],
    )
    def test_matches_reference_gram_schmidt(self, rng, family, dimension):
        # the same kept functions and the same basis, signs included: each
        # function has a positive coordinate on its own basis vector
        grid = Grid(0.0, 1.0, {"random": 512, "more_than_nodes": 3}.get(family, 11))
        if family == "random":
            fns = [random_fn(grid, rng) for _ in range(6)]
        elif family == "zero_and_dependent":
            u, v = random_fn(grid, rng), random_fn(grid, rng)
            fns = [u, grid.zero(), v, u + v, 2.0 * v]
        elif family == "more_than_nodes":
            fns = [random_fn(grid, rng) for _ in range(5)]
        else:
            nodes = np.abs(grid.nodes - np.linspace(0.01, 0.99, 20)[:, None]).argmin(axis=1)
            fns = [GridFunction(grid, np.eye(grid.num_points)[k] / grid.weights[k])
                   for k in nodes]
        rows, kept = reference_gram_schmidt(np.stack([fn.values for fn in fns]), grid.weights)
        X = orthonormalize(fns)
        assert X.dimension == len(kept) == dimension
        assert np.max(np.abs(X.matrix - rows)) < 1e-12 * np.max(np.abs(rows))

    # the threshold is relative: a small u keeps a 1e-9 residual, a large u
    # drops a 1e-11 one, whatever the absolute size of the residual
    @pytest.mark.parametrize("rel, scale, dimension", [(1e-9, 1e-3, 2), (1e-11, 1e3, 1)])
    def test_drop_threshold(self, grid, rng, rel, scale, dimension):
        u = random_fn(grid, rng, scale)
        e = random_fn(grid, rng)
        e = e - project_onto(e, orthonormalize([u]))
        perturbed = u + e * (rel * u.norm() / e.norm())
        assert orthonormalize([u, perturbed]).dimension == dimension


@st.composite
def pair_of_functions(draw):
    # unit-scale values keep the absolute 1e-12 slack meaningful
    g = Grid(0.0, 1.0, 16)
    vals = st.floats(-1.0, 1.0, allow_nan=False)
    u = draw(st.lists(vals, min_size=16, max_size=16))
    v = draw(st.lists(vals, min_size=16, max_size=16))
    return GridFunction(g, np.array(u)), GridFunction(g, np.array(v))


# finite values, -0.0 and subnormals among them, at 1 to 40 nodes
node_values = st.lists(st.floats(-1e150, 1e150), min_size=1, max_size=40).map(np.array)


class TestNormReduction:
    @given(node_values)
    @example(np.array([-0.0]))
    @example(np.array([0.0, -0.0]))
    @example(np.array([5e-324, -5e-324]))
    @example(np.array([5e-324, -2.5e-308, -0.0, 1.0, 1e150]))
    @settings(max_examples=200, deadline=None)
    def test_equals_the_root_of_the_weighted_sum(self, values):
        # a grid has at least 2 nodes; norm reads only the weights and the values
        weights = np.array([0.5]) if len(values) == 1 else Grid(0.0, 1.0, len(values)).weights
        u = (GridFunction(Grid(0.0, 1.0, len(values)), values) if len(values) > 1
             else SimpleNamespace(grid=SimpleNamespace(weights=weights), values=values))
        expected = float(np.sqrt(np.sum(weights * values**2)))
        assert norm(u) == expected and np.signbit(norm(u)) == np.signbit(expected)


class TestInvariants:
    @given(pair_of_functions())
    @settings(max_examples=200, deadline=None)
    def test_cauchy_schwarz(self, uv):
        u, v = uv
        assert abs(inner_product(u, v)) <= norm(u) * norm(v) + 1e-12

    def test_pythagoras(self, grid, rng):
        X = orthonormalize([random_fn(grid, rng) for _ in range(5)])
        for _ in range(20):
            u = random_fn(grid, rng)
            pu = project_onto(u, X)
            lhs = norm(u) ** 2
            rhs = norm(pu) ** 2 + (u - pu).norm() ** 2
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_projection_idempotent(self, grid, rng):
        X = orthonormalize([random_fn(grid, rng) for _ in range(3)])
        for _ in range(10):
            u = random_fn(grid, rng)
            once = project_onto(u, X)
            twice = project_onto(once, X)
            assert (twice - once).norm() <= 1e-12 * max(1.0, once.norm())

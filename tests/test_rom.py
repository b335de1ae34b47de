import numpy as np
import pytest
from regenerate import FLOOR, RTOL

from assim import (
    Grid,
    GridFunction,
    GridMismatchError,
    MultiscaleSpec,
    SinusoidSpec,
    SnapshotSet,
    approximation_error,
    decay_curve,
    inner_product,
    orthonormalize,
    pod,
    project_onto,
    projection_residuals,
    sample_multiscale,
    sample_sinusoids,
)


def make_set(grid, arrays):
    return SnapshotSet(grid, arrays, tuple({} for _ in arrays))


def reference_decay_curve(validation, basis, n_values):
    """The per-row ``decay_curve`` the matrix form replaced: one projection per snapshot."""
    sub = basis.subspace.truncate(max(n_values))
    coeffs = np.stack([sub.coefficients(u) for u in validation])
    anchor2 = np.array([(u - project_onto(u, sub)).norm() for u in validation]) ** 2
    tail2 = np.concatenate(
        [np.cumsum(coeffs[:, ::-1] ** 2, axis=1)[:, ::-1], np.zeros((len(coeffs), 1))], axis=1
    )
    return [float(np.sqrt(np.maximum(anchor2 + tail2[:, n], 0.0)).max()) for n in n_values]


class TestPod:
    def test_rank_one(self, grid, rng):
        u = GridFunction(grid, rng.normal(size=grid.num_points))
        basis = pod(make_set(grid, [u.values]), 1)
        mode = basis.subspace.basis[0]
        expected = u.values / u.norm()
        k = np.argmax(np.abs(expected))
        if expected[k] < 0:
            expected = -expected
        assert np.max(np.abs(mode.values - expected)) < 1e-12

    def test_orthogonal_snapshots_against_gram_eigen_oracle(self, grid, rng):
        # mutually orthogonal snapshots with distinct norms
        base = orthonormalize([GridFunction(grid, rng.normal(size=grid.num_points)) for _ in range(3)])
        scales = [5.0, 2.0, 1.0]
        snaps = make_set(grid, [s * q.values for s, q in zip(scales, base.basis)])
        basis = pod(snaps, 3)

        # oracle: eigendecomposition of the small Gram matrix
        gram = np.array([[inner_product(a, b) for b in snaps] for a in snaps])
        evals = np.sort(np.linalg.eigvalsh(gram))[::-1]
        assert np.allclose(basis.singular_values**2, evals, rtol=1e-10)

        # mode 1 aligns (up to sign) with the largest-norm snapshot
        mode1 = basis.subspace.basis[0]
        overlap = abs(inner_product(mode1, snaps.snapshots[0])) / snaps.snapshots[0].norm()
        assert overlap == pytest.approx(1.0, abs=1e-10)

        # span preserved
        for snap in snaps:
            assert (snap - project_onto(snap, basis.subspace)).norm() < 1e-10

    def test_full_rank_reproduction(self, grid):
        snaps = sample_sinusoids(SinusoidSpec(), grid, 12, seed=21)
        sv = pod(snaps, 12).singular_values
        rank = int(np.sum(sv > 1e-10 * sv[0]))
        basis = pod(snaps, rank)
        for snap in snaps:
            rel = (snap - project_onto(snap, basis.subspace)).norm() / snap.norm()
            assert rel <= 1e-10

    def test_n_out_of_range(self, grid):
        snaps = sample_sinusoids(SinusoidSpec(), grid, 4, seed=0)
        with pytest.raises(ValueError):
            pod(snaps, 5)
        with pytest.raises(ValueError):
            pod(snaps, 0)

    def test_basis_is_orthonormal(self, grid):
        snaps = sample_sinusoids(SinusoidSpec(), grid, 30, seed=2)
        basis = pod(snaps, 8)
        sub = basis.subspace
        gram = (sub.matrix * grid.weights) @ sub.matrix.T
        assert np.max(np.abs(gram - np.eye(8))) <= 1e-10

    def test_modes_stored_c_contiguous(self, grid):
        # the SVD's modes are a transposed view; the subspace stores rows contiguously
        basis = pod(sample_sinusoids(SinusoidSpec(), grid, 30, seed=2), 8)
        assert basis.subspace.matrix.flags.c_contiguous
        assert basis.truncate(3).subspace.matrix.flags.c_contiguous


class TestApproximationError:
    def test_contained_set(self, grid):
        snaps = sample_sinusoids(SinusoidSpec(), grid, 6, seed=3)
        basis = pod(snaps, 6)
        contained = make_set(grid, [0.3 * snaps.matrix[0] + 0.7 * snaps.matrix[3]])
        assert approximation_error(contained, basis) < 1e-10 * snaps.snapshots[0].norm()

    def test_empty_basis_gives_max_norm(self, grid, rng):
        snaps = make_set(grid, [rng.normal(size=grid.num_points) for _ in range(4)])
        sub = orthonormalize([], grid=grid)
        expected = max(s.norm() for s in snaps)
        assert approximation_error(snaps, sub) == pytest.approx(expected, rel=1e-12)

    def test_against_projection_oracle(self, grid, rng):
        snaps = sample_sinusoids(SinusoidSpec(), grid, 10, seed=4)
        basis = pod(snaps, 2)
        # oracle: explicit Gram-based projection per snapshot
        V = basis.subspace.matrix
        w = grid.weights
        errors = []
        for snap in snaps:
            coeffs = (V * w) @ snap.values
            residual = snap.values - V.T @ coeffs
            errors.append(np.sqrt(np.sum(w * residual**2)))
        assert approximation_error(snaps, basis) == pytest.approx(max(errors), abs=1e-12)
        assert np.allclose(projection_residuals(snaps, basis), errors, atol=1e-12)

    def test_empty_validation_set_rejected(self, grid):
        snaps = sample_sinusoids(SinusoidSpec(), grid, 3, seed=5)
        basis = pod(snaps, 2)
        empty = SnapshotSet(grid, np.empty((0, grid.num_points)), ())
        with pytest.raises(ValueError):
            approximation_error(empty, basis)

    def test_set_on_another_grid_rejected(self, grid):
        snaps = sample_sinusoids(SinusoidSpec(), grid, 6, seed=5)
        basis = pod(snaps, 3)
        other = make_set(Grid(0.0, 1.0, grid.num_points), snaps.matrix)  # same node count
        with pytest.raises(GridMismatchError):
            projection_residuals(other, basis)
        with pytest.raises(GridMismatchError):
            decay_curve(other, basis, [1, 3])


class TestInvariants:
    def test_monotone_in_n(self, grid):
        snaps = sample_sinusoids(SinusoidSpec(), grid, 40, seed=6)
        basis = pod(snaps, 20)
        curve = decay_curve(snaps, basis, list(range(1, 21)))
        assert all(b <= a + 1e-12 for a, b in zip(curve, curve[1:]))

    def test_energy_identity(self, grid):
        snaps = sample_sinusoids(SinusoidSpec(), grid, 25, seed=7)
        basis = pod(snaps, 5)
        total = sum(s.norm() ** 2 for s in snaps)
        assert np.sum(basis.singular_values**2) == pytest.approx(total, rel=1e-8)

    def test_slow_decay_separation(self, grid):
        spec = MultiscaleSpec()
        fast_tr, _, full_tr = sample_multiscale(spec, grid, 128, seed=8)
        fast_val, _, full_val = sample_multiscale(spec, grid, 32, seed=9)
        fast_basis = pod(fast_tr, 20)
        full_basis = pod(full_tr, 20)
        for n in (15, 20):
            err_fast = decay_curve(fast_val, fast_basis, [n])[0]
            err_full = decay_curve(full_val, full_basis, [n])[0]
            assert err_full > err_fast

    def test_decay_curve_matches_direct(self, grid):
        snaps = sample_sinusoids(SinusoidSpec(), grid, 15, seed=10)
        basis = pod(snaps, 10)
        curve = decay_curve(snaps, basis, [3, 7])
        assert curve[0] == pytest.approx(approximation_error(snaps, basis.truncate(3)), rel=1e-9)
        assert curve[1] == pytest.approx(approximation_error(snaps, basis.truncate(7)), rel=1e-9)

    def test_decay_curve_against_per_row_oracle_at_roundoff(self, grid):
        # the top dimensions leave residuals at the roundoff of the snapshots,
        # where only the contract's absolute floor holds the two forms together
        snaps = sample_sinusoids(SinusoidSpec(), grid, 48, seed=11)
        basis = pod(snaps, 12)
        n_values = list(range(0, 13))
        curve = decay_curve(snaps, basis, n_values)
        expected = reference_decay_curve(snaps, basis, n_values)
        scale = max(u.norm() for u in snaps)
        assert curve[-1] < 1e-12 * scale
        for got, want in zip(curve, expected):
            assert abs(got - want) <= max(RTOL * want, FLOOR * scale)

    @pytest.mark.parametrize("n_values, shown",
                             [([-1, 3], r"\[-1, 3\]"), ([], r"\[\]"), ([2, 5], r"\[2, 5\]")])
    def test_decay_curve_rejects_bad_n_values(self, grid, n_values, shown):
        snaps = sample_sinusoids(SinusoidSpec(), grid, 8, seed=12)
        with pytest.raises(ValueError, match=rf"^n_values={shown} must be .* in \[0, 4\]$"):
            decay_curve(snaps, pod(snaps, 4), n_values)

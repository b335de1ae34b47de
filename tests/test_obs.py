import re

import numpy as np
import pytest

from assim import (
    Grid,
    GridFunction,
    GridMismatchError,
    NoiseModel,
    SensorArray,
    SinusoidSpec,
    Subspace,
    apply_noise,
    build_observation_space,
    inf_sup_beta,
    inner_product,
    observe,
    orthonormalize,
    pod,
    sample_sinusoids,
)
from assim.obs import DependentSensorsError, ObservationSpace


def random_fn(grid, rng, scale=1.0):
    return GridFunction(grid, rng.normal(0.0, scale, grid.num_points))


class TestSensorArray:
    def test_centers_must_increase(self):
        with pytest.raises(ValueError):
            SensorArray((0.5, 0.5), "pointwise")
        with pytest.raises(ValueError):
            SensorArray((0.5, 0.2), "pointwise")

    def test_box_needs_width(self):
        with pytest.raises(ValueError):
            SensorArray((0.5,), "box_average", width=None)
        for width in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="positive, finite width"):
                SensorArray((0.5,), "box_average", width=width)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_centers_must_be_finite(self, bad):
        # a NaN center passes the increasing check (every NaN comparison is false),
        # and its representer would land on node 0
        with pytest.raises(ValueError, match="must be finite"):
            SensorArray((0.25, bad), "pointwise")

    def test_centers_inside_domain(self, grid):
        sensors = SensorArray((0.0, 1.0), "pointwise")
        with pytest.raises(ValueError):
            build_observation_space(sensors, grid)

    def test_equidistant_tiles_domain(self, grid):
        sensors = SensorArray.equidistant(25, grid)
        assert sensors.m == 25
        assert sensors.width == pytest.approx((grid.b - grid.a) / 25)

    @pytest.mark.parametrize("m", [0, -3])
    def test_equidistant_needs_a_sensor(self, grid, m):
        with pytest.raises(ValueError, match="need at least one sensor"):
            SensorArray.equidistant(m, grid)


class TestBuildObservationSpace:
    def test_pointwise_delta_reproduction(self, grid, rng):
        node = grid.nodes[100]
        space = build_observation_space(SensorArray((float(node),), "pointwise"), grid)
        w0 = GridFunction(grid, space.representers[0])
        for _ in range(5):
            u = random_fn(grid, rng)
            assert inner_product(w0, u) == pytest.approx(
                u.values[100], abs=1e-12
            )

    def test_full_domain_box_measures_mean_of_constant(self, grid):
        width = grid.b - grid.a
        space = build_observation_space(
            SensorArray((0.5 * (grid.a + grid.b),), "box_average", width=1.01 * width), grid
        )
        c = GridFunction(grid, np.full(grid.num_points, 3.25))
        w0 = GridFunction(grid, space.representers[0])
        assert space.sensors.apply(c)[0] == pytest.approx(3.25, abs=1e-12)
        assert inner_product(w0, c) == pytest.approx(3.25, abs=1e-12)

    def test_box_25_sensors_gram_identity(self, grid):
        # oracle: explicit Gram assembly of the orthonormalized basis
        space = build_observation_space(SensorArray.equidistant(25, grid), grid)
        assert space.onb.dimension == 25
        Q = space.onb.matrix
        gram = (Q * grid.weights) @ Q.T
        assert np.max(np.abs(gram - np.eye(25))) <= 1e-10

    def test_dependent_pointwise_sensors_named(self):
        grid = Grid(0.0, 1.0, 11)
        # two centers that snap to the same grid node
        sensors = SensorArray((0.501, 0.52), "pointwise")
        with pytest.raises(DependentSensorsError) as err:
            build_observation_space(sensors, grid)
        assert "#1" in str(err.value)

    def test_every_sensor_sharing_a_node_named(self):
        # 20 centers on 11 nodes: sensors 2k - 1 and 2k snap to the same node
        # for k = 1..9, so exactly the even sensors 2..18 are dependent; a drop
        # rule that trusts every diagonal entry of one unpivoted QR names 18
        grid = Grid(0.0, 1.0, 11)
        sensors = SensorArray(tuple(np.linspace(0.01, 0.99, 20)), "pointwise")
        with pytest.raises(DependentSensorsError) as err:
            build_observation_space(sensors, grid)
        named = re.findall(r"#(\d+) \(center", str(err.value))
        assert named == [str(i) for i in range(2, 19, 2)]

    def test_more_sensors_than_nodes_named(self):
        # windows {0, 0.5}, {0.5}, {0.5, 1} already span the 3-node space, so
        # the fourth sensor, window {1}, depends on them
        grid = Grid(0.0, 1.0, 3)
        sensors = SensorArray((0.2, 0.5, 0.8, 0.9), "box_average", width=0.6)
        with pytest.raises(DependentSensorsError) as err:
            build_observation_space(sensors, grid)
        assert re.findall(r"#(\d+) \(center", str(err.value)) == ["3"]

    def test_overlapping_windows_give_triangular_raw_to_onb(self, grid):
        # the onb is the Gram-Schmidt basis of the representers, in order, so
        # B[i, j] = <w_i, q_j> vanishes for j > i and B[i, i] > 0
        centers = grid.a + (np.arange(25) + 0.5) * (grid.b - grid.a) / 25
        sensors = SensorArray(tuple(centers), "box_average", width=3 * (grid.b - grid.a) / 25)
        B = build_observation_space(sensors, grid).raw_to_onb_matrix
        assert np.max(np.abs(np.triu(B, 1))) <= 1e-12
        assert np.all(np.diag(B) > 0)

    def test_dependent_box_sensors_named(self):
        grid = Grid(0.0, 1.0, 11)
        # windows so wide they cover the same node set
        sensors = SensorArray((0.48, 0.52), "box_average", width=0.9)
        with pytest.raises(DependentSensorsError):
            build_observation_space(sensors, grid)

    def test_riesz_consistency(self, grid, rng):
        space = build_observation_space(SensorArray.equidistant(10, grid), grid)
        for _ in range(5):
            u = random_fn(grid, rng)
            raw = space.sensors.apply(u)
            riesz = [inner_product(GridFunction(grid, w), u) for w in space.representers]
            assert np.allclose(raw, riesz, atol=1e-10)

    def test_pointwise_readings_are_the_functional_matrix(self, grid, rng):
        space = build_observation_space(SensorArray.equidistant(10, grid, kind="pointwise"), grid)
        for _ in range(5):
            u = random_fn(grid, rng)
            np.testing.assert_allclose(space.sensors.apply(u), space.functional_matrix @ u.values,
                                       rtol=1e-12, atol=1e-12)


class TestReadOnlyArrays:
    def test_space_arrays_reject_writes(self, grid):
        space = build_observation_space(SensorArray.equidistant(10, grid), grid)
        for array in (space.representers, space.functional_matrix, space.raw_to_onb_matrix,
                      space.raw_to_onb_inverse, space.onb.matrix, space.onb.weighted_matrix):
            with pytest.raises(ValueError, match="read-only"):
                array[0] *= -1.0

    def test_caller_representers_are_copied(self, grid):
        space = build_observation_space(SensorArray.equidistant(4, grid), grid)
        reps = space.representers.copy()
        other = ObservationSpace(grid, space.sensors, reps, space.onb)
        assert reps.flags.writeable and not np.shares_memory(other.representers, reps)
        reps[0] = 0.0
        assert np.array_equal(other.representers, space.representers)


class TestObserve:
    def test_reproduces_elements_of_the_span(self, grid, rng):
        space = build_observation_space(SensorArray.equidistant(8, grid), grid)
        coeffs = rng.normal(size=8)
        u = space.onb.combine(coeffs)
        measurement = observe(u, space)
        assert np.allclose(measurement.coeffs, coeffs, atol=1e-10)
        assert (measurement.lift() - u).norm() < 1e-10

    def test_orthogonal_state_measures_zero(self, grid, rng):
        space = build_observation_space(SensorArray.equidistant(8, grid), grid)
        u = random_fn(grid, rng)
        u_perp = u - space.onb.combine(space.onb.coefficients(u))
        assert np.max(np.abs(observe(u_perp, space).coeffs)) < 1e-10

    def test_linear_bias_analytic(self, grid):
        width = grid.b - grid.a
        space = build_observation_space(
            SensorArray((0.5 * (grid.a + grid.b),), "box_average", width=1.01 * width), grid
        )
        one = GridFunction(grid, np.ones(grid.num_points))
        model = NoiseModel(alpha=0.2, sigma=0.0)
        got = apply_noise(one, space, model, seed=0)
        # closed form: the expected reading of a constant is (1 + alpha) * c
        raw = space.raw_from_coords(got.coeffs)
        assert raw[0] == pytest.approx(1.2, abs=1e-12)


    def test_state_on_another_grid_is_a_grid_mismatch(self, grid):
        space = build_observation_space(SensorArray.equidistant(8, grid), grid)
        other = Grid(grid.a, grid.b, grid.num_points + 1)
        with pytest.raises(GridMismatchError, match="^state lives on a different grid$"):
            space.apply_functionals(GridFunction(other, np.ones(other.num_points)))


class TestCoordsFromRaw:
    @pytest.mark.parametrize("kind", ["pointwise", "box_average"])
    def test_cached_inverse_matches_solve(self, grid, rng, kind):
        space = build_observation_space(SensorArray.equidistant(25, grid, kind=kind), grid)
        readings = rng.normal(size=25)
        block = rng.normal(size=(25, 7))
        B = space.raw_to_onb_matrix
        for raw in (readings, block):
            expected = np.linalg.solve(B, raw)
            got = space.coords_from_raw(raw)
            assert got.shape == expected.shape
            assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))
        assert space.raw_to_onb_inverse is space.raw_to_onb_inverse


class TestInfSupBeta:
    def test_contained_subspace(self, grid):
        space = build_observation_space(SensorArray.equidistant(12, grid), grid)
        contained = Subspace(grid, space.onb.matrix[:4])
        assert inf_sup_beta(contained, space) == pytest.approx(1.0, abs=1e-10)

    def test_orthogonal_subspace(self, grid, rng):
        space = build_observation_space(SensorArray.equidistant(6, grid), grid)
        fns = [random_fn(grid, rng) for _ in range(2)]
        perp = [u - space.onb.combine(space.onb.coefficients(u)) for u in fns]
        V = orthonormalize(perp)
        assert inf_sup_beta(V, space) < 1e-10

    @pytest.mark.parametrize("theta", [np.pi / 6, np.pi / 4, np.pi / 3])
    def test_planar_angle(self, grid, rng, theta):
        space = build_observation_space(SensorArray.equidistant(10, grid), grid)
        w = space.onb.basis[0]
        raw = random_fn(grid, rng)
        residual = raw - space.onb.combine(space.onb.coefficients(raw))
        w_perp = residual * (1.0 / residual.norm())
        v = np.cos(theta) * w + np.sin(theta) * w_perp
        V = Subspace(grid, v.values[None, :])
        assert inf_sup_beta(V, space) == pytest.approx(abs(np.cos(theta)), abs=1e-10)

    def test_monotone_in_n(self, grid):
        snaps = sample_sinusoids(SinusoidSpec(), grid, 64, seed=1)
        basis = pod(snaps, 10)
        space = build_observation_space(SensorArray.equidistant(25, grid), grid)
        betas = [inf_sup_beta(basis.subspace.truncate(n), space) for n in range(1, 11)]
        assert all(b2 <= b1 + 1e-10 for b1, b2 in zip(betas, betas[1:]))

    def test_monotone_in_m_for_nested_sensors(self, grid):
        snaps = sample_sinusoids(SinusoidSpec(), grid, 64, seed=2)
        V5 = pod(snaps, 5).subspace
        base = np.linspace(0.4, 5.9, 8)
        extra = np.linspace(0.7, 5.4, 7)
        small = SensorArray(tuple(sorted(base)), "pointwise")
        large = SensorArray(tuple(sorted(np.concatenate([base, extra]))), "pointwise")
        beta_small = inf_sup_beta(V5, build_observation_space(small, grid))
        beta_large = inf_sup_beta(V5, build_observation_space(large, grid))
        assert beta_large >= beta_small - 1e-10

    def test_trivial_subspace_is_unconstrained(self, grid):
        space = build_observation_space(SensorArray.equidistant(3, grid), grid)
        assert inf_sup_beta(orthonormalize([], grid=grid), space) == 1.0

    def test_more_modes_than_sensors_is_unstable(self, grid, rng):
        space = build_observation_space(SensorArray.equidistant(3, grid), grid)
        V = orthonormalize([random_fn(grid, rng) for _ in range(4)])
        assert V.dimension == 4
        assert inf_sup_beta(V, space) == 0.0

    def test_range(self, grid):
        snaps = sample_sinusoids(SinusoidSpec(), grid, 30, seed=3)
        basis = pod(snaps, 6)
        space = build_observation_space(SensorArray.equidistant(12, grid), grid)
        beta = inf_sup_beta(basis.subspace, space)
        assert 0.0 <= beta <= 1.0 + 1e-10

import numpy as np
import pytest

from assim import (
    GridFunction,
    NoiseModel,
    SensorArray,
    SinusoidSpec,
    apply_noise,
    bpbdw_reconstruct,
    build_observation_space,
    discrepancy_xi,
    noise_expectation,
    observe,
    orthonormalize,
    pbdw_solve,
    pod,
    sample_sinusoids,
)
from assim.bias import (bpbdw_correct_block, corrected_constraint, corrected_constraint_block,
                        mc_expectation)
from assim.solver import pbdw_solve_block


def full_domain_space(grid):
    center = 0.5 * (grid.a + grid.b)
    width = 1.01 * (grid.b - grid.a)
    return build_observation_space(SensorArray((center,), "box_average", width=width), grid)


class TestNoiseModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(sigma=-1.0)
        for bad in ({"sigma": float("nan")}, {"alpha": float("inf")}, {"alpha": -1.0}):
            with pytest.raises(ValueError):
                NoiseModel(**bad)
        with pytest.raises(ValueError):
            NoiseModel(mc_samples=0)
        with pytest.raises(ValueError):
            NoiseModel(kind="empirical_table", table=None)
        with pytest.raises(ValueError):
            NoiseModel(kind="empirical_table", table=((0.0, 1.0, 0.1), (1.5, 2.0, 0.2)))

    def test_table_lookup_and_coverage(self, grid):
        model = NoiseModel(kind="empirical_table", sigma=0.0,
                           table=((0.0, 1.0, 0.5), (1.0, 2.0, -0.5)))
        space = full_domain_space(grid)
        low = GridFunction(grid, np.full(grid.num_points, 0.4))
        high = GridFunction(grid, np.full(grid.num_points, 1.6))
        out_of_range = GridFunction(grid, np.full(grid.num_points, 5.0))
        assert space.raw_from_coords(apply_noise(low, space, model, 0).coeffs)[0] == pytest.approx(0.9)
        assert space.raw_from_coords(apply_noise(high, space, model, 0).coeffs)[0] == pytest.approx(1.1)
        with pytest.raises(ValueError):
            apply_noise(out_of_range, space, model, 0)


class TestApplyNoise:
    def test_degenerate_model_is_noiseless(self, grid, rng):
        space = build_observation_space(SensorArray.equidistant(10, grid), grid)
        u = GridFunction(grid, rng.normal(size=grid.num_points))
        noisy = apply_noise(u, space, NoiseModel(alpha=0.0, sigma=0.0), seed=3)
        clean = observe(u, space)
        assert np.max(np.abs(noisy.coeffs - clean.coeffs)) < 1e-12

    def test_determinism(self, grid, rng):
        space = build_observation_space(SensorArray.equidistant(10, grid), grid)
        u = GridFunction(grid, rng.normal(size=grid.num_points))
        model = NoiseModel(alpha=0.1, sigma=0.5)
        a = apply_noise(u, space, model, seed=42)
        b = apply_noise(u, space, model, seed=42)
        assert np.array_equal(a.coeffs, b.coeffs)
        c = apply_noise(u, space, model, seed=43)
        assert not np.array_equal(a.coeffs, c.coeffs)

    def test_noise_statistics(self, grid):
        # Monte Carlo oracle: mapped coordinates of raw white noise have
        # covariance sigma^2 * inv(B) inv(B)^T
        m, draws, sigma = 50, 2000, 1.0
        space = build_observation_space(SensorArray.equidistant(m, grid), grid)
        model = NoiseModel(alpha=0.0, sigma=sigma)
        zero = grid.zero()
        samples = np.stack(
            [apply_noise(zero, space, model, seed=s).coeffs for s in range(draws)]
        )
        B_inv = np.linalg.inv(space.raw_to_onb_matrix)
        cov = sigma**2 * B_inv @ B_inv.T
        sd = np.sqrt(np.diag(cov))
        assert np.all(np.abs(samples.mean(axis=0)) <= 3 * sd / np.sqrt(draws) + 1e-12)
        sample_var = samples.var(axis=0)
        assert np.all(np.abs(sample_var - np.diag(cov)) <= 0.1 * np.diag(cov))


class TestExpectation:
    def test_unbiased_model(self, grid, rng):
        space = build_observation_space(SensorArray.equidistant(10, grid), grid)
        u = GridFunction(grid, rng.normal(size=grid.num_points))
        exp = noise_expectation(u, space, NoiseModel(alpha=0.0, sigma=0.7))
        assert np.allclose(exp.coeffs, observe(u, space).coeffs, atol=1e-12)

    def test_analytic_value_on_constant(self, grid):
        space = full_domain_space(grid)
        one = GridFunction(grid, np.ones(grid.num_points))
        exp = noise_expectation(one, space, NoiseModel(alpha=0.2, sigma=0.0))
        assert space.raw_from_coords(exp.coeffs)[0] == pytest.approx(1.2, abs=1e-12)

    def test_mc_agrees_with_analytic(self, grid, rng):
        space = build_observation_space(SensorArray.equidistant(8, grid), grid)
        u = GridFunction(grid, rng.normal(size=grid.num_points))
        model = NoiseModel(alpha=0.1, sigma=0.05, mc_samples=10_000)
        analytic = noise_expectation(u, space, model)
        mc = mc_expectation(u, space, model, seed=5)
        B_inv = np.linalg.inv(space.raw_to_onb_matrix)
        sd = model.sigma * np.sqrt(np.diag(B_inv @ B_inv.T))
        tol = 4 * sd / np.sqrt(model.mc_samples)
        assert np.all(np.abs(mc.coeffs - analytic.coeffs) <= tol)

    def test_mc_determinism(self, grid, rng):
        space = build_observation_space(SensorArray.equidistant(6, grid), grid)
        u = GridFunction(grid, rng.normal(size=grid.num_points))
        model = NoiseModel(
            kind="empirical_table", sigma=0.3, mc_samples=64,
            table=((0.0, 100.0, 0.05),),
        )
        a = noise_expectation(u, space, model, seed=9)
        b = noise_expectation(u, space, model, seed=9)
        assert np.array_equal(a.coeffs, b.coeffs)


class TestDiscrepancy:
    def test_zero_for_unbiased(self, grid, rng):
        space = build_observation_space(SensorArray.equidistant(10, grid), grid)
        u = GridFunction(grid, rng.normal(size=grid.num_points))
        xi = discrepancy_xi(u, space, NoiseModel(alpha=0.0, sigma=0.4))
        assert np.max(np.abs(xi.coeffs)) < 1e-12

    def test_constant_closed_form(self, grid):
        space = full_domain_space(grid)
        one = GridFunction(grid, np.ones(grid.num_points))
        xi = discrepancy_xi(one, space, NoiseModel(alpha=0.1, sigma=0.0))
        assert space.raw_from_coords(xi.coeffs)[0] == pytest.approx(-0.1, abs=1e-12)

    def test_linearity(self, grid, rng):
        space = build_observation_space(SensorArray.equidistant(12, grid), grid)
        model = NoiseModel(alpha=0.17, sigma=0.0)
        for _ in range(5):
            u = GridFunction(grid, rng.normal(size=grid.num_points))
            xi = discrepancy_xi(u, space, model)
            assert np.allclose(xi.coeffs, -0.17 * observe(u, space).coeffs, atol=1e-12)


class TestBpbdw:
    def test_identity_corrector_degenerates_to_plain_solve(self, grid):
        snaps = sample_sinusoids(SinusoidSpec(), grid, 32, seed=1)
        basis = pod(snaps, 5)
        space = build_observation_space(SensorArray.equidistant(25, grid), grid)
        truth = snaps.snapshots[0]
        omega = observe(truth, space)
        model = NoiseModel(alpha=0.0, sigma=0.0)
        plain = pbdw_solve(omega, basis.subspace, space)
        corrected = bpbdw_reconstruct(omega, basis.subspace, space, model)
        assert (corrected.state - plain.state).norm() <= 1e-9 * max(1.0, plain.state.norm())
        assert (corrected.initial.state - plain.state).norm() <= 1e-9 * max(1.0, plain.state.norm())

    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.2])
    def test_scalar_chain_second_order_debiasing(self, grid, alpha):
        # single full-domain sensor, background spanned by the normalized truth:
        # the raw solve scales by (1 + alpha), the corrected constraint becomes
        # (1 - alpha)(1 + alpha), leaving a relative amplitude error alpha^2
        space = full_domain_space(grid)
        truth = GridFunction(grid, np.full(grid.num_points, 2.5))
        background = orthonormalize([truth])
        model = NoiseModel(alpha=alpha, sigma=0.0)
        omega = apply_noise(truth, space, model, seed=0)

        plain = pbdw_solve(omega, background, space)
        plain_err = (plain.state - truth).norm() / truth.norm()
        assert plain_err == pytest.approx(alpha, abs=1e-10)

        corrected = bpbdw_reconstruct(omega, background, space, model)
        corrected_err = (corrected.state - truth).norm() / truth.norm()
        assert corrected_err == pytest.approx(alpha**2, abs=1e-10)

    def test_beats_plain_solve_on_biased_noisy_case(self, grid):
        # one noisy benchmark instance: bias 0.2, spread one tenth of the
        # reference amplitude, 25 sensors, 5 modes
        spec = SinusoidSpec()
        snaps = sample_sinusoids(spec, grid, 64, seed=2)
        basis = pod(snaps, 5)
        space = build_observation_space(SensorArray.equidistant(25, grid), grid)
        truth = sample_sinusoids(spec, grid, 1, seed=3).snapshots[0]
        model = NoiseModel(alpha=0.2, sigma=32.5 / 10)
        omega = apply_noise(truth, space, model, seed=7)
        plain = pbdw_solve(omega, basis.subspace, space)
        corrected = bpbdw_reconstruct(omega, basis.subspace, space, model)
        e_plain = (plain.state - truth).norm() / truth.norm()
        e_corr = (corrected.state - truth).norm() / truth.norm()
        assert e_corr < e_plain

    def test_diagnostics_round_trip(self, grid):
        snaps = sample_sinusoids(SinusoidSpec(), grid, 16, seed=4)
        basis = pod(snaps, 3)
        space = build_observation_space(SensorArray.equidistant(10, grid), grid)
        model = NoiseModel(alpha=0.1, sigma=0.0)
        omega = apply_noise(snaps.snapshots[0], space, model, seed=1)
        rec = bpbdw_reconstruct(omega, basis.subspace, space, model)
        assert rec.initial is not None
        assert rec.eta is not None
        # the corrected solve matched the corrector constraint, not the raw one
        assert np.allclose(space.onb.coefficients(rec.state), rec.eta.coeffs, atol=1e-8)

    @pytest.mark.parametrize(
        "model",
        [
            NoiseModel(alpha=0.1, sigma=0.3),
            NoiseModel(kind="empirical_table", sigma=0.3, mc_samples=50,
                       table=((0.0, 1e3, 0.4),)),
        ],
        ids=["analytic", "monte_carlo"],
    )
    def test_one_projection_matches_three(self, grid, model):
        # the corrected constraint projects the first estimate once; the state
        # and eta must equal the three-projection formula to the last bit
        snaps = sample_sinusoids(SinusoidSpec(), grid, 32, seed=11)
        basis = pod(snaps, 4)
        space = build_observation_space(SensorArray.equidistant(20, grid), grid)
        omega = apply_noise(snaps.snapshots[3], space, model, seed=12)
        rec = bpbdw_reconstruct(omega, basis.subspace, space, model, seed=13)

        first = pbdw_solve(omega, basis.subspace, space)
        eta = observe(first.state, space) + discrepancy_xi(first.state, space, model, 13)
        expected = pbdw_solve(eta, basis.subspace, space)
        assert np.array_equal(rec.eta.coeffs, eta.coeffs)
        assert np.array_equal(rec.state.values, expected.state.values)
        assert np.array_equal(
            corrected_constraint(first.state, space, model, 13).coeffs, eta.coeffs
        )


class TestBpbdwBlock:
    def test_columns_match_per_case_oracle(self, grid):
        snaps = sample_sinusoids(SinusoidSpec(), grid, 48, seed=21)
        basis = pod(snaps, 6)
        space = build_observation_space(SensorArray.equidistant(15, grid), grid)
        model = NoiseModel(alpha=0.15, sigma=0.5)
        omegas = [apply_noise(u, space, model, seed=k) for k, u in enumerate(snaps.snapshots[:9])]
        plain = pbdw_solve_block(
            np.stack([o.coeffs for o in omegas], axis=1), basis.subspace, space
        )
        corrected = bpbdw_correct_block(plain, basis.subspace, space, model)
        for k, omega in enumerate(omegas):
            oracle = bpbdw_reconstruct(omega, basis.subspace, space, model)
            scale = oracle.state.norm()
            assert np.max(np.abs(plain.states[:, k] - oracle.initial.state.values)) <= 1e-12 * scale
            assert np.max(np.abs(corrected.states[:, k] - oracle.state.values)) <= 1e-12 * scale
            assert corrected.constraint_residuals[k] <= 1e-10 * scale
        assert corrected.beta == oracle.beta

    def test_monte_carlo_model_rejected(self, grid):
        snaps = sample_sinusoids(SinusoidSpec(), grid, 16, seed=22)
        basis = pod(snaps, 2)
        space = build_observation_space(SensorArray.equidistant(6, grid), grid)
        plain = pbdw_solve_block(np.ones((6, 3)), basis.subspace, space)
        model = NoiseModel(kind="empirical_table", table=((0.0, 1.0, 0.1),))
        with pytest.raises(ValueError, match="analytic"):
            bpbdw_correct_block(plain, basis.subspace, space, model)

    def test_per_column_alpha_is_each_columns_own_model(self, grid):
        # one slope per column, broadcast over the rows: each column is
        # corrected_constraint under its own model, to the last bit
        snaps = sample_sinusoids(SinusoidSpec(), grid, 8, seed=23)
        space = build_observation_space(SensorArray.equidistant(12, grid), grid)
        alphas = np.array([0.0, -0.0, 0.05, 0.2, -0.3, 1e-5, 0.1, 3.0])
        observed = np.stack([space.onb.coefficients(u) for u in snaps.snapshots], axis=1)
        block = corrected_constraint_block(observed, NoiseModel(sigma=0.5), alphas)
        for k, (u, alpha) in enumerate(zip(snaps.snapshots, alphas)):
            model = NoiseModel(alpha=float(alpha), sigma=0.5)
            assert np.array_equal(block[:, k], corrected_constraint(u, space, model).coeffs)
            assert np.array_equal(block[:, k],
                                  corrected_constraint_block(observed[:, k:k + 1], model)[:, 0])

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
    compute_box,
    discrepancy_xi,
    noise_expectation,
    observe,
    orthonormalize,
    pbdw_solve,
    pod,
    sample_sinusoids,
)
from assim.bias import bpbdw_correct_block, corrected_constraint_block
from assim.solver import pbdw_solve_block


def full_domain_space(grid):
    center = 0.5 * (grid.a + grid.b)
    width = 1.01 * (grid.b - grid.a)
    return build_observation_space(SensorArray((center,), "box_average", width=width), grid)


def reference_table_offset(table, magnitude):
    """The first row whose closed bin holds the magnitude: the per-reading loop
    that the table model's vectorised lookup replaced."""
    for lo, hi, offset in table:
        if lo <= magnitude <= hi:
            return offset
    raise ValueError(f"reading magnitude {magnitude:g} falls outside the table range")


# bins of box averages of white noise: a shared edge, an open top and offsets of both signs
TABLE = ((0.0, 0.05, 0.3), (0.05, 0.1, -0.2), (0.1, float("inf"), 0.1))


class TestNoiseModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(sigma=-1.0)
        # a table model has no slope, so an alpha it would ignore is refused
        with pytest.raises(ValueError, match="alpha=0.5 must be 0"):
            NoiseModel(kind="empirical_table", alpha=0.5, table=((0.0, 1.0, 0.1),))
        for bad in ({"sigma": float("nan")}, {"alpha": float("inf")}, {"alpha": -1.0}):
            with pytest.raises(ValueError):
                NoiseModel(**bad)
        with pytest.raises(ValueError):
            NoiseModel(mc_samples=0)
        with pytest.raises(ValueError):
            NoiseModel(kind="empirical_table", table=None)
        with pytest.raises(ValueError):
            NoiseModel(kind="empirical_table", table=((0.0, 1.0, 0.1), (1.5, 2.0, 0.2)))
        for offset in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=r"table row 1 \(1, 2, .*\) has a non-finite offset"):
                NoiseModel(kind="empirical_table", table=((0.0, 1.0, 0.1), (1.0, 2.0, offset)))
        # an open top bin is a range, not an offset
        NoiseModel(kind="empirical_table", table=((0.0, 1.0, 0.1), (1.0, float("inf"), 0.2)))

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

    def test_vectorised_lookup_matches_the_reference_loop(self):
        table = ((0.0, 1.0, 0.5), (1.0, 2.0, -0.5), (2.0, 3.5, 0.25))
        model = NoiseModel(kind="empirical_table", table=table)
        # both ends, every shared edge (the lower bin keeps it), bin interiors, both signs
        vector = np.array([0.0, -0.0, 1.0, -1.0, 2.0, 3.5, -3.5, 0.4, 1.5, -2.7,
                           np.nextafter(1.0, 2.0), np.nextafter(2.0, 0.0)])
        block = np.random.default_rng(3).uniform(-3.5, 3.5, (6, 5))
        block[0, 0], block[5, 4] = 2.0, -1.0
        for clean in (vector, block):
            expected = clean + np.vectorize(lambda z: reference_table_offset(table, abs(z)))(clean)
            assert np.array_equal(model.biased_readings(clean), expected)
        for magnitude in (3.75, -4.0, np.nan):
            bad = block.copy()
            bad[2, 3] = magnitude
            with pytest.raises(ValueError, match=f"reading magnitude {abs(magnitude)!r} falls outside"):
                model.biased_readings(bad)

    def test_out_of_range_magnitude_is_quoted_in_full(self):
        # a reading just past the last edge must not be reported as lying on it
        model = NoiseModel(kind="empirical_table", table=((0.0, 1.0, 0.5), (1.0, 3.5, -0.5)))
        with pytest.raises(ValueError) as info:
            model.biased_readings(np.array([0.5, -3.5000001]))
        assert str(info.value) == ("reading magnitude 3.5000001 falls outside the table range "
                                   "[0.0, 3.5]")


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
        # the expectation is the closed form coords(biased readings), and a Monte
        # Carlo mean of draws made here lies within 4 standard errors of it
        space = build_observation_space(SensorArray.equidistant(8, grid), grid)
        u = GridFunction(grid, rng.normal(size=grid.num_points))
        clean = space.apply_functionals(u)
        B_inv = np.linalg.inv(space.raw_to_onb_matrix)
        for model in (NoiseModel(alpha=0.1, sigma=0.05),
                      NoiseModel(kind="empirical_table", sigma=0.3, table=TABLE)):
            exact = noise_expectation(u, space, model).coeffs
            closed = space.coords_from_raw(model.biased_readings(clean))
            assert np.allclose(exact, closed, rtol=1e-12, atol=1e-14 * np.abs(closed).max())

            draws = 200_000
            readings = model.biased_readings(clean) + np.random.default_rng(5).normal(
                0.0, model.sigma, (draws, space.m))
            mc = space.coords_from_raw(readings.T).mean(axis=1)
            se = model.sigma * np.sqrt(np.diag(B_inv @ B_inv.T)) / np.sqrt(draws)
            assert np.all(np.abs(mc - exact) <= 4 * se)


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
            NoiseModel(kind="empirical_table", sigma=0.3, table=((0.0, 1e3, 0.4),)),
        ],
        ids=["analytic", "table"],
    )
    def test_one_projection_matches_three(self, grid, model):
        # the corrected constraint projects the first estimate once; the state
        # and eta must equal the three-projection formula to the last bit, and
        # so must a box narrow enough to bind
        snaps = sample_sinusoids(SinusoidSpec(), grid, 32, seed=11)
        basis = pod(snaps, 4)
        space = build_observation_space(SensorArray.equidistant(20, grid), grid)
        omega = apply_noise(snaps.snapshots[3], space, model, seed=12)
        for box in (None, compute_box(snaps, basis.subspace, margin=0.5)):
            rec = bpbdw_reconstruct(omega, basis.subspace, space, model, box=box)

            first = pbdw_solve(omega, basis.subspace, space, box)
            eta = observe(first.state, space) + discrepancy_xi(first.state, space, model)
            expected = pbdw_solve(eta, basis.subspace, space, box)
            assert np.array_equal(rec.initial.state.values, first.state.values)
            assert np.array_equal(rec.eta.coeffs, eta.coeffs)
            assert np.array_equal(rec.state.values, expected.state.values)
            assert np.array_equal(rec.rom_coeffs, expected.rom_coeffs)
            assert rec.constraint_residual == expected.constraint_residual
            assert box is None or np.isin(rec.rom_coeffs, [*box.lo, *box.hi]).any()
            observed = space.onb.coefficients(first.state)
            assert np.array_equal(corrected_constraint_block(observed, space, model), eta.coeffs)


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

    @pytest.mark.parametrize("per_column", [False, True], ids=["model_alpha", "column_alpha"])
    def test_boxed_columns_are_the_per_case_solves(self, grid, per_column):
        # a box narrower than the training coefficients binds: column k of the boxed block
        # correction is bpbdw_reconstruct(box=) on case k, to the last bit
        snaps = sample_sinusoids(SinusoidSpec(), grid, 48, seed=24)
        basis = pod(snaps, 5)
        box = compute_box(snaps, basis.subspace, margin=0.5)
        space = build_observation_space(SensorArray.equidistant(15, grid), grid)
        model = NoiseModel(alpha=0.15, sigma=0.5)
        omegas = [apply_noise(u, space, model, seed=k) for k, u in enumerate(snaps.snapshots[:9])]
        data = np.stack([o.coeffs for o in omegas], axis=1)
        plain = pbdw_solve_block(data, basis.subspace, space, box)
        alpha = np.full(len(omegas), model.alpha) if per_column else None
        corrected = bpbdw_correct_block(plain, basis.subspace, space, model, alpha, box)
        held = np.isclose(corrected.rom_coeffs, box.lo[:, None])
        assert (held | np.isclose(corrected.rom_coeffs, box.hi[:, None])).any()
        for k, omega in enumerate(omegas):
            oracle = bpbdw_reconstruct(omega, basis.subspace, space, model, box=box)
            assert np.array_equal(plain.states[:, k], oracle.initial.state.values)
            assert np.array_equal(corrected.states[:, k], oracle.state.values)
            assert np.array_equal(corrected.rom_coeffs[:, k], oracle.rom_coeffs)
            assert corrected.constraint_residuals[k] == oracle.constraint_residual

    def test_table_model_columns_match_per_case(self, grid):
        # the table model's exact expectation serves the block as it does one case
        snaps = sample_sinusoids(SinusoidSpec(), grid, 16, seed=22)
        basis = pod(snaps, 4)
        space = build_observation_space(SensorArray.equidistant(12, grid), grid)
        model = NoiseModel(kind="empirical_table", sigma=0.5,
                           table=((0.0, 10.0, 1.5), (10.0, 25.0, -2.0), (25.0, np.inf, 0.5)))
        omegas = [apply_noise(u, space, model, seed=k) for k, u in enumerate(snaps.snapshots[:7])]
        plain = pbdw_solve_block(np.stack([o.coeffs for o in omegas], axis=1), basis.subspace, space)
        corrected = bpbdw_correct_block(plain, basis.subspace, space, model)
        for k, omega in enumerate(omegas):
            oracle = bpbdw_reconstruct(omega, basis.subspace, space, model)
            scale = oracle.state.norm()
            assert np.max(np.abs(corrected.states[:, k] - oracle.state.values)) <= 1e-12 * scale

    def test_per_column_alpha_is_each_columns_own_model(self, grid):
        # one slope per column, broadcast over the rows: each column is
        # observe(u) + discrepancy_xi(u) under its own model, to the last bit
        snaps = sample_sinusoids(SinusoidSpec(), grid, 8, seed=23)
        space = build_observation_space(SensorArray.equidistant(12, grid), grid)
        alphas = np.array([0.0, -0.0, 0.05, 0.2, -0.3, 1e-5, 0.1, 3.0])
        observed = np.stack([space.onb.coefficients(u) for u in snaps.snapshots], axis=1)
        block = corrected_constraint_block(observed, space, NoiseModel(sigma=0.5), alphas)
        for k, (u, alpha) in enumerate(zip(snaps.snapshots, alphas)):
            model = NoiseModel(alpha=float(alpha), sigma=0.5)
            eta = observe(u, space) + discrepancy_xi(u, space, model)
            assert np.array_equal(block[:, k], eta.coeffs)
            assert np.array_equal(block[:, k],
                                  corrected_constraint_block(observed[:, k:k + 1], space, model)[:, 0])

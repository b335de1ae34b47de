import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from assim import (
    Grid,
    MultiscaleSpec,
    PowerLawSpec,
    SinusoidSpec,
    SnapshotSet,
    sample_multiscale,
    sample_powerlaw,
    sample_sinusoids,
)
from assim.manifold import heaviside, powerlaw_profile

# Per-sample samplers: one rng.uniform call per parameter, one snapshot at a
# time.  The block samplers must reproduce them bit for bit.


def _sinusoid(grid, amplitude, period, phase=0.0):
    return amplitude * np.sin((2 * np.pi / period) * grid.nodes + phase)


def reference_sinusoids(spec, grid, count, seed):
    rng = np.random.default_rng(seed)
    snaps, params = [], []
    for _ in range(count):
        A = rng.uniform(*spec.amplitude_range)
        T = rng.uniform(*spec.period_range)
        snaps.append(_sinusoid(grid, A, T))
        params.append({"amplitude": A, "period": T})
    return np.stack(snaps), tuple(params)


def reference_multiscale(spec, grid, count, seed):
    rng = np.random.default_rng(seed)
    fast, slow, full, params = [], [], [], []
    for _ in range(count):
        A = rng.uniform(*spec.amplitude_range, spec.num_frequencies)
        T = rng.uniform(*spec.period_range, spec.num_frequencies)
        d = rng.uniform(*spec.phase_range, spec.num_frequencies)
        x_jump = rng.uniform(*spec.jump_location_range)
        height = rng.uniform(*spec.jump_height_range)
        f = sum(_sinusoid(grid, A[i], T[i], d[i]) for i in range(spec.num_frequencies))
        f /= spec.num_frequencies
        s = height * (grid.nodes >= x_jump).astype(float)
        fast.append(f)
        slow.append(s)
        full.append(f + s)
        params.append({"amplitudes": A.tolist(), "periods": T.tolist(), "phases": d.tolist(),
                       "jump_location": x_jump, "jump_height": height})
    return np.stack(fast), np.stack(slow), np.stack(full), tuple(params)


def reference_powerlaw(spec, grid, count, seed):
    rng = np.random.default_rng(seed)
    snaps, params = [], []
    for _ in range(count):
        v0 = rng.uniform(*spec.peak_velocity_range)
        n = rng.uniform(*spec.flow_index_range)
        snaps.append(powerlaw_profile(grid, v0, n, spec.radius).values)
        params.append({"peak_velocity": v0, "flow_index": n})
    return np.stack(snaps), tuple(params)


class TestMatchesPerSampleReference:
    seeds = st.integers(0, 2**63 - 1)
    counts = st.integers(1, 50)

    @given(count=counts, seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_sinusoids(self, count, seed):
        grid = Grid(0.0, 2 * np.pi, 512)
        spec = SinusoidSpec((0.5, 40.0), (0.3, 2 * np.pi))
        snaps = sample_sinusoids(spec, grid, count, seed)
        matrix, params = reference_sinusoids(spec, grid, count, seed)
        assert np.array_equal(snaps.matrix, matrix)
        assert snaps.parameters == params

    @given(num_frequencies=st.integers(1, 5), count=counts, seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_multiscale(self, num_frequencies, count, seed):
        grid = Grid(0.0, 2 * np.pi, 512)
        spec = MultiscaleSpec(num_frequencies=num_frequencies, jump_height_range=(-1.0, 4.5))
        sets = sample_multiscale(spec, grid, count, seed)
        *matrices, params = reference_multiscale(spec, grid, count, seed)
        for snaps, matrix in zip(sets, matrices):
            assert np.array_equal(snaps.matrix, matrix)
            assert snaps.parameters == params

    @given(count=counts, seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_powerlaw(self, count, seed):
        grid = Grid(-0.5, 0.5, 257)
        spec = PowerLawSpec()
        snaps = sample_powerlaw(spec, grid, count, seed)
        matrix, params = reference_powerlaw(spec, grid, count, seed)
        assert np.array_equal(snaps.matrix, matrix)
        assert snaps.parameters == params


class TestSnapshotSet:
    @pytest.mark.parametrize("shape", [(3,), (3, 511), (2, 3, 512)])
    def test_wrong_shape_rejected(self, grid, shape):
        with pytest.raises(ValueError, match="shape"):
            SnapshotSet(grid, np.zeros(shape), [{}] * 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, grid, bad):
        matrix = np.zeros((3, grid.num_points))
        matrix[1, 7] = bad
        with pytest.raises(ValueError, match="finite"):
            SnapshotSet(grid, matrix, [{}] * 3)

    @pytest.mark.parametrize("count", [2, 4])
    def test_parameters_length_mismatch_rejected(self, grid, count):
        with pytest.raises(ValueError, match="equal length"):
            SnapshotSet(grid, np.zeros((3, grid.num_points)), [{}] * count)


class TestSinusoids:
    def test_point_parameter_space(self, grid):
        spec = SinusoidSpec((1.0, 1.0), (2 * np.pi, 2 * np.pi))
        snaps = sample_sinusoids(spec, grid, 4, seed=0)
        expected = np.sin(grid.nodes)
        for snap in snaps:
            assert np.max(np.abs(snap.values - expected)) < 1e-12

    def test_determinism(self, grid):
        spec = SinusoidSpec()
        a = sample_sinusoids(spec, grid, 5, seed=77)
        b = sample_sinusoids(spec, grid, 5, seed=77)
        assert all(np.array_equal(x.values, y.values) for x, y in zip(a, b))
        assert a.parameters == b.parameters

    def test_sampling_statistics(self, grid):
        spec = SinusoidSpec((25.0, 40.0), (np.pi, 2 * np.pi))
        snaps = sample_sinusoids(spec, grid, 1000, seed=3)
        amplitudes = np.array([p["amplitude"] for p in snaps.parameters])
        target_mean = (25.0 + 40.0) / 2
        spread = (40.0 - 25.0) / np.sqrt(12)           # uniform distribution sd
        assert abs(amplitudes.mean() - target_mean) < 3 * spread / np.sqrt(1000)

    def test_amplitude_bound(self, grid):
        spec = SinusoidSpec((25.0, 40.0), (np.pi, 2 * np.pi))
        snaps = sample_sinusoids(spec, grid, 50, seed=5)
        assert snaps.matrix.max() <= 40.0 + 1e-12
        assert np.isfinite(snaps.matrix).all()

    def test_bad_ranges(self):
        with pytest.raises(ValueError):
            SinusoidSpec((2.0, 1.0), (np.pi, 2 * np.pi))
        with pytest.raises(ValueError):
            SinusoidSpec((1.0, 2.0), (0.0, 1.0))


class TestMultiscale:
    def test_zero_jump_heights(self, grid):
        spec = MultiscaleSpec(jump_height_range=(0.0, 0.0))
        fast, slow, full = sample_multiscale(spec, grid, 6, seed=1)
        for s in slow:
            assert not s.values.any()
        for f, u in zip(fast, full):
            assert np.array_equal(f.values, u.values)

    def test_closed_form_case(self, grid):
        spec = MultiscaleSpec(
            num_frequencies=1,
            amplitude_range=(1.0, 1.0),
            period_range=(2 * np.pi, 2 * np.pi),
            phase_range=(0.0, 0.0),
            jump_location_range=(np.pi, np.pi),
            jump_height_range=(1.0, 1.0),
        )
        _, _, full = sample_multiscale(spec, grid, 1, seed=0)
        expected = np.sin(grid.nodes) + (grid.nodes >= np.pi).astype(float)
        assert np.array_equal(full.snapshots[0].values, expected)

    def test_construction_identity(self, grid):
        # full is the pairwise sum, bit for bit
        fast, slow, full = sample_multiscale(MultiscaleSpec(), grid, 10, seed=9)
        for f, s, u in zip(fast, slow, full):
            assert np.array_equal(u.values, f.values + s.values)

    def test_shared_parameters(self, grid):
        fast, slow, full = sample_multiscale(MultiscaleSpec(), grid, 3, seed=2)
        assert fast.parameters == slow.parameters == full.parameters

    def test_jump_range_must_be_interior(self):
        grid = Grid(0.0, 2 * np.pi, 64)
        spec = MultiscaleSpec(jump_location_range=(0.0, np.pi))
        with pytest.raises(ValueError):
            sample_multiscale(spec, grid, 1, seed=0)


class TestPowerLaw:
    def test_parabolic_profile(self):
        # newtonian case: 50 cm/s peak in a 1 cm diameter tube
        grid = Grid(-0.5, 0.5, 257)
        u = powerlaw_profile(grid, 50.0, 1.0, 0.5)
        assert u.values[128] == pytest.approx(50.0, abs=1e-12)
        assert u.values[0] == pytest.approx(0.0, abs=1e-12)
        assert u.values[-1] == pytest.approx(0.0, abs=1e-12)
        expected = 50.0 * (1.0 - (grid.nodes / 0.5) ** 2)
        assert np.allclose(u.values, expected, atol=1e-10)

    def test_zero_peak(self):
        grid = Grid(-0.5, 0.5, 65)
        spec = PowerLawSpec(peak_velocity_range=(0.0, 0.0))
        snaps = sample_powerlaw(spec, grid, 3, seed=0)
        assert not snaps.matrix.any()

    def test_plug_flow_limit(self):
        # exponent 1 + 1/n blows up as n -> 0, flattening the profile
        grid = Grid(-0.5, 0.5, 257)
        u = powerlaw_profile(grid, 50.0, 0.01, 0.5)
        at_half_radius = u.values[np.argmin(np.abs(grid.nodes - 0.25))]
        # oracle: direct formula evaluation
        direct = 50.0 * (1.0 - (0.25 / 0.5) ** (1 + 1 / 0.01))
        assert at_half_radius == pytest.approx(direct, abs=1e-9)
        assert at_half_radius >= 0.95 * 50.0

    @pytest.mark.parametrize("flow_index", [0.0, -0.5])
    def test_non_positive_flow_index_rejected(self, flow_index):
        with pytest.raises(ValueError, match="flow index must be positive"):
            powerlaw_profile(Grid(-0.5, 0.5, 65), 50.0, flow_index, 0.5)

    def test_domain_mismatch(self):
        grid = Grid(-0.4, 0.5, 65)
        with pytest.raises(ValueError):
            sample_powerlaw(PowerLawSpec(), grid, 1, seed=0)

    def test_values_within_bounds(self):
        grid = Grid(-0.5, 0.5, 129)
        snaps = sample_powerlaw(PowerLawSpec(), grid, 20, seed=4)
        for snap, params in zip(snaps, snaps.parameters):
            assert snap.values.min() >= -1e-12
            assert snap.values.max() <= params["peak_velocity"] + 1e-12


class TestHeaviside:
    def test_heaviside_convention(self, grid):
        x_jump = float(grid.nodes[100])
        h = heaviside(grid, x_jump)
        assert h.values[100] == 1.0        # closed on the right
        assert h.values[99] == 0.0

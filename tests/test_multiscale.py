import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from assim import (
    Grid,
    GridFunction,
    Measurement,
    MultiscaleSpec,
    NoiseModel,
    SensorArray,
    SnapshotSet,
    Smoother,
    Subspace,
    bpbdw_reconstruct,
    build_observation_space,
    build_slow_dictionary,
    discrepancy_xi,
    extract_smoothers,
    heaviside,
    inf_sup_beta,
    multiscale_beta_bound,
    observe,
    orthogonal_search,
    orthonormalize,
    pbdw_solve,
    pod,
    project_onto,
    sample_multiscale,
    spbdw_reconstruct,
    step_dictionary,
    total_variation,
)
from assim.multiscale import (_stacked_lstsq, extract_smoothers_block, spbdw_reconstruct_block,
                              step_nodes)
from assim.rom import projection_residuals


@pytest.fixture
def space40(grid):
    return build_observation_space(SensorArray.equidistant(40, grid), grid)


@pytest.fixture
def dictionary(grid, space40):
    return step_dictionary(grid, space40, (np.pi / 2, 3 * np.pi / 2), stride=12)


def step_set(grid, locations):
    steps = [heaviside(grid, x).values for x in locations]
    params = tuple({"jump_location": float(x)} for x in locations)
    return SnapshotSet(grid, steps, params)


def reference_slow_dictionary(candidates, space, visibility_tol=1e-12):
    """The per-candidate loop ``build_slow_dictionary`` replaced, as a bit-for-bit reference.

    Returns the candidate matrix, the observed images, the parameters and
    the dropped indices.
    """
    kept_fns, kept_obs, kept_params, dropped = [], [], [], []
    for k, fn in enumerate(candidates):
        nv = fn.norm()
        if nv == 0.0:
            dropped.append(k)
            continue
        unit = fn * (1.0 / nv)
        coeffs = space.onb.coefficients(unit)
        if np.linalg.norm(coeffs) <= visibility_tol:
            dropped.append(k)
            continue
        kept_fns.append(unit)
        kept_obs.append(coeffs)
        kept_params.append(candidates.parameters[k])
    return (np.stack([fn.values for fn in kept_fns], axis=1), np.stack(kept_obs, axis=1),
            tuple(kept_params), dropped)


def assert_matches_reference(candidates, space):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        d = build_slow_dictionary(candidates, space)
    matrix, observed, parameters, dropped = reference_slow_dictionary(candidates, space)
    assert np.array_equal(d.candidate_matrix, matrix)
    assert np.array_equal(d.observed, observed)
    assert d.parameters == parameters
    warned = [re.search(r"indices \[(.*)\]", str(w.message)).group(1) for w in caught]
    assert warned == ([", ".join(map(str, dropped))] if dropped else [])


class TestMatchesPerCandidateReference:
    def test_random_step_sets(self, grid, space40, rng):
        for _ in range(20):
            count = int(rng.integers(1, 40))
            nodes = rng.integers(1, grid.num_points, size=count)
            heights = rng.normal(0.0, 3.0, size=count)
            steps = heights[:, None] * (grid.nodes >= grid.nodes[nodes, None])
            params = [{"node": int(k), "jump_height": float(h)} for k, h in zip(nodes, heights)]
            assert_matches_reference(SnapshotSet(grid, steps, params), space40)

    def test_random_smooth_sets(self, grid, space40):
        spec = MultiscaleSpec()
        for seed in range(5):
            fast, slow, full = sample_multiscale(spec, grid, 30, seed=seed)
            for snapshots in (fast, slow, full):
                assert_matches_reference(snapshots, space40)

    def test_zero_and_invisible_candidates(self, grid):
        # sensors confined to the left half cannot see a far-right step
        centers = np.linspace(0.3, np.pi - 0.3, 10)
        space = build_observation_space(
            SensorArray(tuple(centers), "box_average", width=0.2), grid
        )
        rows = [heaviside(grid, grid.nodes[120]).values, np.zeros(grid.num_points),
                heaviside(grid, grid.nodes[-4]).values, 0.5 * heaviside(grid, 1.0).values,
                np.zeros(grid.num_points)]
        candidates = SnapshotSet(grid, rows, [{"k": k} for k in range(len(rows))])
        assert_matches_reference(candidates, space)
        with pytest.warns(UserWarning, match=r"indices \[1, 2, 4\]"):
            build_slow_dictionary(candidates, space)


class TestSlowDictionary:
    def test_candidates_unit_norm(self, dictionary):
        for cand in dictionary.candidates:
            assert cand.norm() == pytest.approx(1.0, abs=1e-10)

    def test_invisible_candidates_dropped_with_warning(self, grid):
        # sensors confined to the left half cannot see a far-right step
        centers = np.linspace(0.3, np.pi - 0.3, 10)
        space = build_observation_space(
            SensorArray(tuple(centers), "box_average", width=0.2), grid
        )
        visible = float(grid.nodes[120])
        invisible = float(grid.nodes[-4])
        snaps = step_set(grid, [visible, invisible])
        with pytest.warns(UserWarning, match="invisible"):
            d = build_slow_dictionary(snaps, space)
        assert len(d) == 1
        assert d.parameters[0]["jump_location"] == visible

    def test_empty_range_rejected(self, grid, space40):
        with pytest.raises(ValueError):
            step_dictionary(grid, space40, (100.0, 101.0))

    def test_candidates_sit_on_the_step_nodes(self, grid, space40):
        # every stride-th node in the closed range, its ends included
        location_range = (grid.nodes[24], grid.nodes[48])
        assert step_nodes(grid, location_range, 12).tolist() == [24, 36, 48]
        d = step_dictionary(grid, space40, location_range, 12)
        assert [p["node"] for p in d.parameters] == [24, 36, 48]
        with pytest.raises(ValueError, match="no step node"):
            step_nodes(grid, (grid.nodes[25], grid.nodes[35]), 12)


class TestOrthogonalSearch:
    def test_in_dictionary_signal(self, grid, space40, dictionary):
        scale = 2.7
        k = 5
        signal = scale * dictionary.candidates[k]
        omega = observe(signal, space40)
        cand, amplitude, index = orthogonal_search(omega, dictionary)
        assert index == k
        residual = omega.coeffs - amplitude * dictionary.observed[:, k]
        assert np.linalg.norm(residual) <= 1e-10 * omega.norm()
        assert amplitude == pytest.approx(scale, rel=1e-9)

    def test_orthogonal_data_ties_to_lowest_index(self, grid, space40, dictionary):
        omega = Measurement(np.zeros(space40.m), space40)
        cand, amplitude, index = orthogonal_search(omega, dictionary)
        assert amplitude == pytest.approx(0.0, abs=1e-12)
        assert index == 0

    def test_signed_pick_looks_for_upward_steps(self, grid, space40, dictionary):
        # the largest signed score wins, so a downward step scores lowest at its
        # own candidate and the search picks an upward step somewhere else
        k = 5
        omega = observe(-2.7 * dictionary.candidates[k], space40)
        scores = (omega.coeffs @ dictionary.observed) / dictionary.observed_norms
        _, amplitude, index = orthogonal_search(omega, dictionary)
        assert int(np.argmin(scores)) == k
        assert index == int(np.argmax(scores)) != k
        assert abs(index - k) > 1 and amplitude < 0
        greedy = extract_smoothers_block(omega.coeffs[:, None], dictionary, 1e-6, max_iters=1)
        assert greedy.indices.tolist() == [[index]]
        # the same step, upward, is found where it is
        assert orthogonal_search(observe(2.7 * dictionary.candidates[k], space40),
                                 dictionary)[2] == k

    def test_against_exhaustive_oracle(self, grid, space40, rng):
        locations = grid.nodes[40:460:20]
        d = build_slow_dictionary(step_set(grid, locations), space40)
        for trial in range(10):
            omega = Measurement(rng.normal(size=space40.m), space40)
            cand, amplitude, index = orthogonal_search(omega, d)
            # oracle: brute-force scan computing every inner product explicitly
            best, best_score = None, -np.inf
            for j in range(len(d)):
                g = d.observed[:, j]
                score = float(omega.coeffs @ g) / float(np.linalg.norm(g))
                if score > best_score:
                    best, best_score = j, score
            assert index == best
            g = d.observed[:, best]
            assert amplitude == float(omega.coeffs @ g) / float(g @ g)


class TestExtractSmoothers:
    def test_single_step_signal(self, grid, space40, dictionary):
        signal = 3.0 * dictionary.candidates[7]
        omega = observe(signal, space40)
        smoothers, f_star, omega_f, history = extract_smoothers(omega, dictionary)
        assert len(smoothers) == 1
        assert smoothers[0].index == 7
        assert np.linalg.norm(omega_f.coeffs) <= 1e-10 * omega.norm()
        assert (f_star - signal).norm() <= 1e-9

    def test_pure_fast_energy_bound(self, grid, space40, dictionary):
        spec = MultiscaleSpec(jump_height_range=(0.0, 0.0))
        fast, _, _ = sample_multiscale(spec, grid, 5, seed=3)
        span = np.linalg.svd(dictionary.observed, full_matrices=False)
        for u in fast:
            omega = observe(u, space40)
            _, _, omega_f, history = extract_smoothers(omega, dictionary)
            captured = history[0] ** 2 - history[-1] ** 2
            # projection of the data onto the observed span of the dictionary
            U = span[0][:, span[1] > 1e-12 * span[1][0]]
            proj = np.linalg.norm(U.T @ omega.coeffs) ** 2
            assert captured <= proj + 1e-10

    def test_two_jumps_against_two_term_oracle(self, grid, space40):
        locations = grid.nodes[64:448:16]
        d = build_slow_dictionary(step_set(grid, locations), space40)
        j1, j2 = 4, 17
        signal = 2.0 * d.candidates[j1] + 1.5 * d.candidates[j2]
        omega = observe(signal, space40)
        _, _, omega_f, history = extract_smoothers(omega, d, rel_tol=0.01, max_iters=2)
        greedy_residual = float(np.linalg.norm(omega_f.coeffs))

        # oracle: brute-force best two-term joint fit over all candidate pairs
        best = np.inf
        for a in range(len(d)):
            for b in range(a + 1, len(d)):
                A = d.observed[:, [a, b]]
                sol, *_ = np.linalg.lstsq(A, omega.coeffs, rcond=None)
                best = min(best, float(np.linalg.norm(omega.coeffs - A @ sol)))
        assert greedy_residual <= 1.5 * best + 1e-9

    def test_residual_history_monotone(self, grid, space40, dictionary, rng):
        omega = Measurement(rng.normal(size=space40.m), space40)
        _, _, _, history = extract_smoothers(omega, dictionary, rel_tol=0.01, max_iters=5)
        assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))

    def test_rel_tol_validation(self, grid, space40, dictionary, rng):
        omega = Measurement(rng.normal(size=space40.m), space40)
        with pytest.raises(ValueError):
            extract_smoothers(omega, dictionary, rel_tol=0.0)
        with pytest.raises(ValueError):
            extract_smoothers(omega, dictionary, max_iters=0)


def stop_reason(omega, dictionary, rel_tol, max_iters):
    """Which rule ended per-case ``extract_smoothers`` on ``omega``."""
    smoothers, _, omega_f, history = extract_smoothers(omega, dictionary, rel_tol, max_iters)
    if len(smoothers) == max_iters:
        return "max_iters"
    if history[-1] <= 1e-12 * history[0]:
        return "residual"
    _, _, index = orthogonal_search(omega_f, dictionary)
    return "repick" if index in [sm.index for sm in smoothers] else "rel_tol"


def assert_greedy_matches(block, data, dictionary, rel_tol, max_iters):
    """The block greedy equals per-case ``extract_smoothers`` on every column."""
    assert block.indices.shape == block.amplitudes.shape == (data.shape[1], max_iters)
    for k in range(data.shape[1]):
        omega = Measurement(data[:, k], dictionary.space)
        smoothers, _, _, history = extract_smoothers(omega, dictionary, rel_tol, max_iters)
        count = block.counts[k]
        assert count == len(smoothers) == len(history) - 1
        assert block.indices[k, :count].tolist() == [sm.index for sm in smoothers]
        assert (block.indices[k, count:] == -1).all()
        np.testing.assert_allclose(
            block.amplitudes[k, :count], [sm.amplitude for sm in smoothers], rtol=1e-10, atol=0
        )
        assert not block.amplitudes[k, count:].any()


@pytest.fixture
def tied(grid, space40):
    # candidate 5 is listed twice, so data along it scores an exact tie
    locations = list(grid.nodes[40:460:20])
    locations.insert(6, locations[5])
    return build_slow_dictionary(step_set(grid, locations), space40)


class TestExtractSmoothersBlock:
    """The block greedy against per-case ``extract_smoothers``, column by column."""

    def test_every_stop_rule_in_one_block(self, space40, tied, rng):
        rel_tol, max_iters = 0.01, 5
        tie = 2.0 * tied.observed[:, 5]
        combos = tied.observed @ rng.normal(size=(len(tied), 60))
        data = np.column_stack([np.zeros(space40.m), tie, combos])
        block = extract_smoothers_block(data, tied, rel_tol, max_iters)
        assert_greedy_matches(block, data, tied, rel_tol, max_iters)

        reasons = [
            stop_reason(Measurement(col, space40), tied, rel_tol, max_iters) for col in data.T
        ]
        assert block.counts[0] == 0 and reasons[0] == "residual"
        scores = (tie @ tied.observed) / tied.observed_norms
        assert scores[5] == scores[6] == scores.max()
        assert block.indices[1, 0] == 5 and block.counts[1] == 1
        # the mask retires columns at different steps and for every reason
        assert {"residual", "repick", "rel_tol", "max_iters"} <= set(reasons)
        assert len(set(block.counts.tolist())) >= 4

    @pytest.mark.parametrize("width", [1, 37])
    def test_random_blocks(self, space40, dictionary, rng, width):
        data = rng.normal(size=(space40.m, width))
        data[:, ::2] += dictionary.observed @ rng.uniform(0, 2, size=(len(dictionary), 1))
        block = extract_smoothers_block(data, dictionary)
        assert_greedy_matches(block, data, dictionary, 0.05, 5)

    def test_selection_wider_than_the_sensors(self, grid, rng):
        # 3 sensors cannot separate 5 steps: later fits are rank deficient
        space = build_observation_space(SensorArray.equidistant(3, grid), grid)
        d = step_dictionary(grid, space, (np.pi / 2, 3 * np.pi / 2), stride=12)
        data = rng.normal(size=(3, 40))
        block = extract_smoothers_block(data, d, rel_tol=1e-3, max_iters=5)
        assert_greedy_matches(block, data, d, 1e-3, 5)

    def test_slots_stop_at_the_dictionary_size(self, space40, dictionary, rng):
        # a column picks each index at most once, so a cap past len(dictionary)
        # allocates and finds no more
        data = dictionary.observed @ rng.uniform(0, 2, size=(len(dictionary), 8))
        exact = extract_smoothers_block(data, dictionary, 1e-6, len(dictionary))
        capped = extract_smoothers_block(data, dictionary, 1e-6, 10**12)
        assert exact.counts.max() > 5           # the columns fill more than the default cap
        for name in ("indices", "amplitudes", "counts"):
            assert np.array_equal(getattr(capped, name), getattr(exact, name)), name

    def test_stacked_fits_match_lstsq(self, rng):
        # a repeated column and a fit wider than tall follow lstsq's rank cutoff
        tall = rng.normal(size=(4, 6, 3))
        tall[1, :, 2] = tall[1, :, 0]
        wide = rng.normal(size=(2, 2, 3))
        for A in (tall, wide):
            d = rng.normal(size=A.shape[:2])
            x = _stacked_lstsq(A, d)
            for k in range(len(A)):
                expected = np.linalg.lstsq(A[k], d[k], rcond=None)[0]
                np.testing.assert_allclose(x[k], expected, rtol=1e-10, atol=1e-12)

    def test_input_checks(self, space40, dictionary):
        with pytest.raises(ValueError, match="rel_tol"):
            extract_smoothers_block(np.ones((space40.m, 2)), dictionary, rel_tol=0.0)
        with pytest.raises(ValueError, match="max_iters"):
            extract_smoothers_block(np.ones((space40.m, 2)), dictionary, max_iters=0)
        with pytest.raises(ValueError, match="data block"):
            extract_smoothers_block(np.ones(space40.m), dictionary)
        with pytest.raises(ValueError, match="finite"):
            extract_smoothers_block(np.full((space40.m, 2), np.nan), dictionary)


def reference_extract_smoothers(omega, dictionary, rel_tol=0.05, max_iters=5):
    """The per-case greedy before it ran on plain arrays, as a bit-for-bit reference:
    ``orthogonal_search`` on every step, and f* summed as grid functions."""
    data = omega.coeffs
    residual = data.copy()
    history = [float(np.linalg.norm(residual))]
    selected, amplitudes = [], np.zeros(0)
    for _ in range(max_iters):
        rn = history[-1]
        if rn <= 1e-12 * history[0]:
            break
        _, _, index = orthogonal_search(Measurement(residual, omega.space), dictionary)
        if index in selected:
            break
        trial = selected + [index]
        A = dictionary.observed[:, trial]
        sol, *_ = np.linalg.lstsq(A, data, rcond=None)
        new_residual = data - A @ sol
        rn_new = float(np.linalg.norm(new_residual))
        if (rn - rn_new) / rn < rel_tol:
            break
        selected, amplitudes, residual = trial, sol, new_residual
        history.append(rn_new)
    smoothers = [Smoother(dictionary.candidates[k], float(a), k, dictionary.parameters[k])
                 for k, a in zip(selected, amplitudes)]
    f_star = omega.space.grid.zero()
    for sm in smoothers:
        f_star = f_star + sm.amplitude * sm.function
    omega_f = Measurement(data - omega.space.onb.coefficients(f_star), omega.space)
    return smoothers, f_star, omega_f, history


def reference_spbdw(omega, background, space, dictionary, model=None):
    """``spbdw_reconstruct`` composed from the reference greedy and grid-function sums:
    returns (smoothers, f*, omega_f, history, corrected amplitudes, f_u, u_star)."""
    smoothers, f_star, omega_f, history = reference_extract_smoothers(omega, dictionary)
    if model is None:
        u_f = pbdw_solve(omega_f, background, space)
        return (smoothers, f_star, omega_f, history, [sm.amplitude for sm in smoothers],
                f_star, u_f.state + f_star)
    u_f = bpbdw_reconstruct(omega_f, background, space, model)
    composite = u_f.initial.state + f_star
    eta = observe(composite, space) + discrepancy_xi(composite, space, model)
    corrected, f_u = [], space.grid.zero()
    if smoothers:
        A = dictionary.observed[:, [sm.index for sm in smoothers]]
        gamma, *_ = np.linalg.lstsq(A, eta.coeffs, rcond=None)
        corrected = [float(g) for g in gamma]
        for sm, g in zip(smoothers, corrected):
            f_u = f_u + g * sm.function
    return smoothers, f_star, omega_f, history, corrected, f_u, u_f.state + f_u


def assert_same_bits(actual, expected):
    """Equal arrays, the signs of zeros included."""
    actual, expected = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


class TestArrayLevelSplitMatchesReference:
    """The per-case split on plain arrays equals the grid-function loop bit for bit."""

    @pytest.fixture(params=["tied", "three_sensors", "random"])
    def fixture(self, request, grid, space40, dictionary, rng):
        """(dictionary, background, data columns) of one case family."""
        fast_tr, _, _ = sample_multiscale(MultiscaleSpec(), grid, 64, seed=16)
        if request.param == "three_sensors":
            # 3 sensors cannot separate 5 steps: later fits are rank deficient
            space = build_observation_space(SensorArray.equidistant(3, grid), grid)
            d = step_dictionary(grid, space, (np.pi / 2, 3 * np.pi / 2), stride=12)
            return d, pod(fast_tr, 2).subspace, rng.normal(size=(3, 40))
        background = pod(fast_tr, 15).subspace
        if request.param == "tied":
            d = request.getfixturevalue("tied")
            tie = 2.0 * d.observed[:, 5]
            data = np.column_stack([np.zeros(space40.m), tie,
                                    d.observed @ rng.normal(size=(len(d), 30))])
            return d, background, data
        data = rng.normal(size=(space40.m, 37))
        data[:, ::2] += dictionary.observed @ rng.uniform(0, 2, size=(len(dictionary), 1))
        return dictionary, background, data

    def test_extract_smoothers(self, fixture):
        d, _, data = fixture
        counts = set()
        for col in data.T:
            omega = Measurement(col, d.space)
            smoothers, f_star, omega_f, history = extract_smoothers(omega, d)
            ref = reference_extract_smoothers(omega, d)
            assert [sm.index for sm in smoothers] == [sm.index for sm in ref[0]]
            assert [sm.function for sm in smoothers] == [sm.function for sm in ref[0]]
            assert_same_bits([sm.amplitude for sm in smoothers], [sm.amplitude for sm in ref[0]])
            assert_same_bits(f_star.values, ref[1].values)
            assert_same_bits(omega_f.coeffs, ref[2].coeffs)
            assert_same_bits(history, ref[3])
            counts.add(len(smoothers))
        assert len(counts) >= 2

    @pytest.mark.parametrize("model", [None, NoiseModel(alpha=0.1, sigma=0.05)],
                             ids=["plain", "corrected"])
    def test_spbdw_reconstruct(self, fixture, model):
        d, background, data = fixture
        for col in data.T:
            omega = Measurement(col, d.space)
            dec = spbdw_reconstruct(omega, background, d.space, d, model=model)
            smoothers, f_star, omega_f, history, corrected, f_u, u_star = reference_spbdw(
                omega, background, d.space, d, model)
            assert [sm.index for sm in dec.smoothers] == [sm.index for sm in smoothers]
            assert_same_bits([sm.amplitude for sm in dec.smoothers],
                             [sm.amplitude for sm in smoothers])
            assert_same_bits(dec.f_star.values, f_star.values)
            assert_same_bits(dec.omega_f.coeffs, omega_f.coeffs)
            assert_same_bits(dec.residual_history, history)
            assert_same_bits(dec.corrected_amplitudes, corrected)
            assert_same_bits(dec.f_u.values, f_u.values)
            assert_same_bits(dec.u_star.values, u_star.values)


# finite values, -0.0 and subnormals among them, at 1 to 40 nodes
node_values = st.lists(st.floats(-1e150, 1e150), min_size=1, max_size=40).map(np.array)


class TestTotalVariation:
    @given(node_values)
    @example(np.array([-0.0]))
    @example(np.array([0.0, -0.0]))
    @example(np.array([-0.0, 5e-324]))
    @example(np.array([5e-324, -5e-324, 2.5e-308, -0.0, 1.0]))
    @settings(max_examples=200, deadline=None)
    def test_equals_the_sum_of_the_diff(self, values):
        # a grid has at least 2 nodes; total_variation reads only the values
        u = (GridFunction(Grid(0.0, 1.0, len(values)), values) if len(values) > 1
             else SimpleNamespace(values=values))
        expected = float(np.sum(np.abs(np.diff(values))))
        assert_same_bits(total_variation(u), expected)


class TestSpbdwReconstructBlock:
    """The block split against per-case ``spbdw_reconstruct``."""

    @pytest.mark.parametrize("model", [None, NoiseModel(alpha=0.1, sigma=0.05)],
                             ids=["plain", "corrected"])
    @pytest.mark.parametrize("width", [1, 37])
    def test_against_per_case(self, grid, space40, dictionary, model, width):
        spec = MultiscaleSpec()
        fast_tr, _, _ = sample_multiscale(spec, grid, 64, seed=16)
        background = pod(fast_tr, 15).subspace
        _, _, full_va = sample_multiscale(spec, grid, width, seed=17)
        data = np.stack([space40.onb.coefficients(u) for u in full_va], axis=1)
        data[:, 1::3] *= -1.0                   # downward jumps too
        split = spbdw_reconstruct_block(data, background, space40, dictionary, model=model)
        assert_greedy_matches(split.greedy, data, dictionary, 0.05, 5)
        for k, dominant in enumerate(split.dominant_indices().tolist()):
            dec = spbdw_reconstruct(Measurement(data[:, k], space40), background, space40,
                                    dictionary, model=model)
            count = len(dec.smoothers)
            np.testing.assert_allclose(split.corrected_amplitudes[k, :count],
                                       dec.corrected_amplitudes, rtol=1e-10, atol=0)
            scale = dec.u_star.norm()
            assert np.linalg.norm(split.u_star[:, k] - dec.u_star.values) <= 1e-10 * scale
            assert np.linalg.norm(split.f_star[:, k] - dec.f_star.values) <= 1e-10 * scale
            assert split.u_f.beta == dec.u_f.beta
            location = None if dominant < 0 else dictionary.parameters[dominant]["jump_location"]
            assert location == dec.dominant_jump_location()

    def test_one_refit_for_every_count(self, grid, space40, dictionary, rng):
        # one stacked refit covers a zero column and columns stopping at every count
        model, max_iters = NoiseModel(alpha=0.1, sigma=0.05), 5
        fast_tr, _, _ = sample_multiscale(MultiscaleSpec(), grid, 64, seed=16)
        background = pod(fast_tr, 15).subspace
        cols = [np.zeros(space40.m)]
        for count in range(1, max_iters + 1):
            for _ in range(4):
                picked = rng.permutation(np.arange(0, len(dictionary), 4))[:count]
                cols.append(dictionary.observed[:, picked] @ 2.0 ** -np.arange(count))
        data = np.column_stack(cols)
        data[:, 1:] += 0.01 * rng.normal(size=(space40.m, data.shape[1] - 1))
        split = spbdw_reconstruct_block(data, background, space40, dictionary, model=model,
                                        max_iters=max_iters)
        assert set(split.greedy.counts.tolist()) == set(range(max_iters + 1))
        assert not split.corrected_amplitudes[split.greedy.indices < 0].any()
        for k, count in enumerate(split.greedy.counts.tolist()):
            dec = spbdw_reconstruct(Measurement(data[:, k], space40), background, space40,
                                    dictionary, model=model, max_iters=max_iters)
            assert len(dec.smoothers) == count
            np.testing.assert_allclose(split.corrected_amplitudes[k, :count],
                                       dec.corrected_amplitudes, rtol=1e-10, atol=0)
            scale = dec.u_star.norm()
            assert np.linalg.norm(split.u_star[:, k] - dec.u_star.values) <= 1e-10 * scale

    def test_table_model_against_per_case(self, grid, space40, dictionary):
        # an empirical_table model's exact expectation serves the block split too
        model = NoiseModel(kind="empirical_table", sigma=0.05,
                           table=((0.0, 0.5, 0.05), (0.5, 1.0, -0.1), (1.0, np.inf, 0.2)))
        fast_tr, _, _ = sample_multiscale(MultiscaleSpec(), grid, 64, seed=16)
        background = pod(fast_tr, 15).subspace
        _, _, full_va = sample_multiscale(MultiscaleSpec(), grid, 9, seed=18)
        data = np.stack([space40.onb.coefficients(u) for u in full_va], axis=1)
        split = spbdw_reconstruct_block(data, background, space40, dictionary, model=model)
        for k in range(data.shape[1]):
            dec = spbdw_reconstruct(Measurement(data[:, k], space40), background, space40,
                                    dictionary, model=model)
            count = len(dec.smoothers)
            np.testing.assert_allclose(split.corrected_amplitudes[k, :count],
                                       dec.corrected_amplitudes, rtol=1e-10, atol=0)
            scale = dec.u_star.norm()
            assert np.linalg.norm(split.u_star[:, k] - dec.u_star.values) <= 1e-10 * scale

    def test_dictionary_of_another_space(self, grid, space40, dictionary):
        other = build_observation_space(SensorArray.equidistant(40, grid), grid)
        background = Subspace(grid, other.onb.matrix[:3])
        omega = Measurement(np.ones(40), other)
        calls = [
            lambda: spbdw_reconstruct_block(np.ones((40, 2)), background, other, dictionary),
            lambda: spbdw_reconstruct(omega, background, other, dictionary),
            lambda: extract_smoothers(omega, dictionary),
            lambda: orthogonal_search(omega, dictionary),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="different observation space"):
                call()


class TestSpbdwReconstruct:
    def test_fully_in_model_truth_recovered(self, grid, space40, dictionary):
        # smooth part chosen observably orthogonal to the step and small, so
        # the single greedy fit is exact and the smooth solve sees clean data
        spec = MultiscaleSpec()
        fast_tr, _, _ = sample_multiscale(spec, grid, 128, seed=4)
        basis = pod(fast_tr, 12)
        step = dictionary.candidates[9]
        obs_step = dictionary.observed[:, 9]

        coupling = np.array(
            [float(space40.onb.coefficients(v) @ obs_step) for v in basis.subspace.basis]
        )
        null = np.eye(12) - np.outer(coupling, coupling) / float(coupling @ coupling)
        coeffs = 0.2 * (null @ np.linspace(1.0, 2.0, 12))
        v = basis.subspace.combine(coeffs)

        truth = v + 3.0 * step
        omega = observe(truth, space40)
        dec = spbdw_reconstruct(omega, basis.subspace, space40, dictionary, max_iters=1)
        assert len(dec.smoothers) == 1
        assert dec.smoothers[0].index == 9
        assert dec.dominant_jump_location() == dictionary.parameters[9]["jump_location"]
        assert (dec.u_star - truth).norm() / truth.norm() <= 1e-8

    def test_degenerates_to_plain_solve_without_smoothers(self, grid, space40, dictionary):
        spec = MultiscaleSpec()
        fast_tr, _, _ = sample_multiscale(spec, grid, 64, seed=5)
        _, _, full_va = sample_multiscale(spec, grid, 1, seed=6)
        basis = pod(fast_tr, 10)
        truth = full_va.snapshots[0]
        omega = observe(truth, space40)
        dec = spbdw_reconstruct(omega, basis.subspace, space40, dictionary, rel_tol=1.0)
        assert len(dec.smoothers) == 0
        assert dec.dominant_jump_location() is None
        plain = pbdw_solve(omega, basis.subspace, space40)
        assert (dec.u_star - plain.state).norm() <= 1e-10 * max(1.0, plain.state.norm())

    def test_recombination_identity(self, grid, space40, dictionary):
        spec = MultiscaleSpec()
        fast_tr, _, _ = sample_multiscale(spec, grid, 64, seed=7)
        _, _, full_va = sample_multiscale(spec, grid, 3, seed=8)
        basis = pod(fast_tr, 15)
        for truth in full_va:
            dec = spbdw_reconstruct(observe(truth, space40), basis.subspace, space40, dictionary)
            assert np.array_equal(
                dec.u_star.values, dec.u_f.state.values + dec.f_u.values
            )

    def test_plain_split_equals_the_refit_route_bit_for_bit(self, grid, space40, dictionary):
        # without a noise model the steps keep their greedy amplitudes; the joint
        # refit against the raw data that this replaced is kept here as the reference
        spec = MultiscaleSpec()
        fast_tr, _, _ = sample_multiscale(spec, grid, 64, seed=7)
        _, _, full_va = sample_multiscale(spec, grid, 24, seed=13)
        basis = pod(fast_tr, 15)
        counts = set()
        for k, truth in enumerate(full_va):
            truth = truth + (k % 3 - 1) * dictionary.candidates[3 * k % len(dictionary)]
            omega = observe(truth, space40)
            dec = spbdw_reconstruct(omega, basis.subspace, space40, dictionary)
            refit, f_u = [], grid.zero()
            if dec.smoothers:
                A = dictionary.observed[:, [sm.index for sm in dec.smoothers]]
                gamma, *_ = np.linalg.lstsq(A, omega.coeffs, rcond=None)
                refit = [float(g) for g in gamma]
                for sm, g in zip(dec.smoothers, refit):
                    f_u = f_u + g * sm.function
            assert dec.corrected_amplitudes == tuple(refit)
            assert np.array_equal(dec.f_u.values, f_u.values)
            assert np.array_equal(dec.u_star.values, (dec.u_f.state + f_u).values)
            counts.add(len(dec.smoothers))
        assert {1, 2} <= counts

    def test_head_to_head_and_no_spurious_oscillation(self, grid, space40, dictionary):
        # discontinuous truths with jumps on the dictionary: the split solve
        # beats the full-basis solve and does not inflate total variation,
        # while the full-basis solve oscillates
        spec = MultiscaleSpec()
        fast_tr, _, full_tr = sample_multiscale(spec, grid, 256, seed=9)
        fast_basis = pod(fast_tr, 20)
        full_basis = pod(full_tr, 20)
        fast_va, _, full_va = sample_multiscale(spec, grid, 6, seed=10)

        locations = np.array([p["jump_location"] for p in dictionary.parameters])
        wins = 0
        tv_ok = 0
        tv_pbdw_exceeds = 0
        for k in range(len(full_va)):
            params = full_va.parameters[k]
            snapped = float(locations[np.argmin(np.abs(locations - params["jump_location"]))])
            truth = fast_va.snapshots[k] + params["jump_height"] * heaviside(grid, snapped)
            omega = observe(truth, space40)
            dec = spbdw_reconstruct(omega, fast_basis.subspace, space40, dictionary)
            plain = pbdw_solve(omega, full_basis.subspace, space40)
            e_split = (dec.u_star - truth).norm()
            e_plain = (plain.state - truth).norm()
            wins += e_split < e_plain
            tv_truth = total_variation(truth)
            tv_ok += total_variation(dec.u_star) - tv_truth <= 0.25 * tv_truth
            tv_pbdw_exceeds += total_variation(plain.state) - tv_truth > 0.25 * tv_truth
        assert wins == len(full_va)
        assert tv_ok == len(full_va)
        assert tv_pbdw_exceeds >= len(full_va) - 1

    def test_bias_corrected_path(self, grid, space40, dictionary):
        # with a pure-bias model the corrected split solve beats the
        # uncorrected one on the same data
        spec = MultiscaleSpec()
        fast_tr, _, _ = sample_multiscale(spec, grid, 128, seed=11)
        basis = pod(fast_tr, 15)
        fast_va, _, full_va = sample_multiscale(spec, grid, 1, seed=12)
        locations = np.array([p["jump_location"] for p in dictionary.parameters])
        params = full_va.parameters[0]
        snapped = float(locations[np.argmin(np.abs(locations - params["jump_location"]))])
        truth = fast_va.snapshots[0] + params["jump_height"] * heaviside(grid, snapped)

        model = NoiseModel(alpha=0.15, sigma=0.0)
        from assim import apply_noise

        omega = apply_noise(truth, space40, model, seed=3)
        corrected = spbdw_reconstruct(omega, basis.subspace, space40, dictionary, model=model)
        plain = spbdw_reconstruct(omega, basis.subspace, space40, dictionary)
        assert (corrected.u_star - truth).norm() < (plain.u_star - truth).norm()


class TestBetaBound:
    def test_empty_slow_space(self, grid, space40):
        spec = MultiscaleSpec()
        fast_tr, _, _ = sample_multiscale(spec, grid, 64, seed=13)
        basis = pod(fast_tr, 8)
        empty = Subspace(grid, np.zeros((0, grid.num_points)))
        combined, beta_f, beta_s = multiscale_beta_bound(empty, basis.subspace, space40)
        assert combined == beta_f
        assert beta_s == 1.0

    def test_contained_spaces(self, grid, space40):
        background = Subspace(grid, space40.onb.matrix[:4])
        slow = Subspace(grid, space40.onb.matrix[4:7])
        combined, beta_f, beta_s = multiscale_beta_bound(slow, background, space40)
        assert combined == pytest.approx(1.0, abs=1e-10)
        assert beta_f == pytest.approx(1.0, abs=1e-10)
        assert beta_s == pytest.approx(1.0, abs=1e-10)

    def test_random_orthogonal_pairs_against_svd_oracle(self, rng):
        # the lower bound needs the slow space orthogonal to the background
        # AND to its observed images (the cross terms of the projections must
        # vanish); slow vectors are drawn accordingly
        from assim import Grid

        grid = Grid(0.0, 2 * np.pi, 64)
        space = build_observation_space(SensorArray.equidistant(10, grid), grid)
        for trial in range(20):
            fns = [GridFunction(grid, rng.normal(size=64)) for _ in range(5)]
            basis = orthonormalize(fns[:3])
            images = orthonormalize(
                [project_onto(v, space.onb) for v in basis.basis] + list(basis.basis)
            )
            rest = [u - project_onto(u, images) for u in fns[3:]]
            slow = orthonormalize(rest)
            combined, beta_f, beta_s = multiscale_beta_bound(slow, basis, space)
            assert combined >= min(beta_f, beta_s) - 1e-8
            # oracle: direct singular values of the stacked cross-Gramian
            rows = np.vstack([basis.matrix, slow.matrix])
            G = (space.onb.matrix * grid.weights) @ rows.T
            oracle = np.linalg.svd(G, compute_uv=False)[-1]
            assert combined == pytest.approx(oracle, abs=1e-6)

    def test_non_orthogonal_inputs_rejected(self, grid, space40, rng):
        fns = [GridFunction(grid, rng.normal(size=grid.num_points)) for _ in range(4)]
        background = orthonormalize(fns[:2])
        slow = orthonormalize(fns[2:])      # not orthogonalized against background
        with pytest.raises(ValueError, match="orthogonal"):
            multiscale_beta_bound(slow, background, space40)

    def test_coupling_through_the_sensors_rejected(self, grid, space40, rng):
        # s is orthogonal to the background and to the first basis vector's observed
        # image, but not to the second's; the first failing (slow, background) pair
        # in row-major order names the failed check
        fns = [GridFunction(grid, rng.normal(size=grid.num_points)) for _ in range(3)]
        background = orthonormalize(fns[:2])
        b0, b1 = (project_onto(v, space40.onb) for v in background.basis)
        s = b1 - project_onto(b1, orthonormalize([*background.basis, b0]))
        leaning = fns[2]
        cases = [([s], "couples to the background through the sensors"),
                 ([s, leaning], "couples to the background through the sensors"),
                 ([leaning, s], "not orthogonal to the background")]
        for vectors, message in cases:
            with pytest.raises(ValueError, match=message):
                multiscale_beta_bound(orthonormalize(vectors), background, space40)

    def test_spaces_on_another_grid_rejected(self, grid, space40):
        from assim import Grid, GridMismatchError

        # the same functions on a grid of the same size: the checks alone would
        # call them not orthogonal
        other = Grid(0.0, 1.0, grid.num_points)
        background = Subspace(grid, space40.onb.matrix[:2])
        slow = Subspace(other, space40.onb.matrix[:2] * np.sqrt(2 * np.pi))
        for args in ((slow, background, space40), (background, slow, space40)):
            with pytest.raises(GridMismatchError):
                multiscale_beta_bound(*args)

    def test_bound_violation_raises(self, grid, space40, rng):
        # a slow vector leaning on the background breaks the hypothesis; with
        # the orthogonality checks disabled the bound check itself must fire
        u = GridFunction(grid, rng.normal(size=grid.num_points))
        hidden = u - project_onto(u, space40.onb)          # invisible to sensors
        v = space40.onb.basis[0]
        background = Subspace(grid, v.values[None, :])
        slow = orthonormalize([v + (0.1 / hidden.norm()) * hidden])
        with pytest.raises(ValueError, match="combined stability constant"):
            multiscale_beta_bound(slow, background, space40, orthogonality_tol=np.inf)

    def test_reconstruction_error_bound(self, grid, space40, dictionary):
        # combined a priori bound on noise-free multiscale truths; the
        # analysis slow space uses a thinned dictionary so it stays
        # observable next to the 20 background image directions
        spec = MultiscaleSpec()
        fast_tr, slow_tr, _ = sample_multiscale(spec, grid, 256, seed=14)
        fast_basis = pod(fast_tr, 20)
        background = fast_basis.subspace

        analysis_dict = step_dictionary(grid, space40, (np.pi / 2, 3 * np.pi / 2), stride=24)
        coupled = orthonormalize(
            list(background.basis)
            + [project_onto(v, space40.onb) for v in background.basis]
        )
        slow_members = [u - project_onto(u, coupled) for u in analysis_dict.candidates]
        slow_space = orthonormalize(slow_members)
        combined, beta_f, beta_s = multiscale_beta_bound(slow_space, background, space40)
        assert beta_s > 1e-6

        fast_va, slow_va, full_va = sample_multiscale(spec, grid, 20, seed=15)
        locations = np.array([p["jump_location"] for p in dictionary.parameters])
        eps_f = float(projection_residuals(fast_va, background).max())
        truths = []
        slow_parts = []
        for k in range(len(full_va)):
            params = full_va.parameters[k]
            snapped = float(locations[np.argmin(np.abs(locations - params["jump_location"]))])
            s = params["jump_height"] * heaviside(grid, snapped)
            truths.append(fast_va.snapshots[k] + s)
            slow_parts.append(s)
        eps_s = max((s - project_onto(s, slow_space)).norm() for s in slow_parts)
        bound = (eps_f + eps_s) / min(beta_f, beta_s) + 1e-6
        for truth in truths:
            dec = spbdw_reconstruct(observe(truth, space40), background, space40, dictionary)
            assert (dec.u_star - truth).norm() <= bound

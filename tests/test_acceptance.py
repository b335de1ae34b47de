"""Acceptance benchmark.

Each criterion prints one ``[PASS]``/``[FAIL]`` line (run with ``pytest -s``
to see them all).  Expensive benchmark runs are shared through module-scoped
fixtures; every random stream descends from the configs' master seed, so the
whole module is reproducible.
"""

import time

import numpy as np
import pytest

from assim import (
    Grid,
    GridFunction,
    Measurement,
    MultiscaleSpec,
    NoiseModel,
    SensorArray,
    SinusoidSpec,
    SnapshotSet,
    apply_noise,
    bpbdw_reconstruct,
    build_observation_space,
    build_slow_dictionary,
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
    sample_sinusoids,
    spbdw_reconstruct,
    step_dictionary,
)
from assim.bench import default_config, run_experiment
from assim.rom import projection_residuals


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")


@pytest.fixture(scope="module")
def example1_run():
    cfg = default_config("example1")
    assert cfg["sweep.m"] == [25] and cfg["sweep.alpha"] == [0.1]
    assert cfg["validation.count"] == 64 and cfg["noise.sigma"] == 0.325
    start = time.perf_counter()
    result = run_experiment(cfg)
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def example2_run():
    cfg = default_config("example2")
    assert cfg["sweep.m"] == [40] and cfg["sweep.n"] == [20]
    assert cfg["validation.count"] == 20 and cfg["dictionary.snap_truth"]
    return run_experiment(cfg)


@pytest.fixture(scope="module")
def example3_run():
    cfg = default_config("example3_analog")
    assert cfg["validation.count"] == 40
    assert cfg["noise.alpha"] == 0.15 and cfg["noise.sigma"] == 2.0
    start = time.perf_counter()
    result = run_experiment(cfg)
    return result, time.perf_counter() - start


def test_criterion_1_example1_replication(example1_run):
    result, elapsed = example1_run
    n_values = sorted({row.n for row in result.rows})
    # the mean curve flattens once the reduced model resolves the family (the
    # bias floor), so the optimum is read with the one-standard-error rule:
    # smallest n statistically indistinguishable from the global minimum
    def optimal_n(method):
        curves = np.array([result.errors(method, n=n) for n in n_values])
        means = curves.mean(axis=1)
        k = int(np.argmin(means))
        threshold = means[k] + curves[k].std() / np.sqrt(curves.shape[1])
        return n_values[int(np.argmax(means <= threshold))]

    n_star = optimal_n("pbdw")
    n_star_corrected = optimal_n("bpbdw")
    worst_corrected_at_5 = max(result.errors("bpbdw", n=5))
    ok = (
        3 <= n_star <= 8
        and 3 <= n_star_corrected <= 8
        and worst_corrected_at_5 <= 0.08
        and elapsed < 60.0
    )
    report(
        1,
        ok,
        f"mean-error curves dip at n*={n_star} (plain) and "
        f"n*={n_star_corrected} (corrected), want 3..8; worst corrected error "
        f"at n=5 is {100 * worst_corrected_at_5:.2f}% (want <= 8%); runtime "
        f"{elapsed:.1f}s (want < 60s)",
    )
    assert ok


def test_criterion_2_bias_correction_gain(example1_run, grid):
    result, _ = example1_run
    mean_plain = result.mean_error("pbdw", n=5)
    mean_corrected = result.mean_error("bpbdw", n=5)
    gain_ok = mean_corrected <= mean_plain / 3

    # scalar closed form: one full-domain sensor, background = span(truth);
    # the raw solve scales amplitudes by (1 + alpha) and the corrected solve
    # by (1 - alpha)(1 + alpha), so the errors are alpha and alpha^2 exactly
    center = 0.5 * (grid.a + grid.b)
    space = build_observation_space(
        SensorArray((center,), "box_average", width=1.01 * (grid.b - grid.a)), grid
    )
    truth = GridFunction(grid, np.full(grid.num_points, 2.5))
    background = orthonormalize([truth])
    scalar_ok = True
    for alpha in (0.05, 0.1, 0.2):
        model = NoiseModel(alpha=alpha, sigma=0.0)
        omega = apply_noise(truth, space, model, seed=0)
        plain = pbdw_solve(omega, background, space)
        corrected = bpbdw_reconstruct(omega, background, space, model)
        e_plain = (plain.state - truth).norm() / truth.norm()
        e_corr = (corrected.state - truth).norm() / truth.norm()
        scalar_ok &= abs(e_plain - alpha) < 1e-10 and abs(e_corr - alpha**2) < 1e-10

    ok = gain_ok and scalar_ok
    report(
        2,
        ok,
        f"mean error at n=5: plain {100 * mean_plain:.2f}% vs corrected "
        f"{100 * mean_corrected:.2f}% (gain {mean_plain / mean_corrected:.1f}x, want >= 3x); "
        f"scalar de-biasing alpha->alpha^2 exact: {scalar_ok}",
    )
    assert ok


def test_criterion_3_sensor_count_monotonicity():
    cfg = default_config("example1")
    cfg["sweep.n"] = [5]
    cfg["sweep.m"] = [10, 20, 40, 80]
    result = run_experiment(cfg)
    worst = [max(result.errors("bpbdw", n=5, m=m)) for m in cfg["sweep.m"]]
    ok = all(b <= 1.10 * a for a, b in zip(worst, worst[1:]))
    report(
        3,
        ok,
        "worst corrected error over m=10,20,40,80: "
        + ", ".join(f"{100 * e:.2f}%" for e in worst)
        + " (nonincreasing within 10% per step)",
    )
    assert ok


def test_criterion_4_error_bound(grid):
    spec = SinusoidSpec()
    training = sample_sinusoids(spec, grid, 128, seed=101)
    truths = sample_sinusoids(spec, grid, 50, seed=202)
    basis = pod(training, 10)
    space = build_observation_space(SensorArray.equidistant(25, grid), grid)
    worst_margin = -np.inf
    ok = True
    for n in range(1, 11):
        sub = basis.subspace.truncate(n)
        eps_n = float(projection_residuals(truths, sub).max())
        beta = inf_sup_beta(sub, space)
        bound = eps_n / beta + 1e-8
        for truth in truths:
            rec = pbdw_solve(observe(truth, space), sub, space)
            err = (rec.state - truth).norm()
            worst_margin = max(worst_margin, err - bound)
            ok &= err <= bound
    report(
        4,
        ok,
        f"a priori bound holds for 50 noise-free truths, n=1..10 "
        f"(worst error-minus-bound {worst_margin:.2e}, want <= 0)",
    )
    assert ok


def test_criterion_5_multiscale_bound(grid):
    # part 1: combined stability constant on 20 random orthogonal pairs
    # (slow vectors drawn orthogonal to the background and to its observed
    # images, which the bound's derivation requires)
    small = Grid(0.0, 2 * np.pi, 64)
    space_small = build_observation_space(SensorArray.equidistant(10, small), small)
    rng = np.random.default_rng(303)
    beta_ok = True
    for _ in range(20):
        fns = [GridFunction(small, rng.normal(size=64)) for _ in range(5)]
        background = orthonormalize(fns[:3])
        coupled = orthonormalize(
            list(background.basis)
            + [project_onto(v, space_small.onb) for v in background.basis]
        )
        slow = orthonormalize([u - project_onto(u, coupled) for u in fns[3:]])
        combined, beta_f, beta_s = multiscale_beta_bound(slow, background, space_small)
        beta_ok &= combined >= min(beta_f, beta_s) - 1e-8

    # part 2: combined reconstruction error bound on 20 noise-free
    # discontinuous truths; the analysis slow space uses a thinned dictionary
    # so that it stays observable next to the 20 background image directions
    # (the bound would be finite but vacuous otherwise)
    spec = MultiscaleSpec()
    space = build_observation_space(SensorArray.equidistant(40, grid), grid)
    dictionary = step_dictionary(grid, space, spec.jump_location_range, stride=24)
    fast_tr, _, _ = sample_multiscale(spec, grid, 256, seed=404)
    background = pod(fast_tr, 20).subspace
    coupled = orthonormalize(
        list(background.basis) + [project_onto(v, space.onb) for v in background.basis]
    )
    slow_space = orthonormalize(
        [u - project_onto(u, coupled) for u in dictionary.candidates]
    )
    combined, beta_f, beta_s = multiscale_beta_bound(slow_space, background, space)
    assert beta_s > 1e-6, "analysis slow space must remain observable"

    fast_va, _, full_va = sample_multiscale(spec, grid, 20, seed=505)
    locations = np.array([p["jump_location"] for p in dictionary.parameters])
    truths, slow_parts = [], []
    for k in range(len(full_va)):
        params = full_va.parameters[k]
        snapped = float(locations[np.argmin(np.abs(locations - params["jump_location"]))])
        s = params["jump_height"] * heaviside(grid, snapped)
        truths.append(fast_va.snapshots[k] + s)
        slow_parts.append(s)
    eps_f = float(projection_residuals(fast_va, background).max())
    eps_s = max((s - project_onto(s, slow_space)).norm() for s in slow_parts)
    bound = (eps_f + eps_s) / min(beta_f, beta_s) + 1e-6
    errors = []
    for truth in truths:
        dec = spbdw_reconstruct(observe(truth, space), background, space, dictionary)
        errors.append((dec.u_star - truth).norm())
    bound_ok = all(e <= bound for e in errors)

    ok = beta_ok and bound_ok
    report(
        5,
        ok,
        f"combined beta >= min(individual betas) on 20 pairs: {beta_ok}; "
        f"reconstruction errors (max {max(errors):.3f}) within combined bound "
        f"{bound:.3f} on 20 truths: {bound_ok}",
    )
    assert ok


def test_criterion_6_example2_slow_decay(example2_run):
    result = example2_run
    decay = {
        (row["label"], row["n"]): row["approximation_error"] for row in result.pod_decay
    }
    fast20, full20 = decay[("fast", 20)], decay[("full", 20)]
    decay_ok = fast20 <= full20 / 5

    split_errors = result.errors("spbdw", n=20)
    plain_errors = result.errors("pbdw", n=20)
    wins = sum(s < p for s, p in zip(split_errors, plain_errors))
    winrate_ok = wins >= 0.9 * len(split_errors)

    cells_off = [d["jump_cells_off"] for d in result.diagnostics]
    location_ok = all(c != "" and c <= 2.0 for c in cells_off)

    ok = decay_ok and winrate_ok and location_ok
    report(
        6,
        ok,
        f"reduced-model error at n=20: fast {fast20:.4f} vs full {full20:.4f} "
        f"(ratio {full20 / fast20:.0f}x, want >= 5x); split solve wins "
        f"{wins}/{len(split_errors)} (want >= 90%); jump locations within 2 "
        f"cells: {location_ok}",
    )
    assert ok


def test_criterion_7_example3_analog(example3_run, tmp_path):
    result, elapsed = example3_run
    mean_plain = result.mean_error("pbdw")
    mean_corrected = result.mean_error("bpbdw")
    gain_ok = mean_corrected <= mean_plain / 1.5

    result.write(tmp_path)
    lines = (tmp_path / "aggregates.csv").read_text().splitlines()
    header_ok = lines[1] == "method,n,m,alpha,sigma,mean,max,min,stddev,count"
    table_ok = header_ok and len(lines) == 4          # schema comment + header + 2 methods

    ok = gain_ok and table_ok and elapsed < 30.0
    report(
        7,
        ok,
        f"40 synthetic power-law cases: plain {100 * mean_plain:.2f}% vs corrected "
        f"{100 * mean_corrected:.2f}% (gain {mean_plain / mean_corrected:.1f}x, want >= 1.5x); "
        f"mean/max/min/stddev table emitted: {table_ok}; runtime {elapsed:.1f}s (want < 30s)",
    )
    assert ok


def test_criterion_8_oracle_equivalence():
    rng = np.random.default_rng(606)

    # dense KKT oracle (independent of the solver's algebra)
    def kkt_solution(grid, V, Q, d):
        w = grid.weights
        B = np.diag(w)
        H = B - B @ V.T @ V @ B
        A = Q @ B
        kkt = np.block([[H, A.T], [A, np.zeros((Q.shape[0], Q.shape[0]))]])
        rhs = np.concatenate([np.zeros(grid.num_points), d])
        return np.linalg.solve(kkt, rhs)[: grid.num_points]

    solver_ok = True
    worst = 0.0
    trials = 0
    while trials < 100:
        num_points = int(rng.integers(8, 17))
        n = int(rng.integers(1, 4))
        m = int(rng.integers(n, 7))
        grid = Grid(0.0, 1.0, num_points)
        V = orthonormalize(
            [GridFunction(grid, rng.normal(size=num_points)) for _ in range(n)]
        )
        interior = rng.choice(np.arange(1, num_points - 1), size=m, replace=False)
        sensors = SensorArray(tuple(np.sort(grid.nodes[interior])), "pointwise")
        space = build_observation_space(sensors, grid)
        if inf_sup_beta(V, space) < 1e-6:
            continue
        trials += 1
        d = rng.normal(size=m)
        rec = pbdw_solve(Measurement(d, space), V, space)
        expected = kkt_solution(grid, V.matrix, space.onb.matrix, d)
        gap = float(np.max(np.abs(rec.state.values - expected)))
        worst = max(worst, gap)
        solver_ok &= gap < 1e-10

    # exhaustive scan oracle for the dictionary search
    search_ok = True
    grid = Grid(0.0, 2 * np.pi, 128)
    space = build_observation_space(SensorArray.equidistant(12, grid), grid)
    for _ in range(100):
        count = int(rng.integers(5, 26))
        nodes = rng.choice(np.arange(8, 120), size=count, replace=False)
        snaps = SnapshotSet(
            grid,
            [heaviside(grid, float(grid.nodes[k])).values for k in np.sort(nodes)],
            tuple({"jump_location": float(grid.nodes[k])} for k in np.sort(nodes)),
        )
        dictionary = build_slow_dictionary(snaps, space)
        omega = Measurement(rng.normal(size=12), space)
        _, amplitude, index = orthogonal_search(omega, dictionary)
        scores = [
            float(omega.coeffs @ dictionary.observed[:, j])
            / float(np.linalg.norm(dictionary.observed[:, j]))
            for j in range(len(dictionary))
        ]
        best = int(np.argmax(scores))
        g = dictionary.observed[:, best]
        search_ok &= index == best
        search_ok &= amplitude == float(omega.coeffs @ g) / float(g @ g)

    ok = solver_ok and search_ok
    report(
        8,
        ok,
        f"solver matches dense KKT oracle on 100 instances (worst gap {worst:.2e}, "
        f"want < 1e-10): {solver_ok}; search matches exhaustive scan on 100 "
        f"dictionaries exactly: {search_ok}",
    )
    assert ok


def test_criterion_9_determinism(tmp_path):
    pairs = []
    for experiment, narrow in (
        ("example1", {"validation.count": 16, "sweep.n": [1, 3, 5, 8]}),
        ("example2", {"validation.count": 5, "training.count": 96}),
        ("example3_analog", {"validation.count": 10}),
    ):
        cfg = default_config(experiment)
        cfg.update(narrow)
        a_dir, b_dir = tmp_path / f"{experiment}_a", tmp_path / f"{experiment}_b"
        run_experiment(cfg).write(a_dir)
        run_experiment(cfg).write(b_dir)
        identical = (a_dir / "results.csv").read_bytes() == (b_dir / "results.csv").read_bytes()
        pairs.append((experiment, identical))
    ok = all(identical for _, identical in pairs)
    report(
        9,
        ok,
        "byte-identical results.csv on repeated runs: "
        + ", ".join(f"{exp}={'yes' if same else 'NO'}" for exp, same in pairs),
    )
    assert ok

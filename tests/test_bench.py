import contextlib
import csv
import dataclasses
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import warnings
import zlib
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from assim import (
    GridFunction,
    MultiscaleSpec,
    NoiseModel,
    PowerLawSpec,
    SinusoidSpec,
    Subspace,
    bpbdw_reconstruct,
    build_observation_space,
    compute_box,
    pbdw_solve,
    pbdw_solve_boxed,
    pod,
    sample_sinusoids,
    spbdw_reconstruct,
    step_dictionary,
    total_variation,
)
import assim.bench
import assim.solver
from assim.bench import (
    _CHUNK,
    _TYPES,
    AGGREGATE_FIELDS,
    RESULT_FIELDS,
    SCHEMA,
    TIMING_FIELDS,
    ConfigError,
    ResultRow,
    RunResult,
    _Cases,
    _grid,
    _manifold_spec,
    _normal_columns,
    _pair,
    _pcg64_words,
    _sensor_array,
    _write_run_json,
    aggregate_rows,
    default_config,
    derive_seed,
    derive_seeds,
    load_config,
    observe_noisy,
    parse_config,
    parse_overrides,
    run_experiment,
    setup_experiment,
)
from assim.cli import main as cli_main

CONFIGS = Path(__file__).parents[1] / "configs"


def small_example1(**overrides):
    cfg = default_config("example1")
    cfg.update(
        {"validation.count": 8, "sweep.n": [1, 3, 5], "training.count": 64}
    )
    cfg.update(overrides)
    return cfg


def _limited_keys() -> list[str]:
    return [key for key, row in SCHEMA.items() if row.lower or row.upper or row.choices]


def _next(value, direction: float):
    """The int or float next to ``value`` towards ``direction`` (-inf or inf)."""
    if isinstance(value, int):
        return value + (1 if direction > 0 else -1)
    return math.nextafter(value, direction)


def _around(bound: tuple, outward: float) -> tuple:
    """(a value just outside a bound, a value on it or just inside); ``outward`` points out."""
    value, allowed = bound
    if allowed:
        return _next(value, outward), value
    return value, _next(value, -outward)


def _text(key: str, value) -> str:
    """An entry's text for one value: one value of a sweep, both ends of a range."""
    text = value if isinstance(value, str) else repr(value)
    return ",".join([text] * (2 if SCHEMA[key].type == "float_range" else 1))


class TestConfigParsing:
    def test_defaults_round_trip(self):
        cfg = parse_config("experiment = example1\n")
        assert cfg == default_config("example1")

    def test_values_and_comments(self):
        text = """
        # a comment
        experiment = example2
        validation.count = 5    # trailing comment
        sweep.n = 10,20
        dictionary.snap_truth = false
        """
        cfg = parse_config(text)
        assert cfg["validation.count"] == 5
        assert cfg["sweep.n"] == [10, 20]
        assert cfg["dictionary.snap_truth"] is False

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match=":3"):
            parse_config("experiment = example1\n\nnot.a.key = 1\n")

    def test_bad_value_reports_line(self):
        with pytest.raises(ConfigError, match=":2"):
            parse_config("experiment = example1\nvalidation.count = many\n")

    def test_missing_experiment(self):
        with pytest.raises(ConfigError, match="experiment"):
            parse_config("validation.count = 3\n")

    def test_key_for_wrong_experiment(self):
        with pytest.raises(ConfigError, match="does not apply"):
            parse_config("experiment = example1\ndictionary.stride = 4\n")

    def test_overrides(self):
        cfg = default_config("example1")
        out = parse_overrides(cfg, ["noise.sigma=0.5", "sweep.m=10,20"])
        assert out["noise.sigma"] == 0.5
        assert out["sweep.m"] == [10, 20]
        with pytest.raises(ConfigError):
            parse_overrides(cfg, ["bogus=1"])

    def test_empty_sweep_rejected(self):
        with pytest.raises(ConfigError, match="sweep.n"):
            parse_config("experiment = example1\nsweep.n =\n")

    @pytest.mark.parametrize("entry", ["noise.sigma = nan", "sweep.alpha = 0.1, inf",
                                       "grid.b = -inf", "manifold.period = 1, nan"])
    def test_non_finite_floats_rejected(self, entry):
        with pytest.raises(ConfigError, match="finite"):
            parse_config(f"experiment = example1\n{entry}\n")
        key, value = (part.strip() for part in entry.split("="))
        with pytest.raises(ConfigError, match="finite"):
            parse_overrides(default_config("example1"), [f"{key}={value}"])


    @pytest.mark.parametrize(
        "experiment, overrides, message",
        [
            # the truths are the first validation.count training snapshots
            ("example1", ["validation.reuse_training=true", "validation.count=300"],
             "validation.count=300 exceeds training.count=128"),
            ("example1", ["manifold.amplitude=1,2,3"], "manifold.amplitude must have exactly two"),
            ("example2", ["manifold.phase=0"], "manifold.phase must have exactly two"),
            ("example3_analog", ["manifold.flow_index="], "manifold.flow_index must have exactly"),
            ("example1", ["sweep.m=5", "sweep.n=8"], "no feasible"),
            ("example2", ["training.count=8"], "sweep.n goes to 20 but only 8"),
        ],
    )
    def test_checks_that_need_no_data_are_made_before_set_up(self, experiment, overrides,
                                                             message):
        with pytest.raises(ConfigError, match=message):
            parse_overrides(default_config(experiment), overrides)

    @pytest.mark.parametrize("experiment, spec", [
        ("example1", SinusoidSpec()), ("example2", MultiscaleSpec()),
        ("example3_analog", PowerLawSpec())])
    def test_manifold_keys_are_the_spec_fields(self, experiment, spec):
        # set-up and the config checks build the spec from these keys alone
        cfg = default_config(experiment)
        assert _manifold_spec(cfg) == spec
        assert {key for key in cfg if key.startswith("manifold.")} == {
            "manifold." + field.name.removesuffix("_range") for field in dataclasses.fields(spec)}

    def test_set_up_validates_a_dict_edited_by_hand(self, monkeypatch):
        monkeypatch.setattr(assim.bench, "sample_sinusoids", lambda *args: pytest.fail("sampled"))
        cfg = {**default_config("example1"), "manifold.period": [3.0, 1.0]}
        with pytest.raises(ConfigError, match="manifold.period range"):
            setup_experiment(cfg)

    @pytest.mark.parametrize("key", _limited_keys())
    def test_value_past_a_limit_names_its_key(self, key):
        row = SCHEMA[key]
        experiment = sorted(row.defaults)[0]
        if row.choices:
            outside, inside = ["not_" + row.choices[0]], list(row.choices)
        else:
            pairs = [_around(row.lower, -math.inf)]
            pairs += [_around(row.upper, math.inf)] if row.upper else []
            outside, inside = zip(*pairs)
        message = f"^{re.escape(key)} {re.escape(row.limits())}, got "
        for value in outside:
            text = _text(key, value)
            with pytest.raises(ConfigError, match=message):
                parse_config(f"experiment = {experiment}\n{key} = {text}\n")
            if key != "experiment":     # which --set cannot change
                with pytest.raises(ConfigError, match=message):
                    parse_overrides(default_config(experiment), [f"{key}={text}"])
        for value in inside:
            row.check(key, _TYPES[row.type][0](_text(key, value)))

    @pytest.mark.parametrize("experiment", ["example1", "example2", "example3_analog"])
    def test_noise_kind_checked(self, experiment):
        for kind in ("empirical_table", "gaussian"):
            with pytest.raises(ConfigError, match="noise.kind"):
                parse_config(f"experiment = {experiment}\nnoise.kind = {kind}\n")
            with pytest.raises(ConfigError, match="noise.kind"):
                parse_overrides(default_config(experiment), [f"noise.kind={kind}"])


class TestSeeding:
    def test_deterministic_and_distinct(self):
        a = derive_seed(1, "noise", 0, "m", 25)
        assert a == derive_seed(1, "noise", 0, "m", 25)
        assert a != derive_seed(1, "noise", 1, "m", 25)
        assert a != derive_seed(2, "noise", 0, "m", 25)

    # one to eight master words: below, at and past SeedSequence's pool of four
    @pytest.mark.parametrize("master", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**100, 2**200 + 7])
    def test_derive_seeds_is_derive_seed(self, master):
        keys = [(), ("training",), ("noise", 3, "m", 25, "n", 4, "alpha", "0.1")]
        keys += [("noise", case_id, "m", 40, "n", 20) for case_id in range(50)]
        assert zlib.crc32(b"") == 0   # the empty key's digest
        texts = [":".join(map(str, key)) for key in keys]
        assert derive_seeds(master, texts) == [derive_seed(master, *key) for key in keys]
        assert derive_seeds(master, []) == []

    def test_derive_seeds_rejects_a_negative_master(self):
        with pytest.raises(ValueError, match="non-negative"):
            derive_seeds(-1, ["noise"])
        with pytest.raises(ValueError, match="non-negative"):
            derive_seed(-1, "noise")

    def test_noise_columns_are_default_rng_draws(self):
        rng = np.random.default_rng(5)
        widths = rng.integers(1, 65, 500)
        # seeds of every bit width, so one- and two-word seeds interleave
        random_seeds = [int(s) % 2 ** int(w) for s, w in
                        zip(rng.integers(0, 2**64, 500, dtype=np.uint64), widths)]
        seeds = [0, 1, 2**32 - 1, 2**32, 2**64 - 1] + random_seeds
        sigma, m = 0.325, 25
        expected = np.stack(
            [np.random.default_rng(seed).normal(0.0, sigma, m) for seed in seeds], axis=1)
        assert np.array_equal(_normal_columns(_pcg64_words(seeds), sigma, m), expected)

    def test_import_does_not_load_numpy_random(self):
        paths = [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        code = "import sys, assim.bench; print('numpy.random' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0 and proc.stdout.strip() == "False", proc.stderr


class TestRunExample1:
    def test_noiseless_in_model_truths(self):
        cfg = small_example1(**{
            "validation.reuse_training": True,
            "sweep.alpha": [0.0],
            "noise.sigma": 0.0,
        })
        # full numerical rank of the training family
        grid = _grid(cfg)
        spec = SinusoidSpec(tuple(cfg["manifold.amplitude"]), tuple(cfg["manifold.period"]))
        train = sample_sinusoids(spec, grid, cfg["training.count"], derive_seed(cfg["master_seed"], "training"))
        sv = pod(train, len(train)).singular_values
        rank = int(np.sum(sv > 1e-10 * sv[0]))
        cfg["sweep.n"] = [rank]

        res = run_experiment(cfg)
        for agg in res.aggregates:
            assert agg["max"] <= 1e-8

    def test_rows_and_aggregates_consistent(self):
        res = run_experiment(small_example1())
        recomputed = aggregate_rows(res.rows)
        assert recomputed == res.aggregates
        # 8 cases x 3 dims x 2 methods
        assert len(res.rows) == 48

    def test_determinism_in_memory(self):
        a = run_experiment(small_example1())
        b = run_experiment(small_example1())
        assert [(r.key(), r.error_e, r.seed) for r in a.rows] == [
            (r.key(), r.error_e, r.seed) for r in b.rows
        ]

    def test_bias_correction_helps(self):
        res = run_experiment(small_example1())
        assert res.mean_error("bpbdw", n=5) < res.mean_error("pbdw", n=5)


def per_case_oracle(cfg):
    """example1 rows from per-case ``pbdw_solve`` / ``bpbdw_reconstruct`` calls.

    Same truths, seeds and noise draws as ``run_experiment``; keyed like
    ``ResultRow.key()`` without sigma, valued (error_e, beta, seed).
    """
    grid, master = _grid(cfg), cfg["master_seed"]
    spec = SinusoidSpec(tuple(cfg["manifold.amplitude"]), tuple(cfg["manifold.period"]))
    training = sample_sinusoids(spec, grid, cfg["training.count"],
                                derive_seed(master, "training"))
    basis = pod(training, max(cfg["sweep.n"]))
    if cfg["validation.reuse_training"]:
        truths = training.snapshots[: cfg["validation.count"]]
    else:
        truths = sample_sinusoids(spec, grid, cfg["validation.count"],
                                  derive_seed(master, "validation")).snapshots
    out = {}
    for m in cfg["sweep.m"]:
        space = build_observation_space(_sensor_array(cfg, m, grid), grid)
        for n in cfg["sweep.n"]:
            if n > m:
                continue
            background = basis.subspace.truncate(n)
            for alpha in cfg["sweep.alpha"]:
                model = NoiseModel(alpha=alpha, sigma=cfg["noise.sigma"])
                for case_id, truth in enumerate(truths):
                    seed = derive_seed(master, "noise", case_id, "m", m, "n", n,
                                       "alpha", repr(alpha))
                    omega = observe_noisy(truth, space, model, seed)
                    for method, rec in (
                        ("pbdw", pbdw_solve(omega, background, space)),
                        ("bpbdw", bpbdw_reconstruct(omega, background, space, model, seed)),
                    ):
                        error = (rec.state - truth).norm() / truth.norm()
                        out[(case_id, method, n, m, alpha)] = (error, rec.beta, seed)
    return out


class TestExample1BlockPath:
    """Each (n, m, alpha) cell is solved as one block; per-case solves are the oracle."""

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"noise.sigma": 0.0, "sweep.alpha": [0.0]},
            {"validation.reuse_training": True},
            # a signed-zero alpha and one whose repr is in exponent form
            {"sweep.alpha": [-0.0, 1e-05]},
        ],
        ids=["noisy", "exact", "reuse_training", "negative_zero_alpha"],
    )
    def test_rows_match_per_case_solves(self, overrides):
        cfg = small_example1(**{"sweep.n": [1, 4, 10, 12], "sweep.m": [10, 25],
                                "sweep.alpha": [0.0, 0.1], **overrides})
        res = run_experiment(cfg)
        oracle = per_case_oracle(cfg)
        # n=12 > m=10 is skipped: 7 (n, m) cells of 8 cases and 2 methods per alpha
        assert len(res.rows) == len(oracle) == 7 * 8 * 2 * len(cfg["sweep.alpha"])
        for row in res.rows:
            error, beta, seed = oracle[row.key()[:5]]
            assert row.error_e == pytest.approx(error, rel=1e-10)
            assert (row.beta, row.seed, row.sigma) == (beta, seed, cfg["noise.sigma"])

    def test_timings_are_block_rows(self, monkeypatch):
        # a clock that advances one second per reading: every solve takes 1000 ms
        clock = itertools.count()
        monkeypatch.setattr(assim.bench, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
        cfg = small_example1(**{"sweep.m": [4, 25], "sweep.alpha": [0.0, 0.1, 0.2]})
        res = run_experiment(cfg)
        # one row per (n, m) pair and method, in loop order, over the 8 cases at each of
        # the 3 alphas; n=5 > m=4 is skipped; the corrected block's time includes the
        # plain solve it starts from
        assert res.timings == [
            dict(zip(TIMING_FIELDS, (method, n, m, cfg["noise.sigma"], 0, 3 * 8, ms)))
            for m, ns in ((4, (1, 3)), (25, (1, 3, 5))) for n in ns
            for method, ms in (("pbdw", 1000.0), ("bpbdw", 2000.0))
        ]
        assert len(res.rows) == sum(t["cases"] for t in res.timings)

    def test_alpha_sweep_matches_one_run_per_alpha(self):
        # a block spans every alpha of the run; each case's seed is keyed by its alpha,
        # so a run of one alpha draws the same noise for it
        alphas = [0.0, 0.05, -0.3, 0.2]
        cfg = small_example1(**{"sweep.n": [1, 4, 10, 12], "sweep.m": [10, 25],
                                "sweep.alpha": alphas})
        swept = {row.key(): row for row in run_experiment(cfg).rows}
        single = {row.key(): row for alpha in alphas
                  for row in run_experiment({**cfg, "sweep.alpha": [alpha]}).rows}
        assert swept.keys() == single.keys() and len(swept) == 7 * 8 * 2 * len(alphas)
        for key, row in swept.items():
            assert row.error_e == pytest.approx(single[key].error_e, rel=1e-12, abs=0)
            assert (row.beta, row.seed) == (single[key].beta, single[key].seed)

    def test_noiseless_alpha_zero_columns_keep_the_exact_coordinates(self, monkeypatch):
        # at sigma = 0 a block mixes exact columns (alpha = 0) with biased ones
        data_blocks = []
        solve = assim.bench.pbdw_solve_block

        def spy(data, background, space):
            data_blocks.append((data.copy(), space))
            return solve(data, background, space)

        monkeypatch.setattr(assim.bench, "pbdw_solve_block", spy)
        # a signed zero is a zero slope
        cfg = small_example1(**{"noise.sigma": 0.0, "sweep.alpha": [0.1, -0.0, 0.2],
                                "sweep.m": [10, 25]})
        run_experiment(cfg)
        truths = np.ascontiguousarray(setup_experiment(cfg).labeled["full"][0].matrix.T)
        # one plain block per (n, m) pair
        assert len(data_blocks) == 6
        for data, space in data_blocks:
            K = truths.shape[1]
            biased, exact, more_biased = (data[:, a * K:(a + 1) * K] for a in range(3))
            assert np.array_equal(exact, space.onb.weighted_matrix @ truths)
            raw = space.functional_matrix @ truths
            for got, gain in ((biased, 1.1), (more_biased, 1.2)):
                want = space.coords_from_raw(gain * raw)
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


class TestRunExample2:
    def test_zero_jump_heights_degenerate(self):
        cfg = default_config("example2")
        cfg.update({
            "validation.count": 4,
            "training.count": 64,
            "manifold.jump_height": [0.0, 0.0],
        })
        res = run_experiment(cfg)
        e_split = res.mean_error("spbdw", n=20)
        e_plain = res.mean_error("pbdw", n=20)
        assert abs(e_split - e_plain) <= 0.10 * max(e_plain, 1e-12)

    def test_split_beats_plain_and_locates_jumps(self):
        cfg = default_config("example2")
        cfg.update({"validation.count": 8, "training.count": 128})
        res = run_experiment(cfg)
        wins = sum(
            s < p for s, p in zip(res.errors("spbdw", n=20), res.errors("pbdw", n=20))
        )
        assert wins >= 7
        for diag in res.diagnostics:
            assert diag["jump_location_estimated"] != ""
            assert diag["jump_cells_off"] <= 2.0

    def test_pod_decay_rows(self):
        cfg = default_config("example2")
        cfg.update({"validation.count": 4, "training.count": 64, "sweep.n": [10]})
        res = run_experiment(cfg)
        labels = {r["label"] for r in res.pod_decay}
        assert labels == {"fast", "full"}
        for label in labels:
            errors = [r["approximation_error"] for r in res.pod_decay if r["label"] == label]
            assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))


def example2_oracle(cfg):
    """example2 rows and diagnostics from per-case ``spbdw_reconstruct`` / ``pbdw_solve``.

    Same truths, seeds and noise draws as ``run_experiment``; rows are keyed
    like ``ResultRow.key()`` without sigma and valued (error_e, beta, seed),
    diagnostics are keyed (case_id, n, m).
    """
    setup = setup_experiment(cfg)
    grid, master = setup.grid, cfg["master_seed"]
    fast_val, fast_basis = setup.labeled["fast"]
    full_val, full_basis = setup.labeled["full"]
    alpha, sigma = cfg["noise.alpha"], cfg["noise.sigma"]
    model = NoiseModel(alpha=alpha, sigma=sigma) if (alpha or sigma) else None
    rows, diagnostics = {}, {}
    for m in cfg["sweep.m"]:
        space = build_observation_space(_sensor_array(cfg, m, grid), grid)
        dictionary = step_dictionary(grid, space, _pair(cfg, "manifold.jump_location"),
                                     cfg["dictionary.stride"])
        locations = np.array([p["jump_location"] for p in dictionary.parameters])
        for n in cfg["sweep.n"]:
            if n > m:
                continue
            fast_bg = fast_basis.subspace.truncate(n)
            full_bg = full_basis.subspace.truncate(n)
            for case_id, params in enumerate(full_val.parameters):
                true_loc = float(locations[np.argmin(np.abs(locations - params["jump_location"]))])
                step = GridFunction(grid, (grid.nodes >= true_loc - 1e-12).astype(float))
                truth = fast_val.snapshots[case_id] + params["jump_height"] * step
                seed = derive_seed(master, "noise", case_id, "m", m, "n", n)
                omega = observe_noisy(truth, space, model or NoiseModel(), seed)
                dec = spbdw_reconstruct(omega, fast_bg, space, dictionary, model=model,
                                        seed=seed, rel_tol=cfg["spbdw.rel_tol"],
                                        max_iters=cfg["spbdw.max_iters"])
                plain = pbdw_solve(omega, full_bg, space)
                for method, state, beta in (("spbdw", dec.u_star, dec.u_f.beta),
                                            ("pbdw", plain.state, plain.beta)):
                    error = (state - truth).norm() / truth.norm()
                    rows[(case_id, method, n, m, alpha)] = (error, beta, seed)
                estimated = dec.dominant_jump_location()
                tv_truth = total_variation(truth)
                diagnostics[(case_id, n, m)] = {
                    "jump_location_true": true_loc,
                    "jump_location_estimated": "" if estimated is None else estimated,
                    "jump_cells_off": ("" if estimated is None
                                       else abs(estimated - true_loc) / grid.h),
                    "num_smoothers": len(dec.smoothers),
                    "tv_truth": tv_truth,
                    "tv_excess_spbdw": total_variation(dec.u_star) - tv_truth,
                    "tv_excess_pbdw": total_variation(plain.state) - tv_truth,
                }
    return rows, diagnostics


def small_example2(**overrides):
    cfg = default_config("example2")
    # 37 cases: one full block of _CHUNK columns and a partial one
    cfg.update({"validation.count": _CHUNK + 5, "training.count": 64,
                "sweep.n": [10, 20], "sweep.m": [25, 40]})
    cfg.update(overrides)
    return cfg


class TestExample2BlockPath:
    """Each (n, m) cell runs as column blocks; per-case split solves are the oracle."""

    @pytest.mark.parametrize(
        "overrides",
        [{}, {"noise.alpha": 0.1, "noise.sigma": 0.05},
         # n=30 > m=25 is skipped; the noise draws pin the seed order through the skip
         {"sweep.n": [10, 30], "sweep.m": [25, 40], "noise.sigma": 0.05}],
        ids=["exact", "bias_corrected", "skipped_cell"],
    )
    def test_rows_match_per_case_solves(self, overrides):
        cfg = small_example2(**overrides)
        res = run_experiment(cfg)
        rows, diagnostics = example2_oracle(cfg)
        cells = sum(n <= m for n in cfg["sweep.n"] for m in cfg["sweep.m"])
        assert len(res.rows) == len(rows) == cells * cfg["validation.count"] * 2
        for row in res.rows:
            error, beta, seed = rows[row.key()[:5]]
            assert row.error_e == pytest.approx(error, rel=1e-10)
            assert (row.beta, row.seed, row.sigma) == (beta, seed, cfg["noise.sigma"])
        assert len(res.diagnostics) == len(diagnostics)
        for diag in res.diagnostics:
            expected = diagnostics[(diag["case_id"], diag["n"], diag["m"])]
            for key in ("jump_location_true", "jump_location_estimated", "jump_cells_off",
                        "num_smoothers"):
                assert diag[key] == expected[key]
            tv_truth = expected["tv_truth"]
            for key in ("tv_truth", "tv_excess_spbdw", "tv_excess_pbdw"):
                assert abs(diag[key] - expected[key]) <= 1e-10 * tv_truth

    def test_timings_are_block_rows(self, monkeypatch):
        # a clock that advances one second per reading: every block takes 1000 ms
        clock = itertools.count()
        monkeypatch.setattr(assim.bench, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
        cfg = small_example2()
        res = run_experiment(cfg)
        # one row per column block and method: a full chunk, then the remaining 5 cases
        assert res.timings == [
            dict(zip(TIMING_FIELDS, (method, n, m, 0.0, first, cases, 1000.0)))
            for m in (25, 40) for n in (10, 20) for first, cases in ((0, _CHUNK), (_CHUNK, 5))
            for method in ("spbdw", "pbdw")
        ]
        assert len(res.rows) == sum(t["cases"] for t in res.timings)


class TestRunExample3:
    def test_clean_data_recovers_truth(self):
        cfg = default_config("example3_analog")
        cfg.update({"validation.count": 4, "noise.alpha": 0.0, "noise.sigma": 0.0})
        res = run_experiment(cfg)
        for agg in res.aggregates:
            assert agg["max"] <= 1e-6

    def test_bias_correction_gain_and_mode1_dominance(self):
        cfg = default_config("example3_analog")
        cfg["validation.count"] = 12
        res = run_experiment(cfg)
        assert res.mean_error("bpbdw") <= res.mean_error("pbdw") / 1.5
        for diag in res.diagnostics:
            if diag["method"] == "bpbdw":
                assert diag["mode1_energy_fraction"] >= 0.90


def example3_oracle(cfg):
    """example3_analog rows and diagnostics from per-case boxed solves.

    Each case runs ``pbdw_solve_boxed`` and ``bpbdw_reconstruct(box=)`` on the
    same truth, seeds, noise draws and boxes as ``run_experiment``.  Rows
    are keyed like ``ResultRow.key()`` without sigma and valued (error_e,
    beta, seed); diagnostics are ((case_id, method, n, m), mode-1 energy
    fraction) in the order the runner writes them.
    """
    setup = setup_experiment(cfg)
    training, basis = setup.labeled["full"]
    truth, master, alpha = setup.truth, cfg["master_seed"], cfg["noise.alpha"]
    model = NoiseModel(alpha=alpha, sigma=cfg["noise.sigma"])
    rows, diagnostics = {}, []
    for m in cfg["sweep.m"]:
        space = build_observation_space(_sensor_array(cfg, m, setup.grid), setup.grid)
        for n in cfg["sweep.n"]:
            if n > m:
                continue
            background = basis.subspace.truncate(n)
            box = compute_box(training, background, cfg["box.margin"])
            for case_id in range(cfg["validation.count"]):
                seed = derive_seed(master, "noise", case_id, "m", m, "n", n)
                omega = observe_noisy(truth, space, model, seed)
                for method, rec in (
                    ("pbdw", pbdw_solve_boxed(omega, background, space, box)),
                    ("bpbdw", bpbdw_reconstruct(omega, background, space, model, seed, box=box)),
                ):
                    error = (rec.state - truth).norm() / truth.norm()
                    rows[(case_id, method, n, m, alpha)] = (error, rec.beta, seed)
                    fraction = float(rec.rom_coeffs[0] ** 2 / np.sum(rec.rom_coeffs**2))
                    diagnostics.append(((case_id, method, n, m), fraction))
    return rows, diagnostics


class TestExample3Oracle:
    """example3_analog's rows are the per-case boxed API's, to the last bit.

    The benchmark's library runner rebuilds these rows from per-case calls
    and compares them for equality, so the tolerance here is zero.
    """

    @pytest.mark.parametrize(
        "overrides",
        [{}, {"noise.alpha": 0.0, "noise.sigma": 0.0},
         {"validation.count": 6, "sweep.n": [3, 8], "sweep.m": [5, 20]}],
        ids=["default", "exact", "skipped_cell"],
    )
    def test_rows_match_per_case_solves(self, overrides):
        cfg = default_config("example3_analog")
        cfg.update(overrides)
        res = run_experiment(cfg)
        rows, diagnostics = example3_oracle(cfg)
        cells = sum(n <= m for n in cfg["sweep.n"] for m in cfg["sweep.m"])
        assert len(res.rows) == len(rows) == 2 * cells * cfg["validation.count"]
        for row in res.rows:
            assert (row.error_e, row.beta, row.seed) == rows[row.key()[:5]]
            assert row.sigma == cfg["noise.sigma"]
        assert [((d["case_id"], d["method"], d["n"], d["m"]), d["mode1_energy_fraction"])
                for d in res.diagnostics] == diagnostics

    def test_timings_are_block_rows(self, monkeypatch):
        # a clock that advances one second per reading: every solve takes 1000 ms
        clock = itertools.count()
        monkeypatch.setattr(assim.bench, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
        cfg = default_config("example3_analog")
        cfg.update({"validation.count": 8, "sweep.n": [3, 5], "sweep.m": [20, 40]})
        res = run_experiment(cfg)
        assert len(res.rows) == 2 * 4 * 8
        # the plain block's time and the corrected block's, which includes it,
        # each on one row for the cell's 8 cases
        assert res.timings == [
            dict(zip(TIMING_FIELDS, (method, n, m, 2.0, 0, 8, ms)))
            for m in (20, 40) for n in (3, 5)
            for method, ms in (("pbdw", 1000.0), ("bpbdw", 2000.0))
        ]


class TestOutputs:
    def test_files_and_determinism(self, tmp_path):
        cfg = small_example1()
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        run_experiment(cfg).write(a_dir)
        run_experiment(cfg).write(b_dir)
        for name in ("results.csv", "aggregates.csv", "pod_decay.csv"):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes(), name
        for name in ("results.csv", "aggregates.csv", "pod_decay.csv", "timings.csv", "run.json"):
            assert (a_dir / name).exists()

    def test_results_schema(self, tmp_path):
        run_experiment(small_example1()).write(tmp_path)
        lines = (tmp_path / "results.csv").read_text().splitlines()
        assert lines[0] == "# schema_version=1"
        assert lines[1] == "case_id,method,n,m,alpha,sigma,error_e,beta,seed"

    def test_aggregates_recomputable_from_rows(self, tmp_path):
        result = run_experiment(small_example1())
        result.write(tmp_path)
        with open(tmp_path / "results.csv") as fh:
            fh.readline()
            rows = list(csv.DictReader(fh))
        groups = {}
        for row in rows:
            key = (row["method"], int(row["n"]), int(row["m"]), float(row["alpha"]),
                   float(row["sigma"]))
            groups.setdefault(key, []).append(float(row["error_e"]))
        with open(tmp_path / "aggregates.csv") as fh:
            fh.readline()
            aggs = list(csv.DictReader(fh))
        assert len(aggs) == len(groups)
        for agg in aggs:
            key = (agg["method"], int(agg["n"]), int(agg["m"]), float(agg["alpha"]),
                   float(agg["sigma"]))
            errors = np.asarray(groups[key])
            assert float(agg["mean"]) == errors.mean()
            assert float(agg["max"]) == errors.max()
            assert float(agg["min"]) == errors.min()
            assert float(agg["stddev"]) == errors.std()

    def test_run_json(self, tmp_path):
        run_experiment(small_example1()).write(tmp_path)
        payload = json.loads((tmp_path / "run.json").read_text())
        assert payload["schema_version"] == 1
        assert payload["config"]["experiment"] == "example1"
        assert set(payload["versions"]) == {"assim", "numpy"}


def reference_aggregates(rows):
    """The per-row aggregation the columnar store replaced: one error list per cell."""
    groups = {}
    for row in rows:
        groups.setdefault((row.method, row.n, row.m, row.alpha, row.sigma), []).append(row.error_e)
    out = []
    for key in sorted(groups):
        errors = np.asarray(groups[key])
        method, n, m, alpha, sigma = key
        out.append({
            "method": method, "n": n, "m": m, "alpha": alpha, "sigma": sigma,
            "mean": float(errors.mean()), "max": float(errors.max()),
            "min": float(errors.min()), "stddev": float(errors.std()),
            "count": int(errors.size),
        })
    return out


def reference_csv(path, header, rows):
    """A versioned CSV file written by ``csv.writer``, one list per row."""
    with open(path, "w", newline="") as fh:
        fh.write("# schema_version=1\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def reference_write(result, out):
    """The row writer the columnar store replaced: Python key sorts of row objects,
    every CSV written by ``csv.writer``.

    Aggregates reduce each cell's errors in the order the rows came in.
    """
    out.mkdir(parents=True)

    def table(name, header, rows):
        reference_csv(out / name, header, [[r.get(k, "") for k in header] for r in rows])

    rows = sorted(result.rows, key=ResultRow.key)
    reference_csv(out / "results.csv", RESULT_FIELDS,
                  [[getattr(r, f) for f in RESULT_FIELDS] for r in rows])
    table("aggregates.csv", AGGREGATE_FIELDS, reference_aggregates(result.rows))
    if result.pod_decay:
        table("pod_decay.csv", ("label", "n", "approximation_error"), result.pod_decay)
    if result.diagnostics:
        table("diagnostics.csv", list(result.diagnostics[0]), result.diagnostics)
    # one row per block and method, or the dicts a caller passed, as they came
    table("timings.csv", list(result.timings[0]) if result.timings else TIMING_FIELDS,
          result.timings)
    _write_run_json(result.config, out / "run.json", result.skipped)


def assert_same_files(result, tmp_path):
    result.write(tmp_path / "columns")
    reference_write(result, tmp_path / "rows")
    names = sorted(p.name for p in (tmp_path / "rows").iterdir())
    assert sorted(p.name for p in (tmp_path / "columns").iterdir()) == names
    for name in names:
        columns, rows = (tmp_path / d / name for d in ("columns", "rows"))
        assert columns.read_bytes() == rows.read_bytes(), name


# the benchmark's three workloads (sweep_bias, split_jump, boxed_flow)
_WORKLOADS = [
    ("example1.cfg", ["sweep.m=10,20,25,40,80", "sweep.alpha=0,0.05,0.1,0.2",
                      "validation.count=16"]),
    ("example2.cfg", ["sweep.m=40,80", "validation.count=400"]),
    ("example3.cfg", ["sweep.n=3,5,8", "sweep.m=20,40", "validation.count=40"]),
]


class TestColumnarWrite:
    """Every file ``RunResult.write`` makes from its columns equals the row writer's."""

    @pytest.mark.parametrize(
        "config, overrides",
        [(config, []) for config in ("example1.cfg", "example2.cfg", "example3.cfg")]
        + [(config, overrides + [f"master_seed={seed}"])
           for config, overrides in _WORKLOADS for seed in (1, 2**128 + 1)]
        # unsorted sweeps: the files are in numeric order, not in string order
        + [("example1.cfg", ["sweep.m=80,10,25", "sweep.alpha=0.2,0,0.05",
                             "validation.count=8"]),
           ("example3.cfg", ["sweep.m=40,20", "sweep.n=8,3", "validation.count=8"])],
    )
    def test_files_match_the_row_writer(self, tmp_path, config, overrides):
        assert_same_files(run_experiment(load_config(CONFIGS / config, overrides)), tmp_path)

    @pytest.mark.parametrize("config", ["example1.cfg", "example2.cfg", "example3.cfg"])
    def test_result_built_from_shuffled_rows(self, tmp_path, config):
        # the benchmark's library runner hands RunResult row lists and per-case
        # timing dicts of its own
        cfg = load_config(CONFIGS / config, ["validation.count=6", "sweep.m=10,25"])
        run = run_experiment(cfg)
        shuffle = np.random.default_rng(5).permutation
        rows = [run.rows[i] for i in shuffle(len(run.rows))]
        timings = [{"case_id": r.case_id, "method": r.method, "n": r.n, "m": r.m,
                    "alpha": r.alpha, "sigma": r.sigma, "runtime_ms": 0.25 * k}
                   for k, r in enumerate(rows)]
        result = RunResult(cfg, rows, run.pod_decay, run.diagnostics, timings)
        assert result.rows == rows and result.timings == timings
        assert_same_files(result, tmp_path)
        assert aggregate_rows(rows) == reference_aggregates(rows)

    def test_aggregates_equal_the_ndarray_reductions_bit_for_bit(self):
        # aggregate_rows calls the ufunc reductions behind ndarray.mean/max/min/std
        rng = np.random.default_rng(20240605)
        rows = []
        for n, size in enumerate([1, 2, 7, 64, 513, 3712], start=1):
            errors = np.abs(rng.standard_normal(size)) * 10.0 ** rng.uniform(-8, 2)
            if n % 2:
                errors = np.round(errors, 3)        # repeated values
            rows += [ResultRow(k, "pbdw", n, 40, 0.1, 0.0, e, 1.0, k)
                     for k, e in enumerate(errors.tolist())]
        got, want = aggregate_rows(rows), reference_aggregates(rows)
        assert [list(map(repr, a.values())) for a in got] == \
            [list(map(repr, a.values())) for a in want]

    def test_edge_values_match_the_row_writer(self, tmp_path):
        # repr's extremes: signed zero, the smallest subnormal, the largest float
        # and 17-digit values; seeds at both ends of uint64; -0.0 and negative alpha;
        # a method name that the csv module must quote
        errors = [-0.0, 5e-324, 1.7976931348623157e308, 0.1 + 0.2, 1 / 3, 2 / 3,
                  1.0000000000000002, 123456789.12345679]
        cells = [("pbdw", 3, 25, -0.0, 0.325), ("bpbdw", 3, 25, -0.5, 0.325),
                 ("pbdw", 12, 80, 0.1, 0.0), ("bpbdw", 1, 10, -0.0, 0.30000000000000004),
                 ('split,"q"', 2, 20, 0.05, 0.325)]
        rows, timings = [], []
        for (method, n, m, alpha, sigma), (seed, beta), block_ms in zip(
                cells, [(0, -0.0), (2**64 - 1, 5e-324), (2**63, 1 / 3), (1, 1.0), (7, 0.5)],
                errors):
            rows += [ResultRow(case_id, method, n, m, alpha, sigma, error, beta, seed)
                     for case_id, error in enumerate(errors)]
            timings.append(dict(zip(TIMING_FIELDS, (method, n, m, sigma, 0, len(errors),
                                                    block_ms))))
        result = RunResult(small_example1(), rows, timings=timings)
        # the largest float's deviation squares to inf in aggregates.csv, in both writers
        with np.errstate(over="ignore"):
            assert_same_files(result, tmp_path / "hand")
        text = (tmp_path / "hand" / "columns" / "results.csv").read_text()
        for line in ("0,pbdw,3,25,-0.0,0.325,-0.0,-0.0,0",
                     "1,bpbdw,3,25,-0.5,0.325,5e-324,5e-324,18446744073709551615",
                     "3,bpbdw,1,10,-0.0,0.30000000000000004,0.30000000000000004,1.0,1",
                     '4,"split,""q""",2,20,0.05,0.325,0.3333333333333333,0.5,7'):
            assert line in text.splitlines(), line
        # the block path appends the same columns
        blocks = RunResult(small_example1())
        for (method, n, m, alpha, sigma), (seed, beta) in zip(cells, [(0, -0.0),
                                                                    (2**64 - 1, 5e-324)]):
            cases = _Cases(n, m, (NoiseModel(alpha=alpha, sigma=sigma),), range(len(errors)),
                           [seed] * len(errors), None)
            cases.emit(blocks, method, errors, beta, 1.5)
        with np.errstate(over="ignore"):
            assert_same_files(blocks, tmp_path / "blocks")

    def test_empty_result_writes_header_only_files(self, tmp_path):
        result = RunResult(small_example1())
        assert_same_files(result, tmp_path)
        for name, header in (("results.csv", RESULT_FIELDS), ("timings.csv", TIMING_FIELDS),
                             ("aggregates.csv", AGGREGATE_FIELDS)):
            text = (tmp_path / "columns" / name).read_text()
            assert text == "# schema_version=1\n" + ",".join(header) + "\n", name

    @pytest.mark.parametrize("bad, shown", [(float("nan"), "nan"), (-0.5, "-0.5")])
    def test_block_with_a_bad_error_is_rejected_whole(self, tmp_path, bad, shown):
        result = RunResult(small_example1())
        cases = _Cases(3, 25, (NoiseModel(alpha=0.1, sigma=0.325),), range(3), [7, 8, 9], None)
        with pytest.raises(ValueError,
                           match=f"^error_e must be finite and nonnegative, got {shown}$"):
            cases.emit(result, "pbdw", [0.1, bad, 0.2], 0.9, 1.5)
        assert result.rows == [] and result.timings == []
        # -0.0 passes the check and is written apart from 0.0
        cases.emit(result, "pbdw", [0.0, -0.0, 0.2], 0.9, 1.5)
        assert [str(r.error_e) for r in result.rows] == ["0.0", "-0.0", "0.2"]
        assert_same_files(result, tmp_path)

    def test_bad_error_fails_the_run_before_anything_is_written(self, tmp_path, monkeypatch,
                                                                 capsys):
        monkeypatch.setattr(assim.bench, "_norms", lambda grid, block: np.full(block.shape[1],
                                                                                np.nan))
        out_dir = tmp_path / "o"
        code = cli_main(["run", "--config", str(CONFIGS / "example1.cfg"), "--out", str(out_dir)])
        assert code == 2
        assert capsys.readouterr().err == "error: error_e must be finite and nonnegative, got nan\n"
        assert not out_dir.exists()


# every two-entry manifold.* range of the three shipped configs, reversed
_REVERSED_RANGES = [
    (config, f"{key}={value[1]},{value[0]}", key)
    for config in ("example1.cfg", "example2.cfg", "example3.cfg")
    for key, value in load_config(CONFIGS / config).items()
    if key.startswith("manifold.") and isinstance(value, list) and len(value) == 2
]


# noise or bias at overflow scale: the data, or the truth beside it, is out of range
_OVERFLOW_SCALE_NOISE = [
    ("example1.cfg", "sweep.alpha=1e300", "sweep.alpha"),
    ("example2.cfg", "noise.alpha=1e300", "noise.alpha"),
    ("example2.cfg", "noise.sigma=1e300", "noise.sigma"),
    ("example3.cfg", "noise.alpha=1e300", "noise.alpha"),
    ("example3.cfg", "noise.sigma=1e200", "noise.sigma"),
    ("example1.cfg", "noise.sigma=1e160", "noise.sigma"),
    ("example1.cfg", "noise.sigma=1e140", "noise.sigma"),
]


# a value out of its key's range, and the key the one error line starts with
_KEYED_REJECTIONS = [
    ("example1.cfg", "master_seed=-1", "master_seed"),
    ("example1.cfg", "sweep.alpha=-1", "sweep.alpha"),
    ("example1.cfg", "manifold.period=0,3", "manifold.period"),
    ("example2.cfg", "manifold.num_frequencies=0", "manifold.num_frequencies"),
    ("example3.cfg", "manifold.flow_index=0,1", "manifold.flow_index"),
    ("example3.cfg", "manifold.peak_velocity=-5,10", "manifold.peak_velocity"),
    ("example3.cfg", "manifold.radius=0", "manifold.radius"),
    ("example3.cfg", "noise.sigma=-1", "noise.sigma"),
    ("example3.cfg", "noise.alpha=-1", "noise.alpha"),
    ("example3.cfg", "box.margin=-1", "box.margin"),
    ("example1.cfg", "grid.num_points=1", "grid.num_points"),
    ("example1.cfg", "validation.count=0", "validation.count"),
    ("example2.cfg", "training.count=0", "training.count"),
    ("example2.cfg", "noise.mc_samples=0", "noise.mc_samples"),
    ("example1.cfg", "sensors.kind=foo", "sensors.kind"),
    ("example1.cfg", "grid.b=-1", "grid.a must be < grid.b"),
    ("example3.cfg", "grid.a=0.5", "grid.a must be < grid.b"),
    # the truth's norm, the relative errors' denominator, under- or overflows
    ("example3.cfg", "truth.peak_velocity=1e-300", "truth.peak_velocity"),
    ("example3.cfg", "truth.peak_velocity=1e300", "truth.peak_velocity"),
    # a norm so far below the data's scale that the errors' squares overflow
    ("example3.cfg", "truth.peak_velocity=1e-160", "truth.peak_velocity"),
    ("example1.cfg", "manifold.amplitude=0,0", "manifold.amplitude"),
    # library checks, whose messages the config boundary leads with the keys
    ("example3.cfg", "grid.a=-0.4", "grid.a"),
    ("example3.cfg", "manifold.radius=0.4", "grid.a"),
    ("example2.cfg", "manifold.jump_location=0,3", "manifold.jump_location"),
    ("example2.cfg", "dictionary.stride=600", "dictionary.stride"),
    # the split's step search looks for upward steps
    ("example2.cfg", "manifold.jump_height=-4.5,-2.5", "manifold.jump_height"),
    ("example2.cfg", "manifold.jump_height=-1,1", "manifold.jump_height"),
] + _OVERFLOW_SCALE_NOISE + _REVERSED_RANGES


# ``assim run --config configs/example1.cfg`` on stdout
_EXAMPLE1_STDOUT = """\
example1: 1536 rows -> {out}
  method    n    m  alpha |    mean%     max%     min%     std%
   bpbdw    1   25    0.1 |    7.812   14.396    2.177    4.100
   bpbdw    2   25    0.1 |    4.377   12.256    1.864    2.624
   bpbdw    3   25    0.1 |    2.411    6.224    1.316    0.904
   bpbdw    4   25    0.1 |    1.696    2.413    1.191    0.263
   bpbdw    5   25    0.1 |    1.648    2.226    1.097    0.223
   bpbdw    6   25    0.1 |    1.665    2.327    1.185    0.264
   bpbdw    7   25    0.1 |    1.655    2.167    1.241    0.226
   bpbdw    8   25    0.1 |    1.697    2.384    1.119    0.255
   bpbdw    9   25    0.1 |    1.674    2.302    1.031    0.257
   bpbdw   10   25    0.1 |    1.793    2.476    1.227    0.295
   bpbdw   11   25    0.1 |    1.785    2.901    1.126    0.345
   bpbdw   12   25    0.1 |    2.393    7.768    1.395    1.044
    pbdw    1   25    0.1 |   13.057   17.738    9.884    2.467
    pbdw    2   25    0.1 |   11.131   16.001    9.715    1.377
    pbdw    3   25    0.1 |   10.246   11.312    9.602    0.365
    pbdw    4   25    0.1 |   10.094   10.993    9.430    0.318
    pbdw    5   25    0.1 |   10.114   10.720    9.426    0.263
    pbdw    6   25    0.1 |   10.179   10.820    9.417    0.291
    pbdw    7   25    0.1 |   10.128   10.971    9.594    0.250
    pbdw    8   25    0.1 |   10.132   11.089    9.482    0.351
    pbdw    9   25    0.1 |   10.151   10.736    9.572    0.284
    pbdw   10   25    0.1 |   10.087   10.663    9.367    0.306
    pbdw   11   25    0.1 |   10.173   10.952    9.604    0.276
    pbdw   12   25    0.1 |   10.307   13.824    9.524    0.582
"""


class TestCli:
    def write_cfg(self, tmp_path):
        cfg_path = tmp_path / "bench.cfg"
        cfg_path.write_text(
            "experiment = example1\nvalidation.count = 4\nsweep.n = 1,3\ntraining.count = 32\n"
        )
        return cfg_path

    def test_run_command(self, tmp_path, capsys):
        cfg_path = self.write_cfg(tmp_path)
        out_dir = tmp_path / "out"
        code = cli_main(["run", "--config", str(cfg_path), "--out", str(out_dir)])
        assert code == 0
        assert (out_dir / "results.csv").exists()
        assert "example1" in capsys.readouterr().out

    def test_set_override(self, tmp_path):
        cfg_path = self.write_cfg(tmp_path)
        out_dir = tmp_path / "out"
        code = cli_main([
            "run", "--config", str(cfg_path), "--set", "validation.count=2",
            "--out", str(out_dir),
        ])
        assert code == 0
        payload = json.loads((out_dir / "run.json").read_text())
        assert payload["config"]["validation.count"] == 2

    def test_bad_config_is_reported(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("experiment = example1\nwhat = 1\n")
        code = cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_unstable_cell_is_reported(self, tmp_path, capsys):
        # n=8 modes are not observable by 10 box sensors: beta falls below the floor
        code = cli_main([
            "run", "--config", str(CONFIGS / "example3.cfg"), "--set", "sweep.n=8", "--set", "sweep.m=10",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: stability constant")
        assert "n=8" in err[0] and "m=10" in err[0]

    @pytest.mark.parametrize(
        "config, override",
        [
            ("example1.cfg", "noise.sigma=nan"),
            ("example3.cfg", "noise.sigma=nan"),
            ("example3.cfg", "noise.alpha=inf"),
            ("example1.cfg", "sweep.alpha=0.1,-1"),
            ("example1.cfg", "sweep.alpha=-1"),
        ],
    )
    def test_bad_noise_values_rejected(self, tmp_path, capsys, config, override):
        out_dir = tmp_path / "o"
        code = cli_main(["run", "--config", str(CONFIGS / config), "--set", override,
                         "--out", str(out_dir)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "override, key",
        [
            ("truth.flow_index=0", "truth.flow_index"),
            ("truth.peak_velocity=0", "truth.peak_velocity"),
            ("truth.flow_index=-0.5", "truth.flow_index"),
        ],
    )
    def test_non_positive_truth_profile_rejected(self, tmp_path, capsys, override, key):
        out_dir = tmp_path / "o"
        code = cli_main(["run", "--config", str(CONFIGS / "example3.cfg"), "--set", override,
                         "--out", str(out_dir)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {key} ")
        assert not out_dir.exists()

    @pytest.mark.parametrize("reuse", ["false", "true"])
    def test_zero_example1_truth_rejected(self, tmp_path, capsys, reuse):
        # every relative error divides by the truth's norm
        out_dir = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli_main(["run", "--config", str(CONFIGS / "example1.cfg"),
                             "--set", "manifold.amplitude=0,0",
                             "--set", f"validation.reuse_training={reuse}",
                             "--out", str(out_dir)])
        assert code == 2
        assert [str(w.message) for w in caught] == []
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: manifold.amplitude="), err
        assert not out_dir.exists()

    @pytest.mark.parametrize("config, override, key", _KEYED_REJECTIONS)
    def test_out_of_range_value_names_its_key(self, tmp_path, capsys, config, override, key):
        out_dir = tmp_path / "o"
        code = cli_main(["run", "--config", str(CONFIGS / config), "--set", override,
                         "--out", str(out_dir)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {key}"), err
        assert not out_dir.exists()

    @pytest.mark.parametrize("config, override, key", _KEYED_REJECTIONS)
    def test_pod_decay_names_the_same_key(self, tmp_path, capsys, config, override, key):
        # pod-decay runs the same config checks and set-up as run
        out_dir = tmp_path / "o"
        code = cli_main(["pod-decay", "--config", str(CONFIGS / config), "--set", override,
                         "--out", str(out_dir)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {key}"), err
        assert not out_dir.exists()

    @pytest.mark.parametrize("config, override, key", _OVERFLOW_SCALE_NOISE)
    def test_overflow_scale_noise_rejected_at_set_up(self, tmp_path, config, override, key):
        # before, these ran into the online loop and overflowed there
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ConfigError, match=f"^{re.escape(key)}="):
                setup_experiment(load_config(CONFIGS / config, [override]))
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize("command", ["run", "pod-decay"])
    def test_reuse_training_count_above_the_training_set_rejected(self, tmp_path, capsys,
                                                                   command):
        # the truths are the first validation.count training snapshots: none may be missing
        out_dir = tmp_path / "o"
        overrides = ["validation.reuse_training=true", "validation.count=300",
                     "sweep.n=2,20", "sweep.m=15,30"]
        code = cli_main([command, "--config", str(CONFIGS / "example1.cfg"),
                         *itertools.chain.from_iterable(("--set", o) for o in overrides),
                         "--out", str(out_dir)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: validation.count=300 "), err
        assert "training.count=128" in err[0]
        assert not out_dir.exists()
        with pytest.raises(ConfigError, match="validation.count=300 .* training.count=128"):
            run_experiment(load_config(CONFIGS / "example1.cfg", overrides))

    @pytest.mark.parametrize("config", ["example2.cfg", "example3.cfg"])
    def test_reuse_training_rejected_outside_example1(self, tmp_path, capsys, config):
        # only example1 draws its truths from a validation set
        out_dir = tmp_path / "o"
        code = cli_main(["run", "--config", str(CONFIGS / config),
                         "--set", "validation.reuse_training=true", "--out", str(out_dir)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and "'validation.reuse_training' does not apply" in err[0], err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "config, override, key",
        [
            ("example1.cfg", "sweep.m=20,20", "sweep.m"),
            ("example1.cfg", "sweep.alpha=0.1,0.1", "sweep.alpha"),
            ("example1.cfg", "sweep.alpha=0,-0.0", "sweep.alpha"),
            ("example1.cfg", "sweep.n=3,5,3", "sweep.n"),
            ("example2.cfg", "sweep.m=40,80,40", "sweep.m"),
            ("example3.cfg", "sweep.n=5,5", "sweep.n"),
        ],
    )
    def test_repeated_sweep_value_rejected(self, tmp_path, capsys, config, override, key):
        # a repeat would write every row of its cells twice and double each count
        out_dir = tmp_path / "o"
        code = cli_main(["run", "--config", str(CONFIGS / config), "--set", override,
                         "--out", str(out_dir)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {key} repeats a value"), err
        assert not out_dir.exists()

    def test_run_stdout_pinned(self, tmp_path, capsys):
        out_dir = tmp_path / "o"
        assert cli_main(["run", "--config", str(CONFIGS / "example1.cfg"),
                         "--out", str(out_dir)]) == 0
        assert capsys.readouterr().out == _EXAMPLE1_STDOUT.format(out=out_dir)

    def test_aggregates_computed_once_per_run(self, tmp_path, monkeypatch):
        calls = []

        def counting(rows):
            calls.append(len(rows))
            return aggregate_rows(rows)

        monkeypatch.setattr(assim.bench, "aggregate_rows", counting)
        cfg_path = self.write_cfg(tmp_path)
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
        assert len(calls) == 1

    def test_dependent_pointwise_sensors_message_pinned(self, tmp_path, capsys):
        # 40 pointwise sensors on 20 nodes: the message names every sensor that
        # shares a node with an earlier one, exactly as before the QR kernel
        out_dir = tmp_path / "o"
        code = cli_main(["run", "--config", str(CONFIGS / "example1.cfg"),
                         "--set", "sensors.kind=pointwise", "--set", "grid.num_points=20",
                         "--set", "sweep.m=40", "--set", "sweep.n=3", "--out", str(out_dir)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: sensors #2 (center 0.392699), #4 (center 0.706858), #6 (center 1.02102), "
            "#8 (center 1.33518), #10 (center 1.64934), #11 (center 1.80642), "
            "#13 (center 2.12058), #15 (center 2.43473), #17 (center 2.74889), "
            "#19 (center 3.06305), #21 (center 3.37721), #23 (center 3.69137), "
            "#25 (center 4.00553), #27 (center 4.31969), #29 (center 4.63385), "
            "#30 (center 4.79093), #32 (center 5.10509), #34 (center 5.41925), "
            "#36 (center 5.73341), #38 (center 6.04757) are linearly dependent on this grid; "
            "spread the sensors or refine the grid"
        ]
        assert not out_dir.exists()

    @pytest.mark.parametrize("config, m", [("example1.cfg", 25), ("example2.cfg", 40),
                                           ("example3.cfg", 20)])
    def test_dependent_box_sensors_name_their_width(self, tmp_path, capsys, config, m):
        out_dir = tmp_path / "o"
        code = cli_main(["run", "--config", str(CONFIGS / config), "--set", "sensors.width=100",
                         "--out", str(out_dir)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: sensors.width=100.0 with sweep.m={m}: box sensors this wide are linearly "
            "dependent on this grid; narrow them, or set 0 for the sensor spacing"
        ]
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "config, overrides, names",
        [
            # every (n, m) cell has n > m
            ("example1.cfg", ["sweep.m=5", "sweep.n=8"], ["no feasible", "n=8", "m=5"]),
            # the POD of 8 snapshots has 8 modes, not the requested 20
            ("example2.cfg", ["training.count=8"], ["sweep.n goes to 20", "only 8"]),
            ("example3.cfg", ["training.count=3"], ["sweep.n goes to 5", "only 3"]),
            # no sensors, or no modes, in some cell
            ("example1.cfg", ["sweep.m=0"], ["sweep.m"]),
            ("example2.cfg", ["sweep.m=0"], ["sweep.m"]),
            ("example3.cfg", ["sweep.m=0"], ["sweep.m"]),
            ("example1.cfg", ["sweep.m=0,20"], ["sweep.m"]),
            ("example2.cfg", ["sweep.m=0,20"], ["sweep.m"]),
            ("example3.cfg", ["sweep.m=0,20"], ["sweep.m"]),
            ("example3.cfg", ["sweep.n=0,3"], ["sweep.n"]),
            # more box windows than the grid resolves
            ("example3.cfg", ["sweep.m=600"], ["sweep.m=600", "width 0.00166667", "no grid node"]),
            ("example2.cfg", ["sweep.m=40,600"], ["sweep.m=600", "width 0.010472", "no grid node"]),
            ("example1.cfg", ["sweep.m=600"], ["sweep.m=600", "width", "no grid node"]),
            ("example2.cfg", ["dictionary.stride=0"], ["dictionary.stride"]),
            ("example2.cfg", ["spbdw.max_iters=0"], ["spbdw.max_iters"]),
            ("example2.cfg", ["spbdw.rel_tol=0"], ["spbdw.rel_tol"]),
            ("example3.cfg", ["sensors.width=-0.1"], ["sensors.width"]),
            # every (n, m) cell has n > m
            ("example2.cfg", ["sweep.m=10"], ["no feasible", "n=20", "m=10"]),
            ("example3.cfg", ["sweep.m=4", "sweep.n=5,8"], ["no feasible", "n=5", "m=4"]),
        ],
    )
    def test_unsolvable_sweep_rejected(self, tmp_path, capsys, config, overrides, names):
        # pod-decay runs the same config checks and offline set-up, so it rejects
        # these configs too; dependent box sensors and unstable cells, which only
        # run's observation spaces and solve plans find, it does not reject
        errors = []
        for command in ("run", "pod-decay"):
            out_dir = tmp_path / command
            args = [command, "--config", str(CONFIGS / config), "--out", str(out_dir)]
            for override in overrides:
                args += ["--set", override]
            assert cli_main(args) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            err = captured.err.splitlines()
            assert len(err) == 1 and err[0].startswith("error:")
            assert all(name in err[0] for name in names)
            assert not out_dir.exists()
            errors.append(err[0])
        assert errors[0] == errors[1]

    @pytest.mark.parametrize(
        "config, overrides, cells",
        [
            ("example1.cfg", ["sweep.m=10,40", "sweep.n=5,20"], {(5, 10), (5, 40), (20, 40)}),
            ("example2.cfg", ["sweep.m=10,40", "sweep.n=5,20"], {(5, 10), (5, 40), (20, 40)}),
            ("example3.cfg", ["sweep.m=5,20", "sweep.n=3,8"], {(3, 5), (3, 20), (8, 20)}),
        ],
    )
    def test_cells_with_n_above_m_skipped(self, tmp_path, config, overrides, cells):
        out_dir = tmp_path / "o"
        args = ["run", "--config", str(CONFIGS / config), "--out", str(out_dir)]
        for override in overrides:
            args += ["--set", override]
        assert cli_main(args) == 0
        with open(out_dir / "results.csv") as fh:
            fh.readline()
            rows = list(csv.DictReader(fh))
        assert {(int(r["n"]), int(r["m"])) for r in rows} == cells
        count = load_config(CONFIGS / config)["validation.count"]
        assert len(rows) == 2 * len(cells) * count

    def test_unstable_cell_after_a_skipped_one(self, tmp_path, capsys):
        # (25, 20) is skipped as n > m; (25, 40) passes that check but its beta is
        # below the floor, so it is skipped too and the stable cells are written
        out_dir = tmp_path / "o"
        code = cli_main(["run", "--config", str(CONFIGS / "example3.cfg"), "--set",
                         "sweep.m=20,40", "--set", "sweep.n=5,25", "--out", str(out_dir)])
        assert code == 0
        assert capsys.readouterr().err == ""
        with open(out_dir / "results.csv") as fh:
            fh.readline()
            assert {(int(r["n"]), int(r["m"])) for r in csv.DictReader(fh)} == {(5, 20), (5, 40)}
        skipped = json.loads((out_dir / "run.json").read_text())["skipped"]
        assert [(s["n"], s["m"]) for s in skipped] == [(25, 20), (25, 40)]
        assert skipped[0]["reason"] == "n > m"
        assert skipped[1]["reason"].startswith("stability constant beta=")
        assert "below 1e-12 for n=25, m=40" in skipped[1]["reason"]

    def test_skipped_unstable_cell_leaves_the_other_cells_unchanged(self, tmp_path):
        # the unstable (25, 40) comes before (5, 40) in the loop; the rows and seeds
        # of every solved cell are those of a sweep without it
        args = ["run", "--config", str(CONFIGS / "example3.cfg"), "--set", "sweep.m=20,40",
                "--set", "validation.count=6"]
        assert cli_main(args + ["--set", "sweep.n=25,5", "--out", str(tmp_path / "a")]) == 0
        assert cli_main(args + ["--set", "sweep.n=5", "--out", str(tmp_path / "b")]) == 0
        for name in ("results.csv", "aggregates.csv", "diagnostics.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        assert json.loads((tmp_path / "b" / "run.json").read_text())["skipped"] == []

    def test_unstable_cell_still_raises_for_a_library_caller(self):
        cfg = load_config(CONFIGS / "example3.cfg", ["sweep.m=40", "sweep.n=25"])
        background = setup_experiment(cfg).labeled["full"][1].subspace
        space = build_observation_space(_sensor_array(cfg, 40, _grid(cfg)), _grid(cfg))
        with pytest.raises(assim.solver.StabilityError, match="n=25, m=40"):
            pbdw_solve(GridFunction(space.grid, np.ones(space.grid.num_points)), background,
                       space)
        with pytest.raises(assim.solver.StabilityError, match="n=25, m=40"):
            run_experiment(cfg)

    @pytest.mark.parametrize("config", ["example1.cfg", "example2.cfg", "example3.cfg"])
    def test_noise_kind_rejected(self, tmp_path, capsys, config):
        out_dir = tmp_path / "o"
        code = cli_main(["run", "--config", str(CONFIGS / config), "--set",
                         "noise.kind=empirical_table", "--out", str(out_dir)])
        assert code == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert captured.out == "" and len(err) == 1
        assert err[0].startswith("error: noise.kind") and not out_dir.exists()

    def test_override_rescues_a_bad_file_value(self, tmp_path, capsys):
        # the file alone is rejected; validation runs once, after the overrides
        path = tmp_path / "wide.cfg"
        path.write_text("experiment = example3_analog\nsweep.m = 600\n")
        args = ["run", "--config", str(path), "--out", str(tmp_path / "o")]
        assert cli_main(args) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: sweep.m=600")
        assert cli_main(args + ["--set", "sweep.m=40"]) == 0
        # a bad override is still rejected, with one line that names the key
        path.write_text("experiment = example3_analog\nsweep.m = 40\n")
        capsys.readouterr()
        assert cli_main(args + ["--set", "sweep.m=600"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: sweep.m=600")

    def test_pod_decay_command(self, tmp_path, capsys):
        cfg_path = self.write_cfg(tmp_path)
        code = cli_main(["pod-decay", "--config", str(cfg_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "label,n,approximation_error"

    @pytest.mark.parametrize(
        "config, overrides",
        [
            ("example1.cfg", []),
            ("example2.cfg", []),
            ("example3.cfg", []),
            ("example1.cfg", ["sweep.n=3,5"]),
            ("example3.cfg", ["sweep.n=3,5,8"]),
        ],
    )
    def test_pod_decay_matches_run(self, tmp_path, capsys, config, overrides):
        args = ["--config", str(CONFIGS / config)]
        for override in overrides:
            args += ["--set", override]
        assert cli_main(["run", *args, "--out", str(tmp_path / "run")]) == 0
        written = (tmp_path / "run" / "pod_decay.csv").read_text()
        capsys.readouterr()

        assert cli_main(["pod-decay", *args]) == 0
        lines = written.splitlines()
        assert lines[0].startswith("# schema_version=")
        assert capsys.readouterr().out.splitlines() == lines[1:]

        assert cli_main(["pod-decay", *args, "--out", str(tmp_path / "decay")]) == 0
        assert (tmp_path / "decay" / "pod_decay.csv").read_text() == written

    def test_info_command(self, capsys):
        assert cli_main(["info"]) == 0
        out = capsys.readouterr().out
        assert "noise.sigma" in out
        assert "dictionary.stride" in out

    def test_info_prints_every_limit(self, capsys):
        assert cli_main(["info"]) == 0
        # each key's block: its title line and the indented lines under it
        blocks = dict(re.findall(r"^  (\S+)  \[.*\n((?:      .*\n)*)", capsys.readouterr().out,
                                 re.MULTILINE))
        assert list(blocks) == list(SCHEMA)
        for key, row in SCHEMA.items():
            rules = [rule for rule in (_TYPES[row.type][1], row.limits()) if rule]
            assert blocks[key].startswith(f"      {'; '.join(rules)}\n" if rules else "      def")
        assert "      must be finite; must lie in (0, 1]\n" in blocks["spbdw.rel_tol"]
        assert "      must be 'pointwise' or 'box_average'\n" in blocks["sensors.kind"]
        assert "must be > -1.0" in blocks["sweep.alpha"] and ">= 1" in blocks["sweep.n"]

    @pytest.mark.parametrize("config", ["example1.cfg", "example2.cfg", "example3.cfg"])
    def test_pointwise_sensors_reject_a_width(self, tmp_path, capsys, config):
        # a pointwise sensor has no width: before, the value was silently ignored
        out_dir = tmp_path / "o"
        code = cli_main(["run", "--config", str(CONFIGS / config), "--set",
                         "sensors.kind=pointwise", "--set", "sensors.width=0.3",
                         "--out", str(out_dir)])
        assert code == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert captured.out == "" and len(err) == 1, err
        assert err[0].startswith("error: sensors.width=0.3 ") and not out_dir.exists()
        # a zero width, the default, is the one a pointwise array takes
        cfg = load_config(CONFIGS / config, ["sensors.kind=pointwise", "sensors.width=0"])
        assert cfg["sensors.kind"] == "pointwise"

    def test_python_dash_m(self):
        paths = [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        proc = subprocess.run([sys.executable, "-m", "assim", "info"], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0 and "dictionary.stride" in proc.stdout


def _data_rows(path: Path) -> int:
    """Number of data rows in a versioned CSV (schema line and header excluded)."""
    return len(path.read_text().splitlines()) - 2


def _run_or_one_error_line(config: str, overrides: dict) -> dict | None:
    """``assim run`` with ``--set`` overrides, in a fresh output directory.

    A rejected run must print exactly one ``error:`` line and write nothing;
    it returns None.  A cell with n > m is skipped, never the reason for a
    rejection.  Otherwise the data-row count of each CSV written, and under
    ``skipped`` the cells ``run.json`` lists as skipped.
    """
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp) / "out"
        args = ["run", "--config", str(CONFIGS / config), "--out", str(out_dir)]
        for key, value in overrides.items():
            args += ["--set", f"{key}={value}"]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli_main(args)
        if code == 2:
            err = stderr.getvalue().splitlines()
            assert len(err) == 1 and err[0].startswith("error:"), err
            assert "exceeds the number of sensors" not in err[0]
            assert stdout.getvalue() == "" and not out_dir.exists()
            return None
        assert code == 0, stderr.getvalue()
        counts = {path.name: _data_rows(path) for path in out_dir.glob("*.csv")
                  if path.name in ("results.csv", "timings.csv", "diagnostics.csv")}
        counts["skipped"] = json.loads((out_dir / "run.json").read_text())["skipped"]
        return counts


def _solved_cells(m: list[int], n: list[int], skipped: list[dict]) -> int:
    """Number of swept (n, m) cells a run solved, given its ``run.json`` ``skipped``:
    first each cell with n > m, then each cell with n <= m whose plan is unstable."""
    beyond = [(n_, m_) for m_ in m for n_ in n if n_ > m_]
    assert [(s["n"], s["m"], s["reason"]) for s in skipped[:len(beyond)]] == [
        (*cell, "n > m") for cell in beyond]
    assert all(s["n"] <= s["m"] and s["reason"].startswith("stability constant")
               for s in skipped[len(beyond):])
    return len(m) * len(n) - len(skipped)


def _joined(values) -> str:
    return ",".join(map(str, values))


class TestExample2OverrideFuzz:
    """``assim run`` on example2 either writes consistent outputs or exits 2 with one line."""

    @given(
        m=st.lists(st.integers(1, 90), min_size=1, max_size=2),
        n=st.lists(st.integers(1, 30), min_size=1, max_size=2),
        count=st.integers(1, 70),
        training=st.integers(1, 40),
        stride=st.integers(1, 420),
        max_iters=st.integers(1, 6),
    )
    # one case; a full block plus one column; a one-candidate dictionary; an
    # unresolved sensor window (the out-of-range values of the other keys are
    # in TestCli.test_unsolvable_sweep_rejected); a cell with n > m
    @example(m=[40], n=[5], count=1, training=10, stride=12, max_iters=5)
    @example(m=[20], n=[3], count=_CHUNK + 1, training=8, stride=12, max_iters=5)
    @example(m=[30], n=[4], count=5, training=8, stride=300, max_iters=3)
    @example(m=[40, 600], n=[5], count=3, training=8, stride=12, max_iters=5)
    @example(m=[4, 30], n=[6], count=3, training=10, stride=12, max_iters=5)
    @settings(max_examples=20, deadline=None)
    def test_outputs_consistent_or_one_error_line(self, m, n, count, training, stride,
                                                  max_iters):
        counts = _run_or_one_error_line("example2.cfg", {
            "sweep.m": _joined(m),
            "sweep.n": _joined(n),
            "validation.count": count,
            "training.count": training,
            "dictionary.stride": stride,
            "spbdw.max_iters": max_iters,
        })
        if counts is not None:
            cells = _solved_cells(m, n, counts.pop("skipped"))
            cases = cells * count
            blocks = cells * -(-count // _CHUNK)
            assert counts == {"diagnostics.csv": cases, "results.csv": 2 * cases,
                              "timings.csv": 2 * blocks}


class TestExample1OverrideFuzz:
    """``assim run`` on example1 either writes consistent outputs or exits 2 with one line."""

    @given(
        m=st.lists(st.integers(1, 90), min_size=1, max_size=2),
        n=st.lists(st.integers(1, 14), min_size=1, max_size=3),
        alpha=st.lists(st.sampled_from([0.0, 0.1, -0.5]), min_size=1, max_size=2),
        count=st.integers(1, 20),
        training=st.integers(1, 40),
    )
    # a cell with n > m; one case
    @example(m=[10], n=[5, 12], alpha=[0.1], count=4, training=32)
    @example(m=[25], n=[3], alpha=[0.0], count=1, training=16)
    @settings(max_examples=20, deadline=None)
    def test_outputs_consistent_or_one_error_line(self, m, n, alpha, count, training):
        counts = _run_or_one_error_line("example1.cfg", {
            "sweep.m": _joined(m),
            "sweep.n": _joined(n),
            "sweep.alpha": _joined(alpha),
            "validation.count": count,
            "training.count": training,
        })
        if counts is not None:
            # one block per (n, m) pair and method, holding every alpha
            blocks = 2 * _solved_cells(m, n, counts.pop("skipped"))
            assert counts == {"results.csv": blocks * len(alpha) * count, "timings.csv": blocks}


class TestExample3OverrideFuzz:
    """``assim run`` on example3_analog writes consistent outputs or exits 2 with one line."""

    @given(
        m=st.lists(st.integers(1, 60), min_size=1, max_size=2),
        n=st.lists(st.integers(1, 10), min_size=1, max_size=2),
        count=st.integers(1, 50),
        training=st.integers(1, 40),
        margin=st.sampled_from([0.0, 1.0, 1.1, 3.0]),
        peak_velocity=st.sampled_from([50.0, 0.0, -20.0, 1e-3]),
        flow_index=st.sampled_from([1.0, 0.0, -0.5, 0.05, 3.0]),
    )
    # a cell with n > m; one case; a zero flow index (the profile's exponent
    # 1 + 1/n), a zero peak velocity (the relative error's denominator), one
    # whose squared profile underflows to a zero norm and one so small that
    # the errors' squares would overflow
    @example(m=[3, 20], n=[5], count=4, training=16, margin=1.1, peak_velocity=50.0,
             flow_index=1.0)
    @example(m=[20], n=[5], count=1, training=16, margin=1.1, peak_velocity=50.0,
             flow_index=1.0)
    @example(m=[20], n=[5], count=2, training=16, margin=1.1, peak_velocity=50.0,
             flow_index=0.0)
    @example(m=[20], n=[5], count=2, training=16, margin=1.1, peak_velocity=0.0,
             flow_index=1.0)
    @example(m=[20], n=[5], count=2, training=16, margin=1.1, peak_velocity=1e-300,
             flow_index=1.0)
    @example(m=[20], n=[5], count=2, training=16, margin=1.1, peak_velocity=1e-160,
             flow_index=1.0)
    # (2, 2) is unstable and skipped; (1, 2) is solved
    @example(m=[2], n=[1, 2], count=1, training=2, margin=0.0, peak_velocity=50.0,
             flow_index=1.0)
    @settings(max_examples=20, deadline=None)
    def test_outputs_consistent_or_one_error_line(self, m, n, count, training, margin,
                                                  peak_velocity, flow_index):
        counts = _run_or_one_error_line("example3.cfg", {
            "sweep.m": _joined(m),
            "sweep.n": _joined(n),
            "validation.count": count,
            "training.count": training,
            "box.margin": margin,
            "truth.peak_velocity": peak_velocity,
            "truth.flow_index": flow_index,
        })
        if peak_velocity <= 1e-160 or flow_index <= 0:
            assert counts is None
        if counts is not None:
            blocks = 2 * _solved_cells(m, n, counts.pop("skipped"))
            assert counts == {"diagnostics.csv": blocks * count, "results.csv": blocks * count,
                              "timings.csv": blocks}


class TestRunExperimentDispatch:
    def test_dispatch(self):
        cfg = small_example1()
        res = run_experiment(cfg)
        assert res.config["experiment"] == "example1"


class TestOnlineLoop:
    """The one loop that runs every experiment."""

    @pytest.mark.parametrize(
        "cfg, truncated, boxes",
        [
            # n=5 > m=3 is skipped; every other n is built once for all three m
            (small_example1(**{"sweep.m": [3, 10, 25]}), [1, 3, 5], 0),
            # two bases per n: the fast and the full one
            (small_example2(**{"validation.count": 4}), [10, 10, 20, 20], 0),
            ({**default_config("example3_analog"), "validation.count": 4,
              "sweep.n": [3, 5, 8], "sweep.m": [20, 40]}, [3, 5, 8], 3),
        ],
        ids=["example1", "example2", "example3"],
    )
    def test_each_n_is_prepared_once_per_run(self, monkeypatch, cfg, truncated, boxes):
        calls = {"truncate": [], "compute_box": 0}
        truncate, box = Subspace.truncate, assim.bench.compute_box

        def counted_truncate(self, n):
            calls["truncate"].append(n)
            return truncate(self, n)

        def counted_box(*args, **kwargs):
            calls["compute_box"] += 1
            return box(*args, **kwargs)

        monkeypatch.setattr(Subspace, "truncate", counted_truncate)
        monkeypatch.setattr(assim.bench, "compute_box", counted_box)
        # the decay curves truncate too; they are not the loop's
        monkeypatch.setattr(assim.bench, "pod_decay_rows", lambda labeled, n_values: [])
        run_experiment(cfg)
        assert sorted(calls["truncate"]) == truncated
        assert calls["compute_box"] == boxes

    @pytest.mark.parametrize(
        "cfg",
        [
            small_example1(**{"sweep.m": [3, 10, 25], "sweep.alpha": [0.0, 0.1]}),
            small_example2(**{"validation.count": 4}),
            {**default_config("example3_analog"), "validation.count": 4,
             "sweep.n": [3, 5, 8], "sweep.m": [20, 40]},
        ],
        ids=["example1", "example2", "example3"],
    )
    def test_no_solve_plan_is_built_inside_a_timed_block(self, monkeypatch, cfg):
        # a timed region runs from a perf_counter start to the last _elapsed_ms
        # call that reads it: a plan build is timed if a stop comes before the next start
        events = []
        build, elapsed = assim.solver._build_plan, assim.bench._elapsed_ms

        def start():
            events.append("start")
            return time.perf_counter()

        def stop(begin):
            events.append("stop")
            return elapsed(begin)

        def counted_build(*args):
            events.append("build")
            return build(*args)

        monkeypatch.setattr(assim.bench, "time", SimpleNamespace(perf_counter=start))
        monkeypatch.setattr(assim.bench, "_elapsed_ms", stop)
        monkeypatch.setattr(assim.solver, "_build_plan", counted_build)
        run_experiment(cfg)
        following = [next((e for e in events[i:] if e != "build"), None)
                     for i, event in enumerate(events) if event == "build"]
        assert following and "stop" not in following

"""Library-level replica of one workload, built from the package's public API.

``build_plan`` does the offline work (sampling, POD, observation spaces,
step dictionaries, coefficient boxes) and returns the online cases as
closures.  A case is the noise draw plus every method of the workload; it
returns the rows the ``assim run`` harness would write for it, so the
runner's aggregates can be checked against the CLI's.  Every call into the
package sits inside a span named ``<layer>.<what>``.

The per-case seeds, loops and error measure follow ``assim.bench`` so that
both compute the same numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from assim import (
    Grid,
    GridFunction,
    MultiscaleSpec,
    NoiseModel,
    PowerLawSpec,
    SensorArray,
    SinusoidSpec,
    bpbdw_reconstruct,
    build_observation_space,
    compute_box,
    pbdw_solve,
    pbdw_solve_boxed,
    pod,
    sample_multiscale,
    sample_powerlaw,
    sample_sinusoids,
    spbdw_reconstruct,
    step_dictionary,
    total_variation,
)
from assim.bench import ResultRow, derive_seed, observe_noisy, pod_decay_rows
from assim.manifold import powerlaw_profile


@dataclass
class Outcome:
    """What one case produced."""

    rows: list                      # ResultRow per method
    timings: list[dict]             # timings.csv rows, as the harness writes them
    diagnostics: list[dict]
    residual: float                 # worst constraint residual of the case's solves
    greedy_steps: int | None = None
    jump_hit: bool | None = None


@dataclass
class Plan:
    cases: list                     # callables: (tracer, span_case_id) -> Outcome
    pairs: set                      # distinct (n, m)
    decay_inputs: tuple             # (labeled, n_values) for pod_decay_rows
    counters: dict = field(default_factory=dict)

    def decay(self) -> list[dict]:
        return pod_decay_rows(*self.decay_inputs)


def _grid(cfg: dict) -> Grid:
    return Grid(cfg["grid.a"], cfg["grid.b"], cfg["grid.num_points"])


def _pair(cfg: dict, key: str) -> tuple[float, float]:
    lo, hi = cfg[key]
    return float(lo), float(hi)


def _space(cfg: dict, m: int, grid: Grid, tracer):
    with tracer.span("obs.space_build"):
        sensors = SensorArray.equidistant(m, grid, kind=cfg["sensors.kind"],
                                          width=cfg["sensors.width"] or None)
        return build_observation_space(sensors, grid)


def _rel(state, truth) -> float:
    return (state - truth).norm() / truth.norm()


def _timed(fn):
    start = perf_counter()
    out = fn()
    return out, (perf_counter() - start) * 1e3


def _timing(case_id, method, n, m, alpha, sigma, ms) -> dict:
    return {"case_id": case_id, "method": method, "n": n, "m": m, "alpha": alpha,
            "sigma": sigma, "runtime_ms": ms}


def _sample(tracer, counters, count, fn, *args):
    with tracer.span("manifold.sample"):
        out = fn(*args)
    counters["manifold.snapshots"] = counters.get("manifold.snapshots", 0) + count
    return out


def _pod(tracer, snapshots, n):
    with tracer.span("rom.pod"):
        return pod(snapshots, n)


def build_plan(cfg: dict, tracer) -> Plan:
    return _PLANNERS[cfg["experiment"]](cfg, tracer)


def _example1(cfg: dict, tracer) -> Plan:
    if cfg["validation.reuse_training"]:
        raise ValueError("validation.reuse_training is not replicated by the runner")
    grid = _grid(cfg)
    spec = SinusoidSpec(_pair(cfg, "manifold.amplitude"), _pair(cfg, "manifold.period"))
    master, counters = cfg["master_seed"], {}
    training = _sample(tracer, counters, cfg["training.count"], sample_sinusoids,
                       spec, grid, cfg["training.count"], derive_seed(master, "training"))
    basis = _pod(tracer, training, min(max(cfg["sweep.n"]), len(training)))
    truths = _sample(tracer, counters, cfg["validation.count"], sample_sinusoids,
                     spec, grid, cfg["validation.count"], derive_seed(master, "validation"))
    sigma = cfg["noise.sigma"]

    def case(tracer, span_case, case_id, truth, n, m, alpha, model, background, space):
        seed = derive_seed(master, "noise", case_id, "m", m, "n", n, "alpha", repr(alpha))
        with tracer.span("bias.noise", span_case):
            omega = observe_noisy(truth, space, model, seed)
        with tracer.span("solver.plain", span_case):
            plain, plain_ms = _timed(lambda: pbdw_solve(omega, background, space))
        with tracer.span("bias.corrected", span_case):
            corr, corr_ms = _timed(
                lambda: bpbdw_reconstruct(omega, background, space, model, seed))
        return Outcome(
            rows=[ResultRow(case_id, "pbdw", n, m, alpha, sigma, _rel(plain.state, truth),
                            plain.beta, seed),
                  ResultRow(case_id, "bpbdw", n, m, alpha, sigma, _rel(corr.state, truth),
                            corr.beta, seed)],
            timings=[_timing(case_id, "pbdw", n, m, alpha, sigma, plain_ms),
                     _timing(case_id, "bpbdw", n, m, alpha, sigma, corr_ms)],
            diagnostics=[],
            residual=max(plain.constraint_residual, corr.constraint_residual),
        )

    cases, pairs = [], set()
    for m in cfg["sweep.m"]:
        space = _space(cfg, m, grid, tracer)
        for n in cfg["sweep.n"]:
            if n > m:                       # the harness skips these cells
                counters["bench.cells_skipped"] = (counters.get("bench.cells_skipped", 0)
                                                   + len(cfg["sweep.alpha"]))
                continue
            pairs.add((n, m))
            background = basis.subspace.truncate(n)
            for alpha in cfg["sweep.alpha"]:
                model = NoiseModel(cfg["noise.kind"], alpha, sigma, cfg["noise.mc_samples"])
                for case_id, truth in enumerate(truths):
                    cases.append(_bind(case, case_id, truth, n, m, alpha, model, background,
                                       space))
    return Plan(cases, pairs, ({"full": (truths, basis)}, cfg["sweep.n"]), counters)


def _example2(cfg: dict, tracer) -> Plan:
    grid = _grid(cfg)
    spec = MultiscaleSpec(
        num_frequencies=cfg["manifold.num_frequencies"],
        amplitude_range=_pair(cfg, "manifold.amplitude"),
        period_range=_pair(cfg, "manifold.period"),
        phase_range=_pair(cfg, "manifold.phase"),
        jump_location_range=_pair(cfg, "manifold.jump_location"),
        jump_height_range=_pair(cfg, "manifold.jump_height"),
    )
    master, counters = cfg["master_seed"], {}
    fast_train, _, full_train = _sample(tracer, counters, cfg["training.count"],
                                        sample_multiscale, spec, grid, cfg["training.count"],
                                        derive_seed(master, "training"))
    n_max = max(cfg["sweep.n"])
    fast_basis = _pod(tracer, fast_train, min(n_max, len(fast_train)))
    full_basis = _pod(tracer, full_train, min(n_max, len(full_train)))
    fast_val, _, full_val = _sample(tracer, counters, cfg["validation.count"],
                                    sample_multiscale, spec, grid, cfg["validation.count"],
                                    derive_seed(master, "validation"))
    alpha, sigma = cfg["noise.alpha"], cfg["noise.sigma"]
    model = (NoiseModel(cfg["noise.kind"], alpha, sigma, cfg["noise.mc_samples"])
             if (alpha != 0.0 or sigma != 0.0) else None)
    rel_tol, max_iters = cfg["spbdw.rel_tol"], cfg["spbdw.max_iters"]

    def case(tracer, span_case, case_id, truth, true_loc, n, m, fast_bg, full_bg, space,
             dictionary):
        seed = derive_seed(master, "noise", case_id, "m", m, "n", n)
        with tracer.span("bias.noise", span_case):
            omega = observe_noisy(truth, space, model if model is not None else NoiseModel(),
                                  seed)
        tv_truth = total_variation(truth)
        with tracer.span("multiscale.split", span_case):
            dec, split_ms = _timed(lambda: spbdw_reconstruct(
                omega, fast_bg, space, dictionary, model=model, seed=seed,
                rel_tol=rel_tol, max_iters=max_iters))
        with tracer.span("solver.plain", span_case):
            rec, plain_ms = _timed(lambda: pbdw_solve(omega, full_bg, space))
        estimated = dec.dominant_jump_location()
        diag = {
            "case_id": case_id, "n": n, "m": m,
            "jump_location_true": true_loc,
            "jump_location_estimated": "" if estimated is None else estimated,
            "jump_cells_off": "" if estimated is None else abs(estimated - true_loc) / grid.h,
            "num_smoothers": len(dec.smoothers),
            "tv_truth": tv_truth,
            "tv_excess_spbdw": total_variation(dec.u_star) - tv_truth,
            "tv_excess_pbdw": total_variation(rec.state) - tv_truth,
        }
        return Outcome(
            rows=[ResultRow(case_id, "spbdw", n, m, alpha, sigma, _rel(dec.u_star, truth),
                            dec.u_f.beta, seed),
                  ResultRow(case_id, "pbdw", n, m, alpha, sigma, _rel(rec.state, truth),
                            rec.beta, seed)],
            timings=[_timing(case_id, "spbdw", n, m, alpha, sigma, split_ms),
                     _timing(case_id, "pbdw", n, m, alpha, sigma, plain_ms)],
            diagnostics=[diag],
            residual=max(dec.u_f.constraint_residual, rec.constraint_residual),
            greedy_steps=len(dec.residual_history) - 1,
            jump_hit=estimated is not None and abs(estimated - true_loc) < 0.5 * grid.h,
        )

    cases, pairs, sizes = [], set(), []
    for m in cfg["sweep.m"]:
        space = _space(cfg, m, grid, tracer)
        with tracer.span("multiscale.dictionary"):
            dictionary = step_dictionary(grid, space, _pair(cfg, "manifold.jump_location"),
                                         cfg["dictionary.stride"])
        sizes.append(len(dictionary))
        truths = _snapped_truths(cfg, dictionary, fast_val, full_val)
        for n in cfg["sweep.n"]:
            pairs.add((n, m))
            fast_bg = fast_basis.subspace.truncate(min(n, fast_basis.dimension))
            full_bg = full_basis.subspace.truncate(min(n, full_basis.dimension))
            for case_id, (truth, true_loc) in enumerate(truths):
                cases.append(_bind(case, case_id, truth, true_loc, n, m, fast_bg, full_bg,
                                   space, dictionary))
    counters["multiscale.dictionary_size"] = sum(sizes) / len(sizes)
    n_values = list(range(1, min(n_max, fast_basis.dimension, full_basis.dimension) + 1))
    labeled = {"fast": (fast_val, fast_basis), "full": (full_val, full_basis)}
    return Plan(cases, pairs, (labeled, n_values), counters)


def _snapped_truths(cfg, dictionary, fast_val, full_val):
    """Per-case (truth, jump location), snapped onto the dictionary when configured."""
    locations = np.array([p["jump_location"] for p in dictionary.parameters])
    out = []
    for k, params in enumerate(full_val.parameters):
        true_loc = params["jump_location"]
        if cfg["dictionary.snap_truth"]:
            true_loc = float(locations[np.argmin(np.abs(locations - true_loc))])
            grid = full_val.grid
            slow = GridFunction(
                grid, params["jump_height"] * (grid.nodes >= true_loc - 1e-12).astype(float))
            out.append((fast_val.snapshots[k] + slow, true_loc))
        else:
            out.append((full_val.snapshots[k], true_loc))
    return out


def _example3(cfg: dict, tracer) -> Plan:
    grid = _grid(cfg)
    spec = PowerLawSpec(
        peak_velocity_range=_pair(cfg, "manifold.peak_velocity"),
        flow_index_range=_pair(cfg, "manifold.flow_index"),
        radius=cfg["manifold.radius"],
    )
    master, counters = cfg["master_seed"], {}
    training = _sample(tracer, counters, cfg["training.count"], sample_powerlaw,
                       spec, grid, cfg["training.count"], derive_seed(master, "training"))
    basis = _pod(tracer, training, min(max(cfg["sweep.n"]), len(training)))
    truth = powerlaw_profile(grid, cfg["truth.peak_velocity"], cfg["truth.flow_index"],
                             cfg["manifold.radius"])
    alpha, sigma = cfg["noise.alpha"], cfg["noise.sigma"]
    model = NoiseModel(cfg["noise.kind"], alpha, sigma, cfg["noise.mc_samples"])

    def case(tracer, span_case, case_id, n, m, background, space, box):
        seed = derive_seed(master, "noise", case_id, "m", m, "n", n)
        with tracer.span("bias.noise", span_case):
            omega = observe_noisy(truth, space, model, seed)
        with tracer.span("solver.boxed", span_case):
            plain, plain_ms = _timed(lambda: pbdw_solve_boxed(omega, background, space, box))
        with tracer.span("bias.corrected", span_case):
            corr, corr_ms = _timed(lambda: bpbdw_reconstruct(omega, background, space, model,
                                                             seed, box=box))
        rows, diags = [], []
        for method, rec in (("pbdw", plain), ("bpbdw", corr)):
            rows.append(ResultRow(case_id, method, n, m, alpha, sigma, _rel(rec.state, truth),
                                  rec.beta, seed))
            energy = float(np.sum(rec.rom_coeffs ** 2))
            diags.append({"case_id": case_id, "method": method, "n": n, "m": m,
                          "mode1_energy_fraction": (float(rec.rom_coeffs[0] ** 2 / energy)
                                                    if energy > 0 else 0.0)})
        return Outcome(
            rows=rows,
            timings=[_timing(case_id, "pbdw", n, m, alpha, sigma, plain_ms),
                     _timing(case_id, "bpbdw", n, m, alpha, sigma, corr_ms)],
            diagnostics=diags,
            residual=max(plain.constraint_residual, corr.constraint_residual),
        )

    cases, pairs = [], set()
    for m in cfg["sweep.m"]:
        space = _space(cfg, m, grid, tracer)
        for n in cfg["sweep.n"]:
            pairs.add((n, m))
            background = basis.subspace.truncate(n)
            with tracer.span("solver.box_build"):
                box = compute_box(training, background, cfg["box.margin"])
            for case_id in range(cfg["validation.count"]):
                cases.append(_bind(case, case_id, n, m, background, space, box))
    return Plan(cases, pairs, ({"full": (training, basis)}, sorted(set(cfg["sweep.n"]))),
                counters)


def _bind(fn, *args):
    return lambda tracer, span_case: fn(tracer, span_case, *args)


_PLANNERS = {"example1": _example1, "example2": _example2, "example3_analog": _example3}

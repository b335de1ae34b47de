"""Benchmark harness: seeded synthetic experiments with CSV/JSON outputs.

Three experiments are provided:

* ``example1``: sinusoid background, biased Gaussian measurements,
  plain vs bias-corrected reconstruction over sweeps of the reduced
  dimension n, the sensor count m and the bias slope alpha;
* ``example2``: oscillation-plus-jump background, multiscale split
  reconstruction vs a plain solve on the full (slowly decaying) basis,
  plus the approximation-error decay of the two reduced models;
* ``example3_analog``: power-law flow profiles, box-constrained plain vs
  bias-corrected reconstruction of a fixed parabolic truth under biased
  noise, reported as a mean/max/min/stddev table.

One online loop (``_run``) runs every experiment after its offline set-up
(``setup_experiment``).  An experiment is a record in ``_EXPERIMENTS``: its
set-up, what the cells of one sensor count m and of one dimension n share,
and a block solve.  The loop takes the (n, m, alpha) cells with n <= m in
blocks of cases, the whole cell or at most ``_CHUNK`` cases (``example2``);
``example3_analog`` solves a block case by case.  Every block's errors go
into the run's columnar store as arrays (``_Cases.emit``), and ``results.csv``
is streamed from those columns a line at a time, each cell key formatted
once.  Each block also gives one ``timings.csv`` row per method: the time
its solve took, and the first case id and case count of the block.

Configuration is a flat ``key = value`` text format with dotted keys,
overridable one key at a time (``--set key=value`` on the CLI).  Every
per-case random stream is derived from (master_seed, case id, stage), so a
rerun with the same master seed reproduces ``results.csv`` byte for byte.
The loop derives every case seed of a run, and the PCG64 seed words of its
noise, in one vectorized pass (``derive_seeds``, ``_pcg64_words``) over the
blocks it then walks; the pass reproduces ``derive_seed`` and
``np.random.default_rng(seed)`` bit for bit.  Wall-clock block times go to
``timings.csv`` to keep ``results.csv`` deterministic.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import operator
import time
import zlib
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import __version__
from .bias import (
    LINEAR_BIAS_GAUSSIAN,
    NoiseModel,
    apply_noise,
    bpbdw_correct_block,
    corrected_constraint,
)
from .manifold import (
    MultiscaleSpec,
    PowerLawSpec,
    SinusoidSpec,
    SnapshotSet,
    powerlaw_profile,
    sample_multiscale,
    sample_powerlaw,
    sample_sinusoids,
)
from .multiscale import spbdw_reconstruct_block, step_dictionary
from .obs import BOX_AVERAGE, POINTWISE, SensorArray, build_observation_space, observe
from .rom import decay_curve, pod
from .solver import compute_box, pbdw_solve_block, pbdw_solve_boxed
from .space import Grid, GridFunction

__all__ = [
    "ConfigError",
    "ResultRow",
    "RunResult",
    "default_config",
    "parse_config",
    "parse_overrides",
    "load_config",
    "derive_seed",
    "derive_seeds",
    "Setup",
    "setup_experiment",
    "run_experiment",
    "run_example1",
    "run_example2",
    "run_example3_analog",
    "pod_decay_rows",
    "aggregate_rows",
    "describe_schema",
]

SCHEMA_VERSION = 1

EXPERIMENTS = ("example1", "example2", "example3_analog")

PI = np.pi


class ConfigError(ValueError):
    """Invalid benchmark configuration."""


# ---------------------------------------------------------------------------
# configuration schema
# ---------------------------------------------------------------------------

def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


_PARSERS = {
    "str": str.strip,
    "int": lambda t: int(t.strip()),
    "float": lambda t: float(t.strip()),
    "bool": _parse_bool,
    "int_list": lambda t: [int(tok) for tok in t.split(",") if tok.strip()],
    "float_list": lambda t: [float(tok) for tok in t.split(",") if tok.strip()],
}

# key -> (type name, {experiment: default}, help); a key applies to the
# experiments it has a default for
SCHEMA = {
    "experiment": ("str", {e: e for e in EXPERIMENTS}, "which experiment to run"),
    "master_seed": ("int", {e: 20240605 for e in EXPERIMENTS}, "root of every random stream"),
    "grid.a": ("float", {"example1": 0.0, "example2": 0.0, "example3_analog": -0.5}, "left endpoint"),
    "grid.b": ("float", {"example1": 2 * PI, "example2": 2 * PI, "example3_analog": 0.5}, "right endpoint"),
    "grid.num_points": ("int", {"example1": 512, "example2": 512, "example3_analog": 257}, "grid resolution"),
    "training.count": ("int", {"example1": 128, "example2": 256, "example3_analog": 128}, "training snapshots"),
    "validation.count": ("int", {"example1": 64, "example2": 20, "example3_analog": 40}, "benchmark cases"),
    "validation.reuse_training": ("bool", {"example1": False},
                                  "draw truths from the training set (diagnostics only)"),
    "sensors.kind": ("str", {e: "box_average" for e in EXPERIMENTS}, "pointwise or box_average"),
    "sensors.width": ("float", {e: 0.0 for e in EXPERIMENTS}, "box width; 0 means inter-sensor spacing"),
    "sweep.n": ("int_list", {"example1": list(range(1, 13)), "example2": [20], "example3_analog": [5]},
                "reduced dimensions to sweep"),
    "sweep.m": ("int_list", {"example1": [25], "example2": [40], "example3_analog": [20]},
                "sensor counts to sweep"),
    "noise.kind": ("str", {e: LINEAR_BIAS_GAUSSIAN for e in EXPERIMENTS},
                   "noise model kind; linear_bias_gaussian is the only one a config can build"),
    "noise.sigma": ("float", {"example1": 0.325, "example2": 0.0, "example3_analog": 2.0},
                    "Gaussian spread per raw sensor reading"),
    "noise.mc_samples": ("int", {e: 1000 for e in EXPERIMENTS}, "Monte Carlo samples for expectations"),
    "sweep.alpha": ("float_list", {"example1": [0.1]}, "bias slopes to sweep"),
    "manifold.amplitude": ("float_list", {"example1": [25.0, 40.0], "example2": [0.4, 1.0]},
                           "amplitude range"),
    "manifold.period": ("float_list", {"example1": [PI, 2 * PI], "example2": [PI / 4, PI]},
                        "period range"),
    "noise.alpha": ("float", {"example2": 0.0, "example3_analog": 0.15}, "bias slope"),
    "manifold.num_frequencies": ("int", {"example2": 3}, "sinusoids per snapshot"),
    "manifold.phase": ("float_list", {"example2": [0.0, 2 * PI]}, "phase range"),
    "manifold.jump_location": ("float_list", {"example2": [PI / 2, 3 * PI / 2]}, "jump location range"),
    "manifold.jump_height": ("float_list", {"example2": [2.5, 4.5]}, "jump height range"),
    "dictionary.stride": ("int", {"example2": 12}, "grid nodes between step candidates"),
    "dictionary.snap_truth": ("bool", {"example2": True},
                              "snap truth jumps onto dictionary locations"),
    "spbdw.rel_tol": ("float", {"example2": 0.05}, "greedy stopping tolerance"),
    "spbdw.max_iters": ("int", {"example2": 5}, "greedy iteration cap"),
    "manifold.peak_velocity": ("float_list", {"example3_analog": [40.0, 60.0]}, "peak velocity range [cm/s]"),
    "manifold.flow_index": ("float_list", {"example3_analog": [0.8, 1.2]}, "flow index range"),
    "manifold.radius": ("float", {"example3_analog": 0.5}, "tube radius [cm]"),
    "truth.peak_velocity": ("float", {"example3_analog": 50.0}, "ground-truth peak velocity"),
    "truth.flow_index": ("float", {"example3_analog": 1.0}, "ground-truth flow index"),
    "box.margin": ("float", {"example3_analog": 1.1}, "coefficient box widening factor"),
}


def default_config(experiment: str) -> dict:
    """Fully resolved defaults for one experiment."""
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}; choose from {EXPERIMENTS}")
    cfg = {}
    for key, (_typ, defaults, _help) in SCHEMA.items():
        if experiment in defaults:
            value = defaults[experiment]
            cfg[key] = list(value) if isinstance(value, list) else value
    cfg["experiment"] = experiment
    return cfg


def _apply_entry(entries: dict, key: str, raw: str, where: str) -> None:
    if key not in SCHEMA:
        raise ConfigError(f"{where}: unknown key {key!r}")
    typ = SCHEMA[key][0]
    try:
        entries[key] = _PARSERS[typ](raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: cannot parse {key} = {raw!r} as {typ} ({exc})") from None


def _resolve(text: str, source: str) -> dict:
    """The file's entries on top of its experiment's defaults, not yet validated."""
    entries: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, raw = stripped.split("=", 1)
        _apply_entry(entries, key.strip(), raw, f"{source}:{lineno}")
    experiment = entries.get("experiment")
    if experiment is None:
        raise ConfigError(f"{source}: missing required key 'experiment'")
    if experiment not in EXPERIMENTS:
        raise ConfigError(
            f"{source}: unknown experiment {experiment!r}; choose from {EXPERIMENTS}"
        )
    cfg = default_config(experiment)
    for key, value in entries.items():
        if experiment not in SCHEMA[key][1]:
            raise ConfigError(
                f"{source}: key {key!r} does not apply to experiment {experiment!r}"
            )
        cfg[key] = value
    return cfg


def _override(cfg: dict, pairs: list[str]) -> dict:
    """``key=value`` overrides on top of a resolved config, not yet validated."""
    cfg = dict(cfg)
    experiment = cfg["experiment"]
    for i, pair in enumerate(pairs, start=1):
        if "=" not in pair:
            raise ConfigError(f"--set #{i}: expected key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        key = key.strip()
        entries: dict = {}
        _apply_entry(entries, key, raw, f"--set #{i}")
        if key == "experiment":
            raise ConfigError("--set cannot change the experiment; edit the config file")
        if experiment not in SCHEMA[key][1]:
            raise ConfigError(f"--set #{i}: key {key!r} does not apply to {experiment!r}")
        cfg[key] = entries[key]
    return cfg


def parse_config(text: str, source: str = "<config>") -> dict:
    """Parse flat ``key = value`` text into a fully resolved config."""
    return _validate(_resolve(text, source))


def parse_overrides(cfg: dict, pairs: list[str]) -> dict:
    """Apply ``key=value`` override strings on top of a resolved config."""
    return _validate(_override(cfg, pairs))


def load_config(path: str | Path, overrides: list[str] | None = None) -> dict:
    """A config file with its overrides applied, validated once as a whole."""
    cfg = _resolve(Path(path).read_text(), source=str(path))
    return _validate(_override(cfg, overrides or []))


# key -> (lowest value, whether it is allowed).  The library objects reject
# most of these ranges with messages that do not name the key; SeedSequence
# takes only non-negative seeds, and the ground-truth profile divides by both
# truth values.
_FLOORS = {
    "master_seed": (0, True),
    "grid.num_points": (2, True),
    "training.count": (1, True),
    "validation.count": (1, True),
    "sensors.width": (0.0, True),       # 0 means the sensor spacing
    "noise.mc_samples": (1, True),
    "sweep.n": (1, True),
    "sweep.m": (1, True),
    "noise.sigma": (0.0, True),
    "noise.alpha": (-1.0, False),
    "sweep.alpha": (-1.0, False),
    "manifold.num_frequencies": (1, True),
    "dictionary.stride": (1, True),
    "spbdw.max_iters": (1, True),
    "manifold.period": (0.0, False),
    "manifold.peak_velocity": (0.0, True),
    "manifold.flow_index": (0.0, False),
    "manifold.radius": (0.0, False),
    "truth.peak_velocity": (0.0, False),
    "truth.flow_index": (0.0, False),
    "box.margin": (0.0, True),
}


def _validate(cfg: dict) -> dict:
    for key, value in cfg.items():      # each key on its own, then the keys together
        values = value if isinstance(value, list) else [value]
        if SCHEMA[key][0] in ("float", "float_list") and not all(np.isfinite(values)):
            raise ConfigError(f"{key} must be finite, got {value}")
        # the spec classes reject these too, without the key
        if key.startswith("manifold.") and SCHEMA[key][0] == "float_list":
            if len(value) != 2:
                raise ConfigError(f"{key} must have exactly two entries (lo, hi), got {value}")
            if not value[0] <= value[1]:
                raise ConfigError(f"{key} range {value} is not well ordered (lo <= hi)")
        floor, allowed = _FLOORS.get(key, (None, True))
        if floor is not None and any(v < floor or (v == floor and not allowed) for v in values):
            raise ConfigError(f"{key} must be {'>=' if allowed else '>'} {floor}, got {value}")
    if cfg["noise.kind"] != LINEAR_BIAS_GAUSSIAN:
        # an empirical_table model needs a table, which no config key supplies
        raise ConfigError(
            f"noise.kind must be {LINEAR_BIAS_GAUSSIAN!r}, got {cfg['noise.kind']!r}"
        )
    for key in (k for k in ("sweep.n", "sweep.m", "sweep.alpha") if k in cfg):
        values = cfg[key]
        if not values:
            raise ConfigError(f"{key} must not be empty")
        # compared by value, so 0 and -0.0 repeat; a repeat would duplicate its rows
        if len(set(values)) < len(values):
            raise ConfigError(f"{key} repeats a value, got {values}")
    if cfg["sensors.kind"] not in (POINTWISE, BOX_AVERAGE):
        raise ConfigError(f"sensors.kind must be {POINTWISE!r} or {BOX_AVERAGE!r}, "
                          f"got {cfg['sensors.kind']!r}")
    if not cfg["grid.a"] < cfg["grid.b"]:
        raise ConfigError(f"grid.a must be < grid.b, got [{cfg['grid.a']}, {cfg['grid.b']}]")
    grid = _grid(cfg)
    if cfg["experiment"] == "example2":
        if not 0 < cfg["spbdw.rel_tol"] <= 1:
            raise ConfigError(f"spbdw.rel_tol must lie in (0, 1], got {cfg['spbdw.rel_tol']}")
        lo, hi = _pair(cfg, "manifold.jump_location")
        if not grid.a < lo <= hi < grid.b:
            raise ConfigError(f"manifold.jump_location [{lo}, {hi}] must lie strictly inside "
                              f"the grid ({grid.a}, {grid.b})")
        nodes = grid.nodes[::cfg["dictionary.stride"]]     # step_dictionary's, for every m
        if not ((lo <= nodes) & (nodes <= hi)).any():
            raise ConfigError(f"dictionary.stride={cfg['dictionary.stride']} puts no step "
                              f"candidate inside manifold.jump_location [{lo}, {hi}]")
    R = cfg.get("manifold.radius")      # example3's domain, by sample_powerlaw's rule
    if R is not None and max(abs(grid.a + R), abs(grid.b - R)) > 1e-12 * max(1.0, R):
        raise ConfigError(f"grid.a and grid.b must equal -manifold.radius and "
                          f"manifold.radius = {R}, got [{grid.a}, {grid.b}]")
    for m in cfg["sweep.m"]:
        sensors = _sensor_array(cfg, m, grid)
        try:
            sensors.validate_on(grid)
        except ValueError as exc:
            raise ConfigError(f"sweep.m={m}: {exc}") from None
    # the online loop skips the cells with n > m, so a sweep must have one other
    n_min, n_max, m_max = min(cfg["sweep.n"]), max(cfg["sweep.n"]), max(cfg["sweep.m"])
    if n_min > m_max:
        raise ConfigError(f"no feasible (n, m) cell: every sweep.n exceeds every sweep.m "
                          f"(smallest n={n_min}, largest m={m_max})")
    # every sampler draws training.count snapshots, whose POD must reach the largest n
    if n_max > (train := cfg["training.count"]):
        raise ConfigError(f"sweep.n goes to {n_max} but only {train} snapshots are available")
    if cfg.get("validation.reuse_training") and (count := cfg["validation.count"]) > train:
        raise ConfigError(f"validation.count={count} exceeds training.count={train}, "
                          f"the truths validation.reuse_training draws from")
    return cfg


def describe_schema() -> str:
    """Human-readable schema listing for the CLI."""
    out = io.StringIO()
    out.write("configuration keys (flat `key = value` lines; lists are comma separated)\n\n")
    for key, (typ, defaults, help_) in SCHEMA.items():
        applies = ", ".join(sorted(defaults))
        out.write(f"  {key}  [{typ}]  {help_}\n")
        for exp in sorted(defaults):
            out.write(f"      {exp}: default = {defaults[exp]!r}\n")
        out.write(f"      applies to: {applies}\n")
    out.write(
        "\noutputs: results.csv (per-case rows), aggregates.csv, pod_decay.csv,\n"
        "diagnostics.csv (experiment-specific), timings.csv, run.json\n"
    )
    return out.getvalue()


# ---------------------------------------------------------------------------
# seeding
# ---------------------------------------------------------------------------

def derive_seed(master_seed: int, *parts) -> int:
    """Stable per-case seed from the master seed and a stage label.

    Strings are folded through CRC32 so the derivation does not depend on
    interpreter hash randomization or execution order.
    """
    key = ":".join(str(p) for p in parts)
    digest = zlib.crc32(key.encode())
    ss = np.random.SeedSequence([int(master_seed), digest])
    return int(ss.generate_state(1, np.uint64)[0])


# NumPy's SeedSequence (NEP 19) is a fixed uint32 hash after O'Neill's
# seed_seq_fe, so the same bits can be computed for many sequences at once.
# derive_seed and default_rng stay the reference; the tests compare them.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875       # entropy mixing
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED       # state generation
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF


def _uint32_words(n: int) -> list[int]:
    """SeedSequence's split of a non-negative int into uint32 words, low word first."""
    if n < 0:
        raise ValueError(f"expected a non-negative integer seed, got {n}")
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _hash_steps(const: int, mult: int):
    """The (xor, multiply) constants of SeedSequence's successive hash steps."""
    while True:
        nxt = const * mult & _MASK32
        yield np.uint32(const), np.uint32(nxt)
        const = nxt


def _hash(value: np.ndarray, steps) -> np.ndarray:
    xor, mul = next(steps)
    value = (value ^ xor) * mul
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> 16)


def _seed_states(entropy: np.ndarray, n_words: int) -> np.ndarray:
    """``SeedSequence(e).generate_state(n_words, np.uint64)`` for every column e.

    ``entropy`` is a (words, K) uint32 array: column k holds the entropy
    words of sequence k.  Returns a (K, n_words) uint64 array.
    """
    steps = _hash_steps(_INIT_A, _MULT_A)
    zeros = np.zeros_like(entropy[0])
    pool = [_hash(entropy[i] if i < len(entropy) else zeros, steps) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], steps))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hash(word, steps))

    steps = _hash_steps(_INIT_B, _MULT_B)
    state = np.stack([_hash(pool[i % _POOL_SIZE], steps) for i in range(2 * n_words)], axis=1)
    # uint64 word j is the little-endian pair of uint32 words 2j (low) and 2j + 1
    return state[:, 0::2].astype(np.uint64) | state[:, 1::2].astype(np.uint64) << np.uint64(32)


def derive_seeds(master_seed: int, keys) -> list[int]:
    """``[derive_seed(master_seed, *key) for key in keys]``, hashed in one pass.

    ``keys`` is any iterable of part tuples; a generator keeps them out of memory.
    """
    digests = np.fromiter(
        (zlib.crc32(":".join(str(p) for p in key).encode()) for key in keys), dtype=np.uint32
    )
    master = np.array(_uint32_words(int(master_seed)), dtype=np.uint32)
    entropy = np.empty((len(master) + 1, len(digests)), dtype=np.uint32)
    entropy[:-1] = master[:, None]
    entropy[-1] = digests
    return _seed_states(entropy, 1)[:, 0].tolist()


def _pcg64_words(seeds: list[int]) -> np.ndarray:
    """(K, 4) uint64 words that ``default_rng(seeds[k])`` seeds its PCG64 with.

    Row k is ``SeedSequence(seeds[k]).generate_state(4, np.uint64)``.  A seed
    below 2**32 is one entropy word, a larger one two.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    lo = (seeds & np.uint64(_MASK32)).astype(np.uint32)
    hi = (seeds >> np.uint64(32)).astype(np.uint32)
    words = np.empty((len(seeds), 4), dtype=np.uint64)
    short = hi == 0
    words[short] = _seed_states(lo[short][None], 4)
    words[~short] = _seed_states(np.stack([lo[~short], hi[~short]]), 4)
    return words


@functools.cache
def _seed_words_type() -> type:
    """An ``ISeedSequence`` that hands PCG64 precomputed seed words.

    Built on first use, so importing this module does not load numpy.random.
    """
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            # PCG64 asks for exactly these; any other request has no precomputed answer
            if (n_words, dtype) != (4, np.uint64):
                raise ValueError(f"holds 4 uint64 words, asked for {n_words} of {dtype}")
            # PCG64 reads the words through a raw pointer: they must be contiguous
            return np.ascontiguousarray(self.words, dtype=np.uint64)

    return SeedWords


def _normal_columns(words: np.ndarray, sigma: float, m: int) -> np.ndarray:
    """(m, K) block whose column k is ``default_rng(seed k).normal(0, sigma, m)``.

    ``words`` holds the seeds' ``_pcg64_words`` rows; numpy's own PCG64 and
    Generator do the rest, so the draws are the same to the last bit.
    """
    seed_words = _seed_words_type()
    generator, pcg64 = np.random.Generator, np.random.PCG64
    return np.stack(
        [generator(pcg64(seed_words(row))).normal(0.0, sigma, m) for row in words], axis=1
    )


# ---------------------------------------------------------------------------
# result containers
# ---------------------------------------------------------------------------

RESULT_FIELDS = ("case_id", "method", "n", "m", "alpha", "sigma", "error_e", "beta", "seed")
TIMING_FIELDS = ("method", "n", "m", "alpha", "sigma", "first_case", "cases", "block_ms")
AGGREGATE_FIELDS = ("method", "n", "m", "alpha", "sigma", "mean", "max", "min", "stddev", "count")


@dataclass(frozen=True)
class ResultRow:
    """One reconstruction outcome."""

    case_id: int
    method: str
    n: int
    m: int
    alpha: float
    sigma: float
    error_e: float
    beta: float
    seed: int

    def __post_init__(self) -> None:
        if not np.isfinite(self.error_e) or self.error_e < 0:
            raise ValueError(f"error_e must be finite and nonnegative, got {self.error_e}")

    def key(self):
        return (self.case_id, self.method, self.n, self.m, self.alpha, self.sigma)


_VALUES = RESULT_FIELDS[6:]       # the columns after a row's case id and cell key
_DTYPES = {"cell": np.intp, "case_id": np.int64, "error_e": np.float64, "beta": np.float64,
           "seed": np.uint64}


class _Columns:
    """The result table as columns, appended one block of cases at a time.

    A row is a case of a cell (method, n, m, alpha, sigma).  ``cells`` maps
    each cell key, as the Python objects it came as, to its index in
    first-seen order (keys equal by value are one cell, as in the
    aggregates); the ``cell`` column holds each row's index.  ``records`` are
    ``RESULT_FIELDS`` tuples to start from.
    """

    def __init__(self, records=()) -> None:
        self.cells = {}
        self._parts = {name: [] for name in ("cell", "case_id", *_VALUES)}
        columns = list(zip(*records)) or [()] * len(RESULT_FIELDS)
        codes = [self.cells.setdefault(cell, len(self.cells)) for cell in zip(*columns[1:6])]
        self._extend(codes, columns[0], dict(zip(_VALUES, columns[6:])))

    def append(self, cell: tuple, case_ids, **values) -> None:
        """The cases ``case_ids`` of one cell; a scalar value is shared by all of them."""
        self._extend(self.cells.setdefault(cell, len(self.cells)), case_ids, values)

    def _extend(self, codes, case_ids, values: dict) -> None:
        for name, column in (("cell", codes), ("case_id", case_ids), *values.items()):
            column = np.asarray(column, _DTYPES[name])
            self._parts[name].append(np.full(len(case_ids), column) if column.ndim == 0 else column)

    def __getitem__(self, name: str) -> np.ndarray:
        """One column, its blocks joined on first use."""
        parts = self._parts[name]
        if len(parts) != 1:
            parts[:] = [np.concatenate(parts)]
        return parts[0]

    def __len__(self) -> int:
        return len(self["case_id"])

    def ranks(self) -> np.ndarray:
        """Each row's cell rank in sorted key order."""
        rank = np.empty(len(self.cells), dtype=np.intp)
        rank[[self.cells[key] for key in sorted(self.cells)]] = np.arange(len(self.cells))
        return rank[self["cell"]]

    def order(self) -> np.ndarray:
        """Row order of ``ResultRow.key`` (case id, then cell key); ties keep row order."""
        return np.lexsort((self.ranks(), self["case_id"]))

    def records(self) -> list[list]:
        """Rows as they came, as lists of Python scalars."""
        keys = list(self.cells)
        return [[case_id, *keys[cell], *values] for case_id, cell, *values in
                zip(*(self[name].tolist() for name in ("case_id", "cell", *_VALUES)))]

    def lines(self):
        """CSV lines of the rows in ``order()``: each cell key formatted once by
        the csv module, integers by ``str``, floats by ``_reprs``."""
        writer = csv.writer(buf := io.StringIO(), lineterminator="")
        ends = list(itertools.accumulate(map(writer.writerow, self.cells)))   # lengths written
        text = buf.getvalue()
        keys = np.array([text[a:b] for a, b in zip([0, *ends], ends)], dtype=object)
        order = self.order()
        columns = [self["case_id"][order].tolist(), keys[self["cell"][order]].tolist()]
        columns += [_reprs(c) if c.dtype == np.float64 else c.tolist()
                    for c in (self[name][order] for name in _VALUES)]
        return map((",".join(["%s"] * len(columns)) + "\n").__mod__, zip(*columns))


def _reprs(values: np.ndarray) -> list[str]:
    """``repr`` of every float, each distinct bit pattern (so -0.0 apart from 0.0) once."""
    texts: dict[int, str] = {}
    return [texts.get(bits) or texts.setdefault(bits, repr(v))
            for bits, v in zip(values.view(np.int64).tolist(), values.tolist())]


def _result_columns(rows) -> _Columns:
    return _Columns(map(operator.attrgetter(*RESULT_FIELDS), rows))


def aggregate_rows(rows) -> list[dict]:
    """Mean/max/min/stddev of the error per (method, n, m, alpha, sigma) cell.

    ``rows`` is a list of ``ResultRow`` or a run's result columns.  A cell's
    errors are reduced as one contiguous array, in row order, by the ufunc
    reductions that ``ndarray.mean``, ``max``, ``min`` and ``std`` call, in
    the same order, without their Python-level wrappers.
    """
    table = rows if isinstance(rows, _Columns) else _result_columns(rows)
    ranks = table.ranks()
    counts = np.bincount(ranks, minlength=len(table.cells))
    by_cell = np.split(np.argsort(ranks, kind="stable"), np.cumsum(counts)[:-1])
    out = []
    for (method, n, m, alpha, sigma), indices in zip(sorted(table.cells), by_cell):
        errors = table["error_e"][indices]
        mean = np.add.reduce(errors) / errors.size
        out.append({
            "method": method, "n": n, "m": m, "alpha": alpha, "sigma": sigma,
            "mean": float(mean), "max": float(np.maximum.reduce(errors)),
            "min": float(np.minimum.reduce(errors)),
            "stddev": float(np.sqrt(np.add.reduce((errors - mean) ** 2) / errors.size)),
            "count": int(errors.size),
        })
    return out


class RunResult:
    """Everything one experiment run produces.

    Result rows are kept as columns: a runner appends each block's arrays
    (``_Cases.emit``), and ``ResultRow``s passed in become columns once;
    ``rows`` is a view built from them, in the order the rows came in.
    ``timings`` is a plain list of dicts, like ``diagnostics``: the loop
    appends one ``TIMING_FIELDS`` row per solved block and method.
    """

    def __init__(self, config: dict, rows=(), pod_decay=(), diagnostics=(), timings=()) -> None:
        self.config = config
        self.pod_decay = list(pod_decay)
        self.diagnostics = list(diagnostics)
        self.timings = list(timings)
        self._results = _result_columns(rows)

    @property
    def rows(self) -> list[ResultRow]:
        return [ResultRow(*r) for r in self._results.records()]

    @cached_property
    def aggregates(self) -> list[dict]:
        """``aggregate_rows``, computed once: the file and the printed table share it."""
        return aggregate_rows(self._results)

    def mean_error(self, method: str, **cell) -> float:
        """Mean error of one aggregate cell; extra keys filter the cell."""
        matches = [
            agg for agg in self.aggregates
            if agg["method"] == method and all(agg[k] == v for k, v in cell.items())
        ]
        if len(matches) != 1:
            raise KeyError(f"cell (method={method}, {cell}) matched {len(matches)} aggregates")
        return matches[0]["mean"]

    def errors(self, method: str, **cell) -> list[float]:
        """One method's errors in ``ResultRow.key`` order; extra keys (n, m, alpha,
        sigma) filter the cells."""
        want = {"method": method, **cell}
        codes = [code for key, code in self._results.cells.items()
                 if all(dict(zip(RESULT_FIELDS[1:6], key))[k] == v for k, v in want.items())]
        order = self._results.order()
        keep = np.isin(self._results["cell"][order], codes)
        return self._results["error_e"][order][keep].tolist()

    def write(self, out_dir: str | Path) -> None:
        """Every output file; results in ``ResultRow.key`` order, the dict tables
        in the order their rows came, headed by the first row's keys."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_versioned_csv(out / "results.csv", RESULT_FIELDS, self._results.lines())
        _write_table(out / "aggregates.csv", AGGREGATE_FIELDS, self.aggregates)
        if self.pod_decay:
            _write_pod_decay_csv(self.pod_decay, out / "pod_decay.csv")
        if self.diagnostics:
            _write_table(out / "diagnostics.csv", list(self.diagnostics[0]), self.diagnostics)
        _write_table(out / "timings.csv", list(self.timings[0]) if self.timings else TIMING_FIELDS,
                     self.timings)
        _write_run_json(self.config, out / "run.json")


def _write_versioned_csv(path: Path, header, lines) -> None:
    """The schema line and the CSV header, then the text ``lines``."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# schema_version={SCHEMA_VERSION}\n")
        csv.writer(fh, lineterminator="\n").writerow(header)
        fh.writelines(lines)


def _write_table(path: Path, header, rows: list[dict]) -> None:
    """One CSV row per dict, its values in header order ("" where a key is missing)."""
    csv.writer(buf := io.StringIO(), lineterminator="\n").writerows(
        [r.get(k, "") for k in header] for r in rows)
    _write_versioned_csv(path, header, [buf.getvalue()])


def _write_pod_decay_csv(rows: list[dict], path: Path) -> None:
    _write_table(path, ("label", "n", "approximation_error"), rows)


def _write_run_json(cfg: dict, path: Path) -> None:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": cfg,
        "versions": {"assim": __version__, "numpy": np.__version__},
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------

def _grid(cfg: dict) -> Grid:
    return Grid(cfg["grid.a"], cfg["grid.b"], cfg["grid.num_points"])


def _sensor_array(cfg: dict, m: int, grid: Grid) -> SensorArray:
    width = cfg["sensors.width"] or None
    return SensorArray.equidistant(m, grid, kind=cfg["sensors.kind"], width=width)


def _pair(cfg: dict, key: str) -> tuple[float, float]:
    lo, hi = cfg[key]       # _validate has checked there are two
    return float(lo), float(hi)


# ---------------------------------------------------------------------------
# offline set-up: everything an experiment builds before its first solve
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Setup:
    """The sampled snapshots, POD bases and truths of one experiment."""

    grid: Grid
    labeled: dict               # label -> (snapshots, POD basis), as pod_decay_rows takes them
    decay_n: list[int]          # the dimensions pod_decay.csv reports
    cases: int                  # benchmark cases per cell
    truth: GridFunction | None = None   # example3_analog's fixed reference profile

    def decay(self) -> list[dict]:
        return pod_decay_rows(self.labeled, self.decay_n)


def _setup_example1(cfg: dict) -> Setup:
    grid = _grid(cfg)
    spec = SinusoidSpec(_pair(cfg, "manifold.amplitude"), _pair(cfg, "manifold.period"))
    master = cfg["master_seed"]
    training = sample_sinusoids(spec, grid, cfg["training.count"], derive_seed(master, "training"))
    basis = pod(training, max(cfg["sweep.n"]))

    if cfg["validation.reuse_training"]:
        count = cfg["validation.count"]
        truths = SnapshotSet(grid, training.matrix[:count], training.parameters[:count], "full")
    else:
        truths = sample_sinusoids(spec, grid, cfg["validation.count"],
                                  derive_seed(master, "validation"))
    _check_truth_scale("manifold.amplitude", truths.matrix, basis, cfg)
    return Setup(grid, {"full": (truths, basis)}, cfg["sweep.n"], len(truths))


def _setup_example2(cfg: dict) -> Setup:
    grid = _grid(cfg)
    spec = MultiscaleSpec(
        num_frequencies=cfg["manifold.num_frequencies"],
        amplitude_range=_pair(cfg, "manifold.amplitude"),
        period_range=_pair(cfg, "manifold.period"),
        phase_range=_pair(cfg, "manifold.phase"),
        jump_location_range=_pair(cfg, "manifold.jump_location"),
        jump_height_range=_pair(cfg, "manifold.jump_height"),
    )
    master = cfg["master_seed"]

    fast_train, _slow_train, full_train = sample_multiscale(spec, grid, cfg["training.count"],
                                                            derive_seed(master, "training"))
    n_max = max(cfg["sweep.n"])
    fast_basis, full_basis = pod(fast_train, n_max), pod(full_train, n_max)

    fast_val, _slow_val, full_val = sample_multiscale(spec, grid, cfg["validation.count"],
                                                      derive_seed(master, "validation"))
    return Setup(grid, {"fast": (fast_val, fast_basis), "full": (full_val, full_basis)},
                 list(range(1, max(cfg["sweep.n"]) + 1)), len(full_val))


# smallest ratio of a ground truth's norm to the scale of a reconstruction
# that example1 and example3 accept: relative errors then stay below about
# 1e100, and their squares far from overflow
_TRUTH_SCALE_FLOOR = 1e-100


def _check_truth_scale(key: str, truths: np.ndarray, basis, cfg: dict) -> None:
    """Reject truths (rows, set by ``key``) whose relative errors cannot stay finite."""
    # every relative error divides by the truth's norm, and a reconstruction is
    # about as large as the noise or the training snapshots, whose norms the
    # POD's largest singular value bounds; a truth far below that scale gives
    # errors whose squares (aggregates.csv's stddev) overflow
    with np.errstate(over="ignore"):    # an overflowing norm is reported below
        norm = np.sqrt(truths**2 @ basis.subspace.grid.weights).min()
    scale = basis.singular_values[0] + cfg["noise.sigma"] * np.sqrt(max(cfg["sweep.m"]))
    if not (0 < norm < np.inf and norm >= _TRUTH_SCALE_FLOOR * scale):
        raise ConfigError(f"{key}={cfg[key]} gives a ground truth of norm {norm:.3g}, which "
                          f"must be positive, finite and at least {_TRUTH_SCALE_FLOOR:g} times "
                          f"the data's scale {scale:.3g}")


def _setup_example3_analog(cfg: dict) -> Setup:
    grid = _grid(cfg)
    spec = PowerLawSpec(
        peak_velocity_range=_pair(cfg, "manifold.peak_velocity"),
        flow_index_range=_pair(cfg, "manifold.flow_index"),
        radius=cfg["manifold.radius"],
    )
    seed = derive_seed(cfg["master_seed"], "training")
    training = sample_powerlaw(spec, grid, cfg["training.count"], seed)
    basis = pod(training, max(cfg["sweep.n"]))
    truth = powerlaw_profile(
        grid, cfg["truth.peak_velocity"], cfg["truth.flow_index"], cfg["manifold.radius"]
    )
    _check_truth_scale("truth.peak_velocity", truth.values[None], basis, cfg)
    return Setup(grid, {"full": (training, basis)}, sorted(set(cfg["sweep.n"])),
                 cfg["validation.count"], truth)


def setup_experiment(cfg: dict) -> Setup:
    """The offline set-up of the configured experiment, without any solve.

    The config is validated first, so a dict edited by hand gets the checks
    a parsed one does; set-up itself only rejects what needs its data.
    """
    _validate(cfg)
    return _EXPERIMENTS[cfg["experiment"]].setup(cfg)


# ---------------------------------------------------------------------------
# the online loop and each experiment's block solve
# ---------------------------------------------------------------------------

def _is_exact(model: NoiseModel) -> bool:
    return model.alpha == 0.0 and model.sigma == 0.0 and model.kind == LINEAR_BIAS_GAUSSIAN


def _data_block(truths: np.ndarray, space, model: NoiseModel, cases: _Cases) -> np.ndarray:
    """m x K onb data of a (num_points, K) truth block, case k's seed drawing column k's noise.

    Column k is ``observe_noisy`` of truth k up to roundoff: the exact
    coordinates for a noiseless model, else ``apply_noise``.
    """
    if _is_exact(model):
        return space.onb.weighted_matrix @ truths
    readings = model.biased_readings(space.functional_matrix @ truths)
    if model.sigma > 0:
        readings = readings + _normal_columns(cases.words, model.sigma, space.m)
    return space.coords_from_raw(readings)


def observe_noisy(truth, space, model: NoiseModel, seed: int):
    """Noisy observation, falling back to the exact one for a degenerate model."""
    if _is_exact(model):
        return observe(truth, space)
    return apply_noise(truth, space, model, seed)


def _norms(grid: Grid, block: np.ndarray) -> np.ndarray:
    """Weighted l2 norm of every column of a (num_points, K) block."""
    return np.sqrt(grid.weights @ block**2)


@dataclass(frozen=True)
class _Cases:
    """Cases of one (n, m, alpha) cell whose solves are timed together."""

    key: tuple                  # (n, m, alpha, sigma)
    case_ids: range
    seeds: list[int]            # seeds[k] draws the noise of case_ids[k]
    words: np.ndarray | None    # the seeds' _pcg64_words, where _data_block draws noise

    def emit(self, result: RunResult, method: str, errors, beta: float, block_ms: float) -> None:
        """The block's result columns and its one timing row for ``method``.

        A non-finite or negative error rejects the block before any of it is kept.
        """
        errors = np.asarray(errors, dtype=np.float64)
        bad = ~np.isfinite(errors) | (errors < 0)     # ResultRow's check, once per block
        if bad.any():
            raise ValueError(f"error_e must be finite and nonnegative, got {errors[bad][0]}")
        cell = (method, *self.key)
        result._results.append(cell, self.case_ids, error_e=errors, beta=beta, seed=self.seeds)
        result.timings.append(dict(zip(TIMING_FIELDS, (*cell, self.case_ids.start,
                                                       len(self.case_ids), block_ms))))


def _backgrounds(cfg: dict, setup: Setup, n: int) -> tuple:
    """Every labeled POD basis truncated to n modes, in label order."""
    return tuple(basis.subspace.truncate(n) for _snapshots, basis in setup.labeled.values())


@dataclass(frozen=True)
class _Experiment:
    """One experiment as the online loop runs it.

    ``per_n(cfg, setup, n)`` prepares what one dimension's cells share, and
    ``per_m(cfg, setup, space)`` what one sensor count's cells share; it
    returns their block solve ``(per_n, model, cases, diagnostics)``, which
    gives ``(method, errors, beta, block_ms)`` per method and appends the
    block's diagnostic rows.  A block holds at most ``chunk`` cases (None: the
    whole cell); ``draws`` is set where the solve draws noise with ``_data_block``.
    """

    setup: Callable[[dict], Setup]
    per_m: Callable
    per_n: Callable = _backgrounds
    chunk: int | None = None
    draws: bool = True


def _elapsed_ms(start: float) -> float:
    return (time.perf_counter() - start) * 1e3


def _run(cfg: dict, experiment: str) -> RunResult:
    """Offline set-up, then every block of cases of every feasible (n, m, alpha) cell.

    The blocks are laid out once, as (m, n, noise model, case ids) in loop
    order; every case seed comes from that layout in one ``derive_seeds`` pass
    and the loop walks the same layout, so the two orders cannot drift apart.
    """
    if cfg["experiment"] != experiment:
        raise ConfigError(f"config is for {cfg['experiment']!r}, expected {experiment!r}")
    spec = _EXPERIMENTS[experiment]
    setup = setup_experiment(cfg)
    count = setup.cases
    chunk = spec.chunk or count
    swept = "sweep.alpha" in cfg
    models = [NoiseModel(cfg["noise.kind"], alpha, cfg["noise.sigma"], cfg["noise.mc_samples"])
              for alpha in (cfg["sweep.alpha"] if swept else [cfg["noise.alpha"]])]
    # cells with n > m are skipped; _validate has checked that one is not
    blocks = [(m, n, model, range(lo, min(lo + chunk, count)))
              for m in cfg["sweep.m"] for n in cfg["sweep.n"] if n <= m
              for model in models for lo in range(0, count, chunk)]
    seeds = derive_seeds(cfg["master_seed"], (
        ("noise", case_id, "m", m, "n", n, *(("alpha", repr(model.alpha)) if swept else ()))
        for m, n, model, case_ids in blocks for case_id in case_ids
    ))
    words = _pcg64_words(seeds) if spec.draws and cfg["noise.sigma"] > 0 else None
    per_n = {n: spec.per_n(cfg, setup, n) for n in dict.fromkeys(b[1] for b in blocks)}

    result = RunResult(cfg, pod_decay=setup.decay())
    taken = 0
    for m, group in itertools.groupby(blocks, key=operator.itemgetter(0)):
        solve = spec.per_m(cfg, setup, build_observation_space(
            _sensor_array(cfg, m, setup.grid), setup.grid))
        for _m, n, model, case_ids in group:
            lo, taken = taken, taken + len(case_ids)
            cases = _Cases((n, m, model.alpha, model.sigma), case_ids, seeds[lo:taken],
                           None if words is None else words[lo:taken])
            for method, errors, beta, block_ms in solve(per_n[n], model, cases,
                                                        result.diagnostics):
                cases.emit(result, method, errors, beta, block_ms)
    return result


def run_example1(cfg: dict) -> RunResult:
    """Sinusoid background: plain vs bias-corrected solve over (n, m, alpha)."""
    return _run(cfg, "example1")


def run_example2(cfg: dict) -> RunResult:
    """Discontinuous background: multiscale split vs full-basis solve."""
    return _run(cfg, "example2")


def run_example3_analog(cfg: dict) -> RunResult:
    """Power-law profiles: box-constrained plain vs bias-corrected solve."""
    return _run(cfg, "example3_analog")


def run_experiment(cfg: dict) -> RunResult:
    return _run(cfg, cfg["experiment"])


def _example1(cfg: dict, setup: Setup, space) -> Callable:
    """A cell's plain and bias-corrected solves, each one m x K block solve."""
    truth_block = np.ascontiguousarray(setup.labeled["full"][0].matrix.T)
    truth_norms = _norms(setup.grid, truth_block)

    def solve(backgrounds, model: NoiseModel, cases: _Cases, _diagnostics: list) -> list:
        (background,) = backgrounds
        data = _data_block(truth_block, space, model, cases)
        start = time.perf_counter()
        plain = pbdw_solve_block(data, background, space)
        plain_ms = _elapsed_ms(start)
        corrected = bpbdw_correct_block(plain, background, space, model)
        # the corrected method includes the plain solve it starts from
        corrected_ms = _elapsed_ms(start)
        return [(method, _norms(setup.grid, rec.states - truth_block) / truth_norms,
                 rec.beta, block_ms)
                for method, rec, block_ms in (("pbdw", plain, plain_ms),
                                              ("bpbdw", corrected, corrected_ms))]
    return solve


# Columns per example2 block.  Whole-cell blocks run no faster and raise the
# peak memory of a run by about a quarter; 32 columns cost about 1 %.
_CHUNK = 32


def _example2(cfg: dict, setup: Setup, space) -> Callable:
    """A column block's split and full-basis solves, and its jump diagnostics."""
    grid = setup.grid
    dictionary = step_dictionary(grid, space, _pair(cfg, "manifold.jump_location"),
                                 cfg["dictionary.stride"])
    locations = np.array([p["jump_location"] for p in dictionary.parameters])
    # the truths as rows and their jump locations, optionally snapped onto the dictionary
    (fast_val, _), (full_val, _) = setup.labeled["fast"], setup.labeled["full"]
    true_locations = np.array([p["jump_location"] for p in full_val.parameters])
    truths = full_val.matrix
    if cfg["dictionary.snap_truth"]:
        true_locations = locations[np.abs(locations - true_locations[:, None]).argmin(axis=1)]
        heights = np.array([p["jump_height"] for p in full_val.parameters])
        steps = grid.nodes >= true_locations[:, None] - 1e-12
        truths = fast_val.matrix + heights[:, None] * steps
    locations, true_locations = locations.tolist(), true_locations.tolist()

    def solve(backgrounds, model: NoiseModel, cases: _Cases, diagnostics: list) -> list:
        fast_bg, full_bg = backgrounds
        ids = cases.case_ids
        truth_block = np.ascontiguousarray(truths[ids.start:ids.stop].T)
        data = _data_block(truth_block, space, model, cases)
        start = time.perf_counter()
        split = spbdw_reconstruct_block(
            data, fast_bg, space, dictionary,
            # the split is bias-corrected only when the data are noisy
            model=None if _is_exact(model) else model,
            rel_tol=cfg["spbdw.rel_tol"], max_iters=cfg["spbdw.max_iters"],
        )
        split_ms = _elapsed_ms(start)
        start = time.perf_counter()
        plain = pbdw_solve_block(data, full_bg, space)
        plain_ms = _elapsed_ms(start)

        n, m = cases.key[:2]
        # multiscale.total_variation of every column: the truth's, then each method's
        tv_truth, *tv_methods = (np.abs(np.diff(block, axis=0)).sum(axis=0)
                                 for block in (truth_block, split.u_star, plain.states))
        per_case = zip(ids, split.dominant_indices().tolist(), split.greedy.counts.tolist(),
                       tv_truth.tolist(), *((tv - tv_truth).tolist() for tv in tv_methods))
        for case_id, dominant, count, tv, tv_split, tv_plain in per_case:
            true_location = true_locations[case_id]
            estimated = "" if dominant < 0 else locations[dominant]
            cells_off = "" if dominant < 0 else abs(estimated - true_location) / grid.h
            diagnostics.append({
                "case_id": case_id, "n": n, "m": m,
                "jump_location_true": true_location,
                "jump_location_estimated": estimated, "jump_cells_off": cells_off,
                "num_smoothers": count, "tv_truth": tv,
                "tv_excess_spbdw": tv_split, "tv_excess_pbdw": tv_plain,
            })
        truth_norms = _norms(grid, truth_block)
        return [(method, _norms(grid, states - truth_block) / truth_norms, beta, block_ms)
                for method, states, beta, block_ms in (
                    ("spbdw", split.u_star, split.u_f.beta, split_ms),
                    ("pbdw", plain.states, plain.beta, plain_ms))]
    return solve


def _example3_per_n(cfg: dict, setup: Setup, n: int) -> tuple:
    """The n-mode background and its coefficient box, which does not depend on m."""
    (background,) = _backgrounds(cfg, setup, n)
    return background, compute_box(setup.labeled["full"][0], background, cfg["box.margin"])


def _example3(cfg: dict, setup: Setup, space) -> Callable:
    """A cell's box-constrained plain and bias-corrected solves, case by case.

    The benchmark's library runner rebuilds these rows with per-case calls and
    compares them for equality; observe_noisy draws each case's noise itself.
    """
    truth = setup.truth
    truth_norm = truth.norm()

    def solve(prepared, model: NoiseModel, cases: _Cases, diagnostics: list) -> list:
        background, box = prepared
        observations = [observe_noisy(truth, space, model, seed) for seed in cases.seeds]
        start = time.perf_counter()
        plain = [pbdw_solve_boxed(omega, background, space, box) for omega in observations]
        plain_ms = _elapsed_ms(start)
        # each corrected solve starts from its plain one, as bpbdw_reconstruct does
        corrected = [
            pbdw_solve_boxed(corrected_constraint(rec.state, space, model, seed),
                             background, space, box)
            for rec, seed in zip(plain, cases.seeds)
        ]
        corrected_ms = _elapsed_ms(start)
        n, m = cases.key[:2]
        for case_id, pair in zip(cases.case_ids, zip(plain, corrected)):
            for method, rec in zip(("pbdw", "bpbdw"), pair):
                energy = float(np.sum(rec.rom_coeffs**2))
                fraction = float(rec.rom_coeffs[0] ** 2 / energy) if energy > 0 else 0.0
                diagnostics.append({"case_id": case_id, "method": method, "n": n,
                                    "m": m, "mode1_energy_fraction": fraction})
        return [(method, [(rec.state - truth).norm() / truth_norm for rec in recs],
                 recs[0].beta, block_ms)
                for method, recs, block_ms in (("pbdw", plain, plain_ms),
                                               ("bpbdw", corrected, corrected_ms))]
    return solve


_EXPERIMENTS = {
    "example1": _Experiment(_setup_example1, _example1),
    "example2": _Experiment(_setup_example2, _example2, chunk=_CHUNK),
    "example3_analog": _Experiment(_setup_example3_analog, _example3, _example3_per_n,
                                   draws=False),
}


def pod_decay_rows(labeled: dict, n_values: list[int]) -> list[dict]:
    """Approximation-error decay rows for labeled (snapshots, basis) pairs."""
    rows = []
    for label in sorted(labeled):
        snapshots, basis = labeled[label]
        usable = [n for n in n_values if 1 <= n <= basis.dimension]
        errors = decay_curve(snapshots, basis, usable)
        rows.extend(
            {"label": label, "n": n, "approximation_error": err}
            for n, err in zip(usable, errors)
        )
    return rows

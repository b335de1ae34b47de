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

One online loop (``run_experiment``) runs every experiment, a record in
``_EXPERIMENTS``, after its offline set-up (``setup_experiment``): it builds
the solve plans of each sensor count before it times a block, solves the
(n, m) pairs with n <= m and a stable plan in blocks of cases, each case at
every alpha of the run, and writes one ``timings.csv`` row per block and
method; ``run.json`` lists the skipped cells.  Every case's
random stream is derived from (master_seed, case id, stage), so a rerun with
the same master seed reproduces ``results.csv``.

Configuration is a flat ``key = value`` text format with dotted keys,
overridable one key at a time (``--set key=value`` on the CLI).  ``SCHEMA``
is the whole contract of each key on its own, one row per key: its type
(parser, and the type's rule: floats finite, sweeps non-empty without
repeats, ranges two ordered values), its default per experiment, its help,
and its range or choices.  ``_validate`` checks every row, then the rules
that join keys; ``assim info`` prints the rows.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import functools
import io
import itertools
import json
import math
import operator
import time
import zlib
from collections.abc import Callable
from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .bias import (
    LINEAR_BIAS_GAUSSIAN,
    NoiseModel,
    apply_noise,
    bpbdw_correct_block,
    corrected_constraint_block,
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
    unit_steps,
)
from .obs import (BOX_AVERAGE, POINTWISE, DependentSensorsError, SensorArray,
                  build_observation_space, observe)
from .rom import decay_curve, pod
from .solver import (StabilityError, _matvec, _plan, compute_box, pbdw_solve_block,
                     pbdw_solve_boxed_block)
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
    "pod_decay_rows",
    "aggregate_rows",
    "describe_schema",
]

SCHEMA_VERSION = 1

EXPERIMENTS = (_E1, _E2, _E3) = ("example1", "example2", "example3_analog")

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


def _list_of(parse: Callable) -> Callable:
    return lambda text: [parse(tok) for tok in text.split(",") if tok.strip()]


# type name -> (parser, the rule each value keeps); a list is a sweep, each value its own cells
_TYPES = {
    "str": (str.strip, ""),
    "int": (lambda t: int(t.strip()), ""),
    "float": (lambda t: float(t.strip()), "must be finite"),
    "bool": (_parse_bool, ""),
    "int_list": (_list_of(int), "must be a non-empty list without repeats"),
    "float_list": (_list_of(float), "must be a non-empty list of finite values without repeats"),
    "float_range": (_list_of(float), "must be two finite values lo <= hi"),
}


class _Key(NamedTuple):
    """A ``SCHEMA`` row: all that holds for one key on its own."""

    type: str                   # a _TYPES name
    defaults: dict              # experiment -> default; the key applies to these experiments
    help: str
    lower: tuple | None = None  # (bound, whether it is allowed), for each value of a list
    upper: tuple | None = None  # the same, and only with a lower bound
    choices: tuple = ()         # the only values allowed, if any

    def limits(self) -> str:
        """The range or choices, in the words of the error that enforces them."""
        if self.choices:
            return "must be " + " or ".join(map(repr, self.choices))
        if self.upper:
            (lo, lo_in), (hi, hi_in) = self.lower, self.upper
            return f"must lie in {'[' if lo_in else '('}{lo}, {hi}{']' if hi_in else ')'}"
        if self.lower:
            return f"must be {'>=' if self.lower[1] else '>'} {self.lower[0]}"
        return ""

    def check(self, key: str, value) -> None:
        """Reject, naming ``key``, a value that breaks its type's rule or this row's limits."""
        values = value if isinstance(value, list) else [value]
        sweep, pair = self.type.endswith("_list"), self.type == "float_range"
        if self.type.startswith("float") and not all(map(math.isfinite, values)):
            raise ConfigError(f"{key} must be finite, got {value}")
        if sweep and not values:
            raise ConfigError(f"{key} must not be empty")
        # compared by value, so 0 and -0.0 repeat; a repeat would duplicate its rows
        if sweep and len(set(values)) < len(values):
            raise ConfigError(f"{key} repeats a value, got {values}")
        # the spec classes reject these two too, without the key
        if pair and len(values) != 2:
            raise ConfigError(f"{key} must have exactly two entries (lo, hi), got {value}")
        if pair and not values[0] <= values[1]:
            raise ConfigError(f"{key} range {value} is not well ordered (lo <= hi)")
        if self.choices:
            allowed = value in self.choices
        else:
            (lo, lo_in), (hi, hi_in) = self.lower or (-math.inf, 1), self.upper or (math.inf, 1)
            allowed = all(lo < v < hi or (v == lo and lo_in) or (v == hi and hi_in) for v in values)
        if not allowed:
            raise ConfigError(f"{key} {self.limits()}, got {value!r}")


def _each(*values) -> dict:
    """Defaults in ``EXPERIMENTS`` order; one value serves every experiment."""
    return dict(zip(EXPERIMENTS, values if len(values) > 1 else values * len(EXPERIMENTS)))


# The library objects reject most of these limits with messages that do not
# name the key; SeedSequence takes only non-negative seeds, and the
# ground-truth profile divides by both truth values.
SCHEMA = {
    "experiment": _Key("str", _each(*EXPERIMENTS), "which experiment to run", choices=EXPERIMENTS),
    "master_seed": _Key("int", _each(20240605), "root of every random stream", (0, True)),
    "grid.a": _Key("float", _each(0.0, 0.0, -0.5), "left endpoint"),
    "grid.b": _Key("float", _each(2 * PI, 2 * PI, 0.5), "right endpoint"),
    "grid.num_points": _Key("int", _each(512, 512, 257), "grid resolution", (2, True)),
    "training.count": _Key("int", _each(128, 256, 128), "training snapshots", (1, True)),
    "validation.count": _Key("int", _each(64, 20, 40), "benchmark cases", (1, True)),
    "validation.reuse_training": _Key("bool", {_E1: False},
                                      "draw truths from the training set (diagnostics only)"),
    "sensors.kind": _Key("str", _each(BOX_AVERAGE), "sensor kind",
                         choices=(POINTWISE, BOX_AVERAGE)),
    "sensors.width": _Key("float", _each(0.0), "box width, 0 for the sensor spacing", (0.0, True)),
    "sweep.n": _Key("int_list", _each(list(range(1, 13)), [20], [5]), "reduced dimensions to sweep",
                    (1, True)),
    "sweep.m": _Key("int_list", _each([25], [40], [20]), "sensor counts to sweep", (1, True)),
    # an empirical_table model needs a table, which no config key supplies
    "noise.kind": _Key("str", _each(LINEAR_BIAS_GAUSSIAN), "noise model kind",
                       choices=(LINEAR_BIAS_GAUSSIAN,)),
    "noise.sigma": _Key("float", _each(0.325, 0.0, 2.0), "Gaussian spread per raw sensor reading",
                        (0.0, True)),
    "noise.mc_samples": _Key("int", _each(1000), "Monte Carlo samples of an empirical_table noise "
                             "model; no config builds one, so no run reads this", (1, True)),
    "sweep.alpha": _Key("float_list", {_E1: [0.1]}, "bias slopes to sweep", (-1.0, False)),
    "manifold.amplitude": _Key("float_range", {_E1: [25.0, 40.0], _E2: [0.4, 1.0]},
                               "amplitude range"),
    "manifold.period": _Key("float_range", {_E1: [PI, 2 * PI], _E2: [PI / 4, PI]}, "period range",
                            (0.0, False)),
    "noise.alpha": _Key("float", {_E2: 0.0, _E3: 0.15}, "bias slope", (-1.0, False)),
    "manifold.num_frequencies": _Key("int", {_E2: 3}, "sinusoids per snapshot", (1, True)),
    "manifold.phase": _Key("float_range", {_E2: [0.0, 2 * PI]}, "phase range"),
    "manifold.jump_location": _Key("float_range", {_E2: [PI / 2, 3 * PI / 2]},
                                   "jump location range"),
    "manifold.jump_height": _Key("float_range", {_E2: [2.5, 4.5]},
                                 "jump height range; the split's step search looks for "
                                 "upward steps", (0.0, True)),
    "dictionary.stride": _Key("int", {_E2: 12}, "grid nodes between step candidates", (1, True)),
    "dictionary.snap_truth": _Key("bool", {_E2: True},
                                  "snap truth jumps onto dictionary locations"),
    "spbdw.rel_tol": _Key("float", {_E2: 0.05}, "greedy stopping tolerance", (0, False), (1, True)),
    "spbdw.max_iters": _Key("int", {_E2: 5}, "greedy iteration cap", (1, True)),
    "manifold.peak_velocity": _Key("float_range", {_E3: [40.0, 60.0]}, "peak velocity range [cm/s]",
                                   (0.0, True)),
    "manifold.flow_index": _Key("float_range", {_E3: [0.8, 1.2]}, "flow index range", (0.0, False)),
    "manifold.radius": _Key("float", {_E3: 0.5}, "tube radius [cm]", (0.0, False)),
    "truth.peak_velocity": _Key("float", {_E3: 50.0}, "ground-truth peak velocity", (0.0, False)),
    "truth.flow_index": _Key("float", {_E3: 1.0}, "ground-truth flow index", (0.0, False)),
    "box.margin": _Key("float", {_E3: 1.1}, "coefficient box widening factor", (0.0, True)),
}


def default_config(experiment: str) -> dict:
    """Fully resolved defaults for one experiment."""
    SCHEMA["experiment"].check("experiment", experiment)
    return {key: copy.copy(row.defaults[experiment])
            for key, row in SCHEMA.items() if experiment in row.defaults}


def _parse(key: str, raw: str, where: str):
    """One entry's value, read by its key's parser."""
    if key not in SCHEMA:
        raise ConfigError(f"{where}: unknown key {key!r}")
    typ = SCHEMA[key].type
    try:
        return _TYPES[typ][0](raw)
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
        entries[key.strip()] = _parse(key.strip(), raw, f"{source}:{lineno}")
    if (experiment := entries.get("experiment")) is None:
        raise ConfigError(f"{source}: missing required key 'experiment'")
    cfg = default_config(experiment)
    for key in entries:
        if experiment not in SCHEMA[key].defaults:
            raise ConfigError(f"{source}: key {key!r} does not apply to experiment {experiment!r}")
    return cfg | entries


def _override(cfg: dict, pairs: list[str]) -> dict:
    """``key=value`` overrides on top of a resolved config, not yet validated."""
    cfg = dict(cfg)
    for i, pair in enumerate(pairs, start=1):
        if "=" not in pair:
            raise ConfigError(f"--set #{i}: expected key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        value = _parse(key := key.strip(), raw, f"--set #{i}")
        if key == "experiment":
            raise ConfigError("--set cannot change the experiment; edit the config file")
        if cfg["experiment"] not in SCHEMA[key].defaults:
            raise ConfigError(f"--set #{i}: key {key!r} does not apply to {cfg['experiment']!r}")
        cfg[key] = value
    return cfg


def parse_config(text: str, source: str = "<config>") -> dict:
    """Parse flat ``key = value`` text into a fully resolved config."""
    return _validate(_resolve(text, source))


def parse_overrides(cfg: dict, pairs: list[str]) -> dict:
    """Apply ``key=value`` override strings on top of a resolved config."""
    return _validate(_override(cfg, pairs))


def load_config(path: str | Path, overrides: list[str] | None = None) -> dict:
    """A config file with its overrides applied, validated once as a whole."""
    return _validate(_override(_resolve(Path(path).read_text(), str(path)), overrides or []))


def _validate(cfg: dict) -> dict:
    for key, value in cfg.items():      # each key on its own, then the keys together
        SCHEMA[key].check(key, value)
    if not cfg["grid.a"] < cfg["grid.b"]:
        raise ConfigError(f"grid.a must be < grid.b, got [{cfg['grid.a']}, {cfg['grid.b']}]")
    grid, spec = _grid(cfg), _manifold_spec(cfg)
    # the library's own checks of what set-up and the split build, each naming its keys
    if cfg["experiment"] == _E2:
        from .multiscale import step_nodes

        stride = cfg["dictionary.stride"]
        with _naming("manifold.jump_location"):
            spec.validate_on(grid)
        with _naming(f"dictionary.stride={stride}"):
            step_nodes(grid, spec.jump_location_range, stride)
    if cfg["experiment"] == _E3:
        with _naming("grid.a, grid.b and manifold.radius"):
            spec.validate_on(grid)
    if cfg["sensors.kind"] == POINTWISE and cfg["sensors.width"]:
        raise ConfigError(f"sensors.width={cfg['sensors.width']} has no effect on pointwise "
                          f"sensors; set it to 0 or use sensors.kind={BOX_AVERAGE}")
    for m in cfg["sweep.m"]:
        with _naming(f"sweep.m={m}"):
            _sensor_array(cfg, m, grid).validate_on(grid)
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


@contextlib.contextmanager
def _naming(key: str):
    """Turn the ValueError of a library check run inside into a ConfigError led by ``key``."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def describe_schema() -> str:
    """Human-readable schema listing for the CLI."""
    out = io.StringIO()
    out.write("configuration keys (flat `key = value` lines; lists are comma separated)\n\n")
    for key, row in SCHEMA.items():
        out.write(f"  {key}  [{row.type}]  {row.help}\n")
        if rules := "; ".join(filter(None, (_TYPES[row.type][1], row.limits()))):
            out.write(f"      {rules}\n")
        defaults = (f"{exp} = {value!r}" for exp, value in sorted(row.defaults.items()))
        out.write(f"      defaults: {', '.join(defaults)}\n")
    out.write("\noutputs: results.csv (per-case rows), aggregates.csv, pod_decay.csv,\n"
              "diagnostics.csv (experiment-specific), timings.csv, run.json\n")
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


def derive_seeds(master_seed: int, texts) -> list[int]:
    """``derive_seed(master_seed, *key)`` for every key, hashed in one pass.

    Each key comes as the text ``derive_seed`` hashes, ``":".join(map(str, key))``;
    ``texts`` may be any iterable, so a generator keeps them out of memory.
    """
    digests = np.fromiter((zlib.crc32(text.encode()) for text in texts), dtype=np.uint32)
    master = np.array(_uint32_words(int(master_seed)), dtype=np.uint32)
    entropy = np.empty((len(master) + 1, len(digests)), dtype=np.uint32)
    entropy[:-1] = master[:, None]
    entropy[-1] = digests
    return _seed_states(entropy, 1)[:, 0].tolist()


def _pcg64_words(seeds: list[int]) -> np.ndarray:
    """(K, 4) uint64 words that ``default_rng(seeds[k])`` seeds its PCG64 with.

    Row k is ``SeedSequence(seeds[k]).generate_state(4, np.uint64)``.  Every
    seed is hashed as its two uint32 words, low word first (its little-endian
    halves): SeedSequence pads its pool with zero words, so a seed below 2**32
    and that seed with a zero high word give the same state.
    """
    return _seed_states(np.asarray(seeds, dtype="<u8").view("<u4").reshape(-1, 2).T, 4)


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
TIMING_FIELDS = ("method", "n", "m", "sigma", "first_case", "cases", "block_ms")
AGGREGATE_FIELDS = ("method", "n", "m", "alpha", "sigma", "mean", "max", "min", "stddev", "count")
POD_DECAY_FIELDS = ("label", "n", "approximation_error")


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

    def append(self, cells: list[tuple], case_ids, **values) -> None:
        """The cases ``case_ids`` of each cell in ``cells`` in turn; a value is one per
        row, or a scalar shared by all of them."""
        codes = [self.cells.setdefault(cell, len(self.cells)) for cell in cells]
        self._extend(np.repeat(codes, len(case_ids)), np.tile(case_ids, len(cells)), values)

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
    appends one ``TIMING_FIELDS`` row per solved block and method, whose
    ``cases`` counts the result rows the block appended for that method
    (its case ids at each alpha of the run, so the row has no alpha).
    ``skipped`` holds one ``{"n", "m", "reason"}`` dict per swept cell the
    loop did not solve, for ``run.json``.
    """

    def __init__(self, config: dict, rows=(), pod_decay=(), diagnostics=(), timings=(),
                 skipped=()) -> None:
        self.config = config
        self.pod_decay = list(pod_decay)
        self.diagnostics = list(diagnostics)
        self.timings = list(timings)
        self.skipped = list(skipped)
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
            _write_table(out / "pod_decay.csv", POD_DECAY_FIELDS, self.pod_decay)
        if self.diagnostics:
            _write_table(out / "diagnostics.csv", list(self.diagnostics[0]), self.diagnostics)
        _write_table(out / "timings.csv", list(self.timings[0]) if self.timings else TIMING_FIELDS,
                     self.timings)
        _write_run_json(self.config, out / "run.json", self.skipped)


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


def _write_run_json(cfg: dict, path: Path, skipped=()) -> None:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": cfg,
        "skipped": list(skipped),
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


def _manifold_spec(cfg: dict):
    """The experiment's manifold spec: its field ``x_range`` or ``x`` is the key ``manifold.x``."""
    cls = _EXPERIMENTS[cfg["experiment"]].manifold
    return cls(**{field.name: _pair(cfg, f"manifold.{field.name[:-6]}")
                  if field.name.endswith("_range") else cfg[f"manifold.{field.name}"]
                  for field in fields(cls)})


# ---------------------------------------------------------------------------
# offline set-up: everything an experiment builds before its first solve
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Setup:
    """The sampled snapshots, POD bases and truths of one experiment."""

    grid: Grid
    labeled: dict               # label -> (snapshots, POD basis), as pod_decay_rows takes them
    decay_n: list[int]          # the dimensions pod_decay.csv reports
    truth: GridFunction | None = None   # example3_analog's fixed reference profile

    def decay(self) -> list[dict]:
        return pod_decay_rows(self.labeled, self.decay_n)


def _setup_example1(cfg: dict, grid: Grid, spec: SinusoidSpec) -> Setup:
    master = cfg["master_seed"]
    training = sample_sinusoids(spec, grid, cfg["training.count"], derive_seed(master, "training"))
    basis = pod(training, max(cfg["sweep.n"]))

    if cfg["validation.reuse_training"]:
        count = cfg["validation.count"]
        truths = SnapshotSet(grid, training.matrix[:count], training.parameters[:count], "full")
    else:
        truths = sample_sinusoids(spec, grid, cfg["validation.count"],
                                  derive_seed(master, "validation"))
    _check_truth_scale(cfg, truths.matrix, basis, "manifold.amplitude", "manifold.amplitude")
    return Setup(grid, {"full": (truths, basis)}, cfg["sweep.n"])


def _setup_example2(cfg: dict, grid: Grid, spec: MultiscaleSpec) -> Setup:
    master = cfg["master_seed"]

    fast_train, _slow_train, full_train = sample_multiscale(spec, grid, cfg["training.count"],
                                                            derive_seed(master, "training"))
    n_max = max(cfg["sweep.n"])
    fast_basis, full_basis = pod(fast_train, n_max), pod(full_train, n_max)

    fast_val, _slow_val, full_val = sample_multiscale(spec, grid, cfg["validation.count"],
                                                      derive_seed(master, "validation"))
    # the truths and the snapshots are smooth parts plus jumps: the wider range sets their scale
    key = max(("manifold.amplitude", "manifold.jump_height"), key=lambda k: max(map(abs, cfg[k])))
    _check_truth_scale(cfg, full_val.matrix, full_basis, key, key)
    return Setup(grid, {"fast": (fast_val, fast_basis), "full": (full_val, full_basis)},
                 list(range(1, max(cfg["sweep.n"]) + 1)))


# a ground truth's norm must be at least _TRUTH_SCALE_FLOOR times the data's
# scale, which must stay below _DATA_SCALE_CEILING: relative errors then stay
# below about 1e100, and the squares of data, states and errors far from overflow
_TRUTH_SCALE_FLOOR, _DATA_SCALE_CEILING = 1e-100, 1e150


def _check_truth_scale(cfg: dict, truths: np.ndarray, basis, truth_key: str,
                       snapshot_key: str) -> None:
    """Reject truths (rows, set by ``truth_key``) and data whose relative errors cannot stay
    finite, naming the key of the data's largest term unless the truth is at fault.  A state
    is about as large as the data: the snapshots (whose norms the POD's top singular value
    bounds) times g**2 for the bias gain g = 1 + |alpha|, plus the noise times g."""
    with np.errstate(over="ignore"):    # an overflowing norm is reported below
        norm = np.sqrt(truths**2 @ basis.subspace.grid.weights).min()
    slope = "sweep.alpha" if "sweep.alpha" in cfg else "noise.alpha"
    gain = 1 + float(np.abs(cfg[slope]).max())     # Python floats overflow to inf silently
    top = float(basis.singular_values[0])
    terms = {snapshot_key: top, slope: (gain * gain - 1) * top,
             "noise.sigma": gain * cfg["noise.sigma"] * math.sqrt(max(cfg["sweep.m"]))}
    scale, key = sum(terms.values()), max(terms, key=terms.get)
    if scale > _DATA_SCALE_CEILING:
        raise ConfigError(f"{key}={cfg[key]} puts the data's scale at {scale:.3g}, above "
                          f"the {_DATA_SCALE_CEILING:g} whose squares stay finite")
    if not (0 < norm < np.inf and norm >= _TRUTH_SCALE_FLOOR * scale):
        key = truth_key if key == snapshot_key or not 0 < norm < np.inf else key
        raise ConfigError(f"{key}={cfg[key]} gives a ground truth of norm {norm:.3g}, which "
                          f"must be positive, finite and at least {_TRUTH_SCALE_FLOOR:g} times "
                          f"the data's scale {scale:.3g}")


def _setup_example3_analog(cfg: dict, grid: Grid, spec: PowerLawSpec) -> Setup:
    seed = derive_seed(cfg["master_seed"], "training")
    training = sample_powerlaw(spec, grid, cfg["training.count"], seed)
    basis = pod(training, max(cfg["sweep.n"]))
    truth = powerlaw_profile(
        grid, cfg["truth.peak_velocity"], cfg["truth.flow_index"], cfg["manifold.radius"]
    )
    _check_truth_scale(cfg, truth.values[None], basis, "truth.peak_velocity",
                       "manifold.peak_velocity")
    return Setup(grid, {"full": (training, basis)}, sorted(cfg["sweep.n"]), truth)


def setup_experiment(cfg: dict) -> Setup:
    """The offline set-up of the configured experiment, without any solve.

    The config is validated first, so a dict edited by hand gets the checks
    a parsed one does; set-up itself only rejects what needs its data.
    """
    _validate(cfg)
    return _EXPERIMENTS[cfg["experiment"]].setup(cfg, _grid(cfg), _manifold_spec(cfg))


# ---------------------------------------------------------------------------
# the online loop and each experiment's block solve
# ---------------------------------------------------------------------------

def _is_exact(model: NoiseModel) -> bool:
    return model.alpha == 0.0 and model.sigma == 0.0 and model.kind == LINEAR_BIAS_GAUSSIAN


class _Observed:
    """A (num_points, K) truth block's clean observations on one space, each made on first use."""

    def __init__(self, truths: np.ndarray, space) -> None:
        self.truths, self.space = truths, space

    @cached_property
    def raw(self) -> np.ndarray:
        """m x K raw sensor readings."""
        return self.space.functional_matrix @ self.truths

    @cached_property
    def exact(self) -> np.ndarray:
        """m x K exact onb coordinates."""
        return self.space.onb.weighted_matrix @ self.truths


def _data_block(observed: _Observed, cases: _Cases) -> np.ndarray:
    """m x AK onb data of the block's K truths under its A noise models (``_Cases``).

    Column j is ``observe_noisy`` of its truth up to roundoff, its seed drawing
    its noise: the exact coordinates where its model is noiseless, else
    ``apply_noise``'s, with its own alpha broadcast over the rows.  Every
    model a config builds is linear_bias_gaussian.
    """
    slopes = len(cases.models)
    exact = cases.per_column([_is_exact(model) for model in cases.models])
    if exact.all():
        return np.tile(observed.exact, slopes)
    readings = (1.0 + cases.alpha) * np.tile(observed.raw, slopes)
    if (sigma := cases.models[0].sigma) > 0:
        readings = readings + _normal_columns(cases.words, sigma, observed.space.m)
    data = observed.space.coords_from_raw(readings)
    if exact.any():     # the alpha = 0 columns of a noiseless run
        data[:, exact] = np.tile(observed.exact, slopes)[:, exact]
    return data


def observe_noisy(truth, space, model: NoiseModel, seed: int):
    """Noisy observation, falling back to the exact one for a degenerate model."""
    if _is_exact(model):
        return observe(truth, space)
    return apply_noise(truth, space, model, seed)


def _norms(grid: Grid, block: np.ndarray) -> np.ndarray:
    """Weighted l2 norm of every column of a (num_points, K) block."""
    return np.sqrt(grid.weights @ block**2)


def _errors(grid: Grid, states: np.ndarray, truths: np.ndarray,
            truth_norms: np.ndarray) -> np.ndarray:
    """Relative error of every column of an AK state block, whose column j
    estimates truth ``j % K`` of the (num_points, K) ``truths``."""
    points, K = truths.shape
    diff = (states.reshape(points, -1, K) - truths[:, None, :]).reshape(points, -1)
    return (_norms(grid, diff).reshape(-1, K) / truth_norms).ravel()


@dataclass(frozen=True)
class _Cases:
    """One block: the cases ``case_ids`` of an (n, m) pair under each of the run's
    noise models, solved and timed together.

    Its columns run over (model, case): with K = len(case_ids), column j is
    case ``case_ids[j % K]`` under ``models[j // K]``, and ``seeds[j]`` draws
    its noise.  The models differ in alpha alone.
    """

    n: int
    m: int
    models: tuple               # the run's NoiseModels, one per alpha
    case_ids: range
    seeds: list[int]
    words: np.ndarray | None    # the seeds' _pcg64_words, where the run draws noise

    def per_column(self, values) -> np.ndarray:
        """One value per model, repeated over that model's columns."""
        return np.repeat(values, len(self.case_ids))

    @cached_property
    def alpha(self) -> np.ndarray:
        """Each column's bias slope."""
        return self.per_column([model.alpha for model in self.models])

    def emit(self, result: RunResult, method: str, errors, beta: float, block_ms: float) -> None:
        """The block's result columns, one cell per model, and its one timing row for ``method``.

        A non-finite or negative error rejects the block before any of it is kept.
        """
        errors = np.asarray(errors, dtype=np.float64)
        bad = ~np.isfinite(errors) | (errors < 0)     # ResultRow's check, once per block
        if bad.any():
            raise ValueError(f"error_e must be finite and nonnegative, got {errors[bad][0]}")
        cells = [(method, self.n, self.m, model.alpha, model.sigma) for model in self.models]
        result._results.append(cells, self.case_ids, error_e=errors, beta=beta, seed=self.seeds)
        result.timings.append(dict(zip(TIMING_FIELDS, (
            method, self.n, self.m, self.models[0].sigma, self.case_ids.start, len(errors),
            block_ms))))


@dataclass(frozen=True)
class _Experiment:
    """One experiment as the online loop runs it.

    ``manifold`` is the class of its manifold spec, which ``_manifold_spec``
    builds for ``setup(cfg, grid, spec)``.  ``per_run(cfg, setup)`` prepares what the whole run shares and returns
    ``per_m(space)``, which prepares what the cells of one m share and returns
    their block solve ``(per_n, cases, diagnostics)``.  That gives
    ``(method, errors, beta, block_ms)`` per method, errors in the block's
    column order (``_Cases``), and appends the block's diagnostic rows.
    ``per_n(cfg, setup, backgrounds)`` prepares what the cells of one n share
    from its backgrounds (each labeled POD basis truncated to n modes, in label
    order).  A block holds at most ``chunk`` case ids (None: all of them) at
    each noise model.
    """

    manifold: type
    setup: Callable[[dict, Grid, object], Setup]
    per_run: Callable
    per_n: Callable = lambda cfg, setup, backgrounds: backgrounds
    chunk: int | None = None


def _elapsed_ms(start: float) -> float:
    return (time.perf_counter() - start) * 1e3


def run_experiment(cfg: dict) -> RunResult:
    """The configured experiment: offline set-up, then every block of cases of
    every feasible (n, m) pair.

    The blocks are laid out once, as (m, n, case ids) in loop order, and each
    holds its case ids at every alpha of the run (every noise model), so
    example1 solves one block per (n, m) pair across its alpha sweep.  Every
    case seed, one per (case, m, n, alpha), comes from that layout in one
    ``derive_seeds`` pass and the loop walks the same layout, so the two
    orders cannot drift apart.  A cell with n > m, or whose solve plan is
    unstable (``StabilityError``), is skipped and listed in ``skipped``; a
    run whose every cell with n <= m is unstable raises the first error.
    """
    spec = _EXPERIMENTS[cfg["experiment"]]
    setup = setup_experiment(cfg)
    count = cfg["validation.count"]
    chunk = spec.chunk or count
    swept = "sweep.alpha" in cfg
    models = tuple(NoiseModel(cfg["noise.kind"], alpha, cfg["noise.sigma"], cfg["noise.mc_samples"])
                   for alpha in (cfg["sweep.alpha"] if swept else [cfg["noise.alpha"]]))
    # cells with n > m are skipped; _validate has checked that one is not
    blocks = [(m, n, range(lo, min(lo + chunk, count)))
              for m in cfg["sweep.m"] for n in cfg["sweep.n"] if n <= m
              for lo in range(0, count, chunk)]
    # each column's key ("noise", case_id, "m", m, "n", n[, "alpha", repr(alpha)]) as the
    # text derive_seed hashes, formatted from one template per block and model
    seeds = derive_seeds(cfg["master_seed"], (
        template % case_id
        for m, n, case_ids in blocks for model in models
        for template in [f"noise:%d:m:{m}:n:{n}" + (f":alpha:{model.alpha!r}" if swept else "")]
        for case_id in case_ids
    ))
    words = _pcg64_words(seeds) if cfg["noise.sigma"] > 0 else None
    backgrounds = {n: tuple(basis.subspace.truncate(n) for _, basis in setup.labeled.values())
                   for n in dict.fromkeys(b[1] for b in blocks)}
    per_n = {n: spec.per_n(cfg, setup, bgs) for n, bgs in backgrounds.items()}
    per_m = spec.per_run(cfg, setup)

    result = RunResult(cfg, pod_decay=setup.decay(), skipped=[
        {"n": n, "m": m, "reason": "n > m"}
        for m in cfg["sweep.m"] for n in cfg["sweep.n"] if n > m])
    taken, unstable = 0, []
    for m, group in itertools.groupby(blocks, key=operator.itemgetter(0)):
        group = list(group)
        try:
            space = build_observation_space(_sensor_array(cfg, m, setup.grid), setup.grid)
        except DependentSensorsError:     # a width of 0, the sensor spacing, keeps its text
            if not (width := cfg["sensors.width"]):
                raise
            raise ConfigError(f"sensors.width={width} with sweep.m={m}: box sensors this wide "
                              f"are linearly dependent on this grid; narrow them, or set 0 for "
                              f"the sensor spacing") from None
        # build and check every solve plan of this m before any of its blocks is timed;
        # a pair with an unstable plan is skipped
        skip = set()
        for n in dict.fromkeys(block[1] for block in group):
            try:
                for background in backgrounds[n]:
                    _plan(background, space)
            except StabilityError as exc:
                skip.add(n)
                unstable.append(exc)
                result.skipped.append({"n": n, "m": m, "reason": str(exc)})
        solve = per_m(space)
        for _m, n, case_ids in group:
            lo, taken = taken, taken + len(models) * len(case_ids)
            if n in skip:
                continue
            cases = _Cases(n, m, models, case_ids, seeds[lo:taken],
                           None if words is None else words[lo:taken])
            for method, errors, beta, block_ms in solve(per_n[n], cases, result.diagnostics):
                cases.emit(result, method, errors, beta, block_ms)
    if len(result.skipped) == len(cfg["sweep.m"]) * len(cfg["sweep.n"]):
        raise unstable[0]       # every pair with n <= m is unstable: nothing to report
    return result


def _example1(cfg: dict, setup: Setup) -> Callable:
    """Each (n, m) pair's plain and bias-corrected solves, each one block solve of
    every case at every alpha."""
    grid = setup.grid
    truths = np.ascontiguousarray(setup.labeled["full"][0].matrix.T)    # a block holds them all
    truth_norms = _norms(grid, truths)

    def per_m(space) -> Callable:
        observed = _Observed(truths, space)

        def solve(backgrounds, cases: _Cases, _diagnostics: list) -> list:
            (background,) = backgrounds
            data = _data_block(observed, cases)
            start = time.perf_counter()
            plain = pbdw_solve_block(data, background, space)
            plain_ms = _elapsed_ms(start)
            corrected = bpbdw_correct_block(plain, background, space, cases.models[0],
                                            cases.alpha)
            # the corrected method includes the plain solve it starts from
            corrected_ms = _elapsed_ms(start)
            return [(method, _errors(grid, rec.states, truths, truth_norms), rec.beta, block_ms)
                    for method, rec, block_ms in (("pbdw", plain, plain_ms),
                                                  ("bpbdw", corrected, corrected_ms))]
        return solve
    return per_m


# Columns per example2 block.  Whole-cell blocks run no faster and raise the
# peak memory of a run by about a quarter; 32 columns cost about 1 %.
_CHUNK = 32


def _example2(cfg: dict, setup: Setup) -> Callable:
    """A column block's split and full-basis solves, and its jump diagnostics."""
    # loaded here, so that the other experiments never import the multiscale module
    from .multiscale import spbdw_reconstruct_block, step_dictionary

    grid = setup.grid

    def per_m(space) -> Callable:
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
            truths = fast_val.matrix + heights[:, None] * unit_steps(grid, true_locations)
        locations, true_locations = locations.tolist(), true_locations.tolist()

        def solve(backgrounds, cases: _Cases, diagnostics: list) -> list:
            fast_bg, full_bg = backgrounds
            (model,) = cases.models
            ids = cases.case_ids
            truth_block = np.ascontiguousarray(truths[ids.start:ids.stop].T)
            data = _data_block(_Observed(truth_block, space), cases)
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
                    "case_id": case_id, "n": cases.n, "m": cases.m,
                    "jump_location_true": true_location,
                    "jump_location_estimated": estimated, "jump_cells_off": cells_off,
                    "num_smoothers": count, "tv_truth": tv,
                    "tv_excess_spbdw": tv_split, "tv_excess_pbdw": tv_plain,
                })
            truth_norms = _norms(grid, truth_block)
            return [(method, _errors(grid, states, truth_block, truth_norms), beta, block_ms)
                    for method, states, beta, block_ms in (
                        ("spbdw", split.u_star, split.u_f.beta, split_ms),
                        ("pbdw", plain.states, plain.beta, plain_ms))]
        return solve
    return per_m


def _example3_per_n(cfg: dict, setup: Setup, backgrounds: tuple) -> tuple:
    """The n-mode background and its coefficient box, which does not depend on m."""
    (background,) = backgrounds
    return background, compute_box(setup.labeled["full"][0], background, cfg["box.margin"])


def _example3(cfg: dict, setup: Setup) -> Callable:
    """Each (n, m) pair's box-constrained plain and bias-corrected solves, each
    one block solve of every case.

    Every column equals the per-case route bit for bit: ``observe_noisy``'s
    data (the biased clean readings plus ``default_rng(seed).normal``, drawn
    by ``_normal_columns``, mapped to onb coordinates one column at a time),
    then ``pbdw_solve_boxed`` and ``bpbdw_reconstruct(box=)``, whose columns
    ``pbdw_solve_boxed_block`` reproduces.  The errors and mode-1 energy
    fractions are reductions over one contiguous row per case, as each
    per-case reduction runs over its own vector.  The benchmark's library
    runner rebuilds these rows with per-case calls and compares them for
    equality.
    """
    truth = setup.truth
    truth_norm = truth.norm()
    weights = setup.grid.weights

    def errors(rec) -> np.ndarray:
        squares = weights * (rec.states.T - truth.values) ** 2
        return np.sqrt(np.add.reduce(squares, axis=1)) / truth_norm

    def mode1_fractions(rec) -> list[float]:
        coeffs = rec.rom_coeffs.T
        energies = np.add.reduce(coeffs**2, axis=1).tolist()
        # a scalar's square is libm's pow, which an array's x * x misses by an ulp at times
        return [first**2 / energy if energy > 0 else 0.0
                for first, energy in zip(coeffs[:, 0].tolist(), energies)]

    def per_m(space) -> Callable:
        clean = space.apply_functionals(truth)

        def solve(prepared, cases: _Cases, diagnostics: list) -> list:
            background, box = prepared
            (model,) = cases.models
            count = len(cases.case_ids)
            if _is_exact(model):
                data = np.tile(space.onb.coefficients(truth), (count, 1))
            else:
                readings = np.tile(model.biased_readings(clean), (count, 1))
                if model.sigma > 0:
                    readings = readings + _normal_columns(cases.words, model.sigma, space.m).T
                data = _matvec(space.raw_to_onb_inverse, readings)
            start = time.perf_counter()
            plain = pbdw_solve_boxed_block(data.T, background, space, box)
            plain_ms = _elapsed_ms(start)
            # the corrected solve starts from the plain one, as bpbdw_reconstruct does
            corrected = pbdw_solve_boxed_block(corrected_constraint_block(plain.observed, model),
                                               background, space, box)
            corrected_ms = _elapsed_ms(start)
            fractions = zip(mode1_fractions(plain), mode1_fractions(corrected))
            for case_id, pair in zip(cases.case_ids, fractions):
                for method, fraction in zip(("pbdw", "bpbdw"), pair):
                    diagnostics.append({"case_id": case_id, "method": method, "n": cases.n,
                                        "m": cases.m, "mode1_energy_fraction": fraction})
            return [(method, errors(rec), rec.beta, block_ms)
                    for method, rec, block_ms in (("pbdw", plain, plain_ms),
                                                  ("bpbdw", corrected, corrected_ms))]
        return solve
    return per_m


_EXPERIMENTS = {
    "example1": _Experiment(SinusoidSpec, _setup_example1, _example1),
    "example2": _Experiment(MultiscaleSpec, _setup_example2, _example2, chunk=_CHUNK),
    "example3_analog": _Experiment(PowerLawSpec, _setup_example3_analog, _example3,
                                   _example3_per_n),
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

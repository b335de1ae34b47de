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

Each experiment is one function in ``_EXPERIMENTS``: it does the offline
set-up (sampling, POD bases, truths) and returns it as one ``Setup``, with its
block solve, which reads the truths from its scope, and its block size.  One
online loop (``run_experiment``) runs every experiment: it builds the solve
plans of each sensor count before it times a block, solves the (n, m) pairs
with n <= m and a stable plan in blocks of cases, each case at every alpha of
the run, and writes one ``timings.csv`` row per block and method; ``run.json``
lists the skipped cells.  Every random stream is ``derive_seed(master_seed,
key)`` of a text key: ``training`` and ``validation`` for the two samples, and
``noise:<case>:m:<m>:n:<n>`` for a case's noise, with ``:alpha:<repr(alpha)>``
appended when the run sweeps alpha; so a rerun with the same master seed
reproduces ``results.csv``.

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
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .bias import LINEAR_BIAS_GAUSSIAN, NoiseModel, apply_noise, bpbdw_correct_block
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
                  build_observation_space)
from .rom import decay_curve, pod
from .solver import StabilityError, _matvec, _plan, compute_box, pbdw_solve_block
from .space import Grid, _Record, _Value

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
# the first line of every versioned CSV
_SCHEMA_LINE = f"# schema_version={SCHEMA_VERSION}\n"

EXPERIMENTS = (_E1, _E2, _E3) = ("example1", "example2", "example3_analog")

PI = np.pi


class ConfigError(ValueError):
    """Invalid benchmark configuration."""


# ---------------------------------------------------------------------------
# configuration schema
# ---------------------------------------------------------------------------

def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _list_of(parse: Callable) -> Callable:
    return lambda text: [parse(tok) for tok in text.split(",") if tok.strip()]


# type name -> (parser, the rule each value keeps); a list is a sweep, each value its own cells
_TYPES = {
    "str": (str, ""),
    "int": (int, ""),
    "float": (float, "must be finite"),
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
    "noise.mc_samples": _Key("int", _each(1000), "unused: every noise expectation is exact; kept "
                             "until the dead keys are deleted (ROADMAP item 13)", (1, True)),
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
    """One entry's value, stripped of surrounding blanks and read by its key's parser."""
    if key not in SCHEMA:
        raise ConfigError(f"{where}: unknown key {key!r}")
    typ, raw = SCHEMA[key].type, raw.strip()
    try:
        return _TYPES[typ][0](raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: cannot parse {key} = {raw!r} as {typ} ({exc})") from None


def _resolve(text: str, source: str) -> dict:
    """The file's entries on top of its experiment's defaults, not yet validated; a
    key is set on one line at most (``--set`` overrides, by contrast, keep the last)."""
    entries: dict = {}
    first: dict = {}        # key -> the line that set it
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, raw = stripped.split("=", 1)
        if (key := key.strip()) in first:
            raise ConfigError(f"{source}:{lineno}: {key} is set twice (first on line {first[key]})")
        first[key] = lineno
        entries[key] = _parse(key, raw, f"{source}:{lineno}")
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
    if (m_max := max(cfg["sweep.m"])) > (points := cfg["grid.num_points"]):
        raise ConfigError(f"sweep.m={m_max} exceeds grid.num_points={points}: a grid of "
                          f"{points} nodes holds at most {points} independent sensors")
    grid, spec = _grid(cfg), _manifold_spec(cfg)
    with _naming(f"grid.num_points={points}"):     # built first, so a size error names its key
        grid.nodes
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
        # a sensor array's windows are an m x grid.num_points array
        with _naming(f"sweep.m={m}", f"sweep.m={m}, grid.num_points={points}"):
            _sensor_array(cfg, m, grid).validate_on(grid)
    # the online loop skips the cells with n > m, so a sweep must have one other
    n_min, n_max = min(cfg["sweep.n"]), max(cfg["sweep.n"])
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
def _naming(key: str, sizes: str = ""):
    """Turn the ValueError of a library check run inside into a ConfigError led by
    ``key``, and a MemoryError into one led by ``sizes`` (by default ``key``), the keys
    that size what it allocates."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None
    except MemoryError as exc:
        raise ConfigError(f"{sizes or key}: {str(exc) or 'too large to allocate'}") from None


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


def derive_seeds(master_seed: int, texts, count: int = -1) -> list[int]:
    """``derive_seed(master_seed, *key)`` for every key, hashed in one pass.

    Each key comes as the text ``derive_seed`` hashes, ``":".join(map(str, key))``;
    ``texts`` may be any iterable, so a generator keeps them out of memory.  A
    ``count`` of keys, when given, is allocated before the first key is hashed,
    so a count too large to allocate raises ``MemoryError`` at once.
    """
    digests = np.fromiter((zlib.crc32(text.encode()) for text in texts), dtype=np.uint32,
                          count=count)
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
    Generator draw each column's standard normals, into one row of a K x m
    array, which is then scaled and shifted in two passes: ``Generator.normal``
    returns ``loc + scale * z`` element by element, so ``0.0 + sigma * z``
    keeps every bit, the ``0.0 +`` turning a product that underflows to -0.0
    into +0.0.  A product past the largest float is inf without a warning, as
    numpy's own draw.  The block returned is the transpose of that array.
    """
    seed_words = _seed_words_type()
    generator, pcg64 = np.random.Generator, np.random.PCG64
    draws = np.empty((len(words), m))
    for row, out in zip(words, draws):
        generator(pcg64(seed_words(row))).standard_normal(out=out)
    with np.errstate(over="ignore"):
        draws *= sigma
    draws += 0.0
    return draws.T


# ---------------------------------------------------------------------------
# result containers
# ---------------------------------------------------------------------------

RESULT_FIELDS = ("case_id", "method", "n", "m", "alpha", "sigma", "error_e", "beta", "seed")
TIMING_FIELDS = ("method", "n", "m", "sigma", "first_case", "cases", "block_ms")
AGGREGATE_FIELDS = ("method", "n", "m", "alpha", "sigma", "mean", "max", "min", "stddev", "count")
POD_DECAY_FIELDS = ("label", "n", "approximation_error")


class ResultRow(_Value):
    """One reconstruction outcome."""

    def __init__(self, case_id: int, method: str, n: int, m: int, alpha: float, sigma: float,
                 error_e: float, beta: float, seed: int) -> None:
        if not np.isfinite(error_e) or error_e < 0:
            raise ValueError(f"error_e must be finite and nonnegative, got {error_e}")
        self.__dict__.update(case_id=case_id, method=method, n=n, m=m, alpha=alpha, sigma=sigma,
                             error_e=error_e, beta=beta, seed=seed)

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

    def render(self) -> bytes:
        """``results.csv`` as one bytes string, its rows in ``order()``: each cell
        key formatted once by the csv module, integers by ``%d``, floats by
        ``_reprs``, and every line filled in by one ``%`` of one format.  Bytes,
        because writing a str this large would make an encoded copy of it."""
        writer = csv.writer(buf := io.StringIO(), lineterminator="")
        ends = list(itertools.accumulate(map(writer.writerow, self.cells)))   # lengths written
        text = buf.getvalue().encode()
        keys = np.array([text[a:b] for a, b in zip([0, *ends], ends)], dtype=object)
        order = self.order()
        columns = [(b"%d", self["case_id"][order].tolist()),
                   (b"%s", keys[self["cell"][order]].tolist())]
        for column in (self[name][order] for name in _VALUES):
            columns.append((b"%s", _reprs(column)) if column.dtype == np.float64
                           else (b"%d", column.tolist()))
        formats, columns = zip(*columns)
        line = b",".join(formats) + b"\n"
        values = tuple(itertools.chain.from_iterable(zip(*columns)))     # row by row
        head = _SCHEMA_LINE + _table_text(RESULT_FIELDS, [])
        return (head.encode() + line * len(order)) % values


def _reprs(values: np.ndarray) -> list[bytes]:
    """``repr`` of every float, as bytes, each distinct bit pattern (so -0.0 apart
    from 0.0) once."""
    texts: dict[int, bytes] = {}
    return [texts.get(bits) or texts.setdefault(bits, repr(v).encode())
            for bits, v in zip(values.view(np.int64).tolist(), values.tolist())]


def _result_columns(rows) -> _Columns:
    return _Columns(map(operator.attrgetter(*RESULT_FIELDS), rows))


def aggregate_rows(rows) -> list[dict]:
    """Mean/max/min/stddev of the error per (method, n, m, alpha, sigma) cell.

    ``rows`` is a list of ``ResultRow`` or a run's result columns.  The cells
    of one size are reduced together: their errors, each cell's in row order,
    are the rows of one contiguous 2-D array, reduced along its rows by the
    ufunc reductions that ``ndarray.mean``, ``max``, ``min`` and ``std`` call,
    in the same order.  A reduction along a contiguous row runs the same loop
    as over a 1-D array, so each cell's statistics are those of its own errors
    to the last bit.
    """
    table = rows if isinstance(rows, _Columns) else _result_columns(rows)
    ranks = table.ranks()
    counts = np.bincount(ranks, minlength=len(table.cells))
    starts = np.cumsum(counts) - counts
    errors = table["error_e"][np.argsort(ranks, kind="stable")]     # grouped by cell, in rank order
    stats = np.empty((len(counts), 4))              # mean, max, min, stddev of each cell
    for size in dict.fromkeys(counts.tolist()):     # not np.unique: it would load numpy.ma
        cells = np.flatnonzero(counts == size)
        block = errors[starts[cells, None] + np.arange(size)]
        mean = np.add.reduce(block, axis=1) / size
        squares = (block - mean[:, None]) ** 2
        stats[cells] = np.column_stack((mean, np.maximum.reduce(block, axis=1),
                                        np.minimum.reduce(block, axis=1),
                                        np.sqrt(np.add.reduce(squares, axis=1) / size)))
    return [{"method": method, "n": n, "m": m, "alpha": alpha, "sigma": sigma, "mean": mean,
             "max": high, "min": low, "stddev": stddev, "count": count}
            for (method, n, m, alpha, sigma), (mean, high, low, stddev), count
            in zip(sorted(table.cells), stats.tolist(), counts.tolist())]


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
        (out / "results.csv").write_bytes(self._results.render())
        _write_table(out / "aggregates.csv", AGGREGATE_FIELDS, self.aggregates)
        if self.pod_decay:
            _write_table(out / "pod_decay.csv", POD_DECAY_FIELDS, self.pod_decay)
        if self.diagnostics:
            _write_table(out / "diagnostics.csv", list(self.diagnostics[0]), self.diagnostics)
        _write_table(out / "timings.csv", list(self.timings[0]) if self.timings else TIMING_FIELDS,
                     self.timings)
        _write_run_json(self.config, out / "run.json", self.skipped)


def _table_text(header, rows: list[dict]) -> str:
    """The CSV header, then one row per dict, its values in header order ("" where a
    key is missing)."""
    csv.writer(buf := io.StringIO(), lineterminator="\n").writerows(
        [header, *([r.get(k, "") for k in header] for r in rows)])
    return buf.getvalue()


def _write_table(path: Path, header, rows: list[dict]) -> None:
    """A versioned CSV: ``_table_text`` under the schema line."""
    path.write_text(_SCHEMA_LINE + _table_text(header, rows), newline="")


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
    cls, _ = _EXPERIMENTS[cfg["experiment"]]
    return cls(**{name: _pair(cfg, f"manifold.{name[:-6]}")
                  if name.endswith("_range") else cfg[f"manifold.{name}"]
                  for name in cls._fields})


# ---------------------------------------------------------------------------
# offline set-up: everything an experiment builds before its first solve
# ---------------------------------------------------------------------------

class Setup(_Record):
    """One experiment's offline set-up and its block solve, as the online loop runs it.

    ``labeled`` maps each label to its (snapshots, POD basis), in label order;
    ``backgrounds`` holds each basis truncated to n modes, in that order,
    built once per n for the whole run.  ``per_m(space)`` prepares what the
    cells of one m share and returns their block solve
    ``(backgrounds, cases, diagnostics)``, which reads the truths from the
    experiment function's own scope, gives ``(method, errors, beta, block_ms)``
    per method, errors in the block's column order (``_Cases``), and appends
    the block's diagnostic rows.  A block holds at most ``chunk`` case ids
    (None: all of them) at each noise model.
    """

    def __init__(
        self,
        grid: Grid,
        labeled: dict,      # label -> (snapshots, POD basis), as pod_decay_rows takes them
        decay_n: list[int],     # the dimensions pod_decay.csv reports
        per_m: Callable,
        chunk: int | None = None,
    ) -> None:
        self.__dict__.update(grid=grid, labeled=labeled, decay_n=decay_n, per_m=per_m,
                             chunk=chunk)

    def decay(self) -> list[dict]:
        return pod_decay_rows(self.labeled, self.decay_n)


def _sample(cfg: dict, sampler: Callable, spec, grid: Grid, stage: str):
    """The ``stage`` snapshots ("training" or "validation"), ``<stage>.count`` of them.
    Snapshots that overflow are rejected naming the manifold keys, without numpy's warnings;
    arrays too large to allocate, naming the integer keys that size them."""
    keys = [key for key in cfg if key.startswith("manifold.")]
    sizes = [f"{stage}.count", "grid.num_points", *(k for k in keys if SCHEMA[k].type == "int")]
    with np.errstate(over="ignore", invalid="ignore"), \
            _naming(", ".join(keys), ", ".join(f"{key}={cfg[key]}" for key in sizes)):
        return sampler(spec, grid, cfg[f"{stage}.count"], derive_seed(cfg["master_seed"], stage))


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


def _numerical_rank(basis, count: int) -> int:
    """The rank of a weighted training matrix of ``count`` snapshots, from the singular
    values its POD ``basis`` keeps, by numpy's ``matrix_rank`` rule:
    sigma_k > max(shape) * eps * sigma_1."""
    values = basis.singular_values
    size = max(basis.subspace.grid.num_points, count)
    return int(np.count_nonzero(values > size * np.finfo(float).eps * values[0]))


def setup_experiment(cfg: dict) -> Setup:
    """The configured experiment's offline set-up and block solve, without any solve
    run, after validating the config, so a dict edited by hand gets the checks a
    parsed one does; set-up itself only rejects what needs its data."""
    _validate(cfg)
    _, experiment = _EXPERIMENTS[cfg["experiment"]]
    return experiment(cfg, _grid(cfg), _manifold_spec(cfg))


# ---------------------------------------------------------------------------
# the online loop, and each experiment's set-up and block solves
# ---------------------------------------------------------------------------

def _is_exact(model: NoiseModel) -> bool:
    return model.alpha == 0.0 and model.sigma == 0.0 and model.kind == LINEAR_BIAS_GAUSSIAN


def _readings(raw: np.ndarray, cases: _Cases) -> np.ndarray:
    """m x AK noisy sensor readings of a block's K truths, whose clean m x K
    readings are ``raw``, under its A noise models (``_Cases``).

    Column j follows ``observe_noisy``'s one rule, noiseless or not, bit for
    bit: its model's ``biased_readings``, plus its seed's
    ``default_rng(seed).normal`` draw (``_normal_columns``) when sigma > 0.
    """
    readings = np.hstack([model.biased_readings(raw) for model in cases.models])
    if (sigma := cases.models[0].sigma) > 0:
        readings += _normal_columns(cases.words, sigma, len(raw))
    return readings


# one observation rule, noiseless or not; the benchmark's library runner imports it by this name
observe_noisy = apply_noise


def _norms(grid: Grid, block: np.ndarray) -> np.ndarray:
    """Weighted l2 norm of every column of a (num_points, K) block."""
    return np.sqrt(grid.weights @ block**2)


def _errors(grid: Grid, states: np.ndarray, truths: np.ndarray,
            truth_norms: np.ndarray) -> np.ndarray:
    """Relative error of every column of an AK state block, whose column j
    estimates truth ``j % K`` of the (num_points, K) ``truths``."""
    points, K = truths.shape
    squares = states.reshape(points, -1, K) - truths[:, None, :]
    np.square(squares, out=squares)     # _norms' block**2, in place
    norms = grid.weights @ squares.reshape(points, -1)
    np.sqrt(norms, out=norms)
    norms = norms.reshape(-1, K)
    norms /= truth_norms
    return norms.ravel()


class _Cases(_Record):
    """One block: the cases ``case_ids`` of an (n, m) pair under each of the run's
    noise models, solved and timed together.

    Its columns run over (model, case): with K = len(case_ids), column j is
    case ``case_ids[j % K]`` under ``models[j // K]``, and ``seeds[j]`` draws
    its noise.  The models differ in alpha alone.
    """

    def __init__(
        self,
        n: int,
        m: int,
        models: tuple,              # the run's NoiseModels, one per alpha
        case_ids: range,
        seeds: list[int],
        words: np.ndarray | None,   # the seeds' _pcg64_words, where the run draws noise
    ) -> None:
        self.__dict__.update(n=n, m=m, models=models, case_ids=case_ids, seeds=seeds, words=words)

    @cached_property
    def alpha(self) -> np.ndarray:
        """Each column's bias slope: its model's, repeated over that model's columns."""
        return np.repeat([model.alpha for model in self.models], len(self.case_ids))

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


def _timed(solve: Callable, *args, **kwargs) -> tuple:
    """``(solve(*args, **kwargs), its wall time in ms)``: every block solve is timed here."""
    start = time.perf_counter()
    result = solve(*args, **kwargs)
    return result, (time.perf_counter() - start) * 1e3


def run_experiment(cfg: dict) -> RunResult:
    """The configured experiment: its offline set-up and block solve
    (``setup_experiment``), then every block of cases of every feasible (n, m)
    pair, in blocks of at most ``Setup.chunk`` case ids.

    The blocks are laid out once, as (m, n, case ids) in loop order, and each
    holds its case ids at every alpha of the run (every noise model), so
    example1 solves one block per (n, m) pair across its alpha sweep.  Every
    case seed, one per (case, m, n, alpha), comes from that layout in one
    ``derive_seeds`` pass and the loop walks the same layout, so the two
    orders cannot drift apart.  A cell with n > m, with n above the numerical
    rank of a label's training set (``_numerical_rank``), or whose solve plan
    is unstable (``StabilityError``), is skipped and listed in ``skipped``.  A
    run whose every cell is skipped raises a ``ConfigError`` led by
    ``sweep.n`` and ``sweep.m`` that quotes the first reason other than n > m.
    """
    setup = setup_experiment(cfg)
    count = cfg["validation.count"]
    chunk = setup.chunk or count
    swept = "sweep.alpha" in cfg
    models = tuple(NoiseModel(cfg["noise.kind"], alpha, cfg["noise.sigma"])
                   for alpha in (cfg["sweep.alpha"] if swept else [cfg["noise.alpha"]]))
    ranks = {label: _numerical_rank(basis, cfg["training.count"])
             for label, (_, basis) in setup.labeled.items()}

    def skip_reason(n: int, m: int) -> str:
        if n > m:
            return "n > m"
        return next((f"n exceeds the numerical rank {rank} of the {label!r} training set"
                     for label, rank in ranks.items() if n > rank), "")

    reasons = {(n, m): skip_reason(n, m) for m in cfg["sweep.m"] for n in cfg["sweep.n"]}
    blocks = [(m, n, range(lo, min(lo + chunk, count)))
              for m in cfg["sweep.m"] for n in cfg["sweep.n"] if not reasons[(n, m)]
              for lo in range(0, count, chunk)]
    # each column's key ("noise", case_id, "m", m, "n", n[, "alpha", repr(alpha)]) as the
    # text derive_seed hashes, formatted from one template per block and model
    total = len(models) * sum(len(case_ids) for *_, case_ids in blocks)
    with _naming(f"validation.count={count}"):
        seeds = derive_seeds(cfg["master_seed"], (
            template % case_id
            for m, n, case_ids in blocks for model in models
            for template in [f"noise:%d:m:{m}:n:{n}" + (f":alpha:{model.alpha!r}" if swept else "")]
            for case_id in case_ids
        ), total)
    words = _pcg64_words(seeds) if cfg["noise.sigma"] > 0 else None
    backgrounds = {n: tuple(basis.subspace.truncate(n) for _, basis in setup.labeled.values())
                   for n in dict.fromkeys(b[1] for b in blocks)}

    result = RunResult(cfg, pod_decay=setup.decay(), skipped=[
        {"n": n, "m": m, "reason": reason} for (n, m), reason in reasons.items() if reason])
    taken = 0
    for m, group in itertools.groupby(blocks, key=operator.itemgetter(0)):
        group = list(group)
        try:
            space = build_observation_space(_sensor_array(cfg, m, setup.grid), setup.grid)
        except DependentSensorsError as exc:     # a width of 0, the sensor spacing, names m
            if not (width := cfg["sensors.width"]):
                raise ConfigError(f"sweep.m={m}: {exc}") from None
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
                result.skipped.append({"n": n, "m": m, "reason": str(exc)})
        solve = setup.per_m(space)
        for _m, n, case_ids in group:
            lo, taken = taken, taken + len(models) * len(case_ids)
            if n in skip:
                continue
            cases = _Cases(n, m, models, case_ids, seeds[lo:taken],
                           None if words is None else words[lo:taken])
            for method, errors, beta, block_ms in solve(backgrounds[n], cases, result.diagnostics):
                cases.emit(result, method, errors, beta, block_ms)
    if len(result.skipped) == len(reasons):
        # _validate has checked that some cell has n <= m
        first = next(cell for cell in result.skipped if cell["reason"] != "n > m")
        raise ConfigError(f"sweep.n={cfg['sweep.n']}, sweep.m={cfg['sweep.m']}: no cell is "
                          f"left to solve; n={first['n']}, m={first['m']}: {first['reason']}")
    return result


def _plain_then_corrected(data: np.ndarray, background, space, cases: _Cases,
                          box=None) -> tuple:
    """(method, reconstruction, block_ms) of a block's plain solve and of its bias
    correction, which starts from it (``bpbdw_correct_block``), so the corrected
    method's time is the plain solve's plus the correction's."""
    plain, plain_ms = _timed(pbdw_solve_block, data, background, space, box)
    corrected, correction_ms = _timed(bpbdw_correct_block, plain, background, space,
                                      cases.models[0], cases.alpha, box)
    return ("pbdw", plain, plain_ms), ("bpbdw", corrected, plain_ms + correction_ms)


def _example1(cfg: dict, grid: Grid, spec: SinusoidSpec) -> Setup:
    """Sinusoid truths, and each (n, m) pair's plain and bias-corrected solves, each
    one block solve of every case at every alpha."""
    training = _sample(cfg, sample_sinusoids, spec, grid, "training")
    basis = pod(training, max(cfg["sweep.n"]))
    if cfg["validation.reuse_training"]:
        count = cfg["validation.count"]
        validation = SnapshotSet(grid, training.matrix[:count], training.parameters[:count])
    else:
        validation = _sample(cfg, sample_sinusoids, spec, grid, "validation")
    _check_truth_scale(cfg, validation.matrix, basis, "manifold.amplitude", "manifold.amplitude")
    truths = np.ascontiguousarray(validation.matrix.T)      # a block holds them all
    truth_norms = _norms(grid, truths)

    def per_m(space) -> Callable:
        raw = space.functional_matrix @ truths

        def solve(backgrounds, cases: _Cases, _diagnostics: list) -> list:
            (background,) = backgrounds
            data = space.coords_from_raw(_readings(raw, cases))
            return [(method, _errors(grid, rec.states, truths, truth_norms), rec.beta, block_ms)
                    for method, rec, block_ms in _plain_then_corrected(data, background, space,
                                                                       cases)]
        return solve
    return Setup(grid, {"full": (validation, basis)}, sorted(cfg["sweep.n"]), per_m)


# Columns per example2 block.  Whole-cell blocks run no faster and raise the
# peak memory of a run by about a quarter; 32 columns cost about 1 %.
_CHUNK = 32


def _example2(cfg: dict, grid: Grid, spec: MultiscaleSpec) -> Setup:
    """Oscillation-plus-jump truths, and a column block's split and full-basis solves
    and its jump diagnostics."""
    # loaded here, so that the other experiments never import the multiscale module
    from .multiscale import spbdw_reconstruct_block, step_dictionary

    fast_train, _slow_train, full_train = _sample(cfg, sample_multiscale, spec, grid, "training")
    n_max = max(cfg["sweep.n"])
    fast_basis, full_basis = pod(fast_train, n_max), pod(full_train, n_max)
    fast_val, _slow_val, full_val = _sample(cfg, sample_multiscale, spec, grid, "validation")
    # the truths and the snapshots are smooth parts plus jumps: the wider range sets their scale
    key = max(("manifold.amplitude", "manifold.jump_height"), key=lambda k: max(map(abs, cfg[k])))
    _check_truth_scale(cfg, full_val.matrix, full_basis, key, key)

    def per_m(space) -> Callable:
        # the dictionary keeps the steps these sensors see, so it and the snapping are per m
        dictionary = step_dictionary(grid, space, _pair(cfg, "manifold.jump_location"),
                                     cfg["dictionary.stride"])
        locations = np.array([p["jump_location"] for p in dictionary.parameters])
        # the truths as rows and their jump locations, optionally snapped onto the dictionary
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
            data = space.coords_from_raw(_readings(space.functional_matrix @ truth_block, cases))
            split, split_ms = _timed(
                spbdw_reconstruct_block, data, fast_bg, space, dictionary,
                # the split is bias-corrected only when the data are noisy
                model=None if _is_exact(model) else model,
                rel_tol=cfg["spbdw.rel_tol"], max_iters=cfg["spbdw.max_iters"],
            )
            plain, plain_ms = _timed(pbdw_solve_block, data, full_bg, space)

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
    return Setup(grid, {"fast": (fast_val, fast_basis), "full": (full_val, full_basis)},
                 list(range(1, n_max + 1)), per_m, chunk=_CHUNK)


def _example3(cfg: dict, grid: Grid, spec: PowerLawSpec) -> Setup:
    """Power-law training profiles and a fixed parabolic truth, and each (n, m) pair's
    box-constrained plain and bias-corrected solves, each one block solve of every case.

    Every column equals the per-case route bit for bit: ``observe_noisy``'s
    readings, which ``_readings`` draws for the whole block, mapped to onb
    coordinates one row per case by ``_matvec`` (as ``coords_from_raw`` maps
    one vector), then ``pbdw_solve(box=)`` and ``bpbdw_reconstruct(box=)``,
    which the boxed block solves of ``_plain_then_corrected`` reproduce row
    by row.  The errors and
    mode-1 energy fractions are reductions over one contiguous row per case,
    as each per-case reduction runs over its own vector.  The benchmark's
    library runner rebuilds these rows with per-case calls and compares them
    for equality.  Each background's coefficient box, which does not depend on m,
    is built once per run, before the first block of that n is timed.
    """
    training = _sample(cfg, sample_powerlaw, spec, grid, "training")
    basis = pod(training, max(cfg["sweep.n"]))
    truth = powerlaw_profile(grid, cfg["truth.peak_velocity"], cfg["truth.flow_index"],
                             cfg["manifold.radius"])
    _check_truth_scale(cfg, truth.values[None], basis, "truth.peak_velocity",
                       "manifold.peak_velocity")
    truth_norm = truth.norm()
    weights = grid.weights
    boxes = {}                          # background -> its box

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

        def solve(backgrounds, cases: _Cases, diagnostics: list) -> list:
            (background,) = backgrounds
            if background not in boxes:
                boxes[background] = compute_box(training, background, cfg["box.margin"])
            box = boxes[background]
            readings = _readings(np.repeat(clean[:, None], len(cases.case_ids), axis=1), cases)
            data = _matvec(space.raw_to_onb_inverse, readings.T)
            solves = _plain_then_corrected(data.T, background, space, cases, box)
            fractions = zip(*(mode1_fractions(rec) for _, rec, _ in solves))
            for case_id, pair in zip(cases.case_ids, fractions):
                for (method, _, _), fraction in zip(solves, pair):
                    diagnostics.append({"case_id": case_id, "method": method, "n": cases.n,
                                        "m": cases.m, "mode1_energy_fraction": fraction})
            return [(method, errors(rec), rec.beta, block_ms) for method, rec, block_ms in solves]
        return solve
    return Setup(grid, {"full": (training, basis)}, sorted(cfg["sweep.n"]), per_m)


# experiment -> (the class of its manifold spec, which _manifold_spec builds, its function)
_EXPERIMENTS = {
    "example1": (SinusoidSpec, _example1),
    "example2": (MultiscaleSpec, _example2),
    "example3_analog": (PowerLawSpec, _example3),
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

"""Noise modeling and two-step bias-corrected reconstruction.

The noise model maps a state to noisy measurement coordinates.  Gaussian
noise is drawn per raw sensor reading (physical sensors are noisy
individually) and then mapped to orthonormal coordinates; the magnitude-
dependent bias enters as a linear scaling ``(1 + alpha) u`` or through an
empirical lookup table of mean offsets.

Bias correction runs in two steps: a plain reconstruction from the raw data
first, then a second solve whose constraint is shifted by the expected
discrepancy between clean and noisy measurements of that first estimate.
For the linear model the corrector simply rescales the constraint by
``(1 - alpha)``, so a relative bias of ``alpha`` leaves a residual amplitude
error of order ``alpha**2`` instead of ``alpha``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .obs import Measurement, ObservationSpace, observe
from .solver import (
    BlockReconstruction,
    Box,
    Reconstruction,
    pbdw_solve,
    pbdw_solve_block,
    pbdw_solve_boxed,
)
from .space import GridFunction, Subspace

__all__ = [
    "NoiseModel",
    "BiasCorrectedReconstruction",
    "apply_noise",
    "noise_expectation",
    "mc_expectation",
    "discrepancy_xi",
    "corrected_constraint",
    "corrected_constraint_block",
    "bpbdw_reconstruct",
    "bpbdw_correct_block",
]

LINEAR_BIAS_GAUSSIAN = "linear_bias_gaussian"
EMPIRICAL_TABLE = "empirical_table"


@dataclass(frozen=True)
class NoiseModel:
    """Randomized observation model with a state-dependent bias.

    ``linear_bias_gaussian`` reads ``(1 + alpha) u`` plus Gaussian(0, sigma)
    per raw sensor coordinate and has an analytic expectation.

    ``empirical_table`` adds a mean offset looked up by reading magnitude:
    ``table`` is a list of ``(bin_lo, bin_hi, offset)`` rows whose bins must
    tile the expected reading range without gaps; expectations fall back to
    Monte Carlo with ``mc_samples`` draws.
    """

    kind: str = LINEAR_BIAS_GAUSSIAN
    alpha: float = 0.0
    sigma: float = 0.0
    mc_samples: int = 1000
    table: tuple[tuple[float, float, float], ...] | None = field(default=None)

    def __post_init__(self) -> None:
        if self.kind not in (LINEAR_BIAS_GAUSSIAN, EMPIRICAL_TABLE):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if not (math.isfinite(self.sigma) and math.isfinite(self.alpha)):
            raise ValueError(f"sigma={self.sigma} and alpha={self.alpha} must be finite")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")
        if self.alpha <= -1:
            raise ValueError(f"alpha={self.alpha} must exceed -1")
        if self.mc_samples < 1:
            raise ValueError("mc_samples must be >= 1")
        if self.kind == EMPIRICAL_TABLE:
            if not self.table:
                raise ValueError("empirical_table model needs a table")
            table = tuple(tuple(map(float, row)) for row in self.table)
            object.__setattr__(self, "table", table)
            for lo, hi, _ in table:
                if not lo < hi:
                    raise ValueError(f"table bin [{lo}, {hi}] is empty")
            for (_, hi, _), (lo, _, _) in zip(table, table[1:]):
                if lo != hi:
                    raise ValueError("table bins must be contiguous (no gaps, no overlap)")

    def _table_offset(self, magnitude: float) -> float:
        for lo, hi, offset in self.table:
            if lo <= magnitude <= hi:
                return offset
        raise ValueError(
            f"reading magnitude {magnitude:g} falls outside the table range "
            f"[{self.table[0][0]:g}, {self.table[-1][1]:g}]"
        )

    def biased_readings(self, clean: np.ndarray) -> np.ndarray:
        """Mean (noise-free) readings under the bias part of the model."""
        if self.kind == LINEAR_BIAS_GAUSSIAN:
            return (1.0 + self.alpha) * clean
        offsets = np.array([self._table_offset(abs(z)) for z in clean])
        return clean + offsets

    @property
    def has_analytic_expectation(self) -> bool:
        return self.kind == LINEAR_BIAS_GAUSSIAN


def apply_noise(
    u: GridFunction, space: ObservationSpace, model: NoiseModel, seed: int
) -> Measurement:
    """One noisy observation of a state, deterministic under ``seed``."""
    rng = np.random.default_rng(seed)
    clean = space.apply_functionals(u)
    readings = model.biased_readings(clean)
    if model.sigma > 0:
        readings = readings + rng.normal(0.0, model.sigma, space.m)
    return Measurement(space.coords_from_raw(readings), space)


def mc_expectation(
    u: GridFunction, space: ObservationSpace, model: NoiseModel, seed: int
) -> Measurement:
    """Monte Carlo estimate of the expected noisy observation.

    The ``mc_samples`` x m Gaussian draws come from one generator seeded
    with ``seed``, so the same seed reproduces the same mean.
    """
    biased = model.biased_readings(space.apply_functionals(u))
    readings = np.tile(biased, (model.mc_samples, 1))
    if model.sigma > 0:
        readings += np.random.default_rng(seed).normal(0.0, model.sigma, readings.shape)
    coords = space.coords_from_raw(readings.T)
    return Measurement(coords.mean(axis=1), space)


def noise_expectation(
    u: GridFunction, space: ObservationSpace, model: NoiseModel, seed: int = 0
) -> Measurement:
    """Expected noisy observation; analytic where the model allows."""
    if model.has_analytic_expectation:
        return (1.0 + model.alpha) * observe(u, space)
    return mc_expectation(u, space, model, seed)


def discrepancy_xi(
    u: GridFunction, space: ObservationSpace, model: NoiseModel, seed: int = 0
) -> Measurement:
    """Expected gap between clean and noisy measurements of a state."""
    return observe(u, space) - noise_expectation(u, space, model, seed)


def corrected_constraint(
    u: GridFunction, space: ObservationSpace, model: NoiseModel, seed: int = 0
) -> Measurement:
    """Shifted constraint of the second solve: ``observe(u) + discrepancy_xi(u)``.

    Projects ``u`` once and keeps the arithmetic order of that sum, so the
    result is the same to the last bit.
    """
    observed = space.onb.coefficients(u)
    if model.has_analytic_expectation:
        expected = observed * (1.0 + model.alpha)
    else:
        expected = mc_expectation(u, space, model, seed).coeffs
    return Measurement(observed + (observed - expected), space)


def corrected_constraint_block(
    observed: np.ndarray, model: NoiseModel, alpha: float | np.ndarray | None = None
) -> np.ndarray:
    """``corrected_constraint`` for an (m, K) block of observed coordinates.

    ``alpha`` is the bias slope of each column, a scalar or a length-K vector
    that broadcasts over the rows; by default every column has
    ``model.alpha``.  Only the analytic expectation applies: Monte Carlo
    draws are seeded per case.  Column k equals ``corrected_constraint`` of
    the state whose coordinates are column k, under a model with column k's
    slope, with the same arithmetic order.
    """
    if not model.has_analytic_expectation:
        raise ValueError(f"block correction needs an analytic expectation, not {model.kind!r}")
    alpha = model.alpha if alpha is None else alpha
    return observed + (observed - observed * (1.0 + alpha))


@dataclass(frozen=True, eq=False)
class BiasCorrectedReconstruction(Reconstruction):
    """Final corrected solve plus the first-pass diagnostics."""

    initial: Reconstruction | None = None
    eta: Measurement | None = None


def bpbdw_reconstruct(
    omega_star: Measurement,
    background: Subspace,
    space: ObservationSpace,
    model: NoiseModel,
    seed: int = 0,
    box: Box | None = None,
) -> BiasCorrectedReconstruction:
    """Two-step bias-corrected reconstruction.

    Step 1 reconstructs from the raw data; step 2 re-solves with the
    constraint shifted by the expected clean-vs-noisy discrepancy of the
    first estimate.  Passing ``box`` clamps the background coefficients in
    both solves.
    """
    solve = (
        (lambda target: pbdw_solve_boxed(target, background, space, box))
        if box is not None
        else (lambda target: pbdw_solve(target, background, space))
    )
    first = solve(omega_star)
    eta = corrected_constraint(first.state, space, model, seed)
    corrected = solve(eta)
    return BiasCorrectedReconstruction(
        state=corrected.state,
        rom_coeffs=corrected.rom_coeffs,
        correction_coeffs=corrected.correction_coeffs,
        beta=corrected.beta,
        constraint_residual=corrected.constraint_residual,
        initial=first,
        eta=eta,
    )


def bpbdw_correct_block(
    first: BlockReconstruction,
    background: Subspace,
    space: ObservationSpace,
    model: NoiseModel,
    alpha: float | np.ndarray | None = None,
) -> BlockReconstruction:
    """Second step of ``bpbdw_reconstruct`` for a block of first estimates.

    ``first`` is the plain block solve of the data on the same pair, and
    the model needs an analytic expectation (``corrected_constraint_block``,
    which also takes each column's ``alpha``).  Column k matches
    ``bpbdw_reconstruct`` on case k up to roundoff.
    """
    eta = corrected_constraint_block(first.observed, model, alpha)
    return pbdw_solve_block(eta, background, space)

"""Noise modeling and two-step bias-corrected reconstruction.

The noise model maps a state to noisy measurement coordinates.  Gaussian
noise is drawn per raw sensor reading (physical sensors are noisy
individually) and then mapped to orthonormal coordinates; the magnitude-
dependent bias enters as a linear scaling ``(1 + alpha) u`` or through an
empirical lookup table of mean offsets.

Bias correction runs in two steps: a plain reconstruction from the raw data
first, then a second solve whose constraint is shifted by the expected
discrepancy between clean and noisy measurements of that first estimate.
That expectation is exact for both models: the bias is a fixed function of
the clean readings, the noise has mean zero and the map to coordinates is
linear, so it is the coordinates of the biased readings (``_expected_coords``).
For the linear model the corrector simply rescales the constraint by
``(1 - alpha)``, so a relative bias of ``alpha`` leaves a residual amplitude
error of order ``alpha**2`` instead of ``alpha``.  The shifted constraint is
written once, in ``corrected_constraint_block``; per-case ``bpbdw_reconstruct``
is ``bpbdw_correct_block`` run on one vector.
"""

from __future__ import annotations

import math

import numpy as np

from .obs import Measurement, ObservationSpace, observe
from .solver import (BlockReconstruction, Box, Reconstruction, _single, _solve, _target_coeffs,
                     pbdw_solve_block)
from .space import GridFunction, Subspace, _Value

__all__ = [
    "NoiseModel",
    "BiasCorrectedReconstruction",
    "apply_noise",
    "noise_expectation",
    "discrepancy_xi",
    "corrected_constraint_block",
    "bpbdw_reconstruct",
    "bpbdw_correct_block",
]

LINEAR_BIAS_GAUSSIAN = "linear_bias_gaussian"
EMPIRICAL_TABLE = "empirical_table"


class NoiseModel(_Value):
    """Randomized observation model with a state-dependent bias.

    ``linear_bias_gaussian`` reads ``(1 + alpha) u`` plus Gaussian(0, sigma)
    per raw sensor coordinate.

    ``empirical_table`` adds a finite mean offset looked up by reading
    magnitude: ``table`` is a list of ``(bin_lo, bin_hi, offset)`` rows whose
    bins must tile the expected reading range without gaps.  It has no slope,
    so its ``alpha`` must be 0.

    Both expectations are exact, so ``mc_samples`` is unused; it is kept, and
    still checked, because callers outside the package pass it.
    """

    def __init__(self, kind: str = LINEAR_BIAS_GAUSSIAN, alpha: float = 0.0, sigma: float = 0.0,
                 mc_samples: int = 1000,
                 table: tuple[tuple[float, float, float], ...] | None = None) -> None:
        if kind not in (LINEAR_BIAS_GAUSSIAN, EMPIRICAL_TABLE):
            raise ValueError(f"unknown noise kind {kind!r}")
        if not (math.isfinite(sigma) and math.isfinite(alpha)):
            raise ValueError(f"sigma={sigma} and alpha={alpha} must be finite")
        if sigma < 0:
            raise ValueError("sigma must be nonnegative")
        if alpha <= -1:
            raise ValueError(f"alpha={alpha} must exceed -1")
        if mc_samples < 1:
            raise ValueError("mc_samples must be >= 1")
        if kind == EMPIRICAL_TABLE:
            if not table:
                raise ValueError("empirical_table model needs a table")
            if alpha != 0:
                raise ValueError(f"alpha={alpha} must be 0: an empirical_table model has no slope")
            table = tuple(tuple(map(float, row)) for row in table)
            for i, (lo, hi, offset) in enumerate(table):
                if not lo < hi:
                    raise ValueError(f"table bin [{lo}, {hi}] is empty")
                if not math.isfinite(offset):
                    raise ValueError(f"table row {i} ({lo:g}, {hi:g}, {offset:g}) "
                                     "has a non-finite offset")
            for (_, hi, _), (lo, _, _) in zip(table, table[1:]):
                if lo != hi:
                    raise ValueError("table bins must be contiguous (no gaps, no overlap)")
        self.__dict__.update(kind=kind, alpha=alpha, sigma=sigma, mc_samples=mc_samples,
                             table=table)

    def biased_readings(self, clean: np.ndarray) -> np.ndarray:
        """Mean (noise-free) readings under the bias part of the model.

        ``clean`` is one reading vector or an m x K block.  A table magnitude
        on an edge two bins share takes the lower bin's offset, and both ends
        of the table's range are inside it.
        """
        if self.kind == LINEAR_BIAS_GAUSSIAN:
            return (1.0 + self.alpha) * clean
        lo, hi, offsets = np.array(self.table).T
        magnitude = np.abs(clean)
        outside = ~((magnitude >= lo[0]) & (magnitude <= hi[-1]))
        if outside.any():
            raise ValueError(
                f"reading magnitude {float(magnitude[outside].flat[0])!r} falls outside the "
                f"table range [{float(lo[0])!r}, {float(hi[-1])!r}]"
            )
        return clean + offsets[np.searchsorted(hi, magnitude)]


def apply_noise(
    u: GridFunction, space: ObservationSpace, model: NoiseModel, seed: int
) -> Measurement:
    """One observation of a state: its biased sensor readings, plus
    ``default_rng(seed).normal(0, sigma)`` when sigma > 0, in onb coordinates."""
    readings = model.biased_readings(space.apply_functionals(u))
    if model.sigma > 0:
        readings = readings + np.random.default_rng(seed).normal(0.0, model.sigma, space.m)
    return Measurement(space.coords_from_raw(readings), space)


def _expected_coords(observed: np.ndarray, space: ObservationSpace, model: NoiseModel,
                     alpha: float | np.ndarray | None = None) -> np.ndarray:
    """Exact expected noisy coordinates of states whose clean coordinates are
    ``observed``, one vector or an (m, K) block: the noise has mean zero, so
    this is the coordinates of the biased readings.  ``alpha`` overrides a
    linear model's slope."""
    if model.kind == LINEAR_BIAS_GAUSSIAN:
        return observed * (1.0 + (model.alpha if alpha is None else alpha))
    return space.coords_from_raw(model.biased_readings(space.raw_from_coords(observed)))


def noise_expectation(u: GridFunction, space: ObservationSpace, model: NoiseModel) -> Measurement:
    """Expected noisy observation of a state, exact for every model."""
    return Measurement(_expected_coords(space.onb.coefficients(u), space, model), space)


def discrepancy_xi(u: GridFunction, space: ObservationSpace, model: NoiseModel) -> Measurement:
    """Expected gap between clean and noisy measurements of a state."""
    return observe(u, space) - noise_expectation(u, space, model)


def corrected_constraint_block(
    observed: np.ndarray, space: ObservationSpace, model: NoiseModel,
    alpha: float | np.ndarray | None = None,
) -> np.ndarray:
    """Shifted constraint of the second solve, ``observe(u) + discrepancy_xi(u)``,
    for the observed coordinates of one state or of an (m, K) block of states.

    ``alpha`` is the bias slope of each column of a linear model, a scalar or
    a length-K vector that broadcasts over the rows; by default every column
    has ``model.alpha``.  Column k is the constraint of the state whose
    coordinates are column k, under a model with column k's slope; it keeps
    the arithmetic order of that sum, so it is the same to the last bit.
    """
    return observed + (observed - _expected_coords(observed, space, model, alpha))


class BiasCorrectedReconstruction(Reconstruction):
    """Final corrected solve plus the first-pass diagnostics."""

    def __init__(self, state: GridFunction, rom_coeffs: np.ndarray,
                 correction_coeffs: np.ndarray, beta: float, constraint_residual: float,
                 initial: Reconstruction | None = None, eta: Measurement | None = None) -> None:
        super().__init__(state, rom_coeffs, correction_coeffs, beta, constraint_residual)
        self.__dict__.update(initial=initial, eta=eta)


def bpbdw_reconstruct(
    omega_star: Measurement,
    background: Subspace,
    space: ObservationSpace,
    model: NoiseModel,
    seed: int = 0,
    box: Box | None = None,
) -> BiasCorrectedReconstruction:
    """Two-step bias-corrected reconstruction of one data vector.

    Step 1 reconstructs from the raw data; step 2 re-solves with the
    constraint shifted by the expected clean-vs-noisy discrepancy of the
    first estimate, ``corrected_constraint_block`` of that solve's own
    observed coordinates.  This is ``bpbdw_correct_block`` run on one vector.
    Passing ``box`` clamps the background coefficients in both solves.  The
    expectation is exact, so ``seed`` is unused; it is kept because callers
    outside the package pass it.
    """
    first = _solve(_target_coeffs(omega_star, space), background, space, box)
    initial = _single(first, space.grid)
    eta = Measurement(corrected_constraint_block(first.observed, space, model), space)
    corrected = _single(_solve(eta.coeffs, background, space, box), space.grid)
    return BiasCorrectedReconstruction(
        state=corrected.state,
        rom_coeffs=corrected.rom_coeffs,
        correction_coeffs=corrected.correction_coeffs,
        beta=corrected.beta,
        constraint_residual=corrected.constraint_residual,
        initial=initial,
        eta=eta,
    )


def bpbdw_correct_block(
    first: BlockReconstruction,
    background: Subspace,
    space: ObservationSpace,
    model: NoiseModel,
    alpha: float | np.ndarray | None = None,
    box: Box | None = None,
) -> BlockReconstruction:
    """Second step of ``bpbdw_reconstruct`` for a block of first estimates.

    ``first`` is the plain block solve of the data on the same pair and with
    the same ``box``; the constraint is ``corrected_constraint_block`` of its
    observed coordinates, which also takes each column's ``alpha`` under a
    linear model.  ``bpbdw_reconstruct`` is this correction on one vector.
    Column k matches ``bpbdw_reconstruct`` on case k up to roundoff, and bit
    for bit with a ``box`` under a linear model.
    """
    eta = corrected_constraint_block(first.observed, space, model, alpha)
    return pbdw_solve_block(eta, background, space, box)

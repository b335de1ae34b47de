"""Variational state estimation on parametrized backgrounds.

Reconstructs a state from a handful of sensor readings by minimizing the
distance to a reduced background space subject to matching the observations,
with two extensions: a two-step bias correction for magnitude-dependent
measurement bias, and a multiscale split that handles discontinuous signals
through a dictionary of step candidates.  A benchmark harness reproduces the
accompanying synthetic experiments (``assim`` on the command line).
"""

__version__ = "0.1.0"

from .bias import (
    BiasCorrectedReconstruction,
    NoiseModel,
    apply_noise,
    bpbdw_reconstruct,
    discrepancy_xi,
    noise_expectation,
)
from .manifold import (
    MultiscaleSpec,
    PowerLawSpec,
    SinusoidSpec,
    SnapshotSet,
    heaviside,
    sample_multiscale,
    sample_powerlaw,
    sample_sinusoids,
)
from .obs import (
    Measurement,
    ObservationSpace,
    SensorArray,
    build_observation_space,
    inf_sup_beta,
    observe,
)
from .rom import ReducedBasis, approximation_error, decay_curve, pod, projection_residuals
from .solver import (
    Box,
    Reconstruction,
    StabilityError,
    compute_box,
    pbdw_solve,
    pbdw_solve_boxed,
)
from .space import (
    Grid,
    GridFunction,
    GridMismatchError,
    NotOrthonormalError,
    Subspace,
    inner_product,
    norm,
    orthonormalize,
    project_onto,
)

# The multiscale split's names are imported on first access (PEP 562), so
# that a program which never uses the split does not load its module.
_MULTISCALE = (
    "MultiscaleDecomposition",
    "SlowDictionary",
    "Smoother",
    "build_slow_dictionary",
    "extract_smoothers",
    "multiscale_beta_bound",
    "orthogonal_search",
    "spbdw_reconstruct",
    "step_dictionary",
    "total_variation",
)


def __getattr__(name: str):
    if name not in _MULTISCALE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import multiscale

    value = globals()[name] = getattr(multiscale, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MULTISCALE})


__all__ = [
    "__version__",
    "Grid",
    "GridFunction",
    "Subspace",
    "GridMismatchError",
    "NotOrthonormalError",
    "inner_product",
    "norm",
    "project_onto",
    "orthonormalize",
    "SinusoidSpec",
    "MultiscaleSpec",
    "PowerLawSpec",
    "SnapshotSet",
    "heaviside",
    "sample_sinusoids",
    "sample_multiscale",
    "sample_powerlaw",
    "ReducedBasis",
    "pod",
    "approximation_error",
    "projection_residuals",
    "decay_curve",
    "SensorArray",
    "ObservationSpace",
    "Measurement",
    "build_observation_space",
    "observe",
    "inf_sup_beta",
    "Reconstruction",
    "Box",
    "StabilityError",
    "pbdw_solve",
    "pbdw_solve_boxed",
    "compute_box",
    "NoiseModel",
    "BiasCorrectedReconstruction",
    "apply_noise",
    "noise_expectation",
    "discrepancy_xi",
    "bpbdw_reconstruct",
    *_MULTISCALE,
]

"""Geometry-aware gradient optimizers for small variational eigensolver problems.

The root exports what a study needs; every other public name lives in its
module's ``__all__``.
"""

from .experiments import PRESET_NAMES, Problem, compare, load_preset, steps_to_threshold
from .geometry import (
    MetricUndefinedError,
    classical_fisher_metric,
    entanglement_entropy,
    fubini_study_metric,
    ite_matrix,
    singularity_report,
)
from .observables import energy, energy_and_gradient, pauli_sum, spectral_decompose
from .optimizers import (
    DEFAULT_POLICY,
    ConstantRate,
    EigenFloor,
    InverseStepRate,
    OptimizerKind,
    PseudoInverse,
    TerminalReason,
    Tikhonov,
    run,
)
from .states import (
    build_state,
    circuit,
    cnot,
    fixed_unitary,
    phase,
    ry,
    state_and_tangents,
)

__version__ = "0.1.0"

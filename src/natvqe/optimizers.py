"""First-order parameter-update rules and the iteration loop.

Four update rules share the template theta' = theta - eta * M^{-1} grad:
the plain gradient (M = identity, solve bypassed), the natural gradient with
the Fubini-Study metric, the imaginary-time-evolution rule with the Gram
matrix, and the natural gradient with the classical Fisher metric.  The
inverse is always taken through a regularization policy so near-singular
metrics produce finite (if large) steps instead of NaN.

``OptimizerKind`` is the one name of a rule, and ``metric_for`` is the one
place that maps it to its metric M (None for the identity).  ``run`` is the only
update loop and calls ``metric_for`` at every iterate; one update from theta is
``run(kind, H, circ, theta, ConstantRate(eta), policy, max_steps=1).steps[1].theta``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from typing import Sequence

import numpy as np

from .geometry import (
    MetricMatrix,
    check_tolerance,
    classical_fisher_metric,
    fubini_study_metric,
    ite_matrix,
)
from .observables import PauliHamiltonian, energy_and_gradient, spectral_decompose
from .states import AnsatzCircuit, check_numbers, check_parameters, check_real

__all__ = [
    "OptimizerKind",
    "ConstantRate",
    "InverseStepRate",
    "Tikhonov",
    "EigenFloor",
    "PseudoInverse",
    "TerminalReason",
    "TrajectoryStep",
    "Trajectory",
    "DEFAULT_POLICY",
    "MAX_STEPS",
    "check_limits",
    "metric_for",
    "solve_regularized",
    "run",
]


class OptimizerKind(Enum):
    VANILLA = "vanilla"            # identity metric
    NATURAL_FS = "natural"         # Fubini-Study metric
    ITE = "ite"                    # Gram matrix Re<d_i phi|d_j phi>
    NATURAL_CLASSICAL = "classical"  # classical Fisher metric


def metric_for(
    kind: OptimizerKind,
    hamiltonian: PauliHamiltonian,
    circ: AnsatzCircuit,
    theta: Sequence[float],
) -> MetricMatrix | None:
    """The metric ``kind`` preconditions with at theta: None for VANILLA (M = identity).

    Only the classical Fisher metric reads ``hamiltonian``.  A ``kind`` that is not
    an ``OptimizerKind``, such as its value ``"natural"``, is a ``TypeError``.
    """
    if kind is OptimizerKind.VANILLA:
        return None
    if kind is OptimizerKind.NATURAL_FS:
        return fubini_study_metric(circ, theta)
    if kind is OptimizerKind.ITE:
        return ite_matrix(circ, theta)
    if kind is OptimizerKind.NATURAL_CLASSICAL:
        return classical_fisher_metric(circ, theta, spectral_decompose(hamiltonian))
    raise TypeError(f"kind must be an OptimizerKind, got {kind!r}")


class _PositiveSetting:
    """Base of a frozen setting whose one field is a positive, finite number, stored as a float."""

    def __post_init__(self) -> None:
        (spec,) = fields(self)
        value = check_real(getattr(self, spec.name), spec.name)
        if not 0.0 < value < math.inf:
            raise ValueError(f"{spec.name} must be positive and finite, got {value}")
        object.__setattr__(self, spec.name, value)


@dataclass(frozen=True)
class ConstantRate(_PositiveSetting):
    """Fixed learning rate eta_k = eta."""

    eta: float

    def at(self, k: int) -> float:
        return self.eta


@dataclass(frozen=True)
class InverseStepRate(_PositiveSetting):
    """Decaying learning rate eta_k = c / k for k >= 1."""

    c: float

    def at(self, k: int) -> float:
        return self.c / k


LearningRateSchedule = ConstantRate | InverseStepRate


@dataclass(frozen=True)
class Tikhonov(_PositiveSetting):
    """Solve (M + epsilon*I) x = g."""

    epsilon: float


@dataclass(frozen=True)
class EigenFloor(_PositiveSetting):
    """Invert after lifting every eigenvalue of M to at least epsilon."""

    epsilon: float


@dataclass(frozen=True)
class PseudoInverse(_PositiveSetting):
    """Invert on the span of eigenpairs with eigenvalue > 0 and >= cut * max_eigenvalue."""

    cut: float


RegularizationPolicy = Tikhonov | EigenFloor | PseudoInverse

DEFAULT_POLICY = EigenFloor(1e-10)

# the most updates one run may make: it keeps every record in memory
MAX_STEPS = 100_000


class TerminalReason(str, Enum):
    MAX_STEPS = "max_steps"
    GRAD_NORM_BELOW = "grad_norm_below"
    NON_FINITE = "non_finite"


@dataclass(frozen=True)
class TrajectoryStep:
    """One recorded iterate: parameters plus scalar diagnostics."""

    k: int
    theta: tuple[float, ...]
    energy: float
    grad_norm: float
    det_metric: float
    min_eig_metric: float


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Ordered iterates of one optimization run; record 0 is the initial point."""

    steps: tuple[TrajectoryStep, ...]
    terminal_reason: TerminalReason

    @property
    def final(self) -> TrajectoryStep:
        return self.steps[-1]

    def energies(self) -> np.ndarray:
        return np.array([s.energy for s in self.steps])


def solve_regularized(
    metric: MetricMatrix, grad: Sequence[float], policy: RegularizationPolicy
) -> np.ndarray:
    """Solve M x = g through a regularization policy, guarding singular M: every
    policy is a divisor d of M's eigenvalues w, and x = V (V^T g / d) for M = V diag(w) V^T."""
    g = check_numbers(grad, "gradient entry")
    if g.shape != (metric.dim,):
        raise ValueError(f"gradient shape {g.shape} does not match metric dim {metric.dim}")
    w, v = np.linalg.eigh(metric.values)
    if isinstance(policy, Tikhonov):
        d = w + policy.epsilon
    elif isinstance(policy, EigenFloor):
        d = np.maximum(w, policy.epsilon)
    else:
        # a dropped eigenpair divides by inf: with no positive eigenvalue the step is zero
        d = np.where((w > 0.0) & (w >= policy.cut * w[-1]), w, np.inf)
    x = v @ ((v.T @ g) / d)
    if not np.isfinite(x).all():
        raise ArithmeticError("regularized solve produced non-finite values")
    return x


def check_limits(max_steps: int, grad_tol: float = 0.0) -> None:
    """Raise unless ``max_steps`` is whole in [1, MAX_STEPS] and ``grad_tol`` a tolerance."""
    steps = check_real(max_steps, "max_steps")
    if not steps.is_integer():  # False for nan and inf
        raise ValueError(f"max_steps must be a whole number, got {steps!r}")
    if steps < 1:
        raise ValueError("max_steps must be at least 1")
    if steps > MAX_STEPS:
        raise ValueError(f"max_steps must be at most {MAX_STEPS}")
    check_tolerance(grad_tol, "grad_tol")


def run(
    kind: OptimizerKind,
    hamiltonian: PauliHamiltonian,
    circ: AnsatzCircuit,
    theta0: Sequence[float],
    schedule: LearningRateSchedule,
    policy: RegularizationPolicy = DEFAULT_POLICY,
    max_steps: int = 100,
    grad_tol: float = 0.0,
) -> Trajectory:
    """Iterate an update rule from theta0, recording every iterate.

    The update producing record k uses the schedule rate at index k (so the
    first update uses eta_1).  The loop is deterministic and pure: identical
    inputs give bit-identical trajectories.  It stops after ``max_steps``
    updates, when the gradient norm falls below ``grad_tol`` (if positive), or
    as soon as a non-finite parameter, energy, or gradient appears.
    """
    check_limits(max_steps, grad_tol)
    if circ.n_params == 0:
        raise ValueError("circuit has no parameters to optimize")
    theta = check_parameters(circ, theta0, "theta0 entry")
    steps: list[TrajectoryStep] = []
    k = 0
    # An iterate is a few microseconds of arithmetic on m <= ~40 numbers, so its
    # scalars come from ndarray methods and math: numpy's Python-level helpers
    # (np.linalg.norm, np.prod, np.isfinite) cost more and give the same bits.
    while True:
        record = tuple(theta.tolist())
        if not all(map(math.isfinite, record)):
            reason = TerminalReason.NON_FINITE
            break
        value, grad = energy_and_gradient(hamiltonian, circ, theta)
        # np.linalg.norm of a contiguous 1-d float array is sqrt(x.dot(x)): the same bits
        grad_norm = math.sqrt(grad.dot(grad))
        metric = metric_for(kind, hamiltonian, circ, theta)
        if metric is None:
            det, min_eig = 1.0, 1.0
        else:
            eigs = metric.eigenvalues
            det, min_eig = float(eigs.prod()), float(eigs[0])
        steps.append(TrajectoryStep(k, record, value, grad_norm, det, min_eig))
        if not (math.isfinite(value) and math.isfinite(grad_norm)):
            reason = TerminalReason.NON_FINITE
            break
        if grad_tol > 0.0 and grad_norm < grad_tol:
            reason = TerminalReason.GRAD_NORM_BELOW
            break
        if k == max_steps:
            reason = TerminalReason.MAX_STEPS
            break
        direction = grad if metric is None else solve_regularized(metric, grad, policy)
        theta = theta - schedule.at(k + 1) * direction
        k += 1
    return Trajectory(tuple(steps), reason)

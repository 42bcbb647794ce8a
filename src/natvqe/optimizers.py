"""First-order parameter-update rules and the iteration loop.

Four update rules share the template theta' = theta - eta * M^{-1} grad:
the plain gradient (M = identity, solve bypassed), the natural gradient with
the Fubini-Study metric, the imaginary-time-evolution rule with the Gram
matrix, and the natural gradient with the classical Fisher metric.  The
inverse is always taken through a regularization policy so near-singular
metrics produce finite (if large) steps instead of NaN.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .geometry import MetricMatrix, classical_fisher_metric, fubini_study_metric, ite_matrix
from .observables import PauliHamiltonian, energy_and_gradient, spectral_decompose
from .states import AnsatzCircuit, check_parameters

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
    "solve_regularized",
    "step",
    "run",
]


class OptimizerKind(Enum):
    VANILLA = "vanilla"            # identity metric
    NATURAL_FS = "natural"         # Fubini-Study metric
    ITE = "ite"                    # Gram matrix Re<d_i phi|d_j phi>
    NATURAL_CLASSICAL = "classical"  # classical Fisher metric


def _require_positive(name: str, value: float) -> None:
    if not (value > 0.0):
        raise ValueError(f"{name} must be positive, got {value}")


@dataclass(frozen=True)
class ConstantRate:
    """Fixed learning rate eta_k = eta."""

    eta: float

    def __post_init__(self) -> None:
        _require_positive("eta", self.eta)

    def at(self, k: int) -> float:
        return self.eta


@dataclass(frozen=True)
class InverseStepRate:
    """Decaying learning rate eta_k = c / k for k >= 1."""

    c: float

    def __post_init__(self) -> None:
        _require_positive("c", self.c)

    def at(self, k: int) -> float:
        return self.c / k


LearningRateSchedule = ConstantRate | InverseStepRate


@dataclass(frozen=True)
class Tikhonov:
    """Solve (M + epsilon*I) x = g."""

    epsilon: float

    def __post_init__(self) -> None:
        _require_positive("epsilon", self.epsilon)


@dataclass(frozen=True)
class EigenFloor:
    """Invert after lifting every eigenvalue of M to at least epsilon."""

    epsilon: float

    def __post_init__(self) -> None:
        _require_positive("epsilon", self.epsilon)


@dataclass(frozen=True)
class PseudoInverse:
    """Invert on the span of eigenpairs with eigenvalue > 0 and >= cut * max_eigenvalue."""

    cut: float

    def __post_init__(self) -> None:
        _require_positive("cut", self.cut)


RegularizationPolicy = Tikhonov | EigenFloor | PseudoInverse

DEFAULT_POLICY = EigenFloor(1e-10)


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

    def thetas(self) -> np.ndarray:
        return np.array([s.theta for s in self.steps])


def solve_regularized(
    metric: MetricMatrix, grad: Sequence[float], policy: RegularizationPolicy
) -> np.ndarray:
    """Solve M x = g through a regularization policy, guarding singular M."""
    m = metric.values
    g = np.asarray(grad, dtype=float)
    if g.shape != (metric.dim,):
        raise ValueError(f"gradient shape {g.shape} does not match metric dim {metric.dim}")
    if isinstance(policy, Tikhonov):
        x = np.linalg.solve(m + policy.epsilon * np.eye(metric.dim), g)
    else:
        w, v = np.linalg.eigh(m)
        if isinstance(policy, EigenFloor):
            x = v @ ((v.T @ g) / np.maximum(w, policy.epsilon))
        else:
            # a metric with no positive eigenvalue has pseudo-inverse 0: a zero step
            keep = (w > 0.0) & (w >= policy.cut * w[-1])
            x = v[:, keep] @ ((v[:, keep].T @ g) / w[keep])
    if not np.all(np.isfinite(x)):
        raise ArithmeticError("regularized solve produced non-finite values")
    return x


def _metric_for(
    kind: OptimizerKind,
    hamiltonian: PauliHamiltonian,
    circ: AnsatzCircuit,
    theta: np.ndarray,
) -> MetricMatrix | None:
    if kind is OptimizerKind.VANILLA:
        return None
    if kind is OptimizerKind.NATURAL_FS:
        return fubini_study_metric(circ, theta)
    if kind is OptimizerKind.ITE:
        return ite_matrix(circ, theta)
    return classical_fisher_metric(circ, theta, spectral_decompose(hamiltonian))


def step(
    kind: OptimizerKind,
    hamiltonian: PauliHamiltonian,
    circ: AnsatzCircuit,
    theta: Sequence[float],
    eta: float,
    policy: RegularizationPolicy = DEFAULT_POLICY,
) -> np.ndarray:
    """One parameter update theta - eta * M^{-1} grad (M = identity for VANILLA)."""
    theta = check_parameters(circ, theta)
    if not (eta > 0.0):
        raise ValueError("learning rate must be positive")
    _, grad = energy_and_gradient(hamiltonian, circ, theta)
    metric = _metric_for(kind, hamiltonian, circ, theta)
    direction = grad if metric is None else solve_regularized(metric, grad, policy)
    return theta - eta * direction


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
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    if circ.n_params == 0:
        raise ValueError("circuit has no parameters to optimize")
    theta = check_parameters(circ, theta0)
    steps: list[TrajectoryStep] = []
    k = 0
    while True:
        if not np.all(np.isfinite(theta)):
            reason = TerminalReason.NON_FINITE
            break
        value, grad = energy_and_gradient(hamiltonian, circ, theta)
        grad_norm = float(np.linalg.norm(grad))
        metric = _metric_for(kind, hamiltonian, circ, theta)
        if metric is None:
            det, min_eig = 1.0, 1.0
        else:
            eigs = metric.eigenvalues
            det, min_eig = float(np.prod(eigs)), float(eigs[0])
        steps.append(TrajectoryStep(k, tuple(float(x) for x in theta), value, grad_norm, det, min_eig))
        if not (np.isfinite(value) and np.isfinite(grad_norm)):
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

"""Parameter-space geometry of an ansatz: metric matrices and diagnostics.

Three real symmetric m x m matrices are computed from the exact derivative
states of a circuit:

* the Fubini-Study (quantum Fisher) metric
  ``F_ij = Re<d_i phi|d_j phi> - Re(<d_i phi|phi><phi|d_j phi>)``,
* the Gram matrix preconditioning imaginary-time evolution
  ``A_ij = Re<d_i phi|d_j phi>`` (F without the rank-one correction), and
* the classical Fisher information of the measurement-outcome distribution
  ``FC = sum_i (1/p_i) (dp_i)(dp_i)^T``, computed in the Hamiltonian's
  eigenbasis V: with c = V^H phi and W = conj(tangents) V, p_i and dp_i are
  block sums of |c_j|^2 and 2 Re(W_j c_j) over the eigenvectors j of outcome i.
  That is two matrix products, O(m d^2), whatever the number of outcomes K;
  summing over the K projectors costs O(K m d^2).

Rank deficiency of these matrices marks singular parameter points: directions
along which the state (or the outcome distribution) does not move.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .observables import SpectralDecomposition
from .states import AnsatzCircuit, StateVector, state_and_tangents

__all__ = [
    "MetricKind",
    "MetricMatrix",
    "SingularityReport",
    "MetricUndefinedError",
    "fubini_study_metric",
    "ite_matrix",
    "classical_fisher_metric",
    "singularity_report",
    "entanglement_entropy",
    "psd_order_check",
]

SYMMETRY_TOL = 1e-10
PSD_TOL = 1e-9
DEFAULT_PROB_FLOOR = 1e-12
DEFAULT_RANK_TOL = 1e-9


class MetricKind(Enum):
    FUBINI_STUDY = "fubini_study"
    ITE = "ite"
    CLASSICAL_FISHER = "classical_fisher"


class MetricUndefinedError(ValueError):
    """Raised when a metric does not exist at the given parameters."""


@dataclass(frozen=True, eq=False)
class MetricMatrix:
    """Real symmetric PSD matrix tagged with the geometry it represents.

    ``eigenvalues`` (ascending, read-only) come from the validation's
    ``eigvalsh``, so diagnostics need not decompose the matrix again.
    """

    kind: MetricKind
    values: np.ndarray
    eigenvalues: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2 or vals.shape[0] != vals.shape[1]:
            raise ValueError("metric must be a square matrix")
        if vals.shape[0] == 0:
            raise ValueError("metric is empty: the circuit has no parameters")
        if np.max(np.abs(vals - vals.T)) > SYMMETRY_TOL:
            raise ValueError("metric must be symmetric")
        eigs = np.linalg.eigvalsh(vals)
        # tolerance scales with the matrix so near-divergent classical metrics validate
        if eigs[0] < -PSD_TOL * max(1.0, eigs[-1]):
            raise ValueError(f"metric is not positive semidefinite (min eig {eigs[0]:.3e})")
        vals = np.array(vals, copy=True)
        vals.setflags(write=False)
        eigs.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "eigenvalues", eigs)

    @property
    def dim(self) -> int:
        return self.values.shape[0]


def _symmetrized(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.T)


def fubini_study_metric(circ: AnsatzCircuit, theta: Sequence[float]) -> MetricMatrix:
    """Fubini-Study metric of the circuit family at theta.

    The cross term <d_i phi|phi><phi|d_j phi> is complex in general; its real
    part is what enters the real symmetric metric (the imaginary part cancels
    between (i, j) and (j, i)).
    """
    phi, tangents = state_and_tangents(circ, theta)
    gram = tangents.conj() @ tangents.T
    overlap = tangents.conj() @ phi
    values = np.real(gram) - np.real(np.outer(overlap, overlap.conj()))
    return MetricMatrix(MetricKind.FUBINI_STUDY, _symmetrized(values))


def ite_matrix(circ: AnsatzCircuit, theta: Sequence[float]) -> MetricMatrix:
    """Gram matrix Re<d_i phi|d_j phi> used by the imaginary-time-evolution update."""
    _, tangents = state_and_tangents(circ, theta)
    values = np.real(tangents.conj() @ tangents.T)
    return MetricMatrix(MetricKind.ITE, _symmetrized(values))


def classical_fisher_metric(
    circ: AnsatzCircuit,
    theta: Sequence[float],
    decomposition: SpectralDecomposition,
    prob_floor: float = DEFAULT_PROB_FLOOR,
) -> MetricMatrix:
    """Fisher information of the outcome distribution p_i(theta) = <phi|E_i|phi>.

    Outcomes with p_i <= prob_floor are excluded from the sum (their 1/p_i
    weight diverges).  If fewer than two outcomes survive, the distribution is
    degenerate and the metric is undefined.

    p and dp = 2 Re<d phi|E_i|phi> are read off the decomposition's eigenbasis
    (see the module docstring): one m x d by d x d product and a block sum,
    then one m x K by K x m product, in place of a pass over each projector.
    """
    phi, tangents = state_and_tangents(circ, theta)
    coeffs, p = decomposition.expand(phi)
    overlaps = np.real((tangents.conj() @ decomposition.basis) * coeffs)
    dp = 2.0 * np.add.reduceat(overlaps, decomposition.starts, axis=1)
    kept = p > prob_floor
    if np.count_nonzero(kept) < 2:
        raise MetricUndefinedError("metric undefined: degenerate distribution")
    dp = dp[:, kept]
    values = (dp / p[kept]) @ dp.T
    return MetricMatrix(MetricKind.CLASSICAL_FISHER, _symmetrized(values))


@dataclass(frozen=True)
class SingularityReport:
    """Rank diagnostics of a metric at one parameter point."""

    determinant: float
    min_eigenvalue: float
    rank: int
    is_singular: bool


def singularity_report(metric: MetricMatrix, rank_tol: float = DEFAULT_RANK_TOL) -> SingularityReport:
    """Determinant, smallest eigenvalue, and rank at ``rank_tol`` (relative to the largest eigenvalue)."""
    eigs = metric.eigenvalues
    scale = max(float(eigs[-1]), 0.0)
    rank = int(np.sum(eigs > rank_tol * scale)) if scale > 0.0 else 0
    return SingularityReport(
        determinant=float(np.prod(eigs)),
        min_eigenvalue=float(eigs[0]),
        rank=rank,
        is_singular=rank < metric.dim,
    )


def entanglement_entropy(state: StateVector) -> float:
    """Von Neumann entropy (natural log) of one qubit of a normalized 2-qubit pure state.

    Zero exactly on product states, log 2 on maximally entangled ones.
    """
    if state.n_qubits != 2:
        raise ValueError("entanglement entropy is defined here for exactly 2 qubits")
    amps = state.amplitudes
    if abs(np.vdot(amps, amps).real - 1.0) > 1e-10:
        raise ValueError("state must be normalized")
    singular = np.linalg.svd(amps.reshape(2, 2), compute_uv=False)
    lam = np.clip(singular ** 2, 0.0, 1.0)
    entropy = -sum(float(l) * float(np.log(l)) for l in lam if l > 0.0)
    return max(entropy, 0.0)


def psd_order_check(a: MetricMatrix, b: MetricMatrix, tol: float) -> bool:
    """True iff a >= b as matrices: the smallest eigenvalue of (a - b) is >= -tol."""
    if a.dim != b.dim:
        raise ValueError(f"metric dimensions differ: {a.dim} vs {b.dim}")
    return bool(np.linalg.eigvalsh(a.values - b.values)[0] >= -tol)

"""Parameter-space geometry of an ansatz: metric matrices and diagnostics.

Three real symmetric m x m matrices are read off one evaluated point, the
state phi and its exact derivatives (``states.state_and_tangents``):

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

Each formula has one home, a private read-off of ``(phi, tangents)``:
``_fubini_study`` and ``_ite`` share ``_gram``, and ``_classical_fisher`` adds
the decomposition.  F and A also read a stack ``(B, d)``, ``(B, m, d)`` and
give each point the bits of its own call; FC keeps outcomes per point, so it
reads one.  Each public function is one sweep plus one read-off.

Rank deficiency of these matrices marks singular parameter points: directions
along which the state (or the outcome distribution) does not move.

Which geometry an update rule uses is chosen in one place,
``optimizers.metric_for``; a ``MetricMatrix`` carries only its values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .observables import SpectralDecomposition
from .states import AnsatzCircuit, check_numbers, check_real, state_and_tangents

__all__ = [
    "MetricMatrix",
    "SingularityReport",
    "check_tolerance",
    "MetricUndefinedError",
    "fubini_study_metric",
    "ite_matrix",
    "classical_fisher_metric",
    "singularity_report",
    "entanglement_entropy",
]

SYMMETRY_TOL = 1e-10
PSD_TOL = 1e-9
PROB_FLOOR = 1e-12  # outcomes this unlikely are left out of the Fisher sum
DEFAULT_RANK_TOL = 1e-9


class MetricUndefinedError(ArithmeticError):
    """Raised when a metric does not exist at the given parameters.  Valid inputs lead
    there, so it is an ArithmeticError, as a failed solve is, and not a ValueError."""


@dataclass(frozen=True, eq=False)
class MetricMatrix:
    """Real symmetric positive semidefinite matrix: one of the three geometries at a point.

    ``eigenvalues`` (ascending, read-only) come from the validation's
    ``eigvalsh``, so diagnostics need not decompose the matrix again.
    """

    values: np.ndarray
    eigenvalues: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        vals = check_numbers(self.values, "metric entry")
        if vals.ndim != 2 or vals.shape[0] != vals.shape[1]:
            raise ValueError("metric must be a square matrix")
        if vals.shape[0] == 0:
            raise ValueError("metric is empty: the circuit has no parameters")
        if not abs(vals - vals.T).max() <= SYMMETRY_TOL:  # NaN fails
            raise ValueError("metric must be symmetric")
        eigs = np.linalg.eigvalsh(vals)
        lowest, highest = float(eigs[0]), float(eigs[-1])
        # tolerance scales with the matrix so near-divergent classical metrics validate
        if not lowest >= -PSD_TOL * max(1.0, highest):
            raise ValueError(f"metric is not positive semidefinite (min eig {lowest:.3e})")
        vals = np.array(vals, copy=True)
        vals.setflags(write=False)
        eigs.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "eigenvalues", eigs)

    @property
    def dim(self) -> int:
        return self.values.shape[0]


def _symmetrized(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.swapaxes(-1, -2))


def _gram(bras: np.ndarray, tangents: np.ndarray) -> np.ndarray:
    """Re<d_i phi|d_j phi>, unsymmetrized, from the tangents and their conjugates ``bras``."""
    return (bras @ tangents.swapaxes(-1, -2)).real


def _fubini_study(phi: np.ndarray, tangents: np.ndarray) -> np.ndarray:
    """F: the Gram matrix less the real part of <d_i phi|phi><phi|d_j phi> (whose
    imaginary part cancels between (i, j) and (j, i))."""
    bras = tangents.conj()
    overlap = bras @ phi[..., None]
    # np.outer's own product: with a 1-d right operand, m = 1 rounds differently in the last bit
    return _symmetrized(_gram(bras, tangents) - (overlap * overlap.conj().swapaxes(-1, -2)).real)


def _ite(tangents: np.ndarray) -> np.ndarray:
    return _symmetrized(_gram(tangents.conj(), tangents))


def _classical_fisher(phi: np.ndarray, tangents: np.ndarray,
                      decomposition: SpectralDecomposition) -> np.ndarray:
    """p and dp = 2 Re<d phi|E_i|phi> of one point are read off the decomposition's
    eigenbasis (see the module docstring): one m x d by d x d product and a block
    sum, then one m x K by K x m product, in place of a pass over each projector."""
    coeffs, p = decomposition.expand(phi)
    overlaps = ((tangents.conj() @ decomposition.basis) * coeffs).real
    dp = 2.0 * np.add.reduceat(overlaps, decomposition.starts, axis=1)
    kept = p > PROB_FLOOR
    if np.count_nonzero(kept) < 2:
        raise MetricUndefinedError("metric undefined: degenerate distribution")
    dp = dp[:, kept]
    return _symmetrized((dp / p[kept]) @ dp.T)


def fubini_study_metric(circ: AnsatzCircuit, theta: Sequence[float]) -> MetricMatrix:
    """Fubini-Study metric of the circuit family at theta."""
    return MetricMatrix(_fubini_study(*state_and_tangents(circ, theta)))


def ite_matrix(circ: AnsatzCircuit, theta: Sequence[float]) -> MetricMatrix:
    """Gram matrix Re<d_i phi|d_j phi> used by the imaginary-time-evolution update."""
    return MetricMatrix(_ite(state_and_tangents(circ, theta)[1]))


def classical_fisher_metric(circ: AnsatzCircuit, theta: Sequence[float],
                            decomposition: SpectralDecomposition) -> MetricMatrix:
    """Fisher information of the outcome distribution p_i(theta) = <phi|E_i|phi>.

    Outcomes with p_i <= PROB_FLOOR are excluded from the sum (their 1/p_i
    weight diverges).  If fewer than two outcomes survive, the distribution is
    degenerate and the metric is undefined.
    """
    return MetricMatrix(_classical_fisher(*state_and_tangents(circ, theta), decomposition))


@dataclass(frozen=True)
class SingularityReport:
    """Rank diagnostics of a metric at one parameter point."""

    determinant: float
    min_eigenvalue: float
    rank: int
    is_singular: bool


def check_tolerance(value: float, name: str) -> None:
    """Raise unless the tolerance ``value``, named ``name`` in the message, is finite and >= 0."""
    tol = check_real(value, name)
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"{name} must be finite and non-negative, got {tol}")


def singularity_report(metric: MetricMatrix, rank_tol: float = DEFAULT_RANK_TOL) -> SingularityReport:
    """Determinant, smallest eigenvalue, and rank at ``rank_tol`` (relative to the largest eigenvalue).

    ``rank_tol`` must pass ``check_tolerance``.
    """
    check_tolerance(rank_tol, "rank_tol")
    eigs = metric.eigenvalues
    scale = max(float(eigs[-1]), 0.0)
    rank = int(np.count_nonzero(eigs > rank_tol * scale)) if scale > 0.0 else 0
    return SingularityReport(
        determinant=float(eigs.prod()),
        min_eigenvalue=float(eigs[0]),
        rank=rank,
        is_singular=rank < metric.dim,
    )


def entanglement_entropy(state: np.ndarray) -> float:
    """Von Neumann entropy (natural log) of one qubit of a normalized 2-qubit pure state.

    ``state`` holds the 4 amplitudes.  Zero exactly on product states, log 2 on
    maximally entangled ones.
    """
    amps = check_numbers(state, "amplitude", complex)
    if amps.shape != (4,):
        raise ValueError("entanglement entropy is defined here for exactly 2 qubits")
    if not abs(np.vdot(amps, amps).real - 1.0) <= 1e-10:  # NaN fails
        raise ValueError("state must be normalized")
    singular = np.linalg.svd(amps.reshape(2, 2), compute_uv=False)
    lam = np.clip(singular ** 2, 0.0, 1.0)
    entropy = -sum(float(l) * float(np.log(l)) for l in lam if l > 0.0)
    return max(entropy, 0.0)

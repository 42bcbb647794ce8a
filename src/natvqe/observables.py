"""Pauli-sum observables: energy, exact energy gradient, spectral structure.

Hamiltonians are real-weighted sums of Pauli tensor products, materialized
densely (the design envelope is a handful of qubits).  The spectral
decomposition groups eigenvalues into projectors so the measurement-outcome
distribution p_i = <phi|E_i|phi> is well defined even with degeneracies.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .states import AnsatzCircuit, StateVector, state_and_tangents

__all__ = [
    "PauliHamiltonian",
    "SpectralDecomposition",
    "OutcomeDistribution",
    "pauli_sum",
    "dense_matrix",
    "energy",
    "energy_and_gradient",
    "energy_gradient",
    "spectral_decompose",
    "outcome_distribution",
]

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

ENERGY_IMAG_TOL = 1e-10


@dataclass(frozen=True)
class PauliHamiltonian:
    """Real-weighted sum of Pauli strings, e.g. 0.4*ZI + 0.4*IZ + 0.2*XX."""

    n_qubits: int
    terms: tuple[tuple[float, str], ...]

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be positive")
        if not self.terms:
            raise ValueError("hamiltonian needs at least one term")
        for coeff, label in self.terms:
            if not np.isfinite(coeff):
                raise ValueError("coefficients must be finite reals")
            if len(label) != self.n_qubits or any(ch not in _PAULI for ch in label):
                raise ValueError(f"bad pauli string {label!r} for {self.n_qubits} qubit(s)")


def pauli_sum(n_qubits: int, terms: Iterable[tuple[float, str]]) -> PauliHamiltonian:
    """Normalize (coefficient, pauli_string) pairs into a PauliHamiltonian."""
    normalized = tuple((float(c), str(s).upper()) for c, s in terms)
    return PauliHamiltonian(n_qubits, normalized)


@lru_cache(maxsize=128)
def dense_matrix(hamiltonian: PauliHamiltonian) -> np.ndarray:
    """Dense 2^n x 2^n Hermitian matrix of the Pauli sum (cached, read-only)."""
    dim = 2 ** hamiltonian.n_qubits
    total = np.zeros((dim, dim), dtype=complex)
    for coeff, label in hamiltonian.terms:
        term = np.eye(1, dtype=complex)
        for ch in label:
            term = np.kron(term, _PAULI[ch])
        total += coeff * term
    total.setflags(write=False)
    return total


def _check_dims(hamiltonian: PauliHamiltonian, n_qubits: int) -> None:
    if hamiltonian.n_qubits != n_qubits:
        raise ValueError(
            f"hamiltonian acts on {hamiltonian.n_qubits} qubit(s), state has {n_qubits}"
        )


def _real_expectation(vec: np.ndarray, matvec: np.ndarray) -> float:
    value = np.vdot(vec, matvec)
    if abs(value.imag) >= ENERGY_IMAG_TOL:
        raise ArithmeticError(f"expectation has imaginary residue {value.imag:.3e}")
    return float(value.real)


def energy(hamiltonian: PauliHamiltonian, state: StateVector) -> float:
    """Mean energy <phi|H|phi> of a state."""
    _check_dims(hamiltonian, state.n_qubits)
    vec = state.amplitudes
    return _real_expectation(vec, dense_matrix(hamiltonian) @ vec)


def energy_and_gradient(
    hamiltonian: PauliHamiltonian, circ: AnsatzCircuit, theta: Sequence[float]
) -> tuple[float, np.ndarray]:
    """Energy f(theta) and its exact gradient in one statevector sweep.

    Component i of the gradient is 2*Re <d_i phi|H|phi>, which is the exact
    df/d(theta_i) for a unitary family.
    """
    _check_dims(hamiltonian, circ.n_qubits)
    phi, tangents = state_and_tangents(circ, theta)
    hphi = dense_matrix(hamiltonian) @ phi
    value = _real_expectation(phi, hphi)
    grad = 2.0 * np.real(tangents.conj() @ hphi)
    return value, grad


def energy_gradient(
    hamiltonian: PauliHamiltonian, circ: AnsatzCircuit, theta: Sequence[float]
) -> np.ndarray:
    """Exact gradient of the mean energy with respect to theta."""
    return energy_and_gradient(hamiltonian, circ, theta)[1]


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Distinct eigenvalues (ascending) with their orthogonal projectors.

    ``basis`` (read-only, d x d) holds orthonormal eigenvectors as columns,
    grouped by outcome: columns ``starts[i]`` up to ``starts[i + 1]`` (or d)
    span the range of ``projectors[i]``.  ``expand`` reads the outcome
    probabilities off that basis in O(d^2), where summing over the projectors
    costs O(K d^2) for K outcomes.
    """

    eigenvalues: np.ndarray
    projectors: tuple[np.ndarray, ...]
    basis: np.ndarray
    starts: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.eigenvalues, dtype=float)
        if vals.ndim != 1 or len(vals) != len(self.projectors):
            raise ValueError("one projector per eigenvalue required")
        if np.any(np.diff(vals) <= 0):
            raise ValueError("eigenvalues must be strictly ascending")
        dim = self.projectors[0].shape[0]
        starts = np.array(self.starts, dtype=np.intp)
        basis = np.array(self.basis, dtype=complex)
        if starts.shape != vals.shape or starts[0] != 0 or np.any(np.diff(starts) <= 0):
            raise ValueError("starts must ascend from 0, one per eigenvalue")
        if basis.shape != (dim, dim) or starts[-1] >= dim:
            raise ValueError("basis must be square with one column block per eigenvalue")
        total = sum(self.projectors)
        if np.max(np.abs(total - np.eye(dim))) > 1e-10:
            raise ValueError("projectors do not resolve the identity")
        for i, p in enumerate(self.projectors):
            for j, q in enumerate(self.projectors):
                expect = p if i == j else 0.0
                if np.max(np.abs(p @ q - expect)) > 1e-10:
                    raise ValueError("projectors are not orthogonal idempotents")
        for arr in (vals, starts, basis):
            arr.setflags(write=False)
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "starts", starts)
        object.__setattr__(self, "basis", basis)

    def expand(self, vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Coefficients c = basis^H vec and the outcome weights <vec|E_i|vec>.

        Weight i is the sum of |c_j|^2 over the columns j of outcome i; for a
        normalized state these are the outcome probabilities.
        """
        coeffs = np.conj(np.conj(vec) @ self.basis)
        return coeffs, np.add.reduceat(coeffs.real ** 2 + coeffs.imag ** 2, self.starts)


@lru_cache(maxsize=128)
def spectral_decompose(
    hamiltonian: PauliHamiltonian, degeneracy_tol: float = 1e-9
) -> SpectralDecomposition:
    """Eigenvalues, projectors and eigenbasis of H, merging eigenvalues within ``degeneracy_tol``."""
    w, v = np.linalg.eigh(dense_matrix(hamiltonian))
    boundaries = [0]
    for i in range(1, len(w)):
        if w[i] - w[i - 1] > degeneracy_tol:
            boundaries.append(i)
    boundaries.append(len(w))
    eigenvalues = []
    projectors = []
    for lo, hi in zip(boundaries[:-1], boundaries[1:]):
        eigenvalues.append(float(np.mean(w[lo:hi])))
        block = v[:, lo:hi]
        proj = block @ block.conj().T
        proj.setflags(write=False)
        projectors.append(proj)
    return SpectralDecomposition(np.array(eigenvalues), tuple(projectors), v, np.array(boundaries[:-1]))


@dataclass(frozen=True, eq=False)
class OutcomeDistribution:
    """Measurement-outcome probabilities aligned with a SpectralDecomposition."""

    probabilities: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.probabilities, dtype=float)
        if np.any(p < -1e-10) or np.any(p > 1.0 + 1e-10):
            raise ValueError("probabilities must lie in [0, 1]")
        if abs(p.sum() - 1.0) > 1e-10:
            raise ValueError("probabilities must sum to 1")
        p = np.clip(p, 0.0, 1.0)
        p.setflags(write=False)
        object.__setattr__(self, "probabilities", p)


def outcome_distribution(
    decomposition: SpectralDecomposition, state: StateVector
) -> OutcomeDistribution:
    """Probabilities p_i = <phi|E_i|phi> of each spectral outcome.

    Read off the eigenbasis coefficients of phi (``SpectralDecomposition.expand``):
    one d x d product for all outcomes, the same p the classical Fisher metric uses.
    """
    vec = state.amplitudes
    if decomposition.basis.shape[0] != vec.shape[0]:
        raise ValueError("decomposition and state dimensions do not match")
    return OutcomeDistribution(decomposition.expand(vec)[1])

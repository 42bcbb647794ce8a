"""Pauli-sum observables: energy, exact energy gradient, spectral structure.

Hamiltonians are real-weighted sums of Pauli tensor products, materialized
densely (the design envelope is a handful of qubits).  States are amplitude
arrays of length 2**n, as ``states.build_state`` returns them.  The energy and
gradient have one home, ``_energy_and_gradient``, a read-off of one point
``(phi, tangents)`` or of a stack; ``energy`` shares its expectation.  The
spectral decomposition groups the eigenvectors of H into one orthonormal
basis, one column block per distinct eigenvalue, so the measurement-outcome
distribution p_i = <phi|E_i|phi> is well defined even with degeneracies.  The
basis is the decomposition: it is validated by one O(d^3) orthonormality check
and kept in O(d^2) memory; no projector E_i is ever formed.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .states import (MAX_QUBITS, AnsatzCircuit, check_integer, check_numbers, check_real,
                     state_and_tangents)

__all__ = [
    "PauliHamiltonian",
    "SpectralDecomposition",
    "pauli_sum",
    "dense_matrix",
    "energy",
    "energy_and_gradient",
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
DEGENERACY_TOL = 1e-9  # eigenvalues of H closer than this are one outcome


@dataclass(frozen=True)
class PauliHamiltonian:
    """Float-weighted sum of Pauli strings, e.g. 0.4*ZI + 0.4*IZ + 0.2*XX."""

    n_qubits: int
    terms: tuple[tuple[float, str], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_qubits", check_integer(self.n_qubits, "n_qubits"))
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise ValueError(f"n_qubits must be between 1 and {MAX_QUBITS}, got {self.n_qubits}")
        object.__setattr__(self, "terms", tuple(
            (check_real(coeff, "hamiltonian coefficient"), label) for coeff, label in self.terms))
        if not self.terms:
            raise ValueError("hamiltonian needs at least one term")
        for coeff, label in self.terms:
            if not np.isfinite(coeff):
                raise ValueError("coefficients must be finite reals")
            if len(label) != self.n_qubits or any(ch not in _PAULI for ch in label):
                raise ValueError(f"bad pauli string {label!r} for {self.n_qubits} qubit(s)")


def pauli_sum(n_qubits: int, terms: Iterable[tuple[float, str]]) -> PauliHamiltonian:
    """Normalize (coefficient, pauli_string) pairs into a PauliHamiltonian."""
    return PauliHamiltonian(n_qubits, tuple((c, str(s).upper()) for c, s in terms))


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


@lru_cache(maxsize=128)
def _imag_tol(hamiltonian: PauliHamiltonian) -> float:
    """ENERGY_IMAG_TOL times max(1, sum |c_k|): the round-off grows with ||H|| <= sum |c_k|."""
    return ENERGY_IMAG_TOL * max(1.0, sum(abs(coeff) for coeff, _ in hamiltonian.terms))


def _expectation(hamiltonian: PauliHamiltonian, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """<phi|H|phi> (real) and the column H|phi> of a state (d,), or of each state of a stack (B, d)."""
    hphi = dense_matrix(hamiltonian) @ phi[..., None]
    value = (phi.conj()[..., None, :] @ hphi)[..., 0, 0]
    residue = max(value.imag.flat, key=abs)  # Python's max: numpy's costs a microsecond more
    if abs(residue) >= _imag_tol(hamiltonian):
        raise ArithmeticError(f"expectation has imaginary residue {residue:.3e}")
    return value.real, hphi


def _energy_and_gradient(hamiltonian: PauliHamiltonian, phi: np.ndarray,
                         tangents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Energy and gradient of a point (d,), (m, d), or of each point of a stack (B, d),
    (B, m, d), with its own bits.  Component i of the gradient is 2*Re <d_i phi|H|phi>,
    which is the exact df/d(theta_i) for a unitary family."""
    value, hphi = _expectation(hamiltonian, phi)
    return value, 2.0 * (tangents.conj() @ hphi)[..., 0].real


def energy(hamiltonian: PauliHamiltonian, state: np.ndarray) -> float:
    """Mean energy <phi|H|phi> of a state given by its 2**n amplitudes."""
    vec = check_numbers(state, "amplitude", complex)
    if vec.shape != (2 ** hamiltonian.n_qubits,):
        raise ValueError(f"hamiltonian acts on {hamiltonian.n_qubits} qubit(s), "
                         f"state has shape {vec.shape}")
    return float(_expectation(hamiltonian, vec)[0])


def energy_and_gradient(hamiltonian: PauliHamiltonian, circ: AnsatzCircuit,
                        theta: Sequence[float]) -> tuple[float, np.ndarray]:
    """Energy f(theta) and its exact gradient in one statevector sweep."""
    if hamiltonian.n_qubits != circ.n_qubits:
        raise ValueError(f"hamiltonian acts on {hamiltonian.n_qubits} qubit(s), "
                         f"state has {circ.n_qubits}")
    value, grad = _energy_and_gradient(hamiltonian, *state_and_tangents(circ, theta))
    return float(value), grad


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Distinct eigenvalues (ascending) and an orthonormal eigenbasis grouped by outcome.

    The basis is the decomposition.  ``basis`` (read-only, d x d) holds the
    eigenvectors as columns; columns ``starts[i]`` up to ``starts[i + 1]`` (or
    d) form the block B_i of outcome i, whose projector is E_i = B_i B_i^H.
    ``expand`` reads the outcome probabilities off that basis in O(d^2), where
    summing over the projectors costs O(K d^2) for K outcomes.

    Validation is one d x d product: max|V^H V - I| <= 1e-10 / d for V =
    ``basis``.  With E = V^H V - I this implies, to first order, the projector
    checks at 1e-10: P_i P_j - delta_ij P_i = B_i E_ij B_j^H and
    sum_k P_k - I = V V^H - I = V E V^-1, and every entry of either is at most
    d * max|E| because the rows of V have unit norm to first order.  So
    construction costs O(d^3) time and O(d^2) memory, where checking all K^2
    projector products costs O(K^2 d^3) and storing them O(K d^2).
    """

    eigenvalues: np.ndarray
    basis: np.ndarray
    starts: np.ndarray

    def __post_init__(self) -> None:
        # copies, frozen below: check_numbers passes a float (complex) array untouched
        vals = np.array(check_numbers(self.eigenvalues, "eigenvalue"))
        if vals.ndim != 1 or len(vals) == 0:
            raise ValueError("eigenvalues must be a non-empty 1-d array")
        if not np.all(np.diff(vals) > 0):
            raise ValueError("eigenvalues must be strictly ascending")
        starts = np.asarray(self.starts, dtype=object)
        starts = np.array([check_integer(s, "start") for s in starts.flat],
                          dtype=np.intp).reshape(starts.shape)
        basis = np.array(check_numbers(self.basis, "basis entry", complex))
        if starts.shape != vals.shape or starts[0] != 0 or np.any(np.diff(starts) <= 0):
            raise ValueError("starts must ascend from 0, one per eigenvalue")
        dim = len(basis)
        if basis.shape != (dim, dim) or starts[-1] >= dim:
            raise ValueError("basis must be square with one column block per eigenvalue")
        if not np.max(np.abs(basis.conj().T @ basis - np.eye(dim))) <= 1e-10 / dim:
            raise ValueError("basis is not orthonormal")
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
        if np.shape(vec) != (len(self.basis),):
            raise ValueError("decomposition and state dimensions do not match")
        coeffs = np.conj(np.conj(vec) @ self.basis)
        return coeffs, np.add.reduceat(coeffs.real ** 2 + coeffs.imag ** 2, self.starts)


@lru_cache(maxsize=128)
def spectral_decompose(hamiltonian: PauliHamiltonian) -> SpectralDecomposition:
    """Eigenvalues and eigenbasis of H, merging eigenvalues within ``DEGENERACY_TOL``."""
    w, v = np.linalg.eigh(dense_matrix(hamiltonian))
    starts = [0, *(np.flatnonzero(np.diff(w) > DEGENERACY_TOL) + 1).tolist()]
    eigenvalues = [float(np.mean(w[lo:hi])) for lo, hi in zip(starts, [*starts[1:], len(w)])]
    return SpectralDecomposition(np.array(eigenvalues), v, np.array(starts))


def outcome_distribution(decomposition: SpectralDecomposition, state: np.ndarray) -> np.ndarray:
    """Probabilities p_i = <phi|E_i|phi> of each spectral outcome, as a read-only array.

    Read off the eigenbasis coefficients of phi (``SpectralDecomposition.expand``):
    one d x d product for all outcomes, the same p the classical Fisher metric uses.
    """
    p = decomposition.expand(check_numbers(state, "amplitude", complex))[1]
    if not (p.min() >= -1e-10 and p.max() <= 1.0 + 1e-10):
        raise ValueError("probabilities must lie in [0, 1]")
    if not abs(p.sum() - 1.0) <= 1e-10:
        raise ValueError("probabilities must sum to 1")
    p = np.clip(p, 0.0, 1.0)
    p.setflags(write=False)
    return p

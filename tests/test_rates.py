"""The natural gradient's endgame is set by H's spectrum.

At a point whose state is the ground state, (H - E0) phi = 0, so the energy
Hessian is Hess = 2 Re T^dag (H - E0) T with T the tangents, and the
Fubini-Study metric is F = Re T^dag (1 - |phi><phi|) T.  Both are quadratic
forms in the projected tangents, so every eigenvalue of F^+ Hess on F's range
is a Rayleigh quotient of 2 (H - E0) on vectors orthogonal to phi, and lies in
[2 (E1 - E0), 2 (Emax - E0)] whatever the ansatz.  The natural step at rate eta
therefore contracts the energy error by (1 - 2 eta (E1 - E0))^2 per step in
its slowest mode, and converges locally iff eta < 1 / (Emax - E0).
Vanilla's rate depends on the Hessian at the point of the minimizing fiber
where it lands, which depends on the ansatz.  The gap also sets the natural
step's escape rate from the E1 plateau, and its path follows imaginary-time
evolution to first order in eta.
"""
import importlib.util
import itertools
from pathlib import Path

import numpy as np
import pytest

from natvqe import ConstantRate, OptimizerKind, build_state, load_preset, pauli_sum, run
from natvqe.geometry import fubini_study_metric
from natvqe.observables import dense_matrix, energy_and_gradient
from natvqe.states import state_and_tangents
from test_states import random_circuit

ETA = 0.05


def spectrum(problem):
    return np.linalg.eigvalsh(dense_matrix(problem.hamiltonian))


def late_ratio(problem, kind):
    """The per-step energy-error ratio over the records whose error lies in (1e-11, 1e-5).

    It is the geometric mean over that window, which the run crosses once.
    """
    e0 = spectrum(problem)[0]
    traj = run(kind, problem.hamiltonian, problem.circuit, problem.theta0, ConstantRate(ETA),
               max_steps=problem.max_steps)
    error = traj.energies() - e0
    window = np.flatnonzero((error > 1e-11) & (error < 1e-5))
    assert len(window) > 50 and np.all(np.diff(window) == 1)
    first, last = window[0], window[-1]
    return (error[last] / error[first]) ** (1.0 / (last - first))


def predicted_ratio(gap):
    return (1.0 - 2.0 * ETA * gap) ** 2


@pytest.mark.parametrize("name", ["h2-a", "h2-plateau"])
def test_natural_rate_is_set_by_the_gap(name):
    problem = load_preset(name)
    e = spectrum(problem)
    assert predicted_ratio(e[1] - e[0]) == pytest.approx(0.87898, abs=1e-5)
    assert late_ratio(problem, OptimizerKind.NATURAL_FS) == pytest.approx(
        predicted_ratio(e[1] - e[0]), abs=1e-4)


def test_natural_rate_on_toy_lies_between_its_two_slowest_modes():
    # E1 = -0.02 and E2 = 0.02 lie close together, so both modes are still alive
    problem = load_preset("toy")
    e = spectrum(problem)
    slow, next_slow = predicted_ratio(e[1] - e[0]), predicted_ratio(e[2] - e[0])
    assert (next_slow, slow) == pytest.approx((0.84268, 0.85004), abs=1e-5)
    assert next_slow < late_ratio(problem, OptimizerKind.NATURAL_FS) < slow


@pytest.mark.parametrize("name, measured", [("h2-a", 0.922), ("h2-plateau", 0.887),
                                            ("toy", 0.938)])
def test_vanilla_rate_is_not_the_spectral_prediction(name, measured):
    problem = load_preset(name)
    e = spectrum(problem)
    ratio = late_ratio(problem, OptimizerKind.VANILLA)
    assert ratio == pytest.approx(measured, abs=1e-3)
    assert abs(ratio - predicted_ratio(e[1] - e[0])) > 5e-3


def test_step_size_bound_per_preset():
    for name, bound in [("toy", 0.625), ("h2-a", 0.606), ("h2-plateau", 0.606)]:
        e = spectrum(load_preset(name))
        assert 1.0 / (e[-1] - e[0]) == pytest.approx(bound, abs=5e-4)


@pytest.mark.parametrize("name", ["h2-a", "h2-plateau"])
def test_natural_settles_just_below_the_bound_and_leaves_just_above(name):
    """From natural's limit point moved by 1e-3, natural settles at 0.97 eta* and
    leaves the ground band at 1.03 eta*, where eta* = 1 / (Emax - E0)."""
    problem = load_preset(name)
    e = spectrum(problem)
    bound = 1.0 / (e[-1] - e[0])
    limit = run(OptimizerKind.NATURAL_FS, problem.hamiltonian, problem.circuit, problem.theta0,
                ConstantRate(ETA), max_steps=problem.max_steps, grad_tol=1e-8).final
    assert limit.energy - e[0] < 1e-15

    def last_errors(start, eta):
        traj = run(OptimizerKind.NATURAL_FS, problem.hamiltonian, problem.circuit, start,
                   ConstantRate(eta), max_steps=600)
        return np.abs(traj.energies()[-200:] - e[0])

    rng = np.random.default_rng(3)
    for _ in range(3):
        start = np.array(limit.theta) + 1e-3 * rng.normal(size=problem.circuit.n_params)
        # measured: at most 4.4e-16 below the bound, and 0.28-0.48 above it
        assert last_errors(start, 0.97 * bound).max() <= 1e-15
        assert last_errors(start, 1.03 * bound).max() > 0.01


def pauli_hamiltonian(matrix):
    """The Pauli sum whose dense matrix is the Hermitian ``matrix``."""
    n = int(np.log2(len(matrix)))
    terms = []
    for letters in itertools.product("IXYZ", repeat=n):
        label = "".join(letters)
        pauli = dense_matrix(pauli_sum(n, [(1.0, label)]))
        terms.append((float(np.trace(pauli @ matrix).real) / 2 ** n, label))
    return pauli_sum(n, terms)


LEVELS = {"lowest": lambda d: 0, "middle": lambda d: d // 2, "highest": lambda d: d - 1}


def eigenstate_problem(rng, level="lowest"):
    """A random circuit of at most 3 qubits, a theta*, a Hamiltonian with a random
    spectrum (ascending, gapped above its lowest level) and the index s of the level
    that phi(theta*) takes: its lowest, a middle one or its highest (``LEVELS``)."""
    circ = random_circuit(rng)
    while circ.n_qubits > 3:
        circ = random_circuit(rng)
    theta = rng.uniform(-np.pi, np.pi, circ.n_params)
    d = 2 ** circ.n_qubits
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    z[:, 0] = build_state(circ, theta)
    basis = np.linalg.qr(z)[0]  # column 0 is phi(theta*) up to a phase
    energies = np.concatenate([[-1.0], np.sort(rng.uniform(-0.8, 1.0, d - 1))])
    s = LEVELS[level](d)
    levels = energies.copy()
    levels[[0, s]] = energies[[s, 0]]  # column 0 takes level s
    hamiltonian = pauli_hamiltonian((basis * levels) @ basis.conj().T)
    return circ, theta, hamiltonian, energies, s


def difference_hessian(hamiltonian, circ, theta, h=1e-5):
    """The energy Hessian at theta by central differences of the exact gradient."""
    columns = []
    for i in range(circ.n_params):
        step = np.zeros(circ.n_params)
        step[i] = h
        columns.append((energy_and_gradient(hamiltonian, circ, theta + step)[1]
                        - energy_and_gradient(hamiltonian, circ, theta - step)[1]) / (2 * h))
    return np.array(columns).T


@pytest.mark.parametrize("level", LEVELS)
def test_natural_step_spectrum_on_random_circuits(level):
    """At any eigenstate phi of H, of level E_s, the gradient vanishes and Hess =
    2 Re T^dag (H - E_s) T, so spec(F^+ Hess) on F's range lies in 2 (E_k - E_s) over the
    levels k != s.  That interval is positive at the lowest level, negative at the
    highest and holds 0 at a middle one, a saddle."""
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(40):
        circ, theta, hamiltonian, e, s = eigenstate_problem(rng, level)
        others = np.delete(e, s)
        phi, tangents = state_and_tangents(circ, theta)
        shifted = dense_matrix(hamiltonian) - e[s] * np.eye(len(phi))
        hess = 2.0 * (tangents.conj() @ shifted @ tangents.T).real

        # oracle: central differences of the exact gradient
        value, grad = energy_and_gradient(hamiltonian, circ, theta)
        assert value == pytest.approx(e[s], abs=1e-12)
        assert np.abs(grad).max() < 1e-12
        np.testing.assert_allclose(hess, difference_hessian(hamiltonian, circ, theta), atol=1e-6)

        metric = fubini_study_metric(circ, theta).values
        w, v = np.linalg.eigh(metric)
        rank = w > 1e-9 * max(w[-1], 1.0)
        if not rank.any():
            continue
        # Hess vanishes wherever F does, so F^+ Hess lives on F's range
        np.testing.assert_allclose(hess @ v[:, ~rank], 0.0, atol=1e-9)
        scale = v[:, rank] / np.sqrt(w[rank])
        eigenvalues = np.linalg.eigvalsh(scale.T @ hess @ scale)
        assert eigenvalues.min() >= 2.0 * (others.min() - e[s]) - 1e-7
        assert eigenvalues.max() <= 2.0 * (others.max() - e[s]) + 1e-7
        checked += 1
    assert checked >= 30


def test_plateau_saddle_escape_rates():
    """On h2-plateau both rules sit on the E1 plateau at step 200 and leave it at a
    geometric rate.  Under the natural step the ground amplitude |<ground|phi>| grows
    by 1 + 2 eta (E1 - E0) per step, set by the spectrum alone; under vanilla it grows
    by 1 - eta lambda_min, with lambda_min the lowest eigenvalue of the energy Hessian
    at the saddle vanilla reached, and that is faster here."""
    problem = load_preset("h2-plateau")
    e, vectors = np.linalg.eigh(dense_matrix(problem.hamiltonian))
    growth, saddle = {}, {}
    for kind in (OptimizerKind.NATURAL_FS, OptimizerKind.VANILLA):
        traj = run(kind, problem.hamiltonian, problem.circuit, problem.theta0,
                   ConstantRate(ETA), max_steps=400)
        first, last = traj.steps[200], traj.steps[400]
        assert first.energy == pytest.approx(e[1], abs=1e-5)
        amplitude = [abs(np.vdot(vectors[:, 0], build_state(problem.circuit, s.theta)))
                     for s in (first, last)]
        growth[kind] = (amplitude[1] / amplitude[0]) ** (1.0 / (last.k - first.k))
        saddle[kind] = np.array(first.theta)
    # measured: 1.062462 for both
    assert growth[OptimizerKind.NATURAL_FS] == pytest.approx(1.0 + 2.0 * ETA * (e[1] - e[0]),
                                                             rel=1e-5)
    hess = difference_hessian(problem.hamiltonian, problem.circuit, saddle[OptimizerKind.VANILLA])
    lowest = np.linalg.eigvalsh(0.5 * (hess + hess.T))[0]
    # measured: 1.079985 against 1.07983
    assert growth[OptimizerKind.VANILLA] == pytest.approx(1.0 - ETA * lowest, rel=1e-3)
    assert growth[OptimizerKind.VANILLA] > growth[OptimizerKind.NATURAL_FS]


def test_seeded_starts_escape_the_plateau_sooner():
    """``scripts/plateau_escape.py`` at delta = 1e-3 with two directions: each count is
    below its count from the preset start itself, where round-off seeds the escape."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "plateau_escape.py"
    spec = importlib.util.spec_from_file_location("plateau_escape", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    counts = script.escape_steps(1e-3, script.directions(2))
    unperturbed = {OptimizerKind.NATURAL_FS: 487, OptimizerKind.VANILLA: 491, OptimizerKind.ITE: 487}
    for kind, steps in counts.items():
        assert len(steps) == 2 and max(steps) < unperturbed[kind], (kind, steps)


def worst_ite_infidelity(problem, kind, eta, horizon=3.0):
    """The largest 1 - |<psi(tau)|phi_k>|^2 over the records k with tau = 2 eta k <= horizon,
    where psi(tau) is e^{-tau H} phi_0 normalized: the exact imaginary-time evolution."""
    w, v = np.linalg.eigh(dense_matrix(problem.hamiltonian))
    start = v.conj().T @ build_state(problem.circuit, problem.theta0)
    traj = run(kind, problem.hamiltonian, problem.circuit, problem.theta0, ConstantRate(eta),
               max_steps=int(round(horizon / (2.0 * eta))))
    worst = 0.0
    for s in traj.steps:
        psi = v @ (np.exp(-2.0 * eta * s.k * w) * start)
        overlap = np.vdot(psi / np.linalg.norm(psi), build_state(problem.circuit, s.theta))
        worst = max(worst, 1.0 - abs(overlap) ** 2)
    return worst


@pytest.mark.parametrize("name", ["h2-a", "qubit-a"])
def test_natural_gradient_follows_imaginary_time(name):
    """The natural step at rate eta is an Euler step of imaginary-time evolution over
    tau = 2 eta (the gradient is 2 Re<d phi|H|phi>), so its state error is O(eta) and its
    infidelity to e^{-tau H} phi_0 falls about 4x per halving of eta; vanilla's does not."""
    problem = load_preset(name)
    etas = (0.05, 0.025, 0.0125, 0.00625)
    for kind, low, high in ((OptimizerKind.NATURAL_FS, 3.5, 6.0),
                            (OptimizerKind.VANILLA, 0.9, 1.2)):
        worst = np.array([worst_ite_infidelity(problem, kind, eta) for eta in etas])
        # measured natural: 4.08, 4.04, 4.02 on h2-a and 5.55, 4.70, 4.32 on qubit-a;
        # vanilla: 0.99-1.00 and 1.01-1.06
        factors = worst[:-1] / worst[1:]
        assert np.all((low <= factors) & (factors <= high)), (kind, factors)

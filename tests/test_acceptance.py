"""Acceptance gate: one test per release criterion, each at its pinned tolerance.

The criteria pin down, in order: the closed forms of the three geometry
matrices and their independent oracles (1-4), the two-qubit spectrum (5), the
matrix ordering between the three geometries (6), the rank-1 degeneracy of the
measurement-induced metric (7), basin selection and convergence-speed
orderings for every case study (8-11), the weak-coupling failure mode (12),
the gradient oracle (13), and byte-level determinism of the CLI output (14).

Two closed-form corrections are baked in (see tests/test_geometry.py for the
derivation and the independent overlap oracle): the two-layer ansatz metric
carries a (3,4) coupling -sin(2*t1)cos(2*t2) that makes its determinant
vanish identically, so the sin^2(2*t1)cos^2(2*t2) determinant law is asserted
for the coupling-block product; and the classical Fisher matrix is bounded by
4x the state metric, so the ordering check carries that normalization.

Criterion 12 asserts a behavior (the metric-preconditioned iteration never
settling at the weakly-coupled ground state) that these dynamics do not
display: the run converges to a stable point of the minimizing fiber and
holds the band to machine precision under every inversion policy.  The
assertion is kept unweakened and is expected to fail.
"""
import math
import time

import numpy as np
import pytest

from natvqe import (
    EigenFloor,
    OptimizerKind,
    build_state,
    classical_fisher_metric,
    compare,
    energy_and_gradient,
    energy,
    entanglement_entropy,
    fubini_study_metric,
    ite_matrix,
    load_preset,
    run,
    spectral_decompose,
)
from natvqe.experiments import hardware_efficient_ansatz, sigma_x_hamiltonian, single_qubit_ansatz
from natvqe.observables import dense_matrix, outcome_distribution

V, N, I = OptimizerKind.VANILLA, OptimizerKind.NATURAL_FS, OptimizerKind.ITE
POLICY = EigenFloor(1e-10)

N_POINTS = 10_000
H2_GROUND = -math.sqrt(0.68)          # alpha=0.4, beta=0.2
TOY_GROUND = -math.sqrt(0.6404)       # alpha=0.4, beta=0.02


def two_layer_metric_closed_form(t1, t2):
    f = np.eye(4)
    f[0, 2] = f[2, 0] = math.sin(2 * t2)
    f[1, 3] = f[3, 1] = math.cos(2 * t1)
    f[2, 3] = f[3, 2] = -math.sin(2 * t1) * math.cos(2 * t2)
    return f


def coupling_block_determinant(values):
    return float((1.0 - values[0, 2] ** 2) * (1.0 - values[1, 3] ** 2))


def pair_entropy(lam):
    s = 0.0
    for p in (lam, 1.0 - lam):
        if p > 0.0:
            s -= p * math.log(p)
    return s


def entropy_of_block_det(d):
    return pair_entropy(0.5 + 0.5 * math.sqrt(max(0.0, 1.0 - d)))


def first_step_reaching(trajectory, level):
    for s in trajectory.steps:
        if s.energy <= level:
            return s.k
    return None


def longest_run_within(values, center, width):
    best = cur = 0
    for v in values:
        cur = cur + 1 if abs(v - center) < width else 0
        best = max(best, cur)
    return best


@pytest.fixture(scope="module")
def h2_grid():
    """10^4 random parameter points with their exact metric and Gram matrices."""
    circ = hardware_efficient_ansatz()
    rng = np.random.default_rng(101)
    thetas = rng.uniform(-np.pi, np.pi, (N_POINTS, 4))
    t0 = time.perf_counter()
    metrics = [fubini_study_metric(circ, t).values for t in thetas]
    metric_seconds = time.perf_counter() - t0
    grams = [ite_matrix(circ, t).values for t in thetas]
    return thetas, metrics, grams, metric_seconds


@pytest.fixture(scope="module")
def qubit_grid():
    circ = single_qubit_ansatz()
    rng = np.random.default_rng(102)
    thetas = rng.uniform(-np.pi, np.pi, (N_POINTS, 2))
    t0 = time.perf_counter()
    metrics = [fubini_study_metric(circ, t).values for t in thetas]
    metric_seconds = time.perf_counter() - t0
    return thetas, metrics, metric_seconds


@pytest.fixture(scope="module")
def nondegenerate_qubit_points():
    """1000 random points where the measurement distribution is safely non-degenerate."""
    circ, h = single_qubit_ansatz(), sigma_x_hamiltonian()
    decomp = spectral_decompose(h)
    rng = np.random.default_rng(103)
    points = []
    while len(points) < 1000:
        theta = rng.uniform(-np.pi, np.pi, 2)
        probs = outcome_distribution(decomp, build_state(circ, theta))
        if probs.min() > 1e-3:
            points.append(theta)
    return circ, decomp, points


def test_criterion_01_analytic_metric_equivalence(qubit_grid, h2_grid):
    q_thetas, q_metrics, q_seconds = qubit_grid
    h_thetas, h_metrics, _, h_seconds = h2_grid
    for theta, values in zip(q_thetas, q_metrics):
        expected = np.diag([1.0, math.sin(2 * theta[0]) ** 2])
        assert np.max(np.abs(values - expected)) < 1e-9
    for theta, values in zip(h_thetas, h_metrics):
        assert np.max(np.abs(values - two_layer_metric_closed_form(*theta[:2]))) < 1e-9
    assert q_seconds + h_seconds < 5.0


def test_criterion_02_ite_matrix_equivalence(qubit_grid, h2_grid):
    circ = single_qubit_ansatz()
    q_thetas, _, _ = qubit_grid
    for theta in q_thetas:
        values = ite_matrix(circ, theta).values
        expected = np.diag([1.0, 4 * math.sin(theta[0]) ** 2])
        assert np.max(np.abs(values - expected)) < 1e-9
    _, h_metrics, h_grams, _ = h2_grid
    for values, gram in zip(h_metrics, h_grams):
        assert np.max(np.abs(gram - values)) < 1e-10


def test_criterion_03_determinant_identity(h2_grid):
    thetas, metrics, _, _ = h2_grid
    for theta, values in zip(thetas, metrics):
        assert abs(np.linalg.det(values)) < 1e-9  # 4 parameters, 3-dim state manifold
        expected = math.sin(2 * theta[0]) ** 2 * math.cos(2 * theta[1]) ** 2
        assert abs(coupling_block_determinant(values) - expected) < 1e-9


def test_criterion_04_separability_correspondence(h2_grid):
    circ = hardware_efficient_ansatz()
    thetas, metrics, _, _ = h2_grid
    # entropy threshold matched to the block-determinant threshold through the
    # exact monotone map between them (equal thresholds disagree on the narrow
    # band where d < 1e-6 but S(d) >= 1e-6)
    lo, hi = 1e-12, 1e-3
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if entropy_of_block_det(mid) < 1e-6:
            lo = mid
        else:
            hi = mid
    d_star = math.sqrt(lo * hi)
    assert entropy_of_block_det(1e-6) > 1e-6  # the stated equal-threshold pair cannot match
    for theta, values in zip(thetas, metrics):
        s = entanglement_entropy(build_state(circ, theta))
        d = coupling_block_determinant(values)
        assert abs(s - entropy_of_block_det(d)) < 1e-9
        assert (s < 1e-6) == (d < d_star)


def test_criterion_05_spectrum():
    h = load_preset("h2-a").hamiltonian
    decomp = spectral_decompose(h)
    expected = [H2_GROUND, -0.2, 0.2, -H2_GROUND]
    assert np.max(np.abs(decomp.eigenvalues - expected)) < 1e-10
    assert round(H2_GROUND, 2) == -0.82
    vec = np.array([-0.2, 0.0, 0.0, 0.8 + math.sqrt(0.68)])
    vec /= np.linalg.norm(vec)
    assert np.linalg.norm(dense_matrix(h) @ vec - H2_GROUND * vec) < 1e-10


def test_criterion_06_matrix_inequalities(nondegenerate_qubit_points):
    circ, decomp, points = nondegenerate_qubit_points
    for theta in points:
        f = fubini_study_metric(circ, theta).values
        a = ite_matrix(circ, theta).values
        assert np.linalg.eigvalsh(a - f)[0] >= -1e-9
        fc = classical_fisher_metric(circ, theta, decomp).values
        # measurement information never exceeds 4x the state metric
        assert np.linalg.eigvalsh(f - 0.25 * fc)[0] >= -1e-8


def test_criterion_07_classical_fisher_rank_one(nondegenerate_qubit_points):
    circ, decomp, points = nondegenerate_qubit_points
    for theta in points:
        eigs = np.linalg.eigvalsh(classical_fisher_metric(circ, theta, decomp).values)
        assert eigs[-2] < 1e-9 * eigs[-1]


def test_criterion_08_basin_selection_qubit_a():
    preset = load_preset("qubit-a")
    report = compare(preset, [V, N, I], threshold=1e-3, policy=POLICY)
    finals = {k: np.array(r.trajectory.final.theta) for k, r in report.results.items()}
    assert np.linalg.norm(finals[V] - [-np.pi / 4, 0.0]) < 0.02
    assert np.linalg.norm(finals[N] - [np.pi / 4, np.pi / 2]) < 0.02
    assert np.linalg.norm(finals[I] - [np.pi / 4, np.pi / 2]) < 0.02
    for r in report.results.values():
        assert r.steps_to_threshold is not None  # energy within 1e-3 of -1 inside 300 steps
        assert abs(r.trajectory.final.energy + 1.0) < 1e-3
    hits = {k: first_step_reaching(r.trajectory, -0.99) for k, r in report.results.items()}
    assert hits[N] < hits[V]
    assert hits[I] < hits[V]


def test_criterion_09_basin_selection_qubit_b():
    preset = load_preset("qubit-b")
    report = compare(preset, [V, N, I], threshold=1e-3, policy=POLICY)
    finals = {k: np.array(r.trajectory.final.theta) for k, r in report.results.items()}
    assert np.linalg.norm(finals[V] - [3 * np.pi / 4, 0.0]) < 0.02
    assert np.linalg.norm(finals[I] - [3 * np.pi / 4, 0.0]) < 0.02
    assert np.linalg.norm(finals[N] - [np.pi / 4, np.pi / 2]) < 0.02
    hits = {k: first_step_reaching(r.trajectory, -0.99) for k, r in report.results.items()}
    assert hits[N] < hits[V] and hits[N] < hits[I]


def test_criterion_10_h2_convergence():
    preset = load_preset("h2-a")
    report = compare(preset, [V, N], threshold=0.01, policy=POLICY)
    hits = {k: r.steps_to_threshold for k, r in report.results.items()}
    assert hits[V] is not None and hits[V] <= 1000
    assert hits[N] is not None and hits[N] <= 1000
    assert hits[N] < hits[V]


def test_criterion_11_plateau_escape():
    preset = load_preset("h2-plateau")
    report = compare(preset, [V, N], threshold=0.05, policy=POLICY)
    vanilla = report.results[V].trajectory.energies()
    descended = np.nonzero(vanilla < -0.25)[0]
    before_descent = vanilla[: descended[0]] if len(descended) else vanilla
    assert longest_run_within(before_descent, -0.2, 0.05) >= 50
    hits = {k: r.steps_to_threshold for k, r in report.results.items()}
    assert hits[N] is not None
    assert hits[V] is None or hits[N] < hits[V]


def test_criterion_12_toy_molecule_failure_mode():
    preset = load_preset("toy")
    report = compare(preset, [V, N], threshold=0.01, policy=POLICY, max_steps=2000)
    vanilla_tail = report.results[V].trajectory.energies()[-400:]
    assert np.all(np.abs(vanilla_tail - TOY_GROUND) < 0.01)
    natural_tail = report.results[N].trajectory.energies()[-400:]
    worst = float(np.max(np.abs(natural_tail - TOY_GROUND)))
    assert not np.all(np.abs(natural_tail - TOY_GROUND) < 0.01), (
        "metric-preconditioned run was expected to keep leaving the ground state "
        f"near the singular set, but its final 400 steps stay within {worst:.2e} of it"
    )


def test_criterion_13_gradient_oracle(single_qubit, h2_problem):
    delta = 1e-6
    rng = np.random.default_rng(104)
    for circ, h in (single_qubit, h2_problem):
        for _ in range(1000):
            theta = rng.uniform(-np.pi, np.pi, circ.n_params)
            grad = energy_and_gradient(h, circ, theta)[1]
            for i in range(circ.n_params):
                up, down = theta.copy(), theta.copy()
                up[i] += delta
                down[i] -= delta
                oracle = (energy(h, build_state(circ, up))
                          - energy(h, build_state(circ, down))) / (2 * delta)
                assert abs(grad[i] - oracle) < 1e-8


def test_criterion_14_cli_determinism(tmp_path):
    from natvqe.cli import main

    for sub in ("first", "second"):
        code = main(["run", "--preset", "h2-a", "--optimizer", "natural",
                     "--out-dir", str(tmp_path / sub)])
        assert code == 0
    first = (tmp_path / "first" / "h2-a_natural.csv").read_bytes()
    second = (tmp_path / "second" / "h2-a_natural.csv").read_bytes()
    assert first == second

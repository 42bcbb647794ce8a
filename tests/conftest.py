import re

import pytest
from hypothesis import settings

# sandbox machines are slow and the properties are numeric, not I/O bound
settings.register_profile("default", deadline=None, max_examples=50)
settings.load_profile("default")

_CRITERION = re.compile(r"test_acceptance\.py::test_criterion_(\d+)_(\w+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of the run."""
    rows = []
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            match = _CRITERION.search(getattr(report, "nodeid", ""))
            if match:
                rows.append((int(match.group(1)), match.group(2), outcome == "passed"))
    if not rows:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number, slug, ok in sorted(rows):
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"[{status}] criterion {number:2d}: {slug.replace('_', ' ')}")


@pytest.fixture(scope="session")
def single_qubit():
    from natvqe.experiments import sigma_x_hamiltonian, single_qubit_ansatz

    return single_qubit_ansatz(), sigma_x_hamiltonian()


@pytest.fixture(scope="session")
def h2_problem():
    from natvqe.experiments import h2_hamiltonian, hardware_efficient_ansatz

    return hardware_efficient_ansatz(), h2_hamiltonian()

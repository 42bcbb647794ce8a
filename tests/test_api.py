"""The public surface: what the package root exports, and what each module's __all__ names."""
import importlib
import pkgutil
import re
import types
from pathlib import Path

import pytest

import natvqe

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = sorted(info.name for info in pkgutil.iter_modules(natvqe.__path__))


def root_exports():
    return {name for name, value in vars(natvqe).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)}


def readme_api():
    """``{module: [names]}`` from the ``- `natvqe.<module>`: `a`, `b`, ...`` lines of the API section."""
    section = README.read_text(encoding="utf-8").split("\n## API\n", 1)[1].split("\n## ", 1)[0]
    listed = {}
    for line in section.splitlines():
        match = re.fullmatch(r"- `natvqe\.(\w+)`: (.*)", line)
        if match:
            listed[match.group(1)] = re.findall(r"`(\w+)`", match.group(2))
    return listed


def test_root_exports_are_named_in_readme():
    listed = readme_api()
    names = [name for names in listed.values() for name in names]
    assert sorted(names) == sorted(root_exports())
    for module, names in listed.items():
        source = importlib.import_module(f"natvqe.{module}")
        for name in names:
            assert name in source.__all__
            assert getattr(source, name) is getattr(natvqe, name)


@pytest.mark.parametrize("module", MODULES)
def test_module_all_resolves(module):
    source = importlib.import_module(f"natvqe.{module}")
    names = getattr(source, "__all__", [])
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(source, name), f"natvqe.{module}.__all__ names missing {name!r}"

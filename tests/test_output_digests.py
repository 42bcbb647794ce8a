"""The byte contract as a test: natvqe's outputs match the committed digests.

``output_digests.txt`` holds what ``scripts/output_digests.py --seeds 1 2``
printed, headed by the numpy version and the OpenBLAS core it ran on.  numpy's
bundled OpenBLAS picks its kernels by CPU at run time, so the bits may differ
on another core or another numpy; the test skips there and says why.  After an
intended change of output bytes, regenerate the file with

    python3 tests/test_output_digests.py

and list every changed line where the change is described.
"""
import ctypes
import difflib
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("output_digests.txt")
SEEDS = ("1", "2")


def openblas_core() -> str | None:
    """The core numpy's bundled scipy-openblas dispatches to, or None without one."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            return None
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return None


def platform() -> list[str]:
    return [f"numpy {np.__version__}", f"openblas-core {openblas_core()}"]


def current_digests() -> list[str]:
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "output_digests.py"),
                           "--seeds", *SEEDS], check=True, stdout=subprocess.PIPE, text=True)
    return proc.stdout.splitlines()


def test_outputs_match_the_committed_digests():
    lines = GOLDEN.read_text(encoding="utf-8").splitlines()
    made_with = [ln[2:] for ln in lines if ln.startswith("# ")]
    if made_with != platform():
        pytest.skip(f"the digests were made with {', '.join(made_with)}; "
                    f"this is {', '.join(platform())}")
    expected = [ln for ln in lines if not ln.startswith("#")]
    diff = list(difflib.unified_diff(expected, current_digests(), "committed", "this tree",
                                     lineterm="", n=0))
    if diff:
        pytest.fail("output bytes differ from tests/output_digests.txt:\n" + "\n".join(diff),
                    pytrace=False)


if __name__ == "__main__":
    header = [f"# {line}" for line in platform()]
    GOLDEN.write_text("\n".join(header + current_digests()) + "\n", encoding="utf-8")

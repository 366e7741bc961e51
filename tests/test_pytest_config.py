"""The project's pytest settings report a failing hypothesis test as a failure.

``filterwarnings = ["error"]`` turns every warning into an error. A
warning raised while pytest reports a failing test would then end the
whole run with INTERNALERROR, and the tests after it would not run.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5
"""


def test_a_failing_hypothesis_test_prints_its_example(tmp_path):
    (tmp_path / "test_fails.py").write_text(FAILING, encoding="utf-8")
    argv = [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
            "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q", "test_fails.py"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "Falsifying example" in output and "INTERNALERROR" not in output, output

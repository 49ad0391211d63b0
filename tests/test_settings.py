"""The project's pytest settings, run on a throwaway test file."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(x):
    assert x != 0


def test_plain_fails():
    assert False
'''


def test_failing_property_test_does_not_stop_the_session(tmp_path):
    # Warnings are errors, so a deprecation warning raised while hypothesis
    # reports a failure would end the session with INTERNALERROR and hide
    # every later test; both failures must be reported.
    (tmp_path / "test_failing.py").write_text(FAILING_TESTS)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "2 failed" in output, output
    assert "INTERNALERROR" not in output, output

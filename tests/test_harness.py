"""The test run's own settings: pytest under the project's pyproject.toml
reports every failure, a failing property test included, and ends with
exit code 1 (tests failed), not 3 (internal error)."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(x):
    assert x != x


def test_plain_fails_after_it():
    assert False
'''


def test_a_failing_property_test_leaves_the_rest_of_the_run_reported(tmp_path):
    (tmp_path / "test_failing.py").write_text(FAILING_TESTS)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out, out
    assert "2 failed" in out, out
    assert run.returncode == 1, out

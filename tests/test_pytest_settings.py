"""The pytest settings of pyproject.toml keep every test failure visible."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_failing_property(x):
    assert x < 5


def test_a_failing_plain_test():
    assert False


def test_a_passing_test():
    pass
'''


def test_a_failing_property_test_leaves_every_other_failure_reported(tmp_path):
    # hypothesis's failure report imports a module that warns of its own
    # deprecation; under -W error and this project's settings the run still
    # reports both failures instead of stopping with INTERNALERROR
    (tmp_path / "pyproject.toml").write_text(PYPROJECT.read_text(encoding="utf-8"),
                                             encoding="utf-8")
    (tmp_path / "test_failing.py").write_text(FAILING, encoding="utf-8")
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "pytest", "-q",
                           "-p", "no:cacheprovider", "test_failing.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.returncode == 1, proc.stdout
    assert "2 failed, 1 passed" in proc.stdout

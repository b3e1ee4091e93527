"""Checks on the repository's own settings and sources: a failing property
test under the pytest settings is reported like any other failure, and the
package keeps no module state behind a `global` statement."""

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TWO_TESTS = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_a_failing_property_test_leaves_the_session_running(tmp_path):
    # hypothesis reports a failing @given test through an import that once
    # raised a warning, which filterwarnings = ["error"] turned into an
    # INTERNALERROR that stopped the session before its next test
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q",
         "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert done.returncode == 1, done.stdout
    assert "1 failed, 1 passed" in done.stdout


def test_the_package_has_no_global_statement():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted((ROOT / "src" / "mmds").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Global)]
    assert found == []

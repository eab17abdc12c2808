"""A failing property test is reported as a failure, and the run goes on.

pyproject.toml turns every warning into an error. hypothesis imports a
deprecated third-party name only while it reports a failing example, so
without the narrow filter next to "error" that report became an
INTERNALERROR: pytest stopped there, and no later test was reported.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PAIR = '''\
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_property_fails(n):
    assert n < 0


def test_plain_passes():
    pass
'''


def test_a_failing_property_test_leaves_the_rest_reported(tmp_path):
    (tmp_path / "test_pair.py").write_text(PAIR, "utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout

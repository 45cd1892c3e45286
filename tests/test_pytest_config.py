"""The repository's pytest configuration keeps a session going past a
failing property test."""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parent.parent / "pyproject.toml"

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_given_test_does_not_end_the_session(tmp_path):
    # Reporting a failing example imports modules that warn on import; under
    # ``filterwarnings = error`` that warning once ended the whole session.
    (tmp_path / "test_probe.py").write_text(PROBE)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(CONFIG), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout

"""The repository's pytest configuration keeps a session going past a
failing property test, and its report header names the numpy that the
pinned digests assume."""

import subprocess
import sys
from pathlib import Path

import numpy as np

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


def test_the_report_header_names_the_numpy_the_digests_assume(request, monkeypatch):
    def headers():
        lines = request.config.hook.pytest_report_header(config=request.config,
                                                         start_path=CONFIG.parent)
        return [line for line in lines if isinstance(line, str) and line.startswith("numpy ")]

    monkeypatch.setattr(np, "__version__", "2.4.6")
    assert headers() == ["numpy 2.4.6"]
    monkeypatch.setattr(np, "__version__", "1.26.4")
    assert headers() == ["numpy 1.26.4: every pinned digest assumes numpy 2.4.6's Generator "
                         "streams, so a digest mismatch may come from the numpy version"]

"""The test session survives a failing hypothesis test (see conftest.py)."""

import shutil
import subprocess
import sys
from pathlib import Path

FAILING_THEN_PASSING = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    # the project's warning filter, this conftest, one failing property and
    # one plain test after it: the session reports both and no INTERNALERROR
    shutil.copy(Path(__file__).with_name("conftest.py"), tmp_path / "conftest.py")
    (tmp_path / "test_session.py").write_text(FAILING_THEN_PASSING)
    (tmp_path / "pytest.ini").write_text("[pytest]\nfilterwarnings = error::DeprecationWarning\n")
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(tmp_path)],
                          capture_output=True, text=True, cwd=tmp_path, timeout=300)
    out = done.stdout + done.stderr
    assert "INTERNALERROR" not in out, out
    assert "1 failed, 1 passed" in out, out

"""The benchmark's self-test, run as a tier-1 test.

``perfbench`` wraps names of the package (the ``cli`` imports, several
``synthesize`` attributes and the keyword arguments it reads from their
calls). Running its self-test here turns a rename of any of them into a
test failure instead of a failed benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest passed" in proc.stdout

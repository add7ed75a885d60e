"""The benchmark under perfbench/ uses the LP API from outside the package
(`LinearProgram.matrix`, `rhs()`, iteration over `lp.rows`, `Row`, the names
its tracer wraps). Its own self-tests exercise all of that, so running them
here makes an API change that would break the benchmark fail this suite."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr

import os
import subprocess
import sys


def test_benchmark_selftest_passes():
    # the benchmark's tracer wraps library functions by name, so renaming
    # one of them breaks the benchmark; its self-tests fail when that happens
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    done = subprocess.run([sys.executable, os.path.join("perfbench", "selftest.py")], cwd=root,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr

"""Tests of the package as a whole: what importing it costs, how it runs."""

import os
import subprocess
import sys
from pathlib import Path

import evtrisk


def test_import_leaves_heavy_scipy_modules_unloaded():
    # scipy is only needed by code that imports it on use (the Student-t
    # CDF and quantile, the Gumbel ground truth, the quadrature oracle),
    # and the process pool, which pulls in multiprocessing, only by a
    # benchmark run with more than one worker; loading the package must
    # pay for neither.
    code = ("import sys, evtrisk\n"
            "print(sorted(m for m in sys.modules"
            " if m.split('.')[0] in ('scipy', 'multiprocessing')"
            " or m == 'concurrent.futures.process'))")
    proc = _run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_python_dash_m_runs_the_cli_without_warnings():
    proc = _run_python("-W", "error", "-m", "evtrisk", "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert "usage: evtrisk" in proc.stdout


def _run_python(*args):
    """Run a fresh interpreter that imports this checkout's package."""
    src = str(Path(evtrisk.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=120)

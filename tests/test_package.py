"""Tests of the package as a whole: what importing it costs."""

import os
import subprocess
import sys
from pathlib import Path

import evtrisk


def test_import_leaves_heavy_scipy_modules_unloaded():
    # scipy.optimize and scipy.integrate are only needed by code that
    # imports them on use (the quadrature oracle); loading the package
    # must not pay for them.
    code = ("import sys, evtrisk\n"
            "print(sorted(m for m in ('scipy.optimize', 'scipy.integrate')"
            " if m in sys.modules))")
    src = str(Path(evtrisk.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"

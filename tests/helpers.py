"""Shared factories for the test suite."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import evtrisk
from evtrisk import TailParams
from evtrisk.distributions import _grid_workspace


def random_params(rng, gamma_range=(-2.0, 0.95)):
    """Randomized valid tail parameters for property sweeps."""
    gamma = rng.uniform(*gamma_range)
    m = int(rng.integers(20, 500))
    k = int(rng.integers(2, max(3, m // 4)))
    return TailParams(
        k=k,
        m=m,
        gamma=gamma,
        threshold=rng.uniform(-10.0, 10.0),
        scale=float(np.exp(rng.uniform(-2.0, 3.0))),
    )


def exact_pareto2_params():
    """Parameters whose tail reproduces Pareto(2) above its 0.90-quantile."""
    s = math.sqrt(10.0)
    return TailParams(k=10, m=100, gamma=0.5, threshold=s, scale=s / 2.0)


def draw_rows(dist, seeds, n):
    """One row of ``n`` draws of ``dist`` per seed, drawn as a grid pass
    draws them: through ``Distribution._draw`` into one matrix, with the
    thread's ``_grid_workspace`` as scratch.  Row ``i`` should be
    ``dist.sample(n, RandomStream(seeds[i]))``."""
    out = np.empty((len(seeds), n))
    dist._draw(seeds, 0, out, _grid_workspace(out.size)[1])
    return out


def run_python(*args, address_space=None, **env_vars):
    """Run a fresh interpreter that imports this checkout's package.

    ``env_vars`` are added to its environment; ``address_space`` caps its
    virtual memory in bytes, so code that would allocate gigabytes fails
    there with a ``MemoryError``.
    """
    src = str(Path(evtrisk.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])), **env_vars)
    limit = None
    if address_space is not None:
        import resource

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=120, preexec_fn=limit)

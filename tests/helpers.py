"""Shared factories for the test suite."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np

import evtrisk
from evtrisk import TailParams
from evtrisk import distributions
from evtrisk.distributions import Distribution, _workspace


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


def steps_law(levels):
    """A law of ``levels`` atoms 0, 1, ..., levels - 1 of equal mass, named
    ``steps<levels>``: in a draw of 10**4 or more, hundreds tie at the
    empirical quantile.  It has no CDF or truths, only draws."""
    return Distribution(name=f"steps{levels}", gamma_ref=-math.inf,
                        right_endpoint=levels - 1.0, mean=(levels - 1) / 2,
                        _cdf=None, _quantile=lambda p, out=None: np.floor(levels * p, out=out),
                        _tail_semidev=None, _mean_tail=None)


def draw_rows(dist, seeds, n):
    """One row of ``n`` draws of ``dist`` per seed, drawn as a grid pass
    draws them: through ``Distribution._draw`` into one matrix, with
    fresh scratch of the matrix's size, which any number of rows fits.
    Row ``i`` should be ``dist.sample(n, RandomStream(seeds[i]))``."""
    out = np.empty((len(seeds), n))
    dist._draw(seeds, 0, out, (np.empty((len(dist._word_offsets),) + out.shape),
                               np.empty((2,) + out.shape, np.uint64)))
    return out


def traced_peaks(call):
    """Traced peaks of ``call()``: first in a thread with no kept
    workspace, then again in the one that call left; and that
    workspace's bytes, which the first call allocates and keeps."""
    distributions._KEPT.__dict__.clear()
    peaks = []
    for _ in range(2):
        tracemalloc.start()
        try:
            call()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    plane, (_, words) = _workspace()
    return peaks[0], peaks[1], plane.base.nbytes + words.nbytes


def avx512_targets():
    """numpy's AVX-512 dispatch targets that are on for this CPU: the ones
    ``NPY_DISABLE_CPU_FEATURES`` can switch off (numpy refuses the rest)
    to reach the next level down; empty where AVX-512 is absent."""
    # numpy's runtime CPU tables (numpy 1.x keeps them under numpy.core).
    umath = (getattr(np, "_core", None) or np.core)._multiarray_umath
    return [t for t in umath.__cpu_dispatch__
            if umath.__cpu_features__.get(t) and ("AVX512" in t or t == "X86_V4")]


def x86_v3_targets():
    """:func:`avx512_targets` and numpy's ``X86_V3`` target (AVX2 and FMA3)
    where it is on for this CPU: switched off together, they leave numpy
    at its baseline, X86_V2 in numpy 2's default build.  Empty where numpy
    dispatches neither."""
    # numpy's runtime CPU tables (numpy 1.x keeps them under numpy.core).
    umath = (getattr(np, "_core", None) or np.core)._multiarray_umath
    return [t for t in umath.__cpu_dispatch__
            if umath.__cpu_features__.get(t) and ("AVX512" in t or t in ("X86_V3", "X86_V4"))]


def run_without_avx512(targets, code):
    """Run ``code`` with numpy's AVX-512 ``targets`` switched off
    (``NPY_DISABLE_CPU_FEATURES``), in a fresh interpreter that turns
    warnings into errors, has the tests directory on its path, and first
    checks that each of ``targets`` is off."""
    child = (f"import sys, numpy\nsys.path.insert(0, {str(Path(__file__).parent)!r})\n"
             "umath = (getattr(numpy, '_core', None) or numpy.core)._multiarray_umath\n"
             f"still_on = [f for f in {list(targets)!r} if umath.__cpu_features__[f]]\n"
             "assert not still_on, still_on\n" + code)
    return run_python("-W", "error", "-c", child, NPY_DISABLE_CPU_FEATURES=" ".join(targets))


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

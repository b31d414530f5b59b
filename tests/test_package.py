"""Tests of the package as a whole: what importing it costs, how it runs."""

from pathlib import Path

import pytest

import evtrisk
from helpers import avx512_targets, run_python


def test_import_leaves_heavy_scipy_modules_unloaded():
    # The package needs no scipy, and the thread pool, which pulls in
    # logging, is needed only by a benchmark run with more than one
    # worker; loading the package must pay for neither.
    code = ("import sys, evtrisk\n"
            "print(sorted(m for m in sys.modules"
            " if m.split('.')[0] in ('scipy', 'multiprocessing', 'concurrent')))")
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_two_worker_grid_runs_in_one_process():
    # Workers are threads: a grid at two workers starts no process and
    # never loads multiprocessing.
    code = ("import sys, evtrisk\n"
            "cfg = evtrisk.ExperimentConfig(distributions=('pareto2', 'gumbel'),"
            " m_values=(20, 21), trials=5)\n"
            "assert evtrisk.run_experiment(cfg, workers=2) == evtrisk.run_experiment(cfg)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing'"
            " or m == 'concurrent.futures.process'))")
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_no_module_names_scipy():
    src = Path(evtrisk.__file__).parent
    named = [path.name for path in sorted(src.rglob("*.py"))
             if "scipy" in path.read_text(encoding="utf-8")]
    assert named == []


def test_ground_truths_grid_and_oracle_load_no_scipy(tmp_path):
    # With scipy unimportable, the functions that once used it or reach
    # code that did (the CDFs, the quadrature check, the tail-approximation
    # probe) run, and so do the truths, quantiles, both oracles, the grid
    # and the three CLI commands.
    code = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"no module named {name!r} here")

sys.meta_path.insert(0, NoScipy())
try:
    import scipy
except ImportError:
    pass
else:
    raise AssertionError("scipy imported")

import numpy as np
from evtrisk import (DISTRIBUTIONS, ExperimentConfig, RandomStream, TailParams, cli,
                     monte_carlo_semideviation, run_experiment,
                     semideviation_by_quadrature, synthetic_overflow_path,
                     tail_approximation_error, value_at_risk)

for dist in DISTRIBUTIONS.values():
    dist.extremal_semideviation(0.01)
    dist.cdf(np.linspace(-3.0, 3.0, 7))
    dist.cdf(dist.quantile(0.99))
    monte_carlo_semideviation(dist, 0.01, 10_000, RandomStream(1))
run_experiment(ExperimentConfig(distributions=sorted(DISTRIBUTIONS),
                                m_values=(20, 21), trials=5))
for gamma in (-2.0, 0.0, 0.5):
    p = TailParams(k=5, m=40, gamma=gamma, threshold=2.0, scale=1.5)
    semideviation_by_quadrature(p, 0.05, value_at_risk(p, 0.05) - 1.0)
p = TailParams(k=5, m=40, gamma=0.2, threshold=2.0, scale=0.4)
tail_approximation_error(DISTRIBUTIONS["tstudent5"], p, np.linspace(2.0, 9.0, 8))
config, out = sys.argv[1:]
assert cli.main(["estimate", "--input", str(synthetic_overflow_path())]) == 0
assert cli.main(["benchmark", "--config", config, "--out", out]) == 0
assert cli.main(["oracle", "--dist", "gumbel", "--samples", "10000"]) == 0
assert not [m for m in sys.modules if m.split(".")[0] == "scipy"]
"""
    config = tmp_path / "bench.cfg"
    config.write_text("distributions = pareto2, tstudent5, gumbel\n"
                      "m_values = 20..21\ntrials = 5\n", encoding="utf-8")
    proc = run_python("-W", "error", "-c", code, str(config), str(tmp_path / "out.csv"))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out.csv").read_text(encoding="utf-8").count("\n") == 7


def test_python_dash_m_runs_the_cli_without_warnings():
    proc = run_python("-W", "error", "-m", "evtrisk", "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert "usage: evtrisk" in proc.stdout


class TestSimdDispatch:
    """The benchmark CSV, and the raw draws of the laws sampled by
    correctly rounded steps alone, do not depend on which SIMD kernels
    numpy dispatches to.  This is a claim about one machine: it compares
    its AVX-512 kernels with its next level down, not different CPUs."""

    # Prints the CSV of a 6-law x m {20, 57, 99} x 300-trial grid, then the
    # SHA-256 of 10**5 draws of each law that uses no log, log1p, sin, cos
    # or pow, after checking that every CPU feature named on the command
    # line is off.
    CHILD = """
import hashlib, sys, numpy, evtrisk
from evtrisk.cli import CSV_HEADER, summary_row
umath = (getattr(numpy, "_core", None) or numpy.core)._multiarray_umath
still_on = [f for f in sys.argv[1:] if umath.__cpu_features__[f]]
assert not still_on, still_on
cfg = evtrisk.ExperimentConfig(distributions=sorted(evtrisk.DISTRIBUTIONS),
                               m_values=(20, 57, 99), trials=300, master_seed=11)
print("\\n".join([CSV_HEADER, *map(summary_row, evtrisk.run_experiment(cfg))]))
for name in ("pareto2", "uniform01", "beta12"):
    draws = evtrisk.get_distribution(name).sample(10**5, evtrisk.RandomStream(7))
    print(name, hashlib.sha256(draws.tobytes()).hexdigest())
"""

    def test_csv_bytes_without_avx512_kernels(self):
        targets = avx512_targets()
        if not targets:
            pytest.skip("numpy dispatches no AVX-512 kernels on this CPU, "
                        "so there is no lower level to compare with")
        default = run_python("-W", "error", "-c", self.CHILD, NPY_DISABLE_CPU_FEATURES="")
        lowered = run_python("-W", "error", "-c", self.CHILD, *targets,
                              NPY_DISABLE_CPU_FEATURES=" ".join(targets))
        assert default.returncode == 0, default.stderr
        assert lowered.returncode == 0, lowered.stderr
        assert default.stdout.count("\n") == 22        # header, 18 cells, 3 laws
        assert lowered.stdout == default.stdout

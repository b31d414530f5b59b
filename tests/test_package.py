"""Tests of the package as a whole: what importing it costs, how it runs."""

import numpy
import pytest

from helpers import run_python


def test_import_leaves_heavy_scipy_modules_unloaded():
    # scipy is only needed by code that imports it on use (the Student-t
    # CDF, the quadrature oracle), and the process pool, which pulls in
    # multiprocessing, only by a benchmark run with more than one worker;
    # loading the package must pay for neither.
    code = ("import sys, evtrisk\n"
            "print(sorted(m for m in sys.modules"
            " if m.split('.')[0] in ('scipy', 'multiprocessing')"
            " or m == 'concurrent.futures.process'))")
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_ground_truths_grid_and_oracle_load_no_scipy(tmp_path):
    # The truths, quantiles, grid and Monte Carlo oracle are pure math and
    # numpy, through the API and the CLI; only the Student-t CDF loads
    # scipy.special.
    code = """
import sys
from evtrisk import (DISTRIBUTIONS, ExperimentConfig, RandomStream, cli,
                     monte_carlo_semideviation, run_experiment)

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

for dist in DISTRIBUTIONS.values():
    dist.extremal_semideviation(0.01)
    monte_carlo_semideviation(dist, 0.01, 10_000, RandomStream(1))
run_experiment(ExperimentConfig(distributions=sorted(DISTRIBUTIONS),
                                m_values=(20, 21), trials=5))
config, out = sys.argv[1:]
assert cli.main(["benchmark", "--config", config, "--out", out]) == 0
assert cli.main(["oracle", "--dist", "gumbel", "--samples", "10000"]) == 0
assert scipy_modules() == [], scipy_modules()
assert DISTRIBUTIONS["tstudent5"].cdf(0.0) == 0.5
assert "scipy.special" in scipy_modules()
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
    """The benchmark CSV does not depend on which SIMD kernels numpy
    dispatches to.  This is a claim about one machine: it compares its
    AVX-512 kernels with its next level down, not different CPUs."""

    # Prints the CSV of a 6-law x m {20, 57, 99} x 300-trial grid after
    # checking that every CPU feature named on the command line is off.
    CHILD = """
import sys, numpy, evtrisk
from evtrisk.cli import CSV_HEADER, summary_row
umath = (getattr(numpy, "_core", None) or numpy.core)._multiarray_umath
still_on = [f for f in sys.argv[1:] if umath.__cpu_features__[f]]
assert not still_on, still_on
cfg = evtrisk.ExperimentConfig(distributions=sorted(evtrisk.DISTRIBUTIONS),
                               m_values=(20, 57, 99), trials=300, master_seed=11)
print("\\n".join([CSV_HEADER, *map(summary_row, evtrisk.run_experiment(cfg))]))
"""

    def test_csv_bytes_without_avx512_kernels(self):
        # numpy's runtime CPU tables (numpy 1.x keeps them under numpy.core).
        umath = (getattr(numpy, "_core", None) or numpy.core)._multiarray_umath
        # Only dispatch targets can be switched off; numpy refuses the rest.
        targets = [t for t in umath.__cpu_dispatch__
                   if umath.__cpu_features__.get(t) and ("AVX512" in t or t == "X86_V4")]
        if not targets:
            pytest.skip("numpy dispatches no AVX-512 kernels on this CPU, "
                        "so there is no lower level to compare with")
        default = run_python("-W", "error", "-c", self.CHILD, NPY_DISABLE_CPU_FEATURES="")
        lowered = run_python("-W", "error", "-c", self.CHILD, *targets,
                              NPY_DISABLE_CPU_FEATURES=" ".join(targets))
        assert default.returncode == 0, default.stderr
        assert lowered.returncode == 0, lowered.stderr
        assert default.stdout.count("\n") == 19        # header and 18 cells
        assert lowered.stdout == default.stdout

"""Tests for the command-line interface, file parsing, and output formats."""

import json

import numpy as np
import pytest

from evtrisk import load_config, load_csv, synthetic_overflow_path
from evtrisk.cli import CSV_HEADER, SEED_ENV_VAR, format_float, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLoadCsv:
    def test_plain_values(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.5\n2.5\n")
        ds = load_csv(str(path))
        assert ds.values.tolist() == [1.5, 2.5]
        assert ds.parse_warnings == ()

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("volume\n1.0\n")
        ds = load_csv(str(path))
        assert ds.values.tolist() == [1.0]
        assert any("header" in w for w in ds.parse_warnings)

    def test_error_names_row(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a\nb\n")
        with pytest.raises(ValueError, match="row 2"):
            load_csv(str(path))

    def test_first_column_only(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.0,9\n2.0,8\n")
        assert load_csv(str(path)).values.tolist() == [1.0, 2.0]

    def test_rejects_non_finite(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.0\ninf\n")
        with pytest.raises(ValueError, match="row 2"):
            load_csv(str(path))

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="no numeric values"):
            load_csv(str(path))


class TestLoadConfig:
    def test_full_config(self, tmp_path):
        path = tmp_path / "bench.cfg"
        path.write_text(
            "# benchmark settings\n"
            "distributions = pareto2, gumbel\n"
            "m_values = 20..22, 30\n"
            "trials = 50\n"
            "alpha = 0.02\n"
            "master_seed = 99\n"
            "ground_truth_mode = monte_carlo(50000)\n"
        )
        cfg = load_config(str(path))
        assert cfg.distributions == ("pareto2", "gumbel")
        assert cfg.m_values == (20, 21, 22, 30)
        assert cfg.trials == 50
        assert cfg.alpha == 0.02
        assert cfg.master_seed == 99
        assert cfg.ground_truth_mode == "monte_carlo(50000)"

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "bench.cfg"
        path.write_text("distributions = pareto2\nworkers = 2\n")
        with pytest.raises(ValueError, match="workers"):
            load_config(str(path))

    def test_missing_distributions(self, tmp_path):
        path = tmp_path / "bench.cfg"
        path.write_text("trials = 5\n")
        with pytest.raises(ValueError, match="distributions"):
            load_config(str(path))


class TestFloatFormat:
    def test_nine_significant_digits_round_trip(self):
        rng = np.random.default_rng(5)
        for x in rng.normal(scale=10.0 ** rng.integers(-6, 7, size=200),
                            size=200):
            text = format_float(float(x))
            assert format_float(float(text)) == text


class TestEstimateCommand:
    def test_fixture_report(self, capsys):
        code, out, _ = run_cli(capsys, "estimate", "--input",
                               str(synthetic_overflow_path()), "--alpha", "0.01")
        assert code == 0
        payload = json.loads(out)
        assert payload["m"] == 20
        assert payload["k"] == 2
        assert set(payload) == {"alpha", "m", "k", "s", "gamma", "g_s", "mu_m",
                                "var_theta", "cvar_theta", "rho_evt",
                                "rho_typical", "assumptions", "warnings"}
        assert set(payload["assumptions"]) == {"alpha_lt_k_over_m",
                                               "var_ge_mean", "gamma_lt_1"}
        assert payload["rho_evt"] is not None

    def test_constant_data_exit_code(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        path.write_text("\n".join(["2.0"] * 20) + "\n")
        code, _, err = run_cli(capsys, "estimate", "--input", str(path))
        assert code != 0
        assert "no strict exceedances" in err

    def test_large_alpha_flags(self, tmp_path, capsys):
        rng = np.random.default_rng(9)
        path = tmp_path / "d.csv"
        path.write_text("\n".join(f"{x:.6f}" for x in rng.exponential(size=20)))
        code, out, _ = run_cli(capsys, "estimate", "--input", str(path),
                               "--alpha", "0.5")
        assert code == 0
        payload = json.loads(out)
        assert payload["assumptions"]["alpha_lt_k_over_m"] is False
        assert payload["rho_evt"] is None

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "estimate", "--input", "/nonexistent.csv")
        assert code != 0
        assert "error" in err


class TestBenchmarkCommand:
    CONFIG = ("distributions = uniform01\n"
              "m_values = 20..21\n"
              "trials = 6\n"
              "master_seed = 11\n")

    def test_rows_and_header(self, tmp_path, capsys):
        cfg = tmp_path / "b.cfg"
        cfg.write_text(self.CONFIG)
        out_csv = tmp_path / "out.csv"
        code, _, _ = run_cli(capsys, "benchmark", "--config", str(cfg),
                             "--out", str(out_csv))
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        assert lines[1].startswith("uniform01,20,6,")

    def test_byte_identical_across_worker_counts(self, tmp_path, capsys):
        cfg = tmp_path / "b.cfg"
        cfg.write_text(self.CONFIG)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, "benchmark", "--config", str(cfg), "--out", str(out1))
        run_cli(capsys, "benchmark", "--config", str(cfg), "--out", str(out2),
                "--workers", "2")
        assert out1.read_bytes() == out2.read_bytes()

    def test_env_seed_override(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "b.cfg"
        cfg.write_text(self.CONFIG)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, "benchmark", "--config", str(cfg), "--out", str(out1))
        monkeypatch.setenv(SEED_ENV_VAR, "999")
        run_cli(capsys, "benchmark", "--config", str(cfg), "--out", str(out2))
        assert out1.read_bytes() != out2.read_bytes()


class TestOracleCommand:
    def test_exponential_fields(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--dist", "exponential1",
                               "--alpha", "0.01", "--samples", "20000",
                               "--seed", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["analytic"] == pytest.approx(0.046051702, abs=1e-9)
        assert abs(payload["estimate"] - payload["analytic"]) <= \
            4.0 * payload["std_error"]

    def test_unknown_name_lists_valid(self, capsys):
        code, _, err = run_cli(capsys, "oracle", "--dist", "pareto3",
                               "--samples", "20000")
        assert code != 0
        assert "valid names" in err

"""Tests for the command-line interface, file parsing, and output formats."""

import codecs
import json
import math
import re

import numpy as np
import pytest

from evtrisk import RandomStream, get_distribution, load_config, load_csv, synthetic_overflow_path
from evtrisk.cli import CSV_HEADER, format_float, main
from helpers import run_python


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

    @pytest.mark.parametrize("token", ["1_000", "\u0661\u0662", "\u00a01.5", "0x1p3"])
    def test_only_c_float_syntax(self, tmp_path, token):
        # Python's float reads the first three as 1000, 12 and 1.5, which
        # C's strtod in the C locale does not; hexadecimal is left out of
        # the grammar, as Python's float leaves it out.
        path = tmp_path / "data.csv"
        path.write_text(f"1.0\n{token}\n", encoding="utf-8")
        message = f"{path}: row 2: not a number: {token!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_csv(str(path))

    @pytest.mark.parametrize("token", ["1.", ".5", "-2E+3", "+7", "1e-320"])
    def test_c_float_syntax(self, tmp_path, token):
        path = tmp_path / "data.csv"
        path.write_text(f"{token}\n", encoding="utf-8")
        assert load_csv(str(path)).values.tolist() == [float(token)]

    @pytest.mark.parametrize("token", ["inf", "-Infinity", "NaN"])
    def test_non_finite_message(self, tmp_path, token):
        path = tmp_path / "data.csv"
        path.write_text(f"1.0\n{token}\n")
        message = f"{path}: row 2: non-finite value {token!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_csv(str(path))

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="no numeric values"):
            load_csv(str(path))

    def test_invalid_utf8_names_file_and_row(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"volume\n1.0\n2\xff\n")
        with pytest.raises(ValueError) as info:
            load_csv(str(path))
        assert str(info.value).startswith(f"{path}: row 3: not UTF-8")

    def test_byte_order_mark_keeps_the_first_value(self, tmp_path):
        # Spreadsheets save "CSV UTF-8" with a leading byte-order mark; it
        # used to make the first value a skipped header.
        path = tmp_path / "data.csv"
        path.write_bytes(codecs.BOM_UTF8 + b"1.5\n2.0\n3.0\n")
        ds = load_csv(str(path))
        assert ds.values.tolist() == [1.5, 2.0, 3.0]
        assert ds.parse_warnings == ()
        path.write_bytes(codecs.BOM_UTF8 + b"volume\n1.0\n")
        assert load_csv(str(path)).parse_warnings == ("row 1: header 'volume' skipped",)

    def test_only_one_byte_order_mark_is_stripped(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(2 * codecs.BOM_UTF8 + b"1.5\n2.0\n")
        assert load_csv(str(path)).parse_warnings == ("row 1: header '\\ufeff1.5' skipped",)

    def test_invalid_utf8_after_byte_order_mark_names_row_and_byte(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(codecs.BOM_UTF8 + b"volume\n1.0\n2\xff.5\n")
        message = f"{path}: row 3: not UTF-8 text (byte 0xff)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_csv(str(path))


class TestLoadConfig:
    # Prints the error of load_config(argv[1]) and the seconds it took.
    TIMED_LOAD = ("import sys, time\n"
                  "from evtrisk import load_config\n"
                  "start = time.perf_counter()\n"
                  "try:\n"
                  "    load_config(sys.argv[1])\n"
                  "except ValueError as exc:\n"
                  "    print(exc)\n"
                  "print(time.perf_counter() - start)\n")

    def test_full_config(self, tmp_path):
        path = tmp_path / "bench.cfg"
        path.write_text(
            "# benchmark settings\n"
            "distributions = pareto2, gumbel\n"
            "m_values = 20..22, 30\n"
            "trials = 50\n"
            "alpha = 0.02\n"
            "master_seed = 99\n"
        )
        cfg = load_config(str(path))
        assert cfg.distributions == ("pareto2", "gumbel")
        assert cfg.m_values == (20, 21, 22, 30)
        assert cfg.trials == 50
        assert cfg.alpha == 0.02
        assert cfg.master_seed == 99

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "bench.cfg"
        path.write_text("distributions = pareto2\nworkers = 2\n")
        with pytest.raises(ValueError, match="workers"):
            load_config(str(path))

    def test_ground_truth_mode_is_an_unknown_key(self, tmp_path):
        # Ground truth is always the exact value; the key that chose a Monte
        # Carlo estimate instead is gone, not ignored.
        path = tmp_path / "bench.cfg"
        path.write_text("distributions = pareto2\nground_truth_mode = analytic\n")
        with pytest.raises(ValueError) as info:
            load_config(str(path))
        assert str(info.value) == f"{path}: line 2: unknown config key 'ground_truth_mode'"

    def test_repeated_key_names_both_lines(self, tmp_path):
        path = tmp_path / "bench.cfg"
        path.write_text("distributions = pareto2\ntrials = 5\n# more\ntrials = 6\n")
        with pytest.raises(ValueError) as info:
            load_config(str(path))
        assert str(info.value) == f"{path}: line 4: trials: repeats line 2"

    def test_huge_m_values_range_fails_before_expanding(self, tmp_path):
        # In a child capped at 1 GiB: a loader that expanded the range
        # first would run out of memory there rather than on the machine.
        path = tmp_path / "bench.cfg"
        path.write_text("distributions = pareto2\nm_values = 20..999999999\n")
        proc = run_python("-c", self.TIMED_LOAD, str(path), address_space=2**30)
        assert proc.returncode == 0, proc.stderr
        error, seconds = proc.stdout.splitlines()
        assert error == (f"{path}: line 2: m_values: '20..999999999' brings "
                         "the sample sizes to 999,999,980, more than 100,000")
        assert float(seconds) < 1.0

    def test_m_values_bound_counts_the_whole_line(self, tmp_path):
        path = tmp_path / "bench.cfg"
        path.write_text("distributions = pareto2\nm_values = 20..100019\n")
        assert len(load_config(str(path)).m_values) == 100_000
        path.write_text("distributions = pareto2\nm_values = 20..100019, 200000\n")
        with pytest.raises(ValueError, match="'200000' brings the sample sizes to 100,001"):
            load_config(str(path))

    @pytest.mark.parametrize("line, message", [
        ("master_seed = -1", "master_seed: -1 is outside [0, 2**64)"),
        ("master_seed = 18446744073709551616",
         "master_seed: 18446744073709551616 is outside [0, 2**64)"),
        ("m_values = 20, 30, 20", "m_values: sample size 20 is repeated"),
    ])
    def test_rejected_value_names_its_line(self, tmp_path, line, message):
        path = tmp_path / "bench.cfg"
        path.write_text(f"distributions = pareto2\n{line}\ntrials = 5\n")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: line 2: {message}')}$"):
            load_config(str(path))

    def test_repeated_law_names_its_line(self, tmp_path):
        # Names match case-insensitively, so PARETO2 would run pareto2 twice.
        path = tmp_path / "bench.cfg"
        path.write_text("# grid\ndistributions = pareto2, gumbel, PARETO2\ntrials = 5\n")
        message = "line 2: distributions: distribution 'pareto2' is repeated"
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_config(str(path))

    def test_byte_order_mark_before_the_first_key(self, tmp_path):
        path = tmp_path / "bench.cfg"
        path.write_bytes(codecs.BOM_UTF8 + b"distributions = pareto2\ntrials = 5\n")
        cfg = load_config(str(path))
        assert (cfg.distributions, cfg.trials) == (("pareto2",), 5)

    def test_invalid_utf8_after_byte_order_mark_names_line_and_byte(self, tmp_path):
        path = tmp_path / "bench.cfg"
        path.write_bytes(codecs.BOM_UTF8 + b"distributions = pareto2\n# caf\xe9\n")
        # The offset is counted in the bytes after the mark, so the line
        # and the byte are those of the file.
        message = f"{path}: line 2: not UTF-8 text (byte 0xe9)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_config(str(path))

    def test_largest_master_seed_loads(self, tmp_path):
        path = tmp_path / "bench.cfg"
        path.write_text("distributions = pareto2\nmaster_seed = 18446744073709551615\n")
        assert load_config(str(path)).master_seed == 2**64 - 1

    def test_missing_distributions(self, tmp_path):
        path = tmp_path / "bench.cfg"
        path.write_text("trials = 5\n")
        with pytest.raises(ValueError, match="distributions"):
            load_config(str(path))

    @pytest.mark.parametrize("line", ["trials = abc", "alpha = x", "master_seed = 1.5",
                                      "m_values = 20..x"])
    def test_bad_value_names_file_line_and_key(self, tmp_path, line):
        path = tmp_path / "bench.cfg"
        path.write_text(f"# grid\ndistributions = pareto2\n{line}\n")
        key = line.split(" ")[0]
        with pytest.raises(ValueError) as info:
            load_config(str(path))
        assert str(info.value).startswith(f"{path}: line 3: {key}: ")

    def test_invalid_utf8_names_file_and_line(self, tmp_path):
        path = tmp_path / "bench.cfg"
        path.write_bytes(b"distributions = pareto2\n# caf\xe9\n")
        with pytest.raises(ValueError) as info:
            load_config(str(path))
        assert str(info.value).startswith(f"{path}: line 2: not UTF-8")

    def test_rejected_config_names_file(self, tmp_path):
        path = tmp_path / "bench.cfg"
        path.write_text("distributions = pareto2\ntrials = 0\n")
        with pytest.raises(ValueError,
                           match=f"^{re.escape(str(path))}: line 2: trials must be >= 1"):
            load_config(str(path))

    @pytest.mark.parametrize("lines, message", [
        (["distributions = gumbel", "alpha = 2"], "line 3: alpha must be in (0, 1), got 2.0"),
        (["distributions = gumbel", "trials = 0"], "line 3: trials must be >= 1, got 0"),
        (["distributions = pareto2, nope"], "line 2: distributions: unknown distribution 'nope'"),
        (["distributions = ,"], "line 2: distributions: at least one distribution is required"),
        (["distributions = gumbel", "m_values = 5..19"],
         "line 3: m_values: 5 points leave at most 0 above the 0.9-quantile threshold, "
         "and the fit needs 2 exceedances: at least 20 points are required"),
    ], ids=["alpha", "trials", "unknown-law", "no-law", "below-20"])
    def test_every_rejected_value_names_its_line(self, tmp_path, lines, message):
        # ExperimentConfig words each value it rejects under the value's
        # key, and the loader names that key's line.
        path = tmp_path / "bench.cfg"
        path.write_text("\n".join(["# grid", *lines]) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}"):
            load_config(str(path))

    def test_distribution_names_are_case_insensitive(self, tmp_path):
        path = tmp_path / "bench.cfg"
        path.write_text("distributions = Pareto2, GUMBEL\n")
        assert load_config(str(path)).distributions == ("pareto2", "gumbel")


class TestLoaderFuzz:
    """Seeded byte strings either parse or raise a ValueError naming the file
    and, for a fault of one row or line, that row or line."""

    TOKENS = [*b"0123456789", b".", b"e", b"-", b",", b"=", b"#", b"..", b" ", b"\n",
              *b"abxyz", b"\x00", b"\xff"]
    KEYS = [b"distributions", b"m_values", b"trials", b"alpha", b"master_seed"]
    VALID = (b"distributions = pareto2, gumbel\nm_values = 20..22, 30\ntrials = 5\n"
             b"alpha = 0.05\nmaster_seed = 3\n")

    @classmethod
    def noise(cls, rng, most):
        return b"".join(bytes([t]) if isinstance(t, int) else t
                        for t in rng.choice(np.array(cls.TOKENS, dtype=object),
                                            int(rng.integers(0, most + 1))))

    @classmethod
    def config_bytes(cls, rng):
        # A valid config with one value replaced, a line of noise added, or
        # both; values stay short (four tokens), so an m_values range
        # lists at most 100 sizes and each load is quick.
        lines = cls.VALID.splitlines(keepends=True)
        i = int(rng.integers(len(lines)))
        if rng.random() < 0.8:
            key = cls.KEYS[int(rng.integers(len(cls.KEYS)))]
            lines[i] = key + b" = " + cls.noise(rng, 4) + b"\n"
        if rng.random() < 0.5:
            lines.insert(int(rng.integers(len(lines) + 1)), cls.noise(rng, 12) + b"\n")
        return b"".join(lines)

    @staticmethod
    def error(load, path, data):
        """None if ``data`` parses, else the error text after the file name."""
        path.write_bytes(data)
        try:
            load(str(path))
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: "), (data, str(exc))
            return str(exc)[len(f"{path}: "):]
        return None

    @pytest.mark.parametrize("seed", [0, 1])
    def test_load_csv(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        errors = []
        for _ in range(300):
            data = b"\n".join(self.noise(rng, 6) for _ in range(int(rng.integers(1, 6))))
            errors.append(self.error(load_csv, tmp_path / "data.csv", data))
        failed = [e for e in errors if e is not None]
        # Only an input without a single number fails as a whole.
        assert all(re.match(r"row \d+: ", e) or e == "no numeric values found"
                   for e in failed), failed
        assert 0 < len(failed) < len(errors)
        assert any("not UTF-8" in e for e in failed)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_load_config(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        errors = [self.error(load_config, tmp_path / "bench.cfg", self.config_bytes(rng))
                  for _ in range(300)]
        by_line = [e for e in errors if e is not None and re.match(r"line \d+: ", e)]
        # Every other config parsed, or lacks distributions: a value that
        # ExperimentConfig rejects is the fault of its line, and names it.
        assert all(e in by_line or e == "missing required key 'distributions'"
                   for e in errors if e is not None), errors
        assert by_line and None in errors
        assert any("not UTF-8" in e for e in by_line)


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

    def test_scale_past_the_range_exit_code(self, tmp_path, capsys):
        # A fit error and no overflow warning, which under -W error (as in
        # this suite) would end the command in a traceback.
        path = tmp_path / "top.csv"
        path.write_text("0\n" * 27 + "1.5e308\n1.49e308\n1.48e308\n")
        code, _, err = run_cli(capsys, "estimate", "--input", str(path))
        assert code == 1
        assert err.startswith("evtrisk: fit error: the fitted scale is inf: ")

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

    def test_top_of_the_double_range_is_strict_json(self, tmp_path, capsys):
        # The CVaR lies beyond the double range: null, where it was once
        # Infinity, which no strict JSON parser reads; rho stays finite.
        data = np.ldexp(get_distribution("pareto2").sample(50, RandomStream(1)), 1016)
        path = tmp_path / "top.csv"
        path.write_text("".join(f"{x!r}\n" for x in data.tolist()))
        code, out, _ = run_cli(capsys, "estimate", "--input", str(path), "--alpha", "0.001")
        assert code == 0

        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        payload = json.loads(out, parse_constant=refuse)
        assert payload["cvar_theta"] is None and payload["rho_evt"] == pytest.approx(2.166e305,
                                                                                   rel=1e-3)
        assert all(payload["assumptions"].values())

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

    @pytest.mark.parametrize("workers", ["0", "-5"])
    def test_workers_below_one_exit_1(self, tmp_path, capsys, workers):
        cfg = tmp_path / "b.cfg"
        cfg.write_text(self.CONFIG)
        out_csv = tmp_path / "out.csv"
        code, _, err = run_cli(capsys, "benchmark", "--config", str(cfg),
                               "--out", str(out_csv), "--workers", workers)
        assert code == 1
        assert err == f"evtrisk: error: workers must be >= 1, got {workers}\n"
        assert not out_csv.exists()

    def test_alpha_whose_complement_rounds_to_one_exit_0(self, tmp_path, capsys):
        # 1 - alpha rounds to 1, but the truths take alpha itself: the
        # config loads and the grid writes its rows.
        for alpha in (1e-17, 2.0**-54, 5e-324):
            cfg = tmp_path / "b.cfg"
            cfg.write_text(self.CONFIG + f"alpha = {alpha!r}\n")
            out_csv = tmp_path / "out.csv"
            code, _, err = run_cli(capsys, "benchmark", "--config", str(cfg), "--out", str(out_csv))
            assert (code, err) == (0, "")
            assert len(out_csv.read_text().splitlines()) == 1 + 2

    def test_environment_does_not_change_output(self, tmp_path, capsys, monkeypatch):
        # The master seed comes from the config alone: EVTRISK_SEED once
        # overrode it.
        cfg = tmp_path / "b.cfg"
        cfg.write_text(self.CONFIG)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        monkeypatch.delenv("EVTRISK_SEED", raising=False)
        run_cli(capsys, "benchmark", "--config", str(cfg), "--out", str(out1))
        monkeypatch.setenv("EVTRISK_SEED", "999")
        run_cli(capsys, "benchmark", "--config", str(cfg), "--out", str(out2))
        assert out1.read_bytes() == out2.read_bytes()


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

    def test_seed_defaults_to_one_whatever_the_environment(self, capsys, monkeypatch):
        argv = ("oracle", "--dist", "gumbel", "--samples", "20000")
        monkeypatch.setenv("EVTRISK_SEED", "999")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert json.loads(out)["seed"] == 1
        assert out == run_cli(capsys, *argv, "--seed", "1")[1]

    def test_alpha_whose_complement_rounds_to_one_exit_0(self, capsys):
        # 1 - alpha rounds to 1, but the truth takes alpha itself.
        for alpha in (1e-17, 2.0**-54, 5e-324):
            code, out, err = run_cli(capsys, "oracle", "--dist", "pareto2", "--alpha", repr(alpha),
                                     "--samples", "100000")
            assert (code, err) == (0, "")
            payload = json.loads(out)
            assert payload["alpha"] == alpha
            assert 0.0 <= payload["analytic"] < math.inf
            assert 0.0 <= payload["estimate"] < math.inf

    def test_unknown_name_lists_valid(self, capsys):
        code, _, err = run_cli(capsys, "oracle", "--dist", "pareto3",
                               "--samples", "20000")
        assert code != 0
        assert "valid names" in err

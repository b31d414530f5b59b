"""Command-line entry points and bit-stable file I/O.

Subcommands::

    evtrisk estimate  --input data.csv --alpha 0.01      # JSON report
    evtrisk benchmark --config bench.cfg --out out.csv   # error-summary CSV
    evtrisk oracle    --dist pareto2 --alpha 0.01 --samples 4000000 --seed 1

The benchmark config file is line-oriented ``key = value`` text; see
:func:`load_config`.  A run's inputs are its arguments and files alone:
the master seed comes only from the config and the oracle's seed only from
``--seed`` (default 1), so no environment variable changes any output.
"""

from __future__ import annotations

import argparse
import codecs
import json
import sys
from dataclasses import asdict, astuple, dataclass

import numpy as np

from .benchmark import ExperimentConfig, SeriesSummary, run_experiment
from .distributions import get_distribution
from .estimators import evt_estimate, monte_carlo_semideviation
from .fitting import FitError
from .rng import RandomStream

CSV_HEADER = ("dist,m,trials,evt_valid_fraction,mean_err_typical,"
              "q25_typ,q75_typ,mean_err_evt,q25_evt,q75_evt")


@dataclass(frozen=True)
class InputDataset:
    """Numeric column loaded from a CSV file."""

    values: np.ndarray
    source_path: str
    parse_warnings: tuple[str, ...] = ()


def _read_lines(path: str, unit: str) -> list[str]:
    """The lines of a UTF-8 text file, after one leading byte-order mark
    (as spreadsheets write) if there is one.

    A byte sequence that is not UTF-8 raises a ``ValueError`` naming the
    file and the ``unit`` (``"row"`` or ``"line"``) it is on.
    """
    with open(path, "rb") as handle:
        # Stripped from the bytes, not decoded as "utf-8-sig": its error
        # offsets count from after the mark, so they would name the wrong
        # byte.
        data = handle.read().removeprefix(codecs.BOM_UTF8)
    try:
        return data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        number = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise ValueError(f"{path}: {unit} {number}: not UTF-8 text "
                         f"(byte {data[exc.start]:#04x})") from None


def load_csv(path: str) -> InputDataset:
    """Read one numeric value per row from the first CSV column.

    A single leading header row is skipped automatically when its first
    token is not numeric.  Parsing uses the C locale's decimal point
    regardless of platform settings.  Any non-numeric row after the header,
    or text that is not UTF-8, raises a descriptive error naming the row.
    """
    values: list[float] = []
    warnings: list[str] = []
    for row_number, line in enumerate(_read_lines(path, "row"), start=1):
        token = line.split(",")[0].strip()
        if not token:
            warnings.append(f"row {row_number}: blank line skipped")
            continue
        try:
            number = float(token)
        except ValueError:
            if row_number == 1 and not values:
                warnings.append(f"row 1: header {token!r} skipped")
                continue
            raise ValueError(f"{path}: row {row_number}: not a number: {token!r}") from None
        if not np.isfinite(number):
            raise ValueError(f"{path}: row {row_number}: non-finite value {token!r}")
        values.append(number)
    if not values:
        raise ValueError(f"{path}: no numeric values found")
    return InputDataset(values=np.array(values), source_path=path,
                        parse_warnings=tuple(warnings))


# Most sample sizes one m_values line may list: over 1,000 times the
# paper grid's 80, and checked before a range is expanded, so a typo such
# as 20..999999999 fails at once instead of allocating gigabytes.
_MAX_M_VALUES = 100_000


def _parse_m_values(text: str) -> tuple[int, ...]:
    """Parse '20..99' ranges and '20,30,40' lists (mixable)."""
    out: list[int] = []
    for token in filter(None, (t.strip() for t in text.split(","))):
        lo_text, dots, hi_text = token.partition("..")
        lo, hi = int(lo_text), int(hi_text if dots else lo_text)
        if hi < lo:
            raise ValueError(f"empty range {token!r}")
        count = len(out) + hi - lo + 1
        if count > _MAX_M_VALUES:
            raise ValueError(f"{token!r} brings the sample sizes to {count:,}, "
                             f"more than {_MAX_M_VALUES:,}")
        out.extend(range(lo, hi + 1))
    if not out:
        raise ValueError(f"no sample sizes in {text!r}")
    return tuple(out)


# Config key -> parser of its value text; a parser raises ValueError.
_CONFIG_KEYS = {
    "distributions": lambda text: tuple(v.strip() for v in text.split(",") if v.strip()),
    "m_values": _parse_m_values,
    "trials": int,
    "alpha": float,
    "master_seed": int,
}


def load_config(path: str) -> ExperimentConfig:
    """Parse a benchmark config file of ``key = value`` lines.

    Recognized keys (matching :class:`ExperimentConfig` fields):
    ``distributions`` (comma-separated names), ``m_values`` (``20..99``
    ranges and/or comma lists), ``trials``, ``alpha``, ``master_seed``.
    Lines starting with ``#`` and blank lines are ignored.  Unknown and
    repeated keys are errors.  Every error names the file; one that a
    single line causes (text that is not UTF-8, a malformed line, an
    unknown or repeated key, a value that does not parse or that
    :class:`ExperimentConfig` rejects under that key's name) also names
    the line.
    """
    fields: dict[str, object] = {}
    line_of: dict[str, int] = {}
    for row_number, raw in enumerate(_read_lines(path, "line"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}: line {row_number}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{path}: line {row_number}: unknown config key {key!r}")
        if key in line_of:
            raise ValueError(f"{path}: line {row_number}: {key}: "
                             f"repeats line {line_of[key]}")
        line_of[key] = row_number
        try:
            fields[key] = _CONFIG_KEYS[key](value)
        except ValueError as exc:
            raise ValueError(f"{path}: line {row_number}: {key}: {exc}") from None
    if "distributions" not in fields:
        raise ValueError(f"{path}: missing required key 'distributions'")
    try:
        return ExperimentConfig(**fields)
    except ValueError as exc:
        # An error that starts with a key ("master_seed: ...", "trials
        # must be >= 1") names that key's line.
        key = str(exc).split()[0].rstrip(":")
        where = f"line {line_of[key]}: " if key in line_of else ""
        raise ValueError(f"{path}: {where}{exc}") from None


def format_float(x: float) -> str:
    """Render a float with 9 significant digits (CSV number format)."""
    return f"{x:.9g}"


def summary_row(s: SeriesSummary) -> str:
    """One CSV row: the fields of ``s`` in order, as ``CSV_HEADER`` names them."""
    dist, m, trials, *stats = astuple(s)
    return ",".join([dist, str(m), str(trials), *map(format_float, stats)])


def write_summaries_csv(summaries, path: str) -> None:
    lines = [CSV_HEADER] + [summary_row(s) for s in summaries]
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def _report_to_json(report, warnings_extra=()) -> dict:
    p = report.params
    return {
        "alpha": report.alpha,
        "m": p.m,
        "k": p.k,
        "s": p.threshold,
        "gamma": p.gamma,
        "g_s": p.scale,
        "mu_m": report.sample_mean,
        "var_theta": report.var_tail,
        "cvar_theta": report.cvar_tail,
        "rho_evt": report.rho_evt,
        "rho_typical": report.rho_typical,
        "assumptions": asdict(report.assumptions),
        "warnings": list(report.warnings) + list(warnings_extra),
    }


def _cmd_estimate(args) -> int:
    dataset = load_csv(args.input)
    report = evt_estimate(dataset.values, alpha=args.alpha)
    payload = _report_to_json(report, warnings_extra=dataset.parse_warnings)
    print(json.dumps(payload, indent=2))
    return 0


def _cmd_benchmark(args) -> int:
    summaries = run_experiment(load_config(args.config), workers=args.workers)
    write_summaries_csv(summaries, args.out)
    return 0


def _cmd_oracle(args) -> int:
    dist = get_distribution(args.dist)
    # First, so an alpha the truth refuses fails before the draw.
    analytic = dist.extremal_semideviation(args.alpha)
    estimate, std_error = monte_carlo_semideviation(dist, args.alpha, args.samples,
                                                    RandomStream(args.seed))
    payload = {
        "dist": dist.name,
        "alpha": args.alpha,
        "samples": args.samples,
        "seed": args.seed,
        "estimate": estimate,
        "std_error": std_error,
        "analytic": analytic,
    }
    print(json.dumps(payload, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evtrisk",
        description="Small-sample extremal upper-semideviation estimation "
                    "and benchmarking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate risk from a CSV data set")
    est.add_argument("--input", required=True, help="CSV with one value per row")
    est.add_argument("--alpha", type=float, default=0.01,
                     help="worst-case fraction (default 0.01)")
    est.set_defaults(func=_cmd_estimate)

    ben = sub.add_parser("benchmark", help="run the estimator benchmark grid")
    ben.add_argument("--config", required=True, help="key = value config file")
    ben.add_argument("--out", required=True, help="output CSV path")
    ben.add_argument("--workers", type=int, default=1,
                     help="worker processes (output is identical for any count)")
    ben.set_defaults(func=_cmd_benchmark)

    orc = sub.add_parser("oracle", help="Monte Carlo ground truth for one law")
    orc.add_argument("--dist", required=True, help="benchmark distribution name")
    orc.add_argument("--alpha", type=float, default=0.01)
    orc.add_argument("--samples", type=int, default=4_000_000)
    orc.add_argument("--seed", type=int, default=1)
    orc.set_defaults(func=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FitError as exc:
        print(f"evtrisk: fit error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"evtrisk: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

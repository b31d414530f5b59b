"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/spread.py --workloads grid oracle --seeds 1-10 --out runs.json

For every workload and end-to-end metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and their distance as a
share of the median, next to the metric's bound from BENCHMARK.json.  The
output file keeps every run's result line, so two commits can be compared
run by run.  Run it from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    report = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                                   "--seed", str(seed), "--seconds", str(args.seconds),
                                   "--trace", str(args.trace)],
                                  capture_output=True, text=True, cwd=ROOT)
            wall = time.perf_counter() - t0
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                ok = False
                continue
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            ok &= result["correct"]
            run = {"seed": seed, "wall_s": wall, "result": result}
            for line in lines:
                if line.startswith("# provenance "):
                    report.setdefault("provenance", json.loads(line[len("# provenance "):]))
                elif line.startswith("# run "):
                    run["notes"] = json.loads(line[len("# run "):])
            runs.append(run)
            print(f"{workload} seed {seed}: {wall:.1f} s, correct={result['correct']}",
                  file=sys.stderr)
        summary = {}
        for metric in metrics:
            values = [run["result"]["metrics"][metric["name"]]["value"] for run in runs]
            if len(values) < 2:
                continue
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / abs(median) if median else float("inf")
            summary[metric["name"]] = {"median": median, "q1": q1, "q3": q3,
                                       "spread": spread, "bound": metric.get("bound")}
            bound = metric.get("bound")
            mark = "" if bound is None else ("  ok" if spread < bound / 3 else
                                             "  WIDE" if spread > bound else "  >bound/3")
            print(f"{workload:9s} {metric['name']:40s} median {median:<14.6g} "
                  f"spread {spread:7.2%}" + (f" bound {bound:.0%}{mark}" if bound else ""))
        report["workloads"][workload] = {"runs": runs, "summary": summary}
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""evtrisk benchmark: one command, three closed-loop workloads, checked outputs.

Run from the root of a checkout (the package is taken from ``src/``, not
from an installed copy)::

    python3 perfbench/run.py --workload grid --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the workload's end-to-end metrics with tracing off
(see ``workloads.py``); ``--trace 1`` runs the traced layer sweep and
reports per-layer metrics (see ``layers.py``).  Lines starting with ``#``
describe the run (provenance, how each metric was taken); the last line is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The process exits non-zero, printing no result, when the
checkout holds no ``src/evtrisk`` package.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("estimate", "grid", "oracle")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the harness's smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def source_digest() -> str:
    """sha256 over the package's source files: names which code was measured."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "evtrisk").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def simd_features() -> dict:
    try:
        from numpy._core._multiarray_umath import __cpu_baseline__, __cpu_features__
    except ImportError:                                   # numpy < 2
        from numpy.core._multiarray_umath import __cpu_baseline__, __cpu_features__
    return {"baseline": list(__cpu_baseline__),
            "found": [name for name, present in __cpu_features__.items() if present]}


def provenance(evtrisk_file: str) -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_simd": simd_features(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "evtrisk_file": evtrisk_file,
    }


def import_package() -> str:
    """Import evtrisk from this checkout's src/ and return where it came from."""
    sys.path.insert(0, str(SRC))
    os.environ.pop("EVTRISK_SEED", None)
    import evtrisk
    where = Path(evtrisk.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise RuntimeError(f"evtrisk was imported from {where}, outside {SRC}")
    return str(where)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "evtrisk" / "__init__.py").is_file():
        print(f"perfbench: no package at {SRC / 'evtrisk'}; run from the root of "
              "an evtrisk checkout", file=sys.stderr)
        return 2
    evtrisk_file = import_package()

    import layers
    import workloads

    scale = workloads.Scale(tiny=args.tiny)
    outcome = workloads.Outcome()
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as tmp:
        env = workloads.Env(src=SRC.resolve(), workdir=Path(tmp))
        try:
            if args.trace:
                spans_path = WORK_ROOT / f"spans-{args.workload}-seed{args.seed}.npz"
                metrics, notes = layers.traced_run(env, args.seed, args.seconds, scale,
                                                   outcome, spans_path)
            else:
                metrics, notes = workloads.measure(env, args.workload, args.seed,
                                                   args.seconds, scale, outcome)
        except Exception:
            traceback.print_exc()
            print("perfbench: the run crashed; no result", file=sys.stderr)
            return 1

    print("# provenance " + json.dumps(provenance(evtrisk_file)))
    print("# run " + json.dumps({"workload": args.workload, "seed": args.seed,
                                 "seconds": args.seconds, "trace": args.trace,
                                 "tiny": args.tiny, **notes}))
    for note in outcome.notes:
        print(f"# failure: {note}")
    share = outcome.failed / outcome.attempted
    print(f"# failed_share = {share:.6g} share ({outcome.failed} of {outcome.attempted})")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Pinned outputs: the exact bytes the package writes, against recorded digests.

Each record pins one output by the full SHA-256 of its bytes as written,
final newline included: the CSV file of ``evtrisk benchmark``, or a
command's stdout.  So ``sha256sum`` of a written CSV gives the recorded
value.  Older notes cite 16-hex digests in another convention: the first
16 hex digits of the SHA-256 of the text without its final newline; the
fixture's ``estimate`` report is the exception, its 16-hex digest being
the first 16 digits of the full one.  Where a 16-hex digest exists it is
recorded too (``LEGACY``), and both are checked.

Each record also keeps the first four hex digits of the SHA-256 of every
line, its line ending included.  They only serve a failure's message,
which names the first line whose fingerprint differs (a changed line
keeps its fingerprint by chance once in 65,536, and then a later line is
named), the numpy version and the CPU features numpy dispatches to, so a
failure on another CPU can be read rather than guessed at.

The digests were recorded by hand, and no script writes them.  A change
that moves an output edits its literal and lists the old and new digests
in CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

import evtrisk
from evtrisk.cli import main

LAWS = "beta12, exponential1, gumbel, pareto2, tstudent5, uniform01"

# name: (SHA-256 of the output's bytes, fingerprints of its lines)
PINNED = {
    "estimate": (
        "fbb920a8bd5ccb93363865749d08c848c83710eb5aee3efdb182916274db06de",
        "a6fb d3d1 7d5e 8e59 fe33 2a0f 7f88 fd35 03ef a512 8324 8189 3479 9702 "
        "9e8e 9617 4d5c 5ee8 7411 3064 412c"),
    "golden_grid": (
        "368d230114f575e866414163902cb77d06beee9f2d6743828914f6fa62cc02a2",
        "f125 b4aa bdcd 6b8c 19fa 84dd e74e 1fcd 9db8 ed00 b604 2ff2 2d06"),
    "oracle": (
        "7fcd6f0882dedc799c464cfc78afebba88418e1b9c34762520dedf0c4cafea24",
        "a6fb 3ea2 d3d1 b7da ee0d 7f46 1d4e 914f 412c"),
    "paper_grid": (
        "167a92d8fd8a703945bf841a86134bd0dfc621320a82d6e28c3a3ada0e339b5e",
        "f125 2c28 a337 e693 4b02 71fb 092a 12e2 2af4 2af4 d72d 2252 abf8 4719 "
        "c694 71b0 187e 44bb 51dc 157d 0577 5467 34d9 bb1f a339 2e30 e198 6b83 "
        "6732 5e90 143e 94dc 8cef cde9 fcec c18e 032d a18c 4d66 060c d440 a2f9 "
        "0fde dbf5 dac2 53ce 45e8 46f5 843a eca8 3821 e655 a672 bb73 7839 abdc "
        "cf32 bd0e 8795 3c4f d8ce 147d 3196 240f 7a85 719e 6e2b 2984 8c18 0c34 "
        "38f1 eb85 2058 b042 4633 c2d0 a9ea 4631 a85d 69c8 8945 5d7e 9f5b 839d "
        "acc3 6ab3 f980 3534 1f4a ffba 8692 00ed 663d 862d 3178 e63e 7775 6c96 "
        "47e4 217d 2a19 fc10 05cf 70b9 4614 7626 6a5b f5b5 c756 1754 0d85 121c "
        "bf3d a5be e177 dea0 6bd6 0641 ad4b e925 07a5 58e2 90d3 6f97 6bf1 44ae "
        "3f30 e99a 1dfd ca1d 8328 21f3 ac1a 9707 d6ee b759 2555 7f67 8374 b09c "
        "0848 6eaa dfbc c4ac bcbe 01a9 ef7b df92 6e7b a88a 6b75 0561 749b 3432 "
        "5f96 e501 c75c e4ff 630c c0f3 b4c5 3416 fa71 b3bd 1edb 6480 1ccb 8db7 "
        "919c 6e3d f6be 1a38 aa49 3388 98b1 d668 34c1 7f91 fda8 4556 3572 ec60 "
        "6ddd 9557 5a16 a411 7f81 cb1a 67df b506 1a2c f03c 8881 fe6e 1b47 27e6 "
        "85c4 782d 1141 cc72 4549 0702 daee d147 6d77 1174 ae78 79ae bb4a 41be "
        "300b 23b7 2458 7408 8167 72a5 d9bd 3f06 4fa3 f180 4c15 4c3e 0fda ebd2 "
        "2d8d 69ae db71 18fd 868d f8d7 c231 83c6 95e5 2e86 b276 87ad bce9 c813 "
        "4fe1 de5d 3108 8214 e30c 9c28 298f 06cb 4339 ad81 9243 5fb6 bed8 c323 "
        "5cb6 b22c 3b4e fd98 fcfd 7bd7 0a1b c744 836e 9c79 61a0 749f 035b 9329 "
        "d21c d048 1757 8c56 601c f4b8 0b3a 18f5 1b02 cf22 a595 3c79 9d3a 6fdb "
        "14de f2a3 cb86 6f65 b01d 678c 12d7 90c5 02d8 5c6e 3f82 e4df ef2a 8fe9 "
        "8a31 85ad 95eb a0d4 d1a9 62bf d1fb a404 1c7b e483 f34c 902a 23c4 ae4a "
        "3739 1fa0 8410 73be 8259 7363 896e afe8 da53 b443 bdd6 3ae2 6bee f3e3 "
        "ce44 4efe d910 5c2b 9ee4 82fe bb80 6a3b f568 c5b1 0b85 74dc 0c9f 1edf "
        "2a48 04c8 4bb7 fc28 828e 4cf4 5966 60ce 5f7a 9a94 2be5 365f 41ce b494 "
        "f92f 4221 6826 88e9 de9b a3b1 60e2 cfd0 fa7b ff49 826a 51d8 3439 8cfa "
        "e759 56e7 b98e 70bb 7b2c 3508 d4c7 a0ff 018d 2cc2 035d 529f 4653 c834 "
        "4449 89e4 f0c9 9371 baf0 cfac 0ba6 973c 99b0 134c dd3f 184e 96a8 de67 "
        "a758 8d18 b8db 15ec ac89 9efb 7f23 4842 cef8 50c2 2b59 bacf d29d 05c1 "
        "9850 cc2f 0c55 79df 833c 2dae 22f1 7990 3edb d9ca b8f4 4daa 3983 f685 "
        "f65d ac3e cad3 c889 fdc8 41d0 d35b 3d7d 48c9 fc45 ea74 a6b0 156c 1ba0 "
        "2b37 c048 275b 1072 2e62 031e ba9d 21bc cefe fa48 dd31 708f fb87 b18c "
        "389f 4662 4e4b ef2f 52fe f588 ef04 8d09 1bfc 8048 8d26 de60 807e 8780 "
        "0efb 0743 f59b 7307 ac8e 5a7f 9028 a53b 0098 c883 6cc7 aac0 5f4e 5490 "
        "9606 f5e8 b1f2 03e9 6287"),
    "simd_grid": (
        "e2e4cc1ae83d7771869224db68a3f0837050b5d9aaafe59f62db5508312d8334",
        "f125 a2ce 8d87 2a09 1f81 e886 55c3 ca5d 87dd 3d2a 1e57 fae9 9a04 d96e "
        "85ae 2b45 ca68 55d5 6570"),
    "truths": (
        "0f0e4a23ed04ae53d1d0fa7fc55286a6da491f85772d05f35bd2197070aaa271",
        "327e 2111 e01a 438e 62a8 1b1e"),
}

# name: (16-hex digest, suffix cut from the bytes before hashing)
LEGACY = {
    "paper_grid": ("8ed7ffe93cc228fa", b"\n"),
    "simd_grid": ("24dca317e90a6f74", b"\n"),
    "golden_grid": ("bf7943861e3152b6", b"\n"),
    "estimate": ("fbb920a8bd5ccb93", b""),
}


def benchmark_csv(tmp_path, config: str, workers: str = "1") -> bytes:
    cfg, out = tmp_path / "bench.cfg", tmp_path / "out.csv"
    cfg.write_text(config, encoding="utf-8")
    assert main(["benchmark", "--config", str(cfg), "--out", str(out),
                 "--workers", workers]) == 0
    return out.read_bytes()


def stdout(capsys, *argv) -> bytes:
    assert main(list(argv)) == 0
    return capsys.readouterr().out.encode("utf-8")


WRITERS = {
    # The paper's grid: 6 laws x m 20..99 x 2,000 trials, on two workers,
    # which also runs the process pool.
    "paper_grid": lambda tmp_path, capsys: benchmark_csv(
        tmp_path, f"distributions = {LAWS}\nm_values = 20..99\ntrials = 2000\n"
                  "alpha = 0.01\nmaster_seed = 1729\n", "2"),
    # The grid of test_package.TestSimdDispatch.
    "simd_grid": lambda tmp_path, capsys: benchmark_csv(
        tmp_path, f"distributions = {LAWS}\nm_values = 20, 57, 99\ntrials = 300\n"
                  "master_seed = 11\n"),
    # perfbench's golden grid, whose CSV is perfbench/reference_grid.csv.
    "golden_grid": lambda tmp_path, capsys: benchmark_csv(
        tmp_path, "distributions = pareto2, tstudent5, exponential1, gumbel, uniform01, beta12\n"
                  "m_values = 20, 99\ntrials = 50\nmaster_seed = 1729\n"),
    "estimate": lambda tmp_path, capsys: stdout(
        capsys, "estimate", "--input", str(evtrisk.synthetic_overflow_path())),
    "oracle": lambda tmp_path, capsys: stdout(
        capsys, "oracle", "--dist", "tstudent5", "--samples", "4000000", "--seed", "1"),
    # One "name repr" line per law, of its exact extremal semideviation.
    "truths": lambda tmp_path, capsys: "".join(
        f"{name} {evtrisk.get_distribution(name).extremal_semideviation(0.01)!r}\n"
        for name in sorted(evtrisk.DISTRIBUTIONS)).encode("utf-8"),
}


def fingerprints(data: bytes) -> list[str]:
    return [hashlib.sha256(line).hexdigest()[:4] for line in data.splitlines(keepends=True)]


def numpy_build() -> str:
    # numpy's runtime CPU tables (numpy 1.x keeps them under numpy.core).
    umath = (getattr(np, "_core", None) or np.core)._multiarray_umath
    found = " ".join(f for f, on in umath.__cpu_features__.items() if on)
    return f"numpy {np.__version__}, SIMD features found: {found}"


def mismatch(name: str, data: bytes, digest: str) -> str:
    got, want = fingerprints(data), PINNED[name][1].split()
    first = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w),
                 min(len(got), len(want)))
    line = data.splitlines(keepends=True)[first] if first < len(got) else b"(none)"
    return (f"{name}: SHA-256 {digest}, recorded {PINNED[name][0]}; {len(got)} lines, "
            f"recorded {len(want)}; first differing line {first + 1}: {line!r}; "
            f"{numpy_build()}")


@pytest.mark.parametrize("name", sorted(PINNED))
def test_bytes_match_the_record(name, tmp_path, capsys):
    data = WRITERS[name](tmp_path, capsys)
    digest = hashlib.sha256(data).hexdigest()
    assert digest == PINNED[name][0], mismatch(name, data, digest)
    if name in LEGACY:
        short, cut = LEGACY[name]
        assert hashlib.sha256(data.removesuffix(cut)).hexdigest()[:16] == short

"""Seeded inputs for the `estimate` and `call` workloads.

Data sets are drawn with numpy's own generator, never with
``evtrisk.RandomStream``, so the inputs do not depend on the code under
test.  The composition of a set list is the same for every seed (fixed
laws, sample sizes and rounding); the seed only chooses the values and
their order, so runs with different seeds do comparable work.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

LAWS = ("pareto2", "tstudent5", "exponential1", "gumbel", "uniform01", "beta12")
DATASET_COUNT = 48
M_RANGE = (20, 99)
# Every fourth set is rounded to one decimal, so its threshold can tie and
# some of those sets have too few strict exceedances to fit (an expected
# FitError, which counts as a correct outcome).
ROUNDED_EVERY = 4
ROUND_DECIMALS = 1


@dataclass(frozen=True)
class Dataset:
    law: str
    values: np.ndarray


_DRAW = {
    "pareto2": lambda rng, m: rng.pareto(2.0, m) + 1.0,
    "tstudent5": lambda rng, m: rng.standard_t(5.0, m),
    "exponential1": lambda rng, m: rng.exponential(1.0, m),
    "gumbel": lambda rng, m: rng.gumbel(0.0, 1.0, m),
    "uniform01": lambda rng, m: rng.uniform(0.0, 1.0, m),
    "beta12": lambda rng, m: rng.beta(1.0, 2.0, m),
}


def make_datasets(seed: int) -> list[Dataset]:
    """The data sets; sizes span 20..99 (both ends), laws cycle over all six."""
    rng = np.random.default_rng(seed)
    sizes = np.rint(np.linspace(*M_RANGE, DATASET_COUNT)).astype(int)
    order = rng.permutation(DATASET_COUNT)
    out = []
    for i in range(DATASET_COUNT):
        law = LAWS[i % len(LAWS)]
        values = _DRAW[law](rng, int(sizes[order[i]]))
        if i % ROUNDED_EVERY == ROUNDED_EVERY - 1:
            values = np.round(values, ROUND_DECIMALS)
        out.append(Dataset(law=law, values=values))
    return out


def write_csv(dataset: Dataset, path: Path) -> None:
    """One value per row under a header; ``repr`` round-trips every float."""
    rows = ["volume"] + [repr(float(v)) for v in dataset.values]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")

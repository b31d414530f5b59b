"""In-memory span tracer that wraps the package's public functions from outside.

Nothing under ``src/`` is edited.  :meth:`Tracer.install` replaces each
traced function with a timing wrapper wherever a module of the package
holds it as an attribute (``from .fitting import pwm_fit`` binds a second
name in ``estimators``, and that binding is the one the caller uses), and
each traced method on its class; a name the package no longer has is
skipped, and its metrics read 0.  :meth:`Tracer.uninstall` puts the
originals back.

A span is (name, tag, start, end, parent): ``tag`` tells calls of one name
apart (the law a sampler draws from, the length of a draw), ``parent`` is
the index of the span that was open when this one started, or -1 for a
root.  Spans stay in memory as parallel arrays until :meth:`save`.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from pathlib import Path

import numpy as np

PACKAGE = "evtrisk"

def _arg(position: int, keyword: str):
    """Tag a call with one of its arguments, given by position or keyword."""
    def tag_of(args, kwargs) -> str:
        value = args[position] if len(args) > position else kwargs[keyword]
        return getattr(value, "name", None) or str(value)
    return tag_of


def _sample_tag(args, kwargs) -> str:
    return f"{args[0].name}:{args[1] if len(args) > 1 else kwargs['n']}"


# (span name, module, attribute, tag of a call) for plain functions.
FUNCTIONS = (
    ("cli.load_csv", "cli", "load_csv", None),
    ("rng.derive_seed", "rng", "derive_seed", None),
    ("fitting.sort_and_summarize", "fitting", "sort_and_summarize", None),
    ("fitting.select_threshold", "fitting", "select_threshold", None),
    ("fitting.pwm_fit", "fitting", "pwm_fit", None),
    ("tail_model.value_at_risk", "tail_model", "value_at_risk", None),
    ("tail_model.cvar", "tail_model", "cvar", None),
    ("tail_model.extremal_semideviation", "tail_model", "extremal_semideviation", None),
    ("estimators.evt_estimate", "estimators", "evt_estimate", None),
    ("estimators.typical_semideviation", "estimators", "typical_semideviation", None),
    ("estimators.monte_carlo_semideviation", "estimators", "monte_carlo_semideviation",
     _arg(0, "dist")),
    ("benchmark.run_trial", "benchmark", "run_trial", None),
    ("benchmark.summarize_errors", "benchmark", "summarize_errors", None),
    ("benchmark.run_experiment", "benchmark", "run_experiment", None),
)

# (span name, module, class, method, tag of a call) for methods.
METHODS = (
    ("rng.uniform", "rng", "RandomStream", "uniform", _arg(1, "n")),
    ("rng.normal", "rng", "RandomStream", "normal", _arg(1, "n")),
    ("distributions.sample", "distributions", "Distribution", "sample", _sample_tag),
    ("distributions.ground_truth", "distributions", "Distribution",
     "extremal_semideviation", _arg(0, "self")),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.tags: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._tag_ids: dict[str, int] = {"": 0}
        self.tags.append("")
        self.name_id = array("i")
        self.tag_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def _intern(self, table: dict[str, int], items: list[str], text: str) -> int:
        idx = table.get(text)
        if idx is None:
            idx = table[text] = len(items)
            items.append(text)
        return idx

    def wrap(self, name: str, fn, tag_of=None):
        name_idx = self._intern(self._name_ids, self.names, name)
        names, tags, parent = self.name_id, self.tag_id, self.parent
        start, end = self.start, self.end
        stack, clock = self._stack, time.perf_counter_ns
        intern_tag = functools.partial(self._intern, self._tag_ids, self.tags)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tag = intern_tag(tag_of(args, kwargs)) if tag_of else 0
            idx = len(start)
            names.append(name_idx)
            tags.append(tag)
            parent.append(stack[-1] if stack else -1)
            end.append(-1)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for name, module, attr, tag_of in FUNCTIONS:
            original = getattr(sys.modules[f"{PACKAGE}.{module}"], attr, None)
            if original is None:                  # gone from the package: nothing to time
                continue
            wrapper = self.wrap(name, original, tag_of)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for name, module, cls_name, attr, tag_of in METHODS:
            cls = getattr(sys.modules[f"{PACKAGE}.{module}"], cls_name)
            original = cls.__dict__.get(attr)
            if original is None:
                continue
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self.wrap(name, original, tag_of))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "tag": np.frombuffer(self.tag_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
        }

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), tags=np.array(self.tags),
                            **self.arrays())


def self_times(spans: dict[str, np.ndarray]) -> np.ndarray:
    """Duration of each span minus the time its child spans cover (ns)."""
    duration = spans["end"] - spans["start"]
    own = duration.copy()
    has_parent = spans["parent"] >= 0
    np.subtract.at(own, spans["parent"][has_parent], duration[has_parent])
    return own

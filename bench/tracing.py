"""Per-layer spans recorded from outside the package.

`install` replaces each traced public function with a timing wrapper on the
module attribute its callers resolve at call time.  Names imported with
``from .x import y`` are bound in the importing module, so the wrappers go
on `criteria.max_modulus_on_circle`, `harness.sup_oracle`,
`cli.load_function_file` and so on; `cli` and `harness` reach the checks
through the `criteria` module object.

Spans (name, parent, start, end) stay in compact arrays in memory and are
written out once, when the run ends.  `summarize` turns them into per-op
metrics; a layer's self time is its spans' durations minus their child
spans' durations.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from collections import defaultdict

import numpy as np

SPAN_NAMES = (
    "op",
    "cli.main",
    "cli.load",
    "criteria.check",
    "criteria.phase_difference",
    "criteria.partner",
    "series.weight",
    "series.image",
    "circlemax.sup",
    "harness.suite",
    "harness.oracle",
    "harness.lemma",
    "harness.generate",
)
SPAN_ID = {name: i for i, name in enumerate(SPAN_NAMES)}

# (module, attribute, span name)
_CHECKS = (
    "sufficient_n", "sufficient_m", "sufficient_n_modulus", "sufficient_m_modulus",
    "membership_n", "membership_m", "necessary_n", "necessary_m", "transfer_check",
)
TARGETS = (
    ("cli", "main", "cli.main"),
    ("cli", "load_function_file", "cli.load"),
    ("cli", "blend_derivative_normalized", "series.image"),
    ("cli", "salagean_blend", "series.image"),
    *(("criteria", name, "criteria.check") for name in _CHECKS),
    ("criteria", "phase_difference", "criteria.phase_difference"),
    ("criteria", "telescoping_partner", "criteria.partner"),
    ("criteria", "max_modulus_on_circle", "circlemax.sup"),
    ("criteria", "blend_weight", "series.weight"),
    ("criteria", "blend_derivative_weight", "series.weight"),
    ("criteria", "blend_normalized", "series.image"),
    ("criteria", "blend_derivative_normalized", "series.image"),
    # the image functions call the weights through the series module itself
    ("series", "blend_weight", "series.weight"),
    ("series", "blend_derivative_weight", "series.weight"),
    ("harness", "run_property_suite", "harness.suite"),
    ("harness", "sup_oracle", "harness.oracle"),
    ("harness", "lemma_witness", "harness.lemma"),
    ("harness", "generate_pair", "harness.generate"),
    ("harness", "generate_transfer_pair", "harness.generate"),
    ("harness", "max_modulus_on_circle", "circlemax.sup"),
    ("harness", "blend_weight", "series.weight"),
    ("harness", "blend_derivative_weight", "series.weight"),
    ("harness", "salagean_blend", "series.image"),
    ("harness", "blend_derivative_normalized", "series.image"),
    ("harness", "mth_derivative", "series.image"),
    ("harness", "salagean_iterate", "series.image"),
)

# metric -> (statistic, span name[, counter]); every value is per op
METRICS = {
    "circlemax.sup_ms": ("self_ms", "circlemax.sup"),
    "circlemax.sup_calls": ("calls", "circlemax.sup"),
    "circlemax.degree_sum": ("counter", "circlemax.sup", "degree"),
    "circlemax.grid_points": ("counter", "circlemax.sup", "grid"),
    "series.weight_ms": ("self_ms", "series.weight"),
    "series.weight_calls": ("outer_calls", "series.weight"),
    "series.image_ms": ("self_ms", "series.image"),
    "series.image_terms": ("counter", "series.image", "terms"),
    "criteria.self_ms": ("self_ms", "criteria.check"),
    "criteria.phase_difference_ms": ("self_ms", "criteria.phase_difference"),
    "criteria.partner_ms": ("self_ms", "criteria.partner"),
    "criteria.falsifications": ("counter", "criteria.check", "falsification"),
    "cli.load_ms": ("self_ms", "cli.load"),
    "cli.load_calls": ("calls", "cli.load"),
    "cli.self_ms": ("self_ms", "cli.main"),
    "harness.oracle_ms": ("self_ms", "harness.oracle"),
    "harness.oracle_points": ("counter", "harness.oracle", "grid"),
    "harness.lemma_ms": ("self_ms", "harness.lemma"),
    "harness.generate_ms": ("self_ms", "harness.generate"),
    "harness.self_ms": ("self_ms", "harness.suite"),
}


class Tracer:
    """Span recorder for one single-threaded process."""

    def __init__(self):
        self.name = array("b")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = defaultdict(float)
        self._stack = [-1]

    def open(self, span: str) -> int:
        idx = len(self.start)
        self.name.append(SPAN_ID[span])
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def save(self, path) -> None:
        np.savez(
            path,
            name=np.frombuffer(self.name, dtype=np.int8),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            counter_names=np.array(sorted(self.counters), dtype=str),
            counter_values=np.array([self.counters[k] for k in sorted(self.counters)]),
        )


def _argument(sig: inspect.Signature, args, kwargs, index: int, name: str):
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    if name in bound.arguments:
        return bound.arguments[name]
    return list(bound.arguments.values())[index]


def _counter(span: str, fn):
    """What a span of this layer adds to the layer's counters."""
    if span in ("circlemax.sup", "harness.oracle"):
        sig = inspect.signature(fn)

        def count(counters, args, kwargs, result):
            counters[f"{span}.grid"] += _argument(sig, args, kwargs, 1, "grid")
            if span == "circlemax.sup":
                counters[f"{span}.degree"] += np.size(args[0]) - 1
        return count
    if span == "series.image":
        def count(counters, args, kwargs, result):
            counters[f"{span}.terms"] += 1 + len(result.tail)
        return count
    if span == "criteria.check":
        def count(counters, args, kwargs, result):
            counters[f"{span}.falsification"] += bool(getattr(result, "falsification", False))
        return count
    return None


def _wrap(tracer: Tracer, span: str, fn):
    count = _counter(span, fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if count is not None:
            count(tracer.counters, args, kwargs, result)
        return result

    return traced


def install(tracer: Tracer, modules: dict) -> list[str]:
    """Wrap every target; return the "module.attribute" targets that do not exist."""
    missing = []
    for mod, attr, span in TARGETS:
        fn = getattr(modules[mod], attr, None)
        if fn is None:
            missing.append(f"{mod}.{attr}")
        else:
            setattr(modules[mod], attr, _wrap(tracer, span, fn))
    return missing


def summarize(spans, ops: int, missing) -> dict[str, float]:
    """Per-op metrics from saved spans; metrics fed by a missing target are left out."""
    name = spans["name"].astype(np.int64)
    parent = spans["parent"].astype(np.int64)
    dur = spans["end"] - spans["start"]
    has_parent = parent >= 0
    child = np.zeros_like(dur)
    np.add.at(child, parent[has_parent], dur[has_parent])
    own = dur - child
    counters = dict(zip(spans["counter_names"].tolist(), spans["counter_values"].tolist()))
    absent = {span for mod, attr, span in TARGETS if f"{mod}.{attr}" in missing}
    out = {}
    for metric, (stat, span, *counter) in METRICS.items():
        if span in absent:
            continue
        mask = name == SPAN_ID[span]
        if stat == "self_ms":
            value = 1e3 * float(own[mask].sum())
        elif stat == "calls":
            value = float(mask.sum())
        elif stat == "outer_calls":
            outer = np.ones_like(mask)
            outer[has_parent] = name[parent[has_parent]] != SPAN_ID[span]
            value = float((mask & outer).sum())
        else:
            value = counters.get(f"{span}.{counter[0]}", 0.0)
        out[metric] = value / ops
    return out

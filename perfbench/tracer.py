"""Span recording from outside the program.

The tracer wraps functions of the rorrlab package with recorders. Each
span keeps its name, start, end, parent span and one measured amount and
key; spans stay in memory until the round is summarised. The wrappers
replace the original function object everywhere it is reachable: in
every module namespace of the package (so `from .dist import
sample_duk_batch` call sites are seen too), in dictionaries held by
those modules (the check table of `verify`), and on classes for methods.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from collections.abc import Callable, Iterable

from layers import Layer


class Tracer:
    """Nested timing spans kept in memory; one list per round."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent, amount, key]
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans = []
        self._stack = []

    def wrap(self, name: str, fn: Callable, measure: Callable | None = None) -> Callable:
        signature = inspect.signature(fn) if measure is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0, None]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = self.clock()
                self._stack.pop()
            if measure is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                record[4], record[5] = measure(bound.arguments, result)
            return result

        return traced


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest, so the children of a span never overlap
    and their summed durations are the part of its interval they cover.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(span[2] - span[1]) - covered[i] for i, span in enumerate(spans)]


def summarize(spans: list[list], layers: Iterable[Layer]) -> dict[str, float]:
    """Per-layer metrics (see layers.py) from one round's spans."""
    layers = tuple(layers)
    acc = {layer.name: {"calls": 0, "self_s": 0.0, "wall_s": 0.0, "amount": 0,
                        "keys": set()} for layer in layers}
    for span, own in zip(spans, self_times(spans)):
        slot = acc[span[0]]
        slot["calls"] += 1
        slot["self_s"] += own
        slot["wall_s"] += span[2] - span[1]
        slot["amount"] += span[4]
        if span[5] is not None:
            slot["keys"].add(span[5])
    out: dict[str, float] = {}
    for layer in layers:
        slot = acc[layer.name]
        for stat in layer.stats:
            if stat in ("calls", "commands"):
                value = slot["calls"]
            elif stat in ("rows", "coeffs"):
                value = slot["amount"]
            elif stat == "distinct_ratio":
                value = len(slot["keys"]) / slot["calls"] if slot["calls"] else 0.0
            else:
                value = slot[stat]
            out[f"{layer.name}.{stat}"] = value
    return out


def package_modules(package: str) -> dict[str, object]:
    """Loaded modules of a package, keyed by their name inside it."""
    prefix = package + "."
    return {name[len(prefix):]: module for name, module in list(sys.modules.items())
            if name.startswith(prefix)}


def _resolve(target: str, modules: dict[str, object]):
    """(owner, attribute, function) for a target path (see layers.py)."""
    module_name, _, rest = target.partition(".")
    module = modules[module_name]
    if rest.startswith("check:"):
        table = module.CHECK_NAMES
        key = rest[len("check:"):]
        return table, key, table[key]
    owner = module
    *outer, attr = rest.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


def install(tracer: Tracer, layers: Iterable[Layer], modules: dict[str, object]) -> None:
    """Wrap every target of every layer, for the rest of the process."""
    for layer in layers:
        for target in layer.targets:
            owner, attr, fn = _resolve(target, modules)
            wrapper = tracer.wrap(layer.name, fn, layer.measure)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                continue
            for module in modules.values():
                for name, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, name, wrapper)
                    elif isinstance(value, dict):
                        for key, item in list(value.items()):
                            if item is fn:
                                value[key] = wrapper

"""Spans around cycalc's public functions, kept in memory and aggregated.

:func:`instrument` replaces each function in :data:`LAYERS` by a wrapper in
every cycalc module that binds it (so the names that ``cli``, ``engine``,
``hodge`` and ``records`` import are wrapped too) and restores the originals
on exit.  Nothing under ``src/`` changes.

A span records its name, start, end, parent span and command id.  Spans are
stored in start order, which is what :func:`self_times` relies on: a span's
self time is its duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import gzip
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import ModuleType
from typing import Callable, Iterator


def _rows(result) -> int:
    return len(result)


def _cases(result) -> int:
    return result.cases


def _text_bytes(result) -> int:
    return len(result.encode("utf-8"))


def _terms(result) -> int:
    return len(result.coefficients)


@dataclass(frozen=True)
class Layer:
    """A function to wrap: where it is defined, its span name, what to count."""

    module: str
    attr: str
    span: str
    counter: tuple[str, Callable] | None = None
    generator_unit: str | None = None


LAYERS = (
    Layer("engine", "analyze", "engine.analyze"),
    Layer("constructions", "substitution_table", "constructions.substitution_table"),
    Layer("autoeq", "resolve", "autoeq.resolve"),
    Layer("engine", "sweep", "engine.sweep", counter=("rows", _rows)),
    Layer("engine", "iter_sweep_bases", "engine.iter_sweep_bases", generator_unit="bases"),
    Layer("catalog", "builtin", "catalog.builtin"),
    Layer("catalog", "fonarev_rank", "catalog.fonarev_rank"),
    Layer("engine", "serre_power", "engine.serre_power"),
    Layer("engine", "closed_form", "engine.closed_form"),
    Layer("engine", "verify_cross_check", "engine.verify_cross_check", counter=("cases", _cases)),
    Layer("records", "case_record", "records.case_record"),
    Layer("records", "to_json", "records.render", counter=("bytes", _text_bytes)),
    Layer("records", "to_csv", "records.render", counter=("bytes", _text_bytes)),
    Layer("records", "to_table", "records.render", counter=("bytes", _text_bytes)),
    Layer("hodge", "jacobian_poincare", "hodge.jacobian_poincare", counter=("terms", _terms)),
    Layer("hodge", "diamond_for_case", "hodge.diamond"),
    Layer("hodge", "hkr", "hodge.hkr"),
    Layer("hodge", "hh_pipeline", "hodge.hh_pipeline"),
)


@dataclass
class Recorder:
    names: list[str] = field(default_factory=list)
    start: array = field(default_factory=lambda: array("d"))
    end: array = field(default_factory=lambda: array("d"))
    parent: array = field(default_factory=lambda: array("q"))
    command: array = field(default_factory=lambda: array("q"))
    errors: Counter = field(default_factory=Counter)
    counts: Counter = field(default_factory=Counter)
    current: int = -1
    command_id: int = -1

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parent.append(self.current)
        self.command.append(self.command_id)
        self.end.append(0.0)
        self.current = index
        self.start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self.current = self.parent[index]

    def wrap(self, name: str, fn: Callable, counter: tuple[str, Callable] | None = None):
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(index)
                self.errors[name] += 1
                raise
            self.close(index)
            if counter is not None:
                self.counts[f"{name}.{counter[0]}"] += counter[1](result)
            return result

        return wrapper

    def wrap_generator(self, name: str, fn: Callable, unit: str):
        """One span per item the generator produces (its own time only)."""

        def wrapper(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                index = self.open(name)
                try:
                    item = next(items)
                except StopIteration:
                    self.close(index)
                    return
                except BaseException:
                    self.close(index)
                    self.errors[name] += 1
                    raise
                self.close(index)
                self.counts[f"{name}.{unit}"] += 1
                yield item

        return wrapper


@contextmanager
def instrument(recorder: Recorder, modules: dict[str, ModuleType]) -> Iterator[None]:
    """Wrap every :data:`LAYERS` function wherever ``modules`` bind it."""
    replaced = []
    try:
        for layer in LAYERS:
            original = getattr(modules[layer.module], layer.attr)
            if layer.generator_unit:
                wrapper = recorder.wrap_generator(layer.span, original, layer.generator_unit)
            else:
                wrapper = recorder.wrap(layer.span, original, layer.counter)
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        replaced.append((module, attr, original))
                        setattr(module, attr, wrapper)
        yield
    finally:
        for module, attr, original in reversed(replaced):
            setattr(module, attr, original)


def self_times(start, end, parent) -> list[float]:
    """Duration minus the union of child intervals, for spans in start order."""
    count = len(start)
    covered = [0.0] * count
    reach = list(start)  # end of the covered prefix of each span
    for i in range(count):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [end[i] - start[i] - covered[i] for i in range(count)]


@dataclass(frozen=True)
class Totals:
    calls: int
    busy_s: float
    self_s: float


def totals(recorder: Recorder, selfs: list[float]) -> dict[str, Totals]:
    calls: Counter = Counter()
    busy: Counter = Counter()
    own: Counter = Counter()
    for i, name in enumerate(recorder.names):
        calls[name] += 1
        busy[name] += recorder.end[i] - recorder.start[i]
        own[name] += selfs[i]
    return {name: Totals(calls[name], busy[name], own[name]) for name in calls}


#: Per-layer metrics: a span name and the statistics reported for it, named
#: ``<span>.<stat>``.  ``calls``, ``busy_s`` and ``self_s`` come from the spans,
#: ``errors`` from exceptions leaving them, anything else from their counters.
REPORTED = (
    ("engine.analyze", ("calls", "busy_s", "self_s", "errors")),
    ("constructions.substitution_table", ("calls", "busy_s", "errors")),
    ("autoeq.resolve", ("calls", "busy_s")),
    ("engine.sweep", ("calls", "busy_s", "self_s")),
    ("engine.iter_sweep_bases", ("bases", "busy_s")),
    ("catalog.builtin", ("calls", "busy_s")),
    ("catalog.fonarev_rank", ("calls", "busy_s")),
    ("engine.serre_power", ("calls", "busy_s")),
    ("engine.closed_form", ("calls", "busy_s")),
    ("engine.verify_cross_check", ("cases", "busy_s")),
    ("records.case_record", ("calls", "busy_s")),
    ("records.render", ("busy_s", "bytes")),
    ("hodge.jacobian_poincare", ("calls", "busy_s", "terms")),
    ("hodge.diamond", ("busy_s",)),
    ("hodge.hkr", ("busy_s",)),
    ("hodge.hh_pipeline", ("busy_s",)),
    ("cli.main", ("calls", "busy_s", "self_s")),
)
_UNITS = {"busy_s": "s", "self_s": "s", "bytes": "bytes"}


def layer_metrics(recorder: Recorder, selfs: list[float]) -> dict[str, tuple[float, str]]:
    """Every :data:`REPORTED` metric plus ``engine.sweep.keep_ratio``, as (value, unit)."""
    sums = totals(recorder, selfs)
    metrics = {}
    for span, stats in REPORTED:
        total = sums.get(span, Totals(0, 0.0, 0.0))
        for stat in stats:
            if stat in ("calls", "busy_s", "self_s"):
                value = getattr(total, stat)
            elif stat == "errors":
                value = recorder.errors[span]
            else:
                value = recorder.counts[f"{span}.{stat}"]
            metrics[f"{span}.{stat}"] = (value, _UNITS.get(stat, "count"))
    # rows a sweep returns per case it analyzed
    names, parents = recorder.names, recorder.parent
    analyzed = sum(
        1 for i, name in enumerate(names)
        if name == "engine.analyze" and parents[i] >= 0 and names[parents[i]] == "engine.sweep"
    )
    rows = recorder.counts["engine.sweep.rows"]
    metrics["engine.sweep.keep_ratio"] = (rows / analyzed if analyzed else 0.0, "ratio")
    return metrics


def write(recorder: Recorder, path: Path) -> None:
    """Spans as gzipped CSV: name, start and end (seconds from the first span),
    parent index, command id."""
    origin = recorder.start[0] if recorder.names else 0.0
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
        out.write("name,start_s,end_s,parent,command\n")
        for i, name in enumerate(recorder.names):
            out.write(
                f"{name},{recorder.start[i] - origin:.9f},{recorder.end[i] - origin:.9f},"
                f"{recorder.parent[i]},{recorder.command[i]}\n"
            )

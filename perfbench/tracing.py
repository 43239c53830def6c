"""Layer spans recorded from outside the program.

The benchmark never edits ``src/``. In a traced run it wraps the public
functions of each layer, replacing every name *where its caller looks it
up*: ``pipeline`` binds ``assess_fire``, ``assess_travos`` and
``validate_document`` at import time and ``cli`` binds most pipeline
functions, so patching only the defining module would record nothing.

Spans live in memory. Each span knows its parent, so a layer's self time
is its duration minus the time covered by its child spans. Aggregates are
plain dicts so that spans recorded in a CLI subprocess can be merged into
the parent run.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager

_now = time.perf_counter


def _sim_counts(tracer, result, args, kwargs):
    scenario = result.scenario
    # Every agent makes exactly one interaction per round.
    tracer.count("simulate.interactions", scenario.rounds * len(scenario.agents))
    tracer.count(
        "simulate.rating_records", sum(len(s) for s in result.rating_stores.values())
    )
    tracer.count(
        "simulate.observation_records",
        sum(len(o) for o in result.observation_stores.values()),
    )


def _query_counts(tracer, result, args, kwargs):
    tracer.count("store.rows", len(result))
    tracer.count("store.size", len(args[0]))


def _travos_counts(tracer, result, args, kwargs):
    for res in result.term_results.values():
        tracer.count("travos.witnesses_consulted", len(res.witnesses))
        tracer.count("travos.low_confidence_terms", int(res.low_confidence))


def _explain_counts(tracer, result, args, kwargs):
    tracer.count("explain.arguments", len(result.arguments))


#: (module, attribute, span name, result hook). A dotted attribute names a
#: method on a class. Every entry must resolve; a missing one means a
#: caller moved and the wrapper list needs updating.
TARGETS = (
    ("reptrace.scenario", "validate_document", "scenario.validate", None),
    ("reptrace.pipeline", "validate_document", "scenario.validate", None),
    ("reptrace.simulate", "run_scenario", "simulate.run", _sim_counts),
    ("reptrace.cli", "run_scenario", "simulate.run", _sim_counts),
    ("reptrace.store", "RatingStore.query", "store.query", _query_counts),
    ("reptrace.store", "RatingStore.insert", "store.insert", None),
    ("reptrace.pipeline", "assess_fire", "fire.assess", None),
    ("reptrace.pipeline", "assess_travos", "travos.assess", _travos_counts),
    ("reptrace.pipeline", "ranking_to_document", "pipeline.output_doc", None),
    ("reptrace.cli", "ranking_to_document", "pipeline.output_doc", None),
    ("reptrace.pipeline", "explanation_to_document", "pipeline.output_doc", None),
    ("reptrace.cli", "explanation_to_document", "pipeline.output_doc", None),
    ("reptrace.pipeline", "world_to_document", "pipeline.to_document", None),
    ("reptrace.cli", "world_to_document", "pipeline.to_document", None),
    ("reptrace.pipeline", "world_from_document", "pipeline.from_document", None),
    ("reptrace.cli", "world_from_document", "pipeline.from_document", None),
    ("reptrace.pipeline", "dump_document", "pipeline.dump", None),
    ("reptrace.cli", "dump_document", "pipeline.dump", None),
    ("reptrace.cli", "_load_json", "pipeline.json_parse", None),
    ("reptrace.explain", "explain", "explain.explain", _explain_counts),
    ("reptrace.pipeline", "explain", "explain.explain", _explain_counts),
    ("reptrace.explain", "decisive_terms_tradeoff", "explain.tradeoff", None),
    ("reptrace.explain", "invert_permutation", "explain.permutation", None),
    ("reptrace.render", "render_text", "render.render", None),
    ("reptrace.cli", "render_text", "render.render", None),
)


class Tracer:
    """In-memory span and counter recorder."""

    def __init__(self):
        # Each span: [name, parent index or -1, start, end, child time].
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self._open: list[int] = []

    def open(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, parent, _now(), 0.0, 0.0])
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[3] = _now()
        self._open.pop()
        if span[1] >= 0:
            self.spans[span[1]][4] += span[3] - span[2]

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def aggregate(self) -> dict:
        """``{"spans": {name: [calls, total_s, self_s]}, "counters": {...}}``."""
        totals: dict[str, list] = {}
        for name, _, start, end, child in self.spans:
            entry = totals.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child
        return {"spans": totals, "counters": dict(self.counters)}


def merge(into: dict, other: dict) -> None:
    """Add one aggregate into another in place."""
    for name, (calls, total, self_s) in other["spans"].items():
        entry = into["spans"].setdefault(name, [0, 0.0, 0.0])
        entry[0] += calls
        entry[1] += total
        entry[2] += self_s
    for name, n in other["counters"].items():
        into["counters"][name] = into["counters"].get(name, 0) + n


def _wrap(tracer: Tracer, name: str, fn, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if hook is not None:
            hook(tracer, result, args, kwargs)
        return result

    return wrapper


def _resolve(module_name: str, attr: str):
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


class Instrumentation:
    """Installs and removes the layer wrappers for one tracer."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.missing: list[str] = []
        self.installed = False
        self._patches = []
        for module_name, attr, name, hook in TARGETS:
            try:
                owner, leaf = _resolve(module_name, attr)
            except (ImportError, AttributeError):
                owner, leaf = None, attr
            original = getattr(owner, "__dict__", {}).get(leaf)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._patches.append((owner, leaf, original, _wrap(tracer, name, original, hook)))

    def install(self) -> None:
        for owner, leaf, _, wrapper in self._patches:
            setattr(owner, leaf, wrapper)
        self.installed = True

    def remove(self) -> None:
        for owner, leaf, original, _ in self._patches:
            setattr(owner, leaf, original)
        self.installed = False

    @contextmanager
    def active(self):
        self.install()
        try:
            yield
        finally:
            self.remove()

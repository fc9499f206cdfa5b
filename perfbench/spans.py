"""Outside-in layer tracing: in-memory spans around public calls, and a fold.

The benchmark never edits the program.  In a traced run it replaces a
fixed set of public functions and methods (``PATCH_POINTS``) with thin
wrappers that record one span per call: name, start, end and the span
that was open when the call began.  Spans stay in memory; ``fold`` turns
them into a per-layer self/total table, and the caller writes them out
when the run ends.

Only the benchmark process records.  Pool workers forked by
``ParallelExecutor`` inherit the wrappers but see another pid and pass
straight through, so a pooled pass shows up as the consumer's wait on the
pool (``executor.pool_wait``), never as overlapping worker spans.
"""

from __future__ import annotations

import importlib
import os
import time
from dataclasses import dataclass, field

#: (module, attribute path, span name, how the call is counted).
#: ``units`` names the argument whose ``len`` is the call's unit count;
#: ``hit`` counts calls that returned something other than ``None``.
PATCH_POINTS = (
    ("repro.circuits.io.real", "read_real", "circuits.parse", None),
    ("repro.circuits.circuit", "ReversibleCircuit.truth_table", "circuits.tabulate", None),
    ("repro.circuits.circuit", "ReversibleCircuit.functionally_equal", "circuits.tabulate", None),
    ("repro.circuits.permutation", "Permutation.from_circuit", "circuits.tabulate", None),
    ("repro.circuits.bitslice", "simulate_many", "bitslice", "units:1"),
    ("repro.circuits.bitslice", "evaluate_compiled", "bitslice", "units:2"),
    ("repro.service.fingerprint", "FingerprintRegistry.fingerprint", "fingerprint", "scheme"),
    ("repro.service.pipeline", "pair_key", "fingerprint.pair_key", None),
    ("repro.service.cache", "ResultCache.get", "cache.get", "hit"),
    ("repro.service.cache", "ResultCache.put", "cache.put", None),
    ("repro.core.engine", "MatchingEngine.match", "engine.match", None),
    ("repro.core.engine", "MatchingEngine.match_many", "engine.match", None),
    ("repro.core.registry", "MatcherSpec.__call__", "matchers", "kind"),
    ("repro.core.matchers.n_i", "as_quantum_oracle", "oracles.quantum_build", None),
    ("repro.core.matchers.np_i", "as_quantum_oracle", "oracles.quantum_build", None),
    ("repro.quantum.oracle", "apply_permutation", "quantum.statevector", None),
    ("repro.quantum.oracle", "apply_circuit", "quantum.statevector", None),
    ("repro.quantum.swap_test", "SwapTest.sample", "quantum.swap_test", None),
    ("repro.service.pipeline", "ResultStore.append", "store.append", None),
    ("repro.service.executor", "ParallelExecutor.stream", "executor.pool_wait", "stream"),
)


@dataclass
class Tracer:
    """An in-memory span log for the benchmark process.

    ``spans`` holds ``(name, start, end, parent)`` tuples, ``parent`` being
    the index of the enclosing span or -1.  ``units`` and ``hits`` hold the
    per-span counts of the calls that report them, keyed by span index.
    """

    active: bool = False
    pid: int = field(default_factory=os.getpid)
    spans: list = field(default_factory=list)
    units: dict = field(default_factory=dict)
    hits: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)

    def recording(self) -> bool:
        return self.active and os.getpid() == self.pid

    def open(self) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([None, time.perf_counter(), None, parent])
        self._stack.append(index)
        return index

    def close(self, index: int, name: str) -> None:
        span = self.spans[index]
        span[0] = name
        span[2] = time.perf_counter()
        self._stack.pop()

    def record(self, name: str, start: float, end: float) -> int:
        """Log an already-timed span under the currently open one."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent])
        return len(self.spans) - 1

    def clear(self) -> None:
        self.spans = []
        self.units = {}
        self.hits = {}
        self._stack = []


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attribute


def _wrap(tracer: Tracer, function, name: str, counting: str | None):
    if counting == "stream":
        def stream(*args, **kwargs):
            outcomes = function(*args, **kwargs)
            while True:
                if not tracer.recording():
                    try:
                        yield next(outcomes)
                    except StopIteration:
                        return
                    continue
                index = tracer.open()
                try:
                    outcome = next(outcomes)
                except StopIteration:
                    return
                finally:
                    tracer.close(index, name)
                tracer.units[index] = 1
                yield outcome
        return stream

    def wrapper(*args, **kwargs):
        if not tracer.recording():
            return function(*args, **kwargs)
        index = tracer.open()
        span_name = name
        if counting == "kind":
            quantum = args[0].kind.value == "quantum"
            span_name = f"{name}.{'quantum' if quantum else 'classical'}"
        elif counting == "scheme":
            span_name = f"{name}.unresolved"
        try:
            result = function(*args, **kwargs)
            if counting == "hit":
                tracer.hits[index] = result is not None
            elif counting == "scheme":
                span_name = f"{name}.{result.scheme}"
            elif counting is not None and counting.startswith("units:"):
                position = int(counting.partition(":")[2])
                values = args[position] if len(args) > position else kwargs["values"]
                tracer.units[index] = len(values)
            return result
        finally:
            tracer.close(index, span_name)
    return wrapper


class Instrumentation:
    """Install the wrappers of ``PATCH_POINTS`` for the life of a ``with``."""

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer
        self._saved: list = []

    def __enter__(self) -> "Instrumentation":
        for module_name, path, name, counting in PATCH_POINTS:
            owner, attribute = _resolve(module_name, path)
            original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
            self._saved.append((owner, attribute, original))
            if isinstance(original, classmethod):
                wrapped = classmethod(_wrap(self._tracer, original.__func__, name, counting))
            else:
                wrapped = _wrap(self._tracer, original, name, counting)
            setattr(owner, attribute, wrapped)
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attribute, original in reversed(self._saved):
            setattr(owner, attribute, original)
        self._saved.clear()


@dataclass
class LayerTotals:
    """Folded figures of one span name."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    units: int = 0
    hits: int = 0


def fold(tracer: Tracer, into: dict | None = None) -> tuple[dict, float]:
    """Fold a span log into per-name totals; returns ``(layers, root_s)``.

    A span's self time is its duration minus the time its direct children
    cover.  A call nested in a span of the same name (``simulate_many``
    calling ``evaluate_compiled``) is part of the outer call: it adds no
    call, unit or total time of its own.  ``root_s`` is the time covered by
    spans with no parent, which is what the coverage figure divides.
    """
    layers = into if into is not None else {}
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    root_s = 0.0
    for index, (name, start, end, parent) in enumerate(spans):
        duration = end - start
        layer = layers.setdefault(name, LayerTotals())
        layer.self_s += duration - child_time[index]
        if parent < 0:
            root_s += duration
        if parent >= 0 and spans[parent][0] == name:
            continue
        layer.calls += 1
        layer.total_s += duration
        layer.units += tracer.units.get(index, 0)
        layer.hits += int(tracer.hits.get(index, False))
    return layers, root_s

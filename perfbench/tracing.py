"""Span tracing around each layer's public entry points.

The program under test is not modified: :func:`install` replaces the
listed methods on their classes with thin wrappers that record one span
per call while the tracer is active.  A span is the tuple
``(layer, start_ns, end_ns, parent, op)``: ``parent`` is the index of
the enclosing span (``-1`` for an op root) and ``op`` the id of the
timed client operation that caused it.  Spans stay in memory and are
written out once, at the end of the run.

A layer's self time is the sum over its spans of the span's duration
minus the durations of its direct children (calls are synchronous on
one thread, so children nest inside their parent).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from time import perf_counter_ns

#: layer name -> [(module, owner, method names)].  ``owner`` is a class
#: name, or None for a module-level function.  ``"public"`` wraps every
#: public plain method of the class; ``"on_*"`` every method whose name
#: starts with ``on_``.
LAYERS: dict[str, list[tuple[str, str | None, tuple[str, ...]]]] = {
    # Volume I/O is the kernel's vfs/cache/disk path beneath Lasagna.
    "kernel": [("repro.kernel.syscalls", "Syscalls", ("public",)),
               ("repro.kernel.kernel", "Kernel", ("run_program",)),
               ("repro.kernel.volume", "Volume",
                ("write_bytes", "read_bytes"))],
    "core.observer": [("repro.core.observer", "Observer",
                       ("on_*", "disclosed_write", "submit_protos"))],
    "core.libpass": [("repro.core.libpass", "LibPass",
                      ("record_many", "pass_write"))],
    "core.analyzer": [("repro.core.analyzer", "Analyzer",
                       ("submit_batch", "freeze"))],
    "core.distributor": [("repro.core.distributor", "Distributor",
                          ("flush_batch", "flush"))],
    "storage.lasagna": [("repro.storage.lasagna", "Lasagna",
                         ("write_bytes", "append_provenance", "sync"))],
    # data_digest is the log's record digest of each data write (hole
    # digests included); Lasagna's write path calls it by this name.
    "storage.log": [("repro.storage.log", "ProvenanceLog",
                     ("append_batch", "flush")),
                    ("repro.storage.lasagna", None, ("data_digest",))],
    "storage.codec": [("repro.storage.codec", "RecordEncoder",
                       ("encode_list",))],
    "storage.waldo": [("repro.storage.waldo", "Waldo", ("drain",))],
    "storage.database": [("repro.storage.database", "ProvenanceDatabase",
                          ("insert_many",))],
    "storage.tier": [("repro.storage.tier", "StorageTier", ("sync",))],
    "pql.oem": [("repro.pql.oem", "OEMGraph", ("build", "apply_batch"))],
    "pql.engine": [("repro.pql.engine", "QueryEngine",
                    ("execute", "plan"))],
    "pql.evaluator": [("repro.pql.evaluator", "Evaluator", ("execute",))],
    "pql.indexes": [("repro.pql.indexes", "IndexCatalog",
                     ("equality_lookup", "csr")),
                    ("repro.pql.indexes", "AncestryView", ("closure",))],
    "query.helpers": [("repro.query.helpers", None, ("ancestry_refs",))],
}

LAYER_NAMES = tuple(LAYERS)


class Tracer:
    """In-memory span store; records only while :attr:`active`."""

    def __init__(self) -> None:
        self.active = False
        #: Id of the timed op in progress; -1 between ops.
        self.op_id = -1
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, layer: int, fn):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (layer, start, end, parent, self.op_id)

        return traced

    def layer_totals(self, op_kinds: list[str]) -> tuple[dict, dict]:
        """``({layer: {"self_s", "calls"}}, {op kind: {layer: self_s}})``
        over every recorded span; ``op_kinds[op]`` names op ``op``'s
        class."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_ns = [0] * len(LAYER_NAMES)
        calls = [0] * len(LAYER_NAMES)
        by_kind: dict[str, list[int]] = {}
        for index, (layer, start, end, _, op) in enumerate(self.spans):
            own = end - start - child_ns[index]
            self_ns[layer] += own
            calls[layer] += 1
            kind = op_kinds[op] if 0 <= op < len(op_kinds) else "between_ops"
            by_kind.setdefault(kind, [0] * len(LAYER_NAMES))[layer] += own
        totals = {name: {"self_s": self_ns[i] / 1e9, "calls": calls[i]}
                  for i, name in enumerate(LAYER_NAMES)}
        split = {kind: {name: ns[i] / 1e9
                        for i, name in enumerate(LAYER_NAMES) if ns[i]}
                 for kind, ns in by_kind.items()}
        return totals, split

    def root_s(self) -> float:
        """Time covered by op-root spans (the rest of an op's time is
        the benchmark's own code between calls into the program)."""
        return sum(end - start for _, start, end, parent, _ in self.spans
                   if parent < 0) / 1e9

    def write(self, path, op_kinds: list[str]) -> None:
        with open(path, "w") as out:
            json.dump({"layers": LAYER_NAMES, "op_kinds": op_kinds,
                       "fields": ["layer", "start_ns", "end_ns", "parent",
                                  "op"],
                       "spans": self.spans}, out, separators=(",", ":"))


def _targets(owner, names: tuple[str, ...]):
    for attr, value in list(vars(owner).items()):
        if attr.startswith("_"):
            continue
        if not (inspect.isfunction(value)
                or isinstance(value, classmethod)):
            continue
        if ("public" in names or attr in names
                or ("on_*" in names and attr.startswith("on_"))):
            yield attr, value


def install(tracer: Tracer) -> int:
    """Wrap every listed entry point; returns the number wrapped.  Call
    before the system under test is built, so objects that keep bound
    methods keep the wrapped ones."""
    wrapped = 0
    for layer, (name, entries) in enumerate(LAYERS.items()):
        for module_name, owner_name, names in entries:
            module = importlib.import_module(module_name)
            if owner_name is None:
                for attr in names:
                    setattr(module, attr,
                            tracer.wrap(layer, getattr(module, attr)))
                    wrapped += 1
                continue
            owner = getattr(module, owner_name)
            found = set()
            for attr, value in _targets(owner, names):
                if isinstance(value, classmethod):
                    value = classmethod(tracer.wrap(layer, value.__func__))
                else:
                    value = tracer.wrap(layer, value)
                setattr(owner, attr, value)
                found.add(attr)
            missing = {n for n in names if n not in ("public", "on_*")}
            missing -= found
            if missing or not found:
                raise AttributeError(
                    f"{owner_name} lacks traced entry points "
                    f"{sorted(missing) or list(names)}")
            wrapped += len(found)
    return wrapped

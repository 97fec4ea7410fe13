"""Span recording around the program's public layer functions.

A :class:`Recorder` replaces chosen functions and methods with wrappers
that record one span per call: name, start, end, parent (the enclosing
span on the same thread), thread and an optional count.  Spans stay in
memory; :meth:`Recorder.dump` writes them out when the process ends.
Timestamps come from ``time.perf_counter`` (``CLOCK_MONOTONIC`` on
Linux), so spans of the benchmark and of its server subprocesses share
one clock.

Coroutine functions get spans too, but never take part in nesting: an
event loop interleaves many of them on one thread, so neither can be
the other's parent.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time
from collections import defaultdict

# (span name, module, attribute path).  The kernel entries (module None)
# are resolved against the active kernel's class.
LAYERS = [
    ("minhash.lean", "repro.minhash.generator", "SignatureFactory.lean"),
    ("core.index", "repro.core.ensemble", "LSHEnsemble.index"),
    ("core.query", "repro.core.ensemble", "LSHEnsemble.query"),
    ("core.query_batch", "repro.core.ensemble", "LSHEnsemble.query_batch"),
    ("core.query_top_k", "repro.core.ensemble", "LSHEnsemble.query_top_k"),
    ("core.query_top_k_batch", "repro.core.ensemble",
     "LSHEnsemble.query_top_k_batch"),
    ("core.insert", "repro.core.ensemble", "LSHEnsemble.insert"),
    ("core.remove", "repro.core.ensemble", "LSHEnsemble.remove"),
    ("kernels.band_hash", None, "band_hash"),
    ("kernels.probe", None, "probe_hits"),
    ("kernels.merge", None, "merge"),
    ("persistence.save", "repro.persistence", "save_ensemble"),
    ("persistence.load", "repro.persistence", "load_ensemble"),
    ("serve.dispatch", "repro.serve.engine", "ServingEngine.dispatch"),
    ("serve.apply_inserts", "repro.serve.engine",
     "ServingEngine.apply_inserts"),
    ("serve.apply_removes", "repro.serve.engine",
     "ServingEngine.apply_removes"),
    ("serve.submit", "repro.serve.coalescer", "MicroBatchCoalescer.submit"),
    ("router.shard_query", "repro.serve.remote", "ShardNodeClient.query"),
    ("router.shard_top_k", "repro.serve.remote",
     "ShardNodeClient.query_top_k"),
    ("router.signatures", "repro.serve.remote", "ShardNodeClient.signatures"),
    ("router.rank", "repro.core.estimation", "rank_candidates"),
    ("router.insert_fanout", "repro.serve.remote",
     "RemoteShardExecutor.insert_entries"),
    ("router.remove_fanout", "repro.serve.remote",
     "RemoteShardExecutor.remove_keys"),
]

# Spans that record how many rows their batch argument holds.
_ROW_COUNTED = {"core.query_batch", "core.query_top_k_batch",
                "serve.dispatch"}


def _rows_of(name: str, args) -> int:
    if name == "serve.dispatch":
        return len(args[2])
    return len(args[1])


class Recorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # Each span: [name_id, start, end, parent, thread, count].
        self.spans: list[list] = []
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    # ----------------------------- recording ------------------------- #

    def _name_id(self, name: str) -> int:
        found = self._name_ids.get(name)
        if found is None:
            found = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return found

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        original = func = getattr(owner, attr)
        name_id = self._name_id(name)
        spans = self.spans
        local = self._local
        counted = name in _ROW_COUNTED

        if inspect.iscoroutinefunction(func):
            @functools.wraps(func)
            async def traced_async(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return await func(*args, **kwargs)
                finally:
                    spans.append([name_id, start, time.perf_counter(), -1,
                                  threading.get_ident(), 0])
            wrapper = traced_async
        else:
            @functools.wraps(func)
            def traced(*args, **kwargs):
                stack = getattr(local, "stack", None)
                if stack is None:
                    stack = local.stack = []
                span = [name_id, time.perf_counter(), 0.0,
                        stack[-1] if stack else -1,
                        threading.get_ident(),
                        _rows_of(name, args) if counted else 0]
                index = len(spans)
                spans.append(span)
                stack.append(index)
                try:
                    return func(*args, **kwargs)
                finally:
                    span[2] = time.perf_counter()
                    stack.pop()
            wrapper = traced
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def install(self, kernel_class=None) -> None:
        """Wrap every entry of :data:`LAYERS` that this process has."""
        import importlib

        for name, module_name, path in LAYERS:
            if module_name is None:
                if kernel_class is None:
                    continue
                owner, attr = kernel_class, path
            else:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
            self.wrap(owner, attr, name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # ------------------------------ output --------------------------- #

    def export(self) -> dict:
        return {"names": list(self.names),
                "spans": [list(span) for span in self.spans]}

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.export(), fh, separators=(",", ":"))


# --------------------------------------------------------------------- #
# Aggregation
# --------------------------------------------------------------------- #


class Spans:
    """Recorded spans of one process, with self-time aggregation.

    ``self_time[i]`` is span ``i``'s duration minus the time its direct
    same-thread children cover.  Children of one parent on one thread
    run one after the other, so they never overlap and the time they
    cover is the sum of their durations.
    """

    def __init__(self, data: dict) -> None:
        self.names = data["names"]
        self.spans = data["spans"]
        self.duration = [end - start for _, start, end, _, _, _
                         in self.spans]
        child_time = [0.0] * len(self.spans)
        self.children: dict[int, list[int]] = defaultdict(list)
        for i, (_, _, _, parent, thread, _) in enumerate(self.spans):
            if parent >= 0 and self.spans[parent][4] == thread:
                child_time[parent] += self.duration[i]
                self.children[parent].append(i)
        self.self_time = [d - c for d, c in zip(self.duration, child_time)]

    def name(self, i: int) -> str:
        return self.names[self.spans[i][0]]

    def select(self, name: str, window=None, top_level: bool = False,
               ) -> list[int]:
        """Indices of spans called ``name`` that start in ``window``;
        with ``top_level``, only those not nested in a same-named span."""
        out = []
        for i, span in enumerate(self.spans):
            if self.names[span[0]] != name:
                continue
            if window is not None and not window[0] <= span[1] < window[1]:
                continue
            if top_level and span[3] >= 0 \
                    and self.names[self.spans[span[3]][0]] == name:
                continue
            out.append(i)
        return out

    def total(self, indices, attr: str = "duration") -> float:
        values = getattr(self, attr)
        return sum(values[i] for i in indices)

    def rows(self, indices) -> int:
        return sum(self.spans[i][5] for i in indices)

    def children_named(self, i: int, names) -> list[int]:
        return [c for c in self.children.get(i, ())
                if self.name(c) in names]


def load_spans(path) -> Spans:
    with open(path, encoding="utf-8") as fh:
        return Spans(json.load(fh))

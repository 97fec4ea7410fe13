"""The three workloads: the library in one process, one serving node,
and a router in front of replicated shard nodes.

Every workload runs the same frame (:meth:`Workload.run`):

1. set-up, from raw value sets to a warmed, serving-ready index, with a
   speed probe between its steps;
2. the timed phase: whole rounds of a fixed, seeded operation mix until
   ``--seconds`` have passed, with a probe between rounds while the
   servers are idle;
3. untimed checks of the answers against the oracle and the properties
   in ``checks.py``;
4. with tracing, the per-layer metrics from the recorded spans.
"""

from __future__ import annotations

import collections
import contextlib
import json
import os
import shutil
import statistics
import threading
import time

import numpy as np

from checks import Accuracy, top_k_problems
from common import (
    NUM_PARTITIONS,
    NUM_PERM,
    ROOT,
    THRESHOLD,
    TOP_K,
    Client,
    Ledger,
    Server,
    SpeedProbe,
    TimedKeys,
    encode,
    insert_key,
    peak_rss_mb,
)
from tracing import Recorder, Spans, load_spans

WRITE_KINDS = ("insert", "remove")
# Queries per request in warm-up batches.  Sixteen rows keep server-side
# batches on the same (non-vectorised) probe path that single-query
# requests take.  The checks after the timed phase batch more.
WARMUP_CHUNK = 16
CHECK_CHUNK = 64


def _p50(values) -> float:
    return float(np.percentile(values, 50))


#: Consecutive slices of a run that timings are summarised over.
SLICES = 16


def sliced_median(values, summary=_p50) -> float:
    """The median over SLICES consecutive slices of ``values`` (in the
    order they were measured) of ``summary`` of each slice.

    The host of a shared box takes CPU time away in bursts, and served
    latencies grow with it by more than the speed probe sees.  A slice
    inside a burst reads slow, and the median over slices passes it by
    while bursts cover fewer than half of the slices; on a steady box
    it reads close to the plain median."""
    chunks = np.array_split(np.asarray(values, dtype=float),
                            min(SLICES, len(values)))
    return float(np.median([summary(chunk) for chunk in chunks]))


class Workload:
    name = ""

    def __init__(self, inputs, oracle, seconds: float,
                 trace: bool) -> None:
        self.inputs = inputs
        self.oracle = oracle
        self.seconds = float(seconds)
        self.trace = trace
        self.probe = SpeedProbe()
        self.ledger = Ledger()
        self.problems: list[str] = []
        self.workdir = ROOT / ".perfbench_work" / (
            "%s-%d" % (self.name, os.getpid()))
        self.servers: list = []
        self.recorder = Recorder() if trace else None
        self.sizes = {key: len(values)
                      for key, values in inputs.corpus.items()}
        self.sig: dict = {}
        self.live = {key: key for key in inputs.corpus}
        self.source: dict = {}  # inserted key -> insertable domain
        self.removed: list = []
        self.uncertain: set = set()
        self.inserted = collections.deque()  # acked, still live
        self.next_insert = 0
        self.next_removable = 0
        self.timed = TimedKeys(inputs)
        self.answers: list = []   # (key, found) of timed threshold ops
        self.rankings: list = []  # (key, ranked) of timed top-k ops
        self.warmup_s = 0.0
        self.round_spans: list = []  # (start, end, operations)
        self.phases: dict[str, float] = {}  # wall seconds, for the log
        self.server_spans: dict = {}  # server name -> Spans, when traced

    # ------------------------------ frame ---------------------------- #

    def run(self) -> None:
        from repro.kernels import get_kernel

        self.workdir.mkdir(parents=True, exist_ok=True)
        try:
            if self.recorder is not None:
                self.recorder.install(kernel_class=type(get_kernel()))
            self.setup_window = [time.perf_counter(), 0.0]
            self.steps: dict[str, tuple] = {}  # name -> (start, end)
            self.setup()
            self.probe.sample()
            self.setup_window[1] = time.perf_counter()
            self.timed_phase()
            self.end_stats = self.collect_stats()
            self.rss_mb = self.measure_rss()
            t0 = time.perf_counter()
            self.verify()
            if self.trace:
                self.count_phase()
            self.phases["checks"] = time.perf_counter() - t0
        finally:
            t0 = time.perf_counter()
            self.stop_servers()
            self.phases["teardown"] = time.perf_counter() - t0
            if self.recorder is not None:
                self.recorder.uninstall()
        try:
            self.layers = self.layer_metrics() if self.trace else {}
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)
            with contextlib.suppress(OSError):  # other runs may use it
                self.workdir.parent.rmdir()

    def step(self, name: str, fn):
        """One timed set-up step, after a probe while nothing runs."""
        self.probe.sample()
        t0 = time.perf_counter()
        out = fn()
        self.steps[name] = (t0, time.perf_counter())
        return out

    def stop_servers(self) -> None:
        for server in self.servers:
            server.stop()
        self.servers = []

    # ----------------------------- set-up ---------------------------- #

    def hash_corpus(self) -> None:
        from repro import SignatureFactory

        self.factory = SignatureFactory(num_perm=NUM_PERM)
        self.leans = {key: self.factory.lean(values)
                      for key, values in self.inputs.corpus.items()}
        self.sig = {key: lean.hashvalues for key, lean in self.leans.items()}

    def build(self, keys):
        """Index ``keys`` as ``cli build`` does."""
        from repro import LSHEnsemble

        index = LSHEnsemble(threshold=THRESHOLD, num_perm=NUM_PERM,
                            num_partitions=NUM_PARTITIONS)
        index.index((key, self.leans[key], self.sizes[key]) for key in keys)
        return index

    def save(self, index, name: str):
        # Through the module attribute, so a traced run sees the call.
        import repro.persistence

        path = self.workdir / name
        repro.persistence.save_ensemble(index, path)
        return path

    def warm_up(self) -> None:
        """Untimed-by-the-clients warm-up: the same kinds of queries as
        the timed phase, on keys the timed phase never asks, so lazily
        built bucket tables are filled before timing starts."""
        t0 = time.perf_counter()
        keys = self.inputs.warmup
        self.threshold_many(keys, WARMUP_CHUNK)
        self.top_k_many(keys[::4], WARMUP_CHUNK)
        self.warmup_s = time.perf_counter() - t0

    # --------------------------- operations -------------------------- #

    def plan_insert(self):
        """A fresh insertable domain; ``None`` once all are used."""
        if self.next_insert >= len(self.inputs.insertable):
            return None
        source = self.inputs.insertable[self.next_insert]
        key = insert_key(source, self.next_insert)
        self.next_insert += 1
        self.source[key] = source
        values = self.inputs.extra[source]
        lean = self.factory.lean(values)
        self.leans[key] = lean
        self.sig[key] = lean.hashvalues
        self.sizes[key] = len(values)
        return ("insert", key, None)

    def plan_remove(self, inserted: bool):
        """Remove the oldest acked insert (when ``inserted``) or the next
        removable corpus key; ``None`` once none is left."""
        if inserted and self.inserted:
            return ("remove", self.inserted.popleft(), None)
        if self.next_removable >= len(self.inputs.removable):
            return None
        key = self.inputs.removable[self.next_removable]
        self.next_removable += 1
        return ("remove", key, None)

    def absorb(self, op, seconds, error, result, end) -> None:
        """Account one finished operation in the main thread."""
        kind, key = op[0], op[1]
        if kind == "batch":
            self.ledger.record(kind, seconds, error, end)
            if error is None:
                self.answers.extend(zip(key, result))
            return
        if error is None and kind in WRITE_KINDS and result is not True:
            error = "%s of %s not applied" % (kind, key)
        self.ledger.record(kind, seconds, error, end)
        if error is not None:
            if kind in WRITE_KINDS:
                self.uncertain.add(key)
            return
        if kind == "query":
            self.answers.append((key, result))
        elif kind == "topk":
            self.rankings.append((key, result))
        elif kind == "insert":
            self.live[key] = self.source[key]
            self.inserted.append(key)
        elif kind == "remove":
            del self.live[key]
            self.removed.append(key)

    def values_of(self, key) -> frozenset:
        return self.inputs.values_of(self.source.get(key, key))

    def timed_call(self, op, client=None):
        t0 = time.perf_counter()
        try:
            result = self.execute(op, client)
        except Exception as exc:  # noqa: BLE001 — counted as a failure
            return (op, None, "%s: %s" % (type(exc).__name__, exc), None,
                    time.perf_counter())
        end = time.perf_counter()
        return op, end - t0, None, result, end

    def timed_phase(self) -> None:
        start = last_probe = time.perf_counter()
        self.window = [start, 0.0]
        round_no = 0
        while True:
            ops = self.round_ops(round_no)
            if ops is None:
                break
            t0 = time.perf_counter()
            for outcome in self.run_round(ops):
                self.absorb(*outcome)
            now = time.perf_counter()
            self.round_spans.append((t0, now, len(ops)))
            round_no += 1
            if now - start >= self.seconds:
                break
            if now - last_probe >= 0.2:
                self.probe.sample(1)
                last_probe = time.perf_counter()
        self.rounds = round_no
        self.after_rounds()
        self.window[1] = time.perf_counter()
        self.probe.sample()

    def after_rounds(self) -> None:
        """Timed operations after the rounds (none by default)."""

    def run_round(self, ops) -> list:
        return [self.timed_call(op) for op in ops]

    def mixed_round(self, round_no: int, counts: dict):
        """A seeded shuffle of ``counts`` operations (query, topk,
        insert, remove); each remove takes the oldest insert acked in an
        earlier round or by :meth:`prefill`.  Removes are all of one
        kind: removing an inserted key took about 1.0 ms on a node and
        removing a corpus key 0.75 ms, and the median of an even mix of
        the two fell in the gap between them."""
        ops = []
        for _ in range(counts.get("insert", 0)):
            ops.append(self.plan_insert())
        for _ in range(counts.get("remove", 0)):
            ops.append(self.plan_remove(inserted=True))
        if any(op is None for op in ops):
            return None
        for kind in ("query", "topk"):
            ops.extend((kind, key, None)
                       for key in self.timed.take(kind, counts[kind]))
        order = self.inputs.round_rng(round_no).permutation(len(ops))
        return [ops[i] for i in order]

    # ----------------------------- checks ---------------------------- #

    def verify(self) -> None:
        """Untimed checks against the oracle and the answer properties."""
        for key, found in self.answers:
            if key not in found:
                self.problems.append("%s: own key missing" % key)
        for key, ranked in self.rankings:
            self.problems.extend(top_k_problems(
                key, ranked, self.sig, self.sizes, self.sizes[key], TOP_K))
        keys = self.inputs.verify
        found = self.threshold_many(keys)
        ranked = self.top_k_many(keys)
        accuracy = Accuracy(self.oracle, self.live, THRESHOLD, TOP_K)
        for key, hits, ranking in zip(keys, found, ranked):
            accuracy.add(self.values_of(key), hits, ranking)
            if key not in hits:
                self.problems.append("%s: own key missing" % key)
            self.problems.extend(top_k_problems(
                key, ranking, self.sig, self.sizes, self.sizes[key], TOP_K))
        self.accuracy = accuracy.summary()
        for key, hits in zip(keys[:30], found[:30]):
            if self.threshold_one(key) != hits:
                self.problems.append("%s: batched != single answer" % key)
        for key, ranking in zip(keys[:10], ranked[:10]):
            if self.top_k_one(key) != ranking:
                self.problems.append("%s: batched != single top-k" % key)
        inserted = [key for key in self.inserted if key not in self.uncertain]
        for key, hits in zip(inserted, self.threshold_many(inserted)):
            if key not in hits:
                self.problems.append("acked insert %s not found" % key)
        removed = [key for key in self.removed if key not in self.uncertain]
        for key, hits in zip(removed, self.threshold_many(removed)):
            if key in hits:
                self.problems.append("acked remove %s still found" % key)
        if not self.uncertain and self.key_count() != len(self.live):
            self.problems.append("index holds %d keys, expected %d"
                                 % (self.key_count(), len(self.live)))

    # ----------------------------- metrics --------------------------- #

    def end_to_end(self, adjusted: bool = True) -> dict:
        """The end-to-end metrics; timings speed-adjusted unless
        ``adjusted`` is false."""
        probe = self.probe if adjusted else None

        def seconds(t0, t1):
            return (t1 - t0) * (probe.factor_around(t0, t1) if probe
                                else 1.0)

        def p50_ms(kind):
            return sliced_median(self.ledger.adjusted(kind, probe)) * 1e3

        return {
            "setup_s": (sum(seconds(*span) for span in self.steps.values()),
                        "s"),
            "query_p50_ms": (p50_ms("query"), "ms"),
            "topk_p50_ms": (p50_ms("topk"), "ms"),
            "insert_p50_ms": (p50_ms("insert"), "ms"),
            "remove_p50_ms": (p50_ms("remove"), "ms"),
            "ops_per_s": (self.ops_per_s(probe, seconds), "1/s"),
            "recall": (self.accuracy["recall"], "ratio"),
            "precision": (self.accuracy["precision"], "ratio"),
            "topk_recall": (self.accuracy["topk_recall"], "ratio"),
            "index_mb": (self.index_bytes / 1e6, "MB"),
            "server_rss_mb": (self.rss_mb, "MB"),
        }

    def ops_per_s(self, probe, seconds) -> float:
        """Operations per (adjusted) second of whole rounds, the median
        over slices of consecutive rounds (every round holds the same
        operations)."""
        ops = self.round_spans[0][2]
        return sliced_median(
            [seconds(t0, t1) for t0, t1, _ in self.round_spans],
            lambda chunk: len(chunk) * ops / float(np.sum(chunk)))

    def tails(self) -> dict:
        """p99 of each kind with at least 1000 samples (printed only)."""
        return {kind: float(np.percentile(values, 99)) * 1e3
                for kind, values in self.ledger.latencies.items()
                if len(values) >= 1000}

    # ---------------------------- layers ----------------------------- #

    def layer_metrics(self) -> dict:
        """Per-layer metrics from the spans; 0 where a layer does no
        work in this workload."""
        f = self.probe.factor
        bench = self.bench_spans = Spans(self.recorder.export())
        index_procs = self.index_spans()
        front = self.front_spans()
        window = self.window
        setup = self.setup_window
        out = {}

        def mean_ms(procs, names):
            idx = [(s, i) for s in procs for name in names
                   for i in s.select(name, window, top_level=True)]
            if not idx:
                return 0.0
            return 1e3 * f * sum(s.duration[i] for s, i in idx) / len(idx)

        def setup_total(name):
            return f * bench.total(bench.select(name, setup))

        out["minhash.setup_hash_s"] = (setup_total("minhash.lean"), "s")
        out["minhash.request_hash_ms"] = (
            mean_ms([front] if front and self.values_payloads else [],
                    ["minhash.lean"]), "ms")
        out["core.build_s"] = (setup_total("core.index"), "s")
        rows = self_t = 0.0
        kernel_t = collections.Counter()
        rungs = topk_calls = rank_t = 0.0
        for s in index_procs:
            qb = s.select("core.query_batch", window, top_level=True)
            rows += s.rows(qb)
            self_t += s.total(qb, "self_time")
            for name in ("kernels.band_hash", "kernels.probe",
                         "kernels.merge"):
                kernel_t[name] += s.total(s.select(name, window))
            for name in ("core.query_top_k", "core.query_top_k_batch"):
                for i in s.select(name, window, top_level=True):
                    kids = s.children_named(
                        i, ("core.query", "core.query_batch"))
                    rungs += len(kids)
                    topk_calls += 1
                    rank_t += s.duration[i] - s.total(kids)
        per_row = 1e3 * f / rows if rows else 0.0
        out["core.query_ms_per_row"] = (self_t * per_row, "ms")
        out["core.topk_rungs"] = (rungs / topk_calls if topk_calls else 0.0,
                                  "count")
        out["core.topk_rank_ms"] = (
            1e3 * f * rank_t / topk_calls if topk_calls else 0.0, "ms")
        answered = [len(found) for _, found in self.answers]
        out["core.candidates_per_query"] = (float(np.mean(answered)),
                                            "count")
        out["core.write_ms"] = (mean_ms(index_procs, ["core.insert",
                                                      "core.remove"]), "ms")
        out["core.delta_keys_end"] = (float(self.end_stats["delta"]),
                                      "count")
        out["core.tombstones_end"] = (float(self.end_stats["tombstones"]),
                                      "count")
        for name, metric in (("kernels.band_hash",
                              "kernels.band_hash_ms_per_row"),
                             ("kernels.probe", "kernels.probe_ms_per_row"),
                             ("kernels.merge", "kernels.merge_ms_per_row")):
            out[metric] = (kernel_t[name] * per_row, "ms")
        out["forest.warmup_s"] = (f * self.warmup_s, "s")
        out["persistence.save_s"] = (setup_total("persistence.save"), "s")
        if self.servers_hold_index:
            load = f * statistics.mean(
                s.total(s.select("persistence.load")) for s in index_procs)
        else:
            load = setup_total("persistence.load")
        out["persistence.load_s"] = (load, "s")
        out.update(self.serve_layers(front, mean_ms, f))
        out.update(self.router_layers(mean_ms))
        out.update(self.client_layers())
        return out

    def serve_layers(self, front, mean_ms, f) -> dict:
        keys = ("serve.dispatch_ms", "serve.coalescer_wait_ms",
                "serve.http_ms", "serve.write_apply_ms")
        out = {key: (0.0, "ms") for key in keys}
        out["serve.batch_rows"] = (0.0, "count")
        out["serve.cache_hits"] = (float(self.end_stats.get("cache_hits",
                                                            0)), "count")
        if front is None:
            return out
        window = self.window
        dispatch = front.select("serve.dispatch", window)
        out["serve.dispatch_ms"] = (mean_ms([front], ["serve.dispatch"]),
                                    "ms")
        out["serve.batch_rows"] = (front.rows(dispatch) / len(dispatch),
                                   "count")
        wait = (mean_ms([front], ["serve.submit"])
                - mean_ms([front], ["serve.dispatch"]))
        nodes = self.node_spans()
        for node in nodes:
            wait += (mean_ms([node], ["serve.submit"])
                     - mean_ms([node], ["serve.dispatch"])) / len(nodes)
        out["serve.coalescer_wait_ms"] = (wait, "ms")
        applies = ["serve.apply_inserts", "serve.apply_removes"]
        out["serve.write_apply_ms"] = (mean_ms([front], applies), "ms")
        server_side = sum(front.total(front.select(name, window))
                          for name in ["serve.submit"] + applies)
        client_side = sum(sum(v) for v in self.ledger.latencies.values())
        count = sum(len(v) for v in self.ledger.latencies.values())
        out["serve.http_ms"] = (1e3 * f * (client_side - server_side)
                                / count, "ms")
        return out

    def router_layers(self, mean_ms) -> dict:
        router = self.router_spans()
        procs = [router] if router is not None else []
        counts = getattr(self, "fanout_counts", {})
        return {
            "router.fanouts_per_query": (counts.get("query", 0.0), "count"),
            "router.fanouts_per_topk": (counts.get("topk", 0.0), "count"),
            "router.shard_call_ms": (mean_ms(procs, [
                "router.shard_query", "router.shard_top_k"]), "ms"),
            "router.signatures_ms": (mean_ms(procs, ["router.signatures"]),
                                     "ms"),
            "router.rank_ms": (mean_ms(procs, ["router.rank"]), "ms"),
            "router.write_fanout_ms": (mean_ms(procs, [
                "router.insert_fanout", "router.remove_fanout"]), "ms"),
            "router.ladder_restarts": (
                float(self.end_stats.get("ladder_restarts", 0)), "count"),
        }

    def client_layers(self) -> dict:
        out = {}
        groups = {"query": ["query"], "topk": ["topk"],
                  "write": list(WRITE_KINDS)}
        for direction in ("request", "response"):
            totals = getattr(self, "%s_bytes" % direction, {})
            for group, kinds in groups.items():
                n = sum(len(self.ledger.latencies.get(k, ()))
                        for k in kinds)
                total = sum(totals.get(k, 0) for k in kinds)
                out["client.%s_bytes.%s" % (direction, group)] = (
                    total / n if n else 0.0, "bytes")
        return out

    # Spans by role; the in-process workload overrides these.
    servers_hold_index = True
    values_payloads = False

    def index_spans(self) -> list:
        return []

    def front_spans(self):
        return None

    def node_spans(self) -> list:
        return []

    def router_spans(self):
        return None

    def count_phase(self) -> None:
        """Extra traced-only measurements (after the checks)."""


# --------------------------------------------------------------------- #
# inproc_query
# --------------------------------------------------------------------- #


class InProcQuery(Workload):
    """The library path: hash, build, save and mmap-load as ``cli build``
    and ``cli serve`` do, then batched, single and top-k queries."""

    name = "inproc_query"
    servers_hold_index = False
    BATCH = 64
    SINGLES = 16
    TOP_K_OPS = 4
    WRITES = 2048
    WRITE_GROUP = 16

    def setup(self) -> None:
        import repro.persistence

        self.step("hash", self.hash_corpus)
        built = self.step("build", lambda: self.build(self.inputs.corpus))
        path = self.step("save", lambda: self.save(built, "index.lshe"))
        self.index_bytes = path.stat().st_size
        del built
        self.index = self.step("load", lambda: repro.persistence
                               .load_ensemble(path, mmap=True))
        self.step("warmup", self.warm_up)

    def warm_up(self) -> None:
        super().warm_up()
        t0 = time.perf_counter()
        for key in self.inputs.warmup[:self.SINGLES * 8]:
            self.threshold_one(key)
        for key in self.inputs.warmup[:self.TOP_K_OPS * 8]:
            self.top_k_one(key)
        self.warmup_s += time.perf_counter() - t0

    def batch_of(self, keys):
        from repro.minhash import SignatureBatch

        matrix = np.vstack([self.sig[key] for key in keys])
        return SignatureBatch(list(keys), matrix, seed=self.factory.seed)

    def round_ops(self, round_no: int):
        keys = self.timed.take("batch", self.BATCH)
        ops = [("batch", keys, (self.batch_of(keys),
                                [self.sizes[k] for k in keys]))]
        ops += [("query", key, None)
                for key in self.timed.take("query", self.SINGLES)]
        ops += [("topk", key, None)
                for key in self.timed.take("topk", self.TOP_K_OPS)]
        return ops

    def after_rounds(self) -> None:
        """A fixed set of writes after the query rounds, so the rounds
        measure the read path alone.  An in-process write only stages
        the entry (a few microseconds, near the clock's noise), so
        writes are timed in groups of WRITE_GROUP and each write is
        charged its group's mean."""
        for _ in range(self.WRITES // self.WRITE_GROUP):
            self.timed_group([self.plan_insert()
                              for _ in range(self.WRITE_GROUP)])
            self.timed_group([self.plan_remove(inserted=j % 2 == 1)
                              for j in range(self.WRITE_GROUP)])

    def timed_group(self, ops) -> None:
        outcomes = []
        t0 = time.perf_counter()
        for op in ops:
            try:
                outcomes.append((self.execute(op), None))
            except Exception as exc:  # noqa: BLE001 — counted as failed
                outcomes.append((None, "%s: %s" % (type(exc).__name__,
                                                   exc)))
        end = time.perf_counter()
        each = (end - t0) / len(ops)
        for op, (result, error) in zip(ops, outcomes):
            self.absorb(op, None if error else each, error, result, end)

    def execute(self, op, client=None):
        kind, key, arg = op
        index = self.index
        if kind == "batch":
            batch, sizes = arg
            return index.query_batch(batch, sizes=sizes)
        if kind == "query":
            return index.query(self.leans[key], size=self.sizes[key])
        if kind == "topk":
            return index.query_top_k(self.leans[key], TOP_K,
                                     size=self.sizes[key])
        if kind == "insert":
            index.insert(key, self.leans[key], self.sizes[key])
            return True
        if kind == "remove":
            index.remove(key)
            return True
        raise ValueError(kind)

    def ops_per_s(self, probe, seconds) -> float:
        """Batched threshold queries (rows) per second of batch time,
        the median over slices of consecutive batches."""
        return sliced_median(self.ledger.adjusted("batch", probe),
                             lambda chunk: len(chunk) * self.BATCH
                             / float(np.sum(chunk)))

    # ``chunk`` only matters for requests; one call answers all keys here.
    def threshold_many(self, keys, chunk=None) -> list:
        if not keys:
            return []
        return self.index.query_batch(self.batch_of(keys),
                                      sizes=[self.sizes[k] for k in keys])

    def top_k_many(self, keys, chunk=None) -> list:
        if not keys:
            return []
        return self.index.query_top_k_batch(
            self.batch_of(keys), TOP_K, sizes=[self.sizes[k] for k in keys])

    def threshold_one(self, key) -> set:
        return self.index.query(self.leans[key], size=self.sizes[key])

    def top_k_one(self, key) -> list:
        return self.index.query_top_k(self.leans[key], TOP_K,
                                      size=self.sizes[key])

    def key_count(self) -> int:
        return len(self.index)

    def collect_stats(self) -> dict:
        drift = self.index.drift_stats()
        return {"delta": drift["delta_keys"],
                "tombstones": drift["tombstones"]}

    def measure_rss(self) -> float:
        return peak_rss_mb(os.getpid())

    def index_spans(self) -> list:
        return [self.bench_spans]


# --------------------------------------------------------------------- #
# Served workloads
# --------------------------------------------------------------------- #


class Served(Workload):
    """Common ground of the two HTTP workloads."""

    CONNECTIONS = 1
    MIX: dict = {}
    PREFILL = 32

    def start(self, name: str, args: list) -> Server:
        trace_path = (self.workdir / ("%s.spans.json" % name)
                      if self.trace else None)
        server = Server(name, args, self.workdir, trace_path)
        self.servers.append(server)
        return server

    def open_clients(self) -> None:
        self.clients = [Client(self.front.port)
                        for _ in range(self.CONNECTIONS)]

    def round_ops(self, round_no: int):
        """The seeded mix, with request bodies encoded before timing: a
        values payload runs to 200 kB of JSON, and encoding it in one
        connection's thread would hold the client's GIL while the other
        connection's reply waits."""
        ops = self.mixed_round(round_no, self.MIX)
        if ops is None:
            return None
        return [(kind, key, encode(self.request(kind, key)))
                for kind, key, _ in ops]

    def request(self, kind: str, key) -> dict:
        if kind == "query":
            return {"queries": [self.query_item(key)]}
        if kind == "topk":
            return {"queries": [self.query_item(key)], "k": TOP_K}
        if kind == "insert":
            return {"entries": [self.insert_item(key)]}
        if kind == "remove":
            return {"keys": [key]}
        raise ValueError(kind)

    def run_round(self, ops) -> list:
        """With several connections, queries go out on all of them at
        once, and each write waits for the queries before it to return
        and is sent alone: a write takes about a millisecond, and sent
        beside a query it would measure mostly the query it queues
        behind in the server, a share that swings with the box's load."""
        if self.CONNECTIONS == 1:
            client = self.clients[0]
            return [self.timed_call(op, client) for op in ops]
        out: list = []
        reads: list = []
        for op in ops:
            if op[0] in WRITE_KINDS:
                out += self.run_concurrently(reads)
                reads = []
                out.append(self.timed_call(op, self.clients[0]))
            else:
                reads.append(op)
        return out + self.run_concurrently(reads)

    def run_concurrently(self, ops) -> list:
        """``ops`` dealt over the connections, each a closed loop."""
        lanes = [ops[i::self.CONNECTIONS] for i in range(self.CONNECTIONS)]
        outcomes: list = [None] * self.CONNECTIONS

        def lane(i: int) -> None:
            outcomes[i] = [self.timed_call(op, self.clients[i])
                           for op in lanes[i]]

        threads = [threading.Thread(target=lane, args=(i,))
                   for i in range(self.CONNECTIONS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return [outcome for lane_out in outcomes for outcome in lane_out]

    def prefill(self) -> None:
        """PREFILL inserts and PREFILL removes of corpus keys, in two
        untimed requests after set-up, so the delta tier holds about
        PREFILL keys and as many tombstones all through the timed phase
        (each round removes as many inserts as it adds)."""
        keys = [self.plan_insert()[1] for _ in range(self.PREFILL)]
        data = self.admin.call("POST", "/insert", {
            "entries": [self.insert_item(key) for key in keys]})
        if data["applied"] != [True] * len(keys):
            raise RuntimeError("prefill not applied: %s" % data["applied"])
        for key in keys:
            self.live[key] = self.source[key]
            self.inserted.append(key)
        keys = [self.plan_remove(inserted=False)[1]
                for _ in range(self.PREFILL)]
        data = self.admin.call("POST", "/remove", {"keys": keys})
        if data["removed"] != [True] * len(keys):
            raise RuntimeError("prefill not removed: %s" % data["removed"])
        for key in keys:
            del self.live[key]
            self.removed.append(key)

    def query_item(self, key) -> dict:
        raise NotImplementedError

    def insert_item(self, key) -> dict:
        raise NotImplementedError

    PATHS = {"query": "/query", "topk": "/query_top_k",
             "insert": "/insert", "remove": "/remove"}

    def execute(self, op, client):
        kind, _, body = op
        data = client.call("POST", self.PATHS[kind], body, kind)
        if kind == "query":
            return set(data["results"][0])
        if kind == "topk":
            return [(cand, score) for cand, score in data["results"][0]]
        if kind == "insert":
            return data["applied"] == [True]
        return data["removed"] == [True]

    def threshold_many(self, keys, chunk: int = CHECK_CHUNK) -> list:
        out = []
        for i in range(0, len(keys), chunk):
            data = self.admin.call("POST", "/query", {"queries": [
                self.query_item(key) for key in keys[i:i + chunk]]})
            out.extend(set(found) for found in data["results"])
        return out

    def top_k_many(self, keys, chunk: int = CHECK_CHUNK) -> list:
        out = []
        for i in range(0, len(keys), chunk):
            data = self.admin.call("POST", "/query_top_k", {"queries": [
                self.query_item(key) for key in keys[i:i + chunk]],
                "k": TOP_K})
            out.extend([(cand, score) for cand, score in ranked]
                       for ranked in data["results"])
        return out

    def threshold_one(self, key) -> set:
        return self.threshold_many([key])[0]

    def top_k_one(self, key) -> list:
        return self.top_k_many([key])[0]

    def key_count(self) -> int:
        return int(self.admin.call("GET", "/healthz")["keys"])

    def timed_phase(self) -> None:
        self.prefill()
        self.open_clients()
        try:
            super().timed_phase()
        finally:
            self.request_bytes = collections.Counter()
            self.response_bytes = collections.Counter()
            for client in self.clients:
                self.request_bytes.update(client.request_bytes)
                self.response_bytes.update(client.response_bytes)
                client.close()

    def stop_servers(self) -> None:
        admin = getattr(self, "admin", None)
        if admin is not None:
            admin.close()
            self.admin = None
        super().stop_servers()

    def measure_rss(self) -> float:
        return sum(server.peak_rss_mb() for server in self.servers)

    def spans_of(self, server):
        """The spans a traced server wrote at exit (read once)."""
        if server.name not in self.server_spans:
            self.server_spans[server.name] = load_spans(server.trace_path)
        return self.server_spans[server.name]


class NodeMixed(Served):
    """One ``cli serve`` process; two closed-loop keep-alive connections
    send raw-value payloads: ~70 % threshold, ~20 % top-k, ~10 % writes."""

    name = "node_mixed"
    CONNECTIONS = 2
    MIX = {"query": 28, "topk": 8, "insert": 2, "remove": 2}
    values_payloads = True

    def setup(self) -> None:
        self.step("hash", self.hash_corpus)
        built = self.step("build", lambda: self.build(self.inputs.corpus))
        path = self.step("save", lambda: self.save(built, "index.lshe"))
        self.index_bytes = path.stat().st_size
        del built

        def start():
            server = self.start("serve", ["serve", str(path), "--port", "0"])
            server.wait_ready()
            return server

        self.front = self.step("start", start)
        self.admin = Client(self.front.port)
        self.step("warmup", self.warm_up)

    def query_item(self, key) -> dict:
        return {"values": list(self.values_of(key))}

    def insert_item(self, key) -> dict:
        return {"key": key, **self.query_item(key)}

    def collect_stats(self) -> dict:
        stats = self.admin.call("GET", "/stats")
        return {"delta": stats["tiers"]["delta"],
                "tombstones": stats["tiers"]["tombstones"],
                "cache_hits": stats["cache"]["hits"]}

    def index_spans(self) -> list:
        return [self.spans_of(self.front)]

    def front_spans(self):
        return self.spans_of(self.front)


class ClusterMixed(Served):
    """``cli router`` over 2 shards x 2 ``cli shardnode`` replicas
    (hash-placed split, majority write quorum); one closed-loop
    connection sends signature payloads, top-k heavy, with writes."""

    name = "cluster_mixed"
    CONNECTIONS = 1
    MIX = {"query": 10, "topk": 8, "insert": 3, "remove": 3}
    SHARDS = ("shard_000", "shard_001")
    REPLICAS = 2

    def setup(self) -> None:
        from repro.serve.placement import owning_shard

        self.step("hash", self.hash_corpus)

        def build():
            split = {shard: [] for shard in self.SHARDS}
            for key in self.inputs.corpus:
                split[owning_shard(key, self.SHARDS)].append(key)
            return {shard: self.build(keys) for shard, keys in split.items()}

        built = self.step("build", build)
        paths = self.step("save", lambda: {
            shard: self.save(index, "%s.lshe" % shard)
            for shard, index in built.items()})
        self.index_bytes = sum(p.stat().st_size for p in paths.values())
        del built

        def start_nodes():
            nodes = {}
            for s, shard in enumerate(self.SHARDS):
                for r in range(self.REPLICAS):
                    name = "n%d" % (s * self.REPLICAS + r)
                    nodes[name] = (shard, self.start(name, [
                        "shardnode", str(paths[shard]), "--shard", shard,
                        "--port", "0"]))
            for _, server in nodes.values():
                server.wait_ready()
            return nodes

        nodes = self.step("start_nodes", start_nodes)
        self.nodes = [server for _, server in nodes.values()]

        def start_router():
            manifest = {
                "nodes": {name: "127.0.0.1:%d" % server.port
                          for name, (_, server) in nodes.items()},
                "shards": {shard: [name for name, (owner, _)
                                   in nodes.items() if owner == shard]
                           for shard in self.SHARDS},
                "replication": self.REPLICAS,
            }
            path = self.workdir / "cluster.json"
            path.write_text(json.dumps(manifest), encoding="utf-8")
            server = self.start("router", ["router", str(path), "--port",
                                           "0"])
            server.wait_ready()
            return server

        self.front = self.step("start_router", start_router)
        self.admin = Client(self.front.port)
        self.step("warmup", self.warm_up)

    def query_item(self, key) -> dict:
        return {"signature": self.sig[key].tolist(),
                "seed": self.factory.seed, "size": self.sizes[key]}

    def insert_item(self, key) -> dict:
        return {"key": key, **self.query_item(key)}

    def collect_stats(self) -> dict:
        router = self.admin.call("GET", "/stats")
        out = {"delta": 0, "tombstones": 0,
               "cache_hits": router["cache"]["hits"],
               "ladder_restarts": router["router"]["ladder_restarts"]}
        for i, node in enumerate(self.nodes):
            client = Client(node.port)
            try:
                stats = client.call("GET", "/stats")
            finally:
                client.close()
            out["cache_hits"] += stats["cache"]["hits"]
            if i % self.REPLICAS == 0:  # one replica per shard
                out["delta"] += stats["tiers"]["delta"]
                out["tombstones"] += stats["tiers"]["tombstones"]
        return out

    def count_phase(self) -> None:
        """Router fan-outs per threshold and per top-k query, read from
        the router's ``/stats`` around single-kind request runs."""
        def fanouts() -> int:
            return self.admin.call("GET", "/stats")["router"]["fanouts"]

        keys = self.inputs.verify[:20]
        self.fanout_counts = {}
        for kind, call in (("query", self.threshold_one),
                           ("topk", self.top_k_one)):
            # A /stats read refreshes the router, which itself fans out;
            # measure that and take it off.
            before = fanouts()
            reading = fanouts() - before
            for key in keys:
                call(key)
            spent = fanouts() - before - 2 * reading
            self.fanout_counts[kind] = spent / len(keys)

    def index_spans(self) -> list:
        return [self.spans_of(node) for node in self.nodes]

    def node_spans(self) -> list:
        return self.index_spans()

    def front_spans(self):
        return self.spans_of(self.front)

    def router_spans(self):
        return self.spans_of(self.front)


WORKLOADS = {cls.name: cls for cls in (InProcQuery, NodeMixed, ClusterMixed)}

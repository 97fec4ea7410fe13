"""The router tier: one query surface over many shard nodes.

:class:`RouterIndex` composes one :class:`~repro.serve.executor
.ShardExecutor` per shard (usually
:class:`~repro.serve.remote.RemoteShardExecutor` — keep-alive HTTP with
replica failover) behind the same index-shaped query surface the
serving engine already understands, so the whole existing HTTP stack
(coalescer, admission control, stats) fronts a cluster unchanged.
Placement comes from a :class:`~repro.serve.placement.PlacementMap`;
swapping maps (:meth:`RouterIndex.set_placement`) is how rebalance and
decommission happen — in-flight requests drain on the old replica
clients, new requests see the new topology, nothing is dropped.

Query semantics (mirroring :class:`~repro.parallel.sharded
.ShardedEnsemble`, which is what the parity battery compares against):

* ``query`` / ``query_batch`` — one fan-out round, per-row union over
  shards.  Each shard answers at a single epoch (the transport enforces
  it chunk-to-chunk) and the response is tagged with the **minimum**
  epoch observed across shards — the staleness floor.
* ``query_top_k[_batch]`` — the *global* threshold ladder: every rung
  is one cluster-wide fan-out of scored threshold queries
  (``"scored": true`` on ``/query``), and candidate recovery and the
  stop rule see the union over shards.  Each shard scores its own hits
  (a candidate's containment estimate depends only on the query and
  that candidate), so the router merges ``{key: score}`` across rungs
  and shards and keeps the best ``k`` under
  :func:`~repro.core.estimation.rank_order` — the flat index's
  ordering and tie-breaks, bit for bit, with no signature shipped.

**Epoch consistency.**  A ladder is multi-round, so a shard mutating
mid-ladder could leak a mix of pre- and post-mutation candidates into
one response.  The router tracks the epoch each shard reports per
round; on a mismatch the whole ladder restarts from scratch (bounded by
``max_ladder_restarts``), and when the budget is exhausted it raises
:class:`~repro.serve.executor.EpochConsistencyError` (HTTP 503 — an
immediate retry starts a fresh ladder).  Within one fan-out round,
shards are *mutually* independent: each shard's answer is internally
consistent, and the response's ``mutation_epoch`` is the min.

**Failure semantics.**  A shard whose every replica fails raises
:class:`~repro.serve.executor.ShardUnavailableError` (HTTP 503) by
default.  With ``partial=True`` the router instead answers from the
shards it can reach and marks the response ``degraded`` with the
unreachable shard names — explicitly trading completeness for
availability.  The degraded set is maintained per fan-out (a shard
leaves it as soon as it answers again); a response assembled
concurrently with a recovery may briefly over- or under-report it,
which is acceptable for a diagnostic flag.  Degraded shards are
excluded from the response's ``mutation_epoch`` floor — a shard nobody
heard from cannot drag the label of an answer it contributed nothing
to — and surfaced in the ``degraded`` list instead.

**The write path.**  Mutations route by key: :func:`~repro.serve
.placement.owning_shard` picks the one shard a key belongs to (the
same deterministic hash placement lookups use), and the write fans out
to **all** of that shard's replicas, acking only once ``write_quorum``
of them applied it (:class:`~repro.serve.executor.WriteQuorumError` /
HTTP 503 otherwise).  The acked response carries the shard's post-write
mutation epoch — the consistency token readers observe monotonically.
Replicas a write missed (crashed mid-write, below quorum) are
reconciled by :meth:`RouterIndex.repair`: an epoch/key-count compare
across each shard's replicas, then delta shipping (snapshot diff →
``/remove`` + ``/insert``) from the freshest replica to the drifted
ones.  Removals route owner-first, then broadcast-locate: corpora
indexed before hash routing existed may hold keys off their owning
shard.
"""

from __future__ import annotations

import tempfile
import threading
from collections.abc import Mapping, Sequence
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from repro.core.ensemble import (
    _as_batch,
    _as_lean,
    _ladder_candidates_batch,
    _validate_topk_args,
)
from repro.core.estimation import rank_order
from repro.minhash.batch import SignatureBatch
from repro.serve.engine import ServingEngine
from repro.serve.executor import (
    EpochConsistencyError,
    InProcessExecutor,
    ShardExecutor,
    ShardUnavailableError,
)
from repro.serve.placement import ClusterManifest, PlacementMap
from repro.serve.placement import owning_shard as _owning_shard
from repro.serve.remote import (
    NodeFailure,
    RemoteProtocolError,
    RemoteShardExecutor,
)
from repro.serve.server import QueryServer

__all__ = ["RouterIndex", "RouterEngine", "RouterServer"]


class _LadderRestart(Exception):
    """Internal: a shard changed epoch mid-ladder; retry the ladder."""

    def __init__(self, shard: str, before: int, after: int) -> None:
        super().__init__(shard, before, after)
        self.shard = shard
        self.before = before
        self.after = after


class RouterIndex:
    """Index-shaped facade over per-shard executors; module docstring
    has the semantics.  Build one with :meth:`from_manifest` (remote
    cluster) or :meth:`from_executors` (tests, in-process shards)."""

    def __init__(self, executors: Mapping[str, ShardExecutor], *,
                 placement: PlacementMap | None = None,
                 partial: bool = False,
                 max_ladder_restarts: int = 2,
                 write_quorum: int | None = None) -> None:
        if not executors:
            raise ValueError("a router needs at least one shard")
        self.shard_names = list(executors)
        self._executors = dict(executors)
        self.placement = placement
        self.partial = bool(partial)
        self.max_ladder_restarts = int(max_ladder_restarts)
        # None = per-shard majority (the executor's default); an int is
        # clamped to each shard's replica count by the executor.
        self.write_quorum = write_quorum
        self._lock = threading.Lock()
        self._degraded: set[str] = set()
        self._counters = {"fanouts": 0, "ladder_restarts": 0,
                          "partial_responses": 0, "writes": 0,
                          "repair_sweeps": 0}
        # Per-shard (address, epoch, keys) vectors recorded after each
        # sweep: replicas legitimately stay epoch-skewed after a repair
        # (shipping bumps the target further), so "unchanged since the
        # sweep that verified convergence" — not "equal epochs" — is
        # what lets the next sweep skip the snapshot diff.
        self._repair_baselines: dict[str, tuple] = {}
        # Two concurrent fan-outs (coalescer dispatch + a direct single
        # query) must not starve each other's shard slots.
        self._fanout_pool = ThreadPoolExecutor(
            max_workers=max(4, 2 * len(self._executors)),
            thread_name_prefix="lshensemble-router")
        # Cluster facts, filled by connect(): the shards must agree on
        # these or cross-shard results are not comparable at all.
        self.num_perm = 0
        self._seed = 1
        self._kernel = "?"
        self._bbit: int | None = None
        self._generation = 0
        self._keys: dict[str, int] = {}
        self.connect()

    # ------------------------- construction ------------------------- #

    @classmethod
    def from_manifest(cls, manifest: ClusterManifest, *,
                      timeout: float = 10.0, partial: bool = False,
                      max_ladder_restarts: int = 2,
                      write_quorum: int | None = None) -> "RouterIndex":
        return cls.from_placement(manifest.shards, manifest.placement,
                                  timeout=timeout, partial=partial,
                                  max_ladder_restarts=max_ladder_restarts,
                                  write_quorum=write_quorum)

    @classmethod
    def from_placement(cls, shards: Sequence[str],
                       placement: PlacementMap, *,
                       timeout: float = 10.0, partial: bool = False,
                       max_ladder_restarts: int = 2,
                       write_quorum: int | None = None) -> "RouterIndex":
        executors = {
            shard: RemoteShardExecutor(placement.endpoints_for(shard),
                                       shard=shard, timeout=timeout)
            for shard in shards}
        return cls(executors, placement=placement, partial=partial,
                   max_ladder_restarts=max_ladder_restarts,
                   write_quorum=write_quorum)

    @classmethod
    def from_executors(cls, executors: Mapping[str, ShardExecutor],
                       **kwargs) -> "RouterIndex":
        return cls(executors, **kwargs)

    # ------------------- cluster facts / lifecycle ------------------ #

    @staticmethod
    def _shard_info(executor: ShardExecutor) -> dict:
        """One shard's self-description (its ``/healthz`` payload, or
        the equivalent computed locally for in-process executors)."""
        if hasattr(executor, "healthz"):
            return executor.healthz()
        info = ServingEngine(executor.index).describe()
        info["signature_seed"] = ServingEngine(
            executor.index).signature_seed()
        return info

    def connect(self) -> None:
        """Fetch every shard's description, verify the cluster is
        coherent, and prime the per-shard epoch observations.

        ``num_perm`` and the signature seed **must** agree across
        shards — containment estimates between differently-hashed
        signatures are meaningless, so a mismatch is a deployment bug
        worth failing loudly on, not routing around.  A node that
        reports a shard label different from the one placement routed
        to it is serving the wrong data — same treatment.
        """
        infos = self._fanout(
            lambda ex: (self._shard_info(ex), ex.mutation_epoch))
        first_name = next(iter(infos))
        first = infos[first_name]
        for name, info in infos.items():
            label = info.get("shard")
            if label is not None and label != name:
                raise ValueError(
                    "node for shard %r identifies as shard %r — "
                    "placement and deployment disagree" % (name, label))
            for field in ("num_perm", "signature_seed"):
                if info.get(field) != first.get(field):
                    raise ValueError(
                        "shards %r and %r disagree on %s (%r vs %r); "
                        "their results are not comparable"
                        % (first_name, name, field, first.get(field),
                           info.get(field)))
        self.num_perm = int(first["num_perm"])
        self._seed = int(first.get("signature_seed", 1))
        self._kernel = str(first.get("kernel", "?"))
        self._bbit = first.get("bbit")
        with self._lock:
            self._keys = {name: int(info.get("keys", 0))
                          for name, info in infos.items()}
            self._generation = max(int(info.get("generation", 0))
                                   for info in infos.values())

    def refresh(self) -> dict:
        """Re-poll the shards (key counts, generation, epochs) and
        return the per-shard descriptions."""
        infos = self._fanout(
            lambda ex: (self._shard_info(ex), ex.mutation_epoch))
        with self._lock:
            for name, info in infos.items():
                self._keys[name] = int(info.get("keys", 0))
            self._generation = max(
                [self._generation]
                + [int(info.get("generation", 0))
                   for info in infos.values()])
        return infos

    @property
    def signature_seed(self) -> int:
        return self._seed

    @property
    def kernel_name(self) -> str:
        return self._kernel

    @property
    def bbit(self) -> int | None:
        return self._bbit

    @property
    def generation(self) -> int:
        with self._lock:
            return self._generation

    @property
    def mutation_epoch(self) -> int:
        """The staleness floor: minimum last-observed epoch across the
        shards that are actually answering (epochs are per-shard
        independent counters).

        Degraded shards are excluded: in partial mode their answers are
        not in the response at all, so their (frozen, possibly zero)
        last-observed epoch must not drag the floor of answers they
        contributed nothing to — the ``degraded`` marker carries that
        information instead.  If *every* shard is degraded there is no
        reachable floor; fall back to the full set rather than raise on
        a diagnostic read.
        """
        with self._lock:
            degraded = set(self._degraded)
        live = [ex.mutation_epoch
                for name, ex in self._executors.items()
                if name not in degraded]
        if not live:
            live = [ex.mutation_epoch
                    for ex in self._executors.values()]
        return min(live)

    def __len__(self) -> int:
        with self._lock:
            return sum(self._keys.values())

    def degraded_shards(self) -> list[str]:
        with self._lock:
            return sorted(self._degraded)

    def executors(self) -> dict[str, ShardExecutor]:
        return dict(self._executors)

    def stats(self) -> dict:
        with self._lock:
            counters = dict(self._counters)
            degraded = sorted(self._degraded)
            keys = dict(self._keys)
        shard_stats = {name: ex.stats()
                       for name, ex in self._executors.items()}
        requests = sum(s.get("requests", 0)
                       for s in shard_stats.values())
        retries = sum(s.get("retries", 0) for s in shard_stats.values())
        return {
            "shards": shard_stats,
            "keys_per_shard": keys,
            "mutation_epochs": {name: ex.mutation_epoch
                                for name, ex
                                in self._executors.items()},
            "degraded": degraded,
            "partial_mode": self.partial,
            "write_quorum": self.write_quorum,
            "placement": (self.placement.describe()
                          if self.placement is not None else None),
            "shard_requests": requests,
            "shard_retries": retries,
            "retry_rate": (retries / requests) if requests else 0.0,
            **counters,
        }

    # --------------------- topology transitions --------------------- #

    def set_placement(self, placement: PlacementMap) -> list[str]:
        """Atomically adopt a new placement map; returns the shards
        whose replica sets changed.  Requests already in flight finish
        on the replicas they started on (the executors keep the old
        clients alive until those calls return), so a rolling
        rebalance/decommission loses no in-flight queries."""
        changed = []
        for shard, executor in self._executors.items():
            if not isinstance(executor, RemoteShardExecutor):
                raise TypeError(
                    "set_placement needs remote executors; shard %r is "
                    "%s" % (shard, type(executor).__name__))
            endpoints = placement.endpoints_for(shard)
            current = ["%s:%d" % ep for ep in endpoints]
            if current != executor.endpoints:
                executor.replace_clients(endpoints)
                changed.append(shard)
        self.placement = placement
        return changed

    def decommission(self, node: str) -> list[str]:
        """Drain ``node`` out of the topology without downtime; returns
        the shards that moved off it.  The node itself keeps running
        until the operator stops it — the router just stops sending."""
        if self.placement is None:
            raise RuntimeError("this router has no placement map")
        return self.set_placement(self.placement.without_node(node))

    def add_node(self, name: str, address: str) -> list[str]:
        """Admit a (bootstrapped) node; returns the shards now
        (partly) served by it."""
        if self.placement is None:
            raise RuntimeError("this router has no placement map")
        return self.set_placement(self.placement.with_node(name, address))

    def close(self) -> None:
        self._fanout_pool.shutdown(wait=True)
        for executor in self._executors.values():
            executor.close()

    def __enter__(self) -> "RouterIndex":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # --------------------------- fan-out ---------------------------- #

    def _fanout(self, op, tracker: dict | None = None) -> dict:
        """Run ``op(executor) -> (value, epoch)`` on every shard in
        parallel; returns ``{shard: value}`` for the shards that
        answered.

        ``tracker`` carries the per-shard epoch across the rounds of
        one ladder: a shard answering at a different epoch than it did
        earlier in the same ladder raises :class:`_LadderRestart`.
        Unavailable shards raise unless ``partial`` mode is on.
        """
        with self._lock:
            self._counters["fanouts"] += 1
        futures = {name: self._fanout_pool.submit(op, ex)
                   for name, ex in self._executors.items()}
        out: dict = {}
        failures: list[tuple[str, ShardUnavailableError]] = []
        mismatch: _LadderRestart | None = None
        for name, future in futures.items():
            try:
                value, epoch = future.result()
            except ShardUnavailableError as exc:
                failures.append((name, exc))
                continue
            out[name] = value
            if tracker is not None:
                previous = tracker.setdefault(name, epoch)
                if previous != epoch and mismatch is None:
                    # Note it but keep draining futures, so the whole
                    # round's epochs/counters are recorded coherently.
                    mismatch = _LadderRestart(name, previous, epoch)
        with self._lock:
            for name in out:
                self._degraded.discard(name)
            for name, _ in failures:
                self._degraded.add(name)
            if failures and out and self.partial:
                self._counters["partial_responses"] += 1
        if mismatch is not None:
            raise mismatch
        if failures and (not self.partial or not out):
            detail = "; ".join("%s: %s" % (name, exc)
                               for name, exc in failures)
            raise ShardUnavailableError(
                "%d/%d shard(s) unavailable: %s"
                % (len(failures), len(self._executors), detail))
        return out

    @staticmethod
    def _merge_rows(per_shard: dict, n: int) -> list[set]:
        merged: list[set] = [set() for _ in range(n)]
        for shard_rows in per_shard.values():
            for j, hits in enumerate(shard_rows):
                merged[j] |= hits
        return merged

    def _scored_round(self, sb: SignatureBatch, sizes: list[int],
                      threshold, tracker: dict | None) -> list[dict]:
        """One fan-out of scored threshold queries: per row, the
        ``{key: score}`` union of the shards' rankings."""
        per_shard = self._fanout(
            lambda ex: ex.query_batch_scored_with_epoch(
                sb, sizes=sizes, threshold=threshold),
            tracker=tracker)
        merged: list[dict] = [{} for _ in range(len(sb))]
        for shard_rows in per_shard.values():
            for j, scored in enumerate(shard_rows):
                merged[j].update(scored)
        return merged

    def _normalise(self, batch, sizes):
        sb = _as_batch(batch)
        if sizes is None:
            sizes = [max(1, int(c)) for c in sb.counts()]
        elif len(sizes) != len(sb):
            raise ValueError("got %d sizes for %d signatures"
                             % (len(sizes), len(sb)))
        return sb, [int(s) for s in sizes]

    # ------------------------- query paths -------------------------- #

    def query_batch(self, batch, sizes: Sequence[int] | None = None,
                    threshold: float | None = None) -> list[set]:
        sb, sizes = self._normalise(batch, sizes)
        if len(sb) == 0:
            return []
        per_shard = self._fanout(
            lambda ex: ex.query_batch_with_epoch(
                sb, sizes=sizes, threshold=threshold))
        return self._merge_rows(per_shard, len(sb))

    def query(self, signature, size: int | None = None,
              threshold: float | None = None) -> set:
        lean = _as_lean(signature)
        q = int(size) if size is not None else max(1, lean.count())
        return self.query_batch([lean], sizes=[q],
                                threshold=threshold)[0]

    def query_batch_scored(self, batch, sizes: Sequence[int] | None = None,
                           threshold: float | None = None) -> list[list]:
        """``query_batch`` with every hit ranked by its containment
        score (the ``"scored": true`` form of ``/query``)."""
        sb, sizes = self._normalise(batch, sizes)
        if len(sb) == 0:
            return []
        return [rank_order(row.items()) for row in
                self._scored_round(sb, sizes, threshold, tracker=None)]

    def signatures_for(self, keys) -> tuple[dict, dict]:
        """Stored ``(signatures, sizes)`` for ``keys``, unioned over the
        shards that hold them; absent keys are left out."""
        # Deterministic wire order (diagnostics); shards return only
        # the keys they hold.
        keys = sorted(keys, key=str)
        if not keys:
            return {}, {}
        per_shard = self._fanout(
            lambda ex: (ex.signatures_for(keys), ex.mutation_epoch))
        pool: dict = {}
        sizes: dict = {}
        for shard_pool, shard_sizes in per_shard.values():
            pool.update(shard_pool)
            sizes.update(shard_sizes)
        return pool, sizes

    def query_top_k(self, signature, k: int, size: int | None = None,
                    min_threshold: float = 0.05) -> list:
        lean = _as_lean(signature)
        q = int(size) if size is not None else max(1, lean.count())
        return self.query_top_k_batch([lean], k, sizes=[q],
                                      min_threshold=min_threshold)[0]

    def query_top_k_batch(self, batch, k: int,
                          sizes: Sequence[int] | None = None,
                          min_threshold: float = 0.05) -> list[list]:
        _validate_topk_args(k, min_threshold)
        sb, qs = self._normalise(batch, sizes)
        if len(sb) == 0:
            return []
        restart: _LadderRestart | None = None
        for _ in range(self.max_ladder_restarts + 1):
            try:
                return self._top_k_batch_once(sb, k, qs, min_threshold)
            except _LadderRestart as exc:
                restart = exc
                with self._lock:
                    self._counters["ladder_restarts"] += 1
        raise EpochConsistencyError(
            "top-k ladder restarted %d times without observing a "
            "stable cluster (last offender: shard %s)"
            % (self.max_ladder_restarts, restart.shard))

    def _top_k_batch_once(self, sb, k: int, qs: list[int],
                          min_threshold: float) -> list[list]:
        """One ladder walk: each rung is one scored fan-out over the
        rows still short of ``k`` candidates; every shard's epoch must
        hold still across the rungs (``tracker``)."""
        tracker: dict = {}
        scores: list[dict] = [{} for _ in range(len(sb))]

        def rung(rows, threshold):
            sub = SignatureBatch(None, sb.take(rows), seed=sb.seed)
            found = self._scored_round(sub, [qs[j] for j in rows],
                                       threshold, tracker)
            for j, scored in zip(rows, found):
                scores[j].update(scored)
            return [set(scored) for scored in found]

        _ladder_candidates_batch(rung, len(sb), k, min_threshold)
        return [rank_order(row.items())[:k] for row in scores]

    # -------------------------- write path -------------------------- #

    def owning_shard(self, key) -> str:
        """The shard ``key``'s mutations route to (deterministic hash
        placement; see :func:`repro.serve.placement.owning_shard`)."""
        return _owning_shard(key, self.shard_names)

    def insert_entries(self, entries) -> tuple[list[bool], int]:
        """Route ``(key, signature, size)`` inserts to their owning
        shards, each write fanning to all replicas under the configured
        quorum.  Returns per-entry applied flags (``False`` = already
        present, the idempotent ack) and the highest post-write epoch —
        the consistency token the caller hands back to its client.
        """
        entries = [(key, _as_lean(signature), int(size))
                   for key, signature, size in entries]
        groups: dict[str, list[int]] = {}
        for j, (key, _, _) in enumerate(entries):
            groups.setdefault(self.owning_shard(key), []).append(j)
        applied = [False] * len(entries)
        epochs: list[int] = []
        for shard, rows in sorted(groups.items()):
            flags, epoch = self._executors[shard].insert_entries(
                [entries[j] for j in rows], quorum=self.write_quorum)
            for j, flag in zip(rows, flags):
                applied[j] = bool(flag)
            epochs.append(int(epoch))
            fresh = sum(1 for flag in flags if flag)
            if fresh:
                with self._lock:
                    self._keys[shard] = self._keys.get(shard, 0) + fresh
        with self._lock:
            self._counters["writes"] += 1
        return applied, max(epochs)

    def insert(self, key, signature, size: int) -> int:
        """Single-key insert mirroring the flat index surface (raises
        ``ValueError`` on a duplicate); returns the new epoch."""
        applied, epoch = self.insert_entries([(key, signature, size)])
        if not applied[0]:
            raise ValueError("key %r is already in the index" % (key,))
        return epoch

    def remove_keys(self, keys) -> tuple[list[bool], int]:
        """Remove keys: owning shard first, then a broadcast-locate
        pass over the other shards for any still-unremoved key (corpora
        split before hash routing existed hold keys off their owner).
        Per-key flags report whether *any* shard dropped the key."""
        keys = list(keys)
        removed = [False] * len(keys)
        epochs: list[int] = []

        def sweep(shard: str, rows: list[int]) -> None:
            flags, epoch = self._executors[shard].remove_keys(
                [keys[j] for j in rows], quorum=self.write_quorum)
            hit = [j for j, flag in zip(rows, flags) if flag]
            for j in hit:
                removed[j] = True
            epochs.append(int(epoch))
            if hit:
                with self._lock:
                    self._keys[shard] = max(
                        0, self._keys.get(shard, 0) - len(hit))

        groups: dict[str, list[int]] = {}
        for j, key in enumerate(keys):
            groups.setdefault(self.owning_shard(key), []).append(j)
        for shard, rows in sorted(groups.items()):
            sweep(shard, rows)
        if not all(removed):
            for shard in sorted(self.shard_names):
                rows = [j for j in range(len(keys))
                        if not removed[j]
                        and self.owning_shard(keys[j]) != shard]
                if rows:
                    sweep(shard, rows)
        with self._lock:
            self._counters["writes"] += 1
        return removed, max(epochs)

    def remove(self, key) -> None:
        """Single-key removal mirroring the flat index surface (raises
        ``KeyError`` when no shard holds the key)."""
        removed, _ = self.remove_keys([key])
        if not removed[0]:
            raise KeyError(key)

    # ------------------------- anti-entropy ------------------------- #

    def _probe_replicas(self, clients) -> tuple[dict, list[str]]:
        infos: dict = {}
        unreachable: list[str] = []
        for client in clients:
            try:
                infos[client.address] = client.healthz()
            except (NodeFailure, RemoteProtocolError) as exc:
                unreachable.append("%s: %s" % (client.address, exc))
        return infos, unreachable

    @staticmethod
    def _replica_vector(infos: dict) -> tuple:
        return tuple(sorted(
            (addr, int(info.get("mutation_epoch", 0)),
             int(info.get("keys", 0)))
            for addr, info in infos.items()))

    def repair(self) -> dict:
        """One anti-entropy sweep over every remote shard's replicas.

        Per shard: probe each replica's ``/healthz`` (epoch + key
        count).  If the vector is uniform, single-replica, or unchanged
        since the last sweep that verified convergence, the shard is
        healthy.  Otherwise pick the freshest replica (max epoch, then
        key count) as the source, snapshot-diff each other replica
        against it, and ship the delta over the replica's own
        ``/remove`` + ``/insert`` endpoints — idempotent, so a sweep
        racing live writes at worst re-ships what the next sweep
        confirms converged.  Returns a per-shard report plus aggregate
        shipping counts.
        """
        report: dict = {"shards": {}, "repaired_replicas": 0,
                        "shipped_inserts": 0, "shipped_removes": 0}
        for shard in sorted(self.shard_names):
            entry = self._repair_shard(shard, self._executors[shard])
            report["shards"][shard] = entry
            report["repaired_replicas"] += len(entry.get("repaired", []))
            shipped = entry.get("shipped", {})
            report["shipped_inserts"] += shipped.get("inserts", 0)
            report["shipped_removes"] += shipped.get("removes", 0)
        with self._lock:
            self._counters["repair_sweeps"] += 1
        return report

    def _repair_shard(self, shard: str, executor) -> dict:
        if not isinstance(executor, RemoteShardExecutor):
            return {"status": "local"}
        clients = executor.replica_clients()
        infos, unreachable = self._probe_replicas(clients)
        if not infos:
            return {"status": "unreachable",
                    "unreachable": unreachable}
        epochs = {addr: int(info.get("mutation_epoch", 0))
                  for addr, info in infos.items()}
        key_counts = {addr: int(info.get("keys", 0))
                      for addr, info in infos.items()}
        vector = self._replica_vector(infos)
        uniform = (len(set(epochs.values())) == 1
                   and len(set(key_counts.values())) == 1)
        with self._lock:
            baseline = self._repair_baselines.get(shard)
        if len(infos) == 1 or uniform or vector == baseline:
            with self._lock:
                self._repair_baselines[shard] = vector
            return {"status": "healthy", "epochs": epochs,
                    "unreachable": unreachable}

        source_addr = max(
            infos, key=lambda addr: (epochs[addr], key_counts[addr],
                                     addr))
        source_client = next(client for client in clients
                             if client.address == source_addr)
        repaired: list[str] = []
        shipped = {"inserts": 0, "removes": 0}
        from repro.persistence import load_ensemble

        with tempfile.TemporaryDirectory(prefix="lshe-repair-") as tmp:
            tmp_path = Path(tmp)
            source = load_ensemble(
                source_client.snapshot(tmp_path / "source"))
            source_keys = set(source.keys())
            for idx, client in enumerate(clients):
                addr = client.address
                if addr == source_addr or addr not in infos:
                    continue
                replica = load_ensemble(
                    client.snapshot(tmp_path / ("replica_%d" % idx)))
                replica_keys = set(replica.keys())
                changed = [
                    key for key in replica_keys & source_keys
                    if replica.size_of(key) != source.size_of(key)
                    or not np.array_equal(
                        replica.get_signature(key).hashvalues,
                        source.get_signature(key).hashvalues)]
                removes = sorted(
                    list(replica_keys - source_keys) + changed, key=str)
                inserts = sorted(
                    list(source_keys - replica_keys) + changed, key=str)
                if not removes and not inserts:
                    continue
                if removes:
                    client.remove(removes)
                if inserts:
                    client.insert([(key, source.get_signature(key),
                                    source.size_of(key))
                                   for key in inserts])
                repaired.append(addr)
                shipped["inserts"] += len(inserts)
                shipped["removes"] += len(removes)

        # Re-probe: the post-repair vector is the convergence baseline
        # the next sweep compares against (and the shipping itself
        # bumped the repaired replicas' epochs).
        infos, post_unreachable = self._probe_replicas(clients)
        with self._lock:
            self._repair_baselines[shard] = self._replica_vector(infos)
        return {"status": "repaired" if repaired else "healthy",
                "source": source_addr,
                "repaired": repaired,
                "shipped": shipped,
                "epochs": {addr: int(info.get("mutation_epoch", 0))
                           for addr, info in infos.items()},
                "unreachable": unreachable + post_unreachable}


class _RouterExecutor(InProcessExecutor):
    """The router behind the standard executor interface, so the
    serving engine dispatches to it like any other backend."""

    kind = "router"

    # close() stays the no-op default deliberately: the router index
    # is caller-owned (the CLI / test that built it also closes it), so
    # a server shutting down must not tear down a topology the caller
    # may keep querying in-process.

    def signatures_for(self, keys):
        return self._index.signatures_for(keys)

    def query_batch_scored_with_epoch(self, batch, sizes=None,
                                      threshold=None):
        epoch = self.mutation_epoch
        return self._index.query_batch_scored(
            batch, sizes=sizes, threshold=threshold), epoch

    # Writes go through the router's own placement-routed, quorum-acked
    # path (the index-backed default probes ``key in index``, which a
    # router does not answer locally).

    def insert_entries(self, entries, quorum=None):
        return self._index.insert_entries(entries)

    def remove_keys(self, keys, quorum=None):
        return self._index.remove_keys(keys)


class RouterEngine(ServingEngine):
    """Serving-engine adapter for a :class:`RouterIndex`: introspection
    comes from the cluster facts gathered at connect time (refreshed on
    ``/stats``), not from walking a local index."""

    def __init__(self, router: RouterIndex) -> None:
        super().__init__(router, executor=_RouterExecutor(router))
        self.router = router

    @property
    def executor_kind(self) -> str:
        return "router"

    @property
    def num_perm(self) -> int:
        return self.router.num_perm

    @property
    def kernel_name(self) -> str:
        return self.router.kernel_name

    @property
    def bbit(self) -> int | None:
        return self.router.bbit

    def signature_seed(self) -> int:
        return self.router.signature_seed

    def describe(self) -> dict:
        return {
            "status": "degraded" if self.router.degraded_shards()
            else "ok",
            "index": "RouterIndex",
            "keys": len(self.router),
            "num_perm": self.num_perm,
            "generation": self.generation,
            "mutation_epoch": self.mutation_epoch,
            "executor": "router",
            "kernel": self.kernel_name,
            "bbit": self.bbit,
            "signature_seed": self.signature_seed(),
            "shards": list(self.router.shard_names),
            "degraded": self.router.degraded_shards(),
        }

    def stats(self) -> dict:
        try:
            self.router.refresh()
        except ShardUnavailableError:
            pass  # stats must stay observable while shards are down
        return {
            "index": "RouterIndex",
            "keys": len(self.router),
            "generation": self.generation,
            "mutation_epoch": self.mutation_epoch,
            "executor": "router",
            "kernel": self.kernel_name,
            "bbit": self.bbit,
            "router": self.router.stats(),
        }

    def snapshot_bytes(self) -> bytes | None:
        return None  # a router has no single index to snapshot


class RouterServer(QueryServer):
    """:class:`~repro.serve.server.QueryServer` over a
    :class:`RouterIndex`.

    The result cache defaults to **off**: the router only observes
    remote epochs when a fan-out happens to report them, so an
    epoch-keyed cache could serve entries at a stale label after a
    shard mutates.  Operators who accept bounded staleness can pass a
    ``cache_size`` explicitly.
    """

    def __init__(self, router: RouterIndex, host: str = "127.0.0.1",
                 port: int = 0, *, max_batch: int = 64,
                 window_ms: float = 2.0, cache_size: int = 0,
                 max_pending: int = 1024) -> None:
        super().__init__(router, host, port, max_batch=max_batch,
                         window_ms=window_ms, cache_size=cache_size,
                         max_pending=max_pending,
                         engine=RouterEngine(router))

    def _finalise_payload(self, payload: dict) -> dict:
        # Re-read the staleness floor *after* dispatch: the fan-out
        # just observed every shard's epoch, so the label reflects the
        # answers in this response, not the previous fan-out's.
        payload["mutation_epoch"] = self.engine.mutation_epoch
        degraded = self.engine.index.degraded_shards()
        if degraded:
            payload["degraded"] = degraded
        return payload

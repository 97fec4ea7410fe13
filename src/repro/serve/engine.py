"""Uniform serving facade over flat and sharded ensembles.

The HTTP layer should not care whether it fronts a single
:class:`~repro.core.ensemble.LSHEnsemble` (freshly built, or loaded
from a v2 snapshot / dynamic manifest directory) or a whole
:class:`~repro.parallel.sharded.ShardedEnsemble` cluster.
:class:`ServingEngine` normalises the few points where their surfaces
differ (``num_perm`` lives on the shards, drift reports nest), turns
coalesced batches into the appropriate vectorised ``query_batch`` /
``query_top_k_batch`` call, and canonicalises results into
JSON-serialisable, deterministically ordered form — the exact same
ordering for the same inputs regardless of topology, which is what the
served-parity golden tests pin.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.minhash.batch import SignatureBatch
from repro.serve.executor import make_executor

__all__ = ["ServingEngine", "sorted_keys"]


def sorted_keys(found: set) -> list:
    """Canonical result ordering: the CLI's ``sorted(found, key=str)``."""
    return sorted(found, key=str)


class ServingEngine:
    """Dispatch/introspection adapter around one index (flat or sharded).

    Parameters
    ----------
    index:
        A built :class:`~repro.core.ensemble.LSHEnsemble` or
        :class:`~repro.parallel.sharded.ShardedEnsemble`.
    pooled:
        Optional :class:`~repro.parallel.procpool.PooledIndex` over the
        same flat ``index``.  When present, coalesced batches dispatch
        through it — sliced across worker processes over the shared
        mmap segments — instead of running on the coalescer's single
        GIL-bound thread.  Results are bit-identical either way;
        introspection (epoch, tier sizes, signature seed) always reads
        the authoritative in-process index.
    executor:
        A pre-built :class:`~repro.serve.executor.ShardExecutor` to
        dispatch through instead of deriving one from
        ``index``/``pooled`` — every query the engine answers goes
        through this single interface, whatever the backend (thread,
        process pool, or the router's remote fan-out).
    """

    def __init__(self, index, pooled=None, executor=None) -> None:
        self.index = index
        self.pooled = pooled
        self.executor = (executor if executor is not None
                         else make_executor(index, pooled))

    @property
    def _query_target(self):
        """Where batches execute: always the shard executor."""
        return self.executor

    @property
    def executor_kind(self) -> str:
        """``"process"`` when batches run on a worker pool (flat pooled
        adapter, or a process-mode sharded cluster), else ``"thread"``."""
        if self.pooled is not None:
            return "process"
        return ("process"
                if getattr(self.index, "executor", "thread") == "process"
                else "thread")

    def _pool(self):
        if self.pooled is not None:
            return self.pooled.pool
        return getattr(self.index, "_pool", None)

    # ------------------------------------------------------------------ #
    # Normalised introspection
    # ------------------------------------------------------------------ #

    @property
    def num_perm(self) -> int:
        num_perm = getattr(self.index, "num_perm", None)
        if num_perm is not None:
            return int(num_perm)
        return int(self.index.shards[0].num_perm)

    @property
    def mutation_epoch(self) -> int:
        return int(self.index.mutation_epoch)

    @property
    def generation(self) -> int:
        return int(self.index.generation)

    @property
    def is_sharded(self) -> bool:
        return hasattr(self.index, "shards")

    @property
    def kernel_name(self) -> str:
        """Name of the hot-loop kernel backend answering queries."""
        index = (self.index.shards[0] if self.is_sharded else self.index)
        return index.kernel.name

    @property
    def bbit(self) -> int | None:
        """b-bit band-key packing width (None = full 64-bit keys)."""
        index = (self.index.shards[0] if self.is_sharded else self.index)
        return index.bbit

    def signature_seed(self) -> int:
        """The permutation seed of the stored signatures.

        Server-side hashing of ``values`` payloads must use the same
        seed the index was built with, or the comparison is
        meaningless; sample it from any stored signature (one shared
        seed per index is the supported regime — mixed-seed entries are
        not comparable to each other either).
        """
        index = (self.index.shards[0] if self.is_sharded else self.index)
        for key in index.keys():
            return int(index.get_signature(key).seed)
        return 1

    def signatures_for(self, keys) -> tuple[dict, dict]:
        """``(signatures, sizes)`` for the stored keys this engine's
        backend holds (the ``POST /signatures`` endpoint)."""
        return self.executor.signatures_for(keys)

    def apply_inserts(self, entries) -> tuple[list[bool], int]:
        """Apply ``(key, signature, size)`` inserts through the
        executor (the ``POST /insert`` endpoint).  Idempotent: already
        present keys come back ``False`` in the applied-flags list.
        Returns the flags plus the post-write mutation epoch — the
        consistency token the response carries."""
        return self.executor.insert_entries(entries)

    def apply_removes(self, keys) -> tuple[list[bool], int]:
        """Apply removals (the ``POST /remove`` endpoint); absent keys
        come back ``False``."""
        return self.executor.remove_keys(keys)

    def snapshot_bytes(self) -> bytes | None:
        """The index packed for replica bootstrap (``GET /snapshot``);
        ``None`` when the topology has no single index to ship."""
        from repro.persistence import pack_snapshot_bytes

        return pack_snapshot_bytes(self.index)

    def describe(self) -> dict:
        """The ``/healthz`` payload: liveness plus version counters."""
        return {
            "status": "ok",
            "index": type(self.index).__name__,
            "keys": len(self.index),
            "num_perm": self.num_perm,
            "generation": self.generation,
            "mutation_epoch": self.mutation_epoch,
            "executor": self.executor_kind,
            "kernel": self.kernel_name,
            "bbit": self.bbit,
            "signature_seed": self.signature_seed(),
        }

    def stats(self) -> dict:
        """Tier sizes and the full drift report (``/stats`` core)."""
        drift = self.index.drift_stats()
        payload = {
            "index": type(self.index).__name__,
            "keys": len(self.index),
            "generation": self.generation,
            "mutation_epoch": self.mutation_epoch,
            "executor": self.executor_kind,
            "kernel": self.kernel_name,
            "bbit": self.bbit,
            "tiers": {
                "base": drift["base_keys"],
                "delta": drift["delta_keys"],
                "tombstones": drift["tombstones"],
            },
            "drift": drift,
        }
        pool = self._pool()
        if pool is not None:
            payload["pool"] = pool.stats()
        return payload

    # ------------------------------------------------------------------ #
    # Batched dispatch (called from the coalescer's worker thread)
    # ------------------------------------------------------------------ #

    def dispatch(self, group_key, payloads) -> list:
        """Answer one coalesced group through the vectorised batch path.

        ``group_key`` is ``("query", seed, threshold, scored)`` or
        ``("top_k", seed, k, min_threshold)``; ``payloads`` is a list of
        ``(hashvalues_row, size)``.  Returns one JSON-ready result per
        payload: a ``sorted(..., key=str)`` key list for threshold
        queries, a ``[key, score]`` ranking of every hit for scored
        threshold queries, a ``[key, score]`` top-``k`` for top-k.
        """
        kind, seed = group_key[0], group_key[1]
        matrix = np.vstack([row for row, _ in payloads])
        sizes = [size for _, size in payloads]
        batch = SignatureBatch(None, matrix, seed=seed)
        target = self._query_target
        if kind == "query":
            threshold, scored = group_key[2], group_key[3]
            if not scored:
                found = target.query_batch(batch, sizes=sizes,
                                           threshold=threshold)
                return [sorted_keys(f) for f in found]
            ranked = target.query_batch_scored(batch, sizes=sizes,
                                               threshold=threshold)
        elif kind == "top_k":
            k, min_threshold = group_key[2], group_key[3]
            ranked = target.query_top_k_batch(
                batch, k, sizes=sizes, min_threshold=min_threshold)
        else:
            raise ValueError("unknown dispatch kind %r" % (kind,))
        return [[[key, float(score)] for key, score in row]
                for row in ranked]

    @staticmethod
    def digest(group_key, row: np.ndarray, size: int) -> bytes:
        """Cache digest of one query: parameters + signature bytes.

        Combined with the mutation epoch by the caller, this forms the
        full cache key; two requests digest equal iff they would be
        answered from identical inputs.
        """
        h = hashlib.sha1()
        h.update(repr((group_key, int(size))).encode("utf-8"))
        h.update(np.ascontiguousarray(row).tobytes())
        return h.digest()

"""The shard-executor interface: *where* a batch of queries executes.

PR 4's serving engine dispatched straight onto the wrapped index; PR 5
bolted the process pool on beside it.  Multi-node serving adds a third
backend — a shard-node server reached over HTTP — and juggling three
ad-hoc targets inside the engine (and a fourth inside the router) does
not scale.  This module names the contract once:

:class:`ShardExecutor` is the query surface for **one shard backend** —
the four vectorised/batch query paths, the single-query forms, the
scored threshold round a router's global top-k ladder runs (each hit
with its containment score, computed where the signature lives), the
stored-signature fetch, and the mutation epoch that stamps every
answer.  Implementations:

* :class:`InProcessExecutor` — today's path: the built index object
  itself (flat :class:`~repro.core.ensemble.LSHEnsemble` or a whole
  :class:`~repro.parallel.sharded.ShardedEnsemble`).
* :class:`ProcPoolExecutor` — PR 5's
  :class:`~repro.parallel.procpool.PooledIndex`: batches row-sliced
  across worker processes over shared mmap segments.
* :class:`~repro.serve.remote.RemoteShardExecutor` — keep-alive HTTP to
  a shard-node server (with replica failover); lives in
  :mod:`repro.serve.remote` so *all* network transport is in one module
  (enforced by lint rule RL007).

The serving engine talks only to this interface; the router tier
(:mod:`repro.serve.router`) composes many remote executors behind the
same engine.  Results are bit-identical across implementations — the
``tests/distributed`` parity battery pins it.
"""

from __future__ import annotations

import abc
from collections.abc import Hashable, Sequence

__all__ = ["ShardExecutor", "InProcessExecutor", "ProcPoolExecutor",
           "ShardUnavailableError", "EpochConsistencyError",
           "WriteQuorumError", "make_executor"]


class ShardUnavailableError(RuntimeError):
    """Every replica of a shard failed (or timed out); the query cannot
    be answered completely.  The HTTP layer maps it to ``503`` — the
    condition is transient (a replica restart / failover away)."""


class WriteQuorumError(RuntimeError):
    """Fewer replicas than the configured write quorum acknowledged a
    mutation.  The write may have landed on a minority of replicas —
    the anti-entropy sweep reconciles them — but it is **not acked**:
    the HTTP layer maps this to ``503`` and the client must retry
    (mutations are idempotent, so retrying a partially applied write is
    safe)."""


class EpochConsistencyError(RuntimeError):
    """A multi-round query (the top-k ladder) observed a shard at two
    different mutation epochs and exhausted its restart budget; the
    response would have mixed pre- and post-mutation state.  Mapped to
    ``503`` — an immediate retry starts a fresh, consistent ladder."""


class ShardExecutor(abc.ABC):
    """Query surface for one shard backend; see the module docstring.

    Four query paths mirror the index surface exactly (``query`` /
    ``query_batch`` / ``query_top_k`` / ``query_top_k_batch``), so an
    executor can stand in anywhere an index could answer queries.  Two
    more serve the router: :meth:`query_batch_scored_with_epoch` is one
    rung of its global top-k ladder — every hit comes back with its
    containment score, so the router ranks the union by merging scores
    and never ships a signature — and :meth:`signatures_for` reads
    stored signatures back for inspection.
    """

    #: Human-readable transport kind ("thread" / "process" / "remote").
    kind: str = "thread"

    # ---------------------- the five query paths -------------------- #

    @abc.abstractmethod
    def query_batch(self, batch, sizes: Sequence[int] | None = None,
                    threshold: float | None = None) -> list[set]:
        """One result set per batch row (vectorised threshold path)."""

    @abc.abstractmethod
    def query_top_k_batch(self, batch, k: int,
                          sizes: Sequence[int] | None = None,
                          min_threshold: float = 0.05) -> list[list]:
        """One ``[(key, score), ...]`` ranking per batch row."""

    @abc.abstractmethod
    def query(self, signature, size: int | None = None,
              threshold: float | None = None) -> set:
        """Single-signature threshold query."""

    @abc.abstractmethod
    def query_top_k(self, signature, k: int, size: int | None = None,
                    min_threshold: float = 0.05) -> list:
        """Single-signature top-k ranking."""

    @abc.abstractmethod
    def query_batch_scored_with_epoch(self, batch,
                                      sizes: Sequence[int] | None = None,
                                      threshold: float | None = None,
                                      ) -> tuple[list[list], int]:
        """``query_batch`` with every hit scored, plus the epoch.

        One ``[(key, score), ...]`` ranking of *all* of a row's hits,
        as :func:`~repro.core.estimation.rank_candidates` scores and
        orders them against the stored signatures and sizes.  The
        probe, the scores and the epoch all reflect one state.
        """

    def query_batch_scored(self, batch, sizes: Sequence[int] | None = None,
                           threshold: float | None = None) -> list[list]:
        """:meth:`query_batch_scored_with_epoch` without the epoch."""
        return self.query_batch_scored_with_epoch(
            batch, sizes=sizes, threshold=threshold)[0]

    @abc.abstractmethod
    def signatures_for(self, keys: Sequence[Hashable],
                       ) -> tuple[dict, dict]:
        """``(signatures, sizes)`` for the keys this shard holds.

        Keys the shard does not hold are silently absent — the router
        unions the answers across shards, so absence means "someone
        else's key", not an error.
        """

    # ------------------------- the write path ----------------------- #

    def insert_entries(self, entries: Sequence[tuple],
                       quorum: int | None = None,
                       ) -> tuple[list[bool], int]:
        """Apply ``(key, signature, size)`` inserts to this shard.

        Idempotent: a key the shard already holds is skipped and
        reported ``False`` in the applied-flags list (not an error), so
        replica retries and repair shipping are safe.  Returns the
        flags plus the shard's post-write mutation epoch — the
        consistency token the caller hands back to clients.  ``quorum``
        is meaningful only for replicated (remote) executors; a
        single-backend executor either applies or raises.
        """
        raise NotImplementedError("%s does not accept writes" % self.kind)

    def remove_keys(self, keys: Sequence[Hashable],
                    quorum: int | None = None,
                    ) -> tuple[list[bool], int]:
        """Apply removals; absent keys report ``False``, not errors."""
        raise NotImplementedError("%s does not accept writes" % self.kind)

    # ----------------------- epoch observation ---------------------- #

    @property
    @abc.abstractmethod
    def mutation_epoch(self) -> int:
        """The epoch the *next* answer is expected to reflect (for
        remote executors: the last epoch observed on the wire)."""

    def query_batch_with_epoch(self, batch,
                               sizes: Sequence[int] | None = None,
                               threshold: float | None = None,
                               ) -> tuple[list[set], int]:
        """``query_batch`` plus the epoch the answers reflect.

        The in-process default reads the epoch *before* dispatching —
        any mutation racing the dispatch has either already bumped it
        (answer is newer than the label, the accepted imprecision) or
        lands after (label exact).  Remote executors override this with
        the epoch carried in the response itself.
        """
        epoch = self.mutation_epoch
        return self.query_batch(batch, sizes=sizes,
                                threshold=threshold), epoch

    # -------------------------- lifecycle --------------------------- #

    def describe(self) -> dict:
        """Transport-level description merged into ``/healthz``."""
        return {"executor": self.kind}

    def stats(self) -> dict:
        """Transport-level counters merged into ``/stats``."""
        return {"executor": self.kind}

    def close(self) -> None:  # pragma: no cover - trivial default
        """Release transport resources (pools, connections)."""

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class _IndexBackedExecutor(ShardExecutor):
    """Shared plumbing for executors whose queries land on an
    in-process index object (directly or through a worker pool)."""

    def __init__(self, target, index) -> None:
        # ``target`` answers queries; ``index`` is the authoritative
        # in-process object for introspection (signatures, epoch).
        self._target = target
        self._index = index

    def query_batch(self, batch, sizes=None, threshold=None):
        return self._target.query_batch(batch, sizes=sizes,
                                        threshold=threshold)

    def query_top_k_batch(self, batch, k, sizes=None, min_threshold=0.05):
        return self._target.query_top_k_batch(
            batch, k, sizes=sizes, min_threshold=min_threshold)

    def query(self, signature, size=None, threshold=None):
        return self._target.query(signature, size, threshold)

    def query_top_k(self, signature, k, size=None, min_threshold=0.05):
        return self._target.query_top_k(signature, k, size=size,
                                        min_threshold=min_threshold)

    def query_batch_scored_with_epoch(self, batch, sizes=None,
                                      threshold=None):
        from repro.core.ensemble import _as_batch
        from repro.core.estimation import rank_candidates

        sb = _as_batch(batch)
        qs = ([int(s) for s in sizes] if sizes is not None
              else [max(1, int(c)) for c in sb.counts()])
        # Probe and score under one hold of the index lock, as
        # LSHEnsemble.query_top_k_batch does: a write cannot drop a hit
        # between the two, and the epoch names the state both saw.
        with self._index.locked():
            found = self._target.query_batch(sb, sizes=qs,
                                             threshold=threshold)
            ranked = []
            for j, hits in enumerate(found):
                pool, pool_sizes = self.signatures_for(hits)
                ranked.append(rank_candidates(
                    sb[j], pool, query_size=qs[j], sizes=pool_sizes))
            return ranked, int(self._index.mutation_epoch)

    def signatures_for(self, keys):
        shards = (self._index.shards
                  if hasattr(self._index, "shards") else [self._index])
        pool: dict = {}
        sizes: dict = {}
        for key in keys:
            for shard in shards:
                if key in shard:
                    pool[key] = shard.get_signature(key)
                    sizes[key] = shard.size_of(key)
                    break
        return pool, sizes

    def _holds(self, key) -> bool:
        shards = (self._index.shards
                  if hasattr(self._index, "shards") else [self._index])
        return any(key in shard for shard in shards)

    def insert_entries(self, entries, quorum=None):
        applied = []
        for key, signature, size in entries:
            if self._holds(key):
                applied.append(False)
                continue
            self._index.insert(key, signature, int(size))
            applied.append(True)
        return applied, int(self._index.mutation_epoch)

    def remove_keys(self, keys, quorum=None):
        removed = []
        for key in keys:
            if not self._holds(key):
                removed.append(False)
                continue
            self._index.remove(key)
            removed.append(True)
        return removed, int(self._index.mutation_epoch)

    @property
    def mutation_epoch(self) -> int:
        return int(self._index.mutation_epoch)

    @property
    def index(self):
        return self._index


class InProcessExecutor(_IndexBackedExecutor):
    """Today's path: dispatch straight onto the built index object."""

    kind = "thread"

    def __init__(self, index) -> None:
        super().__init__(index, index)


class ProcPoolExecutor(_IndexBackedExecutor):
    """Dispatch through a :class:`~repro.parallel.procpool.PooledIndex`
    — batches row-sliced across worker processes that ``np.memmap`` the
    spilled base segment.  Introspection reads the authoritative
    in-process index the adapter wraps."""

    kind = "process"

    def __init__(self, pooled) -> None:
        super().__init__(pooled, pooled.index)
        self.pooled = pooled

    def stats(self) -> dict:
        return {"executor": self.kind, "pool": self.pooled.pool.stats()}

    def close(self) -> None:
        self.pooled.close()


def make_executor(index, pooled=None) -> ShardExecutor:
    """The executor for an index (+ optional pool adapter): the
    back-compat construction path the serving engine uses."""
    if pooled is not None:
        return ProcPoolExecutor(pooled)
    return InProcessExecutor(index)

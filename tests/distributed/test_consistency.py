"""Epoch consistency: the router never mixes epochs in one response.

The top-k ladder is multi-round; a shard mutating between rounds could
leak a mix of pre- and post-mutation candidates into one ranking.  The
router's contract: track each shard's epoch across the ladder, restart
the whole ladder on a mismatch, and give up with
:class:`~repro.serve.executor.EpochConsistencyError` (HTTP 503) when a
shard will not hold still — never answer from mixed state.  The
capture-then-mutate tests here drive exactly that race,
deterministically, by mutating a shard from inside the executor's own
dispatch path.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from cluster_harness import (
    NUM_PERM,
    make_index,
    query_rows,
    router_over,
    split_entries,
    thread_cluster,
)
from repro.minhash.generator import SignatureFactory
from repro.serve import start_in_thread
from repro.serve.executor import EpochConsistencyError, InProcessExecutor
from repro.serve.router import RouterIndex, RouterServer


# Large enough that every ladder over these queries walks at least two
# rungs: a one-rung ladder answers from a single epoch per shard, so it
# is consistent by construction and leaves no gap to mutate in.
LADDER_K = 10


class MutatingExecutor(InProcessExecutor):
    """In-process shard executor that mutates its own index *between*
    ladder rounds — the capture-then-mutate race, made deterministic.

    ``mutations`` is a list of callables; one is popped and applied
    after each scored ladder round answers (at the pre-mutation epoch),
    so the *next* round observes a different epoch.
    """

    def __init__(self, index, mutations) -> None:
        super().__init__(index)
        self.mutations = list(mutations)

    def query_batch_scored_with_epoch(self, batch, sizes=None,
                                      threshold=None):
        scored, epoch = super().query_batch_scored_with_epoch(
            batch, sizes=sizes, threshold=threshold)
        if self.mutations:
            self.mutations.pop(0)()
        return scored, epoch


def _mutation(index, factory, j):
    def apply():
        values = {"mv%d_%d" % (j, v) for v in range(20)}
        index.insert("mut_%d" % j, factory.lean(values), len(values))
    return apply


@pytest.fixture()
def factory(corpus):
    _, batch = corpus
    return SignatureFactory(num_perm=NUM_PERM, seed=batch.seed)


def test_mid_ladder_mutation_restarts_and_answers_consistently(
        entries, corpus, factory):
    parts = split_entries(entries, 2)
    shard_indexes = [make_index(part) for part in parts]
    # Shard 0 mutates once, after the first ladder round it answers.
    executors = {
        "shard_000": MutatingExecutor(
            shard_indexes[0],
            [_mutation(shard_indexes[0], factory, 0)]),
        "shard_001": InProcessExecutor(shard_indexes[1]),
    }
    # The flat reference receives the same single mutation up front:
    # after its one restart the router must answer from purely
    # post-mutation state.
    flat = make_index(entries)
    _mutation(flat, factory, 0)()

    matrix, sizes, _ = query_rows(corpus, n=4)
    with RouterIndex.from_executors(executors) as router:
        got = router.query_top_k_batch(matrix, LADDER_K, sizes=sizes)
        assert router.stats()["ladder_restarts"] >= 1
    assert got == flat.query_top_k_batch(matrix, LADDER_K, sizes=sizes)


def test_restart_budget_exhaustion_raises_not_mixes(entries, corpus,
                                                    factory):
    parts = split_entries(entries, 2)
    shard_indexes = [make_index(part) for part in parts]
    # Enough mutations that every attempt (initial + 2 restarts, each
    # with several rounds) observes a fresh epoch mid-ladder.
    restless = MutatingExecutor(
        shard_indexes[0],
        [_mutation(shard_indexes[0], factory, j) for j in range(64)])
    matrix, sizes, _ = query_rows(corpus, n=2)
    with RouterIndex.from_executors({
            "shard_000": restless,
            "shard_001": InProcessExecutor(shard_indexes[1]),
    }, max_ladder_restarts=2) as router:
        with pytest.raises(EpochConsistencyError):
            router.query_top_k_batch(matrix, LADDER_K, sizes=sizes)
        assert router.stats()["ladder_restarts"] == 3  # initial + 2 retries


def test_restart_budget_exhaustion_maps_to_503(entries, corpus,
                                               factory):
    parts = split_entries(entries, 2)
    shard_indexes = [make_index(part) for part in parts]
    restless = MutatingExecutor(
        shard_indexes[0],
        [_mutation(shard_indexes[0], factory, j) for j in range(64)])
    _, _, items = query_rows(corpus, n=2)
    with RouterIndex.from_executors({
            "shard_000": restless,
            "shard_001": InProcessExecutor(shard_indexes[1]),
    }, max_ladder_restarts=1) as router:
        with start_in_thread(router,
                             server_factory=RouterServer) as handle:
            request = urllib.request.Request(
                "http://127.0.0.1:%d/query_top_k" % handle.port,
                data=json.dumps({"queries": items,
                                 "k": LADDER_K}).encode(),
                headers={"Content-Type": "application/json"},
                method="POST")
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request)
            assert excinfo.value.code == 503
            body = json.loads(excinfo.value.read())
            assert body["error"] == "epoch consistency"


def test_response_epoch_is_the_minimum_across_shards(entries, corpus,
                                                     factory):
    parts = split_entries(entries, 2)
    shard_indexes = [make_index(part) for part in parts]
    # Skew the epochs: shard_001 sees three mutations, shard_000 none.
    for j in range(3):
        _mutation(shard_indexes[1], factory, j)()
    assert shard_indexes[0].mutation_epoch == 0
    assert shard_indexes[1].mutation_epoch == 3

    _, _, items = query_rows(corpus, n=2)
    with RouterIndex.from_executors({
            "shard_000": InProcessExecutor(shard_indexes[0]),
            "shard_001": InProcessExecutor(shard_indexes[1]),
    }) as router:
        assert router.mutation_epoch == 0  # the staleness floor
        with start_in_thread(router,
                             server_factory=RouterServer) as handle:
            request = urllib.request.Request(
                "http://127.0.0.1:%d/query" % handle.port,
                data=json.dumps({"queries": items,
                                 "threshold": 0.5}).encode(),
                headers={"Content-Type": "application/json"},
                method="POST")
            with urllib.request.urlopen(request) as response:
                payload = json.loads(response.read())
    assert payload["mutation_epoch"] == 0
    assert "degraded" not in payload


def test_degraded_shards_do_not_drag_the_reported_epoch_down(
        entries, corpus, factory):
    """Regression: ``mutation_epoch = min`` over *all* shards let a
    dead shard (whose executor last observed epoch 0) pin the reported
    staleness token at 0 forever, understating every answer's
    freshness.  Unreachable shards are excluded from the min — the
    ``degraded`` marker carries the unavailability instead."""
    parts = split_entries(entries, 2)
    shard_indexes = [make_index(part) for part in parts]
    for j in range(3):
        _mutation(shard_indexes[1], factory, j)()

    _, _, items = query_rows(corpus, n=2)
    with thread_cluster(shard_indexes) as handles:
        with router_over(handles, partial=True) as router:
            # Both shards healthy: the min spans both, floor 0.
            matrix, sizes, _ = query_rows(corpus, n=2)
            router.query_batch(matrix, sizes=sizes, threshold=0.5)
            assert router.mutation_epoch == 0

            handles[0][1].close()  # shard_000 (epoch 0) goes dark
            with start_in_thread(router,
                                 server_factory=RouterServer) as handle:
                request = urllib.request.Request(
                    "http://127.0.0.1:%d/query" % handle.port,
                    data=json.dumps({"queries": items,
                                     "threshold": 0.5}).encode(),
                    headers={"Content-Type": "application/json"},
                    method="POST")
                with urllib.request.urlopen(request) as response:
                    payload = json.loads(response.read())
            assert payload["degraded"] == ["shard_000"]
            # The answers came from shard_001 alone; the token must say
            # epoch 3, not the dead shard's stale 0.
            assert payload["mutation_epoch"] == 3
            assert router.mutation_epoch == 3

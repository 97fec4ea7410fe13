"""Shard-side scoring: the router's top-k ladder is one scored fan-out
per rung, and nothing else.

A candidate's containment estimate depends only on the query and that
candidate, so the shard holding it scores it inside the rung that finds
it (``"scored": true`` on ``/query``) and the router merges the scores.
Pinned here: the message count (one fan-out per rung, no
``/signatures`` round trip), partial-mode answers, bit-equal scores
over HTTP, cross-shard tie-breaks, and the request validation.
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
from repro.core.ensemble import _ladder_candidates_batch
from repro.core.estimation import estimate_containment
from repro.minhash.batch import SignatureBatch
from repro.minhash.generator import SignatureFactory
from repro.minhash.lean import LeanMinHash
from repro.serve import start_in_thread
from repro.serve.remote import ShardNodeClient
from repro.serve.router import RouterServer


def _post(port: int, path: str, payload: dict) -> dict:
    request = urllib.request.Request(
        "http://127.0.0.1:%d%s" % (port, path),
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"}, method="POST")
    with urllib.request.urlopen(request) as response:
        return json.loads(response.read())


def _rungs(flat, matrix, seed: int, sizes, k: int) -> int:
    """How many rungs the global ladder walks for this batch (the
    router's candidate union equals the flat index's answers)."""
    calls = []

    def rung(rows, threshold):
        calls.append(threshold)
        sub = SignatureBatch(None, matrix[rows], seed=seed)
        return flat.query_batch(sub, sizes=[sizes[j] for j in rows],
                                threshold=threshold)

    _ladder_candidates_batch(rung, len(matrix), k, 0.05)
    return len(calls)


@pytest.fixture()
def shards(entries):
    return [make_index(part) for part in split_entries(entries, 2)]


def test_top_k_is_one_scored_fanout_per_rung(entries, corpus, shards,
                                             monkeypatch):
    flat = make_index(entries)
    matrix, sizes, _ = query_rows(corpus, n=6)
    paths: list[str] = []
    original = ShardNodeClient._json_call

    def recording(self, method, path, payload=None):
        paths.append(path)
        return original(self, method, path, payload)

    with thread_cluster(shards) as handles:
        with router_over(handles) as router:
            monkeypatch.setattr(ShardNodeClient, "_json_call", recording)
            for k in (1, 5, 12):
                before = router.stats()["fanouts"]
                del paths[:]
                got = router.query_top_k_batch(matrix, k, sizes=sizes)
                rungs = _rungs(flat, matrix, corpus[1].seed, sizes, k)
                assert got == flat.query_top_k_batch(matrix, k,
                                                     sizes=sizes)
                assert router.stats()["fanouts"] - before == rungs
                assert paths == ["/query"] * (rungs * len(shards))
            assert router.stats()["ladder_restarts"] == 0


def test_partial_top_k_ranks_the_reachable_shards_candidates(
        corpus, shards):
    matrix, sizes, _ = query_rows(corpus, n=6)
    with thread_cluster(shards) as handles:
        with router_over(handles, partial=True) as router:
            handles[0][1].close()  # shard_000 goes dark
            for k in (3, 8):
                got = router.query_top_k_batch(matrix, k, sizes=sizes)
                assert got == shards[1].query_top_k_batch(
                    matrix, k, sizes=sizes)
                assert router.degraded_shards() == ["shard_000"]


def test_scores_over_http_are_bit_equal_to_local_estimates(corpus,
                                                           shards):
    _, sizes, items = query_rows(corpus, n=6)
    index = shards[0]
    with start_in_thread(index) as handle:
        plain = _post(handle.port, "/query",
                      {"queries": items, "threshold": 0.3})
        scored = _post(handle.port, "/query",
                       {"queries": items, "threshold": 0.3,
                        "scored": True})
    assert any(scored["results"])
    for item, size, keys, ranked in zip(items, sizes, plain["results"],
                                        scored["results"]):
        query = LeanMinHash(seed=item["seed"],
                            hashvalues=item["signature"])
        assert sorted(key for key, _ in ranked) == sorted(keys)
        for key, score in ranked:
            assert score == estimate_containment(
                query, index.get_signature(key), size,
                index.size_of(key))
        assert ranked == sorted(ranked,
                                key=lambda p: (-p[1], str(p[0])))


def test_cross_shard_ties_keep_the_flat_key_order(corpus):
    domains, _ = corpus
    factory = SignatureFactory(num_perm=NUM_PERM, seed=1)
    twin = sorted(domains["d10"])
    # Three keys with one value set, split across both shards so the
    # tied scores interleave shards in str(key) order.
    extra = {"t0": twin, "t1": twin, "t2": twin}
    shard_entries = [[], []]
    for i, (key, values) in enumerate(sorted(domains.items())):
        shard_entries[i % 2].append(
            (key, factory.lean(values), len(values)))
    for key, shard in (("t0", 0), ("t1", 1), ("t2", 0)):
        shard_entries[shard].append(
            (key, factory.lean(extra[key]), len(twin)))
    flat = make_index(shard_entries[0] + shard_entries[1])
    query = factory.lean(twin)
    with thread_cluster([make_index(part)
                         for part in shard_entries]) as handles:
        with router_over(handles) as router:
            got = router.query_top_k(query, 6, size=len(twin))
            with start_in_thread(router,
                                 server_factory=RouterServer) as handle:
                served = _post(handle.port, "/query_top_k", {
                    "queries": [{"values": twin}], "k": 6})
    assert got == flat.query_top_k(query, 6, size=len(twin))
    tied = [key for key, score in got if score == got[0][1]]
    assert tied == sorted(tied, key=str)
    assert {"t0", "t1", "t2"} <= set(tied)
    assert [[key, score] for key, score in got] == served["results"][0]


def test_router_scored_query_matches_flat_node(entries, corpus, shards):
    _, _, items = query_rows(corpus, n=6)
    payload = {"queries": items, "threshold": 0.5, "scored": True}
    flat = make_index(entries)
    with thread_cluster(shards) as handles:
        with router_over(handles) as router:
            with start_in_thread(flat) as flat_handle, \
                    start_in_thread(router,
                                    server_factory=RouterServer) as rh:
                assert _post(rh.port, "/query", payload)["results"] \
                    == _post(flat_handle.port, "/query",
                             payload)["results"]


@pytest.mark.parametrize("scored", [1, 0, "true", None, [True]])
def test_non_boolean_scored_is_a_400(corpus, shards, scored):
    _, _, items = query_rows(corpus, n=1)
    with start_in_thread(shards[0]) as handle:
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(handle.port, "/query",
                  {"queries": items, "scored": scored})
    assert excinfo.value.code == 400
    assert "scored" in json.loads(excinfo.value.read())["error"]

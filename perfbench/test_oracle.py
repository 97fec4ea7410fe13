"""The exact oracle and the accuracy bookkeeping on a hand-made corpus
whose containments are known by construction.

    python3 -m pytest perfbench/test_oracle.py
"""

from __future__ import annotations

import numpy as np
import pytest

from checks import Accuracy, eq6, top_k_problems
from oracle import ContainmentOracle

# q has values 0..9.  Each domain's overlap with q is fixed by which of
# those values it holds; the others are padding no query shares.
CORPUS = {
    "q": [str(v) for v in range(10)],
    "half": [str(v) for v in range(5)] + ["h%d" % i for i in range(20)],
    "most": [str(v) for v in range(8)] + ["m%d" % i for i in range(3)],
    "one": ["3"] + ["o%d" % i for i in range(40)],
    "none": ["n%d" % i for i in range(7)],
    "super": [str(v) for v in range(10)] + ["s%d" % i for i in range(90)],
}
EXPECTED = {"q": 1.0, "half": 0.5, "most": 0.8, "one": 0.1, "none": 0.0,
            "super": 1.0}


@pytest.fixture()
def oracle():
    return ContainmentOracle(CORPUS)


def test_containment_matches_construction(oracle):
    got = oracle.containment(CORPUS["q"])
    for key, expected in EXPECTED.items():
        assert got[oracle.position[key]] == pytest.approx(expected)


def test_overlap_counts_and_sizes(oracle):
    overlaps = oracle.overlaps(["3", "4", "h0", "unknown"])
    assert overlaps[oracle.position["half"]] == 3
    assert overlaps[oracle.position["one"]] == 1
    assert overlaps[oracle.position["none"]] == 0
    assert list(oracle.sizes) == [len(set(v)) for v in CORPUS.values()]


def test_containment_is_asymmetric(oracle):
    # "half" holds half of q, but q holds only 5 of half's 25 values.
    got = oracle.containment(CORPUS["half"])
    assert got[oracle.position["q"]] == pytest.approx(5 / 25)
    assert got[oracle.position["half"]] == pytest.approx(1.0)


def test_duplicate_query_values_count_once(oracle):
    got = oracle.containment(CORPUS["q"] + CORPUS["q"])
    assert got[oracle.position["half"]] == pytest.approx(0.5)


def test_accuracy_against_known_truth(oracle):
    live = {key: key for key in CORPUS}
    accuracy = Accuracy(oracle, live, threshold=0.5, k=2)
    # Truth at t >= 0.5: q, half, most, super.  Answer misses "most"
    # and adds "one": recall 3/4, precision 3/4.
    ranked = [("q", 1.0), ("one", 0.9)]
    accuracy.add(CORPUS["q"], {"q", "half", "super", "one"}, ranked)
    summary = accuracy.summary()
    assert summary["recall"] == pytest.approx(0.75)
    assert summary["precision"] == pytest.approx(0.75)
    # The two best contain all of q (q, super); "one" is not among them.
    assert summary["topk_recall"] == pytest.approx(0.5)


def test_accuracy_follows_live_set(oracle):
    # "most" removed; an inserted copy of "half" is live under a new key.
    live = {key: key for key in CORPUS if key != "most"}
    live["copy"] = "half"
    accuracy = Accuracy(oracle, live, threshold=0.5, k=2)
    accuracy.add(CORPUS["q"], {"q", "half", "super", "copy"},
                 [("q", 1.0), ("super", 1.0)])
    assert accuracy.summary() == {"recall": 1.0, "precision": 1.0,
                                  "topk_recall": 1.0}


def test_eq6_and_top_k_properties():
    a = np.arange(8, dtype=np.uint64)
    b = a.copy()
    b[:4] += 100  # Jaccard estimate 0.5
    assert eq6(a, a, 10, 10) == 1.0
    assert eq6(a, b, 10, 10) == pytest.approx(2 * 0.5 / 1.5)
    assert eq6(a, b, 10, 40) == 1.0  # clipped
    sig = {"q": a, "x": b}
    size = {"q": 10, "x": 10}
    good = [("q", 1.0), ("x", 2 / 3)]
    assert top_k_problems("q", good, sig, size, 10, 2) == []
    increasing = [("x", 2 / 3), ("q", 1.0)]
    assert len(top_k_problems("q", increasing, sig, size, 10, 2)) == 1
    wrong_score = [("q", 1.0), ("x", 0.5)]
    assert len(top_k_problems("q", wrong_score, sig, size, 10, 2)) == 1
    missing = [("x", 2 / 3)]
    assert top_k_problems("q", missing, sig, size, 10, 2) == [
        "q: own key missing from top-2"]
    # Absent, but k other keys tie with it at 1.0: allowed.
    assert top_k_problems("q", [("x", 1.0)], {"q": a, "x": a}, size,
                          10, 1) == []

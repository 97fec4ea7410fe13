"""Output checks: accuracy against the exact oracle and the properties
every answer must have, whatever path produced it."""

from __future__ import annotations

import numpy as np

from oracle import ContainmentOracle


def eq6(query_sig: np.ndarray, cand_sig: np.ndarray, q: int,
        x: int) -> float:
    """Containment estimate from two signatures (the paper's Eq. 6,
    inverted: ``t = (x/q + 1) s / (1 + s)``, clipped to ``[0, 1]``)."""
    s = np.count_nonzero(query_sig == cand_sig) / float(len(query_sig))
    return min(1.0, max(0.0, (x / q + 1.0) * s / (1.0 + s)))


def top_k_problems(key, ranked, sig_of, size_of, q: int, k: int) -> list:
    """Property violations of one top-k answer for the indexed ``key``:
    scores must be non-increasing and equal Eq. 6 recomputed from the
    signatures, and ``key`` itself must be present unless ``k`` other
    keys tie with it at 1.0."""
    problems = []
    scores = [score for _, score in ranked]
    if any(a < b for a, b in zip(scores, scores[1:])):
        problems.append("%s: top-k scores increase: %s" % (key, scores))
    query_sig = sig_of[key]
    for cand, score in ranked:
        expect = eq6(query_sig, sig_of[cand], q, size_of[cand])
        if abs(expect - score) > 1e-9:
            problems.append("%s: score of %s is %r, Eq. 6 gives %r"
                            % (key, cand, score, expect))
    if key not in {cand for cand, _ in ranked}:
        if len(ranked) < k or any(score < 1.0 for score in scores):
            problems.append("%s: own key missing from top-%d" % (key, k))
    return problems


class Accuracy:
    """Recall and precision of threshold answers and recall of top-k
    answers, against exact containment over the live domains.

    ``live`` maps each live key to the oracle domain holding its values
    (an inserted key maps to the insertable domain it copies).
    """

    def __init__(self, oracle: ContainmentOracle, live: dict,
                 threshold: float, k: int) -> None:
        self.oracle = oracle
        self.threshold = threshold
        self.k = k
        self.live_keys = list(live)
        self.live_pos = np.asarray(
            [oracle.position[live[key]] for key in self.live_keys])
        self.key_index = {key: i for i, key in enumerate(self.live_keys)}
        self.recalls: list[float] = []
        self.precisions: list[float] = []
        self.top_k_recalls: list[float] = []

    def add(self, values, found: set, ranked: list) -> None:
        exact = self.oracle.containment(values)[self.live_pos]
        truth = {self.live_keys[i]
                 for i in np.nonzero(exact >= self.threshold)[0]}
        hits = len(found & truth)
        self.recalls.append(hits / len(truth) if truth else 1.0)
        self.precisions.append(hits / len(found) if found else 0.0)
        # A returned key counts when no k live domains contain more of
        # the query than it does.
        kth = np.partition(exact, -self.k)[-self.k]
        good = sum(1 for key, _ in ranked if key in self.key_index
                   and exact[self.key_index[key]] >= kth)
        self.top_k_recalls.append(good / self.k)

    def summary(self) -> dict:
        return {"recall": float(np.mean(self.recalls)),
                "precision": float(np.mean(self.precisions)),
                "topk_recall": float(np.mean(self.top_k_recalls))}

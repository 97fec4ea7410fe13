"""Exact containment from posting lists, independent of ``repro``.

``t(Q, X) = |Q ∩ X| / |Q|`` for every indexed domain ``X`` at once: map
each distinct value to an integer id, keep one posting list (the domains
holding it) per id, and count how often each domain occurs in the
posting lists of the query's values.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

import numpy as np


class ContainmentOracle:
    def __init__(self, domains: Mapping[object, Iterable]) -> None:
        self.keys = list(domains)
        self.position = {key: i for i, key in enumerate(self.keys)}
        vocab: dict = {}
        ids: list[int] = []
        lengths = np.empty(len(self.keys), dtype=np.int64)
        for i, key in enumerate(self.keys):
            before = len(ids)
            ids.extend(vocab.setdefault(v, len(vocab))
                       for v in set(domains[key]))
            lengths[i] = len(ids) - before
        self._vocab = vocab
        self.sizes = lengths
        value_ids = np.asarray(ids, dtype=np.int64)
        owners = np.repeat(np.arange(len(self.keys), dtype=np.int32),
                           lengths)
        order = np.argsort(value_ids, kind="stable")
        self._postings = owners[order]
        self._starts = np.zeros(len(vocab) + 1, dtype=np.int64)
        np.cumsum(np.bincount(value_ids, minlength=len(vocab)),
                  out=self._starts[1:])

    def overlaps(self, values: Iterable) -> np.ndarray:
        """``|Q ∩ X|`` for every domain, aligned with ``self.keys``."""
        vocab = self._vocab
        ids = np.fromiter((vocab[v] for v in set(values) if v in vocab),
                          dtype=np.int64)
        starts = self._starts[ids]
        lengths = self._starts[ids + 1] - starts
        total = int(lengths.sum())
        if total == 0:
            return np.zeros(len(self.keys), dtype=np.int64)
        # Gather every posting list of the query's values in one pass.
        offsets = np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
        gathered = self._postings[offsets + np.arange(total)]
        return np.bincount(gathered, minlength=len(self.keys))

    def containment(self, values: Iterable) -> np.ndarray:
        """``t(Q, X)`` for every domain, aligned with ``self.keys``."""
        query = set(values)
        return self.overlaps(query) / float(len(query))

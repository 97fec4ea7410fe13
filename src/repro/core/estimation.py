"""Containment estimation from signatures alone.

The index returns *candidates*; ranking or verifying them normally needs
the raw value sets.  When only signatures are available (the common case
at web scale — shipping 262M raw domains is exactly what the paper is
avoiding), containment can still be estimated by inverting Eq. 6:

    t̂(Q, X) = (x/q + 1) · ŝ / (1 + ŝ)

with ŝ the MinHash Jaccard estimate and ``q``, ``x`` the (known or
estimated) cardinalities.  This powers the top-k search extension
(:meth:`repro.core.ensemble.LSHEnsemble.query_top_k`) and lets pipelines
rank candidates without fetching any data.
"""

from __future__ import annotations

from repro.core.containment import jaccard_to_containment
from repro.minhash.lean import LeanMinHash
from repro.minhash.minhash import MinHash

__all__ = ["estimate_containment", "rank_candidates", "rank_order"]


def estimate_containment(query_signature: MinHash | LeanMinHash,
                         candidate_signature: MinHash | LeanMinHash,
                         query_size: int | None = None,
                         candidate_size: int | None = None) -> float:
    """Estimate ``t(Q, X)`` from two signatures.

    Sizes default to the signatures' own cardinality estimates.  The
    result is clipped to ``[0, 1]`` (the raw transform can exceed 1 when
    the Jaccard estimate is noisy and ``x > q``).
    """
    q = query_size if query_size is not None else max(
        1, query_signature.count())
    x = candidate_size if candidate_size is not None else max(
        1, candidate_signature.count())
    if q < 1 or x < 1:
        raise ValueError("sizes must be >= 1")
    s = query_signature.jaccard(candidate_signature)
    t = jaccard_to_containment(s, float(x), float(q))
    return min(1.0, max(0.0, float(t)))


def rank_candidates(query_signature: MinHash | LeanMinHash,
                    candidates: dict,
                    query_size: int | None = None,
                    sizes: dict | None = None,
                    ) -> list[tuple[object, float]]:
    """Rank candidate keys by estimated containment, descending.

    Parameters
    ----------
    query_signature:
        MinHash of the query domain.
    candidates:
        Mapping of candidate key -> signature.
    query_size:
        ``|Q|`` if known.
    sizes:
        Optional mapping of candidate key -> exact size; missing entries
        fall back to the signature's own estimate.

    Ties break on the key's string form so the order is deterministic.
    """
    sizes = sizes or {}
    return rank_order(
        (key,
         estimate_containment(query_signature, sig, query_size,
                              sizes.get(key)))
        for key, sig in candidates.items())


def rank_order(scored) -> list[tuple[object, float]]:
    """``(key, score)`` pairs best first: descending score, ties broken
    on the key's string form.  The one ranking order — local rankings
    and the router's merge of shard-scored candidates both use it."""
    return sorted(scored, key=lambda pair: (-pair[1], str(pair[0])))

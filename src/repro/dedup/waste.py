"""The ``duplicate_waste`` evaluation metric.

How much of a harvest run's fetch budget went to pages that added nothing:
exact re-fetches of pages already gathered, plus near-duplicates of earlier
pages (band-gated MinHash similarity, :func:`~repro.dedup.minhash.
band_similarity`, at or above the configured threshold).  The metric
replays a :class:`~repro.core.harvester.HarvestResult`'s fetched page
stream — seed results first, then each iteration's result pages — in
gathering order, so it is computable post-hoc from any backend's results
without touching the live engine.

``duplicate_waste = wasted fetches / total fetches`` in ``[0, 1]``; lower
is better.  0.0 means every fetched page was new, non-duplicate content.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import L2QConfig
from repro.dedup.minhash import band_similarity
from repro.dedup.signatures import PageSignatureCache


def _check_budget(num_queries: int) -> None:
    if num_queries < 0:
        # A negative prefix would silently answer for another budget.
        raise ValueError(f"num_queries must be >= 0, got {num_queries}")


class DuplicateWasteScorer:
    """Scores harvest runs for duplicate-fetch waste over one corpus.

    One scorer serves a whole evaluation: page signatures are computed at
    most once per corpus page (through a
    :class:`~repro.dedup.signatures.PageSignatureCache`, the kind the
    selection-time novelty estimate uses, so the two views cannot drift
    apart) and shared across all scored runs.  ``signatures``, a cache made
    with the same configuration over the same corpus, lets the scorer reuse
    the signatures the harvests already made.
    """

    def __init__(self, corpus, config: Optional[L2QConfig] = None,
                 signatures: Optional[PageSignatureCache] = None) -> None:
        self.corpus = corpus
        self.config = config if config is not None else L2QConfig()
        self.signatures = signatures if signatures is not None \
            else PageSignatureCache(self.config)

    def fetched_page_ids(self, result, num_queries: Optional[int] = None) -> List[str]:
        """The fetched page stream of a run, with repeats, in fetch order."""
        if num_queries is not None:
            _check_budget(num_queries)
        limit = len(result.iterations) if num_queries is None else num_queries
        fetched: List[str] = list(result.seed_page_ids)
        for record in result.iterations[:limit]:
            fetched.extend(record.result_page_ids)
        return fetched

    def _replay(self, result) -> List[Tuple[int, int]]:
        """Cumulative ``(fetched, wasted)`` after the seed and each iteration.

        A fetch is wasted when the page was already gathered earlier in the
        stream, or when its similarity to any earlier page meets
        ``dedup_similarity_threshold``.  Near-duplicate pages still count
        as gathered — a third copy is waste against either of the first
        two — so a distinct page's first fetch is waste exactly when some
        distinct page fetched before it is similar enough: one
        lower-triangular pass over the run's distinct pages in first-fetch
        order, and every budget's waste is read off the prefix counters.
        """
        stream = self.fetched_page_ids(result)
        distinct = list(dict.fromkeys(stream))
        signatures = self.signatures.signatures_of(
            [self.corpus.get_page(page_id) for page_id in distinct])
        similar = band_similarity(signatures, signatures, self.config.dedup_bands) \
            >= self.config.dedup_similarity_threshold
        near_duplicate = dict(zip(distinct, np.tril(similar, -1).any(axis=1).tolist()))
        seen = set()
        wasted = [0]
        for page_id in stream:
            wasted.append(wasted[-1] + (page_id in seen or near_duplicate[page_id]))
            seen.add(page_id)
        ends = [len(result.seed_page_ids)]
        for record in result.iterations:
            ends.append(ends[-1] + len(record.result_page_ids))
        return [(end, wasted[end]) for end in ends]

    def waste_by_budget(self, result,
                        budgets: Sequence[int]) -> Dict[int, float]:
        """Waste at each query budget, from a single replay of the run.

        A budget beyond the run's actual iterations reads the final
        checkpoint (the run stopped early; its stream simply ends); a
        negative budget is rejected.
        """
        for budget in budgets:
            _check_budget(budget)
        checkpoints = self._replay(result)
        out: Dict[int, float] = {}
        for budget in budgets:
            fetched, wasted = checkpoints[min(budget, len(checkpoints) - 1)]
            out[budget] = wasted / fetched if fetched else 0.0
        return out

    def waste(self, result, num_queries: Optional[int] = None) -> float:
        """Fraction of fetched pages that were duplicates or near-duplicates."""
        budget = len(result.iterations) if num_queries is None else num_queries
        return self.waste_by_budget(result, (budget,))[budget]

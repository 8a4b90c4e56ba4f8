"""Per-query expected novelty over a growing gathered-page set.

Context-aware L2Q (paper Sect. V) models redundancy at the *query* level:
how much of a candidate's recall is already covered by the fired context.
It cannot see page-level redundancy — a query whose result pages are
near-copies of pages already gathered scores exactly like one retrieving
genuinely new content.  :class:`NoveltyEstimator` closes that gap:

* gathered pages are fingerprinted incrementally (w-shingles → MinHash),
  O(new pages) per harvesting step — the same contract as
  :class:`~repro.core.candidates.CandidateStatistics` — and their
  signatures stacked into one matrix;
* a candidate query's *posting pages* — the pages it could retrieve,
  resolved through the entity's view of the engine's index
  (conjunctive match first, any-match fallback) — are scored for novelty:
  an already-gathered page contributes 0, an ungathered page contributes
  ``1 - max similarity`` against the gathered matrix under the band rule
  of :func:`~repro.dedup.minhash.band_similarity`;
* the query's expected novelty is the mean over its posting pages, 1.0
  when nothing is known (no postings), so an uninformed estimate never
  penalises a query.

All iteration is over sorted page ids and all hashing is seeded, so the
estimate is deterministic across runs and worker processes.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import L2QConfig
from repro.core.queries import Query
from repro.corpus.document import Page
from repro.dedup.minhash import band_similarity
from repro.dedup.signatures import PageSignatureCache


class NoveltyEstimator:
    """Estimates how much genuinely new content a candidate query buys."""

    def __init__(self, corpus, engine, entity, config: L2QConfig,
                 signatures: Optional[PageSignatureCache] = None) -> None:
        self.corpus = corpus
        self.engine = engine
        self.entity = entity
        self.config = config
        #: Signatures made with ``config``'s MinHash parameters; estimators
        #: of one corpus may share one cache.
        self.signatures = signatures if signatures is not None \
            else PageSignatureCache(config)
        #: Signatures of the gathered pages, in gathering order.
        self.gathered: Dict[str, np.ndarray] = {}
        self._gathered_matrix: Optional[np.ndarray] = None
        self._postings: Dict[Query, Tuple[str, ...]] = {}
        # Page novelty is stable until another page is gathered; caching it
        # lets one iteration's selection pass score each posting page once,
        # not once per candidate query.
        self._page_novelty: Dict[str, float] = {}

    # -- Fingerprinting -----------------------------------------------------
    def observe_page(self, page: Page) -> None:
        """Fold one gathered page into the gathered set (idempotent)."""
        if page.page_id in self.gathered:
            return
        self.gathered[page.page_id] = self.signatures.signature_of(page)
        self._gathered_matrix = None
        self._page_novelty.clear()

    def observe_pages(self, pages: Sequence[Page]) -> None:
        """Fold several gathered pages into the gathered set."""
        self.signatures.signatures_of(pages)
        for page in pages:
            self.observe_page(page)

    # -- Estimation --------------------------------------------------------
    def _posting_pages(self, query: Query) -> Tuple[str, ...]:
        """Pages of the entity universe a query could retrieve (sorted).

        Conjunctive matches first (the engine ranks with the seed query
        appended, which favours pages containing every query word); when a
        query has no conjunctive match — e.g. a domain-transferred query
        with only partial grounding — fall back to any-match postings.
        """
        cached = self._postings.get(query)
        if cached is None:
            view = self.engine.entity_index(self.entity.entity_id)
            matches = view.matching_documents(query, require_all=True)
            if not matches:
                matches = view.matching_documents(query, require_all=False)
            cached = tuple(sorted(matches))
            self._postings[query] = cached
        return cached

    def _score(self, page_ids: Sequence[str]) -> None:
        """Cache the novelty of every page in ``page_ids`` not yet scored."""
        missing = [page_id for page_id in page_ids
                   if page_id not in self._page_novelty]
        if not missing:
            return
        if not self.gathered:
            self._page_novelty.update(dict.fromkeys(missing, 1.0))
            return
        if self._gathered_matrix is None:
            self._gathered_matrix = np.stack(list(self.gathered.values()))
        signatures = self.signatures.signatures_of(
            [self.corpus.get_page(page_id) for page_id in missing])
        best = band_similarity(self._gathered_matrix, signatures,
                               self.config.dedup_bands).max(axis=0)
        self._page_novelty.update(zip(missing, (1.0 - best).tolist()))

    def page_novelty(self, page_id: str) -> float:
        """Novelty of one page against the gathered set: ``1 - max_sim``."""
        self._score((page_id,))
        return self._page_novelty[page_id]

    def expected_novelty(self, query: Query,
                         is_gathered: Callable[[str], bool]) -> float:
        """Mean novelty of the query's posting pages, in ``[0, 1]``.

        ``is_gathered`` tells which pages the session already holds; those
        contribute zero novelty (re-fetching them is pure waste).  A query
        with no posting pages returns 1.0 — no information, no penalty.
        """
        postings = self._posting_pages(query)
        if not postings:
            return 1.0
        fresh = [page_id for page_id in postings if not is_gathered(page_id)]
        self._score(fresh)
        total = 0.0
        for page_id in fresh:
            total += self._page_novelty[page_id]
        return total / len(postings)

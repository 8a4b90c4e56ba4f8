"""Per-query expected novelty over a growing gathered-page set.

Context-aware L2Q (paper Sect. V) models redundancy at the *query* level:
how much of a candidate's recall is already covered by the fired context.
It cannot see page-level redundancy — a query whose result pages are
near-copies of pages already gathered scores exactly like one retrieving
genuinely new content.  :class:`NoveltyEstimator` closes that gap:

* gathered pages are fingerprinted incrementally (w-shingles → MinHash)
  into an LSH :class:`~repro.dedup.index.NearDuplicateIndex`, O(new pages)
  per harvesting step — the same contract as
  :class:`~repro.core.candidates.CandidateStatistics`;
* a candidate query's *posting pages* — the pages it could retrieve,
  resolved through the entity's view of the engine's index
  (conjunctive match first, any-match fallback) — are scored for novelty:
  an already-gathered page contributes 0, an ungathered page contributes
  ``1 - max_similarity`` against the gathered index;
* the query's expected novelty is the mean over its posting pages, 1.0
  when nothing is known (no postings), so an uninformed estimate never
  penalises a query.

All iteration is over sorted page ids and all hashing is seeded, so the
estimate is deterministic across runs, threads and worker processes.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

from repro.core.config import L2QConfig
from repro.core.queries import Query
from repro.corpus.document import Page
from repro.dedup.index import NearDuplicateIndex
from repro.dedup.minhash import Signature
from repro.dedup.signatures import PageSignatureCache


class NoveltyEstimator:
    """Estimates how much genuinely new content a candidate query buys."""

    def __init__(self, corpus, engine, entity, config: L2QConfig) -> None:
        self.corpus = corpus
        self.engine = engine
        self.entity = entity
        self.config = config
        self.signatures = PageSignatureCache(config)
        self.index = NearDuplicateIndex(
            num_bands=config.dedup_bands,
            similarity_threshold=config.dedup_similarity_threshold)
        self._postings: Dict[Query, Tuple[str, ...]] = {}
        # Page novelty is stable until another page is gathered; cache it
        # against the index version so one iteration's selection pass scores
        # each posting page once, not once per candidate query.
        self._page_novelty: Dict[str, Tuple[int, float]] = {}

    # -- Fingerprinting -----------------------------------------------------
    def signature_of(self, page: Page) -> Signature:
        """The (cached) MinHash signature of one corpus page."""
        return self.signatures.signature_of(page)

    def observe_page(self, page: Page) -> None:
        """Fold one gathered page into the signature index (idempotent)."""
        self.index.add(page.page_id, self.signature_of(page))

    def observe_pages(self, pages: Sequence[Page]) -> None:
        """Fold several gathered pages into the signature index."""
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

    def page_novelty(self, page_id: str) -> float:
        """Novelty of one page against the gathered set: ``1 - max_sim``."""
        cached = self._page_novelty.get(page_id)
        if cached is not None and cached[0] == self.index.version:
            return cached[1]
        signature = self.signatures.get(page_id)
        if signature is None:
            signature = self.signature_of(self.corpus.get_page(page_id))
        novelty = 1.0 - self.index.max_similarity(signature)
        self._page_novelty[page_id] = (self.index.version, novelty)
        return novelty

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
        total = 0.0
        for page_id in postings:
            if is_gathered(page_id):
                continue
            total += self.page_novelty(page_id)
        return total / len(postings)

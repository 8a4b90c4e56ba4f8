"""The LM baseline: language-model feedback query selection.

The paper adapts the model-based feedback of Zhai & Lafferty (CIKM 2001):
*"In each iteration, it chooses the query with maximum likelihood on the k
most relevant current pages.  In particular, we use k = 1"* (Sect. VI-C).

Implementation: the ``k`` current pages the aspect classifier scores highest
define a feedback language model (maximum-likelihood page model with the
collection model subtracted, the standard mixture-feedback estimate); every
candidate query enumerated from the current pages is scored by its
log-likelihood under the feedback model, and the best unfired candidate is
selected.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import repeat
from typing import Dict, List, Optional, Sequence

from repro.core.queries import Query
from repro.core.selection import QuerySelector
from repro.core.session import HarvestSession
from repro.corpus.document import Page

_EPSILON = 1e-9


class LanguageModelFeedbackSelection(QuerySelector):
    """Query selection by maximum likelihood under a feedback language model."""

    name = "LM"

    def __init__(self, k: int = 1, background_weight: float = 0.5) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        if not 0.0 <= background_weight < 1.0:
            raise ValueError("background_weight must be in [0, 1)")
        self.k = k
        self.background_weight = background_weight

    # -- Selection ------------------------------------------------------------
    def select(self, session: HarvestSession) -> Optional[Query]:
        if not session.current_pages:
            return None
        feedback_pages = self._top_relevant_pages(session)
        if not feedback_pages:
            feedback_pages = session.current_pages[: self.k]
        feedback_model = self._feedback_model(session, feedback_pages)
        if not feedback_model:
            return None

        unfired = [q for q in self._candidates(session) if not session.is_fired(q)]
        if not unfired:
            return None
        # Logs are taken once per model term.  Each query's sum runs in query
        # order from 0, like the per-word reference in tests/oracles.py, so
        # the scores match it bit for bit; the best unfired query is the
        # minimum of the ranking key.
        log_model = {term: math.log(p) for term, p in feedback_model.items()}
        unseen = repeat(math.log(_EPSILON))
        return min(unfired, key=lambda q: (
            -sum(map(log_model.get, q, unseen)), q))

    # -- Internals -------------------------------------------------------------
    def _top_relevant_pages(self, session: HarvestSession) -> List[Page]:
        scored = [(session.relevance.score(page), page) for page in session.current_pages]
        scored.sort(key=lambda pair: (-pair[0], pair[1].page_id))
        return [page for _, page in scored[: self.k]]

    def _feedback_model(self, session: HarvestSession,
                        pages: Sequence[Page]) -> Dict[str, float]:
        counts: Counter = Counter()
        for page in pages:
            counts.update(t for t in page.tokens
                          if not session.corpus.tokenizer.is_stopword(t))
        total = sum(counts.values())
        if total == 0:
            return {}
        index = session.engine.entity_index(session.entity.entity_id)
        model: Dict[str, float] = {}
        for term, count in counts.items():
            page_probability = count / total
            background = index.collection_probability(term)
            adjusted = page_probability - self.background_weight * background
            if adjusted > 0:
                model[term] = adjusted
        normaliser = sum(model.values())
        if normaliser <= 0:
            return {term: count / total for term, count in counts.items()}
        return {term: value / normaliser for term, value in model.items()}

    def _candidates(self, session: HarvestSession) -> List[Query]:
        return list(session.candidates.sorted_queries())

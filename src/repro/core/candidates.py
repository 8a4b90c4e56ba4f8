"""Incrementally-maintained candidate-query statistics.

Every selection strategy needs the pool of candidate queries enumerable from
the pages gathered so far.  Re-running
:meth:`~repro.core.queries.QueryEnumerator.enumerate_from_pages` over the
*full* working set on every ``select()`` call makes selection cost grow
superlinearly with harvested pages — the exact failure mode the paper's
efficiency experiment (Fig. 14) warns against.  :class:`CandidateStatistics`
instead folds only *new* pages' n-grams into a persistent
:class:`~repro.core.queries.QueryStatistics` as they arrive, so each
iteration's selection cost is amortised O(new pages).

The structure is owned by :class:`~repro.core.session.HarvestSession`, which
folds pages in :meth:`~repro.core.session.HarvestSession.add_pages`; the
statistics are therefore always in sync with ``session.current_pages``.
Because pages are folded in gathering order, the resulting statistics are
bit-for-bit identical to a from-scratch enumeration over the working set.

The pool records queries and page membership only.  The words of the
gathered pages, which the entity phase grounds domain queries with, are read
from the session's :class:`~repro.core.utility.GraphTables`, per selection
and from the pages that selection is given.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set

from repro.core.queries import Query, QueryEnumerator, QueryStatistics
from repro.corpus.document import Page


class CandidateStatistics:
    """Candidate-query pool kept in sync with a growing page working set."""

    def __init__(self, enumerator: QueryEnumerator) -> None:
        self.enumerator = enumerator
        self.statistics = QueryStatistics()
        self._page_ids: Set[str] = set()
        self._sorted_queries: Optional[List[Query]] = None

    # -- Folding -----------------------------------------------------------
    def add_page(self, page: Page) -> bool:
        """Fold one page's n-grams into the pool; returns False if already seen."""
        if page.page_id in self._page_ids:
            return False
        self._page_ids.add(page.page_id)
        counts = self.enumerator.enumerate_from_page(page)
        for query, count in counts.items():
            self.statistics.record(query, page.page_id, page.entity_id, count)
        if counts:
            self._sorted_queries = None
        return True

    def add_pages(self, pages: Sequence[Page]) -> int:
        """Fold several pages; returns how many were genuinely new."""
        return sum(1 for page in pages if self.add_page(page))

    # -- Queries -----------------------------------------------------------
    def queries(self) -> List[Query]:
        """All candidate queries, in first-occurrence order."""
        return self.statistics.queries()

    def sorted_queries(self) -> List[Query]:
        """All candidate queries, lexicographically sorted.

        The sort is cached between page additions; a copy is returned so
        callers can never corrupt the cache in place.
        """
        if self._sorted_queries is None:
            self._sorted_queries = sorted(self.statistics.occurrences)
        return list(self._sorted_queries)

    def unfired_sorted_queries(self, fired: Set[Query]) -> List[Query]:
        """Sorted candidates not yet fired."""
        if not fired:
            return self.sorted_queries()
        return [q for q in self.sorted_queries() if q not in fired]

    # -- Introspection -----------------------------------------------------
    @property
    def num_pages(self) -> int:
        """How many distinct pages have been folded in."""
        return len(self._page_ids)

    @property
    def num_queries(self) -> int:
        """How many distinct candidate queries the pool currently holds."""
        return len(self.statistics.occurrences)

    def has_page(self, page_id: str) -> bool:
        """Whether a page has already been folded into the pool."""
        return page_id in self._page_ids

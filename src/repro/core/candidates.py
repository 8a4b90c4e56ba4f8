"""Incrementally-maintained candidate-query statistics.

Every selection strategy needs the pool of candidate queries enumerable from
the pages gathered so far.  Re-enumerating the *full* working set on every
``select()`` call makes selection cost grow superlinearly with harvested
pages — the exact failure mode the paper's efficiency experiment (Fig. 14)
warns against.  :class:`CandidateStatistics` instead folds only *new* pages
into the pool as they arrive, and folding a page enumerates nothing: the
page's n-grams are a row of the entity's
:class:`~repro.core.queries.NgramTable`, so a fold is one indexed add into
two integer arrays over the table's query ids, occurrences and page
frequency.  A page the table does not hold raises ``ValueError``.

The structure is owned by :class:`~repro.core.session.HarvestSession`, which
folds pages in :meth:`~repro.core.session.HarvestSession.add_pages`; the
statistics are therefore always in sync with ``session.current_pages``.
The pool is the table ids with a non-zero page frequency; because ids are
numbered in lexicographic order, the pool comes out sorted, and the
occurrence ranking of :func:`~repro.core.queries.prune_queries` is one
stable argsort.  Neither depends on the order pages were folded in.

The pool records queries and page membership only: the rows of the
folded pages in the table, in folding order, are the page vertices of the
entity phase's graphs, whose words are read from the entity's
:class:`~repro.core.utility.GraphTables` (whose page rows are the n-gram
table's).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Set

import numpy as np

from repro.core.queries import NgramTable, Query, prune_queries
from repro.corpus.document import Page


class CandidateStatistics:
    """Candidate-query pool kept in sync with a growing page working set.

    ``table`` returns the n-gram table holding every page that may be
    folded; it is called once, on first use, so a pool that never folds a
    page never needs one.
    """

    def __init__(self, table: Callable[[], NgramTable]) -> None:
        self._load_table = table
        self._table: Optional[NgramTable] = None
        #: Per table query id: occurrences on the folded pages, and how
        #: many folded pages hold it.
        self.occurrences = np.zeros(0, dtype=np.int64)
        self.page_frequency = np.zeros(0, dtype=np.int64)
        self._page_ids: Set[str] = set()
        self._page_rows: List[int] = []
        self._sorted_queries: Optional[List[Query]] = None

    @property
    def table(self) -> NgramTable:
        """The n-gram table the pool counts over (loaded on first use)."""
        if self._table is None:
            table = self._load_table()
            self.occurrences = np.zeros(table.num_queries, dtype=np.int64)
            self.page_frequency = np.zeros(table.num_queries, dtype=np.int64)
            self._table = table
        return self._table

    # -- Folding -----------------------------------------------------------
    def add_page(self, page: Page) -> bool:
        """Fold one page's n-grams into the pool; returns False if already seen."""
        if page.page_id in self._page_ids:
            return False
        ids, counts = self.table.row(page.page_id)
        self._page_ids.add(page.page_id)
        self._page_rows.append(self.table.rows[page.page_id])
        if ids.size:
            # A row's ids are distinct, so no indexed add is lost to a repeat.
            self.occurrences[ids] += counts
            self.page_frequency[ids] += 1
            self._sorted_queries = None
        return True

    def add_pages(self, pages: Sequence[Page]) -> int:
        """Fold several pages; returns how many were genuinely new."""
        return sum(1 for page in pages if self.add_page(page))

    # -- Queries -----------------------------------------------------------
    def _queries_of(self, ids: np.ndarray) -> List[Query]:
        if not ids.size:  # also before the table is loaded
            return []
        queries = self.table.queries
        return [queries[index] for index in ids.tolist()]

    def ids(self) -> np.ndarray:
        """Table ids of all candidate queries, in increasing (lexicographic)
        order."""
        return np.flatnonzero(self.page_frequency)

    def sorted_queries(self) -> List[Query]:
        """All candidate queries, lexicographically sorted.

        The list is cached between page additions; a copy is returned so
        callers can never corrupt the cache in place.
        """
        if self._sorted_queries is None:
            self._sorted_queries = self._queries_of(self.ids())
        return list(self._sorted_queries)

    def unfired_sorted_queries(self, fired: Set[Query]) -> List[Query]:
        """Sorted candidates not yet fired."""
        if not fired:
            return self.sorted_queries()
        return [q for q in self.sorted_queries() if q not in fired]

    def pruned(self, max_queries: Optional[int] = None) -> np.ndarray:
        """Table ids of the candidates by decreasing occurrences, ties
        lexicographic, at most ``max_queries`` of them."""
        return prune_queries(self.occurrences, self.page_frequency,
                             max_queries=max_queries)

    @property
    def page_rows(self) -> np.ndarray:
        """The table rows of the folded pages, in folding order."""
        return np.array(self._page_rows, dtype=np.int64)

    # -- Introspection -----------------------------------------------------
    @property
    def num_pages(self) -> int:
        """How many distinct pages have been folded in."""
        return len(self._page_ids)

    @property
    def num_queries(self) -> int:
        """How many distinct candidate queries the pool currently holds."""
        return int(np.count_nonzero(self.page_frequency))

    def has_page(self, page_id: str) -> bool:
        """Whether a page has already been folded into the pool."""
        return page_id in self._page_ids

"""The fetch boundary between the harvesting loop and the search engine.

Every fetch of the loop of Fig. 1 — the entity's seed query ``q(0)`` and
each selected query after it — goes through :meth:`SearchClient.fetch`:
one engine call (charged to the run's
:class:`~repro.search.engine.RunFetchAccounting`) plus the
materialisation of the result pages.  The engine is in-process and
instant, as in the paper; Fig. 14 prices each fetched page at the engine's
fixed per-page cost instead of measuring it.  The fetch stays one method
rather than inline in the loop because ``perfbench`` times it by name as
its ``search.fetch_s`` layer.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.corpus.document import Page
from repro.search.engine import RunFetchAccounting, SearchEngine, SearchResult


class SearchClient:
    """Fires one query at the engine and returns its ranked results and pages."""

    def __init__(self, engine: SearchEngine) -> None:
        self.engine = engine

    def fetch(self, entity_id: str, query: Optional[Sequence[str]] = None,
              accounting: Optional[RunFetchAccounting] = None
              ) -> Tuple[Sequence[SearchResult], List[Page]]:
        """``(results, pages)`` of ``query``, or of the entity's seed query
        when ``query`` is ``None``."""
        if query is None:
            results = self.engine.seed_results(entity_id, accounting=accounting)
        else:
            results = self.engine.search(entity_id, list(query),
                                         accounting=accounting)
        return results, self.engine.fetch_pages(results)

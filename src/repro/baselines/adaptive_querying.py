"""The AQ baseline: adaptive query selection.

Adapted from Zerfos, Cho & Ntoulas, *Downloading textual hidden web content
through keyword queries* (JCDL 2005), which crawls a text database by
repeatedly choosing the keyword expected to return the most new documents,
using statistics estimated from the documents downloaded so far.  As the
paper notes, the original policy has no notion of relevance, so *"the query
statistics are only computed over relevant pages instead of all pages"*
(Sect. VI-C).

Implementation: for every candidate query enumerated from the current
result pages, estimate

* ``support`` — how many classifier-relevant current pages contain the
  query (the adaptive frequency statistic); while no current page is
  relevant, how many current pages contain it, and
* ``novelty`` — one minus the fraction of the query's containing pages that
  some past query already covers (a crude estimate of how many *new*
  documents the query would return, the heart of the adaptive policy);
  1.0 for a query no current page contains.

The score is ``support * (0.5 + 0.5 * novelty)``; the best unfired candidate
wins, the lexicographically smallest among equal scores.  Candidates are
ids of the entity's :class:`~repro.core.utility.GraphTables`, in
lexicographic order, and containment is read from the same tables, so one
matrix scores every candidate.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.queries import Query
from repro.core.selection import QuerySelector
from repro.core.session import HarvestSession


class AdaptiveQueryingSelection(QuerySelector):
    """Frequency-adaptive query selection restricted to relevant pages."""

    name = "AQ"

    def select(self, session: HarvestSession) -> Optional[Query]:
        if not session.current_pages:
            return None
        tables = session.tables()
        fired = session.fired_ids(tables)
        candidates = tables.ngram_ids[session.candidates.ids()]
        candidates = candidates[~np.isin(candidates, fired)]
        if not candidates.size:
            return None

        pages = session.candidates.page_rows
        contained = tables.containment(pages, candidates)
        relevant = np.array([session.relevance(page) == 1
                             for page in session.current_pages])
        scoring = relevant if relevant.any() else np.ones(pages.size, dtype=bool)
        # Every past query counts, also one outside the id space (fired by
        # another selector, or not an n-gram of these pages).
        covered = np.array([any(map(page.contains_all, session.past_queries))
                            for page in session.current_pages], dtype=np.float64)
        count = np.asarray(contained.sum(axis=0)).ravel()
        support = contained.T @ scoring.astype(np.float64)
        already = contained.T @ covered
        novelty = 1.0 - np.divide(already, count, out=np.zeros(candidates.size),
                                  where=count > 0)
        score = support * (0.5 + 0.5 * novelty)
        return tables.queries[candidates[int(np.argmax(score))]]

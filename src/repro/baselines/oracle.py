"""The ideal (oracle) strategy used as the normalisation upper bound.

Sect. VI-A: *"We then select queries to maximize the product of their actual
coverage and precision, which can be obtained by feeding each candidate
query to the search engine.  Thus, it is clearly infeasible in real
applications, and only acts as a performance upper bound for
normalization."*

The ideal selector therefore (a) enumerates candidates from the *entire*
page universe of the entity, (b) feeds every candidate to the engine
without cost accounting, and (c) greedily picks the candidate that maximises
``precision x recall`` of the cumulative gathered set, judged with the
ground-truth relevance function.

(a) and (b) do not depend on the aspect, so they run once per entity: an
:class:`IdealPool` holds the entity's candidates and a candidates × pages
matrix of the pages each one retrieves, ranked in one batched engine call
(:meth:`~repro.search.engine.SearchEngine.retrieve_many`).  The candidates
come from the session's :class:`~repro.core.queries.NgramTable`, the
entity's pages enumerated once and shared with every session of the
entity, so building a pool enumerates nothing: ordering the table's
queries by page frequency is one stable argsort.  The pool is built on
the entity's first selection and kept in a cache that a prepared split
shares among the entity's aspect sessions
(:attr:`repro.eval.runner.PreparedSplit.ideal_pools`).  (c) is then one
sparse product with the gathered and relevant masks and an argmax per
selection, and chooses exactly what the per-candidate loop
``tests/oracles.py::reference_ideal_select`` chooses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np
from scipy import sparse

from repro.aspects.relevance import RelevanceFunction
from repro.core.queries import Query
from repro.core.selection import QuerySelector
from repro.core.session import HarvestSession

#: Pools by ``(entity_id, max_candidates)``; one cache serves one corpus,
#: engine and configuration (a prepared split, or a single selector).
IdealPoolCache = Dict[Tuple[str, int], "IdealPool"]


@dataclass(frozen=True)
class IdealPool:
    """One entity's candidate pool and the pages each candidate retrieves.

    ``candidates`` are the entity's queries by descending page frequency,
    ties by query, cut to the cap; ``retrieval`` is a 0/1 candidates ×
    pages CSR over the entity's pages in corpus order (``page_ids``), and
    ``retrieves_nothing`` masks the candidates whose result list is empty.
    A pool is immutable once built and a pure function of the corpus, the
    engine, the entity, the configuration and the cap.
    """

    page_ids: Tuple[str, ...]
    candidates: Tuple[Query, ...]
    rows: Dict[Query, int]
    retrieval: sparse.csr_matrix
    retrieves_nothing: np.ndarray

    @classmethod
    def build(cls, session: HarvestSession, max_candidates: int) -> "IdealPool":
        # The table's rows are the entity's pages in corpus order, and its
        # ids sort as queries do, so a stable sort by descending page
        # frequency breaks ties by query.
        table = session.candidates.table
        order = np.argsort(-table.page_frequency(), kind="stable")[:max_candidates]
        candidates = [table.queries[index] for index in order.tolist()]
        retrieved = session.engine.retrieve_many(session.entity.entity_id, candidates)
        lengths = np.asarray([len(hits) for hits in retrieved], dtype=np.int64)
        indptr = np.concatenate([[0], np.cumsum(lengths)])
        indices = np.asarray([table.rows[page_id] for hits in retrieved
                              for page_id, _ in hits], dtype=np.int64)
        retrieval = sparse.csr_matrix(
            (np.ones(indices.size, dtype=np.int64), indices, indptr),
            shape=(len(candidates), len(table.page_ids)))
        return cls(page_ids=table.page_ids,
                   candidates=tuple(candidates),
                   rows={query: row for row, query in enumerate(candidates)},
                   retrieval=retrieval,
                   retrieves_nothing=lengths == 0)


class IdealSelection(QuerySelector):
    """Greedy oracle maximising actual coverage x precision per iteration.

    ``pools`` is the cache the entity's pool is read from and added to; a
    prepared split passes the one its aspect sessions share, and a selector
    built without one keeps a private cache.
    """

    name = "IDEAL"

    def __init__(self, ground_truth: RelevanceFunction,
                 max_candidates: int = 3000,
                 pools: Optional[IdealPoolCache] = None) -> None:
        if max_candidates < 1:
            raise ValueError("max_candidates must be >= 1")
        self.ground_truth = ground_truth
        self.max_candidates = max_candidates
        self.pools: IdealPoolCache = {} if pools is None else pools
        #: Ground-truth labels of each entity's pages, in corpus order.
        self._relevant: Dict[str, np.ndarray] = {}

    def select(self, session: HarvestSession) -> Optional[Query]:
        relevant = self._relevant_pages(session)
        total_relevant = int(relevant.sum())
        if not total_relevant:
            return None
        pool = self._pool(session)

        gathered_ids = set(session.current_page_ids())
        gathered = np.asarray([page_id in gathered_ids for page_id in pool.page_ids],
                              dtype=bool)
        # Per candidate q, the pages and the relevant pages R(q) adds to the
        # gathered set G; then |G ∪ R(q)| and |(G ∪ R(q)) ∩ Rel|, as integers.
        added = pool.retrieval @ np.column_stack(
            [~gathered, relevant & ~gathered]).astype(np.int64)
        union = len(gathered_ids) + added[:, 0]
        covered = int((gathered & relevant).sum()) + added[:, 1]

        valid = ~pool.retrieves_nothing
        for query in session.fired_queries:
            row = pool.rows.get(query)
            if row is not None:
                valid[row] = False
        rows = np.flatnonzero(valid)
        if not rows.size:
            return None
        covered, union = covered[rows], union[rows]
        scores = (covered / union) * (covered / total_relevant)
        # The first maximum in candidate order wins, as in the loop's ``>``.
        return pool.candidates[rows[np.argmax(scores)]]

    def _relevant_pages(self, session: HarvestSession) -> np.ndarray:
        entity_id = session.entity.entity_id
        relevant = self._relevant.get(entity_id)
        if relevant is None:
            relevant = np.asarray([self.ground_truth(page) == 1
                                   for page in session.corpus.pages_of(entity_id)],
                                  dtype=bool)
            self._relevant[entity_id] = relevant
        return relevant

    def _pool(self, session: HarvestSession) -> IdealPool:
        """The entity's pool, built on its first selection.

        Sessions a caller runs on threads of its own may both build it;
        the builds are identical, so whichever lands first is kept.
        """
        key = (session.entity.entity_id, self.max_candidates)
        pool = self.pools.get(key)
        if pool is None:
            pool = self.pools.setdefault(key, IdealPool.build(session,
                                                              self.max_candidates))
        return pool

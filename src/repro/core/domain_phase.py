"""The domain phase of domain-aware L2Q (Sect. IV-B).

From the pages of the peer (domain) entities, enumerate queries and
templates, build the domain reinforcement graph, and infer the utilities of
templates (and queries) for one aspect.  The graph does not depend on the
aspect, so a :class:`DomainPhase` builds it once per domain corpus and each
aspect adds only its regularization and one joint solve.  The resulting
:class:`DomainModel` is what the per-iteration entity phase consumes — the
template utilities become extra regularization, and the frequently-occurring
domain queries expand the target entity's candidate pool.

:func:`enumerate_domain_queries` enumerates every domain page once, into an
:class:`~repro.core.queries.NgramTable`, and keeps only what outlives the
table: the pruned queries, their entity support, and which pages hold each
one (the HR baseline's containment matrix).  A prepared split enumerates
its domain once, through :meth:`DomainPhase.domain_queries`, for both the
domain phase and HR.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.aspects.relevance import RelevanceFunction
from repro.core.config import L2QConfig
from repro.core.queries import NgramTable, Query, QueryEnumerator, prune_queries
from repro.core.templates import Template
from repro.core.utility import (
    GraphAssembler,
    GraphTables,
    page_regularizations,
    template_scale,
)
from repro.corpus.corpus import Corpus
from repro.corpus.document import Page
from repro.graph.random_walk import RegularizationProblem, UtilitySolver


@dataclass
class DomainModel:
    """Knowledge learnt once from the domain entities for one target aspect."""

    domain: str
    aspect: str
    num_domain_entities: int
    num_domain_pages: int
    template_precision: Dict[Template, float] = field(default_factory=dict)
    template_recall: Dict[Template, float] = field(default_factory=dict)
    template_recall_all: Dict[Template, float] = field(default_factory=dict)
    query_precision: Dict[Query, float] = field(default_factory=dict)
    query_recall: Dict[Query, float] = field(default_factory=dict)
    query_entity_support: Dict[Query, int] = field(default_factory=dict)
    #: The domain's queries: the split's :attr:`DomainQueries.queries`,
    #: one list shared by every aspect's model (read-only).  A harvester
    #: numbers them with each entity's n-grams (see
    #: :mod:`repro.core.session`).
    domain_queries: Sequence[Query] = ()
    #: Positions in ``domain_queries`` of the queries that occur with many
    #: domain entities, most entities first (ties lexicographic).
    frequent: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64),
                                 compare=False)

    @cached_property
    def template_scales(self) -> Tuple[float, float, float]:
        """The :func:`~repro.core.utility.template_scale` divisors of the
        precision, recall and recall-all template utilities, found once per
        model: every session that reads the model shares them."""
        return tuple(map(template_scale, (self.template_precision, self.template_recall,
                                          self.template_recall_all)))

    @property
    def frequent_queries(self) -> List[Query]:
        """The frequent domain queries, most entities first."""
        return [self.domain_queries[position] for position in self.frequent.tolist()]

    def best_queries_by_precision(self, limit: int = 0) -> List[Query]:
        """Domain queries ranked by learnt precision (for the +q ablation)."""
        ranked = sorted(self.query_precision, key=lambda q: (-self.query_precision[q], q))
        return ranked[:limit] if limit > 0 else ranked

    def best_queries_by_recall(self, limit: int = 0) -> List[Query]:
        """Domain queries ranked by learnt recall (for the +q ablation)."""
        ranked = sorted(self.query_recall, key=lambda q: (-self.query_recall[q], q))
        return ranked[:limit] if limit > 0 else ranked

    def is_empty(self) -> bool:
        """True when the model was learnt from zero domain entities."""
        return self.num_domain_entities == 0 or not self.query_precision


@dataclass(frozen=True)
class _DomainGraph:
    """The aspect-independent part of the domain phase, built once."""

    pages: List[Page]
    queries: List[Query]
    query_entity_support: Dict[Query, int]
    frequent: np.ndarray
    #: The template vertices, in vertex order.
    templates: List[Template]
    #: ``None`` when the domain yields no pages or no queries.
    solver: Optional[UtilitySolver]


class DomainPhase:
    """Learns :class:`DomainModel` objects from a domain corpus, one per aspect.

    The first :meth:`learn` enumerates the domain queries (unless
    :meth:`domain_queries` already did) and builds the graph and its
    solver; later calls reuse them.
    """

    def __init__(self, domain_corpus: Corpus, config: Optional[L2QConfig] = None) -> None:
        self.corpus = domain_corpus
        self.config = config if config is not None else L2QConfig()
        self.config.validate()
        self._assembler = GraphAssembler(domain_corpus.type_system)
        self._queries: Optional[DomainQueries] = None
        self._graph: Optional[_DomainGraph] = None

    # -- Public API ----------------------------------------------------------
    def learn(self, aspect: str, relevance: RelevanceFunction) -> DomainModel:
        """Run the domain phase for one aspect.

        Parameters
        ----------
        aspect:
            The target aspect name (used only for bookkeeping).
        relevance:
            The relevance function ``Y`` (normally the pre-trained aspect
            classifier) evaluated on domain pages to derive regularization.
        """
        domain_graph = self._domain_graph()
        model = DomainModel(
            domain=self.corpus.domain,
            aspect=aspect,
            num_domain_entities=self.corpus.num_entities(),
            num_domain_pages=len(domain_graph.pages),
        )
        if domain_graph.solver is None:
            return model

        page_precision, page_recall, page_recall_all = page_regularizations(
            domain_graph.pages, relevance)
        (precision,), (recall, recall_all) = domain_graph.solver.solve_joint(
            [RegularizationProblem(page_regularization=page_precision)],
            [RegularizationProblem(page_regularization=page_recall),
             RegularizationProblem(page_regularization=page_recall_all)])

        templates, queries = domain_graph.templates, domain_graph.queries
        model.template_precision = dict(zip(templates, precision.template_values.tolist()))
        model.template_recall = dict(zip(templates, recall.template_values.tolist()))
        model.template_recall_all = dict(zip(templates,
                                             recall_all.template_values.tolist()))
        model.query_precision = dict(zip(queries, precision.query_values.tolist()))
        model.query_recall = dict(zip(queries, recall.query_values.tolist()))
        model.query_entity_support = dict(domain_graph.query_entity_support)
        model.domain_queries = queries
        model.frequent = domain_graph.frequent
        return model

    def domain_queries(self) -> DomainQueries:
        """The domain corpus's pruned queries, enumerated on the first call."""
        if self._queries is None:
            self._queries = enumerate_domain_queries(list(self.corpus.iter_pages()),
                                                     self.config)
        return self._queries

    # -- Internals -------------------------------------------------------------
    def _domain_graph(self) -> _DomainGraph:
        if self._graph is not None:
            return self._graph
        domain = self.domain_queries()
        pages, queries = domain.pages, domain.queries
        support = domain.entity_support.tolist()
        threshold = self.config.domain_support_threshold(self.corpus.num_entities())
        frequent = sorted((position for position, count in enumerate(support)
                           if count >= threshold),
                          key=lambda position: (-support[position], queries[position]))
        frequent = np.array(frequent, dtype=np.int64)
        frequent.flags.writeable = False  # every aspect's model shares it
        solver, templates = None, []
        if queries:
            tables = GraphTables(self.corpus.type_system, pages, domain_queries=queries)
            assembled = self._assembler.assemble(tables, np.arange(len(pages)),
                                                 tables.domain_ids, use_templates=True)
            templates = [tables.templates[index] for index in assembled.templates.tolist()]
            solver = assembled.solver(self.config)
        self._graph = _DomainGraph(pages=pages, queries=queries,
                                   query_entity_support=dict(zip(queries, support)),
                                   frequent=frequent,
                                   templates=templates, solver=solver)
        return self._graph


@dataclass(frozen=True, eq=False)
class DomainQueries:
    """The pruned queries of a domain's pages and what is known of each.

    The domain phase and the HR baseline's domain statistics both start
    from these.
    """

    pages: List[Page]
    #: Most frequent first (ties lexicographic).
    queries: List[Query]
    #: Per query: how many distinct entities' pages hold it.
    entity_support: np.ndarray
    #: 0/1 ``queries × pages`` CSR: which pages hold each query as an n-gram.
    containing: sparse.csr_matrix


def enumerate_domain_queries(pages: Sequence[Page], config: L2QConfig) -> DomainQueries:
    """The domain queries of ``pages``, each page enumerated once.

    Every n-gram of the pages is enumerated (no entity's words are
    excluded); those on at least ``config.domain_min_query_pages`` pages
    are kept, most frequent first, at most ``config.max_domain_queries`` of
    them.  The n-gram table is dropped once they are known.
    """
    pages = list(pages)
    table = NgramTable.build(QueryEnumerator(
        max_length=config.max_query_length,
        min_word_length=config.min_query_word_length,
    ), pages)
    kept = prune_queries(table.occurrences(), table.page_frequency(),
                         min_page_frequency=config.domain_min_query_pages,
                         max_queries=config.max_domain_queries)
    containing = table.containment(kept)
    # Entity support: the number of distinct entities in each query's row.
    entity_ids, entity_of_page = np.unique([page.entity_id for page in pages],
                                           return_inverse=True)
    page_entity = sparse.csr_matrix(
        (np.ones(len(pages)), (np.arange(len(pages)), entity_of_page)),
        shape=(len(pages), len(entity_ids)))
    return DomainQueries(
        pages=pages,
        queries=[table.queries[index] for index in kept.tolist()],
        entity_support=(containing @ page_entity).getnnz(axis=1),
        containing=containing)

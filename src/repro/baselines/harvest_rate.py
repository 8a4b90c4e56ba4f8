"""The HR baseline: harvest-rate heuristic query selection.

Adapted from Wu, Wen, Liu & Ma, *Query selection techniques for efficient
crawling of structured web sources* (ICDE 2006).  The original method crawls
structured databases by preferring queries with a high *harvest rate* (the
fraction of retrieved records that are new/useful), estimated from current
results and from domain data.  Following the paper's adaptation
(Sect. VI-C): the query/record model becomes a bag of words, relevance is
incorporated (harvest rate = fraction of containing pages that are
relevant), and the statistics of each query are averaged over its templates
because HR is the only baseline that exploits domain data.

Implementation: the candidate pool is the session's n-grams plus every
domain query that has none of the entity's excluded words.  A query's score
is the mean of the rates it has: its *current* rate (the fraction of the
current pages containing it that are relevant, if any contains it) and its
template-averaged *domain* score (if it is a domain query); 0.0 if it has
neither.  The unfired query with the highest score wins, the
lexicographically smallest among equal scores.  The pool is a mask over the
ids of the entity's :class:`~repro.core.utility.GraphTables`, which number
its n-grams and the domain queries in one lexicographic space, and
containment is read from the same tables, so one matrix scores the whole
pool.

The domain side starts from
:class:`~repro.core.domain_phase.DomainQueries`, the domain phase's own
enumeration: a prepared split enumerates its domain pages once for both.
A query's domain rate reads which pages hold it from that object's
containment matrix, so no per-query page sets are kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.aspects.relevance import RelevanceFunction
from repro.core.config import L2QConfig
from repro.core.domain_phase import DomainQueries, enumerate_domain_queries
from repro.core.queries import Query
from repro.core.selection import QuerySelector
from repro.core.session import HarvestSession
from repro.core.templates import Template, abstract_queries
from repro.corpus.corpus import Corpus
from repro.corpus.document import Page
from repro.corpus.knowledge_base import TypeSystem


@dataclass
class HarvestRateDomain:
    """The aspect-independent part of the HR statistics of a domain corpus.

    Its domain queries (as the domain phase enumerates them), which pages
    contain each one, and each one's templates; every aspect's
    :class:`HarvestRateStatistics` applies only its relevance to them.
    """

    pages: List[Page]
    #: The domain queries, most frequent first (the domain phase's list).
    queries: List[Query]
    #: Each domain query's templates, in ``queries`` order.
    query_templates: Dict[Query, Tuple[Template, ...]]
    #: Binary ``queries × pages`` matrix: which of ``pages`` contain each
    #: query (rows in ``query_templates`` order).
    containing: sparse.csr_matrix

    @classmethod
    def from_corpus(cls, domain_corpus: Corpus,
                    config: Optional[L2QConfig] = None) -> "HarvestRateDomain":
        """Enumerate and prune the domain queries and abstract their templates."""
        config = config if config is not None else L2QConfig()
        return cls.from_queries(
            enumerate_domain_queries(list(domain_corpus.iter_pages()), config),
            domain_corpus.type_system)

    @classmethod
    def from_queries(cls, domain: DomainQueries,
                     type_system: TypeSystem) -> "HarvestRateDomain":
        """Abstract the templates of already-enumerated domain queries."""
        templates = abstract_queries(domain.queries, type_system)
        return cls(pages=domain.pages, queries=domain.queries,
                   query_templates=dict(zip(domain.queries, templates)),
                   containing=domain.containing)


@dataclass
class HarvestRateStatistics:
    """Domain-side harvest-rate statistics, computed once per (domain, aspect).

    ``domain_queries`` are the queries of ``query_harvest_rate`` in order:
    statistics of a :class:`HarvestRateDomain` keep the domain phase's own
    list, which a harvester numbers with the domain model's queries in one
    id space (see :mod:`repro.core.session`); otherwise the list is made
    from the rates.  It and ``domain_scores`` (each domain query's
    :meth:`domain_score`) are fixed at construction; the statistics must
    not be changed afterwards.
    """

    query_harvest_rate: Dict[Query, float] = field(default_factory=dict)
    template_harvest_rate: Dict[Template, float] = field(default_factory=dict)
    query_templates: Dict[Query, tuple] = field(default_factory=dict)
    domain_queries: Sequence[Query] = field(default=(), repr=False, compare=False)
    domain_scores: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.domain_queries:
            self.domain_queries = tuple(self.query_harvest_rate)
        self.domain_scores = np.array(
            [self.domain_score(query) for query in self.domain_queries],
            dtype=np.float64)

    @classmethod
    def from_corpus(cls, domain_corpus: Corpus, relevance: RelevanceFunction,
                    config: Optional[L2QConfig] = None) -> "HarvestRateStatistics":
        """Estimate harvest rates of domain queries and their templates."""
        return cls.from_domain(HarvestRateDomain.from_corpus(domain_corpus, config),
                               relevance)

    @classmethod
    def from_domain(cls, domain: HarvestRateDomain,
                    relevance: RelevanceFunction) -> "HarvestRateStatistics":
        """Apply one aspect's relevance to a domain's queries."""
        relevant = np.array([relevance(page) == 1 for page in domain.pages],
                            dtype=np.float64)
        # Integer counts as floats, so each rate is the float of ``int / int``.
        rates = (domain.containing @ relevant) / np.diff(domain.containing.indptr)
        query_harvest_rate = dict(zip(domain.query_templates, rates.tolist()))
        template_totals: Dict[Template, List[float]] = {}
        for query, rate in query_harvest_rate.items():
            for template in domain.query_templates[query]:
                template_totals.setdefault(template, []).append(rate)
        return cls(
            query_harvest_rate=query_harvest_rate,
            template_harvest_rate={template: sum(values) / len(values)
                                   for template, values in template_totals.items()},
            query_templates=domain.query_templates,
            domain_queries=domain.queries)

    def domain_score(self, query: Query) -> Optional[float]:
        """Template-averaged domain harvest rate of a query (None if unseen)."""
        templates = self.query_templates.get(query, ())
        template_rates = [self.template_harvest_rate[t] for t in templates
                          if t in self.template_harvest_rate]
        direct = self.query_harvest_rate.get(query)
        if template_rates and direct is not None:
            return 0.5 * (direct + sum(template_rates) / len(template_rates))
        if template_rates:
            return sum(template_rates) / len(template_rates)
        return direct


class HarvestRateSelection(QuerySelector):
    """Harvest-rate query selection combining domain and current statistics."""

    name = "HR"

    def __init__(self, domain_statistics: Optional[HarvestRateStatistics] = None) -> None:
        self.domain_statistics = domain_statistics or HarvestRateStatistics()

    def select(self, session: HarvestSession) -> Optional[Query]:
        if not session.current_pages:
            return None
        statistics = self.domain_statistics
        tables = session.tables(statistics.domain_queries)
        domain_ids = tables.domain_ids
        # The unfired queries of the pool, as a mask over every id.
        unfired = np.zeros(tables.num_queries, dtype=bool)
        unfired[tables.ngram_ids[session.candidates.ids()]] = True
        usable = tables.avoiding(session.entity.excluded_words())
        unfired[domain_ids[usable[domain_ids]]] = True
        unfired[session.fired_ids(tables)] = False
        pool = np.flatnonzero(unfired)
        if not pool.size:
            return None

        contained = tables.containment(session.candidates.page_rows, pool)
        relevant = np.array([session.relevance(page) == 1
                             for page in session.current_pages], dtype=np.float64)
        count = np.asarray(contained.sum(axis=0)).ravel()
        has_current = count > 0
        current = np.divide(contained.T @ relevant, count,
                            out=np.zeros(pool.size), where=has_current)
        domain_score = np.full(tables.num_queries, np.nan)
        domain_score[domain_ids] = statistics.domain_scores
        domain_score = domain_score[pool]
        has_domain = ~np.isnan(domain_score)
        # The mean of the rates each query has (the same float operations as
        # ``sum(rates) / len(rates)``), 0.0 if it has none.
        score = ((np.where(has_current, current, 0.0)
                  + np.where(has_domain, domain_score, 0.0))
                 / np.maximum(has_current.astype(np.int64) + has_domain, 1))
        # The pool is in id order, so the first maximum is the
        # lexicographically smallest.
        return tables.queries[pool[np.argmax(score)]]

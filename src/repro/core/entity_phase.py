"""The entity phase of domain-aware L2Q (Sect. IV-C).

Executed for every query selection: from the target entity's current result
pages ``P_E`` (plus frequently-occurring domain queries), build the entity
reinforcement graph, inject regularization from the current pages and from
the domain-phase template utilities (scaled by the adaptation parameter
``lambda``), and solve for the utilities ``U_E(q)`` of every candidate
query.

Besides the precision and recall of Sect. IV, the entity phase also solves
the auxiliary recall problems needed by context-aware L2Q (Sect. V):

* recall w.r.t. ``Y~`` (relevant pages among the *current* pages only, no
  domain-template regularization) — used for the redundancy term
  ``Delta(Phi, q) = R^(Y~)(q) * R(Phi)``;
* recall w.r.t. ``Y*`` (every page relevant) and its ``Y~*`` restriction —
  used for the denominator of collective precision.

A harvest session passes its :class:`~repro.core.utility.GraphTables` to
:meth:`EntityPhase.compute`, so the candidates' and pages' graph rows are
derived once per session rather than once per selection; the normalising
divisors of the domain model's template utilities are found once per model.
It also passes its :class:`~repro.core.candidates.CandidateStatistics`, the
pool of n-grams on its pages, which the phase ranks by occurrences and
never enumerates itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.aspects.relevance import AllRelevant, RelevanceFunction
from repro.core.candidates import CandidateStatistics
from repro.core.config import L2QConfig
from repro.core.domain_phase import DomainModel
from repro.core.queries import Query
from repro.core.templates import Template
from repro.core.utility import (
    AssembledGraph,
    GraphAssembler,
    GraphTables,
    precision_page_regularization,
    recall_page_regularization,
    scaled_template_regularization,
    template_scale,
)
from repro.corpus.document import Entity, Page
from repro.corpus.knowledge_base import TypeSystem
from repro.graph.random_walk import RegularizationProblem, UtilityVector


@dataclass(frozen=True)
class CandidateUtilityArrays:
    """All five utility vectors gathered per candidate query, as arrays.

    Row ``i`` of every array is the utility of ``queries[i]`` (0.0 for a
    query absent from the graph) — exactly what the per-query scalar
    lookups :meth:`~repro.graph.random_walk.UtilityVector.query` return,
    gathered once so the selection loop can score all candidates with a
    handful of array operations.
    """

    queries: List[Query]
    precision: np.ndarray
    recall: np.ndarray
    recall_current: np.ndarray
    recall_all: np.ndarray
    recall_current_all: np.ndarray


@dataclass
class EntityUtilities:
    """All per-candidate utilities computed by one entity-phase run."""

    candidates: List[Query]
    assembled: AssembledGraph
    precision: UtilityVector
    recall: UtilityVector
    recall_current: UtilityVector
    recall_all: UtilityVector
    recall_current_all: UtilityVector
    #: Last :meth:`gather` result, keyed by the identity of the query list
    #: (the reference is retained, so the id cannot be recycled) — the
    #: scorer and the context evaluator both gather the same candidate list
    #: during one selection, so the second gather is free.
    _gather_cache: Optional[Tuple[Sequence[Query], CandidateUtilityArrays]] = \
        field(default=None, init=False, repr=False, compare=False)

    def precision_of(self, query: Query) -> float:
        """Inferred (individual) precision of a candidate query."""
        return self.precision.query(query)

    def recall_of(self, query: Query) -> float:
        """Inferred (individual) recall of a candidate query."""
        return self.recall.query(query)

    def gather(self, queries: Sequence[Query]) -> CandidateUtilityArrays:
        """Gather every utility vector for ``queries`` into aligned arrays."""
        cache = self._gather_cache
        if cache is not None and cache[0] is queries:
            return cache[1]
        index = self.assembled.graph.queries
        positions = np.asarray(
            [position if (position := index.index_of(q)) is not None else -1
             for q in queries], dtype=np.int64)
        present = positions >= 0
        safe = np.where(present, positions, 0)

        def values_of(vector: UtilityVector) -> np.ndarray:
            if vector.query_values.size == 0 or not queries:
                return np.zeros(len(queries), dtype=np.float64)
            return np.where(present, vector.query_values[safe], 0.0)

        arrays = CandidateUtilityArrays(
            queries=list(queries),
            precision=values_of(self.precision),
            recall=values_of(self.recall),
            recall_current=values_of(self.recall_current),
            recall_all=values_of(self.recall_all),
            recall_current_all=values_of(self.recall_current_all),
        )
        self._gather_cache = (queries, arrays)
        return arrays

    def ranked_by_precision(self) -> List[Query]:
        """Candidates sorted by decreasing precision (ties lexicographic)."""
        return sorted(self.candidates, key=lambda q: (-self.precision_of(q), q))

    def ranked_by_recall(self) -> List[Query]:
        """Candidates sorted by decreasing recall (ties lexicographic)."""
        return sorted(self.candidates, key=lambda q: (-self.recall_of(q), q))


class EntityPhase:
    """Builds the entity graph and infers candidate-query utilities."""

    def __init__(self, type_system: TypeSystem, config: Optional[L2QConfig] = None) -> None:
        self.type_system = type_system
        self.config = config if config is not None else L2QConfig()
        self.config.validate()
        self._assembler = GraphAssembler(type_system, self.config)
        # (domain_model, entity_id, queries): domain queries that survive the
        # entity's excluded-word filter.  The filter result is fixed for one
        # (model, entity) pair, and a long-lived phase runs one selection per
        # harvest iteration over exactly that pair.
        self._domain_usable_cache: Optional[Tuple[DomainModel, str, List[Query]]] = None
        # (domain_model, scales): the normalising divisors of the model's
        # precision, recall and recall-all template utilities.  Only the
        # divisors are kept: a selector outlives its session, and normalised
        # copies of the model's utilities, one set per selector, would add
        # up in a batch that keeps all its jobs.
        self._template_scales_cache: Optional[
            Tuple[DomainModel, Tuple[float, float, float]]] = None

    # -- Candidate enumeration --------------------------------------------------
    def enumerate_candidates(self, entity: Entity, current_pages: Sequence[Page],
                             domain_model: Optional[DomainModel] = None,
                             exclude: Optional[Set[Query]] = None, *,
                             statistics: CandidateStatistics,
                             tables: Optional[GraphTables] = None) -> List[Query]:
        """Build the candidate query set ``Q_E``.

        Candidates come from the current result pages; when a domain model
        is available, queries occurring with many domain entities are added
        as well, so that useful queries not yet visible in ``P_E`` remain
        reachable (Sect. IV-C, *Entity graph*).

        ``statistics`` is the n-gram pool of exactly ``current_pages`` —
        the harvesting loop passes ``session.candidates``, maintained
        incrementally, so that selection never re-enumerates the working
        set.  ``tables`` is the memo of word rows the domain queries are
        grounded with (a fresh one when omitted).
        """
        candidates = statistics.pruned(self.config.max_entity_candidates)
        if domain_model is not None and not domain_model.is_empty():
            if tables is None:
                tables = GraphTables(self.type_system)
            usable = self._domain_usable(domain_model, entity)
            # Require at least partial evidence for the target entity: a
            # frequent domain query none of whose words occur on any current
            # page has no grounding for this entity and would be ranked
            # purely by template transfer.
            grounded = tables.grounded(usable, current_pages)
            seen = set(candidates)
            added = [query for query in map(usable.__getitem__,
                                            np.flatnonzero(grounded).tolist())
                     if query not in seen]
            candidates.extend(
                added[:2 * self.config.max_entity_candidates - len(candidates)])
        if exclude:
            candidates = [q for q in candidates if q not in exclude]
        return candidates

    def _domain_usable(self, domain_model: DomainModel, entity: Entity) -> List[Query]:
        """The model's distinct frequent queries without an excluded word."""
        cache = self._domain_usable_cache
        if (cache is not None and cache[0] is domain_model
                and cache[1] == entity.entity_id):
            return cache[2]
        excluded_words = entity.excluded_words()
        usable = list(dict.fromkeys(
            query for query in domain_model.frequent_queries
            if not any(word in excluded_words for word in query)))
        self._domain_usable_cache = (domain_model, entity.entity_id, usable)
        return usable

    def _template_utilities(self, domain_model: DomainModel
                            ) -> List[Tuple[Dict[Template, float], float]]:
        """The model's precision, recall and recall-all template utilities,
        each paired with its normalising divisor (found once per model)."""
        utilities = (domain_model.template_precision, domain_model.template_recall,
                     domain_model.template_recall_all)
        cache = self._template_scales_cache
        if cache is None or cache[0] is not domain_model:
            cache = self._template_scales_cache = (
                domain_model, tuple(map(template_scale, utilities)))
        return list(zip(utilities, cache[1]))

    # -- Utility inference ----------------------------------------------------------
    def compute(self, entity: Entity, current_pages: Sequence[Page],
                relevance: RelevanceFunction,
                domain_model: Optional[DomainModel] = None,
                use_templates: bool = True,
                exclude: Optional[Set[Query]] = None, *,
                statistics: CandidateStatistics,
                tables: Optional[GraphTables] = None) -> EntityUtilities:
        """Run the entity phase and return all candidate utilities.

        Parameters
        ----------
        entity:
            The target entity.
        current_pages:
            The pages gathered so far (``P_E``).
        relevance:
            The relevance function ``Y`` (normally the aspect classifier).
        domain_model:
            Template knowledge from the domain phase; ``None`` disables
            domain awareness (the plain P / R strategies of Sect. VI-B).
        use_templates:
            Whether to build the template layer at all.
        exclude:
            Queries to exclude from the candidate set (e.g. already fired).
        statistics:
            The n-gram pool of ``current_pages`` (see
            :meth:`enumerate_candidates`).
        tables:
            The graph-row memo shared by enumeration and assembly (a harvest
            session passes its own); a fresh one when omitted.
        """
        if tables is None:
            tables = GraphTables(self.type_system)
        pages = list(current_pages)
        candidates = self.enumerate_candidates(entity, pages, domain_model, exclude,
                                               statistics=statistics, tables=tables)
        assembled = self._assembler.assemble(pages, candidates,
                                             use_templates=use_templates, tables=tables)
        solver = assembled.solver(self.config)

        page_precision_reg = precision_page_regularization(pages, relevance)
        page_recall_reg = recall_page_regularization(pages, relevance)
        all_relevant = AllRelevant()
        page_recall_all_reg = recall_page_regularization(pages, all_relevant)

        template_precision_reg: Dict = {}
        template_recall_reg: Dict = {}
        template_recall_all_reg: Dict = {}
        if use_templates and domain_model is not None and not domain_model.is_empty():
            template_precision_reg, template_recall_reg, template_recall_all_reg = (
                scaled_template_regularization(utilities, assembled.templates,
                                               self.config.adaptation_lambda, scale)
                for utilities, scale in self._template_utilities(domain_model))

        # The precision problem and the four recall problems (w.r.t. Y, Y~,
        # Y* and Y~*) run in one joint loop: recall problems share every
        # sparse matmul as multi-RHS columns, and the precision iteration
        # rides the same Python loop.  Y~ / Y~* carry no domain-template
        # regularization: the domain speaks about the whole universe, not
        # about what has already been downloaded.
        precision_solved, recall_solved = solver.solve_joint(
            [RegularizationProblem(
                page_regularization=page_precision_reg,
                template_regularization=template_precision_reg)],
            [
                RegularizationProblem(
                    page_regularization=page_recall_reg,
                    template_regularization=template_recall_reg),
                RegularizationProblem(page_regularization=page_recall_reg),
                RegularizationProblem(
                    page_regularization=page_recall_all_reg,
                    template_regularization=template_recall_all_reg),
                RegularizationProblem(page_regularization=page_recall_all_reg),
            ])
        precision = precision_solved[0]
        recall, recall_current, recall_all, recall_current_all = recall_solved

        return EntityUtilities(
            candidates=candidates,
            assembled=assembled,
            precision=precision,
            recall=recall,
            recall_current=recall_current,
            recall_all=recall_all,
            recall_current_all=recall_current_all,
        )

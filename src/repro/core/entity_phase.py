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

A harvest session passes its :class:`~repro.core.utility.GraphTables`, the
entity's query id space and graph rows, which its harvester builds once and
shares with every session of the entity; the phase works on ids and page
rows of those tables throughout.  It also passes its
:class:`~repro.core.candidates.CandidateStatistics`, the pool of n-grams on
its pages, which the phase ranks by occurrences and never enumerates
itself.  The normalising divisors of the domain model's template utilities
are found once per model (:attr:`DomainModel.template_scales`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.aspects.relevance import RelevanceFunction
from repro.core.candidates import CandidateStatistics
from repro.core.config import L2QConfig
from repro.core.domain_phase import DomainModel
from repro.core.utility import (
    AssembledGraph,
    GraphAssembler,
    GraphTables,
    page_regularizations,
    template_regularization,
)
from repro.corpus.document import Entity
from repro.corpus.knowledge_base import TypeSystem
from repro.graph.random_walk import RegularizationProblem, UtilityVector


@dataclass
class EntityUtilities:
    """All per-candidate utilities computed by one entity-phase run.

    ``candidates`` holds the candidates' ids in the run's tables, in query
    vertex order, so element ``i`` of each vector's ``query_values`` is the
    utility of candidate ``candidates[i]``.
    """

    candidates: np.ndarray
    assembled: AssembledGraph
    precision: UtilityVector
    recall: UtilityVector
    recall_current: UtilityVector
    recall_all: UtilityVector
    recall_current_all: UtilityVector


class EntityPhase:
    """Builds the entity graph and infers candidate-query utilities."""

    def __init__(self, type_system: TypeSystem, config: Optional[L2QConfig] = None) -> None:
        self.type_system = type_system
        self.config = config if config is not None else L2QConfig()
        self.config.validate()
        self._assembler = GraphAssembler(type_system)

    # -- Candidate enumeration --------------------------------------------------
    def enumerate_candidates(self, entity: Entity,
                             domain_model: Optional[DomainModel] = None,
                             exclude: Optional[np.ndarray] = None, *,
                             statistics: CandidateStatistics,
                             tables: GraphTables) -> np.ndarray:
        """Build the candidate query set ``Q_E``, as ids of ``tables``.

        Candidates come from the current result pages, most occurrences
        first (ties lexicographic); when a domain model is available,
        queries occurring with many domain entities are appended, so that
        useful queries not yet visible in ``P_E`` remain reachable
        (Sect. IV-C, *Entity graph*).

        ``statistics`` is the n-gram pool of the current pages — the
        harvesting loop passes ``session.candidates``, maintained
        incrementally, so that selection never re-enumerates the working
        set.  ``tables`` number its n-grams and the model's domain queries
        (:attr:`DomainModel.domain_queries`).  ``exclude`` holds ids to
        leave out (e.g. of the fired queries).
        """
        limit = self.config.max_entity_candidates
        candidates = tables.ngram_ids[statistics.pruned(limit)]
        if domain_model is not None and not domain_model.is_empty():
            frequent = tables.domain_ids[domain_model.frequent]
            # Require at least partial evidence for the target entity: a
            # frequent domain query none of whose words occur on any current
            # page has no grounding for this entity and would be ranked
            # purely by template transfer.
            usable = (tables.avoiding(entity.excluded_words())
                      & tables.grounded(statistics.page_rows))
            usable[candidates] = False
            added = frequent[usable[frequent]]
            candidates = np.concatenate([candidates,
                                         added[:2 * limit - candidates.size]])
        if exclude is not None and exclude.size:
            candidates = candidates[~np.isin(candidates, exclude)]
        return candidates

    # -- Utility inference ----------------------------------------------------------
    def compute(self, entity: Entity, relevance: RelevanceFunction,
                domain_model: Optional[DomainModel] = None,
                use_templates: bool = True,
                exclude: Optional[np.ndarray] = None, *,
                statistics: CandidateStatistics,
                tables: GraphTables) -> EntityUtilities:
        """Run the entity phase and return all candidate utilities.

        Parameters
        ----------
        entity:
            The target entity.
        relevance:
            The relevance function ``Y`` (normally the aspect classifier).
        domain_model:
            Template knowledge from the domain phase; ``None`` disables
            domain awareness (the plain P / R strategies of Sect. VI-B).
        use_templates:
            Whether to build the template layer at all.
        exclude:
            Ids of queries to exclude from the candidate set (e.g. already
            fired).
        statistics:
            The n-gram pool of the pages gathered so far (``P_E``), which
            are the graph's page vertices, in gathering order (see
            :meth:`enumerate_candidates`).
        tables:
            The entity's graph tables, over its n-grams and the model's
            domain queries.
        """
        candidates = self.enumerate_candidates(entity, domain_model, exclude,
                                               statistics=statistics, tables=tables)
        page_rows = statistics.page_rows
        assembled = self._assembler.assemble(tables, page_rows, candidates,
                                             use_templates=use_templates)
        solver = assembled.solver(self.config)

        page_precision_reg, page_recall_reg, page_recall_all_reg = page_regularizations(
            [tables.pages[row] for row in page_rows.tolist()], relevance)

        template_precision_reg = template_recall_reg = template_recall_all_reg = None
        if use_templates and domain_model is not None and not domain_model.is_empty():
            utilities = (domain_model.template_precision, domain_model.template_recall,
                         domain_model.template_recall_all)
            template_precision_reg, template_recall_reg, template_recall_all_reg = (
                template_regularization(tables.template_values(values)[assembled.templates],
                                        self.config.adaptation_lambda, scale)
                for values, scale in zip(utilities, domain_model.template_scales))

        # The precision problem and the four recall problems (w.r.t. Y, Y~,
        # Y* and Y~*) share one solver and its operator, in two loops: the
        # recall problems are the columns of one right-hand side, so each
        # recall step is one sparse product for all four, and the precision
        # column iterates in a loop of its own.  Y~ / Y~* carry no
        # domain-template regularization: the domain speaks about the whole
        # universe, not about what has already been downloaded.
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

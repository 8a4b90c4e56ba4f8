"""Vectorized hot-path kernels vs their scalar references, property-tested.

The sparse-matrix selection kernels promise *bit-identical* results to the
scalar reference implementations they replaced: the rankers' batched
``rank_many`` kernel (``rank`` is a batch of one) vs the per-document
scalar scores over the dict-postings reference index
(:func:`tests.oracles.reference_rank`), and the selector's batched
``_choose`` vs :func:`tests.oracles.reference_choose`.  The multi-RHS joint
solver agrees with one :meth:`~repro.graph.random_walk.UtilitySolver.solve`
per problem to 1e-12.  These tests pin that contract over seeded random
corpora, graphs and regularizations — including the edge cases
(empty/singleton candidate sets, unseen query terms, tied scores, entity
views, an empty view) where a vectorized path most easily drifts.
"""

import random
from typing import Tuple

import numpy as np
import pytest

from repro.core.selection import ContextAwareSelection
from repro.core.utility import GraphAssembler, GraphTables
from repro.corpus.knowledge_base import build_type_system
from repro.graph.random_walk import (
    MODE_PRECISION,
    MODE_RECALL,
    RegularizationProblem,
    UtilitySolver,
)
from repro.search.bm25 import BM25Ranker
from repro.search.index import InvertedIndex
from repro.search.language_model import DirichletLanguageModel

from tests.oracles import (ReferenceGraphBuilder, ReferenceIndex, reference_choose,
                          reference_rank, reference_score)

VOCABULARY = [f"w{i}" for i in range(30)]


def _random_indexes(rng: random.Random, num_docs: int, edge_cases: bool = False
                    ) -> Tuple[InvertedIndex, ReferenceIndex]:
    """An index of random documents and its reference twin; with
    ``edge_cases``, some documents repeat an earlier one's tokens (tied
    scores) and one is empty."""
    documents = {}
    for position in range(num_docs):
        if edge_cases and documents and rng.random() < 0.3:
            tokens = rng.choice(list(documents.values()))
        else:
            tokens = [rng.choice(VOCABULARY) for _ in range(rng.randint(1, 25))]
        documents[f"d{position:02d}"] = tokens
    if edge_cases:
        documents["empty"] = []
    return (InvertedIndex.from_documents(documents),
            ReferenceIndex.from_documents(documents))


def _random_query(rng: random.Random) -> list:
    pool = VOCABULARY + ["unseen-term"]
    return [rng.choice(pool) for _ in range(rng.randint(1, 3))]


def _exact(rankings):
    """Rankings with each score as its exact bits."""
    return [[(doc_id, score.hex()) for doc_id, score in ranking]
            for ranking in rankings]


RANKERS = [
    pytest.param(lambda index: DirichletLanguageModel(index, mu=50.0),
                 id="dirichlet-lm"),
    pytest.param(lambda index: BM25Ranker(index, k1=1.2, b=0.75), id="bm25"),
    # b = 1 gives an empty document a zero BM25 denominator.
    pytest.param(lambda index: BM25Ranker(index, k1=1.2, b=1.0), id="bm25-b1"),
]


class TestRankerKernelEquivalence:
    @pytest.mark.parametrize("make_ranker", RANKERS)
    @pytest.mark.parametrize("seed", range(5))
    def test_rank_many_scores_match_scalar_bitwise(self, make_ranker, seed):
        rng = random.Random(seed)
        index, reference = _random_indexes(rng, rng.randint(1, 10))
        ranker = make_ranker(index)
        queries = [_random_query(rng) for _ in range(6)]
        rankings = ranker.rank_many(queries, top_k=0, require_match=False)
        for query, ranking in zip(queries, rankings):
            assert sorted(doc_id for doc_id, _ in ranking) == \
                ranker.index.document_ids()
            for doc_id, score in ranking:
                # Bit-identical, not approximately equal.
                assert score.hex() == \
                    reference_score(ranker, reference, query, doc_id).hex(), \
                    (query, doc_id)

    @pytest.mark.parametrize("make_ranker", RANKERS)
    @pytest.mark.parametrize("seed", range(5))
    def test_rank_matches_scalar_path(self, make_ranker, seed):
        rng = random.Random(100 + seed)
        index, reference = _random_indexes(rng, rng.randint(2, 10), edge_cases=True)
        documents = index.document_ids()
        subset = rng.sample(documents, rng.randint(1, len(documents)))
        queries = [_random_query(rng) for _ in range(6)] + [
            ["w0", "unseen-term"],                  # an unseen term
            ["w1", "w2", "w1"],                     # a repeated term
            [],                                     # an empty query
            ["", "w3"],                             # an empty token
        ]
        rng.shuffle(queries)
        for ranker, twin in ((make_ranker(index), reference),
                             (make_ranker(index.view(subset)), reference.view(subset)),
                             (make_ranker(index.view([])), reference.view([]))):
            for _ in range(4):
                top_k = rng.choice([0, 1, 3])
                require_match = rng.random() < 0.5
                expected = _exact(reference_rank(ranker, twin, query, top_k,
                                                 require_match)
                                  for query in queries)
                assert _exact(ranker.rank(query, top_k=top_k,
                                          require_match=require_match)
                              for query in queries) == expected
                assert _exact(ranker.rank_many(queries, top_k=top_k,
                                               require_match=require_match)) \
                    == expected

    @pytest.mark.parametrize("make_ranker", RANKERS)
    def test_unseen_terms_and_empty_query(self, make_ranker):
        documents = {"d0": ["alpha", "beta"], "d1": ["beta", "gamma"]}
        ranker = make_ranker(InvertedIndex.from_documents(documents))
        reference = ReferenceIndex.from_documents(documents)
        # A query of only unseen terms matches nothing.
        assert ranker.rank(["never-indexed"]) == []
        assert ranker.rank_many([["never-indexed"]]) == [[]]
        # Mixed seen/unseen still scores identically to the scalar path.
        query = ["alpha", "never-indexed"]
        [ranking] = ranker.rank_many([query], top_k=0, require_match=False)
        for doc_id, score in ranking:
            assert score == reference_score(ranker, reference, query, doc_id)
        # Empty queries retrieve nothing.
        assert ranker.rank([]) == []
        assert ranker.rank_many([[], [""]], require_match=False) == [[], []]
        assert ranker.rank_many([]) == []

    def test_singleton_index_matches_scalar(self):
        index = InvertedIndex.from_documents({"only": ["alpha"]})
        reference = ReferenceIndex.from_documents({"only": ["alpha"]})
        for make_ranker in (DirichletLanguageModel, BM25Ranker):
            ranker = make_ranker(index)
            rankings = ranker.rank_many([["alpha"], ["beta"]], top_k=0,
                                        require_match=False)
            assert rankings == [
                [("only", reference_score(ranker, reference, ["alpha"], "only"))],
                [("only", reference_score(ranker, reference, ["beta"], "only"))]]


def _random_graph(rng: random.Random):
    builder = ReferenceGraphBuilder()
    num_pages = rng.randint(1, 5)
    num_queries = rng.randint(1, 7)
    num_templates = rng.randint(0, 4)
    for p in range(num_pages):
        builder.add_page(f"p{p}")
    for q in range(num_queries):
        builder.add_query(f"q{q}")
    for t in range(num_templates):
        builder.add_template(f"t{t}")
    for p in range(num_pages):
        for q in range(num_queries):
            if rng.random() < 0.4:
                builder.connect_page_query(f"p{p}", f"q{q}",
                                           rng.choice([0.5, 1.0, 2.0]))
    for q in range(num_queries):
        for t in range(num_templates):
            if rng.random() < 0.3:
                builder.connect_query_template(f"q{q}", f"t{t}")
    return builder.build()


def _random_problem(rng: random.Random, graph) -> RegularizationProblem:
    def layer(size, probability):
        if rng.random() > probability:
            return None
        return np.array([rng.random() if rng.random() < 0.7 else 0.0
                         for _ in range(size)])

    return RegularizationProblem(
        page_regularization=layer(graph.num_pages, 0.9),
        query_regularization=layer(graph.num_queries, 0.3),
        template_regularization=layer(graph.num_templates, 0.5),
    )


def _vectors_identical(left, right) -> bool:
    return (np.array_equal(left.page_values, right.page_values)
            and np.array_equal(left.query_values, right.query_values)
            and np.array_equal(left.template_values, right.template_values)
            and left.iterations == right.iterations
            and left.converged == right.converged)


class TestSolverEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_solve_joint_agrees_with_separate_solves(self, seed):
        rng = random.Random(seed)
        graph = _random_graph(rng)
        solver = UtilitySolver(graph)
        precision_problems = [_random_problem(rng, graph)
                              for _ in range(rng.randint(0, 2))]
        recall_problems = [_random_problem(rng, graph)
                           for _ in range(rng.randint(1, 4))]
        joint_p, joint_r = solver.solve_joint(precision_problems,
                                              recall_problems)
        for mode, problems, joint in ((MODE_PRECISION, precision_problems,
                                       joint_p),
                                      (MODE_RECALL, recall_problems, joint_r)):
            assert len(joint) == len(problems)
            for problem, vector in zip(problems, joint):
                single = UtilitySolver(graph).solve(
                    mode,
                    page_regularization=problem.page_regularization,
                    query_regularization=problem.query_regularization,
                    template_regularization=problem.template_regularization)
                for left, right in ((vector.page_values, single.page_values),
                                    (vector.query_values, single.query_values),
                                    (vector.template_values,
                                     single.template_values)):
                    assert np.abs(left - right).max(initial=0.0) <= 1e-12, \
                        (seed, mode)

    @pytest.mark.parametrize("seed", range(4))
    def test_duplicated_problems_converge_identically(self, seed):
        # Columns must not couple: solving [a, a] gives two bit-identical
        # results.
        rng = random.Random(50 + seed)
        graph = _random_graph(rng)
        problem = _random_problem(rng, graph)
        first, second = UtilitySolver(graph).solve_many(
            MODE_RECALL, [problem, problem])
        assert _vectors_identical(first, second)

    def test_known_fixed_point_single_edge(self):
        # One page, one query, p_hat = 1: the iteration alternates
        # u_q <- 0.85 u_p and u_p <- 0.85 u_q + 0.15, whose fixed point is
        # u_p = 0.15 / (1 - 0.85^2), u_q = 0.85 u_p.
        builder = ReferenceGraphBuilder()
        builder.connect_page_query("p", "q", 1.0)
        solver = UtilitySolver(builder.build(), alpha=0.15)
        solved = solver.solve(MODE_PRECISION, page_regularization=np.array([1.0]))
        assert solved.converged
        expected_page = 0.15 / (1.0 - 0.85 ** 2)
        assert solved.page_values[0] == pytest.approx(expected_page, abs=1e-12)
        assert solved.query_values[0] == pytest.approx(0.85 * expected_page,
                                                       abs=1e-12)

    def test_empty_problem_list_returns_empty(self):
        builder = ReferenceGraphBuilder()
        builder.connect_page_query("p", "q", 1.0)
        solver = UtilitySolver(builder.build())
        assert solver.solve_many(MODE_RECALL, []) == []
        precision, recall = solver.solve_joint([], [])
        assert precision == [] and recall == []


class _CrossCheckingSelection(ContextAwareSelection):
    """ContextAwareSelection that cross-checks every vectorized choice
    against the scalar reference implementation in situ."""

    def __init__(self, objective: str) -> None:
        super().__init__(objective)
        self.comparisons = 0

    def _choose(self, session, tables, utilities, penalty):
        chosen = super()._choose(session, tables, utilities, penalty)
        reference = reference_choose(self, session, tables, utilities, penalty)
        assert chosen == reference, \
            f"vectorized choice {chosen!r} != scalar choice {reference!r}"
        self.comparisons += 1
        return chosen


class TestSelectorEquivalence:
    @pytest.mark.parametrize("objective,method", [("precision", "L2QP"),
                                                  ("recall", "L2QR"),
                                                  ("balanced", "L2QBAL")])
    def test_choose_matches_scalar_reference_during_harvest(
            self, researcher_runner, researcher_prepared, objective, method):
        job = researcher_runner.build_job(
            researcher_prepared, method,
            researcher_prepared.split.test_entities[0], "RESEARCH", 3)
        selector = _CrossCheckingSelection(objective)
        harvester = researcher_runner.harvester_for(researcher_prepared)
        result = harvester.harvest(job.entity_id, job.aspect, selector,
                                   job.relevance, num_queries=job.num_queries,
                                   domain_model=job.domain_model,
                                   seed=job.seed)
        assert selector.comparisons >= 1
        assert result.iterations

    def test_choose_empty_candidates_returns_none(self):
        selector = ContextAwareSelection("precision")

        class NoCandidates:
            candidates = np.zeros(0, dtype=np.int64)

        assert selector._choose(None, None, NoCandidates(), 0.0) is None


class TestAssembledGraphTemplates:
    def test_vertex_arrays_align_with_the_graph(self):
        # ``AssembledGraph.queries`` and ``.templates`` name the graph's
        # query and template vertices, in vertex order, as table ids.
        from tests.helpers import make_page

        type_system = build_type_system({"person": ["smith"]})
        pages = [make_page("p0", "e1", [(["smith", "essay"], "RESEARCH")])]
        tables = GraphTables(type_system, pages, ngrams=[("essay",), ("smith", "essay")])
        queries = tables.ids([("smith", "essay"), ("essay",)])
        assembled = GraphAssembler(type_system).assemble(
            tables, np.arange(1), queries, use_templates=True)
        assert assembled.queries.tolist() == queries.tolist()
        assert len(assembled.queries) == assembled.graph.num_queries
        assert len(assembled.templates) == assembled.graph.num_templates >= 1
        assert [tables.templates[t] for t in assembled.templates.tolist()] == \
            [("<person>", "essay")]

"""Property-based tests (hypothesis) on core data structures and invariants."""

import random
import string

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.candidates import CandidateStatistics
from repro.corpus.document import Page, Paragraph
from repro.corpus.knowledge_base import TypeSystem, build_type_system
from repro.corpus.synthetic import CorpusConfig, CorpusGenerator
from repro.core.queries import NgramTable, QueryEnumerator
from repro.core.templates import abstract_query
from repro.eval.metrics import HarvestMetrics, compute_metrics
from repro.eval.splits import split_entities
from repro.graph.random_walk import (
    MODE_PRECISION,
    MODE_RECALL,
    RegularizationProblem,
    UtilitySolver,
)
from repro.scenarios import make_scenario, scenario_names
from repro.search.index import InvertedIndex
from repro.search.language_model import DirichletLanguageModel

from tests.oracles import (ReferenceGraphBuilder, reference_enumerate, reference_prune,
                          template_abstracts)

SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])
#: Heavier generators (full corpus generation per example) get fewer examples.
SLOW_SETTINGS = settings(max_examples=8, deadline=None,
                         suppress_health_check=[HealthCheck.too_slow])

words = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6)
documents = st.lists(st.lists(words, min_size=0, max_size=12), min_size=0, max_size=8)
page_ids = st.lists(st.text(alphabet=string.ascii_lowercase + string.digits,
                            min_size=1, max_size=5), min_size=1, max_size=20, unique=True)


class TestVocabularyProperties:
    """The search index's term statistics, the project's one vocabulary."""

    @SETTINGS
    @given(documents)
    def test_counts_are_consistent(self, docs):
        index = InvertedIndex.from_documents(
            {f"d{i}": tokens for i, tokens in enumerate(docs)})
        total_tokens = sum(len(d) for d in docs)
        assert index.total_tokens == total_tokens
        assert sorted(index.vocabulary()) == sorted({w for d in docs for w in d})
        assert sum(index.collection_frequency(w) for w in index.vocabulary()) == \
            total_tokens
        for word in index.vocabulary():
            assert 1 <= index.document_frequency(word) <= len(docs)
            assert index.document_frequency(word) == sum(word in d for d in docs)

    @SETTINGS
    @given(documents)
    def test_collection_probabilities_sum_to_one(self, docs):
        index = InvertedIndex.from_documents(
            {f"d{i}": tokens for i, tokens in enumerate(docs)})
        if index.total_tokens == 0:
            return
        assert sum(index.collection_probability(w) for w in index.vocabulary()) == \
            pytest.approx(1.0)


class TestMetricsProperties:
    @SETTINGS
    @given(st.lists(words, max_size=20), st.lists(words, max_size=20))
    def test_metrics_bounded(self, gathered, relevant):
        metrics = compute_metrics(gathered, relevant)
        assert 0.0 <= metrics.precision <= 1.0
        assert 0.0 <= metrics.recall <= 1.0
        assert 0.0 <= metrics.f_score <= 1.0
        assert metrics.f_score <= max(metrics.precision, metrics.recall) + 1e-12

    @SETTINGS
    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0),
           st.floats(0.001, 1.0), st.floats(0.001, 1.0))
    def test_normalisation_bounded_with_cap(self, p, r, ip, ir):
        normalised = HarvestMetrics(p, r).normalized_by(HarvestMetrics(ip, ir))
        assert 0.0 <= normalised.precision <= 1.0
        assert 0.0 <= normalised.recall <= 1.0


class TestSplitProperties:
    @SETTINGS
    @given(st.lists(st.integers(0, 10_000).map(lambda i: f"e{i}"),
                    min_size=1, max_size=60, unique=True),
           st.integers(0, 100))
    def test_split_partitions_entities(self, entity_ids, seed):
        split = split_entities(entity_ids, seed=seed)
        parts = (set(split.domain_entities), set(split.validation_entities),
                 set(split.test_entities))
        assert parts[0] | parts[1] | parts[2] == set(entity_ids)
        assert sum(len(p) for p in parts) == len(entity_ids)


class TestQueryEnumerationProperties:
    @SETTINGS
    @given(st.lists(words, max_size=20), st.integers(1, 4))
    def test_windows_respect_length_and_content(self, tokens, max_length):
        enumerator = QueryEnumerator(max_length=max_length, min_word_length=1)
        counts = enumerator.enumerate_from_tokens(tokens)
        usable = [t for t in tokens if enumerator.is_usable_word(t)]
        for query, count in counts.items():
            assert 1 <= len(query) <= max_length
            assert count >= 1
            for word in query:
                assert word in usable


class TestTemplateProperties:
    @SETTINGS
    @given(st.lists(st.sampled_from(["hpc", "ai", "tkde", "jmlr", "paper", "about"]),
                    min_size=1, max_size=3, unique=True))
    def test_every_generated_template_abstracts_its_query(self, query_words):
        system = build_type_system({"topic": ["hpc", "ai"], "journal": ["tkde", "jmlr"]})
        query = tuple(query_words)
        for template in abstract_query(query, system):
            assert template_abstracts(template, query, system)
            assert len(template) == len(query)


class TestLanguageModelProperties:
    @SETTINGS
    @given(documents.filter(lambda docs: any(len(d) > 0 for d in docs)),
           st.lists(words, min_size=1, max_size=3))
    def test_ranking_is_sorted_and_matching_only(self, docs, query):
        index = InvertedIndex.from_documents(
            {f"d{i}": tokens for i, tokens in enumerate(docs) if tokens})
        model = DirichletLanguageModel(index, mu=50.0)
        ranked = model.rank(query)
        scores = [s for _, s in ranked]
        assert scores == sorted(scores, reverse=True)
        matching = index.matching_documents(query)
        assert {d for d, _ in ranked} == matching


class TestSolverProperties:
    @SETTINGS
    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                    min_size=1, max_size=20),
           st.floats(0.05, 0.9))
    def test_utilities_bounded_by_regularization_maximum(self, edges, alpha):
        builder = ReferenceGraphBuilder()
        for page_index, query_index in edges:
            builder.connect_page_query(f"p{page_index}", (f"q{query_index}",))
        graph = builder.build()
        regularization = builder.page_vector({f"p{i}": 1.0 for i in range(6)})
        solver = UtilitySolver(graph, alpha=alpha)
        result = solver.solve(MODE_PRECISION, page_regularization=regularization)
        assert result.page_values.max(initial=0.0) <= 1.0 + 1e-9
        assert result.query_values.max(initial=0.0) <= 1.0 + 1e-9
        assert result.page_values.min(initial=0.0) >= -1e-9
        assert result.query_values.min(initial=0.0) >= -1e-9

    @SETTINGS
    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                    min_size=1, max_size=15))
    def test_recall_mass_conserved_within_tolerance(self, edges):
        # The total recall mass injected by the regularization cannot be
        # amplified by the propagation (it is only redistributed / damped).
        builder = ReferenceGraphBuilder()
        for page_index, query_index in edges:
            builder.connect_page_query(f"p{page_index}", (f"q{query_index}",))
        graph = builder.build()
        regularization = np.full(graph.num_pages, 1.0 / graph.num_pages)
        solver = UtilitySolver(graph, alpha=0.15)
        result = solver.solve(MODE_RECALL, page_regularization=regularization)
        assert result.query_values.sum() <= 1.0 + 1e-6
        assert result.page_values.sum() <= 1.0 + 1e-6

    @SETTINGS
    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                              st.sampled_from([0.5, 1.0, 3.0])),
                    min_size=0, max_size=20),
           st.lists(st.tuples(st.integers(0, 5), st.integers(0, 3)),
                    min_size=0, max_size=10),
           st.floats(0.05, 0.9),
           st.integers(0, 2**31 - 1))
    def test_every_solve_meets_the_residual_bound(self, page_edges,
                                                  template_edges, alpha, seed):
        builder = ReferenceGraphBuilder()
        for page_index, query_index, weight in page_edges:
            builder.connect_page_query(f"p{page_index}", f"q{query_index}",
                                       weight)
        for query_index, template_index in template_edges:
            builder.connect_query_template(f"q{query_index}",
                                           f"t{template_index}")
        builder.add_query("isolated")
        graph = builder.build()
        rng = random.Random(seed)

        def regularization(size, scale):
            return np.array([scale * rng.random() for _ in range(size)])

        problem = RegularizationProblem(
            page_regularization=regularization(graph.num_pages, 1.0),
            query_regularization=regularization(graph.num_queries, 1.0),
            template_regularization=regularization(graph.num_templates, 10.0))
        precision, recall = UtilitySolver(graph, alpha=alpha).solve_joint(
            [problem], [problem, RegularizationProblem()])
        for vector in precision + recall:
            assert vector.residual <= 1e-10
            assert vector.converged


def _pages_from_docs(docs):
    """Build one-paragraph pages (cycled over two entities) from token lists."""
    pages = []
    for index, tokens in enumerate(docs):
        page_id = f"p{index}"
        pages.append(Page(
            page_id=page_id,
            entity_id=f"e{index % 2}",
            paragraphs=(Paragraph(paragraph_id=f"{page_id}#0",
                                  tokens=tuple(tokens)),),
        ))
    return pages


class TestCandidateStatisticsProperties:
    @SETTINGS
    @given(documents, st.integers(0, 2**32 - 1))
    def test_incremental_folding_equals_scratch_for_any_arrival_order(
            self, docs, order_seed):
        # The paper's amortised selection rests on this invariant: folding
        # pages one at a time, in *any* arrival order, must produce exactly
        # the statistics of a from-scratch enumeration over the working set.
        enumerator = QueryEnumerator(max_length=3, min_word_length=1)
        pages = _pages_from_docs(docs)
        table = NgramTable.build(enumerator, pages)

        arrival = list(pages)
        random.Random(order_seed).shuffle(arrival)
        incremental = CandidateStatistics(lambda: table)
        incremental.add_pages(arrival)
        # Re-adding in a different order must be a no-op (pages are deduped).
        assert incremental.add_pages(pages) == 0

        scratch = reference_enumerate(enumerator, pages)
        queries = incremental.sorted_queries()
        assert queries == sorted(scratch.occurrences)
        ids = [table.queries.index(query) for query in queries]
        assert incremental.occurrences[ids].tolist() == \
            [scratch.occurrences[query] for query in queries]
        assert incremental.page_frequency[ids].tolist() == \
            [scratch.page_frequency(query) for query in queries]
        assert incremental.num_pages == len(pages)
        assert [table.queries[i] for i in incremental.pruned().tolist()] == \
            reference_prune(scratch)


class TestScenarioGenerationProperties:
    @SLOW_SETTINGS
    @given(st.integers(0, 2**31 - 1), st.sampled_from(sorted(scenario_names())))
    def test_equal_seeds_give_byte_identical_corpora(self, seed, scenario):
        # Two *fresh* generators (no shared state) with the same seed must
        # produce byte-identical corpora for every registered scenario.
        spec = make_scenario(scenario)
        config = spec.build_config("researcher", num_entities=5,
                                   pages_per_entity=4, seed=seed)
        first = CorpusGenerator(config).generate()
        second = CorpusGenerator(config).generate()
        assert first.content_digest() == second.content_digest()
        assert first.entities == second.entities
        assert first.pages == second.pages

    @SLOW_SETTINGS
    @given(st.integers(0, 2**31 - 1))
    def test_different_seeds_give_different_corpora(self, seed):
        kwargs = dict(domain="researcher", num_entities=5, pages_per_entity=4)
        first = CorpusGenerator(CorpusConfig(seed=seed, **kwargs)).generate()
        second = CorpusGenerator(CorpusConfig(seed=seed + 1, **kwargs)).generate()
        assert first.content_digest() != second.content_digest()


class TestTypeSystemProperties:
    @SETTINGS
    @given(st.dictionaries(st.sampled_from(["topic", "journal", "award"]),
                           st.lists(words, min_size=1, max_size=5), min_size=1))
    def test_every_registered_word_is_typed(self, dictionary):
        system = build_type_system(dictionary)
        for type_name, members in dictionary.items():
            for word in members:
                assert type_name in system.types_of(TypeSystem.canonical(word))

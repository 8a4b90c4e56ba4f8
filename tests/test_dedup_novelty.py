"""Tests for the novelty estimator and the duplicate-waste scorer.

Both are compared with the LSH-index references in ``tests/oracles.py``:
the novelty of a page is one minus the reference index's
``max_similarity``, and the waste at each budget is what the page-by-page
reference replay reads.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import L2QConfig
from repro.core.harvester import HarvestResult, IterationRecord
from repro.dedup.minhash import MinHasher
from repro.dedup.novelty import NoveltyEstimator
from repro.dedup.shingles import shingle_hashes
from repro.dedup.waste import DuplicateWasteScorer
from repro.scenarios import make_scenario
from repro.search.engine import SearchEngine

from tests.helpers import make_page
from tests.oracles import (
    ReferenceNearDuplicateIndex,
    reference_signature,
    reference_waste_by_budget,
)


@pytest.fixture(scope="module")
def dup_corpus():
    """Every page has one near-identical copy (tiny token noise)."""
    return make_scenario("near-duplicates", fraction=1.0,
                         token_noise=0.02).corpus_for(
        "researcher", num_entities=6, pages_per_entity=4, seed=5)


@pytest.fixture(scope="module")
def dup_target(dup_corpus):
    for entity_id in dup_corpus.entity_ids():
        page_ids = sorted(p.page_id for p in dup_corpus.pages_of(entity_id))
        dups = [p for p in page_ids if "_dup" in p]
        if dups:
            source_id = dups[0].split("_dup")[0]
            return entity_id, source_id, dups[0]
    pytest.fail("no duplicate page generated")


@pytest.fixture()
def estimator(dup_corpus, dup_target):
    entity_id = dup_target[0]
    engine = SearchEngine(dup_corpus, top_k=5)
    return NoveltyEstimator(corpus=dup_corpus, engine=engine,
                            entity=dup_corpus.get_entity(entity_id),
                            config=L2QConfig(dedup_penalty=0.5))


class TestNoveltyEstimator:
    def test_unseen_page_fully_novel(self, estimator, dup_target):
        _, source_id, _ = dup_target
        assert estimator.page_novelty(source_id) == 1.0

    def test_near_copy_of_gathered_page_not_novel(self, dup_corpus, estimator,
                                                  dup_target):
        _, source_id, dup_id = dup_target
        estimator.observe_page(dup_corpus.get_page(source_id))
        assert estimator.page_novelty(dup_id) < 0.5
        assert estimator.page_novelty(source_id) == 0.0  # exact copy of itself

    def test_novelty_cache_invalidated_by_new_pages(self, dup_corpus,
                                                    estimator, dup_target):
        _, source_id, dup_id = dup_target
        before = estimator.page_novelty(dup_id)
        estimator.observe_page(dup_corpus.get_page(source_id))
        assert estimator.page_novelty(dup_id) < before

    def test_expected_novelty_zero_when_all_postings_gathered(
            self, dup_corpus, estimator, dup_target):
        entity_id, source_id, _ = dup_target
        pages = dup_corpus.pages_of(entity_id)
        estimator.observe_pages(pages)
        query = tuple(dup_corpus.get_page(source_id).tokens[:1])
        assert estimator.expected_novelty(query, lambda pid: True) == 0.0

    def test_expected_novelty_one_without_postings(self, estimator):
        assert estimator.expected_novelty(("nosuchword",),
                                          lambda pid: False) == 1.0

    def test_expected_novelty_one_on_fresh_session(self, estimator, dup_corpus,
                                                   dup_target):
        # Nothing gathered yet: every posting page is fully novel.
        _, source_id, _ = dup_target
        query = tuple(dup_corpus.get_page(source_id).tokens[:1])
        assert estimator.expected_novelty(query, lambda pid: False) == 1.0

    def test_page_novelty_matches_reference_index(self, dup_corpus, estimator,
                                                  dup_target):
        # After each gathered page, every page of the entity scores exactly
        # one minus the reference index's max similarity, and a query's
        # expected novelty is the mean of those over its ungathered postings.
        entity_id = dup_target[0]
        config = estimator.config
        hasher = MinHasher(config.dedup_num_hashes, config.dedup_hash_seed)
        signatures = {
            page.page_id: reference_signature(hasher, shingle_hashes(
                page.tokens, config.dedup_shingle_size))
            for page in dup_corpus.pages_of(entity_id)}
        page_ids = sorted(signatures)
        index = ReferenceNearDuplicateIndex(
            num_bands=config.dedup_bands,
            similarity_threshold=config.dedup_similarity_threshold)
        query = tuple(dup_corpus.get_page(page_ids[0]).tokens[:1])
        postings = estimator._posting_pages(query)
        assert postings
        for page_id in page_ids[1::2] + page_ids[::2]:
            estimator.observe_page(dup_corpus.get_page(page_id))
            index.add(page_id, signatures[page_id])
            for other in page_ids:
                assert estimator.page_novelty(other) == \
                    1.0 - index.max_similarity(signatures[other])
            expected = 0.0
            for other in postings:
                if other not in index:
                    expected += 1.0 - index.max_similarity(signatures[other])
            assert estimator.expected_novelty(
                query, lambda pid: pid in index) == expected / len(postings)


def _result(seed_ids, iteration_page_ids):
    result = HarvestResult(entity_id="e", aspect="A", selector_name="T",
                           seed_page_ids=list(seed_ids))
    for index, page_ids in enumerate(iteration_page_ids):
        result.iterations.append(IterationRecord(
            index=index, query=("q", str(index)),
            result_page_ids=tuple(page_ids), new_page_ids=(),
            selection_seconds=0.0, simulated_fetch_seconds=0.0))
    return result


class TestDuplicateWasteScorer:
    def test_refetches_count_as_waste(self, dup_corpus, dup_target):
        entity_id, source_id, _ = dup_target
        other = next(p.page_id for p in dup_corpus.pages_of(entity_id)
                     if p.page_id != source_id and "_dup" not in p.page_id)
        scorer = DuplicateWasteScorer(dup_corpus)
        result = _result([source_id], [(source_id, other)])
        assert scorer.waste(result) == pytest.approx(1 / 3)

    def test_near_duplicates_count_as_waste(self, dup_corpus, dup_target):
        _, source_id, dup_id = dup_target
        scorer = DuplicateWasteScorer(dup_corpus)
        result = _result([source_id], [(dup_id,)])
        assert scorer.waste(result) == pytest.approx(1 / 2)

    def test_budget_prefix_respected(self, dup_corpus, dup_target):
        entity_id, source_id, _ = dup_target
        scorer = DuplicateWasteScorer(dup_corpus)
        result = _result([source_id], [(source_id,)])
        assert scorer.waste(result, num_queries=0) == 0.0
        assert scorer.waste(result, num_queries=1) == pytest.approx(1 / 2)

    def test_empty_run_scores_zero(self, dup_corpus):
        scorer = DuplicateWasteScorer(dup_corpus)
        assert scorer.waste(_result([], [])) == 0.0

    def test_waste_by_budget_matches_per_budget_replay(self, dup_corpus,
                                                       dup_target):
        # The single-pass profile must read off exactly what an independent
        # per-budget replay computes.
        entity_id, source_id, dup_id = dup_target
        other = next(p.page_id for p in dup_corpus.pages_of(entity_id)
                     if p.page_id != source_id and "_dup" not in p.page_id)
        scorer = DuplicateWasteScorer(dup_corpus)
        result = _result([source_id], [(source_id, other), (dup_id,)])
        budgets = (0, 1, 2, 5)  # 5 exceeds the run's two iterations
        profile = scorer.waste_by_budget(result, budgets)
        assert profile == {k: scorer.waste(result, k) for k in budgets}
        assert profile[5] == profile[2]  # stream simply ends early


def _two_iteration_run():
    """Six fetches: two seed pages, then two pages in each of two iterations."""
    return _result(["a", "b"], [("c", "a"), ("d", "e")])


class TestNegativeBudgets:
    """A negative budget is rejected, as in ``HarvestResult.gathered_after``."""

    def test_waste_by_budget_rejects_negative_budget(self, dup_corpus):
        scorer = DuplicateWasteScorer(dup_corpus)
        with pytest.raises(ValueError, match="num_queries must be >= 0"):
            scorer.waste_by_budget(_two_iteration_run(), [-1])
        with pytest.raises(ValueError):
            scorer.waste_by_budget(_two_iteration_run(), [0, 2, -2])

    def test_waste_rejects_negative_budget(self, dup_corpus):
        with pytest.raises(ValueError):
            DuplicateWasteScorer(dup_corpus).waste(_two_iteration_run(), -1)

    def test_fetched_page_ids_rejects_negative_budget(self, dup_corpus):
        scorer = DuplicateWasteScorer(dup_corpus)
        with pytest.raises(ValueError):
            scorer.fetched_page_ids(_two_iteration_run(), -1)

    def test_fetched_page_ids_reads_each_budget(self, dup_corpus):
        scorer = DuplicateWasteScorer(dup_corpus)
        run = _two_iteration_run()
        assert scorer.fetched_page_ids(run, 0) == ["a", "b"]
        assert scorer.fetched_page_ids(run, 1) == ["a", "b", "c", "a"]
        assert scorer.fetched_page_ids(run) == scorer.fetched_page_ids(run, 2) \
            == scorer.fetched_page_ids(run, 5) == ["a", "b", "c", "a", "d", "e"]


class _Pages:
    """The one corpus method the scorer reads."""

    def __init__(self, pages):
        self._pages = {page.page_id: page for page in pages}

    def get_page(self, page_id):
        return self._pages[page_id]


def _pool(texts):
    """Per text: the page, an exact copy, a one-token edit and an empty page."""
    pages = []
    for i, tokens in enumerate(texts):
        edited = list(tokens[:-1]) + ["zz"] if tokens else ["zz"]
        for page_id, page_tokens in ((f"p{i}", tokens), (f"c{i}", tokens),
                                     (f"n{i}", edited), (f"e{i}", [])):
            pages.append(make_page(page_id, "e", [(page_tokens, None)]))
    return pages


WASTE_SETTINGS = settings(max_examples=60, deadline=None,
                          suppress_health_check=[HealthCheck.too_slow])


class TestWasteReplayMatchesReference:
    @WASTE_SETTINGS
    @given(st.data(),
           st.lists(st.lists(st.sampled_from("abcdefg"), max_size=10),
                    min_size=1, max_size=4),
           st.sampled_from([L2QConfig(),
                            L2QConfig(dedup_shingle_size=1,
                                      dedup_similarity_threshold=0.3),
                            L2QConfig(dedup_num_hashes=16, dedup_bands=4,
                                      dedup_similarity_threshold=0.75)]))
    def test_random_streams(self, data, texts, config):
        pages = _pool(texts)
        ids = st.sampled_from([page.page_id for page in pages])
        seed_ids = data.draw(st.lists(ids, max_size=4))
        iterations = data.draw(st.lists(st.lists(ids, max_size=5), max_size=4))
        budgets = data.draw(st.lists(st.integers(0, 7), min_size=1, max_size=5))
        corpus = _Pages(pages)
        result = _result(seed_ids, iterations)
        assert DuplicateWasteScorer(corpus, config).waste_by_budget(
            result, budgets) == reference_waste_by_budget(corpus, config,
                                                          result, budgets)

    def test_scenario_runs(self, dup_corpus, dup_target):
        # Repeats, exact copies and near-copies of real pages, with budgets
        # past the run's end.
        entity_id = dup_target[0]
        page_ids = sorted(p.page_id for p in dup_corpus.pages_of(entity_id))
        config = L2QConfig()
        result = _result(page_ids[:2], [page_ids[1:4], page_ids[::-1],
                                        page_ids[2:5] * 2, ()])
        budgets = list(range(7))
        assert DuplicateWasteScorer(dup_corpus, config).waste_by_budget(
            result, budgets) == reference_waste_by_budget(dup_corpus, config,
                                                          result, budgets)

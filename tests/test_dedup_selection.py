"""Dedup-aware selection wiring: session index, discount, determinism."""

import numpy as np
import pytest

from repro.aspects.relevance import AllRelevant
from repro.core.config import L2QConfig
from repro.core.context import CollectiveUtilityArrays
from repro.core.harvester import Harvester
from repro.core.selection import make_selector
from repro.core.session import HarvestSession
from repro.dedup.minhash import MinHasher
from repro.eval.runner import ExperimentRunner
from repro.scenarios import make_scenario
from repro.search.engine import SearchEngine
from repro.utils.rng import SeededRandom

from tests.helpers import harvest_signature


@pytest.fixture(scope="module")
def dup_corpus():
    return make_scenario("near-duplicates").corpus_for(
        "researcher", num_entities=8, pages_per_entity=6, seed=9)


def _session(corpus, config):
    entity_id = corpus.entity_ids()[0]
    return HarvestSession(
        corpus=corpus,
        engine=SearchEngine(corpus, top_k=5),
        entity=corpus.get_entity(entity_id),
        aspect="RESEARCH",
        relevance=AllRelevant(),
        config=config,
        rng=SeededRandom(1),
    )


class TestSessionNoveltyIndex:
    def test_disabled_by_default(self, dup_corpus):
        session = _session(dup_corpus, L2QConfig())
        assert session.novelty is None
        assert session.expected_novelty(("anything",)) == 1.0

    def test_enabled_with_penalty(self, dup_corpus):
        session = _session(dup_corpus, L2QConfig(dedup_penalty=0.5))
        assert session.novelty is not None

    def test_index_tracks_added_pages(self, dup_corpus):
        session = _session(dup_corpus, L2QConfig(dedup_penalty=0.5))
        pages = dup_corpus.pages_of(session.entity.entity_id)[:2]
        session.add_pages(pages)
        assert len(session.novelty.gathered) == 2
        # Re-adding must not grow the index (same contract as candidates).
        session.add_pages(pages)
        assert len(session.novelty.gathered) == 2

    def test_gathered_postings_score_zero_novelty(self, dup_corpus):
        session = _session(dup_corpus, L2QConfig(dedup_penalty=0.5))
        pages = dup_corpus.pages_of(session.entity.entity_id)
        session.add_pages(pages)
        query = tuple(pages[0].tokens[:1])
        assert session.expected_novelty(query) == 0.0


class TestCollectiveDiscount:
    def _collective(self):
        return CollectiveUtilityArrays(collective_recall=np.array([0.6]),
                                       collective_recall_all=np.array([0.8]))

    def test_full_novelty_is_identity(self):
        collective = self._collective()
        discounted = collective.discounted(expected_novelty=1.0, penalty=0.7)
        assert discounted.collective_recall == collective.collective_recall
        assert discounted.collective_precision == collective.collective_precision

    def test_zero_penalty_is_identity(self):
        collective = self._collective()
        discounted = collective.discounted(expected_novelty=0.0, penalty=0.0)
        assert discounted.collective_recall == collective.collective_recall

    def test_fully_redundant_query_fully_discounted(self):
        discounted = self._collective().discounted(expected_novelty=0.0,
                                                   penalty=1.0)
        assert discounted.collective_recall == 0.0
        assert discounted.collective_precision == 0.0
        assert discounted.balanced == 0.0

    def test_precision_and_recall_shrink_proportionally(self):
        collective = self._collective()
        discounted = collective.discounted(expected_novelty=0.5, penalty=0.5)
        factor = 1.0 - 0.5 * 0.5
        assert discounted.collective_recall == pytest.approx(
            collective.collective_recall * factor)
        assert discounted.collective_precision == pytest.approx(
            collective.collective_precision * factor)
        # The Y* denominator is untouched — only the target-aspect recall
        # carries the redundancy discount.
        assert discounted.collective_recall_all == collective.collective_recall_all


class TestPenalisedHarvestDeterminism:
    @pytest.mark.parametrize("penalty", [0.0, 0.5])
    def test_same_penalty_reproduces_bit_for_bit(self, dup_corpus, penalty):
        signatures = []
        for _ in range(2):
            config = L2QConfig(dedup_penalty=penalty)
            engine = SearchEngine(dup_corpus, top_k=5)
            harvester = Harvester(dup_corpus, engine, config)
            entity_id = dup_corpus.entity_ids()[0]
            result = harvester.harvest(entity_id, "RESEARCH",
                                       make_selector("L2QBAL", config),
                                       AllRelevant(), num_queries=3)
            signatures.append(harvest_signature(result))
        assert signatures[0] == signatures[1]

    def test_explicit_zero_penalty_matches_default_config(self, dup_corpus):
        signatures = []
        for config in (L2QConfig(), L2QConfig(dedup_penalty=0.0)):
            engine = SearchEngine(dup_corpus, top_k=5)
            harvester = Harvester(dup_corpus, engine, config)
            entity_id = dup_corpus.entity_ids()[0]
            result = harvester.harvest(entity_id, "RESEARCH",
                                       make_selector("L2QBAL", config),
                                       AllRelevant(), num_queries=3)
            signatures.append(harvest_signature(result))
        assert signatures[0] == signatures[1]


class TestSharedPageSignatures:
    def test_sessions_of_a_harvester_sign_each_page_once(self, dup_corpus,
                                                         monkeypatch):
        # Every session's novelty estimator signs into the harvester's one
        # cache, so six sessions over two entities sign each page once.
        signed = []
        signatures = MinHasher.signatures

        def counting(self, shingle_sets):
            signed.append(len(shingle_sets))
            return signatures(self, shingle_sets)

        monkeypatch.setattr(MinHasher, "signatures", counting)
        config = L2QConfig(dedup_penalty=0.5)
        harvester = Harvester(dup_corpus, SearchEngine(dup_corpus, top_k=5),
                              config)
        for method in ("L2QBAL", "L2QP", "L2QR"):
            for entity_id in dup_corpus.entity_ids()[:2]:
                harvester.harvest(entity_id, "RESEARCH",
                                  make_selector(method, config), AllRelevant(),
                                  num_queries=3)
        assert sum(signed) == len(harvester.page_signatures._signatures) > 0

    def test_penalty_on_evaluation_signs_each_page_once(self, dup_corpus,
                                                        monkeypatch):
        # The runner's harvesters (novelty) and its waste scorer sign into
        # the runner's one cache: no page is signed twice in an evaluation.
        signed = []
        signatures = MinHasher.signatures

        def counting(self, shingle_sets):
            signed.append(len(shingle_sets))
            return signatures(self, shingle_sets)

        monkeypatch.setattr(MinHasher, "signatures", counting)
        runner = ExperimentRunner(dup_corpus, L2QConfig(dedup_penalty=0.5),
                                  corpus_store="off")
        series = runner.evaluate_methods_detailed(
            ["L2QBAL", "L2QR"], num_queries_list=(1, 2), max_test_entities=2,
            aspects=["RESEARCH"])
        assert series.duplicate_waste["L2QBAL"]
        prepared = runner.prepare(runner.default_split(0))
        assert runner.harvester_for(prepared).page_signatures is runner.page_signatures
        assert sum(signed) == len(runner.page_signatures._signatures) > 0

    def test_shared_signatures_leave_results_unchanged(self, dup_corpus):
        # One harvester for all runs (one shared cache) gathers exactly what
        # a fresh harvester per run (a cache of its own) gathers.
        config = L2QConfig(dedup_penalty=0.5)
        engine = SearchEngine(dup_corpus, top_k=5)
        shared = Harvester(dup_corpus, engine, config)
        runs = [(method, entity_id) for method in ("L2QBAL", "L2QP", "L2QR")
                for entity_id in dup_corpus.entity_ids()[:2]]

        def signature(harvester, method, entity_id):
            return harvest_signature(harvester.harvest(
                entity_id, "RESEARCH", make_selector(method, config),
                AllRelevant(), num_queries=3))

        assert [signature(shared, *run) for run in runs] == \
            [signature(Harvester(dup_corpus, engine, config), *run)
             for run in runs]

    def test_penalty_off_signs_no_page(self, dup_corpus, monkeypatch):
        def refuse(self, shingle_sets):
            raise AssertionError("a page was signed with the penalty off")

        monkeypatch.setattr(MinHasher, "signatures", refuse)
        config = L2QConfig()
        harvester = Harvester(dup_corpus, SearchEngine(dup_corpus, top_k=5),
                              config)
        result = harvester.harvest(dup_corpus.entity_ids()[0], "RESEARCH",
                                   make_selector("L2QBAL", config),
                                   AllRelevant(), num_queries=3)
        assert result.iterations
        assert harvester.page_signatures._signatures == {}

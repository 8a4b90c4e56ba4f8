"""Every page is enumerated once, and every consumer of its n-grams agrees
with the dict-and-set reference.

A session's pool, its sorted and pruned candidates, the ideal oracle's
candidate order and the domain queries (with their entity support and the
HR containment matrix) all count over one
:class:`~repro.core.queries.NgramTable`.  They must equal
:func:`tests.oracles.reference_enumerate`'s statistics on random pages,
in any fold order and under any cap; a smoke Fig. 13 must run the per-page
kernel once per page; and sessions racing on threads must share one table
per entity.
"""

import gc
import random
import weakref

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.aspects.relevance import AllRelevant, OracleRelevance
from repro.baselines.oracle import IdealPool
from repro.core.config import L2QConfig
from repro.core.domain_phase import enumerate_domain_queries
from repro.core.entity_phase import EntityPhase
from repro.core.harvester import Harvester
from repro.core.queries import QueryEnumerator
from repro.core.session import HarvestSession
from repro.corpus.corpus import Corpus
from repro.corpus.document import Entity
from repro.dedup.novelty import NoveltyEstimator
from repro.eval.experiments import SMOKE_SCALE, run_fig13
from repro.search.engine import SearchEngine
from repro.utils.rng import SeededRandom

from tests.helpers import (
    entity_enumerator,
    harvest_signature,
    make_page,
    run_on_threads,
)
from tests.oracles import (
    reference_enumerate,
    reference_ideal_candidates,
    reference_prune,
)

WORDS = ["w0", "w1", "w2", "w3", "w4"]
#: Each entity's excluded words; ``"the"`` is a stopword and ``"a"`` is
#: shorter than the minimum word length.
EXCLUDED = {"e0": ("x0", "x1"), "e1": ("x1", "x2")}
NOISE = ["the", "a"]
CAPS = ("one", "mid", "above")


def _entities():
    return {entity_id: Entity(entity_id=entity_id, domain="researcher",
                              name_tokens=(words[0],), seed_query=(words[1],))
            for entity_id, words in EXCLUDED.items()}


def _random_pages(rng):
    """Pages of two entities over a tiny vocabulary: repeated words,
    excluded words inside windows, empty paragraphs, and pages repeating an
    earlier page's contents under a new id."""
    vocabulary = WORDS + ["x0", "x1", "x2"] + NOISE
    contents = []
    for _ in range(rng.randint(1, 8)):
        if contents and rng.random() < 0.25:
            contents.append(rng.choice(contents))
            continue
        contents.append([[rng.choice(vocabulary) for _ in range(rng.randint(0, 7))]
                         for _ in range(rng.randint(1, 3))])
    return [make_page(f"p{index}", f"e{index % 2}",
                      [(tokens, "AWARD" if index % 3 else None) for tokens in paragraphs])
            for index, paragraphs in enumerate(contents)]


def _cap(kind, pool_size):
    return {"one": 1, "mid": max(1, pool_size // 2), "above": pool_size + 3}[kind]


class TestAgainstTheReference:
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2 ** 30), max_length=st.integers(1, 3),
           min_word_length=st.integers(1, 2), cap=st.sampled_from(CAPS),
           min_pages=st.integers(1, 3))
    def test_every_consumer_equals_the_reference(self, researcher_corpus, seed,
                                                 max_length, min_word_length,
                                                 cap, min_pages):
        rng = random.Random(seed)
        pages = _random_pages(rng)
        entities = _entities()
        corpus = Corpus(researcher_corpus.domain_spec, entities,
                        {page.page_id: page for page in pages},
                        researcher_corpus.type_system)
        config = L2QConfig(max_query_length=max_length,
                           min_query_word_length=min_word_length)

        # The session pool, folded in a random order and in batches.
        entity = entities["e0"]
        universe = corpus.pages_of("e0")
        enumerator = entity_enumerator(entity, config)
        folded = rng.sample(universe, rng.randint(0, len(universe)))
        session = HarvestSession(
            corpus=corpus, engine=SearchEngine(corpus), entity=entity,
            aspect="AWARD", relevance=OracleRelevance("AWARD"), config=config,
            rng=SeededRandom(seed))
        for start in range(0, len(folded), 2):
            session.add_pages(folded[start:start + 2])
        reference = reference_enumerate(enumerator, folded)
        pool = session.candidates
        assert set(pool.sorted_queries()) == set(reference.occurrences)
        assert pool.sorted_queries() == sorted(reference.occurrences)
        limit = _cap(cap, len(reference.occurrences))
        assert pool.pruned(limit) == reference_prune(reference, 1, limit)
        phase = EntityPhase(corpus.type_system,
                            L2QConfig(max_query_length=max_length,
                                      min_query_word_length=min_word_length,
                                      max_entity_candidates=limit))
        assert phase.enumerate_candidates(entity, session.current_pages,
                                          statistics=pool) == \
            reference_prune(reference, 1, limit)

        # The ideal oracle's candidates: the entity's whole universe.
        whole = reference_enumerate(enumerator, universe)
        limit = _cap(cap, len(whole.occurrences))
        ideal = IdealPool.build(session, limit)
        assert list(ideal.candidates) == reference_ideal_candidates(whole, limit)

        # The domain queries of every page, no words excluded.
        plain = QueryEnumerator(max_length=max_length, min_word_length=min_word_length)
        everything = reference_enumerate(plain, pages)
        limit = _cap(cap, len(everything.occurrences))
        domain = enumerate_domain_queries(pages, L2QConfig(
            max_query_length=max_length, min_query_word_length=min_word_length,
            domain_min_query_pages=min_pages, max_domain_queries=limit))
        expected = reference_prune(everything, min_pages, limit)
        assert domain.queries == expected
        assert domain.entity_support.tolist() == \
            [everything.entity_support(query) for query in expected]
        assert domain.containing.shape == (len(expected), len(pages))
        assert domain.containing.toarray().tolist() == [
            [float(page.page_id in everything.pages[query]) for page in pages]
            for query in expected]


class TestOneEnumerationPerPage:
    def test_smoke_fig13_runs_the_kernel_once_per_page(self, monkeypatch):
        calls = []
        enumerate_from_page = QueryEnumerator.enumerate_from_page
        monkeypatch.setattr(QueryEnumerator, "enumerate_from_page",
                            lambda self, page: calls.append(page.page_id)
                            or enumerate_from_page(self, page))
        run_fig13(SMOKE_SCALE, corpus_store="off")
        assert len(calls) == len(set(calls)) == 220

    def test_ideal_pool_build_enumerates_nothing(self, researcher_corpus,
                                                 monkeypatch):
        entity_id = researcher_corpus.entity_ids()[0]
        session = HarvestSession(
            corpus=researcher_corpus, engine=SearchEngine(researcher_corpus),
            entity=researcher_corpus.get_entity(entity_id), aspect="AWARD",
            relevance=AllRelevant(), config=L2QConfig(), rng=SeededRandom(1),
            current_pages=researcher_corpus.pages_of(entity_id)[:1])
        monkeypatch.setattr(QueryEnumerator, "enumerate_from_page",
                            lambda self, page: pytest.fail("enumerated a page"))
        pool = IdealPool.build(session, 3000)
        assert pool.candidates and pool.page_ids == session.candidates.table.page_ids


class TestConstructorPages:
    def test_duplicates_are_folded_once(self, researcher_corpus, monkeypatch):
        observed = []
        observe_page = NoveltyEstimator.observe_page
        monkeypatch.setattr(NoveltyEstimator, "observe_page",
                            lambda self, page: observed.append(page.page_id)
                            or observe_page(self, page))
        entity_id = researcher_corpus.entity_ids()[0]
        p0, p1 = researcher_corpus.pages_of(entity_id)[:2]
        session = HarvestSession(
            corpus=researcher_corpus, engine=SearchEngine(researcher_corpus),
            entity=researcher_corpus.get_entity(entity_id), aspect="AWARD",
            relevance=AllRelevant(), config=L2QConfig(dedup_penalty=0.5),
            rng=SeededRandom(1), current_pages=[p0, p0, p1])
        assert session.current_page_ids() == [p0.page_id, p1.page_id]
        assert session.candidates.num_pages == 2
        assert observed == [p0.page_id, p1.page_id]
        assert session.add_pages([p1, p0]) == []


class TestSessionLifetime:
    def test_a_finished_session_is_freed_without_the_cycle_collector(
            self, researcher_corpus):
        # A session the cycle collector must free outlives its harvest by an
        # arbitrary time, and its graph tables with it.
        entity_id = researcher_corpus.entity_ids()[0]
        enabled = gc.isenabled()
        gc.disable()
        try:
            session = HarvestSession(
                corpus=researcher_corpus, engine=SearchEngine(researcher_corpus),
                entity=researcher_corpus.get_entity(entity_id), aspect="AWARD",
                relevance=AllRelevant(), config=L2QConfig(), rng=SeededRandom(1),
                current_pages=researcher_corpus.pages_of(entity_id)[:2])
            assert session.candidates.num_queries
            freed = weakref.ref(session)
            del session
            assert freed() is None
        finally:
            if enabled:
                gc.enable()


class TestThreadedSessions:
    def test_eight_racing_sessions_share_one_table(self, researcher_runner,
                                                   researcher_prepared):
        """Eight sessions of one entity start on eight threads with a tiny
        switch interval: they leave one table, every session counts over
        it, and every run chooses the serial queries."""
        prepared = researcher_prepared
        entity_id = prepared.split.test_entities[0]

        def jobs():
            return [researcher_runner.build_job(prepared, method, entity_id,
                                                aspect, 3)
                    for method in ("AQ", "L2QP")
                    for aspect in ("AWARD", "RESEARCH", "BIOGRAPHY", "EDUCATION")]

        def harvester():
            return Harvester(prepared.corpus, prepared.engine, prepared.config)

        serial = harvester()
        expected = [harvest_signature(serial.harvest_job(job)) for job in jobs()]

        threaded = harvester()
        racing = jobs()
        sessions = []
        for job in racing:
            # Each selector is prepared once, with its run's session.
            job.selector.prepare = _capturing(job.selector.prepare, sessions)
        results = run_on_threads(threaded.harvest_job, racing)
        assert list(threaded.ngram_tables) == [
            (entity_id, prepared.config.max_query_length,
             prepared.config.min_query_word_length)]
        table = next(iter(threaded.ngram_tables.values()))
        assert len(sessions) == len(racing)
        assert all(session.candidates.table is table for session in sessions)
        assert [harvest_signature(result) for result in results] == expected


def _capturing(prepare, sessions):
    """``prepare``, recording the session it is handed into ``sessions``."""
    def capture(session):
        sessions.append(session)
        prepare(session)
    return capture

"""The HR, AQ and IDEAL baselines choose exactly what their loop oracles choose.

:class:`~repro.baselines.harvest_rate.HarvestRateSelection` and
:class:`~repro.baselines.adaptive_querying.AdaptiveQueryingSelection` score
their whole candidate pool from one containment matrix of the session's
graph tables.  :func:`tests.oracles.reference_hr_select` and
:func:`tests.oracles.reference_aq_select` score each candidate against each
current page with ``Page.contains_all`` and rank the pool with a full sort.
Both must return the same query at every selection of any session: random
sessions replayed step by step, and every HR and AQ selection of the
smoke-scale Fig. 12 and Fig. 13 runs.

:class:`~repro.baselines.oracle.IdealSelection` scores its whole pool from
one retrieval matrix, ranked in one batched engine call;
:func:`tests.oracles.reference_ideal_select` fires each candidate through
the per-query search and scores the union with Python sets.  They must
agree on random sessions and on every IDEAL selection of the smoke-scale
figures and of one smoke scenario cell, and a prepared split must build
each entity's pool once for all of its aspect sessions.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.aspects.relevance import OracleRelevance
from repro.baselines.adaptive_querying import AdaptiveQueryingSelection
from repro.baselines.harvest_rate import HarvestRateSelection, HarvestRateStatistics
from repro.baselines.oracle import IdealSelection
from repro.core import domain_phase as domain_phase_module
from repro.core.config import L2QConfig
from repro.core.queries import NgramTable
from repro.core.session import HarvestSession
from repro.corpus.corpus import Corpus
from repro.corpus.document import Entity
from repro.eval.experiments import SMOKE_SCALE, run_fig12, run_fig13
from repro.eval.scenario_sweep import ScenarioSweep
from repro.search import rankers as rankers_module
from repro.search.engine import SearchEngine
from repro.search.language_model import DirichletLanguageModel
from repro.search.rankers import register_ranker
from repro.utils.rng import SeededRandom

from tests.helpers import make_page, run_on_threads
from tests.oracles import (
    reference_aq_select,
    reference_hr_select,
    reference_hr_statistics,
    reference_ideal_select,
)

ASPECT = "AWARD"
WORDS = [f"w{i}" for i in range(6)]
#: The entity's excluded words: pages carry them, session n-grams never do.
EXCLUDED = ["x0", "x1"]
#: A word no page carries.
UNSEEN = "zz"
#: Rates of domain queries and templates; repeated values make ties.
RATES = [0.0, 0.25, 0.5, 1.0]
TEMPLATES = [("<t0>",), ("<t1>",), ("<t2>",)]
FIRE_MODES = ("nothing", "choice", "sample", "miss", "everywhere")


def _pages(rng):
    """Pages over a small shared vocabulary, some duplicating an earlier
    page's words and label; in half the scenarios ``WORDS[0]`` is on every
    page.  Relevance is none, some or all pages, by scenario."""
    labels = rng.choice(["none", "some", "all"])
    everywhere = rng.random() < 0.5
    specs = []
    for _ in range(rng.randint(2, 7)):
        if specs and rng.random() < 0.25:
            specs.append(rng.choice(specs))
            continue
        paragraphs = [[rng.choice(WORDS + EXCLUDED) for _ in range(rng.randint(1, 5))]
                      for _ in range(rng.randint(1, 2))]
        if everywhere:
            paragraphs[0].append(WORDS[0])
        relevant = {"none": False, "all": True, "some": rng.random() < 0.5}[labels]
        specs.append((paragraphs, relevant))
    return [make_page(f"p{index}", "e1",
                      [(tokens, ASPECT if relevant else None) for tokens in paragraphs])
            for index, (paragraphs, relevant) in enumerate(specs)]


def _domain_statistics(rng):
    """Random domain statistics, or ``None`` for a bare selector.  Domain
    queries may carry an excluded word or a word on no page."""
    if rng.random() < 0.2:
        return None
    queries = sorted({tuple(rng.choice(WORDS + EXCLUDED + [UNSEEN])
                            for _ in range(rng.randint(1, 2)))
                      for _ in range(rng.randint(1, 12))})
    rng.shuffle(queries)
    return HarvestRateStatistics(
        query_harvest_rate={query: rng.choice(RATES) for query in queries},
        template_harvest_rate={template: rng.choice(RATES) for template in TEMPLATES
                               if rng.random() < 0.7},
        query_templates={query: tuple(rng.sample(TEMPLATES, rng.randint(0, 2)))
                         for query in queries})


def _hr_pool(session, statistics):
    excluded = session.entity.excluded_words()
    return set(session.candidates.sorted_queries()) | {
        query for query in statistics.query_harvest_rate
        if not excluded.intersection(query)}


def _fire(rng, session, hr, aq):
    mode = rng.choice(FIRE_MODES)
    if mode == "choice":
        chosen = rng.choice([hr, aq]).select(session)
        fired = [chosen] if chosen is not None else []
    elif mode == "sample":
        pool = sorted(_hr_pool(session, hr.domain_statistics))
        fired = rng.sample(pool, rng.randint(1, len(pool))) if pool else []
    elif mode == "miss":
        fired = [(UNSEEN,)]
    elif mode == "everywhere":
        fired = [(WORDS[0],)]
    else:
        fired = []
    for query in fired:
        session.record_query(query)


def _check(session, hr, aq, met):
    assert hr.select(session) == reference_hr_select(hr.domain_statistics, session)
    assert aq.select(session) == reference_aq_select(session)

    pages = session.current_pages
    labels = [session.relevance(page) for page in pages]
    met.add("relevant:" + ("none" if not any(labels) else
                           "all" if all(labels) else "some"))
    pool = _hr_pool(session, hr.domain_statistics)
    fired = sum(map(session.is_fired, pool))
    met.add("fired:" + ("none" if not fired else
                        "all" if fired == len(pool) else "some"))
    covered = {page.page_id for query in session.past_queries
               for page in pages if page.contains_all(query)}
    met.add("past covers:" + ("none" if not covered else
                              "all" if len(covered) == len(pages) else "some"))
    tokens = [page.tokens for page in pages]
    if len(set(tokens)) < len(tokens):
        met.add("duplicate pages")
    excluded = session.entity.excluded_words()
    ngrams = set(session.candidates.sorted_queries())
    for query in hr.domain_statistics.query_harvest_rate:
        if excluded.intersection(query):
            met.add("domain query with an excluded word")
        elif not any(page.contains_all(query) for page in pages):
            met.add("domain query on no page")
        elif query in ngrams:
            met.add("domain query among the n-grams")


def _universe(corpus_like, pages):
    """A corpus whose one entity ``e1`` has exactly ``pages``."""
    entity = Entity(entity_id="e1", domain="researcher",
                    name_tokens=(EXCLUDED[0],), seed_query=(EXCLUDED[1],))
    corpus = Corpus(corpus_like.domain_spec, {"e1": entity},
                    {page.page_id: page for page in pages}, corpus_like.type_system)
    return entity, corpus


def _replay(seed, corpus_like):
    """Replay random session ``seed``: pages arrive in batches, queries are
    fired between selections, and finally the whole pool is fired.  Both
    selectors must choose the oracle's query at every step; returns the
    cases the session met."""
    rng = random.Random(seed)
    pages = _pages(rng)
    statistics = _domain_statistics(rng)
    met = {"bare HR"} if statistics is None else set()
    entity, corpus = _universe(corpus_like, pages)
    session = HarvestSession(
        corpus=corpus, engine=SearchEngine(corpus, top_k=5), entity=entity,
        aspect=ASPECT, relevance=OracleRelevance(ASPECT), config=L2QConfig(),
        rng=SeededRandom(seed))
    hr, aq = HarvestRateSelection(statistics), AdaptiveQueryingSelection()
    position = 0
    while position < len(pages):
        size = rng.randint(1, 3) if position == 0 else rng.randint(0, 2)
        session.add_pages(pages[position:position + size])
        position += size
        _fire(rng, session, hr, aq)
        _check(session, hr, aq, met)
    for query in sorted(_hr_pool(session, hr.domain_statistics)):
        session.record_query(query)
    _check(session, hr, aq, met)
    assert hr.select(session) is None and aq.select(session) is None
    return met


class TestRandomSessions:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=2 ** 30))
    def test_selectors_choose_the_oracles_query(self, researcher_corpus, seed):
        _replay(seed, researcher_corpus)

    @pytest.mark.parametrize("seed", [414, 1145, 1291])
    def test_fired_queries_outside_the_id_space_cover_pages(self, researcher_corpus,
                                                            seed):
        # These sessions fire a domain query that is no n-gram of the
        # entity's pages, although one of them holds all its words: AQ must
        # count that page as covered, as the oracle does.
        _replay(seed, researcher_corpus)

    def test_generator_covers_every_case(self, researcher_corpus):
        met = set()
        for seed in range(40):
            met |= _replay(seed, researcher_corpus)
        assert met == {
            "relevant:none", "relevant:some", "relevant:all",
            "fired:none", "fired:some", "fired:all",
            "past covers:none", "past covers:some", "past covers:all",
            "duplicate pages", "bare HR",
            "domain query with an excluded word", "domain query on no page",
            "domain query among the n-grams",
        }


#: A test ranker that retrieves nothing for queries holding ``WORDS[1]``.
BLIND_RANKER = "ideal-test-blind"
IDEAL_FIRE_MODES = ("nothing", "choice", "sample", "miss", "all")


class _BlindRanker:
    """Dirichlet ranking, except that queries holding ``WORDS[1]`` retrieve
    nothing: enumerated candidates always match a page, so only a ranker
    like this exercises the selector's empty-retrieval mask."""

    def __init__(self, index):
        self.model = DirichletLanguageModel(index)

    def rank(self, query, top_k=0, require_match=True):
        if WORDS[1] in query:
            return []
        return self.model.rank(query, top_k, require_match)

    def rank_many(self, queries, top_k=0, require_match=True):
        return [self.rank(query, top_k, require_match) for query in queries]


@pytest.fixture(scope="module")
def blind_ranker():
    register_ranker(BLIND_RANKER, lambda index, **params: _BlindRanker(index),
                    overwrite=True)
    yield BLIND_RANKER
    rankers_module._RANKERS.pop(BLIND_RANKER, None)


def _ideal_session(seed, corpus_like, ranker):
    """A session whose entity's universe is ``_pages``; the engine ranks
    with ``ranker`` and returns a random number of results per query."""
    rng = random.Random(seed)
    pages = _pages(rng)
    entity, corpus = _universe(corpus_like, pages)
    engine = SearchEngine(corpus, ranker=ranker, top_k=rng.choice([1, 2, 5]))
    session = HarvestSession(
        corpus=corpus, engine=engine, entity=entity, aspect=ASPECT,
        relevance=OracleRelevance(ASPECT), config=L2QConfig(), rng=SeededRandom(seed))
    return rng, pages, session


def _ideal_check(session, ideal, met):
    chosen = ideal.select(session)
    assert chosen == reference_ideal_select(ideal.ground_truth, session,
                                            ideal.max_candidates)
    pages = session.corpus.pages_of("e1")
    labels = [ideal.ground_truth(page) for page in pages]
    met.add("relevant:" + ("none" if not any(labels) else
                           "all" if all(labels) else "some"))
    gathered = len(session.current_pages)
    met.add("gathered:" + ("none" if not gathered else
                           "all" if gathered == len(pages) else "some"))
    if not any(labels):
        return chosen
    pool = ideal._pool(session)
    fired = sum(map(session.is_fired, pool.candidates))
    met.add("fired:" + ("none" if not fired else
                        "all" if fired == len(pool.candidates) else "some"))
    if pool.retrieves_nothing.any():
        met.add("retrieves nothing")
    if len(pool.candidates) == ideal.max_candidates:
        met.add("capped")
    tokens = [page.tokens for page in pages]
    if len(set(tokens)) < len(tokens):
        met.add("duplicate pages")
    return chosen


def _replay_ideal(seed, corpus_like, ranker):
    """Replay random session ``seed``: pages arrive in batches, queries are
    fired between selections, and finally the whole pool is fired.  IDEAL
    must choose the oracle's query at every step; returns the cases the
    session met."""
    rng, pages, session = _ideal_session(seed, corpus_like, ranker)
    ideal = IdealSelection(OracleRelevance(ASPECT),
                           max_candidates=rng.choice([1, 3, 3000]))
    met = set()
    arrivals = pages[:]
    rng.shuffle(arrivals)
    position = 0
    while True:
        chosen = _ideal_check(session, ideal, met)
        mode = rng.choice(IDEAL_FIRE_MODES)
        pool = ideal._pool(session).candidates
        fired = {"nothing": [], "choice": [chosen] if chosen else [],
                 "sample": rng.sample(pool, rng.randint(0, len(pool))),
                 "miss": [(UNSEEN,)], "all": list(pool)}[mode]
        for query in fired:
            session.record_query(query)
        if position >= len(arrivals):
            break
        size = rng.randint(0, 3)
        session.add_pages(arrivals[position:position + size])
        position += size
    for query in ideal._pool(session).candidates:
        session.record_query(query)
    assert _ideal_check(session, ideal, met) is None
    return met


class TestIdealRandomSessions:
    RANKERS = ("dirichlet", "bm25", BLIND_RANKER)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(min_value=0, max_value=2 ** 30),
           ranker=st.sampled_from(RANKERS))
    def test_ideal_chooses_the_oracles_query(self, researcher_corpus, blind_ranker,
                                             seed, ranker):
        _replay_ideal(seed, researcher_corpus, ranker)

    def test_generator_covers_every_case(self, researcher_corpus, blind_ranker):
        met = set()
        for seed in range(40):
            met |= _replay_ideal(seed, researcher_corpus,
                                 self.RANKERS[seed % len(self.RANKERS)])
        assert met == {
            "relevant:none", "relevant:some", "relevant:all",
            "gathered:none", "gathered:some", "gathered:all",
            "fired:none", "fired:some", "fired:all",
            "retrieves nothing", "capped", "duplicate pages",
        }


def _check_ideal_selections(monkeypatch):
    """Assert every IDEAL selection against the oracle; returns the choices."""
    checked = []
    ideal_select = IdealSelection.select

    def checked_ideal(self, session):
        chosen = ideal_select(self, session)
        assert chosen == reference_ideal_select(self.ground_truth, session,
                                                self.max_candidates)
        checked.append(chosen)
        return chosen

    monkeypatch.setattr(IdealSelection, "select", checked_ideal)
    return checked


def test_smoke_figures_choose_the_oracles_queries(monkeypatch):
    """Every HR, AQ and IDEAL selection of smoke-scale Fig. 12 and Fig. 13."""
    checked = {"HR": 0, "AQ": 0}
    hr_select = HarvestRateSelection.select
    aq_select = AdaptiveQueryingSelection.select

    def checked_hr(self, session):
        chosen = hr_select(self, session)
        assert chosen == reference_hr_select(self.domain_statistics, session)
        checked["HR"] += 1
        return chosen

    def checked_aq(self, session):
        chosen = aq_select(self, session)
        assert chosen == reference_aq_select(session)
        checked["AQ"] += 1
        return chosen

    monkeypatch.setattr(HarvestRateSelection, "select", checked_hr)
    monkeypatch.setattr(AdaptiveQueryingSelection, "select", checked_aq)
    ideal_checked = _check_ideal_selections(monkeypatch)
    run_fig13(SMOKE_SCALE, corpus_store="off")
    after_fig13 = dict(checked)
    assert ideal_checked and None not in ideal_checked
    run_fig12(SMOKE_SCALE, corpus_store="off")
    assert min(after_fig13.values()) > 0
    assert checked["HR"] > after_fig13["HR"] and checked["AQ"] > after_fig13["AQ"]


def test_smoke_scenario_cell_ideal_chooses_the_oracles_queries(monkeypatch):
    checked = _check_ideal_selections(monkeypatch)
    ScenarioSweep(scale=SMOKE_SCALE, scenarios=("near-duplicates",),
                  methods=("MQ",), domains=("researcher",),
                  corpus_store="off").run()
    assert checked and None not in checked


def test_prepared_split_builds_each_entity_pool_once(researcher_runner,
                                                     researcher_prepared,
                                                     monkeypatch):
    """Every aspect session of one entity reads one pool: one enumeration
    of the entity's pages and one batched ranking of its candidates."""
    enumerations, batches = [], []
    build = NgramTable.build.__func__
    monkeypatch.setattr(NgramTable, "build", classmethod(
        lambda cls, enumerator, pages: enumerations.append(len(pages))
        or build(cls, enumerator, pages)))
    retrieve_many = SearchEngine.retrieve_many
    monkeypatch.setattr(SearchEngine, "retrieve_many",
                        lambda self, entity, queries, *args, **kwargs:
                        batches.append(len(queries))
                        or retrieve_many(self, entity, queries, *args, **kwargs))
    prepared = replace(researcher_prepared, ideal_pools={})
    entity_id = prepared.split.test_entities[0]
    aspects = [aspect for aspect in prepared.ground_truth_by_aspect
               if prepared.corpus.relevant_pages(entity_id, aspect)][:4]
    assert len(aspects) == 4
    for aspect in aspects:
        run = researcher_runner.harvest_once(prepared, "IDEAL", entity_id, aspect, 3)
        assert len(run.iterations) == 3
    pages = prepared.corpus.pages_of(entity_id)
    assert enumerations == [len(pages)]
    assert list(prepared.ideal_pools) == [(entity_id, 3000)]
    pool = prepared.ideal_pools[entity_id, 3000]
    assert batches == [len(pool.candidates)]
    assert pool.retrieval.shape == (len(pool.candidates), len(pages))


def test_thread_sessions_racing_for_one_pool_choose_the_serial_queries(
        researcher_runner, researcher_prepared):
    """Eight aspect sessions of one entity race to build its pool on eight
    threads with a tiny switch interval: every run chooses the serial
    queries, and the split keeps one pool."""
    entity_id = researcher_prepared.split.test_entities[0]
    aspects = [aspect for aspect in researcher_prepared.ground_truth_by_aspect
               if researcher_prepared.corpus.relevant_pages(entity_id, aspect)][:4]

    def queries(runs):
        return [[record.query for record in run.iterations] for run in runs]

    serial = replace(researcher_prepared, ideal_pools={})
    expected = queries(
        researcher_runner.harvest_once(serial, "IDEAL", entity_id, aspect, 3)
        for aspect in aspects)
    threaded = replace(researcher_prepared, ideal_pools={})
    jobs = [researcher_runner.build_job(threaded, "IDEAL", entity_id, aspect, 3)
            for aspect in aspects * 2]
    runs = run_on_threads(researcher_runner.harvester_for(threaded).harvest_job,
                          jobs)
    assert queries(runs) == expected * 2
    assert list(threaded.ideal_pools) == [(entity_id, 3000)]


class TestHarvestRateStatistics:
    @pytest.fixture(scope="class")
    def domain_corpus(self, researcher_corpus):
        return researcher_corpus.subset(researcher_corpus.entity_ids()[:4])

    def test_equal_the_reference_floats_in_order(self, domain_corpus):
        config = L2QConfig()
        for aspect in ("AWARD", "RESEARCH"):
            stats = HarvestRateStatistics.from_corpus(
                domain_corpus, OracleRelevance(aspect), config)
            rates, template_rates, templates = reference_hr_statistics(
                domain_corpus, OracleRelevance(aspect), config)
            assert list(stats.query_harvest_rate.items()) == list(rates.items())
            assert list(stats.template_harvest_rate.items()) == \
                list(template_rates.items())
            assert list(stats.query_templates.items()) == list(templates.items())

    def test_domain_scores_precomputed(self, domain_corpus):
        stats = HarvestRateStatistics.from_corpus(domain_corpus,
                                                  OracleRelevance("AWARD"))
        assert stats.domain_queries == list(stats.query_harvest_rate)
        assert stats.domain_scores.tolist() == [
            stats.domain_score(query) for query in stats.domain_queries]

    def test_prepared_split_enumerates_once_for_every_aspect(
            self, researcher_prepared, monkeypatch):
        # The domain phase and HR share the split's one domain enumeration.
        enumerations = []
        enumerate_domain_queries = domain_phase_module.enumerate_domain_queries
        monkeypatch.setattr(domain_phase_module, "enumerate_domain_queries",
                            lambda pages, config: enumerations.append(len(pages))
                            or enumerate_domain_queries(pages, config))
        prepared = replace(researcher_prepared, _domain_models={},
                           _domain_phase=None, _hr_domain=None, _hr_statistics={})
        aspects = list(prepared.relevance_by_aspect)[:3]
        shared = {aspect: prepared.hr_statistics(aspect) for aspect in aspects}
        for aspect in aspects:
            prepared.domain_model(aspect)
        assert enumerations == [prepared.domain_corpus.num_pages()]
        for aspect, stats in shared.items():
            fresh = HarvestRateStatistics.from_corpus(
                prepared.domain_corpus, prepared.relevance_by_aspect[aspect],
                prepared.config)
            assert stats == fresh
            assert stats.domain_scores.tolist() == fresh.domain_scores.tolist()

"""The HR and AQ baselines choose exactly what their loop oracles choose.

:class:`~repro.baselines.harvest_rate.HarvestRateSelection` and
:class:`~repro.baselines.adaptive_querying.AdaptiveQueryingSelection` score
their whole candidate pool from one containment matrix of the session's
graph tables.  :func:`tests.oracles.reference_hr_select` and
:func:`tests.oracles.reference_aq_select` score each candidate against each
current page with ``Page.contains_all`` and rank the pool with a full sort.
Both must return the same query at every selection of any session: random
sessions replayed step by step, and every HR and AQ selection of the
smoke-scale Fig. 12 and Fig. 13 runs.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.aspects.relevance import OracleRelevance
from repro.baselines import harvest_rate as harvest_rate_module
from repro.baselines.adaptive_querying import AdaptiveQueryingSelection
from repro.baselines.harvest_rate import HarvestRateSelection, HarvestRateStatistics
from repro.core.config import L2QConfig
from repro.core.session import HarvestSession
from repro.corpus.document import Entity
from repro.eval.experiments import SMOKE_SCALE, run_fig12, run_fig13
from repro.search.engine import SearchEngine
from repro.utils.rng import SeededRandom

from tests.helpers import make_page
from tests.oracles import (
    reference_aq_select,
    reference_hr_select,
    reference_hr_statistics,
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


@pytest.fixture(scope="module")
def engine(researcher_corpus):
    return SearchEngine(researcher_corpus, top_k=5)


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
    return set(session.candidates.queries()) | {
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
    ngrams = set(session.candidates.queries())
    for query in hr.domain_statistics.query_harvest_rate:
        if excluded.intersection(query):
            met.add("domain query with an excluded word")
        elif not any(page.contains_all(query) for page in pages):
            met.add("domain query on no page")
        elif query in ngrams:
            met.add("domain query among the n-grams")


def _replay(seed, corpus, engine):
    """Replay random session ``seed``: pages arrive in batches, queries are
    fired between selections, and finally the whole pool is fired.  Both
    selectors must choose the oracle's query at every step; returns the
    cases the session met."""
    rng = random.Random(seed)
    pages = _pages(rng)
    statistics = _domain_statistics(rng)
    met = {"bare HR"} if statistics is None else set()
    session = HarvestSession(
        corpus=corpus, engine=engine,
        entity=Entity(entity_id="e1", domain="researcher",
                      name_tokens=(EXCLUDED[0],), seed_query=(EXCLUDED[1],)),
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
    def test_selectors_choose_the_oracles_query(self, researcher_corpus, engine,
                                                seed):
        _replay(seed, researcher_corpus, engine)

    def test_generator_covers_every_case(self, researcher_corpus, engine):
        met = set()
        for seed in range(40):
            met |= _replay(seed, researcher_corpus, engine)
        assert met == {
            "relevant:none", "relevant:some", "relevant:all",
            "fired:none", "fired:some", "fired:all",
            "past covers:none", "past covers:some", "past covers:all",
            "duplicate pages", "bare HR",
            "domain query with an excluded word", "domain query on no page",
            "domain query among the n-grams",
        }


def test_smoke_figures_choose_the_oracles_queries(monkeypatch):
    """Every HR and AQ selection of smoke-scale Fig. 12 and Fig. 13."""
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
    run_fig13(SMOKE_SCALE, corpus_store="off")
    after_fig13 = dict(checked)
    run_fig12(SMOKE_SCALE, corpus_store="off")
    assert min(after_fig13.values()) > 0
    assert checked["HR"] > after_fig13["HR"] and checked["AQ"] > after_fig13["AQ"]


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
        enumerations = []
        enumerate_domain_queries = harvest_rate_module.enumerate_domain_queries
        monkeypatch.setattr(harvest_rate_module, "enumerate_domain_queries",
                            lambda pages, config: enumerations.append(len(pages))
                            or enumerate_domain_queries(pages, config))
        prepared = replace(researcher_prepared, _hr_domain=None, _hr_statistics={})
        aspects = list(prepared.relevance_by_aspect)[:3]
        shared = {aspect: prepared.hr_statistics(aspect) for aspect in aspects}
        assert len(enumerations) == 1
        for aspect, stats in shared.items():
            fresh = HarvestRateStatistics.from_corpus(
                prepared.domain_corpus, prepared.relevance_by_aspect[aspect],
                prepared.config)
            assert stats == fresh
            assert stats.domain_scores.tolist() == fresh.domain_scores.tolist()

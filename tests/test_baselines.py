"""Tests for the baseline strategies (LM, AQ, HR, MQ) and the ideal oracle."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.aspects.relevance import OracleRelevance
from repro.baselines.adaptive_querying import AdaptiveQueryingSelection
from repro.baselines.harvest_rate import HarvestRateSelection, HarvestRateStatistics
from repro.baselines.lm_feedback import _EPSILON, LanguageModelFeedbackSelection
from repro.baselines.manual import ManualQuerySelection
from repro.baselines.oracle import IdealSelection
from repro.core.config import L2QConfig
from repro.core.queries import NgramTable
from repro.core.selection import first_unfired
from repro.core.session import HarvestSession
from repro.corpus.corpus import Corpus
from repro.corpus.document import Entity
from repro.search.engine import SearchEngine
from repro.utils.rng import SeededRandom

from tests.helpers import make_page
from tests.oracles import reference_query_log_likelihood


@pytest.fixture()
def session(researcher_corpus, researcher_prepared):
    split = researcher_prepared.split
    entity_id = split.test_entities[1] if len(split.test_entities) > 1 else split.test_entities[0]
    engine = researcher_prepared.engine
    aspect = "AWARD"
    session = HarvestSession(
        corpus=researcher_corpus,
        engine=engine,
        entity=researcher_corpus.get_entity(entity_id),
        aspect=aspect,
        relevance=researcher_prepared.relevance_by_aspect[aspect],
        config=L2QConfig(),
        rng=SeededRandom(7),
        domain_model=researcher_prepared.domain_model(aspect),
    )
    session.add_pages(engine.fetch_pages(engine.seed_results(entity_id)))
    return session


class TestLanguageModelFeedback:
    def test_parameters_validated(self):
        with pytest.raises(ValueError):
            LanguageModelFeedbackSelection(k=0)
        with pytest.raises(ValueError):
            LanguageModelFeedbackSelection(background_weight=1.0)

    def test_selects_query_from_current_pages(self, session):
        query = LanguageModelFeedbackSelection().select(session)
        assert query is not None
        observed = set()
        for page in session.current_pages:
            observed.update(page.token_set)
        assert all(word in observed for word in query)

    def test_no_pages_returns_none(self, session):
        session.current_pages = []
        assert LanguageModelFeedbackSelection().select(session) is None

    def test_skips_fired_queries(self, session):
        selector = LanguageModelFeedbackSelection()
        first = selector.select(session)
        session.record_query(first)
        second = selector.select(session)
        assert second != first

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture,
                                     HealthCheck.too_slow])
    @given(st.dictionaries(st.sampled_from("abcdefgh"),
                           st.one_of(st.sampled_from([_EPSILON, 0.5, 1.0]),
                                     st.floats(1e-12, 1.0)),
                           min_size=1),
           st.lists(st.lists(st.sampled_from("abcdefghxyz"), min_size=1,
                             max_size=3).map(tuple),
                    min_size=1, max_size=12, unique=True),
           st.data())
    def test_select_matches_reference_ranking(self, session, model, candidates,
                                              data):
        # Random feedback models, words the model has never seen (x, y, z
        # and unmodelled letters), ties and fired queries: the selector must
        # choose what ranking by the per-word-log reference chooses.
        session.fired_queries = set(data.draw(st.lists(st.sampled_from(candidates))))
        selector = LanguageModelFeedbackSelection()
        selector._feedback_model = lambda session, pages: model
        selector._candidates = lambda session: list(candidates)
        ranked = sorted(candidates, key=lambda q: (
            -reference_query_log_likelihood(q, model, _EPSILON), q))
        assert selector.select(session) == first_unfired(ranked, session)


class TestAdaptiveQuerying:
    def test_selects_query_supported_by_relevant_pages(self, session):
        query = AdaptiveQueryingSelection().select(session)
        assert query is not None
        assert not session.is_fired(query)

    def test_no_pages_returns_none(self, session):
        session.current_pages = []
        assert AdaptiveQueryingSelection().select(session) is None

    def test_prefers_novel_queries_over_exhausted_ones(self, session):
        selector = AdaptiveQueryingSelection()
        first = selector.select(session)
        session.record_query(first)
        second = selector.select(session)
        assert second != first


class TestHarvestRate:
    def test_statistics_from_domain_corpus(self, researcher_corpus):
        domain_corpus = researcher_corpus.subset(researcher_corpus.entity_ids()[:4])
        stats = HarvestRateStatistics.from_corpus(
            domain_corpus, OracleRelevance("AWARD"), L2QConfig())
        assert stats.query_harvest_rate
        assert stats.template_harvest_rate
        for rate in stats.query_harvest_rate.values():
            assert 0.0 <= rate <= 1.0
        for rate in stats.template_harvest_rate.values():
            assert 0.0 <= rate <= 1.0

    def test_statistics_from_empty_corpus(self, researcher_corpus):
        stats = HarvestRateStatistics.from_corpus(
            researcher_corpus.subset([]), OracleRelevance("AWARD"))
        assert not stats.query_harvest_rate
        assert stats.domain_score(("anything",)) is None

    def test_domain_score_averages_templates(self, researcher_corpus):
        domain_corpus = researcher_corpus.subset(researcher_corpus.entity_ids()[:4])
        stats = HarvestRateStatistics.from_corpus(
            domain_corpus, OracleRelevance("AWARD"), L2QConfig())
        query = next(iter(stats.query_harvest_rate))
        score = stats.domain_score(query)
        assert score is not None
        assert 0.0 <= score <= 1.0

    def test_selection_with_and_without_domain_statistics(self, session,
                                                          researcher_corpus):
        bare = HarvestRateSelection()
        assert bare.select(session) is not None
        domain_corpus = researcher_corpus.subset(researcher_corpus.entity_ids()[:4])
        stats = HarvestRateStatistics.from_corpus(
            domain_corpus, OracleRelevance("AWARD"), L2QConfig())
        informed = HarvestRateSelection(stats)
        assert informed.select(session) is not None

    def test_no_pages_returns_none(self, session):
        session.current_pages = []
        assert HarvestRateSelection().select(session) is None


class TestManualQuerying:
    def test_fires_aspect_queries_in_order(self, session):
        selector = ManualQuerySelection()
        expected = session.corpus.domain_spec.manual_queries("AWARD")
        fired = []
        for _ in range(len(expected)):
            query = selector.select(session)
            fired.append(query)
            session.record_query(query)
        assert fired == expected

    def test_exhausted_returns_none(self, session):
        selector = ManualQuerySelection()
        for query in session.corpus.domain_spec.manual_queries("AWARD"):
            session.record_query(query)
        assert selector.select(session) is None

    def test_explicit_domain_spec(self, session, researcher_corpus):
        selector = ManualQuerySelection(researcher_corpus.domain_spec)
        assert selector.select(session) is not None


class TestIdealSelection:
    def test_selects_query_improving_coverage(self, session):
        ground_truth = OracleRelevance("AWARD")
        selector = IdealSelection(ground_truth)
        selector.prepare(session)
        query = selector.select(session)
        assert query is not None
        retrieved = [r.page_id for r in session.engine.search(
            session.entity.entity_id, list(query), record_fetch=False)]
        relevant = {p.page_id for p in session.corpus.relevant_pages(
            session.entity.entity_id, "AWARD")}
        assert set(retrieved) & relevant

    def test_no_relevant_pages_returns_none(self, session):
        class NothingRelevant(OracleRelevance):
            def __call__(self, page):
                return 0
        selector = IdealSelection(NothingRelevant("AWARD"))
        selector.prepare(session)
        assert selector.select(session) is None

    def test_prepare_called_lazily(self, session):
        selector = IdealSelection(OracleRelevance("AWARD"))
        assert selector.select(session) is not None

    @pytest.mark.parametrize("max_candidates", [0, -1])
    def test_candidate_cap_validated(self, max_candidates):
        with pytest.raises(ValueError):
            IdealSelection(OracleRelevance("AWARD"), max_candidates=max_candidates)

    def test_prepared_once_even_without_candidates(self, session, monkeypatch):
        # The entity's only page holds nothing but its own excluded words, so
        # its universe yields no candidate query at all.
        entity = Entity(entity_id="e0", domain="researcher",
                        name_tokens=("alpha",), seed_query=("beta",))
        corpus = Corpus(session.corpus.domain_spec, {"e0": entity},
                        {"p0": make_page("p0", "e0", [(["alpha", "beta"], "AWARD")])},
                        session.corpus.type_system)
        bare = HarvestSession(corpus=corpus, engine=SearchEngine(corpus), entity=entity,
                              aspect="AWARD", relevance=OracleRelevance("AWARD"),
                              config=L2QConfig(), rng=SeededRandom(7))
        enumerations = []
        build = NgramTable.build.__func__
        monkeypatch.setattr(NgramTable, "build", classmethod(
            lambda cls, enumerator, pages: enumerations.append(len(pages))
            or build(cls, enumerator, pages)))
        selector = IdealSelection(OracleRelevance("AWARD"))
        selector.prepare(bare)
        assert selector.select(bare) is None
        assert selector.select(bare) is None
        assert enumerations == [1]

"""Tests for the domain phase (Sect. IV-B)."""

import pytest

from repro.aspects.relevance import OracleRelevance
from repro.core import domain_phase as domain_phase_module
from repro.core.config import L2QConfig
from repro.core.domain_phase import DomainPhase
from repro.core.templates import is_type_unit
from repro.core.utility import GraphAssembler


@pytest.fixture(scope="module")
def domain_model(researcher_corpus):
    domain_corpus = researcher_corpus.subset(researcher_corpus.entity_ids()[:8])
    phase = DomainPhase(domain_corpus, L2QConfig())
    return phase.learn("RESEARCH", OracleRelevance("RESEARCH"))


class TestDomainModel:
    def test_records_domain_size(self, domain_model):
        assert domain_model.aspect == "RESEARCH"
        assert domain_model.num_domain_entities == 8
        assert domain_model.num_domain_pages == 8 * 10
        assert not domain_model.is_empty()

    def test_learns_template_utilities(self, domain_model):
        assert domain_model.template_precision
        assert domain_model.template_recall
        assert domain_model.template_recall_all
        assert all(v >= 0 for v in domain_model.template_precision.values())

    def test_templates_contain_type_units(self, domain_model):
        assert any(any(is_type_unit(u) for u in t) for t in domain_model.template_precision)

    def test_topic_templates_precise_for_research(self, domain_model):
        # Templates built on the <topic> type should rank above templates
        # built on the <location> type for the RESEARCH aspect.
        def best(type_name):
            values = [v for t, v in domain_model.template_precision.items()
                      if f"<{type_name}>" in t]
            return max(values) if values else 0.0
        assert best("topic") > best("location")

    def test_query_utilities_cover_frequent_queries(self, domain_model):
        for query in domain_model.frequent_queries[:20]:
            assert query in domain_model.query_precision
            assert query in domain_model.query_recall

    def test_frequent_queries_meet_support_threshold(self, domain_model):
        config = L2QConfig()
        threshold = config.domain_support_threshold(domain_model.num_domain_entities)
        for query in domain_model.frequent_queries:
            assert domain_model.query_entity_support[query] >= threshold

    def test_best_query_rankings_sorted(self, domain_model):
        ranked = domain_model.best_queries_by_precision(limit=10)
        utilities = [domain_model.query_precision[q] for q in ranked]
        assert utilities == sorted(utilities, reverse=True)
        ranked_recall = domain_model.best_queries_by_recall(limit=10)
        recalls = [domain_model.query_recall[q] for q in ranked_recall]
        assert recalls == sorted(recalls, reverse=True)


class TestEmptyDomain:
    def test_zero_domain_entities(self, researcher_corpus):
        empty_corpus = researcher_corpus.subset([])
        phase = DomainPhase(empty_corpus, L2QConfig())
        model = phase.learn("RESEARCH", OracleRelevance("RESEARCH"))
        assert model.is_empty()
        assert model.frequent_queries == []
        assert model.best_queries_by_precision() == []


class TestLearnDomainModels:
    def test_one_model_per_aspect(self, researcher_prepared, researcher_corpus):
        # A prepared split learns each aspect's model on its one domain phase.
        aspects = researcher_corpus.aspects[:2]
        models = {aspect: researcher_prepared.domain_model(aspect) for aspect in aspects}
        for aspect, model in models.items():
            assert model.aspect == aspect
            assert model.num_domain_entities == \
                len(researcher_prepared.domain_corpus.entity_ids())
        assert models[aspects[0]] is not models[aspects[1]]


class TestSharedDomainGraph:
    def test_aspects_reuse_one_enumeration_and_assembly(self, researcher_corpus,
                                                        monkeypatch):
        domain_corpus = researcher_corpus.subset(researcher_corpus.entity_ids()[:6])
        aspects = researcher_corpus.aspects[:2]
        fresh = {aspect: DomainPhase(domain_corpus, L2QConfig()).learn(
                     aspect, OracleRelevance(aspect)) for aspect in aspects}

        calls = {"enumerate": 0, "assemble": 0}

        def counted(name, method):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return method(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(domain_phase_module, "enumerate_domain_queries",
                            counted("enumerate",
                                    domain_phase_module.enumerate_domain_queries))
        monkeypatch.setattr(GraphAssembler, "assemble",
                            counted("assemble", GraphAssembler.assemble))
        phase = DomainPhase(domain_corpus, L2QConfig())
        shared = {aspect: phase.learn(aspect, OracleRelevance(aspect))
                  for aspect in aspects}
        assert shared == fresh
        assert calls == {"enumerate": 1, "assemble": 1}

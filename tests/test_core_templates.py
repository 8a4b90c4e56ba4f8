"""Tests for templates (Definition 1 of the paper)."""

from repro.core.templates import abstract_query, is_type_unit, type_unit
from repro.corpus.knowledge_base import build_type_system

from tests.oracles import TemplateIndex, template_abstracts, unit_type_name


def _system():
    return build_type_system({
        "topic": ["hpc", "data mining", "ai"],
        "journal": ["ijhpca", "tkde", "jmlr"],
    })


class TestUnits:
    def test_type_unit_round_trip(self):
        unit = type_unit("topic")
        assert is_type_unit(unit)
        assert unit_type_name(unit) == "topic"

    def test_literal_unit(self):
        assert not is_type_unit("research")
        assert unit_type_name("research") is None


class TestAbstraction:
    def test_paper_example_topic_journal(self):
        # "hpc ijhpca" should be abstractable as "<topic> <journal>" (Fig. 3).
        templates = abstract_query(("hpc", "ijhpca"), _system())
        assert ("<topic>", "<journal>") in templates
        assert ("<topic>", "ijhpca") in templates
        assert ("hpc", "<journal>") in templates

    def test_identity_template_excluded(self):
        templates = abstract_query(("hpc", "research"), _system())
        assert ("hpc", "research") not in templates
        assert ("<topic>", "research") in templates

    def test_untyped_query_has_no_templates(self):
        assert abstract_query(("random", "words"), _system()) == []

    def test_max_templates_cap_prefers_most_abstract(self):
        templates = abstract_query(("hpc", "ijhpca", "ai"), _system(), max_templates=2)
        assert len(templates) == 2
        assert all(is_type_unit(unit) for unit in templates[0])

    def test_memo_refreshes_after_add_word(self):
        # Answers are memoised per type system; a mutation must not be
        # served the templates cached before it.
        system = _system()
        assert abstract_query(("quantum", "research"), system) == []
        system.add_word("topic", "quantum")
        assert abstract_query(("quantum", "research"), system) == \
            [("<topic>", "research")]


class TestTemplateMatching:
    def test_template_abstracts_matching_query(self):
        system = _system()
        assert template_abstracts(("<topic>", "<journal>"), ("ai", "jmlr"), system)
        assert template_abstracts(("<topic>", "research"), ("hpc", "research"), system)

    def test_template_rejects_wrong_type(self):
        system = _system()
        assert not template_abstracts(("<topic>", "<journal>"), ("jmlr", "ai"), system)

    def test_template_rejects_wrong_literal(self):
        system = _system()
        assert not template_abstracts(("<topic>", "research"), ("hpc", "papers"), system)

    def test_template_rejects_length_mismatch(self):
        system = _system()
        assert not template_abstracts(("<topic>",), ("hpc", "research"), system)

    def test_cross_entity_generalisation(self):
        # The key property of Sect. IV-A: queries of different entities share
        # templates even though the concrete words differ (Fig. 3).
        system = _system()
        snir = ("hpc", "ijhpca")
        yu = ("data_mining", "tkde")
        ng = ("ai", "jmlr")
        shared = set(abstract_query(snir, system)) & set(abstract_query(yu, system)) \
            & set(abstract_query(ng, system))
        assert ("<topic>", "<journal>") in shared


class TestTemplateIndex:
    """The query-to-templates map the reference graph builders use."""

    def test_add_query_caches(self):
        index = TemplateIndex(_system())
        first = index.add_query(("hpc", "research"))
        second = index.add_query(("hpc", "research"))
        assert first == second
        assert index.templates_of(("hpc", "research")) == first

    def test_add_queries_registers_each_query_once(self):
        index = TemplateIndex(_system())
        queries = [("hpc", "research"), ("ai", "jmlr"), ("hpc", "research"),
                   ("random", "words")]
        index.add_queries(queries)
        for query in queries:
            assert index.templates_of(query) == tuple(abstract_query(query, _system()))
        assert index.templates_of(("random", "words")) == ()

    def test_unknown_query_empty(self):
        index = TemplateIndex(_system())
        assert index.templates_of(("zzz",)) == ()

"""Tests for graph assembly and utility regularization."""

import pytest

from tests.helpers import make_page

from repro.aspects.relevance import AllRelevant, OracleRelevance
from repro.core.config import L2QConfig
from repro.core.utility import (
    GraphAssembler,
    GraphTables,
    precision_page_regularization,
    recall_page_regularization,
    scaled_template_regularization,
    template_regularization,
    template_scale,
)
from repro.corpus.knowledge_base import build_type_system


def _pages():
    return [
        make_page("p1", "e1", [(["hpc", "research", "parallel"], "RESEARCH")]),
        make_page("p2", "e1", [(["hpc", "papers"], "RESEARCH")]),
        make_page("p3", "e1", [(["office", "contact", "email"], "CONTACT")]),
    ]


def _assembler():
    system = build_type_system({"topic": ["hpc", "parallel"]})
    return GraphAssembler(system, L2QConfig())


class TestGraphAssembly:
    def test_containment_edges(self):
        assembled = _assembler().assemble(_pages(), [("hpc",), ("office",), ("hpc", "papers")],
                                          use_templates=False)
        graph = assembled.graph
        assert dict(graph.query_page_neighbors(("hpc",))) == {"p1": 1.0, "p2": 1.0}
        assert dict(graph.query_page_neighbors(("office",))) == {"p3": 1.0}
        assert dict(graph.query_page_neighbors(("hpc", "papers"))) == {"p2": 1.0}

    def test_templates_added_when_enabled(self):
        assembled = _assembler().assemble(_pages(), [("hpc", "research")], use_templates=True)
        assert assembled.graph.num_templates >= 1
        assert dict(assembled.graph.query_template_neighbors(("hpc", "research")))

    def test_no_templates_when_disabled(self):
        assembled = _assembler().assemble(_pages(), [("hpc", "research")], use_templates=False)
        assert assembled.graph.num_templates == 0
        assert assembled.templates == []

    def test_query_without_containing_page_still_a_vertex(self):
        assembled = _assembler().assemble(_pages(), [("unseen_word",)], use_templates=False)
        assert ("unseen_word",) in assembled.graph.queries
        assert assembled.graph.query_page_neighbors(("unseen_word",)) == []

    def test_duplicate_page_ids_raise(self):
        pages = _pages()
        with pytest.raises(ValueError, match="page id"):
            _assembler().assemble(pages + [pages[0]], [("hpc",)])

    def test_duplicate_queries_raise(self):
        with pytest.raises(ValueError, match="query"):
            _assembler().assemble(_pages(), [("hpc",), ("office",), ("hpc",)])

    def test_tables_of_another_type_system_raise(self):
        other = GraphTables(build_type_system({"topic": ["hpc"]}))
        with pytest.raises(ValueError, match="type system"):
            _assembler().assemble(_pages(), [("hpc",)], tables=other)

    def test_solver_uses_config_alpha(self):
        config = L2QConfig(alpha=0.3)
        system = build_type_system({})
        assembled = GraphAssembler(system, config).assemble(_pages(), [("hpc",)],
                                                            use_templates=False)
        assert assembled.solver(config).alpha == 0.3


class TestPageRegularization:
    def test_precision_regularization_is_binary(self):
        regularization = precision_page_regularization(_pages(), OracleRelevance("RESEARCH"))
        assert regularization == {"p1": 1.0, "p2": 1.0, "p3": 0.0}

    def test_recall_regularization_sums_to_one(self):
        regularization = recall_page_regularization(_pages(), OracleRelevance("RESEARCH"))
        assert sum(regularization.values()) == pytest.approx(1.0)
        assert regularization["p1"] == pytest.approx(0.5)
        assert regularization["p3"] == 0.0

    def test_recall_regularization_all_relevant(self):
        regularization = recall_page_regularization(_pages(), AllRelevant())
        assert all(v == pytest.approx(1 / 3) for v in regularization.values())

    def test_recall_regularization_no_relevant_pages(self):
        regularization = recall_page_regularization(_pages(), OracleRelevance("HOBBY"))
        assert all(v == 0.0 for v in regularization.values())


class TestTemplateRegularization:
    def test_lambda_scaling_and_intersection(self):
        domain = {("<topic>", "research"): 0.8, ("<topic>",): 0.4}
        graph_templates = [("<topic>", "research"), ("<institute>",)]
        regularization = template_regularization(domain, graph_templates, 10.0,
                                                 normalize=False)
        assert regularization == {("<topic>", "research"): 8.0}

    def test_normalisation_rescales_by_max(self):
        domain = {("a",): 0.02, ("b",): 0.01}
        regularization = template_regularization(domain, [("a",), ("b",)], 10.0,
                                                 normalize=True)
        assert regularization[("a",)] == pytest.approx(10.0)
        assert regularization[("b",)] == pytest.approx(5.0)

    def test_empty_domain_model(self):
        assert template_regularization({}, [("a",)], 10.0) == {}

    def test_non_positive_utilities_ignored(self):
        assert template_regularization({("a",): 0.0}, [("a",)], 10.0) == {}

    def test_regularization_is_the_scaled_restriction(self):
        domain = {("a",): 0.03, ("b",): 0.01, ("c",): -1.0}
        assert template_scale(domain) == 0.03
        assert template_scale(domain, normalize=False) == 1.0
        assert template_scale({("c",): -1.0}, normalize=False) == 0.0
        templates = [("b",), ("c",), ("d",), ("a",)]
        scaled = scaled_template_regularization(domain, templates, 10.0, 0.03)
        assert list(scaled) == [("b",), ("a",)]
        assert scaled == {("b",): 10.0 * 0.01 / 0.03, ("a",): 10.0 * 0.03 / 0.03}
        assert template_regularization(domain, templates, 10.0) == scaled
        assert scaled_template_regularization(domain, templates, 10.0, 0.0) == {}

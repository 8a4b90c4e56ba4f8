"""Tests for graph assembly and utility regularization."""

import numpy as np
import pytest

from tests.helpers import make_page

from repro.aspects.relevance import AllRelevant, OracleRelevance
from repro.core.config import L2QConfig
from repro.core.utility import (
    GraphAssembler,
    GraphTables,
    page_regularizations,
    template_regularization,
    template_scale,
)
from repro.corpus.knowledge_base import build_type_system

SYSTEM = build_type_system({"topic": ["hpc", "parallel"]})


def _pages():
    return [
        make_page("p1", "e1", [(["hpc", "research", "parallel"], "RESEARCH")]),
        make_page("p2", "e1", [(["hpc", "papers"], "RESEARCH")]),
        make_page("p3", "e1", [(["office", "contact", "email"], "CONTACT")]),
    ]


def _assemble(queries, use_templates=True, pages=None, system=SYSTEM):
    """Assemble ``queries`` over every page of ``_pages()`` (or ``pages``,
    given as rows), returning the graph and its tables."""
    tables = GraphTables(system, _pages(), ngrams=queries)
    rows = np.arange(3) if pages is None else np.asarray(pages)
    assembled = GraphAssembler(system).assemble(
        tables, rows, tables.ids(queries), use_templates=use_templates)
    return assembled, tables


def _page_neighbors(assembled, tables, vertex):
    """Page ids adjacent to query vertex ``vertex``, with edge weights."""
    column = assembled.graph.page_query.getcol(vertex).tocoo()
    return {tables.pages[assembled.pages[row]].page_id: value
            for row, value in zip(column.row.tolist(), column.data.tolist())}


class TestGraphAssembly:
    def test_containment_edges(self):
        queries = [("hpc",), ("office",), ("hpc", "papers")]
        assembled, tables = _assemble(queries, use_templates=False)
        assert _page_neighbors(assembled, tables, 0) == {"p1": 1.0, "p2": 1.0}
        assert _page_neighbors(assembled, tables, 1) == {"p3": 1.0}
        assert _page_neighbors(assembled, tables, 2) == {"p2": 1.0}

    def test_vertices_keep_the_order_given(self):
        queries = [("office",), ("hpc",)]
        assembled, tables = _assemble(queries, use_templates=False, pages=[2, 0])
        assert tables.queries_of(assembled.queries) == queries
        assert assembled.pages.tolist() == [2, 0]
        assert _page_neighbors(assembled, tables, 1) == {"p1": 1.0}

    def test_templates_added_when_enabled(self):
        assembled, tables = _assemble([("hpc", "research")])
        assert assembled.graph.num_templates >= 1
        assert assembled.graph.query_template.getrow(0).nnz == assembled.templates.size
        assert ("<topic>", "research") in [tables.templates[t]
                                           for t in assembled.templates.tolist()]

    def test_no_templates_when_disabled(self):
        assembled, _ = _assemble([("hpc", "research")], use_templates=False)
        assert assembled.graph.num_templates == 0
        assert assembled.templates.size == 0

    def test_query_without_containing_page_still_a_vertex(self):
        assembled, tables = _assemble([("unseen_word",)], use_templates=False)
        assert assembled.graph.num_queries == 1
        assert _page_neighbors(assembled, tables, 0) == {}

    def test_duplicate_pages_raise(self):
        with pytest.raises(ValueError, match="page"):
            _assemble([("hpc",)], pages=[0, 1, 0])

    def test_duplicate_queries_raise(self):
        tables = GraphTables(SYSTEM, _pages(), ngrams=[("hpc",), ("office",)])
        with pytest.raises(ValueError, match="query"):
            GraphAssembler(SYSTEM).assemble(tables, np.arange(3),
                                            tables.ids([("hpc",), ("office",), ("hpc",)]))

    def test_duplicate_page_ids_in_tables_raise(self):
        pages = _pages()
        with pytest.raises(ValueError, match="page ids"):
            GraphTables(SYSTEM, pages + [pages[0]])

    def test_tables_of_another_type_system_raise(self):
        other = GraphTables(build_type_system({"topic": ["hpc"]}), _pages(),
                            ngrams=[("hpc",)])
        with pytest.raises(ValueError, match="type system"):
            GraphAssembler(SYSTEM).assemble(other, np.arange(3), np.array([0]))

    def test_solver_uses_config_alpha(self):
        config = L2QConfig(alpha=0.3)
        assembled, _ = _assemble([("hpc",)], use_templates=False,
                                 system=build_type_system({}))
        assert assembled.solver(config).alpha == 0.3


class TestPageRegularization:
    def test_precision_regularization_is_binary(self):
        precision, _, _ = page_regularizations(_pages(), OracleRelevance("RESEARCH"))
        assert precision.tolist() == [1.0, 1.0, 0.0]

    def test_recall_regularization_sums_to_one(self):
        _, recall, _ = page_regularizations(_pages(), OracleRelevance("RESEARCH"))
        assert recall.sum() == pytest.approx(1.0)
        assert recall[0] == pytest.approx(0.5)
        assert recall[2] == 0.0

    def test_recall_regularization_all_relevant(self):
        _, _, recall_all = page_regularizations(_pages(), OracleRelevance("HOBBY"))
        assert recall_all.tolist() == [1 / 3] * 3
        _, recall, _ = page_regularizations(_pages(), AllRelevant())
        assert recall.tolist() == recall_all.tolist()

    def test_recall_regularization_no_relevant_pages(self):
        _, recall, _ = page_regularizations(_pages(), OracleRelevance("HOBBY"))
        assert recall.tolist() == [0.0] * 3

    def test_no_pages(self):
        for regularization in page_regularizations([], OracleRelevance("RESEARCH")):
            assert regularization.dtype == np.float64 and regularization.shape == (0,)

    def test_relevance_is_asked_once_per_page(self):
        asked = []

        class Counting(OracleRelevance):
            def __call__(self, page):
                asked.append(page.page_id)
                return super().__call__(page)

        page_regularizations(_pages(), Counting("RESEARCH"))
        assert asked == ["p1", "p2", "p3"]

    def test_shares_are_the_labels_over_their_python_sum(self):
        # The same float operations as dividing by ``sum(labels.tolist())``.
        pages = [make_page(f"p{i}", "e1", [(["w"], "RESEARCH" if i % 3 else None)])
                 for i in range(7)]
        precision, recall, recall_all = page_regularizations(
            pages, OracleRelevance("RESEARCH"))
        assert recall.tobytes() == (precision / sum(precision.tolist())).tobytes()
        assert recall_all.tobytes() == (np.ones(7) / 7.0).tobytes()


class TestTemplateRegularization:
    def test_lambda_scaling_of_positive_utilities_only(self):
        regularization = template_regularization(np.array([0.8, 0.0, -1.0, 0.4]),
                                                 10.0, 1.0)
        assert regularization.tolist() == [8.0, 0.0, 0.0, 4.0]

    def test_normalisation_rescales_by_max(self):
        domain = {("a",): 0.02, ("b",): 0.01}
        scale = template_scale(domain)
        regularization = template_regularization(np.array([0.02, 0.01]), 10.0, scale)
        assert regularization[0] == pytest.approx(10.0)
        assert regularization[1] == pytest.approx(5.0)

    def test_empty_domain_model(self):
        assert template_scale({}) == 0.0
        assert template_regularization(np.array([0.5]), 10.0, 0.0).tolist() == [0.0]

    def test_scale_and_scalar_arithmetic(self):
        domain = {("a",): 0.03, ("b",): 0.01, ("c",): -1.0}
        assert template_scale(domain) == 0.03
        assert template_scale(domain, normalize=False) == 1.0
        assert template_scale({("c",): -1.0}, normalize=False) == 0.0
        values = np.array([0.01, -1.0, 0.0, 0.03])
        scaled = template_regularization(values, 10.0, 0.03)
        # The same float operations as the scalar ``lambda * U / scale``.
        assert scaled.tolist() == [10.0 * 0.01 / 0.03, 0.0, 0.0, 10.0 * 0.03 / 0.03]

    def test_template_values_read_by_template_id(self):
        tables = GraphTables(SYSTEM, _pages(), ngrams=[("hpc", "research"), ("parallel",)])
        domain = {tables.templates[0]: 0.5, ("<nowhere>",): 1.0}
        values = tables.template_values(domain)
        assert values.tolist() == [0.5] + [0.0] * (len(tables.templates) - 1)
        assert tables.template_values(domain) is values
        assert tables.template_values(dict(domain)) is not values

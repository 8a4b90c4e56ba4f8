"""Tests for the reinforcement-graph data structure."""

import numpy as np
import pytest
from scipy import sparse

from repro.graph.reinforcement import ReinforcementGraph

from tests.oracles import ReferenceGraphBuilder


class TestReinforcementGraph:
    def test_layer_sizes_come_from_the_matrices(self):
        graph = ReinforcementGraph(sparse.csr_matrix((3, 2)), sparse.csr_matrix((2, 4)))
        assert (graph.num_pages, graph.num_queries, graph.num_templates) == (3, 2, 4)
        assert graph.num_edges == 0

    def test_mismatched_query_layers_raise(self):
        with pytest.raises(ValueError, match="query vertices"):
            ReinforcementGraph(sparse.csr_matrix((3, 2)), sparse.csr_matrix((3, 1)))

    def test_matrices_stored_as_csr(self):
        graph = ReinforcementGraph(sparse.coo_matrix(np.eye(2)),
                                   sparse.csc_matrix(np.ones((2, 1))))
        assert sparse.isspmatrix_csr(graph.page_query)
        assert sparse.isspmatrix_csr(graph.query_template)
        assert graph.num_edges == 4


class TestGraphBuilder:
    def _small_builder(self):
        builder = ReferenceGraphBuilder()
        builder.connect_page_query("p1", ("q1",), 1.0)
        builder.connect_page_query("p1", ("q2",), 2.0)
        builder.connect_page_query("p2", ("q1",), 1.0)
        builder.connect_query_template(("q1",), ("<t>",), 1.0)
        return builder

    def test_vertex_counts(self):
        graph = self._small_builder().build()
        assert graph.num_pages == 2
        assert graph.num_queries == 2
        assert graph.num_templates == 1
        assert graph.num_edges == 4

    def test_matrix_shapes(self):
        graph = self._small_builder().build()
        assert graph.page_query.shape == (2, 2)
        assert graph.query_template.shape == (2, 1)

    def test_edges_by_vertex_number(self):
        builder = self._small_builder()
        graph = builder.build()
        p1, q1, q2 = builder.pages["p1"], builder.queries[("q1",)], builder.queries[("q2",)]
        assert graph.page_query[p1, q1] == 1.0
        assert graph.page_query[p1, q2] == 2.0
        assert graph.query_template[q1, builder.templates[("<t>",)]] == 1.0

    def test_zero_weight_edges_ignored(self):
        builder = ReferenceGraphBuilder()
        builder.add_page("p1")
        builder.add_query(("q1",))
        builder.connect_page_query("p1", ("q1",), 0.0)
        assert builder.build().num_edges == 0

    def test_repeated_edges_accumulate_weight(self):
        builder = ReferenceGraphBuilder()
        builder.connect_page_query("p1", ("q1",), 1.0)
        builder.connect_page_query("p1", ("q1",), 2.0)
        assert builder.build().page_query[0, 0] == 3.0

    def test_isolated_vertices_allowed(self):
        builder = ReferenceGraphBuilder()
        builder.add_page("lonely_page")
        builder.add_query(("lonely_query",))
        graph = builder.build()
        assert graph.num_pages == 1
        assert graph.num_queries == 1
        assert graph.num_edges == 0

    def test_empty_graph(self):
        graph = ReferenceGraphBuilder().build()
        assert graph.num_pages == 0
        assert graph.num_edges == 0

    def test_keyed_vectors_in_vertex_order(self):
        builder = self._small_builder()
        assert builder.page_vector({"p2": 0.5, "ghost": 1.0}).tolist() == [0.0, 0.5]
        assert builder.query_vector({}).tolist() == [0.0, 0.0]

"""Tests for the utility solver, including the paper's running examples."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.graph import random_walk
from repro.graph.random_walk import (
    MODE_PRECISION,
    MODE_RECALL,
    RegularizationProblem,
    UtilitySolver,
    sparse_product,
)
from repro.graph.reinforcement import ReinforcementGraph

from tests.oracles import ReferenceGraphBuilder, reference_operators, reference_solve


def build_snir_graph():
    """The paper's Fig. 2 running example (Marc Snir), without templates:
    its builder, which knows each vertex's key."""
    edges = {
        ("q1",): ["p1", "p2", "p3"],     # parallel research
        ("q2",): ["p1", "p2"],           # hpc research
        ("q3",): ["p3", "p4"],           # complexity
        ("q4",): ["p4", "p5", "p6"],     # u illinois
        ("q5",): ["p6"],                 # ibm
    }
    builder = ReferenceGraphBuilder()
    for query, pages in edges.items():
        for page in pages:
            builder.connect_page_query(page, query)
    return builder


RELEVANT_SNIR = {"p1": 1.0, "p2": 1.0, "p3": 1.0, "p4": 1.0, "p5": 0.0, "p6": 0.0}


def build_ng_graph():
    """The paper's Fig. 6 domain example (Andrew Ng), with templates: its
    builder."""
    builder = ReferenceGraphBuilder()
    builder.connect_page_query("p7", ("ai", "research"))
    builder.connect_page_query("p7", ("baidu",))
    builder.connect_page_query("p8", ("stanford",))
    builder.connect_page_query("p9", ("stanford",))
    builder.connect_query_template(("ai", "research"), ("<topic>", "research"))
    builder.connect_query_template(("baidu",), ("<institute>",))
    builder.connect_query_template(("stanford",), ("<institute>",))
    return builder


class TestSolverBasics:
    def test_invalid_alpha(self):
        graph = build_snir_graph().build()
        with pytest.raises(ValueError):
            UtilitySolver(graph, alpha=0.0)
        with pytest.raises(ValueError):
            UtilitySolver(graph, alpha=1.0)

    def test_invalid_mode(self):
        solver = UtilitySolver(build_snir_graph().build())
        with pytest.raises(ValueError):
            solver.solve("accuracy")

    def test_converges(self):
        snir = build_snir_graph()
        solver = UtilitySolver(snir.build(), alpha=0.15)
        result = solver.solve(MODE_PRECISION,
                              page_regularization=snir.page_vector(RELEVANT_SNIR))
        assert result.converged
        assert result.iterations <= 100

    def test_no_regularization_gives_zero_utilities(self):
        solver = UtilitySolver(build_snir_graph().build())
        result = solver.solve(MODE_PRECISION)
        assert np.allclose(result.page_values, 0.0)
        assert np.allclose(result.query_values, 0.0)

    def test_regularization_of_the_wrong_length_raises(self):
        solver = UtilitySolver(build_snir_graph().build())
        with pytest.raises(ValueError, match="6 vertices"):
            solver.solve(MODE_PRECISION, page_regularization=np.ones(5))
        with pytest.raises(ValueError, match="0 vertices"):
            solver.solve(MODE_PRECISION, template_regularization=np.ones(1))

    def test_utilities_non_negative_and_bounded(self):
        snir = build_snir_graph()
        solver = UtilitySolver(snir.build())
        for mode in (MODE_PRECISION, MODE_RECALL):
            regularization = (RELEVANT_SNIR if mode == MODE_PRECISION else
                              {p: v / 4.0 for p, v in RELEVANT_SNIR.items()})
            result = solver.solve(mode,
                                  page_regularization=snir.page_vector(regularization))
            for values in (result.page_values, result.query_values):
                assert np.all(values >= -1e-12)
                assert np.all(values <= 1.0 + 1e-9)

    def test_one_value_per_vertex(self):
        snir = build_snir_graph()
        solver = UtilitySolver(snir.build())
        result = solver.solve(MODE_PRECISION,
                              page_regularization=snir.page_vector(RELEVANT_SNIR))
        assert result.page_values.shape == (6,)
        assert result.query_values.shape == (5,)
        assert result.template_values.shape == (0,)


class TestSnirRunningExample:
    """Qualitative checks of Fig. 2: precision and recall orderings."""

    def setup_method(self):
        self.snir = build_snir_graph()
        self.solver = UtilitySolver(self.snir.build(), alpha=0.15)
        self.precision = self.solver.solve(
            MODE_PRECISION, page_regularization=self.snir.page_vector(RELEVANT_SNIR))
        recall_reg = {p: (0.25 if v > 0 else 0.0) for p, v in RELEVANT_SNIR.items()}
        self.recall = self.solver.solve(
            MODE_RECALL, page_regularization=self.snir.page_vector(recall_reg))

    def precision_of(self, query):
        return self.snir.query_value(self.precision, (query,))

    def recall_of(self, query):
        return self.snir.query_value(self.recall, (query,))

    def test_precision_prefers_queries_with_only_relevant_pages(self):
        # q1, q2 retrieve only relevant pages; q4 retrieves mostly irrelevant
        # pages; q5 only an irrelevant page.
        assert self.precision_of("q1") > self.precision_of("q4")
        assert self.precision_of("q2") > self.precision_of("q4")
        assert self.precision_of("q4") > self.precision_of("q5")

    def test_relevant_pages_have_higher_precision_than_irrelevant(self):
        page = self.snir.page_value
        assert page(self.precision, "p1") > page(self.precision, "p6")
        assert page(self.precision, "p3") > page(self.precision, "p5")

    def test_recall_prefers_queries_covering_more_relevant_pages(self):
        # q1 covers three relevant pages, q2 two, q5 none.
        assert self.recall_of("q1") > self.recall_of("q2")
        assert self.recall_of("q2") > self.recall_of("q5")

    def test_recall_of_q3_exceeds_q5(self):
        assert self.recall_of("q3") > self.recall_of("q5")


class TestNgDomainExample:
    """The paper's Fig. 6 claim: P(t1) > P(t3) and R(t1) < R(t3)."""

    def setup_method(self):
        self.ng = build_ng_graph()
        self.solver = UtilitySolver(self.ng.build(), alpha=0.15)
        precision_reg = self.ng.page_vector({"p7": 1.0, "p8": 1.0, "p9": 0.0})
        recall_reg = self.ng.page_vector({"p7": 0.5, "p8": 0.5, "p9": 0.0})
        self.precision = self.solver.solve(MODE_PRECISION, page_regularization=precision_reg)
        self.recall = self.solver.solve(MODE_RECALL, page_regularization=recall_reg)

    def test_topic_research_template_has_higher_precision(self):
        template = self.ng.template_value
        assert template(self.precision, ("<topic>", "research")) > \
            template(self.precision, ("<institute>",))

    def test_institute_template_has_higher_recall(self):
        template = self.ng.template_value
        assert template(self.recall, ("<institute>",)) > \
            template(self.recall, ("<topic>", "research"))


class TestRegularizationLimit:
    def test_high_alpha_pins_pages_to_regularization(self):
        snir = build_snir_graph()
        solver = UtilitySolver(snir.build(), alpha=0.99)
        result = solver.solve(MODE_PRECISION,
                              page_regularization=snir.page_vector(RELEVANT_SNIR))
        for page, value in RELEVANT_SNIR.items():
            assert snir.page_value(result, page) == pytest.approx(value, abs=0.05)

    def test_template_regularization_lifts_template_queries(self):
        ng = build_ng_graph()
        solver = UtilitySolver(ng.build(), alpha=0.15)
        pages = ng.page_vector({"p7": 1.0})
        baseline = solver.solve(MODE_PRECISION, page_regularization=pages)
        boosted = solver.solve(
            MODE_PRECISION,
            page_regularization=pages,
            template_regularization=ng.template_vector({("<institute>",): 5.0}))
        assert ng.query_value(boosted, ("stanford",)) > \
            ng.query_value(baseline, ("stanford",))


def _binary(rng, shape, density):
    matrix = sparse.random(*shape, density=density, random_state=rng, format="csr")
    matrix.data[:] = 1.0
    return matrix


def _unsorted(rng, matrix):
    """A copy with each row's indices (and values) in a shuffled order."""
    matrix = matrix.copy()
    for row in range(matrix.shape[0]):
        start, end = matrix.indptr[row], matrix.indptr[row + 1]
        order = start + rng.permutation(end - start)
        matrix.indices[start:end] = matrix.indices[order]
        matrix.data[start:end] = matrix.data[order]
    matrix.has_sorted_indices = False
    return matrix


class TestSparseProduct:
    """``sparse_product`` calls scipy's private sparsetools kernels directly;
    it must equal ``@`` (and ``.T @``) bit for bit."""

    @staticmethod
    def _operators():
        rng = np.random.default_rng(3)
        plain = sparse.random(30, 20, density=0.2, random_state=rng, format="csr")
        # csr_matmat leaves a product's indices unsorted, as in the solver's K.
        product = (sparse.random(25, 40, density=0.15, random_state=rng, format="csr")
                   @ sparse.random(40, 25, density=0.15, random_state=rng,
                                   format="csc")).tocsr()
        assert not product.has_sorted_indices
        return {
            "sorted": plain,
            "shuffled": _unsorted(rng, plain),
            "matmat": product,
            "no non-zeros": sparse.csr_matrix((6, 4)),
            "no rows": sparse.csr_matrix((0, 5)),
            "no columns": sparse.csr_matrix((5, 0)),
        }

    @pytest.mark.parametrize("name", ["sorted", "shuffled", "matmat", "no non-zeros",
                                      "no rows", "no columns"])
    @pytest.mark.parametrize("columns", [1, 4])
    @pytest.mark.parametrize("transpose", [False, True])
    def test_equals_matmul_bit_for_bit(self, name, columns, transpose):
        matrix = self._operators()[name]
        applied = matrix.T if transpose else matrix
        rng = np.random.default_rng(columns)
        x = rng.standard_normal((applied.shape[1], columns)) * 10.0 ** rng.integers(
            -8, 8, size=(applied.shape[1], columns))
        expected = applied @ x
        actual = sparse_product(matrix, x, transpose=transpose)
        assert actual.dtype == expected.dtype == np.float64
        assert actual.shape == expected.shape
        assert actual.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("transpose", [False, True])
    def test_a_mismatched_block_raises(self, transpose):
        matrix = self._operators()["sorted"]
        rows = matrix.shape[0] if not transpose else matrix.shape[1]
        with pytest.raises(ValueError, match="rows"):
            sparse_product(matrix, np.ones((rows, 2)), transpose=transpose)

    def test_a_non_contiguous_block_is_read_as_its_values(self):
        matrix = self._operators()["matmat"]
        x = np.random.default_rng(5).standard_normal((matrix.shape[1], 8))[:, ::2]
        assert sparse_product(matrix, x).tobytes() == (matrix @ x).tobytes()


def _stored(operator, transpose):
    """An operator's shape, CSR arrays (dtype and bytes, in stored order)
    and whether it is applied transposed."""
    return (tuple(operator.shape), transpose) + tuple(
        (array.dtype.str, array.tobytes())
        for array in (operator.indptr, operator.indices, operator.data))


def _applied_operators(graph, alpha):
    """Per mode, the operators every product of a solve applies: each
    kernel the module's one kernel choice binds records its operator when
    it runs."""
    applied = {}
    calls = []
    kernel_of = random_walk.product_kernel

    def recording(operator, count, transpose=False):
        kernel = kernel_of(operator, count, transpose)

        def run(columns, out):
            calls.append(mode)
            applied[mode].add(_stored(operator, transpose))
            kernel(columns, out)
        return run

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(random_walk, "product_kernel", recording)
        solver = UtilitySolver(graph, alpha=alpha)
        for mode in (MODE_PRECISION, MODE_RECALL):
            applied[mode] = set()
            # Pages regularized: the iteration takes steps, so K is applied.
            steps = solver.solve(mode, page_regularization=np.ones(graph.num_pages)).iterations
            assert steps > 0
            # Every product runs a recorded kernel: the right-hand side,
            # each step, the query back-substitution and the residual.
            assert calls.count(mode) == steps + 3
    return applied


def _matrix(weights, rows, cols):
    return sparse.csr_matrix(np.array(weights, dtype=np.float64).reshape(rows, cols))


@st.composite
def _graphs(draw):
    """Weighted graphs of 1-6 pages, 0-8 queries and 0-4 templates, with
    many absent edges, so that vertices without neighbours are common."""
    sizes = draw(st.tuples(st.integers(1, 6), st.integers(0, 8), st.integers(0, 4)))
    weight = st.sampled_from([0.0, 0.0, 0.0, 1.0, 1.0, 0.5, 3.0])
    num_pages, num_queries, num_templates = sizes
    pq = draw(st.lists(weight, min_size=num_pages * num_queries,
                       max_size=num_pages * num_queries))
    qt = draw(st.lists(weight, min_size=num_queries * num_templates,
                       max_size=num_queries * num_templates))
    return ReinforcementGraph(_matrix(pq, num_pages, num_queries),
                              _matrix(qt, num_queries, num_templates))


#: Graphs at the edges of the build: (W_PQ, W_QT) as dense arrays.
_EDGE_GRAPHS = pytest.mark.parametrize("pq,qt", [
    # No template layer.
    ([[1, 1, 0], [0, 1, 1]], np.zeros((3, 0))),
    # A query with no page (reached through a template only).
    ([[1, 0], [1, 0]], [[1], [1]]),
    # A page and a template with no query.
    ([[1, 1], [0, 0]], [[1, 0], [0, 0]]),
    # No edge at all: K has no non-zero (csr_matmat_maxnnz is 0).
    (np.zeros((2, 3)), np.zeros((3, 2))),
    # A single page, and a single page without queries.
    ([[1, 1, 1]], [[1, 0], [0, 1], [1, 1]]),
    (np.zeros((1, 0)), np.zeros((0, 0))),
], ids=["no-templates", "query-without-page", "page-and-template-without-query",
        "zero-operator", "single-page", "single-page-alone"])


def _edge_graph(pq, qt):
    return ReinforcementGraph(sparse.csr_matrix(np.array(pq, dtype=float)),
                              sparse.csr_matrix(np.array(qt, dtype=float)))


class TestOperatorsEqualTheReference:
    """The solver's B, Mᵀ and K equal, array for array, their construction
    with scipy's public constructors (``tests/oracles.py::
    reference_operators``): precision applies K and B as themselves and Mᵀ
    transposed, recall Kᵀ, Mᵀ and Bᵀ."""

    @staticmethod
    def _assert_same(graph, alpha=0.15):
        pt_from_q, q_from_pt_t, operator = reference_operators(graph, alpha)
        assert _applied_operators(graph, alpha) == {
            MODE_PRECISION: {_stored(operator, False), _stored(pt_from_q, False),
                             _stored(q_from_pt_t, True)},
            MODE_RECALL: {_stored(operator, True), _stored(q_from_pt_t, False),
                          _stored(pt_from_q, True)},
        }

    @_EDGE_GRAPHS
    def test_edge_graphs(self, pq, qt):
        self._assert_same(_edge_graph(pq, qt))

    def test_the_operator_keeps_the_product_order_of_its_indices(self):
        rng = np.random.default_rng(7)
        graph = ReinforcementGraph(_binary(rng, (12, 30), 0.2), _binary(rng, (30, 6), 0.2))
        _, _, operator = reference_operators(graph, 0.15)
        assert not operator.has_sorted_indices
        self._assert_same(graph)

    @settings(max_examples=60, deadline=None)
    @given(_graphs(), st.sampled_from([0.15, 0.5, 0.9]))
    def test_random_graphs(self, graph, alpha):
        self._assert_same(graph, alpha)


def _assert_same_vectors(actual, expected):
    """Mode, steps, residual and every layer's bytes, vector by vector."""
    assert len(actual) == len(expected)
    for mine, theirs in zip(actual, expected):
        assert (mine.mode, mine.iterations, mine.residual, mine.converged) == (
            theirs.mode, theirs.iterations, theirs.residual, theirs.converged)
        for layer in ("page_values", "query_values", "template_values"):
            assert getattr(mine, layer).tobytes() == getattr(theirs, layer).tobytes()


class TestSolvesEqualTheReference:
    """Every vector a solve returns equals ``tests/oracles.py::
    reference_solve``, the same number of steps taken with scipy's ``@`` on
    the reference operators, byte for byte: page, query and template
    values, steps and residual."""

    @staticmethod
    def _assert_same(graph, alpha=0.15):
        rng = np.random.default_rng(graph.num_pages + 7 * graph.num_queries)
        problems = [
            RegularizationProblem(page_regularization=rng.random(graph.num_pages),
                                  template_regularization=rng.random(graph.num_templates) * 5.0),
            RegularizationProblem(query_regularization=rng.random(graph.num_queries)),
            # No regularization: the iteration takes zero steps.
            RegularizationProblem(),
        ]
        unregularized = problems[2:]
        solver = UtilitySolver(graph, alpha=alpha)
        solves = []
        for mode in (MODE_PRECISION, MODE_RECALL):
            for chosen in (problems[:1], problems[1:2], unregularized, problems):
                solves.append((mode, chosen, solver.solve_many(mode, chosen)))
            solves.append((mode, problems[:1], [solver.solve(
                mode, page_regularization=problems[0].page_regularization,
                template_regularization=problems[0].template_regularization)]))
        # The entity phase's shape: one precision and four recall columns.
        joint = (problems[:1], problems + problems[:1])
        solves.extend(zip((MODE_PRECISION, MODE_RECALL), joint, solver.solve_joint(*joint)))
        for mode, chosen, vectors in solves:
            if chosen is unregularized:
                assert vectors[0].iterations == 0
            _assert_same_vectors(vectors, reference_solve(
                graph, alpha, mode, chosen, vectors[0].iterations))

    @_EDGE_GRAPHS
    def test_edge_graphs(self, pq, qt):
        self._assert_same(_edge_graph(pq, qt))

    @settings(max_examples=60, deadline=None)
    @given(_graphs(), st.sampled_from([0.15, 0.5, 0.9]))
    def test_random_graphs(self, graph, alpha):
        self._assert_same(graph, alpha)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_binary_graphs(self, seed):
        rng = np.random.default_rng(seed)
        self._assert_same(ReinforcementGraph(_binary(rng, (12, 30), 0.15),
                                             _binary(rng, (30, 6), 0.1)))

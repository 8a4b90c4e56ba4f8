"""The utility solver against a dense direct solve of the full system.

The reference builds each walk's one-step operator ``W`` over all pages,
queries and templates straight from the reinforcement rules of Sect. III-IV
(see :mod:`repro.graph.random_walk`) and solves
``(I - (1 - alpha) W) u = alpha U_hat`` with ``numpy.linalg.solve``.  It
shares no code with the solver, which iterates the query-eliminated system.
"""

import random

import numpy as np
import pytest

from repro.graph.random_walk import (
    MODE_PRECISION,
    MODE_RECALL,
    RegularizationProblem,
    UtilitySolver,
)

from tests.oracles import ReferenceGraphBuilder

SEEDS = range(24)
ALPHAS = (0.05, 0.15, 0.5, 0.9)


def _row_stochastic(matrix: np.ndarray) -> np.ndarray:
    sums = matrix.sum(axis=1, keepdims=True)
    return np.divide(matrix, sums, out=np.zeros_like(matrix), where=sums > 0)


def _walk_blocks(graph, mode):
    """``(B, A)``: pages+templates from queries and queries from them."""
    w_pq = graph.page_query.toarray()
    w_qt = graph.query_template.toarray()
    r_pq, c_pq = _row_stochastic(w_pq), _row_stochastic(w_pq.T).T
    r_qt, c_qt = _row_stochastic(w_qt), _row_stochastic(w_qt.T).T
    has_pages = w_pq.sum(axis=0) > 0
    has_templates = w_qt.sum(axis=1) > 0
    mean = np.where(has_pages & has_templates, 0.5, 1.0)[:, None]
    if mode == MODE_PRECISION:
        # P(q) = mean(C_PQ^T P_P, R_QT P_T); P(p) = R_PQ P_Q; P(t) = C_QT^T P_Q.
        return (np.vstack([r_pq, c_qt.T]),
                mean * np.hstack([c_pq.T, r_qt]))
    # R(q) = mean(R_PQ^T R_P, C_QT R_T); R(p) = C_PQ R_Q; R(t) = R_QT^T R_Q.
    return (np.vstack([c_pq, r_qt.T]),
            mean * np.hstack([r_pq.T, c_qt]))


def _dense_solution(graph, mode, alpha, u_hat):
    """``u`` ordered [pages; templates; queries] from a direct solve."""
    b, a = _walk_blocks(graph, mode)
    n_pt, n_q = b.shape
    walk = np.zeros((n_pt + n_q, n_pt + n_q))
    walk[:n_pt, n_pt:] = b
    walk[n_pt:, :n_pt] = a
    return np.linalg.solve(np.eye(n_pt + n_q) - (1.0 - alpha) * walk,
                           alpha * u_hat)


def _random_graph(rng: random.Random):
    """Weighted edges, templates, one-sided and isolated queries, and any
    layer possibly empty."""
    builder = ReferenceGraphBuilder()
    num_pages = rng.choice([0, 1, 3, 6])
    num_queries = rng.choice([0, 1, 4, 8])
    num_templates = rng.choice([0, 0, 2, 4])
    for q in range(num_queries):
        builder.add_query(f"q{q}")  # some stay isolated
    for p in range(num_pages):
        builder.add_page(f"p{p}")
    for t in range(num_templates):
        builder.add_template(f"t{t}")
    for p in range(num_pages):
        for q in range(num_queries):
            if rng.random() < 0.4:
                builder.connect_page_query(f"p{p}", f"q{q}",
                                           rng.choice([0.5, 1.0, 2.0, 3.5]))
    for q in range(num_queries):
        for t in range(num_templates):
            if rng.random() < 0.35:
                builder.connect_query_template(f"q{q}", f"t{t}",
                                               rng.choice([1.0, 2.5]))
    return builder.build()


def _random_problem(rng: random.Random, graph) -> RegularizationProblem:
    def layer(size, probability, scale):
        if rng.random() > probability:
            return None
        return np.array([scale * rng.random() if rng.random() < 0.7 else 0.0
                         for _ in range(size)])

    return RegularizationProblem(
        page_regularization=layer(graph.num_pages, 0.9, 1.0),
        query_regularization=layer(graph.num_queries, 0.3, 1.0),
        # Domain-template regularization reaches lambda = 10.
        template_regularization=layer(graph.num_templates, 0.5, 10.0),
    )


def _u_hat(graph, problem) -> np.ndarray:
    def values(size, regularization):
        return np.zeros(size) if regularization is None else regularization

    return np.concatenate([
        values(graph.num_pages, problem.page_regularization),
        values(graph.num_templates, problem.template_regularization),
        values(graph.num_queries, problem.query_regularization)])


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mode", [MODE_PRECISION, MODE_RECALL])
def test_solver_matches_dense_direct_solve(seed, mode):
    rng = random.Random(seed)
    graph = _random_graph(rng)
    alpha = ALPHAS[seed % len(ALPHAS)]
    problems = [_random_problem(rng, graph) for _ in range(rng.randint(1, 4))]
    solved = UtilitySolver(graph, alpha=alpha).solve_many(mode, problems)
    assert len(solved) == len(problems)
    for problem, vector in zip(problems, solved):
        expected = _dense_solution(graph, mode, alpha, _u_hat(graph, problem))
        got = np.concatenate([vector.page_values, vector.template_values,
                              vector.query_values])
        assert np.abs(got - expected).max(initial=0.0) <= 1e-10, (seed, mode)
        assert vector.residual <= 1e-10 and vector.converged


@pytest.mark.parametrize("seed", SEEDS)
def test_recall_operator_is_transposed_precision_operator(seed):
    # W_R = S W_P^T S^-1 with S = diag(I, D), so eliminating the query
    # layer gives K_R = K_P^T: the solver iterates recall with K_P^T.
    graph = _random_graph(random.Random(seed))
    alpha = ALPHAS[seed % len(ALPHAS)]
    b_p, a_p = _walk_blocks(graph, MODE_PRECISION)
    b_r, a_r = _walk_blocks(graph, MODE_RECALL)
    k_p = (1.0 - alpha) ** 2 * b_p @ a_p
    k_r = (1.0 - alpha) ** 2 * b_r @ a_r
    assert np.abs(k_r - k_p.T).max(initial=0.0) <= 1e-14


def test_non_finite_regularization_raises():
    builder = ReferenceGraphBuilder()
    builder.connect_page_query("p", "q", 1.0)
    solver = UtilitySolver(builder.build())
    with pytest.raises(ArithmeticError, match="residual"):
        solver.solve(MODE_PRECISION, page_regularization=np.array([float("nan")]))


def test_random_graphs_cover_the_edge_cases():
    seen = set()
    for seed in SEEDS:
        graph = _random_graph(random.Random(seed))
        w_pq = graph.page_query.toarray()
        w_qt = graph.query_template.toarray()
        has_pages = w_pq.sum(axis=0) > 0
        has_templates = w_qt.sum(axis=1) > 0
        for name, present in (
                ("templates", graph.num_templates > 0),
                ("empty layer", 0 in (graph.num_pages, graph.num_queries,
                                      graph.num_templates)),
                ("isolated query", bool((~has_pages & ~has_templates).any())),
                ("one-sided query", bool((has_pages ^ has_templates).any())),
                ("two-sided query", bool((has_pages & has_templates).any())),
                ("weighted edge", bool(((w_pq != 0) & (w_pq != 1)).any()))):
            if present:
                seen.add(name)
    assert seen == {"templates", "empty layer", "isolated query",
                    "one-sided query", "two-sided query", "weighted edge"}

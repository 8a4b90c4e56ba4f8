"""Utility inference on the reinforcement graph, solved on the query-eliminated system.

The paper shows (Sect. III, *Solution*) that the regularized mutual
reinforcement equations (Eq. 13/19/20) are equivalent to random walks with
restart: probabilistic precision ``P`` is the stationary distribution of the
*backward* walk and probabilistic recall ``R`` of the *forward* walk, with
restart probability ``alpha`` and preference vector equal to the utility
regularization.  Both are the fixed point ``u = (1 - alpha) W u + alpha U_hat``
of one reinforcement step ``W``:

Precision (Eqs. 6, 8, 15, 17) — each vertex *averages* its neighbours:

* ``P(q) = mean( C_PQ^T P_P , RQ_T P_T )``   (page side and template side)
* ``P(p) = R_PQ P_Q``
* ``P(t) = C_QT^T P_Q``

Recall (Eqs. 7, 9, 16, 18) — each vertex's mass is *split* among retrievers:

* ``R(q) = mean( R_PQ^T R_P , C_QT R_T )``
* ``R(p) = C_PQ R_Q``
* ``R(t) = R_QT^T R_Q``

where ``R_X`` / ``C_X`` denote row- / column-stochastic normalisations of the
biadjacency matrices.

Pages and templates update only from queries (``x <- B q`` with
``x = [p; t]``) and queries only from pages and templates (``q <- A x``), so
substituting the query equation into the other eliminates the query layer
(the Schur complement of the query block)::

    x = K x + b,   K = (1 - alpha)^2 B A,   b = alpha (x_hat + (1 - alpha) B q_hat)
    q = (1 - alpha) A x + alpha q_hat

For precision ``B = [rownorm(W_PQ); rownorm(W_QT^T)]`` and ``A = D M`` with
``M = [rownorm(W_PQ^T) | rownorm(W_QT)]``, where ``D`` is the two-sided mean
(0.5 on a query with both page and template neighbours, else 1).  The recall
step is the diagonal similarity ``W_R = S W_P^T S^-1`` with ``S = diag(I, D)``,
so recall uses ``B_R = M^T`` and ``A_R = D B^T``, and ``K_R = K_P^T``: one
operator serves both walks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
# The compiled kernels behind scipy's sparse formats; see UtilitySolver.
from scipy.sparse import _sparsetools

from repro.graph.reinforcement import ReinforcementGraph, index_dtype

MODE_PRECISION = "precision"
MODE_RECALL = "recall"
_MODES = (MODE_PRECISION, MODE_RECALL)

#: Largest full-system residual ``max |u - (1 - alpha) W u - alpha U_hat|``
#: a solve may return; a column that misses it raises ``ArithmeticError``.
RESIDUAL_TOLERANCE = 1e-10

#: Distance from the exact fixed point the iteration aims for.  Two decades
#: under the residual bound, so the check keeps ample headroom for rounding
#: and the utilities agree with a direct solve to about 1e-12.
_ERROR_TARGET = 1e-12

#: The vector norm in which each mode's Schur step contracts by
#: ``(1 - alpha)^2``.  ``B`` and ``A`` have row sums of at most 1, so the
#: precision operator is bounded in the max norm; the recall operator is its
#: transpose, hence bounded in the column-sum norm.
_STEP_NORMS = {MODE_PRECISION: np.maximum, MODE_RECALL: np.add}

#: One and several columns' product kernels of a CSR matrix, applied as
#: itself and as its transpose (whose CSC arrays are the matrix's CSR arrays).
_PRODUCT_KERNELS = {False: (_sparsetools.csr_matvec, _sparsetools.csr_matvecs),
                    True: (_sparsetools.csc_matvec, _sparsetools.csc_matvecs)}

#: ``kernel(columns, out)``: adds a bound operator's product with
#: ``columns`` into ``out``.
ProductKernel = Callable[[np.ndarray, np.ndarray], None]


class CsrOperator(NamedTuple):
    """A sparse matrix as the arrays of scipy's CSR format."""

    shape: Tuple[int, int]
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray


@dataclass(frozen=True)
class RegularizationProblem:
    """One utility-regularization ``U_hat`` triple for a multi-RHS solve.

    Each vector holds one value per page, query or template vertex, in
    vertex order; ``None`` regularizes none of that layer.  The entity
    phase solves several regularization problems on the *same* graph
    (recall w.r.t. ``Y``, ``Y~``, ``Y*``, ``Y~*``); stacking them as the
    columns of one right-hand-side matrix lets every solve step share one
    sparse matmul across problems.
    """

    page_regularization: Optional[np.ndarray] = None
    query_regularization: Optional[np.ndarray] = None
    template_regularization: Optional[np.ndarray] = None


def product_kernel(operator: CsrOperator, count: int,
                   transpose: bool = False) -> ProductKernel:
    """The compiled kernel scipy's ``@`` runs for ``operator @ x``, or
    ``operator.T @ x`` with ``transpose``, on a float64 ``(n, count)``
    array ``x``, bound to ``operator``'s arrays (a scipy CSR matrix also
    works): ``kernel(x, out)`` adds the product into ``out``, a C-contiguous
    float64 array of the product's shape, where ``@`` adds it into zeros.

    The kernel is ``csr_matvec`` for one column and ``csr_matvecs`` for
    several, and their ``csc_*`` twins for the transpose; this is the
    module's one choice of kernel.  On the solver's small operators most of
    an ``@`` is its dispatch, checks and wrapping, not the product.  The
    kernels index ``x`` and ``out`` unchecked.  ``scipy.sparse._sparsetools``
    is private, so ``tests/test_graph_random_walk.py`` pins every product
    and every solve to ``@``.
    """
    rows, cols = operator.shape[::-1] if transpose else operator.shape
    matvec, matvecs = _PRODUCT_KERNELS[transpose]
    arrays = (operator.indptr, operator.indices, operator.data)
    if count == 1:
        return partial(matvec, rows, cols, *arrays)
    return partial(matvecs, rows, cols, count, *arrays)


def sparse_product(operator: CsrOperator, columns: np.ndarray,
                   transpose: bool = False) -> np.ndarray:
    """``operator @ columns``, or ``operator.T @ columns`` with ``transpose``,
    for a float64 ``(n, k)`` array ``columns``, bit for bit as scipy's ``@``
    on a CSR matrix of ``operator``'s arrays: :func:`product_kernel` added
    into zeros."""
    rows, cols = operator.shape[::-1] if transpose else operator.shape
    if columns.shape[0] != cols:
        raise ValueError(f"a product of a {rows} x {cols} operator with "
                         f"{columns.shape[0]} rows")
    product = np.zeros((rows, columns.shape[1]))
    product_kernel(operator, columns.shape[1], transpose)(
        np.ascontiguousarray(columns), product)
    return product


@dataclass
class UtilityVector:
    """Solved utilities for every vertex of a reinforcement graph, each
    layer's values in vertex order."""

    mode: str
    page_values: np.ndarray
    query_values: np.ndarray
    template_values: np.ndarray
    graph: ReinforcementGraph
    #: Steps of the query-eliminated iteration the solve took.
    iterations: int
    converged: bool
    #: Full-system residual ``max |u - (1 - alpha) W u - alpha U_hat|``.
    residual: float


class UtilitySolver:
    """Solves Eq. 13 / 19 / 20 on a reinforcement graph.

    Every solve iterates the query-eliminated system (see the module
    docstring) until the step is provably below what the residual bound
    needs, then checks each column's residual on the full
    page+query+template system against :data:`RESIDUAL_TOLERANCE`.
    """

    def __init__(self, graph: ReinforcementGraph, alpha: float = 0.15) -> None:
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must lie strictly between 0 and 1")
        self.graph = graph
        self.alpha = float(alpha)
        #: Per-step contraction of the query-eliminated iteration.
        self.contraction = (1.0 - self.alpha) ** 2

        # One stacked adjacency: rows are pages then templates, columns are
        # queries, i.e. [W_PQ; W_QT^T].  Every array below is the one
        # scipy's constructors, ``tocsc``, ``.T`` and ``@`` return: the
        # kernels they call, with the same arguments and index dtypes.
        pq, qt = graph.page_query, graph.query_template
        num_pages, num_queries = pq.shape
        size = num_pages + graph.num_templates
        page_edges = int(pq.indptr[-1])
        edges = page_edges + int(qt.indptr[-1])
        index = index_dtype(size, num_queries, edges)
        indptr, indices, weights = (np.empty(size + 1, dtype=index),
                                    np.empty(edges, dtype=index), np.empty(edges))
        indptr[:num_pages + 1] = pq.indptr
        indices[:page_edges] = pq.indices
        weights[:page_edges] = pq.data
        # The template rows: W_QT's CSC arrays are W_QT^T's CSR arrays.
        _sparsetools.csr_tocsc(num_queries, graph.num_templates,
                               qt.indptr.astype(index, copy=False),
                               qt.indices.astype(index, copy=False),
                               qt.data.astype(np.float64, copy=False),
                               indptr[num_pages:], indices[page_edges:], weights[page_edges:])
        indptr[num_pages:] += page_edges
        rows = np.repeat(np.arange(size), np.diff(indptr))
        pt_degree = np.bincount(rows, weights, minlength=size)
        page_degree = np.bincount(pq.indices, pq.data, minlength=num_queries)
        template_degree = np.bincount(indices[page_edges:], weights[page_edges:],
                                      minlength=num_queries)
        # Queries with neighbours on both sides average the two (the paper
        # takes "their average as the final utility of q", Sect. IV-A).
        two_sided = np.where((page_degree > 0) & (template_degree > 0), 0.5, 1.0)
        self._two_sided = two_sided[:, None]

        shape = (size, num_queries)
        # B: rows normalised over each page's / template's queries.
        pt_from_q = CsrOperator(shape, indptr, indices, weights / pt_degree[rows])
        # M^T: columns normalised over each query's pages and, separately,
        # over its templates.
        q_from_pt_t = CsrOperator(shape, indptr, indices, weights / np.concatenate(
            [page_degree[pq.indices], template_degree[indices[page_edges:]]]))
        # K = (1 - alpha)^2 B D M, D scaling B's columns, M as CSR (M^T's CSC
        # arrays).  csr_matmat leaves each row's columns unsorted and drops
        # exact zeros, so K ends at its indptr[-1], as scipy's prune() does.
        m_indptr, m_indices, m_data = (np.empty(num_queries + 1, dtype=index),
                                       np.empty(edges, dtype=index), np.empty(edges))
        _sparsetools.csr_tocsc(size, num_queries, indptr, indices, q_from_pt_t.data,
                               m_indptr, m_indices, m_data)
        maxnnz = _sparsetools.csr_matmat_maxnnz(size, size, indptr, indices,
                                                m_indptr, m_indices)
        index = index_dtype(size, num_queries, edges, maxnnz)
        k_indptr, k_indices, k_data = (np.empty(size + 1, dtype=index),
                                       np.empty(maxnnz, dtype=index), np.empty(maxnnz))
        left_indptr, left_indices, m_indptr, m_indices = (
            array.astype(index, copy=False) for array in (indptr, indices, m_indptr, m_indices))
        _sparsetools.csr_matmat(size, size, left_indptr, left_indices,
                                pt_from_q.data * (self.contraction * two_sided)[indices],
                                m_indptr, m_indices, m_data, k_indptr, k_indices, k_data)
        nnz = k_indptr[-1]
        operator = CsrOperator((size, size), k_indptr, k_indices[:nnz], k_data[:nnz])
        # Per mode, K's kernel for a column count, and the products with F
        # and G, where K = (1 - alpha)^2 F D G: the right-hand side and
        # residual take F, the query back-substitution D G.  Each applies
        # one of the three CSR matrices as itself or as its transpose.
        self._modes = {
            MODE_PRECISION: (partial(product_kernel, operator),
                             partial(sparse_product, pt_from_q),
                             partial(sparse_product, q_from_pt_t, transpose=True)),
            MODE_RECALL: (partial(product_kernel, operator, transpose=True),
                          partial(sparse_product, q_from_pt_t),
                          partial(sparse_product, pt_from_q, transpose=True)),
        }

    # -- Public API ----------------------------------------------------------
    def solve(self, mode: str,
              page_regularization: Optional[np.ndarray] = None,
              query_regularization: Optional[np.ndarray] = None,
              template_regularization: Optional[np.ndarray] = None) -> UtilityVector:
        """Solve for the utilities of every vertex.

        Parameters
        ----------
        mode:
            ``"precision"`` or ``"recall"``.
        page_regularization / query_regularization / template_regularization:
            The utility regularization ``U_hat`` of each vertex of the
            layer, in vertex order; ``None`` is 0 everywhere (no
            regularization), as in the paper.
        """
        return self._solve(mode, [RegularizationProblem(
            page_regularization, query_regularization, template_regularization)])[0]

    def solve_many(self, mode: str,
                   problems: Sequence[RegularizationProblem]) -> List[UtilityVector]:
        """Solve several regularization problems on this graph at once.

        The problems' ``U_hat`` vectors are the columns of one right-hand
        side, so every step is one sparse matmul for all of them.
        """
        return self._solve(mode, problems)

    def solve_joint(self, precision_problems: Sequence[RegularizationProblem],
                    recall_problems: Sequence[RegularizationProblem]
                    ) -> Tuple[List[UtilityVector], List[UtilityVector]]:
        """Solve precision and recall problems on the one shared operator."""
        return (self._solve(MODE_PRECISION, precision_problems),
                self._solve(MODE_RECALL, recall_problems))

    # -- Internals -------------------------------------------------------------
    def _solve(self, mode: str,
               problems: Sequence[RegularizationProblem]) -> List[UtilityVector]:
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        if not problems:
            return []
        graph = self.graph
        alpha = self.alpha
        damping = 1.0 - alpha
        operator_kernel, pt_from_q, q_from_pt = self._modes[mode]
        alpha_pt_hat = alpha * np.concatenate([
            _stack(graph.num_pages, [p.page_regularization for p in problems]),
            _stack(graph.num_templates,
                   [p.template_regularization for p in problems])])
        q_hat = _stack(graph.num_queries,
                       [p.query_regularization for p in problems])
        alpha_q_hat = alpha * q_hat

        rhs = alpha_pt_hat + (alpha * damping) * pt_from_q(q_hat)
        pt, iterations = self._iterate(operator_kernel(len(problems)), rhs,
                                       _STEP_NORMS[mode])
        queries = damping * self._two_sided * q_from_pt(pt) + alpha_q_hat
        # The query block of the residual is zero by construction of the
        # back-substitution, so the page+template block is the whole of it.
        residuals = np.abs(pt - damping * pt_from_q(queries) - alpha_pt_hat)
        residuals = residuals.max(axis=0, initial=0.0)
        worst = float(residuals.max())
        if not worst <= RESIDUAL_TOLERANCE:
            raise ArithmeticError(
                f"{mode} solve on a graph of {graph.num_pages} pages, "
                f"{graph.num_queries} queries and {graph.num_templates} "
                f"templates left a residual of {worst:.3g} "
                f"(bound {RESIDUAL_TOLERANCE:g}) after {iterations} steps")

        num_pages = graph.num_pages
        return [UtilityVector(
            mode=mode,
            page_values=pt[:num_pages, j].copy(),
            query_values=queries[:, j].copy(),
            template_values=pt[num_pages:, j].copy(),
            graph=graph,
            iterations=iterations,
            converged=bool(residuals[j] <= RESIDUAL_TOLERANCE),
            residual=float(residuals[j]),
        ) for j in range(len(problems))]

    def _iterate(self, kernel: ProductKernel, rhs: np.ndarray,
                 norm: np.ufunc) -> Tuple[np.ndarray, int]:
        """Iterate ``x <- K x + b`` from ``x = b``, with ``kernel`` K's;
        return ``x`` and the steps.

        The ``k``-th step is ``K^k b`` and ``K`` contracts by ``c`` in the
        mode's norm, so after ``k`` steps the iterate lies within
        ``c^(k+1) |b| / (1 - c)`` of the fixed point.  The solve takes the
        fewest steps that bring this below :data:`_ERROR_TARGET`.  The bound
        is tight: on non-negative ``b`` a recall step shrinks by exactly
        ``c`` when every page and template has a query, so testing each
        step as it is taken would save at most a few steps.

        A step is one kernel call between two buffers that swap roles: it
        zeroes ``out``, adds ``K x`` into it and then adds ``b``, the
        additions of ``(K @ x) + b`` in their order.
        """
        contraction = self.contraction
        size = float(norm.reduce(np.abs(rhs), axis=0, initial=0.0).max(initial=0.0))
        steps = 0
        if 0.0 < size < math.inf:
            target = _ERROR_TARGET * (1.0 - contraction) / size
            steps = max(0, math.ceil(math.log(target) / math.log(contraction)) - 1)
        pt, out = rhs.copy(), np.empty_like(rhs)
        for _ in range(steps):
            out.fill(0.0)
            kernel(pt, out)
            out += rhs
            pt, out = out, pt
        return pt, steps


def _stack(size: int, regularizations: Sequence[Optional[np.ndarray]]) -> np.ndarray:
    """One ``(size, len(regularizations))`` column per problem."""
    values = np.zeros((size, len(regularizations)))
    for column, regularization in enumerate(regularizations):
        if regularization is not None:
            if np.shape(regularization) != (size,):
                raise ValueError(f"a regularization vector of shape "
                                 f"{np.shape(regularization)} for {size} vertices")
            values[:, column] = regularization
    return values

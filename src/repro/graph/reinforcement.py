"""The reinforcement graph of pages, queries and templates.

Sect. III of the paper models mutual reinforcement between pages and queries
with a bipartite graph ``G = (P u Q, E)`` whose adjacency ``W_pq`` encodes
whether (or how strongly) query ``q`` retrieves page ``p``.  Sect. IV extends
the graph with a third layer of templates connected to the queries they can
abstract (Fig. 5).  This module stores that tri-partite structure as two
sparse biadjacency matrices:

* ``W_PQ`` with shape ``(|P|, |Q|)`` — page-query edges;
* ``W_QT`` with shape ``(|Q|, |T|)`` — query-template edges.

Vertices are the rows and columns of those matrices.  What each vertex
stands for is the assembler's bookkeeping:
:class:`~repro.core.utility.AssembledGraph` keeps the page rows, query ids
and template ids of its graph in vertex order.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse


def index_dtype(*sizes: int) -> type:
    """The index dtype scipy gives CSR arrays: int32 unless a size needs int64."""
    return np.int32 if max(sizes) <= np.iinfo(np.int32).max else np.int64


class ReinforcementGraph:
    """Immutable page-query-template reinforcement graph.

    :class:`~repro.core.utility.GraphAssembler` builds it; the solver in
    :mod:`repro.graph.random_walk` consumes the two biadjacency matrices.
    """

    def __init__(self, page_query: sparse.spmatrix,
                 query_template: sparse.spmatrix) -> None:
        if page_query.shape[1] != query_template.shape[0]:
            raise ValueError("page_query and query_template disagree on the "
                             "number of query vertices")
        self.page_query = page_query.tocsr()
        self.query_template = query_template.tocsr()

    @property
    def num_pages(self) -> int:
        """Number of page vertices."""
        return self.page_query.shape[0]

    @property
    def num_queries(self) -> int:
        """Number of query vertices."""
        return self.page_query.shape[1]

    @property
    def num_templates(self) -> int:
        """Number of template vertices."""
        return self.query_template.shape[1]

    @property
    def num_edges(self) -> int:
        """Total number of (non-zero) edges."""
        return int(self.page_query.nnz + self.query_template.nnz)

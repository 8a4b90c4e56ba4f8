"""Search-engine substrate: the shared inverted index and its entity views,
pluggable rankers and the entity-scoped engine."""

from repro.search.bm25 import BM25Ranker
from repro.search.clients import (
    CLIENT_INSTANT,
    CLIENT_KINDS,
    CLIENT_SIMULATED,
    ClientSpec,
    FetchOutcome,
    InstantClient,
    LatencyModel,
    SearchClient,
    SimulatedServiceClient,
    TokenBucket,
    make_client,
)
from repro.search.engine import (
    FetchStatistics,
    SearchEngine,
    SearchResult,
)
from repro.search.index import InvertedIndex
from repro.search.language_model import DirichletLanguageModel
from repro.search.rankers import (
    RANKER_BM25,
    RANKER_DIRICHLET,
    Ranker,
    is_registered,
    make_ranker,
    ranker_names,
    register_ranker,
)

__all__ = [
    "BM25Ranker",
    "CLIENT_INSTANT",
    "CLIENT_KINDS",
    "CLIENT_SIMULATED",
    "ClientSpec",
    "DirichletLanguageModel",
    "FetchOutcome",
    "FetchStatistics",
    "InstantClient",
    "LatencyModel",
    "SearchClient",
    "SimulatedServiceClient",
    "TokenBucket",
    "InvertedIndex",
    "RANKER_BM25",
    "RANKER_DIRICHLET",
    "Ranker",
    "SearchEngine",
    "SearchResult",
    "is_registered",
    "make_client",
    "make_ranker",
    "ranker_names",
    "register_ranker",
]

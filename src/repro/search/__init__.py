"""Search-engine substrate: the shared inverted index and its entity views,
pluggable rankers, the entity-scoped engine and the client the harvesting
loop fetches through."""

from repro.search.bm25 import BM25Ranker
from repro.search.clients import SearchClient
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
    "DirichletLanguageModel",
    "FetchStatistics",
    "SearchClient",
    "InvertedIndex",
    "RANKER_BM25",
    "RANKER_DIRICHLET",
    "Ranker",
    "SearchEngine",
    "SearchResult",
    "is_registered",
    "make_ranker",
    "ranker_names",
    "register_ranker",
]

"""Pluggable retrieval models: the :class:`Ranker` protocol and its registry.

The search engine used to hardcode an ``if`` ladder over the two built-in
retrieval models (Dirichlet language model and BM25).  This module replaces
that with a registry so new models can be plugged in without touching
:mod:`repro.search.engine`::

    from repro.search.rankers import register_ranker

    @register_ranker("tf")
    def _make_tf(index, **params):
        return PlainTermFrequencyRanker(index, **params)

    engine = SearchEngine(corpus, ranker="tf")

A ranker factory receives the (entity-scoped) index plus keyword parameters
and must return an object satisfying :class:`Ranker`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Protocol, Sequence, Tuple, runtime_checkable

from repro.search.bm25 import BM25Ranker
from repro.search.language_model import DirichletLanguageModel
from repro.utils.registry import NamedRegistry

RANKER_DIRICHLET = "dirichlet"
RANKER_BM25 = "bm25"


@runtime_checkable
class Ranker(Protocol):
    """What the search engine requires of a retrieval model."""

    def rank(self, query: Sequence[str], top_k: int = 0,
             require_match: bool = True) -> List[Tuple[str, float]]:
        """Return ``(doc_id, score)`` pairs, best first."""
        ...

    def rank_many(self, queries: Sequence[Sequence[str]], top_k: int = 0,
                  require_match: bool = True) -> List[List[Tuple[str, float]]]:
        """Exactly ``[self.rank(q, top_k, require_match) for q in queries]``.

        The engine ranks a whole query list through it in one call (see
        :meth:`repro.search.engine.SearchEngine.retrieve_many`), so a batched
        kernel pays off; a plain loop over :meth:`rank` also satisfies it.
        """
        ...


RankerFactory = Callable[..., Ranker]

_REGISTRY = NamedRegistry("ranker")
#: The underlying name → factory map (exposed for tests' cleanup pops).
_RANKERS: Dict[str, RankerFactory] = _REGISTRY.factories


def register_ranker(name: str, factory: RankerFactory = None, *,
                    overwrite: bool = False):
    """Register a ranker factory under ``name``.

    Usable both as a decorator (``@register_ranker("tf")``) and as a plain
    call (``register_ranker("tf", factory)``).  Registering an
    already-taken name raises :class:`ValueError` unless ``overwrite=True``
    — two plugins silently fighting over one name would make engine
    behaviour depend on import order.  Pass ``overwrite=True`` in
    interactive sessions that re-run registration cells.
    """
    return _REGISTRY.register(name, factory, overwrite=overwrite)


def make_ranker(name: str, index, **params) -> Ranker:
    """Instantiate the registered ranker ``name`` over ``index``."""
    return _REGISTRY.make(name, index, **params)


def ranker_names() -> List[str]:
    """Names of all registered rankers, sorted."""
    return _REGISTRY.names()


def is_registered(name: str) -> bool:
    """Whether ``name`` resolves to a registered ranker."""
    return name in _REGISTRY


# -- Built-in models ---------------------------------------------------------

@register_ranker(RANKER_DIRICHLET)
def _make_dirichlet(index, mu: float = 100.0, **_ignored) -> DirichletLanguageModel:
    return DirichletLanguageModel(index, mu=mu)


@register_ranker(RANKER_BM25)
def _make_bm25(index, k1: float = 1.2, b: float = 0.75, **_ignored) -> BM25Ranker:
    return BM25Ranker(index, k1=k1, b=b)

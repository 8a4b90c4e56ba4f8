"""Tests for the pluggable ranker registry."""

import pytest

from repro.search.engine import SearchEngine
from repro.search.index import InvertedIndex
from repro.search.rankers import (
    RANKER_BM25,
    RANKER_DIRICHLET,
    is_registered,
    make_ranker,
    ranker_names,
    register_ranker,
)


@pytest.fixture()
def index():
    return InvertedIndex.from_documents({
        "d1": ["parallel", "hpc", "research"],
        "d2": ["data", "mining", "research"],
    })


class TestRegistry:
    def test_builtins_registered(self):
        assert RANKER_DIRICHLET in ranker_names()
        assert RANKER_BM25 in ranker_names()

    def test_is_registered(self):
        assert is_registered(RANKER_DIRICHLET)
        assert not is_registered("tfidf")

    def test_unknown_name_rejected(self, index):
        with pytest.raises(ValueError, match="unknown ranker"):
            make_ranker("tfidf", index)

    def test_error_lists_available_names(self, index):
        with pytest.raises(ValueError, match=RANKER_DIRICHLET):
            make_ranker("nonsense", index)

    def test_make_ranker_passes_params(self, index):
        ranker = make_ranker(RANKER_DIRICHLET, index, mu=250.0)
        assert ranker.mu == 250.0
        bm25 = make_ranker(RANKER_BM25, index, k1=2.0, b=0.5)
        assert bm25.k1 == 2.0 and bm25.b == 0.5

    def test_duplicate_registration_rejected(self):
        from repro.search import rankers as rankers_module

        register_ranker("dup-ranker-test", lambda index, **p: None)
        try:
            with pytest.raises(ValueError, match="already registered"):
                register_ranker("dup-ranker-test", lambda index, **p: None)
        finally:
            rankers_module._RANKERS.pop("dup-ranker-test", None)

    def test_duplicate_registration_with_overwrite_allowed(self, index):
        from repro.search import rankers as rankers_module

        register_ranker("dup-ranker-test", lambda index, **p: "first")
        try:
            register_ranker("dup-ranker-test", lambda index, **p: "second",
                            overwrite=True)
            assert make_ranker("dup-ranker-test", index) == "second"
        finally:
            rankers_module._RANKERS.pop("dup-ranker-test", None)

    def test_builtin_names_cannot_be_silently_replaced(self):
        with pytest.raises(ValueError, match="already registered"):
            register_ranker(RANKER_BM25, lambda index, **p: None)

    def test_reregistering_same_factory_is_idempotent(self):
        from repro.search import rankers as rankers_module

        def factory(index, **params):
            return None

        register_ranker("idem-ranker-test", factory)
        try:
            register_ranker("idem-ranker-test", factory)  # same object: no error
        finally:
            rankers_module._RANKERS.pop("idem-ranker-test", None)


class TestModelDisagreement:
    def test_bm25_and_dirichlet_order_crafted_corpus_differently(self):
        # "a" mentions both query terms once in a terse page; "b" repeats
        # "research" in a longer page.  Dirichlet smoothing (mu=100) favours
        # the terse page's concentration; BM25's saturated tf plus its
        # milder length penalty favours the repetition — so the two builtin
        # models produce genuinely different orderings, which is what makes
        # the --ranker switch worth benchmarking.
        index = InvertedIndex.from_documents({
            "a": ["research", "mining"] + [f"fa{i}" for i in range(3)],
            "b": ["research", "research", "mining"] + [f"fb{i}" for i in range(7)],
            "c": ["mining", "other", "words", "here"],
        })
        query = ["research", "mining"]
        dirichlet_order = [d for d, _ in make_ranker(RANKER_DIRICHLET, index).rank(query)]
        bm25_order = [d for d, _ in make_ranker(RANKER_BM25, index).rank(query)]
        assert set(dirichlet_order) == set(bm25_order) == {"a", "b", "c"}
        assert dirichlet_order.index("a") < dirichlet_order.index("b")
        assert bm25_order.index("b") < bm25_order.index("a")


class TestCustomRanker:
    def test_registered_ranker_usable_by_engine(self, researcher_corpus):
        class FirstDocRanker:
            """Degenerate ranker: every matching document scores 1.0."""

            def __init__(self, index):
                self.index = index

            def rank(self, query, top_k=0, require_match=True):
                matches = sorted(self.index.matching_documents(query))
                scored = [(doc_id, 1.0) for doc_id in matches]
                return scored[:top_k] if top_k > 0 else scored

            def rank_many(self, queries, top_k=0, require_match=True):
                return [self.rank(query, top_k, require_match) for query in queries]

        register_ranker("first-doc-test", lambda index, **params: FirstDocRanker(index))
        try:
            engine = SearchEngine(researcher_corpus, ranker="first-doc-test")
            entity_id = researcher_corpus.entity_ids()[0]
            results = engine.search(entity_id, ["research"])
            assert results
            assert all(r.score == 1.0 for r in results)
        finally:
            from repro.search import rankers as rankers_module
            rankers_module._RANKERS.pop("first-doc-test", None)

    def test_decorator_form(self, index):
        from repro.search import rankers as rankers_module

        @register_ranker("decorated-test")
        def _factory(index, **params):
            return make_ranker(RANKER_BM25, index)

        try:
            assert is_registered("decorated-test")
            assert make_ranker("decorated-test", index).rank(["research"])
        finally:
            rankers_module._RANKERS.pop("decorated-test", None)


class TestEngineValidation:
    def test_engine_rejects_unknown_ranker(self, researcher_corpus):
        with pytest.raises(ValueError, match="unknown ranker"):
            SearchEngine(researcher_corpus, ranker="tfidf")

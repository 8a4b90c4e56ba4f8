"""The shared corpus store: publish once, attach everywhere, bit for bit.

Covers the full lifecycle (publish → attach → release → fallback), the
zero-copy attached index's equivalence to a freshly built one, streaming
generation, pickling semantics and both transport modes (shm + mmap).
"""

import pickle
from pathlib import Path

import numpy as np
import pytest

from repro.aspects.classifier import AspectClassifierSuite
from repro.corpus.synthetic import (
    CorpusConfig,
    CorpusGenerator,
    build_corpus,
)
from repro.exec.specs import CorpusSpec
from repro.search.bm25 import BM25Ranker
from repro.search.engine import SearchEngine
from repro.search.index import InvertedIndex
from repro.search.language_model import DirichletLanguageModel
from repro.store import (
    MODE_MMAP,
    MODE_SHM,
    CorpusStoreWriter,
    StoreError,
    StoreNotFoundError,
    attach,
    attach_corpus,
    publish_generated,
    publish_store,
    release,
    resolve_mode,
)

from tests.oracles import ReferenceIndex, assert_same_index, reference_rank

DOMAIN = "researcher"
NUM_ENTITIES = 6
PAGES_PER_ENTITY = 4
SEED = 3


def _config() -> CorpusConfig:
    return CorpusConfig(domain=DOMAIN, num_entities=NUM_ENTITIES,
                        pages_per_entity=PAGES_PER_ENTITY, seed=SEED)


@pytest.fixture(scope="module")
def live_corpus():
    return build_corpus(domain=DOMAIN, num_entities=NUM_ENTITIES,
                        pages_per_entity=PAGES_PER_ENTITY, seed=SEED)


@pytest.fixture()
def handle(live_corpus):
    published = publish_store(_config(), live_corpus.entities,
                              live_corpus.iter_pages(),
                              expected_digest=live_corpus.content_digest())
    yield published
    release(published)


def _built_index(corpus) -> InvertedIndex:
    return InvertedIndex.from_documents({p.page_id: p.tokens for p in corpus.iter_pages()})


class TestStreamingGeneration:
    def test_generate_pages_matches_generate_base(self):
        generator = CorpusGenerator(_config())
        base = generator.generate_base()
        entities = generator.generate_entities()
        assert entities == dict(base.entities)
        streamed = list(generator.generate_pages(entities))
        assert [p.page_id for p in streamed] == sorted(base.pages)
        for page in streamed:
            reference = base.pages[page.page_id]
            assert page.entity_id == reference.entity_id
            assert page.paragraphs == reference.paragraphs

    def test_streamed_page_ids_globally_sorted(self):
        generator = CorpusGenerator(_config())
        ids = [p.page_id for p in
               generator.generate_pages(generator.generate_entities())]
        assert ids == sorted(ids)


class TestPublishAttach:
    def test_published_digest_matches_live_corpus(self, live_corpus, handle):
        assert handle.digest == live_corpus.content_digest()

    def test_attached_corpus_is_content_identical(self, live_corpus, handle):
        attached = attach_corpus(handle)
        assert attached.content_digest() == live_corpus.content_digest()
        assert set(attached.entities) == set(live_corpus.entities)
        assert sorted(attached.pages) == sorted(live_corpus.pages)
        assert attached.store_digest == handle.digest

    def test_publish_generated_equals_live_generation(self, live_corpus):
        streamed = publish_generated(_config())
        try:
            assert streamed.digest == live_corpus.content_digest()
            assert attach_corpus(streamed).content_digest() == \
                live_corpus.content_digest()
        finally:
            release(streamed)

    def test_digest_mismatch_fails_and_unpublishes(self, live_corpus):
        from repro.store import published_handles

        before = set(published_handles())
        with pytest.raises(StoreError, match="does not match"):
            publish_store(_config(), live_corpus.entities,
                          live_corpus.iter_pages(),
                          expected_digest="0" * 64)
        assert set(published_handles()) == before

    def test_double_attach_returns_cached_attachment(self, handle):
        assert attach(handle) is attach(handle)

    def test_subset_preserves_content(self, live_corpus, handle):
        kept = sorted(live_corpus.entities)[:2]
        assert attach_corpus(handle).subset(kept).content_digest() == \
            live_corpus.subset(kept).content_digest()

    def test_mmap_mode_round_trips(self, live_corpus):
        mmap_handle = publish_store(_config(), live_corpus.entities,
                                    live_corpus.iter_pages(), mode=MODE_MMAP,
                                    expected_digest=live_corpus.content_digest())
        try:
            assert mmap_handle.mode == MODE_MMAP
            assert attach_corpus(mmap_handle).content_digest() == \
                live_corpus.content_digest()
        finally:
            release(mmap_handle)


class TestAttachedIndex:
    def test_attached_index_equals_built_index(self, live_corpus, handle):
        built = _built_index(live_corpus)
        attached = attach(handle).index()
        assert attached.document_ids() == built.document_ids()
        assert attached.vocabulary() == built.vocabulary()
        assert attached.total_tokens == built.total_tokens
        assert attached.average_document_length == built.average_document_length
        for doc_id in built.document_ids():
            assert attached.document_length(doc_id) == \
                built.document_length(doc_id)
        for term in built.vocabulary():
            assert attached.postings(term) == built.postings(term)
            assert attached.collection_frequency(term) == \
                built.collection_frequency(term)
            assert attached.collection_probability(term) == \
                built.collection_probability(term)

    def test_attached_matrix_equals_built_matrix(self, live_corpus, handle):
        built = _built_index(live_corpus).term_document_matrix()
        attached = attach(handle).index().term_document_matrix()
        assert attached.doc_ids == built.doc_ids
        assert attached.terms == built.terms
        assert (attached.matrix != built.matrix).nnz == 0
        assert (attached.doc_lengths == built.doc_lengths).all()
        assert (attached.collection_frequencies ==
                built.collection_frequencies).all()

    def test_attached_index_matches_reference(self, live_corpus, handle):
        attached = attach(handle).index()
        assert isinstance(attached, InvertedIndex)
        documents = {p.page_id: p.tokens for p in live_corpus.iter_pages()}
        reference = ReferenceIndex.from_documents(documents)
        assert_same_index(attached, reference)
        entity_id = sorted(live_corpus.entities)[0]
        pages = [p.page_id for p in live_corpus.pages_of(entity_id)]
        view, twin = attached.view(pages), reference.view(pages)
        assert_same_index(view, twin)
        queries = [["research"], ["parallel", "unseen-term"], ["award", "award"]]
        for ranker in (DirichletLanguageModel(view, mu=100.0), BM25Ranker(view)):
            for require_match in (True, False):
                assert ranker.rank_many(queries, top_k=3, require_match=require_match) \
                    == [reference_rank(ranker, twin, query, 3, require_match)
                        for query in queries]

    def test_engine_adopts_index_without_building(self, handle):
        engine = SearchEngine(attach_corpus(handle))
        engine.shared_index()
        assert engine.index_builds == 0
        assert engine.index_attaches == 1


class TestLifecycle:
    def test_release_prevents_new_attach(self, live_corpus):
        fresh = publish_store(_config(), live_corpus.entities,
                              live_corpus.iter_pages())
        release(fresh)
        with pytest.raises(StoreNotFoundError):
            attach(fresh)

    def test_release_is_idempotent(self, live_corpus):
        fresh = publish_store(_config(), live_corpus.entities,
                              live_corpus.iter_pages())
        release(fresh)
        release(fresh)  # must not raise

    def test_spec_falls_back_to_rebuild_after_release(self, live_corpus):
        fresh = publish_store(_config(), live_corpus.entities,
                              live_corpus.iter_pages())
        release(fresh)
        spec = CorpusSpec(domain=DOMAIN, num_entities=NUM_ENTITIES,
                          pages_per_entity=PAGES_PER_ENTITY, seed=SEED,
                          store_handle=fresh)
        rebuilt = spec.build()
        assert rebuilt.content_digest() == live_corpus.content_digest()
        assert getattr(rebuilt, "store_handle", None) is None

    def test_spec_with_handle_attaches(self, live_corpus, handle):
        spec = CorpusSpec(domain=DOMAIN, num_entities=NUM_ENTITIES,
                          pages_per_entity=PAGES_PER_ENTITY, seed=SEED,
                          store_handle=handle)
        corpus = spec.build()
        assert corpus.store_handle == handle
        assert corpus.store_digest == live_corpus.content_digest()

    def test_writer_enforces_sorted_page_order(self, live_corpus):
        pages = sorted(live_corpus.iter_pages(), key=lambda p: p.page_id)
        writer = CorpusStoreWriter(_config(), live_corpus.entities)
        writer.add_page(pages[1])
        with pytest.raises(StoreError, match="sorted page-id order"):
            writer.add_page(pages[0])

    def test_resolve_mode_rejects_unknown_modes(self):
        with pytest.raises(ValueError, match="unknown corpus-store mode"):
            resolve_mode("carrier-pigeon")
        assert resolve_mode(MODE_SHM) in (MODE_SHM,)


class TestPickling:
    def test_store_backed_corpus_pickles_by_handle(self, live_corpus, handle):
        corpus = attach_corpus(handle)
        clone = pickle.loads(pickle.dumps(corpus))
        # Within one process the round-trip lands on the cached attachment.
        assert clone is corpus


class TestClassifierBlock:
    @pytest.fixture(scope="class")
    def trained_suite(self, live_corpus):
        return AspectClassifierSuite.train_on_corpus(live_corpus, seed=3)

    @pytest.fixture()
    def classifier_handle(self, live_corpus, trained_suite):
        writer = CorpusStoreWriter(_config(), live_corpus.entities)
        writer.add_pages(live_corpus.iter_pages())
        writer.add_classifier_suite("42", trained_suite)
        published = writer.publish()
        yield published
        release(published)

    def test_store_without_block_has_no_keys(self, handle):
        attachment = attach(handle)
        assert attachment.classifier_keys() == []
        with pytest.raises(StoreError):
            attachment.classifier_suite("42")

    def test_round_trip_preserves_predictions(self, live_corpus,
                                              trained_suite, classifier_handle):
        attachment = attach(classifier_handle)
        assert attachment.classifier_keys() == ["42"]
        attached = attachment.classifier_suite("42")
        for page in list(live_corpus.iter_pages())[:8]:
            for aspect in live_corpus.aspects:
                assert attached.page_assessment(page, aspect) == \
                    trained_suite.page_assessment(page, aspect)
        report = attached.accuracy_report()
        assert report == trained_suite.accuracy_report()

    def test_attached_suite_is_cached_and_zero_copy(self, live_corpus,
                                                    classifier_handle):
        attachment = attach(classifier_handle)
        attached = attachment.classifier_suite("42")
        assert attachment.classifier_suite("42") is attached
        for aspect in live_corpus.aspects:
            model = attached._models[aspect]
            assert not model._log_prob_table.flags.writeable
            assert not model._prior_array.flags.writeable

    def test_store_backed_corpus_delegates(self, classifier_handle):
        corpus = attach_corpus(classifier_handle)
        suite = corpus.classifier_suite("42")
        assert suite is attach(classifier_handle).classifier_suite("42")
        with pytest.raises(StoreError):
            corpus.classifier_suite("other-key")

    def test_missing_key_raises(self, classifier_handle):
        with pytest.raises(StoreError):
            attach(classifier_handle).classifier_suite("other-key")

    def test_corpus_digest_unchanged_by_classifier_block(self, live_corpus,
                                                         handle,
                                                         classifier_handle):
        assert classifier_handle.digest == handle.digest == \
            live_corpus.content_digest()

    def test_duplicate_key_rejected(self, live_corpus, trained_suite):
        writer = CorpusStoreWriter(_config(), live_corpus.entities)
        writer.add_classifier_suite("42", trained_suite)
        with pytest.raises(StoreError):
            writer.add_classifier_suite("42", trained_suite)

    def test_tampered_arrays_fail_the_digest_check(self, live_corpus,
                                                   trained_suite):
        writer = CorpusStoreWriter(_config(), live_corpus.entities)
        writer.add_pages(live_corpus.iter_pages())
        writer.add_classifier_suite("42", trained_suite)
        published = writer.publish(mode=MODE_MMAP)
        try:
            path = Path(published.name)
            data = bytearray(path.read_bytes())
            _, arrays = trained_suite.to_state()
            needle = np.ascontiguousarray(
                arrays[live_corpus.aspects[0]]["logprob"]).tobytes()[:64]
            position = bytes(data).find(needle)
            assert position != -1
            data[position] ^= 0xFF
            path.write_bytes(bytes(data))
            with pytest.raises(StoreError):
                attach(published).classifier_suite("42")
        finally:
            release(published)

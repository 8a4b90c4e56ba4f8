"""Tests for the bag-of-words feature extractor."""

import pytest

from repro.aspects.features import BagOfWordsExtractor


class TestTransform:
    def test_counts_tokens(self):
        extractor = BagOfWordsExtractor(remove_stopwords=False)
        assert extractor.transform(["a", "b", "a"]) == {"a": 2, "b": 1}

    def test_removes_stopwords_by_default(self):
        extractor = BagOfWordsExtractor()
        features = extractor.transform(["the", "parallel", "of", "hpc"])
        assert features == {"parallel": 1, "hpc": 1}

    def test_custom_stopwords(self):
        extractor = BagOfWordsExtractor(stopwords={"parallel"})
        assert "parallel" not in extractor.transform(["parallel", "hpc"])


class TestFitting:
    def test_vocabulary_requires_fit(self):
        with pytest.raises(RuntimeError):
            _ = BagOfWordsExtractor().vocabulary

    def test_min_document_frequency_filters_rare_terms(self):
        extractor = BagOfWordsExtractor(min_document_frequency=2)
        extractor.fit([["rare", "common"], ["common"], ["common", "other"]])
        assert "common" in extractor.vocabulary
        assert "rare" not in extractor.vocabulary

    def test_transform_respects_fitted_vocabulary(self):
        extractor = BagOfWordsExtractor(min_document_frequency=2)
        extractor.fit([["keep", "drop"], ["keep"]])
        assert extractor.transform(["keep", "drop", "unseen"]) == {"keep": 1}

    def test_invalid_min_document_frequency(self):
        with pytest.raises(ValueError):
            BagOfWordsExtractor(min_document_frequency=0)

    def test_transform_many_length(self):
        extractor = BagOfWordsExtractor()
        docs = [["a", "b"], ["c"]]
        assert extractor.transform_many(docs).num_documents == 2

    def test_fit_returns_self(self):
        extractor = BagOfWordsExtractor()
        assert extractor.fit([["a"]]) is extractor

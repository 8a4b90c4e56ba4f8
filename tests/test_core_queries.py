"""Tests for candidate query enumeration."""

import pytest

from tests.helpers import make_page

from repro.core.queries import (
    QueryEnumerator,
    format_query,
    prune_queries,
)


class TestFormatQuery:
    def test_joins_and_unescapes(self):
        assert format_query(("data_mining", "tkde")) == "data mining tkde"


class TestWordFiltering:
    def test_stopwords_excluded(self):
        enumerator = QueryEnumerator()
        assert not enumerator.is_usable_word("the")
        assert enumerator.is_usable_word("parallel")

    def test_short_words_excluded(self):
        enumerator = QueryEnumerator(min_word_length=3)
        assert not enumerator.is_usable_word("ab")

    def test_seed_words_excluded(self):
        enumerator = QueryEnumerator(exclude_words={"snir"})
        assert not enumerator.is_usable_word("snir")

    def test_invalid_max_length(self):
        with pytest.raises(ValueError):
            QueryEnumerator(max_length=0)


class TestSlidingWindow:
    def test_all_lengths_up_to_max(self):
        enumerator = QueryEnumerator(max_length=3)
        counts = enumerator.enumerate_from_tokens(["parallel", "hpc", "research"])
        assert ("parallel",) in counts
        assert ("parallel", "hpc") in counts
        assert ("parallel", "hpc", "research") in counts
        assert ("hpc", "research") in counts

    def test_max_length_respected(self):
        enumerator = QueryEnumerator(max_length=2)
        counts = enumerator.enumerate_from_tokens(["a1", "b2", "c3", "d4"])
        assert all(len(query) <= 2 for query in counts)

    def test_stopwords_removed_before_windowing(self):
        enumerator = QueryEnumerator(max_length=2)
        counts = enumerator.enumerate_from_tokens(["parallel", "and", "hpc"])
        # "and" is removed, so "parallel hpc" becomes a contiguous window.
        assert ("parallel", "hpc") in counts

    def test_repeated_word_windows_skipped(self):
        enumerator = QueryEnumerator(max_length=2)
        counts = enumerator.enumerate_from_tokens(["hpc", "hpc"])
        assert ("hpc", "hpc") not in counts
        assert counts[("hpc",)] == 2

    def test_short_sequence(self):
        enumerator = QueryEnumerator(max_length=3)
        assert enumerator.enumerate_from_tokens([]) == {}


class TestPageEnumeration:
    def test_windows_do_not_cross_paragraphs(self):
        enumerator = QueryEnumerator(max_length=2)
        page = make_page("p1", "e1", [(["alpha", "beta"], None), (["gamma"], None)])
        counts = enumerator.enumerate_from_page(page)
        assert ("beta", "gamma") not in counts
        assert ("alpha", "beta") in counts

    def test_statistics_track_pages_and_entities(self):
        enumerator = QueryEnumerator(max_length=1)
        pages = [
            make_page("p1", "e1", [(["shared", "unique1"], None)]),
            make_page("p2", "e2", [(["shared", "unique2"], None)]),
        ]
        stats = enumerator.enumerate_from_pages(pages)
        assert stats.page_frequency(("shared",)) == 2
        assert stats.entity_support(("shared",)) == 2
        assert stats.entity_support(("unique1",)) == 1

    def test_merge_statistics(self):
        enumerator = QueryEnumerator(max_length=1)
        a = enumerator.enumerate_from_pages([make_page("p1", "e1", [(["x1"], None)])])
        b = enumerator.enumerate_from_pages([make_page("p2", "e2", [(["x1"], None)])])
        a.merge(b)
        assert a.page_frequency(("x1",)) == 2
        assert a.entity_support(("x1",)) == 2


class TestPruning:
    def test_prune_by_page_frequency_and_cap(self):
        enumerator = QueryEnumerator(max_length=1)
        pages = [
            make_page("p1", "e1", [(["common", "rare1"], None)]),
            make_page("p2", "e1", [(["common", "rare2"], None)]),
        ]
        stats = enumerator.enumerate_from_pages(pages)
        frequent = prune_queries(stats, min_page_frequency=2)
        assert frequent == [("common",)]
        capped = prune_queries(stats, min_page_frequency=1, max_queries=1)
        assert capped == [("common",)]

    def test_negative_cap_raises(self):
        # A negative cap once sliced silently: ``max_queries=-1`` dropped the
        # last query instead of failing.
        enumerator = QueryEnumerator(max_length=1)
        stats = enumerator.enumerate_from_pages(
            [make_page("p1", "e1", [(["alpha", "beta", "gamma"], None)])])
        assert len(prune_queries(stats)) == 3
        assert prune_queries(stats, max_queries=0) == []
        with pytest.raises(ValueError, match="max_queries"):
            prune_queries(stats, max_queries=-1)

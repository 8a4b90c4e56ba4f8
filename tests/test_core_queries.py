"""Tests for candidate query enumeration."""

import pytest

from tests.helpers import make_page

from repro.core.config import L2QConfig
from repro.core.domain_phase import enumerate_domain_queries
from repro.core.queries import (
    NgramTable,
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

    def test_excluded_words_bridge_windows(self):
        # Excluded words are dropped before windowing, so the words around
        # one become adjacent: an entity's candidates are not the
        # unexcluded n-grams minus those holding an excluded word.
        enumerator = QueryEnumerator(max_length=3, exclude_words={"snir"})
        counts = enumerator.enumerate_from_tokens(["parallel", "snir", "computing"])
        assert ("parallel", "computing") in counts
        assert not any("snir" in query for query in counts)
        plain = QueryEnumerator(max_length=3).enumerate_from_tokens(
            ["parallel", "snir", "computing"])
        assert ("parallel", "computing") not in plain


class TestNgramTable:
    def test_rows_hold_each_page_once_in_lexicographic_ids(self):
        enumerator = QueryEnumerator(max_length=2)
        pages = [
            make_page("p1", "e1", [(["beta", "alpha", "beta"], None)]),
            make_page("p2", "e1", [([], None), (["alpha"], None)]),
        ]
        table = NgramTable.build(enumerator, pages)
        assert list(table.queries) == sorted(table.queries)
        assert table.page_ids == ("p1", "p2") and table.rows == {"p1": 0, "p2": 1}
        for page in pages:
            ids, counts = table.row(page.page_id)
            assert dict(zip((table.queries[i] for i in ids), counts.tolist())) == \
                enumerator.enumerate_from_page(page)
        with pytest.raises(ValueError, match="p3"):
            table.row("p3")

    def test_statistics_track_pages(self):
        enumerator = QueryEnumerator(max_length=1)
        pages = [
            make_page("p1", "e1", [(["shared", "unique1", "shared"], None)]),
            make_page("p2", "e2", [(["shared", "unique2"], None)]),
        ]
        table = NgramTable.build(enumerator, pages)
        shared = table.queries.index(("shared",))
        assert table.page_frequency()[shared] == 2
        assert table.occurrences()[shared] == 3
        assert table.containment([shared]).toarray().tolist() == [[1.0, 1.0]]

    def test_domain_queries_count_entity_support(self):
        pages = [
            make_page("p1", "e1", [(["shared", "unique1"], None)]),
            make_page("p2", "e1", [(["shared", "unique1"], None)]),
            make_page("p3", "e2", [(["shared", "unique2"], None)]),
        ]
        config = L2QConfig(max_query_length=1, domain_min_query_pages=2)
        domain = enumerate_domain_queries(pages, config)
        assert domain.queries == [("shared",), ("unique1",)]
        assert domain.entity_support.tolist() == [2, 1]
        assert domain.containing.toarray().tolist() == [[1.0, 1.0, 1.0],
                                                        [1.0, 1.0, 0.0]]


class TestPruning:
    def test_prune_by_page_frequency_and_cap(self):
        enumerator = QueryEnumerator(max_length=1)
        pages = [
            make_page("p1", "e1", [(["common", "rare1"], None)]),
            make_page("p2", "e1", [(["common", "rare2"], None)]),
        ]
        table = NgramTable.build(enumerator, pages)
        occurrences, frequency = table.occurrences(), table.page_frequency()
        frequent = prune_queries(occurrences, frequency, min_page_frequency=2)
        assert [table.queries[i] for i in frequent] == [("common",)]
        capped = prune_queries(occurrences, frequency, min_page_frequency=1,
                               max_queries=1)
        assert [table.queries[i] for i in capped] == [("common",)]

    def test_ties_break_lexicographically(self):
        table = NgramTable.build(QueryEnumerator(max_length=1), [
            make_page("p1", "e1", [(["gamma", "alpha", "beta", "beta"], None)])])
        kept = prune_queries(table.occurrences(), table.page_frequency())
        assert [table.queries[i] for i in kept] == [("beta",), ("alpha",), ("gamma",)]

    def test_negative_cap_raises(self):
        # A negative cap once sliced silently: ``max_queries=-1`` dropped the
        # last query instead of failing.
        table = NgramTable.build(QueryEnumerator(max_length=1), [
            make_page("p1", "e1", [(["alpha", "beta", "gamma"], None)])])
        occurrences, frequency = table.occurrences(), table.page_frequency()
        assert len(prune_queries(occurrences, frequency)) == 3
        assert prune_queries(occurrences, frequency, max_queries=0).tolist() == []
        with pytest.raises(ValueError, match="max_queries"):
            prune_queries(occurrences, frequency, max_queries=-1)

"""Tests for the incremental candidate-query statistics."""

import pytest

from repro.core.candidates import CandidateStatistics
from repro.core.queries import QueryEnumerator

from tests.helpers import make_page


def _pages():
    return [
        make_page("p1", "e1", [(["parallel", "hpc", "research"], "RESEARCH")]),
        make_page("p2", "e1", [(["research", "complexity", "parallel"], "RESEARCH"),
                               (["visit", "siebel", "center"], None)]),
        make_page("p3", "e1", [(["award", "ceremony", "research"], "AWARD")]),
    ]


@pytest.fixture()
def enumerator():
    return QueryEnumerator(max_length=2, min_word_length=2)


class TestIncrementalEqualsBatch:
    def test_statistics_match_from_scratch_enumeration(self, enumerator):
        pages = _pages()
        incremental = CandidateStatistics(enumerator)
        for page in pages:  # one page at a time, as the harvest loop does
            incremental.add_page(page)
        batch = enumerator.enumerate_from_pages(pages)

        assert incremental.statistics.occurrences == batch.occurrences
        assert dict(incremental.statistics.pages) == dict(batch.pages)
        assert dict(incremental.statistics.entities) == dict(batch.entities)
        assert incremental.queries() == batch.queries()

    def test_folding_order_preserves_first_occurrence_order(self, enumerator):
        pages = _pages()
        one_by_one = CandidateStatistics(enumerator)
        for page in pages:
            one_by_one.add_page(page)
        all_at_once = CandidateStatistics(enumerator)
        all_at_once.add_pages(pages)
        assert one_by_one.queries() == all_at_once.queries()


class TestDeduplication:
    def test_page_folded_only_once(self, enumerator):
        stats = CandidateStatistics(enumerator)
        page = _pages()[0]
        assert stats.add_page(page) is True
        occurrences = dict(stats.statistics.occurrences)
        assert stats.add_page(page) is False
        assert dict(stats.statistics.occurrences) == occurrences
        assert stats.num_pages == 1

    def test_add_pages_counts_new_only(self, enumerator):
        stats = CandidateStatistics(enumerator)
        pages = _pages()
        assert stats.add_pages(pages) == 3
        assert stats.add_pages(pages) == 0
        assert stats.has_page("p1")
        assert not stats.has_page("p9")


class TestDerivedState:
    def test_sorted_queries_invalidated_on_new_page(self, enumerator):
        stats = CandidateStatistics(enumerator)
        pages = _pages()
        stats.add_page(pages[0])
        first = stats.sorted_queries()
        assert first == sorted(stats.queries())
        stats.add_page(pages[1])
        second = stats.sorted_queries()
        assert second == sorted(stats.queries())
        assert len(second) > len(first)

    def test_sorted_queries_returns_defensive_copy(self, enumerator):
        stats = CandidateStatistics(enumerator)
        stats.add_pages(_pages())
        mutated = stats.sorted_queries()
        mutated.reverse()
        assert stats.sorted_queries() == sorted(stats.queries())

    def test_unfired_sorted_queries(self, enumerator):
        stats = CandidateStatistics(enumerator)
        stats.add_pages(_pages())
        all_queries = stats.sorted_queries()
        fired = {all_queries[0], all_queries[-1]}
        remaining = stats.unfired_sorted_queries(fired)
        assert remaining == [q for q in all_queries if q not in fired]


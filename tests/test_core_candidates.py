"""Tests for the incremental candidate-query statistics."""

import pytest

from repro.core.candidates import CandidateStatistics
from repro.core.queries import NgramTable, QueryEnumerator

from tests.helpers import make_page
from tests.oracles import reference_enumerate


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


@pytest.fixture()
def table(enumerator):
    return NgramTable.build(enumerator, _pages())


def _pool(table):
    return CandidateStatistics(lambda: table)


class TestIncrementalEqualsBatch:
    def test_statistics_match_from_scratch_enumeration(self, enumerator, table):
        pages = _pages()
        incremental = _pool(table)
        for page in pages:  # one page at a time, as the harvest loop does
            incremental.add_page(page)
        batch = reference_enumerate(enumerator, pages)

        queries = incremental.sorted_queries()
        assert queries == sorted(batch.occurrences)
        rows = [table.queries.index(query) for query in queries]
        assert incremental.occurrences[rows].tolist() == \
            [batch.occurrences[query] for query in queries]
        assert incremental.page_frequency[rows].tolist() == \
            [batch.page_frequency(query) for query in queries]
        assert incremental.num_queries == len(queries)

    def test_folding_order_does_not_matter(self, table):
        pages = _pages()
        one_by_one = _pool(table)
        for page in reversed(pages):
            one_by_one.add_page(page)
        all_at_once = _pool(table)
        all_at_once.add_pages(pages)
        assert one_by_one.sorted_queries() == all_at_once.sorted_queries()
        assert one_by_one.pruned().tolist() == all_at_once.pruned().tolist()
        assert one_by_one.occurrences.tolist() == all_at_once.occurrences.tolist()

    def test_page_rows_follow_folding_order(self, table):
        pages = _pages()
        pool = _pool(table)
        assert pool.page_rows.tolist() == []
        pool.add_pages([pages[2], pages[0], pages[2]])
        assert pool.page_rows.tolist() == [table.rows[pages[2].page_id],
                                           table.rows[pages[0].page_id]]


class TestDeduplication:
    def test_page_folded_only_once(self, table):
        stats = _pool(table)
        page = _pages()[0]
        assert stats.add_page(page) is True
        occurrences = stats.occurrences.copy()
        assert stats.add_page(page) is False
        assert stats.occurrences.tolist() == occurrences.tolist()
        assert stats.num_pages == 1

    def test_add_pages_counts_new_only(self, table):
        stats = _pool(table)
        pages = _pages()
        assert stats.add_pages(pages) == 3
        assert stats.add_pages(pages) == 0
        assert stats.has_page("p1")
        assert not stats.has_page("p9")


class TestTable:
    def test_loaded_on_the_first_fold_only(self, table):
        loads = []
        stats = CandidateStatistics(lambda: loads.append(1) or table)
        assert stats.sorted_queries() == [] and stats.pruned().size == 0
        assert not stats.has_page("p1") and stats.num_queries == 0
        assert loads == []
        stats.add_pages(_pages())
        stats.add_pages(_pages())
        assert loads == [1]

    def test_a_page_the_table_does_not_hold_is_refused(self, table):
        stats = _pool(table)
        foreign = make_page("p9", "e1", [(["parallel"], None)])
        with pytest.raises(ValueError, match="p9"):
            stats.add_page(foreign)
        assert not stats.has_page("p9") and stats.num_pages == 0

    def test_table_needs_distinct_page_ids(self, enumerator):
        page = _pages()[0]
        with pytest.raises(ValueError, match="distinct"):
            NgramTable.build(enumerator, [page, page])


class TestDerivedState:
    def test_sorted_queries_invalidated_on_new_page(self, table):
        stats = _pool(table)
        pages = _pages()
        stats.add_page(pages[0])
        first = stats.sorted_queries()
        assert first == sorted(first)
        stats.add_page(pages[1])
        second = stats.sorted_queries()
        assert second == sorted(second)
        assert len(second) > len(first)

    def test_sorted_queries_returns_defensive_copy(self, table):
        stats = _pool(table)
        stats.add_pages(_pages())
        mutated = stats.sorted_queries()
        mutated.reverse()
        assert stats.sorted_queries() == sorted(mutated)

    def test_unfired_sorted_queries(self, table):
        stats = _pool(table)
        stats.add_pages(_pages())
        all_queries = stats.sorted_queries()
        fired = {all_queries[0], all_queries[-1]}
        remaining = stats.unfired_sorted_queries(fired)
        assert remaining == [q for q in all_queries if q not in fired]

    def test_pruned_ranks_by_occurrences_then_query(self, table):
        stats = _pool(table)
        stats.add_pages(_pages())
        counts = {query: int(stats.occurrences[table.queries.index(query)])
                  for query in stats.sorted_queries()}
        expected = [table.queries.index(query)
                    for query in sorted(counts, key=lambda q: (-counts[q], q))]
        assert stats.pruned().tolist() == expected
        assert stats.pruned(2).tolist() == expected[:2]
        assert stats.pruned(0).tolist() == []
        assert stats.ids().tolist() == sorted(expected)

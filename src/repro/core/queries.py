"""Candidate query enumeration.

Sect. VI-A of the paper: *"To enumerate candidate queries from a page, we
first tokenize the page into words ... we applied a sliding window of
``l`` words over the page for each ``l in {1, 2, ..., L}`` ... the ``l``
words in each window are taken as a candidate query"* with ``L = 3``.

Queries are represented as tuples of canonical tokens.  Stopwords, very
short tokens and the words of the seed query (which is appended to every
fired query anyway) are excluded from windows to keep the candidate space
meaningful.  They are dropped *before* windowing, so an excluded word
bridges the words around it: with ``snir`` excluded, ``parallel snir
computing`` yields ``parallel computing``.  Removing the n-grams that hold
an excluded word from an enumeration that kept it would therefore lose
candidates, so each entity's pages are enumerated with its own words
dropped.

:meth:`QueryEnumerator.enumerate_from_page` is the per-page kernel.  An
:class:`NgramTable` runs it once per page of a page set and keeps the
result as arrays: the distinct queries numbered in lexicographic order,
and per page a row of query ids and counts.  Every consumer counts over
those ids instead of enumerating again:
:class:`~repro.core.candidates.CandidateStatistics` (a session's pool),
:class:`~repro.baselines.oracle.IdealPool` (the ideal oracle's candidates)
and :func:`~repro.core.domain_phase.enumerate_domain_queries` (the domain
phase and the HR baseline).  :func:`prune_queries` ranks a table's
queries by their occurrences.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.corpus.document import Page
from repro.corpus.tokenizer import DEFAULT_STOPWORDS

Query = Tuple[str, ...]


def format_query(query: Query) -> str:
    """Human-readable rendering of a query tuple."""
    return " ".join(word.replace("_", " ") for word in query)


class QueryEnumerator:
    """Enumerates candidate queries from token sequences and pages."""

    def __init__(self, max_length: int = 3,
                 stopwords: Optional[Iterable[str]] = None,
                 min_word_length: int = 2,
                 exclude_words: Optional[Iterable[str]] = None) -> None:
        if max_length < 1:
            raise ValueError("max_length must be >= 1")
        self.max_length = max_length
        self.stopwords: FrozenSet[str] = (
            frozenset(stopwords) if stopwords is not None else DEFAULT_STOPWORDS
        )
        self.min_word_length = min_word_length
        self.exclude_words: FrozenSet[str] = frozenset(exclude_words or ())

    # -- Word filtering ------------------------------------------------------
    def is_usable_word(self, word: str) -> bool:
        """Whether a word may appear in a candidate query."""
        if word in self.stopwords or word in self.exclude_words:
            return False
        if len(word) < self.min_word_length:
            return False
        return True

    def content_words(self, tokens: Sequence[str]) -> List[str]:
        """Drop unusable words while preserving order."""
        return [t for t in tokens if self.is_usable_word(t)]

    # -- Enumeration -------------------------------------------------------------
    def enumerate_from_tokens(self, tokens: Sequence[str]) -> Counter:
        """Sliding-window enumeration over one token sequence.

        Returns a Counter mapping each candidate query tuple to its number
        of occurrences in the sequence.
        """
        words = self.content_words(tokens)
        counts: Counter = Counter()
        n = len(words)
        for length in range(1, self.max_length + 1):
            if n < length:
                break
            for start in range(n - length + 1):
                window = tuple(words[start:start + length])
                if len(set(window)) != length:
                    # Skip degenerate windows that repeat a word.
                    continue
                counts[window] += 1
        return counts

    def enumerate_from_page(self, page: Page) -> Counter:
        """Enumerate candidate queries from every paragraph of a page.

        Windows do not cross paragraph boundaries, matching the paper's use
        of paragraphs as semantic units.
        """
        counts: Counter = Counter()
        for paragraph in page.paragraphs:
            counts.update(self.enumerate_from_tokens(paragraph.tokens))
        return counts


def _frozen(values: Sequence[int]) -> np.ndarray:
    array = np.asarray(values, dtype=np.int64)
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class NgramTable:
    """The n-grams of a page set, each page enumerated once.

    ``queries`` are the distinct queries of every page in lexicographic
    order, so a query's id is its position there and ids sort as queries
    do.  Page ``page_ids[r]`` is row ``r``: its distinct query ids are
    ``ids[indptr[r]:indptr[r + 1]]`` and their occurrence counts on the
    page the same slice of ``counts``.  A table is immutable and a pure
    function of the pages and the enumerator, so every holder may share it.
    """

    queries: Tuple[Query, ...]
    page_ids: Tuple[str, ...]
    rows: Dict[str, int]
    indptr: np.ndarray
    ids: np.ndarray
    counts: np.ndarray

    @classmethod
    def build(cls, enumerator: QueryEnumerator, pages: Sequence[Page]) -> "NgramTable":
        """Enumerate every page of ``pages`` once (page ids must be distinct)."""
        rows = {page.page_id: row for row, page in enumerate(pages)}
        if len(rows) != len(pages):
            raise ValueError("an n-gram table needs distinct page ids")
        per_page = [enumerator.enumerate_from_page(page) for page in pages]
        queries = sorted(set().union(*per_page))
        id_of = {query: index for index, query in enumerate(queries)}
        return cls(
            queries=tuple(queries),
            page_ids=tuple(rows),
            rows=rows,
            indptr=_frozen(np.cumsum([0] + [len(counts) for counts in per_page])),
            ids=_frozen([id_of[query] for counts in per_page for query in counts]),
            counts=_frozen([count for counts in per_page for count in counts.values()]))

    @property
    def num_queries(self) -> int:
        """How many distinct queries the table holds."""
        return len(self.queries)

    def row(self, page_id: str) -> Tuple[np.ndarray, np.ndarray]:
        """The query ids and counts of one page of the table."""
        row = self.rows.get(page_id)
        if row is None:
            raise ValueError(f"page {page_id!r} is not in this n-gram table")
        start, end = self.indptr[row], self.indptr[row + 1]
        return self.ids[start:end], self.counts[start:end]

    def occurrences(self) -> np.ndarray:
        """Per query id: its occurrences over every page of the table."""
        return np.bincount(self.ids, weights=self.counts,
                           minlength=self.num_queries).astype(np.int64)

    def page_frequency(self) -> np.ndarray:
        """Per query id: how many pages of the table hold it."""
        return np.bincount(self.ids, minlength=self.num_queries)

    def containment(self, ids: np.ndarray) -> sparse.csr_matrix:
        """A 0/1 ``len(ids) × pages`` CSR: row ``i`` marks the pages holding
        query ``ids[i]`` as an n-gram."""
        position = np.full(self.num_queries, -1, dtype=np.int64)
        position[ids] = np.arange(len(ids))
        rows = position[self.ids]
        pages = np.repeat(np.arange(len(self.page_ids)), np.diff(self.indptr))
        held = rows >= 0
        return sparse.csr_matrix(
            (np.ones(int(held.sum())), (rows[held], pages[held])),
            shape=(len(ids), len(self.page_ids)))


def prune_queries(occurrences: np.ndarray, page_frequency: np.ndarray,
                  min_page_frequency: int = 1,
                  max_queries: Optional[int] = None) -> np.ndarray:
    """Ids of the queries on at least ``min_page_frequency`` pages (and on
    one at least), most occurrences first, ties by id, i.e. lexicographically.

    ``max_queries`` caps the result; it must not be negative.
    """
    if max_queries is not None and max_queries < 0:
        raise ValueError("max_queries must be non-negative")
    kept = np.flatnonzero(page_frequency >= max(min_page_frequency, 1))
    kept = kept[np.argsort(-occurrences[kept], kind="stable")]
    return kept if max_queries is None else kept[:max_queries]

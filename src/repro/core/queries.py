"""Candidate query enumeration.

Sect. VI-A of the paper: *"To enumerate candidate queries from a page, we
first tokenize the page into words ... we applied a sliding window of
``l`` words over the page for each ``l in {1, 2, ..., L}`` ... the ``l``
words in each window are taken as a candidate query"* with ``L = 3``.

Queries are represented as tuples of canonical tokens.  Stopwords, very
short tokens and the words of the seed query (which is appended to every
fired query anyway) are excluded from windows to keep the candidate space
meaningful.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.corpus.document import Page
from repro.corpus.tokenizer import DEFAULT_STOPWORDS

Query = Tuple[str, ...]


def format_query(query: Query) -> str:
    """Human-readable rendering of a query tuple."""
    return " ".join(word.replace("_", " ") for word in query)


@dataclass
class QueryStatistics:
    """Occurrence statistics for a set of enumerated queries."""

    occurrences: Counter = field(default_factory=Counter)
    pages: Dict[Query, Set[str]] = field(default_factory=lambda: defaultdict(set))
    entities: Dict[Query, Set[str]] = field(default_factory=lambda: defaultdict(set))

    def record(self, query: Query, page_id: str, entity_id: str, count: int = 1) -> None:
        """Record ``count`` occurrences of ``query`` on a page of an entity."""
        self.occurrences[query] += count
        self.pages[query].add(page_id)
        self.entities[query].add(entity_id)

    def queries(self) -> List[Query]:
        """All recorded queries."""
        return list(self.occurrences)

    def page_frequency(self, query: Query) -> int:
        """Number of distinct pages containing ``query``."""
        return len(self.pages.get(query, ()))

    def entity_support(self, query: Query) -> int:
        """Number of distinct entities whose pages contain ``query``."""
        return len(self.entities.get(query, ()))

    def merge(self, other: "QueryStatistics") -> None:
        """Fold another statistics object into this one."""
        self.occurrences.update(other.occurrences)
        for query, pages in other.pages.items():
            self.pages[query].update(pages)
        for query, entities in other.entities.items():
            self.entities[query].update(entities)


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

    def enumerate_from_pages(self, pages: Sequence[Page]) -> QueryStatistics:
        """Enumerate and aggregate statistics over a collection of pages."""
        statistics = QueryStatistics()
        for page in pages:
            counts = self.enumerate_from_page(page)
            for query, count in counts.items():
                statistics.record(query, page.page_id, page.entity_id, count)
        return statistics


def prune_queries(statistics: QueryStatistics, min_page_frequency: int = 1,
                  max_queries: Optional[int] = None) -> List[Query]:
    """Keep frequent queries, most frequent first (ties broken lexicographically).

    ``max_queries`` caps the result; it must not be negative.
    """
    if max_queries is not None and max_queries < 0:
        raise ValueError("max_queries must be non-negative")
    kept = [q for q in statistics.queries()
            if statistics.page_frequency(q) >= min_page_frequency]
    kept.sort(key=lambda q: (-statistics.occurrences[q], q))
    if max_queries is not None and len(kept) > max_queries:
        kept = kept[:max_queries]
    return kept

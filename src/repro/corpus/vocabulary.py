"""Vocabulary: bidirectional word/id mapping with corpus counts.

The vocabulary is shared by the search index, the aspect classifiers and the
L2Q graph construction so that all components agree on tokenisation and can
exchange compact integer ids when convenient.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple


class Vocabulary:
    """An append-only vocabulary with term and document frequencies."""

    def __init__(self) -> None:
        self._word_to_id: Dict[str, int] = {}
        self._id_to_word: List[str] = []
        self._term_frequency: Counter = Counter()
        self._document_frequency: Counter = Counter()
        self._num_documents = 0
        self._num_tokens = 0

    # -- Construction ------------------------------------------------------
    def add(self, word: str) -> int:
        """Register ``word`` (idempotent) and return its id."""
        word_id = self._word_to_id.get(word)
        if word_id is None:
            word_id = len(self._id_to_word)
            self._word_to_id[word] = word_id
            self._id_to_word.append(word)
        return word_id

    @classmethod
    def from_documents(cls, documents: Iterable[Sequence[str]]) -> "Vocabulary":
        """Build a vocabulary from an iterable of token sequences, counting
        term and document frequencies."""
        vocab = cls()
        for tokens in documents:
            vocab._num_documents += 1
            vocab._num_tokens += len(tokens)
            for token in tokens:
                vocab.add(token)
                vocab._term_frequency[token] += 1
            for token in set(tokens):
                vocab._document_frequency[token] += 1
        return vocab

    # -- Lookups -------------------------------------------------------------
    def id_of(self, word: str) -> Optional[int]:
        """Return the id of ``word`` or ``None`` if unknown."""
        return self._word_to_id.get(word)

    def word_of(self, word_id: int) -> str:
        """Return the word for ``word_id`` (raises ``IndexError`` if invalid)."""
        return self._id_to_word[word_id]

    def __contains__(self, word: str) -> bool:
        return word in self._word_to_id

    def __len__(self) -> int:
        return len(self._id_to_word)

    def __iter__(self) -> Iterator[str]:
        return iter(self._id_to_word)

    # -- Statistics ----------------------------------------------------------
    @property
    def num_documents(self) -> int:
        """Number of documents folded into the vocabulary."""
        return self._num_documents

    @property
    def num_tokens(self) -> int:
        """Total number of (non-distinct) tokens observed."""
        return self._num_tokens

    def term_frequency(self, word: str) -> int:
        """Collection frequency of ``word``."""
        return self._term_frequency.get(word, 0)

    def document_frequency(self, word: str) -> int:
        """Number of documents containing ``word``."""
        return self._document_frequency.get(word, 0)

    def collection_probability(self, word: str) -> float:
        """Maximum-likelihood probability of ``word`` in the collection."""
        if self._num_tokens == 0:
            return 0.0
        return self._term_frequency.get(word, 0) / self._num_tokens

    def most_common(self, k: int) -> List[Tuple[str, int]]:
        """Return the ``k`` most frequent words and their term frequencies."""
        return self._term_frequency.most_common(k)

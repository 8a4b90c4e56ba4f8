"""Knowledge-base types used to abstract queries into templates.

The paper constructs its type inventory from three sources (Sect. VI-A):

1. a dictionary mapping keywords/phrases to types, built from Freebase and
   Microsoft Academic Search (e.g. ``data mining`` -> ``<topic>``);
2. named-entity types recognised by Stanford CoreNLP
   (``<organization>``, ``<person>``, ``<location>``);
3. regular expressions for well-formed strings
   (``<phonenum>``, ``<url>``, ``<email>``).

None of those external resources are available offline, so the reproduction
ships an explicit :class:`TypeSystem` with the same interface: a word/phrase
dictionary per type plus regex recognisers.  The per-domain dictionaries are
populated in :mod:`repro.corpus.domains`.
"""

from __future__ import annotations

import re
from typing import Dict, FrozenSet, Iterable, List, Optional, Pattern, Tuple


class TypeSystem:
    """A set of named types, each containing words/phrases, plus regex types.

    Words are stored in canonical token form: lowercase, with internal spaces
    replaced by underscores (so the phrase ``data mining`` is the token
    ``data_mining``).
    """

    def __init__(self) -> None:
        self._type_to_words: Dict[str, set] = {}
        self._word_to_types: Dict[str, set] = {}
        self._regex_types: List[Tuple[str, Pattern[str]]] = []
        #: Mutation counter; lets lookup caches (e.g. the template
        #: abstraction memo) detect that earlier answers are stale.
        self._version = 0
        #: ``types_of`` answers by the token as asked; every mutation
        #: clears it.
        self._types_memo: Dict[str, Tuple[str, ...]] = {}

    # -- Construction ------------------------------------------------------
    @staticmethod
    def canonical(word: str) -> str:
        """Return the canonical token form of a word or phrase."""
        return word.strip().lower().replace(" ", "_")

    def add_word(self, type_name: str, word: str) -> None:
        """Add a single word/phrase to a type (creating the type if needed)."""
        token = self.canonical(word)
        if not token:
            return
        self._type_to_words.setdefault(type_name, set()).add(token)
        self._word_to_types.setdefault(token, set()).add(type_name)
        self._version += 1
        self._types_memo.clear()

    def add_words(self, type_name: str, words: Iterable[str]) -> None:
        """Add many words/phrases to a type."""
        for word in words:
            self.add_word(type_name, word)

    def add_regex_type(self, type_name: str, pattern: str) -> None:
        """Register a regex recogniser for ``type_name``.

        Regex types are consulted only when the dictionary lookup fails, and
        must match the *entire* token.
        """
        self._regex_types.append((type_name, re.compile(pattern)))
        self._type_to_words.setdefault(type_name, set())
        self._version += 1
        self._types_memo.clear()

    # -- Lookups -------------------------------------------------------------
    def type_names(self) -> List[str]:
        """All registered type names (dictionary and regex), sorted."""
        return sorted(self._type_to_words)

    def words_of(self, type_name: str) -> FrozenSet[str]:
        """The dictionary words of ``type_name`` (empty for pure regex types)."""
        return frozenset(self._type_to_words.get(type_name, ()))

    def types_of(self, token: str) -> Tuple[str, ...]:
        """Return every type that ``token`` belongs to (dictionary then regex).

        Answers are memoised per token: template abstraction asks about
        every word of every query it abstracts.
        """
        types = self._types_memo.get(token)
        if types is None:
            types = self._types_memo[token] = self._lookup(self.canonical(token))
        return types

    def _lookup(self, token: str) -> Tuple[str, ...]:
        found = sorted(self._word_to_types.get(token, ()))
        if found:
            return tuple(found)
        for type_name, pattern in self._regex_types:
            if pattern.fullmatch(token):
                return (type_name,)
        return ()

    def primary_type(self, token: str) -> Optional[str]:
        """Return the first type of ``token`` or ``None`` if it is untyped."""
        types = self.types_of(token)
        return types[0] if types else None

    def is_typed(self, token: str) -> bool:
        """Whether ``token`` belongs to at least one type."""
        return bool(self.types_of(token))

    def known_phrases(self) -> FrozenSet[str]:
        """All multi-word dictionary entries (canonical, underscored).

        Used by the tokenizer for greedy phrase merging.
        """
        return frozenset(
            word
            for words in self._type_to_words.values()
            for word in words
            if "_" in word
        )

    def __contains__(self, token: str) -> bool:
        return self.is_typed(token)

    def __len__(self) -> int:
        return len(self._type_to_words)


def default_regex_types() -> List[Tuple[str, str]]:
    """Return the regex recognisers shared by every domain.

    Mirrors the paper's third type source: well-formed strings such as phone
    numbers, URLs and e-mail addresses, plus 4-digit years.
    """
    return [
        ("email", r"[a-z0-9._]+@[a-z0-9.]+\.[a-z]{2,}"),
        ("url", r"(https?://|www\.)[a-z0-9./_-]+"),
        ("phonenum", r"\+?[0-9][0-9-]{6,}"),
        ("year", r"(19|20)[0-9]{2}"),
    ]


def build_type_system(dictionary: Dict[str, Iterable[str]],
                      regex_types: Optional[List[Tuple[str, str]]] = None) -> TypeSystem:
    """Build a :class:`TypeSystem` from a type->words dictionary.

    Parameters
    ----------
    dictionary:
        Mapping from type name to an iterable of member words/phrases.
    regex_types:
        Optional ``(type_name, pattern)`` pairs; defaults to
        :func:`default_regex_types`.
    """
    system = TypeSystem()
    for type_name, words in dictionary.items():
        system.add_words(type_name, words)
    for type_name, pattern in (regex_types if regex_types is not None
                               else default_regex_types()):
        system.add_regex_type(type_name, pattern)
    return system

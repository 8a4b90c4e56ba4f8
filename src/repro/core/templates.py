"""Templates: query abstractions that generalise across entities.

Definition 1 of the paper: given a set of types (each a set of words), a
*template* is a sequence of units where each unit is either a literal word
or a type; a template *abstracts* a query when literal units match exactly
and type units contain the corresponding query word.

Templates are represented as tuples of unit strings; a type unit is written
``"<type_name>"`` (angle brackets never occur in canonical word tokens, so
the encoding is unambiguous).
"""

from __future__ import annotations

from itertools import product
from typing import Dict, Iterable, List, Set, Tuple
from weakref import WeakKeyDictionary

from repro.core.queries import Query
from repro.corpus.knowledge_base import TypeSystem

Template = Tuple[str, ...]

_TYPE_PREFIX = "<"
_TYPE_SUFFIX = ">"


def type_unit(type_name: str) -> str:
    """Encode a type as a template unit string."""
    return f"{_TYPE_PREFIX}{type_name}{_TYPE_SUFFIX}"


def is_type_unit(unit: str) -> bool:
    """Whether a template unit denotes a type (as opposed to a literal word)."""
    return unit.startswith(_TYPE_PREFIX) and unit.endswith(_TYPE_SUFFIX)


#: Memo of ``abstract_query`` answers per type system.  Abstraction is a
#: pure function of the query and the type system's contents, and the
#: harvest sessions over one corpus meet largely the same candidate queries,
#: so each query is abstracted once per type system rather than once per
#: session.  Entries are keyed by the type system's mutation counter so
#: ``add_word`` after caching starts a fresh memo rather than serving stale
#: templates.
_ABSTRACTION_MEMO: "WeakKeyDictionary[TypeSystem, Tuple[int, Dict]]" = WeakKeyDictionary()


def _abstraction_memo(type_system: TypeSystem) -> Dict:
    entry = _ABSTRACTION_MEMO.get(type_system)
    if entry is None or entry[0] != type_system._version:
        entry = _ABSTRACTION_MEMO[type_system] = (type_system._version, {})
    return entry[1]


def abstract_query(query: Query, type_system: TypeSystem,
                   max_templates: int = 16) -> List[Template]:
    """Return the templates that abstract ``query``.

    Every typed word may independently stay literal or be abstracted to any
    of its types; the fully-literal combination (the query itself) is
    excluded because it carries no generalisation power.  The number of
    returned templates is capped at ``max_templates`` (deterministically, by
    preferring more-abstract templates first).
    """
    return list(abstract_queries([query], type_system, max_templates)[0])


def abstract_queries(queries: Iterable[Query], type_system: TypeSystem,
                     max_templates: int = 16) -> List[Tuple[Template, ...]]:
    """:func:`abstract_query` of every query, as tuples, with one memo lookup."""
    memo = _abstraction_memo(type_system)
    abstractions = []
    for query in queries:
        key = (tuple(query), max_templates)
        cached = memo.get(key)
        if cached is None:
            cached = memo[key] = tuple(
                _abstract_query_uncached(query, type_system, max_templates))
        abstractions.append(cached)
    return abstractions


def _abstract_query_uncached(query: Query, type_system: TypeSystem,
                             max_templates: int) -> List[Template]:
    per_word_options: List[List[str]] = []
    any_typed = False
    for word in query:
        options = [word]
        for name in type_system.types_of(word):
            options.append(type_unit(name))
            any_typed = True
        per_word_options.append(options)
    if not any_typed:
        return []

    templates: Set[Template] = set()
    for combination in product(*per_word_options):
        template = tuple(combination)
        if template == tuple(query):
            continue
        templates.add(template)

    ordered = sorted(templates,
                     key=lambda t: (-sum(1 for unit in t if is_type_unit(unit)), t))
    return ordered[:max_templates]

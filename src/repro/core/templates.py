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
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple
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


def unit_type_name(unit: str) -> Optional[str]:
    """The type name of a type unit, or ``None`` for literal units."""
    if is_type_unit(unit):
        return unit[len(_TYPE_PREFIX):-len(_TYPE_SUFFIX)]
    return None


def format_template(template: Template) -> str:
    """Human-readable rendering of a template."""
    return " ".join(template)


#: Memo of ``abstract_query`` answers per type system.  Abstraction is a
#: pure function of the query and the type system's contents, and the
#: harvest sessions over one corpus meet largely the same candidate queries,
#: so each query is abstracted once per type system rather than once per
#: session.  Entries are keyed by the type system's mutation counter so
#: ``add_word`` after caching starts a fresh memo rather than serving stale
#: templates.
_ABSTRACTION_MEMO: "WeakKeyDictionary[TypeSystem, Tuple[int, Dict]]" = WeakKeyDictionary()


def _abstraction_memo(type_system: TypeSystem) -> Optional[Dict]:
    version = getattr(type_system, "_version", None)
    if version is None:
        return None
    try:
        entry = _ABSTRACTION_MEMO.get(type_system)
        if entry is None or entry[0] != version:
            entry = (version, {})
            _ABSTRACTION_MEMO[type_system] = entry
    except TypeError:  # non-weakref-able type system: skip caching
        return None
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
    if memo is None:
        return [tuple(_abstract_query_uncached(query, type_system, max_templates))
                for query in queries]
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


def template_abstracts(template: Template, query: Query, type_system: TypeSystem) -> bool:
    """Whether ``template`` abstracts ``query`` (Definition 1)."""
    if len(template) != len(query):
        return False
    for unit, word in zip(template, query):
        name = unit_type_name(unit)
        if name is None:
            if unit != word:
                return False
        else:
            if name not in type_system.types_of(word):
                return False
    return True


def template_abstraction_level(template: Template) -> int:
    """Number of type units in the template (0 = fully literal)."""
    return sum(1 for unit in template if is_type_unit(unit))


class TemplateIndex:
    """Maps queries to their templates and vice versa for one graph build."""

    def __init__(self, type_system: TypeSystem, max_templates_per_query: int = 16) -> None:
        self.type_system = type_system
        self.max_templates_per_query = max_templates_per_query
        self._query_templates: Dict[Query, Tuple[Template, ...]] = {}
        self._template_queries: Dict[Template, Set[Query]] = {}

    def add_query(self, query: Query) -> Tuple[Template, ...]:
        """Register a query, computing (and caching) its templates."""
        cached = self._query_templates.get(query)
        if cached is None:
            self.add_queries([query])
            cached = self._query_templates[query]
        return cached

    def add_queries(self, queries: Iterable[Query]) -> None:
        """Register many queries."""
        new = [query for query in dict.fromkeys(queries)
               if query not in self._query_templates]
        for query, templates in zip(new, abstract_queries(
                new, self.type_system, self.max_templates_per_query)):
            self._query_templates[query] = templates
            for template in templates:
                self._template_queries.setdefault(template, set()).add(query)

    def templates_of(self, query: Query) -> Tuple[Template, ...]:
        """Templates of a registered query (empty tuple if unknown/untyped)."""
        return self._query_templates.get(query, ())

    def queries_of(self, template: Template) -> FrozenSet[Query]:
        """Registered queries abstracted by ``template``."""
        return frozenset(self._template_queries.get(template, ()))

    def templates(self) -> List[Template]:
        """All templates seen so far."""
        return list(self._template_queries)

    def __len__(self) -> int:
        return len(self._template_queries)

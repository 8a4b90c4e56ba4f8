"""Shared test builders, importable explicitly as ``tests.helpers``.

These used to live in ``tests/conftest.py`` and were imported with
``from conftest import ...``, which breaks as soon as another ``conftest``
module (e.g. the benchmark harness's) shadows it on ``sys.path``.  Keeping
the builders in a normally-named module and importing them with an explicit
package path makes the resolution unambiguous (``pytest.ini`` puts the
repository root on ``sys.path``).
"""

from __future__ import annotations

from repro.core.candidates import CandidateStatistics
from repro.core.config import L2QConfig
from repro.core.queries import NgramTable, QueryEnumerator
from repro.corpus.document import Page, Paragraph


def make_paragraph(paragraph_id, tokens, aspect=None):
    """Build a paragraph from a token list (helper used across tests)."""
    return Paragraph(paragraph_id=paragraph_id, tokens=tuple(tokens), aspect=aspect)


def make_page(page_id, entity_id, paragraph_specs):
    """Build a page from ``[(tokens, aspect), ...]`` specs."""
    paragraphs = tuple(
        make_paragraph(f"{page_id}#{i}", tokens, aspect)
        for i, (tokens, aspect) in enumerate(paragraph_specs)
    )
    return Page(page_id=page_id, entity_id=entity_id, paragraphs=paragraphs)


def entity_enumerator(entity, config=None):
    """The enumerator a session of ``entity`` builds its n-gram table with."""
    config = config if config is not None else L2QConfig()
    return QueryEnumerator(max_length=config.max_query_length,
                           min_word_length=config.min_query_word_length,
                           exclude_words=entity.excluded_words())


def candidate_pool(entity, pages, config=None):
    """The candidate pool of a session that gathered exactly ``pages``."""
    table = NgramTable.build(entity_enumerator(entity, config), pages)
    pool = CandidateStatistics(lambda: table)
    pool.add_pages(pages)
    return pool


def harvest_signature(result):
    """Everything scheduling-independent about a harvest run.

    The single definition of "bit-for-bit equal" used by every backend- and
    worker-equivalence assertion (tests and benchmarks): fired queries,
    result/new/seed page ids and the run's identity — but no wall-clock
    timings, which legitimately vary with scheduling.
    """
    return (
        result.entity_id,
        result.aspect,
        result.selector_name,
        tuple(result.seed_page_ids),
        tuple((r.query, r.result_page_ids, r.new_page_ids)
              for r in result.iterations),
    )

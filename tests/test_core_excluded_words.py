"""Regression tests for the single ``Entity.excluded_words`` definition.

``DomainQuerySelection``, ``HarvestSession`` and ``EntityPhase`` used to
each rebuild ``set(seed_query) | set(name_tokens)`` locally; four copies of
one definition is how exclusion sets drift apart.  These tests pin both the
helper's semantics and the absence of re-derivations in the source tree.
"""

import re
from pathlib import Path

import repro
from repro.aspects.relevance import AllRelevant
from repro.core.config import L2QConfig
from repro.core.entity_phase import EntityPhase
from repro.core.queries import NgramTable
from repro.core.session import HarvestSession
from repro.corpus.document import Entity
from repro.search.engine import SearchEngine
from repro.utils.rng import SeededRandom

from tests.helpers import candidate_pool, entity_enumerator, pool_tables


def _entity():
    return Entity(entity_id="e1", domain="researcher",
                  name_tokens=("marc", "snir"),
                  seed_query=("marc", "snir", "uiuc"))


class TestExcludedWords:
    def test_union_of_seed_query_and_name_tokens(self):
        assert _entity().excluded_words() == frozenset(
            {"marc", "snir", "uiuc"})

    def test_disjoint_components_both_covered(self):
        entity = Entity(entity_id="e2", domain="car",
                        name_tokens=("focus",),
                        seed_query=("ford", "2014"))
        assert entity.excluded_words() == frozenset({"focus", "ford", "2014"})

    def test_no_call_site_rebuilds_the_union(self):
        # The historical pattern `set(<x>.seed_query) | set(<x>.name_tokens)`
        # must not reappear anywhere in the package: every consumer goes
        # through Entity.excluded_words() so the definitions cannot drift.
        package_root = Path(repro.__file__).parent
        pattern = re.compile(r"seed_query\s*\)\s*\|\s*(?:frozen)?set\s*\(")
        offenders = [
            str(path.relative_to(package_root))
            for path in sorted(package_root.rglob("*.py"))
            if path.name != "document.py" and pattern.search(path.read_text())
        ]
        assert offenders == []

    def test_session_enumerator_uses_the_helper(self, researcher_corpus):
        entity_id = researcher_corpus.entity_ids()[0]
        entity = researcher_corpus.get_entity(entity_id)
        session = HarvestSession(
            corpus=researcher_corpus,
            engine=SearchEngine(researcher_corpus, top_k=5),
            entity=entity,
            aspect="RESEARCH",
            relevance=AllRelevant(),
            config=L2QConfig(),
            rng=SeededRandom(3),
        )
        pages = researcher_corpus.pages_of(entity_id)
        assert any(entity.excluded_words() & page.token_set for page in pages)
        assert session.candidates.table.queries == \
            NgramTable.build(entity_enumerator(entity), pages).queries

    def test_entity_phase_enumeration_agrees_with_session(self,
                                                          researcher_corpus):
        # An enumeration of exactly the gathered pages and the session's
        # incremental pool over the entity's whole table must exclude the
        # same words: the same pages yield the same candidate set either way.
        entity_id = researcher_corpus.entity_ids()[0]
        entity = researcher_corpus.get_entity(entity_id)
        pages = researcher_corpus.pages_of(entity_id)[:4]
        session = HarvestSession(
            corpus=researcher_corpus,
            engine=SearchEngine(researcher_corpus, top_k=5),
            entity=entity,
            aspect="RESEARCH",
            relevance=AllRelevant(),
            config=L2QConfig(),
            rng=SeededRandom(3),
            current_pages=list(pages),
        )
        phase = EntityPhase(researcher_corpus.type_system, L2QConfig())
        pool = candidate_pool(entity, pages)
        scratch_tables = pool_tables(researcher_corpus.type_system, pages, pool)
        from_scratch = phase.enumerate_candidates(entity, statistics=pool,
                                                  tables=scratch_tables)
        session_tables = session.tables()
        incremental = phase.enumerate_candidates(
            entity, statistics=session.candidates, tables=session_tables)
        assert scratch_tables.queries_of(from_scratch) == \
            session_tables.queries_of(incremental)

"""Tests for the graph tables (:class:`repro.core.utility.GraphTables`).

Every graph assembled from a table must equal, byte for byte, the graph the
loop-based reference assembler (:func:`tests.oracles.reference_assemble`)
builds from scratch: same vertex keys in the same order, same CSR arrays and
dtypes.  A table numbers its queries in lexicographic order and never
changes once built, so a harvester builds one per entity and every session
of the entity shares it.
"""

import dataclasses
import gc
import random
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.aspects.relevance import OracleRelevance
from repro.core import domain_phase as domain_phase_module
from repro.core import session as session_module
from repro.core.candidates import CandidateStatistics
from repro.core.config import L2QConfig
from repro.core.domain_phase import DomainPhase
from repro.core.entity_phase import EntityPhase
from repro.core.harvester import Harvester
from repro.core.queries import NgramTable
from repro.core.utility import GraphAssembler, GraphTables, template_scale
from repro.corpus.knowledge_base import build_type_system
from repro.graph.random_walk import UtilitySolver

from tests.helpers import entity_enumerator, harvest_signature, make_page
from tests.oracles import (
    assert_same_csr,
    assert_same_graph,
    reference_assemble,
    reference_containment,
)

WORDS = [f"w{i}" for i in range(10)]
#: Words no generated page contains.
UNSEEN = ["zz0", "zz1"]


def _random_page(rng, page_id):
    paragraphs = [([rng.choice(WORDS) for _ in range(rng.randint(1, 6))], None)
                  for _ in range(rng.randint(1, 3))]
    return make_page(page_id, "e1", paragraphs)


def _random_query(rng):
    roll = rng.random()
    if roll < 0.05:
        return ()
    pool = WORDS + UNSEEN if roll < 0.2 else WORDS
    # Repeated words are allowed: a query's row holds its distinct words.
    return tuple(rng.choice(pool) for _ in range(rng.randint(1, 3)))


def _candidates(rng, size):
    queries = sorted({_random_query(rng) for _ in range(size)})
    rng.shuffle(queries)
    return queries


class TestAssemblyEqualsReference:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(min_value=0, max_value=2 ** 30))
    def test_random_graphs_over_one_table(self, seed):
        rng = random.Random(seed)
        type_system = build_type_system({"t0": ["w0", "w1"], "t1": ["w1", "w2", "w3"]})
        assembler = GraphAssembler(type_system)
        pages = [_random_page(rng, f"p{index}") for index in range(rng.randint(1, 8))]
        ngrams = _candidates(rng, rng.randint(0, 15)) + [(), (UNSEEN[0],)]
        domain = _candidates(rng, rng.randint(0, 10))
        tables = GraphTables(type_system, pages, ngrams=ngrams, domain_queries=domain)
        for _ in range(4):
            queries = [query for query in set(ngrams) | set(domain)
                       if rng.random() < 0.6]
            rng.shuffle(queries)
            rows = [row for row in range(len(pages)) if rng.random() < 0.7]
            rng.shuffle(rows)
            use_templates = rng.random() < 0.5
            assembled = assembler.assemble(tables, np.array(rows, dtype=np.int64),
                                           tables.ids(queries),
                                           use_templates=use_templates)
            assert_same_graph(assembled, tables, reference_assemble(
                type_system, [pages[row] for row in rows], queries, use_templates))

    def test_ids_sort_as_queries_do(self):
        type_system = build_type_system({})
        ngrams = [("b",), ("a", "c"), ("a",)]
        domain = [("c",), ("a",), ("b", "a")]
        tables = GraphTables(type_system, [], ngrams=ngrams, domain_queries=domain)
        assert tables.queries == tuple(sorted(set(ngrams) | set(domain)))
        assert tables.queries_of(tables.ngram_ids) == ngrams
        assert tables.queries_of(tables.domain_ids) == domain
        assert tables.id_of(("a",)) == 0 and tables.id_of(("zz",)) is None
        with pytest.raises(KeyError):
            tables.ids([("zz",)])

    def test_tables_keep_the_templates_they_were_built_with(self):
        type_system = build_type_system({"t": ["alpha"]})
        pages = [make_page("p1", "e1", [(["alpha", "beta"], None)])]
        before = GraphTables(type_system, pages, ngrams=[("beta",)])
        assert before.templates == ()
        type_system.add_word("t", "beta")
        after = GraphTables(type_system, pages, ngrams=[("beta",)])
        assert after.templates == (("<t>",),) and before.templates == ()

    @pytest.mark.parametrize("pages,queries", [
        ([], [("alpha",)]),
        ([make_page("p1", "e1", [(["alpha"], None)])], []),
        ([], []),
    ])
    def test_empty_layers(self, pages, queries):
        type_system = build_type_system({"t": ["alpha"]})
        tables = GraphTables(type_system, pages, ngrams=queries)
        assembled = GraphAssembler(type_system).assemble(
            tables, np.arange(len(pages)), tables.ids(queries))
        assert_same_graph(assembled, tables,
                          reference_assemble(type_system, pages, queries))


class TestContainment:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 30))
    def test_equals_contains_all_pair_by_pair(self, seed):
        rng = random.Random(seed)
        pages = [make_page("p0", "e1", [(["parallel", "hpc"], None)])]
        pages += [_random_page(rng, f"p{index}") for index in range(1, rng.randint(1, 6))]
        queries = [("parallel",), ("hpc", "parallel"), ("parallel", "missing"), ()]
        queries += [query for query in _candidates(rng, 20) if query not in queries]
        tables = GraphTables(build_type_system({}), pages, ngrams=queries)
        contained = tables.containment(np.arange(len(pages)), tables.ids(queries))
        assert contained.toarray().tolist() == [
            [float(page.contains_all(query)) for query in queries] for page in pages]
        assert contained.toarray()[0, :3].tolist() == [1.0, 1.0, 0.0]

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_equals_the_per_call_product(self, data):
        # Any subsets of the table's pages and ids, in any order, empty ones
        # included, and tables with and without an empty (vacuous) query.
        rng = random.Random(data.draw(st.integers(min_value=0, max_value=2 ** 30)))
        pages = [_random_page(rng, f"p{index}") for index in range(rng.randint(0, 7))]
        ngrams = _candidates(rng, rng.randint(0, 15)) + [(UNSEEN[0],)]
        if data.draw(st.booleans()):
            ngrams.append(())
        tables = GraphTables(build_type_system({}), pages, ngrams=ngrams)
        rows = data.draw(st.permutations(range(len(pages))).flatmap(
            lambda order: st.integers(0, len(order)).map(lambda size: order[:size])))
        ids = data.draw(st.permutations(range(tables.num_queries)).flatmap(
            lambda order: st.integers(0, len(order)).map(lambda size: order[:size])))
        rows, ids = np.array(rows, dtype=np.int64), np.array(ids, dtype=np.int64)
        assert_same_csr(tables.containment(rows, ids), reference_containment(
            [pages[row] for row in rows.tolist()], tables.queries_of(ids)))

    @pytest.mark.parametrize("ids", [[0, 1, 2], [2, 0, 1], [1], []])
    def test_an_empty_query_is_in_every_page(self, ids):
        pages = [make_page("p0", "e1", [(["alpha"], None)]),
                 make_page("p1", "e1", [(["beta"], None)])]
        tables = GraphTables(build_type_system({}), pages,
                             ngrams=[("alpha",), (), ("gamma",)])
        assert tables.queries == ((), ("alpha",), ("gamma",))
        ids = np.array(ids, dtype=np.int64)
        for rows in ([0, 1], [1, 0], []):
            rows = np.array(rows, dtype=np.int64)
            contained = tables.containment(rows, ids)
            assert_same_csr(contained, reference_containment(
                [pages[row] for row in rows.tolist()], tables.queries_of(ids)))
        assert tables.containment(np.array([1, 0]), np.array([1, 0])).toarray().tolist() \
            == [[0.0, 1.0], [1.0, 1.0]]

    def test_a_repeated_id_raises(self):
        tables = GraphTables(build_type_system({}),
                             [make_page("p0", "e1", [(["alpha"], None)])],
                             ngrams=[("alpha",), ("beta",)])
        with pytest.raises(ValueError, match="repeated"):
            tables.containment(np.array([0]), np.array([1, 0, 1]))

    def test_a_repeated_page_row_raises(self):
        tables = GraphTables(build_type_system({}),
                             [make_page(f"p{row}", "e1", [(["alpha"], None)])
                              for row in range(2)],
                             ngrams=[("alpha",)])
        with pytest.raises(ValueError, match="repeated page rows"):
            tables.containment(np.array([1, 0, 1]), np.array([0]))


class TestGrounding:
    @pytest.fixture(scope="class")
    def setup(self, researcher_corpus):
        entity_ids = researcher_corpus.entity_ids()
        config = L2QConfig()
        model = DomainPhase(researcher_corpus.subset(entity_ids[:8]), config).learn(
            "RESEARCH", OracleRelevance("RESEARCH"))
        entity = researcher_corpus.get_entity(entity_ids[-1])
        pages = researcher_corpus.pages_of(entity.entity_id)
        ngrams = NgramTable.build(entity_enumerator(entity, config), pages)
        tables = GraphTables(researcher_corpus.type_system, pages,
                             ngrams=ngrams.queries, domain_queries=model.domain_queries)
        return researcher_corpus, config, model, entity, pages, ngrams, tables

    @staticmethod
    def _pool(ngrams, pages):
        pool = CandidateStatistics(lambda: ngrams)
        pool.add_pages(pages)
        return pool

    def test_candidates_depend_only_on_the_pages_folded(self, setup):
        corpus, config, model, entity, pages, ngrams, tables = setup
        phase = EntityPhase(corpus.type_system, config)
        few, many = self._pool(ngrams, pages[:2]), self._pool(ngrams, pages[:8])
        shared = phase.enumerate_candidates(entity, model, statistics=few, tables=tables)
        # Tables over exactly the two pages and their n-grams.
        own_ngrams = NgramTable.build(entity_enumerator(entity, config), pages[:2])
        own = GraphTables(corpus.type_system, pages[:2], ngrams=own_ngrams.queries,
                          domain_queries=model.domain_queries)
        own_pool = self._pool(own_ngrams, pages[:2])
        alone = phase.enumerate_candidates(entity, model, statistics=own_pool,
                                           tables=own)
        assert tables.queries_of(shared) == own.queries_of(alone)
        wide = phase.enumerate_candidates(entity, model, statistics=many, tables=tables)
        assert set(shared.tolist()) != set(wide.tolist())

    def test_grounding_and_avoiding_match_a_word_scan(self, setup):
        _, _, _, entity, pages, _, tables = setup
        observed = set().union(*(page.token_set for page in pages[:3]))
        excluded = entity.excluded_words() | {"never_seen_word"}
        assert tables.grounded(np.arange(3)).tolist() == [
            any(word in observed for word in query) for query in tables.queries]
        assert tables.avoiding(excluded).tolist() == [
            not any(word in excluded for word in query) for query in tables.queries]

    def test_domain_template_scales_found_once_per_model(self, setup, monkeypatch):
        corpus, config, model, entity, pages, ngrams, tables = setup
        # A copy of the shared model, whose divisors are not found yet.
        model = dataclasses.replace(model)
        scaled = []
        monkeypatch.setattr(domain_phase_module, "template_scale",
                            lambda values: scaled.append(id(values))
                            or template_scale(values))
        solved = []
        solve_joint = UtilitySolver.solve_joint
        monkeypatch.setattr(UtilitySolver, "solve_joint",
                            lambda self, precision, recall: solved.append(
                                (precision, recall)) or solve_joint(self, precision, recall))
        relevance = OracleRelevance("RESEARCH")
        # Two phases, as two selections build them: one computation per model.
        results = [EntityPhase(corpus.type_system, config).compute(
                       entity, relevance, domain_model=model,
                       statistics=self._pool(ngrams, pages[:count]), tables=tables)
                   for count in (3, 4)]
        assert sorted(scaled) == sorted(map(id, (
            model.template_precision, model.template_recall,
            model.template_recall_all)))
        # Each selection's regularization is the scalar lambda * U / scale of
        # every graph template with a positive domain utility.
        for result, (precision, recall) in zip(results, solved):
            templates = [tables.templates[t] for t in result.assembled.templates.tolist()]
            expected = []
            for values in (model.template_precision, model.template_recall,
                           model.template_recall_all):
                scale = template_scale(values)
                expected.append([config.adaptation_lambda * values[t] / scale
                                 if values.get(t, 0.0) > 0 else 0.0
                                 for t in templates])
            assert any(expected[0])
            assert [precision[0].template_regularization.tolist(),
                    recall[0].template_regularization.tolist(),
                    recall[2].template_regularization.tolist()] == expected


# -- In-harvest cross-checks -------------------------------------------------

ENTITY_PHASE_METHODS = ("P", "R", "P+t", "R+t", "L2QP", "L2QR", "L2QBAL")


@pytest.fixture()
def cross_checked(monkeypatch):
    """Check every graph against the reference assembler and every candidate
    list against an enumeration on tables built afresh, in situ."""
    counts = {"graphs": 0, "entity_graphs": 0, "candidate_lists": 0}
    assemble = GraphAssembler.assemble
    enumerate_candidates = EntityPhase.enumerate_candidates

    def checked_assemble(self, tables, pages, queries, use_templates=True):
        assembled = assemble(self, tables, pages, queries, use_templates=use_templates)
        assert_same_graph(assembled, tables, reference_assemble(
            self.type_system, [tables.pages[row] for row in pages.tolist()],
            tables.queries_of(queries), use_templates))
        counts["graphs"] += 1
        # The domain phase's tables number domain queries only.
        counts["entity_graphs"] += tables.ngram_ids.size > 0
        return assembled

    def checked_enumerate(self, entity, domain_model=None, exclude=None, *,
                          statistics, tables):
        candidates = enumerate_candidates(self, entity, domain_model, exclude,
                                          statistics=statistics, tables=tables)
        fresh = GraphTables(self.type_system, tables.pages,
                            ngrams=tables.queries_of(tables.ngram_ids),
                            domain_queries=tables.queries_of(tables.domain_ids))
        again = enumerate_candidates(self, entity, domain_model,
                                     None if exclude is None else fresh.ids(
                                         tables.queries_of(exclude)),
                                     statistics=statistics, tables=fresh)
        assert tables.queries_of(candidates) == fresh.queries_of(again)
        counts["candidate_lists"] += 1
        return candidates

    monkeypatch.setattr(GraphAssembler, "assemble", checked_assemble)
    monkeypatch.setattr(EntityPhase, "enumerate_candidates", checked_enumerate)
    return counts


@pytest.mark.parametrize("method", ENTITY_PHASE_METHODS)
def test_harvest_graphs_equal_the_reference(cross_checked, researcher_runner,
                                            researcher_prepared, method):
    harvester = researcher_runner.harvester_for(researcher_prepared)
    for entity_id in researcher_prepared.split.test_entities[:2]:
        job = researcher_runner.build_job(researcher_prepared, method, entity_id,
                                          "RESEARCH", 3)
        assert harvester.harvest_job(job).iterations
    # Every selection assembles one graph from the entity's tables.
    assert cross_checked["entity_graphs"] >= 4
    assert cross_checked["candidate_lists"] == cross_checked["entity_graphs"]


def _fresh_harvester(runner, prepared):
    return Harvester(runner.corpus, prepared.engine, runner.config)


def test_one_table_per_entity_and_domain_list(researcher_runner, researcher_prepared,
                                              monkeypatch):
    built = []
    tables_class = session_module.GraphTables
    monkeypatch.setattr(session_module, "GraphTables",
                        lambda *args, **kwargs: built.append(args[0])
                        or tables_class(*args, **kwargs))
    harvester = _fresh_harvester(researcher_runner, researcher_prepared)
    entities = researcher_prepared.split.test_entities[:2]
    for entity_id in entities:
        for method in ("L2QP", "L2QBAL", "HR", "P+t"):
            for aspect in ("RESEARCH", "CONTACT"):
                job = researcher_runner.build_job(researcher_prepared, method,
                                                  entity_id, aspect, 2)
                harvester.harvest_job(job)
    # The domain models and the HR statistics of every aspect bring the
    # split's one list of domain queries.
    assert len(built) == len(entities)
    assert len(harvester.graph_tables) == len(entities)


def test_tables_live_with_the_harvester_only(researcher_runner, researcher_prepared):
    harvester = _fresh_harvester(researcher_runner, researcher_prepared)
    job = researcher_runner.build_job(
        researcher_prepared, "L2QBAL", researcher_prepared.split.test_entities[0],
        "RESEARCH", 3)
    result = harvester.harvest_job(job)
    tables = [weakref.ref(entry[-1]) for entry in harvester.graph_tables.values()]
    assert result.iterations and len(tables) == 1
    del harvester
    gc.collect()
    # The job (and its selector, which fig13 keeps for the whole batch) and
    # the result are still referenced; the tables are not.
    assert job.selector is not None
    assert all(ref() is None for ref in tables)


def test_threads_sharing_one_entitys_tables_match_serial_runs(researcher_runner,
                                                              researcher_prepared):
    # Sessions a caller runs on its own threads share the harvester's
    # tables, built by whichever thread needs them first.  More threads
    # than cores and a tiny switch interval interleave the sessions as
    # finely as the interpreter allows; every run must still equal its
    # serial twin.
    entity_id = researcher_prepared.split.test_entities[0]
    runs = [(method, aspect) for method in ("L2QBAL", "L2QP", "L2QR", "HR", "P+t", "R")
            for aspect in ("RESEARCH", "CONTACT")]

    def jobs():
        return [researcher_runner.build_job(researcher_prepared, method, entity_id,
                                            aspect, 3) for method, aspect in runs]

    serial_harvester = _fresh_harvester(researcher_runner, researcher_prepared)
    serial = [harvest_signature(serial_harvester.harvest_job(job)) for job in jobs()]

    harvester = _fresh_harvester(researcher_runner, researcher_prepared)
    pending = jobs()
    results = [None] * len(pending)
    errors = []
    num_threads = 4
    barrier = threading.Barrier(num_threads)

    def work(offset):
        try:
            barrier.wait(timeout=30)
            for index in range(offset, len(pending), num_threads):
                results[index] = harvest_signature(harvester.harvest_job(pending[index]))
        except Exception as error:  # reported by the main thread
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(offset,), daemon=True)
                   for offset in range(num_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive(), "a harvest thread did not finish"
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert results == serial
    assert len(harvester.graph_tables) == 2  # with and without domain queries

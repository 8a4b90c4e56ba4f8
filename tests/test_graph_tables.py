"""Tests for the per-session graph tables (:class:`repro.core.utility.GraphTables`).

Every graph assembled from a table must equal, byte for byte, the graph the
loop-based reference assembler (:func:`tests.oracles.reference_assemble`)
builds from scratch: same vertex keys in the same order, same CSR arrays and
dtypes.  The tables are a memo, so a table that has served any earlier
sequence of calls must answer exactly as a fresh one.
"""

import gc
import random
import weakref

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.aspects.relevance import OracleRelevance
from repro.core import entity_phase as entity_phase_module
from repro.core import utility as utility_module
from repro.core.config import L2QConfig
from repro.core.domain_phase import DomainPhase
from repro.core.entity_phase import EntityPhase
from repro.core.utility import GraphAssembler, GraphTables, template_regularization
from repro.corpus.knowledge_base import build_type_system
from repro.graph.random_walk import UtilitySolver

from tests.helpers import candidate_pool, make_page
from tests.oracles import assert_same_graph, reference_assemble

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
    queries = {_random_query(rng) for _ in range(size)}
    # Every call meets the empty query and a query contained in no page at
    # least once per sequence (see ``_sequence``); order churns freely.
    queries = sorted(queries)
    rng.shuffle(queries)
    return queries


def _sequence(seed):
    """A random sequence of (action, payload) steps.  Every sequence grows
    its page list, churns and reorders candidates, toggles templates, adds a
    typed word mid-sequence, replaces a page object under an existing id,
    and passes the empty query and a query found on no page."""
    rng = random.Random(seed)
    steps = []
    num_pages = 0
    for index in range(8):
        for _ in range(rng.randint(0, 2) if index else 2):
            steps.append(("page", num_pages))
            num_pages += 1
        if index == 3:
            steps.append(("add_word", (rng.choice(["t0", "t2"]), rng.choice(WORDS))))
        if index == 5:
            steps.append(("replace_page", rng.randrange(num_pages)))
        candidates = _candidates(rng, rng.randint(0, 12))
        if index == 2:
            candidates += [q for q in [(), (UNSEEN[0],)] if q not in candidates]
        use_templates = index % 2 == 0 if index < 4 else rng.random() < 0.5
        steps.append(("assemble", (candidates, use_templates, rng.random() < 0.3)))
    return rng, steps


class TestAssemblyEqualsReference:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(min_value=0, max_value=2 ** 30))
    def test_random_call_sequences_on_one_table(self, seed):
        type_system = build_type_system({"t0": ["w0", "w1"], "t1": ["w1", "w2", "w3"]})
        assembler = GraphAssembler(type_system, L2QConfig())
        tables = GraphTables(type_system)
        rng, steps = _sequence(seed)
        pages = []
        for action, payload in steps:
            if action == "page":
                pages.append(_random_page(rng, f"p{payload}"))
            elif action == "replace_page":
                # Equal id, new object and new words: the cached row is stale.
                pages[payload] = _random_page(rng, f"p{payload}")
            elif action == "add_word":
                type_system.add_word(*payload)
            else:
                candidates, use_templates, shuffle_pages = payload
                passed = list(pages)
                if shuffle_pages:
                    rng.shuffle(passed)
                assembled = assembler.assemble(passed, candidates,
                                               use_templates=use_templates,
                                               tables=tables)
                assert_same_graph(assembled, reference_assemble(
                    type_system, passed, candidates, use_templates))

    def test_generator_covers_every_case(self):
        seen = set()
        for seed in range(20):
            _, steps = _sequence(seed)
            actions = [action for action, _ in steps]
            assert {"page", "replace_page", "add_word", "assemble"} <= set(actions)
            calls = [payload for action, payload in steps if action == "assemble"]
            assert any(() in candidates for candidates, _, _ in calls)
            assert any((UNSEEN[0],) in candidates for candidates, _, _ in calls)
            assert {use for _, use, _ in calls} == {True, False}
            seen.update(len(candidates) == 0 for candidates, _, _ in calls)
        assert seen == {True, False}

    def test_page_row_not_reused_for_another_page_object(self):
        type_system = build_type_system({})
        assembler = GraphAssembler(type_system)
        tables = GraphTables(type_system)
        first = make_page("p1", "e1", [(["alpha", "beta"], None)])
        graph = assembler.assemble([first], [("alpha",)], tables=tables).graph
        assert graph.page_query.nnz == 1
        replaced = make_page("p1", "e1", [(["gamma"], None)])
        graph = assembler.assemble([replaced], [("alpha",)], tables=tables).graph
        assert graph.page_query.nnz == 0

    def test_type_system_change_starts_fresh_tables(self):
        type_system = build_type_system({"t": ["alpha"]})
        assembler = GraphAssembler(type_system)
        tables = GraphTables(type_system)
        pages = [make_page("p1", "e1", [(["alpha", "beta"], None)])]
        before = assembler.assemble(pages, [("beta",)], tables=tables)
        assert before.templates == []
        type_system.add_word("t", "beta")
        after = assembler.assemble(pages, [("beta",)], tables=tables)
        assert after.templates == [("<t>",)]

    @pytest.mark.parametrize("pages,queries", [
        ([], [("alpha",)]),
        ([make_page("p1", "e1", [(["alpha"], None)])], []),
        ([], []),
    ])
    def test_empty_layers(self, pages, queries):
        type_system = build_type_system({"t": ["alpha"]})
        assembled = GraphAssembler(type_system).assemble(pages, queries)
        assert_same_graph(assembled, reference_assemble(type_system, pages, queries))


class TestContainment:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 30))
    def test_equals_contains_all_pair_by_pair(self, seed):
        rng = random.Random(seed)
        tables = GraphTables(build_type_system({}))
        pages = [make_page("p0", "e1", [(["parallel", "hpc"], None)])]
        pages += [_random_page(rng, f"p{index}") for index in range(1, rng.randint(1, 6))]
        queries = [("parallel",), ("hpc", "parallel"), ("parallel", "missing"), ()]
        queries += [query for query in _candidates(rng, 20) if query not in queries]
        contained = tables.containment(pages, tables.query_ids(queries))
        assert contained.toarray().tolist() == [
            [float(page.contains_all(query)) for query in queries] for page in pages]
        assert contained.toarray()[0, :3].tolist() == [1.0, 1.0, 0.0]


class TestGrounding:
    @pytest.fixture(scope="class")
    def setup(self, researcher_corpus):
        entity_ids = researcher_corpus.entity_ids()
        config = L2QConfig()
        model = DomainPhase(researcher_corpus.subset(entity_ids[:8]), config).learn(
            "RESEARCH", OracleRelevance("RESEARCH"))
        entity = researcher_corpus.get_entity(entity_ids[-1])
        pages = researcher_corpus.pages_of(entity.entity_id)
        return researcher_corpus, config, model, entity, pages

    def test_candidates_depend_only_on_the_pages_passed(self, setup):
        corpus, config, model, entity, pages = setup
        phase = EntityPhase(corpus.type_system, config)
        tables = GraphTables(corpus.type_system)
        # The table first sees many pages, then a call passes only two: the
        # grounding must read the words of those two alone.
        few, many = candidate_pool(entity, pages[:2]), candidate_pool(entity, pages[:8])
        phase.enumerate_candidates(entity, pages[:8], model, statistics=many,
                                   tables=tables)
        reused = phase.enumerate_candidates(entity, pages[:2], model, statistics=few,
                                            tables=tables)
        fresh = phase.enumerate_candidates(entity, pages[:2], model, statistics=few)
        assert reused == fresh
        wide = phase.enumerate_candidates(entity, pages[:8], model, statistics=many)
        assert set(reused) != set(wide)

    def test_grounding_matches_a_word_scan(self, setup):
        corpus, config, model, entity, pages = setup
        tables = GraphTables(corpus.type_system)
        queries = list(model.frequent_queries) + [(), ("never_seen_word",)]
        observed = set().union(*(page.token_set for page in pages[:3]))
        grounded = tables.grounded(queries, pages[:3])
        assert grounded.tolist() == [any(word in observed for word in query)
                                     for query in queries]

    def test_domain_template_scales_found_once_per_model(self, setup, monkeypatch):
        corpus, config, model, entity, pages = setup
        scaled = []
        template_scale = entity_phase_module.template_scale
        monkeypatch.setattr(entity_phase_module, "template_scale",
                            lambda values: scaled.append(id(values))
                            or template_scale(values))
        solved = []
        solve_joint = UtilitySolver.solve_joint
        monkeypatch.setattr(UtilitySolver, "solve_joint",
                            lambda self, precision, recall: solved.append(
                                (precision, recall)) or solve_joint(self, precision, recall))
        phase = EntityPhase(corpus.type_system, config)
        relevance = OracleRelevance("RESEARCH")
        results = [phase.compute(entity, pages[:count], relevance, domain_model=model,
                                 statistics=candidate_pool(entity, pages[:count]))
                   for count in (3, 4)]
        assert sorted(scaled) == sorted(map(id, (
            model.template_precision, model.template_recall,
            model.template_recall_all)))
        # Each selection's regularization equals normalising afresh.
        for result, (precision, recall) in zip(results, solved):
            templates = result.assembled.templates
            expected = [template_regularization(values, templates,
                                                config.adaptation_lambda)
                        for values in (model.template_precision,
                                       model.template_recall,
                                       model.template_recall_all)]
            assert expected[0]
            assert [precision[0].template_regularization,
                    recall[0].template_regularization,
                    recall[2].template_regularization] == expected
            assert [list(regularization) for regularization in expected] == \
                [list(precision[0].template_regularization),
                 list(recall[0].template_regularization),
                 list(recall[2].template_regularization)]


# -- In-harvest cross-checks -------------------------------------------------

ENTITY_PHASE_METHODS = ("P", "R", "P+t", "R+t", "L2QP", "L2QR", "L2QBAL")


@pytest.fixture()
def cross_checked(monkeypatch):
    """Check every graph against the reference assembler and every candidate
    list against an enumeration on fresh tables, in situ."""
    counts = {"graphs": 0, "session_graphs": 0, "candidate_lists": 0}
    assemble = GraphAssembler.assemble
    enumerate_candidates = EntityPhase.enumerate_candidates

    def checked_assemble(self, pages, queries, use_templates=True, tables=None):
        assembled = assemble(self, pages, queries, use_templates=use_templates,
                             tables=tables)
        assert_same_graph(assembled, reference_assemble(
            self.type_system, pages, queries, use_templates))
        counts["graphs"] += 1
        counts["session_graphs"] += tables is not None
        return assembled

    def checked_enumerate(self, entity, current_pages, domain_model=None,
                          exclude=None, *, statistics, tables=None):
        candidates = enumerate_candidates(self, entity, current_pages, domain_model,
                                          exclude, statistics=statistics,
                                          tables=tables)
        fresh = enumerate_candidates(self, entity, current_pages, domain_model,
                                     exclude, statistics=statistics,
                                     tables=GraphTables(self.type_system))
        assert candidates == fresh
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
    # Every selection assembles one graph from its session's tables.
    assert cross_checked["session_graphs"] >= 4
    assert cross_checked["candidate_lists"] == cross_checked["session_graphs"]


def test_plain_utility_selection_derives_no_templates(researcher_runner,
                                                      researcher_prepared,
                                                      monkeypatch):
    abstracted = []
    abstract_queries = utility_module.abstract_queries
    monkeypatch.setattr(utility_module, "abstract_queries",
                        lambda queries, *args: abstracted.append(len(queries))
                        or abstract_queries(queries, *args))
    harvester = researcher_runner.harvester_for(researcher_prepared)
    for method in ("P", "R"):
        job = researcher_runner.build_job(
            researcher_prepared, method,
            researcher_prepared.split.test_entities[0], "RESEARCH", 3)
        assert harvester.harvest_job(job).iterations
    assert abstracted == []


def test_session_tables_die_with_the_harvest(researcher_runner, researcher_prepared):
    job = researcher_runner.build_job(
        researcher_prepared, "L2QBAL", researcher_prepared.split.test_entities[0],
        "RESEARCH", 3)
    tables = []
    select = job.selector.select

    def spying_select(session):
        tables.append(weakref.ref(session.tables))
        return select(session)

    job.selector.select = spying_select
    result = researcher_runner.harvester_for(researcher_prepared).harvest_job(job)
    gc.collect()
    assert result.iterations and len(tables) == len(result.iterations)
    # The job (and its selector, which fig13 keeps for the whole batch) and
    # the result are still referenced; the session's tables are not.
    assert job.selector is not None
    assert all(ref() is None for ref in tables)

"""Shared test builders, importable explicitly as ``tests.helpers``.

These used to live in ``tests/conftest.py`` and were imported with
``from conftest import ...``, which breaks as soon as another ``conftest``
module (e.g. the benchmark harness's) shadows it on ``sys.path``.  Keeping
the builders in a normally-named module and importing them with an explicit
package path makes the resolution unambiguous (``pytest.ini`` puts the
repository root on ``sys.path``).
"""

from __future__ import annotations

import os
import sys
import threading

from repro.core.candidates import CandidateStatistics
from repro.core.config import L2QConfig
from repro.core.queries import NgramTable, QueryEnumerator
from repro.core.utility import GraphTables
from repro.corpus.document import Page, Paragraph
from repro.eval.runner import ExperimentRunner
from repro.exec.backends import ProcessBackend


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


def pool_tables(type_system, pages, pool, domain_queries=()):
    """The graph tables of ``candidate_pool(entity, pages)``: its n-grams
    and ``domain_queries``, with ``pages`` as the page rows."""
    return GraphTables(type_system, pages, ngrams=pool.table.queries,
                       domain_queries=domain_queries)


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


#: Worlds this process rebuilt for :func:`harvest_in_worker`, keyed by
#: (corpus spec, config): a worker prepares each world once, however many
#: of its tasks it runs.
_WORKER_WORLDS = {}


def harvest_in_worker(task):
    """One task of :func:`run_split_specs`: ``(pid, result)`` of one
    ``(method, entity_id, aspect, budget)`` job, built by
    :meth:`~repro.eval.runner.ExperimentRunner.build_job` and harvested in a
    world rebuilt from its corpus spec."""
    corpus_spec, config, job = task
    key = repr((corpus_spec, config))
    if key not in _WORKER_WORLDS:
        runner = ExperimentRunner(corpus_spec.build(), config=config,
                                  base_seed=5)
        prepared = runner.prepare(runner.default_split(0))
        _WORKER_WORLDS[key] = (runner, prepared, runner.harvester_for(prepared))
    runner, prepared, harvester = _WORKER_WORLDS[key]
    return os.getpid(), harvester.harvest_job(runner.build_job(prepared, *job))


def run_split_specs(corpus, methods, *, corpus_spec=None, config=None,
                    num_queries=2, workers=2):
    """Two test entities of split 0 × ``methods``, one harvest per job.

    A job travels as its ``(method, entity_id, aspect, budget)`` payload.
    With ``corpus_spec`` every job is its own task on ``workers`` process
    workers (``ProcessBackend.map_tasks``), built and harvested in a world
    the worker rebuilt from ``corpus_spec``; without it the jobs run in
    this process on one harvester.  Returns the results in job order.
    """
    runner = ExperimentRunner(corpus, config=config, base_seed=5)
    split = runner.default_split(0)
    jobs = [(method, entity_id, "RESEARCH", num_queries)
            for method in methods
            for entity_id in list(split.test_entities)[:2]]
    if corpus_spec is None:
        prepared = runner.prepare(split)
        harvester = runner.harvester_for(prepared)
        return [harvester.harvest_job(runner.build_job(prepared, *job))
                for job in jobs]
    backend = ProcessBackend(workers)
    try:
        shipped = backend.map_tasks(harvest_in_worker,
                                    [(corpus_spec, config, job) for job in jobs])
    finally:
        backend.close()
    assert all(pid != os.getpid() for pid, _ in shipped)
    return [result for _, result in shipped]


def run_on_threads(fn, items, timeout=120.0):
    """``[fn(item) for item in items]``, each call on a thread of its own.

    The threads start under a tiny switch interval, so they interleave at
    almost every bytecode; the interval is restored and every thread
    joined (with ``timeout``) whatever happens.  A call's exception is
    re-raised here.
    """
    results = [None] * len(items)
    errors = []

    def run(index):
        try:
            results[index] = fn(items[index])
        except BaseException as error:  # re-raised on the calling thread
            errors.append(error)

    threads = [threading.Thread(target=run, args=(index,))
               for index in range(len(items))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
    finally:
        for thread in threads:
            thread.join(timeout=timeout)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    if errors:
        raise errors[0]
    return results

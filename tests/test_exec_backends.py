"""Unit tests for the execution-backend layer (:mod:`repro.exec`)."""

import multiprocessing

import pytest

from repro.exec.backends import (
    BACKEND_PROCESS,
    BACKEND_SERIAL,
    ProcessBackend,
    SerialBackend,
    backend_names,
    make_backend,
    resolve_backend,
)
from repro.exec.specs import CorpusSpec, _ProcessLocalCache
from repro.scenarios import make_scenario


def _double(value):
    """Module-level so the process backend can pickle it by reference."""
    return value * 2


def _sleep_then_return(payload):
    """Sleep ``delay`` seconds, then return ``value``."""
    import time

    delay, value = payload
    time.sleep(delay)
    return value


def _mark_or_poison(payload):
    """Touch a marker file, or raise — the failure-path probe payload."""
    import time
    from pathlib import Path

    directory, name, poison, sleep = payload
    if poison:
        raise RuntimeError("poisoned payload")
    if sleep:
        time.sleep(sleep)
    Path(directory, name).touch()
    return name


def _count_base_generations(payload):
    """Build every spec's base in one worker; return generations performed.

    Clears and re-pins the inherited (forked) base cache so the probe is
    independent of whatever the parent process cached or reserved.
    """
    from repro.corpus import synthetic
    from repro.exec import specs as specs_module

    spec_cycle, capacity, slots = payload
    cache = specs_module._BASE_CACHE
    cache._entries.clear()
    cache.capacity = capacity
    if slots:
        specs_module.reserve_base_slots(slots)
    before = synthetic.base_generation_count()
    for spec in spec_cycle:
        spec.build_base()
    return synthetic.base_generation_count() - before


class TestRegistry:
    def test_builtins_registered(self):
        assert backend_names() == [BACKEND_PROCESS, BACKEND_SERIAL]

    def test_make_backend_resolves_names(self):
        assert isinstance(make_backend("serial"), SerialBackend)
        assert isinstance(make_backend("process", workers=2), ProcessBackend)

    @pytest.mark.parametrize("name", backend_names())
    def test_every_registered_backend_builds_under_its_name(self, name):
        backend = make_backend(name, workers=2)
        assert backend.name == name
        assert backend.distributed == (name == BACKEND_PROCESS)

    def test_make_backend_forwards_workers(self):
        assert make_backend("process", workers=2).workers == 2

    @pytest.mark.parametrize("name", ["quantum", "thread", "serving"])
    def test_unknown_backend_rejected(self, name):
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend(name)


class TestResolveBackend:
    def test_none_maps_workers_to_serial_or_process(self):
        assert isinstance(resolve_backend(None, workers=1), SerialBackend)
        process = resolve_backend(None, workers=4)
        assert isinstance(process, ProcessBackend)
        assert process.workers == 4

    def test_string_resolves_with_workers(self):
        backend = resolve_backend("process", workers=2)
        assert isinstance(backend, ProcessBackend)
        assert backend.workers == 2

    def test_instance_passes_through(self):
        backend = ProcessBackend(2)
        assert resolve_backend(backend, workers=9) is backend

    def test_bad_type_rejected(self):
        with pytest.raises(TypeError, match="backend"):
            resolve_backend(3.14)

    @pytest.mark.parametrize("name", [None, "process"])
    def test_zero_workers_rejected(self, name):
        # Zero workers is not "serial": it is refused, as the runner does.
        with pytest.raises(ValueError, match="workers must be >= 1"):
            resolve_backend(name, workers=0)


class TestMapSemantics:
    @pytest.mark.parametrize("backend", [SerialBackend(), ProcessBackend(2)],
                             ids=["serial", "process"])
    def test_map_tasks_preserves_order(self, backend):
        # One task per item on the process pool; results still come back
        # in item order, as sweeps and campaigns fold them.
        items = list(range(13))
        assert backend.map_tasks(_double, items) == [2 * i for i in items]

    @pytest.mark.parametrize("backend", [SerialBackend(), ProcessBackend(2)],
                             ids=["serial", "process"])
    def test_map_tasks_empty(self, backend):
        assert backend.map_tasks(_double, []) == []

    def test_fewer_items_than_workers(self):
        backend = ProcessBackend(4)
        try:
            assert backend.map_tasks(_double, [5, 6]) == [10, 12]
        finally:
            backend.close()

    def test_results_keep_item_order_when_tasks_finish_out_of_order(self):
        # The first task is the slowest: the others finish before it, yet
        # every result comes back at its item's position.
        backend = ProcessBackend(2)
        items = [(0.3, "first"), (0.0, "second"), (0.0, "third"),
                 (0.0, "fourth")]
        try:
            assert backend.map_tasks(_sleep_then_return, items) == \
                ["first", "second", "third", "fourth"]
        finally:
            backend.close()

    def test_serial_not_distributed(self):
        assert not SerialBackend().distributed

    def test_process_is_distributed(self):
        assert ProcessBackend(2).distributed

    def test_workers_validated(self):
        with pytest.raises(ValueError):
            ProcessBackend(0)

    def test_forks_where_available(self):
        available = multiprocessing.get_all_start_methods()
        expected = "fork" if "fork" in available else available[0]
        assert ProcessBackend(2).start_method == expected
        assert make_backend(BACKEND_PROCESS, workers=2).start_method == expected


class TestPool:
    def test_pool_persists_across_map_tasks_calls(self):
        backend = ProcessBackend(2)
        try:
            backend.map_tasks(_double, [1, 2, 3])
            pool = backend._pool
            assert pool is not None
            backend.map_tasks(_double, [4, 5, 6])
            assert backend._pool is pool
        finally:
            backend.close()
        assert backend._pool is None

    def test_close_is_idempotent_and_pool_recreates(self):
        backend = ProcessBackend(2)
        backend.close()
        backend.close()
        assert backend.map_tasks(_double, [7]) == [14]
        backend.close()


class TestFailurePropagation:
    """A poisoned payload must surface promptly: the pool is torn down with
    ``cancel_futures=True`` instead of waiting for every doomed sibling."""

    def test_map_tasks_failure_skips_cancelled_siblings(self, tmp_path):
        backend = ProcessBackend(1)
        items = [(str(tmp_path), "poison", True, 0.0)] + \
            [(str(tmp_path), f"sibling_{i}", False, 0.5) for i in range(4)]
        try:
            with pytest.raises(RuntimeError, match="poisoned payload"):
                backend.map_tasks(_mark_or_poison, items)
            # One worker, poison first: every sibling was still queued when
            # the failure hit, so cancellation means none of them ran.
            assert list(tmp_path.iterdir()) == []
            # The dead pool was dropped, not left to poison later calls.
            assert backend._pool is None
            assert backend.map_tasks(_double, [21]) == [42]
        finally:
            backend.close()

    def test_failure_surfaces_promptly(self, tmp_path):
        import time

        backend = ProcessBackend(1)
        items = [(str(tmp_path), "poison", True, 0.0)] + \
            [(str(tmp_path), f"slow_{i}", False, 2.0) for i in range(4)]
        try:
            start = time.monotonic()
            with pytest.raises(RuntimeError):
                backend.map_tasks(_mark_or_poison, items)
            elapsed = time.monotonic() - start
        finally:
            backend.close()
        # A waiting shutdown would drain 4 x 2 s of doomed work; the abort
        # path returns as soon as the first result raises.
        assert elapsed < 4.0


class TestBaseCacheReservation:
    """The dispatch-time ``reserve_base_slots`` bugfix: a worker shard that
    touches more distinct bases than the default cache capacity (4) must not
    thrash into evict-and-regenerate cycles."""

    def _specs(self, count):
        return [CorpusSpec(domain="researcher", num_entities=4,
                           pages_per_entity=2, seed=100 + i)
                for i in range(count)]

    def test_reserved_worker_generates_each_base_once(self):
        specs = self._specs(6)
        backend = ProcessBackend(1)
        try:
            (generated,) = backend.map_tasks(
                _count_base_generations, [(tuple(specs * 2), 4, 6)])
        finally:
            backend.close()
        assert generated == 6

    def test_unreserved_worker_thrashes(self):
        # The regression this PR fixes: six bases cycled twice through an
        # unreserved capacity-4 LRU miss on every single access.
        specs = self._specs(6)
        backend = ProcessBackend(1)
        try:
            (generated,) = backend.map_tasks(
                _count_base_generations, [(tuple(specs * 2), 4, 0)])
        finally:
            backend.close()
        assert generated == 12

    def test_reserve_grows_both_caches(self):
        from repro.exec.specs import _BASE_CACHE, _CORPUS_CACHE, reserve_base_slots

        base_before = _BASE_CACHE.capacity
        corpus_before = _CORPUS_CACHE.capacity
        target = max(base_before, corpus_before) + 3
        reserve_base_slots(target)
        assert _BASE_CACHE.capacity == target
        assert _CORPUS_CACHE.capacity == target
        reserve_base_slots(1)  # never shrinks
        assert _BASE_CACHE.capacity == target
        assert _CORPUS_CACHE.capacity == target


class TestProcessLocalCache:
    def test_build_once_per_key(self):
        cache = _ProcessLocalCache(capacity=2)
        calls = []
        first = cache.get_or_build("a", lambda: calls.append("a") or object())
        again = cache.get_or_build("a", lambda: calls.append("a") or object())
        assert first is again
        assert calls == ["a"]

    def test_lru_eviction(self):
        cache = _ProcessLocalCache(capacity=1)
        first = cache.get_or_build("a", object)
        cache.get_or_build("b", object)
        rebuilt = cache.get_or_build("a", object)
        assert rebuilt is not first

    def test_concurrent_lookups_survive_evictions(self):
        # Cells a caller runs on its own threads share the process caches.
        # A hit that is evicted by another thread between its membership
        # test and its LRU touch raised KeyError.  Each key's hash yields
        # the GIL, which opens that window on every lookup, as a thread
        # switch there would.
        import sys
        import threading
        import time

        class YieldingKey(str):
            def __hash__(self):
                time.sleep(0)
                return str.__hash__(self)

        cache = _ProcessLocalCache(capacity=1)
        keys = [YieldingKey(name) for name in "abc"]
        errors = []

        def hammer(offset):
            try:
                for call in range(200):
                    cache.get_or_build(keys[(call + offset) % 3], object)
            except Exception as error:
                errors.append(error)

        threads = [threading.Thread(target=hammer, args=(offset,))
                   for offset in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(cache._entries) == 1


class TestCorpusSpec:
    def test_clean_build_matches_direct_generation(self):
        from repro.corpus.synthetic import build_corpus

        spec = CorpusSpec(domain="researcher", num_entities=8,
                          pages_per_entity=6, seed=11)
        direct = build_corpus("researcher", num_entities=8,
                              pages_per_entity=6, seed=11)
        assert spec.build().content_digest() == direct.content_digest()

    def test_scenario_build_matches_full_generation(self):
        scenario = make_scenario("near-duplicates")
        spec = CorpusSpec(domain="researcher", num_entities=8,
                          pages_per_entity=6, seed=11, scenario=scenario)
        full = scenario.corpus_for("researcher", num_entities=8,
                                   pages_per_entity=6, seed=11)
        assert spec.build().content_digest() == full.content_digest()

    def test_non_base_sharing_scenario_builds_once(self):
        # The realised-corpus cache bugfix: scenarios with config overrides
        # (shares_base == False) used to bypass caching entirely and
        # regenerate on every build() call.
        from repro.exec.specs import corpus_build_count
        from repro.scenarios import ScenarioSpec

        scenario = ScenarioSpec(name="dense-hubs-test",
                                description="hub-heavy override scenario",
                                config_overrides={"hub_page_fraction": 0.4})
        assert not scenario.shares_base
        spec = CorpusSpec(domain="researcher", num_entities=4,
                          pages_per_entity=3, seed=9119, scenario=scenario)
        before = corpus_build_count()
        first = spec.build()
        assert corpus_build_count() == before + 1
        assert spec.build() is first
        assert corpus_build_count() == before + 1

    def test_clean_build_is_cached_per_spec(self):
        from repro.exec.specs import corpus_build_count

        spec = CorpusSpec(domain="car", num_entities=4, pages_per_entity=3,
                          seed=9120)
        first = spec.build()
        count = corpus_build_count()
        assert spec.build() is first
        assert corpus_build_count() == count

    def test_spec_is_picklable(self):
        import pickle

        spec = CorpusSpec(domain="car", num_entities=6, pages_per_entity=4,
                          seed=3, scenario=make_scenario("zipf-skew"))
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec

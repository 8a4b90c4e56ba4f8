"""Self-contained, picklable job specifications for distributed backends.

A process worker cannot receive live object graphs cheaply: the search
engine carries a lock, classifier suites and indexes are large, and shared
caches would stop being shared.  Distributed execution therefore ships
*specs* — plain dataclasses saying how to rebuild the world (config in) —
and receives plain result dataclasses back (result out).  Because every
component is deterministic given its seeds, a worker rebuilding a corpus,
split, classifier suite or engine from a spec produces bit-for-bit the
objects the caller would have built locally.

Workers keep small process-local caches (:meth:`CorpusSpec.build_base`
backed by a module-level LRU) so the expensive rebuilds amortise across the
payloads a worker runs — and, because a
:class:`~repro.exec.backends.ProcessBackend` keeps its worker pool across
calls, across successive dispatches too.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Optional, Tuple, TypeVar

from repro import perf
from repro.core.config import L2QConfig
from repro.corpus.corpus import Corpus
from repro.corpus.synthetic import BaseCorpus, build_base, realise_base
from repro.scenarios import ScenarioSpec
from repro.store import StoreError, StoreHandle, attach

V = TypeVar("V")


class _ProcessLocalCache:
    """A tiny keyed LRU for per-worker rebuilt state.

    Keys are ``repr`` strings of spec dataclasses: deterministic within a
    process and cheap, without requiring hashability of nested configs.

    Callers may run cells or harvests on threads of their own, which then
    share one cache, so every lookup, touch and eviction holds a lock.  A
    build runs outside it: builds are deterministic, so two threads racing
    to build one key build equal values, and the first one stored is the
    one every caller gets.
    """

    def __init__(self, capacity: int = 4) -> None:
        self.capacity = capacity
        self._entries: "OrderedDict[str, object]" = OrderedDict()
        self._lock = threading.Lock()

    def reserve(self, capacity: int) -> None:
        """Grow (never shrink) the capacity.

        Orchestrators that know how many distinct keys a workload touches
        (e.g. the number of splits in an evaluation) reserve room for all
        of them, so interleaved work-stolen batches cannot thrash the
        cache into evict-and-rebuild cycles.  Only entries actually built
        occupy memory; capacity is just the eviction bound.
        """
        with self._lock:
            self.capacity = max(self.capacity, capacity)

    def get_or_build(self, key: str, build: Callable[[], V]) -> V:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                return self._entries[key]  # type: ignore[return-value]
        value = build()
        with self._lock:
            value = self._entries.setdefault(key, value)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
        return value


def stable_key(payload: object) -> str:
    """Content-address a plain-data payload (short sha256 hex digest).

    The identity primitive of the checkpoint/resume layer: the same
    payload yields the same key in any process on any machine, so a
    resumed campaign recognises work journalled by a previous —
    possibly killed — orchestrator.  ``payload`` must be JSON-encodable
    plain data (the caller canonicalises dataclasses first).
    """
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


_BASE_CACHE = _ProcessLocalCache(capacity=4)

#: Realised-corpus cache keyed by full spec repr: scenarios whose config
#: overrides prevent base sharing (``shares_base == False``) land here, so
#: repeated cells of such a scenario in one worker still build once.
_CORPUS_CACHE = _ProcessLocalCache(capacity=4)

#: Process-local count of realised-corpus builds (cache misses of
#: :meth:`CorpusSpec.build`) — a test/diagnostic probe, like
#: :func:`repro.corpus.synthetic.base_generation_count`.
_CORPUS_BUILDS = 0


def corpus_build_count() -> int:
    """How many realised corpora this process built (cache misses)."""
    return _CORPUS_BUILDS


def reserve_base_slots(count: int) -> None:
    """Grow the worker's base- and corpus-cache capacity to ``count``.

    Dispatchers call this (via the ``base_slots`` carried on batch and cell
    specs) with the number of distinct base keys in flight, so a worker
    shard touching many ``(domain, sizes, seed)`` bases cannot thrash either
    cache into evict-and-rebuild cycles.
    """
    _BASE_CACHE.reserve(count)
    _CORPUS_CACHE.reserve(count)


@dataclass(frozen=True)
class CorpusSpec:
    """How to rebuild one evaluation corpus from configuration alone.

    ``scenario`` is an optional :class:`~repro.scenarios.ScenarioSpec`
    (itself a frozen, picklable dataclass); ``None`` means the clean
    corpus.  :meth:`build` realises scenarios against a process-locally
    cached shared base, so all cells of one domain landing in the same
    worker pay base generation once.

    ``store_handle`` optionally points at a published corpus store
    (:mod:`repro.store`) holding this spec's *clean* realisation: workers
    then attach zero-copy instead of regenerating, falling back to the
    rebuild path automatically when the segment is gone.  The handle never
    changes what corpus the spec denotes — only how fast a worker gets it.
    """

    domain: str
    num_entities: int
    pages_per_entity: int
    seed: int
    scenario: Optional[ScenarioSpec] = None
    store_handle: Optional[StoreHandle] = None

    def base_key(self) -> str:
        """Cache key of the shared base this spec realises against."""
        return repr((self.domain, self.num_entities, self.pages_per_entity,
                     self.seed))

    def build_base(self) -> BaseCorpus:
        """The (process-locally cached) shared base corpus of this spec.

        With a live store attached, the base is served straight from the
        store's lazily page-backed snapshot — no generation at all.
        """
        def generate() -> BaseCorpus:
            if self.store_handle is not None:
                try:
                    return attach(self.store_handle).base_corpus()
                except StoreError:
                    pass  # released or unreachable: fall back to generation
            return build_base(domain=self.domain,
                              num_entities=self.num_entities,
                              pages_per_entity=self.pages_per_entity,
                              seed=self.seed)

        return _BASE_CACHE.get_or_build(self.base_key(), generate)

    def build(self) -> Corpus:
        """Rebuild the corpus this spec describes (deterministic).

        Realised corpora are cached per worker by full spec repr, so every
        spec — including non-base-sharing scenarios — builds at most once
        per process.  The build is timed as ``corpus-attach`` (store served)
        or ``corpus-rebuild`` (generated) when profiling is on; cache hits
        are not timed.
        """
        return _CORPUS_CACHE.get_or_build(repr(self), self._build_fresh)

    def _build_fresh(self) -> Corpus:
        global _CORPUS_BUILDS
        _CORPUS_BUILDS += 1
        if self.scenario is None and self.store_handle is not None:
            try:
                attachment = attach(self.store_handle)
            except StoreError:
                attachment = None
            if attachment is not None:
                with perf.phase("corpus-attach", domain=self.domain):
                    return attachment.corpus()
        with perf.phase("corpus-rebuild", domain=self.domain):
            return self._rebuild()

    def _rebuild(self) -> Corpus:
        """Today's generation path (also the no-store / store-gone fallback)."""
        if self.scenario is None:
            return realise_base(self.build_base())
        if not self.scenario.shares_base:
            # Config overrides change the base generation itself; the
            # shared base would be the wrong shape.
            return self.scenario.corpus_for(
                self.domain, num_entities=self.num_entities,
                pages_per_entity=self.pages_per_entity, seed=self.seed)
        return self.scenario.corpus_from_base(self.build_base())


@dataclass(frozen=True)
class HarvestJobSpec:
    """One harvesting run as pure configuration: (method, target, budget, seed).

    The seed is derived by the orchestrator from
    ``(base_seed, split, method, entity, aspect)`` — never from execution
    order — so a worker executing this spec reproduces the serial run
    bit-for-bit.
    """

    method: str
    entity_id: str
    aspect: str
    num_queries: int
    seed: int


@dataclass(frozen=True)
class HarvestTaskContext:
    """The shared world one batch of :class:`HarvestJobSpec` runs against.

    Everything a worker needs to rebuild the prepared split — corpus,
    learner configuration, split derivation — with nothing runtime-bound
    inside.  ``config`` is carried by value; :class:`L2QConfig` is a plain
    dataclass of scalars.  ``corpus_digest`` is the orchestrator's live
    corpus digest: the worker compares it against its rebuilt corpus, so a
    spec that silently describes a *different* corpus (stale seed, wrong
    sizes) fails loudly instead of folding metrics against mismatched
    ground truth.
    """

    corpus: CorpusSpec
    config: L2QConfig
    base_seed: int
    split_index: int
    domain_fraction: float = 1.0
    corpus_digest: Optional[str] = None

    def cache_key(self) -> str:
        """Process-local cache key for the rebuilt runtime."""
        return repr(self)


@dataclass(frozen=True)
class HarvestBatchSpec:
    """One worker-sized batch of harvest jobs sharing one split context.

    The payload unit of *split-first* sharding: every spec in the batch
    belongs to the split its ``context`` describes, so the worker executing
    the batch rebuilds (or cache-hits) exactly one prepared split and runs
    the jobs as an in-order loop.  When a split is cut into several batches
    (the ``workers > num_splits`` fallback), each batch still carries the
    same context and the worker-side runtime cache dedupes preparation
    within a worker.

    ``runtime_slots`` is the number of distinct splits in flight across the
    whole dispatch: workers grow their runtime cache to at least this many
    slots, so the "each worker prepares each split at most once" guarantee
    is structural — a worker interleaving batches of many splits can never
    evict a runtime it will need again.
    """

    context: HarvestTaskContext
    specs: Tuple[HarvestJobSpec, ...]
    runtime_slots: int = 4
    #: Distinct base-corpus keys in flight across the dispatch — workers
    #: grow their base/corpus caches to at least this (see
    #: :func:`reserve_base_slots`).
    base_slots: int = 4

    def cell_key(self) -> str:
        """Stable content-addressed identity of this batch.

        Only the denotation counts: cache-tuning fields
        (``runtime_slots``, ``base_slots``) and the context corpus's
        ``store_handle`` (transport, not meaning) are excluded, so a
        resumed dispatch recognises the batch regardless of worker
        count or store availability.
        """
        context = replace(self.context,
                          corpus=replace(self.context.corpus,
                                         store_handle=None))
        return stable_key({
            "kind": "harvest-batch",
            "context": repr(context),
            "specs": [repr(spec) for spec in self.specs],
        })


@dataclass
class HarvestBatchOutcome:
    """What one executed batch ships home: results plus a preparation probe.

    ``results`` are the batch's :class:`~repro.core.harvester.HarvestResult`
    objects in spec order.  ``worker_pid`` and ``runtime_builds`` (how many
    prepared-split runtimes this batch had to *build* rather than reuse —
    0 or 1) exist so orchestrators and tests can assert the split-first
    guarantee: each worker prepares each split at most once.

    ``perf_phases`` carries the worker-side profiling view when the worker
    process had profiling on: per-phase ``{count, total_seconds}``
    aggregates of exactly the samples this batch produced (see
    :func:`repro.perf.handoff`; empty when worker profiling is off).  The
    orchestrator folds them into its own recorder (:func:`repro.perf.fold`),
    so sharded runs lose no phase accounting to the process boundary.
    """

    results: list
    worker_pid: int
    split_index: int
    runtime_builds: int
    perf_phases: dict = field(default_factory=dict)
    #: True when the batch's corpus came from an attached store segment —
    #: with it, ``index_builds`` must be 0 (the attach == rebuild guarantee
    #: is asserted by tests, not assumed).
    attached: bool = False
    #: Full corpus indexing passes the batch's engine performed (0 when a
    #: published store supplied the index, else at most 1 per runtime).
    index_builds: int = 0
    #: Aspect-classifier suites this batch had to *train* (0 when the
    #: published store carried the split's trained suite and the worker
    #: attached it, else at most 1 per runtime build).
    classifier_trainings: int = 0
    #: True when the batch's split runtime attached its classifier suite
    #: from the store instead of training.
    classifier_attached: bool = False


@dataclass(frozen=True)
class SweepCellSpec:
    """One (domain, scenario) cell of a scenario sweep, as configuration.

    ``scenario=None`` denotes the clean baseline cell.  The result travels
    back as a :class:`SweepCellResult`.
    """

    corpus: CorpusSpec
    methods: Tuple[str, ...]
    num_queries: int
    num_splits: int
    max_test_entities: Optional[int]
    max_aspects: Optional[int]
    config: Optional[L2QConfig]
    base_seed: int
    #: Distinct base-corpus keys across the sweep's dispatched cells (see
    #: :func:`reserve_base_slots`).
    base_slots: int = 4

    @property
    def domain(self) -> str:
        """Domain of this cell."""
        return self.corpus.domain

    @property
    def scenario_name(self) -> Optional[str]:
        """Scenario name, or ``None`` for the clean baseline cell."""
        return self.corpus.scenario.name if self.corpus.scenario else None

    def cell_key(self) -> str:
        """Stable content-addressed identity of this cell.

        Two specs share a key exactly when they denote the same evaluated
        cell: corpus (domain, sizes, seed, scenario pipeline), methods,
        budgets and learner config.  Transport and cache-tuning fields
        (``store_handle``, ``base_slots``) are excluded, so the key
        survives resume under a different store mode or worker count —
        the property journal replay rests on.
        """
        corpus = self.corpus
        return stable_key({
            "kind": "sweep-cell",
            "corpus": {
                "domain": corpus.domain,
                "num_entities": corpus.num_entities,
                "pages_per_entity": corpus.pages_per_entity,
                "seed": corpus.seed,
                # Perturbations are frozen dataclasses of primitives, so
                # their repr is deterministic across processes.
                "scenario": repr(corpus.scenario) if corpus.scenario else None,
            },
            "methods": list(self.methods),
            "num_queries": self.num_queries,
            "num_splits": self.num_splits,
            "max_test_entities": self.max_test_entities,
            "max_aspects": self.max_aspects,
            "config": asdict(self.config) if self.config is not None else None,
            "base_seed": self.base_seed,
        })


@dataclass
class SweepCellResult:
    """Evaluated metrics of one sweep cell (what crosses back by pickle)."""

    domain: str
    scenario: Optional[str]
    corpus_digest: str
    metrics: dict = field(default_factory=dict)
    absolute_metrics: dict = field(default_factory=dict)
    #: Per-method mean duplicate-fetch waste (repro.dedup.waste).
    duplicate_waste: dict = field(default_factory=dict)
    #: Merged per-run fetch accounting of the cell's harvest runs — this is
    #: how worker-side engine counters survive the process boundary.
    fetch: dict = field(default_factory=dict)
    #: Per-phase ``{count, total_seconds}`` the cell recorded while
    #: profiling was on (see :func:`repro.perf.handoff`), shipped home so a
    #: distributed sweep's profile covers its workers.
    #: Timing only: left out of the JSON rendering and of equality.
    perf_phases: dict = field(default_factory=dict, compare=False, repr=False)

    def to_json_dict(self) -> dict:
        """Plain-JSON rendering (the campaign layer's on-disk artifact).

        Every field is already JSON-plain (strings, floats, nested dicts),
        and JSON float round-trips are exact, so
        ``from_json_dict(to_json_dict(r))`` reproduces ``r`` bit-for-bit —
        the property resumed-run byte-identity rests on.
        """
        return {
            "domain": self.domain,
            "scenario": self.scenario,
            "corpus_digest": self.corpus_digest,
            "metrics": self.metrics,
            "absolute_metrics": self.absolute_metrics,
            "duplicate_waste": self.duplicate_waste,
            "fetch": self.fetch,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SweepCellResult":
        """Rebuild a result from its :meth:`to_json_dict` rendering."""
        return cls(domain=data["domain"],
                   scenario=data["scenario"],
                   corpus_digest=data["corpus_digest"],
                   metrics=data["metrics"],
                   absolute_metrics=data["absolute_metrics"],
                   duplicate_waste=data["duplicate_waste"],
                   fetch=data["fetch"])

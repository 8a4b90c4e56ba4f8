"""Self-contained, picklable cell specifications and their results.

The cell is the one unit of fan-out: figures, scenario sweeps and
campaigns all dispatch :class:`SweepCellSpec` payloads to
:func:`~repro.eval.scenario_sweep.execute_sweep_cell`, one task per cell,
on any :class:`~repro.exec.backends.ExecutionBackend`.  A process worker
cannot receive live object graphs cheaply: the search engine carries a
lock, classifier suites and indexes are large, and shared caches would
stop being shared.  A cell therefore travels as a *spec* — a plain
dataclass saying how to rebuild the world (config in) — and comes back as
a plain :class:`SweepCellResult` holding one :class:`SessionRow` per
scored session (result out).  Because every component is deterministic
given its seeds, a worker rebuilding a corpus, split, classifier suite or
engine from a spec produces bit-for-bit the objects the caller would have
built locally.

Workers keep small process-local caches (:meth:`CorpusSpec.build_base`
and :meth:`CorpusSpec.build`, backed by module-level LRUs) so the
expensive rebuilds amortise across the cells a worker runs — and, because
a :class:`~repro.exec.backends.ProcessBackend` keeps its worker pool
across calls, across successive dispatches too.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass, field
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
        (e.g. the distinct base corpora of a dispatch) reserve room for all
        of them, so interleaved work-stolen cells cannot thrash the
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

    Cells call this with their ``base_slots``, the number of distinct
    base keys in flight, so a worker touching many ``(domain, sizes,
    seed)`` bases cannot thrash either cache into evict-and-rebuild
    cycles.
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
class SweepCellSpec:
    """One cell of a figure, sweep or campaign, as configuration.

    A cell evaluates ``methods`` on every split of one corpus: the clean
    corpus, or the one ``corpus.scenario`` perturbs (``scenario=None`` is
    the clean baseline cell).  Every harvest runs to the largest of
    :attr:`query_budgets`; the result, a :class:`SweepCellResult`, holds one
    :class:`SessionRow` per scored session and budget, plus metric blocks
    at ``num_queries``.  ``domain_fraction`` subsamples the entities the
    domain phase sees (Fig. 11).
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
    #: Further budgets the rows are scored at (a figure's budget axis).
    budgets: Tuple[int, ...] = ()
    domain_fraction: float = 1.0

    @property
    def domain(self) -> str:
        """Domain of this cell."""
        return self.corpus.domain

    @property
    def scenario_name(self) -> Optional[str]:
        """Scenario name, or ``None`` for the clean baseline cell."""
        return self.corpus.scenario.name if self.corpus.scenario else None

    @property
    def query_budgets(self) -> Tuple[int, ...]:
        """Every budget the rows are scored at, sorted: ``num_queries``
        and ``budgets``."""
        return tuple(sorted({self.num_queries, *self.budgets}))

    def cell_key(self) -> str:
        """Stable content-addressed identity of this cell.

        Two specs share a key exactly when they denote the same evaluated
        cell: corpus (domain, sizes, seed, scenario pipeline), methods,
        budgets, domain fraction and learner config.  Transport and
        cache-tuning fields (``store_handle``, ``base_slots``) are
        excluded, so the key survives resume under a different store mode
        or worker count — the property journal replay rests on.  The
        budget list and the domain fraction enter the key only when they
        differ from their defaults, which sweep and campaign cells keep:
        journaled campaign directories resume by those keys.
        """
        corpus = self.corpus
        payload = {
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
        }
        if self.query_budgets != (self.num_queries,):
            payload["budgets"] = list(self.query_budgets)
        if self.domain_fraction != 1.0:
            payload["domain_fraction"] = self.domain_fraction
        return stable_key(payload)


@dataclass(frozen=True)
class SessionRow:
    """One harvest session of a cell, scored at one query budget.

    The absolute precision, recall and F-score of the pages the session
    gathered within ``budget`` queries; the same normalised by the ideal
    selector's session of the (split, entity, aspect); and the session's
    duplicate waste at that budget (:mod:`repro.dedup.waste`).  ``split``
    is the split's index in the cell.
    """

    split: int
    method: str
    entity_id: str
    aspect: str
    budget: int
    precision: float
    recall: float
    f_score: float
    normalized_precision: float
    normalized_recall: float
    normalized_f_score: float
    duplicate_waste: float


@dataclass
class SweepCellResult:
    """Evaluated rows and metrics of one cell (what crosses back by pickle)."""

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
    #: One :class:`SessionRow` per (split, aspect, entity, method, budget),
    #: in evaluation order; the metric blocks above are their fold at the
    #: cell's ``num_queries``.  Empty in artifacts written before cells
    #: returned rows.
    rows: list = field(default_factory=list)
    #: Per-phase ``{count, total_seconds}`` the cell recorded while
    #: profiling was on (see :func:`repro.perf.handoff`), shipped home so a
    #: distributed sweep's profile covers its workers.
    #: Timing only: left out of the JSON rendering and of equality.
    perf_phases: dict = field(default_factory=dict, compare=False, repr=False)

    def to_json_dict(self) -> dict:
        """Plain-JSON rendering (the campaign layer's on-disk artifact).

        Every field renders as JSON-plain data (strings, floats, nested
        dicts, one dict per row), and JSON float round-trips are exact, so
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
            "rows": [asdict(row) for row in self.rows],
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
                   fetch=data["fetch"],
                   rows=[SessionRow(**row) for row in data.get("rows", [])])

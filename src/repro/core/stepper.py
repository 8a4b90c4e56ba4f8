"""Step-driven harvesting: the loop of Fig. 1 split at the fetch boundary.

:class:`~repro.core.harvester.Harvester` historically ran the whole
harvesting loop inline — select a query, call ``engine.search`` *in
process*, fold the results in, repeat.  That shape hard-codes the search
engine as a free, instant oracle and makes it impossible to put anything
between selection and retrieval: a rate limiter, a latency simulator, an
async scheduler, a real HTTP fetcher.

:class:`HarvestStepper` is the same loop turned inside out, as a resumable
state machine that never fetches anything itself:

* :meth:`next_action` returns what the session needs next —
  :class:`SeedFetch` (iteration 0, the entity's seed query),
  :class:`QueryFetch` (one selected query; selection runs *inside* this
  call, timed by a ``perf_counter`` pair around exactly the
  ``selector.select`` call), or :class:`Done` (budget exhausted, or the
  selector returned ``None``).  The call is idempotent: until the pending
  fetch is fed, repeated calls return the same action.
* :meth:`feed` ingests the responses for the pending action — ranked
  results plus the materialised pages — advances selection state
  (``add_pages`` / ``record_query`` / ``selector.observe``), appends
  the :class:`~repro.core.harvester.IterationRecord` and, with profiling
  on, records the iteration's selection time as a ``selection`` sample
  (:func:`repro.perf.record`).  Every driver — synchronous, serving or
  hand-rolled — therefore reports the same selections.

Who performs the fetch between those two calls is the caller's business: a
synchronous driver with an in-process client reproduces the historical
behaviour bit-for-bit (same engine calls, same order, same RNG stream),
while the async serving runner awaits at the fetch boundary so one
session's I/O overlaps another session's CPU-bound selection.

The stepper owns the run's :class:`~repro.search.engine.RunFetchAccounting`
(exposed as :attr:`accounting`); fetch executors must charge every engine
request — including failed attempts that will be retried — against it, so
the fetch budget stays honest regardless of the transport.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

from repro import perf
from repro.core.queries import Query
from repro.core.selection import QuerySelector
from repro.core.session import HarvestSession

#: Request-key component identifying the seed fetch (iteration 0).
SEED_FETCH_LABEL = "seed"


@dataclass(frozen=True)
class SeedFetch:
    """Iteration 0: fire the entity's seed query ``q(0)``."""

    entity_id: str
    #: Stable identity of this request, ``(entity, aspect, selector,
    #: "seed")`` — simulated clients derive per-request randomness from it
    #: so latency/failure draws never depend on scheduling interleavings.
    request_key: Tuple[str, ...]


@dataclass(frozen=True)
class QueryFetch:
    """One selected query to fire (iteration ``index + 1`` of the loop)."""

    entity_id: str
    query: Query
    index: int
    request_key: Tuple[str, ...]


@dataclass(frozen=True)
class Done:
    """The session is complete; no further fetches will be requested."""


#: The single terminal action instance.
DONE = Done()

#: What :meth:`HarvestStepper.next_action` may return.
Action = Union[SeedFetch, QueryFetch, Done]


class StepperProtocolError(RuntimeError):
    """``feed`` called with no pending fetch, or after :class:`Done`."""


class HarvestStepper:
    """Resumable state machine for one harvesting run.

    Built by :meth:`Harvester.stepper <repro.core.harvester.Harvester.stepper>`
    (which wires up the session, result skeleton and accounting); drive it
    with::

        action = stepper.next_action()
        while not isinstance(action, Done):
            outcome = client.fetch(action, accounting=stepper.accounting)
            stepper.feed(outcome.results, outcome.pages,
                         client_seconds=outcome.latency_seconds)
            action = stepper.next_action()
        result = stepper.result

    State advances only in :meth:`feed`; :meth:`next_action` is pure apart
    from running (and timing) the selector when a new query is needed.
    """

    def __init__(self, session: HarvestSession, selector: QuerySelector,
                 result, accounting, budget: int,
                 simulated_fetch_seconds_per_page: float) -> None:
        self.session = session
        self.selector = selector
        self.result = result
        self.accounting = accounting
        self.budget = budget
        self.per_page_cost = simulated_fetch_seconds_per_page
        self._entity_id = session.entity.entity_id
        self._key_base = (self._entity_id, session.aspect, selector.name)
        self._index = 0
        self._done = False
        self._pending: Optional[Action] = SeedFetch(
            entity_id=self._entity_id,
            request_key=self._key_base + (SEED_FETCH_LABEL,))
        self._pending_selection_seconds = 0.0

    @property
    def done(self) -> bool:
        """Whether the run is complete (no fetch pending or forthcoming)."""
        return self._done

    # -- Protocol --------------------------------------------------------------
    def next_action(self) -> Action:
        """The next fetch the session needs, or :data:`DONE`.

        Selecting the next query happens here (and is timed as the
        iteration's ``selection_seconds``); the selector runs exactly once
        per iteration — repeated calls return the cached pending action.
        """
        if self._pending is not None:
            return self._pending
        if self._done:
            return DONE
        start = time.perf_counter()
        query = self.selector.select(self.session)
        elapsed = time.perf_counter() - start
        if query is None:
            self._done = True
            return DONE
        self._pending_selection_seconds = elapsed
        self._pending = QueryFetch(
            entity_id=self._entity_id,
            query=query,
            index=self._index,
            request_key=self._key_base + (str(self._index),))
        return self._pending

    def feed(self, results: Sequence, pages: Sequence,
             client_seconds: float = 0.0) -> None:
        """Ingest the responses for the pending fetch and advance.

        ``results`` are the engine's ranked
        :class:`~repro.search.engine.SearchResult` payloads, ``pages`` the
        materialised pages (empty on a fully failed fetch — the iteration
        is still recorded and the budget still consumed).
        ``client_seconds`` is the *measured* client-side latency of the
        fetch (retries and backoff included); a query fetch's record keeps
        it apart from the paper's simulated per-page cost, and the seed
        fetch, which has no record, keeps neither.
        """
        action = self._pending
        if action is None or isinstance(action, Done):
            raise StepperProtocolError(
                "feed() called with no pending fetch (call next_action() "
                "first, and stop once it returns Done)")
        self._pending = None
        if isinstance(action, SeedFetch):
            self._feed_seed(results, pages)
        else:
            self._feed_query(action, results, pages, client_seconds)

    # -- Ingestion ------------------------------------------------------------
    def _feed_seed(self, results, pages) -> None:
        self.session.add_pages(pages)
        self.result.seed_page_ids = [r.page_id for r in results]
        self.selector.prepare(self.session)
        if self.budget <= 0:
            self._done = True

    def _feed_query(self, action: QueryFetch, results, pages,
                    client_seconds: float) -> None:
        # Local import: harvester imports this module at class-definition
        # time, so the record type resolves lazily.
        from repro.core.harvester import IterationRecord

        new_pages = self.session.add_pages(pages)
        self.session.record_query(action.query)
        simulated = len(results) * self.per_page_cost
        perf.record("selection", self._pending_selection_seconds,
                    selector=self.selector.name)
        self.result.iterations.append(IterationRecord(
            index=action.index,
            query=action.query,
            result_page_ids=tuple(r.page_id for r in results),
            new_page_ids=tuple(p.page_id for p in new_pages),
            selection_seconds=self._pending_selection_seconds,
            simulated_fetch_seconds=simulated,
            client_seconds=client_seconds,
        ))
        self.selector.observe(self.session, action.query, new_pages)
        self._index += 1
        if self._index >= self.budget:
            self._done = True

"""The step-driven harvest loop: protocol, bit-identity, budget honesty."""

import pytest

from repro.core.harvester import drive_stepper
from repro.core.stepper import (
    DONE,
    Done,
    QueryFetch,
    SeedFetch,
    StepperProtocolError,
)
from repro.search.clients import InstantClient

from tests.helpers import harvest_signature

ASPECT = "RESEARCH"


def _stepper(runner, prepared, method="RND", num_queries=2, entity=None):
    entity_id = entity or list(prepared.split.test_entities)[0]
    job = runner.build_job(prepared, method, entity_id, ASPECT, num_queries)
    return runner.harvester_for(prepared).stepper_for_job(job)


class TestStepperProtocol:
    def test_first_action_is_the_seed_fetch(self, researcher_runner,
                                            researcher_prepared):
        stepper = _stepper(researcher_runner, researcher_prepared)
        action = stepper.next_action()
        assert isinstance(action, SeedFetch)
        assert action.entity_id == stepper.result.entity_id
        assert action.request_key == (action.entity_id, ASPECT, "RND", "seed")

    def test_next_action_is_idempotent_until_fed(self, researcher_runner,
                                                 researcher_prepared):
        stepper = _stepper(researcher_runner, researcher_prepared)
        first = stepper.next_action()
        assert stepper.next_action() is first

    def test_query_actions_carry_index_and_request_key(self, researcher_runner,
                                                       researcher_prepared):
        stepper = _stepper(researcher_runner, researcher_prepared)
        client = InstantClient(researcher_prepared.engine)
        seed = stepper.next_action()
        outcome = client.fetch(seed, accounting=stepper.accounting)
        stepper.feed(outcome.results, outcome.pages)
        action = stepper.next_action()
        assert isinstance(action, QueryFetch)
        assert action.index == 0
        assert action.request_key == (action.entity_id, ASPECT, "RND", "0")

    def test_feed_after_done_raises(self, researcher_runner,
                                    researcher_prepared):
        stepper = _stepper(researcher_runner, researcher_prepared,
                           num_queries=0)
        stepper.feed([], [])  # the seed fetch is pre-armed at construction
        assert stepper.next_action() is DONE
        with pytest.raises(StepperProtocolError):
            stepper.feed([], [])

    def test_feed_twice_for_one_action_raises(self, researcher_runner,
                                              researcher_prepared):
        stepper = _stepper(researcher_runner, researcher_prepared)
        stepper.next_action()
        stepper.feed([], [])
        with pytest.raises(StepperProtocolError):
            stepper.feed([], [])

    def test_done_after_budget_exhausted(self, researcher_runner,
                                         researcher_prepared):
        stepper = _stepper(researcher_runner, researcher_prepared,
                           num_queries=1)
        client = InstantClient(researcher_prepared.engine)
        for _ in range(2):  # seed + one query
            action = stepper.next_action()
            outcome = client.fetch(action, accounting=stepper.accounting)
            stepper.feed(outcome.results, outcome.pages)
        assert stepper.done
        assert stepper.next_action() is DONE
        assert isinstance(stepper.next_action(), Done)

    def test_zero_budget_finishes_after_the_seed(self, researcher_runner,
                                                 researcher_prepared):
        stepper = _stepper(researcher_runner, researcher_prepared,
                           num_queries=0)
        client = InstantClient(researcher_prepared.engine)
        action = stepper.next_action()
        outcome = client.fetch(action, accounting=stepper.accounting)
        stepper.feed(outcome.results, outcome.pages)
        assert stepper.next_action() is DONE
        assert stepper.result.iterations == []


class TestBitIdentity:
    def test_driven_stepper_matches_harvest(self, researcher_runner,
                                            researcher_prepared):
        harvester = researcher_runner.harvester_for(researcher_prepared)
        entity_id = list(researcher_prepared.split.test_entities)[0]
        jobs = [researcher_runner.build_job(researcher_prepared, method,
                                            entity_id, ASPECT, 2)
                for method in ("RND", "MQ", "L2QBAL")]
        via_harvest = [harvester.harvest_job(job) for job in jobs]
        rebuilt = [researcher_runner.build_job(researcher_prepared, method,
                                               entity_id, ASPECT, 2)
                   for method in ("RND", "MQ", "L2QBAL")]
        via_stepper = [
            drive_stepper(harvester.stepper_for_job(job),
                          InstantClient(researcher_prepared.engine))
            for job in rebuilt]
        assert [harvest_signature(r) for r in via_stepper] == \
            [harvest_signature(r) for r in via_harvest]

    def test_instant_client_records_no_client_seconds(self, researcher_runner,
                                                       researcher_prepared):
        stepper = _stepper(researcher_runner, researcher_prepared)
        result = drive_stepper(stepper,
                               InstantClient(researcher_prepared.engine))
        assert result.iterations
        for record in result.iterations:
            assert record.client_seconds == 0.0


class TestClientSecondsAxis:
    def test_client_seconds_recorded_apart_from_simulated(
            self, researcher_runner, researcher_prepared):
        stepper = _stepper(researcher_runner, researcher_prepared,
                           num_queries=1)
        client = InstantClient(researcher_prepared.engine)
        action = stepper.next_action()
        outcome = client.fetch(action, accounting=stepper.accounting)
        stepper.feed(outcome.results, outcome.pages, client_seconds=0.5)
        action = stepper.next_action()
        outcome = client.fetch(action, accounting=stepper.accounting)
        stepper.feed(outcome.results, outcome.pages, client_seconds=0.25)
        result = stepper.result
        record = result.iterations[0]
        assert record.client_seconds == 0.25
        # The paper's simulated axis never absorbs measured latency.
        assert record.simulated_fetch_seconds == \
            len(record.result_page_ids) * \
            researcher_prepared.engine.simulated_fetch_seconds_per_page

    def test_failed_fetch_still_consumes_budget(self, researcher_runner,
                                                researcher_prepared):
        stepper = _stepper(researcher_runner, researcher_prepared,
                           num_queries=1)
        client = InstantClient(researcher_prepared.engine)
        action = stepper.next_action()
        outcome = client.fetch(action, accounting=stepper.accounting)
        stepper.feed(outcome.results, outcome.pages)
        stepper.next_action()
        stepper.feed([], [])  # exhausted fetch: nothing came back
        assert stepper.done
        record = stepper.result.iterations[0]
        assert record.result_page_ids == ()
        assert record.simulated_fetch_seconds == 0.0

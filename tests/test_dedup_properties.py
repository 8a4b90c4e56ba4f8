"""Property tests for the dedup subsystem (ISSUE 4 acceptance).

1. The MinHash index flags pages injected by
   :class:`~repro.scenarios.perturbations.NearDuplicateInjection` at a
   true-positive rate above threshold, with zero false positives on a
   clean corpus (clean pages flagged against earlier clean pages).
2. ``dedup_penalty = 0.0`` reproduces the historical harvest behaviour
   bit-for-bit on every execution backend — the zero-penalty path must not
   fingerprint, index or discount anything.
"""

import pytest

from repro.core.config import L2QConfig
from repro.corpus.synthetic import build_corpus
from repro.dedup import MinHasher, NearDuplicateIndex, shingle_hashes
from repro.eval.runner import ExperimentRunner
from repro.scenarios import make_scenario

from tests.helpers import harvest_signature

#: Fraction of injected near-copies the index must flag (measured ~0.78 on
#: researcher, ~0.81 on car at the default knobs; pinned with margin).
MIN_TRUE_POSITIVE_RATE = 0.7


def _signatures(corpus, config):
    hasher = MinHasher(num_hashes=config.dedup_num_hashes,
                       seed=config.dedup_hash_seed)
    return {
        page.page_id: hasher.signature(
            shingle_hashes(page.tokens, config.dedup_shingle_size))
        for page in corpus.iter_pages()
    }


def _index(config):
    return NearDuplicateIndex(
        num_bands=config.dedup_bands,
        similarity_threshold=config.dedup_similarity_threshold)


class TestInjectedDuplicateDetection:
    @pytest.mark.parametrize("domain", ["researcher", "car"])
    def test_true_positive_rate_above_threshold(self, domain):
        config = L2QConfig()
        corpus = make_scenario("near-duplicates").corpus_for(
            domain, num_entities=20, pages_per_entity=10, seed=7)
        signatures = _signatures(corpus, config)
        index = _index(config)
        injected = [pid for pid in sorted(signatures) if "_dup" in pid]
        assert injected, "scenario injected no duplicates"
        for page_id in sorted(signatures):
            if "_dup" not in page_id:
                index.add(page_id, signatures[page_id])
        flagged = sum(1 for page_id in injected
                      if index.is_near_duplicate(signatures[page_id]))
        assert flagged / len(injected) >= MIN_TRUE_POSITIVE_RATE

    def test_zero_false_positives_on_clean_corpus(self):
        config = L2QConfig()
        corpus = build_corpus("researcher", num_entities=20,
                              pages_per_entity=10, seed=7)
        signatures = _signatures(corpus, config)
        index = _index(config)
        false_positives = []
        for page_id in sorted(signatures):
            if index.is_near_duplicate(signatures[page_id]):
                false_positives.append(page_id)
            index.add(page_id, signatures[page_id])
        assert false_positives == []


class TestZeroPenaltyBackendEquivalence:
    @pytest.fixture(scope="class")
    def dup_corpus(self):
        return make_scenario("near-duplicates").corpus_for(
            "researcher", num_entities=12, pages_per_entity=8, seed=11)

    def _signatures_on(self, corpus, backend, workers):
        config = L2QConfig(dedup_penalty=0.0)
        runner = ExperimentRunner(corpus, config=config, base_seed=5)
        prepared = runner.prepare(runner.default_split(0))
        entities = list(prepared.split.test_entities)[:2]
        jobs = [runner.build_job(prepared, method, entity_id, "RESEARCH", 2)
                for method in ("L2QBAL", "L2QP", "L2QR")
                for entity_id in entities]
        results = runner.harvester_for(prepared).harvest_many(
            jobs, workers=workers, backend=backend)
        return [harvest_signature(r) for r in results]

    def test_zero_penalty_identical_on_all_backends(self, dup_corpus):
        serial = self._signatures_on(dup_corpus, "serial", 1)
        assert serial  # the batch must not be empty
        assert self._signatures_on(dup_corpus, "process", 4) == serial

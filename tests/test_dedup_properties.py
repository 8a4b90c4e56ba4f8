"""Property tests for the dedup subsystem (ISSUE 4 acceptance).

1. The band rule flags pages injected by
   :class:`~repro.scenarios.perturbations.NearDuplicateInjection` at a
   true-positive rate above threshold, with zero false positives on a
   clean corpus (clean pages flagged against earlier clean pages).
2. ``dedup_penalty = 0.0`` reproduces the historical harvest behaviour
   bit-for-bit on every execution backend — the zero-penalty path must not
   fingerprint, index or discount anything.
"""

import numpy as np
import pytest

from repro.core.config import L2QConfig
from repro.corpus.synthetic import build_corpus
from repro.dedup import band_similarity
from repro.dedup.signatures import PageSignatureCache
from repro.exec.specs import CorpusSpec
from repro.scenarios import make_scenario

from tests.helpers import harvest_signature, run_split_specs

#: Fraction of injected near-copies the index must flag (measured ~0.78 on
#: researcher, ~0.81 on car at the default knobs; pinned with margin).
MIN_TRUE_POSITIVE_RATE = 0.7


def _signatures(corpus, config, page_ids):
    """Signature rows of ``page_ids``, in that order."""
    return PageSignatureCache(config).signatures_of(
        [corpus.get_page(page_id) for page_id in page_ids])


def _near_duplicate(config, indexed, probes):
    """Per probe row: whether some indexed row meets the threshold."""
    similarity = band_similarity(indexed, probes, config.dedup_bands)
    return (similarity >= config.dedup_similarity_threshold).any(axis=0)


class TestInjectedDuplicateDetection:
    @pytest.mark.parametrize("domain", ["researcher", "car"])
    def test_true_positive_rate_above_threshold(self, domain):
        config = L2QConfig()
        corpus = make_scenario("near-duplicates").corpus_for(
            domain, num_entities=20, pages_per_entity=10, seed=7)
        page_ids = sorted(page.page_id for page in corpus.iter_pages())
        injected = [pid for pid in page_ids if "_dup" in pid]
        assert injected, "scenario injected no duplicates"
        clean = [pid for pid in page_ids if "_dup" not in pid]
        flagged = _near_duplicate(config, _signatures(corpus, config, clean),
                                  _signatures(corpus, config, injected))
        assert flagged.sum() / len(injected) >= MIN_TRUE_POSITIVE_RATE

    def test_zero_false_positives_on_clean_corpus(self):
        config = L2QConfig()
        corpus = build_corpus("researcher", num_entities=20,
                              pages_per_entity=10, seed=7)
        page_ids = sorted(page.page_id for page in corpus.iter_pages())
        signatures = _signatures(corpus, config, page_ids)
        similar = band_similarity(signatures, signatures, config.dedup_bands) \
            >= config.dedup_similarity_threshold
        # Row j flags page j against every page sorted before it.
        false_positives = [page_id for page_id, flagged in
                           zip(page_ids, np.tril(similar, -1).any(axis=1))
                           if flagged]
        assert false_positives == []


class TestZeroPenaltyBackendEquivalence:
    @pytest.fixture(scope="class")
    def dup_corpus(self):
        return make_scenario("near-duplicates").corpus_for(
            "researcher", num_entities=12, pages_per_entity=8, seed=11)

    def _signatures_on(self, corpus, corpus_spec=None):
        results = run_split_specs(corpus, ("L2QBAL", "L2QP", "L2QR"),
                                  corpus_spec=corpus_spec,
                                  config=L2QConfig(dedup_penalty=0.0))
        return [harvest_signature(r) for r in results]

    def test_zero_penalty_identical_on_all_backends(self, dup_corpus):
        serial = self._signatures_on(dup_corpus)
        assert serial  # the batch must not be empty
        spec = CorpusSpec(domain="researcher", num_entities=12,
                          pages_per_entity=8, seed=11,
                          scenario=make_scenario("near-duplicates"))
        assert self._signatures_on(dup_corpus, spec) == serial

"""Configuration of the L2Q learner.

Default values follow the paper's experimental settings (Sect. VI-A):
``alpha = 0.15``, ``lambda = 10``, maximum query length ``L = 3``, top-5
results per query, and the seed-recall parameter ``r0`` chosen by validation.
The default ``r0 = 0.3`` is fixed, not validated: ``benchmarks/
test_ablation_parameters.py`` sweeps r0 over 0.1, 0.3 and 0.7 on a small
researcher corpus and asserts only that the default's L2QBAL F-score is
within 0.15 of the best value swept.  :meth:`~repro.eval.runner.
ExperimentRunner.validate_seed_recall` selects r0 on a split's validation
entities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple


@dataclass
class L2QConfig:
    """All tunable parameters of the L2Q pipeline."""

    # -- Utility inference (Sect. III) ---------------------------------------
    alpha: float = 0.15

    # -- Query enumeration (Sect. VI-A) ---------------------------------------
    max_query_length: int = 3
    min_query_word_length: int = 2
    max_entity_candidates: int = 800

    # -- Domain phase (Sect. IV-B) ----------------------------------------------
    domain_min_query_pages: int = 2
    max_domain_queries: int = 4000
    domain_entity_support_fraction: float = 0.10
    min_domain_entity_support: int = 2

    # -- Entity phase (Sect. IV-C) -------------------------------------------------
    adaptation_lambda: float = 10.0
    use_retrieval_weights: bool = False

    # -- Context awareness (Sect. V) --------------------------------------------------
    seed_recall_r0: float = 0.3

    # -- Dedup-aware selection (page-level novelty) -----------------------------------
    #: Weight of the page-level redundancy discount applied to collective
    #: utilities: 0.0 disables dedup awareness entirely (the paper's exact
    #: behaviour, pinned by golden tests), 1.0 discounts a fully redundant
    #: query's collective utility to zero.
    dedup_penalty: float = 0.0
    #: w-shingle window used to fingerprint page content.
    dedup_shingle_size: int = 3
    #: MinHash signature length (must be divisible by ``dedup_bands``).
    dedup_num_hashes: int = 64
    #: LSH bands over the signature (rows per band = hashes / bands).
    dedup_bands: int = 32
    #: Estimated Jaccard at or above which a page counts as a near duplicate.
    dedup_similarity_threshold: float = 0.5
    #: Seed of the MinHash coefficients — corpus- and run-independent so
    #: signatures are comparable across sessions and backends.
    dedup_hash_seed: int = 0x5EED

    # -- Search engine (Sect. VI-A) ------------------------------------------------------
    top_k: int = 5
    ranker: str = "dirichlet"
    dirichlet_mu: float = 100.0

    # -- Harvesting loop ---------------------------------------------------------------------
    num_queries: int = 3
    random_seed: int = 1729

    def validate(self) -> None:
        """Raise ``ValueError`` on out-of-range parameters."""
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if self.max_query_length < 1:
            raise ValueError("max_query_length must be >= 1")
        if self.max_entity_candidates < 1:
            raise ValueError("max_entity_candidates must be >= 1")
        if self.max_domain_queries < 1:
            raise ValueError("max_domain_queries must be >= 1")
        if self.adaptation_lambda <= 0:
            raise ValueError("adaptation_lambda must be positive")
        if not 0.0 < self.seed_recall_r0 < 1.0:
            raise ValueError("seed_recall_r0 must be in (0, 1)")
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        if self.num_queries < 0:
            raise ValueError("num_queries must be non-negative")
        if not 0.0 <= self.domain_entity_support_fraction <= 1.0:
            raise ValueError("domain_entity_support_fraction must be in [0, 1]")
        if not 0.0 <= self.dedup_penalty <= 1.0:
            raise ValueError("dedup_penalty must be in [0, 1]")
        if self.dedup_shingle_size < 1:
            raise ValueError("dedup_shingle_size must be >= 1")
        if self.dedup_num_hashes < 1 or self.dedup_bands < 1:
            raise ValueError("dedup_num_hashes and dedup_bands must be >= 1")
        if self.dedup_num_hashes % self.dedup_bands:
            raise ValueError("dedup_num_hashes must be divisible by dedup_bands")
        if not 0.0 < self.dedup_similarity_threshold <= 1.0:
            raise ValueError("dedup_similarity_threshold must be in (0, 1]")

    def domain_support_threshold(self, num_domain_entities: int) -> int:
        """Minimum number of domain entities a query must co-occur with.

        The paper restricts domain-expanded candidates to queries occurring
        with at least 50 of its ~500 domain entities; we scale the threshold
        with the (usually smaller) domain size.
        """
        scaled = int(round(self.domain_entity_support_fraction * num_domain_entities))
        return max(self.min_domain_entity_support, scaled)

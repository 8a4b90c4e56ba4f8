"""Shared page-fingerprinting cache.

Selection-time novelty (:mod:`repro.dedup.novelty`) and evaluation-time
waste scoring (:mod:`repro.dedup.waste`) must fingerprint pages *the same
way* — a drift between the two would silently invalidate every
penalty-on/off comparison.  Both therefore share this single
config → hasher → signature mapping, with one cached signature per page.
Each user hands over a batch of pages (a run's fetches, a query's
postings), and the pages not yet cached are signed in one kernel call.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.core.config import L2QConfig
from repro.corpus.document import Page
from repro.dedup.minhash import MinHasher
from repro.dedup.shingles import shingle_hashes


class PageSignatureCache:
    """Computes and memoises MinHash signatures of corpus pages."""

    def __init__(self, config: L2QConfig) -> None:
        self.config = config
        self.hasher = MinHasher(num_hashes=config.dedup_num_hashes,
                                seed=config.dedup_hash_seed)
        self._signatures: Dict[str, np.ndarray] = {}

    def signatures_of(self, pages: Sequence[Page]) -> np.ndarray:
        """The signatures of ``pages`` as rows, keyed by ``page_id``."""
        missing = {page.page_id: page for page in pages
                   if page.page_id not in self._signatures}
        if missing:
            rows = self.hasher.signatures([
                shingle_hashes(page.tokens, self.config.dedup_shingle_size)
                for page in missing.values()])
            self._signatures.update(zip(missing, rows))
        if not pages:
            return np.empty((0, self.hasher.num_hashes), dtype=np.uint64)
        return np.stack([self._signatures[page.page_id] for page in pages])

    def signature_of(self, page: Page) -> np.ndarray:
        """The (cached) signature of one page."""
        return self.signatures_of((page,))[0]

"""Content-similarity subsystem: w-shingling, MinHash and the band rule.

The near-duplicate scenario (PR 2) exposed a failure mode the paper's
context-aware collective selection cannot see: it reasons about redundancy
at the *query* level (which relevant pages a query re-retrieves), but a
hostile corpus also contains near-copies — mirrors, syndicated articles —
that are distinct pages with almost identical content.  Re-gathering them
inflates fetched-page counts without adding recall.

This package provides the page-level machinery to detect that waste:

* :mod:`repro.dedup.shingles` — w-shingling of token sequences into stable
  64-bit shingle hashes;
* :mod:`repro.dedup.minhash` — seeded MinHash signatures, signed in
  batches by one exact ``uint64`` kernel, and :func:`band_similarity`, the
  one near-duplicate rule: the agreement fraction of two signatures when
  some LSH band agrees on all its rows, else 0;
* :mod:`repro.dedup.signatures` — the page → signature cache both users
  below share;
* :mod:`repro.dedup.novelty` — the per-query expected-novelty estimate the
  harvesting loop feeds into collective selection;
* :mod:`repro.dedup.waste` — the ``duplicate_waste`` evaluation metric.

Everything is deterministic: shingle hashes are content-derived (BLAKE2,
not Python's salted ``hash``) and the MinHash coefficients derive from a
seed, so signatures agree bit-for-bit across processes and backends.
"""

from repro.dedup.minhash import MinHasher, band_similarity
from repro.dedup.novelty import NoveltyEstimator
from repro.dedup.shingles import shingle_hashes
from repro.dedup.waste import DuplicateWasteScorer

__all__ = [
    "DuplicateWasteScorer",
    "MinHasher",
    "NoveltyEstimator",
    "band_similarity",
    "shingle_hashes",
]

"""w-shingling of token sequences into stable shingle hashes.

A page's *shingle set* is the set of contiguous ``w``-grams of its tokens
(Broder's classic near-duplicate representation).  Two pages are near
duplicates when the Jaccard similarity of their shingle sets is high; token
level noise of rate ``p`` destroys a ``w``-shingle with probability
``1 - (1 - p)^w``, so small ``w`` keeps similarity high under light noise
while still separating pages that merely share vocabulary.

Shingles are hashed to 64-bit integers with BLAKE2b rather than Python's
``hash`` (which is salted per process): signatures computed in a worker
process must agree bit-for-bit with the orchestrator's.  Each token is
UTF-8 encoded once per page; a shingle hashes its tokens' bytes joined by a
separator.
"""

from __future__ import annotations

import hashlib
from typing import FrozenSet, Sequence

_SHINGLE_SEPARATOR = b"\x1f"  # Cannot occur inside a token.


def shingle_hashes(tokens: Sequence[str], size: int) -> FrozenSet[int]:
    """The hashed ``size``-shingle set of a token sequence.

    Sequences shorter than ``size`` fall back to one shingle over the whole
    sequence (an empty set would make every short page an exact duplicate
    of every other short page).
    """
    if size < 1:
        raise ValueError("shingle size must be >= 1")
    if not tokens:
        return frozenset()
    encoded = [token.encode("utf-8") for token in tokens]
    windows = [encoded[i:i + size]
               for i in range(max(len(encoded) - size, 0) + 1)]
    return frozenset(
        int.from_bytes(hashlib.blake2b(_SHINGLE_SEPARATOR.join(window),
                                       digest_size=8).digest(), "big")
        for window in windows)

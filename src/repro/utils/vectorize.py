"""Exact-arithmetic helpers for the vectorized scoring kernels.

The selection hot path is pinned by golden snapshots
(``tests/data/fig13_smoke_golden.json``, ``tests/data/fig09_smoke_golden.json``)
that are compared *exactly*, so the array kernels in :mod:`repro.search`,
:mod:`repro.core` and :mod:`repro.aspects` must reproduce the scalar
references in ``tests/oracles.py`` bit for bit.  Two scalar
operations stand in the way:

* ``math.log(x)`` and ``numpy.log(x)`` may disagree by an ULP (libm vs the
  vectorized polynomial), and
* Python's ``x ** 0.5`` may disagree with both ``numpy.sqrt`` and
  ``numpy.power``.

:func:`exact_log` and :func:`exact_pow_half` close the gap: they reduce an
array to its unique values, apply the *scalar* libm call per unique value,
and scatter the results back.  Scoring arrays here are highly repetitive
(term frequencies, clamped utilities), so the unique set is small and the
scalar loop negligible — and the output is bit-identical to mapping the
scalar operation over the array, independent of the numpy version or CPU.

:func:`first_lexicographic_argmax` replicates the selection loop's
"strictly greater wins" tuple comparison: the returned index is the first
position attaining the lexicographic maximum of ``(primary, secondary)``.
"""

from __future__ import annotations

import math

import numpy as np

#: Below this many elements the dedup-and-scatter machinery of
#: :func:`exact_log` costs more than simply mapping the scalar libm call
#: over the array (which is what it is bit-identical to in the first place).
#: A small ranker batch sits under it; classifier training far over.
_SMALL_EXACT = 64


def exact_log(values: np.ndarray) -> np.ndarray:
    """Elementwise ``math.log`` over a float array (bit-identical to scalar).

    Raises ``ValueError`` (from ``math.log``) on non-positive inputs, just
    like the scalar reference path would.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size <= _SMALL_EXACT:
        logs = np.array([math.log(v) for v in values.ravel().tolist()],
                        dtype=np.float64)
        return logs.reshape(values.shape)
    unique, inverse = np.unique(values, return_inverse=True)
    logs = np.array([math.log(v) for v in unique.tolist()], dtype=np.float64)
    return logs[inverse].reshape(values.shape)


def exact_pow_half(values: np.ndarray) -> np.ndarray:
    """Elementwise Python ``x ** 0.5`` over a float array (bit-identical)."""
    values = np.asarray(values, dtype=np.float64)
    unique, inverse = np.unique(values, return_inverse=True)
    roots = np.array([v ** 0.5 for v in unique.tolist()], dtype=np.float64)
    return roots[inverse].reshape(values.shape)


def first_lexicographic_argmax(primary: np.ndarray,
                               secondary: np.ndarray) -> int:
    """Index of the first lexicographic maximum of ``(primary, secondary)``.

    Equivalent to scanning the pairs in order and keeping the current best
    only when a later pair compares *strictly greater* — the tie-break
    contract of :class:`repro.core.selection.ContextAwareSelection`.
    """
    primary = np.asarray(primary)
    secondary = np.asarray(secondary)
    if primary.size == 0:
        raise ValueError("argmax of empty candidate arrays")
    best_primary = primary.max()
    on_primary = primary == best_primary
    best_secondary = secondary[on_primary].max()
    return int(np.flatnonzero(on_primary & (secondary == best_secondary))[0])

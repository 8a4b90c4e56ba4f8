"""Pluggable execution backends and picklable job specifications.

The orchestration API every fan-out site shares: resolve a backend
(``serial`` / ``process``), hand it payloads, get results in payload
order.  See :mod:`repro.exec.backends` for the engines and
:mod:`repro.exec.specs` for the spec layer distributed backends ship
instead of live object graphs.
"""

from repro.exec.backends import (
    BACKEND_PROCESS,
    BACKEND_SERIAL,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    backend_names,
    is_registered,
    make_backend,
    register_backend,
    resolve_backend,
)
from repro.exec.specs import (
    CorpusSpec,
    HarvestBatchOutcome,
    HarvestBatchSpec,
    HarvestJobSpec,
    HarvestTaskContext,
    SweepCellResult,
    SweepCellSpec,
    stable_key,
)

__all__ = [
    "BACKEND_PROCESS",
    "BACKEND_SERIAL",
    "ExecutionBackend",
    "ProcessBackend",
    "SerialBackend",
    "backend_names",
    "is_registered",
    "make_backend",
    "register_backend",
    "resolve_backend",
    "CorpusSpec",
    "HarvestBatchOutcome",
    "HarvestBatchSpec",
    "HarvestJobSpec",
    "HarvestTaskContext",
    "SweepCellResult",
    "SweepCellSpec",
    "stable_key",
]

"""Execution backends and the picklable cell specifications they ship.

The orchestration API every fan-out site shares: resolve a backend
(``serial`` / ``process``), hand it cells, get results in cell order.
See :mod:`repro.exec.backends` for the engines and :mod:`repro.exec.specs`
for the cell specs and results that travel instead of live object
graphs.
"""

from repro.exec.backends import (
    BACKEND_PROCESS,
    BACKEND_SERIAL,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    backend_names,
    make_backend,
    resolve_backend,
)
from repro.exec.specs import (
    CorpusSpec,
    SessionRow,
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
    "make_backend",
    "resolve_backend",
    "CorpusSpec",
    "SessionRow",
    "SweepCellResult",
    "SweepCellSpec",
    "stable_key",
]

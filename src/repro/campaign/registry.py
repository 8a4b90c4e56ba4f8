"""Crash-safe registry of the shared-store segments a campaign published.

:mod:`repro.store` already unlinks everything the publishing process owns
at interpreter exit — but ``atexit`` never runs under SIGKILL or runner
preemption, which is precisely when a campaign dies.  A killed
orchestrator would then leak its shm segments (bounded only by
``/dev/shm``) and mmap temp files until reboot.

This module closes that hole with a two-layer registry keyed by campaign
directory:

* **on disk** — ``stores.json`` in the campaign root records every handle
  the orchestrator published *before* the first cell dispatches.  A later
  resume (or an explicit ``campaign clean``) reaps whatever the file
  names: :func:`repro.store.release` unlinks segments it does not own by
  re-attaching first, and unlinking an already-gone name is a no-op, so
  reaping is idempotent and safe to run eagerly.
* **in process** — an ``atexit`` hook releases still-registered handles
  and removes their registry files on any *orderly* exit (including an
  unhandled exception), so the normal path leaves no stale file behind.
"""

from __future__ import annotations

import atexit
import json
import logging
from pathlib import Path
from typing import Dict, List, Mapping

from repro.store import StoreHandle, release

logger = logging.getLogger(__name__)

#: Registry file name inside a campaign directory.
STORES_NAME = "stores.json"

#: Campaign roots this process has live published handles for.
_LIVE: Dict[str, Dict[str, StoreHandle]] = {}
_ATEXIT_REGISTERED = False


def _stores_path(root) -> Path:
    return Path(root) / STORES_NAME


def _register_atexit() -> None:
    global _ATEXIT_REGISTERED
    if not _ATEXIT_REGISTERED:
        atexit.register(release_all_registered)
        _ATEXIT_REGISTERED = True


def register_store_handles(root, handles: Mapping[str, StoreHandle]) -> None:
    """Record published handles durably before any cell dispatches.

    ``handles`` maps an arbitrary label (the campaign runner uses each
    base's :meth:`~repro.exec.specs.CorpusSpec.base_key`) to the
    published :class:`~repro.store.StoreHandle`.  An empty mapping
    removes any stale registry file instead.
    """
    root = Path(root)
    path = _stores_path(root)
    if not handles:
        path.unlink(missing_ok=True)
        return
    doc = {
        "handles": [
            {"label": label, "mode": handle.mode, "name": handle.name,
             "size": handle.size, "digest": handle.digest}
            for label, handle in sorted(handles.items())
        ],
    }
    root.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    _LIVE[str(root)] = dict(handles)
    _register_atexit()


def release_registered(root) -> None:
    """Release this process's handles for one campaign (orderly path)."""
    handles = _LIVE.pop(str(Path(root)), None)
    if handles:
        for handle in handles.values():
            release(handle)
    _stores_path(root).unlink(missing_ok=True)


def release_all_registered() -> None:
    """The atexit hook: release every still-registered campaign's stores."""
    for root in list(_LIVE):
        release_registered(root)


def clean_stale_stores(root) -> List[str]:
    """Reap segments/files a killed orchestrator left behind.

    Reads ``stores.json`` (if present), unlinks every recorded segment or
    mmap temp file — including ones published by a *different, dead*
    process — removes the registry file and returns the reaped names.
    Called on resume before publishing fresh stores, and by
    ``campaign clean``.
    """
    path = _stores_path(root)
    if not path.exists():
        return []
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
        entries = doc.get("handles", [])
    except (OSError, ValueError):
        logger.warning("campaign stores registry %s is unreadable; "
                       "removing it without reaping", path)
        entries = []
    reaped: List[str] = []
    for entry in entries:
        try:
            handle = StoreHandle(mode=entry["mode"], name=entry["name"],
                                 size=entry.get("size", 0),
                                 digest=entry.get("digest"))
        except (KeyError, TypeError):
            logger.warning("campaign stores registry %s holds a malformed "
                           "entry %r; skipping it", path, entry)
            continue
        release(handle)
        reaped.append(f"{handle.mode}:{handle.name}")
    _LIVE.pop(str(Path(root)), None)
    path.unlink(missing_ok=True)
    if reaped:
        logger.warning("campaign clean: reaped %d stale store segment(s): %s",
                       len(reaped), ", ".join(reaped))
    return reaped

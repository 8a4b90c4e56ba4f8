"""Write-once, attach-many corpus + index store over shared buffers.

The distributed path's dominant fixed cost is worker-side preparation:
every process rebuilds the corpus and the corpus-wide inverted index from a
:class:`~repro.exec.specs.CorpusSpec`.  This module removes that cost: the
orchestrator *publishes* a realised corpus — entities, per-page pickled
blobs and the index's :class:`~repro.search.index.TermDocumentMatrix`
arrays (CSR ``indptr``/``indices``/``data``, document-length and
collection-frequency vectors, doc-id/term tables) — into one
``multiprocessing.shared_memory`` segment or mmap'd file, and workers
*attach*: numeric arrays become zero-copy ``np.ndarray`` views over the
shared buffer and back an :class:`~repro.search.index.InvertedIndex` over
that matrix; pages deserialise lazily, one blob at a time, on first access.

Layout of a published segment::

    [8-byte magic][8-byte LE header length][JSON header][payload]

The JSON header names every section's (payload-relative) offset, length
and — for arrays — dtype and shape.  Pages are streamed into the writer in
sorted page-id order (:meth:`CorpusStoreWriter.add_page` enforces this), so
the stored doc-id order equals the sorted order
:meth:`~repro.search.engine.SearchEngine.shared_index` indexes documents in
and an attached index is bit-for-bit the index a worker would have rebuilt.

Memory model and cleanup
------------------------
The publishing process owns the segment: :func:`release` (or the module's
``atexit`` hook) unlinks it.  Unlinking only removes the *name* — processes
that already attached keep valid mappings until they exit, so releasing a
store while a persistent worker pool still holds attachments is safe.
Attachments are cached per process and stay open for the process lifetime;
a worker whose segment has vanished before it ever attached simply falls
back to the rebuild path (see :meth:`~repro.exec.specs.CorpusSpec.build`).

On platforms without the ``fork`` start method and older than Python 3.13,
the ``resource_tracker`` may unlink a shm segment when an attaching worker
exits (bpo-39959); the rebuild fallback keeps runs correct there, and
``mmap`` mode avoids the tracker entirely.
"""

from __future__ import annotations

import atexit
import hashlib
import json
import mmap as mmap_module
import os
import pickle
import struct
import tempfile
import uuid
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np
from scipy import sparse

from repro.aspects.classifier import AspectClassifierSuite
from repro.corpus.corpus import Corpus, content_digester, feed_entity, feed_page
from repro.corpus.document import Entity, Page
from repro.corpus.domains import get_domain
from repro.corpus.synthetic import BaseCorpus, CorpusConfig, CorpusGenerator
from repro.corpus.tokenizer import Tokenizer
from repro.search.index import InvertedIndex, TermDocumentMatrix

#: Store modes (the CLI's ``--corpus-store`` choices).
MODE_AUTO = "auto"
MODE_OFF = "off"
MODE_SHM = "shm"
MODE_MMAP = "mmap"
STORE_MODES = (MODE_AUTO, MODE_OFF, MODE_SHM, MODE_MMAP)

_MAGIC = b"L2QSTOR1"
_HEADER_PREFIX = struct.Struct("<Q")
_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL


class StoreError(RuntimeError):
    """Base error of the corpus store (publish or attach failed)."""


class StoreNotFoundError(StoreError):
    """The handle's segment/file no longer exists (released or never published)."""


@dataclass(frozen=True)
class StoreHandle:
    """A picklable reference to one published store.

    ``mode`` is ``"shm"`` or ``"mmap"``; ``name`` is the shared-memory
    segment name or the file path; ``digest`` is the
    :meth:`~repro.corpus.corpus.Corpus.content_digest` of the clean
    realisation the store serialises (computed incrementally at publish
    time), so attached corpora can answer digest checks without
    re-hashing.
    """

    mode: str
    name: str
    size: int
    digest: Optional[str] = None

    def key(self) -> Tuple[str, str]:
        """Process-local cache key of this handle's segment."""
        return (self.mode, self.name)


#: Segments this process published, keyed by handle key.  Entries own the
#: underlying resource and are unlinked by :func:`release` / at exit.
_PUBLISHED: Dict[Tuple[str, str], object] = {}

#: Attachments opened by this process, keyed by handle key.  Shared across
#: every spec/cell that attaches the same store, so one worker maps each
#: segment once and all cells share one lazy page cache and one index.
_ATTACHMENTS: Dict[Tuple[str, str], "StoreAttachment"] = {}

_ATEXIT_REGISTERED = False
_DEFAULT_MODE: Optional[str] = None


def _register_atexit() -> None:
    global _ATEXIT_REGISTERED
    if not _ATEXIT_REGISTERED:
        atexit.register(release_all)
        _ATEXIT_REGISTERED = True


def default_mode() -> str:
    """The concrete mode ``"auto"`` resolves to (probed once per process)."""
    global _DEFAULT_MODE
    if _DEFAULT_MODE is None:
        try:
            from multiprocessing import shared_memory

            probe = shared_memory.SharedMemory(create=True, size=16)
            probe.close()
            probe.unlink()
            _DEFAULT_MODE = MODE_SHM
        except Exception:
            _DEFAULT_MODE = MODE_MMAP
    return _DEFAULT_MODE


def resolve_mode(mode: str) -> str:
    """Validate and resolve a store mode (``auto`` → probed concrete mode)."""
    if mode not in STORE_MODES:
        raise ValueError(f"unknown corpus-store mode {mode!r}; "
                         f"options: {STORE_MODES}")
    return default_mode() if mode == MODE_AUTO else mode


def _classifier_digest(meta: Mapping[str, object],
                       arrays: Mapping[str, Mapping[str, np.ndarray]]) -> str:
    """Content digest of one serialised classifier suite.

    Hashes the canonical JSON of the metadata plus the raw bytes of every
    per-aspect prior/log-prob array.  Recomputed over the attached views at
    attach time; a mismatch means the block is corrupt (or was produced by
    an incompatible writer) and the attaching side falls back to retraining.
    """
    digest = hashlib.sha256()
    digest.update(json.dumps(meta, sort_keys=True).encode("utf-8"))
    for aspect in meta["aspects"]:
        entry = arrays[aspect]
        digest.update(np.ascontiguousarray(entry["prior"]).tobytes())
        digest.update(np.ascontiguousarray(entry["logprob"]).tobytes())
    return digest.hexdigest()


# -- Writer ------------------------------------------------------------------
class CorpusStoreWriter:
    """Streams one corpus into a publishable segment.

    Feed pages in sorted page-id order via :meth:`add_page` — each page is
    pickled immediately (only its compact blob and its term counts are
    retained) and folded into the running content digest, so arbitrarily
    large corpora never materialise as object graphs in the publishing
    process.
    """

    def __init__(self, config: CorpusConfig,
                 entities: Mapping[str, Entity]) -> None:
        self._config = config.base_config()
        self._entities = {eid: entities[eid] for eid in sorted(entities)}
        self._page_counts: List[Counter] = []
        self._page_blobs = bytearray()
        self._page_ids: List[str] = []
        self._page_entity_ids: List[str] = []
        self._page_offsets: List[int] = [0]
        self._classifier_suites: Dict[str, Tuple[Dict[str, object],
                                                 Dict[str, Dict[str, np.ndarray]]]] = {}
        self._published = False
        # The clean-corpus content digest, fed incrementally in the same
        # canonical order Corpus.content_digest uses (entities sorted, then
        # pages in sorted id order == stream order).
        self._digest = content_digester(self._config.domain)
        for entity_id, entity in self._entities.items():
            feed_entity(self._digest, entity_id, entity)

    @property
    def num_pages(self) -> int:
        """Number of pages streamed so far."""
        return len(self._page_ids)

    def add_page(self, page: Page) -> None:
        """Append one page (pages must arrive in sorted page-id order)."""
        if self._published:
            raise StoreError("writer already published")
        if self._page_ids and page.page_id <= self._page_ids[-1]:
            raise StoreError(
                f"pages must be streamed in sorted page-id order; got "
                f"{page.page_id!r} after {self._page_ids[-1]!r}")
        if page.entity_id not in self._entities:
            raise StoreError(f"page {page.page_id!r} references unknown "
                             f"entity {page.entity_id!r}")
        # Pickle a cache-free copy: a publisher that already computed
        # page.tokens must produce the same bytes as one that did not.
        blob = pickle.dumps(
            Page(page_id=page.page_id, entity_id=page.entity_id,
                 paragraphs=page.paragraphs),
            protocol=_PICKLE_PROTOCOL)
        self._page_blobs += blob
        self._page_offsets.append(len(self._page_blobs))
        self._page_ids.append(page.page_id)
        self._page_entity_ids.append(page.entity_id)
        self._page_counts.append(Counter(page.tokens))
        feed_page(self._digest, page)

    def add_pages(self, pages: Iterable[Page]) -> None:
        """Stream every page of an iterable (e.g. ``generate_pages()``)."""
        for page in pages:
            self.add_page(page)

    def add_classifier_suite(self, key: str,
                             suite: AspectClassifierSuite) -> None:
        """Publish a trained aspect-classifier suite alongside the corpus.

        The suite's raw-array state (shared vocabulary table plus one
        class-prior vector and log-probability matrix per aspect) lands as
        zero-copy-attachable sections; workers restore it with
        :meth:`StoreAttachment.classifier_suite` instead of retraining.
        ``key`` is the caller's suite identity (e.g. derived from the split
        seed).  The classifier block does not enter the corpus content
        digest — the stored corpus stays byte-compatible with a store that
        carries no classifiers.
        """
        if self._published:
            raise StoreError("writer already published")
        if key in self._classifier_suites:
            raise StoreError(f"classifier suite {key!r} already added")
        self._classifier_suites[key] = suite.to_state()

    def _assemble(self) -> Tuple[bytes, bytearray, str]:
        sections: Dict[str, Dict[str, object]] = {}
        payload = bytearray()

        def put_bytes(name: str, data: bytes) -> None:
            sections[name] = {"offset": len(payload), "length": len(data)}
            payload.extend(data)

        def put_array(name: str, array: np.ndarray) -> None:
            data = np.ascontiguousarray(array).tobytes()
            sections[name] = {"offset": len(payload), "length": len(data),
                              "dtype": str(array.dtype),
                              "shape": list(array.shape)}
            payload.extend(data)

        snapshot = TermDocumentMatrix.from_counts(self._page_ids, self._page_counts)
        digest = self._digest.hexdigest()

        put_bytes("config", pickle.dumps(self._config, protocol=_PICKLE_PROTOCOL))
        put_bytes("entities", pickle.dumps(self._entities, protocol=_PICKLE_PROTOCOL))
        put_bytes("page_ids", pickle.dumps(tuple(self._page_ids),
                                           protocol=_PICKLE_PROTOCOL))
        put_bytes("page_entity_ids", pickle.dumps(tuple(self._page_entity_ids),
                                                  protocol=_PICKLE_PROTOCOL))
        put_array("page_offsets", np.asarray(self._page_offsets, dtype=np.int64))
        put_bytes("pages", bytes(self._page_blobs))
        put_array("indptr", snapshot.matrix.indptr)
        put_array("indices", snapshot.matrix.indices)
        put_array("data", snapshot.matrix.data)
        put_array("doc_lengths", snapshot.doc_lengths)
        put_array("collection_frequencies", snapshot.collection_frequencies)
        put_bytes("terms", pickle.dumps(snapshot.terms, protocol=_PICKLE_PROTOCOL))

        if self._classifier_suites:
            classifier_table: Dict[str, Dict[str, object]] = {}
            for key in sorted(self._classifier_suites):
                meta, arrays = self._classifier_suites[key]
                classifier_table[key] = {
                    "meta": meta,
                    "digest": _classifier_digest(meta, arrays),
                }
                for aspect in meta["aspects"]:
                    put_array(f"clf/{key}/{aspect}/prior",
                              arrays[aspect]["prior"])
                    put_array(f"clf/{key}/{aspect}/logprob",
                              arrays[aspect]["logprob"])
            put_bytes("classifiers", pickle.dumps(classifier_table,
                                                  protocol=_PICKLE_PROTOCOL))

        header = {
            "version": 1,
            "domain": self._config.domain,
            "digest": digest,
            "total_tokens": snapshot.total_tokens,
            "matrix_shape": [snapshot.num_documents, snapshot.num_terms],
            "sections": sections,
        }
        header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
        prefix = _MAGIC + _HEADER_PREFIX.pack(len(header_bytes)) + header_bytes
        return prefix, payload, digest

    def publish(self, mode: str = MODE_AUTO) -> StoreHandle:
        """Seal the writer into a shared segment and return its handle."""
        if self._published:
            raise StoreError("writer already published")
        mode = resolve_mode(mode)
        if mode == MODE_OFF:
            raise StoreError("cannot publish with the store disabled")
        prefix, payload, digest = self._assemble()
        total = len(prefix) + len(payload)
        _register_atexit()
        if mode == MODE_SHM:
            from multiprocessing import shared_memory

            try:
                segment = shared_memory.SharedMemory(create=True, size=total)
            except Exception as error:
                raise StoreError(f"shared-memory publish failed: {error}") from error
            segment.buf[:len(prefix)] = prefix
            segment.buf[len(prefix):total] = payload
            handle = StoreHandle(mode=MODE_SHM, name=segment.name,
                                 size=total, digest=digest)
            _PUBLISHED[handle.key()] = segment
        else:
            path = Path(tempfile.gettempdir()) / \
                f"l2q_store_{uuid.uuid4().hex[:16]}.bin"
            try:
                with open(path, "wb") as fh:
                    fh.write(prefix)
                    fh.write(payload)
            except OSError as error:
                raise StoreError(f"mmap publish failed: {error}") from error
            handle = StoreHandle(mode=MODE_MMAP, name=str(path),
                                 size=total, digest=digest)
            _PUBLISHED[handle.key()] = path
        self._published = True
        return handle


def publish_store(config: CorpusConfig, entities: Mapping[str, Entity],
                  pages: Iterable[Page], *, mode: str = MODE_AUTO,
                  expected_digest: Optional[str] = None) -> StoreHandle:
    """Publish one realised corpus (entities + page stream) as a store.

    ``pages`` must iterate in sorted page-id order
    (:meth:`~repro.corpus.corpus.Corpus.iter_pages` does).  When
    ``expected_digest`` is given, the writer's incrementally computed
    digest must match it — a cheap end-to-end check that the stream really
    was the corpus the caller believes it published.
    """
    writer = CorpusStoreWriter(config, entities)
    writer.add_pages(pages)
    handle = writer.publish(mode=mode)
    if expected_digest is not None and handle.digest != expected_digest:
        release(handle)
        raise StoreError(
            f"published digest {handle.digest} does not match the "
            f"caller's corpus digest {expected_digest}")
    return handle


def publish_generated(config: CorpusConfig, *,
                      mode: str = MODE_AUTO) -> StoreHandle:
    """Stream-generate a base corpus straight into a store.

    The large-corpus path: pages flow from
    :meth:`~repro.corpus.synthetic.CorpusGenerator.generate_pages` into the
    writer one at a time and are dropped after pickling, so the publishing
    process never holds the full page set as objects.
    """
    generator = CorpusGenerator(config.base_config())
    entities = generator.generate_entities()
    writer = CorpusStoreWriter(config, entities)
    writer.add_pages(generator.generate_pages(entities))
    return writer.publish(mode=mode)


# -- Attachment --------------------------------------------------------------
def _open_shm(name: str):
    """Attach a shm segment, avoiding resource-tracker ownership if possible."""
    from multiprocessing import shared_memory

    try:
        # Python >= 3.13: attaching must not enrol the segment with this
        # process's resource tracker (the tracker would unlink it at exit).
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        return shared_memory.SharedMemory(name=name)


class _LazyPageMap(Mapping):
    """``{page_id: Page}`` over a store's pickled blobs, loaded per access."""

    __slots__ = ("_attachment", "_page_ids", "_positions", "_cache")

    def __init__(self, attachment: "StoreAttachment") -> None:
        self._attachment = attachment
        self._page_ids = attachment.page_ids()
        self._positions = {pid: i for i, pid in enumerate(self._page_ids)}
        self._cache: Dict[str, Page] = {}

    def __getitem__(self, page_id: str) -> Page:
        page = self._cache.get(page_id)
        if page is None:
            position = self._positions.get(page_id)
            if position is None:
                raise KeyError(page_id)
            page = self._attachment.load_page(position)
            self._cache[page_id] = page
        return page

    def __iter__(self):
        return iter(self._page_ids)

    def __len__(self) -> int:
        return len(self._page_ids)

    def __contains__(self, page_id: object) -> bool:
        return page_id in self._positions


class StoreBackedCorpus(Corpus):
    """A :class:`Corpus` whose pages and index live in a published store.

    Construction touches only the store's metadata sections — pages
    deserialise lazily on first access and the corpus-wide index attaches
    as read-only array views (see :meth:`shared_index_supplier`), so an
    engine over this corpus performs **zero** worker-side index builds.
    Pickling ships only the :class:`StoreHandle`; the receiving process
    re-attaches.
    """

    def __init__(self, attachment: "StoreAttachment") -> None:
        # Mirror Corpus.__init__ without realising any page: the store
        # already knows the page → entity map and wrote validated data.
        self.domain_spec = attachment.domain_spec()
        self.entities = dict(attachment.entities())
        self.pages = _LazyPageMap(attachment)
        self.type_system = self.domain_spec.build_type_system()
        self.tokenizer = Tokenizer(self.type_system)
        self._pages_by_entity = attachment.pages_by_entity()
        self._attachment = attachment
        #: The handle this corpus attached (probed by batch outcomes).
        self.store_handle = attachment.handle
        #: Publish-time content digest — answers digest checks without a
        #: full re-hash (the bytes *are* the orchestrator's corpus).
        self.store_digest = attachment.digest

    def shared_index_supplier(self) -> InvertedIndex:
        """The attached corpus-wide index.

        :meth:`~repro.search.engine.SearchEngine.shared_index` calls this
        instead of re-indexing every page when the corpus carries it.
        """
        return self._attachment.index()

    def classifier_suite(self, key: str) -> AspectClassifierSuite:
        """A trained suite published with this corpus.

        Raises :class:`StoreError` when the store carries no suite under
        ``key`` (or its digest check fails) — callers fall back to the
        bit-identical retrain path.
        """
        return self._attachment.classifier_suite(key)

    def subset(self, entity_ids: Iterable[str]) -> Corpus:
        keep = set(entity_ids)
        unknown = keep - set(self.entities)
        if unknown:
            raise KeyError(f"unknown entity ids: {sorted(unknown)}")
        entities = {eid: self.entities[eid] for eid in keep}
        # Realise only the kept entities' pages (in global page-id order,
        # matching the dict order Corpus.subset produces from generated
        # corpora) instead of loading every blob to filter.
        pages = {pid: self.pages[pid]
                 for pid in self.pages
                 if pid in {p for eid in keep
                            for p in self._pages_by_entity.get(eid, [])}}
        return Corpus(self.domain_spec, entities, pages,
                      type_system=self.type_system)

    def __reduce__(self):
        return (attach_corpus, (self.store_handle,))


class StoreAttachment:
    """One process's mapping of a published store.

    Cheap to create (header parse + a few small pickles) and cached per
    process by :func:`attach` — every spec/cell attaching the same handle
    shares one page cache and one attached index.
    """

    def __init__(self, handle: StoreHandle) -> None:
        self.handle = handle
        self._segment = None
        self._mmap = None
        self._file = None
        if handle.mode == MODE_SHM:
            try:
                self._segment = _open_shm(handle.name)
            except FileNotFoundError as error:
                raise StoreNotFoundError(
                    f"shared-memory segment {handle.name!r} not found "
                    f"(released, or published by another machine?)") from error
            except Exception as error:
                raise StoreError(f"cannot attach {handle!r}: {error}") from error
            self._buf = self._segment.buf
            # Attachments live for the process lifetime: numpy views over
            # `buf` stay exported, so SharedMemory.close() can never succeed
            # and its __del__ would spray ignored BufferErrors at interpreter
            # teardown.  Detach the close; the OS reclaims mappings at exit.
            self._segment.close = lambda: None  # type: ignore[method-assign]
        elif handle.mode == MODE_MMAP:
            try:
                self._file = open(handle.name, "rb")
            except FileNotFoundError as error:
                raise StoreNotFoundError(
                    f"store file {handle.name!r} not found") from error
            self._mmap = mmap_module.mmap(self._file.fileno(), 0,
                                          access=mmap_module.ACCESS_READ)
            self._buf = memoryview(self._mmap)
        else:
            raise StoreError(f"unknown store mode {handle.mode!r}")
        if bytes(self._buf[:8]) != _MAGIC:
            self.close()
            raise StoreError(f"{handle.name!r} is not a corpus store segment")
        (header_length,) = _HEADER_PREFIX.unpack(bytes(self._buf[8:16]))
        self._header = json.loads(
            bytes(self._buf[16:16 + header_length]).decode("utf-8"))
        self._base = 16 + header_length
        self.digest: Optional[str] = self._header.get("digest")
        self._pickles: Dict[str, object] = {}
        self._page_offsets: Optional[np.ndarray] = None
        self._pages_section: Optional[Tuple[int, int]] = None
        self._snapshot: Optional[TermDocumentMatrix] = None
        self._classifier_cache: Dict[str, AspectClassifierSuite] = {}
        self._index: Optional[InvertedIndex] = None
        self._corpus: Optional[StoreBackedCorpus] = None
        self._base_corpus: Optional[BaseCorpus] = None
        self._closed = False

    # -- Section access ------------------------------------------------------
    def _section(self, name: str) -> Dict[str, object]:
        try:
            return self._header["sections"][name]
        except KeyError:
            raise StoreError(f"store has no section {name!r}") from None

    def _section_view(self, name: str) -> memoryview:
        section = self._section(name)
        start = self._base + int(section["offset"])
        return self._buf[start:start + int(section["length"])]

    def _unpickle(self, name: str) -> object:
        value = self._pickles.get(name)
        if value is None:
            value = pickle.loads(self._section_view(name))
            self._pickles[name] = value
        return value

    def _array(self, name: str) -> np.ndarray:
        """A zero-copy read-only array view over the shared buffer."""
        section = self._section(name)
        shape = tuple(section["shape"])
        count = int(np.prod(shape)) if shape else 1
        array = np.frombuffer(self._buf, dtype=np.dtype(section["dtype"]),
                              count=count,
                              offset=self._base + int(section["offset"]))
        array = array.reshape(shape)
        if array.flags.writeable:
            array.flags.writeable = False
        return array

    # -- Corpus pieces -------------------------------------------------------
    def domain_spec(self):
        """The registry domain spec this store's corpus belongs to."""
        return get_domain(self._header["domain"])

    def config(self) -> CorpusConfig:
        """The (perturbation-free) base config of the stored corpus."""
        return self._unpickle("config")

    def entities(self) -> Dict[str, Entity]:
        """The stored entities, keyed (and sorted) by entity id."""
        return self._unpickle("entities")

    def page_ids(self) -> Tuple[str, ...]:
        """All page ids, sorted (the storage and doc-id order)."""
        return self._unpickle("page_ids")

    def pages_by_entity(self) -> Dict[str, List[str]]:
        """``{entity_id: [page_id, ...]}``, page lists sorted."""
        out: Dict[str, List[str]] = {}
        for page_id, entity_id in zip(self.page_ids(),
                                      self._unpickle("page_entity_ids")):
            out.setdefault(entity_id, []).append(page_id)
        return out

    def load_page(self, position: int) -> Page:
        """Deserialise the page at ``position`` in the page table."""
        if self._page_offsets is None:
            self._page_offsets = self._array("page_offsets")
            section = self._section("pages")
            self._pages_section = (self._base + int(section["offset"]),
                                   int(section["length"]))
        start_base, _ = self._pages_section
        start = start_base + int(self._page_offsets[position])
        end = start_base + int(self._page_offsets[position + 1])
        return pickle.loads(self._buf[start:end])

    def snapshot(self) -> TermDocumentMatrix:
        """The corpus-wide CSR snapshot as views over the shared buffer."""
        if self._snapshot is None:
            shape = tuple(self._header["matrix_shape"])
            matrix = sparse.csr_matrix(
                (self._array("data"), self._array("indices"),
                 self._array("indptr")),
                shape=shape, copy=False)
            # The stored arrays came from a canonical CSR build: mark them
            # so scipy never attempts an in-place sort of read-only views.
            matrix.has_sorted_indices = True
            matrix.has_canonical_format = True
            self._snapshot = TermDocumentMatrix(
                self.page_ids(), self._unpickle("terms"), matrix,
                self._array("doc_lengths"),
                self._array("collection_frequencies"),
                int(self._header["total_tokens"]))
        return self._snapshot

    def classifier_keys(self) -> List[str]:
        """Keys of the trained suites this store carries (sorted; may be empty)."""
        if "classifiers" not in self._header["sections"]:
            return []
        return sorted(self._unpickle("classifiers"))

    def classifier_suite(self, key: str) -> AspectClassifierSuite:
        """Attach one published trained suite (cached per process).

        The per-aspect prior/log-prob arrays stay zero-copy views over the
        shared buffer; only the small metadata block is unpickled.  The
        block's content digest is recomputed over the attached bytes first —
        raises :class:`StoreError` on a missing key, a store without a
        classifier block, or a digest mismatch, and the caller falls back
        to the bit-identical retrain path.
        """
        suite = self._classifier_cache.get(key)
        if suite is None:
            table = self._unpickle("classifiers") \
                if "classifiers" in self._header["sections"] else {}
            entry = table.get(key)
            if entry is None:
                raise StoreError(f"store has no classifier suite {key!r}")
            meta = entry["meta"]
            arrays = {
                aspect: {"prior": self._array(f"clf/{key}/{aspect}/prior"),
                         "logprob": self._array(f"clf/{key}/{aspect}/logprob")}
                for aspect in meta["aspects"]
            }
            if _classifier_digest(meta, arrays) != entry["digest"]:
                raise StoreError(
                    f"classifier suite {key!r} failed its digest check")
            suite = AspectClassifierSuite.from_state(meta, arrays)
            self._classifier_cache[key] = suite
        return suite

    def index(self) -> InvertedIndex:
        """The corpus-wide inverted index over :meth:`snapshot` (shared)."""
        if self._index is None:
            self._index = InvertedIndex(self.snapshot())
        return self._index

    def corpus(self) -> StoreBackedCorpus:
        """The clean realised corpus, lazily page-backed by this store."""
        if self._corpus is None:
            self._corpus = StoreBackedCorpus(self)
        return self._corpus

    def base_corpus(self) -> BaseCorpus:
        """The stored corpus as a shareable, perturbable base snapshot."""
        if self._base_corpus is None:
            self._base_corpus = BaseCorpus(
                config=self.config(),
                entities=MappingProxyType(self.entities()),
                pages=_LazyPageMap(self))
        return self._base_corpus

    def close(self) -> None:
        """Drop this process's mapping (the segment itself stays published).

        Live array views keep shm buffers exported; closing then raises
        ``BufferError`` and the mapping stays open — harmless, the OS
        reclaims it at process exit.
        """
        if self._closed:
            return
        self._closed = True
        try:
            if self._segment is not None:
                self._segment.close()
            if self._mmap is not None:
                self._mmap.close()
            if self._file is not None:
                self._file.close()
        except BufferError:
            pass


def attach(handle: StoreHandle) -> StoreAttachment:
    """Attach a published store (process-locally cached per handle)."""
    key = handle.key()
    attachment = _ATTACHMENTS.get(key)
    if attachment is None:
        attachment = StoreAttachment(handle)
        _ATTACHMENTS[key] = attachment
    return attachment


def attach_corpus(handle: StoreHandle) -> StoreBackedCorpus:
    """Attach and return the store's clean corpus (the unpickle target)."""
    return attach(handle).corpus()


def release(handle: StoreHandle) -> None:
    """Unlink one published store (idempotent).

    Attached processes keep valid mappings until they exit; only the name
    is removed, so no new attach can succeed afterwards.
    """
    entry = _PUBLISHED.pop(handle.key(), None)
    _ATTACHMENTS.pop(handle.key(), None)
    if handle.mode == MODE_SHM:
        segment = entry
        if segment is None:
            try:
                segment = _open_shm(handle.name)
            except FileNotFoundError:
                return
            except Exception:
                return
        try:
            segment.unlink()
        except FileNotFoundError:
            pass
        try:
            segment.close()
        except BufferError:
            pass
    else:
        try:
            os.remove(handle.name)
        except FileNotFoundError:
            pass


def release_all() -> None:
    """Unlink every store this process published (the atexit hook)."""
    for key in list(_PUBLISHED):
        mode, name = key
        release(StoreHandle(mode=mode, name=name, size=0))


def published_handles() -> List[Tuple[str, str]]:
    """Keys of the stores this process currently has published."""
    return list(_PUBLISHED)

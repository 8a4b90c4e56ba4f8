"""The :class:`Corpus` container: entities, pages and domain metadata.

The paper evaluates over an offline corpus collected in advance ("for
repeatable results, we conduct experiments over a corpus collected from the
Web in advance, and all queries will retrieve pages from this corpus only",
Sect. VI-A).  :class:`Corpus` plays that role here.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.corpus.document import Entity, Page, Paragraph
from repro.corpus.domains import DomainSpec
from repro.corpus.knowledge_base import TypeSystem
from repro.corpus.tokenizer import Tokenizer


# -- Canonical content digest -------------------------------------------------
# Shared by Corpus.content_digest (whole-corpus hash) and the corpus store
# writer (incremental hash while streaming pages), so a published store's
# digest equals the digest of the corpus it serialises by construction.

def _feed_fields(digest, *fields: str) -> None:
    # Each field is terminated by \x1e (and tuple elements joined by \x1f),
    # so adjacent variable-length fields can never collide.
    for value in fields:
        digest.update(value.encode("utf-8"))
        digest.update(b"\x1e")


def content_digester(domain: str):
    """A SHA-256 digest primed with the domain header field."""
    digest = hashlib.sha256()
    _feed_fields(digest, domain)
    return digest


def feed_entity(digest, entity_id: str, entity: Entity) -> None:
    """Fold one entity into a canonical content digest."""
    digest.update(b"\x1dE")
    _feed_fields(digest, entity_id,
                 "\x1f".join(entity.name_tokens),
                 "\x1f".join(entity.seed_query))
    for type_name in sorted(entity.attributes):
        digest.update(b"\x1dA")
        _feed_fields(digest, type_name, "\x1f".join(entity.attributes[type_name]))


def feed_page(digest, page: Page) -> None:
    """Fold one page into a canonical content digest."""
    digest.update(b"\x1dP")
    _feed_fields(digest, page.page_id, page.entity_id)
    for paragraph in page.paragraphs:
        digest.update(b"\x1dG")
        _feed_fields(digest, paragraph.paragraph_id,
                     paragraph.aspect if paragraph.aspect is not None else "\x00",
                     "\x1f".join(paragraph.tokens))


@dataclass
class CorpusStats:
    """Summary statistics of a corpus (used in reports and sanity tests)."""

    domain: str
    num_entities: int
    num_pages: int
    num_paragraphs: int
    num_tokens: int
    vocabulary_size: int
    paragraphs_per_aspect: Dict[str, int] = field(default_factory=dict)

    def as_rows(self) -> List[Tuple[str, str]]:
        """Return (name, value) rows for plain-text reporting."""
        rows = [
            ("domain", self.domain),
            ("entities", str(self.num_entities)),
            ("pages", str(self.num_pages)),
            ("paragraphs", str(self.num_paragraphs)),
            ("tokens", str(self.num_tokens)),
            ("vocabulary", str(self.vocabulary_size)),
        ]
        for aspect in sorted(self.paragraphs_per_aspect):
            rows.append((f"paragraphs[{aspect}]", str(self.paragraphs_per_aspect[aspect])))
        return rows


class Corpus:
    """An offline web corpus for one domain.

    Parameters
    ----------
    domain_spec:
        The declarative domain specification the corpus was generated from.
    entities:
        The entities of the domain, keyed by entity id.
    pages:
        All pages, keyed by page id.  Every page belongs to exactly one
        entity.
    type_system:
        The knowledge base used for template abstraction.
    """

    def __init__(self, domain_spec: DomainSpec, entities: Dict[str, Entity],
                 pages: Dict[str, Page], type_system: Optional[TypeSystem] = None) -> None:
        self.domain_spec = domain_spec
        self.entities = dict(entities)
        self.pages = dict(pages)
        self.type_system = type_system if type_system is not None else domain_spec.build_type_system()
        self.tokenizer = Tokenizer(self.type_system)

        self._pages_by_entity: Dict[str, List[str]] = {}
        for page in self.pages.values():
            if page.entity_id not in self.entities:
                raise ValueError(
                    f"page {page.page_id!r} references unknown entity {page.entity_id!r}"
                )
            self._pages_by_entity.setdefault(page.entity_id, []).append(page.page_id)
        for page_ids in self._pages_by_entity.values():
            page_ids.sort()

    # -- Basic accessors -----------------------------------------------------
    @property
    def domain(self) -> str:
        """Domain name (``"researcher"`` or ``"car"``)."""
        return self.domain_spec.name

    @property
    def aspects(self) -> List[str]:
        """Names of the target aspects of this domain."""
        return self.domain_spec.aspect_names()

    def entity_ids(self) -> List[str]:
        """All entity ids, sorted."""
        return sorted(self.entities)

    def get_entity(self, entity_id: str) -> Entity:
        """Return the entity with the given id."""
        return self.entities[entity_id]

    def get_page(self, page_id: str) -> Page:
        """Return the page with the given id."""
        return self.pages[page_id]

    def pages_of(self, entity_id: str) -> List[Page]:
        """All pages of one entity (the entity's page universe)."""
        return [self.pages[pid] for pid in self._pages_by_entity.get(entity_id, [])]

    def num_pages(self) -> int:
        """Total number of pages in the corpus."""
        return len(self.pages)

    def num_entities(self) -> int:
        """Total number of entities in the corpus."""
        return len(self.entities)

    def iter_pages(self) -> Iterator[Page]:
        """Iterate over all pages in id order."""
        for page_id in sorted(self.pages):
            yield self.pages[page_id]

    def iter_paragraphs(self) -> Iterator[Paragraph]:
        """Iterate over all paragraphs of all pages."""
        for page in self.iter_pages():
            yield from page.paragraphs

    # -- Relevance ------------------------------------------------------------
    def relevant_pages(self, entity_id: str, aspect: str) -> List[Page]:
        """Ground-truth relevant pages of an entity w.r.t. an aspect.

        A page is relevant iff at least one of its paragraphs is about the
        aspect (the paper judges relevance per paragraph and harvests pages;
        a page counts as a target page when it contains relevant content).
        """
        return [p for p in self.pages_of(entity_id) if p.has_aspect(aspect)]

    def aspect_paragraph_count(self, aspect: str) -> int:
        """Number of paragraphs in the whole corpus about ``aspect``."""
        return sum(1 for para in self.iter_paragraphs() if para.aspect == aspect)

    # -- Derived views ----------------------------------------------------------
    def subset(self, entity_ids: Iterable[str]) -> "Corpus":
        """Return a new corpus restricted to the given entities.

        Used to build the *domain corpus* (peer entities whose pages were
        gathered in advance) from the full corpus.
        """
        keep = set(entity_ids)
        unknown = keep - set(self.entities)
        if unknown:
            raise KeyError(f"unknown entity ids: {sorted(unknown)}")
        entities = {eid: self.entities[eid] for eid in keep}
        pages = {pid: page for pid, page in self.pages.items() if page.entity_id in keep}
        return Corpus(self.domain_spec, entities, pages, type_system=self.type_system)

    def content_digest(self) -> str:
        """SHA-256 over a canonical serialisation of the corpus content.

        Two corpora have equal digests iff they have identical entities
        (ids, names, seed queries, attributes) and identical pages
        (paragraph ids, tokens and aspect labels).  Scenario generation
        promises *byte-identical* corpora for equal seeds; this digest is
        what that promise is tested — and benchmarked — against.
        """
        digest = content_digester(self.domain)
        for entity_id in self.entity_ids():
            feed_entity(digest, entity_id, self.entities[entity_id])
        for page in self.iter_pages():
            feed_page(digest, page)
        return digest.hexdigest()

    def stats(self) -> CorpusStats:
        """Compute summary statistics."""
        num_paragraphs = 0
        num_tokens = 0
        vocabulary = set()
        per_aspect: Dict[str, int] = {aspect: 0 for aspect in self.aspects}
        for para in self.iter_paragraphs():
            num_paragraphs += 1
            num_tokens += len(para)
            vocabulary.update(para.tokens)
            if para.aspect is not None and para.aspect in per_aspect:
                per_aspect[para.aspect] += 1
        return CorpusStats(
            domain=self.domain,
            num_entities=self.num_entities(),
            num_pages=self.num_pages(),
            num_paragraphs=num_paragraphs,
            num_tokens=num_tokens,
            vocabulary_size=len(vocabulary),
            paragraphs_per_aspect=per_aspect,
        )

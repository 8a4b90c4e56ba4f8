"""Corpus substrate: documents, domains, knowledge base and synthetic generation."""

from repro.corpus.corpus import Corpus, CorpusStats
from repro.corpus.document import Entity, Page, Paragraph
from repro.corpus.domains import (
    AspectSpec,
    DomainSpec,
    TypePool,
    available_domains,
    car_domain,
    get_domain,
    researcher_domain,
)
from repro.corpus.knowledge_base import TypeSystem, build_type_system, default_regex_types
from repro.corpus.synthetic import CorpusConfig, CorpusGenerator, build_corpus
from repro.corpus.tokenizer import DEFAULT_STOPWORDS, Tokenizer

__all__ = [
    "AspectSpec",
    "Corpus",
    "CorpusConfig",
    "CorpusGenerator",
    "CorpusStats",
    "DEFAULT_STOPWORDS",
    "DomainSpec",
    "Entity",
    "Page",
    "Paragraph",
    "Tokenizer",
    "TypePool",
    "TypeSystem",
    "available_domains",
    "build_corpus",
    "build_type_system",
    "car_domain",
    "default_regex_types",
    "get_domain",
    "researcher_domain",
]

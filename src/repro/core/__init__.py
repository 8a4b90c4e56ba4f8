"""L2Q core: utility inference, domain/context awareness, selection and harvesting."""

from repro.core.config import L2QConfig
from repro.core.context import ContextTracker
from repro.core.domain_phase import DomainModel, DomainPhase
from repro.core.entity_phase import EntityPhase, EntityUtilities
from repro.core.harvester import HarvestResult, Harvester, IterationRecord
from repro.core.queries import (
    NgramTable,
    Query,
    QueryEnumerator,
    format_query,
    prune_queries,
)
from repro.core.selection import (
    ContextAwareSelection,
    DomainQuerySelection,
    QuerySelector,
    RandomSelection,
    TemplateSelection,
    UtilityOnlySelection,
    make_selector,
    selector_names,
)
from repro.core.session import HarvestSession
from repro.core.templates import Template, abstract_query, is_type_unit, type_unit
from repro.core.utility import (
    AssembledGraph,
    GraphAssembler,
    GraphTables,
    page_regularizations,
    template_regularization,
)

__all__ = [
    "AssembledGraph",
    "ContextAwareSelection",
    "ContextTracker",
    "DomainModel",
    "DomainPhase",
    "DomainQuerySelection",
    "EntityPhase",
    "EntityUtilities",
    "GraphAssembler",
    "GraphTables",
    "HarvestResult",
    "HarvestSession",
    "Harvester",
    "IterationRecord",
    "L2QConfig",
    "NgramTable",
    "Query",
    "QueryEnumerator",
    "QuerySelector",
    "RandomSelection",
    "Template",
    "TemplateSelection",
    "UtilityOnlySelection",
    "abstract_query",
    "format_query",
    "is_type_unit",
    "make_selector",
    "page_regularizations",
    "prune_queries",
    "selector_names",
    "template_regularization",
    "type_unit",
]

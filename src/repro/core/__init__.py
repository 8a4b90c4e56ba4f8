"""L2Q core: utility inference, domain/context awareness, selection and harvesting."""

from repro.core.config import L2QConfig
from repro.core.context import ContextTracker
from repro.core.domain_phase import DomainModel, DomainPhase, learn_domain_models
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
from repro.core.templates import (
    Template,
    TemplateIndex,
    abstract_query,
    format_template,
    is_type_unit,
    template_abstracts,
    template_abstraction_level,
    type_unit,
    unit_type_name,
)
from repro.core.utility import (
    AssembledGraph,
    GraphAssembler,
    GraphTables,
    precision_page_regularization,
    recall_page_regularization,
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
    "TemplateIndex",
    "TemplateSelection",
    "UtilityOnlySelection",
    "abstract_query",
    "format_query",
    "format_template",
    "is_type_unit",
    "learn_domain_models",
    "make_selector",
    "precision_page_regularization",
    "prune_queries",
    "recall_page_regularization",
    "selector_names",
    "template_abstraction_level",
    "template_abstracts",
    "template_regularization",
    "type_unit",
    "unit_type_name",
]

"""Declarative campaign specifications compiled to content-addressed cells.

A *campaign* is the paper's evaluation written down as data: domains ×
scenarios × methods × seeds at one :class:`~repro.eval.experiments
.ExperimentScale`, serialisable to/from JSON so the same file drives a
laptop smoke run, a CI gate and the full paper-scale sweep.  Compiling a
spec yields a deterministic list of :class:`CampaignCell` jobs — one
:class:`~repro.exec.specs.SweepCellSpec` per (seed, domain, scenario-or-
clean) — each carrying the stable content-addressed key
(:meth:`~repro.exec.specs.SweepCellSpec.cell_key`) the journaled store
checkpoints against.  Same spec ⇒ same cells ⇒ same keys, in any process
on any machine: that identity is what lets a resumed campaign skip every
cell a killed predecessor already finished.

The scale is embedded *by value* (all sizing fields, not a preset name),
so a later retuning of the ``smoke``/``default``/``paper`` presets can
never silently change what an existing campaign file means.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import L2QConfig
from repro.eval.experiments import ExperimentScale, get_scale
from repro.eval.scenario_sweep import sweep_cell_specs, validate_sweep
from repro.exec.specs import SweepCellSpec
from repro.scenarios import ScenarioSpec, make_scenario

#: Identifier of the campaign-spec serialisation layout.
SPEC_SCHEMA = "CampaignSpec/v1"


@dataclass(frozen=True)
class CampaignSpec:
    """One declarative harvest campaign: what to run, not how.

    ``seeds`` are corpus seeds: each one realises an independent corpus
    per domain (the scale's own ``corpus_seed`` is replaced), so a
    multi-seed campaign measures variance across worlds, not reruns of
    one.  ``scenarios`` are registry names; the clean baseline cell is
    always implied per (seed, domain) and never listed.
    """

    name: str
    scale: ExperimentScale
    domains: Tuple[str, ...]
    scenarios: Tuple[str, ...]
    methods: Tuple[str, ...]
    seeds: Tuple[int, ...]
    num_queries: int = 3
    corpus_store: str = "auto"
    config: Optional[L2QConfig] = None

    def __post_init__(self) -> None:
        # A campaign is hours of compute; a typo must fail at spec time,
        # not after the first seed's cells already burned a runner.
        if not self.name or "/" in self.name:
            raise ValueError(f"campaign name must be a non-empty label "
                             f"without '/', got {self.name!r}")
        validate_sweep(self.scale, self.domains, self.scenarios,
                       self.methods, self.num_queries, self.corpus_store)
        if not self.seeds:
            raise ValueError("at least one seed is required")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"duplicate seeds in {self.seeds}")

    # -- Serialisation -----------------------------------------------------
    def to_json_dict(self) -> Dict[str, object]:
        """Plain-JSON rendering (deterministic content, scale by value)."""
        scale = {
            "name": self.scale.name,
            "num_entities": dict(self.scale.num_entities),
            "pages_per_entity": self.scale.pages_per_entity,
            "num_splits": self.scale.num_splits,
            "max_test_entities": self.scale.max_test_entities,
            "max_aspects": self.scale.max_aspects,
            "num_queries_list": list(self.scale.num_queries_list),
            "corpus_seed": self.scale.corpus_seed,
        }
        doc: Dict[str, object] = {
            "schema": SPEC_SCHEMA,
            "name": self.name,
            "scale": scale,
            "domains": list(self.domains),
            "scenarios": list(self.scenarios),
            "methods": list(self.methods),
            "seeds": list(self.seeds),
            "num_queries": self.num_queries,
            "corpus_store": self.corpus_store,
            "config": None,
        }
        if self.config is not None:
            from dataclasses import asdict

            doc["config"] = asdict(self.config)
        return doc

    def to_json(self) -> str:
        """Canonical JSON text (sorted keys, trailing newline)."""
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json_dict(cls, doc: Dict[str, object]) -> "CampaignSpec":
        """Rebuild a spec from its :meth:`to_json_dict` rendering."""
        schema = doc.get("schema")
        if schema != SPEC_SCHEMA:
            raise ValueError(f"unsupported campaign spec schema {schema!r}; "
                             f"expected {SPEC_SCHEMA!r}")
        raw_scale = doc["scale"]
        scale = ExperimentScale(
            name=raw_scale["name"],
            num_entities=dict(raw_scale["num_entities"]),
            pages_per_entity=raw_scale["pages_per_entity"],
            num_splits=raw_scale["num_splits"],
            max_test_entities=raw_scale["max_test_entities"],
            max_aspects=raw_scale["max_aspects"],
            num_queries_list=tuple(raw_scale["num_queries_list"]),
            corpus_seed=raw_scale["corpus_seed"],
        )
        config = None
        if doc.get("config") is not None:
            config = L2QConfig(**doc["config"])
        return cls(
            name=doc["name"],
            scale=scale,
            domains=tuple(doc["domains"]),
            scenarios=tuple(doc["scenarios"]),
            methods=tuple(doc["methods"]),
            seeds=tuple(doc["seeds"]),
            num_queries=doc.get("num_queries", 3),
            corpus_store=doc.get("corpus_store", "auto"),
            config=config,
        )

    def save(self, path) -> Path:
        """Write the spec JSON and return the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json(), encoding="utf-8")
        return path

    @classmethod
    def load(cls, path) -> "CampaignSpec":
        """Read a spec JSON file."""
        return cls.from_json_dict(
            json.loads(Path(path).read_text(encoding="utf-8")))

    # -- Compilation -------------------------------------------------------
    def scale_for_seed(self, seed: int) -> ExperimentScale:
        """This campaign's scale with one seed's corpus realisation."""
        return replace(self.scale, corpus_seed=seed)

    def scenario_specs(self) -> List[ScenarioSpec]:
        """The instantiated scenario pipelines, in spec order."""
        return [make_scenario(name) for name in self.scenarios]


@dataclass(frozen=True)
class CampaignCell:
    """One compiled unit of campaign work: a keyed sweep cell.

    ``scenario`` is ``None`` for a (seed, domain)'s clean baseline cell.
    ``key`` is the content-addressed identity the journal checkpoints
    against (:meth:`~repro.exec.specs.SweepCellSpec.cell_key`).
    """

    seed: int
    domain: str
    scenario: Optional[str]
    spec: SweepCellSpec
    key: str

    def label(self) -> str:
        """Human-readable cell label for plans and status tables."""
        return f"seed={self.seed} {self.domain}/{self.scenario or 'clean'}"


def compile_cells(spec: CampaignSpec) -> List[CampaignCell]:
    """Compile a spec into its deterministic, content-addressed job list.

    Each seed's cells are :func:`~repro.eval.scenario_sweep
    .sweep_cell_specs` of that seed's corpus realisation — the cells a
    :class:`~repro.eval.scenario_sweep.ScenarioSweep` at that seed
    dispatches, in the same order — so cell order is seed-major, then
    domain-major, then clean + scenarios in spec order.  ``base_slots`` is
    sized to the distinct bases across the whole campaign, so resumed
    partial dispatches can never thrash a worker cache that a full
    dispatch would not.
    """
    scenario_specs = spec.scenario_specs()
    cells = [
        CampaignCell(seed=seed, domain=cell_spec.domain,
                     scenario=cell_spec.scenario_name, spec=cell_spec,
                     key=cell_spec.cell_key())
        for seed in spec.seeds
        for cell_spec in sweep_cell_specs(
            spec.scale_for_seed(seed), spec.domains, scenario_specs,
            spec.methods, spec.num_queries, config=spec.config)
    ]
    base_slots = len({cell.spec.corpus.base_key() for cell in cells})
    cells = [replace(cell, spec=replace(cell.spec, base_slots=base_slots))
             for cell in cells]
    keys = [cell.key for cell in cells]
    if len(set(keys)) != len(keys):  # pragma: no cover - spec validation bars it
        raise ValueError("compiled campaign contains duplicate cell keys")
    return cells


def spec_from_preset(name: str, scale: str, domains: Sequence[str],
                     scenarios: Sequence[str], methods: Sequence[str],
                     seeds: Sequence[int], num_queries: int = 3,
                     corpus_store: str = "auto",
                     config: Optional[L2QConfig] = None) -> CampaignSpec:
    """Build a spec from a named scale preset (the CLI inline path).

    ``seeds`` defaulting is the caller's job; pass the preset's own
    ``corpus_seed`` for the single-world campaign the sweep runs today.
    """
    return CampaignSpec(name=name, scale=get_scale(scale),
                        domains=tuple(domains),
                        scenarios=tuple(scenarios), methods=tuple(methods),
                        seeds=tuple(seeds), num_queries=num_queries,
                        corpus_store=corpus_store, config=config)

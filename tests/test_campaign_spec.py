"""Tests for campaign specs and their compilation to keyed cells."""

import json
from dataclasses import replace

import pytest

from repro.campaign import CampaignSpec, compile_cells, spec_from_preset
from repro.eval.experiments import ExperimentScale
from repro.exec.specs import stable_key
from repro.store import StoreHandle

#: Smallest scale that still exercises the full protocol.
TINY_SCALE = ExperimentScale(
    name="tiny",
    num_entities={"researcher": 12, "car": 10},
    pages_per_entity=8,
    num_splits=1,
    max_test_entities=2,
    max_aspects=2,
    num_queries_list=(2,),
    corpus_seed=11,
)


def tiny_spec(**overrides):
    base = dict(name="unit", scale=TINY_SCALE, domains=("car",),
                scenarios=("zipf-skew",), methods=("MQ", "RND"),
                seeds=(11, 12), num_queries=2)
    base.update(overrides)
    return CampaignSpec(**base)


class TestSerialisation:
    def test_json_round_trip_is_identity(self):
        spec = tiny_spec()
        clone = CampaignSpec.from_json_dict(spec.to_json_dict())
        assert clone == spec
        assert clone.to_json() == spec.to_json()

    def test_scale_is_embedded_by_value(self):
        doc = tiny_spec().to_json_dict()
        assert doc["scale"]["num_entities"] == {"researcher": 12, "car": 10}
        assert doc["scale"]["pages_per_entity"] == 8
        # No preset-name indirection anywhere in the document.
        assert "preset" not in doc

    def test_save_load_round_trip(self, tmp_path):
        spec = tiny_spec()
        path = spec.save(tmp_path / "nested" / "spec.json")
        assert CampaignSpec.load(path) == spec

    def test_unknown_schema_rejected(self):
        doc = tiny_spec().to_json_dict()
        doc["schema"] = "CampaignSpec/v999"
        with pytest.raises(ValueError, match="schema"):
            CampaignSpec.from_json_dict(doc)

    def test_config_round_trips(self):
        from repro.core.config import L2QConfig

        config = L2QConfig()
        config.dedup_penalty = 0.5
        spec = tiny_spec(config=config)
        clone = CampaignSpec.from_json_dict(
            json.loads(json.dumps(spec.to_json_dict())))
        assert clone.config.dedup_penalty == 0.5


class TestValidation:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenarios"):
            tiny_spec(scenarios=("no-such-scenario",))

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown methods"):
            tiny_spec(methods=("NOPE",))

    def test_ideal_pseudo_method_rejected(self):
        with pytest.raises(ValueError, match="unknown methods"):
            tiny_spec(methods=("IDEAL",))

    def test_unknown_domain_rejected(self):
        with pytest.raises(ValueError, match="unknown domains"):
            tiny_spec(domains=("spaceship",))

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ValueError, match="duplicate seeds"):
            tiny_spec(seeds=(11, 11))

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            tiny_spec(seeds=())

    def test_slash_in_name_rejected(self):
        with pytest.raises(ValueError, match="name"):
            tiny_spec(name="a/b")

    def test_bad_store_mode_rejected(self):
        with pytest.raises(ValueError, match="corpus-store"):
            tiny_spec(corpus_store="carrier-pigeon")

    def test_preset_rejects_unknown_domain(self):
        with pytest.raises(ValueError, match="unknown domains"):
            spec_from_preset("x", "smoke", ["spaceship"], ["zipf-skew"],
                             ["MQ"], [11])


class TestCompilation:
    def test_cell_list_is_deterministic(self):
        spec = tiny_spec()
        first = compile_cells(spec)
        second = compile_cells(spec)
        assert [c.key for c in first] == [c.key for c in second]
        assert [c.spec for c in first] == [c.spec for c in second]

    def test_covers_seeds_domains_and_clean(self):
        cells = compile_cells(tiny_spec(domains=("car", "researcher")))
        # 2 seeds x 2 domains x (clean + 1 scenario)
        assert len(cells) == 8
        assert {(c.seed, c.domain, c.scenario) for c in cells} == {
            (seed, domain, scenario)
            for seed in (11, 12)
            for domain in ("car", "researcher")
            for scenario in (None, "zipf-skew")
        }

    def test_keys_are_unique(self):
        cells = compile_cells(tiny_spec(domains=("car", "researcher")))
        assert len({c.key for c in cells}) == len(cells)

    def test_key_ignores_transport_fields(self):
        cell = compile_cells(tiny_spec())[0]
        handle = StoreHandle(mode="shm", name="bogus", size=1, digest="d")
        transported = replace(
            cell.spec,
            corpus=replace(cell.spec.corpus, store_handle=handle),
            base_slots=99,
        )
        assert transported.cell_key() == cell.key

    def test_key_changes_with_denotation(self):
        spec = tiny_spec()
        cells = {c.key for c in compile_cells(spec)}
        shifted = {c.key for c in compile_cells(replace(spec, seeds=(13,)))}
        assert cells.isdisjoint(shifted)
        fewer_queries = {c.key
                         for c in compile_cells(replace(spec, num_queries=1))}
        assert cells.isdisjoint(fewer_queries)

    def test_different_seeds_realise_different_corpora(self):
        cells = compile_cells(tiny_spec())
        seeds = {c.spec.corpus.seed for c in cells}
        assert seeds == {11, 12}

    def test_stable_key_is_order_insensitive(self):
        assert stable_key({"a": 1, "b": 2}) == stable_key({"b": 2, "a": 1})
        assert stable_key({"a": 1}) != stable_key({"a": 2})


class TestPinnedKeys:
    """Journaled campaign directories resume only while their cells keep
    their keys, so the keys of a smoke campaign are pinned literally."""

    def test_smoke_campaign_cell_keys_do_not_move(self):
        from repro.core.config import L2QConfig

        plain = spec_from_preset("pins", "smoke", ("researcher", "car"),
                                 ("zipf-skew",), ("L2QBAL", "MQ"), (7,))
        tuned = spec_from_preset("pins", "smoke", ("car",),
                                 ("near-duplicates",), ("L2QBAL",), (7,),
                                 config=L2QConfig(dedup_penalty=0.5))
        plain_keys = {c.label(): c.key for c in compile_cells(plain)}
        tuned_keys = {c.label(): c.key for c in compile_cells(tuned)}
        assert plain_keys["seed=7 researcher/clean"] == "12a7774b433f2639"
        assert plain_keys["seed=7 car/zipf-skew"] == "398fe13ec03412c2"
        assert tuned_keys["seed=7 car/near-duplicates"] == "df170fc8bfaa8243"

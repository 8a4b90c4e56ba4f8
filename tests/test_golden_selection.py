"""Golden snapshot of the queries every entity-phase selector fires.

The Fig. 13 golden pins L2QBAL and the baselines only through their
metrics, so a drifted L2QP, L2QR or P+t choice could pass it.  This
snapshot pins the fired-query sequence itself, for every P, R, P+t, R+t,
L2QP, L2QR, L2QBAL, HR and AQ session at ``SMOKE_SCALE`` (every selector
that reads :meth:`~repro.core.utility.GraphTables.containment`): both domains, split
0, every evaluated aspect and test entity, a budget of 3 queries.  The
sessions of one split run on the split's one harvester, as an evaluation
runs them, so state a harvester shares between sessions is exercised too.

If a change *intentionally* alters the choices, regenerate the snapshot
and justify the new sequences in the change description::

    PYTHONPATH=src:. python - <<'PY'
    import json
    from tests.test_golden_selection import GOLDEN_PATH, fired_queries
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(fired_queries(), fh, indent=1)
        fh.write("\\n")
    PY
"""

import json
from pathlib import Path
from typing import Dict, List

from repro.eval.experiments import DOMAINS, SMOKE_SCALE
from repro.eval.runner import ExperimentRunner

GOLDEN_PATH = Path(__file__).parent / "data" / "selection_smoke_golden.json"
METHODS = ("P", "R", "P+t", "R+t", "L2QP", "L2QR", "L2QBAL", "HR", "AQ")
BUDGET = 3


def fired_queries() -> Dict[str, List[List[str]]]:
    """``{"domain/method/aspect/entity": [query words, ...]}`` per session."""
    fired: Dict[str, List[List[str]]] = {}
    for domain in DOMAINS:
        corpus = SMOKE_SCALE.corpus_for(domain)
        runner = ExperimentRunner(corpus)
        split = runner.default_split(0)
        prepared = runner.prepare(split)
        harvester = runner.harvester_for(prepared)
        entities = list(split.test_entities)[:SMOKE_SCALE.max_test_entities]
        for method in METHODS:
            for aspect in SMOKE_SCALE.aspects_for(corpus):
                for entity_id in entities:
                    result = harvester.harvest_job(runner.build_job(
                        prepared, method, entity_id, aspect, BUDGET))
                    fired[f"{domain}/{method}/{aspect}/{entity_id}"] = [
                        list(query) for query in result.queries()]
    return fired


def test_selection_smoke_matches_golden_snapshot():
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    actual = fired_queries()
    assert len(golden) == 72
    drifted = sorted(label for label in golden if actual.get(label) != golden[label])
    assert set(actual) == set(golden) and not drifted, (
        f"fired queries drifted from the golden snapshot in {drifted}; if the "
        f"change is intentional, regenerate tests/data/selection_smoke_golden.json "
        f"(see module docstring)")

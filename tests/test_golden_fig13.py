"""Golden-snapshot regression test for the headline experiment (Fig. 13).

The smoke-scale Fig. 13 result is pinned as JSON under ``tests/data/``.
Every part of the pipeline feeds into these numbers — corpus generation,
splits, classifier training, domain phase, selection, retrieval, metric
folding — so any refactor that silently drifts the headline comparison
fails here with an exact diff instead of passing on "close enough".

If a change *intentionally* alters the numbers (new algorithm, fixed bug),
regenerate the snapshot and justify the new values in the PR::

    PYTHONPATH=src python - <<'PY'
    import json
    from repro.eval.experiments import SMOKE_SCALE, run_fig13
    payload = run_fig13(SMOKE_SCALE).to_json_dict()
    with open("tests/data/fig13_smoke_golden.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    PY
"""

import json
from pathlib import Path

from repro.eval.experiments import SMOKE_SCALE, run_fig13

GOLDEN_PATH = Path(__file__).parent / "data" / "fig13_smoke_golden.json"


def test_fig13_smoke_matches_golden_snapshot():
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    # Round-trip through JSON so float representations are compared the
    # same way on both sides (json round-trips IEEE doubles exactly).
    actual = json.loads(json.dumps(run_fig13(SMOKE_SCALE).to_json_dict()))
    assert actual == golden, (
        "Fig. 13 smoke-scale output drifted from the golden snapshot; "
        "if the change is intentional, regenerate "
        "tests/data/fig13_smoke_golden.json (see module docstring)")


def test_golden_snapshot_has_expected_shape():
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert set(golden["series_by_domain"]) == {"researcher", "car"}
    for series in golden["series_by_domain"].values():
        assert "L2QBAL" in series and "MQ" in series
        for method_series in series.values():
            assert set(method_series) == {"precision", "recall", "f_score"}


def test_fig13_smoke_on_two_process_workers_matches_golden():
    # The figure's cells, dispatched to two process workers, fold to the
    # same table as the serial run that generated the snapshot.
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    result = run_fig13(SMOKE_SCALE, backend="process", workers=2)
    assert json.loads(json.dumps(result.to_json_dict())) == golden

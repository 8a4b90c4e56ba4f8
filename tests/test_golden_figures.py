"""Golden snapshots of Figs. 10, 11 and 12 at smoke scale.

Each figure's smoke-scale result is pinned as JSON under ``tests/data/``,
beside the Fig. 13 snapshot (``test_golden_fig13.py``).  The four figures
share one evaluation pipeline, so a change that reroutes it must leave
every snapshot byte-identical.

If a change *intentionally* alters the numbers, regenerate the snapshots
and justify the new values::

    PYTHONPATH=src:. python - <<'PY'
    from tests.test_golden_figures import FIGURES, write_golden
    for name in FIGURES:
        write_golden(name)
    PY
"""

import json
from pathlib import Path

import pytest

from repro.eval.experiments import SMOKE_SCALE, run_fig10, run_fig11, run_fig12

DATA = Path(__file__).parent / "data"


def _fig10(result):
    return {"num_queries": result.num_queries,
            "precision_by_domain": result.precision_by_domain,
            "recall_by_domain": result.recall_by_domain}


def _fig11(result):
    # JSON keys are strings; repr keeps every fraction exact.
    def by_fraction(table):
        return {domain: {repr(fraction): value
                         for fraction, value in values.items()}
                for domain, values in table.items()}

    return {"fractions": list(result.fractions),
            "precision_by_domain": by_fraction(result.precision_by_domain),
            "recall_by_domain": by_fraction(result.recall_by_domain)}


#: Figure name -> (runner, JSON rendering of its result).
FIGURES = {
    "fig10": (run_fig10, _fig10),
    "fig11": (run_fig11, _fig11),
    "fig12": (run_fig12, lambda result: result.to_json_dict()),
}


def golden_path(name):
    return DATA / f"{name}_smoke_golden.json"


def render(name):
    """The figure's smoke-scale result as JSON-plain data."""
    run, to_json = FIGURES[name]
    # Round-trip through JSON so both sides compare floats the same way
    # (json round-trips IEEE doubles exactly).
    return json.loads(json.dumps(to_json(run(SMOKE_SCALE))))


def write_golden(name):
    with open(golden_path(name), "w", encoding="utf-8") as handle:
        json.dump(render(name), handle, indent=2, sort_keys=True)
        handle.write("\n")


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_smoke_figure_matches_golden_snapshot(name):
    golden = json.loads(golden_path(name).read_text(encoding="utf-8"))
    assert render(name) == golden, (
        f"{name} smoke-scale output drifted from its golden snapshot; if "
        f"the change is intentional, regenerate {golden_path(name).name} "
        f"(see module docstring)")

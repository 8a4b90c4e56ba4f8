"""Golden-snapshot regression test for the aspect classifiers (Fig. 9).

The classifiers materialise the relevance function ``Y`` every selection
and every metric reads, so their output is pinned exactly: the smoke-scale
Fig. 9 table (aspect, paragraph frequency, held-out accuracy) of both
domains, and a sha256 over ``repr(suite.page_assessment(page, aspect))`` for
every page and aspect of both smoke corpora.  A refactor of the classifier
kernels that moves one label, one posterior bit or one Python type fails
here instead of surfacing later as a drifted selection.

If a change *intentionally* alters the classifiers, regenerate the snapshot
and justify the new values in the change::

    PYTHONPATH=src:. python -c "from tests.test_golden_fig09 import write_golden; write_golden()"
"""

import hashlib
import json
from pathlib import Path

from repro.aspects.classifier import AspectClassifierSuite
from repro.eval.experiments import DOMAINS, SMOKE_SCALE, run_fig09

GOLDEN_PATH = Path(__file__).parent / "data" / "fig09_smoke_golden.json"


def snapshot() -> dict:
    """The pinned quantities, as a JSON-ready dict."""
    result = run_fig09(SMOKE_SCALE)
    rows = {domain: [[row.aspect, row.paragraph_frequency, row.accuracy]
                     for row in result.rows_by_domain[domain]]
            for domain in DOMAINS}
    assessments = {}
    for domain in DOMAINS:
        corpus = SMOKE_SCALE.corpus_for(domain)
        suite = AspectClassifierSuite.train_on_corpus(corpus)
        digest = hashlib.sha256()
        for page in corpus.iter_pages():
            for aspect in corpus.aspects:
                digest.update(repr(suite.page_assessment(page, aspect)).encode())
        assessments[domain] = digest.hexdigest()
    return {"rows_by_domain": rows, "page_assessment_sha256": assessments}


def write_golden() -> None:
    """Regenerate ``tests/data/fig09_smoke_golden.json``."""
    GOLDEN_PATH.write_text(json.dumps(snapshot(), indent=2, sort_keys=True) + "\n",
                           encoding="utf-8")


def test_fig09_smoke_matches_golden_snapshot():
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    # Round-trip through JSON so floats compare the same way on both sides.
    actual = json.loads(json.dumps(snapshot()))
    assert actual == golden, (
        "Fig. 9 smoke-scale classifier output drifted from the golden "
        "snapshot; if the change is intentional, regenerate "
        "tests/data/fig09_smoke_golden.json (see module docstring)")


def test_golden_snapshot_covers_both_domains():
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert set(golden["rows_by_domain"]) == set(DOMAINS)
    assert set(golden["page_assessment_sha256"]) == set(DOMAINS)
    for rows in golden["rows_by_domain"].values():
        assert rows and all(len(row) == 3 for row in rows)

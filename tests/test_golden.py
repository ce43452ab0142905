"""Golden reports: the scenarios under ``tests/golden`` must give the same
report bytes, ``wall_time_ms`` aside, as when their digests were recorded.
``golden/flow`` holds flow and restart runs; ``golden/queries`` one or more
documents per command and backend for the one-shot commands (``dist``
through ``hessian``, and ``sweep``).  A refactor keeps these; a digest may
be updated only with a CHANGES.md entry naming the report field that
changed and why."""

import hashlib
import json
import pathlib

import pytest
from conftest import strip_timing

from loopflow.cli import execute_scenario

GOLDEN = pathlib.Path(__file__).parent / "golden"
SETS = ("flow", "queries")
DIGESTS = {s: json.loads((GOLDEN / s / "digests.json").read_text(encoding="utf-8")) for s in SETS}
WHERE = {name: s for s in SETS for name in DIGESTS[s]}


def test_every_document_has_a_digest():
    for s in SETS:
        docs = {p.name for p in (GOLDEN / s).glob("*.json")} - {"digests.json"}
        assert docs == set(DIGESTS[s])
    assert len(WHERE) == sum(map(len, DIGESTS.values()))  # names are unique across sets


@pytest.mark.parametrize("name", sorted(WHERE))
def test_report_matches_its_digest(name):
    doc = json.loads((GOLDEN / WHERE[name] / name).read_text(encoding="utf-8"))
    report = strip_timing(execute_scenario(doc))
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[WHERE[name]][name]

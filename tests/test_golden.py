"""Golden reports: the flow and restart scenarios under ``tests/golden/flow``
must give the same report bytes, ``wall_time_ms`` aside, as when their
digests were recorded.  A refactor of the flow keeps these; a digest may be
updated only with a CHANGES.md entry naming the report field that changed
and why."""

import hashlib
import json
import pathlib

import pytest
from conftest import strip_timing

from loopflow.cli import execute_scenario

GOLDEN = pathlib.Path(__file__).parent / "golden" / "flow"
DIGESTS = json.loads((GOLDEN / "digests.json").read_text(encoding="utf-8"))


def test_every_document_has_a_digest():
    docs = {p.name for p in GOLDEN.glob("*.json")} - {"digests.json"}
    assert docs == set(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_report_matches_its_digest(name):
    doc = json.loads((GOLDEN / name).read_text(encoding="utf-8"))
    report = strip_timing(execute_scenario(doc))
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[name]

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

from loopflow.cli import emit_plot_data, execute_scenario, run_scenario

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


# sha256 of the ``plot --kind curve`` CSV of each ``minind`` document,
# recorded while reports still held curve samples as {"t", "coords"}
# objects: the ``[t, x0, ...]`` rows that replaced them give the same bytes
CURVE_CSV = {
    "minind_dr.json": "d73568314d0e4c9e7683550e12555d8476da8bf16fc6f8ef5fac96a839620e7d",
    "minind_product.json": "c0c29bf5394456e7d4d671b8c2c0ea22ac3360f14d9f5946851f55b5dcbc851a",
    "minind_t2.json": "cbda4cede988d90767376503ca64b13fbda34703e1a8b1db4098d78d80b4f521",
    "minind_t3.json": "ac491bf38a09000e6f44ebb6369d6a5e534ca40c49e8da0fa3bdb8316c186c8f",
}


@pytest.mark.parametrize("name", sorted(CURVE_CSV))
def test_curve_csv_bytes_are_unchanged(name, tmp_path):
    report, out = tmp_path / "report.json", tmp_path / "curve.csv"
    assert run_scenario(str(GOLDEN / "queries" / name), str(report)) == 0
    assert emit_plot_data(str(report), "curve", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CURVE_CSV[name]

"""Corpus digests: the benchmark's ``descent``, ``restart`` and ``analysis``
corpora for seeds 301 and 501 at 2 rounds (288 scenarios, built by
``perfbench/corpus.py:build``) must give the same report bytes as when
``golden/corpus/digests.json`` was recorded.  They reach many more cases than
the golden documents: closed-form and iterated flows on every backend,
restart ladders, sweeps.  A change that moves a digest names the changed
fields, from ``golden/corpus/regenerate.py --baseline``, in CHANGES.md."""

import importlib.util
import json
import pathlib

import pytest

HERE = pathlib.Path(__file__).parent / "golden" / "corpus"
_spec = importlib.util.spec_from_file_location("corpus_digests", HERE / "regenerate.py")
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)

RECORDED = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))


def test_every_scenario_has_a_digest():
    assert len(RECORDED) == 288


@pytest.mark.parametrize("seed", regenerate.SEEDS)
def test_corpus_reports_match_their_digests(seed):
    found = dict(regenerate.reports((seed,), regenerate.ROUNDS))
    assert set(found) == {sid for sid in RECORDED if f"/s{seed}/" in sid}
    assert [sid for sid, report in found.items() if "raised" in report] == []
    assert sorted(sid for sid, report in found.items() if regenerate.digest(report) != RECORDED[sid]) == []

"""Check, regenerate or explain the corpus digests in ``digests.json``.

The corpora are those of the benchmark, ``perfbench/corpus.py:build``: the
``descent``, ``restart`` and ``analysis`` workloads for some seeds and
rounds.  Every scenario runs through ``execute_scenario``, and its digest is
the sha256 of the report's canonical JSON (``sort_keys``, no indent).  A
scenario that raises is digested as ``{"raised": <class>, "message": ...}``.
Run from the repository root:

    python tests/golden/corpus/regenerate.py           # compare with digests.json
    python tests/golden/corpus/regenerate.py --write   # rewrite digests.json
    python tests/golden/corpus/regenerate.py --baseline OLD --seeds 301 302 303 304 501 --rounds 0

``--baseline OLD`` runs the same corpora on the library under ``OLD/src``
(another checkout) as well.  For every report that differs, it prints the
scenario id, the dotted path of each changed field and the largest absolute
difference over the changed numbers, which is what a change to the corpus
must name.  ``--rounds 0`` takes each workload's own number of rounds.
The exit code is 1 when a digest or a report differs, else 0.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[2]
DIGESTS = HERE / "digests.json"
WORKLOADS = ("descent", "restart", "analysis")
SEEDS = (301, 501)
ROUNDS = 2


def canonical(report) -> str:
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


def digest(report) -> str:
    return hashlib.sha256(canonical(report).encode()).hexdigest()


def reports(seeds=SEEDS, rounds=ROUNDS):
    """Yield ``(scenario id, report)`` for every scenario of the corpora."""
    spec = importlib.util.spec_from_file_location("corpus", ROOT / "perfbench" / "corpus.py")
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    from loopflow.cli import execute_scenario

    for workload in WORKLOADS:
        for seed in seeds:
            for entry in corpus.build(workload, seed, rounds or None):
                try:
                    report = execute_scenario(entry["doc"])
                except Exception as exc:  # a digest of the failure, so that it is pinned too
                    report = {"raised": type(exc).__name__, "message": str(exc)}
                yield entry["id"], report


def changed_fields(old, new, path=""):
    """``(dotted path, largest absolute difference or None)`` of every field
    that differs; None where a difference is not numeric."""
    if isinstance(old, dict) and isinstance(new, dict):
        out = []
        for key in sorted(set(old) | set(new), key=str):
            sub = f"{path}.{key}" if path else str(key)
            if key not in old or key not in new:
                out.append((sub, None))
            else:
                out += changed_fields(old[key], new[key], sub)
        return out
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        # list items share one path, so a curve or a trace is one line
        merged: dict = {}
        for a, b in zip(old, new):
            for sub, diff in changed_fields(a, b, f"{path}[]"):
                if sub in merged and merged[sub] is not None and diff is not None:
                    diff = max(diff, merged[sub])
                elif sub in merged:
                    diff = None
                merged[sub] = diff
        return list(merged.items())
    if old == new and type(old) is type(new):
        return []
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (old, new))
    return [(path, abs(new - old) if numbers and math.isfinite(new - old) else None)]


def _dump(seeds, rounds):
    """Write one ``[id, report]`` JSON line per scenario to stdout."""
    for sid, report in reports(seeds, rounds):
        sys.stdout.write(json.dumps([sid, report]) + "\n")


def _baseline(path: str, seeds, rounds) -> dict:
    """The reports of the library under ``path/src``, built in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(path).resolve() / "src"))
    cmd = [sys.executable, __file__, "--dump", "--seeds", *map(str, seeds), "--rounds", str(rounds)]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
    return dict(json.loads(line) for line in done.stdout.splitlines())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(SEEDS))
    parser.add_argument("--rounds", type=int, default=ROUNDS,
                        help="rounds per corpus; 0 for each workload's own")
    parser.add_argument("--write", action="store_true", help="rewrite digests.json")
    parser.add_argument("--baseline", help="a checkout whose reports to diff against")
    parser.add_argument("--dump", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.dump:
        _dump(args.seeds, args.rounds)
        return 0
    sys.path.insert(0, str(ROOT / "src"))
    new = dict(reports(args.seeds, args.rounds))
    digests = {sid: digest(r) for sid, r in new.items()}
    if args.write:
        if (tuple(args.seeds), args.rounds) != (SEEDS, ROUNDS):
            parser.error(f"digests.json holds seeds {SEEDS} at {ROUNDS} rounds")
        DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {len(digests)} digests to {DIGESTS}")
        return 0
    if args.baseline:
        old = _baseline(args.baseline, args.seeds, args.rounds)
        differ = [sid for sid in new if sid not in old or canonical(old[sid]) != canonical(new[sid])]
        for sid in differ:
            print(sid)
            for path, diff in changed_fields(old.get(sid, {}), new[sid]):
                print(f"  {path}: {'not a number' if diff is None else f'{diff:.3g}'}")
        print(f"{len(new) - len(differ)} of {len(new)} reports identical to {args.baseline}")
        return 1 if differ else 0
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    differ = [sid for sid in digests if recorded.get(sid) != digests[sid]]
    for sid in differ:
        print(f"{sid}: digest changed (diff against the old code with --baseline)")
    print(f"{len(digests) - len(differ)} of {len(digests)} digests as recorded")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

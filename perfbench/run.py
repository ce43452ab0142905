#!/usr/bin/env python3
"""loopflow benchmark: seeded scenario corpora through ``execute_scenario``.

    python3 perfbench/run.py --workload descent|restart|analysis \\
        --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ``src/``.  One
closed-loop client in one process runs the workload's corpus in order: the
next scenario starts when the previous one has finished, its report has been
serialized as the CLI does, and the client has checked that report against a
brute oracle.  The checks are outside the timed region: the timed phase is
about ``--seconds`` of scenario time (longer if the first pass needs it to
reach 100 scenarios), in four passes over the same scenarios, and a
scenario's latency is the mean of its four runs: the speed of a shared
machine flips between states about 35% apart every few seconds, and four
runs that lie a quarter of the run apart average over those states.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends half of
``--seconds`` untraced and half with span tracing installed on every layer,
over the same corpus, and prints the per-layer metrics and the tracing
overhead; its spans are written to ``.perfbench/``.  The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
MIN_LATENCY_SAMPLES = 100
REPEATS = 4  # timed passes over the scenarios of a run; a scenario's latency is their mean
SETUPS_PER_PASS = 1

END_TO_END = [
    ("throughput_sps", "scenarios/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
]

_IMPORT_PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path.insert(0, 'src')\n"
    "import loopflow.cli\n"
    "print(time.perf_counter() - t)\n"
)


def fresh_import_seconds() -> float:
    """Import time of the library in a new interpreter."""
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], cwd=ROOT, check=True,
                          capture_output=True, text=True, timeout=120)
    return float(done.stdout.strip().splitlines()[-1])


def src_lines() -> int:
    total = 0
    for folder, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


class Result:
    """One scenario of a timed phase: its time on each repeat and its oracle
    verdict, or the error it raised.  Reports are dropped once checked; only
    a digest of the last checked one is kept, so memory does not grow with
    the number of scenarios run."""

    __slots__ = ("entry", "times", "error", "problems", "digest")

    def __init__(self, entry):
        self.entry = entry
        self.times = []
        self.error = None
        self.problems = []
        self.digest = None

    @property
    def latency(self):
        """Mean of the repeats, or None when the scenario raised."""
        return None if self.error is not None else sum(self.times) / len(self.times)


def run_one(cli, errors, entry, tracer=None):
    """Execute and serialize one scenario; (seconds, report text or None,
    error message or None)."""
    if tracer:
        tracer.scenario = entry["id"]
    started = time.perf_counter()
    try:
        report = cli.execute_scenario(entry["doc"])
    except errors as exc:
        return time.perf_counter() - started, None, f"{type(exc).__name__}: {exc}"
    span = tracer.open("cli.serialize") if tracer else None
    text = json.dumps(report, sort_keys=True, indent=2)
    if tracer:
        tracer.close(span, len(text))
    return time.perf_counter() - started, text, None


def run_checked(cli, errors, oracles, result, tracer=None) -> float:
    """One repeat of ``result``'s scenario; the oracle check of its report is
    outside the returned time.  A report identical to the one checked before
    is not checked again."""
    elapsed, text, error = run_one(cli, errors, result.entry, tracer)
    result.times.append(elapsed)
    if error is not None:
        result.error = result.error or error
        return elapsed
    digest = hashlib.blake2b(text.encode(), digest_size=16).digest()
    if digest != result.digest and not result.problems:
        result.problems = oracles.check(result.entry, json.loads(text))
        result.digest = digest
    return elapsed


def timed_phase(cli, errors, oracles, corpus, seconds, min_scenarios=1, tracer=None,
                after_pass=None):
    """Closed loop over the corpus for about ``seconds`` of scenario time, in
    REPEATS passes.  The first pass takes scenarios in corpus order until it
    has lasted ``seconds / REPEATS`` and holds ``min_scenarios``; the later
    passes run the same scenarios again, so a scenario's repeats lie a
    quarter of the run apart.  ``after_pass`` is called, untimed, after each
    pass.  Returns the results; every distinct report is checked."""
    results = []
    spent = 0.0
    while len(results) < min_scenarios or spent < seconds / REPEATS:
        results.append(Result(corpus[len(results) % len(corpus)]))
        spent += run_checked(cli, errors, oracles, results[-1], tracer)
    for repeat in range(REPEATS):
        if repeat:
            for result in results:
                run_checked(cli, errors, oracles, result, tracer)
        if after_pass:
            after_pass()
    return results


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (q in [0, 100]) of a non-empty list."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def summarize(oracles, results):
    """Counts and rates of one phase.  Counts are of executions: each
    scenario runs REPEATS times.  A scenario fails when it raises, or when a
    report fails the oracle: ``known`` for the sampled-index grid miss the
    oracle recognises, ``wrong`` for anything else.  Throughput and latency
    use each scenario's mean over its repeats."""
    finished = [r for r in results if r.error is None]
    good = [r for r in finished if not r.problems]
    known = [r for r in finished if oracles.is_known_defect(r.problems)]

    def runs(rs):
        return sum(len(r.times) for r in rs)

    return {
        "attempted": runs(results),
        "raised": runs(results) - runs(finished),
        "known": runs(known),
        "wrong": runs(finished) - runs(good) - runs(known),
        "failed": runs(results) - runs(good),
        "scenarios": len(results),
        "throughput_sps": len(good) / sum(r.latency for r in finished) if finished else 0.0,
        "latencies_ms": [1000.0 * r.latency for r in finished],
    }


def print_failures(results) -> None:
    kinds = {}
    for r in results:
        if r.error is not None:
            key = (r.entry["size"], r.error)
            kinds[key] = kinds.get(key, 0) + 1
    for (size, error), n in sorted(kinds.items()):
        print(f"  raised x{n}  {size}  {error}")
    for r in results:
        if r.problems:
            print(f"  failed oracle  {r.entry['id']} ({r.entry['size']}): {'; '.join(r.problems[:4])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("descent", "restart", "analysis"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must not be negative")

    if not os.path.isfile(os.path.join(SRC, "loopflow", "cli.py")):
        print(f"error: no loopflow sources under {SRC}", file=sys.stderr)
        return 2

    # -- set-up: import, corpus generation, warm-up.  setup_s is the median of
    # one set-up before the timed phase and SETUPS_PER_PASS after each pass, so
    # that the set-ups, like the passes, sample the whole run --------------------
    began = time.perf_counter()
    sys.path.insert(0, SRC)
    import loopflow.cli as cli
    from loopflow.errors import GeometryError, ValidationError
    import_s = time.perf_counter() - began
    errors = (ValidationError, GeometryError)

    import corpus as corpora
    import oracles
    import tracing

    setups = []

    def set_up(imported: float) -> list[dict]:
        began = time.perf_counter()
        built = corpora.build(args.workload, args.seed)
        for entry in corpora.warmup(args.workload, args.seed):
            run_one(cli, errors, entry)
        setups.append(imported + time.perf_counter() - began)
        return built

    def set_up_again() -> None:
        for _ in range(SETUPS_PER_PASS):
            set_up(fresh_import_seconds())

    corpus = set_up(import_s)

    # -- timed phase(s); a traced run splits its time between an untraced and
    # a traced phase over the same corpus ----------------------------------------
    seconds = args.seconds / 2.0 if args.trace else args.seconds
    # a run that reports latency percentiles holds enough scenarios for p90,
    # however slow the machine; a smoke run (--seconds 0) holds one
    min_scenarios = MIN_LATENCY_SAMPLES if args.seconds > 0 and not args.trace else 1
    results = timed_phase(cli, errors, oracles, corpus, seconds, min_scenarios,
                          after_pass=set_up_again)
    setup_s = statistics.median(setups)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    plain = summarize(oracles, results)
    everything = results
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = timed_phase(cli, errors, oracles, corpus, seconds, tracer=tracer)
        finally:
            tracer.uninstall()
        everything = results + traced
    total = summarize(oracles, everything)
    traced_runs = total["attempted"] - plain["attempted"]

    print(f"loopflow perfbench  workload={args.workload}  seed={args.seed}  "
          f"trace={args.trace}  seconds={args.seconds:g}")
    print(f"src_lines={src_lines()}")
    print(f"executions: attempted={total['attempted']} ({total['scenarios']} scenarios x {REPEATS})  "
          f"failed={total['failed']} (raised={total['raised']}, known={total['known']}, "
          f"wrong={total['wrong']})  "
          f"failed_frac={total['failed'] / total['attempted']:.4f} ratio")
    print_failures(everything)

    lat = plain["latencies_ms"]
    if args.trace:
        untraced_sps = plain["throughput_sps"]
        traced_sps = summarize(oracles, traced)["throughput_sps"]
        values = tracing.layer_metrics(tracer.spans, tracer.counts, traced_runs)
        values["trace.throughput_sps"] = traced_sps
        values["trace.untraced_sps"] = untraced_sps
        values["trace.overhead_frac"] = untraced_sps / traced_sps - 1.0 if traced_sps else 0.0
        metrics = {name: values[name] for name, _, _ in tracing.PER_LAYER}
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
        spans_path = os.path.join(ROOT, ".perfbench", f"spans-{args.workload}-s{args.seed}.tsv.gz")
        with gzip.open(spans_path, "wt", encoding="utf-8", compresslevel=1) as fh:
            tracer.write_spans(fh)
        print(f"traced phase: {traced_runs} executions, {len(tracer.spans)} spans -> "
              f"{os.path.relpath(spans_path, ROOT)}")
    else:
        if len(lat) < MIN_LATENCY_SAMPLES:
            print(f"warning: {len(lat)} latency samples; p90 wants at least {MIN_LATENCY_SAMPLES}")
        metrics = {
            "throughput_sps": plain["throughput_sps"],
            "latency_ms_p50": percentile(lat, 50) if lat else 0.0,
            "latency_ms_p90": percentile(lat, 90) if lat else 0.0,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        units = dict(END_TO_END)
        print(f"latency samples={len(lat)} (finished scenarios, mean of {REPEATS} runs each, untraced); "
              f"setup runs={[round(s, 4) for s in setups]}")

    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.6f} {units[name]}")
    result = {
        "correct": total["wrong"] == 0,
        "attempted": total["attempted"],
        "failed": total["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself: corpus determinism, oracles, span arithmetic
and a one-scenario smoke run of every workload.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import corpus  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from loopflow.cli import execute_scenario  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _report(entry):
    return json.loads(json.dumps(execute_scenario(entry["doc"]), sort_keys=True, indent=2))


def _first(workload, size, seed=0):
    return next(e for e in corpus.build(workload, seed, rounds=2) if e["size"] == size)


# -- corpus -----------------------------------------------------------------------


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_corpus_is_identical_for_a_seed(workload):
    assert json.dumps(corpus.build(workload, 7)) == json.dumps(corpus.build(workload, 7))
    assert json.dumps(corpus.build(workload, 7)) != json.dumps(corpus.build(workload, 8))


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_every_seed_has_the_same_mix_and_size_classes(workload):
    def shape(entry):
        doc = entry["doc"]
        subs = entry["expect"].get("subs", [])
        return (entry["size"], doc["command"], json.dumps(doc.get("space")),
                [s["doc"]["command"] for s in subs])

    a = [shape(e) for e in corpus.build(workload, 1)]
    b = [shape(e) for e in corpus.build(workload, 12345)]
    assert a == b


def test_workloads_match_the_benchmark_spec():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(corpus.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.PER_LAYER


# -- oracles: each accepts the real report and rejects a corrupted one ----------------


def _bump_minind(out):
    out["minind"] += 1


def _drop_closed_form(out):
    out["closed_form_minind"] += 2


def _lower_minind(out):
    out["minind"] -= 1


def _flip_openly(out):
    out["openly"] = not out["openly"]


def _bump_profile(out):
    out["profile"][-1]["minind"] += 1


def _bend_eigenvalue(out):
    out["eigenvalues"][-1] += 0.5


def _extra_candidate(out):
    out["count"] += 1


def _drop_gradient_like(out):
    out["gradient_like"] = out["gradient_like"][:1]


def _stretch_distance(out):
    out["distance"] *= 1.01


def _raise_energy(out):
    out["trace"]["energies"][-1] = out["trace"]["energies"][0] + 1.0


def _move_limit_point(out):
    out["trace"]["final"]["points"][0]["coords"][0] += 0.05


def _worsen_restart(out):
    r = out["reports"][0]
    r["after_minind"] = r["before_minind"] + 2
    r["after"]["class"] = [m * 3 for m in r["after"]["class"]]


def _wrong_before(out):
    out["reports"][0]["before_minind"] += 2


def _corrupt_sub(out):
    out["reports"][0]["outputs"]["minind"] += 1


CASES = [
    ("analysis", "minind/T2", _bump_minind),
    ("analysis", "minind/T2", _drop_closed_form),
    ("analysis", "minind/DR-v", _lower_minind),
    ("analysis", "openly/T3", _flip_openly),
    ("analysis", "openly/DR-v", _flip_openly),
    ("analysis", "probe/T2", _bump_profile),
    ("analysis", "probe/DR-v", _bump_profile),
    ("analysis", "hessian/T2/k4", _bend_eigenvalue),
    ("analysis", "candgrad/T2-cut", _extra_candidate),
    ("analysis", "candgrad/T2-cut", _drop_gradient_like),
    ("analysis", "dist/DR", _stretch_distance),
    ("analysis", "sweep/4", _corrupt_sub),
    ("descent", "T2/k6/descend", _raise_energy),
    ("descent", "T2/k6/descend", _move_limit_point),
    ("restart", "T2/1,2/r1", _worsen_restart),
    ("restart", "T2/2,1/r2", _wrong_before),
]


@pytest.mark.parametrize("workload,size,corrupt", CASES,
                         ids=[f"{s}-{c.__name__}" for _, s, c in CASES])
def test_oracle_rejects_a_corrupted_report(workload, size, corrupt):
    entry = _first(workload, size)
    report = _report(entry)
    assert oracles.check(entry, report) == []
    bad = copy.deepcopy(report)
    corrupt(bad["outputs"])
    assert oracles.check(entry, bad)


def test_oracle_rejects_an_echo_of_another_command():
    entry = _first("analysis", "dist/PT")
    report = _report(entry)
    report["command"] = "minind"
    assert oracles.check(entry, report)


def test_dense_scan_agrees_with_the_closed_form_index():
    geod = {"kind": "torus_class", "base": {"coords": [0.1, 0.2], "face": None}, "class": [1, 3]}
    loop = oracles.Loop(corpus.T2, geod)
    assert loop.index_problem(6, "k") is None
    assert loop.index_problem(5, "k") is not None
    assert loop.index_problem(7, "k") is not None


def test_dense_scan_finds_the_known_doubled_rectangle_index():
    # the horizontal loop at height 0.1 needs k >= 20 (4/k <= 2 * 0.1)
    geod = corpus.dr_segment_geodesic("horizontal", 0.1, 0.5)
    loop = oracles.Loop(corpus.DR, geod)
    assert loop.index_problem(20, "k") is None
    assert not loop.is_k(19)


@pytest.mark.parametrize("family", ["vertical", "horizontal"])
def test_index_steps_at_every_critical_offset(family):
    # by the dense scan, a loop DR_MARGIN further from the nearest edge than
    # a critical offset is 1/k, and one DR_MARGIN nearer is not: the band and
    # the windows the corpus avoids are where the geometry puts them
    length, width = corpus.dr_axis(family)
    for c in corpus.dr_critical_offsets(family):
        m = min(c, width - c)
        k = round(length / (2.0 * m))
        inward = 1.0 if c < width / 2.0 else -1.0
        cases = [(c - inward * corpus.DR_MARGIN, False)]
        if m < width / 2.0:  # at the centre line both sides are nearer an edge
            cases.append((c + inward * corpus.DR_MARGIN, True))
        for offset, is_k in cases:
            loop = oracles.Loop(corpus.DR, corpus.dr_segment_geodesic(family, offset, 0.5))
            assert loop.is_k(k) is is_k, (family, c, offset, k)


def test_analysis_corpus_keeps_clear_of_the_known_index_defects():
    for seed in (0, 1):
        for entry in corpus.build("analysis", seed, rounds=1):
            if entry["doc"].get("space") == corpus.DR and entry["doc"]["command"] != "dist":
                assert oracles.check(entry, _report(entry)) == [], entry["id"]


def test_sampled_grid_miss_is_a_known_defect_and_other_errors_are_not():
    # a vertical loop just inside x = 1/3 is not 1/3 (sheet-1 lifts of width
    # 2x < 2/3 appear in a narrow window), but loopflow's 192-point grid for
    # k = 3 misses the window and reports 3
    geod = corpus.dr_segment_geodesic("vertical", 0.33331045434698636, 0.5793240165218595)
    entry = {"id": "grid-miss", "size": "minind/DR-v", "expect": {},
             "doc": {"schema": 1, "space": corpus.DR, "command": "minind", "seed": 0,
                     "inputs": {"geodesic": geod}}}
    report = _report(entry)
    problems = oracles.check(entry, report)
    if report["outputs"]["minind"] == 3:
        assert oracles.is_known_defect(problems)
    else:
        assert problems == []  # the sampled index got exact here
    report["outputs"]["minind"] = 2
    assert not oracles.is_known_defect(oracles.check(entry, report))


# -- spans ----------------------------------------------------------------------------


def _span(name, start, end, parent=None, size=None, thread=1):
    return tracing.Span(name, start, end, parent, "s", thread, size)


def test_self_time_of_a_hand_built_tree():
    spans = [
        _span("cli.sweep", 0.0, 10.0),                      # 0
        _span("cli.execute", 1.0, 4.0, 0, thread=2),        # 1 pool thread
        _span("cli.execute", 3.0, 6.0, 0, thread=3),        # 2 overlaps 1
        _span("spaces.mingeo", 2.0, 3.0, 1, thread=2),      # 3
        _span("spaces.distance", 2.5, 2.75, 3, thread=2),   # 4
        _span("energy.uniform", 5.5, 7.0, 2, thread=3),     # 5 runs past its parent
    ]
    got = tracing.self_times(spans)
    want = [10.0 - 5.0, 3.0 - 1.0, 3.0 - 0.5, 1.0 - 0.25, 0.25, 1.5]
    assert got == pytest.approx(want)


def test_layer_metrics_count_calls_tuples_and_ratios():
    spans = [
        _span("energy.candgrad", 0.0, 1.0, size=6),         # 0
        _span("spaces.mingeo", 0.1, 0.2, 0, size=2),        # 1 product
        _span("spaces.mingeo", 0.12, 0.18, 1, size=2),      # 2 its factor: not a call
        _span("spaces.mingeo", 0.3, 0.4, 0, size=4),        # 3
        _span("flow.descend", 1.0, 2.0, size=(3, 1)),       # 4
        _span("energy.uniform", 1.1, 1.2, 4),               # 5
        _span("energy.uniform", 1.3, 1.4, 4),               # 6
        _span("energy.uniform", 1.5, 1.6, 4),               # 7
        _span("energy.uniform", 1.7, 1.8, 4),               # 8
        _span("flow.restart", 2.0, 3.0, size="improved"),   # 9
        _span("flow.restart", 3.0, 4.0, size="collapsed"),  # 10
    ]
    m = tracing.layer_metrics(spans, {"geodesics.k_tested": 8}, scenarios=2)
    assert m["spaces.mingeo.calls"] == 1.0
    assert m["spaces.mingeo.ties"] == 3.0
    assert m["energy.candidates"] == 3.0
    assert m["energy.tuples"] == 4.0
    assert m["energy.dedup_ratio"] == pytest.approx(6 / 8)
    assert m["flow.iterations"] == 1.5 and m["flow.nudges"] == 0.5
    assert m["flow.trials"] == 2.0 and m["flow.accept_ratio"] == pytest.approx(3 / 4)
    assert m["flow.restart.improved"] == 0.5
    assert m["geodesics.k_tested"] == 4.0
    assert m["spaces.mingeo.self_ms"] == pytest.approx(1000.0 * (0.04 + 0.06 + 0.1) / 2)


def test_tracer_attaches_sweep_threads_and_uninstalls():
    import loopflow.cli as cli
    import loopflow.energy as energy
    import loopflow.flow as flow

    originals = (cli.execute_scenario, energy.gradient_like, flow.gradient_like)
    entry = _first("analysis", "sweep/4")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert flow.gradient_like is energy.gradient_like is not originals[1]
        tracer.scenario = entry["id"]
        report = cli.execute_scenario(entry["doc"])
    finally:
        tracer.uninstall()
    assert (cli.execute_scenario, energy.gradient_like, flow.gradient_like) == originals
    assert oracles.check(entry, json.loads(json.dumps(report))) == []
    spans = tracer.spans
    assert spans[0].name == "cli.sweep" and spans[0].parent is None
    subs = [s for s in spans if s.name == "cli.execute"]
    assert len(subs) == 4 and all(s.parent == 0 for s in subs)
    assert all(s.scenario == entry["id"] for s in spans)
    assert {s.thread for s in subs} != {spans[0].thread}
    assert tracer.counts["geodesics.k_tested"] > 0


# -- smoke runs -----------------------------------------------------------------------


def _run(args, cwd):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py")] + args,
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_one_scenario_smoke_run_prints_every_metric(workload, trace):
    done = _run(["--workload", workload, "--seed", "0", "--seconds", "0", "--trace", str(trace)], ROOT)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] == run.REPEATS * (1 + trace)
    assert result["failed"] == 0
    spec = _spec()["per_layer" if trace else "end_to_end"]
    assert [m["name"] for m in spec] == list(result["metrics"])
    text = "\n".join(lines[:-1])
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert f" {m['name']} " in text and text.count(m["unit"]) >= 1
    assert "seed=0" in text and "src_lines=" in text and "attempted=" in text


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    done = _run(["--workload", "restart", "--seed", "0", "--seconds", "1", "--trace", "0"], tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout

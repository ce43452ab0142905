"""Scenario CLI: execution, validation, reports, plot data, determinism."""

import csv
import json
import subprocess
import sys
import time

import pytest
from conftest import strip_timing

import loopflow.cli
import loopflow.geodesics
from loopflow.cli import emit_plot_data, execute_scenario, main, run_scenario

TREC_SPACE = {"type": "flat_torus", "periods": [1.0, 0.75]}
DOUBLE_SPACE = {"type": "doubled_rectangle", "a": 2.0, "b": 1.0}

MININD_12 = {
    "schema": 1,
    "space": TREC_SPACE,
    "command": "minind",
    "seed": 0,
    "inputs": {
        "geodesic": {
            "kind": "torus_class",
            "base": {"coords": [0.125, 0.0625], "face": None},
            "class": [1, 2],
        }
    },
}

SQUARE_POINTS = [
    {"coords": [0.125, 0.0625], "face": None},
    {"coords": [0.375, 0.4375], "face": None},
    {"coords": [0.625, 0.0625], "face": None},
    {"coords": [0.875, 0.4375], "face": None},
]

SLIDE_PROBE = {
    "schema": 1,
    "space": DOUBLE_SPACE,
    "command": "probe",
    "seed": 0,
    "inputs": {
        "variation": {
            "geodesic": {
                "kind": "segment_loop",
                "base": {"coords": [0.5, 0.5], "face": "top"},
                "direction": [0.0, 1.0],
                "length": 2.0,
            },
            "field": [-1.0, 0.0],
            "s_max": 0.1,
            "steps": 11,
            "perpendicular": True,
        }
    },
}

MININD_DR = dict(SLIDE_PROBE, command="minind",
                 inputs={"geodesic": SLIDE_PROBE["inputs"]["variation"]["geodesic"]})

FLOW_NOISY = {
    "schema": 1,
    "space": TREC_SPACE,
    "command": "flow",
    "seed": 7,
    "inputs": {
        "points": SQUARE_POINTS,
        "method": "descend",
        "perturb": {"magnitude": 0.02},
    },
}


OPENLY_12 = dict(MININD_12, command="openly", inputs=dict(MININD_12["inputs"], k=4))
RESTART_12 = dict(MININD_12, command="restart")
HESSIAN_LINE = {
    "schema": 1,
    "space": TREC_SPACE,
    "command": "hessian",
    "seed": 0,
    "inputs": {"points": [{"coords": [x, 0.25], "face": None} for x in (0.0, 0.25, 0.5, 0.75)]},
}
SWEEP = {"schema": 1, "command": "sweep", "seed": 0,
         "inputs": {"scenarios": [MININD_12, FLOW_NOISY]}}
DPLUS_T2 = {
    "schema": 1,
    "space": TREC_SPACE,
    "command": "dplus",
    "seed": 0,
    "inputs": {"p": {"coords": [0.1, 0.2]}, "q": {"coords": [0.4, 0.3]},
               "v": [1.0, 0.0], "w": [0.0, 1.0]},
}
ENERGY_SQUARE = {
    "schema": 1,
    "space": TREC_SPACE,
    "command": "energy",
    "seed": 0,
    "inputs": {"points": SQUARE_POINTS,
               "tangent": [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [1.0, 1.0]]},
}


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class TestRunScenario:
    def test_minind_report(self, tmp_path):
        out = str(tmp_path / "report.json")
        code = run_scenario(write(tmp_path, "s.json", MININD_12), out)
        assert code == 0
        report = load(out)
        assert report["outputs"]["minind"] == 4
        assert report["outputs"]["closed_form_minind"] == 4
        assert report["schema"] == 1
        assert len(report["digest"]) == 64

    def test_candgrad_example_configuration(self, tmp_path):
        scenario = {
            "schema": 1,
            "space": TREC_SPACE,
            "command": "candgrad",
            "seed": 0,
            "inputs": {"points": SQUARE_POINTS},
        }
        out = str(tmp_path / "report.json")
        assert run_scenario(write(tmp_path, "s.json", scenario), out) == 0
        report = load(out)
        assert report["outputs"]["count"] == 15
        assert len(report["outputs"]["gradient_like"]) == 2

    def test_malformed_space_exits_2(self, tmp_path, capsys):
        bad = dict(MININD_12, space={"type": "flat_torus", "periods": [1.0, -1.0]})
        code = run_scenario(write(tmp_path, "bad.json", bad), str(tmp_path / "r.json"))
        assert code == 2
        assert "positive" in capsys.readouterr().err

    def test_missing_field_names_path(self, tmp_path, capsys):
        bad = {"schema": 1, "space": TREC_SPACE, "command": "minind", "seed": 0, "inputs": {}}
        code = run_scenario(write(tmp_path, "bad.json", bad), str(tmp_path / "r.json"))
        assert code == 2
        assert "inputs.geodesic" in capsys.readouterr().err

    def test_unparseable_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert run_scenario(str(path), str(tmp_path / "r.json")) == 2
        assert "line" in capsys.readouterr().err

    def test_numerical_failure_exits_3(self, tmp_path, capsys):
        # sliding far enough runs the loop into a cone point
        bad = json.loads(json.dumps(SLIDE_PROBE))
        bad["inputs"]["variation"]["s_max"] = 0.5
        bad["inputs"]["variation"]["steps"] = 5
        bad["inputs"]["variation"]["perpendicular"] = False
        code = run_scenario(write(tmp_path, "s.json", bad), str(tmp_path / "r.json"))
        assert code == 3
        assert "numerical error" in capsys.readouterr().err

    def _bad_param_exits_2(self, tmp_path, capsys, key, value):
        bad = dict(MININD_12, params={key: value})
        code = run_scenario(write(tmp_path, "bad.json", bad), str(tmp_path / "r.json"))
        assert code == 2
        assert f"params.{key}" in capsys.readouterr().err

    def test_negative_samples_exits_2(self, tmp_path, capsys):
        # an empty sample set used to pass every check: minind 2 next to closed form 4
        self._bad_param_exits_2(tmp_path, capsys, "samples", -5)

    def test_negative_tol_exits_2(self, tmp_path, capsys):
        # used to exit 3 with "no k <= 7 minimizes"
        self._bad_param_exits_2(tmp_path, capsys, "tol", -1)

    def test_string_tol_exits_2(self, tmp_path, capsys):
        # used to end in a ValueError traceback
        self._bad_param_exits_2(tmp_path, capsys, "tol", "abc")

    @pytest.mark.parametrize(
        "key, value",
        [
            ("step", "abc"),  # used to end in a ValueError traceback
            ("grad_tol", float("inf")),  # used to report converged after 0 iterations
            ("perturb_eps", float("inf")),
            ("energy_tol", float("nan")),
            ("backtrack", "0.5"),  # used to be parsed from the string
            ("max_iters", 2.7),  # used to be truncated to 2
            ("record_every", True),
        ],
    )
    def test_bad_flow_param_exits_2(self, tmp_path, capsys, key, value):
        bad = dict(FLOW_NOISY, params={key: value})
        code = run_scenario(write(tmp_path, "bad.json", bad), str(tmp_path / "r.json"))
        assert code == 2
        assert f"params.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc, path, value",
        [
            (OPENLY_12, ("inputs", "k"), "abc"),  # used to end in a ValueError traceback
            (OPENLY_12, ("inputs", "k"), 4.7),  # used to be truncated to 4
            (SLIDE_PROBE, ("inputs", "k"), 2.5),
            (RESTART_12, ("inputs", "rounds"), 0),  # used to give an empty report
            (SLIDE_PROBE, ("inputs", "variation", "s_max"), float("nan")),
            (SLIDE_PROBE, ("inputs", "variation", "steps"), 4.5),  # used to be truncated
            (FLOW_NOISY, ("inputs", "perturb", "magnitude"), -0.01),
            (HESSIAN_LINE, ("inputs", "zero_tol"), -1.0),
            # a ValueError traceback
            (SLIDE_PROBE, ("inputs", "variation", "field"), "up"),
            # a report holding NaN, with exit 0
            (SLIDE_PROBE, ("inputs", "variation", "field"), [float("nan"), 1.0]),
            # read as true
            (SLIDE_PROBE, ("inputs", "variation", "perpendicular"), "no"),
            # a traceback
            (DPLUS_T2, ("inputs", "v"), [1.0, 0.0, 0.0]),
            (DPLUS_T2, ("inputs", "w"), [0.0, float("inf")]),
            # a ValueError traceback, and "cannot convert float NaN to integer"
            (SLIDE_PROBE, ("inputs", "variation", "geodesic", "length"), "x"),
            (SLIDE_PROBE, ("inputs", "variation", "geodesic", "length"), float("nan")),
            (SLIDE_PROBE, ("inputs", "variation", "geodesic", "length"), 0.0),
            (SLIDE_PROBE, ("inputs", "variation", "geodesic", "direction"), [0.0, 0.0]),
            (SLIDE_PROBE, ("inputs", "variation", "geodesic", "direction"), [1.0, float("nan")]),
            (SLIDE_PROBE, ("inputs", "variation", "geodesic", "direction"), [1.0]),
            (SLIDE_PROBE, ("inputs", "variation", "geodesic", "direction"), [1e308, 1e308]),
            (SLIDE_PROBE, ("inputs", "variation", "geodesic", "direction"), "up"),
            (SLIDE_PROBE, ("inputs", "variation", "geodesic", "direction"), [10**200, 0]),
            (MININD_DR, ("inputs", "geodesic", "length"), "x"),
            (MININD_DR, ("inputs", "geodesic", "direction"), [0.0, float("inf")]),
        ],
    )
    def test_bad_input_exits_2(self, tmp_path, capsys, doc, path, value):
        bad = json.loads(json.dumps(doc))
        node = bad
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        code = run_scenario(write(tmp_path, "bad.json", bad), str(tmp_path / "r.json"))
        assert code == 2
        assert ".".join(path) in capsys.readouterr().err

    def test_valid_dplus_and_energy_tangent_run(self, tmp_path):
        for doc in (DPLUS_T2, ENERGY_SQUARE):
            assert run_scenario(write(tmp_path, "s.json", doc), str(tmp_path / "r.json")) == 0

    def test_nan_energy_tangent_row_exits_2(self, tmp_path, capsys):
        # used to give a report holding NaN, with exit 0
        bad = json.loads(json.dumps(ENERGY_SQUARE))
        bad["inputs"]["tangent"][1] = [0.0, float("nan")]
        assert run_scenario(write(tmp_path, "bad.json", bad), str(tmp_path / "r.json")) == 2
        assert "inputs.tangent[1]" in capsys.readouterr().err

    def test_non_finite_report_exits_3(self, tmp_path, capsys, monkeypatch):
        # a report used to be written with NaN, which is not JSON
        monkeypatch.setattr(loopflow.cli, "execute_scenario",
                            lambda scenario, overrides: {"outputs": {"distance": float("nan")}})
        out = tmp_path / "r.json"
        assert run_scenario(write(tmp_path, "s.json", DPLUS_T2), str(out)) == 3
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    def test_restart_beyond_the_point_cap_exits_3(self, tmp_path, capsys):
        huge = json.loads(json.dumps(RESTART_12))
        huge["inputs"]["geodesic"]["class"] = [10**6, 1]
        code = run_scenario(write(tmp_path, "huge.json", huge), str(tmp_path / "r.json"))
        assert code == 3
        assert "MAX_RESTART_POINTS" in capsys.readouterr().err

    @pytest.mark.parametrize("steps", [loopflow.geodesics.MAX_PROBE_STEPS + 1, 10**7])
    def test_probe_beyond_the_steps_cap_exits_3(self, tmp_path, capsys, steps):
        # each step is a full variation check: 10**7 of them ran unbounded
        huge = json.loads(json.dumps(SLIDE_PROBE))
        huge["inputs"]["variation"]["steps"] = steps
        started = time.perf_counter()
        code = run_scenario(write(tmp_path, "huge.json", huge), str(tmp_path / "r.json"))
        assert time.perf_counter() - started < 1.0
        assert code == 3
        assert "MAX_PROBE_STEPS" in capsys.readouterr().err

    def test_hessian_beyond_the_dimension_cap_exits_3(self, tmp_path, capsys):
        # central differences on this input ran for hours
        huge = dict(HESSIAN_LINE, inputs={
            "points": [{"coords": [i / 600, 0.25], "face": None} for i in range(600)]})
        started = time.perf_counter()
        code = run_scenario(write(tmp_path, "huge.json", huge), str(tmp_path / "r.json"))
        assert time.perf_counter() - started < 1.0
        assert code == 3
        assert "MAX_HESSIAN_DIM" in capsys.readouterr().err

    def test_hessian_straight_loop_at_tight_zero_tol(self, tmp_path):
        # central differences gave index 2, nullity 0, degenerate false here
        scenario = dict(HESSIAN_LINE, inputs={
            "points": [{"coords": [x, 0.2], "face": None} for x in (0.1, 0.35, 0.6, 0.85)],
            "zero_tol": 1e-10,
        })
        out = str(tmp_path / "r.json")
        assert run_scenario(write(tmp_path, "s.json", scenario), out) == 0
        report = load(out)["outputs"]
        assert (report["index"], report["nullity"], report["degenerate"]) == (0, 2, True)

    def test_openly_at_huge_k_returns_fast(self, tmp_path):
        # sampling 64 points per arc ran out of memory here
        scenario = {
            "schema": 1,
            "space": DOUBLE_SPACE,
            "command": "openly",
            "seed": 0,
            "inputs": {"geodesic": SLIDE_PROBE["inputs"]["variation"]["geodesic"], "k": 10**7},
        }
        out = str(tmp_path / "r.json")
        started = time.perf_counter()
        assert run_scenario(write(tmp_path, "s.json", scenario), out) == 0
        assert time.perf_counter() - started < 1.0
        assert load(out)["outputs"] == {"k": 10**7, "is_k_geodesic": True, "openly": True}

    def test_samples_is_accepted_and_echoed(self, tmp_path):
        out = str(tmp_path / "r.json")
        assert run_scenario(write(tmp_path, "s.json", dict(MININD_12, params={"samples": 8})), out) == 0
        report = load(out)
        assert report["params_resolved"]["samples"] == 8
        assert report["outputs"]["minind"] == 4

    def test_determinism_modulo_wall_time(self, tmp_path):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        path = write(tmp_path, "s.json", FLOW_NOISY)
        assert run_scenario(path, a) == 0
        assert run_scenario(path, b) == 0
        ra, rb = strip_timing(load(a)), strip_timing(load(b))
        assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)

    @pytest.mark.parametrize("doc", [FLOW_NOISY, RESTART_12, SWEEP], ids=["flow", "restart", "sweep"])
    def test_execute_scenario_is_deterministic(self, doc):
        # every report used to carry its own wall_time_ms
        assert execute_scenario(doc) == execute_scenario(doc)

    def test_only_the_written_report_is_timed(self, tmp_path):
        out = str(tmp_path / "r.json")
        assert run_scenario(write(tmp_path, "s.json", SWEEP), out) == 0
        report = load(out)
        assert report.pop("wall_time_ms") >= 0.0
        assert report == strip_timing(report) == execute_scenario(SWEEP)

    def test_seed_changes_flow_start(self, tmp_path):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        path = write(tmp_path, "s.json", FLOW_NOISY)
        assert run_scenario(path, a) == 0
        assert run_scenario(path, b, seed=8) == 0
        ea = load(a)["outputs"]["trace"]["energies"][0]
        eb = load(b)["outputs"]["trace"]["energies"][0]
        assert ea != eb

    def test_restart_report(self, tmp_path):
        scenario = {
            "schema": 1,
            "space": TREC_SPACE,
            "command": "restart",
            "seed": 0,
            "inputs": {"geodesic": MININD_12["inputs"]["geodesic"]},
        }
        out = str(tmp_path / "r.json")
        assert run_scenario(write(tmp_path, "s.json", scenario), out) == 0
        rep = load(out)["outputs"]["reports"][0]
        assert rep["before_minind"] == 4
        assert rep["after_minind"] == 2
        assert rep["status"] == "improved"

    def test_sweep_runs_concurrently_and_in_order(self, tmp_path):
        scenario = {
            "schema": 1,
            "command": "sweep",
            "seed": 0,
            "jobs": 2,
            "inputs": {"scenarios": [MININD_12, FLOW_NOISY]},
        }
        out = str(tmp_path / "r.json")
        assert run_scenario(write(tmp_path, "s.json", scenario), out, {"jobs": 3}) == 0
        report = load(out)
        assert report["params_resolved"]["jobs"] == 3
        subs = report["outputs"]["reports"]
        assert [r["command"] for r in subs] == ["minind", "flow"]
        assert subs[0]["outputs"]["minind"] == 4

    @pytest.mark.parametrize("value", ["abc", 0, -1])
    @pytest.mark.parametrize("where", ["scenario", "override"])
    def test_bad_jobs_exits_2(self, tmp_path, capsys, value, where):
        # "abc" used to end in a ValueError traceback
        scenario = {"schema": 1, "command": "sweep", "seed": 0,
                    "inputs": {"scenarios": [MININD_12]}}
        overrides = {}
        if where == "scenario":
            scenario["jobs"] = value
        else:
            overrides["jobs"] = value
        code = run_scenario(write(tmp_path, "s.json", scenario), str(tmp_path / "r.json"),
                            overrides)
        assert code == 2
        assert "jobs" in capsys.readouterr().err

    def _bad_document_exits_2(self, tmp_path, capsys, doc, path, value):
        bad = json.loads(json.dumps(doc))
        node = bad
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        assert run_scenario(write(tmp_path, "bad.json", bad), str(tmp_path / "r.json")) == 2
        return capsys.readouterr().err

    @pytest.mark.parametrize("value", [None, "x", -1, 1e308, [], [1], True])
    @pytest.mark.parametrize("doc, path", [
        (FLOW_NOISY, ("inputs",)),
        (FLOW_NOISY, ("inputs", "perturb")),
        (SLIDE_PROBE, ("inputs", "variation")),
        (SWEEP, ("inputs",)),
    ])
    def test_non_object_nested_field_exits_2(self, tmp_path, capsys, doc, path, value):
        # most of these used to end in a TypeError traceback
        err = self._bad_document_exits_2(tmp_path, capsys, doc, path, value)
        assert f"{'.'.join(path)}: expected an object" in err

    @pytest.mark.parametrize("value", [-1, True, 2.5, "0", None])
    def test_bad_seed_exits_2(self, tmp_path, capsys, value):
        # -1 used to reach numpy's default_rng and end in a ValueError traceback
        err = self._bad_document_exits_2(tmp_path, capsys, FLOW_NOISY, ("seed",), value)
        assert "scenario.seed: expected an integer >= 0" in err

    def test_string_torus_period_exits_2(self, tmp_path, capsys):
        # used to end in a ValueError traceback
        err = self._bad_document_exits_2(tmp_path, capsys, MININD_12, ("space", "periods", 0), "x")
        assert "space.periods[0]" in err

    def test_overflowing_torus_period_exits_2(self, tmp_path, capsys):
        # 1e400 parses as inf; it used to end in a traceback
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(MININD_12).replace("0.75", "1e400"), encoding="utf-8")
        assert run_scenario(str(path), str(tmp_path / "r.json")) == 2
        assert "space.periods[1]" in capsys.readouterr().err

    def test_nan_point_coordinate_exits_2(self, tmp_path, capsys):
        # used to end in a traceback
        err = self._bad_document_exits_2(
            tmp_path, capsys, MININD_12, ("inputs", "geodesic", "base", "coords", 1), float("nan"))
        assert "inputs.geodesic.base.coords" in err

    def test_fractional_class_entry_exits_2(self, tmp_path, capsys):
        # [1.5, 1] used to be answered as the class (1, 1)
        err = self._bad_document_exits_2(
            tmp_path, capsys, MININD_12, ("inputs", "geodesic", "class", 0), 1.5)
        assert "inputs.geodesic.class" in err

    def test_candgrad_at_tol_5_on_the_unit_torus_exits_2(self, tmp_path, capsys):
        # used to list lifts such as (-6, 0) as "minimizing" and run past 30 s
        doc = {"schema": 1, "space": {"type": "flat_torus", "periods": [1, 1]},
               "command": "candgrad", "seed": 0, "params": {"tol": 5},
               "inputs": {"points": [{"coords": c} for c in ([0.1, 0.1], [0.6, 0.2], [0.3, 0.7])]}}
        started = time.perf_counter()
        assert run_scenario(write(tmp_path, "s.json", doc), str(tmp_path / "r.json")) == 2
        assert time.perf_counter() - started < 5.0
        assert "params.tol" in capsys.readouterr().err

    @pytest.mark.parametrize("tol, code", [(0.1874, 0), (0.1875, 2)])
    def test_tol_is_bounded_by_a_quarter_of_the_shortest_period(self, tmp_path, capsys, tol, code):
        # min_scale of [1, 0.75] is 0.75; the bound holds for --tol as well
        out = str(tmp_path / "r.json")
        assert run_scenario(write(tmp_path, "s.json", MININD_12), out, {"tol": tol}) == code
        assert ("params.tol" in capsys.readouterr().err) == (code == 2)


class TestPlotData:
    def test_trace_csv_monotone_energy(self, tmp_path):
        rpt = str(tmp_path / "r.json")
        assert run_scenario(write(tmp_path, "s.json", FLOW_NOISY), rpt) == 0
        out = str(tmp_path / "trace.csv")
        assert emit_plot_data(rpt, "trace", out) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        energies = [float(r["energy"]) for r in rows]
        assert energies == sorted(energies, reverse=True)
        assert set(rows[0]) == {"iteration", "energy", "grad_norm"}

    def test_profile_csv_steps_two_to_three(self, tmp_path):
        rpt = str(tmp_path / "r.json")
        assert run_scenario(write(tmp_path, "s.json", SLIDE_PROBE), rpt) == 0
        out = str(tmp_path / "profile.csv")
        assert emit_plot_data(rpt, "profile", out) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            expected = 3 if float(row["s"]) > 0 else 2
            assert int(row["minind"]) == expected

    def test_curve_csv_closes_up(self, tmp_path):
        rpt = str(tmp_path / "r.json")
        assert run_scenario(write(tmp_path, "s.json", MININD_12), rpt) == 0
        out = str(tmp_path / "curve.csv")
        assert emit_plot_data(rpt, "curve", out) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "x0", "x1"]
        assert len(rows) == 258  # header + 256 samples + closing repeat
        assert rows[1][1:] == rows[-1][1:]

    def test_missing_series_rejected(self, tmp_path, capsys):
        rpt = str(tmp_path / "r.json")
        assert run_scenario(write(tmp_path, "s.json", MININD_12), rpt) == 0
        assert emit_plot_data(rpt, "trace", str(tmp_path / "x.csv")) == 2
        assert "no flow trace" in capsys.readouterr().err


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        path = write(tmp_path, "s.json", MININD_12)
        out = str(tmp_path / "r.json")
        proc = subprocess.run(
            [sys.executable, "-m", "loopflow.cli", "run", path, "--out", out],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert load(out)["outputs"]["minind"] == 4

    def test_main_plot_flow(self, tmp_path):
        path = write(tmp_path, "s.json", MININD_12)
        out = str(tmp_path / "r.json")
        assert main(["run", path, "--out", out]) == 0
        assert main(["plot", out, "--kind", "curve", "--out", str(tmp_path / "c.csv")]) == 0

    def test_stream_jsonl(self, tmp_path):
        path = write(tmp_path, "s.json", FLOW_NOISY)
        out = str(tmp_path / "r.json")
        stream = str(tmp_path / "trace.jsonl")
        assert main(["run", path, "--out", out, "--stream", stream]) == 0
        lines = [json.loads(l) for l in open(stream, encoding="utf-8")]
        assert lines and set(lines[0]) == {"iteration", "energy", "grad_norm"}

    def test_probe_stream_one_line_per_sample(self, tmp_path):
        path = write(tmp_path, "s.json", SLIDE_PROBE)
        out = str(tmp_path / "r.json")
        stream = str(tmp_path / "profile.jsonl")
        assert main(["run", path, "--out", out, "--stream", stream]) == 0
        lines = [json.loads(l) for l in open(stream, encoding="utf-8")]
        assert len(lines) == 11
        assert set(lines[0]) == {"s", "minind", "openly"}

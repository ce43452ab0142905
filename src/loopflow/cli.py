"""Scenario-driven command line interface.

A scenario is a JSON document naming a space, a command, command-specific
inputs, numeric parameters, and a seed.  Reports are JSON; plot data exports
as RFC-4180 CSV.  Exit codes: 0 success, 2 validation error, 3 numerical
error.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import hashlib
import json
import sys
import time

import numpy as np

from . import __version__
from .energy import (
    ConfigTangent,
    Configuration,
    _lift_to_json,
    candidate_gradients,
    candidate_to_dict,
    dplus_distance,
    dplus_uniform_energy,
    energy_of_lengths,
    exp_config,
    gradient_like,
    gradient_like_all,
    hessian_index_nullity,
    segment_distances,
)
from .errors import (
    NONNEGATIVE,
    POSITIVE,
    GeometryError,
    ValidationError,
    _real,
    check_rule,
    count_rule,
)
from .flow import (
    FLOW_PARAM_RULES,
    FlowParams,
    FlowTrace,
    birkhoff_shorten,
    descend,
    restart_until_stable,
)
from .geodesics import (
    TWO_PI,
    VariationSpec,
    _arcs,
    _charts,
    geodesic_from_dict,
    geodesic_to_dict,
    minimizing_index,
    torus_class_minind,
    variation_minind_profile,
)
from .spaces import point_from_dict, space_from_dict

SCHEMA_VERSION = 1

COMMANDS = (
    "dist",
    "dplus",
    "energy",
    "candgrad",
    "gradlike",
    "minind",
    "openly",
    "probe",
    "hessian",
    "flow",
    "restart",
    "sweep",
)

# single source of truth for every numeric default the CLI reports; ``samples``
# is inert (loop predicates are exact) but schema v1 still accepts and echoes it
DEFAULTS = {
    "tol": 1e-9,
    "samples": None,
    "step": FlowParams.step,
    "max_iters": FlowParams.max_iters,
    "grad_tol": FlowParams.grad_tol,
    "energy_tol": FlowParams.energy_tol,
    "perturb_eps": FlowParams.perturb_eps,
    "backtrack": FlowParams.backtrack,
    "record_every": FlowParams.record_every,
}


def _require(data: dict, key: str, where: str):
    if key not in data:
        raise ValidationError(f"{where}.{key}: missing required field")
    return data[key]


def _checked(data: dict, key: str, where: str, rule, default=None):
    """``data[key]``, required unless a ``default`` is given, checked by
    ``rule`` (a flow-parameter rule) under the field name ``where.key``."""
    value = _require(data, key, where) if default is None else data.get(key, default)
    check_rule(rule, value, f"{where}.{key}")
    return value


def _object(value, field: str) -> dict:
    """``value`` when it is a JSON object; else a ValidationError naming ``field``."""
    if not isinstance(value, dict):
        raise ValidationError(f"{field}: expected an object, got {value!r}")
    return value


def _vector(value, dim: int, field: str) -> np.ndarray:
    """``value`` as ``dim`` finite numbers; else a ValidationError naming ``field``."""
    if not (isinstance(value, list) and len(value) == dim and all(map(_real, value))):
        raise ValidationError(f"{field}: expected a list of {dim} finite numbers, got {value!r}")
    return np.array(value, dtype=float)


def _resolve_params(scenario: dict, overrides: dict) -> dict:
    params = dict(DEFAULTS)
    file_params = scenario.get("params", {})
    if not isinstance(file_params, dict):
        raise ValidationError("params: expected an object")
    for key, val in file_params.items():
        if key not in params:
            raise ValidationError(f"params.{key}: unknown parameter")
        params[key] = val
    for key, val in overrides.items():
        if val is not None:
            params[key] = val
    for key, rule in FLOW_PARAM_RULES.items():
        check_rule(rule, params[key], f"params.{key}")
    samples = (lambda v: v is None or count_rule(1)[0](v), "null or an integer >= 1")
    check_rule(samples, params["samples"], "params.samples")
    return params


def _flow_params(params: dict) -> FlowParams:
    # validated already; reals become floats, so a report echoes 1 as 1.0
    counts = ("max_iters", "record_every")
    return FlowParams(**{
        k: params[k] if k in counts or params[k] is None else float(params[k])
        for k in FLOW_PARAM_RULES
    })


def _trace_to_dict(trace: FlowTrace) -> dict:
    from .energy import configuration_to_dict

    return {
        "status": trace.status,
        "iterations": trace.iterations,
        "energies": list(trace.energies),
        "grad_norms": list(trace.grad_norms),
        "record_every": trace.record_every,
        "nudges": [list(t) for t in trace.nudges],
        "final": configuration_to_dict(trace.final),
        "error": trace.error,
    }


def _config_from_inputs(space, inputs: dict, where: str) -> Configuration:
    pts = _require(inputs, "points", where)
    if not isinstance(pts, list) or len(pts) < 2:
        raise ValidationError(f"{where}.points: expected a list of at least two points")
    return Configuration(space, tuple(point_from_dict(space, p, f"{where}.points[{i}]")
                                      for i, p in enumerate(pts)))


def _curve_samples(geod, count: int = 256) -> list[list[float]]:
    """Rows ``[t, x0, ..., x_{n-1}]`` of the loop at ``count`` + 1 parameters,
    the last repeating the first point."""
    j = np.arange(count + 1)
    coords, _ = _charts(geod, TWO_PI * (j % count) / count)
    return np.column_stack((TWO_PI * j / count, coords)).tolist()


# -- command handlers -------------------------------------------------------------


def _run_dist(space, inputs, params, seed):
    p = point_from_dict(space, _require(inputs, "p", "inputs"), "inputs.p")
    q = point_from_dict(space, _require(inputs, "q", "inputs"), "inputs.q")
    segs = space.minimizing_geodesics(p, q, float(params["tol"]))
    return {
        "distance": space.distance(p, q),
        "num_minimizing": len(segs),
        "is_cut_pair": len(segs) >= 2,
        "minimizing": [
            {
                "length": s.length,
                "v0": [float(v) for v in s.v0],
                "v1": [float(v) for v in s.v1],
                "lift": _lift_to_json(s.lift),
            }
            for s in segs
        ],
    }


def _run_dplus(space, inputs, params, seed):
    p = point_from_dict(space, _require(inputs, "p", "inputs"), "inputs.p")
    q = point_from_dict(space, _require(inputs, "q", "inputs"), "inputs.q")
    v, w = (_vector(_require(inputs, key, "inputs"), space.dim, f"inputs.{key}") for key in "vw")
    return {"dplus": dplus_distance(space, p, q, v, w, float(params["tol"]))}


def _run_energy(space, inputs, params, seed):
    x = _config_from_inputs(space, inputs, "inputs")
    ds = segment_distances(x)
    energy = energy_of_lengths(ds)
    out = {"uniform_energy": energy, "loop_energy": energy, "loop_length": sum(ds)}
    if "tangent" in inputs:
        rows = _checked(inputs, "tangent", "inputs", (lambda v: isinstance(v, list), "a list"))
        v = ConfigTangent.of(x, [_vector(r, space.dim, f"inputs.tangent[{i}]")
                                 for i, r in enumerate(rows)])
        out["dplus"] = dplus_uniform_energy(x, v, float(params["tol"]))
    return out


def _run_candgrad(space, inputs, params, seed):
    x = _config_from_inputs(space, inputs, "inputs")
    cands = candidate_gradients(x, float(params["tol"]))
    maxima = gradient_like_all(x, float(params["tol"]))
    return {
        "count": len(cands),
        "candidates": [candidate_to_dict(c) for c in cands],
        "gradient_like": [candidate_to_dict(c) for c in maxima],
    }


def _run_gradlike(space, inputs, params, seed):
    x = _config_from_inputs(space, inputs, "inputs")
    return {"gradient_like": candidate_to_dict(gradient_like(x, float(params["tol"])))}


def _run_minind(space, inputs, params, seed):
    geod = geodesic_from_dict(_require(inputs, "geodesic", "inputs"), space, "inputs.geodesic")
    out = {
        "minind": minimizing_index(geod, float(params["tol"])),
        "length": geod.length,
        "curve": _curve_samples(geod),
    }
    if geod.kind == "torus_class":
        out["closed_form_minind"] = torus_class_minind(geod)
    return out


def _run_openly(space, inputs, params, seed):
    geod = geodesic_from_dict(_require(inputs, "geodesic", "inputs"), space, "inputs.geodesic")
    k = _checked(inputs, "k", "inputs", count_rule(2))
    arcs = _arcs(geod, k, float(params["tol"]))
    return {"k": k, "is_k_geodesic": arcs.minimizing, "openly": arcs.minimizing and arcs.cut is None}


def _run_probe(space, inputs, params, seed):
    vdata = _object(_require(inputs, "variation", "inputs"), "inputs.variation")
    geod = geodesic_from_dict(_require(vdata, "geodesic", "inputs.variation"), space,
                              "inputs.variation.geodesic")
    var = VariationSpec(
        geodesic=geod,
        field=_vector(_require(vdata, "field", "inputs.variation"), space.dim,
                      "inputs.variation.field"),
        s_max=float(_checked(vdata, "s_max", "inputs.variation", POSITIVE)),
        steps=_checked(vdata, "steps", "inputs.variation", count_rule(3)),
        perpendicular=_checked(vdata, "perpendicular", "inputs.variation",
                               (lambda v: isinstance(v, bool), "true or false"), False),
    )
    k = inputs.get("k")
    if k is not None:
        check_rule(count_rule(2), k, "inputs.k")
    profile = variation_minind_profile(var, k, float(params["tol"]))
    return {
        "k0": profile.k0,
        "cut_t": profile.cut_t,
        "cut_distance": profile.cut_distance,
        "dplus": profile.dplus,
        "openly_preserved": profile.openly_preserved,
        "forward_index_jump": profile.forward_index_jump,
        "profile": [
            {"s": r.s, "minind": r.minind, "openly": r.openly} for r in profile.rows
        ],
    }


def _run_hessian(space, inputs, params, seed):
    x = _config_from_inputs(space, inputs, "inputs")
    zero_tol = float(_checked(inputs, "zero_tol", "inputs", NONNEGATIVE, 1e-6))
    report = hessian_index_nullity(x, zero_tol=zero_tol, tol=float(params["tol"]))
    return {
        "index": report.index,
        "nullity": report.nullity,
        "eigenvalues": list(report.eigenvalues),
        "zero_tol": report.zero_tol,
        "degenerate": report.degenerate,
    }


def _run_flow(space, inputs, params, seed):
    x = _config_from_inputs(space, inputs, "inputs")
    if "perturb" in inputs:
        perturb = _object(inputs["perturb"], "inputs.perturb")
        mag = float(_checked(perturb, "magnitude", "inputs.perturb", NONNEGATIVE))
        x = exp_config(x, np.random.default_rng(seed).standard_normal((x.k, space.dim)), mag)
    method = inputs.get("method", "descend")
    if method not in ("descend", "birkhoff"):
        raise ValidationError("inputs.method: expected 'descend' or 'birkhoff'")
    fp = _flow_params(params)
    trace = descend(x, fp) if method == "descend" else birkhoff_shorten(x, fp)
    out = {"method": method, "trace": _trace_to_dict(trace)}
    if trace.status == "error":
        raise PartialResultError("flow ended in an error state", out)
    return out


def _run_restart(space, inputs, params, seed):
    geod = geodesic_from_dict(_require(inputs, "geodesic", "inputs"), space, "inputs.geodesic")
    rounds = _checked(inputs, "rounds", "inputs", count_rule(1), 1)
    fp = _flow_params(params)
    reports = restart_until_stable(geod, fp, rounds, float(params["tol"]))
    return {"rounds": len(reports), "reports": [_restart_to_dict(r) for r in reports]}


def _restart_to_dict(r) -> dict:
    return {
        "status": r.status,
        "before": geodesic_to_dict(r.before),
        "before_minind": r.before_minind,
        "perturb_eps": r.perturb_eps,
        "direction": None if r.direction is None else candidate_to_dict(r.direction),
        "after": None if r.after is None else geodesic_to_dict(r.after),
        "after_minind": r.after_minind,
        "trace": None if r.trace is None else _trace_to_dict(r.trace),
    }


class PartialResultError(GeometryError):
    """A numerical failure that still carries a partial report."""

    def __init__(self, message: str, partial: dict):
        super().__init__(message)
        self.partial = partial


HANDLERS = {
    "dist": _run_dist,
    "dplus": _run_dplus,
    "energy": _run_energy,
    "candgrad": _run_candgrad,
    "gradlike": _run_gradlike,
    "minind": _run_minind,
    "openly": _run_openly,
    "probe": _run_probe,
    "hessian": _run_hessian,
    "flow": _run_flow,
    "restart": _run_restart,
}


def _canonical(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _digest(scenario: dict) -> str:
    return hashlib.sha256(_canonical(scenario).encode()).hexdigest()


def execute_scenario(scenario: dict, overrides: dict | None = None) -> dict:
    """Run one scenario object and build its report, a pure function of the
    scenario and the overrides (may raise)."""
    overrides = overrides or {}
    if not isinstance(scenario, dict):
        raise ValidationError("scenario: expected a JSON object")
    command = _require(scenario, "command", "scenario")
    if command not in COMMANDS:
        raise ValidationError(f"scenario.command: unknown command {command!r}")
    seed = _checked(scenario, "seed", "scenario", count_rule(0))
    params = _resolve_params(scenario, overrides)

    if "jobs" in scenario:
        check_rule(count_rule(1), scenario["jobs"], "scenario.jobs")
    if overrides.get("jobs") is not None:
        check_rule(count_rule(1), overrides["jobs"], "params.jobs")

    inputs = _object(scenario.get("inputs", {}), "inputs")
    if command == "sweep":
        subs = _require(inputs, "scenarios", "inputs")
        if not isinstance(subs, list) or not subs:
            raise ValidationError("inputs.scenarios: expected a nonempty list")
        jobs = overrides.get("jobs") or scenario.get("jobs", 2)
        with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
            outputs = {"reports": list(pool.map(lambda s: execute_scenario(s, overrides), subs))}
    else:
        space = space_from_dict(_require(scenario, "space", "scenario"))
        # a wider tie tolerance makes lifts a period longer "minimizing"
        bound = space.min_scale() / 4
        if not params["tol"] < bound:
            raise ValidationError(f"params.tol: expected below min_scale/4 = {bound}, "
                                  f"got {params['tol']!r}")
        outputs = HANDLERS[command](space, inputs, params, seed)

    return {
        "schema": SCHEMA_VERSION,
        "digest": _digest(scenario),
        "command": command,
        "seed": seed,
        "library_version": __version__,
        "params_resolved": params,
        "outputs": outputs,
    }


def run_scenario(path: str, out_path: str | None = None, overrides: dict | None = None,
                 stream=None, seed: int | None = None) -> int:
    """Load, validate, and execute a scenario file; write the report.

    Returns the process exit code (0 ok, 2 validation, 3 numerical or a
    non-finite number in the report).  Only this report carries ``wall_time_ms``.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            scenario = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read scenario: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: scenario is not valid JSON (line {exc.lineno}): {exc.msg}", file=sys.stderr)
        return 2
    if seed is not None and isinstance(scenario, dict):
        scenario["seed"] = seed

    partial = None
    started = time.perf_counter()
    try:
        report = execute_scenario(scenario, overrides)
        report["wall_time_ms"] = 1000.0 * (time.perf_counter() - started)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except PartialResultError as exc:
        partial = {
            "schema": SCHEMA_VERSION,
            "digest": _digest(scenario),
            "command": scenario.get("command"),
            "library_version": __version__,
            "error": str(exc),
            "outputs": exc.partial,
        }
        report = None
    except GeometryError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3

    payload = report if report is not None else partial
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError:
        print("numerical error: the report holds a non-finite number", file=sys.stderr)
        return 3
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if stream and report is not None and report["command"] == "flow":
        trace = report["outputs"]["trace"]
        with open(stream, "w", encoding="utf-8") as fh:
            for i, (e, gn) in enumerate(zip(trace["energies"], trace["grad_norms"])):
                fh.write(_canonical({"iteration": i * trace["record_every"], "energy": e,
                                     "grad_norm": gn}) + "\n")
    if stream and report is not None and report["command"] == "probe":
        with open(stream, "w", encoding="utf-8") as fh:
            for row in report["outputs"]["profile"]:
                fh.write(_canonical(row) + "\n")
    if report is None:
        print("numerical error: partial report written", file=sys.stderr)
        return 3
    return 0


# -- plot data ---------------------------------------------------------------------


def emit_plot_data(report_path: str, kind: str, out_path: str) -> int:
    """Extract a CSV series (trace, profile, or curve) from a report file."""
    try:
        with open(report_path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read report: {exc}", file=sys.stderr)
        return 2
    outputs = report.get("outputs", {})
    try:
        if kind == "trace":
            trace = outputs.get("trace")
            if trace is None:
                raise ValidationError("report has no flow trace")
            rows = [
                (i * trace["record_every"], e, g)
                for i, (e, g) in enumerate(zip(trace["energies"], trace["grad_norms"]))
            ]
            header = ("iteration", "energy", "grad_norm")
        elif kind == "profile":
            prof = outputs.get("profile")
            if prof is None:
                raise ValidationError("report has no variation profile")
            rows = [(r["s"], r["minind"], int(r["openly"])) for r in prof]
            header = ("s", "minind", "openly")
        elif kind == "curve":
            curve = outputs.get("curve")
            if curve is None:
                raise ValidationError("report has no curve samples")
            header = ("t",) + tuple(f"x{i}" for i in range(len(curve[0]) - 1))
            rows = curve
        else:
            raise ValidationError(f"unknown plot kind {kind!r}")
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return 0


# -- entry point --------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loopflow",
        description="closed-geodesic energy flows on flat quotient geometries",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    run = sub.add_parser("run", help="execute a scenario file")
    run.add_argument("scenario", help="path to the scenario JSON file")
    run.add_argument("--out", help="report output path (default: stdout)")
    run.add_argument("--tol", type=float, help="minimizer tie tolerance")
    run.add_argument("--step", type=float, help="descent step size")
    run.add_argument("--max-iters", type=int, dest="max_iters")
    run.add_argument("--perturb-eps", type=float, dest="perturb_eps")
    run.add_argument("--seed", type=int, help="override the scenario seed")
    run.add_argument("--jobs", type=int, help="concurrency bound for sweep scenarios")
    run.add_argument("--stream", help="also write a JSON-lines flow trace to this path")

    plot = sub.add_parser("plot", help="export plot data from a report")
    plot.add_argument("report", help="path to a report JSON file")
    plot.add_argument("--kind", required=True, choices=("trace", "profile", "curve"))
    plot.add_argument("--out", required=True, help="CSV output path")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.subcommand == "run":
        overrides = {
            "tol": args.tol,
            "step": args.step,
            "max_iters": args.max_iters,
            "perturb_eps": args.perturb_eps,
            "jobs": args.jobs,
        }
        return run_scenario(args.scenario, args.out, overrides, args.stream, seed=args.seed)
    if args.subcommand == "plot":
        return emit_plot_data(args.report, args.kind, args.out)
    return 2


if __name__ == "__main__":
    sys.exit(main())

"""Brute-force oracles for every report the benchmark produces.

These never call loopflow.  Distances and minimizer counts come from explicit
lattice scans in the universal cover (both sheets for the doubled rectangle),
minimizing indices are checked by definition on a dense sample of the loop,
candidate gradients are enumerated from raw minimizing displacements, and
Hessian spectra come from the circulant closed form.

``check(entry, report)`` returns a list of problems; an empty list means the
report is right.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from corpus import periods_of

TIE_TOL = 1e-9          # the library's default tie tolerance
LOOP_SAMPLES = 2048     # dense sample of the loop parameter for 1/k checks
# on a torus the displacement between loop points at arc L/k is the same at
# every parameter, so a short sample of the loop decides the same question
TORUS_LOOP_SAMPLES = 64
# loopflow's sampled predicates test 64 points per arc of L/k
LIBRARY_SAMPLES_PER_ARC = 64
KNOWN_GRID_MISS = "known defect, sampled index: "
ENERGY_RTOL = 1e-6      # flow limits stop at grad_tol = 1e-6
JOINT_TOL = 1e-3        # unit-velocity mismatch allowed at a limit joint
HESSIAN_ATOL = 1e-4     # central differences on an exact quadratic


# -- lattice scans ----------------------------------------------------------------


def _offsets(periods: np.ndarray) -> np.ndarray:
    # after reducing a displacement to the central cell, every minimizing lift
    # differs from it by at most one period per coordinate (the norm separates
    # by coordinate), so offsets in {-1, 0, 1}^n see every minimizer and tie
    lam = np.array(list(itertools.product((-1, 0, 1), repeat=len(periods))), dtype=float)
    return lam * periods


def lift_lengths(P: np.ndarray, Q: np.ndarray, periods, sheets=(1,)) -> np.ndarray:
    """Lengths of every lift from P[j] to Q[j] (rows), over sheets and offsets."""
    periods = np.asarray(periods, dtype=float)
    offs = _offsets(periods)
    cols = []
    for sigma in sheets:
        d = sigma * Q - P
        d = d - periods * np.round(d / periods)
        cand = d[:, None, :] + offs[None, :, :]
        cols.append(np.sqrt((cand**2).sum(axis=2)))
    return np.concatenate(cols, axis=1)


def min_and_count(lengths: np.ndarray, tol: float = TIE_TOL):
    dmin = lengths.min(axis=1)
    return dmin, (lengths <= dmin[:, None] + tol).sum(axis=1)


def embed(space: dict, coords, face) -> np.ndarray:
    """Chart coordinates -> covering-space coordinates."""
    x = np.asarray(coords, dtype=float)
    if space["type"] == "doubled_rectangle" and face == "bottom":
        return np.array([x[0], 2.0 * space["b"] - x[1]])
    return x


def cover(space: dict):
    """(periods, sheets) of the covering lattice of a space document."""
    if space["type"] == "doubled_rectangle":
        return np.array([2.0 * space["a"], 2.0 * space["b"]]), (1, -1)
    return np.asarray(periods_of(space), dtype=float), (1,)


# -- loops --------------------------------------------------------------------------


class Loop:
    """A straight closed loop in the cover: u in [0,1) -> start + u * disp."""

    def __init__(self, space: dict, geod: dict, shift=None, library_grid: bool = False):
        self.library_grid = library_grid
        self.periods, self.sheets = cover(space)
        base = embed(space, geod["base"]["coords"], geod["base"]["face"])
        if geod["kind"] == "torus_class":
            self.klass = np.asarray(geod["class"], dtype=int)
            self.disp = self.klass * self.periods
        else:
            self.klass = None
            direction = np.asarray(geod["direction"], dtype=float)
            self.disp = float(geod["length"]) * direction / np.linalg.norm(direction)
        if space["type"] == "doubled_rectangle" and geod["base"]["face"] == "bottom":
            # the bottom face enters the cover reflected in y
            chart = np.array([1.0, -1.0])
            self.disp = self.disp * chart
            shift = None if shift is None else shift * chart
        self.start = base if shift is None else base + shift
        self.length = float(np.linalg.norm(self.disp))
        self.samples = TORUS_LOOP_SAMPLES if self.klass is not None else LOOP_SAMPLES
        self._scans = {}

    def scan(self, k: int):
        """(shortest lift length, number of tied minimizers) for every sampled
        pair of loop points at arc separation L/k."""
        if k not in self._scans:
            samples = LIBRARY_SAMPLES_PER_ARC * k if self.library_grid else self.samples
            u = np.arange(samples) / samples
            P = self.start + u[:, None] * self.disp
            Q = self.start + (u[:, None] + 1.0 / k) * self.disp
            self._scans[k] = min_and_count(lift_lengths(P, Q, self.periods, self.sheets))
        return self._scans[k]

    def is_k(self, k: int) -> bool:
        """Every sampled pair at arc L/k is joined by a path of length L/k."""
        dmin, _ = self.scan(k)
        return bool(np.all(dmin >= self.length / k - TIE_TOL))

    def has_cut_pair(self, k: int) -> bool:
        _, count = self.scan(k)
        return bool(np.any(count >= 2))

    def index_problem(self, k, what: str) -> str | None:
        """None when the loop is 1/k and not 1/(k-1), by definition."""
        if not isinstance(k, int) or k < 2:
            return f"{what}: {k!r} is not an index"
        if not self.is_k(k):
            return f"{what}: loop is not 1/{k}"
        if k > 2 and self.is_k(k - 1):
            return f"{what}: loop is already 1/{k - 1}"
        if self.klass is not None and k != _closed_form(self.klass):
            return f"{what}: {k} != 2 max|class| = {_closed_form(self.klass)}"
        return None


# -- per-command oracles ------------------------------------------------------------


def _close(a, b, tol) -> bool:
    return a is not None and abs(float(a) - float(b)) <= tol


def _check_minind(entry, out, library_grid=False) -> list[str]:
    doc = entry["doc"]
    loop = Loop(doc["space"], doc["inputs"]["geodesic"], library_grid=library_grid)
    problems = []
    k = out.get("minind")
    msg = loop.index_problem(k, "minind")
    if msg:
        problems.append(msg)
    if loop.klass is not None and out.get("closed_form_minind") != k:
        problems.append(f"closed_form_minind {out.get('closed_form_minind')} != minind {k}")
    if not _close(out.get("length"), loop.length, 1e-9):
        problems.append(f"length {out.get('length')} != {loop.length}")
    if len(out.get("curve", ())) != 257:
        problems.append("curve does not hold 256 samples plus the closing repeat")
    return problems


def _check_openly(entry, out, library_grid=False) -> list[str]:
    doc = entry["doc"]
    loop = Loop(doc["space"], doc["inputs"]["geodesic"], library_grid=library_grid)
    k = doc["inputs"]["k"]
    is_k = loop.is_k(k)
    openly = is_k and not loop.has_cut_pair(k)
    problems = []
    if out.get("k") != k:
        problems.append(f"k {out.get('k')} != {k}")
    if out.get("is_k_geodesic") is not is_k:
        problems.append(f"is_k_geodesic {out.get('is_k_geodesic')} != {is_k}")
    if out.get("openly") is not openly:
        problems.append(f"openly {out.get('openly')} != {openly}")
    return problems


def _check_probe(entry, out, library_grid=False) -> list[str]:
    doc = entry["doc"]
    var = doc["inputs"]["variation"]
    space, geod = doc["space"], var["geodesic"]
    field = np.asarray(var["field"], dtype=float)
    problems = []
    central = Loop(space, geod, library_grid=library_grid)
    k0 = out.get("k0")
    msg = central.index_problem(k0, "k0")
    if msg:
        return [msg]
    rows = out.get("profile", [])
    svals = np.linspace(-var["s_max"], var["s_max"], var["steps"])
    if len(rows) != len(svals):
        return [f"profile has {len(rows)} rows, expected {len(svals)}"]
    for row, s in zip(rows, svals):
        if not _close(row.get("s"), s, 1e-12):
            problems.append(f"row s {row.get('s')} != {s}")
            continue
        shifted = Loop(space, geod, shift=s * field, library_grid=library_grid)
        msg = shifted.index_problem(row.get("minind"), f"row s={s:+.3f} minind")
        if msg:
            problems.append(msg)
            continue
        openly = (row["minind"] <= k0 and shifted.is_k(k0) and not shifted.has_cut_pair(k0))
        if row.get("openly") is not openly:
            problems.append(f"row s={s:+.3f} openly {row.get('openly')} != {openly}")
    if central.klass is not None and out.get("dplus") is not None:
        # a translation keeps every distance on a flat torus
        if not _close(out["dplus"], 0.0, 1e-9):
            problems.append(f"translation dplus {out['dplus']} != 0")
    return problems


def circulant_hessian_eigenvalues(k: int, n: int) -> list[float]:
    """Spectrum of 2k times the cyclic second difference, each value n times."""
    vals = []
    for m in range(k):
        vals.extend([2.0 * k * (2.0 - 2.0 * math.cos(2.0 * math.pi * m / k))] * n)
    return sorted(vals)


def _check_hessian(entry, out) -> list[str]:
    doc = entry["doc"]
    k = len(doc["inputs"]["points"])
    n = len(doc["inputs"]["points"][0]["coords"])
    want = circulant_hessian_eigenvalues(k, n)
    got = sorted(out.get("eigenvalues", []))
    problems = []
    if len(got) != len(want) or any(abs(g - w) > HESSIAN_ATOL for g, w in zip(got, want)):
        problems.append("eigenvalues differ from the circulant spectrum")
    if out.get("index") != 0:
        problems.append(f"index {out.get('index')} != 0")
    if out.get("nullity") != n:
        problems.append(f"nullity {out.get('nullity')} != {n}")
    if out.get("degenerate") is not (n >= 2):
        problems.append(f"degenerate {out.get('degenerate')} != {n >= 2}")
    return problems


def _torus_segment_minimizers(periods, p, q) -> list[np.ndarray]:
    """All minimizing displacements from p to q on a flat torus."""
    d = np.asarray(q, dtype=float) - np.asarray(p, dtype=float)
    d = d - periods * np.round(d / periods)
    cands = d[None, :] + _offsets(periods)
    lengths = np.sqrt((cands**2).sum(axis=1))
    return [c for c, l in zip(cands, lengths) if l <= lengths.min() + TIE_TOL]


def _key(vec) -> tuple:
    return tuple(round(float(v), 9) + 0.0 for v in vec)


def _check_candgrad(entry, out) -> list[str]:
    doc = entry["doc"]
    periods = np.asarray(periods_of(doc["space"]), dtype=float)
    pts = [p["coords"] for p in doc["inputs"]["points"]]
    k = len(pts)
    seglists = [_torus_segment_minimizers(periods, pts[i], pts[(i + 1) % k]) for i in range(k)]
    brute = {}
    for combo in itertools.product(*seglists):
        stacked = np.concatenate([combo[i - 1] - combo[i] for i in range(k)])
        brute.setdefault(_key(stacked), float(np.linalg.norm(stacked)))
    problems = []
    if out.get("count") != len(brute):
        problems.append(f"count {out.get('count')} != {len(brute)} distinct candidates")
    reported = out.get("candidates", [])
    if any(_key(np.concatenate(c["components"])) not in brute for c in reported):
        problems.append("a reported candidate is not a brute candidate")
    top = max(brute.values())
    tops = sorted(key for key, mag in brute.items() if mag >= top - 1e-12)
    got = sorted(_key(np.concatenate(c["components"])) for c in out.get("gradient_like", []))
    if got != tops:
        problems.append("gradient_like set differs from the brute maximal candidates")
    return problems


def _check_dist(entry, out) -> list[str]:
    doc = entry["doc"]
    space = doc["space"]
    periods, sheets = cover(space)
    p, q = doc["inputs"]["p"], doc["inputs"]["q"]
    P = embed(space, p["coords"], p["face"])[None, :]
    Q = embed(space, q["coords"], q["face"])[None, :]
    dmin, count = min_and_count(lift_lengths(P, Q, periods, sheets))
    problems = []
    if not _close(out.get("distance"), dmin[0], 1e-9):
        problems.append(f"distance {out.get('distance')} != {dmin[0]}")
    if out.get("num_minimizing") != int(count[0]):
        problems.append(f"num_minimizing {out.get('num_minimizing')} != {int(count[0])}")
    if out.get("is_cut_pair") is not bool(count[0] >= 2):
        problems.append("is_cut_pair disagrees with the minimizer count")
    return problems


def _energies_problem(trace: dict) -> str | None:
    e = trace.get("energies", [])
    if not e:
        return "trace has no energies"
    if any(b > a + 1e-12 for a, b in zip(e, e[1:])):
        return "trace energies increase"
    return None


def classify_chain(space: dict, points: list[dict]):
    """Lift the cyclic chain of points to the cover, each step along the
    shortest lift.  Returns (steps, lattice class of the closing
    displacement, closing residual, smallest tie gap of any step)."""
    periods, sheets = cover(space)
    offs = _offsets(periods)
    start = embed(space, points[0]["coords"], points[0]["face"])
    pos = start
    steps, gap = [], math.inf
    k = len(points)
    for i in range(1, k + 1):
        q = points[i % k]
        qc = embed(space, q["coords"], q["face"])
        cands = []
        for sigma in sheets:
            d = sigma * qc - pos
            d = d - periods * np.round(d / periods)
            cands.extend(d[None, :] + offs)
        cands = np.array(cands)
        lengths = np.sqrt((cands**2).sum(axis=1))
        order = np.argsort(lengths)
        gap = min(gap, float(lengths[order[1]] - lengths[order[0]]))
        steps.append(cands[order[0]])
        pos = pos + cands[order[0]]
    total = pos - start
    klass = np.round(total / periods)
    residual = float(np.linalg.norm(total - klass * periods))
    return np.array(steps), klass.astype(int), residual, gap


def _check_flow(entry, out) -> list[str]:
    doc, expect = entry["doc"], entry["expect"]
    trace = out.get("trace", {})
    problems = []
    if trace.get("status") != "converged":
        problems.append(f"flow status {trace.get('status')!r}")
    msg = _energies_problem(trace)
    if msg:
        problems.append(msg)
    pts = trace.get("final", {}).get("points", [])
    if len(pts) != expect["k"]:
        return problems + [f"limit has {len(pts)} points, expected {expect['k']}"]
    steps, klass, residual, gap = classify_chain(doc["space"], pts)
    if gap <= TIE_TOL:
        problems.append("limit has a cut pair, so its chain is ambiguous")
    if residual > 1e-6:
        problems.append(f"limit chain does not close (residual {residual:.2e})")
    units = steps / np.linalg.norm(steps, axis=1)[:, None]
    if float(np.max(np.linalg.norm(units - np.roll(units, 1, axis=0), axis=1))) > JOINT_TOL:
        problems.append("limit chain has a joint angle")
    if "class" in expect:
        want = expect["class"]
        if list(klass) != want:
            problems.append(f"limit class {list(klass)} != start class {want}")
    else:
        want = [0, 1] if expect["family"] == "vertical" else [1, 0]
        if [abs(int(m)) for m in klass] != want:
            problems.append(f"limit cover class {list(klass)} is not the {expect['family']} family")
    periods, _ = cover(doc["space"])
    length_sq = float(np.sum((np.asarray(want) * periods) ** 2))
    energy = len(pts) * float(np.sum(steps**2))
    if not abs(energy - length_sq) <= ENERGY_RTOL * length_sq:
        problems.append(f"limit energy {energy} != squared class length {length_sq}")
    reported = trace["energies"][-1] if trace.get("energies") else math.nan
    if not abs(reported - energy) <= 1e-9 * length_sq:
        problems.append(f"reported limit energy {reported} != energy of the limit points {energy}")
    return problems


def _closed_form(klass) -> int:
    return 2 * max(abs(int(m)) for m in klass)


def _check_restart(entry, out) -> list[str]:
    reports = out.get("reports", [])
    if not reports or out.get("rounds") != len(reports):
        return ["restart has no rounds or a wrong round count"]
    if len(reports) > entry["doc"]["inputs"]["rounds"]:
        return ["restart ran more rounds than asked"]
    problems = []
    klass = entry["expect"]["class"]
    for j, r in enumerate(reports):
        where = f"round {j}"
        if r.get("before", {}).get("class") != klass:
            problems.append(f"{where}: before class {r.get('before', {}).get('class')} != {klass}")
        if r.get("before_minind") != _closed_form(klass):
            problems.append(f"{where}: before_minind {r.get('before_minind')} != {_closed_form(klass)}")
        status = r.get("status")
        if status not in ("improved", "unchanged", "collapsed", "no_restart"):
            problems.append(f"{where}: status {status!r}")
        if r.get("trace") is not None:
            msg = _energies_problem(r["trace"])
            if msg:
                problems.append(f"{where}: {msg}")
        if r.get("after") is None:
            if status in ("improved", "unchanged"):
                problems.append(f"{where}: status {status} without an after loop")
            break
        after_class = r["after"].get("class")
        after = r.get("after_minind")
        if after is None or after != _closed_form(after_class):
            problems.append(f"{where}: after_minind {after} != closed form of {after_class}")
            break
        if after > r["before_minind"]:
            problems.append(f"{where}: restart worsened the index {r['before_minind']} -> {after}")
        if (status == "improved") != (after < r["before_minind"]):
            problems.append(f"{where}: status {status} disagrees with {r['before_minind']} -> {after}")
        klass = after_class
    return problems


def _check_sweep(entry, out) -> list[str]:
    subs = entry["expect"]["subs"]
    reports = out.get("reports", [])
    if len(reports) != len(subs):
        return [f"sweep returned {len(reports)} reports for {len(subs)} scenarios"]
    problems = []
    for j, (sub, rep) in enumerate(zip(subs, reports)):
        problems.extend(f"sub {j}: {p}" for p in check(sub, rep))
    return problems


CHECKS = {
    "flow": _check_flow,
    "restart": _check_restart,
    "minind": _check_minind,
    "openly": _check_openly,
    "probe": _check_probe,
    "hessian": _check_hessian,
    "candgrad": _check_candgrad,
    "dist": _check_dist,
    "sweep": _check_sweep,
}


SAMPLED = ("minind", "openly", "probe")


def check(entry: dict, report: dict) -> list[str]:
    """Problems with ``report`` as the answer to ``entry``; empty when right.

    loopflow decides 1/k on 64 sampled points per arc, so near a critical
    offset it can miss a narrow window where the loop stops minimizing and
    report an index that is wrong by definition.  Such a report is still
    rejected, but when it is right on loopflow's own sample grid the problem
    is tagged with ``KNOWN_GRID_MISS``, so the benchmark counts it as a
    failure of that known defect rather than as an unexplained wrong report.
    """
    doc = entry["doc"]
    if not isinstance(report, dict) or not isinstance(report.get("outputs"), dict):
        return ["report has no outputs"]
    if report.get("command") != doc["command"] or report.get("seed") != doc["seed"]:
        return ["report echoes another command or seed"]
    command = doc["command"]
    problems = CHECKS[command](entry, report["outputs"])
    if problems and command in SAMPLED and not CHECKS[command](entry, report["outputs"], True):
        return [KNOWN_GRID_MISS + "; ".join(problems)]
    return problems


def is_known_defect(problems: list[str]) -> bool:
    """True when every problem is the known sampled-grid miss."""
    return bool(problems) and all(KNOWN_GRID_MISS in p for p in problems)

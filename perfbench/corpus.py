"""Seeded scenario corpora for the three benchmark workloads.

A corpus is a list of rounds.  Every round holds the same size classes in
the same order for every seed; the seed only draws the free parameters
(base points, flow noise seeds, loop heights).  So two seeds give the same
command mix and the same cost profile, and a claim can be rechecked on a
held-out seed.

Each entry is a dict with
  ``id``    -- ``<workload>/s<seed>/<index>``, printed when an oracle rejects it,
  ``size``  -- the size-class label (identical across seeds at a position),
  ``doc``   -- the scenario document handed to ``execute_scenario``,
  ``expect``-- generation facts the oracle needs (e.g. the starting class).
Sub-scenarios of a ``sweep`` carry their own entries under ``expect["subs"]``.
"""

from __future__ import annotations

import math
import random

# spaces, as scenario documents
T2 = {"type": "flat_torus", "periods": [1.0, 0.75]}
T3 = {"type": "flat_torus", "periods": [1.0, 0.8125, 1.375]}
PRODUCT = {
    "type": "product",
    "factors": [
        {"type": "flat_torus", "periods": [1.0, 0.75]},
        {"type": "flat_torus", "periods": [1.25]},
    ],
}
DR = {"type": "doubled_rectangle", "a": 2.0, "b": 1.0}
SPACES = {"T2": T2, "T3": T3, "PT": PRODUCT, "DR": DR}

FLOW_NOISE = 0.02

# Each round is ordered so that the latency median and 90th percentile fall
# inside a block of one cost class, not on the edge between two: a few light
# classes, a wide middle block, and a top block of about a sixth of the round.

# -- descent: (space, k, method).  Cost grows like k^2 (iterations times
# points) and is about 3x higher on the product and doubled-rectangle
# backends, whose scalar kernels are slowest.  Light: k = 6 on the tori.
# Middle (p50): k = 8 on the tori.  Top (p90): k = 12 and the k = 6 product
# and doubled-rectangle descents.  Above p90: one k = 16 descent, whose cost
# would otherwise dominate the round.
DESCENT_ROUND = [
    ("T2", 6, "descend"),
    ("T2", 8, "descend"),
    ("T3", 12, "descend"),
    ("T3", 6, "descend"),
    ("T3", 8, "descend"),
    ("DR", 6, "descend"),
    ("T2", 8, "birkhoff"),
    ("T2", 6, "birkhoff"),
    ("T2", 8, "descend"),
    ("T2", 12, "descend"),
    ("T3", 8, "descend"),
    ("T3", 6, "descend"),
    ("T2", 16, "descend"),
    ("T2", 8, "descend"),
    ("PT", 6, "descend"),
    ("T3", 6, "birkhoff"),
    ("T3", 8, "descend"),
    ("T3", 8, "birkhoff"),
    ("T2", 12, "descend"),
    ("T2", 6, "descend"),
]

# -- restart: (space, class, rounds).  The class fixes the minimizing index
# k = 2 max|entry| and with it the 2^k (or 4^k) candidate tuples at the cut
# configuration, which is where the time goes.
RESTART_ROUND = [
    ("T2", (1, 2), 1),
    ("T3", (2, 1, 1), 2),
    ("T2", (1, 4), 3),
    ("PT", (1, 2, 0), 1),
    ("T2", (2, 1), 2),
    ("T3", (1, 2, 1), 3),
    ("T2", (3, 4), 1),
    ("PT", (2, 1, 1), 2),
    ("T2", (1, 3), 3),
    ("T3", (3, 1, 1), 1),
    ("T2", (4, 1), 2),
    ("PT", (1, 0, 2), 3),
    ("T2", (3, 1), 1),
    ("T3", (1, 3, 0), 2),
    ("T2", (2, 3), 3),
    ("T3", (2, 3, 1), 1),
    ("PT", (1, 3, 0), 2),
    ("T2", (3, 2), 3),
    ("T3", (1, 2, 0), 1),
    ("T3", (1, 1, 2), 2),
]

# -- analysis: one-shot queries, "<command>/<space or family>[/k<points>]".
# Light: dist, openly, candgrad.  Middle: torus minind and probe, Hessian at
# k = 4.  Top: doubled-rectangle minind and probe, sweeps, Hessian at k = 6.
# Above the 90th percentile: the k = 8 Hessian.
ANALYSIS_ROUND = [
    "minind/T2",
    "minind/DR-h",
    "dist/DR",
    "hessian/T2/k4",
    "minind/DR-v",
    "openly/T3",
    "probe/T2",
    "sweep/4",
    "minind/PT",
    "candgrad/T2-cut",
    "minind/DR-h",
    "hessian/T3/k4",
    "probe/DR-v",
    "minind/T3",
    "openly/DR-v",
    "hessian/T2/k6",
    "minind/T2",
    "minind/DR-v",
    "dist/PT",
    "probe/PT",
    "minind/DR-h",
    "hessian/T2/k4",
    "sweep/4",
    "minind/PT",
    "candgrad/PT",
    "minind/DR-v",
    "openly/PT",
    "minind/T3",
    "probe/DR-v",
    "minind/DR-h",
    "hessian/T2/k8",
    "sweep/4",
]

# enough rounds that a run rarely wraps around the corpus
ROUNDS = {"descent": 16, "restart": 30, "analysis": 72}
WORKLOADS = tuple(ROUNDS)


def periods_of(space: dict) -> list[float]:
    """Concatenated torus periods of a torus or product-of-tori document."""
    if space["type"] == "flat_torus":
        return list(space["periods"])
    return [a for f in space["factors"] for a in periods_of(f)]


def _pt(coords, face=None) -> dict:
    return {"coords": [float(c) for c in coords], "face": face}


def _torus_base(rng: random.Random, periods) -> list[float]:
    return [rng.uniform(0.0, a) for a in periods]


def _torus_loop_points(periods, klass, k: int, base) -> list[dict]:
    """k evenly spaced points of the straight loop in class ``klass``."""
    pts = []
    for i in range(k):
        coords = [(b + m * a * i / k) % a for b, m, a in zip(base, klass, periods)]
        pts.append(_pt(coords))
    return pts


def dr_loop_points(family: str, offset: float, k: int) -> list[dict]:
    """k evenly spaced points of an axis-parallel doubled-rectangle loop.

    ``vertical`` runs up the top face at x = offset and back down the bottom
    face (length 2b); ``horizontal`` runs along y = offset (length 2a).
    """
    pts = []
    length = 2.0 * (DR["b"] if family == "vertical" else DR["a"])
    half = length / 2.0
    for i in range(k):
        s = length * i / k
        along = s if s <= half else length - s
        face = "top" if s <= half else "bottom"
        coords = [offset, along] if family == "vertical" else [along, offset]
        pts.append(_pt(coords, face))
    return pts


def _scenario(space: dict, command: str, seed: int, inputs: dict) -> dict:
    return {"schema": 1, "space": space, "command": command, "seed": seed, "inputs": inputs}


def _torus_class_geodesic(rng, periods, klass) -> dict:
    return {"kind": "torus_class", "base": _pt(_torus_base(rng, periods)), "class": list(klass)}


def dr_segment_geodesic(family: str, offset: float, along: float) -> dict:
    """Axis-parallel doubled-rectangle loop through (offset, along) or (along, offset)."""
    if family == "vertical":
        return {"kind": "segment_loop", "base": _pt([offset, along], "top"),
                "direction": [0.0, 1.0], "length": 2.0}
    return {"kind": "segment_loop", "base": _pt([along, offset], "top"),
            "direction": [1.0, 0.0], "length": 4.0}


# -- descent ----------------------------------------------------------------------

# classes with max|entry| = 1, so every k >= 6 samples them without cut pairs
_UNIT_CLASSES = {
    "T2": [(1, 0), (0, 1), (1, 1), (1, -1)],
    "T3": [(1, 0, 0), (0, 1, 1), (1, 1, 0), (1, 0, -1)],
    "PT": [(1, 0, 0), (0, 1, 1), (1, 1, 0), (0, 0, 1)],
}


def _descent_entry(rng: random.Random, size, turn: int) -> tuple[dict, dict]:
    name, k, method = size
    space = SPACES[name]
    inputs = {"method": method, "perturb": {"magnitude": FLOW_NOISE}}
    if name == "DR":
        family = ("vertical", "horizontal")[turn % 2]
        # k points sample the loop without cut pairs only when the loop keeps
        # more than L/(2k) away from the rectangle's edges
        offset = rng.uniform(0.4, 1.6) if family == "vertical" else rng.uniform(0.4, 0.6)
        inputs["points"] = dr_loop_points(family, offset, k)
        expect = {"family": family, "k": k}
    else:
        periods = periods_of(space)
        klass = _UNIT_CLASSES[name][turn % 4]
        inputs["points"] = _torus_loop_points(periods, klass, k, _torus_base(rng, periods))
        expect = {"class": list(klass), "k": k}
    return _scenario(space, "flow", rng.randrange(2**31), inputs), expect


# -- restart ----------------------------------------------------------------------


def _restart_entry(rng: random.Random, size, turn: int) -> tuple[dict, dict]:
    name, klass, rounds = size
    space = SPACES[name]
    geod = _torus_class_geodesic(rng, periods_of(space), klass)
    doc = _scenario(space, "restart", rng.randrange(2**31), {"geodesic": geod, "rounds": rounds})
    return doc, {"class": list(klass)}


# -- analysis ---------------------------------------------------------------------

_MININD_CLASSES = {
    "T2": [(1, 2), (2, 1), (1, 3), (3, 2)],
    "T3": [(1, 2, 1), (2, 1, 1), (1, 0, 3), (2, 2, 1)],
    "PT": [(1, 2, 0), (2, 1, 1), (1, 1, 3), (0, 2, 1)],
}
DR_STRATA = 10
PROBE_S_MAX = 0.1
PROBE_STEPS = 5

# loopflow's sampled minimizing index has two known defects on the doubled
# rectangle.  An axis loop of length L whose offset m from the nearest
# parallel edge is below L / (2 k_max), with k_max = ceil(2L / min(a, b)) + 2,
# needs more than k_max points and raises GeometryError.  And within about
# 1e-4 of a critical offset m = L / (2k), where the index steps from k to
# k + 1, the 64 samples per arc can miss the window in which the loop stops
# minimizing, so the reported index is wrong.  Workloads must not fail, so
# doubled-rectangle loops keep inside the band where the index is at most
# k_max and at least DR_MARGIN from every critical offset.
DR_MARGIN = 0.002


def dr_axis(family: str) -> tuple[float, float]:
    """(loop length, face width across the loop) of an axis-parallel loop."""
    if family == "vertical":
        return 2.0 * DR["b"], DR["a"]
    return 2.0 * DR["a"], DR["b"]


def dr_critical_offsets(family: str) -> list[float]:
    """Offsets at which the loop's minimizing index steps, from k = 2 up to
    the band edge at k_max; the band is strictly between the outermost two."""
    length, width = dr_axis(family)
    k_max = math.ceil(2.0 * length / min(DR["a"], DR["b"])) + 2
    critical = []
    for k in range(2, k_max + 1):
        m = length / (2.0 * k)
        if m <= width / 2.0:
            critical += [m, width - m]
    return sorted(critical)


def _dr_offset(rng: random.Random, family: str, turn: int, shifts=(0.0,)) -> float:
    """Offset across the band, stratified by turn so that every seed sees the
    same mix of indices; redrawn while the loop or a shift of it comes within
    DR_MARGIN of a critical offset."""
    critical = dr_critical_offsets(family)
    lo = critical[0] + max(abs(s) for s in shifts)
    hi = critical[-1] - max(abs(s) for s in shifts)
    stratum = turn % DR_STRATA
    while True:
        offset = lo + (hi - lo) * (stratum + rng.uniform(0.02, 0.98)) / DR_STRATA
        if all(abs(offset + s - c) > DR_MARGIN for s in shifts for c in critical):
            return offset


def _straight_config(rng, name: str, k: int, turn: int) -> dict:
    periods = periods_of(SPACES[name])
    klass = _UNIT_CLASSES[name][turn % 4]
    return {"points": _torus_loop_points(periods, klass, k, _torus_base(rng, periods))}


def _cut_config(rng) -> dict:
    """The (1,2)-class loop on T2 sampled at its index k = 4: every
    consecutive pair is a cut pair (15 candidate gradients)."""
    periods = periods_of(T2)
    return {"points": _torus_loop_points(periods, (1, 2), 4, _torus_base(rng, periods))}


def _generic_config(rng, name: str, k: int) -> dict:
    periods = periods_of(SPACES[name])
    return {"points": [_pt(_torus_base(rng, periods)) for _ in range(k)]}


def _random_pair(rng, name: str) -> dict:
    if name == "DR":
        def draw():
            return _pt([rng.uniform(0.05, 1.95), rng.uniform(0.05, 0.95)],
                       rng.choice(["top", "bottom"]))
        return {"p": draw(), "q": draw()}
    periods = periods_of(SPACES[name])
    return {"p": _pt(_torus_base(rng, periods)), "q": _pt(_torus_base(rng, periods))}


SWEEP_SUBS = ("minind/T2", "openly/T3", "hessian/T2/k4", "candgrad/T2-cut")


def _analysis_entry(rng: random.Random, label: str, turn: int):
    parts = label.split("/")
    command, where = parts[0], parts[1]
    seed = rng.randrange(2**31)
    if command == "sweep":
        subs = []
        for sub_label in SWEEP_SUBS[: int(where)]:
            doc, expect = _analysis_entry(rng, sub_label, turn)
            subs.append({"doc": doc, "expect": expect})
        doc = {"schema": 1, "command": "sweep", "seed": seed, "jobs": 2,
               "inputs": {"scenarios": [s["doc"] for s in subs]}}
        return doc, {"subs": subs}
    if command in ("minind", "openly"):
        if where.startswith("DR"):
            family = "vertical" if where == "DR-v" else "horizontal"
            space = DR
            geod = dr_segment_geodesic(family, _dr_offset(rng, family, turn), rng.uniform(0.1, 0.9))
        else:
            space = SPACES[where]
            geod = _torus_class_geodesic(rng, periods_of(space), _MININD_CLASSES[where][turn % 4])
        if command == "minind":
            return _scenario(space, "minind", seed, {"geodesic": geod}), {}
        if geod["kind"] == "torus_class":
            k = 2 * max(abs(m) for m in geod["class"]) + turn % 2
        else:
            k = (2, 3, 4, 6)[turn % 4]
        return _scenario(space, "openly", seed, {"geodesic": geod, "k": k}), {}
    if command == "probe":
        if where == "DR-v":
            # slide the vertical loop sideways; every shifted loop keeps in the band
            shifts = [PROBE_S_MAX * (2.0 * i / (PROBE_STEPS - 1) - 1.0) for i in range(PROBE_STEPS)]
            offset = _dr_offset(rng, "vertical", turn, shifts)
            geod = dr_segment_geodesic("vertical", offset, rng.uniform(0.1, 0.9))
            variation = {"geodesic": geod, "field": [(-1.0, 1.0)[turn % 2], 0.0],
                         "s_max": PROBE_S_MAX, "steps": PROBE_STEPS, "perpendicular": True}
            return _scenario(DR, "probe", seed, {"variation": variation}), {}
        space = SPACES[where]
        geod = _torus_class_geodesic(rng, periods_of(space), _MININD_CLASSES[where][turn % 4])
        field = [rng.uniform(-1.0, 1.0) for _ in geod["base"]["coords"]]
        variation = {"geodesic": geod, "field": field, "s_max": 0.2, "steps": 5}
        return _scenario(space, "probe", seed, {"variation": variation}), {}
    if command == "hessian":
        inputs = _straight_config(rng, where, int(parts[2][1:]), turn)
        return _scenario(SPACES[where], "hessian", seed, inputs), {}
    if command == "candgrad":
        if where == "T2-cut":
            return _scenario(T2, "candgrad", seed, _cut_config(rng)), {}
        return _scenario(SPACES[where], "candgrad", seed, _generic_config(rng, where, 5)), {}
    if command == "dist":
        return _scenario(SPACES[where], "dist", seed, _random_pair(rng, where)), {}
    raise ValueError(f"unknown analysis size class {label!r}")


# -- corpus -------------------------------------------------------------------------

_ENTRY = {"descent": _descent_entry, "restart": _restart_entry, "analysis": _analysis_entry}
_ROUND = {"descent": DESCENT_ROUND, "restart": RESTART_ROUND, "analysis": ANALYSIS_ROUND}


def build(workload: str, seed: int, rounds: int | None = None) -> list[dict]:
    """The corpus of ``workload`` for ``seed``: ``rounds`` rounds of the
    workload's size classes.  Discrete choices (class, loop family, stratum)
    follow how often the size class has occurred so far, never the seed;
    the seed draws the continuous parameters."""
    if workload not in ROUNDS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"loopflow-perfbench/{workload}/{seed}")
    turns: dict = {}
    entries = []
    for _ in range(ROUNDS[workload] if rounds is None else rounds):
        for size in _ROUND[workload]:
            turn = turns[size] = turns.get(size, -1) + 1
            doc, expect = _ENTRY[workload](rng, size, turn)
            entries.append({"id": f"{workload}/s{seed}/{len(entries):04d}",
                            "size": size_label(size), "doc": doc, "expect": expect})
    return entries


def size_label(size) -> str:
    """``T2/k6/descend``, ``T3/2,1,1/r2`` or the analysis label itself."""
    if isinstance(size, str):
        return size
    name, middle, last = size
    if isinstance(middle, int):
        return f"{name}/k{middle}/{last}"
    return f"{name}/{','.join(str(m) for m in middle)}/r{last}"


WARMUP = {
    "descent": ("T2/k6/descend", "T2/k6/birkhoff"),
    "restart": ("T2/1,2/r1", "T2/2,1/r2"),
    "analysis": ("minind/T2", "openly/T3", "dist/DR", "candgrad/PT"),
}


def warmup(workload: str, seed: int) -> list[dict]:
    """One scenario of each of the workload's cheapest size classes, drawn
    from a separate stream of the seed; run before the timed phase."""
    first = build(workload, seed + 2**32, rounds=1)
    picked = {}
    for entry in first:
        if entry["size"] in WARMUP[workload]:
            picked.setdefault(entry["size"], entry)
    return list(picked.values())

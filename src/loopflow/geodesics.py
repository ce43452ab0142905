"""Closed geodesics and their minimizing properties.

A closed geodesic minimizes on arcs of length L/k for every large enough k;
the smallest such k >= 2 is its minimizing index.  Lower is better: the loop
then minimizes on longer subarcs.  A geodesic is "openly" 1/k when, in
addition, no pair of points at arc distance L/k is a cut pair, so the
minimization survives small perturbations.

Every backend is a flat quotient, so all of this is exact, not sampled.  A
loop is held as what it is in the flat cover: a start row c and a closing
displacement D, the straight line c + u D for u in [0, 1), which closes by
a deck translation.  Its points are ``Space.step_batch`` steps u D from c.
Each translation lift of a pair at arc L/k is D/k plus a lattice vector,
whatever the pair.  On the doubled rectangle, a reflection lift sweeps a
line as the pair moves, so its shortest length is the distance of that line
from the lattice, the same at every k.  The index, the openly test and the
cut pair therefore cost O(1) per product factor (``Space.loop_arcs``).

A scenario names a loop in one of two ways: a homotopy class on (products
of) flat tori, D = class * periods, or a base point, a unit chart direction
and a length L, D = frame * L * direction, checked to close: D must lie
within ``closure_tol`` of the cover's translation lattice and the line must
clear the cone points.  A variation of the loop moves c and keeps D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    POSITIVE,
    ClosureError,
    GeometryError,
    ResourceLimitError,
    SpaceSupportError,
    ValidationError,
    _real,
    check_rule,
    count_rule,
)
from .spaces import (
    DEFAULT_TOL,
    Point,
    Space,
    Tangent,
    _step,
    effective_periods,
    point_from_dict,
    point_to_dict,
    space_from_dict,
)

TWO_PI = 2.0 * math.pi
CLOSURE_TOL = 1e-9
# largest |entry| of a class a scenario may give: beyond about 1e6 periods a
# loop point's chart coordinates round by more than the default tie tolerance
MAX_CLASS_ENTRY = 10**6
# cap on a variation's ``steps``: each costs up to about 0.75 ms (a product
# with a doubled-rectangle factor), so the largest profile stays under a second
MAX_PROBE_STEPS = 1024


@dataclass(frozen=True, eq=False)
class ClosedGeodesic:
    """A constant-speed closed geodesic parameterized over [0, 2*pi): the
    line from the cover row ``start`` along the closing cover displacement
    ``disp``, of length ``length``.  ``base`` is the point of ``start`` and
    ``direction`` the unit chart velocity there; ``klass`` is the torus
    class a scenario named the loop by, if any."""

    space: Space
    base: Point
    length: float
    direction: np.ndarray
    start: np.ndarray
    disp: np.ndarray
    klass: np.ndarray | None = None

    @property
    def kind(self) -> str:
        return "torus_class" if self.klass is not None else "segment_loop"


def torus_class_geodesic(space: Space, base: Point, klass) -> ClosedGeodesic:
    """The straight closed geodesic in a torus homotopy class."""
    periods = effective_periods(space)
    if periods is None:
        raise SpaceSupportError("torus_class descriptors need flat-torus factors only")
    klass = np.asarray(klass, dtype=int)
    if klass.shape != (space.dim,):
        raise ValidationError(f"class vector must have {space.dim} entries")
    if not np.any(klass):
        raise ValidationError("the zero class is a point, not a closed geodesic")
    space._check_point(base, "geodesic base")
    disp = klass * periods
    length = float(np.linalg.norm(disp))
    return ClosedGeodesic(space, base, length, disp / length, space._embed(base), disp, klass)


def segment_loop_geodesic(
    space: Space,
    base: Point,
    direction,
    length: float,
    closure_tol: float = CLOSURE_TOL,
) -> ClosedGeodesic:
    """The straight loop of the given length from a base point along a chart
    direction; it must clear the cone points and close by a deck translation
    within ``closure_tol``."""
    direction = np.asarray(direction, dtype=float)
    norm = float(np.linalg.norm(direction))
    if norm == 0.0 or length <= 0.0:
        raise ValidationError("segment loop needs a nonzero direction and positive length")
    space._check_point(base, "geodesic base")
    direction = space.tangent(base, direction / norm).vec
    frame = space._frame(base)
    disp = length * (direction if frame is None else frame * direction)
    start = space._embed(base)
    _step(space, start[None], disp[None])
    if space.lattice_gap(disp) > closure_tol:
        raise ClosureError("loop does not close by a deck translation")
    return ClosedGeodesic(space, base, length, direction, start, disp)


def _steps(g: ClosedGeodesic, ts) -> np.ndarray:
    """Rows u D, u = (t mod 2 pi) / 2 pi: the cover displacements from the
    start row of the loop points at parameters ts."""
    return ((np.asarray(ts) % TWO_PI) / TWO_PI)[:, None] * g.disp


def _cover(g: ClosedGeodesic, ts) -> tuple:
    """``step_batch`` rows and frames of the loop points at parameters ts."""
    steps = _steps(g, ts)
    return _step(g.space, np.broadcast_to(g.start, steps.shape), steps)


def _points(g: ClosedGeodesic, ts) -> tuple[Point, ...]:
    """The loop points at parameters ts."""
    return g.space.points_batch(_cover(g, ts)[0])


def _charts(g: ClosedGeodesic, ts) -> tuple:
    """Rows of the chart coordinates and of the unit chart velocities of the
    loop points at parameters ts."""
    C = g.start + _steps(g, ts)
    return g.space.chart_batch(C, np.broadcast_to(g.disp / g.length, C.shape))


def point_at(g: ClosedGeodesic, t: float) -> Point:
    """The loop point at parameter t (reduced mod 2*pi)."""
    return _points(g, [t])[0]


def velocity_at(g: ClosedGeodesic, t: float) -> np.ndarray:
    """Unit velocity in the chart of ``point_at(g, t)``."""
    return _charts(g, [t])[1][0]


def _arcs(g: ClosedGeodesic, k: int, tol: float):
    if k < 2:
        raise ValidationError("k must be at least 2")
    return g.space.loop_arcs(g.start, g.disp, k, tol)


def is_k_geodesic(g: ClosedGeodesic, k: int, tol: float = DEFAULT_TOL) -> bool:
    """True when the loop minimizes on every arc of length L/k."""
    return _arcs(g, k, tol).minimizing


def minimizing_index(g: ClosedGeodesic, tol: float = DEFAULT_TOL) -> int:
    """Smallest k >= 2 for which the loop is a 1/k-geodesic.

    The closed form gives it up to float and ``tol`` edges, which one test
    at k and one at k - 1 settle.
    """
    k = _arcs(g, 2, tol).floor
    if not is_k_geodesic(g, k, tol):
        k += 1
    elif k > 2 and is_k_geodesic(g, k - 1, tol):
        k -= 1
    return k


def torus_class_minind(g: ClosedGeodesic) -> int:
    """Closed form for torus classes: twice the largest |class entry|."""
    if g.klass is None:
        raise SpaceSupportError("closed form applies to torus_class descriptors only")
    return 2 * int(np.max(np.abs(g.klass)))


def _minimizing_arcs(g: ClosedGeodesic, k: int, tol: float):
    arcs = _arcs(g, k, tol)
    if not arcs.minimizing:
        raise ValidationError(f"the loop is not a 1/{k}-geodesic")
    return arcs


def is_openly_k_geodesic(g: ClosedGeodesic, k: int, tol: float = DEFAULT_TOL) -> bool:
    """True when no pair at arc distance L/k is a cut pair (the loop must be
    a 1/k-geodesic)."""
    return _minimizing_arcs(g, k, tol).cut is None


class CutPair(NamedTuple):
    """A parameter whose arc endpoints are joined by several minimizers."""

    t: float
    distance: float


def max_cut_pair(g: ClosedGeodesic, k: int, tol: float = DEFAULT_TOL) -> CutPair | None:
    """The cut pair at arc separation 2*pi/k with the smallest parameter.

    Every pair of a 1/k-geodesic is at distance L/k, so this is also a cut
    pair of maximal distance.  Returns None when there is no cut pair, and
    raises ``ValidationError`` when the loop is not a 1/k-geodesic.
    """
    cut = _minimizing_arcs(g, k, tol).cut
    if cut is None:
        return None
    t = TWO_PI * cut
    return CutPair(t=t, distance=g.space.distance(*_points(g, [t, t + TWO_PI / k])))


def geodesic_from_chain(x, chain, tol: float = 1e-6) -> ClosedGeodesic:
    """Classify a straight broken loop (a chain of minimizing segments whose
    joints have no angles) into a closed geodesic descriptor."""
    space = x.space
    k = x.k
    for i in range(k):
        v_out = chain[i].v0
        v_in = chain[(i - 1) % k].v1
        if float(np.linalg.norm(v_out - v_in)) > tol:
            raise GeometryError(f"joint {i} of the chain has an angle")
    length = sum(s.length for s in chain)
    periods = effective_periods(space)
    if periods is not None:
        total = np.zeros(space.dim)
        for s in chain:
            total += s.length * s.v0
        klass = np.round(total / periods).astype(int)
        if float(np.linalg.norm(total - klass * periods)) > tol * max(1.0, length):
            raise GeometryError("chain winding is not an integer class")
        return torus_class_geodesic(space, x.points[0], klass)
    return segment_loop_geodesic(space, x.points[0], chain[0].v0, length, closure_tol=max(tol, CLOSURE_TOL))


# -- variations -----------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class VariationSpec:
    """A one-parameter family of loops obtained by flowing every loop point
    along a constant chart field for time s."""

    geodesic: ClosedGeodesic
    field: np.ndarray
    s_max: float
    steps: int
    perpendicular: bool = False

    def __post_init__(self):
        if self.s_max <= 0 or self.steps < 3:
            raise ValidationError("variation needs s_max > 0 and at least 3 steps")
        if self.field.shape != (self.geodesic.space.dim,):
            raise ValidationError("variation field has the wrong dimension")


def variation_geodesic(var: VariationSpec, s: float) -> ClosedGeodesic:
    """The loop of the family at parameter s: the start row moves by s times
    the field (a chart vector at the base, taken to the cover), and the
    closing displacement stays.  Raises ``DegenerateTrajectoryError`` when
    the start's path or the moved loop runs through a cone point."""
    g = var.geodesic
    step = g.space.chart_batch(g.start[None], s * var.field[None])[1][0]
    start = g.start + step
    rows, _ = _step(g.space, np.array([g.start, start]), np.array([step, g.disp]))
    direction = g.space.chart_batch(start[None], (g.disp / g.length)[None])[1][0]
    return ClosedGeodesic(g.space, g.space.points_batch(rows[:1])[0], g.length, direction,
                          start, g.disp, g.klass)


# the loop parameters at which a variation is checked to be a synchronized flow
_CHECK_TS = np.linspace(0.0, TWO_PI, 9)[:-1]


def _check_variation(var: VariationSpec, s: float, shifted: ClosedGeodesic, tol: float, cover):
    """Raise unless the loop points at _CHECK_TS, flowed along the field for
    time s, are the shifted loop's.  From ``cover`` (``_check_cover``) one
    array pass may certify that; otherwise the point by point check decides."""
    g = var.geodesic
    if cover is not None:
        rows, frames = cover
        moved = g.space.step_batch(rows, s * var.field if frames is None else frames * (s * var.field))
        if moved is not None and (g.space.segment_batch(
                moved[0], _cover(shifted, _CHECK_TS)[0], tol)[2] <= max(tol, 1e-8)).all():
            return
    for t in _CHECK_TS:
        expected = g.space.exp_map(Tangent(point_at(g, t), var.field), s)
        if g.space.distance(expected, point_at(shifted, t)) > max(tol, 1e-8):
            raise GeometryError(f"variation is not a synchronized flow at s={s}, t={t}")
        if var.perpendicular:
            if abs(float(var.field @ velocity_at(g, t))) > max(tol, 1e-8):
                raise ValidationError("variation field is not perpendicular to the loop")


def _check_cover(var: VariationSpec, tol: float):
    """The central loop's ``_cover`` at _CHECK_TS, or None when the field
    fails the perpendicularity test, which does not depend on s and so runs
    once here; the point by point check then raises where it always did."""
    g = var.geodesic
    if var.perpendicular and (np.abs(_charts(g, _CHECK_TS)[1] @ var.field) > max(tol, 1e-8)).any():
        return None
    return _cover(g, _CHECK_TS)


def _index_flags(g: ClosedGeodesic, k0: int, tol: float) -> tuple[int, bool]:
    """The minimizing index of a loop, and whether it is openly 1/k0."""
    mind = minimizing_index(g, tol)
    arcs = _arcs(g, k0, tol)
    return mind, mind <= k0 and arcs.minimizing and arcs.cut is None


@dataclass(frozen=True)
class ProfileRow:
    s: float
    minind: int
    openly: bool


@dataclass(frozen=True, eq=False)
class VariationProfile:
    rows: tuple[ProfileRow, ...]
    k0: int
    cut_t: float | None
    cut_distance: float | None
    dplus: float | None
    openly_preserved: bool | None
    forward_index_jump: bool | None


def variation_minind_profile(
    var: VariationSpec,
    k_hint: int | None = None,
    tol: float = DEFAULT_TOL,
) -> VariationProfile:
    """Minimizing index and openly flag along the family, plus the one-sided
    derivative of distance at the central loop's widest cut pair.

    ``forward_index_jump`` reports whether, when that derivative is negative,
    the minimizing index at the smallest positive sampled s equals k0 + 1.
    ``openly_preserved`` reports whether a centrally openly-1/k0 loop stays
    openly 1/k0 over the whole sampled range (None when not openly at 0).
    A ``k_hint`` below the central loop's index raises ``ValidationError``,
    and ``steps`` above ``MAX_PROBE_STEPS`` ``ResourceLimitError``.
    """
    from .energy import dplus_distance

    if var.steps > MAX_PROBE_STEPS:
        raise ResourceLimitError(
            f"variation steps {var.steps} exceed MAX_PROBE_STEPS = {MAX_PROBE_STEPS}")

    g = var.geodesic
    k0 = k_hint or minimizing_index(g, tol)
    cut = max_cut_pair(g, k0, tol)
    cover = _check_cover(var, tol)
    # on (products of) tori loop_arcs ignores the start row, so every
    # translate of the loop shares its index and openness
    flags = _index_flags(g, k0, tol) if effective_periods(g.space) is not None else None
    rows = []
    for s in np.linspace(-var.s_max, var.s_max, var.steps):
        shifted = variation_geodesic(var, float(s))
        _check_variation(var, float(s), shifted, tol, cover)
        mind, openly = flags or _index_flags(shifted, k0, tol)
        rows.append(ProfileRow(s=float(s), minind=mind, openly=openly))

    dplus = None
    forward_jump = None
    if cut is not None:
        p, q = _points(g, [cut.t, cut.t + TWO_PI / k0])
        dplus = dplus_distance(g.space, p, q, var.field, var.field, tol)
        if dplus < 0:
            positives = [r for r in rows if r.s > 0]
            forward_jump = bool(positives) and positives[0].minind == k0 + 1
    openly_preserved = all(r.openly for r in rows) if cut is None else None

    return VariationProfile(
        rows=tuple(rows),
        k0=k0,
        cut_t=None if cut is None else cut.t,
        cut_distance=None if cut is None else cut.distance,
        dplus=dplus,
        openly_preserved=openly_preserved,
        forward_index_jump=forward_jump,
    )


# -- serialization ----------------------------------------------------------------


def geodesic_to_dict(g: ClosedGeodesic) -> dict:
    data = {
        "space": g.space.to_dict(),
        "kind": g.kind,
        "base": point_to_dict(g.base),
        "length": g.length,
    }
    if g.kind == "torus_class":
        data["class"] = [int(m) for m in g.klass]
    else:
        data["direction"] = [float(v) for v in g.direction]
    return data


def geodesic_from_dict(
    data: dict, space: Space | None = None, where: str = "geodesic"
) -> ClosedGeodesic:
    if not isinstance(data, dict) or "kind" not in data:
        raise ValidationError(f"{where}: expected an object with a 'kind' field")
    if space is None:
        space = space_from_dict(data.get("space", {}), f"{where}.space")
    base = point_from_dict(space, data.get("base", {}), f"{where}.base")
    if data["kind"] == "torus_class":
        if "class" not in data:
            raise ValidationError(f"{where}.class: missing")
        klass = data["class"]
        entry = count_rule(-MAX_CLASS_ENTRY)[0]
        if not isinstance(klass, list) or not all(entry(m) and m <= MAX_CLASS_ENTRY for m in klass):
            raise ValidationError(f"{where}.class: expected a list of integers of absolute value "
                                  f"at most {MAX_CLASS_ENTRY}, got {klass!r}")
        return torus_class_geodesic(space, base, klass)
    if data["kind"] == "segment_loop":
        if "direction" not in data or "length" not in data:
            raise ValidationError(f"{where}.direction / {where}.length: missing")
        check_rule(POSITIVE, data["length"], f"{where}.length")
        direction = data["direction"]
        if not (isinstance(direction, list) and len(direction) == space.dim
                and all(map(_real, direction))
                and 0.0 < sum(float(v) * float(v) for v in direction) < math.inf):
            raise ValidationError(f"{where}.direction: expected a list of {space.dim} finite "
                                  f"numbers whose squares sum to a finite nonzero number, "
                                  f"got {direction!r}")
        return segment_loop_geodesic(space, base, direction, float(data["length"]))
    raise ValidationError(f"{where}.kind: unknown variant {data['kind']!r}")

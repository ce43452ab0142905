"""Geometry backends: flat tori, doubled rectangles, and Riemannian products.

Every backend here is a flat quotient of a rectangular torus, so the full set
of minimizing geodesics between two points is a set of lattice lifts, and one
encoder, ``FlatTorus._lifts``, lists them.  Squared length is a sum over
coordinates, so each coordinate ranges over its own short set of lifts; the
box of those sets holds every lift within reach, and MAX_LATTICE_CANDIDATES
caps it.  The doubled rectangle runs the encoder on both sheets of its cover
torus: the translation sheet and the point-reflection sheet.

Chart conventions:

* flat torus -- one global chart, coordinates reduced to [0, a_i) per period.
* doubled rectangle -- two rectangle faces ("top"/"bottom") glued along the
  boundary.  It is realized as the covering torus R^2/(2aZ + 2bZ) quotiented
  by the point reflection (x, y) -> (-x, -y); the top face embeds into the
  cover as (x, y), the bottom face as (x, 2b - y).  The four rectangle
  corners are cone points of angle pi; no minimizing segment passes through
  one, and trajectories that do raise ``DegenerateTrajectoryError``.
* product -- concatenation of factor charts; distance combines factor
  distances Euclideanly, and a product segment is minimizing exactly when
  every factor segment is.

All operations are pure functions of immutable values; nothing here mutates
or caches, so values are freely shareable across threads.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    POSITIVE,
    CoincidentPointsError,
    DegenerateTrajectoryError,
    DimensionMismatchError,
    ResourceLimitError,
    ValidationError,
    _real,
    check_rule,
)

DEFAULT_TOL = 1e-9
CONE_TOL = 1e-9
# a line (a flow, an array step, a loop) must clear every cone by this much;
# twice CONE_TOL, so that a segment it certifies is never a degenerate minimizer
CONE_CLEARANCE = 2.0 * CONE_TOL
# below this length a squared length is subnormal or near it, so lengths of
# shorter vectors are taken after scaling by the exact power of two _UNSCALE
TINY = 1e-150
_UNSCALE = 2.0**600
# absolute slack, per unit of period, added to the doubled tie tolerance when
# ``segment_batch`` certifies a unique minimizer, and to the edges of the lift
# box of ``FlatTorus._lifts``; far above float rounding
TIE_SLACK = 1e-12
# cap on the lift box of one minimizing-geodesic query (per doubled-rectangle sheet)
MAX_LATTICE_CANDIDATES = 200_000

TOP = "top"
BOTTOM = "bottom"


@dataclass(frozen=True, eq=False)
class Point:
    """A point of a space, stored in canonical chart coordinates.

    ``face`` is used only by the doubled rectangle ("top"/"bottom"; boundary
    points are canonicalized to the top face).  Products whose factors need
    faces carry a tuple with one entry per factor.
    """

    coords: np.ndarray
    face: str | tuple | None = None

    def __repr__(self) -> str:
        tag = f", face={self.face!r}" if self.face is not None else ""
        return f"Point({np.array2string(self.coords, precision=6)}{tag})"


@dataclass(frozen=True, eq=False)
class Tangent:
    """A chart vector attached to a base point."""

    base: Point
    vec: np.ndarray


@dataclass(frozen=True, eq=False)
class MinGeodesic:
    """One unit-speed minimizing geodesic between two points.

    ``v0``/``v1`` are the initial and terminal unit velocities in the chart
    of the start/end point.  ``lift`` identifies the covering-space lift:
    a tuple of lattice integers on the torus, ``(sheet, lam_x, lam_y)`` on
    the doubled rectangle, and a tuple of factor lifts on products.
    """

    length: float
    v0: np.ndarray
    v1: np.ndarray
    lift: tuple
    degenerate: bool = False


class LoopArcs(NamedTuple):
    """What the covering-space lifts say about the pairs of points at arc
    separation L/k of a straight closed loop of length L."""

    floor: int  # smallest k >= 2 the closed forms allow; the same for every k
    minimizing: bool  # every pair is joined by its arc, within tol
    cut: float | None  # smallest loop fraction in [0, 1) of a pair with two minimizers


def _as_vector(x, dim: int, what: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.shape != (dim,):
        raise DimensionMismatchError(f"{what}: expected shape ({dim},), got {arr.shape}")
    return arr


class Space:
    """Common interface of the geometry backends."""

    dim: int

    # -- points and tangents -------------------------------------------------

    def point(self, coords, face=None) -> Point:
        raise NotImplementedError

    def tangent(self, base: Point, vec) -> Tangent:
        return Tangent(base, _as_vector(vec, self.dim, "tangent vector"))

    # -- metric --------------------------------------------------------------

    def distance(self, p: Point, q: Point) -> float:
        raise NotImplementedError

    def minimizing_geodesics(
        self, p: Point, q: Point, tol: float = DEFAULT_TOL, allow_degenerate: bool = False
    ) -> list[MinGeodesic]:
        raise NotImplementedError

    def is_cut_pair(self, p: Point, q: Point, tol: float = DEFAULT_TOL) -> bool:
        """True when p and q are joined by more than one minimizing geodesic.

        Flat quotients have no conjugate points away from cone points, so
        multiplicity of minimizers is the only source of cut points.
        """
        return len(self.minimizing_geodesics(p, q, tol, allow_degenerate=True)) >= 2

    def loop_arcs(self, start: np.ndarray, disp: np.ndarray, k: int, tol: float = DEFAULT_TOL):
        """Closed-form ``LoopArcs`` of the straight closed loop that leaves
        the cover row ``start`` along the cover displacement ``disp`` (of
        length L, a deck translation) and so returns to it with the same
        velocity.  O(1) in k."""
        raise NotImplementedError

    def lattice_gap(self, disp: np.ndarray) -> float:
        """Distance of the cover displacement ``disp`` from the nearest deck
        translation: 0 exactly when a straight loop along it closes with its
        own velocity."""
        raise NotImplementedError

    def trivial_lift(self) -> tuple:
        """The lift of the constant segment from a point to itself."""
        raise NotImplementedError

    # -- flows ---------------------------------------------------------------

    def flow(self, tan: Tangent, s: float):
        """Straight-line flow for time ``s``: one ``step_batch`` row.

        Returns ``(endpoint, velocity)`` where ``velocity`` is the tangent
        vector expressed in the endpoint's chart; raises
        ``DegenerateTrajectoryError`` when the line runs through a cone point.
        """
        self._check_point(tan.base)
        vec = _as_vector(tan.vec, self.dim, "tangent vector")
        frame = self._frame(tan.base)
        start, cover_vec = self._embed(tan.base), vec if frame is None else frame * vec
        (end,) = self.points_batch(_step(self, start[None], s * cover_vec[None])[0])
        return end, self.chart_batch((start + s * cover_vec)[None], cover_vec[None])[1][0]

    def exp_map(self, tan: Tangent, s: float) -> Point:
        return self.flow(tan, s)[0]

    # -- misc ----------------------------------------------------------------

    def min_scale(self) -> float:
        """Shortest period-like length; scales default perturbation sizes."""
        raise NotImplementedError

    # -- array step ------------------------------------------------------------
    # A configuration is (k, dim) cover rows (``_embed``) and their chart
    # frames (``_frame``; None on tori), and a closed geodesic is a cover row
    # and a closing cover displacement.  Each backend gives
    # ``segment_batch(A, B, tol) -> (e0, sign, length, unique)``,
    # ``minimizing_geodesics`` of the rows (A[j], B[j]) in the cover frame
    # where ``unique`` certifies one minimizer; ``step_batch(C, D)``, the rows
    # and frames reached along cover displacements D, or None near a cone
    # (every move is one, ``flow`` included); ``points_batch``, the points of
    # rows that ``step_batch`` gave; and ``chart_batch``, charts of rows
    # anywhere in the cover.
    # ``cover_periods`` are the periods of the cover torus, per coordinate.

    def _embed(self, p: Point) -> np.ndarray:
        """The cover row of a point."""
        return p.coords

    def _frame(self, p: Point) -> np.ndarray | None:
        """The diagonal of the point's chart matrix, chart = frame * cover
        vector; None where every chart matrix is the identity."""
        return None

    def chart_batch(self, C: np.ndarray, V: np.ndarray) -> tuple:
        """For cover rows C, any lifts of their points: the points' chart
        coordinates, and the cover vectors V[j] at C[j] as chart vectors at
        the points (a deck transform's linear part, then the chart's).  That
        map is a diagonal of signs, so it also takes chart vectors back."""
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError

    def _check_point(self, p: Point, what: str = "point") -> None:
        if p.coords.shape != (self.dim,):
            raise DimensionMismatchError(
                f"{what}: expected dimension {self.dim}, got {p.coords.shape}"
            )


def _step(space: Space, C: np.ndarray, D: np.ndarray) -> tuple:
    """``Space.step_batch`` of the cover rows C along the cover displacements
    D; raises ``DegenerateTrajectoryError`` when one runs through a cone."""
    out = space.step_batch(C, D)
    if out is None:
        raise DegenerateTrajectoryError("trajectory passes through a cone point")
    return out


def _length(v: np.ndarray) -> float:
    """``np.linalg.norm`` of a float vector, which is ``sqrt(v.dot(v))``, at a
    third of its cost; exact to rounding also below TINY."""
    length = math.sqrt(v.dot(v))
    if length >= TINY:
        return length
    v = v * _UNSCALE
    return math.sqrt(v.dot(v)) / _UNSCALE


def _lengths(V: np.ndarray) -> np.ndarray:
    """The ``_length`` of every row, with ``np.vecdot``, which adds like
    ``np.linalg.norm``; ``(V*V).sum`` rounds differently in some rows."""
    length = np.sqrt(np.vecdot(V, V))
    tiny = length < TINY
    if tiny.any():
        length[tiny] = np.sqrt(np.vecdot(V[tiny] * _UNSCALE, V[tiny] * _UNSCALE)) / _UNSCALE
    return length


def _any_column(M: np.ndarray) -> np.ndarray:
    """``M.any(axis=1)``, column by column: numpy reduces a short last axis
    many times slower than it combines whole columns."""
    return functools.reduce(np.logical_or, M.T)


def wrap(coords: np.ndarray, periods: np.ndarray) -> np.ndarray:
    """Coordinates reduced into [0, period) per column."""
    out = coords - periods * np.floor(coords / periods)
    # floor can land exactly on the period for values like -1e-17
    return np.where(out >= periods, out - periods, out)


class FlatTorus(Space):
    """Flat rectangular torus R^n / (a_1 Z x ... x a_n Z)."""

    def __init__(self, periods):
        periods = np.asarray(periods, dtype=float)
        if periods.ndim != 1 or periods.size == 0:
            raise ValidationError("flat torus needs a nonempty list of periods")
        if not np.all(periods > 0):
            raise ValidationError("flat torus periods must be strictly positive")
        self.periods = self.cover_periods = periods
        self.dim = periods.size

    def point(self, coords, face=None) -> Point:
        if face is not None:
            raise ValidationError("flat torus points carry no face tag")
        coords = _as_vector(coords, self.dim, "point")
        return Point(wrap(coords, self.periods))

    def distance(self, p: Point, q: Point) -> float:
        self._check_point(p)
        self._check_point(q)
        delta = q.coords - p.coords
        delta = delta - self.periods * np.round(delta / self.periods)
        return _length(delta)

    def minimizing_geodesics(self, p, q, tol=DEFAULT_TOL, allow_degenerate=False):
        self._check_point(p)
        self._check_point(q)
        d = self.distance(p, q)
        if d == 0.0:
            raise CoincidentPointsError("points coincide within floating precision")
        found = list(self._lifts(q.coords - p.coords, d + tol))
        dmin = min(length for _, _, length in found)
        return [MinGeodesic(length=length, v0=disp / length, v1=disp / length, lift=lam)
                for lam, disp, length in found if length <= dmin + tol]

    def _lifts(self, delta: np.ndarray, reach: float):
        """Yield ``(lam, disp, length)`` for every lattice lift ``disp = delta +
        lam * periods`` with ``length <= reach``, in the order of ``lam``.

        Squared length is a sum over coordinates, so coordinate i ranges only
        over the lifts whose square fits in ``reach**2`` less the other
        coordinates' nearest squares; widened by TIE_SLACK periods against
        rounding, that box contains the ball.  MAX_LATTICE_CANDIDATES bounds
        the box."""
        deltas, periods = delta.tolist(), self.periods.tolist()
        sq = [(d - a * round(d / a)) ** 2 for d, a in zip(deltas, periods)]
        total = sum(sq)
        ranges = []
        for d, a, s in zip(deltas, periods, sq):
            # room <= reach; the min keeps it finite where reach**2 overflows
            room = min(reach, math.sqrt(max(reach * reach - (total - s), s)))
            ranges.append(range(math.ceil((-room - d) / a - TIE_SLACK),
                                math.floor((room - d) / a + TIE_SLACK) + 1))
        count = math.prod(r.stop - r.start for r in ranges)
        if count > MAX_LATTICE_CANDIDATES:
            raise ResourceLimitError(f"lattice enumeration too large ({count} candidates)")
        for lam in itertools.product(*ranges):
            disp = delta + np.asarray(lam, dtype=float) * self.periods
            length = _length(disp)
            if length <= reach:
                yield lam, disp, length

    def loop_arcs(self, start, disp, k, tol=DEFAULT_TOL):
        # every translation lift of every pair at arc L/k is disp/k plus a
        # lattice vector, so one row decides them all and the base is moot;
        # the row is reduced exactly when k >= 2 * max |class entry|
        row = disp / k
        delta = row - self.periods * np.round(row / self.periods)
        length = math.sqrt(float(delta @ delta))
        floor = max(2, 2 * int(np.abs(np.round(disp / self.periods)).max()))
        tie = bool(self._flip_ties(delta, length, tol).any())
        minimizing = length >= float(np.linalg.norm(disp)) / k - tol
        return LoopArcs(floor, minimizing, 0.0 if tie else None)

    def lattice_gap(self, disp):
        return float(np.linalg.norm(disp - self.periods * np.round(disp / self.periods)))

    def trivial_lift(self):
        return (0,) * self.dim

    def min_scale(self) -> float:
        return float(self.periods.min())

    # batch kernels operate on (N, dim) coordinate arrays; faces unused here

    def _flip_ties(self, delta, length, tol) -> np.ndarray:
        """Per coordinate of the nearest-lift displacement ``delta``: does
        flipping it to the far lift give a minimizer within ``tol`` of the
        nearest one?  ``length`` is |delta|, broadcast against ``delta``."""
        # squared-length increase of flipping coordinate i to the far lift
        inc = self.periods * (self.periods - 2.0 * np.abs(delta))
        return inc <= 2.0 * length * tol + tol * tol

    def segment_batch(self, A, B, tol: float):
        """Array form of ``minimizing_geodesics`` for the pairs (A[j], B[j]).

        Returns the unit velocity ``v0`` (N, dim) at A and the ``length``
        (N,) of the nearest lift, bit for bit as the scalar minimizer gives
        them; the per-coordinate ``sign`` (N, dim) of the deck transform that
        takes the lift's end to B, so that ``v1 = sign * v0`` at B (all ones
        on a torus); and ``unique`` (N,): the pair certainly has no other
        minimizer within ``tol``.  The certificate is the per-coordinate flip
        test with a margin wider than ``tol``, so a pair near the threshold
        is left uncertified rather than misjudged.  A pair at distance 0
        (coincident points) gets a non-finite velocity.
        """
        delta = B - A
        delta = delta - self.periods * np.round(delta / self.periods)  # the nearest lift
        length = _lengths(delta)
        with np.errstate(invalid="ignore", divide="ignore"):
            v0 = delta / length[:, None]
        margin = 2.0 * tol + TIE_SLACK * self.periods
        return (v0, np.ones_like(v0), length,
                ~_any_column(self._flip_ties(delta, length[:, None], margin)))

    def step_batch(self, C, D):
        return wrap(C + D, self.periods), None

    def points_batch(self, C) -> tuple:
        return tuple(map(Point, C))

    def chart_batch(self, C, V):
        return wrap(C, self.periods), V * 1.0

    def to_dict(self) -> dict:
        return {"type": "flat_torus", "periods": [float(a) for a in self.periods]}


_FLIP = np.array([1.0, -1.0])


class DoubledRectangle(Space):
    """Double of the rectangle [0,a] x [0,b]: two faces glued along the edges.

    Modeled as the covering torus R^2/(2aZ + 2bZ) quotiented by (x, y) ->
    (-x, -y).  Cone points (the rectangle corners) lift to the points
    (i*a, j*b), i, j integers.
    """

    def __init__(self, a: float, b: float):
        if not (a > 0 and b > 0):
            raise ValidationError("doubled rectangle sides must be strictly positive")
        self.a = float(a)
        self.b = float(b)
        self.dim = 2
        self.cover_periods = np.array([2.0 * self.a, 2.0 * self.b])
        self._cover = FlatTorus(self.cover_periods)
        self._cell = np.array([self.a, self.b])  # the grid of cone lifts

    # -- face charts ----------------------------------------------------------

    def point(self, coords, face=TOP) -> Point:
        coords = _as_vector(coords, 2, "point")
        if face not in (TOP, BOTTOM):
            raise ValidationError("doubled rectangle points need face 'top' or 'bottom'")
        x, y = coords
        if not (-1e-12 <= x <= self.a + 1e-12 and -1e-12 <= y <= self.b + 1e-12):
            raise ValidationError(
                f"point ({x}, {y}) outside the rectangle [0,{self.a}]x[0,{self.b}]"
            )
        x = min(max(x, 0.0), self.a)
        y = min(max(y, 0.0), self.b)
        if x in (0.0, self.a) or y in (0.0, self.b):
            face = TOP  # boundary points are identified across faces
        return Point(np.array([x, y]), face)

    def _embed(self, p: Point) -> np.ndarray:
        """Face chart -> covering torus coordinates."""
        x, y = p.coords
        return np.array([x, y]) if p.face == TOP else np.array([x, 2.0 * self.b - y])

    def _chart_matrix(self, face: str) -> np.ndarray:
        return np.eye(2) if face == TOP else np.diag(_FLIP)

    # -- cone points ----------------------------------------------------------

    def _is_cone(self, p: Point) -> bool:
        """Is p a rectangle corner (``point`` clamps corners exactly)?"""
        return p.coords[0] in (0.0, self.a) and p.coords[1] in (0.0, self.b)

    def _near_cone(self, start: np.ndarray, disp: np.ndarray, within: float) -> np.ndarray:
        """Per row of the (N, 2) arrays: does the open segment start..start+disp
        pass within ``within`` of a cone lift (i a, j b) whose foot lies
        inside it by more than CONE_TOL?  Such a cone lies in the segment's
        bounding box grown by ``within``; one numpy pass scans the widest
        row's box, in chunks so that a long segment needs bounded memory."""
        end = start + disp
        lo = np.ceil((np.fmin(start, end) - within) / self._cell)
        hi = np.floor((np.fmax(start, end) + within) / self._cell)
        nx, ny = (hi + 1.0 - lo).max(axis=0).astype(int)
        near = np.zeros(len(start), dtype=bool)
        if nx <= 0 or ny <= 0:
            return near
        (sx, sy), (dx, dy) = start.T[:, :, None], disp.T[:, :, None]
        length = np.sqrt(np.vecdot(disp, disp))[:, None]
        chunk = max(1, 2**16 // len(start))
        for first in range(0, nx * ny, chunk):
            i, j = np.divmod(np.arange(first, min(first + chunk, nx * ny)), ny)
            cx, cy = (lo[:, :1] + i) * self.a, (lo[:, 1:] + j) * self.b
            with np.errstate(invalid="ignore", divide="ignore"):
                t = ((cx - sx) * dx + (cy - sy) * dy) / (length * length)
                # interior only: cone points may sit at segment endpoints
                inside = (t * length > CONE_TOL) & ((1.0 - t) * length > CONE_TOL)
                dist = np.hypot(sx + t * dx - cx, sy + t * dy - cy)
            near |= (inside & (dist < within)).any(axis=1)
        return near

    # -- metric ---------------------------------------------------------------

    def distance(self, p: Point, q: Point) -> float:
        self._check_point(p)
        self._check_point(q)
        pc, qc = Point(self._embed(p)), self._embed(q)
        return min(self._cover.distance(pc, Point(qc)), self._cover.distance(pc, Point(-qc)))

    def minimizing_geodesics(self, p, q, tol=DEFAULT_TOL, allow_degenerate=False):
        self._check_point(p)
        self._check_point(q)
        d = self.distance(p, q)
        if d == 0.0:
            raise CoincidentPointsError("points are identified in the quotient")
        pc, qc = self._embed(p), self._embed(q)
        sheets = list(enumerate((qc - pc, -qc - pc)))
        if self._is_cone(p) or self._is_cone(q):
            # the reflection fixing the cone maps each sheet's lifts onto the
            # other's: the same segments, listed once, from the sheet whose
            # nearest lift is shorter (the translation sheet on a tie)
            sheets = [sheets[d < self._cover.distance(Point(pc), Point(qc))]]
        found = [(sheet,) + lift for sheet, delta in sheets
                 for lift in self._cover._lifts(delta, d + tol)]
        dmin = min(f[3] for f in found)
        found = [f for f in found if f[3] <= dmin + tol]
        disps = np.array([f[2] for f in found])
        near = self._near_cone(np.broadcast_to(pc, disps.shape), disps, CONE_TOL)
        if near.any() and not allow_degenerate:
            raise DegenerateTrajectoryError(
                "a minimizing segment passes through a cone point; "
                "pass allow_degenerate=True to keep it"
            )
        mat_p, mat_q = self._chart_matrix(p.face), self._chart_matrix(q.face)
        segs = []
        for (sheet, lam, disp, length), degenerate in zip(found, near):
            e = disp / length
            v1 = mat_q @ (e if sheet == 0 else -e)
            segs.append(MinGeodesic(length=length, v0=mat_p @ e, v1=v1, lift=(sheet,) + lam,
                                    degenerate=degenerate))
        return segs

    def loop_arcs(self, c, disp, k, tol=DEFAULT_TOL):
        arcs = self._cover.loop_arcs(c, disp, k, tol)
        # The reflection lift lam of the pair at s has length |lam - 2c -
        # (2s + r) e|; as s runs round the loop it sweeps the line through 2c
        # along e, so its minimum |<lam - 2c, nu>| is the same at every k.
        length = float(np.linalg.norm(disp))
        e = disp / length
        nu = np.array([-e[1], e[0]])
        m0, m1 = (int(v) for v in np.round(disp / self.cover_periods))
        g = math.gcd(m0, m1)
        if g == 0:  # the loop stays within rounding of one point (a product factor)
            return arcs
        u0 = pow(m0 // g, -1, abs(m1 // g)) if m1 else m0 // g
        u1 = (g - m0 * u0) // m1 if m1 else 0  # m0 u0 + m1 u1 = g
        # lattice vectors have <lam, nu> in h*Z
        h = float(self.cover_periods.prod()) * g / length
        x = 2.0 * float(c @ nu)
        r = length / k
        near = (math.floor(x / h), math.floor(x / h) + 1)
        gaps = [abs(n * h - x) for n in near]
        cuts = [] if arcs.cut is None else [arcs.cut]
        for n, gap in zip(near, gaps):
            if gap <= r + tol:
                # <lam, nu> = n h; this lift is shortest at 2s + r = <lam - 2c, e>
                lam = n * np.array([-u1, u0]) * self.cover_periods
                u = float((lam - 2.0 * c) @ e)
                cuts.append(((u - r) / 2.0) % (length / (2.0 * g)) / length)
        floor = max(arcs.floor, math.ceil(length / (min(gaps) + tol)))
        return LoopArcs(floor, arcs.minimizing and min(gaps) >= r - tol, min(cuts, default=None))

    def lattice_gap(self, disp):
        # a reflection would return the loop with its velocity reversed
        return self._cover.lattice_gap(disp)

    def trivial_lift(self):
        return (0, 0, 0)

    def min_scale(self) -> float:
        return min(self.a, self.b)

    # -- batches ---------------------------------------------------------------
    # A cover row with y above b embeds a bottom-face point.

    def _fold(self, xy: np.ndarray):
        """Cover rows (N, 2) moved by the deck group to the lifts of ``point``'s
        canonical points: into [0, a] x [0, 2b), with boundary points on the
        top face (a point on a vertical edge at y <= b).  Returns the rows and
        the deck sign (N,) of each, -1.0 where the move is a reflection."""
        u = wrap(xy, self.cover_periods)
        flip = u[:, 0] > self.a
        u[flip] = self.cover_periods - u[flip]
        u[:, 1] = np.where(u[:, 1] >= self.cover_periods[1], 0.0, u[:, 1])
        u = np.maximum(u, 0.0)  # ``point``'s clamp
        edge = (u[:, 1] > self.b) & ((u[:, 0] == 0.0) | (u[:, 0] == self.a))
        u[edge, 1] = 2.0 * self.b - u[edge, 1]
        return u, np.where(flip ^ edge, -1.0, 1.0)

    def _chart(self, u: np.ndarray):
        """Folded cover rows -> (chart coords (N, 2), is_bottom (N,)), in place."""
        is_bottom = u[:, 1] > self.b
        u[:, 1] = np.where(is_bottom, 2.0 * self.b - u[:, 1], u[:, 1])
        return u, is_bottom

    def _frame(self, p: Point) -> np.ndarray:
        return _FLIP if p.face == BOTTOM else np.ones(2)

    def chart_batch(self, C, V):
        u, sign = self._fold(C)
        V = V * sign[:, None] * np.where(u[:, 1:] > self.b, _FLIP, 1.0)
        return self._chart(u)[0], V

    def segment_batch(self, A, B, tol: float):
        """``FlatTorus.segment_batch`` on the cover rows of both sheets, the
        translation sheet ``B - A`` and the reflection sheet ``-B - A``, and
        the shorter one per row; ``sign`` is -1 on the reflection sheet.
        A row is certified when its sheet's nearest lift is unique, the other
        sheet is longer by more than the tie margin, and the segment clears
        every cone by CONE_CLEARANCE.  At a cone point the sheets hold the
        same segments, so their tie does not count.  Rows may be any lifts
        of the points: the deck group keeps lengths and the grid of cone
        lifts."""
        n = len(A)
        e, _, d, u = self._cover.segment_batch(np.concatenate((A, A)), np.concatenate((B, -B)), tol)
        sheet = d[n:] < d[:n]
        e = np.where(sheet[:, None], e[n:], e[:n])
        length = np.where(sheet, d[n:], d[:n])
        margin = 2.0 * tol + TIE_SLACK * self.cover_periods.max()
        with np.errstate(invalid="ignore"):  # a coincident pair has no velocity
            near = self._near_cone(A, e * length[:, None], CONE_CLEARANCE)
        off_grid = [_any_column(np.fmod(R, self._cell) != 0.0) for R in (A, B)]
        cone = ~off_grid[0] | ~off_grid[1]  # an end at a cone point
        apart = (np.abs(d[n:] - d[:n]) > margin) | cone
        unique = np.where(sheet, u[n:], u[:n]) & apart & ~near
        return e, np.where(sheet[:, None], -1.0, np.ones_like(e)), length, unique

    def step_batch(self, C, D):
        if self._near_cone(C, D, CONE_CLEARANCE).any():
            return None
        u, _ = self._fold(C + D)
        return u, np.where(u[:, 1:] > self.b, _FLIP, 1.0)

    def points_batch(self, C) -> tuple:
        coords, is_bottom = self._chart(C.copy())
        return tuple(Point(c, BOTTOM if b else TOP) for c, b in zip(coords, is_bottom))

    def to_dict(self) -> dict:
        return {"type": "doubled_rectangle", "a": self.a, "b": self.b}


class Product(Space):
    """Riemannian product of two or more factor spaces."""

    def __init__(self, factors):
        factors = list(factors)
        if len(factors) < 2:
            raise ValidationError("a product needs at least two factors")
        self.factors = factors
        self.dim = sum(f.dim for f in factors)
        self.cover_periods = np.concatenate([f.cover_periods for f in factors])
        self._offsets = []
        off = 0
        for f in factors:
            self._offsets.append((off, off + f.dim))
            off += f.dim

    def _split(self, coords: np.ndarray):
        """Factor slices of a point's coordinates, or columns of (N, dim) rows."""
        return [coords[..., lo:hi] for lo, hi in self._offsets]

    def _split_point(self, p: Point) -> list[Point]:
        faces = p.face if isinstance(p.face, tuple) else (None,) * len(self.factors)
        return [
            f.point(c) if face is None else f.point(c, face)
            for f, c, face in zip(self.factors, self._split(p.coords), faces)
        ]

    def point(self, coords, face=None) -> Point:
        coords = _as_vector(coords, self.dim, "point")
        if face is None:
            faces = [None] * len(self.factors)
        elif isinstance(face, (tuple, list)) and len(face) == len(self.factors):
            faces = list(face)
        else:
            raise ValidationError("product point face must be a per-factor tuple or None")
        return self._join([
            f.point(c) if fc is None else f.point(c, fc)
            for f, c, fc in zip(self.factors, self._split(coords), faces)
        ])

    def _join(self, pts: list[Point]) -> Point:
        faces = tuple(p.face for p in pts)
        face_field = faces if any(f is not None for f in faces) else None
        return Point(np.concatenate([p.coords for p in pts]), face_field)

    def distance(self, p: Point, q: Point) -> float:
        self._check_point(p)
        self._check_point(q)
        ps = self._split_point(p)
        qs = self._split_point(q)
        return math.sqrt(sum(f.distance(a, b) ** 2 for f, a, b in zip(self.factors, ps, qs)))

    def minimizing_geodesics(self, p, q, tol=DEFAULT_TOL, allow_degenerate=False):
        self._check_point(p)
        self._check_point(q)
        ps = self._split_point(p)
        qs = self._split_point(q)
        ds = [f.distance(a, b) for f, a, b in zip(self.factors, ps, qs)]
        if math.sqrt(sum(d**2 for d in ds)) == 0.0:  # ``distance``'s expression
            raise CoincidentPointsError("points are identified in the product")
        per_factor = []
        for f, a, b, d in zip(self.factors, ps, qs, ds):
            if d == 0.0:
                trivial = MinGeodesic(
                    length=0.0,
                    v0=np.zeros(f.dim),
                    v1=np.zeros(f.dim),
                    lift=f.trivial_lift(),
                )
                per_factor.append([trivial])
            else:
                per_factor.append(f.minimizing_geodesics(a, b, tol, allow_degenerate))
        segs = []
        for combo in itertools.product(*per_factor):
            length = math.sqrt(sum(s.length**2 for s in combo))
            v0 = np.concatenate([s.length * s.v0 for s in combo]) / length
            v1 = np.concatenate([s.length * s.v1 for s in combo]) / length
            segs.append(
                MinGeodesic(
                    length=length,
                    v0=v0,
                    v1=v1,
                    lift=tuple(s.lift for s in combo),
                    degenerate=any(s.degenerate for s in combo),
                )
            )
        segs.sort(key=lambda s: s.lift)
        return segs

    def trivial_lift(self):
        return tuple(f.trivial_lift() for f in self.factors)

    def loop_arcs(self, start, disp, k, tol=DEFAULT_TOL):
        # a product pair is minimizing exactly when every factor pair is, and
        # a cut pair when any factor pair is; a factor the loop does not move
        # in constrains nothing
        parts = [f.loop_arcs(c, d, k, tol)
                 for f, c, d in zip(self.factors, self._split(start), self._split(disp))
                 if np.any(d)]
        cuts = [a.cut for a in parts if a.cut is not None]
        return LoopArcs(max(a.floor for a in parts), all(a.minimizing for a in parts),
                        min(cuts, default=None))

    def lattice_gap(self, disp):
        return math.hypot(*(f.lattice_gap(d) for f, d in zip(self.factors, self._split(disp))))

    def min_scale(self) -> float:
        return min(f.min_scale() for f in self.factors)

    def _embed(self, p: Point) -> np.ndarray:
        return np.concatenate([f._embed(q) for f, q in zip(self.factors, self._split_point(p))])

    def _frame(self, p: Point) -> np.ndarray | None:
        parts = self._split_point(p)
        return self._join_frames([f._frame(q) for f, q in zip(self.factors, parts)],
                                 [q.coords for q in parts])

    def chart_batch(self, C, V):
        parts = [f.chart_batch(c, v) for f, c, v in zip(self.factors, self._split(C), self._split(V))]
        return tuple(np.concatenate(p, axis=1) for p in zip(*parts))

    @staticmethod
    def _join_frames(frames, rows):
        """Factor frames side by side, the identity's as ones; None if all are."""
        if all(fr is None for fr in frames):
            return None
        return np.concatenate([np.ones_like(r) if fr is None else fr for fr, r in zip(frames, rows)],
                              axis=-1)

    def segment_batch(self, A, B, tol: float):
        """The factors' ``segment_batch``es, composed as
        ``minimizing_geodesics`` composes their minimizers."""
        parts = [f.segment_batch(a, b, tol)
                 for f, a, b in zip(self.factors, self._split(A), self._split(B))]
        ds = [d[:, None] for _, _, d, _ in parts]
        # float_power is libm pow, as the scalar ``length ** 2``; ** squares
        length = np.sqrt(sum(np.float_power(d, 2) for d in ds))
        with np.errstate(invalid="ignore", divide="ignore"):
            v0 = np.concatenate([np.where(d > 0, d * p[0], 0.0) for p, d in zip(parts, ds)],
                                axis=1) / length
        sign = np.concatenate([p[1] for p in parts], axis=1)
        return v0, sign, length[:, 0], np.logical_and.reduce([p[3] for p in parts])

    def step_batch(self, C, D):
        parts = [f.step_batch(c, d)
                 for f, c, d in zip(self.factors, self._split(C), self._split(D))]
        if any(p is None for p in parts):
            return None
        rows = [c for c, _ in parts]
        return np.concatenate(rows, axis=1), self._join_frames([fr for _, fr in parts], rows)

    def points_batch(self, C) -> tuple:
        cols = [f.points_batch(c) for f, c in zip(self.factors, self._split(C))]
        return tuple(self._join(list(row)) for row in zip(*cols))

    def to_dict(self) -> dict:
        return {"type": "product", "factors": [f.to_dict() for f in self.factors]}


def effective_periods(space: Space) -> np.ndarray | None:
    """Concatenated periods when every leaf factor is a flat torus, else None."""
    if isinstance(space, FlatTorus):
        return space.periods
    if isinstance(space, Product):
        parts = [effective_periods(f) for f in space.factors]
        if any(p is None for p in parts):
            return None
        return np.concatenate(parts)
    return None


# -- operation-style wrappers (the module-level interface) ---------------------


def distance(space: Space, p: Point, q: Point) -> float:
    return space.distance(p, q)


def minimizing_geodesics(space, p, q, tol=DEFAULT_TOL, allow_degenerate=False):
    return space.minimizing_geodesics(p, q, tol, allow_degenerate)


def exp_map(space: Space, tan: Tangent, s: float) -> Point:
    return space.exp_map(tan, s)


def is_cut_pair(space: Space, p: Point, q: Point, tol: float = DEFAULT_TOL) -> bool:
    return space.is_cut_pair(p, q, tol)


# -- serialization -------------------------------------------------------------


def space_from_dict(data: dict, where: str = "space") -> Space:
    """The space of a scenario document; a bad field raises ``ValidationError``
    naming its path under ``where``."""
    if not isinstance(data, dict) or "type" not in data:
        raise ValidationError(f"{where}: expected an object with a 'type' field")
    kind = data["type"]
    if kind == "flat_torus":
        if "periods" not in data:
            raise ValidationError(f"{where}.periods: missing")
        periods = data["periods"]
        if not isinstance(periods, list) or not periods:
            raise ValidationError(f"{where}.periods: expected a nonempty list")
        for i, a in enumerate(periods):
            check_rule(POSITIVE, a, f"{where}.periods[{i}]")
        return FlatTorus(periods)
    if kind == "doubled_rectangle":
        if "a" not in data or "b" not in data:
            raise ValidationError(f"{where}.a / {where}.b: missing")
        for key in "ab":
            check_rule(POSITIVE, data[key], f"{where}.{key}")
        return DoubledRectangle(data["a"], data["b"])
    if kind == "product":
        factors = data.get("factors")
        if not isinstance(factors, list):
            raise ValidationError(f"{where}.factors: expected a list")
        return Product([space_from_dict(f, f"{where}.factors[{i}]") for i, f in enumerate(factors)])
    raise ValidationError(f"{where}.type: unknown variant {kind!r}")


def point_to_dict(p: Point) -> dict:
    face = list(p.face) if isinstance(p.face, tuple) else p.face
    return {"coords": [float(c) for c in p.coords], "face": face}


def point_from_dict(space: Space, data: dict, where: str = "point") -> Point:
    if not isinstance(data, dict) or "coords" not in data:
        raise ValidationError(f"{where}: expected an object with 'coords'")
    coords = data["coords"]
    if not isinstance(coords, list) or not all(_real(c) for c in coords):
        raise ValidationError(f"{where}.coords: expected a list of finite numbers, got {coords!r}")
    face = data.get("face")
    if isinstance(face, list):
        face = tuple(face)
    if face is None and isinstance(space, DoubledRectangle):
        face = TOP
    return space.point(data["coords"]) if face is None else space.point(data["coords"], face)

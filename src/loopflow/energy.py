"""Discrete loop energy on k-point configurations and its one-sided calculus.

A configuration is a cyclic tuple of k points; its energy is k times the sum
of squared consecutive distances.  Where some consecutive pair is a cut pair
the energy is not differentiable, but it always has one-sided directional
derivatives, expressed as a minimum of linear forms over per-segment
minimizing geodesics.  Each choice of one minimizing geodesic per segment
produces one "candidate gradient"; a candidate of maximal norm is called
gradient-like, and its negative is the steepest one-sided descent direction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    CoincidentPointsError,
    NotSmoothCriticalError,
    ResourceLimitError,
    ValidationError,
)
from .spaces import DEFAULT_TOL, MinGeodesic, Point, Space, _step

COMPONENT_DEDUP_TOL = 1e-12
MAX_CANDIDATE_TUPLES = 10**6
# cap on k * n for ``hessian_index_nullity``: with every mode null, its rank
# test is an SVD of a k x kn matrix, well under a second at the cap
MAX_HESSIAN_DIM = 1024


def _roll(a: np.ndarray, shift: int, axis: int = 0) -> np.ndarray:
    """``np.roll(a, shift, axis)`` for shift +-1, by slicing: several times
    faster on the small arrays of a flow."""
    lead = (slice(None),) * axis
    head, tail = a[lead + (slice(-shift, None),)], a[lead + (slice(None, -shift),)]
    return np.concatenate((head, tail), axis=axis)


class Configuration:
    """An ordered cyclic tuple of k >= 2 points of one space, held as what
    the flows step: the (k, n) cover rows of its points (``Space._embed``)
    and their chart frames (``Space._frame``; None on tori).

    ``Configuration(space, points)`` keeps the points it is given; their rows
    are built when first read.  ``of_rows`` keeps the rows and frames that
    ``Space.step_batch`` gave; the points are built when first read.  Points
    are never rebuilt from rows that were built from points: a bottom-face
    coordinate need not survive the round trip through the cover."""

    def __init__(self, space: Space, points):
        self.space, self.points = space, tuple(points)
        if len(self.points) < 2:
            raise ValidationError("a configuration needs at least two points")
        for p in self.points:
            space._check_point(p, "configuration point")
        self.k = len(self.points)

    @classmethod
    def of_rows(cls, space: Space, cover: np.ndarray, frames: np.ndarray | None) -> "Configuration":
        """The configuration of the ``step_batch`` rows ``cover`` and ``frames``."""
        x = cls.__new__(cls)
        x.space, x.cover, x.frames, x.k = space, cover, frames, len(cover)
        return x

    @cached_property
    def points(self) -> tuple[Point, ...]:
        return self.space.points_batch(self.cover)

    @cached_property
    def cover(self) -> np.ndarray:
        return np.array([self.space._embed(p) for p in self.points])

    @cached_property
    def frames(self) -> np.ndarray | None:
        frames = [self.space._frame(p) for p in self.points]
        return None if frames[0] is None else np.array(frames)

    def segment_batch(self, tol: float) -> tuple:
        """``Space.segment_batch`` of the pairs (i, i + 1): ``(e0, sign,
        lengths, unique, v0, v1)``, with the chart velocities v0 at point i
        and v1 at point i + 1."""
        e0, sign, lengths, unique = self.space.segment_batch(self.cover, _roll(self.cover, -1), tol)
        e1 = sign * e0
        if self.frames is None:
            return e0, sign, lengths, unique, e0, e1
        return e0, sign, lengths, unique, e0 * self.frames, e1 * _roll(self.frames, -1)


def configuration(space: Space, coords, faces=None) -> Configuration:
    """Build a configuration from raw chart coordinates."""
    pts = []
    for i, c in enumerate(coords):
        face = None if faces is None else faces[i]
        pts.append(space.point(c) if face is None else space.point(c, face))
    return Configuration(space, tuple(pts))


@dataclass(frozen=True, eq=False)
class ConfigTangent:
    """One chart vector per configuration point."""

    vecs: tuple[np.ndarray, ...]

    @staticmethod
    def of(x: Configuration, vecs) -> "ConfigTangent":
        vecs = tuple(np.asarray(v, dtype=float) for v in vecs)
        if len(vecs) != x.k:
            raise ValidationError("tangent has wrong number of components")
        for v in vecs:
            if v.shape != (x.space.dim,):
                raise ValidationError("tangent component has wrong dimension")
        return ConfigTangent(vecs)

    def stacked(self) -> np.ndarray:
        return np.concatenate(self.vecs)

    def norm(self) -> float:
        return float(np.linalg.norm(self.stacked()))


@dataclass(frozen=True, eq=False)
class CandidateGradient:
    """One candidate gradient: component vectors, the per-segment lift choice
    that produced it, and its product-metric norm."""

    vecs: tuple[np.ndarray, ...]
    choice: tuple
    magnitude: float

    def stacked(self) -> np.ndarray:
        return np.concatenate(self.vecs)


class LoopEnergy(NamedTuple):
    energy: float
    length: float


def segment_distances(x: Configuration) -> list[float]:
    pts = x.points
    return [x.space.distance(pts[i], pts[(i + 1) % x.k]) for i in range(x.k)]


def uniform_energy(x: Configuration) -> float:
    """k times the sum of squared consecutive distances (cyclic)."""
    return energy_of_lengths(segment_distances(x))


def energy_of_lengths(lengths: list[float]) -> float:
    """k times the sum of the squared segment lengths, added in order."""
    return len(lengths) * sum(d * d for d in lengths)


def smooth_gradient(
    v0: np.ndarray, v1: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, float]:
    """The one candidate gradient of a configuration whose segments each have
    a single minimizer, from the (k, n) velocities and the (k,) lengths of
    ``segment_batch``: components (k, n) and magnitude, bit for bit as
    ``gradient_like`` gives them."""
    head = lengths[:, None] * v1
    comps = np.concatenate((head[-1:], head[:-1])) - lengths[:, None] * v0
    return comps, float(np.linalg.norm(comps.ravel()))


def loop_energy(x: Configuration) -> LoopEnergy:
    """Energy and length of the broken loop through the configuration.

    Zero-length segments are allowed.  The energy equals ``uniform_energy``
    and dominates length squared, with equality exactly when all segment
    lengths agree.
    """
    ds = segment_distances(x)
    return LoopEnergy(energy=energy_of_lengths(ds), length=sum(ds))


def exp_config(x: Configuration, v, s: float) -> Configuration:
    """Move every point along its tangent component for time s: one
    ``Space.step_batch`` of the cover rows.  ``v`` is a ``ConfigTangent`` or
    (k, n) rows of chart vectors.  Raises ``DegenerateTrajectoryError`` when
    a point runs through a cone point."""
    rows = np.asarray(v.stacked().reshape(x.k, -1) if isinstance(v, ConfigTangent) else v, float)
    if rows.shape != x.cover.shape:
        raise ValidationError("tangent has the wrong shape for the configuration")
    disp = s * rows if x.frames is None else s * rows * x.frames
    return Configuration.of_rows(x.space, *_step(x.space, x.cover, disp))


def dplus_distance(space: Space, p: Point, q: Point, vp, wq, tol: float = DEFAULT_TOL) -> float:
    """One-sided derivative of distance at (p, q) in the direction (vp, wq).

    Equals the minimum of ``-<vp, v0> - <wq, -v1>`` over all minimizing
    geodesics from p to q.
    """
    vp = np.asarray(vp, dtype=float)
    wq = np.asarray(wq, dtype=float)
    segs = space.minimizing_geodesics(p, q, tol)
    return min(-float(vp @ s.v0) - float(wq @ (-s.v1)) for s in segs)


def segment_geodesics(x: Configuration, tol: float = DEFAULT_TOL) -> list[list[MinGeodesic]]:
    """Minimizing geodesics of every consecutive pair (cyclic).

    Raises ``CoincidentPointsError`` when consecutive points coincide.
    """
    out = []
    for i in range(x.k):
        p, q = x.points[i], x.points[(i + 1) % x.k]
        try:
            out.append(x.space.minimizing_geodesics(p, q, tol))
        except CoincidentPointsError:
            raise CoincidentPointsError(f"configuration points {i} and {(i + 1) % x.k} coincide")
    return out


def dplus_uniform_energy(
    x: Configuration, v: ConfigTangent, tol: float = DEFAULT_TOL, normalized: bool = False
) -> float:
    """One-sided derivative of the loop energy along a configuration tangent.

    The minimum over per-segment geodesic choices separates segment by
    segment, so no tuple enumeration is needed.  ``normalized=True`` divides
    the value by 2k.
    """
    if len(v.vecs) != x.k:
        raise ValidationError("tangent/configuration size mismatch")
    seglists = segment_geodesics(x, tol)
    total = 0.0
    for i, segs in enumerate(seglists):
        vi = v.vecs[i]
        vnext = v.vecs[(i + 1) % x.k]
        best = min(-float(vi @ s.v0) + float(vnext @ s.v1) for s in segs)
        total += segs[0].length * best
    return total if normalized else 2.0 * x.k * total


def _candidate(x: Configuration, combo) -> CandidateGradient:
    """The candidate gradient of one choice of minimizer per segment:
    component i is ``l_{i-1} v1_{i-1} - l_i v0_i``."""
    comps = tuple(
        combo[i - 1].length * combo[i - 1].v1 - combo[i].length * combo[i].v0
        for i in range(x.k)
    )
    return CandidateGradient(
        vecs=comps,
        choice=tuple(s.lift for s in combo),
        magnitude=float(np.linalg.norm(np.concatenate(comps))),
    )


def _distinct(x: Configuration, combos) -> list[tuple[tuple, CandidateGradient]]:
    """``(combo, candidate)`` for each combo whose candidate differs from every
    earlier kept one by more than ``COMPONENT_DEDUP_TOL`` in some entry."""
    out, kept = [], []
    for combo in combos:
        cand = _candidate(x, combo)
        stacked = cand.stacked()
        if kept and np.any(np.all(np.abs(stacked - np.array(kept)) <= COMPONENT_DEDUP_TOL, axis=1)):
            continue
        kept.append(stacked)
        out.append((combo, cand))
    return out


def candidate_gradients(
    x: Configuration,
    tol: float = DEFAULT_TOL,
    max_tuples: int = MAX_CANDIDATE_TUPLES,
) -> list[CandidateGradient]:
    """All candidate gradients, one per choice of minimizer for each segment.

    Component i is ``l_{i-1} v1_{i-1} - l_i v0_i`` for the chosen segments.
    Results are deduplicated componentwise and ordered by lift descriptors.
    The listing is exhaustive, so its cost is the product of the segment
    multiplicities; it raises ``ResourceLimitError`` above ``max_tuples``.
    """
    seglists = segment_geodesics(x, tol)
    count = 1
    for segs in seglists:
        count *= len(segs)
        if count > max_tuples:
            raise ResourceLimitError(
                f"candidate enumeration exceeds the cap of {max_tuples} tuples"
            )
    return [cand for _, cand in _distinct(x, itertools.product(*seglists))]


# Width of the magnitude band listed by ``_extreme_candidates``, relative to
# max(1, magnitude).  It covers float rounding between the transfer-matrix
# scores and ``np.linalg.norm``, and the drift of ``COMPONENT_DEDUP_TOL``.
_BAND_REL = 1e-9


def _extreme_candidates(
    x: Configuration, tol: float, maximize: bool, magnitude_tol: float = 0.0
) -> list[tuple[tuple, CandidateGradient]]:
    """The deduplicated ``(combo, candidate)`` pairs of extreme norm, in the
    order of ``candidate_gradients``, without listing every lift tuple.

    The squared norm of a candidate is a sum over adjacent segment pairs of
    the cycle, ``sum_i f_i[c_{i-1}, c_i]`` with
    ``f_i[a, b] = |l_{i-1} v1_{i-1}[a] - l_i v0_i[b]|^2``.  With the choice on
    segment 0 fixed, a backward max-plus (min-plus) pass around the cycle
    gives the best completion of every partial choice, in O(k m^2).  A
    depth-first walk in ``itertools.product`` order then visits only the
    tuples whose score can still reach the band: magnitude within
    ``magnitude_tol`` plus a relative ``_BAND_REL`` of the maximum when
    ``maximize``, else at most ``tol + _BAND_REL``.  The band is wider than
    float rounding and the deduplication tolerance, so every candidate the
    exhaustive listing keeps at the extreme is found, bit for bit.
    """
    seglists = segment_geodesics(x, tol)
    if all(len(segs) == 1 for segs in seglists):
        combo = tuple(segs[0] for segs in seglists)
        return [(combo, _candidate(x, combo))]
    k = x.k
    head = [np.array([s.length * s.v1 for s in segs]) for segs in seglists]
    tail = [np.array([s.length * s.v0 for s in segs]) for segs in seglists]
    f = [((head[i - 1][:, None, :] - tail[i][None, :, :]) ** 2).sum(axis=2) for i in range(k)]
    pick = np.max if maximize else np.min

    # suffix[a0][i][a]: best score of f_{i+1} + ... + f_{k-1} + f_0 with segment
    # i on minimizer a and segment 0 on a0
    suffix, best = [], []
    for a0 in range(len(seglists[0])):
        rows = [None] * k
        rows[k - 1] = f[0][:, a0]
        for i in range(k - 2, 0, -1):
            rows[i] = pick(f[i + 1] + rows[i + 1][None, :], axis=1)
        best.append(float(pick(f[1][a0] + rows[1])))
        suffix.append([None] + [r.tolist() for r in rows[1:]])
    if maximize:
        top = math.sqrt(max(best))
        floor = max(top - magnitude_tol - _BAND_REL * max(1.0, top), 0.0) ** 2

        def reachable(score):
            return score >= floor
    else:
        ceiling = (tol + _BAND_REL) ** 2

        def reachable(score):
            return score <= ceiling

    table = [fi.tolist() for fi in f]
    sizes = [len(segs) for segs in seglists]
    found: list[tuple] = []
    for a0 in range(sizes[0]):
        if not reachable(best[a0]):
            continue
        rows = suffix[a0]
        choice = [a0] + [-1] * (k - 1)
        partial = [0.0] * k
        i = 1
        while i >= 1:
            choice[i] += 1
            a = choice[i]
            if a == sizes[i]:
                choice[i] = -1
                i -= 1
                continue
            score = partial[i - 1] + table[i][choice[i - 1]][a]
            if not reachable(score + rows[i][a]):
                continue
            if i < k - 1:
                partial[i] = score
                i += 1
                continue
            found.append(tuple(seglists[j][c] for j, c in enumerate(choice)))
            if len(found) > MAX_CANDIDATE_TUPLES:
                raise ResourceLimitError(
                    f"extreme candidate band exceeds the cap of {MAX_CANDIDATE_TUPLES} tuples"
                )
    return _distinct(x, found)


def gradient_like(x: Configuration, tol: float = DEFAULT_TOL) -> CandidateGradient:
    """A candidate gradient of maximal magnitude: the first of
    ``gradient_like_all``, so candidates tied within its ``magnitude_tol``
    are ordered by their stacked components, not by the last bits of their
    magnitudes.  Costs O(k m^3) for m minimizers per segment, plus the
    near-maximal tuples themselves.
    """
    return gradient_like_all(x, tol)[0]


def gradient_like_all(
    x: Configuration, tol: float = DEFAULT_TOL, magnitude_tol: float = 1e-12
) -> list[CandidateGradient]:
    """All candidates whose magnitude ties the maximum (within magnitude_tol)."""
    cands = [c for _, c in _extreme_candidates(x, tol, True, magnitude_tol)]
    top = max(c.magnitude for c in cands)
    ties = [c for c in cands if c.magnitude >= top - magnitude_tol]
    return sorted(ties, key=lambda c: tuple(c.stacked()))


def has_associated_geodesic(x: Configuration, tol: float = DEFAULT_TOL) -> bool:
    """True when the zero vector is a candidate gradient (within tol), i.e.
    some choice of minimizers chains into a single closed geodesic."""
    return any(c.magnitude <= tol for _, c in _extreme_candidates(x, tol, False))


def associated_geodesic(x: Configuration, tol: float = DEFAULT_TOL):
    """The closed geodesic through the configuration, when one exists.

    Uses the zero-candidate's witness chain; returns None when there is no
    candidate of magnitude <= tol or the chain cannot be classified.
    """
    from .geodesics import geodesic_from_chain  # local import to avoid a cycle

    for chain, c in sorted(_extreme_candidates(x, tol, False), key=lambda p: p[1].magnitude):
        if c.magnitude > tol:
            return None
        try:
            return geodesic_from_chain(x, list(chain), tol=max(tol * 10.0, 1e-7))
        except Exception:
            continue
    return None


@dataclass(frozen=True)
class HessianReport:
    """Spectrum summary of the energy Hessian at a smooth critical point."""

    index: int
    nullity: int
    eigenvalues: tuple[float, ...]
    zero_tol: float
    degenerate: bool


def hessian_index_nullity(
    x: Configuration,
    zero_tol: float = 1e-6,
    tol: float = DEFAULT_TOL,
) -> HessianReport:
    """Index and nullity of the energy Hessian at a smooth critical point,
    in closed form.

    Requires a smooth critical point: every consecutive pair has a unique
    minimizing geodesic within ``tol`` and the candidate gradient of that
    chain vanishes within ``zero_tol``.  One ``segment_batch`` decides that
    where it certifies every pair, the scalar listing elsewhere.  Near such
    a point the energy is exactly ``k sum_i |T_i u_{i+1} - u_i + c_i|^2`` in
    the chart perturbations u_i, with c_i the lifted segment and T_i the diagonal
    ``frame_i sign_i frame_{i+1}`` that takes chart vectors at point i+1 to
    point i (``sign_i``: the deck sign of ``Space.segment_batch``).  So the
    Hessian ``2k sum_i B_i^T B_i``, ``B_i = (-I at i, T_i at i+1)``, is one
    signed k-cycle per coordinate c: in the gauge ``g_i = T_0 ... T_{i-1}``
    the cycle Laplacian closed by ``g_k = +-1``, with eigenvalues
    ``8k sin^2(pi (j + theta_c) / k)``, j = 0..k-1, theta_c = 0 where ``g_k``
    is +1 and 1/2 where it is -1, and eigenvectors
    ``g_i exp(2 pi i (j + theta_c) i / k)``.  It is positive semidefinite, so
    the index is 0.  The degeneracy flag reports whether the null space
    contains a direction perpendicular to the loop velocity at every
    configuration point, which excludes the rotational null direction: a
    rank test over the real null modes.  O(k n) besides that test; k n above
    ``MAX_HESSIAN_DIM`` raises ``ResourceLimitError``.
    """
    k, n = x.k, x.space.dim
    if k * n > MAX_HESSIAN_DIM:
        raise ResourceLimitError(
            f"Hessian dimension k*n = {k * n} exceeds MAX_HESSIAN_DIM = {MAX_HESSIAN_DIM}"
        )
    _, sign, lengths, unique, v0, v1 = x.segment_batch(tol)
    if unique.all() and lengths.all():
        magnitude = smooth_gradient(v0, v1, lengths)[1]
    else:  # the scalar listing decides, and raises where it always has
        seglists = segment_geodesics(x, tol)
        for i, segs in enumerate(seglists):
            if len(segs) != 1:
                raise NotSmoothCriticalError(
                    f"segment {i} has {len(segs)} minimizing geodesics within tol"
                )
        magnitude = _candidate(x, tuple(segs[0] for segs in seglists)).magnitude
    if magnitude > zero_tol:
        raise NotSmoothCriticalError(
            f"gradient-like magnitude {magnitude:.3e} exceeds zero_tol {zero_tol:.3e}"
        )

    # t_i = frame_i sign_i frame_{i+1}
    t = sign if x.frames is None else x.frames * sign * _roll(x.frames, -1)
    # row i - 1 holds the gauge g_i = t_0 ... t_{i-1}, i = 1..k.  The last,
    # g_k, closes the cycle, and a mode g_i exp(2 pi i (j + theta) i / k)
    # takes at i = k its value at i = 0: the rows stand for the points
    # 1, ..., k-1, 0
    gauge = np.cumprod(t, axis=0)
    m = np.arange(k)[:, None] + 0.5 * (gauge[-1] < 0.0)
    # the conjugate modes j + theta and k - j - theta share an eigenvalue,
    # taken at the smaller frequency so that the pair's bits agree
    vals = 8.0 * k * np.sin(np.pi / k * np.minimum(m, k - m)) ** 2
    null = vals <= zero_tol
    nullity = int(np.count_nonzero(null))

    degenerate = False
    if nullity:
        # orthonormal real null modes, one per null (j, c): the cosine of
        # frequency m = j + theta up to k/2 and, above it, the sine, which is
        # (up to sign) the conjugate mode's sine
        j, c = np.nonzero(null)
        f = m[j, c]
        modes = np.cos(np.outer(np.arange(1, k + 1), 2.0 * np.pi / k * f) - np.pi / 2 * (f > k / 2))
        modes *= gauge[:, c] / np.linalg.norm(modes, axis=0)
        # each mode along the velocity of the associated loop (the unique
        # chain's v0) at the points 1, ..., k-1, 0
        rows = _roll(v0, -1)[:, c] * modes
        # ``np.linalg.matrix_rank(tol=1e-8)``, without its wrapping
        rank = np.count_nonzero(np.linalg.svd(rows, compute_uv=False) > 1e-8)
        degenerate = bool(nullity > rank)

    return HessianReport(
        index=0,
        nullity=nullity,
        eigenvalues=tuple(sorted(vals.ravel().tolist())),
        zero_tol=zero_tol,
        degenerate=degenerate,
    )


# -- serialization --------------------------------------------------------------


def configuration_to_dict(x: Configuration) -> dict:
    from .spaces import point_to_dict

    return {
        "space": x.space.to_dict(),
        "points": [point_to_dict(p) for p in x.points],
    }


def configuration_from_dict(data: dict) -> Configuration:
    from .spaces import point_from_dict, space_from_dict

    if not isinstance(data, dict) or "points" not in data:
        raise ValidationError("configuration: expected an object with 'points'")
    space = space_from_dict(data.get("space", {}))
    pts = tuple(point_from_dict(space, p) for p in data["points"])
    return Configuration(space, pts)


def candidate_to_dict(c: CandidateGradient) -> dict:
    return {
        "components": [[float(v) for v in vec] for vec in c.vecs],
        "choice": _lift_to_json(c.choice),
        "magnitude": c.magnitude,
    }


def _lift_to_json(lift):
    if isinstance(lift, tuple):
        return [_lift_to_json(v) for v in lift]
    return int(lift)

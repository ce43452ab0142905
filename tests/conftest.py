"""Shared brute-force oracles and fixtures.

The oracles here deliberately avoid the library's own enumeration and
closed-form paths: distances come from explicit lattice scans, candidate
components from raw segment data, and Hessian spectra from the explicit
circulant quadratic form in the universal cover, from ``eigh`` of the block
matrix assembled from each segment's lift and faces, or from central
differences of the energy.  The gradient-like oracles
select from the exhaustive ``candidate_gradients`` listing, which the
library's transfer-matrix path never calls.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import settings

import loopflow as lf
from loopflow.spaces import CONE_CLEARANCE

# CI draws the same examples on every run, so a failure reproduces locally
# with ``--hypothesis-profile=ci``
settings.register_profile("ci", derandomize=True, deadline=None)


def length_of(disp) -> float:
    """|disp| as the library takes it: ``np.linalg.norm``, but below 1e-150,
    where the squares lose bits to underflow, of disp scaled by 2**600."""
    length = float(np.linalg.norm(disp))
    return length if length >= 1e-150 else float(np.linalg.norm(disp * 2.0**600)) / 2.0**600


def brute_torus_distance(periods, p, q, radius=3):
    """Distance on a flat torus by scanning all lattice translates |lam| <= radius."""
    periods = np.asarray(periods, dtype=float)
    best = math.inf
    for lam in itertools.product(range(-radius, radius + 1), repeat=len(periods)):
        disp = np.asarray(q, dtype=float) - np.asarray(p, dtype=float) + np.array(lam) * periods
        best = min(best, length_of(disp))
    return best


def brute_torus_minimizers(periods, p, q, tol=1e-9, radius=5):
    """Every lattice lift ``(lam, disp, length)`` of q - p on a flat torus, |lam_i|
    <= radius, within tol of the shortest, sorted by lam.  ``disp`` and
    ``length`` are computed as the library computes them, so they compare bit
    for bit.  The default radius covers every lift within one (longest) period
    of the minimum on tori of up to four dimensions whose periods are within a
    factor 2 of each other."""
    periods = np.asarray(periods, dtype=float)
    delta = np.asarray(q, dtype=float) - np.asarray(p, dtype=float)
    lifts = []
    for lam in itertools.product(range(-radius, radius + 1), repeat=len(periods)):
        disp = delta + np.asarray(lam, dtype=float) * periods
        lifts.append((lam, disp, length_of(disp)))
    dmin = min(length for _, _, length in lifts)
    return [t for t in lifts if t[2] <= dmin + tol]


def double_embed(b, coords, face):
    x, y = coords
    return np.array([x, y]) if face == "top" else np.array([x, 2.0 * b - y])


def brute_double_distance(a, b, p_coords, p_face, q_coords, q_face, radius=3):
    """Distance on the doubled rectangle by scanning both sheets of the cover."""
    P = np.array([2.0 * a, 2.0 * b])
    pc = double_embed(b, p_coords, p_face)
    qc = double_embed(b, q_coords, q_face)
    best = math.inf
    for sheet in (qc, -qc):
        for lam in itertools.product(range(-radius, radius + 1), repeat=2):
            best = min(best, length_of(sheet + np.array(lam) * P - pc))
    return best


def brute_double_minimizers(a, b, p_coords, p_face, q_coords, q_face, tol=1e-9, radius=5):
    """Every lift ``(lift, disp, length)`` of the pair on both sheets of the
    cover, ``lift = (sheet, lam_x, lam_y)`` with |lam_i| <= radius, within tol
    of the shortest, sorted by lift; ``disp`` is the cover displacement.  The
    default radius covers tol up to 4 on DoubledRectangle(2, 1).  When p or q
    is a corner, the reflection fixing it maps each sheet's lifts onto the
    other's: the same segments, so only the sheet with the shortest lift
    counts (sheet 0 on a tie)."""
    P = np.array([2.0 * a, 2.0 * b])
    pc = double_embed(b, p_coords, p_face)
    qc = double_embed(b, q_coords, q_face)
    corner = any(c[0] in (0.0, a) and c[1] in (0.0, b) for c in (p_coords, q_coords))
    lifts = []
    for sheet, delta in enumerate((qc - pc, -qc - pc)):
        for lam in itertools.product(range(-radius, radius + 1), repeat=2):
            disp = delta + np.asarray(lam, dtype=float) * P
            lifts.append(((sheet,) + lam, disp, length_of(disp)))
    if corner:
        keep = min(lifts, key=lambda t: (t[2], t[0][0]))[0][0]
        lifts = [t for t in lifts if t[0][0] == keep]
    dmin = min(length for _, _, length in lifts)
    return [t for t in lifts if t[2] <= dmin + tol]


def circulant_hessian_eigenvalues(k, n):
    """Eigenvalues of the loop-energy Hessian at a straight configuration:
    the cyclic second-difference form scaled by 2k, each with multiplicity n."""
    vals = []
    for m in range(k):
        vals.extend([2.0 * k * (2.0 - 2.0 * math.cos(2.0 * math.pi * m / k))] * n)
    return sorted(vals)


def lift_transport(space, p, q, lift):
    """Parallel transport from q to p along the segment with ``lift``: the
    (dim, dim) matrix taking chart vectors at q to chart vectors at p.  It
    comes from the lift and the faces alone, never from the velocities, whose
    signs are ambiguous on axis-aligned segments: the identity on a torus,
    ``sign M_p M_q`` on the doubled rectangle (the face chart matrices, sign
    -1 on the reflection sheet), block diagonal on a product."""
    if isinstance(space, lf.DoubledRectangle):
        sign = -1.0 if lift[0] == 1 else 1.0
        return sign * np.diag([1.0, -1.0 if p.face == "bottom" else 1.0]) @ np.diag(
            [1.0, -1.0 if q.face == "bottom" else 1.0])
    if isinstance(space, lf.Product):
        out = np.zeros((space.dim, space.dim))
        lo = 0
        for f, a, b, sub in zip(space.factors, space._split_point(p), space._split_point(q), lift):
            out[lo:lo + f.dim, lo:lo + f.dim] = lift_transport(f, a, b, sub)
            lo += f.dim
        return out
    return np.eye(space.dim)


def eigh_hessian(x, zero_tol=1e-6, tol=1e-9):
    """The energy Hessian ``2k sum_i B_i^T B_i``, ``B_i = (-I at i, T_i at
    i+1)``, assembled block by block from ``lift_transport`` of each
    segment's minimizer and summarized by ``eigh_report``.  The caller makes
    sure every segment has one minimizer."""
    n, k = x.space.dim, x.k
    hess = np.zeros((k, n, k, n))
    for i, segs in enumerate(lf.segment_geodesics(x, tol)):
        j = (i + 1) % k
        t = lift_transport(x.space, x.points[i], x.points[j], segs[0].lift)
        # -= accumulates, so at k = 2 both segments land in the same blocks
        hess[i, :, j, :] -= t
        hess[j, :, i, :] -= t.T
    # every block row meets two segments and T is orthogonal: diagonal 2I
    return eigh_report(x, 2.0 * k * (2.0 * np.eye(k * n) + hess.reshape(k * n, k * n)), zero_tol, tol)


def eigh_report(x, hess, zero_tol, tol):
    """A ``HessianReport`` of the (kn, kn) matrix ``hess`` from ``eigh``,
    with the library's index, nullity and degeneracy rules.  The loop
    velocity for the degeneracy test is each segment's first minimizer."""
    n, k = x.space.dim, x.k
    eigvals, eigvecs = np.linalg.eigh(hess)
    null_mask = np.abs(eigvals) <= zero_tol
    nullity = int(null_mask.sum())
    degenerate = False
    if nullity:
        directions = np.zeros((k, k * n))
        for i, segs in enumerate(lf.segment_geodesics(x, tol)):
            directions[i, i * n : (i + 1) * n] = segs[0].v0
        rank = np.linalg.matrix_rank(directions @ eigvecs[:, null_mask], tol=1e-8)
        degenerate = nullity > rank
    return lf.HessianReport(
        index=int((eigvals < -zero_tol).sum()),
        nullity=nullity,
        eigenvalues=tuple(float(v) for v in eigvals),
        zero_tol=zero_tol,
        degenerate=bool(degenerate),
    )


def finite_difference_hessian(x, zero_tol=1e-6, step=1e-4, tol=1e-9):
    """The energy Hessian by central differences of ``uniform_energy`` along
    ``exp_config``, O((kn)^2) energy calls, summarized by ``eigh_report``."""
    n, k = x.space.dim, x.k
    dim = k * n

    def f(u):
        return lf.uniform_energy(lf.exp_config(x, lf.ConfigTangent(tuple(u.reshape(k, n))), 1.0))

    e = np.eye(dim)
    f0 = f(np.zeros(dim))
    hess = np.zeros((dim, dim))
    for i in range(dim):
        hess[i, i] = (f(step * e[i]) - 2.0 * f0 + f(-step * e[i])) / (step * step)
        for j in range(i + 1, dim):
            hess[i, j] = hess[j, i] = (
                f(step * (e[i] + e[j]))
                - f(step * (e[i] - e[j]))
                - f(step * (e[j] - e[i]))
                + f(-step * (e[i] + e[j]))
            ) / (4.0 * step * step)
    return eigh_report(x, hess, zero_tol, tol)


def straight_chain_deviation(seglists):
    """Smallest over per-segment choices of the largest joint defect
    ``l_prev * v1_prev - l_cur * v0_cur``; zero exactly when some choice of
    minimizers chains into one closed geodesic."""
    k = len(seglists)
    best = math.inf
    for combo in itertools.product(*seglists):
        worst = 0.0
        for i in range(k):
            prev = combo[(i - 1) % k]
            cur = combo[i]
            defect = np.linalg.norm(prev.length * prev.v1 - cur.length * cur.v0)
            worst = max(worst, float(defect))
        best = min(best, worst)
    return best


def brute_extremes(x, tol=1e-9, magnitude_tol=1e-12):
    """``gradient_like``, ``gradient_like_all``, ``has_associated_geodesic``
    and ``associated_geodesic`` selected from one exhaustive listing."""
    from loopflow.geodesics import geodesic_from_chain

    cands = lf.candidate_gradients(x, tol)
    top = max(c.magnitude for c in cands)

    def ties_within(band):
        return sorted((c for c in cands if c.magnitude >= top - band), key=lambda c: tuple(c.stacked()))

    ties = ties_within(magnitude_tol)
    best = ties_within(1e-12)[0]  # ``gradient_like``: the first of its default band
    has_zero = any(c.magnitude <= tol for c in cands)
    seglists = lf.segment_geodesics(x, tol)
    geod = None
    for c in sorted(cands, key=lambda c: c.magnitude):
        if c.magnitude > tol:
            break
        chain = [next(s for s in segs if s.lift == lift) for segs, lift in zip(seglists, c.choice)]
        try:
            geod = geodesic_from_chain(x, chain, tol=max(tol * 10.0, 1e-7))
            break
        except Exception:
            continue
    return best, ties, has_zero, geod


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


# -- dense reference for the loop predicates --------------------------------------


def _loop_legs(g):
    """(periods, start, disp, reflects) in the cover, per leaf factor the loop
    moves in; torus classes (also on products of tori) are one torus leg."""
    if g.kind == "torus_class":
        periods = lf.effective_periods(g.space)
        return [(periods, g.base.coords, g.klass * periods, False)]
    factors = g.space.factors if isinstance(g.space, lf.Product) else [g.space]
    faces = g.base.face if isinstance(g.base.face, tuple) else (g.base.face,)
    legs, lo = [], 0
    for f, face in zip(factors, faces):
        coords = g.base.coords[lo:lo + f.dim]
        disp = g.length * g.direction[lo:lo + f.dim]
        lo += f.dim
        if not np.any(disp):
            continue
        if isinstance(f, lf.DoubledRectangle):
            chart = np.array([1.0, -1.0 if face == "bottom" else 1.0])
            legs.append((np.array([2.0 * f.a, 2.0 * f.b]), double_embed(f.b, coords, face),
                         chart * disp, True))
        else:
            legs.append((f.periods, coords, disp, False))
    return legs


def _sorted_lift_lengths(periods, P, Q, reflects):
    """Per row, the sorted lengths of every lift of (P[j], Q[j]) within one
    lattice step of the nearest, on both sheets when the leg reflects."""
    steps = np.array(list(itertools.product((-1, 0, 1), repeat=P.shape[1]))) * periods
    out = []
    for d in [Q - P] + ([-Q - P] if reflects else []):
        d = d - periods * np.round(d / periods)
        out.append(np.linalg.norm(d[:, None, :] + steps[None], axis=2))
    return np.sort(np.concatenate(out, axis=1), axis=1)


def dense_loop_arcs(g, k, tol=1e-9, per_arc=64):
    """Brute verdict on the pairs at arc L/k, from lattice scans of densely
    sampled pairs: (margin, cut, gap).

    ``margin`` is the smallest pair distance minus L/k (the loop is 1/k when
    it is >= -tol); ``cut`` the smallest sampled loop fraction whose pair has
    a second minimizer within tol, or None; ``gap`` the smallest distance
    between a pair's two shortest lifts in any factor.  Besides the uniform
    grid, every reflection lift nearest at a grid sample is also evaluated
    where it is shortest, so narrow windows are not missed.
    """
    legs = _loop_legs(g)
    u = np.arange(per_arc * k) / (per_arc * k)
    extra = []
    for periods, c, disp, reflects in legs:
        if reflects:
            P = c + u[:, None] * disp
            Q = c + (u[:, None] + 1.0 / k) * disp
            lam = -periods * np.round((-Q - P) / periods)
            # |lam - 2c - (2u + 1/k) disp| is shortest at this u, and again
            # wherever 2u moves by a lattice period of the loop's line
            best = ((lam - 2.0 * c) @ disp / (disp @ disp) - 1.0 / k) / 2.0
            g_ = math.gcd(*(int(m) for m in np.round(disp / periods)))
            extra += [best + j / (2.0 * g_) for j in range(2 * g_)]
    u = np.unique(np.concatenate([u] + extra) % 1.0)
    dist2, count, gap = 0.0, 1, math.inf
    for periods, c, disp, reflects in legs:
        lengths = _sorted_lift_lengths(periods, c + u[:, None] * disp,
                                       c + (u[:, None] + 1.0 / k) * disp, reflects)
        dist2 = dist2 + lengths[:, 0] ** 2
        count = count * (lengths <= lengths[:, :1] + tol).sum(axis=1)
        gap = min(gap, float((lengths[:, 1] - lengths[:, 0]).min()))
    margin = float(np.sqrt(dist2).min()) - g.length / k
    cuts = u[count >= 2]
    return margin, (float(cuts.min()) if cuts.size else None), gap


def strip_timing(report):
    """A report without its ``wall_time_ms`` fields, at every level."""
    if isinstance(report, dict):
        return {k: strip_timing(v) for k, v in report.items() if k != "wall_time_ms"}
    if isinstance(report, list):
        return [strip_timing(v) for v in report]
    return report


def scalar_check_variation(var, s, shifted, tol=1e-9):
    """The point by point variation check: the central loop's points at eight
    parameters, each flowed along the field for time s by the scalar flow,
    must be the shifted loop's points, and with ``var.perpendicular`` the
    field must be perpendicular to the loop at each.  Raises as the library
    always has."""
    g = var.geodesic
    for t in np.linspace(0.0, 2.0 * math.pi, 9)[:-1]:
        expected = scalar_flow(g.space, lf.Tangent(lf.point_at(g, t), var.field), s)[0]
        if g.space.distance(expected, lf.point_at(shifted, t)) > max(tol, 1e-8):
            raise lf.GeometryError(f"variation is not a synchronized flow at s={s}, t={t}")
        if var.perpendicular and abs(float(var.field @ lf.velocity_at(g, t))) > max(tol, 1e-8):
            raise lf.ValidationError("variation field is not perpendicular to the loop")


# -- the scalar flow as reference for the array step ---------------------------------


def scalar_flow(space, tan, s):
    """The straight-line flow of one point, backend by backend, as each
    backend computed it before one ``step_batch`` row served every move:
    ``(end point, chart velocity at the end)``.  On the doubled rectangle the
    cover vector is the face chart matrix times the chart vector, the end is
    folded back by the deck group and clamped by ``point`` (edge points to
    the top face), and the velocity reaches the end's chart through the
    deck transform's sign; a line within ``CONE_CLEARANCE`` of a cone point
    raises ``DegenerateTrajectoryError``.  A product flows factor by factor."""
    vec = np.asarray(tan.vec, dtype=float)
    if isinstance(space, lf.Product):
        ends, vels = zip(*(scalar_flow(f, lf.Tangent(p, v), s) for f, p, v in
                           zip(space.factors, space._split_point(tan.base), space._split(vec))))
        return space._join(list(ends)), np.concatenate(vels)
    if isinstance(space, lf.DoubledRectangle):
        start = space._embed(tan.base)
        cover_vec = space._chart_matrix(tan.base.face) @ vec
        disp = s * cover_vec
        if space._near_cone(start[None], disp[None], CONE_CLEARANCE)[0]:
            raise lf.DegenerateTrajectoryError("trajectory passes through a cone point")
        u, (sign,) = space._fold((start + disp)[None])
        (chart,), (bottom,) = space._chart(u)
        end = space.point(chart, "bottom" if bottom else "top")
        return end, sign * space._chart_matrix(end.face) @ cover_vec
    return space.point(tan.base.coords + s * vec), vec.copy()


def scalar_exp_config(x, rows, s):
    """Every point of x moved along its row of chart vectors for time s by
    ``scalar_flow``, one point at a time."""
    return lf.Configuration(x.space, tuple(scalar_flow(x.space, lf.Tangent(p, v), s)[0]
                                           for p, v in zip(x.points, rows, strict=True)))


def scalar_loop_closure(space, base, direction, length, closure_tol=1e-9):
    """The flow-based closure check of a segment loop: flowing from the base
    along the unit direction for the length must return to the base with the
    same velocity.  Raises ``ClosureError`` when it does not, and
    ``DegenerateTrajectoryError`` through a cone point.

    The velocities are compared a further flow of h = (sqrt 5 - 2) * length
    along, from the base and from the end point.  An edge point of the
    doubled rectangle has two face charts, and a loop that comes back to
    one a hair short of its edge ends in the other chart, its chart
    velocity mirrored; compared at the base, a loop that closes would fail.
    """
    direction = np.asarray(direction, dtype=float)
    direction = direction / np.linalg.norm(direction)
    end, vel = scalar_flow(space, lf.Tangent(base, direction), length)
    if space.distance(base, end) > closure_tol:
        raise lf.ClosureError("loop does not return to its base point")
    h = (math.sqrt(5.0) - 2.0) * length
    _, u = scalar_flow(space, lf.Tangent(base, direction), h)
    _, v = scalar_flow(space, lf.Tangent(end, vel), h)
    if float(np.linalg.norm(u - v)) > closure_tol:
        raise lf.ClosureError("loop returns with a different direction")


def scalar_loop_point(g, t):
    """The loop point at t and the chart velocity there, by the scalar flow
    from the base along the chart direction (a torus class's is its
    displacement over its length)."""
    if g.klass is None:
        direction = g.direction
    else:
        direction = g.klass * lf.effective_periods(g.space) / g.length
    frac = (t % (2.0 * math.pi)) / (2.0 * math.pi)
    end, vel = scalar_flow(g.space, lf.Tangent(g.base, direction), frac * g.length)
    return end, vel

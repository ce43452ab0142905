"""Geometry backend tests: distances, minimizing sets, flows, serialization."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import loopflow as lf
from conftest import (
    brute_double_distance,
    brute_double_minimizers,
    brute_torus_distance,
    brute_torus_minimizers,
    scalar_exp_config,
    scalar_flow,
)
from loopflow.spaces import wrap

T11 = lf.FlatTorus([1.0, 1.0])
T21 = lf.FlatTorus([2.0, 1.0])
D21 = lf.DoubledRectangle(2.0, 1.0)

coord = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)


class TestTorusDistance:
    def test_half_period(self):
        assert T11.distance(T11.point([0, 0]), T11.point([0.5, 0])) == 0.5

    def test_identity(self):
        p = T11.point([0.3, 0.7])
        assert T11.distance(p, p) == 0.0

    def test_derived_value_against_brute_force(self):
        d = T21.distance(T21.point([0, 0]), T21.point([1, 0.5]))
        assert d == pytest.approx(brute_torus_distance([2, 1], [0, 0], [1, 0.5]), abs=1e-15)
        assert d == pytest.approx(1.118033988749895, abs=1e-12)  # sqrt(1.25)

    @given(px=coord, py=coord, qx=coord, qy=coord)
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, px, py, qx, qy):
        p, q = T21.point([px, py]), T21.point([qx, qy])
        assert T21.distance(p, q) == pytest.approx(
            brute_torus_distance([2, 1], p.coords, q.coords), abs=1e-12
        )

    @given(px=coord, py=coord, qx=coord, qy=coord)
    @settings(max_examples=60, deadline=None)
    def test_symmetry_exact(self, px, py, qx, qy):
        p, q = T21.point([px, py]), T21.point([qx, qy])
        assert T21.distance(p, q) == T21.distance(q, p)

    @given(px=coord, py=coord, qx=coord, qy=coord, rx=coord, ry=coord)
    @settings(max_examples=60, deadline=None)
    def test_triangle_inequality(self, px, py, qx, qy, rx, ry):
        p, q, r = T21.point([px, py]), T21.point([qx, qy]), T21.point([rx, ry])
        assert T21.distance(p, q) <= T21.distance(p, r) + T21.distance(r, q) + 1e-12

    @given(px=coord, py=coord, qx=coord, qy=coord, cx=coord, cy=coord)
    @settings(max_examples=60, deadline=None)
    def test_translation_equivariance(self, px, py, qx, qy, cx, cy):
        shift = np.array([cx, cy])
        p, q = T21.point([px, py]), T21.point([qx, qy])
        ps, qs = T21.point(p.coords + shift), T21.point(q.coords + shift)
        assert T21.distance(p, q) == pytest.approx(T21.distance(ps, qs), abs=1e-12)


class TestMinimizingGeodesics:
    def test_four_diagonal_minimizers(self):
        segs = T11.minimizing_geodesics(T11.point([0, 0]), T11.point([0.5, 0.5]))
        assert len(segs) == 4
        disps = sorted(tuple(np.round(s.length * s.v0, 12)) for s in segs)
        assert disps == [(-0.5, -0.5), (-0.5, 0.5), (0.5, -0.5), (0.5, 0.5)]

    def test_unique_short_minimizer(self):
        segs = T11.minimizing_geodesics(T11.point([0, 0]), T11.point([0.2, 0.1]))
        assert len(segs) == 1
        expected = np.array([0.2, 0.1]) / np.linalg.norm([0.2, 0.1])
        assert np.allclose(segs[0].v0, expected, atol=1e-12)

    def test_equal_points_rejected(self):
        p = T11.point([0.2, 0.2])
        with pytest.raises(lf.CoincidentPointsError):
            T11.minimizing_geodesics(p, p)

    def test_tiny_displacements_keep_unit_velocities(self):
        # 7.46e-159 squared is subnormal: lengths rescale before the square
        p, q = T21.point([0.0, 0.0]), T21.point([0.0, 7.46e-159])
        (seg,) = T21.minimizing_geodesics(p, q)
        e0, sign, length, unique = T21.segment_batch(p.coords[None], q.coords[None], 1e-9)
        assert seg.length == length[0] == T21.distance(p, q) == 7.46e-159
        assert np.array_equal(seg.v0, [0.0, 1.0]) and np.array_equal(e0[0], seg.v0)
        assert unique[0] and np.array_equal(sign[0], [1.0, 1.0])

    def test_double_rectangle_involution_tie(self):
        p = D21.point([1, 0.5], "top")
        q = D21.point([1, 0.5], "bottom")
        segs = D21.minimizing_geodesics(p, q)
        assert len(segs) >= 2
        want = brute_double_minimizers(2, 1, [1, 0.5], "top", [1, 0.5], "bottom")
        assert [s.lift for s in segs] == [lift for lift, _, _ in want]
        assert all(s.length == pytest.approx(segs[0].length, abs=1e-12) for s in segs)

    @given(px=coord, py=coord, qx=coord, qy=coord)
    # a displacement whose square is subnormal
    @example(px=0.0, py=0.0, qx=0.0, qy=7.46e-159)
    @settings(max_examples=60, deadline=None)
    def test_lengths_velocities_and_membership(self, px, py, qx, qy):
        p, q = T21.point([px, py]), T21.point([qx, qy])
        d = T21.distance(p, q)
        if d == 0.0:
            return
        segs = T21.minimizing_geodesics(p, q, tol=1e-9)
        assert segs
        for s in segs:
            assert abs(s.length - d) <= 1e-9
            assert abs(np.linalg.norm(s.v0) - 1.0) <= 1e-12
            assert abs(np.linalg.norm(s.v1) - 1.0) <= 1e-12
        want = sorted(tuple(disp) for _, disp, _ in brute_torus_minimizers([2, 1], p.coords, q.coords))
        got = sorted(tuple(s.length * s.v0) for s in segs)
        assert np.allclose(np.array(got), np.array(want), atol=1e-9)

    @given(px=coord, py=coord, qx=coord, qy=coord, cx=coord, cy=coord)
    @settings(max_examples=40, deadline=None)
    def test_velocity_sets_translation_invariant(self, px, py, qx, qy, cx, cy):
        p, q = T21.point([px, py]), T21.point([qx, qy])
        # displacements below float absorption vanish under the shift
        if T21.distance(p, q) < 1e-9:
            return
        shift = np.array([cx, cy])
        ps, qs = T21.point(p.coords + shift), T21.point(q.coords + shift)
        a = sorted(tuple(np.round(s.v0, 9)) for s in T21.minimizing_geodesics(p, q))
        b = sorted(tuple(np.round(s.v0, 9)) for s in T21.minimizing_geodesics(ps, qs))
        assert np.allclose(np.array(a), np.array(b), atol=1e-8)


PT = lf.Product([lf.FlatTorus([1.0, 0.75]), lf.FlatTorus([1.25])])


@st.composite
def near_half_steps(draw, n):
    """Per coordinate, a fraction of the period: within 1e-3 of one half (at
    an offset drawn from 0 to 1e-3, of either sign), or anywhere in [0, 1)."""
    return np.array([
        0.5 + draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(0.0, 1e-3))
        if draw(st.booleans()) else draw(st.floats(0.0, 1.0, exclude_max=True))
        for _ in range(n)
    ])


def tols(period):
    return st.one_of(st.just(1e-9), st.floats(1e-12, period))


class TestLiftSets:
    """``minimizing_geodesics`` against the brute lattice scans of conftest:
    the same lifts in the same order, with the same length, v0 and v1 bits,
    for pairs near a half period and any ``tol`` up to a period."""

    @pytest.mark.parametrize("periods", [[1.0, 0.75], [1.0, 0.8125, 1.375]])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_torus(self, periods, data):
        torus = lf.FlatTorus(periods)
        start = data.draw(near_half_steps(len(periods))) * periods
        p = torus.point(start)
        q = torus.point(start + data.draw(near_half_steps(len(periods))) * periods)
        tol = data.draw(tols(max(periods)))
        assume(torus.distance(p, q) > 0.0)
        want = brute_torus_minimizers(periods, p.coords, q.coords, tol)
        segs = torus.minimizing_geodesics(p, q, tol)
        assert [s.lift for s in segs] == [lam for lam, _, _ in want]
        for s, (_, disp, length) in zip(segs, want):
            assert s.length == length
            assert np.array_equal(s.v0, disp / length) and np.array_equal(s.v1, disp / length)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_product(self, data):
        periods = np.array([1.0, 0.75, 1.25])
        start = data.draw(near_half_steps(3)) * periods
        p, q = PT.point(start), PT.point(start + data.draw(near_half_steps(3)) * periods)
        tol = data.draw(tols(1.25))
        wants = [brute_torus_minimizers(f.periods, p.coords[lo:hi], q.coords[lo:hi], tol)
                 for f, (lo, hi) in zip(PT.factors, PT._offsets)]
        # a factor at distance 0 takes the trivial lift, not its lattice ball
        assume(all(length > 0.0 for want in wants for _, _, length in want))
        segs = PT.minimizing_geodesics(p, q, tol)
        combos = list(itertools.product(*wants))
        assert [s.lift for s in segs] == [tuple(lam for lam, _, _ in c) for c in combos]
        for s, combo in zip(segs, combos):
            length = math.sqrt(sum(l**2 for _, _, l in combo))
            v0 = np.concatenate([l * (d / l) for _, d, l in combo]) / length
            assert s.length == length
            assert np.array_equal(s.v0, v0) and np.array_equal(s.v1, v0)

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_doubled_rectangle(self, data):
        # q's cover lift is +-p's plus near-half cover periods, so both the
        # translation and the reflection sheet see near ties
        faces = st.sampled_from(("top", "bottom"))
        p = D21.point([data.draw(st.floats(0.0, 2.0)), data.draw(st.floats(0.0, 1.0))],
                      data.draw(faces))
        sign = data.draw(st.sampled_from((1.0, -1.0)))
        x, y = wrap(sign * D21._embed(p) + data.draw(near_half_steps(2)) * D21.cover_periods,
                    D21.cover_periods)
        if x > 2.0:
            x, y = 4.0 - x, (2.0 - y) % 2.0
        q = D21.point([x, min(y, 2.0 - y)], "bottom" if y > 1.0 else "top")
        tol = data.draw(tols(2.0))
        assume(D21.distance(p, q) > 0.0)
        want = brute_double_minimizers(2, 1, p.coords, p.face, q.coords, q.face, tol)
        segs = D21.minimizing_geodesics(p, q, tol, allow_degenerate=True)
        assert [s.lift for s in segs] == [lift for lift, _, _ in want]
        chart = {"top": np.eye(2), "bottom": np.diag([1.0, -1.0])}
        for s, (lift, disp, length) in zip(segs, want):
            e = disp / length
            assert s.length == length
            assert np.array_equal(s.v0, chart[p.face] @ e)
            assert np.array_equal(s.v1, chart[q.face] @ (e if lift[0] == 0 else -e))

    def test_a_lift_at_exactly_dmin_plus_tol_is_listed(self):
        # the lift (-1,) has length 1.10233... == dmin + tol, but the reach
        # box's lower edge (-reach - d) / 1 rounds to -0.9999999999999999
        circle = lf.FlatTorus([1.0])
        p, q = circle.point([0.6670875671744891]), circle.point([0.5647573314147908])
        segs = circle.minimizing_geodesics(p, q, tol=1.0)
        assert [s.lift for s in segs] == [(-1,), (0,), (1,)]
        assert segs[0].length == circle.distance(p, q) + 1.0

    def test_a_coordinate_lost_in_the_rounding_of_reach_keeps_its_nearest_lift(self):
        # reach**2 less the other coordinate's square rounds to 0 < 1e-20
        segs = T11.minimizing_geodesics(T11.point([0, 0]), T11.point([1e-10, 0.5]), tol=1e-20)
        assert [s.lift for s in segs] == [(0, -1), (0, 0)]

    def test_short_periods_beside_a_long_one_stay_within_the_guard(self):
        # a box of every lift within reach of the nearest in each coordinate
        # alone would span 1000 lifts per short period
        torus = lf.FlatTorus([0.001, 0.001, 1.0])
        segs = torus.minimizing_geodesics(torus.point([0, 0, 0]), torus.point([0.0002, 0.0003, 0.5]))
        assert [s.lift for s in segs] == [(0, 0, -1), (0, 0, 0)]

    def test_the_guard_still_bounds_a_wide_tol(self):
        torus = lf.FlatTorus([1.0, 50.0])
        with pytest.raises(lf.ResourceLimitError):
            torus.minimizing_geodesics(torus.point([0, 0]), torus.point([0.5, 25.0]), tol=5000.0)


class TestExpMap:
    def test_plain(self):
        end = T11.exp_map(lf.Tangent(T11.point([0, 0]), np.array([1.0, 0.0])), 0.25)
        assert np.allclose(end.coords, [0.25, 0.0], atol=1e-15)

    def test_wraparound(self):
        end = T11.exp_map(lf.Tangent(T11.point([0.9, 0]), np.array([1.0, 0.0])), 0.2)
        assert np.allclose(end.coords, [0.1, 0.0], atol=1e-12)

    def test_double_face_crossing(self):
        start = D21.point([1, 0.9], "top")
        end = D21.exp_map(lf.Tangent(start, np.array([0.0, 1.0])), 0.2)
        assert end.face == "bottom"
        assert np.allclose(end.coords, [1.0, 0.9], atol=1e-12)

    def test_double_cone_point_hit(self):
        start = D21.point([0.5, 1.0], "top")
        with pytest.raises(lf.DegenerateTrajectoryError):
            D21.exp_map(lf.Tangent(start, np.array([-1.0, 0.0])), 1.0)

    @given(
        px=coord,
        py=coord,
        vx=st.floats(-1, 1, allow_nan=False),
        vy=st.floats(-1, 1, allow_nan=False),
        s=st.floats(0.01, 0.49, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_unit_speed_distance(self, px, py, vx, vy, s):
        v = np.array([vx, vy])
        if np.linalg.norm(v) < 1e-3:
            return
        v = v / np.linalg.norm(v)
        base = T21.point([px, py])
        end = T21.exp_map(lf.Tangent(base, v), s)
        # below half the shortest period there is no wraparound ambiguity
        assert T21.distance(base, end) == pytest.approx(s, abs=1e-12)

    def test_transported_direction_consistent(self):
        # crossing onto the bottom face flips the chart y-axis
        start = D21.point([1.0, 0.9], "top")
        _, vel = D21.flow(lf.Tangent(start, np.array([0.0, 1.0])), 0.2)
        assert np.allclose(vel, [0.0, -1.0], atol=1e-12)

    def test_flow_onto_a_vertical_edge_from_the_bottom_face(self):
        # (0.5, 0.3) bottom along (-1, 0) meets the edge x = 0 at 0.5, where
        # ``point`` puts the end on the top face: the deck transform is the
        # reflection, so the velocity turns to (1, 0)
        start = D21.point([0.5, 0.3], "bottom")
        end, vel = D21.flow(lf.Tangent(start, np.array([-1.0, 0.0])), 0.5)
        assert end.face == "top" and np.allclose(end.coords, [0.0, 0.3], rtol=0, atol=1e-15)
        assert np.array_equal(vel, [1.0, 0.0])
        # just short of the edge the end is still on the bottom face, moving along -x
        end, vel = D21.flow(lf.Tangent(start, np.array([-1.0, 0.0])), 0.25)
        assert end.face == "bottom" and np.array_equal(vel, [-1.0, 0.0])


FLOW_SPACES = {
    "T21": T21,
    "D21": D21,
    "T1xD21": lf.Product([lf.FlatTorus([1.25]), D21]),
    "T21xT1": lf.Product([T21, lf.FlatTorus([1.25])]),
}


@st.composite
def based_tangents(draw, k=1):
    """A space of FLOW_SPACES, k of its points (doubled-rectangle ones on
    either face, often on an edge) and k chart vectors."""
    space = FLOW_SPACES[draw(st.sampled_from(sorted(FLOW_SPACES)))]
    factors = space.factors if isinstance(space, lf.Product) else [space]
    points, vecs = [], []
    for _ in range(k):
        coords, faces = [], []
        for f in factors:
            if isinstance(f, lf.DoubledRectangle):
                coords += [draw(st.sampled_from([0.0, f.a]) | st.floats(0.0, f.a)),
                           draw(st.sampled_from([0.0, f.b]) | st.floats(0.0, f.b))]
                faces.append(draw(st.sampled_from(["top", "bottom"])))
            else:
                coords += [draw(st.floats(0.0, 3.0)) for _ in range(f.dim)]
                faces.append(None)
        face = faces[0] if len(faces) == 1 else (None if not any(faces) else tuple(faces))
        points.append(space.point(coords) if face is None else space.point(coords, face))
        vecs.append(np.array([draw(st.floats(-3.0, 3.0)) for _ in range(space.dim)]))
    return space, points, np.array(vecs)


def flow_or_error(flow, *args):
    try:
        return flow(*args)
    except lf.DegenerateTrajectoryError:
        return "cone"


class TestArrayFlow:
    """``Space.flow`` and ``exp_config`` are ``step_batch`` rows; they move
    points bit for bit as the scalar per-backend flows did."""

    @given(based_tangents(), st.floats(-2.0, 2.0))
    @settings(max_examples=200, deadline=None)
    def test_flow_is_the_scalar_flow(self, case, s):
        space, (p,), (v,) = case
        got, want = (flow_or_error(f, space, lf.Tangent(p, v), s)
                     for f in (lambda sp, t, s: sp.flow(t, s), scalar_flow))
        assert (got == "cone") == (want == "cone")
        if got != "cone":
            assert np.array_equal(got[0].coords, want[0].coords) and got[0].face == want[0].face
            assert np.array_equal(got[1], want[1])

    @given(based_tangents(k=5), st.floats(-1.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_exp_config_is_the_scalar_flow_of_every_point(self, case, s):
        space, points, rows = case
        x = lf.Configuration(space, points)
        got, want = (flow_or_error(f, x, rows, s) for f in (lf.exp_config, scalar_exp_config))
        assert (got == "cone") == (want == "cone")
        if got != "cone":
            for a, b in zip(got.points, want.points, strict=True):
                assert np.array_equal(a.coords, b.coords) and a.face == b.face
            # and the moved rows are the rows of the moved points
            assert np.array_equal(lf.Configuration(space, got.points).cover, got.cover)

    def test_exp_config_takes_a_config_tangent(self):
        x = lf.configuration(D21, [[0.5, 0.3], [1.5, 0.3]], ["bottom", "top"])
        rows = np.array([[0.0, 1.0], [1.0, 0.5]])
        by_tangent = lf.exp_config(x, lf.ConfigTangent.of(x, rows), 0.2)
        assert np.array_equal(lf.exp_config(x, rows, 0.2).cover, by_tangent.cover)
        with pytest.raises(lf.ValidationError):
            lf.exp_config(x, rows[:1], 0.2)


class TestCutPairs:
    def test_half_period_pair(self):
        assert lf.is_cut_pair(T11, T11.point([0, 0]), T11.point([0.5, 0]))

    def test_generic_pair(self):
        assert not lf.is_cut_pair(T11, T11.point([0, 0]), T11.point([0.2, 0]))

    def test_diagonal_tie_on_rectangular_torus(self):
        assert lf.is_cut_pair(T21, T21.point([0, 0]), T21.point([0.5, 0.5]))

    def test_a_segment_to_a_cone_point_is_listed_once(self):
        # the reflection fixing the corner (0, 0) maps one sheet onto the other
        p, corner = D21.point([0.5, 0.5], "top"), D21.point([0.0, 0.0], "top")
        for a, b in ((p, corner), (corner, p)):
            (seg,) = D21.minimizing_geodesics(a, b, allow_degenerate=True)
            assert seg.lift == (0, 0, 0) and seg.length == D21.distance(a, b)
            assert not lf.is_cut_pair(D21, a, b)


class TestDoubledRectangle:
    @given(
        px=st.floats(0.05, 1.95),
        py=st.floats(0.05, 0.95),
        qx=st.floats(0.05, 1.95),
        qy=st.floats(0.05, 0.95),
        pf=st.booleans(),
        qf=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_distance_matches_brute_force(self, px, py, qx, qy, pf, qf):
        faces = {True: "bottom", False: "top"}
        p = D21.point([px, py], faces[pf])
        q = D21.point([qx, qy], faces[qf])
        assert D21.distance(p, q) == pytest.approx(
            brute_double_distance(2, 1, [px, py], faces[pf], [qx, qy], faces[qf]), abs=1e-12
        )

    def test_boundary_points_identified(self):
        top = D21.point([0.7, 0.0], "top")
        bottom = D21.point([0.7, 0.0], "bottom")
        assert bottom.face == "top"
        assert D21.distance(top, bottom) == 0.0

    def test_loop_points_put_edge_points_on_the_top_face(self):
        # from (0.5, 0.3) on the bottom face along (-1, 0): at 0.5 the loop
        # meets the vertical edge x = 0, which ``point`` puts on the top face
        base = D21.point([0.5, 0.3], "bottom")
        g = lf.segment_loop_geodesic(D21, base, [-1.0, 0.0], 4.0)
        for s in (0.25, 0.5):
            p = D21.exp_map(D21.tangent(base, [-1.0, 0.0]), s)
            q = lf.point_at(g, 2.0 * math.pi * s / 4.0)
            assert np.array_equal(q.coords, p.coords) and q.face == p.face
        assert p.face == "top"


class TestProduct:
    def test_distance_is_euclidean_combination(self, rng):
        TA, TB = lf.FlatTorus([1.0, 0.8]), lf.FlatTorus([1.2])
        P = lf.Product([TA, TB])
        for _ in range(25):
            a = rng.uniform(0, 1, size=3)
            b = rng.uniform(0, 1, size=3)
            p, q = P.point(a), P.point(b)
            da = TA.distance(TA.point(a[:2]), TA.point(b[:2]))
            db = TB.distance(TB.point(a[2:]), TB.point(b[2:]))
            assert P.distance(p, q) == pytest.approx(math.hypot(da, db), abs=1e-12)

    def test_minimizing_set_is_factor_product(self, rng):
        TA, TB = lf.FlatTorus([1.0, 0.8]), lf.FlatTorus([1.2])
        P = lf.Product([TA, TB])
        for _ in range(25):
            a = rng.uniform(0, 1, size=3)
            b = rng.uniform(0, 1, size=3)
            if np.allclose(a, b):
                continue
            p, q = P.point(a), P.point(b)
            segs = P.minimizing_geodesics(p, q)
            na = (
                1
                if np.array_equal(TA.point(a[:2]).coords, TA.point(b[:2]).coords)
                else len(TA.minimizing_geodesics(TA.point(a[:2]), TA.point(b[:2])))
            )
            nb = (
                1
                if np.array_equal(TB.point(a[2:]).coords, TB.point(b[2:]).coords)
                else len(TB.minimizing_geodesics(TB.point(a[2:]), TB.point(b[2:])))
            )
            assert len(segs) == na * nb
            for s in segs:
                assert abs(np.linalg.norm(s.v0) - 1.0) <= 1e-12
                assert s.length == pytest.approx(P.distance(p, q), abs=1e-9)

    def test_nested_products(self):
        P = lf.Product([lf.Product([lf.FlatTorus([1.0]), lf.FlatTorus([0.5])]), lf.FlatTorus([2.0])])
        p = P.point([0.1, 0.2, 0.3])
        q = P.point([0.4, 0.1, 1.1])
        flat = lf.FlatTorus([1.0, 0.5, 2.0])
        assert P.distance(p, q) == pytest.approx(
            flat.distance(flat.point([0.1, 0.2, 0.3]), flat.point([0.4, 0.1, 1.1])), abs=1e-12
        )


    def test_zero_length_factor_takes_the_trivial_lift(self):
        P = lf.Product([lf.Product([lf.FlatTorus([1.0]), D21]), lf.FlatTorus([2.0])])
        assert P.trivial_lift() == (((0,), (0, 0, 0)), (0,))
        p = P.point([0.1, 0.5, 0.5, 0.3], ((None, "bottom"), None))
        q = P.point([0.1, 0.5, 0.5, 1.1], ((None, "bottom"), None))
        (seg,) = P.minimizing_geodesics(p, q)
        assert seg.lift[0] == P.factors[0].trivial_lift()


KERNEL_SPACES = [
    lf.FlatTorus([1.0, 0.75]),
    lf.FlatTorus([1.0, 0.8125, 1.375]),
    lf.Product([lf.FlatTorus([1.0, 0.75]), lf.FlatTorus([1.25])]),
]


def cone_gap(space, p, seg):
    """Distance from the open cover segment of ``seg`` out of p to the
    nearest cone lift (i a, j b), by a scan of the grid around it."""
    start = space._embed(p)
    disp = seg.length * (space._chart_matrix(p.face) @ seg.v0)
    best = math.inf
    for i, j in itertools.product(range(-4, 8), repeat=2):
        cone = np.array([i * space.a, j * space.b])
        t = float((cone - start) @ disp) / float(disp @ disp)
        if 0.0 < t < 1.0:
            best = min(best, float(np.linalg.norm(start + t * disp - cone)))
    return best


class TestSegmentBatch:
    """The array kernels of the flows against ``minimizing_geodesics``: a
    certified pair has exactly one minimizer within tol, whose ``v0``,
    ``v1`` (the kernel's cover-frame velocities times the chart frames) and
    ``length`` the kernel reproduces bit for bit, and an
    uncertified pair has a second minimizer within the margin (2 tol plus
    slack) or passes within the cone margin of a cone point; the length is
    the distance always."""

    def check(self, space, ps, qs):
        A = np.array([space._embed(p) for p in ps])
        B = np.array([space._embed(q) for q in qs])
        e0, sign, length, unique = space.segment_batch(A, B, 1e-9)
        for j, (p, q) in enumerate(zip(ps, qs)):
            v0, v1 = e0[j], sign[j] * e0[j]
            if isinstance(space, lf.DoubledRectangle):
                v0, v1 = v0 * space._frame(p), v1 * space._frame(q)
            assert length[j] == space.distance(p, q)
            if length[j] == 0.0:
                continue
            segs = space.minimizing_geodesics(p, q, 1e-9, allow_degenerate=True)
            if unique[j]:
                assert len(segs) == 1 and not segs[0].degenerate
            elif len(space.minimizing_geodesics(p, q, 3e-9, allow_degenerate=True)) < 2:
                assert cone_gap(space, p, segs[0]) <= 3e-9
            if len(segs) == 1:
                assert length[j] == segs[0].length
                assert np.array_equal(v0, segs[0].v0)
                assert np.array_equal(v1, segs[0].v1)
        return unique

    @given(
        which=st.integers(0, len(KERNEL_SPACES) - 1),
        fracs=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=6, max_size=6),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_pairs(self, which, fracs):
        space = KERNEL_SPACES[which]
        periods = lf.effective_periods(space)
        n = space.dim
        p = space.point(np.array(fracs[:n]) * periods)
        q = space.point(np.array(fracs[3 : 3 + n]) * periods)
        self.check(space, [p], [q])

    @given(
        fracs=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
        faces=st.lists(st.sampled_from(["top", "bottom"]), min_size=2, max_size=2),
    )
    @settings(max_examples=150, deadline=None)
    def test_doubled_rectangle_random_pairs(self, fracs, faces):
        p = D21.point([2.0 * fracs[0], fracs[1]], faces[0])
        q = D21.point([2.0 * fracs[2], fracs[3]], faces[1])
        self.check(D21, [p], [q])

    def test_doubled_rectangle_ties_cones_and_sheets(self, rng):
        offsets = [0.0, 1e-13, 1e-11, 4e-10, 1e-9, 2e-9, 3e-9, 1e-8, 1e-7, 1e-3]
        ps, qs = [], []
        for off in offsets:
            # mirror images across the faces: the sheets tie at off = 0
            x, y = rng.uniform(0.2, 1.8), rng.uniform(0.2, 0.8)
            ps.append(D21.point([x, y], "top"))
            qs.append(D21.point([x, y + off], "bottom"))
            # a segment across the edge x = 0: the reflection sheet
            ps.append(D21.point([0.1, 0.4], "top"))
            qs.append(D21.point([0.2 + off, 0.4], "bottom"))
            # from next to the cone point (2, 1), on either face
            for face in ("top", "bottom"):
                ps.append(D21.point([2.0 - off, 1.0 - 2.0 * off], "top"))
                qs.append(D21.point([1.5, 0.6], face))
        unique = self.check(D21, ps, qs).reshape(len(offsets), 4)
        far = np.array(offsets) >= 1e-7
        assert unique[:, 1].all() and unique[far].all()

    @pytest.mark.parametrize("space", KERNEL_SPACES, ids=["T2", "T3", "product"])
    def test_near_tie_pairs(self, space, rng):
        periods = lf.effective_periods(space)
        offsets = [0.0, 1e-13, 1e-11, 4e-10, 1e-9, 3e-9, 1e-7, 1e-3]
        rows_a, rows_b, far = [], [], []
        for i in range(space.dim):
            for off in offsets + [-o for o in offsets[1:]]:
                a = rng.uniform(0, periods)
                shift = rng.uniform(-0.2, 0.2, space.dim) * periods
                shift[i] = periods[i] / 2.0 + off
                rows_a.append(space.point(a).coords)
                rows_b.append(space.point(a + shift).coords)
                far.append(abs(off) >= 1e-7)
        # a product pair whose second factor coincides
        a = rng.uniform(0, periods)
        rows_a.append(space.point(a).coords)
        rows_b.append(space.point(a + np.r_[0.3, 0.2, 0.0][: space.dim]).coords)
        far.append(True)
        unique = self.check(space, [space.point(a) for a in rows_a], [space.point(b) for b in rows_b])
        # the margin is narrow: gaps far above tol are certified
        assert unique[np.array(far)].all()


class TestSerialization:
    @pytest.mark.parametrize(
        "space",
        [
            lf.FlatTorus([1.0, 0.75]),
            lf.DoubledRectangle(2.0, 1.0),
            lf.Product([lf.FlatTorus([1.0]), lf.DoubledRectangle(1.0, 0.5)]),
        ],
    )
    def test_space_roundtrip(self, space):
        again = lf.space_from_dict(space.to_dict())
        assert again.to_dict() == space.to_dict()

    def test_point_roundtrip(self):
        p = D21.point([0.5, 0.25], "bottom")
        data = lf.point_to_dict(p)
        assert data == {"coords": [0.5, 0.25], "face": "bottom"}
        q = lf.point_from_dict(D21, data)
        assert q.face == "bottom" and np.array_equal(q.coords, p.coords)

    def test_bad_space_rejected(self):
        with pytest.raises(lf.ValidationError):
            lf.space_from_dict({"type": "sphere"})
        with pytest.raises(lf.ValidationError):
            lf.space_from_dict({"type": "flat_torus", "periods": [1.0, -2.0]})

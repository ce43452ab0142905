"""Closed geodesics: evaluation, minimizing index, cut pairs, variations."""

import itertools
import json
import math
import pathlib

import numpy as np
import pytest
from conftest import dense_loop_arcs, scalar_check_variation, scalar_loop_closure, scalar_loop_point
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import loopflow as lf
from loopflow import geodesics
from loopflow.cli import execute_scenario
from loopflow.spaces import CONE_CLEARANCE

GOLDEN = pathlib.Path(__file__).parent / "golden" / "queries"

T11 = lf.FlatTorus([1.0, 1.0])
T21 = lf.FlatTorus([2.0, 1.0])
TREC = lf.FlatTorus([1.0, 0.75])
D21 = lf.DoubledRectangle(2.0, 1.0)


def over_under_loop():
    """Vertical loop of the doubled 2x1 rectangle at x0 = 1/2, based at the
    mid-height point so its tied triple-minimizer pair sits at parameter 0."""
    return lf.segment_loop_geodesic(D21, D21.point([0.5, 0.5], "top"), [0.0, 1.0], 2.0)


class TestConstruction:
    def test_zero_class_rejected(self):
        with pytest.raises(lf.ValidationError):
            lf.torus_class_geodesic(T11, T11.point([0, 0]), [0, 0])

    def test_torus_class_length(self):
        g = lf.torus_class_geodesic(T21, T21.point([0, 0]), [1, 2])
        assert g.length == pytest.approx(math.hypot(2.0, 2.0), abs=1e-12)

    def test_segment_loop_closure_check(self):
        with pytest.raises(lf.ClosureError):
            lf.segment_loop_geodesic(T11, T11.point([0, 0]), [1.0, 0.0], 0.7)

    def test_segment_loop_through_cone_point_rejected(self):
        # the left rectangle edge runs through two corners
        with pytest.raises(lf.DegenerateTrajectoryError):
            lf.segment_loop_geodesic(D21, D21.point([0.0, 0.5], "top"), [0.0, 1.0], 2.0)

    def test_torus_class_on_doubled_rectangle_rejected(self):
        with pytest.raises(lf.SpaceSupportError):
            lf.torus_class_geodesic(D21, D21.point([0.5, 0.5], "top"), [1, 0])


class TestPointAt:
    def test_half_loop(self):
        g = lf.torus_class_geodesic(T11, T11.point([0, 0]), [1, 0])
        assert np.allclose(lf.point_at(g, math.pi).coords, [0.5, 0.0], atol=1e-12)

    def test_base(self):
        g = lf.torus_class_geodesic(T11, T11.point([0.3, 0.8]), [1, 0])
        assert np.allclose(lf.point_at(g, 0.0).coords, [0.3, 0.8], atol=1e-15)

    def test_quarter_of_displacement(self):
        g = lf.torus_class_geodesic(T21, T21.point([0, 0]), [1, 2])
        assert np.allclose(lf.point_at(g, math.pi / 2).coords, [0.5, 0.5], atol=1e-12)

    def test_over_under_crosses_faces(self):
        g = over_under_loop()
        mid = lf.point_at(g, math.pi)
        assert mid.face == "bottom"
        assert np.allclose(mid.coords, [0.5, 0.5], atol=1e-12)
        assert np.allclose(lf.point_at(g, 2 * math.pi - 1e-12).coords, lf.point_at(g, 0).coords, atol=1e-9)


class TestIsKGeodesic:
    def test_straight_class_halves(self):
        g = lf.torus_class_geodesic(T11, T11.point([0, 0]), [1, 0])
        assert lf.is_k_geodesic(g, 2)

    def test_12_class_fails_at_two(self):
        g = lf.torus_class_geodesic(T11, T11.point([0, 0]), [1, 2])
        # the vertical coordinate wraps to 0 at half period: pair distance 0.5 < L/2
        assert not lf.is_k_geodesic(g, 2)

    def test_true_at_minimizing_index(self):
        for klass in ([1, 0], [1, 1], [1, 2], [2, 1]):
            g = lf.torus_class_geodesic(TREC, TREC.point([0.2, 0.1]), klass)
            assert lf.is_k_geodesic(g, lf.minimizing_index(g))


class TestMinimizingIndex:
    def test_closed_form_examples(self):
        g10 = lf.torus_class_geodesic(TREC, TREC.point([0, 0]), [1, 0])
        g12 = lf.torus_class_geodesic(TREC, TREC.point([0, 0]), [1, 2])
        assert lf.minimizing_index(g10) == 2 == lf.torus_class_minind(g10)
        assert lf.minimizing_index(g12) == 4 == lf.torus_class_minind(g12)

    def test_closed_form_across_small_classes(self):
        T3 = lf.FlatTorus([1.0, 0.8125, 1.375])
        for klass in itertools.product(range(-2, 3), repeat=3):
            if not any(klass):
                continue
            g = lf.torus_class_geodesic(T3, T3.point([0.1, 0.2, 0.3]), klass)
            assert lf.minimizing_index(g) == 2 * max(abs(m) for m in klass)

    def test_minimality_of_index(self):
        for klass in ([1, 2], [2, 1], [3, 1]):
            g = lf.torus_class_geodesic(TREC, TREC.point([0.05, 0.33]), klass)
            k = lf.minimizing_index(g)
            assert lf.is_k_geodesic(g, k)
            if k >= 3:
                assert not lf.is_k_geodesic(g, k - 1)

    def test_over_under_has_index_two(self):
        assert lf.minimizing_index(over_under_loop()) == 2

    def test_product_law(self):
        TA, TB = lf.FlatTorus([1.0, 0.8]), lf.FlatTorus([1.2])
        P = lf.Product([TA, TB])
        gp = lf.torus_class_geodesic(P, P.point([0.1, 0.2, 0.3]), [1, 2, 1])
        ga = lf.torus_class_geodesic(TA, TA.point([0.1, 0.2]), [1, 2])
        gb = lf.torus_class_geodesic(TB, TB.point([0.3]), [1])
        assert lf.minimizing_index(gp) == max(lf.minimizing_index(ga), lf.minimizing_index(gb))


class TestOpenly:
    def test_12_class_not_openly_at_four(self):
        g = lf.torus_class_geodesic(TREC, TREC.point([0, 0]), [1, 2])
        assert not lf.is_openly_k_geodesic(g, 4)

    def test_12_class_openly_at_five(self):
        g = lf.torus_class_geodesic(TREC, TREC.point([0, 0]), [1, 2])
        assert lf.is_openly_k_geodesic(g, 5)

    def test_over_under_not_openly_at_two(self):
        assert not lf.is_openly_k_geodesic(over_under_loop(), 2)

    def test_requires_one_k_geodesic(self):
        g = lf.torus_class_geodesic(TREC, TREC.point([0, 0]), [1, 2])
        with pytest.raises(lf.ValidationError):
            lf.is_openly_k_geodesic(g, 2)

    def test_monotone_toward_false_in_tol(self):
        # vertical displacement 0.4 on a unit torus: a near-tie that a loose
        # tolerance reads as a tie
        g = lf.torus_class_geodesic(T11, T11.point([0, 0]), [1, 2])
        assert lf.is_openly_k_geodesic(g, 5, tol=1e-9)
        assert not lf.is_openly_k_geodesic(g, 5, tol=0.3)


class TestMaxCutPair:
    def test_homogeneous_ties_pick_smallest_t(self):
        g = lf.torus_class_geodesic(TREC, TREC.point([0.4, 0.7]), [1, 2])
        cut = lf.max_cut_pair(g, 4)
        assert cut is not None
        assert cut.t == 0.0
        assert cut.distance == pytest.approx(g.length / 4, abs=1e-9)

    def test_none_without_cut_pairs(self):
        g = lf.torus_class_geodesic(TREC, TREC.point([0, 0]), [1, 0])
        assert lf.max_cut_pair(g, 3) is None

    def test_over_under_special_pair_at_base(self):
        g = over_under_loop()
        cut = lf.max_cut_pair(g, 2)
        assert cut is not None and cut.t == 0.0
        assert cut.distance == pytest.approx(1.0, abs=1e-12)
        p = lf.point_at(g, cut.t)
        q = lf.point_at(g, cut.t + math.pi)
        assert len(D21.minimizing_geodesics(p, q)) == 3


class TestVariationProfile:
    def test_translation_keeps_index_constant(self):
        g = lf.torus_class_geodesic(TREC, TREC.point([0.2, 0.4]), [1, 2])
        var = lf.VariationSpec(geodesic=g, field=np.array([0.4, 0.1]), s_max=0.2, steps=7)
        prof = lf.variation_minind_profile(var)
        assert {r.minind for r in prof.rows} == {4}

    def test_openly_five_preserved_under_translation(self):
        g = lf.torus_class_geodesic(TREC, TREC.point([0.2, 0.4]), [1, 2])
        var = lf.VariationSpec(geodesic=g, field=np.array([0.3, 0.2]), s_max=0.25, steps=9)
        prof = lf.variation_minind_profile(var, k_hint=5)
        assert prof.openly_preserved is True
        assert all(r.openly for r in prof.rows)

    def test_doubled_rectangle_slide_transition(self):
        var = lf.VariationSpec(
            geodesic=over_under_loop(),
            field=np.array([-1.0, 0.0]),
            s_max=0.1,
            steps=11,
            perpendicular=True,
        )
        prof = lf.variation_minind_profile(var)
        assert prof.k0 == 2
        assert prof.dplus == pytest.approx(-2.0, abs=1e-12)
        assert prof.forward_index_jump is True
        for r in prof.rows:
            assert r.minind == (3 if r.s > 0 else 2)

    def test_bottom_face_loop_moves_along_its_chart_field(self):
        # the start row moves by the field taken as a cover vector, which
        # flips its y component on the bottom face
        base = D21.point([0.5, 0.3], "bottom")
        g = lf.segment_loop_geodesic(D21, base, [1.0, 0.0], 4.0)
        var = lf.VariationSpec(geodesic=g, field=np.array([0.0, 1.0]), s_max=0.1, steps=3,
                               perpendicular=True)
        moved = lf.variation_geodesic(var, 0.1).base
        expected = D21.exp_map(D21.tangent(base, [0.0, 1.0]), 0.1)
        assert np.array_equal(moved.coords, expected.coords) and moved.face == expected.face
        # a horizontal loop at height y needs a larger index nearer the edge
        assert [r.minind for r in lf.variation_minind_profile(var).rows] == [10, 7, 5]

    def test_variation_through_cone_point_fails(self):
        var = lf.VariationSpec(
            geodesic=over_under_loop(), field=np.array([-1.0, 0.0]), s_max=0.5, steps=5
        )
        with pytest.raises(lf.GeometryError):
            lf.variation_minind_profile(var)

    def test_perpendicularity_enforced(self):
        var = lf.VariationSpec(
            geodesic=over_under_loop(),
            field=np.array([0.0, 1.0]),
            s_max=0.05,
            steps=3,
            perpendicular=True,
        )
        with pytest.raises(lf.ValidationError):
            lf.variation_minind_profile(var)


def dr_loop(x, y, klass, face="top"):
    """Straight loop of the doubled 2x1 rectangle in cover class ``klass``."""
    disp = np.array(klass) * D21.cover_periods
    length = float(np.linalg.norm(disp))
    return lf.segment_loop_geodesic(D21, D21.point([x, y], face), disp / length, length)


class TestExactIndex:
    """Regressions of the sampled index it replaced: loops near an edge
    needed more points than its search bound, and narrow windows fell
    between its samples."""

    def test_horizontal_loop_near_the_edge_needs_twenty(self):
        g = dr_loop(0.5, 0.1, [1, 0])
        assert lf.minimizing_index(g) == 20
        assert lf.is_k_geodesic(g, 20) and not lf.is_k_geodesic(g, 19)

    def test_sampled_grid_miss_loop_has_index_four(self):
        # reflection lifts shorter than L/3 exist only in a narrow window
        # that 64 samples per arc missed
        g = dr_loop(0.33331045434698636, 0.5793240165218595, [0, 1])
        assert lf.minimizing_index(g) == 4
        assert not lf.is_k_geodesic(g, 3)

    def test_no_seeded_doubled_rectangle_loop_raises(self):
        rng = np.random.default_rng(270)
        classes = [(1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 3)]
        for klass in classes:
            for _ in range(30):
                face = ("top", "bottom")[rng.integers(2)]
                g = dr_loop(rng.uniform(0, 2), rng.uniform(0, 1), klass, face)
                k = lf.minimizing_index(g)
                assert lf.is_k_geodesic(g, k) and (k == 2 or not lf.is_k_geodesic(g, k - 1))

    def test_huge_class_index_is_constant_time(self):
        g = lf.torus_class_geodesic(TREC, TREC.point([0.1, 0.2]), [10**6, 1])
        assert lf.minimizing_index(g) == 2 * 10**6

    def test_reflection_cut_pair_off_the_base(self):
        # at the critical offset 1/3 the loop is 1/3, and a reflection lift
        # ties with the arc at one parameter only
        g = dr_loop(1.0 / 3.0, 0.25, [0, 1])
        cut = lf.max_cut_pair(g, 3)
        assert cut is not None and 0.0 < cut.t < 2 * math.pi
        assert cut.distance == pytest.approx(g.length / 3, abs=1e-12)
        p, q = lf.point_at(g, cut.t), lf.point_at(g, cut.t + 2 * math.pi / 3)
        assert len(D21.minimizing_geodesics(p, q)) == 2
        # away from it, pairs have one minimizer
        q = lf.point_at(g, cut.t + 0.1 + 2 * math.pi / 3)
        assert len(D21.minimizing_geodesics(lf.point_at(g, cut.t + 0.1), q)) == 1

    def test_product_factor_moving_within_rounding_constrains_nothing(self):
        product = lf.Product([lf.FlatTorus([1.25]), D21])
        disp = np.array([1.25, 1e-13, 0.0])
        base = product.point([0.1, 0.5, 0.5], (None, "top"))
        g = lf.segment_loop_geodesic(product, base, disp / 1.25, 1.25)
        assert lf.minimizing_index(g) == 2

    def test_cut_pair_needs_a_one_k_geodesic(self):
        g = lf.torus_class_geodesic(TREC, TREC.point([0, 0]), [1, 2])
        with pytest.raises(lf.ValidationError):
            lf.max_cut_pair(g, 3)

    def test_probe_hint_below_the_index_rejected(self):
        g = lf.torus_class_geodesic(TREC, TREC.point([0.2, 0.4]), [1, 2])
        var = lf.VariationSpec(geodesic=g, field=np.array([0.4, 0.1]), s_max=0.2, steps=3)
        with pytest.raises(lf.ValidationError):
            lf.variation_minind_profile(var, k_hint=3)


T3 = lf.FlatTorus([1.0, 0.8125, 1.375])
PT = lf.Product([lf.FlatTorus([1.0, 0.75]), lf.FlatTorus([1.25])])
MIXED = lf.Product([lf.FlatTorus([1.25]), D21])
TORI = {"T2": TREC, "T3": T3, "PT": PT}


@st.composite
def straight_loops(draw):
    name = draw(st.sampled_from(["T2", "T3", "PT", "DR", "mixed"]))
    unit = st.floats(0.0, 1.0, exclude_max=True)
    if name in TORI:
        space = TORI[name]
        klass = draw(st.lists(st.integers(-3, 3), min_size=space.dim, max_size=space.dim))
        assume(any(klass))
        periods = lf.effective_periods(space)
        return lf.torus_class_geodesic(space, space.point([draw(unit) * a for a in periods]), klass)
    klass = draw(st.lists(st.integers(-2, 2), min_size=2, max_size=2))
    assume(any(klass))
    xy = [2.0 * draw(unit), draw(unit)]
    face = draw(st.sampled_from(["top", "bottom"]))
    disp = np.array(klass) * D21.cover_periods
    if name == "DR":
        space, base = D21, D21.point(xy, face)
    else:
        disp = np.concatenate([[1.25 * draw(st.integers(-2, 2))], disp])
        space, base = MIXED, MIXED.point([1.25 * draw(unit)] + xy, (None, face))
    length = float(np.linalg.norm(disp))
    try:
        return lf.segment_loop_geodesic(space, base, disp / length, length)
    except lf.GeometryError:  # through a cone point
        assume(False)


class TestAgainstDenseReference:
    @given(straight_loops(), st.integers(2, 40))
    @settings(max_examples=80, deadline=None)
    def test_predicates_match_dense_sampling(self, g, k):
        index = lf.minimizing_index(g)
        for kk in {k, index, index - 1} if index <= 40 else {k}:
            if kk < 2:
                continue
            margin, cut, gap = dense_loop_arcs(g, kk)
            assume(margin > -1e-12 or margin < -1e-6)  # no float edge
            assert lf.is_k_geodesic(g, kk) == (margin >= -1e-9)
            if margin < -1e-6:
                with pytest.raises(lf.ValidationError):
                    lf.max_cut_pair(g, kk)
                continue
            assume(gap < 1e-12 or gap > 1e-6)
            assert lf.is_openly_k_geodesic(g, kk) == (cut is None)
            found = lf.max_cut_pair(g, kk)
            assert (found is None) == (cut is None)
            if cut == 0.0:
                assert found.t == 0.0
        if index <= 40:
            assert dense_loop_arcs(g, index)[0] >= -1e-9
            if index > 2:
                assert dense_loop_arcs(g, index - 1)[0] < -1e-9




class TestCutDistance:
    @given(straight_loops(), st.integers(0, 2))
    @settings(max_examples=150, deadline=None)
    def test_is_the_space_distance_of_the_pair(self, g, above):
        k = lf.minimizing_index(g) + above
        cut = lf.max_cut_pair(g, k)
        assume(cut is not None)
        p, q = lf.point_at(g, cut.t), lf.point_at(g, cut.t + 2.0 * math.pi / k)
        assert cut.distance == g.space.distance(p, q)


@st.composite
def nearly_closed_loops(draw):
    """(space, base, direction, length) of a segment loop whose cover
    displacement is a lattice vector plus noise of norm 0 to 1e-6, on the
    doubled rectangle (both faces), T2 and the mixed product."""
    name = draw(st.sampled_from(["DR", "T2", "mixed"]))
    unit = st.floats(0.0, 1.0, exclude_max=True)
    noise = np.array(draw(st.lists(st.integers(-1000, 1000), min_size=3, max_size=3)), dtype=float)
    scale = draw(st.sampled_from([0.0, 1e-12, 1e-10, 2e-9, 1e-8, 1e-6]))
    klass = draw(st.lists(st.integers(-2, 2), min_size=3, max_size=3))
    assume(any(klass[1:]))
    if name == "T2":
        space, base = TREC, TREC.point([draw(unit), 0.75 * draw(unit)])
        disp, chart = np.array(klass[1:]) * TREC.periods, np.ones(2)
    else:
        face = draw(st.sampled_from(["top", "bottom"]))
        xy = [2.0 * draw(unit), draw(unit)]
        disp = np.array(klass[1:]) * D21.cover_periods
        chart = np.array([1.0, -1.0 if face == "bottom" else 1.0])
        space, base = D21, D21.point(xy, face)
        if name == "mixed":
            disp, chart = np.concatenate([[1.25 * klass[0]], disp]), np.concatenate([[1.0], chart])
            space, base = MIXED, MIXED.point([1.25 * draw(unit)] + xy, (None, face))
    noise = noise[:space.dim]
    if np.any(noise):
        noise = scale * noise / np.linalg.norm(noise)
    # no verdict sits within rounding of the closure tolerance
    assume(abs(float(np.linalg.norm(noise)) - 1e-9) > 1e-12)
    disp = chart * (disp + noise)  # the chart direction at the base
    length = float(np.linalg.norm(disp))
    return space, base, disp / length, length


def _kind(check, *args):
    """None when ``check`` returns, else the type of error it raised."""
    try:
        check(*args)
    except lf.GeometryError as exc:
        return type(exc)
    return None


class TestAgainstTheScalarFlow:
    """The cover representation against the scalar flow it replaced."""

    @given(straight_loops(), st.floats(0.0, 2.0 * math.pi))
    @settings(max_examples=150, deadline=None)
    def test_points_and_velocities_match_the_scalar_flow(self, g, t):
        expected, vel = scalar_loop_point(g, t)
        p = lf.point_at(g, t)
        assert g.space.distance(p, expected) <= 1e-12
        if p.face == expected.face:  # not an edge point rounded onto the other face
            assert np.abs(lf.velocity_at(g, t) - vel).max() <= 1e-12

    @given(nearly_closed_loops())
    @settings(max_examples=300, deadline=None)
    def test_closure_verdict_matches_the_scalar_flow(self, case):
        verdict, scalar = _kind(lf.segment_loop_geodesic, *case), _kind(scalar_loop_closure, *case)
        assert verdict is scalar

    def test_lines_keep_one_cone_margin(self):
        # the line from (0, 0) along (1, 5e-10) passes the cone (2, 0) at 1e-9
        base = D21.point([0.0, 0.0], "top")
        for slope, kind in ((5e-10, lf.DegenerateTrajectoryError), (2.0 * CONE_CLEARANCE, None)):
            assert _kind(D21.exp_map, D21.tangent(base, [1.0, slope]), 4.0) is kind
        with pytest.raises(lf.DegenerateTrajectoryError):
            lf.segment_loop_geodesic(D21, base, [1.0, 5e-10], 4.0)


def _outcome(check, *args):
    """None when ``check`` returns, else the type and message it raised."""
    try:
        check(*args)
    except (lf.GeometryError, lf.ValidationError) as exc:
        return type(exc), str(exc)
    return None


@st.composite
def variations(draw):
    """A variation and one s: loops and fields on every backend, vertical
    doubled-rectangle loops pushed across x = 0 or x = a (with and without a
    vertical field component), and horizontal ones pushed through a cone."""
    family = draw(st.sampled_from(["any", "slide", "cone"]))
    if family == "any":
        g = draw(straight_loops())
        field = draw(st.lists(st.floats(-1.0, 1.0), min_size=g.space.dim, max_size=g.space.dim))
    elif family == "slide":
        base = D21.point([draw(st.floats(0.01, 1.99)), draw(st.floats(0.0, 0.99))], "top")
        g = lf.segment_loop_geodesic(D21, base, [0.0, 1.0], 2.0)
        field = [draw(st.sampled_from([-1.0, 1.0])), draw(st.sampled_from([0.0, 0.3, -1e-3]))]
    else:
        # the sample at t = 3/4 pi sits on the edge x = a; pushed down by
        # more than y0 it runs through the cone (a, 0)
        g = lf.segment_loop_geodesic(D21, D21.point([0.5, draw(st.floats(0.05, 0.95))], "top"),
                                     [1.0, 0.0], 4.0)
        field = [0.0, -1.0]
    s = draw(st.floats(-1.0, 1.0))
    var = lf.VariationSpec(geodesic=g, field=np.array(field), s_max=max(abs(s), 1e-3), steps=3,
                           perpendicular=draw(st.booleans()))
    return var, s


class TestVariationCheck:
    @given(variations())
    @settings(max_examples=200, deadline=None)
    def test_array_pass_agrees_with_the_point_by_point_check(self, case):
        var, s = case
        try:
            shifted = lf.variation_geodesic(var, s)
        except lf.GeometryError:  # the shifted base runs through a cone point
            assume(False)
        cover = geodesics._check_cover(var, 1e-9)
        assert (_outcome(geodesics._check_variation, var, s, shifted, 1e-9, cover)
                == _outcome(scalar_check_variation, var, s, shifted))

    @pytest.mark.parametrize("loop", ["T2", "T3", "PT", "DR"])
    def test_array_pass_takes_no_scalar_flow(self, loop, monkeypatch):
        if loop == "DR":
            var = lf.VariationSpec(geodesic=over_under_loop(), field=np.array([-1.0, 0.0]),
                                   s_max=0.1, steps=3, perpendicular=True)
        else:
            space = TORI[loop]
            g = lf.torus_class_geodesic(space, space.point([0.1] * space.dim), [1] + [2] * (space.dim - 1))
            var = lf.VariationSpec(geodesic=g, field=np.linspace(0.3, -0.4, space.dim), s_max=0.1, steps=3)
        shifted = lf.variation_geodesic(var, 0.07)
        cover = geodesics._check_cover(var, 1e-9)

        def scalar(*args):
            raise AssertionError("the point by point check ran")

        monkeypatch.setattr(geodesics, "point_at", scalar)
        geodesics._check_variation(var, 0.07, shifted, 1e-9, cover)

    def test_probe_flows_do_not_grow_with_steps(self, monkeypatch):
        doc = json.loads((GOLDEN / "probe_dr.json").read_text(encoding="utf-8"))
        flow, calls = lf.DoubledRectangle.flow, []

        def counted(self, *args, **kwargs):
            calls.append(1)
            return flow(self, *args, **kwargs)

        monkeypatch.setattr(lf.DoubledRectangle, "flow", counted)
        counts = []
        for steps in (4, 64):  # 5 or 65 would put an s on the cone crossing at s = -0.05
            doc["inputs"]["variation"]["steps"] = steps
            calls.clear()
            assert len(execute_scenario(doc)["outputs"]["profile"]) == steps
            counts.append(len(calls))
        assert counts[0] == counts[1]

    def test_per_factor_faces_take_the_array_check(self, monkeypatch):
        base = MIXED.point([0.3, 0.5, 0.25], (None, "top"))
        g = lf.segment_loop_geodesic(MIXED, base, [0.0, 0.0, 1.0], 2.0)
        var = lf.VariationSpec(geodesic=g, field=np.array([0.5, -1.0, 0.0]), s_max=0.1, steps=5,
                               perpendicular=True)
        assert geodesics._check_cover(var, 1e-9) is not None

        def scalar(*args):
            raise AssertionError("the point by point check ran")

        monkeypatch.setattr(geodesics, "point_at", scalar)
        # the doubled-rectangle factor slides as in test_doubled_rectangle_slide_transition
        assert [r.minind for r in lf.variation_minind_profile(var).rows] == [2, 2, 2, 3, 3]


@st.composite
def torus_variations(draw):
    space = TORI[draw(st.sampled_from(sorted(TORI)))]
    klass = draw(st.lists(st.integers(-3, 3), min_size=space.dim, max_size=space.dim))
    assume(any(klass))
    unit = st.floats(0.0, 1.0, exclude_max=True)
    base = space.point([draw(unit) * a for a in lf.effective_periods(space)])
    g = lf.torus_class_geodesic(space, base, klass)
    field = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=space.dim, max_size=space.dim)))
    var = lf.VariationSpec(geodesic=g, field=field, s_max=draw(st.floats(0.01, 2.0)),
                           steps=draw(st.integers(3, 9)))
    return var, draw(st.sampled_from([None, 0, 1]))


class TestTorusProfile:
    @given(torus_variations())
    @settings(max_examples=60, deadline=None)
    def test_rows_equal_a_per_s_index_and_openness(self, case):
        var, above = case
        k_hint = None if above is None else lf.minimizing_index(var.geodesic) + above
        prof = lf.variation_minind_profile(var, k_hint)
        k0 = prof.k0
        for row in prof.rows:
            shifted = lf.variation_geodesic(var, row.s)
            mind = lf.minimizing_index(shifted)
            openly = mind <= k0 and lf.is_k_geodesic(shifted, k0) and lf.is_openly_k_geodesic(shifted, k0)
            assert (row.minind, row.openly) == (mind, openly)


class TestSerialization:
    def test_torus_class_roundtrip(self):
        from loopflow.geodesics import geodesic_from_dict, geodesic_to_dict

        g = lf.torus_class_geodesic(TREC, TREC.point([0.2, 0.1]), [1, 2])
        data = geodesic_to_dict(g)
        again = geodesic_from_dict(data)
        assert again.kind == "torus_class"
        assert np.array_equal(again.klass, g.klass)
        assert again.length == g.length

    def test_segment_loop_roundtrip(self):
        from loopflow.geodesics import geodesic_from_dict, geodesic_to_dict

        g = over_under_loop()
        again = geodesic_from_dict(geodesic_to_dict(g))
        assert again.kind == "segment_loop"
        assert again.length == g.length
        assert np.allclose(again.direction, g.direction, atol=1e-15)

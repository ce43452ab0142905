"""Loop energy, one-sided derivatives, candidate gradients, Hessian."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import loopflow as lf
from conftest import (
    brute_extremes,
    circulant_hessian_eigenvalues,
    eigh_hessian,
    finite_difference_hessian,
    straight_chain_deviation,
)
from loopflow.geodesics import geodesic_to_dict

T11 = lf.FlatTorus([1.0, 1.0])
# binary-fraction periods keep the half-period ties exact in floats
TREC = lf.FlatTorus([1.0, 0.75])
T3 = lf.FlatTorus([1.0, 0.8125, 1.375])
PT = lf.Product([lf.FlatTorus([1.0, 0.75]), lf.FlatTorus([1.25])])
D21 = lf.DoubledRectangle(2.0, 1.0)
MIXED = lf.Product([lf.FlatTorus([1.25]), D21])


def evenly_spaced(space, klass, k, base):
    g = lf.torus_class_geodesic(space, space.point(base), klass)
    return lf.Configuration(space, tuple(lf.point_at(g, 2 * math.pi * i / k) for i in range(k)))


def example_square_config():
    """Four points on the (1,2)-class loop of a rectangular torus: every
    consecutive pair is a vertical half-period tie."""
    return evenly_spaced(TREC, [1, 2], 4, [0.125, 0.0625])


def fd_quotient(x, v, h):
    return (lf.uniform_energy(lf.exp_config(x, v, h)) - lf.uniform_energy(x)) / h


def richardson_quotient(x, v, h):
    return 2.0 * fd_quotient(x, v, h / 2.0) - fd_quotient(x, v, h)


class TestUniformEnergy:
    def test_zero_at_constant(self):
        p = T11.point([0.3, 0.3])
        x = lf.Configuration(T11, (p, p, p))
        assert lf.uniform_energy(x) == 0.0

    def test_evenly_spaced_equals_length_squared(self):
        for k in (3, 4, 7):
            x = evenly_spaced(TREC, [1, 0], k, [0.2, 0.3])
            assert lf.uniform_energy(x) == pytest.approx(1.0, abs=1e-12)

    def test_two_point_example(self):
        x = lf.configuration(T11, [[0, 0], [0.5, 0]])
        assert lf.uniform_energy(x) == pytest.approx(1.0, abs=1e-15)

    def test_cyclic_invariance(self):
        x = lf.configuration(T11, [[0.1, 0.2], [0.4, 0.1], [0.7, 0.6]])
        rotated = lf.Configuration(T11, x.points[1:] + x.points[:1])
        assert lf.uniform_energy(x) == pytest.approx(lf.uniform_energy(rotated), abs=1e-15)


class TestLoopEnergy:
    def test_equality_case(self):
        x = evenly_spaced(TREC, [1, 0], 5, [0.0, 0.4])
        e = lf.loop_energy(x)
        assert e.energy == pytest.approx(e.length**2, abs=1e-12)

    def test_three_point_derived_values(self):
        x = lf.configuration(T11, [[0, 0], [0.5, 0], [0.5, 0.4]])
        e = lf.loop_energy(x)
        d3 = math.sqrt(0.25 + 0.16)
        assert e.length == pytest.approx(0.5 + 0.4 + d3, abs=1e-12)
        assert e.energy == pytest.approx(3 * (0.25 + 0.16 + 0.41), abs=1e-12)

    def test_degenerate_two_points(self):
        p = T11.point([0.2, 0.9])
        e = lf.loop_energy(lf.Configuration(T11, (p, p)))
        assert e == (0.0, 0.0)

    @given(data=st.lists(st.floats(0, 1, allow_nan=False), min_size=6, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_energy_dominates_length_squared(self, data):
        coords = [data[0:2], data[2:4], data[4:6]]
        x = lf.configuration(T11, coords)
        e = lf.loop_energy(x)
        assert e.energy >= e.length**2 - 1e-12


class TestDplusDistance:
    def test_zero_direction(self):
        p, q = T11.point([0, 0]), T11.point([0.2, 0.1])
        z = np.zeros(2)
        assert lf.dplus_distance(T11, p, q, z, z) == 0.0

    def test_first_variation_along_unique_minimizer(self):
        p, q = T11.point([0, 0]), T11.point([0.2, 0.1])
        seg = T11.minimizing_geodesics(p, q)[0]
        assert lf.dplus_distance(T11, p, q, seg.v0, np.zeros(2)) == pytest.approx(-1.0, abs=1e-12)

    def test_doubled_rectangle_cut_pair_value(self):
        p = D21.point([0.5, 0.5], "top")
        q = D21.point([0.5, 0.5], "bottom")
        segs = D21.minimizing_geodesics(p, q)
        assert len(segs) == 3
        eta = next(s for s in segs if s.lift[0] == 1)
        val = lf.dplus_distance(D21, p, q, eta.v0, -eta.v1)
        assert val == pytest.approx(-2.0, abs=1e-12)

    @given(scale=st.floats(0.1, 5.0, allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_positive_homogeneity(self, scale):
        p, q = T11.point([0, 0]), T11.point([0.5, 0.3])
        v, w = np.array([0.3, -0.2]), np.array([0.1, 0.4])
        a = lf.dplus_distance(T11, p, q, scale * v, scale * w)
        b = scale * lf.dplus_distance(T11, p, q, v, w)
        assert a == pytest.approx(b, rel=1e-12)


class TestDplusUniformEnergy:
    def test_zero_direction(self):
        x = example_square_config()
        v = lf.ConfigTangent.of(x, [np.zeros(2)] * 4)
        assert lf.dplus_uniform_energy(x, v) == 0.0

    def test_matches_candidate_minimum(self, rng):
        # the separable evaluation must agree with the enumeration route
        for _ in range(20):
            x = lf.configuration(T11, rng.uniform(0, 1, size=(4, 2)))
            v = lf.ConfigTangent.of(x, rng.standard_normal((4, 2)))
            direct = lf.dplus_uniform_energy(x, v)
            via_candidates = 2 * x.k * min(
                float(v.stacked() @ c.stacked()) for c in lf.candidate_gradients(x)
            )
            assert direct == pytest.approx(via_candidates, abs=1e-10)

    def test_linear_at_smooth_points_and_fd(self, rng):
        for _ in range(10):
            x = lf.configuration(T11, [[0.1, 0.1], [0.45, 0.2], [0.5, 0.65], [0.05, 0.58]])
            v = lf.ConfigTangent.of(x, rng.standard_normal((4, 2)))
            plus = lf.dplus_uniform_energy(x, v)
            minus = lf.dplus_uniform_energy(x, lf.ConfigTangent.of(x, [-u for u in v.vecs]))
            assert plus == pytest.approx(-minus, abs=1e-10)
            assert plus == pytest.approx(richardson_quotient(x, v, 1e-6), abs=1e-8, rel=1e-6)

    def test_concavity_at_cut_configuration(self, rng):
        x = example_square_config()
        for _ in range(10):
            v = lf.ConfigTangent.of(x, rng.standard_normal((4, 2)))
            neg = lf.ConfigTangent.of(x, [-u for u in v.vecs])
            assert lf.dplus_uniform_energy(x, v) + lf.dplus_uniform_energy(x, neg) <= 1e-10

    def test_descent_direction_bound(self):
        x = example_square_config()
        g = lf.gradient_like(x)
        v = lf.ConfigTangent.of(x, [-u for u in g.vecs])
        val = lf.dplus_uniform_energy(x, v)
        assert val <= -2 * x.k * g.magnitude**2 + 1e-10
        assert val < 0

    def test_normalized_flag(self):
        x = example_square_config()
        v = lf.ConfigTangent.of(x, [np.array([0.1, 0.2])] * 4)
        assert lf.dplus_uniform_energy(x, v, normalized=True) == pytest.approx(
            lf.dplus_uniform_energy(x, v) / (2 * x.k), abs=1e-12
        )

    def test_coincident_points_rejected(self):
        p = T11.point([0.1, 0.1])
        x = lf.Configuration(T11, (p, p, T11.point([0.5, 0.5])))
        v = lf.ConfigTangent.of(x, [np.zeros(2)] * 3)
        with pytest.raises(lf.CoincidentPointsError):
            lf.dplus_uniform_energy(x, v)


EXPECTED_PATTERNS = []
_j = np.array([0.0, 1.0])
_z = np.zeros(2)
for sign in (1, -1):
    for pat in (
        (_j, -_j, _z, _z),
        (_z, _j, -_j, _z),
        (_z, _z, _j, -_j),
        (-_j, _z, _z, _j),
        (_j, -_j, _j, -_j),
        (_j, _z, -_j, _z),
        (_z, _j, _z, -_j),
    ):
        EXPECTED_PATTERNS.append(np.concatenate([sign * v for v in pat]))
EXPECTED_PATTERNS.append(np.zeros(8))


class TestCandidateGradients:
    def test_singleton_at_generic_configuration(self):
        x = lf.configuration(T11, [[0.1, 0.1], [0.45, 0.2], [0.5, 0.65], [0.05, 0.58]])
        cands = lf.candidate_gradients(x)
        assert len(cands) == 1

    def test_square_example_full_set(self):
        x = example_square_config()
        cands = lf.candidate_gradients(x)
        assert len(cands) == 15
        scale = 0.75  # one common positive factor relates them to unit patterns
        got = [c.stacked() / scale for c in cands]
        matched = set()
        for vec in got:
            hits = [
                i
                for i, pat in enumerate(EXPECTED_PATTERNS)
                if np.allclose(vec, pat, atol=1e-9)
            ]
            assert len(hits) == 1
            matched.add(hits[0])
        assert matched == set(range(15))

    def test_zero_candidate_at_even_spacing(self):
        # k equal to twice the largest class entry puts every pair at a tie
        for klass, k in (([1, 0], 2), ([1, 2], 4), ([2, 1], 4)):
            x = evenly_spaced(TREC, klass, k, [0.3, 0.12])
            mags = [c.magnitude for c in lf.candidate_gradients(x)]
            assert min(mags) <= 1e-12

    def test_translation_equivariance(self):
        x = example_square_config()
        shift = np.array([0.3, 0.22])
        moved = lf.Configuration(TREC, tuple(TREC.point(p.coords + shift) for p in x.points))
        a = sorted(tuple(np.round(c.stacked(), 10)) for c in lf.candidate_gradients(x))
        b = sorted(tuple(np.round(c.stacked(), 10)) for c in lf.candidate_gradients(moved))
        assert np.allclose(np.array(a), np.array(b), atol=1e-9)

    def test_component_identity(self):
        x = example_square_config()
        seglists = lf.segment_geodesics(x)
        for c in lf.candidate_gradients(x):
            for i in range(x.k):
                prev = next(s for s in seglists[(i - 1) % x.k] if s.lift == c.choice[(i - 1) % x.k])
                cur = next(s for s in seglists[i] if s.lift == c.choice[i])
                expect = prev.length * prev.v1 - cur.length * cur.v0
                assert np.allclose(c.vecs[i], expect, atol=1e-12)

    def test_enumeration_cap(self):
        x = example_square_config()  # 16 raw tuples
        with pytest.raises(lf.ResourceLimitError):
            lf.candidate_gradients(x, max_tuples=8)


class TestGradientLike:
    def test_square_example_maximal_pair(self):
        x = example_square_config()
        g = lf.gradient_like(x)
        assert g.magnitude == pytest.approx(1.5, abs=1e-12)
        pattern = np.concatenate([_j, -_j, _j, -_j]) * 0.75
        assert np.allclose(g.stacked(), -pattern, atol=1e-9)  # lex-smaller sign
        both = lf.gradient_like_all(x)
        assert len(both) == 2
        stacked = sorted(tuple(np.round(c.stacked(), 9)) for c in both)
        assert np.allclose(stacked[0], -pattern, atol=1e-9)
        assert np.allclose(stacked[1], pattern, atol=1e-9)

    def test_zero_at_smooth_critical_point(self):
        x = evenly_spaced(T11, [1, 0], 3, [0.2, 0.5])
        g = lf.gradient_like(x)
        assert g.magnitude <= 1e-12

    def test_unique_candidate_at_generic_point(self):
        x = lf.configuration(T11, [[0.1, 0.1], [0.45, 0.2], [0.5, 0.65], [0.05, 0.58]])
        g = lf.gradient_like(x)
        assert len(lf.candidate_gradients(x)) == 1
        assert g.magnitude > 0.1

    def test_rounding_does_not_break_ties(self):
        # an antipodal pair: its top candidates tie up to rounding, and which
        # float magnitude is larger moves with each ulp of q
        p = TREC.point([0.14415961271963373, 0.7114870853529329])
        q = np.array([0.6441596127196337, 0.3364870853529329])
        choices = set()
        for shift in range(-3, 4):
            x = lf.Configuration(TREC, (p, TREC.point(q + [shift * np.spacing(q[0]), 0.0])))
            g = lf.gradient_like(x)
            assert g.choice == lf.gradient_like_all(x)[0].choice
            choices.add(g.choice)
        assert len(choices) == 1

    def test_maximality_invariant(self, rng):
        for _ in range(10):
            x = lf.configuration(TREC, rng.uniform(0, 0.7, size=(4, 2)))
            cands = lf.candidate_gradients(x)
            g = lf.gradient_like(x)
            assert all(g.magnitude >= c.magnitude for c in cands)


# the exhaustive oracle deduplicates in time quadratic in the tuple count
BRUTE_TUPLES = 1024


def _cut_tuple_count(klass):
    top = max(abs(e) for e in klass)
    return (2 ** sum(abs(e) == top for e in klass)) ** (2 * top)


# evenly spaced k = 2 max|entry| samples: every coordinate holding the largest
# entry is a half-period tie on every segment
CUT_CASES = [
    (space, klass)
    for space in (TREC, T3, PT)
    for klass in itertools.product(range(-4, 5), repeat=space.dim)
    if any(klass) and _cut_tuple_count(klass) <= BRUTE_TUPLES
]


@st.composite
def cut_configurations(draw):
    space, klass = draw(st.sampled_from(CUT_CASES))
    base = [draw(st.floats(0.0, 1.0)) * p for p in lf.effective_periods(space)]
    return evenly_spaced(space, list(klass), 2 * max(abs(e) for e in klass), base)


@st.composite
def grid_configurations(draw):
    """Points on an eighth-period grid, so that half-period ties are common,
    mixed with off-grid points."""
    space = draw(st.sampled_from([TREC, T3, PT, D21]))
    k = draw(st.integers(2, 5))
    fraction = st.one_of(st.integers(0, 7).map(lambda j: j / 8), st.floats(0.0, 1.0))
    pts = []
    for _ in range(k):
        if space is D21:
            coords = [2.0 * draw(fraction), draw(fraction)]
            pts.append(D21.point(coords, draw(st.sampled_from(["top", "bottom"]))))
        else:
            pts.append(space.point([draw(fraction) * p for p in lf.effective_periods(space)]))
    return lf.Configuration(space, tuple(pts))


def assert_same_candidate(a, b):
    assert a.choice == b.choice
    assert a.magnitude == b.magnitude
    assert [v.tobytes() for v in a.vecs] == [v.tobytes() for v in b.vecs]


class TestTransferMatrixAgainstBrute:
    """``gradient_like`` and friends select from the extreme band of the
    max-plus / min-plus pass; they must equal the exhaustive listing."""

    def check(self, x, tol, magnitude_tol):
        best, ties, has_zero, slow_geod = brute_extremes(x, tol, magnitude_tol)
        assert_same_candidate(lf.gradient_like(x, tol), best)
        fast = lf.gradient_like_all(x, tol, magnitude_tol)
        assert len(fast) == len(ties)
        for a, b in zip(fast, ties):
            assert_same_candidate(a, b)
        assert lf.has_associated_geodesic(x, tol) == has_zero
        fast_geod = lf.associated_geodesic(x, tol)
        assert (fast_geod is None) == (slow_geod is None)
        if fast_geod is not None:
            assert geodesic_to_dict(fast_geod) == geodesic_to_dict(slow_geod)

    @given(
        x=st.one_of(cut_configurations(), grid_configurations()),
        tol=st.sampled_from([1e-9, 1e-6]),
        magnitude_tol=st.sampled_from([1e-12, 0.1]),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_exhaustive_listing(self, x, tol, magnitude_tol):
        try:
            count = math.prod(len(segs) for segs in lf.segment_geodesics(x, tol))
        except lf.GeometryError as exc:
            with pytest.raises(type(exc)):
                lf.gradient_like(x, tol)
            return
        assume(count <= BRUTE_TUPLES)
        self.check(x, tol, magnitude_tol)

    def test_square_example(self):
        self.check(example_square_config(), 1e-9, 1e-12)

    def test_class_one_ten_without_listing(self):
        # k = 20 with two minimizers per segment: 2^20 tuples, above the cap
        x = evenly_spaced(TREC, [1, 10], 20, [0.125, 0.0625])
        with pytest.raises(lf.ResourceLimitError):
            lf.candidate_gradients(x)
        g = lf.gradient_like(x)
        assert g.magnitude == pytest.approx(3 * math.sqrt(5) / 2, abs=1e-12)
        vertical = np.array([v[1] for v in g.vecs])
        assert np.allclose(np.abs(vertical), 0.75, atol=1e-12)
        assert np.allclose(vertical[1:], -vertical[:-1], atol=1e-12)
        both = lf.gradient_like_all(x)
        assert len(both) == 2
        assert any(g.choice == c.choice for c in both)


class TestAssociatedGeodesic:
    def test_even_spacing_is_associated(self):
        x = evenly_spaced(TREC, [1, 0], 4, [0.0, 0.25])
        assert lf.has_associated_geodesic(x)
        g = lf.associated_geodesic(x)
        assert g is not None
        assert abs(g.klass[0]) == 1 and g.klass[1] == 0

    def test_perturbed_configuration_is_not(self, rng):
        x = evenly_spaced(TREC, [1, 0], 4, [0.0, 0.25])
        pts = list(x.points)
        pts[2] = TREC.point(pts[2].coords + np.array([0.0, 0.11]))
        y = lf.Configuration(TREC, tuple(pts))
        assert not lf.has_associated_geodesic(y)
        assert lf.associated_geodesic(y) is None

    def test_square_example_is_associated(self):
        x = example_square_config()
        assert lf.has_associated_geodesic(x)
        g = lf.associated_geodesic(x)
        assert g is not None and sorted(np.abs(g.klass)) == [1, 2]

    def test_agrees_with_independent_chain_check(self, rng):
        configs = []
        for klass, k in (([1, 0], 2), ([1, 1], 4), ([1, 2], 4)):
            configs.append((evenly_spaced(TREC, klass, k, [0.21, 0.37]), True))
        for _ in range(5):
            configs.append((lf.configuration(TREC, rng.uniform(0, 0.7, size=(4, 2))), None))
        for x, expected in configs:
            chain_dev = straight_chain_deviation(lf.segment_geodesics(x))
            verdict = lf.has_associated_geodesic(x, tol=1e-9)
            assert verdict == (chain_dev <= 1e-9)
            if expected is not None:
                assert verdict == expected


class TestHessian:
    def test_torus2_spectrum_index_nullity(self):
        x = evenly_spaced(TREC, [1, 0], 3, [0.3, 0.1])
        rep = lf.hessian_index_nullity(x)
        assert rep.index == 0
        assert rep.nullity == 2
        assert rep.degenerate is True
        assert np.allclose(rep.eigenvalues, circulant_hessian_eigenvalues(3, 2), rtol=0, atol=1e-9)

    def test_torus3_nullity_matches_dimension(self):
        T3 = lf.FlatTorus([1.0, 0.8125, 1.375])
        x = evenly_spaced(T3, [1, 0, 0], 3, [0.1, 0.2, 0.3])
        rep = lf.hessian_index_nullity(x)
        assert (rep.index, rep.nullity, rep.degenerate) == (0, 3, True)
        assert np.allclose(rep.eigenvalues, circulant_hessian_eigenvalues(3, 3), rtol=0, atol=1e-9)

    def test_circle_factor_not_degenerate(self):
        T1 = lf.FlatTorus([1.0])
        x = evenly_spaced(T1, [1], 3, [0.0])
        rep = lf.hessian_index_nullity(x)
        assert (rep.index, rep.nullity, rep.degenerate) == (0, 1, False)

    def test_noncritical_configuration_rejected(self):
        x = lf.configuration(TREC, [[0.1, 0.1], [0.45, 0.2], [0.5, 0.65], [0.05, 0.58]])
        with pytest.raises(lf.NotSmoothCriticalError):
            lf.hessian_index_nullity(x)

    def test_cut_configuration_rejected(self):
        with pytest.raises(lf.NotSmoothCriticalError):
            lf.hessian_index_nullity(example_square_config())

    def test_uncertified_pairs_raise_as_the_scalar_listing_does(self):
        # segment_batch reads a coincident pair as unique, with length 0
        x = lf.configuration(TREC, [[0.1, 0.2], [0.1, 0.2], [0.4, 0.3]])
        with pytest.raises(lf.CoincidentPointsError, match="points 0 and 1 coincide"):
            lf.hessian_index_nullity(x)
        with pytest.raises(lf.NotSmoothCriticalError, match="segment 0 has 2 minimizing"):
            lf.hessian_index_nullity(example_square_config())


def sampled_loop(g, k):
    return lf.Configuration(g.space, tuple(lf.point_at(g, 2 * math.pi * i / k) for i in range(k)))


def reflection_loop_config():
    """The (1, 1) loop of the doubled 2x1 rectangle at 10 points: it crosses
    the vertical edges, so two of its segments lie on the reflection sheet."""
    disp = np.array([1.0, 1.0]) * D21.cover_periods
    length = float(np.linalg.norm(disp))
    g = lf.segment_loop_geodesic(D21, D21.point([0.3, 0.45], "top"), disp / length, length)
    return sampled_loop(g, 10)


@st.composite
def smooth_straight_configs(draw):
    """A straight closed loop sampled at one or two points more than its
    minimizing index, so every segment has one minimizer."""
    name = draw(st.sampled_from(["T2", "T3", "PT", "DR", "mixed"]))
    unit = st.floats(0.0, 1.0, exclude_max=True)
    if name in ("T2", "T3", "PT"):
        space = {"T2": TREC, "T3": T3, "PT": PT}[name]
        klass = draw(st.lists(st.integers(-2, 2), min_size=space.dim, max_size=space.dim))
        assume(any(klass))
        periods = lf.effective_periods(space)
        base = space.point([draw(unit) * a for a in periods])
        g = lf.torus_class_geodesic(space, base, klass)
    else:
        klass = draw(st.lists(st.integers(-1, 1), min_size=2, max_size=2))
        assume(any(klass))
        xy = [2.0 * draw(unit), draw(unit)]
        face = draw(st.sampled_from(["top", "bottom"]))
        disp = np.array(klass) * D21.cover_periods
        if name == "DR":
            space, base = D21, D21.point(xy, face)
        else:
            disp = np.concatenate([[1.25 * draw(st.integers(-1, 1))], disp])
            space, base = MIXED, MIXED.point([1.25 * draw(unit)] + xy, (None, face))
        length = float(np.linalg.norm(disp))
        try:
            g = lf.segment_loop_geodesic(space, base, disp / length, length)
        except lf.GeometryError:  # through a cone point
            assume(False)
    k = lf.minimizing_index(g) + draw(st.integers(1, 2))
    assume(k * space.dim <= 20)
    return sampled_loop(g, k)


class TestExactHessian:
    """The closed-form block Hessian against central differences of the
    energy.  The differences use a step of 1e-3: the energy is exactly
    quadratic while every segment keeps its minimizer, so the wider step
    loses nothing and cuts their rounding 100-fold.  At 1e-4 that rounding
    (about 1e-7 here) is above the 1e-8 rank tolerance of the degeneracy
    test, which then misreads some doubled-rectangle loops."""

    @given(smooth_straight_configs())
    @example(reflection_loop_config())
    @settings(max_examples=40, deadline=None)
    def test_matches_finite_differences(self, x):
        try:
            exact = lf.hessian_index_nullity(x)
        except (lf.NotSmoothCriticalError, lf.DegenerateTrajectoryError):
            assume(False)
        fd = finite_difference_hessian(x, step=1e-3)
        assert (exact.index, exact.nullity, exact.degenerate) == (
            fd.index, fd.nullity, fd.degenerate)
        assert np.allclose(exact.eigenvalues, fd.eigenvalues, rtol=0, atol=1e-4)

    def test_reflection_sheet_loop(self):
        x = reflection_loop_config()
        sheets = [segs[0].lift[0] for segs in lf.segment_geodesics(x)]
        assert sheets.count(1) == 2
        rep = lf.hessian_index_nullity(x)
        # the translation along the loop and the parallel normal field
        assert (rep.index, rep.nullity, rep.degenerate) == (0, 2, True)

    def test_straight_loop_at_tight_zero_tol(self):
        # central differences put the two null eigenvalues at -5.55e-9,
        # which read as index 2, nullity 0 at this tolerance
        x = lf.configuration(TREC, [(0.1, 0.2), (0.35, 0.2), (0.6, 0.2), (0.85, 0.2)])
        rep = lf.hessian_index_nullity(x, zero_tol=1e-10)
        assert (rep.index, rep.nullity, rep.degenerate) == (0, 2, True)
        assert np.allclose(rep.eigenvalues, circulant_hessian_eigenvalues(4, 2), rtol=0, atol=1e-9)


# Hessian tolerances off every rational eigenvalue 8k sin^2(pi m / k)
# (2k, 4k, 6k, 8k), so that rounding in the oracle cannot split a count
ZERO_TOLS = (1e-9, 1e-6, 1e-3, 0.37, 7.3, 123.4, 1e3)
LARGE_ZERO_TOLS = ZERO_TOLS[3:]


def assert_matches_the_oracle(x, zero_tol):
    got = lf.hessian_index_nullity(x, zero_tol=zero_tol)
    want = eigh_hessian(x, zero_tol=zero_tol)
    assert (got.index, got.nullity, got.degenerate) == (want.index, want.nullity, want.degenerate)
    assert np.allclose(got.eigenvalues, want.eigenvalues, rtol=0, atol=1e-12 * 8 * x.k)
    return got


def loop_round_a_cone(k, radius, start, jitter=()):
    """k points round the cone lift (2, 1) of D21 at the given radius, a
    half turn in the cover: the last segment closes through the point
    reflection, so the deck signs multiply to -1."""
    angles = start + math.pi * (np.arange(k) + np.resize(np.asarray(jitter, float), k)) / k
    rows = np.array([2.0, 1.0]) + radius * np.column_stack((np.cos(angles), np.sin(angles)))
    return lf.Configuration(D21, D21.points_batch(D21._fold(rows)[0]))


@st.composite
def hessian_cases(draw):
    """(configuration, zero_tol): smooth critical loops on every backend,
    configurations that are not critical at a large zero_tol, and loops
    round a doubled-rectangle cone."""
    kind = draw(st.sampled_from(["critical", "noncritical", "cone"]))
    if kind == "critical":
        return draw(smooth_straight_configs()), draw(st.sampled_from(ZERO_TOLS))
    zero_tol = draw(st.sampled_from(LARGE_ZERO_TOLS))
    if kind == "cone":
        k = draw(st.integers(3, 8))
        jitter = draw(st.lists(st.floats(-0.2, 0.2), min_size=k, max_size=k))
        return loop_round_a_cone(k, draw(st.floats(0.1, 0.45)),
                                 draw(st.floats(0.0, 2.0 * math.pi)), jitter), zero_tol
    space = draw(st.sampled_from([TREC, T3, PT, D21, MIXED]))
    k = draw(st.integers(2, 6))
    unit = st.floats(0.0, 1.0, exclude_max=True)
    face = st.sampled_from(["top", "bottom"])
    if space is D21:
        pts = [D21.point([2.0 * draw(unit), draw(unit)], draw(face)) for _ in range(k)]
    elif space is MIXED:
        pts = [MIXED.point([1.25 * draw(unit), 2.0 * draw(unit), draw(unit)], (None, draw(face)))
               for _ in range(k)]
    else:
        periods = lf.effective_periods(space)
        pts = [space.point([draw(unit) * a for a in periods]) for _ in range(k)]
    return lf.Configuration(space, tuple(pts)), zero_tol


class TestClosedFormHessian:
    """The closed form against ``eigh`` of the block matrix assembled from
    each segment's lift and faces."""

    @given(hessian_cases())
    @example((reflection_loop_config(), 1e-6))
    @example((loop_round_a_cone(6, 0.3, 0.4), 7.3))
    @settings(max_examples=120, deadline=None)
    def test_matches_the_eigh_oracle(self, case):
        x, zero_tol = case
        try:
            lf.hessian_index_nullity(x, zero_tol=zero_tol)
        except lf.GeometryError:  # not smooth, not critical, or through a cone
            assume(False)
        assert_matches_the_oracle(x, zero_tol)

    def test_tight_zero_tol_keeps_both_null_modes(self):
        # eigh put the null values at 4.3e-16 and 2.1e-14: nullity 1, not degenerate
        x = evenly_spaced(TREC, [1, 2], 6, [0.1, 0.2])
        rep = lf.hessian_index_nullity(x, zero_tol=1e-14)
        assert (rep.index, rep.nullity, rep.degenerate) == (0, 2, True)
        assert rep.eigenvalues[:2] == (0.0, 0.0)

    def test_a_loop_across_the_bottom_edge_matches_the_oracle(self):
        # points 7 and 8 of the (1, 1) loop lie on either side of the bottom
        # edge, on the translation sheet: there v0 = diag(1, -1) v1, so the
        # transport comes from the faces; so does the gauge of the null
        # modes, which the degeneracy flag reads
        x = reflection_loop_config()
        p, q = x.points[7], x.points[8]
        (seg,) = D21.minimizing_geodesics(p, q)
        assert (p.face, q.face, seg.lift[0]) == ("top", "bottom", 0)
        assert seg.v0[1] < 0.0 < seg.v1[1]
        reports = {zero_tol: assert_matches_the_oracle(x, zero_tol) for zero_tol in ZERO_TOLS}
        assert (reports[1e-6].nullity, reports[1e-6].degenerate) == (2, True)

    def test_a_loop_round_a_cone_has_the_half_shifted_spectrum(self):
        x = loop_round_a_cone(6, 0.3, 0.4)
        sheets = [segs[0].lift[0] for segs in lf.segment_geodesics(x)]
        assert sum(sheets) % 2 == 1
        rep = assert_matches_the_oracle(x, 7.3)
        want = sorted(48.0 * math.sin(math.pi * (j + 0.5) / 6) ** 2 for j in range(6) for _ in "xy")
        assert np.allclose(rep.eigenvalues, want, rtol=0, atol=1e-12)
        assert rep.nullity == 4


class TestSerialization:
    def test_configuration_roundtrip(self):
        from loopflow.energy import configuration_from_dict, configuration_to_dict

        x = example_square_config()
        again = configuration_from_dict(configuration_to_dict(x))
        assert again.k == x.k
        for p, q in zip(x.points, again.points):
            assert np.array_equal(p.coords, q.coords)

    def test_candidate_report_replayable(self):
        from loopflow.energy import candidate_to_dict

        x = example_square_config()
        g = lf.gradient_like(x)
        data = candidate_to_dict(g)
        assert data["magnitude"] == g.magnitude
        assert len(data["choice"]) == 4

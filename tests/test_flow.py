"""Descent flow, Birkhoff shortening, restarts, and limit classification."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import loopflow as lf
import loopflow.flow
from conftest import scalar_exp_config, scalar_flow
from loopflow.spaces import CONE_CLEARANCE

TREC = lf.FlatTorus([1.0, 0.75])
T3 = lf.FlatTorus([1.0, 0.8125, 1.375])

CLASS_POOL = ([1, 0], [0, 1], [1, 1], [1, -1], [1, 2])


def straight_config(space, klass, k, base):
    g = lf.torus_class_geodesic(space, space.point(base), klass)
    return g, lf.Configuration(space, tuple(lf.point_at(g, 2 * math.pi * i / k) for i in range(k)))


def noisy_config(space, klass, k, base, rng, magnitude):
    _, x = straight_config(space, klass, k, base)
    pts = []
    for p in x.points:
        v = rng.standard_normal(space.dim)
        pts.append(space.exp_map(lf.Tangent(p, v / np.linalg.norm(v)), magnitude))
    return lf.Configuration(space, tuple(pts))


def random_corpus_case(seed):
    rng = np.random.default_rng(seed)
    periods = rng.uniform(0.8, 1.25, size=2)
    space = lf.FlatTorus(periods)
    klass = list(CLASS_POOL[int(rng.integers(len(CLASS_POOL)))])
    k = 2 * max(abs(m) for m in klass) + 2
    base = rng.uniform(0, periods)
    x0 = noisy_config(space, klass, k, base, rng, 0.05 * space.min_scale())
    return space, klass, x0


class TestDescend:
    def test_fixed_point_at_smooth_critical(self):
        _, x = straight_config(TREC, [1, 0], 3, [0.2, 0.5])
        trace = lf.descend(x)
        assert trace.status == "converged"
        assert trace.iterations == 0

    def test_recovers_class_from_noise(self, rng):
        for _ in range(5):
            x0 = noisy_config(TREC, [1, 0], 4, [0.1, 0.3], rng, 0.05 * 0.75)
            trace = lf.descend(x0)
            assert trace.status == "converged"
            assert trace.grad_norms[-1] <= lf.FlowParams().grad_tol
            limit = lf.classify_limit(trace.final)
            assert tuple(limit.klass) in ((1, 0), (-1, 0))
            assert lf.has_associated_geodesic(trace.final, tol=10 * lf.FlowParams().grad_tol)

    def test_energy_monotone(self, rng):
        x0 = noisy_config(TREC, [1, 1], 4, [0.6, 0.1], rng, 0.04)
        trace = lf.descend(x0)
        assert all(a >= b - 1e-14 for a, b in zip(trace.energies, trace.energies[1:]))

    def test_max_iters_status(self, rng):
        x0 = noisy_config(TREC, [1, 0], 4, [0.1, 0.3], rng, 0.05)
        params = lf.FlowParams(max_iters=2)
        trace = lf.descend(x0, params)
        assert trace.status == "max_iters"
        assert trace.iterations == 2

    def test_step_underflow_reports_error(self):
        # nearly critical, but the gradient threshold is unreachably small:
        # float energies cannot strictly decrease forever
        _, x = straight_config(TREC, [1, 0], 3, [0.2, 0.5])
        pts = list(x.points)
        pts[0] = TREC.point(pts[0].coords + np.array([1e-11, 0.0]))
        params = lf.FlowParams(grad_tol=1e-300, energy_tol=0.0, max_iters=500)
        trace = lf.descend(lf.Configuration(TREC, tuple(pts)), params)
        assert trace.status == "error"
        assert "underflow" in trace.error

    def test_collision_nudge_logged(self):
        p = TREC.point([0.2, 0.2])
        x = lf.Configuration(TREC, (p, p, TREC.point([0.7, 0.4])))
        trace = lf.descend(x, lf.FlowParams(max_iters=3))
        assert trace.nudges
        assert all(a >= b - 1e-14 for a, b in zip(trace.energies, trace.energies[1:]))


class TestBirkhoff:
    def test_fixed_point_on_straight_configuration(self):
        _, x = straight_config(TREC, [1, 0], 4, [0.0, 0.33])
        trace = lf.birkhoff_shorten(x)
        assert trace.status == "converged"
        assert trace.iterations == 0

    def test_strict_decrease_on_noncritical(self, rng):
        x0 = noisy_config(TREC, [1, 0], 4, [0.1, 0.3], rng, 0.05)
        trace = lf.birkhoff_shorten(x0, lf.FlowParams(max_iters=1))
        assert trace.energies[-1] < trace.energies[0]

    def test_agrees_with_descend_limit_class(self, rng):
        for _ in range(3):
            x0 = noisy_config(TREC, [1, 1], 5, [0.4, 0.2], rng, 0.04)
            a = lf.descend(x0)
            b = lf.birkhoff_shorten(x0)
            assert a.status == b.status == "converged"
            assert np.array_equal(
                lf.classify_limit(a.final).klass, lf.classify_limit(b.final).klass
            )


class TestClassifyLimit:
    def test_straight_configuration(self):
        _, x = straight_config(TREC, [1, 0], 4, [0.6, 0.7])
        g = lf.classify_limit(x)
        assert tuple(g.klass) == (1, 0)
        assert np.array_equal(g.base.coords, x.points[0].coords)

    def test_unperturbed_descent_preserves_class(self, rng):
        x0 = noisy_config(TREC, [1, 2], 6, [0.15, 0.55], rng, 0.05 * 0.75)
        trace = lf.descend(x0)
        assert trace.status == "converged"
        assert tuple(lf.classify_limit(trace.final).klass) == (1, 2)

    def test_broken_loop_rejected(self):
        x = lf.configuration(TREC, [[0.0, 0.1], [0.5, 0.4], [0.1, 0.6]])
        with pytest.raises(lf.NonGeodesicLimitError):
            lf.classify_limit(x)

    def test_collapsed_loop_rejected(self):
        x = lf.configuration(TREC, [[0.0, 0.0], [0.01, 0.0], [0.02, 0.0]])
        with pytest.raises(lf.NonGeodesicLimitError):
            lf.classify_limit(x)


class TestRestartStep:
    def test_example_class_12_improves_to_two(self):
        g = lf.torus_class_geodesic(TREC, TREC.point([0.125, 0.0625]), [1, 2])
        report = lf.restart_step(g)
        assert report.status == "improved"
        assert report.before_minind == 4
        assert report.after_minind == 2
        assert tuple(np.abs(report.after.klass)) in ((1, 0), (0, 2))
        assert report.trace.status == "converged"

    def test_direction_is_recorded_alternating_vertical(self):
        g = lf.torus_class_geodesic(TREC, TREC.point([0.125, 0.0625]), [1, 2])
        report = lf.restart_step(g)
        comps = np.array([v for v in report.direction.vecs])
        assert np.allclose(np.abs(comps[:, 1]), 0.75, atol=1e-9)
        assert np.allclose(comps[:, 0], 0.0, atol=1e-9)

    def test_shortest_class_collapses(self):
        # a systole-direction loop cannot improve: sliding its two sampled
        # points together contracts the loop to a point
        g = lf.torus_class_geodesic(TREC, TREC.point([0.0, 0.0]), [1, 0])
        report = lf.restart_step(g)
        assert report.status == "collapsed"
        assert report.after is None

    def test_t3_class_improves_within_bound(self):
        g = lf.torus_class_geodesic(T3, T3.point([0.05, 0.15, 0.25]), [1, 2, 3])
        report = lf.restart_step(g)
        assert report.before_minind == 6
        assert report.after_minind is not None and report.after_minind <= 6

    def test_contract_never_worsens(self):
        for klass in ([1, 2], [2, 1], [1, -2]):
            g = lf.torus_class_geodesic(TREC, TREC.point([0.37, 0.11]), klass)
            report = lf.restart_step(g)
            if report.after_minind is not None:
                assert report.after_minind <= report.before_minind

    def test_a_limit_of_higher_index_reads_worse(self, monkeypatch):
        # the limit's index, patched above the start's: the report must not
        # read "unchanged", and the ladder stops there
        calls = []

        def minind(g, tol=1e-9):
            calls.append(g)
            return 4 if len(calls) == 1 else 9

        monkeypatch.setattr(lf.flow, "minimizing_index", minind)
        g = lf.torus_class_geodesic(TREC, TREC.point([0.125, 0.0625]), [1, 2])
        report = lf.restart_step(g)
        assert (report.status, report.before_minind, report.after_minind) == ("worse", 4, 9)
        calls.clear()
        assert [r.status for r in lf.restart_until_stable(g, max_rounds=3)] == ["worse"]

    def test_a_limit_of_equal_index_reads_unchanged(self, monkeypatch):
        monkeypatch.setattr(lf.flow, "minimizing_index", lambda g, tol=1e-9: 4)
        g = lf.torus_class_geodesic(TREC, TREC.point([0.125, 0.0625]), [1, 2])
        assert lf.restart_step(g).status == "unchanged"

    def test_doubled_rectangle_rejected(self):
        D = lf.DoubledRectangle(2.0, 1.0)
        g = lf.segment_loop_geodesic(D, D.point([0.5, 0.5], "top"), [0.0, 1.0], 2.0)
        with pytest.raises(lf.ValidationError):
            lf.restart_step(g)


    def test_index_beyond_the_point_cap_raises_before_sampling(self):
        torus = lf.FlatTorus([1.0, 0.75])
        g = lf.torus_class_geodesic(torus, torus.point([0.1, 0.2]), [10**6, 1])
        with pytest.raises(lf.ResourceLimitError, match="MAX_RESTART_POINTS"):
            lf.restart_step(g)


@st.composite
def torus_class_loops(draw):
    """A closed geodesic of a nonzero class with max |entry| <= 8 on the
    2-torus and <= 4 on the 3-torus, from a random base point."""
    space, bound = draw(st.sampled_from([(TREC, 8), (T3, 4)]))
    klass = draw(st.lists(st.integers(-bound, bound), min_size=space.dim, max_size=space.dim))
    assume(any(klass))
    unit = st.floats(0.0, 1.0, exclude_max=True)
    base = space.point([draw(unit) * a for a in space.periods])
    return lf.torus_class_geodesic(space, base, klass)


class TestRestartNeverWorsens:
    """The source paper's flow property: on flat tori a restart never raises
    the minimizing index."""

    @given(torus_class_loops())
    @settings(max_examples=60, deadline=None)
    def test_after_index_at_most_before(self, g):
        report = lf.restart_step(g)
        assert report.status in ("improved", "unchanged", "collapsed")
        if report.after_minind is not None:
            assert report.after_minind <= report.before_minind


class TestRestartUntilStable:
    def test_example_finishes_in_one_round(self):
        g = lf.torus_class_geodesic(TREC, TREC.point([0.125, 0.0625]), [1, 2])
        reports = lf.restart_until_stable(g)
        assert reports[0].after_minind == 2
        mins = [r.after_minind for r in reports if r.after_minind is not None]
        assert mins and min(mins) == 2

    def test_distinct_entries_zero_out_successively(self):
        g = lf.torus_class_geodesic(T3, T3.point([0.05, 0.15, 0.25]), [1, 2, 3])
        reports = lf.restart_until_stable(g)
        mininds = [r.before_minind for r in reports]
        assert mininds[0] == 6
        finals = [r.after_minind for r in reports if r.after_minind is not None]
        assert finals == sorted(finals, reverse=True)
        assert finals[-1] == 2
        classes = [tuple(np.abs(r.after.klass)) for r in reports if r.after is not None]
        assert classes == [(1, 2, 0), (1, 0, 0)]

    def test_minind_two_class_stops_after_one_round(self):
        g = lf.torus_class_geodesic(TREC, TREC.point([0.2, 0.3]), [1, 1])
        reports = lf.restart_until_stable(g)
        assert reports[0].before_minind == 2
        assert len(reports) == 1


class TestFlowCorpus:
    def test_twenty_seeded_runs(self):
        for seed in range(20):
            space, klass, x0 = random_corpus_case(seed)
            a = lf.descend(x0)
            b = lf.birkhoff_shorten(x0)
            assert a.status == "converged"
            assert b.status == "converged"
            for trace in (a, b):
                assert all(
                    e1 >= e2 - 1e-14 for e1, e2 in zip(trace.energies, trace.energies[1:])
                )
                assert lf.has_associated_geodesic(trace.final, tol=1e-5)
            ca = lf.classify_limit(a.final)
            cb = lf.classify_limit(b.final)
            assert np.array_equal(ca.klass, cb.klass)
            assert tuple(np.abs(ca.klass)) == tuple(np.abs(np.array(klass)))


class TestParams:
    def test_validation(self):
        with pytest.raises(lf.ValidationError):
            lf.FlowParams(step=0.0)
        with pytest.raises(lf.ValidationError):
            lf.FlowParams(backtrack=1.0)
        with pytest.raises(lf.ValidationError):
            lf.FlowParams(perturb_eps=-0.1)

    @pytest.mark.parametrize("field", ["step", "grad_tol", "energy_tol", "perturb_eps", "backtrack", "tol"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, value):
        # NaN used to pass every "<= 0" check
        with pytest.raises(lf.ValidationError, match=field):
            lf.FlowParams(**{field: value})

    @pytest.mark.parametrize("field", ["max_iters", "record_every"])
    @pytest.mark.parametrize("value", [2.7, True, 0, math.nan])
    def test_counts_are_integers(self, field, value):
        with pytest.raises(lf.ValidationError, match=field):
            lf.FlowParams(**{field: value})


FLOW_SPACES = {
    "T2": TREC,
    "T3": T3,
    "product": lf.Product([lf.FlatTorus([1.0, 0.75]), lf.FlatTorus([1.25])]),
}
UNIT_CLASSES = {
    "T2": ([1, 0], [0, 1], [1, 1], [1, -1]),
    "T3": ([1, 0, 0], [0, 1, 1], [1, 1, 0], [1, 0, -1]),
    "product": ([1, 0, 0], [0, 1, 1], [1, 1, 0], [0, 0, 1]),
}
CUT_CLASSES = {
    "T2": ([1, 2], [2, 1], [1, 3]),
    "T3": ([1, 2, 0], [2, 1, 1], [1, 1, 2]),
    "product": ([1, 2, 0], [1, 0, 2], [2, 1, 1]),
}


def cut_start(space, klass, base, noise, rng):
    """The class's loop sampled at its minimizing index k = 2 max|class|,
    where every consecutive pair is a cut pair, moved by ``noise``."""
    k = 2 * max(abs(m) for m in klass)
    _, x = straight_config(space, klass, k, base)
    if noise == 0.0:
        return x
    pts = []
    for p in x.points:
        v = rng.standard_normal(space.dim)
        pts.append(space.exp_map(lf.Tangent(p, v / np.linalg.norm(v)), noise))
    return lf.Configuration(space, tuple(pts))


def assert_trace_matches_scalar(trace):
    """Every recorded energy and gradient norm equals the scalar definition
    at its iterate, bit for bit."""
    assert len(trace.iterates) == len(trace.energies) == len(trace.grad_norms)
    for x, energy, grad in zip(trace.iterates, trace.energies, trace.grad_norms):
        assert energy == lf.uniform_energy(x)
        assert grad == lf.gradient_like(x).magnitude


D21 = lf.DoubledRectangle(2.0, 1.0)
# doubled-rectangle loop families: (base chart point, direction, length).
# Vertical loops cross the edges y = 0 and y = b on the translation sheet,
# horizontal ones the edges x = 0 and x = a on the reflection sheet; the
# diagonal one crosses both, with its cone-free offset u = x - 2y in (0.3, 1.7).
DR_FAMILIES = {
    "vertical": lambda u, v: ([0.3 + 1.4 * u, v], [0.0, 1.0], 2.0),
    "horizontal": lambda u, v: ([2.0 * v, 0.2 + 0.6 * u], [1.0, 0.0], 4.0),
    "diagonal": lambda u, v: ([(0.3 + 1.4 * u + v) % 2.0, v / 2.0], [2.0, 1.0], math.sqrt(20.0)),
}


def dr_noisy_loop(family, k, u, v, rng, noise):
    """k evenly spaced points of a doubled-rectangle loop, each moved by ``noise``."""
    base, direction, length = DR_FAMILIES[family](u, v)
    g = lf.segment_loop_geodesic(D21, D21.point(base, "top"), direction, length)
    pts = []
    for i in range(k):
        w = rng.standard_normal(2)
        p = lf.point_at(g, 2 * math.pi * i / k)
        pts.append(D21.exp_map(lf.Tangent(p, w / np.linalg.norm(w)), noise))
    return lf.Configuration(D21, tuple(pts))


def dr_cone_loop(k, radius):
    """k points round the cone (2, 1) of D21: half a turn in the cover, which
    the point reflection closes, so one segment is on the reflection sheet and
    the developed chain closes by a reflection (s = -1)."""
    angles = math.pi * (1.0 + np.arange(k) / k)
    rows = np.array([2.0, 1.0]) + radius * np.c_[np.cos(angles), np.sin(angles)]
    return lf.Configuration(D21, D21.points_batch(D21._fold(rows)[0]))


def with_torus_factor(x):
    """The doubled-rectangle configuration x times k even points of a circle."""
    space = lf.Product([lf.FlatTorus([1.25]), D21])
    return lf.Configuration(space, tuple(space.point(np.r_[1.25 * i / x.k, p.coords], (None, p.face))
                                         for i, p in enumerate(x.points)))


def assert_same_points(x, y):
    for a, b in zip(x.points, y.points, strict=True):
        assert np.array_equal(a.coords, b.coords) and a.face == b.face


class TestArrayStep:
    """Every backend's iterated flows step a cover array; on a tie, a
    collision or a cone an iteration takes the scalar kernels.  Either way the
    trace is the scalar path's.  The iterated flows are the oracle of the
    closed form, so they are called directly where that applies."""

    PARAMS = lf.FlowParams(max_iters=30)

    @given(
        name=st.sampled_from(sorted(FLOW_SPACES)),
        turn=st.integers(0, 3),
        k=st.integers(4, 16),
        seed=st.integers(0, 2**32 - 1),
        noise=st.floats(0.001, 0.03),
    )
    @settings(max_examples=25, deadline=None)
    def test_noisy_straight_loops(self, name, turn, k, seed, noise):
        space = FLOW_SPACES[name]
        rng = np.random.default_rng(seed)
        base = rng.uniform(0, lf.effective_periods(space))
        x0 = noisy_config(space, UNIT_CLASSES[name][turn], k, base, rng, noise)
        assert_trace_matches_scalar(lf.flow._descend_iterated(x0, self.PARAMS))
        assert_trace_matches_scalar(lf.flow._birkhoff_iterated(x0, self.PARAMS))

    @given(
        name=st.sampled_from(sorted(FLOW_SPACES)),
        turn=st.integers(0, 2),
        seed=st.integers(0, 2**32 - 1),
        noise=st.sampled_from([0.0, 1e-12, 1e-10, 1e-6, 1e-3]),
    )
    @settings(max_examples=25, deadline=None)
    def test_near_cut_starts(self, name, turn, seed, noise):
        space = FLOW_SPACES[name]
        rng = np.random.default_rng(seed)
        base = rng.uniform(0, lf.effective_periods(space))
        x0 = cut_start(space, CUT_CLASSES[name][turn], base, noise, rng)
        assert_trace_matches_scalar(lf.flow._descend_iterated(x0, self.PARAMS))
        assert_trace_matches_scalar(lf.flow._birkhoff_iterated(x0, self.PARAMS))

    @given(
        family=st.sampled_from(sorted(DR_FAMILIES)),
        k=st.integers(4, 12),
        u=st.floats(0.0, 1.0),
        v=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
        noise=st.floats(0.001, 0.03),
    )
    @settings(max_examples=25, deadline=None)
    def test_doubled_rectangle_noisy_loops(self, family, k, u, v, seed, noise):
        x0 = dr_noisy_loop(family, k, u, v, np.random.default_rng(seed), noise)
        assert_trace_matches_scalar(lf.flow._descend_iterated(x0, self.PARAMS))
        assert_trace_matches_scalar(lf.flow._birkhoff_iterated(x0, self.PARAMS))

    def test_product_with_a_doubled_rectangle_factor(self, rng):
        space = lf.Product([lf.FlatTorus([1.25]), D21])
        dr = dr_noisy_loop("horizontal", 8, 0.3, 0.6, rng, 0.02)
        x0 = lf.Configuration(space, tuple(
            space.point(np.r_[1.25 * i / 8 + 0.01 * rng.standard_normal(), p.coords], (None, p.face))
            for i, p in enumerate(dr.points)))
        for flow in (lf.flow._descend_iterated, lf.flow._birkhoff_iterated):
            trace = flow(x0, self.PARAMS)
            assert trace.energies[-1] < trace.energies[0]
            assert_trace_matches_scalar(trace)

    def spy(self, monkeypatch):
        calls = []
        original = lf.flow.gradient_like

        def counting(x, *args):
            calls.append(x)
            return original(x, *args)

        monkeypatch.setattr(lf.flow, "gradient_like", counting)
        return calls

    def test_near_cut_start_falls_back(self, monkeypatch):
        calls = self.spy(monkeypatch)
        x0 = cut_start(TREC, [1, 2], [0.125, 0.0625], 0.0, None)
        trace = lf.descend(x0, self.PARAMS)
        assert calls and calls[0] is x0
        assert trace.energies[-1] < trace.energies[0]
        assert_trace_matches_scalar(trace)

    def test_noisy_loop_stays_on_arrays(self, monkeypatch, rng):
        calls = self.spy(monkeypatch)
        x0 = noisy_config(TREC, [1, 1], 8, [0.6, 0.1], rng, 0.02)
        trace = lf.flow._descend_iterated(x0, lf.FlowParams())
        assert trace.status == "converged" and trace.iterations > 10
        assert calls == []

    def test_doubled_rectangle_noisy_loop_stays_on_arrays(self, monkeypatch, rng):
        calls = self.spy(monkeypatch)
        x0 = dr_noisy_loop("horizontal", 8, 0.4, 0.3, rng, 0.02)
        trace = lf.flow._descend_iterated(x0, lf.FlowParams())
        assert trace.status == "converged" and trace.iterations > 10
        assert calls == []

    def test_doubled_rectangle_tie_and_cone_fall_back(self, monkeypatch):
        calls = self.spy(monkeypatch)
        # (0.5, 0.5) on both faces: three tied minimizers, on both sheets
        tie = lf.configuration(D21, [[0.5, 0.5], [0.5, 0.5]], ["top", "bottom"])
        # a point 2e-10 from the cone point (2, 1): its segments tie across it
        cone = lf.configuration(D21, [[2.0 - 1e-10, 1.0 - 2e-10], [1.5, 0.6], [1.0, 0.3]],
                                ["top", "top", "bottom"])
        for x0 in (tie, cone):
            trace = lf.descend(x0, self.PARAMS)
            assert calls[0] is x0
            assert trace.energies[-1] < trace.energies[0]
            assert_trace_matches_scalar(trace)
            calls.clear()

    def test_move_past_a_cone_raises(self):
        x = lf.configuration(D21, [[1.9, 0.9], [1.0, 0.5], [0.5, 0.2]], ["top", "top", "top"])
        it = lf.flow._Iterate(x, 1e-9)
        direction = np.array([[1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        for move in (it.moved, lambda d, s: scalar_exp_config(x, d, s)):
            with pytest.raises(lf.DegenerateTrajectoryError):
                move(direction, 0.2)  # point 0 runs into the corner (2, 1)
        moved = it.moved(direction, 0.05)  # clear of it: the array step
        assert_same_points(moved.config, scalar_exp_config(x, direction, 0.05))

    def test_step_onto_a_vertical_edge_lands_on_the_top_face(self):
        x = lf.configuration(D21, [[0.5, 0.3], [1.5, 0.3], [1.0, 0.6]], ["bottom", "bottom", "top"])
        direction = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
        moved = lf.flow._Iterate(x, 1e-9).moved(direction, 0.5)
        scalar = scalar_exp_config(x, direction, 0.5)
        assert [p.face for p in scalar.points] == ["top", "top", "top"]
        assert_same_points(moved.config, scalar)

    def test_collided_pair_keeps_its_point_in_the_midpoint_sweep(self):
        # 0.3 on the bottom face embeds as 2 - 0.3, which does not fold back to 0.3
        x = lf.configuration(D21, [[0.3, 0.3], [0.3, 0.3 + 1e-13], [1.0, 0.6]],
                             ["bottom", "bottom", "top"])
        mids = lf.flow._Iterate(x, 1e-9).midpoints(rotate=True).config
        scalar = []
        for a, b in zip(x.points, x.points[1:] + x.points[:1]):
            if D21.distance(a, b) <= lf.flow.COLLIDE_TOL:
                scalar.append(a)
            else:
                seg = D21.minimizing_geodesics(a, b)[0]
                scalar.append(scalar_flow(D21, lf.Tangent(a, seg.v0), seg.length / 2.0)[0])
        assert mids.points[1] is x.points[0]
        assert_same_points(mids, lf.Configuration(D21, tuple(scalar[-1:] + scalar[:-1])))

    def test_bottom_point_an_ulp_below_the_edge_keeps_its_chart(self):
        # its cover row rounds to y = b, which alone would read as the top face
        y = np.nextafter(1.0, 0.0)
        x = lf.configuration(D21, [[0.5, y], [1.5, 0.3], [1.0, 0.6]], ["bottom", "top", "top"])
        direction = np.array([[0.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
        moved = lf.flow._Iterate(x, 1e-9).moved(direction, 0.1)
        scalar = scalar_exp_config(x, direction, 0.1)
        assert scalar.points[0].face == "top"
        assert_same_points(moved.config, scalar)


NESTED = lf.Product([lf.Product([lf.FlatTorus([1.0]), lf.FlatTorus([0.75])]), lf.FlatTorus([1.25])])
CLOSED_SPACES = dict(FLOW_SPACES, nested=NESTED)
CLOSED_CLASSES = dict(UNIT_CLASSES, nested=UNIT_CLASSES["product"])
RESTART_CLASSES = dict(CUT_CLASSES, nested=CUT_CLASSES["product"])


class _Start(Exception):
    pass


def restart_start(g):
    """The perturbed configuration ``restart_step`` descends from, or None."""

    def capture(x, params):
        raise _Start(x)

    original, lf.flow.descend = lf.flow.descend, capture
    try:
        lf.restart_step(g)
    except _Start as start:
        return start.args[0]
    finally:
        lf.flow.descend = original
    return None


def assert_traces_agree(trace, oracle, periods):
    """Same stop, nudges and records; values within 1e-12 of the first
    energy, the first gradient norm and the largest period."""
    assert (trace.status, trace.iterations, trace.nudges, trace.error) == (
        oracle.status, oracle.iterations, oracle.nudges, oracle.error)
    assert len(trace.energies) == len(oracle.energies) == len(oracle.grad_norms) == len(
        trace.grad_norms)
    for ours, theirs in ((trace.energies, oracle.energies), (trace.grad_norms, oracle.grad_norms)):
        assert np.allclose(ours, theirs, rtol=0.0, atol=1e-12 * theirs[0])
    assert_points_close(trace.final, oracle.final, periods)


def assert_points_close(x, y, periods):
    """Equal points within 1e-12 of the largest period, as periodic
    differences; with ``periods`` None, within 1e-12 by distance."""
    if periods is None:
        assert max(x.space.distance(p, q) for p, q in zip(x.points, y.points, strict=True)) <= 1e-12
        return
    a, b = (np.array([p.coords for p in z.points]) for z in (x, y))
    assert np.abs((a - b) - periods * np.round((a - b) / periods)).max() <= 1e-12 * periods.max()


class TestClosedForm:
    """``descend`` and ``birkhoff_shorten`` run in closed form where the
    developed start chain closes by a translation and every iterate is
    certified; the iterated flows are its oracle."""

    @given(
        name=st.sampled_from(sorted(CLOSED_SPACES)),
        turn=st.integers(0, 3),
        k=st.integers(4, 64),
        seed=st.integers(0, 2**32 - 1),
        noise=st.floats(0.001, 0.05),
        method=st.sampled_from(["descend", "birkhoff"]),
        step=st.floats(0.01, 0.5),
        record_every=st.integers(1, 3),
        max_iters=st.sampled_from([1, 2, 17, 120, 5000]),
        restart=st.booleans(),
    )
    # at step 1/2 this restart start's energy sits in the alternating mode, which
    # a step keeps: descend backtracks, and the closed form must leave it so
    @example(name="nested", turn=0, k=4, seed=10, noise=0.03125, method="descend", step=0.5,
             record_every=1, max_iters=1, restart=True)
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_the_iterated_flow(self, name, turn, k, seed, noise, method, step,
                                           record_every, max_iters, restart):
        space = CLOSED_SPACES[name]
        periods = lf.effective_periods(space)
        rng = np.random.default_rng(seed)
        base = rng.uniform(0, periods)
        if restart:
            klass = RESTART_CLASSES[name][turn % 3]
            x0 = restart_start(lf.torus_class_geodesic(space, space.point(base), klass))
            assume(x0 is not None)
        else:
            x0 = noisy_config(space, CLOSED_CLASSES[name][turn], k, base, rng, noise)
        # the oracle takes about k^2 iterations to converge
        params = lf.FlowParams(step=step, record_every=record_every,
                               max_iters=max_iters if x0.k <= 24 else min(max_iters, 120))
        closed = lf.flow._closed_form_flow(x0, params, step if method == "descend" else 0.25,
                                           birkhoff=method == "birkhoff")
        iterated = (lf.flow._descend_iterated if method == "descend"
                    else lf.flow._birkhoff_iterated)(x0, params)
        trace = (lf.descend if method == "descend" else lf.birkhoff_shorten)(x0, params)
        if closed is None:
            assert (trace.energies, trace.grad_norms) == (iterated.energies, iterated.grad_norms)
        else:
            assert_traces_agree(closed, iterated, periods)
            assert_traces_agree(trace, iterated, periods)

    def test_recorded_iterates_are_the_oracle_s(self, rng):
        x0 = noisy_config(TREC, [1, 1], 8, [0.6, 0.1], rng, 0.03)
        params = lf.FlowParams(max_iters=40, record_every=3)
        trace, oracle = lf.descend(x0, params), lf.flow._descend_iterated(x0, params)
        assert len(trace.iterates) == len(oracle.iterates) == 15  # 0, 3, ..., 39 and 40
        assert trace.iterates[0] is x0
        for x, y in zip(trace.iterates, oracle.iterates):
            assert_points_close(x, y, TREC.periods)

    def spy(self, monkeypatch):
        calls = []
        original = lf.flow._run_flow

        def counting(x, *args):
            calls.append(x)
            return original(x, *args)

        monkeypatch.setattr(lf.flow, "_run_flow", counting)
        return calls

    def test_noisy_torus_loop_takes_no_iterated_step(self, monkeypatch, rng):
        calls = self.spy(monkeypatch)
        x0 = noisy_config(T3, [1, 0, -1], 12, [0.2, 0.3, 0.4], rng, 0.02)
        for flow in (lf.descend, lf.birkhoff_shorten):
            assert flow(x0).status == "converged"
        assert calls == []

    @given(
        family=st.sampled_from(sorted(DR_FAMILIES)),
        k=st.integers(4, 16),
        u=st.floats(0.0, 1.0),
        v=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
        noise=st.floats(0.001, 0.03),
        method=st.sampled_from(["descend", "birkhoff"]),
        step=st.floats(0.01, 0.5),
        record_every=st.integers(1, 3),
        max_iters=st.sampled_from([1, 2, 17, 120, 5000]),
        factor=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_doubled_rectangle_agrees_with_the_iterated_flow(self, family, k, u, v, seed, noise,
                                                             method, step, record_every,
                                                             max_iters, factor):
        x0 = dr_noisy_loop(family, k, u, v, np.random.default_rng(seed), noise)
        x0 = with_torus_factor(x0) if factor else x0
        params = lf.FlowParams(step=step, record_every=record_every, max_iters=max_iters)
        closed = lf.flow._closed_form_flow(x0, params, step if method == "descend" else 0.25,
                                           birkhoff=method == "birkhoff")
        iterated = (lf.flow._descend_iterated if method == "descend"
                    else lf.flow._birkhoff_iterated)(x0, params)
        trace = (lf.descend if method == "descend" else lf.birkhoff_shorten)(x0, params)
        if closed is None:
            assert (trace.energies, trace.grad_norms) == (iterated.energies, iterated.grad_norms)
        else:
            assert_traces_agree(closed, iterated, None)
            assert_traces_agree(trace, iterated, None)

    @given(
        rows=st.lists(st.tuples(st.floats(0.0, 4.0), st.floats(0.0, 2.0)), min_size=3,
                      max_size=8),
        method=st.sampled_from(["descend", "birkhoff"]),
        max_iters=st.sampled_from([30, 300]),
    )
    # the developed chain sweeps over a cone: a segment's minimizer moves to the
    # reflection sheet, and the closed form must stop certifying it
    @example(rows=[(1.2238427119769621, 1.6488784069816744), (1.964524828636553, 0.34861300821369734),
                   (1.010476646974666, 1.058702674336082), (1.9260824819110223, 1.9735687802926298),
                   (2.477843631891342, 1.2431719840338142), (0.20997095235204677, 0.135146064145794),
                   (1.208753237211503, 0.8956419938350315)],
             method="birkhoff", max_iters=30)
    @settings(max_examples=40, deadline=None)
    def test_doubled_rectangle_random_starts_agree(self, rows, method, max_iters):
        x0 = lf.Configuration(D21, D21.points_batch(D21._fold(np.array(rows))[0]))
        params = lf.FlowParams(max_iters=max_iters)
        closed = lf.flow._closed_form_flow(x0, params, 0.2 if method == "descend" else 0.25,
                                           birkhoff=method == "birkhoff")
        if closed is not None:
            iterated = (lf.flow._descend_iterated if method == "descend"
                        else lf.flow._birkhoff_iterated)(x0, params)
            assert_traces_agree(closed, iterated, None)

    @given(seed=st.integers(0, 2**32 - 1), cone=st.sampled_from([(2.0, 1.0), (0.0, 0.0), (4.0, 2.0)]))
    @settings(max_examples=20, deadline=None)
    def test_certified_segments_keep_every_move_clear_of_the_cones(self, seed, cone):
        # why the closed form checks no move: x_i moves inside the triangle
        # x_{i-1} x_i x_{i+1} (h <= 1/2), and certified segments keep every
        # cone out of it.  Points sit at radii 3e-10..1 from a cone, and the
        # neighbours often at nearly a right angle, where the certificate is tight
        rng = np.random.default_rng(seed)
        n = 5000

        def around(radius, angle):
            return np.array(cone) + radius[:, None] * np.c_[np.cos(angle), np.sin(angle)]

        turn = rng.uniform(0.0, 2 * np.pi, n)
        x = around(10 ** rng.uniform(-9.5, -0.3, n), turn)
        near_right = np.pi / 2 + 10 ** rng.uniform(-12, -1, n) * rng.choice([-1, 1], n)
        prev, after = (around(10 ** rng.uniform(-9.5, 0, n), turn + np.where(
            rng.random(n) < 0.5, side * near_right, rng.uniform(-np.pi, np.pi, n))) for side in (1, -1))
        certified = np.ones(n, dtype=bool)
        for a, b in ((prev, x), (x, after)):
            e0, _, length, unique = D21.segment_batch(a, b, 1e-9)
            certified &= unique & (np.abs(e0 * length[:, None] - (b - a)) <= 1e-9).all(axis=1)
        h = np.where(rng.random(n) < 0.5, 0.5, rng.uniform(0.0, 0.5, n))[:, None]
        near = D21._near_cone(x, h * (prev + after - 2.0 * x), CONE_CLEARANCE)
        assert certified.sum() > n // 50 and not (certified & near).any()

    def test_doubled_rectangle_loops_take_no_iterated_step(self, monkeypatch, rng):
        # as the benchmark's descent corpus samples them: k = 6, noise 0.02, and
        # the loop at least 0.4 from the edges it runs along
        calls = self.spy(monkeypatch)
        for family in ("vertical", "horizontal"):
            x0 = dr_noisy_loop(family, 6, rng.uniform(1 / 3, 2 / 3), rng.uniform(), rng, 0.02)
            for x in (x0, with_torus_factor(x0)):
                for flow in (lf.descend, lf.birkhoff_shorten):
                    assert flow(x).status == "converged"
        assert calls == []

    def test_doubled_rectangle_fallbacks_take_the_iterated_flow(self, monkeypatch, rng):
        calls = self.spy(monkeypatch)
        # the ties and the cone of ``test_doubled_rectangle_tie_and_cone_fall_back``
        tie = lf.configuration(D21, [[0.5, 0.5], [0.5, 0.5]], ["top", "bottom"])
        cone = lf.configuration(D21, [[2.0 - 1e-10, 1.0 - 2e-10], [1.5, 0.6], [1.0, 0.3]],
                                ["top", "top", "bottom"])
        collided = lf.configuration(D21, [[0.5, 0.3], [0.5, 0.3], [1.2, 0.6]], ["top"] * 3)
        loop = dr_noisy_loop("vertical", 6, 0.5, 0.5, rng, 0.02)
        cases = [(dr_cone_loop(6, 0.3), lf.FlowParams(max_iters=30)),
                 (tie, lf.FlowParams(max_iters=30)), (cone, lf.FlowParams(max_iters=30)),
                 (collided, lf.FlowParams(max_iters=3)), (loop, lf.FlowParams(step=0.6))]
        for x0, params in cases:
            trace = lf.descend(x0, params)
            assert calls == [x0]
            assert trace.energies[-1] < trace.energies[0]
            calls.clear()

    def test_fallbacks_take_the_iterated_flow(self, monkeypatch, rng):
        calls = self.spy(monkeypatch)
        # round a cone: the developed chain closes by a reflection
        dr = dr_cone_loop(6, 0.3)
        with_factor = with_torus_factor(dr)
        noisy = noisy_config(TREC, [1, 1], 8, [0.6, 0.1], rng, 0.02)
        cut = cut_start(TREC, [1, 2], [0.125, 0.0625], 0.0, None)
        p = TREC.point([0.2, 0.2])
        collided = lf.Configuration(TREC, (p, p, TREC.point([0.7, 0.4])))
        cases = [(dr, lf.FlowParams()), (with_factor, lf.FlowParams()),
                 (noisy, lf.FlowParams(step=0.6)), (cut, lf.FlowParams()),
                 (collided, lf.FlowParams(max_iters=3))]
        for x0, params in cases:
            trace = lf.descend(x0, params)
            assert calls == [x0]
            assert trace.energies[-1] < trace.energies[0]
            calls.clear()
        assert lf.birkhoff_shorten(cut).status == "converged" and calls == [cut]
        calls.clear()
        # a, b, a, c: the first midpoint sweep puts two midpoints on a
        a, b, c = TREC.point([0.2, 0.2]), TREC.point([0.4, 0.3]), TREC.point([0.5, 0.6])
        back = lf.Configuration(TREC, (a, b, a, c))
        assert lf.birkhoff_shorten(back, lf.FlowParams(max_iters=3)).nudges
        assert calls == [back]
        calls.clear()
        lf.descend(back)
        assert calls == []

    def test_a_failed_check_restarts_the_iterated_flow_from_the_start(self, monkeypatch):
        # float energies cannot strictly decrease forever: the closed form
        # meets a step that does not decrease, where descend would backtrack
        calls = self.spy(monkeypatch)
        _, x = straight_config(TREC, [1, 0], 3, [0.2, 0.5])
        pts = list(x.points)
        pts[0] = TREC.point(pts[0].coords + np.array([1e-11, 0.0]))
        x0 = lf.Configuration(TREC, tuple(pts))
        params = lf.FlowParams(grad_tol=1e-300, energy_tol=0.0, max_iters=500)
        assert lf.flow._closed_form_flow(x0, params, params.step) is None
        trace = lf.descend(x0, params)
        assert calls == [x0]
        assert trace.status == "error"

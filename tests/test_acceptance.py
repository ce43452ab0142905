"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -v -s``."""

import itertools
import math
from contextlib import contextmanager

import numpy as np
from conftest import circulant_hessian_eigenvalues

import loopflow as lf

TREC = lf.FlatTorus([1.0, 0.75])
T3 = lf.FlatTorus([1.0, 0.8125, 1.375])
D21 = lf.DoubledRectangle(2.0, 1.0)


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL", flush=True)
        raise
    print(f"ACCEPTANCE {label}: PASS", flush=True)


def evenly_spaced(space, klass, k, base):
    g = lf.torus_class_geodesic(space, space.point(base), klass)
    return lf.Configuration(space, tuple(lf.point_at(g, 2 * math.pi * i / k) for i in range(k)))


def over_under_loop():
    return lf.segment_loop_geodesic(D21, D21.point([0.5, 0.5], "top"), [0.0, 1.0], 2.0)


def test_c01_doubled_rectangle_one_sided_derivative():
    """A tied second minimizer between antipodal loop points gives -2."""
    with criterion("C1 doubled-rectangle derivative value -2"):
        g = over_under_loop()
        # brute-force search along the loop for a pair with an extra minimizer
        found = None
        for j in range(128):
            t = 2 * math.pi * j / 128
            p, q = lf.point_at(g, t), lf.point_at(g, t + math.pi)
            segs = D21.minimizing_geodesics(p, q)
            if len(segs) >= 3:
                found = (t, p, q, segs)
                break
        assert found is not None
        t0, p, q, segs = found
        extra = [s for s in segs if s.lift[0] == 1]
        assert extra, "expected a minimizer through the involution sheet"
        eta = extra[0]
        value = lf.dplus_distance(D21, p, q, eta.v0, -eta.v1)
        assert abs(value - (-2.0)) <= 1e-9


def test_c02_candidate_set_of_the_four_point_configuration():
    """15 distinct candidates matching the alternating-vertical catalogue."""
    with criterion("C2 four-point candidate catalogue"):
        x = evenly_spaced(TREC, [1, 2], 4, [0.125, 0.0625])
        cands = lf.candidate_gradients(x)
        assert len(cands) == 15

        j = np.array([0.0, 1.0])
        z = np.zeros(2)
        patterns = [np.zeros(8)]
        for sign in (1, -1):
            for pat in (
                (j, -j, z, z),
                (z, j, -j, z),
                (z, z, j, -j),
                (-j, z, z, j),
                (j, -j, j, -j),
                (j, z, -j, z),
                (z, j, z, -j),
            ):
                patterns.append(sign * np.concatenate(pat))

        # one common positive scalar relates magnitudes to the unit patterns
        top = max(cands, key=lambda c: c.magnitude)
        scale = top.magnitude / 2.0
        assert scale > 0
        matched = set()
        for c in cands:
            vec = c.stacked() / scale
            hits = [i for i, pat in enumerate(patterns) if np.allclose(vec, pat, atol=1e-9)]
            assert len(hits) == 1
            matched.add(hits[0])
        assert matched == set(range(15))

        alternating = np.concatenate([j, -j, j, -j])
        g = lf.gradient_like(x)
        assert np.allclose(np.abs(g.stacked() / scale), np.abs(alternating), atol=1e-9)
        assert any(
            np.allclose(g.stacked() / scale, s * alternating, atol=1e-9) for s in (1, -1)
        )
        both = lf.gradient_like_all(x)
        assert len(both) == 2


def test_c03_restart_improves_the_one_two_class():
    """Restarting the (1,2)-class loop yields minimizing index 2 < 4 at
    every perturbation size in {1%, 5%, 10%} of the shortest period."""
    with criterion("C3 restart headline (1,2) -> index 2"):
        for factor in (0.01, 0.05, 0.1):
            g = lf.torus_class_geodesic(TREC, TREC.point([0.125, 0.0625]), [1, 2])
            params = lf.FlowParams(perturb_eps=factor * TREC.min_scale())
            report = lf.restart_step(g, params)
            assert report.before_minind == 4
            assert report.status == "improved"
            assert report.after_minind == 2
            assert report.after_minind < report.before_minind


def test_c04_minimizing_index_closed_form():
    """Sampled index equals twice the largest class entry, all small classes."""
    with criterion("C4 closed-form minimizing index"):
        for n in (1, 2, 3):
            space = lf.FlatTorus(np.array([1.0, 0.8125, 1.375])[:n])
            base = np.array([0.1, 0.2, 0.3])[:n]
            for klass in itertools.product(range(-3, 4), repeat=n):
                if not any(klass):
                    continue
                g = lf.torus_class_geodesic(space, space.point(base), klass)
                assert lf.minimizing_index(g) == 2 * max(abs(m) for m in klass)


def test_c05_product_law():
    """Product index equals the maximum of the factor indices, 50 instances."""
    with criterion("C5 product law over 50 instances"):
        rng = np.random.default_rng(11)
        for _ in range(50):
            nf = int(rng.integers(2, 4))
            factors, factor_geods, classes = [], [], []
            for _ in range(nf):
                dim = int(rng.integers(1, 3))
                periods = rng.uniform(0.6, 1.5, size=dim)
                space = lf.FlatTorus(periods)
                while True:
                    klass = rng.integers(-2, 3, size=dim)
                    if np.any(klass):
                        break
                base = rng.uniform(0, periods)
                factors.append(space)
                classes.append(klass)
                factor_geods.append(lf.torus_class_geodesic(space, space.point(base), klass))
            product = lf.Product(factors)
            base = np.concatenate([g.base.coords for g in factor_geods])
            joint = lf.torus_class_geodesic(product, product.point(base), np.concatenate(classes))
            expected = max(lf.minimizing_index(g) for g in factor_geods)
            assert lf.minimizing_index(joint) == expected


def _clean_segments(space, pts, gap=1e-3):
    """True when every consecutive pair is either uniquely minimized or
    exactly tied, with no near-ties inside the finite-difference margin."""
    k = len(pts)
    for i in range(k):
        p, q = pts[i], pts[(i + 1) % k]
        if space.distance(p, q) < 0.15:
            return False
        strict = len(space.minimizing_geodesics(p, q, tol=1e-9))
        loose = len(space.minimizing_geodesics(p, q, tol=gap))
        if strict != loose:
            return False
    return True


def _draw_direction(rng, x, min_scale=0.25):
    for _ in range(40):
        vecs = rng.standard_normal((x.k, x.space.dim))
        vecs /= np.linalg.norm(vecs)
        v = lf.ConfigTangent.of(x, vecs)
        if abs(lf.dplus_uniform_energy(x, v)) >= min_scale:
            return v
    raise AssertionError("no usable direction found")


def _fd_quotient(x, v, h):
    return (lf.uniform_energy(lf.exp_config(x, v, h)) - lf.uniform_energy(x)) / h


def test_c06_one_sided_derivative_vs_finite_differences():
    """Formula vs one-sided quotients at h=1e-6, smooth and cut configurations."""
    with criterion("C6 derivative matches finite differences"):
        rng = np.random.default_rng(23)
        smooth = 0
        while smooth < 100:
            periods = rng.uniform(0.75, 1.5, size=2)
            space = lf.FlatTorus(periods)
            k = int(rng.integers(3, 6))
            pts = [space.point(rng.uniform(0, periods)) for _ in range(k)]
            if not _clean_segments(space, pts):
                continue
            if any(
                len(space.minimizing_geodesics(pts[i], pts[(i + 1) % k])) != 1
                for i in range(k)
            ):
                continue
            x = lf.Configuration(space, tuple(pts))
            v = _draw_direction(rng, x)
            formula = lf.dplus_uniform_energy(x, v)
            quotient = _fd_quotient(x, v, 1e-6)
            assert abs(formula - quotient) <= 1e-4 * abs(quotient)
            smooth += 1

        cut = 0
        while cut < 100:
            periods = rng.uniform(0.75, 1.5, size=2)
            space = lf.FlatTorus(periods)
            k = int(rng.integers(3, 6))
            coords = [rng.uniform(0, periods)]
            snapped = 0
            for i in range(1, k):
                disp = rng.uniform(-0.3, 0.3, size=2) * periods
                if rng.random() < 0.5 or (i == k - 1 and snapped == 0):
                    j = int(rng.integers(2))
                    disp[j] = periods[j] / 2.0
                    snapped += 1
                coords.append(coords[-1] + disp)
            pts = [space.point(c) for c in coords]
            if not _clean_segments(space, pts):
                continue
            x = lf.Configuration(space, tuple(pts))
            if all(
                len(space.minimizing_geodesics(pts[i], pts[(i + 1) % k])) < 2
                for i in range(k)
            ):
                continue
            v = _draw_direction(rng, x)
            formula = lf.dplus_uniform_energy(x, v)
            quotient = _fd_quotient(x, v, 1e-6)
            assert formula <= quotient + 1e-6
            assert abs(formula - quotient) <= 1e-4 * max(1.0, abs(quotient))
            cut += 1


def test_c07_zero_candidate_biconditional():
    """An associated closed geodesic exists exactly when the zero vector is a
    candidate gradient: 50 critical and 50 non-critical configurations."""
    with criterion("C7 associated-geodesic biconditional"):
        rng = np.random.default_rng(37)
        cases = []
        while len(cases) < 50:
            n = int(rng.integers(1, 4))
            periods = rng.uniform(0.6, 1.5, size=n)
            space = lf.FlatTorus(periods)
            klass = rng.integers(-2, 3, size=n)
            if not np.any(klass):
                continue
            k = 2 * int(np.max(np.abs(klass))) + int(rng.integers(0, 3))
            if k < 2:
                continue
            x = evenly_spaced(space, klass, k, rng.uniform(0, periods))
            cases.append((x, True))
        while len(cases) < 100:
            n = int(rng.integers(1, 4))
            periods = rng.uniform(0.6, 1.5, size=n)
            space = lf.FlatTorus(periods)
            klass = rng.integers(-2, 3, size=n)
            if not np.any(klass):
                continue
            k = 2 * int(np.max(np.abs(klass))) + int(rng.integers(0, 3))
            x = evenly_spaced(space, klass, k, rng.uniform(0, periods))
            pts = list(x.points)
            idx = int(rng.integers(k))
            v = rng.standard_normal(n)
            pts[idx] = space.exp_map(
                lf.Tangent(pts[idx], v / np.linalg.norm(v)), 0.1 * space.min_scale()
            )
            y = lf.Configuration(space, tuple(pts))
            cases.append((y, False))

        for x, expected in cases:
            zero_member = any(c.magnitude <= 1e-9 for c in lf.candidate_gradients(x, tol=1e-9))
            verdict = lf.has_associated_geodesic(x, tol=1e-9)
            assert verdict == zero_member == expected


def test_c08_slide_variation_index_transition():
    """Sliding the over-under loop: index 2 on one side, 3 on the other,
    negative one-sided derivative at the tied pair."""
    with criterion("C8 slide variation index transition"):
        var = lf.VariationSpec(
            geodesic=over_under_loop(),
            field=np.array([-1.0, 0.0]),
            s_max=0.1,
            steps=11,
            perpendicular=True,
        )
        profile = lf.variation_minind_profile(var)
        assert profile.k0 == 2
        assert profile.dplus is not None and profile.dplus < 0
        assert profile.dplus == -2.0 or abs(profile.dplus + 2.0) <= 1e-9
        assert profile.forward_index_jump is True
        for row in profile.rows:
            if row.s < 0:
                assert row.minind == 2
            elif row.s > 0:
                assert row.minind == 3
            else:
                assert row.minind == 2


def test_c09_translations_preserve_openly_one_fifth():
    """Translates of the (1,2)-class loop stay openly 1/5 across the range."""
    with criterion("C9 openly 1/5 preserved under translation"):
        g = lf.torus_class_geodesic(TREC, TREC.point([0.2, 0.4]), [1, 2])
        assert lf.is_openly_k_geodesic(g, 5)
        var = lf.VariationSpec(geodesic=g, field=np.array([0.3, 0.2]), s_max=0.25, steps=11)
        profile = lf.variation_minind_profile(var, k_hint=5)
        assert profile.openly_preserved is True
        assert all(r.openly for r in profile.rows)


def test_c10_flow_soundness_corpus():
    """20 seeded noisy starts: monotone energies, associated limits, and
    agreement between the two flows on the limit class."""
    with criterion("C10 flow soundness over 20 runs"):
        pool = ([1, 0], [0, 1], [1, 1], [1, -1], [1, 2])
        for seed in range(20):
            rng = np.random.default_rng(seed)
            periods = rng.uniform(0.8, 1.25, size=2)
            space = lf.FlatTorus(periods)
            klass = list(pool[int(rng.integers(len(pool)))])
            k = 2 * max(abs(m) for m in klass) + 2
            x = evenly_spaced(space, klass, k, rng.uniform(0, periods))
            pts = []
            for p in x.points:
                v = rng.standard_normal(2)
                pts.append(space.exp_map(lf.Tangent(p, v / np.linalg.norm(v)), 0.05 * space.min_scale()))
            x0 = lf.Configuration(space, tuple(pts))

            a = lf.descend(x0)
            b = lf.birkhoff_shorten(x0)
            assert a.status == "converged" and b.status == "converged"
            for trace in (a, b):
                assert all(
                    e1 >= e2 - 1e-14 for e1, e2 in zip(trace.energies, trace.energies[1:])
                )
                assert lf.has_associated_geodesic(trace.final, tol=10 * lf.FlowParams().grad_tol)
            assert np.array_equal(
                lf.classify_limit(a.final).klass, lf.classify_limit(b.final).klass
            )


def test_c11_hessian_index_and_nullity():
    """Smooth critical configurations: index 0, nullity = dimension, the
    perpendicular-null degeneracy flag set for dimension >= 2, and the
    circulant spectrum to 1e-9."""
    with criterion("C11 Hessian index/nullity at desk scale"):
        cases = [
            (TREC, [1, 0], 3, [0.3, 0.1]),
            (TREC, [1, 1], 4, [0.2, 0.6]),
            (T3, [1, 0, 0], 3, [0.1, 0.2, 0.3]),
            (T3, [0, 1, 1], 4, [0.5, 0.1, 0.9]),
        ]
        for space, klass, k, base in cases:
            x = evenly_spaced(space, klass, k, base)
            report = lf.hessian_index_nullity(x, zero_tol=1e-6)
            assert report.index == 0
            assert report.nullity == space.dim
            assert report.degenerate is (space.dim >= 2)
            want = circulant_hessian_eigenvalues(k, space.dim)
            assert np.allclose(report.eigenvalues, want, rtol=0, atol=1e-9)

"""Shared brute-force oracles and fixtures.

The oracles here deliberately avoid the library's own enumeration and
closed-form paths: distances come from explicit lattice scans, candidate
components from raw segment data, and Hessian spectra from the explicit
circulant quadratic form in the universal cover.  The gradient-like oracles
select from the exhaustive ``candidate_gradients`` listing, which the
library's transfer-matrix path never calls.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import settings

import loopflow as lf

# CI draws the same examples on every run, so a failure reproduces locally
# with ``--hypothesis-profile=ci``
settings.register_profile("ci", derandomize=True, deadline=None)


def brute_torus_distance(periods, p, q, radius=3):
    """Distance on a flat torus by scanning all lattice translates |lam| <= radius."""
    periods = np.asarray(periods, dtype=float)
    best = math.inf
    for lam in itertools.product(range(-radius, radius + 1), repeat=len(periods)):
        disp = np.asarray(q, dtype=float) - np.asarray(p, dtype=float) + np.array(lam) * periods
        best = min(best, float(np.linalg.norm(disp)))
    return best


def brute_torus_minimizers(periods, p, q, tol=1e-9, radius=3):
    """All minimizing displacements on a flat torus within tol of the minimum."""
    periods = np.asarray(periods, dtype=float)
    disps = []
    for lam in itertools.product(range(-radius, radius + 1), repeat=len(periods)):
        disp = np.asarray(q, dtype=float) - np.asarray(p, dtype=float) + np.array(lam) * periods
        disps.append((float(np.linalg.norm(disp)), tuple(disp)))
    dmin = min(d for d, _ in disps)
    return sorted(t for d, t in disps if d <= dmin + tol)


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
            best = min(best, float(np.linalg.norm(sheet + np.array(lam) * P - pc)))
    return best


def brute_double_minimizer_count(a, b, p_coords, p_face, q_coords, q_face, tol=1e-9, radius=3):
    P = np.array([2.0 * a, 2.0 * b])
    pc = double_embed(b, p_coords, p_face)
    qc = double_embed(b, q_coords, q_face)
    lengths = []
    for sheet in (qc, -qc):
        for lam in itertools.product(range(-radius, radius + 1), repeat=2):
            lengths.append(float(np.linalg.norm(sheet + np.array(lam) * P - pc)))
    dmin = min(lengths)
    return sum(1 for l in lengths if l <= dmin + tol)


def circulant_hessian_eigenvalues(k, n):
    """Eigenvalues of the loop-energy Hessian at a straight configuration:
    the cyclic second-difference form scaled by 2k, each with multiplicity n."""
    vals = []
    for m in range(k):
        vals.extend([2.0 * k * (2.0 - 2.0 * math.cos(2.0 * math.pi * m / k))] * n)
    return sorted(vals)


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
    best = min(cands, key=lambda c: (-c.magnitude, tuple(c.stacked())))
    ties = [c for c in cands if c.magnitude >= best.magnitude - magnitude_tol]
    ties.sort(key=lambda c: tuple(c.stacked()))
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

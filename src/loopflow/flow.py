"""Discrete negative gradient flow of the loop energy, and its restart.

The flow steps every configuration point against the gradient-like vector,
accepting a step only when the energy strictly decreases (with backtracking
halving otherwise).  At a closed geodesic the smooth gradient vanishes, but
if the loop carries cut pairs the gradient-like vector does not: perturbing
against it and reconnecting minimally restarts the flow, and on flat tori
the restarted flow never worsens the minimizing index.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .energy import (
    CandidateGradient,
    ConfigTangent,
    Configuration,
    exp_config,
    gradient_like,
    segment_geodesics,
    uniform_energy,
)
from .errors import GeometryError, NonGeodesicLimitError, ValidationError
from .geodesics import (
    TWO_PI,
    ClosedGeodesic,
    geodesic_from_chain,
    max_cut_pair,
    minimizing_index,
    point_at,
)
from .spaces import DEFAULT_TOL, Tangent, effective_periods

MIN_STEP = 1e-14
COLLIDE_TOL = 1e-12
NUDGE = 1e-9


@dataclass(frozen=True)
class FlowParams:
    """Knobs of the discrete flow; all values are in chart units."""

    step: float = 0.2
    max_iters: int = 5000
    grad_tol: float = 1e-6
    energy_tol: float = 1e-15
    perturb_eps: float | None = None  # default 0.05 * shortest period at use
    backtrack: float = 0.5
    record_every: int = 1
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        if self.step <= 0 or self.max_iters <= 0 or self.grad_tol <= 0:
            raise ValidationError("step, max_iters, grad_tol must be positive")
        if not (0.0 < self.backtrack < 1.0):
            raise ValidationError("backtrack must lie in (0, 1)")
        if self.energy_tol < 0 or self.record_every < 1 or self.tol <= 0:
            raise ValidationError("energy_tol, record_every, tol out of range")
        if self.perturb_eps is not None and self.perturb_eps <= 0:
            raise ValidationError("perturb_eps must be positive")


@dataclass(frozen=True, eq=False)
class FlowTrace:
    status: str  # converged | max_iters | error
    iterates: tuple[Configuration, ...]
    energies: tuple[float, ...]
    grad_norms: tuple[float, ...]
    iterations: int
    nudges: tuple[tuple[int, int], ...]
    record_every: int
    error: str | None = None

    @property
    def final(self) -> Configuration:
        return self.iterates[-1]


def _nudge_collisions(x: Configuration, iteration: int, log: list) -> Configuration:
    """Separate coincident consecutive points by a tiny slide along the
    previous segment so per-segment directions stay defined."""
    pts = list(x.points)
    k = len(pts)
    changed = False
    for i in range(k):
        if x.space.distance(pts[i], pts[(i + 1) % k]) <= COLLIDE_TOL:
            prev = pts[(i - 1) % k]
            if x.space.distance(prev, pts[i]) > COLLIDE_TOL:
                seg = x.space.minimizing_geodesics(prev, pts[i], tol=1e-9)[0]
                direction = seg.v1
            else:
                direction = np.zeros(x.space.dim)
                direction[0] = 1.0
            j = (i + 1) % k
            pts[j] = x.space.exp_map(Tangent(pts[j], direction), NUDGE)
            log.append((iteration, j))
            changed = True
    return Configuration(x.space, tuple(pts)) if changed else x


class _Recorder:
    def __init__(self, record_every: int):
        self.record_every = record_every
        self.iterates: list[Configuration] = []
        self.energies: list[float] = []
        self.grad_norms: list[float] = []

    def add(self, n: int, x: Configuration, energy: float, grad: float, force: bool = False):
        if force or n % self.record_every == 0:
            self.iterates.append(x)
            self.energies.append(energy)
            self.grad_norms.append(grad)


def descend(x0: Configuration, params: FlowParams = FlowParams()) -> FlowTrace:
    """Gradient-like descent with strict-decrease backtracking.

    Stops when the gradient-like magnitude falls below ``grad_tol``, when an
    accepted step decreases the energy by at most ``energy_tol``, or at
    ``max_iters``.  The step underflowing without any decrease is an error.
    """
    nudges: list = []
    x = _nudge_collisions(x0, 0, nudges)
    rec = _Recorder(params.record_every)
    energy = uniform_energy(x)
    step = params.step
    status, err = "max_iters", None
    n = 0
    while n < params.max_iters:
        x = _nudge_collisions(x, n, nudges)
        g = gradient_like(x, params.tol)
        rec.add(n, x, energy, g.magnitude)
        if g.magnitude <= params.grad_tol:
            status = "converged"
            break
        direction = ConfigTangent(tuple(-v for v in g.vecs))
        accepted = False
        while step >= MIN_STEP:
            trial = exp_config(x, direction, step)
            trial_energy = uniform_energy(trial)
            if trial_energy < energy:
                accepted = True
                break
            step *= params.backtrack
        if not accepted:
            status, err = "error", "step underflow without energy decrease"
            break
        decrease = energy - trial_energy
        x, energy = trial, trial_energy
        n += 1
        if decrease <= params.energy_tol:
            status = "converged"
            break
    if not rec.iterates or rec.iterates[-1] is not x:
        rec.add(n, x, energy, gradient_like(x, params.tol).magnitude, force=True)
    return FlowTrace(
        status=status,
        iterates=tuple(rec.iterates),
        energies=tuple(rec.energies),
        grad_norms=tuple(rec.grad_norms),
        iterations=n,
        nudges=tuple(nudges),
        record_every=params.record_every,
        error=err,
    )


def _chord_midpoints(x: Configuration, tol: float) -> list:
    """Midpoint of the minimizing geodesic of every consecutive pair
    (smallest lift descriptor on ties; coincident pairs keep their point)."""
    pts = list(x.points)
    k = len(pts)
    mids = []
    for i in range(k):
        a, b = pts[i], pts[(i + 1) % k]
        if x.space.distance(a, b) <= COLLIDE_TOL:
            mids.append(a)
            continue
        seg = x.space.minimizing_geodesics(a, b, tol=tol)[0]
        mids.append(x.space.exp_map(Tangent(a, seg.v0), seg.length / 2.0))
    return mids


def birkhoff_shorten(x0: Configuration, params: FlowParams = FlowParams()) -> FlowTrace:
    """Classical alternating midpoint shortening; an independent flow oracle.

    Each sweep replaces the configuration by the chord midpoints of its
    connecting minimizing geodesics, twice, so indices realign.  Both phases
    are energy non-increasing: a new chord is at most the two half-chords it
    replaces, and squares average convexly.
    """
    nudges: list = []
    x = _nudge_collisions(x0, 0, nudges)
    rec = _Recorder(params.record_every)
    energy = uniform_energy(x)
    status, err = "max_iters", None
    n = 0
    while n < params.max_iters:
        x = _nudge_collisions(x, n, nudges)
        g = gradient_like(x, params.tol)
        rec.add(n, x, energy, g.magnitude)
        if g.magnitude <= params.grad_tol:
            status = "converged"
            break
        mids = _chord_midpoints(x, params.tol)
        half = _nudge_collisions(Configuration(x.space, tuple(mids)), n, nudges)
        second = _chord_midpoints(half, params.tol)
        # rotate so x'_i sits between the chords around the original x_i
        second = second[-1:] + second[:-1]
        trial = Configuration(x.space, tuple(second))
        trial_energy = uniform_energy(trial)
        if trial_energy > energy + 1e-15:
            status, err = "error", "midpoint sweep increased the energy"
            break
        decrease = energy - trial_energy
        x, energy = trial, trial_energy
        n += 1
        if decrease <= params.energy_tol:
            status = "converged"
            break
    if not rec.iterates or rec.iterates[-1] is not x:
        rec.add(n, x, energy, gradient_like(x, params.tol).magnitude, force=True)
    return FlowTrace(
        status=status,
        iterates=tuple(rec.iterates),
        energies=tuple(rec.energies),
        grad_norms=tuple(rec.grad_norms),
        iterations=n,
        nudges=tuple(nudges),
        record_every=params.record_every,
        error=err,
    )


def classify_limit(x: Configuration, tol: float = 1e-4) -> ClosedGeodesic:
    """Extract the closed geodesic a flow limit sits on.

    Verifies the broken loop through the points is straight (no joint
    angles within tol) and, on torus backends, reads the homotopy class off
    the accumulated lift displacements.  The default tolerance matches flows
    stopped at the default ``grad_tol``: joint residuals scale like
    grad_tol / segment length, while genuinely broken joints are O(1).
    """
    try:
        seglists = segment_geodesics(x, tol=min(tol, 1e-9))
    except GeometryError as exc:
        raise NonGeodesicLimitError(f"limit has degenerate segments: {exc}") from exc
    chain = [segs[0] for segs in seglists]
    try:
        return geodesic_from_chain(x, chain, tol=tol)
    except (GeometryError, ValidationError) as exc:
        raise NonGeodesicLimitError(str(exc)) from exc


@dataclass(frozen=True, eq=False)
class RestartReport:
    """Before/after record of one gradient-like restart."""

    before: ClosedGeodesic
    before_minind: int
    configuration: Configuration | None
    direction: CandidateGradient | None
    perturb_eps: float | None
    trace: FlowTrace | None
    after: ClosedGeodesic | None
    after_minind: int | None
    status: str  # improved | unchanged | collapsed | no_restart | error


def restart_step(
    g: ClosedGeodesic,
    params: FlowParams = FlowParams(),
    samples: int | None = None,
    tol: float = DEFAULT_TOL,
) -> RestartReport:
    """Restart the flow at a closed geodesic via its gradient-like vector.

    Samples k = minimizing index points starting at the widest cut pair,
    perturbs them against the gradient-like direction by ``perturb_eps``,
    reconnects minimally (implicit in the energy), and descends.  The limit
    is classified and its minimizing index compared with the input's.

    Collapse to a contractible loop (a point) is reported as
    ``status="collapsed"`` with no after-geodesic.
    """
    if effective_periods(g.space) is None:
        raise ValidationError("the restart procedure runs on flat-torus backends")
    k = minimizing_index(g, samples, tol)
    cut = max_cut_pair(g, k, samples, tol)
    t0 = 0.0 if cut is None else cut.t
    pts = tuple(point_at(g, t0 + TWO_PI * i / k) for i in range(k))
    x = Configuration(g.space, pts)
    grad = gradient_like(x, tol)
    if grad.magnitude <= params.grad_tol:
        return RestartReport(
            before=g,
            before_minind=k,
            configuration=x,
            direction=grad,
            perturb_eps=None,
            trace=None,
            after=None,
            after_minind=None,
            status="no_restart",
        )
    eps = params.perturb_eps if params.perturb_eps is not None else 0.05 * g.space.min_scale()
    unit = ConfigTangent(tuple(-v / grad.magnitude for v in grad.vecs))
    x1 = exp_config(x, unit, eps)
    trace = descend(x1, params)
    if trace.status != "converged":
        return RestartReport(
            before=g,
            before_minind=k,
            configuration=x,
            direction=grad,
            perturb_eps=eps,
            trace=trace,
            after=None,
            after_minind=None,
            status="error",
        )
    limit = trace.final
    classify_tol = max(1e-4, 10.0 * params.grad_tol)
    try:
        after = classify_limit(limit, tol=classify_tol)
        after_minind = minimizing_index(after, samples, tol)
        status = "improved" if after_minind < k else "unchanged"
    except NonGeodesicLimitError:
        after, after_minind, status = None, None, "collapsed"
    return RestartReport(
        before=g,
        before_minind=k,
        configuration=x,
        direction=grad,
        perturb_eps=eps,
        trace=trace,
        after=after,
        after_minind=after_minind,
        status=status,
    )


def restart_until_stable(
    g: ClosedGeodesic,
    params: FlowParams = FlowParams(),
    max_rounds: int = 8,
    samples: int | None = None,
    tol: float = DEFAULT_TOL,
) -> list[RestartReport]:
    """Iterate restarts until the minimizing index stops decreasing, the
    class repeats twice, the flow collapses, or ``max_rounds`` is reached."""
    reports: list[RestartReport] = []
    current = g
    unchanged_streak = 0
    for _ in range(max_rounds):
        report = restart_step(current, params, samples, tol)
        reports.append(report)
        if report.status in ("no_restart", "collapsed", "error"):
            break
        if report.after_minind >= report.before_minind:
            break
        if (
            current.kind == "torus_class"
            and report.after.kind == "torus_class"
            and np.array_equal(current.klass, report.after.klass)
        ):
            unchanged_streak += 1
            if unchanged_streak >= 2:
                break
        else:
            unchanged_streak = 0
        current = report.after
    return reports


def sweep_perturbation(params: FlowParams, space) -> list[FlowParams]:
    """Parameter sets with perturbation sizes 1%, 5%, 10% of the shortest period."""
    scale = space.min_scale()
    return [replace(params, perturb_eps=f * scale) for f in (0.01, 0.05, 0.1)]

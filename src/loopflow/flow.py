"""Discrete negative gradient flow of the loop energy, and its restart.

The flow steps every configuration point against the gradient-like vector,
accepting a step only when the energy strictly decreases (with backtracking
halving otherwise).  At a closed geodesic the smooth gradient vanishes, but
if the loop carries cut pairs the gradient-like vector does not: perturbing
against it and reconnecting minimally restarts the flow, and on flat tori
the restarted flow never worsens the minimizing index.

``descend`` (at ``step`` <= 1/2) and ``birkhoff_shorten`` run in closed form
on every flat backend where the start chain, developed through the deck
signs of its segments, closes by a translation: always on tori and products
of tori, and on a doubled rectangle (or a product with one) when the start
crosses the reflection sheet an even number of times.  Every iterate must
pass the iterated flow's checks; anything else (a reflection round the loop,
a tie, a cone, a collision nudge, a larger step) runs the iterated flow,
which is also the closed form's test oracle.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .energy import (
    CandidateGradient,
    Configuration,
    _roll,
    energy_of_lengths,
    exp_config,
    gradient_like,
    segment_geodesics,
    smooth_gradient,
)
from .errors import (
    NONNEGATIVE,
    POSITIVE,
    GeometryError,
    NonGeodesicLimitError,
    ResourceLimitError,
    ValidationError,
    _real,
    check_rule,
    count_rule,
)
from .geodesics import (
    TWO_PI,
    ClosedGeodesic,
    _cover,
    geodesic_from_chain,
    max_cut_pair,
    minimizing_index,
)
from .spaces import DEFAULT_TOL, Tangent, effective_periods

MIN_STEP = 1e-14
COLLIDE_TOL = 1e-12
NUDGE = 1e-9
# a restart samples its loop at as many points as the minimizing index; a
# larger index raises ResourceLimitError before any point is built
MAX_RESTART_POINTS = 512


# what every flow parameter must be; shared by FlowParams and the CLI
FLOW_PARAM_RULES = {
    "step": POSITIVE,
    "max_iters": count_rule(1),
    "grad_tol": POSITIVE,
    "energy_tol": NONNEGATIVE,
    "perturb_eps": (lambda v: v is None or _real(v) and v > 0, "null or a finite number > 0"),
    "backtrack": (lambda v: _real(v) and 0 < v < 1, "a finite number in (0, 1)"),
    "record_every": count_rule(1),
    "tol": POSITIVE,
}


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
        for f in fields(self):
            check_rule(FLOW_PARAM_RULES[f.name], getattr(self, f.name), f.name)


@dataclass(frozen=True, eq=False)
class FlowTrace:
    status: str  # converged | max_iters | error
    energies: tuple[float, ...]
    grad_norms: tuple[float, ...]
    iterations: int
    nudges: tuple[tuple[int, int], ...]
    record_every: int
    error: str | None = None
    recorded: Callable[[int], Configuration] | None = None  # builds recorded iterate i

    @cached_property
    def iterates(self) -> tuple[Configuration, ...]:
        """The recorded configurations, built when first read."""
        return tuple(map(self.recorded, range(len(self.energies))))

    @property
    def final(self) -> Configuration:
        return self.recorded(len(self.energies) - 1)


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


class _Iterate:
    """One flow iterate: a configuration and the ``segment_batch`` of its
    consecutive pairs.  Each operation gives the scalar path's bits; one
    that meets a tie or a collision takes the scalar path (``gradient_like``,
    ``_nudge_collisions``, ``_chord_midpoints``).  A move is one
    ``exp_config``, which raises ``DegenerateTrajectoryError`` through a cone."""

    def __init__(self, config: Configuration, tol: float):
        self.config, self.tol = config, tol
        self.e0, _, self.lengths, self.unique, self.v0, self.v1 = config.segment_batch(tol)

    @cached_property
    def energy(self) -> float:
        return energy_of_lengths(self.lengths.tolist())

    def nudged(self, n: int, log: list) -> "_Iterate":
        """The iterate after ``_nudge_collisions``."""
        if (self.lengths > COLLIDE_TOL).all():
            return self
        x = _nudge_collisions(self.config, n, log)
        return self if x is self.config else _Iterate(x, self.tol)

    def gradient(self) -> tuple[np.ndarray, float]:
        """Components (k, n) and magnitude of the gradient-like vector."""
        if self.unique.all() and self.lengths.all():
            return smooth_gradient(self.v0, self.v1, self.lengths)
        g = gradient_like(self.config, self.tol)
        return np.array(g.vecs), g.magnitude

    def moved(self, direction: np.ndarray, s: float) -> "_Iterate":
        """Every point moved along its row of ``direction`` for time s;
        ``DegenerateTrajectoryError`` when one runs through a cone."""
        return _Iterate(exp_config(self.config, direction, s), self.tol)

    def midpoints(self, rotate: bool = False) -> "_Iterate":
        """``_chord_midpoints``; with ``rotate`` the last midpoint comes first."""
        x, rows = self.config, None
        if self.unique.all() and (self.lengths > COLLIDE_TOL).all():
            rows = x.space.step_batch(x.cover, (self.lengths / 2.0)[:, None] * self.e0)
        if rows is None:
            mids = _chord_midpoints(x, self.tol)
            mids = mids[-1:] + mids[:-1] if rotate else mids
            return _Iterate(Configuration(x.space, mids), self.tol)
        if rotate:
            rows = [None if r is None else _roll(r, 1) for r in rows]
        return _Iterate(Configuration.of_rows(x.space, *rows), self.tol)


def _run_flow(x0: Configuration, params: FlowParams, advance) -> FlowTrace:
    """The loop shared by the flows.  Each iteration nudges collisions,
    records, stops once the gradient-like magnitude is at most ``grad_tol``,
    and otherwise asks ``advance(iterate, gradient, energy, n, nudges)`` for
    ``(trial, error)``.  It stops on an error, at ``max_iters``, or after a
    step that decreased the energy by at most ``energy_tol``."""
    nudges: list = []
    it = _Iterate(_nudge_collisions(x0, 0, nudges), params.tol)
    energy = it.energy
    rec: list = []
    status, err = "max_iters", None
    n = 0
    while n < params.max_iters:
        it = it.nudged(n, nudges)
        grad, magnitude = it.gradient()
        if n % params.record_every == 0:
            rec.append((it, energy, magnitude))
        if magnitude <= params.grad_tol:
            status = "converged"
            break
        trial, err = advance(it, grad, energy, n, nudges)
        if err is not None:
            status = "error"
            break
        decrease = energy - trial.energy
        it, energy = trial, trial.energy
        n += 1
        if decrease <= params.energy_tol:
            status = "converged"
            break
    if not rec or rec[-1][0] is not it:
        rec.append((it, energy, it.gradient()[1]))
    return FlowTrace(
        status=status,
        recorded=lambda i, its=tuple(r[0] for r in rec): its[i].config,
        energies=tuple(r[1] for r in rec),
        grad_norms=tuple(r[2] for r in rec),
        iterations=n,
        nudges=tuple(nudges),
        record_every=params.record_every,
        error=err,
    )


def _closed_form_flow(x0: Configuration, params: FlowParams, h: float,
                      birkhoff: bool = False) -> FlowTrace | None:
    """The flow of step h in closed form, or None where it does not apply.

    The start chain is developed into the cover: segment i's nearest-lift
    cover displacement, turned by the deck signs (``segment_batch``'s
    ``sign``; -1 per coordinate on a doubled rectangle's reflection sheet)
    of the segments before it, gives displacements d_i of one broken line.
    When the signs of all k segments multiply to +1 in every coordinate the
    line closes by a translation, and a step maps d_i to h d_{i-1} + (1 - 2h)
    d_i + h d_{i+1}, diagonal in the DFT basis.  Every iterate must pass the
    iterated path's checks, made on its developed rows: each d_i (and each
    Birkhoff half-sweep chord) is the displacement of its pair's certified
    unique minimizer, longer than COLLIDE_TOL, clear of every cone; and the
    energy falls beyond rounding (Birkhoff: rises <= 1e-15).  The moves need
    no cone check of their own: a certified segment x_{i-1} x_i beats the
    lift of x_i reflected through any cone c, so (x_{i-1} - c).(x_i - c) > 0;
    with the same at x_{i+1}, c lies outside the triangle x_{i-1} x_i x_{i+1},
    which holds the move of x_i for h <= 1/2."""
    space, tol = x0.space, params.tol
    if not MIN_STEP <= h <= 0.5:
        return None
    # a torus has no cone and its deck transforms are translations: no pair
    # needs the developed rows, and every segment's sign is +1
    torus = effective_periods(space) is not None
    cover = x0.cover
    ahead = _roll(cover, -1)
    k, dim = cover.shape
    sign = np.ones_like(cover) if torus else space.segment_batch(cover, ahead, tol)[1]
    turn = np.cumprod(np.concatenate((np.ones((1, dim)), sign)), axis=0)
    if (turn[-1] < 0).any():  # the line closes by a reflection
        return None
    d0 = sign * ahead - cover
    d0 = turn[:-1] * (d0 - space.cover_periods * np.round(d0 / space.cover_periods))
    spec = np.fft.rfft(d0, axis=0)
    lam = 1.0 - 4.0 * h * np.sin(np.pi * np.arange(len(spec)) / k) ** 2

    def developed(first, d):
        # rows (B, k, n) of the iterates with displacements d whose point 0 is at first
        steps = np.concatenate((np.zeros_like(d[:, :1]), np.cumsum(d[:, :-1], axis=1)), axis=1)
        return first[:, None] + steps

    def certified(x, d):
        """Per iterate: is every d_i, from its row of x, the displacement
        (within tol) of its pair's one minimizer, longer than COLLIDE_TOL?
        And the lengths (B, k).  On a torus (x None) pairs start at 0."""
        D = d.reshape(-1, dim)
        if x is None:  # convex steps keep |d| below half a period: its nearest lift is d itself
            e0, _, length, unique = space.segment_batch(np.zeros_like(D), D, tol)
        else:
            A = x.reshape(-1, dim)
            e0, _, length, unique = space.segment_batch(A, A + D, tol)
            unique &= (np.abs(e0 * length[:, None] - D) <= tol).all(axis=1)  # NaN compares False
        ok = (unique & (length > COLLIDE_TOL)).reshape(d.shape[:2]).all(axis=1)
        return ok, length.reshape(d.shape[:2])

    def build(i):
        if not ns[i]:
            return x0
        d = np.fft.irfft(lam[:, None] ** ns[i] * spec, k, axis=0)
        x = developed(firsts[i:i + 1], d[None])[0]
        # the step by zero gives the points' canonical rows
        return Configuration.of_rows(space, *space.step_batch(x, np.zeros_like(x)))

    # |g^n| <= rho^n |g^0| sizes the first block; a block holds about 1 MB at most
    rho, g0 = np.abs(lam[1:]).max(initial=0.0), np.linalg.norm(_roll(d0, 1) - d0)
    size = 2 + max(0, int(np.log(params.grad_tol / g0) / np.log(rho))) if g0 > 0 < rho < 1 else 2
    cap, n0, walked, rec = max(1, (1 << 17) // (k * dim) - 1), 0, np.zeros((1, dim)), []
    while True:
        ns = np.arange(n0, min(n0 + min(size, cap), params.max_iters) + 1)
        d = np.fft.irfft(lam[None, :, None] ** ns[:, None, None] * spec, k, axis=1)
        d[0] = d0 if n0 == 0 else d[0]
        g = _roll(d, 1, axis=1) - d
        # point 0 moves against its gradient rows; the others follow from d
        walked = walked[-1] + np.concatenate((np.zeros((1, dim)), np.cumsum(g[:-1, 0], axis=0)))
        first = cover[0] - h * walked
        x = None if torus else developed(first, d)
        ok, length = certified(x, d)
        energy = k * (length * length).sum(axis=1)
        mag = np.sqrt(np.einsum("bkn,bkn->b", g, g))
        settled = mag[:-1] <= params.grad_tol
        rise = energy[1:] - energy[:-1]
        # a decrease within rounding is left to the iterated path's backtracking
        rose = rise > 1e-15 if birkhoff else rise >= -1e-13 * energy[:-1]
        if birkhoff:  # and the half-sweep chords
            mids = None if x is None else x[:-1] + d[:-1] / 2.0
            rose |= ~certified(mids, (d[:-1] + _roll(d[:-1], -1, axis=1)) / 2.0)[0]
        bad = ~ok[:-1] | ~settled & rose
        flat = ~settled & (-rise <= params.energy_tol)
        stops = np.flatnonzero(bad | settled | flat | (ns[:-1] + 1 == params.max_iters))
        last = stops[0] if stops.size else len(ns) - 2
        keep = np.flatnonzero(ns[:last + 1] % params.record_every == 0)
        end = last if settled[last] else last + 1
        if stops.size and end not in keep:
            keep = np.append(keep, end)
        rec.append((ns[keep], energy[keep], mag[keep], first[keep]))
        if stops.size:
            break
        n0, size = ns[-1], 2 * size
    if bad[last] or not ok[end]:
        return None
    ns, energies, mags, firsts = (np.concatenate(c) for c in zip(*rec))
    return FlowTrace(status="converged" if settled[last] or flat[last] else "max_iters",
                     energies=tuple(energies.tolist()), grad_norms=tuple(mags.tolist()),
                     iterations=int(ns[-1]), nudges=(), record_every=params.record_every,
                     recorded=build)


def descend(x0: Configuration, params: FlowParams = FlowParams()) -> FlowTrace:
    """Gradient-like descent with strict-decrease backtracking.

    Stops when the gradient-like magnitude falls below ``grad_tol``, when an
    accepted step decreases the energy by at most ``energy_tol``, or at
    ``max_iters``.  The step underflowing without any decrease is an error.
    At ``step`` <= 1/2 it runs in closed form where the developed start
    chain closes by a translation and every iterate is certified
    (``_closed_form_flow``): on tori, and on doubled-rectangle starts that
    cross the reflection sheet an even number of times.
    """
    return _closed_form_flow(x0, params, params.step) or _descend_iterated(x0, params)


def _descend_iterated(x0: Configuration, params: FlowParams) -> FlowTrace:
    """``descend`` one step at a time: what it runs where the closed form
    does not apply, and its oracle."""
    step = params.step

    def advance(it, grad, energy, n, nudges):
        nonlocal step
        direction = -grad
        while step >= MIN_STEP:
            trial = it.moved(direction, step)
            if trial.energy < energy:
                return trial, None
            step *= params.backtrack
        return None, "step underflow without energy decrease"

    return _run_flow(x0, params, advance)


def birkhoff_shorten(x0: Configuration, params: FlowParams = FlowParams()) -> FlowTrace:
    """Classical alternating midpoint shortening.

    Each sweep replaces the configuration by the chord midpoints of its
    connecting minimizing geodesics, twice, so indices realign.  Both phases
    are energy non-increasing: a new chord is at most the two half-chords it
    replaces, and squares average convexly.  Where the developed start chain
    closes by a translation (tori, and doubled-rectangle starts that cross
    the reflection sheet an even number of times) the two sweeps are one
    ``descend`` step of size 1/4, run in closed form where they can.
    """
    return _closed_form_flow(x0, params, 0.25, birkhoff=True) or _birkhoff_iterated(x0, params)


def _birkhoff_iterated(x0: Configuration, params: FlowParams) -> FlowTrace:
    """``birkhoff_shorten`` one sweep at a time: what it runs where the
    closed form does not apply, and its oracle."""

    def advance(it, grad, energy, n, nudges):
        # rotate so x'_i sits between the chords around the original x_i
        trial = it.midpoints().nudged(n, nudges).midpoints(rotate=True)
        if trial.energy > energy + 1e-15:
            return None, "midpoint sweep increased the energy"
        return trial, None

    return _run_flow(x0, params, advance)


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
    status: str  # improved | unchanged | worse | collapsed | no_restart | error
    perturb_eps: float | None = None
    trace: FlowTrace | None = None
    after: ClosedGeodesic | None = None
    after_minind: int | None = None


def restart_step(
    g: ClosedGeodesic,
    params: FlowParams = FlowParams(),
    tol: float = DEFAULT_TOL,
) -> RestartReport:
    """Restart the flow at a closed geodesic via its gradient-like vector.

    Samples k = minimizing index points starting at the widest cut pair,
    perturbs them against the gradient-like direction by ``perturb_eps``,
    reconnects minimally (implicit in the energy), and descends.  The limit
    is classified and its minimizing index compared with the input's.  An
    index above ``MAX_RESTART_POINTS`` raises ``ResourceLimitError``.

    Collapse to a contractible loop (a point) is reported as
    ``status="collapsed"`` with no after-geodesic.
    """
    if effective_periods(g.space) is None:
        raise ValidationError("the restart procedure runs on flat-torus backends")
    k = minimizing_index(g, tol)
    if k > MAX_RESTART_POINTS:
        raise ResourceLimitError(
            f"restart at index {k} exceeds MAX_RESTART_POINTS = {MAX_RESTART_POINTS}")
    cut = max_cut_pair(g, k, tol)
    t0 = 0.0 if cut is None else cut.t
    x = Configuration.of_rows(g.space, *_cover(g, t0 + TWO_PI * np.arange(k) / k))
    grad = gradient_like(x, tol)
    if grad.magnitude <= params.grad_tol:
        return RestartReport(g, k, x, grad, "no_restart")
    eps = params.perturb_eps if params.perturb_eps is not None else 0.05 * g.space.min_scale()
    x1 = exp_config(x, -np.array(grad.vecs) / grad.magnitude, eps)
    trace = descend(x1, params)
    if trace.status != "converged":
        return RestartReport(g, k, x, grad, "error", eps, trace)
    limit = trace.final
    classify_tol = max(1e-4, 10.0 * params.grad_tol)
    try:
        after = classify_limit(limit, tol=classify_tol)
        after_minind = minimizing_index(after, tol)
        status = "improved" if after_minind < k else "worse" if after_minind > k else "unchanged"
    except NonGeodesicLimitError:
        after, after_minind, status = None, None, "collapsed"
    return RestartReport(g, k, x, grad, status, eps, trace, after, after_minind)


def restart_until_stable(
    g: ClosedGeodesic,
    params: FlowParams = FlowParams(),
    max_rounds: int = 8,
    tol: float = DEFAULT_TOL,
) -> list[RestartReport]:
    """Iterate restarts from each round's limit until the minimizing index
    stops decreasing, a round ends other than ``improved`` (nothing to
    restart, a collapse or an error), or ``max_rounds`` is reached.  One
    round is ``[restart_step(g, params, tol)]``."""
    reports: list[RestartReport] = []
    current = g
    for _ in range(max_rounds):
        report = restart_step(current, params, tol)
        reports.append(report)
        if report.status != "improved":
            break
        current = report.after
    return reports

"""Span tracing of loopflow's layers from outside the library.

``Tracer.install()`` replaces the public functions of each layer, under every
module name that imports them (``energy.gradient_like`` and
``flow.gradient_like`` alike), and the public methods of the ``Space``
subclasses, with wrappers that record one span per call: name, start, end,
parent span, scenario id, thread and an optional size.  So calls made inside
the library are seen too.  Spans stay in memory; ``write_spans`` saves them
when the run ends, and ``layer_metrics`` turns them into per-layer numbers.

Spans opened on a ``sweep`` pool thread have no parent on that thread; they
attach to the open sweep span, so a sweep's self time is the time none of
its sub-scenarios was running.
"""

from __future__ import annotations

import threading
import time
from collections import Counter

# (module, attribute) -> span name.  Functions are wrapped wherever a module
# imported them under that attribute name.
FUNCTIONS = {
    ("energy", "candidate_gradients"): "energy.candgrad",
    ("energy", "gradient_like"): "energy.gradlike",
    ("energy", "gradient_like_all"): "energy.gradlike",
    ("energy", "uniform_energy"): "energy.uniform",
    ("energy", "loop_energy"): "energy.uniform",
    ("energy", "hessian_index_nullity"): "energy.hessian",
    ("energy", "dplus_distance"): "energy.dplus",
    ("energy", "dplus_uniform_energy"): "energy.dplus",
    ("geodesics", "minimizing_index"): "geodesics.minind",
    ("geodesics", "is_openly_k_geodesic"): "geodesics.openly",
    ("geodesics", "max_cut_pair"): "geodesics.cutpair",
    ("geodesics", "variation_minind_profile"): "geodesics.probe",
    ("flow", "descend"): "flow.descend",
    ("flow", "birkhoff_shorten"): "flow.birkhoff",
    ("flow", "restart_step"): "flow.restart",
    ("flow", "restart_until_stable"): "flow.restart",
    ("flow", "classify_limit"): "flow.classify",
    ("cli", "execute_scenario"): "cli.execute",
}
# counted, not spanned, so their time stays with the minimizing index
COUNTED = {("geodesics", "is_k_geodesic"): "geodesics.k_tested"}
# Space subclass methods -> span name
METHODS = {
    "minimizing_geodesics": "spaces.mingeo",
    "distance": "spaces.distance",
    "flow": "spaces.flow",
    "distance_batch": "spaces.batch",
    "min_count_batch": "spaces.batch",
    "line_batch": "spaces.batch",
}
SPACE_CLASSES = ("FlatTorus", "DoubledRectangle", "Product")
MODULES = ("spaces", "energy", "geodesics", "flow", "cli")


def _size(name: str, args, result):
    """What a span records about its call, read from arguments or result."""
    if name == "spaces.mingeo" or name == "energy.candgrad":
        return len(result)
    if name == "spaces.batch":
        return len(args[3]) if len(args) == 4 else len(args[1])  # rows
    if name in ("flow.descend", "flow.birkhoff"):
        return (result.iterations, len(result.nudges))
    if name == "flow.restart" and hasattr(result, "status"):
        return result.status
    return None


class Span:
    __slots__ = ("name", "start", "end", "parent", "scenario", "thread", "size", "error")

    def __init__(self, name, start, end, parent, scenario, thread, size=None, error=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.scenario = scenario
        self.thread = thread
        self.size = size
        self.error = error


class Tracer:
    """Collects spans from wrapped loopflow functions; one per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.scenario: str | None = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._sweep: int | None = None
        self._undo: list = []

    # -- recording ------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else self._sweep
        span = Span(name, time.perf_counter(), None, parent, self.scenario,
                    threading.get_ident())
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def close(self, index: int, size=None, error=None) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.size = size
        span.error = error
        self._stack().pop()

    def _wrap(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            span_name = name
            if name == "cli.execute" and isinstance(args[0], dict) and args[0].get("command") == "sweep":
                span_name = "cli.sweep"
            index = tracer.open(span_name)
            if span_name == "cli.sweep":
                tracer._sweep = index
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(index, error=type(exc).__name__)
                raise
            finally:
                if span_name == "cli.sweep":
                    tracer._sweep = None
            tracer.close(index, _size(span_name, args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def _counter(self, fn, name: str):
        tracer = self

        def counted(*args, **kwargs):
            with tracer._lock:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function under every module name, and the
        listed methods of the Space subclasses."""
        import importlib

        mods = {m: importlib.import_module(f"loopflow.{m}") for m in MODULES}
        mods["loopflow"] = importlib.import_module("loopflow")
        for table, make in ((FUNCTIONS, self._wrap), (COUNTED, self._counter)):
            for (home, attr), name in table.items():
                original = getattr(mods[home], attr)
                wrapped = make(original, name)
                for mod in mods.values():
                    if getattr(mod, attr, None) is original:
                        self._undo.append((mod, attr, original))
                        setattr(mod, attr, wrapped)
        for cls_name in SPACE_CLASSES:
            cls = getattr(mods["spaces"], cls_name)
            for attr, name in METHODS.items():
                if attr in vars(cls):
                    original = vars(cls)[attr]
                    self._undo.append((cls, attr, original))
                    setattr(cls, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- output ---------------------------------------------------------------

    def write_spans(self, fh) -> None:
        """One tab-separated line per span to the text file ``fh``: index,
        name, start, end, parent, scenario, thread, size, error."""
        fh.write("index\tname\tstart\tend\tparent\tscenario\tthread\tsize\terror\n")
        for i, s in enumerate(self.spans):
            fh.write(f"{i}\t{s.name}\t{s.start!r}\t{s.end!r}\t{s.parent}\t{s.scenario}\t"
                     f"{s.thread}\t{s.size}\t{s.error}\n")


# -- self time ---------------------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it covered by its children.

    Children on other threads (sweep sub-scenarios) may overlap each other,
    so the covered part is the union of the children's intervals, clipped to
    the parent's.
    """
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for lo, hi in sorted((spans[c].start, spans[c].end) for c in children[i]):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


# -- per-layer metrics ---------------------------------------------------------------

# name, unit, better.  Times and counts are per top-level scenario of the
# traced phase, so runs of different length compare.
PER_LAYER = [
    ("spaces.mingeo.calls", "1/scenario", "lower"),
    ("spaces.mingeo.self_ms", "ms/scenario", "lower"),
    ("spaces.mingeo.ties", "1/call", "lower"),
    ("spaces.distance.calls", "1/scenario", "lower"),
    ("spaces.distance.self_ms", "ms/scenario", "lower"),
    ("spaces.flow.calls", "1/scenario", "lower"),
    ("spaces.flow.self_ms", "ms/scenario", "lower"),
    ("spaces.batch.rows", "1/scenario", "lower"),
    ("spaces.batch.self_ms", "ms/scenario", "lower"),
    ("spaces.self_ms", "ms/scenario", "lower"),
    ("energy.candgrad.calls", "1/scenario", "lower"),
    ("energy.candgrad.self_ms", "ms/scenario", "lower"),
    ("energy.candidates", "1/scenario", "lower"),
    ("energy.tuples", "1/scenario", "lower"),
    ("energy.dedup_ratio", "ratio", "higher"),
    ("energy.uniform.calls", "1/scenario", "lower"),
    ("energy.uniform.self_ms", "ms/scenario", "lower"),
    ("energy.hessian.calls", "1/scenario", "lower"),
    ("energy.hessian.self_ms", "ms/scenario", "lower"),
    ("energy.self_ms", "ms/scenario", "lower"),
    ("geodesics.minind.calls", "1/scenario", "lower"),
    ("geodesics.minind.self_ms", "ms/scenario", "lower"),
    ("geodesics.minind.failed", "1/scenario", "lower"),
    ("geodesics.k_tested", "1/scenario", "lower"),
    ("geodesics.cutpair.self_ms", "ms/scenario", "lower"),
    ("geodesics.probe.self_ms", "ms/scenario", "lower"),
    ("geodesics.self_ms", "ms/scenario", "lower"),
    ("flow.iterations", "1/scenario", "lower"),
    ("flow.nudges", "1/scenario", "lower"),
    ("flow.trials", "1/scenario", "lower"),
    ("flow.accept_ratio", "ratio", "higher"),
    ("flow.descend.self_ms", "ms/scenario", "lower"),
    ("flow.birkhoff.self_ms", "ms/scenario", "lower"),
    ("flow.restart.self_ms", "ms/scenario", "lower"),
    ("flow.restart.improved", "ratio", "higher"),
    ("flow.self_ms", "ms/scenario", "lower"),
    ("cli.execute.self_ms", "ms/scenario", "lower"),
    ("cli.serialize_ms", "ms/scenario", "lower"),
    ("cli.report_bytes", "B/scenario", "lower"),
    ("cli.sweep.self_ms", "ms/scenario", "lower"),
    ("cli.self_ms", "ms/scenario", "lower"),
    ("trace.throughput_sps", "scenarios/s", "higher"),
    ("trace.untraced_sps", "scenarios/s", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
]
LAYERS = ("spaces", "energy", "geodesics", "flow", "cli")


def layer_metrics(spans: list[Span], counts: Counter, scenarios: int) -> dict:
    """Per-layer values (without the ``trace.*`` entries) from one traced phase.

    ``calls`` count the calls other code makes into a function: a span nested
    directly in a span of the same name (a product delegating to its factors)
    is not counted again, but its self time is.
    """
    selfs = self_times(spans)
    per = 1.0 / max(scenarios, 1)
    self_ms = Counter()
    calls = Counter()
    for i, s in enumerate(spans):
        self_ms[s.name] += 1000.0 * selfs[i]
        if s.parent is None or spans[s.parent].name != s.name:
            calls[s.name] += 1

    def outer(name):
        return [(i, s) for i, s in enumerate(spans)
                if s.name == name and (s.parent is None or spans[s.parent].name != name)]

    mingeo = [s.size for _, s in outer("spaces.mingeo") if s.size is not None]
    rows = sum(s.size for _, s in outer("spaces.batch") if s.size is not None)
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    candidates = tuples = 0
    for i, s in outer("energy.candgrad"):
        if s.size is None:
            continue
        candidates += s.size
        product = 1
        for c in children.get(i, []):
            if c.name == "spaces.mingeo" and c.size is not None:
                product *= c.size
        tuples += product
    flows = [s.size for s in spans if s.name in ("flow.descend", "flow.birkhoff") and s.size]
    descend_iters = sum(s.size[0] for s in spans if s.name == "flow.descend" and s.size)
    trials = sum(1 for s in spans if s.name == "energy.uniform" and s.parent is not None
                 and spans[s.parent].name == "flow.descend")
    statuses = [s.size for s in spans if s.name == "flow.restart" and isinstance(s.size, str)]
    serialize = [s for s in spans if s.name == "cli.serialize"]

    out = {
        "spaces.mingeo.calls": calls["spaces.mingeo"] * per,
        "spaces.mingeo.self_ms": self_ms["spaces.mingeo"] * per,
        "spaces.mingeo.ties": sum(mingeo) / len(mingeo) if mingeo else 0.0,
        "spaces.distance.calls": calls["spaces.distance"] * per,
        "spaces.distance.self_ms": self_ms["spaces.distance"] * per,
        "spaces.flow.calls": calls["spaces.flow"] * per,
        "spaces.flow.self_ms": self_ms["spaces.flow"] * per,
        "spaces.batch.rows": rows * per,
        "spaces.batch.self_ms": self_ms["spaces.batch"] * per,
        "energy.candgrad.calls": calls["energy.candgrad"] * per,
        "energy.candgrad.self_ms": self_ms["energy.candgrad"] * per,
        "energy.candidates": candidates * per,
        "energy.tuples": tuples * per,
        "energy.dedup_ratio": candidates / tuples if tuples else 0.0,
        "energy.uniform.calls": calls["energy.uniform"] * per,
        "energy.uniform.self_ms": self_ms["energy.uniform"] * per,
        "energy.hessian.calls": calls["energy.hessian"] * per,
        "energy.hessian.self_ms": self_ms["energy.hessian"] * per,
        "geodesics.minind.calls": calls["geodesics.minind"] * per,
        "geodesics.minind.self_ms": self_ms["geodesics.minind"] * per,
        "geodesics.minind.failed": sum(1 for _, s in outer("geodesics.minind") if s.error) * per,
        "geodesics.k_tested": counts["geodesics.k_tested"] * per,
        "geodesics.cutpair.self_ms": self_ms["geodesics.cutpair"] * per,
        "geodesics.probe.self_ms": self_ms["geodesics.probe"] * per,
        "flow.iterations": sum(f[0] for f in flows) * per,
        "flow.nudges": sum(f[1] for f in flows) * per,
        "flow.trials": trials * per,
        "flow.accept_ratio": descend_iters / trials if trials else 0.0,
        "flow.descend.self_ms": self_ms["flow.descend"] * per,
        "flow.birkhoff.self_ms": self_ms["flow.birkhoff"] * per,
        "flow.restart.self_ms": self_ms["flow.restart"] * per,
        "flow.restart.improved": statuses.count("improved") / len(statuses) if statuses else 0.0,
        "cli.execute.self_ms": self_ms["cli.execute"] * per,
        "cli.serialize_ms": 1000.0 * sum(s.end - s.start for s in serialize) * per,
        "cli.report_bytes": sum(s.size for s in serialize) * per,
        "cli.sweep.self_ms": self_ms["cli.sweep"] * per,
    }
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = sum(v for k, v in self_ms.items()
                                      if k.startswith(layer + ".")) * per
    return out

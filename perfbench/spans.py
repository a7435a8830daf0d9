"""Call spans around spectralgap's public functions and the per-layer metrics
derived from them.

The tracer replaces each traced function under every name a spectralgap
module binds it to: ``pipeline`` looks ``discretize.build_grid`` and
``eigensolve.smallest_pairs`` up as module attributes, ``attainable`` and
``cli`` bind ``solve_domain`` by name, ``testfn`` binds ``quad_adaptive``
and ``quad_nested_2d`` by name, ``quad_nested_2d`` reaches
``quad_adaptive`` through its own module global, and ``discretize`` binds
``geometry.contains`` by name.  A wrapper installed under one name only
would never fire for callers that use another.  Nothing under ``src/``
changes; :meth:`Tracer.uninstall` puts every original back.

README.md maps each layer metric to the end-to-end metric it should move
and the workload it moves on; ``ACTIVE`` below is that map as a gate.
"""

import functools
import importlib
import pkgutil
import time
from statistics import median, median_low

# metric prefix -> (module that defines the function, attribute name)
TRACED = {
    "analytic.ball_spectrum": ("analytic", "ball_spectrum"),
    "discretize.contains": ("geometry", "contains"),
    "discretize.build_grid": ("discretize", "build_grid"),
    "discretize.assemble": ("discretize", "assemble"),
    "discretize.prolong": ("discretize", "prolong"),
    "discretize.extrapolate_three": ("discretize", "extrapolate_three"),
    "eigensolve.smallest_pairs": ("eigensolve", "smallest_pairs"),
    "pipeline.solve_domain": ("pipeline", "solve_domain"),
    "quadrature.quad_adaptive": ("quadrature", "quad_adaptive"),
    "quadrature.quad_nested_2d": ("quadrature", "quad_nested_2d"),
    "testfn.lemma1_rayleigh": ("testfn", "lemma1_rayleigh"),
    "testfn.lemma2_rayleigh": ("testfn", "lemma2_rayleigh"),
    "attainable.sweep": ("attainable", "sweep"),
    "asymptotics.verify_theorem": ("asymptotics", "verify_theorem"),
    "cli.main": ("cli", "main"),
}

# counters read from each traced function's return value
COUNTERS = {
    "discretize.contains": lambda r: {"points": getattr(r, "size", 1)},
    "discretize.build_grid": lambda r: {"nodes": r.n},
    "discretize.assemble": lambda r: {"nnz": getattr(r, "matrix", r).nnz},
    "discretize.extrapolate_three": lambda r: {"monotone": int(bool(r.monotone))},
    "eigensolve.smallest_pairs": lambda r: {"outer_iters": sum(r.iterations)},
    # a 15-point Kronrod rule per panel, and two new panels per bisection
    "quadrature.quad_adaptive": lambda r: {"panels": r.panels,
                                           "nodes": 15 * max(2 * r.panels - 1, 0)},
    "attainable.sweep": lambda r: {"records": len(r),
                                   "failed_records": sum(x.failure is not None for x in r)},
}

# functions that must run in a traced pass of each workload; every other
# traced function must not run there.  analytic.ball_spectrum is counted on
# the set-up spans instead, since passes reach it only through its cache.
GRID = {"discretize.contains", "discretize.build_grid", "discretize.assemble",
        "discretize.prolong", "discretize.extrapolate_three",
        "eigensolve.smallest_pairs", "pipeline.solve_domain"}
BOUNDS = {"quadrature.quad_adaptive", "quadrature.quad_nested_2d",
          "testfn.lemma1_rayleigh", "testfn.lemma2_rayleigh"}
SETUP = {"analytic.ball_spectrum"}
ACTIVE = {
    "grid_disc": SETUP | GRID,
    "verify_coarse": SETUP | GRID | BOUNDS | {"attainable.sweep", "asymptotics.verify_theorem",
                                               "cli.main"},
    "bounds_dense": SETUP | BOUNDS,
}

# per-layer metric name -> unit, in the order they are printed
LAYER_UNITS = {
    "eigensolve.smallest_pairs.s": "s",
    "eigensolve.smallest_pairs.calls": "count",
    "eigensolve.smallest_pairs.outer_iters": "count",
    "eigensolve.smallest_pairs.finest_s": "s",
    "eigensolve.smallest_pairs.failures": "count",
    "discretize.build_grid.s": "s",
    "discretize.build_grid.nodes": "count",
    "discretize.contains.points": "count",
    "discretize.contains.s": "s",
    "discretize.assemble.s": "s",
    "discretize.assemble.nnz": "count",
    "discretize.prolong.s": "s",
    "discretize.extrapolate_three.calls": "count",
    "discretize.extrapolate_three.monotone_frac": "fraction",
    "pipeline.solve_domain.s": "s",
    "pipeline.solve_domain.self_s": "s",
    "quadrature.quad_adaptive.calls": "count",
    "quadrature.quad_adaptive.panels": "count",
    "quadrature.quad_adaptive.nodes": "count",
    "quadrature.quad_adaptive.s": "s",
    "quadrature.quad_nested_2d.calls": "count",
    "quadrature.quad_nested_2d.s": "s",
    "testfn.lemma1_rayleigh.s": "s",
    "testfn.lemma2_rayleigh.s": "s",
    "testfn.self_s": "s",
    "attainable.sweep.s": "s",
    "attainable.sweep.records": "count",
    "attainable.sweep.failed_records": "count",
    "asymptotics.verify_theorem.s": "s",
    "cli.main.self_s": "s",
    "analytic.ball_spectrum.s": "s",
    "eigensolve.share": "fraction",
    "bounds.share": "fraction",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "counters", "error")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.counters = None
        self.error = None

    @property
    def seconds(self):
        return self.end - self.start

    def to_dict(self, index):
        return {"id": index, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "counters": self.counters, "error": self.error}


class Tracer:
    """Records one span per traced call: name, start, end, parent span index,
    counters from the return value, and the exception type if it raised."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self.absent = []
        self._stack = []
        self._saved = []  # (module, attribute, original)

    def install(self):
        if self._saved:
            return
        modules = [importlib.import_module(f"{self.package.__name__}.{m.name}")
                   for m in pkgutil.iter_modules(self.package.__path__)
                   if not m.name.startswith("_")]
        modules.append(self.package)
        self.absent = []
        for name, (home, attr) in TRACED.items():
            original = getattr(importlib.import_module(f"{self.package.__name__}.{home}"),
                               attr, None)
            if original is None:  # removed from the program: its metrics read 0
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, binding, original))
                        setattr(module, binding, wrapper)

    def uninstall(self):
        for module, binding, original in reversed(self._saved):
            setattr(module, binding, original)
        self._saved = []

    def _wrap(self, name, fn):
        counters = COUNTERS.get(name)
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(), stack[-1] if stack else None)
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                partial = getattr(exc, "result", None)
                if counters is not None and partial is not None:
                    span.counters = counters(partial)
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counters is not None:
                span.counters = counters(result)
            return result

        return functools.wraps(fn)(traced)

    def mark(self):
        """Index of the next span, to slice out the spans of one phase."""
        return len(self.spans)


def _covered(spans, offset, names):
    """Seconds spent inside spans named in ``names``, counting nested spans of
    those names once (quad_adaptive runs inside quad_adaptive, for one)."""
    total = 0.0
    for span in spans:
        parent = span.parent
        nested = False
        while parent is not None and parent >= offset:
            if spans[parent - offset].name in names:
                nested = True
                break
            parent = spans[parent - offset].parent
        if span.name in names and not nested:
            total += span.seconds
    return total


def pass_metrics(spans, offset, wall):
    """Per-layer metrics of one traced pass.

    ``spans`` are the pass's spans, the first at index ``offset`` of the
    tracer's list; ``wall`` is the pass's wall time.  Self time is a span's
    duration minus the time its direct child spans cover.
    """
    calls = {name: 0 for name in TRACED}
    counts = {}
    child_s = [0.0] * len(spans)
    for span in spans:
        calls[span.name] += 1
        for key, value in (span.counters or {}).items():
            counts[(span.name, key)] = counts.get((span.name, key), 0) + value
        if span.parent is not None and span.parent >= offset:
            child_s[span.parent - offset] += span.seconds

    def s(name):
        return _covered(spans, offset, {name})

    def self_s(name):
        return sum(span.seconds - child_s[i] for i, span in enumerate(spans)
                   if span.name == name)

    def count(name, key):
        return counts.get((name, key), 0)

    # finest level = the last eigensolve of each domain solve
    last_eig = {}
    for span in spans:
        if span.name == "eigensolve.smallest_pairs":
            last_eig[span.parent] = span.seconds
    quad = {"quadrature.quad_adaptive", "quadrature.quad_nested_2d"}
    lemma = {"testfn.lemma1_rayleigh", "testfn.lemma2_rayleigh"}
    quad_in_lemma = sum(
        span.seconds for span in spans
        if span.name in quad and span.parent is not None and span.parent >= offset
        and spans[span.parent - offset].name in lemma
    )
    extrap = calls["discretize.extrapolate_three"]
    return {
        "eigensolve.smallest_pairs.s": s("eigensolve.smallest_pairs"),
        "eigensolve.smallest_pairs.calls": calls["eigensolve.smallest_pairs"],
        "eigensolve.smallest_pairs.outer_iters":
            count("eigensolve.smallest_pairs", "outer_iters"),
        "eigensolve.smallest_pairs.finest_s": sum(last_eig.values()),
        "eigensolve.smallest_pairs.failures": sum(
            span.name == "eigensolve.smallest_pairs" and span.error == "ConvergenceError"
            for span in spans),
        "discretize.build_grid.s": s("discretize.build_grid"),
        "discretize.build_grid.nodes": count("discretize.build_grid", "nodes"),
        "discretize.contains.points": count("discretize.contains", "points"),
        "discretize.contains.s": s("discretize.contains"),
        "discretize.assemble.s": s("discretize.assemble"),
        "discretize.assemble.nnz": count("discretize.assemble", "nnz"),
        "discretize.prolong.s": s("discretize.prolong"),
        "discretize.extrapolate_three.calls": extrap,
        "discretize.extrapolate_three.monotone_frac":
            count("discretize.extrapolate_three", "monotone") / extrap if extrap else 0.0,
        "pipeline.solve_domain.s": s("pipeline.solve_domain"),
        "pipeline.solve_domain.self_s": self_s("pipeline.solve_domain"),
        "quadrature.quad_adaptive.calls": calls["quadrature.quad_adaptive"],
        "quadrature.quad_adaptive.panels": count("quadrature.quad_adaptive", "panels"),
        "quadrature.quad_adaptive.nodes": count("quadrature.quad_adaptive", "nodes"),
        "quadrature.quad_adaptive.s": s("quadrature.quad_adaptive"),
        "quadrature.quad_nested_2d.calls": calls["quadrature.quad_nested_2d"],
        "quadrature.quad_nested_2d.s": s("quadrature.quad_nested_2d"),
        "testfn.lemma1_rayleigh.s": s("testfn.lemma1_rayleigh"),
        "testfn.lemma2_rayleigh.s": s("testfn.lemma2_rayleigh"),
        "testfn.self_s": _covered(spans, offset, lemma) - quad_in_lemma,
        "attainable.sweep.s": s("attainable.sweep"),
        "attainable.sweep.records": count("attainable.sweep", "records"),
        "attainable.sweep.failed_records": count("attainable.sweep", "failed_records"),
        "asymptotics.verify_theorem.s": s("asymptotics.verify_theorem"),
        "cli.main.self_s": self_s("cli.main"),
        "eigensolve.share": s("eigensolve.smallest_pairs") / wall,
        "bounds.share": _covered(spans, offset, quad | lemma) / wall,
        "_calls": calls,
    }


def layer_metrics(tracer, setup_range, pass_ranges, traced_walls, untraced_walls):
    """Median per-layer metrics over the traced passes plus the set-up metric
    and the tracing overhead; and the calls per traced function in the first
    traced pass (in set-up for analytic.ball_spectrum)."""
    per_pass = []
    for (lo, hi), wall in zip(pass_ranges, traced_walls):
        per_pass.append(pass_metrics(tracer.spans[lo:hi], lo, wall))
    setup = tracer.spans[setup_range[0]:setup_range[1]]
    out = {key: median_low(m[key] for m in per_pass) for key in LAYER_UNITS
           if key in per_pass[0]}
    out["analytic.ball_spectrum.s"] = _covered(setup, setup_range[0],
                                               {"analytic.ball_spectrum"})
    out["trace.wall_s"] = median(traced_walls)
    out["trace.overhead_s"] = median(traced_walls) - median(untraced_walls)
    calls = dict(per_pass[0]["_calls"])
    calls["analytic.ball_spectrum"] = sum(s.name == "analytic.ball_spectrum" for s in setup)
    return out, calls


def call_gate(workload, calls, absent):
    """Failures of the traced-call gate: an expected function that never ran,
    or a function predicted idle that ran."""
    failures = []
    for name, n in calls.items():
        expected = name in ACTIVE[workload]
        if expected and n == 0 and name not in absent:
            failures.append(f"{name} recorded no calls on {workload}")
        if not expected and n > 0:
            failures.append(f"{name} recorded {n} calls on {workload}, predicted idle")
    return failures

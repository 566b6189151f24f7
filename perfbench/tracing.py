"""Per-layer spans and counters, installed from outside the program.

A layer is one gcsov module: special_functions, operators, gaudin, sov, bethe
and cli.  ``install`` replaces every function of a layer wherever another
layer binds it (``from .x import f`` creates one binding per consumer
module) with a wrapper that opens a span of that layer.  Functions that
carry a counter or a stage timer are also replaced in their own module, so
that calls from inside the layer are counted too.  The quadrature routines
get their integrand wrapped, which counts the evaluations they request and
charges the integrand's time to the layer that defined it.

A call whose caller is already in the same layer opens no span.  A layer's
self time is the time its spans are open minus the time of the spans opened
inside them, so the self times of all layers add up to the time spent inside
``cli.main``.  Callbacks the program passes around as coefficient objects run
inside whichever layer calls them, usually operators.

Everything is kept in memory; ``metrics`` turns the totals into per-report
figures.  The tracer is single-threaded, like the workload processes.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

LAYERS = ("special_functions", "operators", "gaudin", "sov", "bethe", "cli")

PER_LAYER = (
    ("special_functions.calls", "count"),
    ("special_functions.self_s", "s"),
    ("special_functions.us_per_call", "us"),
    ("special_functions.repeat_share", "ratio"),
    ("operators.self_s", "s"),
    ("operators.quadrature_calls", "count"),
    ("operators.quadrature_evals", "count"),
    ("operators.compose_calls", "count"),
    ("sov.self_s", "s"),
    ("sov.chart_calls", "count"),
    ("gaudin.self_s", "s"),
    ("gaudin.hamiltonians_s", "s"),
    ("bethe.self_s", "s"),
    ("bethe.seeds_tried", "count"),
    ("bethe.solutions_found", "count"),
    ("bethe.seed_yield", "ratio"),
    ("cli.self_s", "s"),
    ("cli.import_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.accounted_share", "ratio"),
)

_CHARTS = ("rational_u_to_w", "rational_w_to_u", "elliptic_u_to_w", "elliptic_w_to_u")


def _layer_of(module_name):
    head, _, tail = (module_name or "").partition(".")
    return tail if head == "gcsov" and tail in LAYERS else None


class Tracer:
    def __init__(self):
        self.stack = []  # open spans: [layer, time covered by child spans]
        self.self_s = defaultdict(float)
        self.count = defaultdict(int)
        self.stage_s = defaultdict(float)
        self.reports = 0
        self._sf_seen = set()

    def begin_report(self):
        """Repeat shares count repeats within one report."""
        self.reports += 1
        self._sf_seen.clear()

    # ------------------------------------------------------------ spans

    def wrap(self, fn, layer, before=None, after=None, stage=None):
        """A span of ``layer`` around ``fn``; ``before`` runs inside it."""
        stack, self_s, stage_s = self.stack, self.self_s, self.stage_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*a, **k):
            inner = bool(stack) and stack[-1][0] == layer
            if inner and before is None and stage is None and after is None:
                return fn(*a, **k)
            t0 = clock()
            if not inner:
                stack.append([layer, 0.0])
            try:
                if before is not None:
                    a, k = before(a, k)
                out = fn(*a, **k)
            finally:
                dt = clock() - t0
                if stage is not None:
                    stage_s[stage] += dt
                if not inner:
                    _, covered = stack.pop()
                    self_s[layer] += dt - covered
                    if stack:
                        stack[-1][1] += dt
            if after is not None:
                after(a, k, out)
            return out

        return traced

    # ------------------------------------------------------------ hooks

    def _counter(self, name):
        def before(a, k):
            self.count[name] += 1
            return a, k
        return before

    def _special(self, fn):
        """Count a call into special_functions and whether it repeats."""
        count, seen = self.count, self._sf_seen

        def before(a, k):
            count["special_functions.calls"] += 1
            try:
                key = hash((fn, a, tuple(k.items())))
            except TypeError:
                key = None
            if key in seen:
                count["special_functions.repeats"] += 1
            elif key is not None:
                seen.add(key)
            return a, k

        return before

    def _quadrature(self, a, k):
        self.count["operators.quadrature_calls"] += 1
        fn = a[0]

        def integrand(*x):
            self.count["operators.quadrature_evals"] += 1
            return fn(*x)

        # an integrand from outside gcsov runs in the quadrature's own span
        layer = _layer_of(getattr(fn, "__module__", None))
        if layer is not None:
            integrand = self.wrap(integrand, layer)
        return (integrand,) + tuple(a[1:]), k

    def _bethe(self, fn, patterns):
        sig = inspect.signature(fn)

        def after(a, k, sols):
            b = sig.bind(*a, **k)
            b.apply_defaults()
            args = b.arguments
            if args.get("n_roots") == 0:
                return  # nothing to solve: no seed is tried
            self.count["bethe.seeds_tried"] += args["seeds"] * patterns(args)
            self.count["bethe.solutions_found"] += len(sols)

        return after

    # ---------------------------------------------------------- install

    def install(self):
        import gcsov.cli  # loads every layer

        mods = {name: getattr(gcsov, name) for name in LAYERS}

        def rational_patterns(args):
            return 2 ** args["m"].N if args.get("exponents") is None else 1

        hooked = {
            ("operators", "op_compose"): dict(before=self._counter("operators.compose_calls")),
            ("operators", "cauchy_partial"): dict(before=self._quadrature),
            ("operators", "polydisk_derivs"): dict(before=self._quadrature),
            ("gaudin", "rational_hamiltonians"): dict(stage="gaudin.hamiltonians_s"),
            ("bethe", "bethe_solve_rational"): dict(
                after=self._bethe(gcsov.bethe.bethe_solve_rational, rational_patterns)),
            ("bethe", "bethe_solve_elliptic"): dict(
                after=self._bethe(gcsov.bethe.bethe_solve_elliptic, lambda args: 1)),
            ("cli", "main"): {},
        }
        for name in _CHARTS:
            hooked[("sov", name)] = dict(before=self._counter("sov.chart_calls"))

        wrappers = {}

        def wrapper_for(fn, layer):
            if fn not in wrappers:
                hook = hooked.get((layer, fn.__name__), {})
                if layer == "special_functions":
                    hook = dict(before=self._special(fn))
                wrappers[fn] = self.wrap(fn, layer, **hook)
            return wrappers[fn]

        for consumer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj):
                    continue
                layer = _layer_of(obj.__module__)
                if layer is None:
                    continue
                if layer != consumer or (layer, attr) in hooked:
                    setattr(mod, attr, wrapper_for(obj, layer))

        return gcsov.cli

    # ---------------------------------------------------------- results

    def metrics(self, import_s, traced_s, overhead_s):
        n = max(1, self.reports)
        c, s = self.count, self.self_s
        calls = c["special_functions.calls"]
        seeds = c["bethe.seeds_tried"]
        vals = {
            "special_functions.calls": calls / n,
            "special_functions.self_s": s["special_functions"] / n,
            "special_functions.us_per_call": 1e6 * s["special_functions"] / calls if calls else 0.0,
            "special_functions.repeat_share": c["special_functions.repeats"] / calls if calls else 0.0,
            "operators.quadrature_calls": c["operators.quadrature_calls"] / n,
            "operators.quadrature_evals": c["operators.quadrature_evals"] / n,
            "operators.compose_calls": c["operators.compose_calls"] / n,
            "sov.chart_calls": c["sov.chart_calls"] / n,
            "gaudin.hamiltonians_s": self.stage_s["gaudin.hamiltonians_s"] / n,
            "bethe.seeds_tried": seeds / n,
            "bethe.solutions_found": c["bethe.solutions_found"] / n,
            "bethe.seed_yield": c["bethe.solutions_found"] / seeds if seeds else 0.0,
            "cli.import_s": import_s,
            "trace.overhead_s": overhead_s / n,
            "trace.accounted_share": sum(s.values()) / traced_s if traced_s else 0.0,
        }
        for layer in ("operators", "sov", "gaudin", "bethe", "cli"):
            vals[f"{layer}.self_s"] = s[layer] / n
        return {name: {"value": vals[name], "unit": unit} for name, unit in PER_LAYER}

"""Per-layer tracing of idcalc from outside the package.

``Tracer.install()`` replaces the public functions and methods of each
module with wrappers, under every name they are bound to: a function
imported by name into another module, or stored in a module-level table
such as the CLI's transform table, is replaced there too.  Each wrapped call
is a span with a parent link, kept in memory; self time is a span's duration
minus the time its child spans cover.  Counts (calls, integrand points,
driver levels, exit rules, paths, bytes) are taken at the same boundaries.

Only the traced run installs the wrappers; the untraced run never imports
this module.
"""

from __future__ import annotations

import os
import sys
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

MEASURE_FUNCTIONALS = ("integral", "scaled_integral", "clip2_scaled", "clip1_scaled",
                       "centering_scaled", "cumulant_scaled", "tail_mass",
                       "vector_weighted")
# functionals whose ``us`` argument is an array of scales
_SCALE_ARG = {"clip2_scaled": 0, "clip1_scaled": 0, "centering_scaled": 0,
              "cumulant_scaled": 1}

DRIVER_RULES = ("stabilized", "cauchy", "geometric-tail", "tight-geometric-extrapolation",
                "threshold", "magnitude", "nondecreasing-windows",
                "non-vanishing-windows", "budget", "slab-quadrature-failure")

# (module, attribute, layer name) of the spans around plain functions
FUNCTIONS = [
    ("idcalc.cli", "run", "cli.run"),
    ("idcalc.cli", "validate", "cli.validate"),
    *[("idcalc.transform", f, f"transform.{f}") for f in (
        "phi", "phi_c", "phi_es", "phi_sym", "phi_ab", "psi", "window_triplet",
        "direct_exponent", "definable_verdict", "compensated_verdict",
        "absolutely_definable", "essential_conditions")],
    *[("idcalc.domains", f, f"domains.{f}") for f in (
        "domain_rule_verdicts", "kernel_profile", "classify_largeness", "psi_largeness")],
    *[("idcalc.kernels", f, f"kernels.{f}") for f in (
        "kernel_window_integral", "tau_measure", "kernel_from_tau", "tau_of_interval")],
    ("idcalc.quadrature", "adaptive_quad", "quadrature.adaptive_quad"),
    ("idcalc.quadrature", "improper_nonneg", "quadrature.improper_nonneg"),
    ("idcalc.quadrature", "improper_limit", "quadrature.improper_limit"),
    ("idcalc.idlaw", "cumulant", "idlaw.cumulant"),
    ("idcalc.mc", "sample_integral", "mc.sample_integral"),
    ("idcalc.mc", "ecf_check", "mc.ecf_check"),
    ("idcalc.mc", "default_cutoff", "mc.default_cutoff"),
]

# (module, class, methods, layer name) of the spans around methods
METHODS = [
    ("idcalc.transform", "PushforwardMeasure", MEASURE_FUNCTIONALS,
     "transform.PushforwardMeasure"),
    ("idcalc.transform", "TauMixtureMeasure", MEASURE_FUNCTIONALS,
     "transform.TauMixtureMeasure"),
    *[("idcalc.measures", f"{kind}Measure", MEASURE_FUNCTIONALS, f"measures.{kind}")
      for kind in ("Atomic", "Stable", "Gamma", "Radial", "Sum")],
    ("idcalc.kernels", "GeneralizedInverse", ("__init__", "__call__"),
     "kernels.GeneralizedInverse"),
    ("idcalc.mc", "IncrementSampler", ("draw",), "mc.IncrementSampler.draw"),
]

_DRIVERS = ("quadrature.improper_nonneg", "quadrature.improper_limit")


class Tracer:
    def __init__(self):
        self._names = {}
        # spans, one entry each: layer id, parent span, job, start, end
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []          # open span ids
        self._child = []          # time covered by children, per open span
        self.job = -1
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.busy_s = defaultdict(float)   # outermost calls only
        self._depth = Counter()
        self.counts = Counter()    # named work counters

    # -- spans ---------------------------------------------------------------
    def _layer_id(self, name):
        return self._names.setdefault(name, len(self._names))

    def wrap(self, fn, name, before=None, after=None):
        """Span around ``fn``.  ``before(args, kwargs)`` may return new
        (args, kwargs); ``after(args, result, exc)`` sees the outcome."""
        lid = self._layer_id(name)
        stack, child, depth = self._stack, self._child, self._depth
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            sid = len(self.span_layer)
            self.span_layer.append(lid)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_job.append(self.job)
            stack.append(sid)
            child.append(0.0)
            depth[name] += 1
            exc = None
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                t1 = clock()
                dur = t1 - t0
                stack.pop()
                covered = child.pop()
                if child:
                    child[-1] += dur
                self.span_start.append(t0)
                self.span_end.append(t1)
                self.calls[name] += 1
                self.self_s[name] += dur - covered
                depth[name] -= 1
                if depth[name] == 0:
                    self.busy_s[name] += dur
                if after is not None:
                    after(args, result, exc)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def active(self, name):
        return self._depth[name] > 0

    # -- installation -------------------------------------------------------
    def install(self):
        import idcalc.cli  # noqa: F401  (loads every submodule)
        hooks = self._hooks()
        for module, attr, name in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            before, after = hooks.get(name, (None, None))
            _rebind(original, self.wrap(original, name, before, after))
        for module, cls_name, methods, name in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            for meth in methods:
                before, after = hooks.get(f"{name}.{meth}", hooks.get(name, (None, None)))
                setattr(cls, meth, self.wrap(getattr(cls, meth), name, before,
                                             self._method_after(name, meth, after)))
        kernel_cls = sys.modules["idcalc.kernels"].Kernel
        call = kernel_cls.__call__

        def counted_call(k, s):
            self.counts["kernels.Kernel.points"] += int(np.size(s))
            return call(k, s)
        kernel_cls.__call__ = counted_call

    def _method_after(self, name, meth, after):
        if not name.startswith("measures."):
            return after
        counts = self.counts

        def count_scales(args, result, exc):
            if meth == "scaled_integral":
                counts[f"{name}.scaled_integral.calls"] += 1
            pos = _SCALE_ARG.get(meth)
            if pos is not None and len(args) > pos + 1:
                counts[f"{name}.scales"] += int(np.size(args[pos + 1]))
        return count_scales

    def _hooks(self):
        counts = self.counts
        from idcalc.errors import QuadratureFailure

        def quad_before(args, kwargs):
            if self.active("mc.sample_integral"):
                counts["mc.mesh_quadratures"] += 1
            fn = args[0] if args else kwargs.pop("fn")

            def counted(x, fn=fn):
                counts["quadrature.adaptive_quad.points"] += len(x)
                return fn(x)
            return (counted,) + tuple(args[1:]), kwargs

        def quad_after(args, result, exc):
            if isinstance(exc, QuadratureFailure):
                counts["quadrature.adaptive_quad.failures"] += 1

        def driver_hooks(name):
            def before(args, kwargs):
                if any(self.active(d) for d in _DRIVERS):
                    counts["quadrature.nested_drivers"] += 1
                return args, kwargs

            def after(args, result, exc):
                if result is None:
                    counts[f"{name}.raised"] += 1
                    return
                counts[f"{name}.levels"] += max(len(result.trace) - 1, 0)
                if result.status in ("converged", "diverged"):
                    counts[f"{name}.certified"] += 1
                rule = result.evidence.get("rule") or (
                    "cauchy" if result.status == "converged" else "unlabelled")
                counts[f"quadrature.exit.{rule}"] += 1
            return before, after

        def cli_after(args, result, exc):
            code = "crash" if exc is not None else str(result)
            counts[f"cli.exit.{code}"] += 1
            counts["cli.output_bytes"] += _output_bytes(args[0] if args else [])

        def draw_after(args, result, exc):
            counts["mc.IncrementSampler.draw.paths"] += int(args[2])

        return {
            "quadrature.adaptive_quad": (quad_before, quad_after),
            "quadrature.improper_nonneg": driver_hooks("quadrature.improper_nonneg"),
            "quadrature.improper_limit": driver_hooks("quadrature.improper_limit"),
            "cli.run": (None, cli_after),
            "mc.IncrementSampler.draw": (None, draw_after),
        }

    # -- report -------------------------------------------------------------
    def metric(self, key):
        """Value of one per-layer metric named as in BENCHMARK.json."""
        if key in self.counts or key.startswith(("cli.exit.", "quadrature.exit.")):
            return self.counts[key]
        layer, _, stat = key.rpartition(".")
        if stat == "calls":
            return self.calls[layer]
        if stat == "self_s":
            return self.self_s[layer]
        if stat == "busy_s":
            return self.busy_s[layer]
        if stat == "certified_ratio":
            calls = self.calls[layer]
            return self.counts[f"{layer}.certified"] / calls if calls else 0.0
        if stat in ("points", "failures", "levels", "scales", "paths", "nested_drivers",
                    "mesh_quadratures", "output_bytes"):
            return self.counts[key]
        raise KeyError(f"no per-layer metric {key!r}")

    def reset(self):
        """Forget every span and count so far (the wrappers stay)."""
        for arr in (self.span_layer, self.span_parent, self.span_job,
                    self.span_start, self.span_end):
            del arr[:]
        for table in (self.calls, self.self_s, self.busy_s, self.counts):
            table.clear()

    def summary(self, metric_names):
        return {"metrics": {n: self.metric(n) for n in metric_names},
                "spans": len(self.span_layer),
                "edges": [[p, c, n] for (p, c), n in sorted(self.edges().items())]}

    def edges(self):
        """Span counts per (parent layer, child layer), the call tree in brief."""
        names = {i: n for n, i in self._names.items()}
        out = Counter()
        layer, parent = self.span_layer, self.span_parent
        for sid in range(len(layer)):
            p = parent[sid]
            out[(names[layer[p]] if p >= 0 else "<job>", names[layer[sid]])] += 1
        return out


def _output_bytes(argv):
    """Bytes the CLI printed (captured by the caller) plus the CSV files in
    its output directory; report.json repeats stdout with a timestamp."""
    n = len(sys.stdout.getvalue().encode()) if hasattr(sys.stdout, "getvalue") else 0
    if "--out" in argv:
        out = argv[argv.index("--out") + 1]
        if os.path.isdir(out):
            n += sum(os.path.getsize(os.path.join(out, f)) for f in os.listdir(out)
                     if f.endswith(".csv"))
    return n


def _rebind(original, wrapper):
    """Replace ``original`` by ``wrapper`` wherever an idcalc module binds it:
    as a module attribute or as a value of a module-level dict."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "idcalc" or mod_name.startswith("idcalc.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = wrapper

"""Per-layer tracing of cycleval from outside the package.

``install()`` replaces chosen functions and methods of every cycleval module
with wrappers that record one span per call: name, start, end, parent span
and one auxiliary number (rows passed in, cells built, or an error ratio).
Spans live in per-thread arrays in memory; ``Tracer.dump`` writes them out
once the run has ended and ``Tracer.layer_metrics`` reduces them to the
per-layer metrics named in ``PER_LAYER``.

A layer's self time is its span's duration minus the durations of its
direct child spans.  Children always run on the parent's thread, so the
child intervals lie inside the parent interval and do not overlap.

Modules bind each other's functions with ``from .x import f``, and the suite
registry holds the suite functions in a dict, so a wrapper replaces every
module-level binding of the original (including values of module-level
dicts), not only the attribute of the defining module.  Methods are wrapped
on the class that defines them.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import threading
import time
from array import array
from pathlib import Path

import numpy as np

SUITE_NAMES = ("identities", "kernel", "homogeneity", "invariance", "hessian",
               "bridge", "mass", "valuation-property", "first-variation",
               "consistency")

# (metric, unit, better) for every per-layer metric a traced run reports
PER_LAYER = [
    ("polynomials.mul.calls", "count", "lower"),
    ("polynomials.mul.self_s", "s", "lower"),
    ("polynomials.add.calls", "count", "lower"),
    ("polynomials.subs.calls", "count", "lower"),
    ("polynomials.subs.self_s", "s", "lower"),
    ("polynomials.divide_exact.calls", "count", "lower"),
    ("polynomials.divide_exact.self_s", "s", "lower"),
    ("polynomials.eval_array.calls", "count", "lower"),
    ("polynomials.eval_array.self_s", "s", "lower"),
    ("polynomials.eval_array.points", "count", "lower"),
    ("coefficients.construct.calls", "count", "lower"),
    ("coefficients.construct.self_s", "s", "lower"),
    ("coefficients.diff.self_s", "s", "lower"),
    ("coefficients.subs_linear.self_s", "s", "lower"),
    ("coefficients.q_poly.calls", "count", "lower"),
    ("coefficients.eval_array.calls", "count", "lower"),
    ("coefficients.eval_array.self_s", "s", "lower"),
    ("coefficients.eval_array.points", "count", "lower"),
    ("forms.d.calls", "count", "lower"),
    ("forms.d.self_s", "s", "lower"),
    ("forms.wedge.calls", "count", "lower"),
    ("forms.wedge.self_s", "s", "lower"),
    ("forms.pullback.calls", "count", "lower"),
    ("forms.pullback.self_s", "s", "lower"),
    ("forms.lefschetz.calls", "count", "lower"),
    ("forms.lefschetz.self_s", "s", "lower"),
    ("forms.integrate_zero_section.calls", "count", "lower"),
    ("forms.integrate_zero_section.self_s", "s", "lower"),
    ("rumin.rumin_d.calls", "count", "lower"),
    ("rumin.rumin_d.self_s", "s", "lower"),
    ("rumin.g_invariance.self_s", "s", "lower"),
    ("convex.gradient_array.calls", "count", "lower"),
    ("convex.gradient_array.self_s", "s", "lower"),
    ("convex.gradient_array.points", "count", "lower"),
    ("convex.hessian_array.calls", "count", "lower"),
    ("convex.hessian_array.self_s", "s", "lower"),
    ("convex.hessian_array.points", "count", "lower"),
    ("convex.lse.gradient_array.self_s", "s", "lower"),
    ("convex.lse.hessian_array.self_s", "s", "lower"),
    ("quadrature.integrate_box.calls", "count", "lower"),
    ("quadrature.integrate_box.self_s", "s", "lower"),
    ("quadrature.integrate_box.points", "count", "lower"),
    ("cycles.eval_smooth.calls", "count", "lower"),
    ("cycles.eval_smooth.self_s", "s", "lower"),
    ("cycles.ridge_aligned.calls", "count", "lower"),
    ("cycles.ridge_aligned.self_s", "s", "lower"),
    ("cycles.eval_polyline.calls", "count", "lower"),
    ("cycles.eval_polyline.self_s", "s", "lower"),
    ("cycles.mass_smooth.self_s", "s", "lower"),
    ("cycles.integrand.calls", "count", "lower"),
    ("cycles.integrand.self_s", "s", "lower"),
    ("cycles.integrand.points", "count", "lower"),
    ("cycles.quad_error_max", "ratio", "lower"),
    ("polyhedral.build.calls", "count", "lower"),
    ("polyhedral.build.self_s", "s", "lower"),
    ("polyhedral.build.cells", "count", "lower"),
    ("polyhedral.build.retries", "count", "lower"),
    ("polyhedral.eval.calls", "count", "lower"),
    ("polyhedral.eval.self_s", "s", "lower"),
    ("polyhedral.mass.self_s", "s", "lower"),
    ("bridge.conormal_eval.calls", "count", "lower"),
    ("bridge.conormal_eval.self_s", "s", "lower"),
    ("lab.evaluate.calls", "count", "lower"),
    ("lab.evaluate.self_s", "s", "lower"),
    ("lab.evaluate.p50_ms", "ms", "lower"),
    ("lab.evaluate.p90_ms", "ms", "lower"),
    ("lab.route.smooth", "count", "lower"),
    ("lab.route.ridge", "count", "lower"),
    ("lab.route.polyhedral", "count", "lower"),
    ("lab.route.polyline", "count", "lower"),
    ("lab.kernel_check.calls", "count", "lower"),
    ("lab.hessian_valuation.self_s", "s", "lower"),
    ("lab.first_variation_check.self_s", "s", "lower"),
    ("grammar.parse.self_s", "s", "lower"),
] + [(f"suites.{s}.wall_s", "s", "lower") for s in SUITE_NAMES] + [
    ("report.to_json.self_s", "s", "lower"),
    ("cli.write.self_s", "s", "lower"),
    ("cli.cpu_util", "ratio", "lower"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.coverage", "ratio", "higher"),
]

# span name -> (module, attributes it wraps); builds, integrands and box
# quadrature need more than a plain wrapper and are installed separately
FUNCTIONS = {
    "polynomials.mul": ("polynomials", ("Poly.__mul__", "Poly.__rmul__")),
    "polynomials.add": ("polynomials", ("Poly.__add__",)),
    "polynomials.subs": ("polynomials", ("Poly.subs",)),
    "polynomials.divide_exact": ("polynomials", ("Poly.divide_exact",)),
    "polynomials.eval_array": ("polynomials", ("Poly.eval_array",)),
    "coefficients.construct": ("coefficients", ("CoefficientFn.__init__",)),
    "coefficients.diff": ("coefficients", ("CoefficientFn.diff",)),
    "coefficients.subs_linear": ("coefficients", ("CoefficientFn.subs_linear",)),
    "coefficients.q_poly": ("coefficients", ("BumpFactor.q_poly",)),
    "coefficients.eval_array": ("coefficients", ("CoefficientFn.eval_array",)),
    "forms.d": ("forms", ("exterior_derivative",)),
    "forms.wedge": ("forms", ("wedge",)),
    "forms.pullback": ("forms", ("pullback",)),
    "forms.lefschetz": ("forms", ("lefschetz_L", "lefschetz_L_inverse")),
    "forms.integrate_zero_section": ("forms", ("integrate_zero_section",)),
    "rumin.rumin_d": ("rumin", ("rumin_d",)),
    "rumin.g_invariance": ("rumin", ("g_invariance_conditions",)),
    "cycles.eval_smooth": ("cycles", ("eval_smooth",)),
    "cycles.ridge_aligned": ("cycles", ("eval_smooth_ridge_aligned",)),
    "cycles.eval_polyline": ("cycles", ("eval_polyline",)),
    "cycles.mass_smooth": ("cycles", ("mass_smooth",)),
    "polyhedral.eval": ("polyhedral", ("eval_polyhedral",)),
    "polyhedral.mass": ("polyhedral", ("mass_polyhedral",)),
    "bridge.conormal_eval": ("bridge", ("conormal_eval",)),
    "lab.evaluate": ("lab", ("evaluate",)),
    "lab.kernel_check": ("lab", ("kernel_check",)),
    "lab.hessian_valuation": ("lab", ("hessian_valuation",)),
    "lab.first_variation_check": ("lab", ("first_variation_check",)),
    "grammar.parse": ("grammar", ("parse_form", "parse_function", "parse_body")),
    "report.to_json": ("report", ("ValuationReport.to_json",)),
}

# evaluator span directly under a lab.evaluate span -> route it counts as
ROUTES = {
    "cycles.eval_smooth": "smooth",
    "cycles.ridge_aligned": "ridge",
    "polyhedral.eval": "polyhedral",
    "cycles.eval_polyline": "polyline",
}

ORACLES = ("gradient_array", "hessian_array")


def _rows(args, kwargs, result):
    return float(np.shape(args[1])[0])


def _error_ratio(args, kwargs, result):
    err = getattr(result, "error", None)
    if err is None:
        return math.nan
    return float(err) / max(1.0, abs(float(result.value)))


def _cells(args, kwargs, result):
    return float(len(result.cells))


_AUX = {
    "polynomials.eval_array": _rows,
    "coefficients.eval_array": _rows,
    "cycles.eval_smooth": _error_ratio,
    "cycles.ridge_aligned": _error_ratio,
    "lab.evaluate": _error_ratio,
}


class _Buffer:
    """Spans recorded by one thread; parent indices are local to it."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.aux = array("d")
        self.stack: list[int] = []


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer()
            self._local.buf = buf
            with self._lock:
                self._buffers.append(buf)
        return buf

    def wrap(self, fn, name: str, aux=None):
        """Return ``fn`` recording one span named ``name`` per call."""
        nid = self.name_id(name)
        perf = time.perf_counter
        nan = math.nan

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = self._buffer()
            stack = buf.stack
            idx = len(buf.start)
            buf.name.append(nid)
            buf.parent.append(stack[-1] if stack else -1)
            buf.end.append(0.0)
            buf.aux.append(nan)
            stack.append(idx)
            buf.start.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.end[idx] = perf()
                stack.pop()
            if aux is not None:
                buf.aux[idx] = aux(args, kwargs, result)
            return result

        return traced

    def spans(self) -> dict:
        """All spans as arrays, parent indices global."""
        cols = {k: [] for k in ("name", "parent", "start", "end", "aux")}
        offset = 0
        with self._lock:
            buffers = list(self._buffers)
        for buf in buffers:
            parent = np.frombuffer(buf.parent, dtype=np.int32).astype(np.int64)
            cols["parent"].append(np.where(parent >= 0, parent + offset, -1))
            cols["name"].append(np.frombuffer(buf.name, dtype=np.int32))
            for k in ("start", "end", "aux"):
                cols[k].append(np.frombuffer(getattr(buf, k), dtype=np.float64))
            offset += len(buf.start)
        out = {k: (np.concatenate(v) if v else np.zeros(0)) for k, v in cols.items()}
        out["name"] = out["name"].astype(np.int64)
        out["parent"] = out["parent"].astype(np.int64)
        return out

    def dump(self, path: Path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.spans())

    def layer_metrics(self) -> dict:
        """Per-layer metrics of this process, except the ones run.py
        computes from several processes (cpu_util and overhead)."""
        s = self.spans()
        names = self.names
        name, parent = s["name"], s["parent"]
        dur = s["end"] - s["start"]
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=len(dur))
        self_time = dur - child_time
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)

        def ids(pred):
            return [i for i, nm in enumerate(names) if pred(nm)]

        def mask(pred):
            return np.isin(name, ids(pred))

        def exact(nm):
            return mask(lambda x: x == nm)

        # <span>.calls / .self_s / .points of the span of that name; the
        # other metrics are filled in below
        out = {}
        for metric, _, _ in PER_LAYER:
            span, _, field = metric.rpartition(".")
            m = exact(span)
            if field == "calls":
                out[metric] = float(m.sum())
            elif field == "self_s":
                out[metric] = float(self_time[m].sum())
            elif field == "points":
                out[metric] = _nansum(s["aux"][m])
            else:
                out[metric] = 0.0

        # polyhedral builds: a perturbed rebuild is its own span name
        build = exact("polyhedral.build")
        retry = exact("polyhedral.build_retry")
        out["polyhedral.build.calls"] = float(build.sum())
        out["polyhedral.build.self_s"] = float(self_time[build | retry].sum())
        out["polyhedral.build.retries"] = float(retry.sum())
        out["polyhedral.build.cells"] = _nansum(s["aux"][build])

        # convex oracles: one span name per class; rows count only at the
        # outermost oracle span, since wrappers delegate to an inner oracle
        for oracle in ORACLES:
            own = ids(lambda x, o=oracle: x.startswith(f"convex.{o}:"))
            m = np.isin(name, own)
            outer = m & ~np.isin(parent_name, own)
            out[f"convex.{oracle}.calls"] = float(m.sum())
            out[f"convex.{oracle}.self_s"] = float(self_time[m].sum())
            out[f"convex.{oracle}.points"] = _nansum(s["aux"][outer])
            out[f"convex.lse.{oracle}.self_s"] = float(
                self_time[exact(f"convex.{oracle}:LogSumExp")].sum())

        errs = s["aux"][mask(lambda x: x in ("cycles.eval_smooth",
                                             "cycles.ridge_aligned",
                                             "lab.evaluate"))]
        errs = errs[np.isfinite(errs)]
        out["cycles.quad_error_max"] = float(errs.max()) if errs.size else 0.0

        ev = exact("lab.evaluate")
        ev_ms = dur[ev] * 1e3
        if ev_ms.size:
            out["lab.evaluate.p50_ms"] = float(np.percentile(ev_ms, 50))
            out["lab.evaluate.p90_ms"] = float(np.percentile(ev_ms, 90))
        ev_ids = ids(lambda x: x == "lab.evaluate")
        under_ev = np.isin(parent_name, ev_ids)
        for span, route in ROUTES.items():
            out[f"lab.route.{route}"] = float((under_ev & exact(span)).sum())

        suite_ids = ids(lambda x: x.startswith("suites."))
        for sid in suite_ids:
            out[f"{names[sid]}.wall_s"] = float(dur[name == sid].sum())
        suite_total = float(dur[np.isin(name, suite_ids)].sum())
        covered = float(dur[np.isin(parent_name, suite_ids)].sum())
        out["trace.coverage"] = covered / suite_total if suite_total > 0 else 0.0
        return out


def _nansum(values) -> float:
    return float(np.nansum(values)) if values.size else 0.0


def _rebind(modules, orig, wrapper) -> None:
    """Replace every module-level binding of ``orig`` by ``wrapper``."""
    hits = 0
    for mod in modules:
        for key, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, key, wrapper)
                hits += 1
            elif isinstance(val, dict):
                for k, v in list(val.items()):
                    if v is orig:
                        val[k] = wrapper
                        hits += 1
    if not hits:
        raise RuntimeError(f"no binding of {orig.__qualname__} found")


class _RowCounter:
    """Integrand proxy counting the rows it is evaluated on."""

    def __init__(self, fn):
        self.fn = fn
        self.rows = 0

    def __call__(self, X):
        self.rows += int(np.shape(X)[0])
        return self.fn(X)


def install() -> Tracer:
    """Wrap the traced layers of the imported cycleval package."""
    from cycleval import cli, convex, cycles, polyhedral, quadrature, suites

    for modname, _ in FUNCTIONS.values():
        importlib.import_module(f"cycleval.{modname}")
    tracer = Tracer()
    modules = [m for k, m in sorted(sys.modules.items())
               if k == "cycleval" or k.startswith("cycleval.")]

    for span, (modname, qualnames) in FUNCTIONS.items():
        mod = sys.modules[f"cycleval.{modname}"]
        for qualname in qualnames:
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, attr, tracer.wrap(cls.__dict__[attr], span,
                                               _AUX.get(span)))
            else:
                orig = getattr(mod, qualname)
                _rebind(modules, orig, tracer.wrap(orig, span, _AUX.get(span)))

    # the retry after a degenerate configuration is a build with
    # _perturbed=True; it gets its own span name
    orig_build = polyhedral.build_polyhedral
    first = tracer.wrap(orig_build, "polyhedral.build", _cells)
    again = tracer.wrap(orig_build, "polyhedral.build_retry", _cells)

    @functools.wraps(orig_build)
    def build(*args, **kwargs):
        return (again if kwargs.get("_perturbed") else first)(*args, **kwargs)

    _rebind(modules, orig_build, build)

    # integrands are closures made per evaluation: trace the ones returned
    orig_make = cycles.graph_pullback_integrand

    @functools.wraps(orig_make)
    def make_integrand(*args, **kwargs):
        return tracer.wrap(orig_make(*args, **kwargs), "cycles.integrand",
                           lambda a, k, r: float(np.shape(a[0])[0]))

    _rebind(modules, orig_make, make_integrand)

    # integrate_box points: rows its integrand receives over all passes
    orig_box = quadrature.integrate_box
    traced_box = tracer.wrap(orig_box, "quadrature.integrate_box",
                             lambda a, k, r: float(a[0].rows))

    @functools.wraps(orig_box)
    def integrate_box(fn, *args, **kwargs):
        return traced_box(_RowCounter(fn), *args, **kwargs)

    _rebind(modules, orig_box, integrate_box)

    classes = {val for mod in modules for val in vars(mod).values()
               if isinstance(val, type) and issubclass(val, convex.ConvexFunction)}
    for cls in classes:
        for oracle in ORACLES:
            if oracle in cls.__dict__:
                setattr(cls, oracle, tracer.wrap(
                    cls.__dict__[oracle], f"convex.{oracle}:{cls.__name__}", _rows))

    for sname in list(suites.SUITES):
        suites.SUITES[sname] = tracer.wrap(suites.SUITES[sname], f"suites.{sname}")

    base_path = type(Path())

    class TracedPath(base_path):
        write_text = tracer.wrap(base_path.write_text, "cli.write")

    cli.Path = TracedPath
    return tracer

"""Traced runs: spans and counts around the engine's public API.

``Tracer.install`` replaces, in every ``beauville_lab`` module, the public
functions and the public and arithmetic methods of each module with
wrappers; ``uninstall`` puts the originals back.  Nothing in ``src/`` knows
about it.  A layer is a module.

* Every call is counted.
* A call that enters a layer from another one (or from the benchmark) opens
  a span; calls inside the same layer do not.  A layer's self time is its
  spans' durations minus the time covered by their child spans.
* Spans of the container and arithmetic types (``GaussianRational``,
  ``Poly``, ``SparseMat``, ``TautExpr``) are timed but not stored: there are
  millions of them.  The other spans are kept in memory, with their parent
  and request id, and written out when the run ends.
* During one pass (the capture pass) the wrappers of the kernels keep the
  operands of 16 evenly spaced calls, so that the kernel timings run on
  operands the workload really used.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
import time
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional

LAYERS = ("scalars", "poly", "sparse", "mukai", "llv", "k3", "k3_mult",
          "taut", "dr", "obstruction", "dsl", "report", "cli")
HOT_CLASSES = ("GaussianRational", "Poly", "SparseMat", "TautExpr")
ARITH = ("__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
         "__rmul__", "__matmul__", "__neg__", "__truediv__", "__rtruediv__",
         "__pow__")
# Predicates and coercions that run on every scalar: wrapping them would
# cost more than the work they do.
SKIP = ("is_zero", "is_rational", "is_constant", "coerce")
GR_OPS = ("__add__", "__sub__", "__rsub__", "__mul__", "__neg__",
          "__truediv__", "__rtruediv__", "__pow__", "conjugate", "norm",
          "inverse")
PRODUCTS = ("SparseMat.__matmul__", "Poly.__mul__", "TautExpr.__mul__",
            "GaussianRational.__mul__", "k3.rel_mul", "k3.bv_mul")
POWERS = ("LlvContext.power", "K3Context.power", "TautContext.power")
KERNEL_SAMPLES = 16
MAX_SPANS = 400_000


def _entry_kind(m) -> str:
    from beauville_lab.poly import Poly

    for v in m.entries.values():
        return "poly" if isinstance(v, Poly) else "scalar"
    return "scalar"


class Tracer:
    def __init__(self):
        self.pkg = importlib.import_module("beauville_lab")
        self.mods = {name: importlib.import_module(f"beauville_lab.{name}")
                     for name in LAYERS}
        self.labels: List[str] = []
        self.layer_of: List[int] = []
        self._restore = []
        self.spans: List[tuple] = []
        self.spans_dropped = 0
        self.next_span = 0
        self.request = 0
        self.capture_targets: Optional[Dict[str, set]] = None
        self.captured: Dict[str, list] = {}
        self.reset()

    # -- per-pass state -------------------------------------------------------------

    def reset(self) -> None:
        n = len(self.labels)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.entries = [0] * len(LAYERS)
        self.stack = [[-1, 0.0, None]]   # the benchmark's own frame
        self.rational_ops = 0
        self.poly_terms_max = 0
        self.taut_terms_max = 0
        self.matmul = {"scalar": 0, "poly": 0}
        self.nnz_max = 0
        self.triples = set()
        self.power_depth = 0
        self.product_depth = 0
        self.power_products = 0
        self.kernel_calls: Dict[str, int] = {}

    # -- installing -------------------------------------------------------------------

    def _targets(self):
        """(owner, attribute, layer index, label, hot) for every wrapped name."""
        out = []
        for li, name in enumerate(LAYERS):
            mod = self.mods[name]
            for attr, obj in vars(mod).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    out.append((mod, attr, li, f"{name}.{attr}", False))
                elif (inspect.isclass(obj) and obj.__module__ == mod.__name__
                      and not issubclass(obj, BaseException)):
                    hot = obj.__name__ in HOT_CLASSES
                    for m_name, raw in vars(obj).items():
                        public = not m_name.startswith("_") and m_name not in SKIP
                        if not (public or m_name in ARITH):
                            continue
                        func = raw.__func__ if isinstance(raw, staticmethod) else raw
                        if inspect.isfunction(func):
                            out.append((obj, m_name, li,
                                        f"{obj.__name__}.{m_name}", hot))
        return out

    def install(self) -> None:
        wrapped: Dict[int, Callable] = {}
        fids: Dict[int, int] = {}
        for owner, attr, li, label, hot in self._targets():
            raw = vars(owner)[attr]
            func = raw.__func__ if isinstance(raw, staticmethod) else raw
            if id(func) not in wrapped:   # __rmul__ = __mul__ share one wrapper
                fids[id(func)] = len(self.labels)
                self.labels.append(label)
                self.layer_of.append(li)
                wrapped[id(func)] = self._wrap(func, fids[id(func)], li, label, hot)
            new = wrapped[id(func)]
            self._restore.append((owner, attr, raw))
            setattr(owner, attr, staticmethod(new) if isinstance(raw, staticmethod) else new)
        # names imported into other modules (from .sparse import bracket)
        for mod in [self.pkg, *self.mods.values()]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped and \
                        getattr(mod, attr) is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)])
        self.reset()

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    # -- the wrapper ----------------------------------------------------------------------

    def _wrap(self, fn, fid: int, li: int, label: str, hot: bool):
        tracer = self
        perf = time.perf_counter
        observe = self._observer(label)
        product = label in PRODUCTS
        power = label in POWERS
        keep = not hot

        def wrapper(*args, **kwargs):
            t = tracer
            t.calls[fid] += 1
            if product:
                if t.power_depth and not t.product_depth:
                    t.power_products += 1
                t.product_depth += 1
            elif power:
                t.power_depth += 1
            stack = t.stack
            try:
                if stack[-1][0] == li:
                    result = fn(*args, **kwargs)
                else:
                    t.entries[li] += 1
                    parent = stack[-1][2]   # nearest stored ancestor span
                    frame = [li, 0.0, parent]
                    if keep:
                        t.next_span += 1
                        frame[2] = t.next_span
                    stack.append(frame)
                    start = perf()
                    try:
                        result = fn(*args, **kwargs)
                    finally:
                        end = perf()
                        stack.pop()
                        dur = end - start
                        stack[-1][1] += dur
                        t.self_s[fid] += dur - frame[1]
                        if keep:
                            if len(t.spans) < MAX_SPANS:
                                t.spans.append((fid, start, end, frame[2],
                                                parent, t.request))
                            else:
                                t.spans_dropped += 1
            finally:
                if product:
                    t.product_depth -= 1
                elif power:
                    t.power_depth -= 1
            if observe is not None:
                observe(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- observers: counts that need the arguments or the result ------------------------

    def _capture(self, kernel: str, args, kwargs) -> None:
        k = self.kernel_calls.get(kernel, 0) + 1
        self.kernel_calls[kernel] = k
        targets = self.capture_targets
        if targets is not None and k in targets.get(kernel, ()):
            # the engine's values are immutable; its dict and set cycles are not
            def keep(a):
                return dict(a) if isinstance(a, dict) else \
                    set(a) if isinstance(a, set) else a
            self.captured.setdefault(kernel, []).append(
                (tuple(map(keep, args)), {k: keep(v) for k, v in kwargs.items()}))

    def _observer(self, label: str):
        t = self
        cls_name, _, method = label.partition(".")
        if cls_name == "GaussianRational" and method in GR_OPS:
            def gr(args, kwargs, result):
                a = args[0]
                b = args[1] if len(args) > 1 else None
                if not a.im and not getattr(b, "im", 0):
                    t.rational_ops += 1
                    if method == "__mul__":
                        t._capture("gr_mul_rational", args, kwargs)
                elif method == "__mul__":
                    t._capture("gr_mul_complex", args, kwargs)
            return gr
        if label == "Poly.__mul__":
            def poly_mul(args, kwargs, result):
                if len(result.terms) > t.poly_terms_max:
                    t.poly_terms_max = len(result.terms)
                t._capture("poly_mul", args, kwargs)
            return poly_mul
        if label == "TautExpr.__mul__":
            def taut_mul(args, kwargs, result):
                if len(result.terms) > t.taut_terms_max:
                    t.taut_terms_max = len(result.terms)
            return taut_mul
        if label == "SparseMat.__matmul__":
            def matmul(args, kwargs, result):
                a, b = args
                kind = "poly" if "poly" in (_entry_kind(a), _entry_kind(b)) else "scalar"
                t.matmul[kind] += 1
                if len(result.entries) > t.nnz_max:
                    t.nnz_max = len(result.entries)
            return matmul
        if label == "sparse.bracket":
            def bracket(args, kwargs, result):
                a, b = args
                kind = "poly" if "poly" in (_entry_kind(a), _entry_kind(b)) else "scalar"
                t._capture(f"bracket_{kind}", args, kwargs)
            return bracket
        if label == "llv.build_triple":
            signature = inspect.signature(self.mods["llv"].build_triple)

            def build_triple(args, kwargs, result):
                bound = signature.bind(*args, **kwargs).arguments
                t.triples.add((bound["c0"], bound["c1"]))
            return build_triple
        if label in ("k3.rel_compose", "k3_mult.tri_mul", "taut.abelian_push"):
            kernel = method
            return lambda args, kwargs, result: t._capture(kernel, args, kwargs)
        return None

    # -- capture plan ------------------------------------------------------------------------

    def plan_capture(self) -> None:
        """Pick the calls to capture in the next pass, evenly spaced over the
        calls this pass made (passes repeat the same calls)."""
        self.capture_targets = {}
        for kernel, n in self.kernel_calls.items():
            step = max(1, n // KERNEL_SAMPLES)
            self.capture_targets[kernel] = set(range(step // 2 + 1, n + 1, step))

    def stop_capture(self) -> None:
        self.capture_targets = None

    # -- per-pass metrics --------------------------------------------------------------------

    def _fid_sum(self, values, *labels) -> float:
        return sum(values[self.labels.index(l)] for l in labels if l in self.labels)

    def pass_metrics(self) -> Dict[str, float]:
        layer_self = [0.0] * len(LAYERS)
        for fid, s in enumerate(self.self_s):
            layer_self[self.layer_of[fid]] += s
        L = dict(zip(LAYERS, layer_self))
        calls = self.calls
        gr_ops = self._fid_sum(calls, *(f"GaussianRational.{m}" for m in GR_OPS))
        parse_s = self._fid_sum(self.self_s, "dsl.parse")
        return {
            "scalars.gr_new": self._fid_sum(calls, "GaussianRational.__init__"),
            "scalars.ops": gr_ops,
            "scalars.rational_share": self.rational_ops / gr_ops if gr_ops else 0.0,
            "scalars.self_s": L["scalars"],
            "poly.mul_calls": self._fid_sum(calls, "Poly.__mul__"),
            "poly.terms_max": self.poly_terms_max,
            "poly.self_s": L["poly"],
            "sparse.matmul_calls_scalar": self.matmul["scalar"],
            "sparse.matmul_calls_poly": self.matmul["poly"],
            "sparse.nnz_max": self.nnz_max,
            "sparse.self_s": L["sparse"],
            "mukai.calls": self.entries[LAYERS.index("mukai")],
            "mukai.self_s": L["mukai"],
            "llv.build_triple_calls": self._fid_sum(calls, "llv.build_triple"),
            "llv.build_triple_distinct": len(self.triples),
            "llv.primed_operators_calls": self._fid_sum(calls, "llv.primed_operators"),
            "llv.self_s": L["llv"],
            "taut.mul_calls": self._fid_sum(calls, "TautExpr.__mul__"),
            "taut.abelian_push_calls": self._fid_sum(calls, "taut.abelian_push"),
            "taut.terms_max": self.taut_terms_max,
            "taut.self_s": L["taut"],
            "dr.self_s": L["dr"],
            "obstruction.self_s": L["obstruction"],
            "k3.rel_compose_calls": self._fid_sum(calls, "k3.rel_compose"),
            "k3.self_s": L["k3"],
            "k3_mult.tri_mul_calls": self._fid_sum(calls, "k3_mult.tri_mul"),
            "k3_mult.self_s": L["k3_mult"],
            "dsl.parse_s": parse_s,
            "dsl.evaluate_s": L["dsl"] - parse_s,
            "dsl.power_products": self.power_products,
            "report.render_s": L["report"],
            "cli.self_s": L["cli"],
        }

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for fid, start, end, span_id, parent, request in self.spans:
                handle.write(json.dumps([self.labels[fid], start, end, span_id,
                                         parent, request]) + "\n")


# -- layer kernels ------------------------------------------------------------------------------


def _time_call(fn, args, kwargs, clock, budget_s: float = 2e-3) -> float:
    """Seconds per call, repeating until the loop takes at least budget_s."""
    reps = 1
    while True:
        start = clock()
        for _ in range(reps):
            fn(*args, **kwargs)
        took = clock() - start
        if took >= budget_s:
            return took / reps
        reps *= 2


def kernel_metrics(captured: Dict[str, list], clock=time.perf_counter) -> Dict[str, float]:
    """Median microseconds per call of each kernel on its captured operands;
    0 for a kernel the workload never called."""
    from beauville_lab import k3, k3_mult, sparse, taut
    from beauville_lab.poly import Poly
    from beauville_lab.scalars import GaussianRational

    def first_part(x) -> Fraction:
        return next((p for p in (x.re, x.im) if p), Fraction(1))

    gr_pairs = captured.get("gr_mul_rational", []) + captured.get("gr_mul_complex", [])
    fraction_pairs = [((first_part(a), first_part(GaussianRational.coerce(b))), {})
                      for (a, b), _ in gr_pairs]
    kernels = {
        "kernel.fraction_mul_us": (Fraction.__mul__, fraction_pairs),
        "kernel.gr_mul_rational_us": (GaussianRational.__mul__,
                                      captured.get("gr_mul_rational", [])),
        "kernel.gr_mul_complex_us": (GaussianRational.__mul__,
                                     captured.get("gr_mul_complex", [])),
        "kernel.poly_mul_us": (Poly.__mul__, captured.get("poly_mul", [])),
        "kernel.bracket_scalar_us": (sparse.bracket, captured.get("bracket_scalar", [])),
        "kernel.bracket_poly_us": (sparse.bracket, captured.get("bracket_poly", [])),
        "kernel.rel_compose_us": (k3.rel_compose, captured.get("rel_compose", [])),
        "kernel.tri_mul_us": (k3_mult.tri_mul, captured.get("tri_mul", [])),
        "kernel.abelian_push_us": (taut.abelian_push, captured.get("abelian_push", [])),
    }
    out = {}
    for name, (fn, operand_sets) in kernels.items():
        times = [_time_call(fn, args, kwargs, clock) for args, kwargs in operand_sets]
        out[name] = statistics.median(times) * 1e6 if times else 0.0
    return out

"""Spans and per-layer counters for the traced run.

The tracer wraps public intsing functions and methods from outside: it
rebinds each target in every ``intsing.*`` module namespace that holds it
(or on its class), and puts the originals back on ``uninstall``.  Nothing is
installed in a timed run.

Each wrapped call adds to its metric's ``calls``, inclusive ``busy_s``,
``self_s`` (its duration minus that of the wrapped calls it made) and
``failed``.  Calls of the names in ``AGGREGATED`` are hot, so they make no
span of their own: their calls and seconds are summed into the nearest
enclosing span.  Every other wrapped call records a span
``[id, parent_id, name, start_s, end_s, op, aggregated]``; the runner opens
one ``op`` span per operation, so all spans of one operation share ``op``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict

# metric prefix -> (module, attribute or Class.method)
TARGETS = {
    "expr.jet2": ("intsing.expr", "Expression.jet2"),
    "expr.evaluate": ("intsing.expr", "Expression.evaluate"),
    "expr.diff": ("intsing.expr", "Expression.diff"),
    "expr.substitute": ("intsing.expr", "Expression.substitute"),
    "phasespace.component_jets": ("intsing.phasespace", "IntegrableModel.component_jets"),
    "phasespace.casimir_jets": ("intsing.phasespace", "IntegrableModel.casimir_jets"),
    "phasespace.momentum_value": ("intsing.phasespace", "IntegrableModel.momentum_value"),
    "phasespace.bivector_at": ("intsing.phasespace", "PoissonStructure.bivector_at"),
    "phasespace.bivector_gradients_at": ("intsing.phasespace", "PoissonStructure.bivector_gradients_at"),
    "phasespace.bracket": ("intsing.phasespace", "PoissonStructure.bracket"),
    "phasespace.check_commutation": ("intsing.phasespace", "check_commutation"),
    "phasespace.load_model": ("intsing.phasespace", "load_model"),
    "phasespace.PoissonStructure.jacobi_residual": ("intsing.phasespace", "PoissonStructure.jacobi_residual"),
    "phasespace.PoissonStructure.casimir_residual": ("intsing.phasespace", "PoissonStructure.casimir_residual"),
    "canonical.randomized_disguise": ("intsing.canonical", "randomized_disguise"),
    "kovalevskaya.build_kovalevskaya": ("intsing.kovalevskaya", "build_kovalevskaya"),
    "kovalevskaya.involution_fixed_points": ("intsing.kovalevskaya", "involution_fixed_points"),
    "classify.leaf_frame": ("intsing.classify", "leaf_frame"),
    "classify.rank_at": ("intsing.classify", "rank_at"),
    "classify.linearize": ("intsing.classify", "linearize"),
    "classify.reduce_at": ("intsing.classify", "reduce_at"),
    "classify.is_nondegenerate": ("intsing.classify", "is_nondegenerate"),
    "classify.classify_point": ("intsing.classify", "classify_point"),
    "classify.williamson_type": ("intsing.classify", "williamson_type"),
    "bifurcation.seed_arcs_near_vertex": ("intsing.bifurcation", "seed_arcs_near_vertex"),
    "bifurcation.scan_singular_points": ("intsing.bifurcation", "scan_singular_points"),
    "bifurcation.trace_diagram": ("intsing.bifurcation", "trace_diagram"),
    "bifurcation.refine_singular_point": ("intsing.bifurcation", "refine_singular_point"),
    "atoms.random_product": ("intsing.atoms", "random_product"),
    "atoms.product_from_dict": ("intsing.atoms", "product_from_dict"),
    "atoms.cross_check_criteria": ("intsing.atoms", "cross_check_criteria"),
    "atoms.stability_verdict": ("intsing.atoms", "stability_verdict"),
    "atoms.complexity": ("intsing.atoms", "complexity"),
    "groups.group_by_name": ("intsing.groups", "group_by_name"),
    "groups.homomorphisms_to_sym": ("intsing.groups", "FiniteGroup.homomorphisms_to_sym"),
    "cli.main": ("intsing.cli", "main"),
}

AGGREGATED = {
    "expr.jet2",
    "expr.evaluate",
    "expr.diff",
    "expr.substitute",
    "phasespace.component_jets",
    "phasespace.casimir_jets",
    "phasespace.momentum_value",
    "phasespace.bivector_at",
    "phasespace.bivector_gradients_at",
}

# Calls counted separately when made inside another call: callee -> ancestors.
INSIDE = {
    "phasespace.component_jets": ("bifurcation.trace_diagram", "classify.classify_point"),
    "classify.leaf_frame": ("classify.classify_point",),
}

# A call that returns without raising but reports failure.
FAILED_RESULT = {"classify.williamson_type": lambda r: not hasattr(r, "triple")}

# Arguments that identify distinct work, for `distinct_keys`.
KEYS = {"groups.homomorphisms_to_sym": lambda args, kw: (tuple(map(tuple, args[0].table)), args[1] if len(args) > 1 else kw["k"])}

SRC_MODULES = ("expr", "phasespace", "canonical", "classify", "bifurcation", "atoms", "groups", "kovalevskaya", "cli")

REFINE = "bifurcation.refine_singular_point"
REFINE_FAILURES = ("RefineDivergence", "RankCertificationError")


def _stat_metrics():
    out = []

    def add(prefix, *stats):
        for s in stats:
            out.append((f"{prefix}.{s}", "s" if s.endswith("_s") else "count"))

    add("expr.jet2", "calls", "busy_s", "self_s")
    add("expr.evaluate", "calls", "busy_s", "self_s")
    add("expr.diff", "calls", "busy_s")
    add("expr.substitute", "busy_s")
    for name in ("component_jets", "casimir_jets"):
        add(f"phasespace.{name}", "calls", "busy_s")
    add("phasespace.momentum_value", "calls")
    for name in ("bivector_at", "bivector_gradients_at"):
        add(f"phasespace.{name}", "calls", "busy_s")
    for name in ("bracket", "check_commutation", "load_model", "PoissonStructure.jacobi_residual",
                 "PoissonStructure.casimir_residual"):
        add(f"phasespace.{name}", "busy_s")
    add("canonical.randomized_disguise", "calls", "busy_s")
    add("kovalevskaya.build_kovalevskaya", "busy_s")
    add("kovalevskaya.involution_fixed_points", "busy_s")
    for name in ("leaf_frame", "rank_at", "linearize", "reduce_at", "is_nondegenerate", "classify_point"):
        add(f"classify.{name}", "calls", "busy_s", "self_s")
    add("classify.williamson_type", "calls", "busy_s", "failed")
    out += [("classify.leaf_frames_per_point", "ratio"), ("classify.jet_sets_per_point", "ratio")]
    for name in ("seed_arcs_near_vertex", "scan_singular_points", "trace_diagram"):
        add(f"bifurcation.{name}", "busy_s")
    add(REFINE, "calls", "busy_s", "failed")
    out += [(f"{REFINE}.failed.{cls}", "count") for cls in REFINE_FAILURES + ("other",)]
    out += [("bifurcation.seeds", "count"), ("bifurcation.arcs", "count"), ("bifurcation.arc_points", "count")]
    out += [("bifurcation.arc_points_per_jet_set", "ratio"), ("bifurcation.refine_success_ratio", "ratio")]
    for name in ("random_product", "product_from_dict", "cross_check_criteria", "stability_verdict"):
        add(f"atoms.{name}", "busy_s")
    add("atoms.complexity", "calls", "busy_s", "failed")
    for name in ("group_by_name", "homomorphisms_to_sym"):
        add(f"groups.{name}", "calls", "busy_s")
    out.append(("groups.homomorphisms_to_sym.distinct_keys", "count"))
    add("cli.main", "self_s")
    out += [(f"{m}.src_lines", "lines") for m in SRC_MODULES]
    out.append(("trace.overhead_ratio", "ratio"))
    return out


PER_LAYER = _stat_metrics()


class Stat:
    __slots__ = ("calls", "busy_s", "self_s", "failed", "failed_by", "keys")

    def __init__(self):
        self.calls = 0
        self.busy_s = 0.0
        self.self_s = 0.0
        self.failed = 0
        self.failed_by = defaultdict(int)
        self.keys = set()


def _resolve(module: str, attr: str):
    mod = importlib.import_module(module)
    owner_name, _, meth = attr.rpartition(".")
    if owner_name:
        owner = getattr(mod, owner_name)
        return owner, meth, owner.__dict__[meth]
    return None, attr, getattr(mod, attr)


def _intsing_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "intsing" or name.startswith("intsing.")]


def namespace_snapshot() -> dict:
    """Every attribute of every loaded intsing module and of the classes they
    define, by identity; equal snapshots mean no wrapper is bound."""
    snap = {}
    for mod in _intsing_modules():
        for key, value in vars(mod).items():
            snap[(mod.__name__, key)] = id(value)
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for ckey, cvalue in vars(value).items():
                    snap[(mod.__name__, key, ckey)] = id(cvalue)
    return snap


class Tracer:
    def __init__(self):
        self.stats = {name: Stat() for name in TARGETS}
        self.inside = defaultdict(int)
        self.spans = []
        self._stack = []  # open wrapped calls: [seconds spent in wrapped callees]
        self._span_stack = []  # open spans: [span_id, aggregated]
        self._active = defaultdict(int)
        self._next_id = 0
        self._op = None
        self._origin = time.perf_counter()
        self._saved = []  # (namespace object, attribute, original)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = _intsing_modules()
        for name, (module, attr) in TARGETS.items():
            owner, key, original = _resolve(module, attr)
            wrapper = self._wrap(name, original)
            if owner is not None:
                self._saved.append((owner, key, original))
                setattr(owner, key, wrapper)
                continue
            for mod in modules:
                for mkey, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, mkey, original))
                        setattr(mod, mkey, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    # -- recording ---------------------------------------------------------

    def _open_span(self, name: str):
        span_id = self._next_id
        self._next_id += 1
        parent = self._span_stack[-1][0] if self._span_stack else None
        frame = [span_id, {}]
        self._span_stack.append(frame)
        return frame, parent

    def _close_span(self, frame, parent, name, t0, t1):
        self._span_stack.pop()
        agg = {k: [c, round(s, 9)] for k, (c, s) in frame[1].items()}
        self.spans.append([frame[0], parent, name, t0 - self._origin, t1 - self._origin, self._op, agg])

    @contextlib.contextmanager
    def operation(self, op: int, name: str):
        """The root span of one operation's spans."""
        self._op = op
        frame, parent = self._open_span(name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close_span(frame, parent, name, t0, time.perf_counter())
            self._op = None

    def _wrap(self, name: str, fn):
        stat = self.stats[name]
        makes_span = name not in AGGREGATED
        ancestors = INSIDE.get(name, ())
        failed_result = FAILED_RESULT.get(name)
        key_fn = KEYS.get(name)
        stack, span_stack, active, inside = self._stack, self._span_stack, self._active, self.inside
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for anc in ancestors:
                if active[anc]:
                    inside[(name, anc)] += 1
            if key_fn is not None:
                stat.keys.add(key_fn(args, kwargs))
            parent = stack[-1] if stack else None
            frame = [0.0]
            stack.append(frame)
            active[name] += 1
            if makes_span:
                span, span_parent = self._open_span(name)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                stat.failed += 1
                stat.failed_by[type(exc).__name__] += 1
                raise
            else:
                if failed_result is not None and failed_result(result):
                    stat.failed += 1
                    stat.failed_by[type(result).__name__] += 1
                return result
            finally:
                t1 = perf_counter()
                dur = t1 - t0
                stack.pop()
                active[name] -= 1
                stat.calls += 1
                if not active[name]:  # inclusive time of the outermost call only
                    stat.busy_s += dur
                stat.self_s += dur - frame[0]
                if parent is not None:
                    parent[0] += dur
                if makes_span:
                    self._close_span(span, span_parent, name, t0, t1)
                elif span_stack:
                    agg = span_stack[-1][1].setdefault(name, [0, 0.0])
                    agg[0] += 1
                    agg[1] += dur

        return wrapper

    # -- report ------------------------------------------------------------

    def metrics(self, counts: dict, src_lines: dict, overhead_ratio: float) -> dict:
        """Every PER_LAYER metric, 0 where the workload does not use the layer."""
        values = {}
        for name, st in self.stats.items():
            values[f"{name}.calls"] = st.calls
            values[f"{name}.busy_s"] = st.busy_s
            values[f"{name}.self_s"] = st.self_s
            values[f"{name}.failed"] = st.failed
        refine = self.stats[REFINE]
        for cls in REFINE_FAILURES:
            values[f"{REFINE}.failed.{cls}"] = refine.failed_by.get(cls, 0)
        values[f"{REFINE}.failed.other"] = refine.failed - sum(refine.failed_by.get(c, 0) for c in REFINE_FAILURES)
        values["groups.homomorphisms_to_sym.distinct_keys"] = len(self.stats["groups.homomorphisms_to_sym"].keys)
        values.update(counts)
        for module, lines in src_lines.items():
            values[f"{module}.src_lines"] = lines
        values["trace.overhead_ratio"] = overhead_ratio
        for name, ((_, num), (_, base)) in self.ratio_bases(counts).items():
            values[name] = num / base if base else 0.0
        return {name: {"value": values.get(name, 0), "unit": unit} for name, unit in PER_LAYER}

    def ratio_bases(self, counts: dict) -> dict:
        """Each ratio metric's numerator and base: name -> ((label, count), (label, count))."""
        refine = self.stats[REFINE]
        points = ("classify.classify_point.calls", self.stats["classify.classify_point"].calls)
        in_point, in_trace = "[in classify_point]", "[in trace_diagram]"
        return {
            "classify.leaf_frames_per_point": (
                ("classify.leaf_frame.calls" + in_point, self.inside[("classify.leaf_frame", "classify.classify_point")]),
                points,
            ),
            "classify.jet_sets_per_point": (
                ("phasespace.component_jets.calls" + in_point,
                 self.inside[("phasespace.component_jets", "classify.classify_point")]),
                points,
            ),
            "bifurcation.arc_points_per_jet_set": (
                ("bifurcation.arc_points", counts.get("bifurcation.arc_points", 0)),
                ("phasespace.component_jets.calls" + in_trace,
                 self.inside[("phasespace.component_jets", "bifurcation.trace_diagram")]),
            ),
            "bifurcation.refine_success_ratio": (
                (f"{REFINE}.calls - failed", refine.calls - refine.failed),
                (f"{REFINE}.calls", refine.calls),
            ),
        }

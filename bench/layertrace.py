"""Per-layer spans recorded from outside the program.

The tracer replaces public functions of weilad's layers with wrappers that
open a span around the call.  A function is rebound in every ``weilad.*``
module namespace that holds it, because from-imports (``functor`` holds its
own ``present_algebra``, ``laws`` its own ``tensor``) keep separate
references.  Spans live in flat arrays in memory: name, start, end, parent
span and request id.  Self time is derived afterwards: a span's duration
minus the durations of its children.

Counts that characterise the work (distinct algebras, useful pairs of the
multiply kernel, enumeration sizes) are computed from public attributes
(``basis``, ``vanishing``, functor element sets), outside the spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import weakref
from array import array
from collections import defaultdict
from time import perf_counter

PRIMITIVE_NAMES = ("exp", "log", "sin", "cos", "tan", "sqrt", "atan", "tanh", "recip")

FINCAT_FUNCTIONS = {
    "exponential": "weilad.fincat.exponential",
    "verify_ccc": "weilad.fincat.exponential",
    "slice_exponential": "weilad.fincat.slices",
    "verify_slice_ccc": "weilad.fincat.slices",
    "exp_compat_check": "weilad.fincat.weil_action",
    "exp_compat_check_slice": "weilad.fincat.weil_action",
    "localization_check": "weilad.fincat.weil_action",
}

# Laws by model, as the law suite declares them; finset laws always run rational.
NUMERIC_LAWS = ("L1", "L2", "L3", "L5", "L6", "L8", "L9", "L11")
FINSET_LAWS = ("L1", "L2", "L3", "L4", "L5", "L6", "L7", "L10", "L11", "L12")
LAW_SPANS = tuple(
    ["laws.%s.numeric.%s" % (law, mode) for law in NUMERIC_LAWS for mode in ("rational", "float")]
    + ["laws.%s.finset.rational" % law for law in FINSET_LAWS]
)

SPACE_CAP = 10 ** 18

# Layers reported with calls, self and inclusive time per request.
TIMED_LAYERS = (
    "cli.main",
    "functor.jet",
    "functor.partials",
    "expr.parse",
    "expr.evaluate",
    "functor.lift_eval",
    "functor.nest_iso",
    "functor.nest_iso_inv",
    "algebra.present_algebra",
    "algebra.tensor",
    "algebra.morphism_from_generator_images",
    "algebra.mul_coeffs",
    "numbers.invert",
    "numbers.push_along",
    "primitives.apply_primitive",
    "fincat.enumerate_nat_trans",
)


def per_layer_metrics():
    """(name, unit, better) for every per-layer metric, in report order."""
    out = []
    for layer in TIMED_LAYERS:
        out += [(layer + ".calls", "count/req", "lower"),
                (layer + ".self_s", "s/req", "lower"),
                (layer + ".incl_s", "s/req", "lower")]
    out += [("algebra.present_algebra.distinct_frac", "ratio", "lower"),
            ("algebra.tensor.distinct_frac", "ratio", "lower"),
            ("algebra.mul_coeffs.useful_pair_frac", "ratio", "higher"),
            ("fincat.enumerate_nat_trans.yielded", "count/req", "lower"),
            ("fincat.enumerate_nat_trans.space", "count/req", "lower")]
    out += [("primitives.%s.self_s" % p, "s/req", "lower") for p in PRIMITIVE_NAMES]
    out += [("fincat.%s.self_s" % f, "s/req", "lower") for f in FINCAT_FUNCTIONS]
    out += [("report.jsonable.self_s", "s/req", "lower"),
            ("corpus.algebra_family.calls", "count/req", "lower"),
            ("corpus.morphism_family.calls", "count/req", "lower")]
    out += [(name + ".incl_s", "s/req", "lower") for name in LAW_SPANS]
    out += [("trace.overhead_frac", "ratio", "lower"),
            ("trace.attributed_frac", "ratio", "higher")]
    return out


def useful_pairs(algebra) -> int:
    """Basis pairs whose product survives in a monomial quotient.

    The basis of a monomial quotient is closed under taking divisors, so
    basis[i] * basis[j] survives exactly when it is a basis monomial m, and
    each m arises from prod(e + 1) ordered pairs, one per divisor of m.
    """
    total = 0
    for m in algebra.basis:
        n = 1
        for _, e in m.exps:
            n *= e + 1
        total += n
    return total


class Tracer:
    """Spans in flat arrays, opened and closed by installed wrappers."""

    def __init__(self):
        self.names = []            # span name per name id
        self.groups = []           # layer group per name id
        self._ids = {}
        self._group_ids = {}
        self._depth = []           # open spans per group
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request_of = array("i")
        self.outermost = array("b")  # no enclosing span of the same group
        self.stack = []
        self.request = -1
        self.counters = defaultdict(float)
        self.missing = []
        self._restore = []
        self._pairs = {}           # id(algebra) -> (weakref, useful pairs, dim^2)
        self._seen = defaultdict(set)  # layer -> distinct argument keys

    # -- spans --------------------------------------------------------------

    def name_id(self, name, group=None) -> int:
        nid = self._ids.get(name)
        if nid is None:
            group = group or name
            gid = self._group_ids.setdefault(group, len(self._group_ids))
            if gid == len(self._depth):
                self._depth.append(0)
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.groups.append(gid)
        return nid

    def open(self, nid) -> int:
        idx = len(self.start)
        gid = self.groups[nid]
        self.outermost.append(self._depth[gid] == 0)
        self._depth[gid] += 1
        self.span_name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.request_of.append(self.request)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()
        self._depth[self.groups[self.span_name[idx]]] -= 1

    def in_group(self, nid) -> bool:
        return self._depth[self.groups[nid]] > 0

    # -- wrapping -----------------------------------------------------------

    def _wrapper(self, orig, span, after=None, collapse=False):
        """A wrapper that runs ``orig`` inside a span.

        ``span`` is a fixed name id or a function of the call's arguments
        returning one.  ``after(args, result)`` runs outside the span.  With
        ``collapse``, calls made inside an open span of the same group run
        unwrapped (for recursive helpers).
        """
        tracer = self
        fixed = span if isinstance(span, int) else None

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            nid = fixed if fixed is not None else span(args)
            if collapse and tracer.in_group(nid):
                return orig(*args, **kwargs)
            idx = tracer.open(nid)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _target(self, module, attr):
        """The function to wrap, or None (listed as missing) if it is gone."""
        try:
            orig = getattr(importlib.import_module(module), attr, None)
        except ImportError:
            orig = None
        if orig is None:
            self.missing.append("%s.%s" % (module, attr))
        return orig

    def _rebind(self, orig, wrapper) -> None:
        """Replace ``orig`` in every weilad namespace that binds it."""
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "weilad" or name.startswith("weilad.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)
                    self._restore.append((mod, key, orig))

    def wrap_function(self, module, attr, span, after=None, collapse=False) -> None:
        orig = self._target(module, attr)
        if orig is not None:
            self._rebind(orig, self._wrapper(orig, span, after, collapse))

    def wrap_method(self, module, cls_name, attr, span, after=None) -> None:
        cls = self._target(module, cls_name)
        if cls is None:
            return
        orig = cls.__dict__.get(attr)
        if orig is None:
            self.missing.append("%s.%s.%s" % (module, cls_name, attr))
            return
        setattr(cls, attr, self._wrapper(orig, span, after))
        self._restore.append((cls, attr, orig))

    def wrap_generator(self, module, attr, span, on_call=None) -> None:
        """Time each ``next()`` of the generators a function returns."""
        orig = self._target(module, attr)
        if orig is None:
            return
        tracer = self
        name = tracer.names[span]

        def iterate(gen):
            try:
                while True:
                    idx = tracer.open(span)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(idx)
                    tracer.counters[name + ".yielded"] += 1
                    yield item
            finally:
                gen.close()

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            tracer.counters[name + ".calls"] += 1
            if on_call is not None:
                on_call(args)
            return iterate(orig(*args, **kwargs))

        self._rebind(orig, wrapper)

    def uninstall(self) -> None:
        for obj, key, orig in reversed(self._restore):
            setattr(obj, key, orig)
        self._restore.clear()

    # -- counts ---------------------------------------------------------------

    def _count_distinct(self, layer, algebra_of):
        """An after-hook recording the presentation of each algebra built."""
        seen = self._seen[layer]

        def after(args, result):
            w = algebra_of(result)
            seen.add((w.generator_names, w.vanishing))

        return after

    def _count_pairs(self, args, result):
        algebra = args[0]
        entry = self._pairs.get(id(algebra))
        if entry is None or entry[0]() is not algebra:
            entry = (weakref.ref(algebra), useful_pairs(algebra), algebra.dim * algebra.dim)
            self._pairs[id(algebra)] = entry
        self.counters["mul_coeffs.useful"] += entry[1]
        self.counters["mul_coeffs.pairs"] += entry[2]

    def _count_space(self, args):
        f, g = args[0], args[1]
        total = 1
        for c in f.cat.objects:
            total *= max(1, len(g.at(c))) ** len(f.at(c))
        # Spaces past the enumeration bound are refused, not searched; the cap
        # keeps the sum a finite float.
        self.counters["fincat.enumerate_nat_trans.space"] += min(total, SPACE_CAP)

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer function listed in per_layer_metrics().

        Modules the workload has not imported are imported here; a function
        that cannot be found is listed in ``missing``.
        """
        fn = self.wrap_function
        fn("weilad.cli", "main", self.name_id("cli.main"))
        fn("weilad.functor", "jet", self.name_id("functor.jet"))
        fn("weilad.functor", "partials", self.name_id("functor.partials"))
        fn("weilad.expr", "parse_expr", self.name_id("expr.parse"))
        fn("weilad.expr", "parse_function_file", self.name_id("expr.parse"))
        fn("weilad.expr", "evaluate", self.name_id("expr.evaluate"))
        for f in ("lift_eval", "nest_iso", "nest_iso_inv"):
            fn("weilad.functor", f, self.name_id("functor." + f))
        fn("weilad.algebra", "present_algebra", self.name_id("algebra.present_algebra"),
           after=self._count_distinct("algebra.present_algebra", lambda w: w))
        fn("weilad.algebra", "tensor", self.name_id("algebra.tensor"),
           after=self._count_distinct("algebra.tensor", lambda t: t.algebra))
        fn("weilad.algebra", "morphism_from_generator_images",
           self.name_id("algebra.morphism_from_generator_images"))
        self.wrap_method("weilad.algebra", "WeilAlgebra", "mul_coeffs",
                         self.name_id("algebra.mul_coeffs"), after=self._count_pairs)
        fn("weilad.numbers", "invert", self.name_id("numbers.invert"))
        fn("weilad.numbers", "push_along", self.name_id("numbers.push_along"))
        group = "primitives.apply_primitive"
        fn("weilad.primitives", "apply_primitive",
           lambda args: self.name_id("primitives." + args[0].name, group))
        self.wrap_generator("weilad.fincat.core", "enumerate_nat_trans",
                            self.name_id("fincat.enumerate_nat_trans"), on_call=self._count_space)
        for f, module in FINCAT_FUNCTIONS.items():
            fn(module, f, self.name_id("fincat." + f))
        fn("weilad.report", "_jsonable", self.name_id("report.jsonable"), collapse=True)
        fn("weilad.corpus", "algebra_family", self.name_id("corpus.algebra_family"))
        fn("weilad.corpus", "morphism_family", self.name_id("corpus.morphism_family"))
        fn("weilad.laws", "run_law",
           lambda args: self.name_id("laws.%s.%s.%s" % (args[0].law_id, args[0].model,
                                                         args[0].scalar_mode), "laws.run_law"))

    # -- results --------------------------------------------------------------

    def span_count(self) -> int:
        return len(self.start)

    def aggregate(self):
        """Per name and per group: calls, self seconds, outermost inclusive seconds."""
        n = len(self.start)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        per = defaultdict(lambda: [0, 0.0, 0.0])
        group_name = {gid: g for g, gid in self._group_ids.items()}
        total_self = 0.0
        for i in range(n):
            nid = self.span_name[i]
            dur = end[i] - start[i]
            own = dur - child[i]
            total_self += own
            for key in {self.names[nid], group_name[self.groups[nid]]}:
                row = per[key]
                row[0] += 1
                row[1] += own
                if self.outermost[i]:
                    row[2] += dur
        return per, total_self

    def metrics(self, requests: int, busy_s: float, overhead_s: float) -> dict:
        """Every per-layer metric, normalised per completed request."""
        per, total_self = self.aggregate()
        c = self.counters
        out = {}
        for name, unit, _ in per_layer_metrics():
            layer, _, kind = name.rpartition(".")
            row = per.get(layer, (0, 0.0, 0.0))
            if kind == "calls":
                value = c.get(name, row[0])
            elif kind == "self_s":
                value = row[1]
            elif kind == "incl_s":
                value = row[2]
            elif kind == "yielded" or kind == "space":
                value = c.get(name, 0.0)
            elif name == "algebra.mul_coeffs.useful_pair_frac":
                value = c["mul_coeffs.useful"] / c["mul_coeffs.pairs"] if c["mul_coeffs.pairs"] else 0.0
            elif kind == "distinct_frac":
                calls = per.get(layer, (0,))[0]
                value = len(self._seen.get(layer, ())) / calls if calls else 0.0
            elif name == "trace.overhead_frac":
                value = overhead_s / busy_s
            elif name == "trace.attributed_frac":
                value = total_self / busy_s
            else:
                raise KeyError(name)
            if unit.endswith("/req"):
                value /= requests
            out[name] = {"value": float(value), "unit": unit}
        return out


def wrapper_cost(calls: int = 20000) -> float:
    """Seconds a span adds to one wrapped call, measured on a no-op function."""

    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer._wrapper(noop, tracer.name_id("calibrate"))
    t0 = perf_counter()
    for _ in range(calls):
        noop()
    plain = perf_counter() - t0
    t0 = perf_counter()
    for _ in range(calls):
        wrapped()
    return max(0.0, (perf_counter() - t0 - plain) / calls)

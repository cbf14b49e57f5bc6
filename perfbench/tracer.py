"""Outside-in tracer for the ginshift layers.

The tracer changes nothing in the package. It wraps each layer's public
calls from outside, at every binding a caller looks the function up through
(``from .gin import gin_space`` gives ``verifier`` its own binding, and the
package re-exports many names), and it wraps methods on the classes that
carry them. A span holds a name, start, end and parent span; all spans of
one pass share the tracer's run id. Spans stay in memory and are written out
when the pass ends. Counters are recorded at the same boundaries.

A span nested inside a span of the same name (``gin_adaptive`` calling
``gin``, ``condition_peelable`` calling ``base_form``) is not opened again,
so ``.calls`` counts outermost calls. Self time is a span's duration minus
the time its child spans cover.

``CoordinateChange.minor`` recurses through ``self.minor`` and runs for
every entry of every minor table, so it gets counters and no span; so does
``verifier.pair_shift``, one call per step of the pair-family BFS.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

#: per-layer metrics: (name, unit, better); BENCHMARK.json lists the same
PER_LAYER = [
    ("graphs.enumerate.calls", "count", "lower"),
    ("graphs.enumerate.self_s", "s", "lower"),
    ("graphs.classify.calls", "count", "lower"),
    ("graphs.classify.self_s", "s", "lower"),
    ("changes.apply_ext.calls", "count", "lower"),
    ("changes.apply_ext.self_s", "s", "lower"),
    ("changes.apply_ext.terms", "count", "lower"),
    ("changes.minor.calls", "count", "lower"),
    ("changes.minor.hit_ratio", "ratio", "higher"),
    ("changes.apply_poly.calls", "count", "lower"),
    ("changes.apply_poly.self_s", "s", "lower"),
    ("changes.apply_poly.terms", "count", "lower"),
    ("changes.construct.calls", "count", "lower"),
    ("changes.construct.self_s", "s", "lower"),
    ("changes.singular_retries", "count", "lower"),
    ("orders.sort.calls", "count", "lower"),
    ("orders.sort.self_s", "s", "lower"),
    ("orders.sort.items", "count", "lower"),
    ("linalg.assemble.calls", "count", "lower"),
    ("linalg.assemble.self_s", "s", "lower"),
    ("linalg.assemble.cells", "count", "lower"),
    ("linalg.rref_prime.calls", "count", "lower"),
    ("linalg.rref_prime.self_s", "s", "lower"),
    ("linalg.rref_prime.cells", "count", "lower"),
    ("linalg.rref_prime.rank_ratio", "ratio", "higher"),
    ("linalg.rref_exact.calls", "count", "lower"),
    ("linalg.rref_exact.self_s", "s", "lower"),
    ("linalg.rref_exact.cells", "count", "lower"),
    ("ideals.degree_component.calls", "count", "lower"),
    ("ideals.degree_component.self_s", "s", "lower"),
    ("ideals.make.calls", "count", "lower"),
    ("ideals.make.self_s", "s", "lower"),
    ("ideals.stable_check.calls", "count", "lower"),
    ("ideals.stable_check.self_s", "s", "lower"),
    ("gin.certify.calls", "count", "lower"),
    ("gin.certify.self_s", "s", "lower"),
    ("gin.trials", "count", "lower"),
    ("gin.escalations", "count", "lower"),
    ("gin.trials_per_result", "trials/result", "lower"),
    ("shift.steps", "count", "lower"),
    ("shift.self_s", "s", "lower"),
    ("shift.witnesses", "count", "higher"),
    ("shift.witnesses_per_step", "ratio", "higher"),
    ("invariants.oracle.calls", "count", "lower"),
    ("invariants.oracle.self_s", "s", "lower"),
    ("invariants.oracle.taylor_faces", "count", "lower"),
    ("invariants.closed_form.self_s", "s", "lower"),
    ("trace.run_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

#: which workloads each layer's work should show on: (call counters,
#: workloads where the layer moves run_s, workloads predicted to make zero
#: calls). The bypass workloads are where an optimisation of that layer
#: must read "no change".
TABLE = [
    (("graphs.enumerate.calls", "graphs.classify.calls"),
     ("thm2_n6", "thm1_n6"), ("properties_200", "betti_oracle")),
    (("changes.apply_ext.calls", "changes.minor.calls"),
     ("properties_200", "thm1_n6"), ("thm2_n6", "betti_oracle")),
    (("changes.apply_poly.calls",),
     ("thm2_n6", "properties_200"), ("thm1_n6", "betti_oracle")),
    (("changes.construct.calls",),
     ("thm1_n6", "thm2_n6", "properties_200"), ("betti_oracle",)),
    (("orders.sort.calls", "linalg.assemble.calls"),
     ("thm1_n6", "thm2_n6"), ("betti_oracle",)),
    (("linalg.rref_prime.calls",),
     ("thm1_n6", "properties_200", "thm2_n6"), ("betti_oracle",)),
    (("linalg.rref_exact.calls",),
     ("betti_oracle", "properties_200"), ("thm1_n6", "thm2_n6")),
    (("ideals.degree_component.calls", "ideals.make.calls",
      "ideals.stable_check.calls"),
     ("properties_200", "thm1_n6"), ()),
    (("gin.certify.calls",), ("thm1_n6", "thm2_n6"), ("betti_oracle",)),
    (("shift.steps",), ("properties_200", "thm1_n6"),
     ("thm2_n6", "betti_oracle")),
    (("invariants.oracle.calls",), ("betti_oracle",),
     ("thm1_n6", "thm2_n6", "properties_200")),
]


def table_mismatches(workload: str, metrics: dict) -> list[str]:
    """Cells of TABLE that the traced metrics of one workload contradict."""
    out = []
    for counters, moves, zero in TABLE:
        for name in counters:
            value = metrics[name]
            if workload in zero and value != 0:
                out.append(f"{name} = {value} on {workload}, predicted 0")
            if workload in moves and value == 0:
                out.append(f"{name} = 0 on {workload}, predicted non-zero")
    return out


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.open: Counter = Counter()
        self.missing: list[str] = []
        self.minor_tally = [0, 0]  # calls, cache hits
        self.pair_shift_tally = [0]
        self._stack: list[list] = []  # [span index, start, child seconds]
        self._patches: list[tuple] = []  # (owner, attribute, original)

    # -- spans ------------------------------------------------------------

    def _begin(self, name: str) -> None:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.open[name] += 1
        self.counts[name + ".calls"] += 1
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_end.append(0.0)
        start = time.perf_counter()
        self.span_start.append(start)
        self._stack.append([len(self.span_start) - 1, start, 0.0])

    def _end(self, name: str) -> None:
        end = time.perf_counter()
        index, start, child = self._stack.pop()
        self.span_end[index] = end
        self.self_s[name] += end - start - child
        if self._stack:
            self._stack[-1][2] += end - start
        self.open[name] -= 1

    def span(self, name: str, fn, after=None):
        """``fn`` inside a span; ``after(counts, args, kwargs, result,
        outer)`` records counters once the call has returned."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = not tracer.open[name]
            if outer:
                tracer._begin(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._end(name)
            else:
                result = fn(*args, **kwargs)
            if after is not None:
                after(tracer.counts, args, kwargs, result, outer)
            return result
        return wrapper

    # -- bindings -----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def patch_function(self, module: str, name: str, make) -> None:
        """Replace ``module.name`` at every ginshift binding of it."""
        fn = getattr(importlib.import_module(module), name, None)
        if fn is None:
            self.missing.append(f"{module}.{name}")
            return
        wrapper = make(fn)
        for modname, mod in list(sys.modules.items()):
            if modname == "ginshift" or modname.startswith("ginshift."):
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._set(mod, attr, wrapper)

    def patch_method(self, cls, name: str, make) -> None:
        raw = vars(cls).get(name)
        if raw is None:
            self.missing.append(f"{cls.__name__}.{name}")
            return
        if isinstance(raw, classmethod):
            self._set(cls, name, classmethod(make(raw.__func__)))
        else:
            self._set(cls, name, make(raw))

    def uninstall(self) -> list[str]:
        """Restore every binding; returns those that did not come back."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        return [f"{getattr(owner, '__name__', owner)}.{attr}"
                for owner, attr, original in self._patches
                if vars(owner).get(attr) is not original]

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer values; trace.run_s and trace.overhead_s are filled in
        by the caller, which timed the pass."""
        c, s = Counter(self.counts), self.self_s
        c["changes.minor.calls"], c["changes.minor.hits"] = self.minor_tally
        c["shift.steps"] += self.pair_shift_tally[0]

        def ratio(num, den):
            return c[num] / c[den] if c[den] else 0.0

        values = {name: float(c[name]) for name, unit, _ in PER_LAYER
                  if unit == "count"}
        values.update({name: s[name[:-len(".self_s")]]
                       for name, unit, _ in PER_LAYER
                       if name.endswith(".self_s")})
        values["changes.minor.hit_ratio"] = ratio("changes.minor.hits",
                                                  "changes.minor.calls")
        values["linalg.rref_prime.rank_ratio"] = ratio(
            "linalg.rref_prime.rank", "linalg.rref_prime.rows")
        values["gin.trials_per_result"] = ratio("gin.trials", "gin.results")
        values["shift.witnesses_per_step"] = ratio("shift.witnesses",
                                                   "shift.steps")
        return values

    def write(self, path: str) -> None:
        np.savez_compressed(
            path, run_id=np.array(self.run_id), names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.uint16),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32))


def _count(key, measure):
    def after(counts, args, kwargs, result, outer):
        counts[key] += measure(args, kwargs, result)
    return after


def install(tracer: Tracer) -> None:
    """Wrap the public calls of every layer. ``fields`` and ``monomials``
    are per-element arithmetic and stay in their callers' self time."""
    changes = importlib.import_module("ginshift.changes")
    linalg = importlib.import_module("ginshift.linalg")
    ideals = importlib.import_module("ginshift.ideals")
    monomials = importlib.import_module("ginshift.monomials")
    orders = importlib.import_module("ginshift.orders")
    span = tracer.span

    # graphs: enumeration (which lives in verifier) and the classifiers
    tracer.patch_function("ginshift.verifier", "enumerate_graphs",
                          lambda fn: span("graphs.enumerate", fn))
    for name in ("condition_forbidden", "condition_peelable", "base_form"):
        tracer.patch_function("ginshift.graphs", name,
                              lambda fn: span("graphs.classify", fn))

    # changes: the coordinate action, minors, construction
    cc = changes.CoordinateChange

    def length(key):
        return _count(key, lambda args, kwargs, result: len(result))

    def apply(fn):
        ext = span("changes.apply_ext", fn, length("changes.apply_ext.terms"))
        poly = span("changes.apply_poly", fn,
                    length("changes.apply_poly.terms"))

        @functools.wraps(fn)
        def wrapper(self, m):
            return (ext if isinstance(m, monomials.ExtMonomial)
                    else poly)(self, m)
        return wrapper

    def minor(fn):
        # runs millions of times per pass: keep the counting cheap
        tally = tracer.minor_tally

        @functools.wraps(fn)
        def wrapper(self, rows, cols):
            tally[0] += 1
            if (rows, cols) in getattr(self, "_minors", ()):
                tally[1] += 1
            return fn(self, rows, cols)
        return wrapper

    def construct(fn):
        traced = span("changes.construct", fn)
        retry = getattr(changes, "SingularMatrixError", ())

        @functools.wraps(fn)
        def wrapper(self):
            try:
                return traced(self)
            except retry:
                tracer.counts["changes.singular_retries"] += 1
                raise
        return wrapper

    def trial(fn):
        # a random coordinate change drawn inside a certified gin is a trial
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tracer.open["gin.certify"]:
                tracer.counts["gin.trials"] += 1
            return result
        return wrapper

    tracer.patch_method(cc, "apply", apply)
    tracer.patch_method(cc, "minor", minor)
    tracer.patch_method(cc, "__post_init__", construct)
    tracer.patch_method(cc, "random_dense", trial)
    tracer.patch_method(cc, "random_upper_triangular", trial)

    # orders, and matrix assembly
    tracer.patch_method(orders.TermOrder, "sort_descending", lambda fn: span(
        "orders.sort", fn, length("orders.sort.items")))
    tracer.patch_method(linalg.Subspace, "from_vectors", lambda fn: span(
        "linalg.assemble", fn, _count(
            "linalg.assemble.cells",
            lambda args, kwargs, result: len(result.rows)
            * len(result.columns))))

    # elimination
    def rref_prime_counts(counts, args, kwargs, result, outer):
        rows, cols = args[0].shape
        counts["linalg.rref_prime.cells"] += rows * cols
        counts["linalg.rref_prime.rows"] += rows
        counts["linalg.rref_prime.rank"] += len(result[1])

    tracer.patch_function("ginshift.linalg", "rref_prime", lambda fn: span(
        "linalg.rref_prime", fn, rref_prime_counts))
    tracer.patch_function("ginshift.linalg", "rref_exact", lambda fn: span(
        "linalg.rref_exact", fn, _count(
            "linalg.rref_exact.cells",
            lambda args, kwargs, result: len(args[0]) * len(args[0][0])
            if args[0] else 0)))

    # ideals
    tracer.patch_method(ideals.MonomialIdeal, "degree_component",
                        lambda fn: span("ideals.degree_component", fn))
    tracer.patch_method(ideals.MonomialIdeal, "make",
                        lambda fn: span("ideals.make", fn))
    tracer.patch_function("ginshift.ideals", "is_strongly_stable",
                          lambda fn: span("ideals.stable_check", fn))

    # gin certification; results counts the certified gins a call returns
    results = {"gin_multi": lambda args, kwargs: len(
                   _arg(args, kwargs, 0, "orders")),
               "gin_multi_adaptive": lambda args, kwargs: len(
                   _arg(args, kwargs, 0, "orders")),
               "gins_agree_adaptive": lambda args, kwargs: 2}

    def certify(name):
        count = results.get(name, lambda args, kwargs: 1)

        def after(counts, args, kwargs, result, outer):
            if outer:
                counts["gin.results"] += count(args, kwargs)
        return lambda fn: span("gin.certify", fn, after)

    for name in ("gin", "gin_adaptive", "gin_multi", "gin_multi_adaptive",
                 "gins_agree_adaptive", "gin_space"):
        tracer.patch_function("ginshift.gin", name, certify(name))

    def trial_rngs(fn):
        # a non-zero salt is the doubled-trials retry after a failure
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if _arg(args, kwargs, 2, "salt", 0):
                tracer.counts["gin.escalations"] += 1
            return fn(*args, **kwargs)
        return wrapper

    tracer.patch_function("ginshift.gin", "_trial_rngs", trial_rngs)

    # shift: algebraic and pair-family combinatorial shifting
    witnesses = length("shift.witnesses")
    steps = _count("shift.steps", lambda args, kwargs, result: len(
        _arg(args, kwargs, 2, "pairs")))
    tracer.patch_function("ginshift.gin", "combinatorial_shift",
                          lambda fn: span("shift", fn, steps))
    tracer.patch_function("ginshift.gin", "trans_witnesses",
                          lambda fn: span("shift", fn, witnesses))
    tracer.patch_function("ginshift.verifier", "degree2_trans_witnesses",
                          lambda fn: span("shift", fn, witnesses))

    def pair_shift(fn):
        tally = tracer.pair_shift_tally

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tally[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    tracer.patch_function("ginshift.verifier", "pair_shift", pair_shift)

    # invariants: the Taylor-complex oracle and the closed form
    tracer.patch_function("ginshift.invariants", "resolution_oracle",
                          lambda fn: span("invariants.oracle", fn, _count(
                              "invariants.oracle.taylor_faces",
                              lambda args, kwargs, result:
                              2 ** len(args[0].generators) - 1)))
    tracer.patch_function("ginshift.invariants", "betti_stable",
                          lambda fn: span("invariants.closed_form", fn))

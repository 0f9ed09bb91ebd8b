"""Layer spans and counters recorded from outside the confsym package.

`Tracer.install` wraps the public functions of every layer module plus a few
named methods and private helpers, and puts each wrapper at every binding of
the wrapped object: a name imported with `from .linalg import kernel_sparse`
is a second binding in `weyl`, and `_core.rref_sparse` is also bound in
`_core.pure`.  A wrapper records one span (name, start, end, parent) per call.
Spans stay in memory for one op and are folded into per-name totals when the
op ends, so memory does not grow with run length.

Self time is a span's duration minus the durations of its direct children.
Work that the wrappers do between a child's end and the parent's end (a few
list appends) therefore counts as the parent's self time; `trace.overhead_ratio`
bounds the total.

`ScalarCounter` counts `Scalar` constructions in a pass of its own, so that a
wrapper on the hottest constructor never inflates the traced self times.
"""

from __future__ import annotations

import sys
import time
import types
from collections import defaultdict

LAYERS = (
    "cli",
    "serialize",
    "symmetry",
    "flatmodel",
    "extension",
    "liealg",
    "weyl",
    "linalg",
    "_core",
    "scalars",
)

# Called once per Scalar entry of every Vector and Matrix; a span per call
# would cost more than the work it measures.
_SKIP = {("scalars", "as_scalar")}

# Methods, private helpers and the engine entry point (a builtin when the
# compiled backend is loaded) that the per-layer metrics name.
_EXTRA = {
    "_core": ("rref_sparse",),
    "weyl": ("WeylTensor.validate", "_constraint_rows"),
    "linalg": ("Matrix.__matmul__", "AffineSubspace.__init__"),
    "liealg": ("StructureAlgebra.__init__", "StructureAlgebra.bracket"),
    "extension": ("HomogeneousPair.__init__", "SymmetricPair.__init__"),
}


def layer_of(module_name: str) -> str | None:
    parts = module_name.split(".")
    if len(parts) < 2 or parts[0] != "confsym" or parts[1] not in LAYERS:
        return None
    return parts[1]


def _confsym_modules():
    return [m for n, m in list(sys.modules.items()) if n == "confsym" or n.startswith("confsym.")]


def _targets():
    """(layer, qualname, owner, attribute, original) for every wrapped callable."""
    out = []
    seen = set()
    for mod in _confsym_modules():
        layer = layer_of(mod.__name__)
        if layer is None:
            continue
        for attr, obj in vars(mod).items():
            if (
                isinstance(obj, types.FunctionType)
                and obj.__module__ == mod.__name__
                and not attr.startswith("_")
                and (layer, attr) not in _SKIP
                and id(obj) not in seen
            ):
                seen.add(id(obj))
                out.append((layer, attr, mod, attr, obj))
        if mod.__name__ != "confsym." + layer:
            continue
        for dotted in _EXTRA.get(layer, ()):
            owner = mod
            *path, attr = dotted.split(".")
            for part in path:
                owner = getattr(owner, part)
            obj = vars(owner)[attr]
            if callable(obj) and id(obj) not in seen:
                seen.add(id(obj))
                out.append((layer, dotted, owner, attr, obj))
    return out


class OpTotals:
    """Per-name totals over the ops of one traced phase."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.layer_self_ns = defaultdict(int)
        self.op_ns = 0
        self.ops = 0
        self.bridge_rows = 0
        self.rref_rows = 0
        self.rref_nnz = 0
        self.rref_pivots = 0
        self.rref_max_cols = 0
        self.rref_max_bits = 0


class Tracer:
    def __init__(self):
        self._stack: list[int] = []
        self._spans: list = []
        self._rref_io: list = []
        self._bridge_rows = [0]
        self._installed: list = []
        self.totals = OpTotals()

    # -- installation -------------------------------------------------------

    def install(self):
        if self._installed:
            raise RuntimeError("tracer already installed")
        replaced = {}
        for layer, qualname, owner, attr, orig in _targets():
            name = f"{layer}.{qualname}"
            if qualname == "rref_sparse":
                wrapper = self._wrap(name, orig, self._rref_hook)
            elif qualname == "sparse_rows_from_scalars":
                wrapper = self._wrap(name, orig, self._bridge_hook)
            else:
                wrapper = self._wrap(name, orig, None)
            replaced[id(orig)] = (orig, wrapper)
            if isinstance(owner, type):
                self._installed.append((owner, attr, orig))
                setattr(owner, attr, wrapper)
        for mod in _confsym_modules():
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._installed.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        return self

    def uninstall(self):
        for owner, attr, orig in reversed(self._installed):
            setattr(owner, attr, orig)
        self._installed.clear()

    def _wrap(self, name, fn, hook):
        stack = self._stack
        spans = self._spans
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if hook is not None:
                hook(args, result)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        wrapper.span_name = name
        return wrapper

    def _rref_hook(self, args, result):
        # Keep references only; the counters are computed after the op so the
        # pass over rows and coefficients never lands inside a timed span.
        self._rref_io.append((args[0], result))

    def _bridge_hook(self, args, result):
        self._bridge_rows[0] += len(args[0])

    def top_self(self, k: int) -> list:
        """[name, seconds per op] of the k spans with the most self time."""
        t = self.totals
        names = sorted(t.self_ns, key=t.self_ns.get, reverse=True)[:k]
        return [[n, t.self_ns[n] / 1e9 / t.ops] for n in names]

    # -- per-op bookkeeping -------------------------------------------------

    def begin_op(self):
        self._spans.clear()
        self._stack.clear()
        self._rref_io.clear()
        self._bridge_rows[0] = 0

    def end_op(self, op_ns: int):
        t = self.totals
        t.ops += 1
        t.op_ns += op_ns
        covered = defaultdict(int)
        for span in self._spans:
            if span is None:
                continue
            _, start, end, parent = span
            if parent >= 0:
                covered[parent] += end - start
        for idx, span in enumerate(self._spans):
            if span is None:
                continue
            name, start, end, _ = span
            own = end - start - covered.get(idx, 0)
            t.calls[name] += 1
            t.self_ns[name] += own
            t.layer_self_ns[name.split(".", 1)[0]] += own
        t.bridge_rows += self._bridge_rows[0]
        for rows, (pivots, reduced) in self._rref_io:
            t.rref_rows += len(rows)
            for cols, _ in rows:
                t.rref_nnz += len(cols)
                if cols:
                    t.rref_max_cols = max(t.rref_max_cols, cols[-1] + 1)
            t.rref_pivots += len(pivots)
            for _, triples in reduced:
                for x in triples:
                    bits = abs(x).bit_length()
                    if bits > t.rref_max_bits:
                        t.rref_max_bits = bits
        self.begin_op()


class ScalarCounter:
    """Counts Scalar constructions while installed."""

    def __init__(self, scalar_cls):
        self._cls = scalar_cls
        self._orig = None
        self.count = 0

    def install(self):
        orig = self._orig = self._cls.__init__
        counter = self

        def counting_init(obj, *args, **kwargs):
            counter.count += 1
            orig(obj, *args, **kwargs)

        self._cls.__init__ = counting_init
        return self

    def uninstall(self):
        self._cls.__init__ = self._orig

"""In-memory span tracing around planardyn's layer functions.

``Tracer.install`` replaces each traced function with a timing wrapper in
every planardyn module namespace (and class) that binds it, so calls made
through any import path are recorded; ``uninstall`` puts the originals
back.  The program's own files are not modified.

A span is (name, parent, start, end, aux), stored in flat arrays until the
run ends.  ``aux`` is the operand size in bits for the exact layers, the
context precision for ``collapse``, and -1 for a ``to_bigfloat`` call whose
argument is already a float of the target context.  A span's self time is
its duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict
from fractions import Fraction

# (module, attribute) of every traced function, in planardyn's layer order.
TARGETS = (
    ("numerics", "to_bigfloat"),
    ("numerics", "PLFunction.blend"),
    ("strips", "strip_locate"),
    ("square_map", "square_homeo"),
    ("square_map", "row_map"),
    ("collapse_map", "collapse"),
    ("collapse_map", "collapse_inv"),
    ("collapse_map", "cone_map"),
    ("plane_map", "tangent_chart"),
    ("plane_map", "lifted_core"),
    ("plane_map", "quotient_square_map"),
    ("dynamics", "limit_estimate"),
    ("dynamics", "semiconjugacy_probe"),
    ("dynamics", "displacement_scan"),
    ("dynamics", "check_collapse_conditions"),
)

# Transcendental calls counted while a collapse-layer span is open.
TRANSCENDENTALS = ("atan2", "atan", "tan", "sin", "cos", "sqrt")
COLLAPSE_SPANS = ("collapse_map.collapse", "collapse_map.collapse_inv", "collapse_map.cone_map")

OP = "op"
PASSTHROUGH = -1
_MISSING = object()


def _fraction_bits(v) -> int:
    if isinstance(v, Fraction):
        return max(v.numerator.bit_length(), v.denominator.bit_length())
    if isinstance(v, int):
        return v.bit_length()
    return 0


def _bigfloat_aux(args) -> int:
    value, ctx = args[0], args[1]
    if isinstance(value, (Fraction, int)):
        return _fraction_bits(value)
    return PASSTHROUGH if isinstance(value, ctx.mpf) else 0


def _point_aux(args) -> int:
    return max(_fraction_bits(v) for v in args[0])


def _prec_aux(args) -> int:
    return args[1].prec


_AUX = {
    "numerics.to_bigfloat": _bigfloat_aux,
    "square_map.square_homeo": _point_aux,
    "collapse_map.collapse": _prec_aux,
}


def _row() -> dict:
    """Totals of one traced function: calls, self and inclusive seconds,
    largest aux value and passthrough calls."""
    return {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "max_aux": 0, "passthrough": 0}


class Tracer:
    """Span recorder for one traced run; ``install`` before, ``uninstall`` after."""

    def __init__(self):
        self.names = [OP]
        self.ids = {OP: 0}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.aux = array("q")
        self.stack = []
        self.op_first = []  # index of each op's root span
        self.collapse_depth = 0
        self.transcendental_calls = 0
        self._restore = []

    # -- recording ------------------------------------------------------
    def _open(self, nid: int, aux: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.aux.append(aux)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def run_op(self, fn, item):
        self.op_first.append(len(self.name))
        i = self._open(0, 0)
        try:
            return fn(item)
        finally:
            self._close(i)

    def _wrapper(self, label: str, fn):
        nid = self.ids[label] = len(self.names)
        self.names.append(label)
        aux_of = _AUX.get(label)
        in_collapse = label in COLLAPSE_SPANS
        tracer = self

        def traced(*args, **kwargs):
            i = tracer._open(nid, aux_of(args) if aux_of else 0)
            if in_collapse:
                tracer.collapse_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                if in_collapse:
                    tracer.collapse_depth -= 1
                tracer._close(i)

        return traced

    def _counter(self, fn):
        tracer = self

        def counted(*args, **kwargs):
            if tracer.collapse_depth:
                tracer.transcendental_calls += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation ---------------------------------------------------
    def install(self, package: str, contexts) -> None:
        """Wrap every target wherever a loaded ``package`` module binds it,
        and count transcendental calls on the given contexts."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == package or n.startswith(package + "."))
        ]
        for mod_name, attr in TARGETS:
            owner = sys.modules[f"{package}.{mod_name}"]
            label = f"{mod_name}.{attr}"
            if "." in attr:  # a method: patch the class
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._set(cls, meth, self._wrapper(label, orig))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrapper(label, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, key, wrapper)
        for ctx in contexts:
            for fname in TRANSCENDENTALS:
                self._set(ctx, fname, self._counter(getattr(ctx, fname)))

    def _set(self, obj, key, value) -> None:
        self._restore.append((obj, key, vars(obj).get(key, _MISSING)))
        setattr(obj, key, value)

    def uninstall(self) -> None:
        for obj, key, old in reversed(self._restore):
            if old is _MISSING:
                delattr(obj, key)
            else:
                setattr(obj, key, old)
        self._restore.clear()

    # -- aggregation ----------------------------------------------------
    def summary(self, heavy_bits: int) -> dict:
        """Per-function totals over the whole traced run, plus per-op facts."""
        n = len(self.name)
        name, parent, aux, start, end = self.name, self.parent, self.aux, self.start, self.end
        child = array("d", bytes(8 * n))  # time covered by direct children
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        per = defaultdict(_row)
        by_prec = defaultdict(lambda: [0.0, 0])  # collapse: precision -> [incl_s, calls]
        collapse_id = self.ids.get("collapse_map.collapse")
        for i in range(n):
            nid = name[i]
            row = per[nid]
            d = end[i] - start[i]
            row["calls"] += 1
            row["self_s"] += d - child[i]
            a = aux[i]
            if a > row["max_aux"]:
                row["max_aux"] = a
            elif a == PASSTHROUGH:
                row["passthrough"] += 1
            p = parent[i]
            if p < 0 or name[p] != nid:  # outermost of a direct recursion
                row["incl_s"] += d
                if nid == collapse_id:
                    cell = by_prec[a]
                    cell[0] += d
                    cell[1] += 1
        square_id = self.ids.get("square_map.square_homeo")
        bounds = self.op_first + [n]
        op_bits = []
        for k in range(len(self.op_first)):
            top = 0
            for i in range(bounds[k], bounds[k + 1]):
                if name[i] == square_id and aux[i] > top:
                    top = aux[i]
            op_bits.append(top)
        functions = {self.names[nid]: row for nid, row in per.items()}
        return {
            "ops": len(self.op_first),
            "functions": functions,
            "collapse_by_prec": {p: tuple(v) for p, v in by_prec.items()},
            "transcendental_calls": self.transcendental_calls,
            "heavy_ops": sum(b > heavy_bits for b in op_bits),
            "spans": n,
        }


def layer_metrics(summary: dict, line_rule_entries: int, overhead_ratio: float) -> dict:
    """Per-layer metrics, normalised per op; name -> (value, unit)."""
    ops = max(summary["ops"], 1)
    fns = summary["functions"]

    def row(label):
        return fns.get(label) or _row()

    out = {}

    def calls(label):
        out[f"{label}.calls"] = (row(label)["calls"] / ops, "calls/op")

    def self_ms(label):
        out[f"{label}.self_ms"] = (1e3 * row(label)["self_s"] / ops, "ms/op")

    big = row("numerics.to_bigfloat")
    calls("numerics.to_bigfloat")
    self_ms("numerics.to_bigfloat")
    out["numerics.to_bigfloat.max_bits"] = (big["max_aux"], "bits")
    out["numerics.to_bigfloat.passthrough_ratio"] = (
        big["passthrough"] / big["calls"] if big["calls"] else 0.0, "ratio")
    calls("numerics.PLFunction.blend")
    self_ms("numerics.PLFunction.blend")
    calls("strips.strip_locate")
    self_ms("strips.strip_locate")
    calls("square_map.square_homeo")
    self_ms("square_map.square_homeo")
    out["square_map.square_homeo.max_bits"] = (row("square_map.square_homeo")["max_aux"], "bits")
    self_ms("square_map.row_map")
    out["square_map.line_rule.cache_entries"] = (line_rule_entries, "count")
    calls("collapse_map.collapse")
    self_ms("collapse_map.collapse")
    for prec in (128, 256, 512):
        incl, n = summary["collapse_by_prec"].get(prec, (0.0, 0))
        out[f"collapse_map.collapse.us_per_call.p{prec}"] = (1e6 * incl / n if n else 0.0, "us")
    calls("collapse_map.collapse_inv")
    self_ms("collapse_map.collapse_inv")
    self_ms("collapse_map.cone_map")
    out["collapse_map.transcendental.calls"] = (summary["transcendental_calls"] / ops, "calls/op")
    calls("plane_map.tangent_chart")
    self_ms("plane_map.tangent_chart")
    self_ms("plane_map.lifted_core")
    self_ms("plane_map.quotient_square_map")
    for fn in ("limit_estimate", "semiconjugacy_probe", "displacement_scan",
               "check_collapse_conditions"):
        self_ms(f"dynamics.{fn}")
    out["lift.heavy_share"] = (summary["heavy_ops"] / ops, "ratio")
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return out


def sanity(workload: str, summary: dict) -> list:
    """Checks that the trace sees the layers it should; (name, passed) pairs.

    They describe the program at the commit the benchmark was defined on:
    a later optimisation may legitimately turn one of them false.
    """
    fns = summary["functions"]
    traced = {k: v for k, v in fns.items() if k != OP}

    def incl(*labels):
        return sum(fns[l]["incl_s"] for l in labels if l in fns)

    if workload == "lift":
        top = max(traced, key=lambda k: traced[k]["self_s"]) if traced else None
        return [("to_bigfloat_has_largest_self_time", top == "numerics.to_bigfloat")]
    if workload == "chart_roundtrip":
        return [("square_homeo_not_called", "square_map.square_homeo" not in fns)]
    return [("square_homeo_inclusive_exceeds_collapse",
             incl("square_map.square_homeo")
             > incl("collapse_map.collapse", "collapse_map.collapse_inv"))]

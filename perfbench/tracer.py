"""Tracing from outside the library: wrappers around its public calls.

``install_spans`` wraps every public function of each isotopelab module,
plus the main public methods, and records one span per call: name, start,
end, parent span and the op id shared by all spans of one op.  A function
imported by name into another module (``from .algebras import
envelope_dimension`` in ``witnesses``, ``cli`` and the package) is replaced
in every namespace that holds it, so no call path is missed.  Spans stay in
memory until the run ends.

``install_counters`` is the separate counting pass: it counts scalar
arithmetic, inverses and coercions in ``fields`` and matrix constructions,
so that these very frequent wrappers do not inflate span self times.

``aggregate`` turns spans and counts into the per-layer metrics.
"""

from __future__ import annotations

import functools
import sys
import time

LAYERS = ("fields", "matrices", "algebras", "isotopes", "nilpotents", "catalog",
          "witnesses", "certificates", "algfile", "cli")

# public methods that get a span, as (module, class, method, metric key)
METHODS = [
    ("matrices", "Matrix", "__mul__", "mul"),
    ("matrices", "Matrix", "inverse", "inverse"),
    ("matrices", "Matrix", "det", "det"),
    ("matrices", "Matrix", "rank", "rank"),
    ("matrices", "SpanTracker", "add", "span_add"),
    ("matrices", "SpanTracker", "contains", "span_contains"),
    ("algebras", "Algebra", "mul_coords", "mul_coords"),
    ("algebras", "Element", "right_mult_matrix", "element_right_mult"),
    ("algebras", "Element", "left_mult_matrix", "element_left_mult"),
    ("certificates", "Certificate", "check", "check"),
    ("certificates", "Certificate", "expect_equal", "expect_equal"),
    ("certificates", "Certificate", "merge", "merge"),
    ("certificates", "Certificate", "render", "render"),
    ("certificates", "Certificate", "as_dict", "as_dict"),
]

# function name -> metric key, where they differ
KEYS = {
    "envelope_dimension": "envelope",
    "is_simple_closure": "simple_closure",
    "ideal_search_exhaustive": "ideal_search",
    "isomorphism_search": "iso_search",
    "nil_set_bruteforce": "bruteforce",
    "nil_rank_exact_C": "exact_C",
}

# groups whose time is the sum over their outermost spans
GROUPS = {
    "catalog.construct": {"jordan_bilinear", "j2", "c_family", "c_rho", "c2", "c3", "g_n",
                          "construct", "catalog_algebras"},
    "catalog.canonical": {"to_canonical_C", "canonicalize_C"},
    "algfile.parse": {"parse_algebra_text", "parse_algebra_file", "parse_matrix_text",
                      "parse_matrix_file", "parse_element_coords"},
    "algfile.write": {"serialize_algebra", "write_algebra_file", "serialize_matrix"},
}

SCALAR_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "__rtruediv__", "__neg__", "__pow__")


def _key(name):
    if name.startswith("witness_"):
        return name[len("witness_"):]
    return KEYS.get(name, name)


def _extra(span_name):
    """What a span records beyond its times, for ratio and volume metrics."""
    if span_name == "matrices.span_add":
        return lambda args, result: bool(result)
    if span_name == "algebras.iso_search":
        return lambda args, result: (args[0].field.p or 0) ** (args[0].n ** 2)
    if span_name == "nilpotents.bruteforce":
        return lambda args, result: ((args[0].field.p or 0) ** args[0].n, len(result))
    if span_name in ("algfile.parse_algebra_text", "algfile.parse_matrix_text",
                     "algfile.parse_element_coords"):
        return lambda args, result: len(args[0].encode())
    if span_name.startswith("witnesses."):
        return lambda args, result: len(getattr(result, "steps", ()))
    return None


def _modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "isotopelab" or name.startswith("isotopelab."))]


class Patches:
    """Installed replacements, undone by ``restore``."""

    def __init__(self):
        self.saved = []

    def replace_everywhere(self, original, replacement):
        for mod in _modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.saved.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def replace_attr(self, owner, attr, replacement):
        self.saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self):
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()


class SpanRecorder:
    """Spans as tuples ``(op, id, parent, name, start, end, extra)``."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.next_id = 0

    def wrap(self, fn, name):
        extra = _extra(name)
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = rec.next_id
            rec.next_id += 1
            parent = rec.stack[-1] if rec.stack else None
            rec.stack.append(sid)
            t0 = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                rec.stack.pop()
                info = extra(args, result) if extra is not None and result is not None else None
                rec.spans.append((rec.op, sid, parent, name, t0, t1, info))

        return traced

    def root(self, op_id, name, fn):
        """Run ``fn`` as the root span of one op."""
        self.op = op_id
        return self.wrap(fn, name)()


def install_spans(rec):
    import isotopelab  # noqa: F401  (loads every submodule)

    patches = Patches()
    mods = {m.__name__: m for m in _modules()}
    for layer in LAYERS:
        mod = mods.get(f"isotopelab.{layer}")
        if mod is None or layer == "fields":
            continue
        for name, obj in list(vars(mod).items()):
            if (name.startswith("_") or not callable(obj) or isinstance(obj, type)
                    or getattr(obj, "__module__", None) != mod.__name__):
                continue
            patches.replace_everywhere(obj, rec.wrap(obj, f"{layer}.{_key(name)}"))
    for layer, cls, meth, key in METHODS:
        owner = getattr(mods[f"isotopelab.{layer}"], cls)
        patches.replace_attr(owner, meth, rec.wrap(getattr(owner, meth), f"{layer}.{key}"))
    return patches


def install_counters(counts):
    import isotopelab.fields as fields
    import isotopelab.matrices as matrices

    patches = Patches()

    def counting(fn, key):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return counted

    for meth in SCALAR_OPS:
        patches.replace_attr(fields.Scalar, meth,
                             counting(getattr(fields.Scalar, meth), "fields.scalar_ops"))
    patches.replace_attr(fields.Scalar, "inverse",
                         counting(fields.Scalar.inverse, "fields.inverses"))
    patches.replace_attr(fields.Field, "scalar", counting(fields.Field.scalar, "fields.coercions"))
    patches.replace_attr(matrices.Matrix, "__init__",
                         counting(matrices.Matrix.__init__, "matrices.construct_calls"))
    return patches


class Aggregate:
    """Per-layer sums over any number of self-contained span lists."""

    def __init__(self):
        self.m = {}

    def add(self, key, value):
        self.m[key] = self.m.get(key, 0) + value

    def spans(self, spans):
        name_of = {s[1]: s[3] for s in spans}
        child_time = {}
        for s in spans:
            if s[2] is not None:
                child_time[s[2]] = child_time.get(s[2], 0.0) + (s[5] - s[4])
        for op, sid, parent, name, t0, t1, info in spans:
            layer, key = name.split(".", 1)
            dur = t1 - t0
            if layer in LAYERS:
                self.add(f"{layer}.self_s", dur - child_time.get(sid, 0.0))
            self.add(f"{name}_calls", 1)
            self.add(f"{name}_s", dur)
            parent_name = name_of.get(parent, "")
            for group, members in GROUPS.items():
                if layer == group.split(".")[0] and key in members:
                    if not (parent_name.startswith(layer + ".")
                            and parent_name.split(".", 1)[1] in members):
                        self.add(f"{group}_s", dur)
            if info is None:
                continue
            if name == "matrices.span_add":
                self.add("matrices.span_add_true", int(info))
            elif name == "algebras.iso_search":
                self.add("algebras.iso_search_space", info)
            elif name == "nilpotents.bruteforce":
                self.add("nilpotents.points_scanned", info[0])
                self.add("nilpotents.nils_found", info[1])
            elif layer == "algfile":
                self.add("algfile.parse_bytes", info)
            elif layer == "witnesses" and not parent_name.startswith("witnesses."):
                self.add("witnesses.steps", info)

    def metrics(self, names):
        m = dict(self.m)
        calls = m.get("matrices.span_add_calls", 0)
        m["matrices.span_add_useful"] = m.get("matrices.span_add_true", 0) / calls if calls else 0.0
        scanned = m.get("nilpotents.points_scanned", 0)
        m["nilpotents.nil_yield"] = m.get("nilpotents.nils_found", 0) / scanned if scanned else 0.0
        return {name: m.get(name, 0) for name in names}

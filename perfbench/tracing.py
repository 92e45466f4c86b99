"""Per-layer tracing: spans and counts around the calls into each zeps layer.

``install`` runs inside a request's child, before ``main``.  It wraps the
public functions where their callers look them up (``zeps.cli``'s names
for the builders and checks, ``zeps.sdomain.det``, the result and
polynomial methods), so zeps itself is untouched.  Each span records
name, start, end and parent; per-element hot calls (``epsilon_product``,
``sign_oracle``, ``LaurentPoly.__mul__``) are only counted.  The child
sends its spans to the parent when the request ends; the parent keeps
them in memory and writes them out when the run ends.
"""

from __future__ import annotations

import builtins
import functools
import importlib
import json
import time
from collections import Counter

_dumps = json.dumps  # the tracer's own encoder, never spanned

# (module or class path, attribute, span name).  ``print`` is a builtin
# that ``zeps.cli`` looks up through its globals, so the wrapper is set
# there; ``json.dumps`` is looked up on the json module.
SPANNED = (
    ("zeps.cli", "print", "cli.print"),
    ("json", "dumps", "cli.json_dumps"),
    ("zeps.cli", "determinant_ztransform", "ztransform.determinant"),
    ("zeps.verify", "determinant_ztransform", "ztransform.determinant"),
    ("zeps.verify", "brute_force_ztransform", "ztransform.brute_force"),
    ("zeps.cli", "laplace_determinant", "sdomain.laplace_determinant"),
    ("zeps.verify", "laplace_determinant", "sdomain.laplace_determinant"),
    ("zeps.sdomain", "r_sum", "sdomain.r_sum"),
    ("zeps.ztransform", "det", "algebra.det"),
    ("zeps.sdomain", "det", "algebra.det"),
    ("zeps.cli", "check_epsilon_formulas", "verify.epsilon_check"),
    ("zeps.cli", "check_determinant_oracle", "verify.oracle_check"),
    ("zeps.cli", "check_tustin_consistency", "verify.tustin_check"),
    ("zeps.algebra.LaurentPoly", "evaluate", "algebra.evaluate"),
    ("zeps.algebra.RationalFn", "evaluate", "algebra.evaluate"),
    ("zeps.ztransform.TransformResult", "to_text", "ztransform.render"),
    ("zeps.ztransform.TransformResult", "to_latex", "ztransform.render"),
    ("zeps.ztransform.TransformResult", "to_json_dict", "ztransform.render"),
    ("zeps.sdomain.LaplaceResult", "to_text", "sdomain.render"),
    ("zeps.sdomain.LaplaceResult", "to_latex", "sdomain.render"),
    ("zeps.sdomain.LaplaceResult", "to_json_dict", "sdomain.render"),
    ("zeps.algebra.LaurentPoly", "to_text", "algebra.serialize"),
    ("zeps.algebra.LaurentPoly", "to_latex", "algebra.serialize"),
    ("zeps.algebra.LaurentPoly", "to_json_dict", "algebra.serialize"),
    ("zeps.algebra.RationalFn", "to_text", "algebra.serialize"),
    ("zeps.algebra.RationalFn", "to_latex", "algebra.serialize"),
    ("zeps.algebra.RationalFn", "to_json_dict", "algebra.serialize"),
)

# (module, attribute, counter name)
COUNTED = (
    ("zeps.verify", "epsilon_product", "epsilon.calls"),
    ("zeps.verify", "sign_oracle", "epsilon.calls"),
    ("zeps.ztransform", "sign_oracle", "epsilon.calls"),
    ("zeps.verify", "random_rational_s_point", "verify.points"),
)

# Builders whose results are measured for size once the request ends.
BUILDERS = ("ztransform.determinant", "sdomain.laplace_determinant")

ROOT = "cli.main"

# Busy-time metrics ("<span>_s") and counts, in report order.
SPAN_METRICS = (
    "process.start", "process.exit", "cli.print", "cli.json_dumps",
    "ztransform.determinant", "sdomain.laplace_determinant", "sdomain.r_sum",
    "algebra.det", "algebra.evaluate", "verify.tustin_check", "verify.epsilon_check",
    "verify.oracle_check", "ztransform.brute_force", "ztransform.render",
    "sdomain.render", "algebra.serialize",
)
PER_LAYER = (
    ("cli.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    *((f"{name}_s", "s") for name in SPAN_METRICS),
    ("ztransform.determinant_calls", "count"),
    ("algebra.evaluate_calls", "count"),
    ("algebra.poly_mul_calls", "count"),
    ("algebra.term_products", "count"),
    ("algebra.mul_useful_ratio", "ratio"),
    ("algebra.result_terms", "count"),
    ("algebra.coeff_bits_max", "bits"),
    ("epsilon.calls", "count"),
    ("verify.points", "count"),
    ("trace.coverage_min", "ratio"),
    ("trace.wall_per_request_s", "s"),
)


class Recorder:
    """Spans and counts of one request, kept in the child's memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.built: list = []

    def call(self, name, fn, args, kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else -1])
        self.stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.stack.pop()
            self.spans[index][2] = time.perf_counter()
        if name in BUILDERS:
            self.built.append(result)
        return result

    def payload(self) -> bytes:
        """Spans, counts and built-result sizes, encoded for the parent."""
        terms = 0
        bits = 0
        for result in self.built:
            body = result.body
            for poly in (body.num, body.den) if hasattr(body, "num") else (body,):
                terms += len(poly.terms)
                for coeff in poly.terms.values():
                    bits = max(bits, coeff.numerator.bit_length(), coeff.denominator.bit_length())
        self.counts["algebra.result_terms"] += terms
        return _dumps({"spans": self.spans, "counts": self.counts, "coeff_bits_max": bits}).encode()


def _resolve(path: str):
    """The module, or the class inside a module, that ``path`` names."""
    module, _, attr = path.rpartition(".")
    try:
        return importlib.import_module(path)
    except ImportError:
        return getattr(importlib.import_module(module), attr)


def install(recorder: Recorder) -> None:
    """Wrap every traced zeps entry point so it reports to ``recorder``."""
    for owner_path, attr, name in SPANNED:
        owner = _resolve(owner_path)
        fn = getattr(owner, attr, None) or getattr(builtins, attr)

        def spanned(*args, _fn=fn, _name=name, **kwargs):
            return recorder.call(_name, _fn, args, kwargs)

        setattr(owner, attr, functools.wraps(fn)(spanned))
    for owner_path, attr, name in COUNTED:
        owner = _resolve(owner_path)
        fn = getattr(owner, attr)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            recorder.counts[_name] += 1
            return _fn(*args, **kwargs)

        setattr(owner, attr, functools.wraps(fn)(counted))
    poly = _resolve("zeps.algebra.LaurentPoly")
    multiply = poly.__mul__
    counts = recorder.counts

    def mul(self, other):
        product = multiply(self, other)
        if product is not NotImplemented:
            counts["algebra.poly_mul_calls"] += 1
            counts["algebra.term_products"] += len(self.terms) * (
                len(other.terms) if isinstance(other, poly) else 1
            )
            counts["algebra.mul_kept_terms"] += len(product.terms)
        return product

    poly.__mul__ = poly.__rmul__ = mul


class Summary:
    """Per-layer totals over a run, built from the children's payloads."""

    def __init__(self):
        self.busy: Counter = Counter()
        self.counts: Counter = Counter()
        self.cli_self = 0.0
        self.output_bytes = 0
        self.coeff_bits_max = 0
        self.coverage_min = 1.0
        self.spans: list[dict] = []

    def add(self, request_id: int, request, result, calibrated_s: float):
        """Fold in one request: its ``ChildResult`` and its calibrated time."""
        data = json.loads(result.payload)
        spans = data["spans"]
        wall_s = result.wall_s
        scale = calibrated_s / wall_s  # busy seconds are reported at reference speed
        self.output_bytes += result.output_bytes
        self.counts.update(data["counts"])
        self.coeff_bits_max = max(self.coeff_bits_max, data["coeff_bits_max"])
        self.spans.append({"request": request_id, "name": "request",
                           "start": result.started, "end": result.started + wall_s,
                           "argv": list(request.argv)})
        root = next(i for i, span in enumerate(spans) if span[0] == ROOT)
        top = sum(end - start for name, start, end, parent in spans if parent == root)
        root_time = spans[root][2] - spans[root][1]
        self.cli_self += (root_time - top) * scale
        # Fork to main, and main's return to reap: the process layer.
        starting = spans[root][1] - result.started
        exiting = wall_s - starting - root_time
        self.busy["process.start"] += starting * scale
        self.busy["process.exit"] += exiting * scale
        if request.dim >= 5:
            self.coverage_min = min(self.coverage_min, (starting + top + exiting) / wall_s)
        for index, (name, start, end, parent) in enumerate(spans):
            self.spans.append({"request": request_id, "id": index, "name": name,
                               "start": start, "end": end, "parent": parent})
            if _outermost(spans, index):
                self.busy[name] += (end - start) * scale
                self.counts[f"{name}_calls"] += 1

    def metrics(self, per_request_s: float) -> dict:
        """Per-layer metrics; ``per_request_s`` is the calibrated time per request."""
        values = {
            "cli.self_s": self.cli_self,
            "cli.output_bytes": self.output_bytes,
            "algebra.coeff_bits_max": self.coeff_bits_max,
            "trace.coverage_min": self.coverage_min,
            "trace.wall_per_request_s": per_request_s,
            "algebra.mul_useful_ratio": (
                self.counts["algebra.mul_kept_terms"] / self.counts["algebra.term_products"]
                if self.counts["algebra.term_products"] else 0.0
            ),
        }
        for name in SPAN_METRICS:
            values[f"{name}_s"] = self.busy[name]
        for name, unit in PER_LAYER:
            if name not in values:
                values[name] = self.counts[name]
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}

    def write(self, path) -> None:
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def _outermost(spans, index) -> bool:
    """True when no enclosing span has the same name (nested calls count once)."""
    name = spans[index][0]
    parent = spans[index][3]
    while parent != -1:
        if spans[parent][0] == name:
            return False
        parent = spans[parent][3]
    return True

"""Spans around the program's public calls, recorded from outside `src/`.

Each wrapped function is replaced where its caller looks it up, for
example `curv2x.pipeline.solve` rather than `curv2x.rational_lp.solve`,
so the program's own modules are not edited.  A span is (name, start,
end, parent index); spans stay in memory and are written out once, at
the end of the run.  Counts are taken from arguments and results at the
same boundaries.
"""

import json
import time
from collections import defaultdict

from checks import CheckFailed, realizer_kappa


def _cells(problem):
    m = len(problem.equalities)
    return m * (len(problem.variables) + m + 1)


def _text_len(args, result):
    return len(args[0])


# (module, attribute, span name, {count name: f(args, result)}).
# Several callers share one span name when they reach the same layer.
WRAPS = (
    ("cli", "cli_main", "cli", {}),
    ("cli", "extremize", "pipeline.extremize", {}),
    ("cli", "parse_complex", "formats.parse",
     {"formats.doc_bytes": _text_len}),
    ("cli", "parse_morphism", "formats.parse",
     {"formats.doc_bytes": _text_len}),
    ("cli", "parse_certificate", "formats.parse",
     {"formats.doc_bytes": _text_len}),
    ("cli", "serialize_report", "formats.serialize",
     {"formats.doc_bytes": lambda a, r: len(r)}),
    ("cli", "serialize_certificate", "formats.serialize",
     {"formats.doc_bytes": lambda a, r: len(r)}),
    ("cli", "certify_pi1_injective", "origami.certify", {}),
    ("cli", "is_compatible", "origami.compatible", {}),
    ("cli", "validate_complex", "branched_complex.validate", {}),
    ("formats", "validate_complex", "branched_complex.validate", {}),
    ("blocks", "validate_complex", "branched_complex.validate", {}),
    ("pipeline", "validate_complex", "branched_complex.validate", {}),
    ("pipeline", "build_cone", "pipeline.cone",
     {"pipeline.gluing_rows": lambda a, r: len(r.gluing_rows)}),
    ("pipeline", "enumerate_vertex_blocks", "blocks.enumerate",
     {"blocks.enumerate_calls": lambda a, r: 1,
      "blocks.catalogue_blocks": lambda a, r: len(r)}),
    ("pipeline", "block_census", "blocks.census", {}),
    ("pipeline", "reconstruct", "pipeline.reconstruct",
     {"pipeline.realizer_vertices":
      lambda a, r: len(r.complex.skeleton.vertices)}),
    ("pipeline", "verify_realizer", "pipeline.verify", {}),
    ("pipeline", "solve", "rational_lp.solve",
     {"rational_lp.solves": lambda a, r: 1,
      "rational_lp.pivots": lambda a, r: r.pivots,
      "rational_lp.tableau_cells": lambda a, r: _cells(a[0])}),
    ("pipeline", "check_solution", "rational_lp.check", {}),
    ("rational_lp", "solve", "rational_lp.solve",
     {"rational_lp.solves": lambda a, r: 1,
      "rational_lp.pivots": lambda a, r: r.pivots,
      "rational_lp.tableau_cells": lambda a, r: _cells(a[0])}),
    ("rational_lp", "check_solution", "rational_lp.check", {}),
    ("origami", "stallings_fold", "serre_graph.fold",
     {"serre_graph.folds": lambda a, r: len(r.folds)}),
    ("origami", "unfold_origami", "origami.unfold", {}),
    ("origami.Origami", "validate", "origami.validate", {}),
)

# Per-layer metric -> (span name, "total" or "self").  A total is the
# whole time inside the span; self time leaves out the child spans.
TIMES = {
    "blocks.enumerate_ms": ("blocks.enumerate", "total"),
    "blocks.census_ms": ("blocks.census", "total"),
    "pipeline.cone_ms": ("pipeline.cone", "self"),
    "pipeline.reconstruct_ms": ("pipeline.reconstruct", "self"),
    "pipeline.verify_ms": ("pipeline.verify", "total"),
    "branched_complex.validate_ms": ("branched_complex.validate", "total"),
    "rational_lp.solve_ms": ("rational_lp.solve", "total"),
    "rational_lp.check_ms": ("rational_lp.check", "total"),
    "serre_graph.fold_ms": ("serre_graph.fold", "total"),
    "origami.unfold_ms": ("origami.unfold", "total"),
    "origami.validate_ms": ("origami.validate", "total"),
    "formats.parse_ms": ("formats.parse", "total"),
    "formats.serialize_ms": ("formats.serialize", "total"),
    "cli.self_ms": ("cli", "self"),
}
COUNTS = ("blocks.enumerate_calls", "blocks.catalogue_blocks",
          "pipeline.gluing_rows", "pipeline.realizer_vertices",
          "rational_lp.pivots", "rational_lp.solves",
          "rational_lp.tableau_cells", "serre_graph.folds",
          "formats.doc_bytes")


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = defaultdict(int)
        self.errors = []

    def wrap(self, fn, name, counters, hook=None):
        spans, stack, counts = self.spans, self.stack, self.counts

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            for key, count in counters.items():
                counts[key] += count(args, result)
            if hook is not None:
                hook(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, program):
        """Wrap every entry of WRAPS in the modules of `program`."""
        for where, attr, name, counters in WRAPS:
            owner = program
            for part in where.split("."):
                owner = getattr(owner, part)
            hook = self._check_kappa if name == "pipeline.extremize" else None
            setattr(owner, attr,
                    self.wrap(getattr(owner, attr), name, counters, hook))

    def _check_kappa(self, report):
        """A realizer's kappa, recomputed from its cells, is the value."""
        if report.realizer is None:
            return
        kappa = realizer_kappa(report.realizer.complex)
        if kappa != report.value:
            self.errors.append(CheckFailed(
                f"{report.which}: realizer kappa {kappa} != {report.value}"))

    def totals(self):
        """{span name: [total seconds, self seconds]} over all spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(lambda: [0.0, 0.0])
        for i, (name, start, end, parent) in enumerate(self.spans):
            out[name][0] += end - start
            out[name][1] += end - start - child[i]
        return out

    def metrics(self, passes):
        """Every per-layer metric, as a total over one pass."""
        totals = self.totals()
        out = {}
        for metric, (name, kind) in TIMES.items():
            seconds = totals[name][0 if kind == "total" else 1]
            out[metric] = {"value": 1000 * seconds / passes, "unit": "ms"}
        for metric in COUNTS:
            out[metric] = {"value": self.counts[metric] / passes,
                           "unit": "count"}
        return out

    def write(self, path, summary):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"summary": summary, "spans": self.spans}, fh)

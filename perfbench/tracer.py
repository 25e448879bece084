"""Spans around the calls into each gkptri layer, recorded from outside the
program.

`install` wraps the public functions of each module in every gkptri module
namespace that bound them (`verify` imports `extract_triangle` by name,
`fps` imports `apply_D`, the package re-exports nearly everything), the
`LaurentPoly` and `TruncatedSeries` methods on their classes, and each
suite in the verify registry.  A span is (name, start, end, parent); spans
stay in memory until the run ends, when `write` saves them and
`layer_metrics` derives calls, self time and work counts per layer.  A
span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import gzip
import sys
import time
from collections import defaultdict

LAYERS = ("polyring", "grammar", "triangles", "fps", "closedforms", "census", "verify",
          "cli")

FPS_CHECKS = ("verify_closed_form_whitney", "verify_sol_a2zero", "verify_sol_a1zero",
              "verify_secondorder_egf")

CENSUS = {
    "descents": "stirling_descent_census",
    "excedances": "r_excedance_census",
    "partitions": "set_partition_census",
    "vleaves": "census_vleaves",
    "components": "census_components",
}


def _census_total(census) -> int:
    return census.total


def _triangle_entries(triangle) -> int:
    return sum(len(row) for row in triangle.rows)


def _terms_out(product) -> int:
    # __mul__ returns NotImplemented for operands it does not handle
    return 0 if product is NotImplemented else len(product)


class Tracer:
    """In-memory span recorder.

    Spans are appended when they end, as (id, name index, parent id,
    start, end); ids are given out when spans start, so a parent's id is
    smaller than its children's.
    """

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, float, float]] = []
        self.current = -1
        self.next_id = 0
        self.counts: dict[str, int] = defaultdict(int)
        self.errors: dict[str, int] = defaultdict(int)
        self.origin = time.perf_counter()
        # While paused (when outputs are hashed), wrapped calls record nothing.
        self.paused = False

    def wrap(self, fn, name: str, counter: str | None = None, measure=None):
        """`fn` inside a span called `name`; when `counter` is given,
        `measure(result)` is added to it after each call."""
        index = len(self.names)
        self.names.append(name)
        layer = name.split(".", 1)[0]
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            parent = tracer.current
            span_id = tracer.next_id
            tracer.next_id = span_id + 1
            tracer.current = span_id
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.errors[layer] += 1
                raise
            finally:
                end = clock()
                tracer.current = parent
                spans.append((span_id, index, parent, start, end))
            if counter is not None:
                tracer.counts[counter] += measure(result)
            return result

        return traced

    def summarize(self) -> dict[str, list]:
        """Per span name: [calls, self seconds, total seconds]."""
        child = [0.0] * self.next_id
        for _, _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats: dict[str, list] = {}
        for span_id, index, _, start, end in self.spans:
            entry = stats.setdefault(self.names[index], [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start - child[span_id]
            entry[2] += end - start
        return stats

    def write(self, path) -> None:
        """Save every span as a gzipped TSV line: id, name, parent id, and
        start and end in seconds since the tracer was made."""
        origin = self.origin
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tname\tparent\tstart_s\tend_s\n")
            for span_id, index, parent, start, end in sorted(self.spans):
                fh.write(f"{span_id}\t{names[index]}\t{parent}\t"
                         f"{start - origin!r}\t{end - origin!r}\n")

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics named in BENCHMARK.json (except the ones
        the caller measures itself: cli.output_bytes and trace.*)."""
        stats = self.summarize()

        def calls(*names):
            return sum(stats[n][0] for n in names if n in stats)

        def self_s(*names):
            return sum(stats[n][1] for n in names if n in stats)

        out: dict[str, float] = {}
        for span in ("polyring.mul", "polyring.partial", "polyring.add", "polyring.str",
                     "grammar.apply_D", "grammar.extract_triangle", "grammar.hao_grammar",
                     "triangles.recurrence", "triangles.format", "fps.solve_ode",
                     "fps.gen_series", "fps.series_mul"):
            out[f"{span}_calls"] = calls(span)
            out[f"{span}_self_s"] = self_s(span)
        out["fps.series_inverse_self_s"] = self_s("fps.series_inverse")
        out["fps.series_exp_self_s"] = self_s("fps.series_exp")
        out["fps.checks_self_s"] = self_s(*(f"fps.{name}" for name in FPS_CHECKS))
        closed = [n for n in stats if n.startswith("closedforms.")]
        out["closedforms.calls"] = calls(*closed)
        out["closedforms.self_s"] = self_s(*closed)
        out["closedforms.t_b2zero_calls"] = calls("closedforms.t_b2zero_explicit")
        out["closedforms.t_b2zero_self_s"] = self_s("closedforms.t_b2zero_explicit")
        for kind in CENSUS:
            out[f"census.{kind}_self_s"] = self_s(f"census.{kind}")
            out[f"census.{kind}_objects"] = self.counts[f"census.{kind}_objects"]
        for name in ("polyring.mul_terms_out", "triangles.recurrence_entries",
                     "triangles.format_bytes"):
            out[name] = self.counts[name]
        for name in self.names:
            if name.startswith("verify.suite."):
                out[f"{name}_s"] = stats[name][2] if name in stats else 0.0
        out["cli.main_s"] = stats["cli.main"][2] if "cli.main" in stats else 0.0
        for layer in LAYERS:
            out[f"{layer}.errors"] = self.errors[layer]
        return out


def install(tracer: Tracer) -> None:
    """Wrap the gkptri layers in spans of `tracer`.  Call once, after
    importing gkptri and before running the operations.

    Functions are looked up in the package namespace, so a function that
    moves between modules keeps its span; one that no longer exists is
    skipped and its metrics read 0.
    """
    import gkptri
    from gkptri import cli, closedforms, verify

    functions = [
        ("apply_D", "grammar.apply_D", None, None),
        ("extract_triangle", "grammar.extract_triangle", None, None),
        ("hao_grammar", "grammar.hao_grammar", None, None),
        ("recurrence_triangle", "triangles.recurrence", "triangles.recurrence_entries",
         _triangle_entries),
        ("format_triangle", "triangles.format", "triangles.format_bytes", len),
        ("solve_ode", "fps.solve_ode", None, None),
        ("gen_series", "fps.gen_series", None, None),
    ]
    functions += [(name, f"fps.{name}", None, None) for name in FPS_CHECKS]
    functions += [(fn, f"census.{kind}", f"census.{kind}_objects", _census_total)
                  for kind, fn in CENSUS.items()]
    targets = [(getattr(gkptri, attr), name, counter, measure)
               for attr, name, counter, measure in functions if hasattr(gkptri, attr)]
    targets.append((cli.main, "cli.main", None, None))
    targets += [(value, f"closedforms.{name}", None, None)
                for name, value in vars(closedforms).items()
                if not name.startswith("_") and callable(value)
                and getattr(value, "__module__", None) == closedforms.__name__]

    replacement = {id(fn): tracer.wrap(fn, name, counter, measure)
                   for fn, name, counter, measure in targets}
    for module_name, module in list(sys.modules.items()):
        if module_name != "gkptri" and not module_name.startswith("gkptri."):
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in replacement:
                setattr(module, attr, replacement[id(value)])

    methods = [
        (gkptri.LaurentPoly, ("__mul__", "__rmul__"), "polyring.mul",
         "polyring.mul_terms_out", _terms_out),
        (gkptri.LaurentPoly, ("__add__", "__radd__"), "polyring.add", None, None),
        (gkptri.LaurentPoly, ("partial",), "polyring.partial", None, None),
        (gkptri.LaurentPoly, ("__str__",), "polyring.str", None, None),
        (gkptri.TruncatedSeries, ("__mul__",), "fps.series_mul", None, None),
        (gkptri.TruncatedSeries, ("inverse",), "fps.series_inverse", None, None),
        (gkptri.TruncatedSeries, ("exp",), "fps.series_exp", None, None),
    ]
    for cls, attrs, name, counter, measure in methods:
        if attrs[0] in vars(cls):
            wrapped = tracer.wrap(vars(cls)[attrs[0]], name, counter, measure)
            for attr in attrs:
                setattr(cls, attr, wrapped)

    for suite_name, fn in list(verify.SUITES.items()):
        verify.SUITES[suite_name] = tracer.wrap(fn, f"verify.suite.{suite_name}")

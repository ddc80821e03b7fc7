"""Span recorder and run-time instrumentation of the schemeforge layers.

Nothing under src/ is edited: the public functions of each module are
replaced, for the length of a traced run, by wrappers that open a span
around the call.  Module attributes are patched wherever the original
function is bound (the defining module and every module that imported it
by name), and a few methods are wrapped on the instances the pipeline
returns (loop.mul_vec, scheme.rel_row / rel_col, group.conjugacy_classes /
mul_table).  Spans live in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

import numpy as np

from schemeforge.scheme import AssociationScheme


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str


class Recorder:
    """Nested spans and counters of one run, kept in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._next_id = 0

    def open(self) -> tuple[int, int | None, float]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        return span_id, parent, time.perf_counter()

    def close(self, name: str, token: tuple[int, int | None, float]) -> None:
        end = time.perf_counter()
        span_id, parent, start = token
        self._stack.pop()
        self.spans.append(Span(span_id, name, start, end, parent, self.run_id))

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] += value

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s.id):
                fh.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children[span.id], key=lambda s: s.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.id] = (span.end - span.start) - covered
    return out


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    own = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.name] += own[span.id]
    return dict(totals)


def max_rss_mb() -> float:
    """High-water mark of this process's resident set, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Instrumentation:
    """Patch the schemeforge layers to record into `rec`; undone on exit."""

    MODULES = ("schemeforge", "schemeforge.gf", "schemeforge.zorn",
               "schemeforge.permgroup", "schemeforge.scheme",
               "schemeforge.loopcore", "schemeforge.chartab",
               "schemeforge.cli")

    def __init__(self, rec: Recorder):
        self.rec = rec
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, before=None, after=None, on_error=None):
        rec = self.rec

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = rec.open()
            try:
                if before is not None:
                    before(args, kwargs)
                out = fn(*args, **kwargs)
                if after is not None:
                    after(out)
                return out
            except Exception:
                if on_error is not None:
                    on_error()
                raise
            finally:
                rec.close(name, token)
        return wrapper

    def _patch(self, module: str, attr: str, name: str, only=None, skip=(),
               **hooks) -> None:
        """Replace `module.attr` in every schemeforge module bound to it
        (restricted to `only`, minus `skip`), so calls from inside the
        package are caught as well as the benchmark's own."""
        original = getattr(importlib.import_module(module), attr)
        wrapper = self._wrap(name, original, **hooks)
        for mod_name in only or self.MODULES:
            mod = importlib.import_module(mod_name)
            if mod_name in skip or getattr(mod, attr, None) is not original:
                continue
            self._undo.append((mod, attr, original))
            setattr(mod, attr, wrapper)

    # wrappers on the instances the pipeline returns

    def _loop(self, loop) -> None:
        if "mul_vec" in vars(loop):
            return
        rec = self.rec

        def count_products(args, kwargs):
            rec.count("zorn.mul_vec_calls")
            rec.count("zorn.products",
                      np.broadcast(np.asarray(args[0]), np.asarray(args[1])).size)

        loop.mul_vec = self._wrap("zorn.mul_vec", loop.mul_vec,
                                  before=count_products)

    def _scheme(self, scheme) -> None:
        if "rel_row" in vars(scheme):
            return
        rec = self.rec
        for attr in ("rel_row", "rel_col"):
            def counted(x, _inner=getattr(scheme, attr)):
                rec.count("scheme.rows_read")
                return _inner(x)
            setattr(scheme, attr, counted)

    def _group(self, group) -> None:
        if "mul_table" in vars(group):
            return
        group.conjugacy_classes = self._wrap("permgroup.classes",
                                             group.conjugacy_classes)
        group.mul_table = self._wrap("permgroup.mul_table", group.mul_table)

    def _scheme_arg(self, args, kwargs) -> None:
        target = args[0] if args else kwargs.get("scheme")
        if isinstance(target, AssociationScheme):
            self._scheme(target)

    def __enter__(self):
        rec = self.rec
        rss_before = []

        def build_start(args, kwargs):
            rss_before.append(max_rss_mb())

        def build_done(loop):
            rec.count("zorn.build_rss_mb", max_rss_mb() - rss_before.pop())
            self._loop(loop)

        def orbits_done(report):
            rec.count("loopcore.samples", report.samples)
            if report.samples:
                rec.count("loopcore.merges",
                          report.class_of.shape[0] - report.n_classes)

        def certify_round(args, kwargs):
            rec.count("loopcore.certify_rounds")
            self._scheme_arg(args, kwargs)

        def moufang_done(report):
            rec.count("loopcore.moufang_triples", report.triples_checked)

        def closure_done(group):
            rec.count("permgroup.elements", len(group.elements))
            self._group(group)

        def compare_done(match):
            if not match.matched:
                rec.count("chartab.compare_failed")

        def compare_raised():
            rec.count("chartab.compare_failed")

        p = self._patch
        p("schemeforge.gf", "field_for", "gf.field_for")
        p("schemeforge.zorn", "build_paige_loop", "zorn.build",
          before=build_start, after=build_done)
        p("schemeforge.loopcore", "inner_orbits", "loopcore.inner_orbits",
          after=orbits_done)
        p("schemeforge.loopcore", "loop_scheme", "loopcore.loop_scheme",
          after=self._scheme)
        p("schemeforge.loopcore", "moufang_check", "loopcore.moufang",
          after=moufang_done)
        p("schemeforge.loopcore", "associativity_counterexample",
          "loopcore.moufang")
        p("schemeforge.permgroup", "closure", "permgroup.closure",
          after=closure_done)
        p("schemeforge.permgroup", "group_scheme", "permgroup.group_scheme",
          after=self._scheme)
        p("schemeforge.permgroup", "orbitals", "permgroup.orbitals",
          after=self._scheme)
        p("schemeforge.permgroup", "pair_orbits", "permgroup.pair_orbits")
        p("schemeforge.scheme", "intersection_numbers",
          "scheme.intersection_numbers", before=self._scheme_arg)
        # the refinement's sampled certificate rounds are charged to loopcore
        p("schemeforge.scheme", "verify_scheme_axioms", "loopcore.certify",
          only=("schemeforge.loopcore",), before=certify_round)
        p("schemeforge.scheme", "verify_scheme_axioms", "scheme.verify_axioms",
          skip=("schemeforge.loopcore",), before=self._scheme_arg)
        p("schemeforge.scheme", "fuse", "scheme.fuse", after=self._scheme)
        p("schemeforge.chartab", "compute_character_table", "chartab.eigensolve")
        for attr in ("verify_orthogonality", "verify_candidate_table",
                     "transfer_to_group_table"):
            p("schemeforge.chartab", attr, "chartab.certify")
        p("schemeforge.chartab", "compare_tables", "chartab.compare",
          after=compare_done, on_error=compare_raised)
        p("schemeforge.chartab", "double_coset_table", "chartab.double_coset")
        p("schemeforge.cli", "main", "cli.main")
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()
        return False

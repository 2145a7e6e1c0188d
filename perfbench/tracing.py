"""Outside-in tracing of the electre_linkage layers.

A Tracer replaces the public functions of each package module with timing
wrappers while one job runs, and puts the originals back afterwards. Each
function is replaced in every module namespace that holds it, so a call made
through ``from .linkage import build_pairs`` in ``cli`` is caught as well as
one made through the owning module. Nothing in the package changes on disk.

Spans are aggregated per calling context: all calls of one function under the
same parent span add to a single record (call count, summed seconds, first
start, last end). A job's span tree therefore stays a few dozen records even
when a comparator runs a million times. A generator function is timed per
``next()``, so the time a consumer spends pulling items from ``build_pairs``
is charged to ``build_pairs`` and subtracted from the consumer's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import resource
import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "electre_linkage"
ROOT_SPAN = "cli"

# (span name, owning module, owning class or None, attribute). The span name's
# first component is the layer. A missing attribute is skipped, so a later
# refactor that renames a function loses its span instead of breaking the run.
TRACED = (
    ("metrics.compare", "metrics", "Comparator", "compare"),
    ("ingest.load_table", "ingest", None, "load_table"),
    ("ingest.true_links", "ingest", None, "true_links"),
    ("linkage.build_pairs", "linkage", None, "build_pairs"),
    ("linkage.label_pairs", "linkage", None, "label_pairs"),
    ("linkage.pair_matrix", "linkage", None, "pair_matrix"),
    ("linkage.classify_pairs", "linkage", None, "classify_pairs"),
    ("linkage.write_classified", "linkage", None, "write_classified"),
    ("core.classify_batch", "core", None, "classify_batch"),
    ("core.from_json", "core", "ElectreModel", "from_json"),
    ("core.to_json", "core", "ElectreModel", "to_json"),
    ("calibration.calibrate", "calibration", None, "calibrate"),
    ("calibration.estimate_profiles", "calibration", None, "estimate_profiles"),
    ("calibration.estimate_thresholds", "calibration", None, "estimate_thresholds"),
    ("calibration.estimate_lambda", "calibration", None, "estimate_lambda"),
    ("fellegi_sunter.fit_fs", "fellegi_sunter", None, "fit_fs"),
    ("fellegi_sunter.log_ratio", "fellegi_sunter", "FsModel", "log_ratio"),
    ("evaluation.split", "evaluation", None, "split"),
    ("evaluation.evaluate", "evaluation", None, "evaluate"),
    ("evaluation.lambda_sweep", "evaluation", None, "lambda_sweep"),
)

LAYERS = (
    "metrics", "ingest", "linkage", "core", "calibration",
    "fellegi_sunter", "evaluation", "cli",
)


def current_rss_mb() -> float:
    """Resident set size now; falls back to the peak where /proc is absent."""
    try:
        with open("/proc/self/statm", encoding="ascii") as fh:
            pages = int(fh.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / 2**20
    except (OSError, ValueError, IndexError):
        return peak_rss_mb()


def peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10


class Span:
    __slots__ = ("id", "name", "parent", "job", "children", "calls", "total",
                 "child", "first", "last")

    def __init__(self, span_id, name, parent, job):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.job = job
        self.children = {}
        self.calls = 0
        self.total = 0.0
        self.child = 0.0
        self.first = None
        self.last = None

    @property
    def self_s(self) -> float:
        return self.total - self.child

    def to_dict(self) -> dict:
        return {
            "id": self.id, "name": self.name, "parent": self.parent,
            "job": self.job, "start": self.first, "end": self.last,
            "calls": self.calls, "seconds": self.total, "self_s": self.self_s,
        }


def _after_load_table(counters, args, result):
    report = result[1]
    counters["ingest.rows_read"] += report.read
    counters["ingest.rows_dropped"] += report.dropped


def _on_build_pairs(counters, args, result):
    counters["linkage.build_pairs.fields"] = len(args[2].compared_fields)


def _after_classify_batch(counters, args, result):
    counters["core.classify_batch.rows"] += len(args[1])


def _after_write_classified(counters, args, result):
    counters["linkage.write_classified.bytes"] += os.path.getsize(args[0])


# Counters read at a layer boundary from a call's arguments and result.
HOOKS = {
    "ingest.load_table": _after_load_table,
    "linkage.build_pairs": _on_build_pairs,
    "core.classify_batch": _after_classify_batch,
    "linkage.write_classified": _after_write_classified,
}


class Tracer:
    """Traces one job: ``with Tracer(job_id) as t: t.call(cli.main, argv)``."""

    def __init__(self, job_id):
        self.job = job_id
        self.spans = []
        self.counters = defaultdict(float)
        self._stack = []
        self._undo = []

    # --- installing and removing the wrappers ---

    def __enter__(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for name, modname, clsname, attr in TRACED:
            owner = importlib.import_module(f"{PACKAGE}.{modname}")
            if clsname is not None:
                cls = getattr(owner, clsname, None)
                static = inspect.getattr_static(cls, attr, None) if cls else None
                if static is None:
                    continue
                if isinstance(static, classmethod):
                    wrapped = classmethod(self._wrap(name, static.__func__))
                else:
                    wrapped = self._wrap(name, static)
                self._set(cls, attr, wrapped, static)
                continue
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapped = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapped, original)
        return self

    def __exit__(self, *exc):
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)
        return False

    def _set(self, target, attr, value, original):
        self._undo.append((target, attr, original))
        setattr(target, attr, value)

    # --- spans ---

    def call(self, fn, *args):
        """Run fn(*args) as the job's root span, named after the cli layer."""
        root = Span(len(self.spans), ROOT_SPAN, None, self.job)
        self.spans.append(root)
        start = perf_counter()
        self._stack = [(root, start)]
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            self._stack = []
            root.calls, root.total, root.first, root.last = 1, end - start, start, end

    def _enter(self, name):
        parent = self._stack[-1][0]
        span = parent.children.get(name)
        if span is None:
            span = Span(len(self.spans), name, parent.id, self.job)
            self.spans.append(span)
            parent.children[name] = span
        self._stack.append((span, perf_counter()))

    def _exit(self):
        end = perf_counter()
        span, start = self._stack.pop()
        elapsed = end - start
        span.calls += 1
        span.total += elapsed
        if span.first is None:
            span.first = start
        span.last = end
        self._stack[-1][0].child += elapsed

    def _wrap(self, name, fn):
        tracer = self
        calls_key = name + ".calls"
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            tracer.counters[calls_key] += 1
            if hook is not None:
                try:
                    hook(tracer.counters, args, result)
                except (AttributeError, IndexError, TypeError, OSError):
                    pass  # the signature moved on; the counter is simply absent
            if inspect.isgenerator(result):
                return tracer._pull(name, result)
            return result

        return wrapper

    def _pull(self, name, gen):
        """Re-yield gen's items, timing each next() as a span of ``name``."""
        items_key = name + ".items"
        while True:
            self._enter(name)
            try:
                item = next(gen)
            except StopIteration:
                self._exit()
                rss_key = name + ".rss_mb"
                self.counters[rss_key] = max(self.counters[rss_key], current_rss_mb())
                return
            except BaseException:
                self._exit()
                raise
            self._exit()
            self.counters[items_key] += 1
            yield item

    # --- results ---

    def self_times(self) -> dict:
        """Self seconds per span name; they add up to the root span's seconds."""
        out = defaultdict(float)
        for span in self.spans:
            out[span.name] += span.self_s
        return dict(out)

    def layer_self_times(self) -> dict:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in self.self_times().items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + seconds
        return out

"""Order-preserving map for per-mesh work, on one worker: a second thread
bought preprocessing no time and cost it RSS. ``pipeline.preprocess``
still calls ``thread_map`` because the benchmark's tracer times its work
under that span; the module goes once the benchmark no longer reads it."""

from __future__ import annotations


def worker_count() -> int:
    return 1


def thread_map(fn, items):
    return [fn(it) for it in items]

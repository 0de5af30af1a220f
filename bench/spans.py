"""In-memory span tracing of calls into facegan3d's public functions.

:class:`Tracer` wraps each traced function in every namespace of the
package that binds it (``pipeline`` imports ``load_obj`` by name, the
``geometry`` package re-exports it, and so on), records one span per
call and restores every original binding in :meth:`Tracer.restore`.

A span is (name, start, end, parent, thread id, counters). Spans opened
on ``thread_map`` workers take the ``thread_map`` span as parent. Self
time is a span's duration minus the durations of its children on the
same thread.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import sys
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    tid: int
    counters: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


def _out_bytes(args, kwargs, result):
    return {"out_bytes": result.data.nbytes}


def _conv2d_counters(args, kwargs, result):
    n, c1, h, w = args[0].data.shape
    c2 = args[1].data.shape[0]
    return {"out_bytes": result.data.nbytes, "flop": 2 * n * c2 * c1 * 9 * h * w}


def _file_bytes(args, kwargs, result):
    return {"bytes_written": os.path.getsize(args[0])}


AUTODIFF_OPS = ("conv2d", "conv1x1", "elu", "tanh", "avg_pool2", "upsample_nearest2",
                "fully_connected", "l1_mean", "add", "scale", "reshape",
                "concat_channels", "sum_all")

# (module, attribute or Class.method, span name, counter function)
TARGETS = [
    *[("facegan3d.autodiff", op, f"autodiff.{op}",
       _conv2d_counters if op == "conv2d" else _out_bytes) for op in AUTODIFF_OPS],
    ("facegan3d.autodiff", "backward", "autodiff.backward", None),
    ("facegan3d.autodiff", "adam_step", "autodiff.adam_step", None),
    ("facegan3d.model", "Network.forward", "model.forward", None),
    ("facegan3d.model", "Network.encode", "model.encode", None),
    ("facegan3d.model", "Network.decode", "model.decode", None),
    ("facegan3d.training", "pretrain_discriminator", "training.pretrain", None),
    ("facegan3d.training", "train", "training.train", None),
    ("facegan3d.training", "adversarial_step", "training.adv_step", None),
    ("facegan3d.training", "reconstruction_l1", "training.reconstruction_l1", None),
    ("facegan3d.geometry.mesh", "load_obj", "geometry.load_obj", None),
    ("facegan3d.geometry.mesh", "save_obj", "geometry.save_obj", None),
    ("facegan3d.geometry.procrustes", "generalized_procrustes", "geometry.gpa", None),
    ("facegan3d.geometry.procrustes", "procrustes_points", "geometry.procrustes", None),
    ("facegan3d.geometry.uvmap", "UVLayout.rasterization", "geometry.layout_raster", None),
    ("facegan3d.geometry.uvmap", "rasterize_uv", "geometry.rasterize_uv", None),
    ("facegan3d.geometry.uvmap", "nearest_fill", "geometry.nearest_fill", None),
    ("facegan3d.geometry.uvmap", "sample_mesh_from_uv", "geometry.sample_mesh_from_uv", None),
    ("facegan3d.geometry.icp", "icp_point_to_plane", "geometry.icp", None),
    ("facegan3d.io", "save_uvmap", "io.save_uvmap", _file_bytes),
    ("facegan3d.io", "load_uvmap", "io.load_uvmap", None),
    ("facegan3d.io", "save_checkpoint", "io.save_checkpoint", _file_bytes),
    ("facegan3d.io", "load_checkpoint", "io.load_checkpoint", None),
    ("facegan3d.io", "save_layout", "io.save_layout", _file_bytes),
    ("facegan3d.io", "load_layout", "io.load_layout", None),
    ("facegan3d.io", "write_loss_csv", "io.write_loss_csv", _file_bytes),
    ("facegan3d.io", "write_metric_report", "io.write_metric_report", None),
    ("facegan3d.pipeline", "preprocess", "pipeline.preprocess", None),
    ("facegan3d.pipeline", "write_raw_dataset", "pipeline.write_raw_dataset", None),
    ("facegan3d.pipeline", "load_paired_datasets", "pipeline.load_paired_datasets", None),
    ("facegan3d.pipeline", "load_aligned_meshes", "pipeline.load_aligned_meshes", None),
    ("facegan3d.pipeline", "translate_map", "pipeline.translate_map", None),
    ("facegan3d.generation", "collect_bottlenecks", "generation.collect_bottlenecks", None),
    ("facegan3d.generation", "decode_batch", "generation.decode_batch", None),
    ("facegan3d.evaluation", "generalization_errors", "evaluation.generalization_errors", None),
    ("facegan3d.evaluation", "rmse3d_translation", "evaluation.rmse3d_translation", None),
    ("facegan3d.evaluation", "specificity", "evaluation.specificity", None),
    ("facegan3d.pca", "pca_fit", "pca.pca_fit", None),
    ("facegan3d.pca", "pca_reconstruct", "pca.pca_reconstruct", None),
    ("facegan3d.synthetic", "synth_dataset", "synthetic.synth_dataset", None),
    ("facegan3d.cli", "main", "cli.main", None),
    *[("facegan3d.cli", f"cmd_{c}", f"cli.{c}", None)
      for c in ("synth", "preprocess", "pretrain", "train", "generate", "translate",
                "evaluate")],
]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def _stack(self) -> list[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _open(self, name: str) -> int:
        st = self._stack()
        span = Span(name, time.perf_counter(), 0.0, st[-1] if st else None,
                    threading.get_ident())
        with self._lock:
            self.spans.append(span)
            idx = len(self.spans) - 1
        st.append(idx)
        return idx

    def _close(self, idx: int, counters: dict | None = None):
        self.spans[idx].end = time.perf_counter()
        if counters:
            self.spans[idx].counters = counters
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around code in the benchmark itself; yields its index."""
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn, counter):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if counter is not None:
                tracer.spans[idx].counters = counter(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_thread_map(self, fn):
        tracer = self
        from facegan3d.parallel import worker_count

        def thread_map(item_fn, items):
            items = list(items)
            idx = tracer._open("parallel.thread_map")
            busy = []

            def item(it):
                st = tracer._stack()
                st.append(idx)   # spans on the worker hang under thread_map
                t0 = time.perf_counter()
                try:
                    return item_fn(it)
                finally:
                    busy.append(time.perf_counter() - t0)
                    st.pop()

            try:
                return fn(item, items)
            finally:
                tracer._close(idx, {"busy_s": sum(busy),
                                    "workers": min(worker_count(), max(1, len(items)))})

        thread_map.__wrapped__ = fn
        return thread_map

    # -- installing -----------------------------------------------------

    def _bind_everywhere(self, orig, wrapper):
        """Replace ``orig`` by ``wrapper`` in every facegan3d module that
        binds it."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("facegan3d"):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._restore.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    def install(self):
        for mod_name, attr, name, counter in TARGETS:
            mod = importlib.import_module(mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = vars(cls)[meth]
                self._restore.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig, counter))
            else:
                orig = getattr(mod, attr)
                self._bind_everywhere(orig, self._wrap(name, orig, counter))
        from facegan3d import parallel
        orig = parallel.thread_map
        self._bind_everywhere(orig, self._wrap_thread_map(orig))
        return self

    def restore(self):
        for obj, attr, orig in reversed(self._restore):
            setattr(obj, attr, orig)
        self._restore.clear()

    def bindings(self) -> list[tuple[object, str, object]]:
        """The (namespace, attribute, original) triples currently replaced."""
        return list(self._restore)

    # -- analysis -------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus children on the same thread."""
        out = [s.dur for s in self.spans]
        for s in self.spans:
            if s.parent is not None and self.spans[s.parent].tid == s.tid:
                out[s.parent] -= s.dur
        return out

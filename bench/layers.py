"""Per-layer metrics computed from a traced run's spans.

``PER_LAYER`` lists every metric with its unit, direction and home
workload: the workload on which the metric's layer does its work and on
which the self-test requires at least one span behind the metric. On the
other workloads a layer that did no work reports 0.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cached_property

import numpy as np

from spans import Tracer

MAIN_OPS = ("conv2d", "conv1x1", "elu", "tanh", "avg_pool2", "upsample_nearest2",
            "fully_connected", "l1_mean")


def _ms(span_name):
    return (f"{span_name}_ms", "ms", "lower", lambda st: st.total_ms(span_name))


def _calls(span_name, metric=None):
    return (metric or f"{span_name}.calls", "count", "lower",
            lambda st: st.calls(span_name))


def _self(span_name):
    return (f"{span_name}.self_ms", "ms", "lower", lambda st: st.self_ms(span_name))


# home workload -> [(name, unit, better, value function)]
_SPEC = {
    "train": [
        *[m for op in MAIN_OPS for m in (
            (f"autodiff.{op}.fwd_ms", "ms", "lower",
             lambda st, op=op: st.total_ms(f"autodiff.{op}")),
            _calls(f"autodiff.{op}"))],
        ("autodiff.conv2d.gflop_per_s", "GFLOP/s", "higher",
         lambda st: st.counter("autodiff.conv2d", "flop") / 1e9
         / max(st.total_ms("autodiff.conv2d") / 1e3, 1e-12)),
        _ms("autodiff.backward"),
        _ms("autodiff.adam_step"),
        ("autodiff.ops_per_step", "count", "lower", lambda st: st.per_adv_step()[0]),
        ("autodiff.out_mbytes_per_step", "MB", "lower", lambda st: st.per_adv_step()[1]),
        _self("model.forward"),
        _self("model.encode"),
        ("training.adv_step_ms.p50", "ms", "lower", lambda st: st.percentile_ms("training.adv_step", 50)),
        ("training.adv_step_ms.p90", "ms", "lower", lambda st: st.percentile_ms("training.adv_step", 90)),
        _calls("training.adv_step"),
        _self("training.adv_step"),
        ("training.adv_step.fwd_ms", "ms", "lower", lambda st: st.adv_step_split()[0]),
        ("training.adv_step.bwd_ms", "ms", "lower", lambda st: st.adv_step_split()[1]),
        ("training.adv_step.adam_ms", "ms", "lower", lambda st: st.adv_step_split()[2]),
        _ms("training.pretrain"),
        _ms("io.load_uvmap"),
        _ms("io.save_checkpoint"),
        _ms("io.load_checkpoint"),
        _self("pipeline.load_paired_datasets"),
        _ms("cli.pretrain"),
        _ms("cli.train"),
    ],
    "prep": [
        _ms("geometry.load_obj"),
        _calls("geometry.load_obj"),
        _ms("geometry.save_obj"),
        _calls("geometry.save_obj"),
        _ms("geometry.gpa"),
        _calls("geometry.procrustes", "geometry.procrustes_calls"),
        _ms("geometry.layout_raster"),
        _ms("geometry.rasterize_uv"),
        _ms("geometry.nearest_fill"),
        _ms("io.save_uvmap"),
        ("io.bytes_written", "B", "lower", lambda st: st.counter_prefix("io.", "bytes_written")),
        _ms("parallel.thread_map"),
        ("parallel.busy_share", "share", "higher", lambda st: st.busy_share()),
        _self("pipeline.preprocess"),
        _ms("synthetic.synth_dataset"),
        _ms("cli.synth"),
        _ms("cli.preprocess"),
    ],
    "infer": [
        _self("model.decode"),
        _ms("geometry.sample_mesh_from_uv"),
        _ms("geometry.icp"),
        _calls("geometry.icp"),
        _ms("evaluation.generalization_errors"),
        _ms("evaluation.rmse3d_translation"),
        _ms("evaluation.specificity"),
        _ms("pca.pca_fit"),
        _self("pipeline.translate_map"),
        _ms("generation.collect_bottlenecks"),
        _ms("generation.decode_batch"),
        _ms("cli.translate"),
        _ms("cli.generate"),
        _ms("cli.evaluate"),
    ],
}

PER_LAYER = [(name, unit, better, fn, home)
             for home, rows in _SPEC.items() for name, unit, better, fn in rows]
PER_LAYER.append(("trace.overhead_share", "share", "lower",
                  lambda st: st.overhead_share, None))


class SpanStats:
    """Aggregates over a tracer's spans. ``phase`` is the index of the span
    around the traced timed phase; layer times are taken within it."""

    def __init__(self, tracer: Tracer, phase: int, overhead_share: float):
        self.spans = tracer.spans
        self.phase = phase
        self.overhead_share = overhead_share
        self.selfs = tracer.self_times()
        self.by_name: dict[str, list[int]] = defaultdict(list)
        for i, s in enumerate(self.spans):
            self.by_name[s.name].append(i)
        self._nearest_cache: dict[str, list[int | None]] = {}

    # -- simple aggregates ----------------------------------------------

    def calls(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def total_ms(self, name: str) -> float:
        return 1e3 * sum(self.spans[i].dur for i in self.by_name.get(name, ()))

    def self_ms(self, name: str) -> float:
        return 1e3 * sum(self.selfs[i] for i in self.by_name.get(name, ()))

    def counter(self, name: str, key: str) -> float:
        return float(sum(self.spans[i].counters.get(key, 0) for i in self.by_name.get(name, ())))

    def counter_prefix(self, prefix: str, key: str) -> float:
        return float(sum(s.counters.get(key, 0) for s in self.spans if s.name.startswith(prefix)))

    def percentile_ms(self, name: str, q: float) -> float:
        durs = [self.spans[i].dur for i in self.by_name.get(name, ())]
        return 1e3 * float(np.percentile(durs, q)) if durs else 0.0

    def busy_share(self) -> float:
        """Item time summed over workers, divided by workers x wall."""
        work = wall = 0.0
        for i in self.by_name.get("parallel.thread_map", ()):
            s = self.spans[i]
            work += s.counters["busy_s"]
            wall += s.counters["workers"] * s.dur
        return work / wall if wall else 0.0

    # -- ancestry -------------------------------------------------------

    def nearest(self, name: str) -> list[int | None]:
        """Per span, the index of its nearest proper ancestor called
        ``name``. A parent always precedes its children in ``spans``."""
        if name not in self._nearest_cache:
            out: list[int | None] = []
            for s in self.spans:
                p = s.parent
                out.append(None if p is None else p if self.spans[p].name == name else out[p])
            self._nearest_cache[name] = out
        return self._nearest_cache[name]

    def in_phase(self) -> list[int]:
        inside = [False] * len(self.spans)
        for i, s in enumerate(self.spans):
            inside[i] = i == self.phase or (s.parent is not None and inside[s.parent])
        return [i for i, x in enumerate(inside) if x]

    # -- per adversarial step -------------------------------------------

    def _adv_step_spans(self):
        step = self.nearest("training.adv_step")
        return [s for s, a in zip(self.spans, step) if a is not None]

    def per_adv_step(self) -> tuple[float, float]:
        """(autodiff ops, MB of op outputs) per adversarial step."""
        steps = self.calls("training.adv_step")
        if not steps:
            return 0.0, 0.0
        ops = [s for s in self._adv_step_spans() if "out_bytes" in s.counters]
        return len(ops) / steps, sum(s.counters["out_bytes"] for s in ops) / 1e6 / steps

    def adv_step_split(self) -> tuple[float, float, float]:
        """Forward-op, backward and Adam ms per adversarial step."""
        steps = self.calls("training.adv_step")
        if not steps:
            return 0.0, 0.0, 0.0
        acc = defaultdict(float)
        for s in self._adv_step_spans():
            if s.name.startswith("autodiff."):   # autodiff spans never nest
                kind = {"autodiff.backward": "bwd", "autodiff.adam_step": "adam"}.get(s.name, "fwd")
                acc[kind] += s.dur
        return tuple(1e3 * acc[k] / steps for k in ("fwd", "bwd", "adam"))

    # -- time by layer --------------------------------------------------

    @cached_property
    def layer_times(self) -> dict[str, float]:
        """Wall seconds of the traced phase attributed to each layer.

        Main-thread time goes to the layer of the innermost open span. The
        time the main thread waits in a parallel ``thread_map`` is split
        over the layers its workers were in, in proportion to their self
        time; item code outside any span counts for the layer that called
        ``thread_map``."""
        main = self.spans[self.phase].tid
        pool_of = self.nearest("parallel.thread_map")
        acc: dict[str, float] = defaultdict(float)
        pools: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        spanned: dict[int, float] = defaultdict(float)
        maps = []
        for i in self.in_phase():
            s = self.spans[i]
            if s.name == "parallel.thread_map":
                maps.append(i)
            elif s.tid == main:
                acc[_layer(s.name)] += self.selfs[i]
            else:
                pools[pool_of[i]][_layer(s.name)] += self.selfs[i]
                if self.spans[s.parent].tid == main:   # outermost span of an item
                    spanned[pool_of[i]] += s.dur
        for i in maps:
            s = self.spans[i]
            caller = _layer(self.spans[s.parent].name)
            parts = dict(pools.get(i, {}))
            unspanned = s.counters["busy_s"] - spanned[i]
            if s.counters["workers"] == 1:
                # items ran on this thread: their spans are counted already,
                # and this span's self time is the item code around them
                parts = {caller: 1.0}
            elif unspanned > 0:
                parts[caller] = parts.get(caller, 0.0) + unspanned
            total = sum(parts.values())
            for layer, v in parts.items():
                acc[layer] += self.selfs[i] * v / total if total else 0.0
        return dict(acc)

    def shares(self) -> dict[str, float]:
        times = self.layer_times
        total = sum(times.values())
        return {k: v / total for k, v in sorted(times.items(), key=lambda kv: -kv[1])} \
            if total else {}

    def values(self) -> dict[str, float]:
        return {name: float(fn(self)) for name, _, _, fn, _ in PER_LAYER}


def _layer(span_name: str) -> str:
    return span_name.split(".", 1)[0]

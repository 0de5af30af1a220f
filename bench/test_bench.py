"""Self-test of the benchmark at a tiny size:

    python3 -m pytest -q bench/test_bench.py

* every per-layer metric in BENCHMARK.json is defined here, with the same
  unit and direction, and has spans behind it on its home workload;
* every attribute the tracer wrapped is restored afterwards;
* tracing does not change results: the traced pass and the untraced pass
  after it write byte-identical maps, checkpoints, losses and reports.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

# the CLI imports pca lazily; load it so its bindings are snapshotted too
import facegan3d.pca  # noqa: E402,F401
import run  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from spans import TARGETS, Tracer  # noqa: E402
from workloads import TINY, WORKLOADS, Ops  # noqa: E402


def _bindings() -> dict[tuple[str, str], object]:
    """Every attribute of every facegan3d module and traced class."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and name.startswith("facegan3d"):
            for attr, val in vars(mod).items():
                out[(name, attr)] = val
                if isinstance(val, type):
                    for meth, fn in vars(val).items():
                        out[(name, f"{attr}.{meth}")] = fn
    return out


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced_run(request, tmp_path_factory):
    wl = WORKLOADS[request.param](TINY)
    ops = Ops()
    work = tmp_path_factory.mktemp(request.param)
    before = _bindings()
    metrics, detail = run.run_traced(wl, ops, work, seed=3)
    return request.param, ops, work, metrics, detail, before


def test_benchmark_json_lists_the_per_layer_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert declared == [(name, unit, better) for name, unit, better, _, _ in PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_no_operation_fails(traced_run):
    _, ops, _, _, _, _ = traced_run
    assert ops.attempted > 0
    assert ops.failures == []


def test_failed_command_is_counted_not_fatal(tmp_path, monkeypatch):
    from facegan3d import cli
    from facegan3d.errors import DataFormatError

    def broken(args):
        raise DataFormatError("injected")

    monkeypatch.setattr(cli, "cmd_preprocess", broken)
    ops = Ops()
    metrics, detail = run.run_untraced(WORKLOADS["prep"](TINY), ops, tmp_path, seed=3,
                                       seconds=0)
    assert ops.failed >= 1 and ops.attempted > ops.failed
    assert any("preprocess exited with 2" in f for f in ops.failures)
    assert set(metrics) == {"setup_s", "phase_s", "peak_rss_mb"}
    # each set-up ran in a child process; its synth was counted here
    assert len(detail["setup_peak_rss_mb"]) == run.SETUP_REPS
    assert ops.attempted - ops.failed >= run.SETUP_REPS


def test_home_metrics_have_spans(traced_run):
    workload, _, _, metrics, _, _ = traced_run
    assert [m for m in metrics] == [name for name, _, _, _, _ in PER_LAYER]
    missing = [name for name, _, _, _, home in PER_LAYER
               if home == workload and not metrics[name]["value"] > 0]
    assert missing == []


def test_wrapped_attributes_are_restored(traced_run):
    _, _, _, _, _, before = traced_run
    after = _bindings()
    changed = [k for k, v in before.items() if after.get(k) is not v]
    assert changed == []


def test_install_wraps_every_namespace_that_binds_a_target():
    from facegan3d import geometry, pipeline
    from facegan3d.geometry import mesh, procrustes
    originals = (mesh.load_obj, procrustes.procrustes_points)
    tracer = Tracer().install()
    try:
        for fn in (geometry.load_obj, pipeline.load_obj, mesh.load_obj):
            assert fn.__wrapped__ is originals[0]
        assert procrustes.procrustes_points.__wrapped__ is originals[1]
        assert len(tracer.bindings()) >= len(TARGETS)
    finally:
        tracer.restore()
    assert (mesh.load_obj, procrustes.procrustes_points) == originals


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_tracing_does_not_change_results(traced_run):
    _, _, work, _, _, _ = traced_run
    traced, plain = _files(work / "traced"), _files(work / "plain")
    assert traced and traced.keys() == plain.keys()
    differ = [k for k in traced if traced[k] != plain[k]]
    assert differ == []

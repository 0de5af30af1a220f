"""Benchmark entry point. Run it from the repository root:

    python3 bench/run.py --workload {prep,train,infer} --seed N --seconds S --trace {0,1}

With ``--trace 0`` set-up runs several times, each in a forked child
process (its median is ``setup_s``). Then the workload's timed CLI sequence
repeats in this process until ``--seconds`` have passed (its median wall
time is ``phase_s``, and this process's peak RSS is ``peak_rss_mb``: the
timed phase's, without set-up's). With ``--trace 1`` set-up and
one pass of the sequence run with every public facegan3d function wrapped
in a span, and the per-layer metrics come from those spans.

The last stdout line is the result: ``correct``, ``attempted``, ``failed``
and ``metrics``. The line before it is a detail record: run manifest,
per-command rates, raw quality numbers and, when traced, reference rates
and the time share of each layer.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path.cwd()
SETUP_REPS = 3


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _limit_threads():
    # no more BLAS threads than cores; must run before numpy is imported
    n = str(os.cpu_count() or 1)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, n)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _setup_child(wl, d: Path, seed: int, conn):
    from workloads import Ops
    ops = Ops()
    t0 = time.perf_counter()
    wl.setup(ops, d, seed)
    conn.send((time.perf_counter() - t0, _peak_rss_mb(), ops.attempted, ops.failures))
    conn.close()


def _setup_in_child(wl, ops, d: Path, seed: int) -> tuple[float, float]:
    """Run set-up in a forked child, so that its memory peak stays out of
    this process's. Returns set-up seconds and the child's peak RSS in MB;
    the child's operations go into ``ops``."""
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_setup_child, args=(wl, d, seed, send))
    child.start()
    send.close()
    try:
        seconds, rss_mb, attempted, failures = recv.recv()
    finally:
        child.join()
    ops.attempted += attempted
    ops.failures += failures
    return seconds, rss_mb


def _check(wl, ops, inputs: Path, out: Path) -> dict:
    """Run the workload's checks; outputs missing after a failed command
    make the checks fail instead of aborting the run."""
    try:
        return wl.check(ops, inputs, out)
    except Exception as e:
        traceback.print_exc(file=sys.stderr)
        ops.attempted += 1
        ops.failures.append(f"checks could not run: {type(e).__name__}: {e}")
        return {}


def _timed_phase(wl, ops, inputs: Path, out: Path, seed: int) -> dict:
    # the tapes hold reference cycles: free the last pass's garbage first,
    # as a fresh process per CLI command would
    gc.collect()
    t0 = time.perf_counter()
    times = wl.phase(ops, inputs, out, seed)
    times["phase_s"] = time.perf_counter() - t0
    return times


def run_untraced(wl, ops, work: Path, seed: int, seconds: float) -> tuple[dict, dict]:
    setup_times, setup_rss = [], []
    for k in range(SETUP_REPS):
        setup_s, setup_mb = _setup_in_child(wl, ops, work / f"setup{k}", seed)
        setup_times.append(setup_s)
        setup_rss.append(setup_mb)
        if k:
            shutil.rmtree(work / f"setup{k}")
    inputs = work / "setup0"
    reps = []
    start = time.perf_counter()
    while True:
        out = work / f"rep{len(reps)}"
        reps.append(_timed_phase(wl, ops, inputs, out, seed))
        if time.perf_counter() - start >= seconds:
            break
        shutil.rmtree(out)
    rss_mb = _peak_rss_mb()   # before the checks
    quality = _check(wl, ops, inputs, out)
    med = {k: statistics.median(r[k] for r in reps) for k in reps[0]}
    metrics = {
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "phase_s": _metric(med["phase_s"], "s"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
    }
    detail = {
        "setup_s": setup_times,
        "setup_peak_rss_mb": setup_rss,
        "phase_s": [r["phase_s"] for r in reps],
        "command_s": med,
        "stages": wl.stages(med),
        "quality": quality,
    }
    return metrics, detail


def run_traced(wl, ops, work: Path, seed: int) -> tuple[dict, dict]:
    """Traced set-up, then three passes of the timed sequence: untraced
    (warm-up), traced, untraced. The overhead compares the last two."""
    from layers import PER_LAYER, SpanStats
    from spans import Tracer

    tracer = Tracer()
    inputs = work / "setup0"
    tracer.install()
    try:
        with tracer.span("bench.setup"):
            wl.setup(ops, inputs, seed)
    finally:
        tracer.restore()
    _timed_phase(wl, ops, inputs, work / "warmup", seed)
    tracer.install()
    try:
        with tracer.span("bench.phase") as phase:
            traced = _timed_phase(wl, ops, inputs, work / "traced", seed)
    finally:
        tracer.restore()
    plain = _timed_phase(wl, ops, inputs, work / "plain", seed)
    quality = _check(wl, ops, inputs, work / "traced")
    stats = SpanStats(tracer, phase, traced["phase_s"] / plain["phase_s"] - 1.0)
    values = stats.values()
    metrics = {name: _metric(values[name], unit) for name, unit, _, _, _ in PER_LAYER}
    detail = {
        "traced_phase_s": traced["phase_s"],
        "untraced_phase_s": plain["phase_s"],
        "layer_share": stats.shares(),
        "spans": len(tracer.spans),
        "quality": quality,
    }
    return metrics, detail


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "facegan3d").is_dir():
        print(f"bench: no facegan3d sources under {ROOT / 'src'}; "
              "run from the repository root", file=sys.stderr)
        return 2
    _limit_threads()
    sys.path.insert(0, str(ROOT / "src"))
    from machine import manifest, reference_rates
    from workloads import WORKLOADS, Ops, Sizes
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 1
    sizes = Sizes()
    wl = WORKLOADS[args.workload](sizes)
    ops = Ops()
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            metrics, detail = run_traced(wl, ops, work, args.seed)
            detail.update(reference_rates())
        else:
            metrics, detail = run_untraced(wl, ops, work, args.seed, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):   # other runs may still use it
            work.parent.rmdir()
    detail["manifest"] = manifest(ROOT, args.seed, sizes)
    detail["failures"] = ops.failures
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({"correct": ops.failed == 0, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

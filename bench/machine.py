"""Run manifest and machine reference rates, so that per-layer rates can
be read against what this machine does on plain sgemm and memory copy."""

from __future__ import annotations

import dataclasses
import os
import platform
import statistics
import subprocess
import time
from pathlib import Path

import numpy as np


def _git_sha(root: Path) -> str | None:
    """HEAD's commit from the checkout's .git files; None outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in (root / "src").rglob("*.py"))


def manifest(root: Path, seed: int, sizes) -> dict:
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "git_sha": _git_sha(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "THREADS": os.environ.get("THREADS"),
        "src_loc": _src_lines(root),
        "sizes": dataclasses.asdict(sizes),
    }


def _llc_bytes() -> int:
    """Last-level cache size from getconf; 32 MiB when it is unknown."""
    for level in ("LEVEL4", "LEVEL3", "LEVEL2"):
        try:
            out = subprocess.run(["getconf", f"{level}_CACHE_SIZE"], capture_output=True,
                                 text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            break
        if out.isdigit() and int(out) > 0:
            return int(out)
    return 32 << 20


def _warm_up(fn, seconds: float = 0.5):
    # the first fraction of a second of two-thread BLAS in a process can
    # run at a tenth of the steady rate
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        fn()


def _median_rate(fn, work: float, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return work / statistics.median(times)


def reference_rates() -> dict:
    """sgemm GFLOP/s for a square 2048^3 product and for a conv-shaped
    32x144 @ 144x16384 product; copy GB/s (bytes read + written) between
    two float32 arrays that together hold 4x the last-level cache."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((2048, 2048), dtype=np.float32)
    b = rng.standard_normal((2048, 2048), dtype=np.float32)
    _warm_up(lambda: a @ b)
    sgemm = _median_rate(lambda: a @ b, 2 * 2048 ** 3 / 1e9, 3)
    w = rng.standard_normal((32, 144), dtype=np.float32)
    cols = rng.standard_normal((144, 16384), dtype=np.float32)
    _warm_up(lambda: w @ cols)
    conv = _median_rate(lambda: w @ cols, 2 * 32 * 144 * 16384 / 1e9, 10)
    del a, b, w, cols
    llc = _llc_bytes()
    n = 2 * llc // 4                     # each array 2x LLC, both 4x
    src = np.ones(n, dtype=np.float32)
    dst = np.empty_like(src)
    np.copyto(dst, src)
    copy = _median_rate(lambda: np.copyto(dst, src), 2 * src.nbytes / 1e9, 3)
    return {
        "ref.sgemm_gflops": sgemm,
        "ref.conv_gemm_gflops": conv,
        "ref.copy_gbps": copy,
        "ref.llc_bytes": llc,
        "ref.copy_array_bytes": src.nbytes,
    }

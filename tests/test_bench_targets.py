"""Every function the benchmark's tracer wraps still exists.

``bench/spans.py`` names the traced functions by module and attribute
(``Class.method`` for methods). A rename in the package would otherwise
show only when the benchmark runs."""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from spans import TARGETS  # noqa: E402


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _, _ in TARGETS])
def test_bench_target_resolves_to_a_callable(module, attr):
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)

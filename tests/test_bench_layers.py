"""The benchmark against the library: the tracer (perfbench/tracing.py)
swaps each layer function at every module binding it names, so each
binding must still be the function its home module defines, or a traced
run fails or misses calls; and the bench's own self-test must pass."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.append(str(PERFBENCH))
import tracing  # noqa: E402


@pytest.mark.parametrize("span", sorted(tracing.LAYERS))
def test_layer_bound_in_every_module(span):
    home, attr, bindings = tracing.LAYERS[span]
    fn = getattr(importlib.import_module(home), attr)
    for name in bindings:
        assert getattr(importlib.import_module(name), attr, None) is fn, \
            f"{name}.{attr}"


def test_bench_selftest_passes():
    """Every workload's first item, untraced and traced, matches the
    committed reference; the run writes only under .bench_build/."""
    done = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr

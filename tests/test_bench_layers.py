"""The benchmark tracer (perfbench/tracing.py) swaps each layer function at
every module binding it names; each binding must still be the function its
home module defines, or a traced run fails or misses calls."""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402


@pytest.mark.parametrize("span", sorted(tracing.LAYERS))
def test_layer_bound_in_every_module(span):
    home, attr, bindings = tracing.LAYERS[span]
    fn = getattr(importlib.import_module(home), attr)
    for name in bindings:
        assert getattr(importlib.import_module(name), attr, None) is fn, \
            f"{name}.{attr}"

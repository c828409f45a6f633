"""Every name the per-layer tracer (perfbench/tracing.py) wraps resolves
in orchardlab's modules.  The tracer rebinds module and class attributes
by name, so a renamed function or a dropped import would otherwise leave
`--trace 1` without its spans or counts."""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
sys.path.insert(0, PERFBENCH)
try:
    tracing = importlib.import_module("tracing")
finally:
    sys.path.remove(PERFBENCH)

PATHS = [
    *tracing.SPANS, *tracing.COUNTED, *tracing.LOCAL_COUNTED, *tracing.BRUTE_KERNELS,
]


@pytest.mark.parametrize("path", PATHS)
def test_traced_name_resolves(path):
    module, *attrs = path.split(".")
    owner = importlib.import_module(f"orchardlab.{module}")
    for attr in attrs[:-1]:
        owner = getattr(owner, attr)
    # the tracer reads and rebinds the attribute in the owner's own dict
    assert callable(owner.__dict__.get(attrs[-1])), path


def test_tracer_layers_are_modules():
    for layer in tracing.LAYERS:
        importlib.import_module(f"orchardlab.{layer}")

"""Every name the per-layer tracer (perfbench/tracing.py) wraps resolves
in orchardlab's modules, and each of its exit hooks reads a real result
of the function it wraps.  The tracer rebinds module and class attributes
by name and reads record fields at span exit, so a renamed function, a
dropped import or a dropped field would otherwise break only
`--trace 1`."""

import importlib
import sys
from pathlib import Path

import pytest

from orchardlab.constructions import build_example
from orchardlab.field import FieldCtx
from orchardlab.groups import AffElem
from orchardlab.measures import AffineGroupOps, uniform
from orchardlab.projgeom import ProjPoint

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


F5 = FieldCtx(5)
SCALINGS = uniform(AffineGroupOps(F5), [AffElem(F5, 0, 0, c) for c in (1, 2, 3, 4)])
LINE = [[ProjPoint(F5, [1, 0, 0, 0])], [ProjPoint(F5, [0, 1, 0, 0])],
        [ProjPoint(F5, [1, 1, 0, 0])]]


def _point_file(tmp_path):
    path = tmp_path / "x.pts"
    path.write_text("field 5\n0:1:1:1\n0:1:2:3\n")
    return (str(path),)


# module.function -> (arguments of one small call, the counts its exit hook records)
EXIT_CASES = {
    "incidence.count_collinear_triples": (
        lambda tmp_path: (*LINE, "hash"), {"incidence.lines_reported": 1}),
    "projgeom.load_point_set": (_point_file, {"projgeom.points_loaded": 2}),
    "measures.convolve": (
        lambda tmp_path: (SCALINGS, SCALINGS),
        {"measures.convolve_calls": 1, "measures.conv_terms": 16, "measures.support_out": 4}),
    "bsg.verify_decomposition": (
        lambda tmp_path: (SCALINGS, 1), {"bsg.instances": 1, "bsg.checks": 11, "bsg.hyp_met": 1}),
    "constructions.verify_example": (
        lambda tmp_path: (build_example(7, 2),), {"constructions.family_triples": 1225}),
}


def test_every_exit_hook_has_a_case():
    assert set(EXIT_CASES) == set(tracing.ON_EXIT)


@pytest.mark.parametrize("path", sorted(EXIT_CASES))
def test_exit_hook_reads_a_real_result(path, tmp_path):
    make_args, expected = EXIT_CASES[path]
    module, name = path.split(".")
    function = getattr(importlib.import_module(f"orchardlab.{module}"), name)
    args = make_args(tmp_path)
    tracer = tracing.Tracer()
    tracing.ON_EXIT[path](tracer, path, args, {}, function(*args))
    assert tracer.counts == expected

"""The error contract: every exception class orchardlab defines derives
from `OrchardError`, and the CLI turns each into exit 1 (exit 2 for
`VerificationFailure`) with a one-line message.  Every function that
takes point sets raises the `PointSet` errors for a repeat, a field mix
or a point outside P^3, never a bare ValueError or IndexError, as does
every function that takes single points of P^3 for a point outside it,
and one `orchard-threeplanes` run validates each of its three sets
once."""

import importlib
import inspect
import pkgutil

import pytest

import orchardlab
from orchardlab import cli
from orchardlab.errors import OrchardError, VerificationFailure
from orchardlab.field import FieldCtx
from orchardlab.groups import (
    PGLElem,
    check_quadric_involutions,
    gamma_x,
    reflection_lift,
    segre_inverse,
)
from orchardlab.incidence import (
    EqualPlanes,
    count_collinear_triples,
    line_concentration,
    pencil_plane_concentration,
    stabilizer_census_affine,
)
from orchardlab.projgeom import (
    EqualPoints,
    GeometryError,
    MixedContexts,
    PointSet,
    ProjPlane,
    ProjPoint,
    QuadricForm,
    on_quadric,
)


def defined_exceptions():
    for info in pkgutil.iter_modules(orchardlab.__path__):
        module = importlib.import_module(f"orchardlab.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and issubclass(cls, Exception):
                yield cls


def test_every_exception_derives_from_the_root():
    found = set(defined_exceptions())
    assert {VerificationFailure, EqualPlanes, cli.UsageError} <= found
    assert [c.__qualname__ for c in found if not issubclass(c, OrchardError)] == []


@pytest.mark.parametrize("exc", [EqualPlanes])
def test_package_error_exit_code(monkeypatch, capsys, exc):
    def boom(args):
        raise exc("forced")

    monkeypatch.setattr(cli, "cmd_lemma_suite", boom)
    assert cli.main(["lemma-suite"]) == 1
    assert capsys.readouterr().err == "error: forced\n"


F5, F7 = FieldCtx(5), FieldCtx(7)
SEGRE = QuadricForm.segre(F5)
# on {x0 = 0}, for the census; the first two are on the Segre quadric too
PLANE = [ProjPoint(F5, c) for c in ([0, 0, 1, 0], [0, 1, 0, 0], [0, 1, 2, 3], [0, 1, 1, 4])]
OFF_SEGRE = [ProjPoint(F5, [1, 0, 0, 1])]

# each function that takes a point set, called with X as that set
POINT_KERNELS = {
    "hash": lambda X: count_collinear_triples(X, PLANE, PLANE, "hash"),
    "brute": lambda X: count_collinear_triples(PLANE, X, PLANE, "brute"),
    "both": lambda X: count_collinear_triples(PLANE, PLANE, X, "both"),
    "line-concentration": line_concentration,
    "pencil": lambda X: pencil_plane_concentration(
        X, ProjPlane(F5, [1, 0, 0, 0]), ProjPlane(F5, [0, 1, 0, 0])),
    "census": stabilizer_census_affine,
    "involutions-x": lambda X: check_quadric_involutions(SEGRE, OFF_SEGRE, X),
    "involutions-s": lambda X: check_quadric_involutions(SEGRE, X, PLANE[:2]),
}


@pytest.mark.parametrize("kernel", POINT_KERNELS)
@pytest.mark.parametrize("bad", [[0, 1], [1, 1], [1, 2, 3, 4, 0]],
                         ids=["P1-point", "P1-point-x0", "P4-point"])
def test_point_kernels_reject_points_outside_p3(kernel, bad):
    X = [PLANE[0], ProjPoint(F5, bad)]
    with pytest.raises(GeometryError) as info:
        POINT_KERNELS[kernel](X)
    assert type(info.value) is GeometryError


# each function that takes single points of P^3, called with x as such a point
POINT_FUNCTIONS = {
    "reflection-lift": lambda x: reflection_lift(x, SEGRE),
    "gamma-x-centre": lambda x: gamma_x(x, PLANE[0], SEGRE),
    "gamma-x-point": lambda x: gamma_x(OFF_SEGRE[0], x, SEGRE),
    "segre-inverse": segre_inverse,
    "pgl-act": lambda x: PGLElem(F5, [[int(i == j) for j in range(4)] for i in range(4)]).act(x),
    "on-quadric": lambda x: on_quadric(x, SEGRE),
}


@pytest.mark.parametrize("function", POINT_FUNCTIONS)
@pytest.mark.parametrize("bad", [[1, 0], [1, 2, 3, 4, 0]], ids=["P1-point", "P4-point"])
def test_point_functions_reject_points_outside_p3(function, bad):
    with pytest.raises(GeometryError) as info:
        POINT_FUNCTIONS[function](ProjPoint(F5, bad))
    assert type(info.value) is GeometryError


@pytest.mark.parametrize("kernel", POINT_KERNELS)
@pytest.mark.parametrize("fault,error", [
    ([PLANE[0], PLANE[1], PLANE[0]], EqualPoints),
    ([PLANE[0], PLANE[1], ProjPoint(F7, [0, 1, 2, 3])], MixedContexts),
], ids=["repeat", "field-mix"])
def test_point_kernels_raise_point_set_errors(kernel, fault, error):
    with pytest.raises(error) as info:
        POINT_KERNELS[kernel](fault)
    assert isinstance(info.value, OrchardError)


def test_threeplanes_validates_each_set_once(tmp_path, monkeypatch, capsys):
    for name, points in (("a", ["0:1:1:1", "0:1:2:3", "0:0:1:2"]),
                         ("b", ["1:0:1:1", "1:0:2:3"]), ("c", ["1:1:1:1", "2:1:3:3"])):
        (tmp_path / f"{name}.pts").write_text("field 5\n" + "\n".join(points) + "\n")
    built = []
    new = PointSet.__new__

    def counted(cls, points=()):
        built.append(cls)
        return new(cls, points)

    monkeypatch.setattr(PointSet, "__new__", counted)
    args = ["orchard-threeplanes", "--report", str(tmp_path / "t.json")]
    for flag, name in (("--x1", "a"), ("--x2", "b"), ("--x3", "c")):
        args += [flag, str(tmp_path / f"{name}.pts")]
    assert cli.main(args + ["--kernel", "both"]) == 0, capsys.readouterr().err
    assert len(built) == 3

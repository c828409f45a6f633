import random

import pytest

from oracles import is_smooth, line_points, on_line
from orchardlab.field import FieldCtx
from orchardlab.groups import AffElem, CharTwo, PGLElem, aff_compose
from orchardlab.projgeom import (
    EqualPoints,
    GeometryError,
    LineInPlane,
    MixedContexts,
    PointSetFormatError,
    ProjLine,
    ProjPlane,
    ProjPoint,
    QuadricForm,
    TooLarge,
    ZeroVector,
    collinear,
    enumerate_space,
    line_through,
    load_point_set,
    meet_line_plane,
    on_quadric,
    save_point_set,
)

F2 = FieldCtx(2)
F3 = FieldCtx(3)
F5 = FieldCtx(5)
F7 = FieldCtx(7)
F9 = FieldCtx(3, 2)


def test_normalize_examples():
    assert ProjPoint(F5, [0, 2, 4, 2]).key == ProjPoint(F5, [0, 1, 2, 1]).key
    assert ProjPoint(F5, [1, 0, 0, 0]).coords[0].is_one()
    with pytest.raises(ZeroVector):
        ProjPoint(F5, [0, 0, 0, 0])


def test_scale_invariance_exhaustive():
    points = enumerate_space(F3, 3)
    scalars = [e for e in F3.elements() if not e.is_zero()]
    for p in points:
        for lam in scalars:
            assert ProjPoint(F3, [lam * c for c in p.coords]) == p


def test_line_through_examples():
    l = line_through(ProjPoint(F5, [1, 0, 0, 0]), ProjPoint(F5, [0, 1, 0, 0]))
    assert [[c.code for c in row] for row in l.basis] == [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
    ]
    # two spanning pairs of the same line agree
    l2 = line_through(ProjPoint(F5, [1, 1, 0, 0]), ProjPoint(F5, [1, 2, 0, 0]))
    assert l == l2
    with pytest.raises(EqualPoints):
        line_through(ProjPoint(F5, [1, 1, 0, 0]), ProjPoint(F5, [2, 2, 0, 0]))


def test_line_membership_and_symmetry():
    rng = random.Random(0)
    pts = enumerate_space(F5, 3)
    for _ in range(50):
        p, q = rng.sample(pts, 2)
        line = line_through(p, q)
        assert line == line_through(q, p)
        assert on_line(line, p) and on_line(line, q)
        assert len(set(line_points(line))) == F5.order + 1


def test_line_from_rref_basis():
    rng = random.Random(1)
    for ctx in (F5, F9):
        pts = enumerate_space(ctx, 3)
        for _ in range(40):
            line = line_through(*rng.sample(pts, 2))
            again = ProjLine(ctx, [list(row) for row in line.basis])
            assert again == line and hash(again) == hash(line)
            assert again.basis == line.basis and again.ctx is ctx


def test_collinear_examples():
    a, b = ProjPoint(F5, [1, 0, 0, 0]), ProjPoint(F5, [0, 1, 0, 0])
    assert collinear(a, b, ProjPoint(F5, [1, 1, 0, 0]))
    assert not collinear(a, b, ProjPoint(F5, [0, 0, 1, 0]))
    # repeated points count as collinear by convention
    assert collinear(a, a, b)
    with pytest.raises(MixedContexts):
        collinear(a, b, ProjPoint(F3, [1, 1, 0, 0]))


def test_collinear_pgl_invariance():
    rng = random.Random(1)
    pts = enumerate_space(F5, 3)
    for _ in range(40):
        while True:
            rows = [[rng.randrange(5) for _ in range(4)] for _ in range(4)]
            try:
                M = PGLElem(F5, rows)
                break
            except Exception:
                continue
        p, q, r = (rng.choice(pts) for _ in range(3))
        assert collinear(p, q, r) == collinear(M.act(p), M.act(q), M.act(r))


def test_meet_line_plane_examples():
    line = line_through(ProjPoint(F5, [1, 0, 0, 0]), ProjPoint(F5, [0, 0, 1, 0]))
    plane = ProjPlane(F5, [1, 0, 0, 0])
    assert meet_line_plane(line, plane) == ProjPoint(F5, [0, 0, 1, 0])
    inside = line_through(ProjPoint(F5, [0, 1, 0, 0]), ProjPoint(F5, [0, 0, 1, 0]))
    with pytest.raises(LineInPlane):
        meet_line_plane(inside, plane)
    skew = line_through(ProjPoint(F5, [2, 1, 3, 4]), ProjPoint(F5, [0, 1, 0, 0]))
    assert meet_line_plane(skew, ProjPlane(F5, [0, 1, 0, 0])) == ProjPoint(
        F5, [1, 0, 4, 2]
    )


def test_meet_line_plane_uniqueness_by_exhaustion():
    rng = random.Random(2)
    for ctx in (F3, F5):
        pts = enumerate_space(ctx, 3)
        for _ in range(25):
            p, q = rng.sample(pts, 2)
            line = line_through(p, q)
            dual = [rng.randrange(ctx.p) for _ in range(4)]
            if not any(dual):
                continue
            plane = ProjPlane(ctx, dual)
            on_plane = [x for x in line_points(line) if plane.contains(x)]
            if len(on_plane) == len(line_points(line)):
                with pytest.raises(LineInPlane):
                    meet_line_plane(line, plane)
            else:
                hit = meet_line_plane(line, plane)
                assert on_plane == [hit] or set(on_plane) == {hit}
                assert plane.contains(hit) and on_line(line, hit)


def test_enumerate_space_counts():
    assert len(enumerate_space(F2, 3)) == 15
    assert len(enumerate_space(F3, 1)) == 4
    # over F_4, F_8 and F_9 code order differs from elements() order
    for ctx in (F5, FieldCtx(2, 2), FieldCtx(2, 3), FieldCtx(3, 2)):
        q = ctx.order
        for dim in (1, 3):
            pts = enumerate_space(ctx, dim)
            assert len(pts) == len(set(pts)) == (q ** (dim + 1) - 1) // (q - 1)
            assert pts == sorted(pts, key=lambda p: p.key)
            for p in pts:
                lead = next(c for c in p.coords if not c.is_zero())
                assert lead.is_one()
    with pytest.raises(TooLarge):
        enumerate_space(FieldCtx(101), 3)


def test_on_quadric_examples():
    QI = QuadricForm.identity(F5)
    assert on_quadric(ProjPoint(F5, [1, 2, 0, 0]), QI)
    assert not on_quadric(ProjPoint(F5, [1, 0, 0, 0]), QI)
    QS = QuadricForm.segre(F3)
    assert on_quadric(ProjPoint(F3, [1, 2, 1, 2]), QS)


@pytest.mark.parametrize("ctx", [F2, F3, FieldCtx(2, 2), F5, F7, FieldCtx(2, 3), F9], ids=repr)
def test_on_quadric_is_the_zero_set_of_the_form(ctx):
    """Over every field, the Segre form's points are those of x0 x3 - x1 x2,
    and in odd characteristic the identity form's are those of the sum of
    squares."""
    segre, identity = QuadricForm.segre(ctx), QuadricForm.identity(ctx)
    for x in enumerate_space(ctx, 3):
        a, b, c, d = x.coords
        assert on_quadric(x, segre) == (a * d - b * c).is_zero()
        if ctx.p > 2:
            assert on_quadric(x, identity) == (a * a + b * b + c * c + d * d).is_zero()


@pytest.mark.parametrize("ctx", [F2, FieldCtx(2, 2)], ids=repr)
def test_on_quadric_with_a_diagonal_in_char_two_raises_char_two(ctx):
    with pytest.raises(CharTwo) as exc:
        on_quadric(ProjPoint(ctx, [1, 0, 0, 0]), QuadricForm.identity(ctx))
    assert exc.type is CharTwo


def test_quadric_validation_and_det():
    with pytest.raises(Exception):
        QuadricForm(F5, [[1, 2, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert is_smooth(QuadricForm.identity(F5))
    rows = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]]
    assert not is_smooth(QuadricForm(F5, rows))


@pytest.mark.parametrize("call, error, message", [
    (lambda: ProjPlane(F5, [1, 0, 0, 0]).contains(ProjPoint(F7, [1, 0, 0, 0])),
     MixedContexts, "point from a different field"),
    (lambda: meet_line_plane(
        line_through(ProjPoint(F5, [1, 0, 0, 0]), ProjPoint(F5, [0, 1, 0, 0])),
        ProjPlane(F7, [0, 0, 1, 0])),
     MixedContexts, "plane from a different field"),
    (lambda: on_quadric(ProjPoint(F7, [1, 0, 0, 0]), QuadricForm.identity(F5)),
     MixedContexts, "point from a different field"),
    (lambda: enumerate_space(F5, 2), GeometryError, "only P^1 and P^3 are supported"),
    (lambda: QuadricForm(F5, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
     GeometryError, "quadric matrix must be 4x4"),
], ids=["plane-contains", "meet-line-plane", "on-quadric", "enumerate-p2", "quadric-3x3"])
def test_geometry_errors(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert exc.type is error and str(exc.value) == message


def test_line_and_plane_reprs():
    line = ProjLine(F5, [_row(F5, [1, 1, 0, 0]), _row(F5, [1, 2, 0, 0])])
    assert repr(line) == "Line((1, 0, 0, 0), (0, 1, 0, 0))"
    assert repr(ProjPlane(F5, [0, 2, 4, 2])) == "Plane(0:1:2:1)"


def test_point_set_file_roundtrip(tmp_path):
    pts = enumerate_space(F9, 3)[:17]
    path = tmp_path / "pts.pts"
    save_point_set(path, F9, pts)
    ctx, loaded = load_point_set(path)
    assert ctx == F9 and loaded == pts


def test_point_set_file_format(tmp_path):
    path = tmp_path / "a.pts"
    path.write_text("field 5\n# comment\n0:2:4:2\n1:0:0:0\n")
    ctx, pts = load_point_set(path)
    assert pts[0] == ProjPoint(F5, [0, 1, 2, 1])

    dup = tmp_path / "dup.pts"
    dup.write_text("field 5\n0:1:2:1\n0:2:4:2\n")
    with pytest.raises(PointSetFormatError):
        load_point_set(dup)
    ctx, pts = load_point_set(dup, allow_dup=True)
    assert len(pts) == 1

    bad = tmp_path / "bad.pts"
    bad.write_text("0:1:2:1\n")
    with pytest.raises(PointSetFormatError):
        load_point_set(bad)

    zero = tmp_path / "zero.pts"
    zero.write_text("field 5\n1:0:0:0\n0:0:0:0\n")
    blank = tmp_path / "blank.pts"
    blank.write_text("# no field line\n\n")
    wide = tmp_path / "wide.pts"
    wide.write_text("field 5\n1,2:0:0:1\n")
    for path, message in ((zero, f"{zero}:3: all coordinates zero"),
                          (blank, f"{blank}: missing field declaration"),
                          (wide, f"{wide}:2: too many coefficients")):
        with pytest.raises(PointSetFormatError) as exc:
            load_point_set(path)
        assert exc.type is PointSetFormatError and str(exc.value) == message


def _row(ctx, xs, scale=1):
    """The FieldElems of scale * x for the ints x of xs."""
    return [ctx.elem(scale) * ctx.elem(x) for x in xs]


IDENTITY = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
SHEAR = [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]

# kind -> (one object, the same object built another way, another object),
# each made over a given field
CANONICAL = {
    "point": (lambda ctx: ProjPoint(ctx, [0, 1, 2, 1]),
              lambda ctx: ProjPoint(ctx, _row(ctx, [0, 1, 2, 1], 2)),
              lambda ctx: ProjPoint(ctx, [0, 1, 2, 3])),
    "line": (lambda ctx: ProjLine(ctx, [_row(ctx, [1, 0, 0, 0]), _row(ctx, [0, 1, 0, 0])]),
             lambda ctx: ProjLine(ctx, [_row(ctx, [1, 1, 0, 0]), _row(ctx, [1, 2, 0, 0])]),
             lambda ctx: ProjLine(ctx, [_row(ctx, [1, 0, 0, 0]), _row(ctx, [0, 0, 1, 0])])),
    "plane": (lambda ctx: ProjPlane(ctx, [0, 1, 2, 1]),
              lambda ctx: ProjPlane(ctx, _row(ctx, [0, 1, 2, 1], 2)),
              lambda ctx: ProjPlane(ctx, [0, 1, 2, 3])),
    "affine": (lambda ctx: AffElem(ctx, 1, 2, 3),
               lambda ctx: aff_compose(AffElem(ctx, 1, 2, 3), AffElem.identity(ctx)),
               lambda ctx: AffElem(ctx, 1, 2, 4)),
    "pgl": (lambda ctx: PGLElem(ctx, SHEAR),
            lambda ctx: PGLElem(ctx, [_row(ctx, r, 2) for r in SHEAR]) * PGLElem(ctx, IDENTITY),
            lambda ctx: PGLElem(ctx, IDENTITY)),
}


@pytest.mark.parametrize("kind", sorted(CANONICAL))
def test_canonical_equality(kind):
    make, make_apart, make_other = CANONICAL[kind]
    x, y = make(F5), make_apart(F5)
    assert x is not y and x == y and hash(x) == hash(y) and len({x, y}) == 1
    assert x != make_other(F5) and x.key != make_other(F5).key
    # the same codes over another field
    z = make(F7)
    assert z.key == x.key and x != z and z != x and len({x, z}) == 2


def test_canonical_point_is_not_the_plane_of_its_key():
    point, plane = ProjPoint(F5, [0, 1, 2, 1]), ProjPlane(F5, [0, 1, 2, 1])
    assert point.key == plane.key and point != plane and plane != point
    assert len({point, plane}) == 2

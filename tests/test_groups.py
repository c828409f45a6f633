import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import affine_group_elements, mulclose, segre_quadric_points
from orchardlab.constructions import classify_fixed_points
from orchardlab.field import FieldCtx
from orchardlab.groups import (
    AffElem,
    CharTwo,
    GroupError,
    NotApplicable,
    OnExcludedPlane,
    PGLElem,
    PointOffPlane,
    PointOnQuadric,
    PointOffQuadric,
    StdThreePlaneFrame,
    aff_act,
    aff_centralizer_member,
    aff_compose,
    aff_inverse,
    eta,
    eta_composed,
    gamma_x,
    gamma_xy,
    is_orthogonal_mod_scalar,
    reflection_lift,
    reflection_matrix,
    segre,
    segre_inverse,
)
from orchardlab.projgeom import (
    NotOnSegreQuadric,
    ProjPoint,
    QuadricForm,
    collinear,
    enumerate_space,
    on_quadric,
)

F3 = FieldCtx(3)
F5 = FieldCtx(5)
F7 = FieldCtx(7)


def plane_points(ctx):
    frame = StdThreePlaneFrame(ctx)
    return [p for p in enumerate_space(ctx, 3) if frame.P1.contains(p)]


def off_plane_points(ctx):
    frame = StdThreePlaneFrame(ctx)
    return [p for p in enumerate_space(ctx, 3) if frame.off_both(p)]


def test_gamma_xy_examples():
    assert gamma_xy(
        ProjPoint(F5, [2, 1, 3, 4]), ProjPoint(F5, [1, 1, 1, 1])
    ) == AffElem(F5, 4, 3, 2)
    x = ProjPoint(F5, [1, 1, 0, 0])
    assert gamma_xy(x, x).is_identity()
    with pytest.raises(OnExcludedPlane):
        gamma_xy(ProjPoint(F5, [0, 1, 2, 3]), x)


def test_star_action_examples():
    g = AffElem(F5, 4, 3, 2)
    assert aff_act(g, ProjPoint(F5, [0, 1, 0, 0])) == ProjPoint(F5, [0, 2, 4, 3])
    assert aff_act(AffElem.identity(F5), ProjPoint(F5, [0, 1, 2, 3])) == ProjPoint(
        F5, [0, 1, 2, 3]
    )
    fixed = ProjPoint(F5, [0, 0, 1, 0])
    for g in affine_group_elements(F5)[:40]:
        assert aff_act(g, fixed) == fixed
    with pytest.raises(PointOffPlane):
        aff_act(g, ProjPoint(F5, [1, 0, 0, 0]))


def test_compose_inverse_examples():
    assert aff_compose(AffElem(F5, 1, 0, 2), AffElem(F5, 3, 0, 4)) == AffElem(
        F5, 2, 0, 3
    )
    assert aff_inverse(AffElem(F5, 1, 0, 2)) == AffElem(F5, 2, 0, 3)
    g = AffElem(F5, 1, 2, 3)
    assert aff_compose(g, AffElem.identity(F5)) == g


def test_composition_is_the_action_composition_exhaustive():
    group = affine_group_elements(F3)
    points = plane_points(F3)
    for g in group:
        for h in group:
            gh = aff_compose(g, h)
            for p in points[:4]:
                assert aff_act(gh, p) == aff_act(g, aff_act(h, p))


def test_group_axioms_exhaustive():
    group = affine_group_elements(F3)
    e = AffElem.identity(F3)
    for g in group:
        assert aff_compose(g, aff_inverse(g)) == e
        assert aff_compose(aff_inverse(g), g) == e
        assert aff_compose(g, e) == g and aff_compose(e, g) == g
    for g in group[:8]:
        for h in group:
            for k in group[:8]:
                assert aff_compose(aff_compose(g, h), k) == aff_compose(
                    g, aff_compose(h, k)
                )


def test_projection_agreement_exhaustive_f3():
    off = off_plane_points(F3)
    points = plane_points(F3)
    for x in off:
        for y in off:
            g = gamma_xy(x, y)
            for a in points:
                assert aff_act(g, a) == eta_composed(x, y, a)


def test_gamma_xy_inverse_pairing():
    rng = random.Random(3)
    off = off_plane_points(F5)
    for _ in range(30):
        x, y = rng.choice(off), rng.choice(off)
        assert aff_compose(gamma_xy(x, y), gamma_xy(y, x)).is_identity()


def test_eta_fixes_common_line_and_errors():
    frame = StdThreePlaneFrame(F5)
    x = ProjPoint(F5, [2, 1, 3, 4])
    common = ProjPoint(F5, [0, 0, 1, 4])  # on both planes
    assert eta(x, frame.P1, frame.P2, common) == common
    assert eta(x, frame.P1, frame.P2, ProjPoint(F5, [0, 1, 0, 0])) == ProjPoint(
        F5, [1, 0, 4, 2]
    )
    with pytest.raises(GroupError):
        eta(ProjPoint(F5, [0, 1, 1, 1]), frame.P1, frame.P2, common)
    with pytest.raises(PointOffPlane):
        eta(x, frame.P1, frame.P2, ProjPoint(F5, [1, 1, 1, 1]))


def test_centralizer_formula_vs_commutation_exhaustive_f5():
    group = affine_group_elements(F5)
    for g in group:
        if g.c.is_one():
            with pytest.raises(NotApplicable):
                aff_centralizer_member(g, AffElem(F5, 1, 1, 1))
            continue
        for h in group:
            formula = aff_centralizer_member(h, g)
            commutes = aff_compose(h, g) == aff_compose(g, h)
            assert formula == commutes
        assert aff_centralizer_member(g, g)


def test_centralizer_examples():
    assert aff_centralizer_member(AffElem(F5, 3, 0, 4), AffElem(F5, 1, 0, 2))
    assert not aff_centralizer_member(AffElem(F5, 1, 1, 1), AffElem(F5, 1, 0, 2))


def test_reflection_examples():
    QI = QuadricForm.identity(F5)
    x = ProjPoint(F5, [1, 0, 0, 0])
    lift = reflection_lift(x, QI)
    # diag(-1, 1, 1, 1) after canonical scaling
    assert lift == PGLElem(F5, [[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert lift.act(ProjPoint(F5, [1, 2, 0, 0])) == ProjPoint(F5, [1, 3, 0, 0])
    with pytest.raises(PointOnQuadric):
        reflection_lift(ProjPoint(F5, [1, 2, 0, 0]), QI)
    with pytest.raises(CharTwo):
        reflection_lift(ProjPoint(FieldCtx(2), [1, 0, 0, 0]), QuadricForm.identity(FieldCtx(2)))


@pytest.mark.parametrize("ctx", [FieldCtx(2), FieldCtx(2, 2)], ids=repr)
def test_gamma_x_in_char_two_raises_char_two(ctx):
    x, y = ProjPoint(ctx, [1, 0, 0, 1]), ProjPoint(ctx, [1, 0, 0, 0])
    with pytest.raises(CharTwo) as exc:
        gamma_x(x, y, QuadricForm.segre(ctx))
    assert type(exc.value) is CharTwo


def test_reflection_raw_lift_is_orthogonal_involution():
    QI = QuadricForm.identity(F5)
    B = QI.B
    for x in enumerate_space(F5, 3):
        if on_quadric(x, QI):
            continue
        rows = reflection_matrix(x, QI)
        # M^T B M == B with lambda exactly 1
        for i in range(4):
            for j in range(4):
                acc = F5.zero()
                for k in range(4):
                    for l in range(4):
                        acc = acc + rows[k][i] * B[k][l] * rows[l][j]
                assert acc == B[i][j]
        lift = reflection_lift(x, QI)
        assert (lift * lift).is_identity()


@lru_cache(maxsize=None)
def _off_quadric(p, n, form):
    ctx = FieldCtx(p, n)
    Q = getattr(QuadricForm, form)(ctx)
    return Q, [x for x in enumerate_space(ctx, 3) if not on_quadric(x, Q)]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([(3, 1), (5, 1), (7, 1), (3, 2)]),
       st.sampled_from(["segre", "identity"]), st.data())
def test_reflections_in_distinct_centres_never_multiply_to_the_identity(field, form, data):
    # a reflection determines its centre: the lift negates x and fixes the
    # hyperplane orthogonal to it
    Q, off_q = _off_quadric(*field, form)
    x1, x2 = data.draw(st.lists(st.sampled_from(off_q), min_size=2, max_size=2, unique=True))
    assert not (reflection_lift(x1, Q) * reflection_lift(x2, Q)).is_identity()


def test_gamma_x_matches_reflection_and_involutes():
    QI = QuadricForm.identity(F5)
    x = ProjPoint(F5, [1, 0, 0, 0])
    y = ProjPoint(F5, [1, 2, 0, 0])
    assert gamma_x(x, y, QI) == ProjPoint(F5, [1, 3, 0, 0])
    with pytest.raises(PointOffQuadric):
        gamma_x(x, ProjPoint(F5, [1, 1, 0, 0]), QI)
    with pytest.raises(PointOnQuadric):
        gamma_x(y, y, QI)
    on_q = [p for p in enumerate_space(F5, 3) if on_quadric(p, QI)]
    off_q = [p for p in enumerate_space(F5, 3) if not on_quadric(p, QI)]
    for x in off_q:
        lift = reflection_lift(x, QI)
        for y in on_q:
            z = gamma_x(x, y, QI)
            assert on_quadric(z, QI)
            assert collinear(x, y, z)
            assert gamma_x(x, z, QI) == y
            assert lift.act(y) == z


def test_gamma_x_tangent_case_returns_argument():
    QI = QuadricForm.identity(F5)
    found = False
    on_q = [p for p in enumerate_space(F5, 3) if on_quadric(p, QI)]
    off_q = [p for p in enumerate_space(F5, 3) if not on_quadric(p, QI)]
    for x in off_q:
        for y in on_q:
            if QI.bilinear(x.coords, y.coords).is_zero():
                assert gamma_x(x, y, QI) == y
                found = True
    assert found


def test_segre_examples_and_roundtrip():
    u, w = ProjPoint(F3, [1, 1]), ProjPoint(F3, [1, 2])
    assert segre(u, w) == ProjPoint(F3, [1, 2, 1, 2])
    corner = segre(ProjPoint(F3, [1, 0]), ProjPoint(F3, [1, 0]))
    assert corner == ProjPoint(F3, [1, 0, 0, 0])
    assert segre_inverse(corner) == (ProjPoint(F3, [1, 0]), ProjPoint(F3, [1, 0]))
    quad = QuadricForm.segre(F3)
    line_pts = enumerate_space(F3, 1)
    for a in line_pts:
        for b in line_pts:
            image = segre(a, b)
            assert on_quadric(image, quad)
            assert segre_inverse(image) == (a, b)
    with pytest.raises(NotOnSegreQuadric):
        segre_inverse(ProjPoint(F3, [1, 1, 1, 2]))
    assert len(set(segre_quadric_points(F5))) == 36


def test_pgl_canonical_and_orthogonality():
    two_eye = PGLElem(F5, [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]])
    assert two_eye.is_identity()
    QI = QuadricForm.identity(F5)
    refl = PGLElem(F5, [[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    ok, lam = is_orthogonal_mod_scalar(refl, QI)
    assert ok and lam == F5.one()
    shear = PGLElem(F5, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    ok, lam = is_orthogonal_mod_scalar(shear, QI)
    assert not ok and lam is None


def test_mulclose_subgroup_and_cap():
    g = AffElem(F5, 0, 0, 2)
    els, truncated = mulclose([g], aff_compose, AffElem.identity(F5))
    assert not truncated and len(els) == 4
    h = AffElem(F5, 1, 0, 1)
    els, truncated = mulclose([g, h], aff_compose, AffElem.identity(F5), cap=3)
    assert truncated


def test_element_text_roundtrips():
    g = AffElem(F5, 1, 2, 3)
    assert AffElem.parse(F5, g.text()) == g


def _pgl_identity(ctx):
    return PGLElem(ctx, [[1 if i == j else 0 for j in range(4)] for i in range(4)])


# name -> a call with one argument over F_5 and one over F_7
MIXED_CONTEXTS = {
    "aff_compose": lambda: aff_compose(AffElem(F5, 1, 2, 3), AffElem(F7, 1, 2, 3)),
    "aff_act": lambda: aff_act(AffElem(F5, 1, 2, 3), ProjPoint(F7, [0, 1, 0, 0])),
    "aff_centralizer_member": lambda: aff_centralizer_member(
        AffElem(F5, 0, 0, 2), AffElem(F7, 0, 0, 2)),
    "PGLElem.__mul__": lambda: _pgl_identity(F5) * _pgl_identity(F7),
    "PGLElem.act": lambda: _pgl_identity(F5).act(ProjPoint(F7, [1, 0, 0, 0])),
    "is_orthogonal_mod_scalar": lambda: is_orthogonal_mod_scalar(
        _pgl_identity(F5), QuadricForm.identity(F7)),
    "reflection_lift": lambda: reflection_lift(
        ProjPoint(F5, [1, 0, 0, 0]), QuadricForm.identity(F7)),
    "segre": lambda: segre(ProjPoint(F5, [1, 0]), ProjPoint(F7, [1, 0])),
    "classify_fixed_points": lambda: classify_fixed_points(_pgl_identity(F5), F7),
}


@pytest.mark.parametrize("name", sorted(MIXED_CONTEXTS))
def test_mixed_contexts_raise_group_error(name):
    with pytest.raises(GroupError, match="mixed contexts"):
        MIXED_CONTEXTS[name]()


@pytest.mark.parametrize("call, error, message", [
    (lambda: gamma_xy(ProjPoint(F5, [1, 1, 0, 0]), ProjPoint(F5, [1, 0, 2, 3])),
     OnExcludedPlane, "[1:0:2:3] lies on an excluded plane"),
    (lambda: PGLElem(F5, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]), GroupError, "matrix must be 4x4"),
    (lambda: PGLElem(F5, [[1, 0, 0, 0]] * 3 + [[0, 0, 0, 1, 0]]), GroupError,
     "matrix must be 4x4"),
    (lambda: segre(ProjPoint(F5, [1, 0]), ProjPoint(F5, [1, 0, 0, 0])), GroupError,
     "both factors must be points of P^1"),
], ids=["gamma-xy-y-excluded", "pgl-3x3", "pgl-ragged", "segre-p3-factor"])
def test_group_argument_checks_raise(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert exc.type is error and str(exc.value) == message


def test_involution_check_fails_on_a_zero_image(monkeypatch):
    """A reflection vector w with w . v = -1 sends v to v - v = 0, which no
    point is: the check fails at that pair.  No true reflection does this,
    as one is invertible, so w is patched in, with the centre s = x on Q
    to make the image v + (w . v) s zero."""
    from orchardlab import groups
    from orchardlab.incidence import VerificationFailure

    x = ProjPoint(F5, [1, 0, 0, 0])                    # on x1*x4 = x2*x3
    t = F5.zech
    monkeypatch.setattr(groups, "_reflection_vector", lambda Q, s, v: [t.m1, t.Z, t.Z, t.Z])
    with pytest.raises(VerificationFailure) as exc:
        groups.check_quadric_involutions(QuadricForm.segre(F5), [x], [x])
    assert exc.type is VerificationFailure
    assert str(exc.value) == f"quadric involution failed at ({x}, {x})"

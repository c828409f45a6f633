import itertools
import random
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import pytest

from oracles import family_triple, line_points, mat_mul, random_smooth_form
from orchardlab import constructions, groups, incidence
from orchardlab.constructions import (
    DegenerateParameters,
    NoSqrtMinusOne,
    SingularForm,
    build_example,
    classify_fixed_points,
    diagonalize_quadric,
    normalize_to_segre,
    pso_membership,
    to_segre_form,
    verify_example,
)
from orchardlab.errors import VerificationFailure
from orchardlab.field import FieldCtx, FieldElem
from orchardlab.groups import (
    CharTwo,
    IdentityElement,
    NotOnQuadricGroup,
    PGLElem,
    reflection_lift,
)
from orchardlab.incidence import count_collinear_triples
from orchardlab.projgeom import (
    ProjPoint,
    QuadricForm,
    TooLarge,
    collinear,
    enumerate_space,
    on_quadric,
)

F3 = FieldCtx(3)
F5 = FieldCtx(5)
F7 = FieldCtx(7)
F9 = FieldCtx(3, 2)


def test_build_example_grid():
    for p, k, n_expected in [(7, 2, 2), (11, 2, 3), (13, 3, 2), (31, 2, 5)]:
        cfg = build_example(p, k)
        assert cfg.N == n_expected
        for X in (cfg.X1, cfg.X2, cfg.X3):
            assert len(X) == len(set(X)) == (2 * cfg.N + 1) * p
        assert len(cfg.family) == (2 * cfg.N + 1) ** 2 * p**2
        # collinearity, distinctness and the dichotomy are hard assertions
        # inside verify_example: zero exceptions over the whole grid
        report = verify_example(cfg)
        assert report.all_collinear and report.all_pairwise_distinct
        assert report.dichotomy_ok
        assert report.max_lines == {"X1": p, "X2": p, "X3": p}


def test_build_example_memory_is_the_point_sets():
    """The family is made on demand: at p = 61 its 837,225 index tuples
    are never held, and the build keeps little more than 3 x 915 points."""
    tracemalloc.start()
    try:
        cfg = build_example(61, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cfg.family) == 61**2 * 15**2
    assert peak < 30 * 2**20


def test_build_example_degenerate():
    with pytest.raises(DegenerateParameters):
        build_example(5, 2)  # 2N+1 = 5 > p-1 = 4
    with pytest.raises(DegenerateParameters):
        build_example(7, 1)


def test_build_example_k_guard(monkeypatch):
    """A numerator or denominator of k above K_PART_CAP is refused before
    the root search; the cap itself passes."""
    monkeypatch.setattr(constructions, "K_PART_CAP", 3)
    assert build_example(7, 3).N == 1
    assert build_example(13, Fraction(3, 2)).N == 5
    for k in (4, Fraction(5, 2), Fraction(5, 4)):
        with pytest.raises(TooLarge) as exc:
            build_example(7, k)
        assert type(exc.value) is TooLarge


def test_build_example_point_guard(monkeypatch):
    """3p(2N+1) points above EXAMPLE_POINT_CAP are refused before any
    point is built; exactly at the cap the build goes ahead."""
    monkeypatch.setattr(constructions, "EXAMPLE_POINT_CAP", 3 * 7 * 5)
    cfg = build_example(7, 2)
    assert 3 * len(cfg.X1) == 3 * 7 * 5
    monkeypatch.setattr(constructions, "EXAMPLE_POINT_CAP", 3 * 7 * 5 - 1)
    with pytest.raises(TooLarge, match="at least 105 points") as exc:
        build_example(7, 2)
    assert type(exc.value) is TooLarge


def test_root_search_stops_at_the_collision():
    """The search for N stops once 2N+1 would pass p-1: k = 9999/9998 at
    p = 7 tries N = 1 and 2 only, where floor(7^(9998/9999)) = 6."""
    assert constructions._floor_root(7, Fraction(9999, 9998), 2) == 3
    assert constructions._floor_root(7, Fraction(9999, 9998), 10) == 6
    with pytest.raises(DegenerateParameters, match="exceeds p-1 = 6"):
        build_example(7, Fraction(9999, 9998))
    with pytest.raises(DegenerateParameters, match="odd prime"):
        build_example(1, 2)


def test_family_triples_collinear_and_spot_check():
    cfg = build_example(7, 2)
    x1, x2, x3 = family_triple(cfg, 0, 0, 1, 1)
    assert x1 == ProjPoint(cfg.ctx, [0, 1, 1, 0])
    assert x2 == ProjPoint(cfg.ctx, [-1, 0, 0, -1])
    assert x3 == ProjPoint(cfg.ctx, [1, 1, 1, 1])
    assert collinear(x1, x2, x3)


def test_verify_example_p7():
    cfg = build_example(7, 2)
    report = verify_example(cfg)
    assert report.family_count == 1225
    assert report.all_collinear and report.all_pairwise_distinct
    assert report.dichotomy_ok
    assert report.max_lines == {"X1": 7, "X2": 7, "X3": 7}
    # Some index pairs have exponent sum i+j outside [-N, N] mod p-1, so
    # their middle point falls outside X2; for p = 7 that is i+j = +-3
    # (4 of 25 pairs), leaving 21 * 49 in-set triples.
    assert report.in_sets_count == 1029
    assert not report.in_sets_all
    assert report.triple_total == 1029
    i, j, _, _ = report.first_outside
    assert (i + j) % 6 == 3
    # the members really are on the three planes even when outside the sets
    x1, x2, x3 = family_triple(cfg, *report.first_outside)
    assert x1.coords[0].is_zero()
    assert x2.coords[1].is_zero()
    assert x3.coords[2] == x3.coords[3]


def test_verify_example_counts_match_brute():
    cfg = build_example(7, 2)
    report = verify_example(cfg)
    brute = count_collinear_triples(cfg.X1, cfg.X2, cfg.X3, "brute")
    assert brute.total == report.triple_total


def test_verify_example_checks_the_3x3_grid_of_each_pair(monkeypatch):
    cfg = build_example(31, 2)
    calls = []
    check = constructions._collinear_mod_p

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(constructions, "_collinear_mod_p", counted)
    verify_example(cfg)
    assert len(calls) == 9 * (2 * cfg.N + 1) ** 2 == 1089


def test_verify_example_raises_on_a_failed_minor(monkeypatch):
    # the 11th check is the second grid point of the second pair
    answers = iter([True] * 10 + [False])
    monkeypatch.setattr(constructions, "_collinear_mod_p", lambda *args: next(answers, True))
    with pytest.raises(VerificationFailure, match=r"^family triple \(-2, -1, 0, 1\) is not collinear$"):
        verify_example(build_example(7, 2))


def test_verify_example_raises_on_a_repeated_point(monkeypatch):
    monkeypatch.setattr(constructions, "_same_point_mod_p", lambda p, a, b: True)
    with pytest.raises(VerificationFailure) as exc:
        verify_example(build_example(7, 2))
    assert exc.type is VerificationFailure
    assert str(exc.value) == "family triple (-2, -2, 0, 0) has repeated points"


def test_verify_example_raises_on_a_concentrated_line(monkeypatch):
    # p = 7, N = 2: a line of one set may hold max(2N+1, p) = 7 points
    monkeypatch.setattr(incidence, "line_concentration", lambda X: SimpleNamespace(max_count=8))
    with pytest.raises(VerificationFailure) as exc:
        verify_example(build_example(7, 2))
    assert exc.type is VerificationFailure
    assert str(exc.value) == "line concentration exceeds max(2N+1, p) = 7"


def test_verify_example_p11_in_set_structure():
    cfg = build_example(11, 2)
    report = verify_example(cfg)
    # the in-set family triples are exactly those with i+j in [-N, N] mod p-1
    good_pairs = 0
    span = range(-cfg.N, cfg.N + 1)
    for i in span:
        for j in span:
            if any((i + j - m) % (cfg.p - 1) == 0 for m in span):
                good_pairs += 1
    assert report.in_sets_count == good_pairs * cfg.p**2
    assert report.triple_total == report.in_sets_count


def test_diagonalize_examples():
    nz = diagonalize_quadric(QuadricForm.identity(F5))
    assert nz.extensions == [] and nz.verified
    assert all(
        nz.transform[i][j] == (F5.one() if i == j else F5.zero())
        for i in range(4)
        for j in range(4)
    )

    form = QuadricForm(F5, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 3]])
    nz = diagonalize_quadric(form)
    assert len(nz.extensions) == 1 and nz.ctx.n == 2

    form = QuadricForm(F5, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 4]])
    nz = diagonalize_quadric(form)
    assert nz.extensions == []
    assert nz.transform[3][3] == F5.elem(3)  # 1/sqrt(4) = inv(2)


def test_diagonalize_validation():
    with pytest.raises(SingularForm):
        diagonalize_quadric(
            QuadricForm(F5, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]])
        )
    with pytest.raises(CharTwo):
        diagonalize_quadric(QuadricForm.identity(FieldCtx(2)))


def test_diagonalize_random_forms():
    rng = random.Random(0)
    for trial in range(50):
        ctx = F5 if trial % 2 == 0 else F7
        form = random_smooth_form(ctx, rng)
        nz = diagonalize_quadric(form)
        assert nz.verified
        assert len(nz.extensions) <= 1


def test_to_segre_form_examples():
    seg = to_segre_form(F5)
    assert seg.verified and seg.scalar == F5.elem(4)
    T = seg.transform
    v = [F5.elem(1), F5.elem(0), F5.elem(1), F5.elem(0)]  # (x,y,w,z)
    image = [sum((T[i][j] * v[j] for j in range(4)), F5.zero()) for i in range(4)]
    assert ProjPoint(F5, image) == ProjPoint(F5, [1, 2, 1, 2])
    with pytest.raises(NoSqrtMinusOne):
        to_segre_form(F7)
    for ctx in (FieldCtx(2), FieldCtx(2, 2)):
        with pytest.raises(CharTwo) as exc:
            to_segre_form(ctx)
        assert exc.type is CharTwo


def test_to_segre_identity_exhaustive_f5():
    seg = to_segre_form(F5)
    T = seg.transform
    four = F5.elem(4)
    from itertools import product

    for raw in product(range(5), repeat=4):
        v = [F5.elem(c) for c in raw]
        image = [sum((T[i][j] * v[j] for j in range(4)), F5.zero()) for i in range(4)]
        squares = sum((x * x for x in image), F5.zero())
        x, y, w, z = v
        assert squares == four * (x * z - y * w)


@pytest.mark.parametrize("normalize, failing_call, message", [
    (lambda: diagonalize_quadric(QuadricForm.identity(F5)), 0,
     "diagonalization product is not the identity"),
    (lambda: to_segre_form(F5), 0, "substitution identity failed"),
    # the diagonalization and the substitution pass their checks first
    (lambda: normalize_to_segre(QuadricForm.identity(F5)), 2, "composite normalization failed"),
], ids=["diagonalize", "to-segre", "normalize"])
def test_normalization_raises_on_a_failed_congruence(monkeypatch, normalize, failing_call,
                                                     message):
    real, calls = groups._congruence_ratio, itertools.count()
    monkeypatch.setattr(groups, "_congruence_ratio",
                        lambda *args: None if next(calls) == failing_call else real(*args))
    with pytest.raises(VerificationFailure) as exc:
        normalize()
    assert exc.type is VerificationFailure
    assert str(exc.value) == message


def test_normalize_to_segre_random():
    rng = random.Random(4)
    for trial in range(20):
        ctx = F5 if trial % 2 == 0 else F7
        form = random_smooth_form(ctx, rng)
        nz = normalize_to_segre(form)
        assert nz.verified
        assert len(nz.extensions) <= 1
        assert nz.target_tag == "segre"


@pytest.mark.parametrize("ctx", [F9, FieldCtx(5, 2)], ids=["F9", "F25"])
def test_normalize_to_segre_over_extension_fields(ctx):
    """Forms whose entries range over every code of F_9 and F_25, not only
    the prime subfield: one extension at most, an embedding that is a ring
    map, and M^T B M = 2 * (Segre matrix) checked on `FieldElem`s."""
    rng = random.Random(25)
    prime_subfield = {ctx.elem(i) for i in range(ctx.p)}
    forms = []
    while len(forms) < 12:
        rows = [[None] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(i, 4):
                rows[i][j] = rows[j][i] = FieldElem(ctx, rng.randrange(ctx.order))
        form = QuadricForm(ctx, rows)
        if form.is_smooth() and not set(form.B[0]) <= prime_subfield:
            forms.append(form)
    elements = ctx.elements_sorted()
    for form in forms:
        nz = normalize_to_segre(form)
        assert nz.verified and nz.target_tag == "segre"
        assert len(nz.extensions) <= 1
        assert nz.ctx.n == ctx.n * (1 + len(nz.extensions))
        embed = nz.embed_source
        for a, b in zip(elements, rng.sample(elements, len(elements))):
            assert embed(a + b) == embed(a) + embed(b)
            assert embed(a * b) == embed(a) * embed(b)
        big = nz.ctx
        M = nz.transform
        MT = [list(col) for col in zip(*M)]
        B = [[embed(x) for x in row] for row in form.B]
        two = big.elem(2)
        assert mat_mul(big, mat_mul(big, MT, B), M) == [
            [two * x for x in row] for row in QuadricForm.segre(big).B
        ]


def test_classify_two_lines_example():
    g = PGLElem(F5, [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]])
    cls = classify_fixed_points(g, F5)
    assert cls.kind == "TWO_LINES"
    assert cls.pso_verified and cls.scalar == F5.elem(2)
    assert len(cls.fixed_points) == 12
    covered = set()
    for line in cls.lines:
        covered.update(line_points(line))
    assert covered == set(cls.fixed_points)


def test_classify_one_line_ruling_shear():
    g = PGLElem(F5, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]])
    cls = classify_fixed_points(g, F5)
    assert cls.pso_verified
    assert cls.kind == "ONE_LINE"
    assert len(cls.fixed_points) == 6


def test_classify_finite_and_empty():
    # a fixed-point-free special element over F3
    QS = QuadricForm.segre(F3)
    found_empty = False
    rng = random.Random(1)
    space = enumerate_space(F3, 3)
    off_q = [p for p in space if not on_quadric(p, QS)]
    for _ in range(80):
        x1, x2 = rng.sample(off_q, 2)
        g = reflection_lift(x1, QS) * reflection_lift(x2, QS)
        if g.is_identity():
            continue
        cls = classify_fixed_points(g, F3)
        assert cls.kind in ("FINITE", "ONE_LINE", "TWO_LINES")
        if cls.kind == "FINITE" and not cls.fixed_points:
            found_empty = True
    assert found_empty


def test_classify_validation():
    with pytest.raises(IdentityElement):
        classify_fixed_points(
            PGLElem(F5, [[int(i == j) for j in range(4)] for i in range(4)]), F5
        )
    shear = PGLElem(F5, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    with pytest.raises(NotOnQuadricGroup):
        classify_fixed_points(shear, F5)


def test_classify_unverified_reflection_conic():
    # a single reflection is orthogonal but not special: det = -lambda^2;
    # its fixed conic may legitimately classify as OTHER without raising
    QS = QuadricForm.segre(F5)
    x = ProjPoint(F5, [1, 0, 0, 1])
    assert not on_quadric(x, QS)
    cls = classify_fixed_points(reflection_lift(x, QS), F5)
    assert not cls.pso_verified


@pytest.mark.parametrize("ctx", [FieldCtx(2, 2), FieldCtx(2, 3)], ids=str)
def test_swap_of_factors_is_not_special_in_characteristic_two(ctx):
    # the swap x1 <-> x2 preserves the Segre matrix with lambda = 1 and
    # det = -1 = 1 = lambda^2, yet it fixes a conic: the det test cannot
    # tell the cosets apart in characteristic 2, so nothing is verified
    swap = PGLElem(ctx, [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    assert pso_membership(swap, QuadricForm.segre(ctx)) == (True, ctx.one(), False)
    cls = classify_fixed_points(swap, ctx)
    assert cls.kind == "OTHER" and not cls.pso_verified
    assert len(cls.fixed_points) == ctx.order + 1


def test_classify_rejects_a_polar_form_element_off_the_quadric():
    # over F_2 the doubled Segre matrix is only the alternating polar form
    # of x1*x4 - x2*x3: this element preserves it, so it passes the
    # congruence test, yet it moves a point of the quadric off it and
    # factors neither as A (x) B nor as (A (x) B) sigma
    F2 = FieldCtx(2)
    g = PGLElem(F2, [[0, 0, 0, 1], [0, 1, 1, 0], [0, 0, 1, 1], [1, 1, 1, 1]])
    assert pso_membership(g, QuadricForm.segre(F2)) == (True, F2.one(), False)
    assert g.act(ProjPoint(F2, [0, 0, 0, 1])) == ProjPoint(F2, [1, 0, 1, 1])
    with pytest.raises(NotOnQuadricGroup):
        classify_fixed_points(g, F2)


@pytest.mark.parametrize("ctx", [F5, F9], ids=str)
def test_classify_builds_no_field_arithmetic(ctx, monkeypatch):
    """Reflection lifts, their products and the classifier run on log
    codes: no FieldElem is added, subtracted or multiplied."""
    rng = random.Random(0)
    QS = QuadricForm.segre(ctx)
    off_q = [p for p in enumerate_space(ctx, 3) if not on_quadric(p, QS)]
    pairs = [rng.sample(off_q, 2) for _ in range(30)]
    # diag(1, 1, 2, 2) fixes two lines, so the full-line path runs too
    two_lines = PGLElem(ctx, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]])
    called = []
    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__"):
        op = getattr(FieldElem, name)

        def counted(self, other, op=op, name=name):
            called.append(name)
            return op(self, other)

        monkeypatch.setattr(FieldElem, name, counted)
    kinds = {classify_fixed_points(two_lines, ctx).kind}
    for x1, x2 in pairs:
        g = reflection_lift(x1, QS) * reflection_lift(x2, QS)
        if not g.is_identity():
            kinds.add(classify_fixed_points(g, ctx).kind)
    monkeypatch.undo()
    assert "TWO_LINES" in kinds and "FINITE" in kinds
    assert called == []


def test_classification_sample_f5_f9():
    rng = random.Random(2)
    for ctx in (F5, F9):
        QS = QuadricForm.segre(ctx)
        space = enumerate_space(ctx, 3)
        off_q = [p for p in space if not on_quadric(p, QS)]
        produced = 0
        while produced < 25:
            x1, x2 = rng.sample(off_q, 2)
            g = reflection_lift(x1, QS) * reflection_lift(x2, QS)
            if g.is_identity():
                continue
            produced += 1
            cls = classify_fixed_points(g, ctx)
            assert cls.pso_verified
            assert cls.kind != "OTHER"

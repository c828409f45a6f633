"""The closed forms and int paths against their oracles in oracles.py:
the O(1) pair-stabilizer test, the int-coded family check, the
eigenspace fixed points and the full lines of a fixed set, the
two-product orthogonality test, the 2x2-minor determinant, the sparse
quadric forms, and the log-code triple kernels, line key and line
concentration of F_{p^n}.
"""

import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_triples_on_points,
    dense_bilinear,
    det_laplace,
    family_membership,
    fixed_points_by_enumeration,
    full_lines_by_scan,
    line_concentration_by_lines,
    orthogonal_by_triple_sums,
    pair_stabilizer_scan,
)

from orchardlab.constructions import (
    _collinear_mod_p,
    _full_lines_within,
    _key_mod_p,
    build_example,
    classify_fixed_points,
    verify_example,
)
from orchardlab.field import FieldCtx, FieldElem
from orchardlab.groups import (
    GroupError,
    PGLElem,
    is_orthogonal_mod_scalar,
    reflection_lift,
)
from orchardlab.incidence import (
    _keyed,
    _pair_stabilizer_nontrivial,
    count_collinear_triples,
    line_concentration,
)
from orchardlab.projgeom import (
    ProjPoint,
    QuadricForm,
    _det4,
    collinear,
    enumerate_space,
    line_through,
    on_quadric,
)

F2, F3, F4, F5, F7, F8, F9 = (FieldCtx(2), FieldCtx(3), FieldCtx(2, 2), FieldCtx(5),
                              FieldCtx(7), FieldCtx(2, 3), FieldCtx(3, 2))
F25, F27, F31 = FieldCtx(5, 2), FieldCtx(3, 3), FieldCtx(31)


@lru_cache(maxsize=None)
def plane_x0(ctx):
    return [p for p in enumerate_space(ctx, 3) if p.coords[0].is_zero()]


@lru_cache(maxsize=None)
def off_segre(ctx):
    QS = QuadricForm.segre(ctx)
    return [p for p in enumerate_space(ctx, 3) if not on_quadric(p, QS)]


# -- the census pair test ------------------------------------------------

@pytest.mark.parametrize("ctx", [F2, F3, F4, F5], ids=str)
def test_pair_stabilizer_matches_scan_exhaustive(ctx):
    pts = plane_x0(ctx)
    for p in pts:
        for q in pts:
            assert _pair_stabilizer_nontrivial(ctx, p, q) == pair_stabilizer_scan(ctx, p, q), (p, q)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([F7, F8, F9]), st.data())
def test_pair_stabilizer_matches_scan_random(ctx, data):
    pts = plane_x0(ctx)
    p = data.draw(st.sampled_from(pts))
    q = p if data.draw(st.booleans()) else data.draw(st.sampled_from(pts))
    assert _pair_stabilizer_nontrivial(ctx, p, q) == pair_stabilizer_scan(ctx, p, q)


# -- the family check ----------------------------------------------------

# (5, 2) is degenerate: 2N+1 = 5 exceeds p-1 = 4
@pytest.mark.parametrize("p,k", [(5, 3), (7, 2), (7, 3), (11, 2), (11, 3), (13, 2), (13, 3)])
def test_family_check_matches_projpoint_oracle(p, k):
    cfg = build_example(p, k)
    report = verify_example(cfg)
    assert (report.in_sets_count, report.first_outside) == family_membership(cfg)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.data())
def test_collinear_mod_p_matches_rank(p, data):
    ctx = FieldCtx(p)
    vec = st.lists(st.integers(-2 * p, 2 * p), min_size=4, max_size=4).filter(
        lambda v: any(c % p for c in v))
    a, b, c = (data.draw(vec) for _ in range(3))
    keys = [_key_mod_p(p, [0] + [pow(x, p - 2, p) for x in range(1, p)], v) for v in (a, b, c)]
    pts = [ProjPoint(ctx, v) for v in (a, b, c)]
    assert keys == [pt.key for pt in pts]
    assert _collinear_mod_p(p, *keys) == collinear(*pts)
    assert _collinear_mod_p(p, a, b, c) == collinear(*pts)


@pytest.mark.parametrize("omit", range(4))
def test_collinear_mod_p_each_minor(omit):
    # three unit vectors off one coordinate: only the minor on the other
    # three columns is nonzero
    units = [[int(i == j) for j in range(4)] for i in range(4) if i != omit]
    assert not _collinear_mod_p(5, *units)
    assert _collinear_mod_p(5, units[0], units[1], [a + 2 * b for a, b in zip(*units[:2])])


# -- fixed points on the Segre quadric -------------------------------------

def _kron(ctx, A, B):
    """A (x) B, which sends segre(u, w) to segre(Au, Bw)."""
    return PGLElem(ctx, [[A[i // 2][j // 2] * B[i % 2][j % 2] for j in range(4)]
                         for i in range(4)])


def _assert_matches_enumeration(g, ctx):
    cls = classify_fixed_points(g, ctx)
    assert cls.fixed_points == fixed_points_by_enumeration(g, ctx)
    lines = _full_lines_within(ctx, cls.fixed_points)
    assert lines == full_lines_by_scan(cls.fixed_points)
    if len(cls.fixed_points) > 4:
        assert cls.lines == lines
    return cls


def _no_root(ctx):
    """A 2x2 matrix with no eigenvalue in ctx: the companion of x^2 - s
    for a non-square s."""
    s = next(e for e in ctx.elements() if not ctx.is_square(e))
    return [[ctx.zero(), s], [ctx.one(), ctx.zero()]]


@pytest.mark.parametrize("ctx", [F3, F5, F7, F9], ids=str)
def test_fixed_points_each_kind(ctx):
    one, zero, two = ctx.one(), ctx.zero(), ctx.elem(2)
    ident = [[one, zero], [zero, one]]
    # a line of P^3(F_3) has 4 points, few enough to count as FINITE
    cases = [
        ("TWO_LINES", _kron(ctx, [[one, zero], [zero, two]], ident)),
        ("ONE_LINE" if ctx.order > 3 else "FINITE", _kron(ctx, [[one, one], [zero, one]], ident)),
        ("FINITE", _kron(ctx, _no_root(ctx), ident)),
    ]
    for kind, g in cases:
        assert _assert_matches_enumeration(g, ctx).kind == kind
    # -1 as an eigenvalue (the last prime-field code), on one ruling
    minus = _kron(ctx, ident, [[one, zero], [zero, -one]])
    assert _assert_matches_enumeration(minus, ctx).kind == "TWO_LINES"


def test_full_lines_of_a_large_fixed_set():
    # diag(1, 2, 1, 2) over F_31 fixes two lines of 32 points each
    g = PGLElem(F31, [[int(i == j) * (1 + j % 2) for j in range(4)] for i in range(4)])
    cls = classify_fixed_points(g, F31)
    assert cls.kind == "TWO_LINES" and len(cls.fixed_points) == 64
    assert cls.lines == full_lines_by_scan(cls.fixed_points)
    # a line and a lone point: one full line, and order by first pair
    pts = cls.lines[1].points() + [ProjPoint(F31, [0, 1, 0, 0])]
    assert _full_lines_within(F31, pts) == full_lines_by_scan(pts) == [cls.lines[1]]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([F3, F5, F7, F9]), st.data())
def test_fixed_points_segre_products(ctx, data):
    entry = st.sampled_from(ctx.elements_sorted())
    A, B = ([[data.draw(entry) for _ in range(2)] for _ in range(2)] for _ in range(2))
    try:
        g = _kron(ctx, A, B)
    except GroupError:          # A or B singular
        return
    if not g.is_identity():
        _assert_matches_enumeration(g, ctx)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([F3, F5, F7, F9]), st.data())
def test_fixed_points_reflections(ctx, data):
    QS = QuadricForm.segre(ctx)
    x1 = data.draw(st.sampled_from(off_segre(ctx)))
    g = reflection_lift(x1, QS)
    if data.draw(st.booleans()):
        g = g * reflection_lift(data.draw(st.sampled_from(off_segre(ctx))), QS)
    if not g.is_identity():
        _assert_matches_enumeration(g, ctx)


# -- orthogonality and determinants --------------------------------------

def _random_matrix(rng, ctx):
    elems = ctx.elements_sorted()
    return [[rng.choice(elems) for _ in range(4)] for _ in range(4)]


@pytest.mark.parametrize("ctx", [F5, F9], ids=str)
def test_orthogonality_matches_triple_sums(ctx):
    rng = random.Random(ctx.order)
    forms = [QuadricForm.segre(ctx), QuadricForm.identity(ctx)]
    elements = []
    while len(elements) < 60:
        try:
            elements.append(PGLElem(ctx, _random_matrix(rng, ctx)))
        except GroupError:
            pass
    for Q in forms:
        for x in rng.sample(off_segre(ctx), 10):
            if not on_quadric(x, Q):
                elements.append(reflection_lift(x, Q))
    orthogonal = 0
    for g in elements:
        for Q in forms:
            got = is_orthogonal_mod_scalar(g, Q)
            assert got == orthogonal_by_triple_sums(g, Q)
            orthogonal += got[0]
    assert orthogonal >= 20


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([F3, F4, F5, F9]), st.data())
def test_det4_matches_laplace(ctx, data):
    elems = ctx.elements_sorted()
    row = st.lists(st.sampled_from(elems), min_size=4, max_size=4)
    rows = [data.draw(row) for _ in range(4)]
    if data.draw(st.booleans()):
        # a singular matrix: the last row a combination of two others
        s, t = data.draw(st.sampled_from(elems)), data.draw(st.sampled_from(elems))
        rows[3] = [s * a + t * b for a, b in zip(rows[0], rows[1])]
        assert _det4(ctx, rows).is_zero()
    assert _det4(ctx, rows) == det_laplace(ctx, rows)


# -- sparse quadric forms --------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(st.sampled_from([F5, F9, F25]), st.sampled_from(["random", "identity", "segre"]),
       st.data())
def test_sparse_forms_match_dense_sum(ctx, kind, data):
    entry = st.sampled_from(ctx.elements_sorted())
    if kind == "identity":
        Q = QuadricForm.identity(ctx)
    elif kind == "segre":
        Q = QuadricForm.segre(ctx)
    else:
        # a symmetric matrix, with zeros often enough to leave entries out
        entry = st.one_of(st.just(ctx.zero()), entry)
        upper = {(i, j): data.draw(entry) for i in range(4) for j in range(i, 4)}
        Q = QuadricForm(ctx, [[upper[min(i, j), max(i, j)] for j in range(4)]
                              for i in range(4)])
    assert all(not b.is_zero() for _, _, b in Q.entries)
    assert len(Q.entries) == sum(not b.is_zero() for row in Q.B for b in row)
    vec = st.lists(entry, min_size=4, max_size=4)
    u, v = data.draw(vec), data.draw(vec)
    assert Q.bilinear(u, v) == dense_bilinear(Q, u, v)
    assert Q.evaluate(u) == dense_bilinear(Q, u, u)


# -- the log-code kernels of F_{p^n} ---------------------------------------

EXT_FIELDS = [F4, F8, F9, F25, F27]


@st.composite
def ext_points(draw, ctx):
    """A point of P^3(ctx): general, on {x0 = 0} or on {x0 = x1 = 0}."""
    lead = draw(st.sampled_from([0, 0, 1, 2]))
    codes = [0] * lead + [draw(st.integers(1, ctx.order - 1))]
    codes += [draw(st.integers(0, ctx.order - 1)) for _ in range(3 - lead)]
    return ProjPoint(ctx, [FieldElem(ctx, c) for c in codes])


@st.composite
def ext_overlapping_sets(draw):
    """X1, X2, X3 over an extension field, cut from a pool of points on a
    few lines (some inside {x0 = 0} or {x0 = x1 = 0}) and scattered
    points: seven disjoint groups, one per nonempty subset of {X1, X2,
    X3}, the shared ones never empty."""
    ctx = draw(st.sampled_from(EXT_FIELDS))
    point = ext_points(ctx)
    pool = []
    for _ in range(draw(st.integers(1, 3))):
        u, v = draw(point), draw(point)
        if u != v:
            pool.append(v)
            for t in draw(st.lists(st.integers(0, ctx.order - 1), max_size=6)):
                t = FieldElem(ctx, t)
                pool.append(ProjPoint(ctx, [a + t * b for a, b in zip(u.coords, v.coords)]))
    pool += draw(st.lists(point, min_size=7, max_size=12, unique=True))
    pool = draw(st.permutations(list(dict.fromkeys(pool))))
    cuts = sorted(draw(st.lists(st.integers(4, len(pool)), min_size=2, max_size=2)))
    bounds = [0, 1, 2, 3, 4] + cuts + [len(pool)]
    g123, g12, g13, g23, g1, g2, g3 = (pool[a:b] for a, b in zip(bounds, bounds[1:]))
    X1 = draw(st.permutations(g123 + g12 + g13 + g1))
    X2 = draw(st.permutations(g123 + g12 + g23 + g2))
    X3 = draw(st.permutations(g123 + g13 + g23 + g3))
    return X1, X2, X3


@settings(max_examples=120, deadline=None)
@given(ext_overlapping_sets())
def test_log_kernels_match_fieldelem_oracle(sets):
    X1, X2, X3 = sets
    assert set(X1) & set(X2) & set(X3)
    total, per_line = brute_triples_on_points(X1, X2, X3)
    for kernel in ("brute", "hash"):
        got = count_collinear_triples(X1, X2, X3, kernel)
        assert (got.total, got.line_keys) == (total, per_line), kernel
    for X in (X1, X2, X3, X1 + [x for x in X2 if x not in X1]):
        if len(X) >= 2:
            rep = line_concentration(X)
            assert (rep.max_count, rep.witness_line.key) == line_concentration_by_lines(X)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(EXT_FIELDS), st.data())
def test_log_line_key_matches_line_through(ctx, data):
    u = data.draw(ext_points(ctx))
    v = data.draw(ext_points(ctx).filter(lambda x: x != u))
    key_of, [[a, b]] = _keyed(ctx, [u, v])
    assert key_of(a, b) == key_of(b, a) == line_through(u, v).key

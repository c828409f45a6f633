"""The closed forms and int paths against their oracles in oracles.py:
the O(1) pair-stabilizer test, the closed-form family check, the
fixed points and full lines from the Segre factors, the
two-product orthogonality test, the 2x2-minor determinant, the sparse
quadric forms, the log-code triple kernels, line key and line
concentration of F_{p^n}, the prime-field brute kernel's first-minor
filter, the log-code quadric involution check, and the unrolled
generator powers of the Zech arrays.
"""

import random
import re
from functools import lru_cache
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    brute_triples_on_points,
    dense_bilinear,
    det_laplace,
    family_membership,
    fixed_points_by_enumeration,
    full_lines_by_scan,
    involution_images,
    line_concentration_by_lines,
    line_points,
    mat_mul,
    orthogonal_by_triple_sums,
    pair_stabilizer_scan,
    random_smooth_form,
    reflection_rows,
    scaled_key,
    zech_powers_by_matrix,
)

from orchardlab import constructions
from orchardlab.constructions import (
    _collinear_mod_p,
    _same_point_mod_p,
    build_example,
    classify_fixed_points,
    verify_example,
)
from orchardlab.errors import VerificationFailure
from orchardlab.field import FieldCtx, FieldElem
from orchardlab.groups import (
    CharTwo,
    GroupError,
    PGLElem,
    PointOffQuadric,
    PointOnQuadric,
    _involution_images,
    check_quadric_involutions,
    is_orthogonal_mod_scalar,
    reflection_lift,
    reflection_matrix,
)
from orchardlab.incidence import (
    _keyed,
    _pair_stabilizer_nontrivial,
    count_collinear_triples,
    line_concentration,
)
from orchardlab.projgeom import (
    MixedContexts,
    PointSet,
    ProjPoint,
    QuadricForm,
    TooLarge,
    _det4,
    _matrix_logs,
    collinear,
    enumerate_space,
    line_through,
    on_quadric,
)

F2, F3, F4, F5, F7, F8, F9 = (FieldCtx(2), FieldCtx(3), FieldCtx(2, 2), FieldCtx(5),
                              FieldCtx(7), FieldCtx(2, 3), FieldCtx(3, 2))
F25, F27, F31, F101 = FieldCtx(5, 2), FieldCtx(3, 3), FieldCtx(31), FieldCtx(101)


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
@pytest.mark.parametrize("p,k", [(5, 3), (7, 2), (7, 3), (11, 2), (11, 3), (13, 2), (13, 3),
                                 (17, 2)])
def test_family_check_matches_projpoint_oracle(p, k):
    cfg = build_example(p, k)
    report = verify_example(cfg)
    assert (report.in_sets_count, report.first_outside) == family_membership(cfg)


def int_vectors(p):
    """Int 4-vectors that are nonzero mod p, entries in [-2p, 2p]."""
    return st.lists(st.integers(-2 * p, 2 * p), min_size=4, max_size=4).filter(
        lambda v: any(c % p for c in v))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.data())
def test_collinear_mod_p_matches_rank(p, data):
    ctx = FieldCtx(p)
    a, b, c = (data.draw(int_vectors(p)) for _ in range(3))
    pts = [ProjPoint(ctx, v) for v in (a, b, c)]
    assert _collinear_mod_p(p, *(pt.key for pt in pts)) == collinear(*pts)
    assert _collinear_mod_p(p, a, b, c) == collinear(*pts)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.data())
def test_same_point_mod_p_matches_projpoint(p, data):
    ctx = FieldCtx(p)
    a = data.draw(int_vectors(p))
    if data.draw(st.booleans()):        # a multiple of a, shifted by multiples of p
        scale = data.draw(st.integers(1, p - 1))
        b = [x * scale + p * data.draw(st.integers(-1, 1)) for x in a]
    else:
        b = data.draw(int_vectors(p))
    assert _same_point_mod_p(p, a, b) == (ProjPoint(ctx, a) == ProjPoint(ctx, b))


@pytest.mark.parametrize("omit", range(4))
def test_collinear_mod_p_each_minor(omit):
    # three unit vectors off one coordinate: only the minor on the other
    # three columns is nonzero
    units = [[int(i == j) for j in range(4)] for i in range(4) if i != omit]
    assert not _collinear_mod_p(5, *units)
    assert _collinear_mod_p(5, units[0], units[1], [a + 2 * b for a, b in zip(*units[:2])])


# -- fixed points on the Segre quadric -------------------------------------

def _kron(ctx, A, B, twin=False):
    """A (x) B, which sends segre(u, w) to segre(Au, Bw), or with twin its
    sigma-twin (A (x) B) sigma, columns 1 and 2 swapped, which sends
    segre(u, w) to segre(Aw, Bu)."""
    rows = [[A[i // 2][j // 2] * B[i % 2][j % 2] for j in range(4)] for i in range(4)]
    return PGLElem(ctx, [[r[0], r[2], r[1], r[3]] for r in rows] if twin else rows)


def _assert_matches_enumeration(g, ctx):
    """The classification against the oracles: the enumerated fixed
    points, their scanned full lines, the kind these make, the scalar of
    M^T B M by triple sums and the det test on the Laplace determinant."""
    cls = classify_fixed_points(g, ctx)
    points = fixed_points_by_enumeration(g, ctx)
    lines = full_lines_by_scan(points)
    assert cls.fixed_points == points
    assert cls.lines == (lines if len(points) > 4 else [])
    union = {p for line in lines for p in line_points(line)} == set(points)
    if len(points) <= 4:
        kind = "FINITE"
    elif union and len(lines) in (1, 2):
        kind = ["ONE_LINE", "TWO_LINES"][len(lines) - 1]
    else:
        kind = "OTHER"
    assert cls.kind == kind
    ok, lam = orthogonal_by_triple_sums(g, QuadricForm.segre(ctx))
    assert ok and cls.scalar == lam
    assert cls.pso_verified == (ctx.p > 2 and det_laplace(ctx, g.rows) == lam * lam)
    return cls


def _no_root(ctx):
    """A 2x2 matrix with no eigenvalue in ctx: the companion of x^2 - s
    for a non-square s."""
    s = next(e for e in ctx.elements() if ctx.try_sqrt(e) is None)
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


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([F3, F4, F5, F7, F8, F9, F25]), st.booleans(), st.data())
def test_fixed_points_segre_products(ctx, twin, data):
    entry = st.sampled_from(ctx.elements_sorted())
    A, B = ([[data.draw(entry) for _ in range(2)] for _ in range(2)] for _ in range(2))
    try:
        g = _kron(ctx, A, B, twin)
    except GroupError:          # A or B singular
        return
    if not g.is_identity():
        _assert_matches_enumeration(g, ctx)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([F3, F5, F7, F9, F25]), st.data())
def test_fixed_points_reflections(ctx, data):
    QS = QuadricForm.segre(ctx)
    x1 = data.draw(st.sampled_from(off_segre(ctx)))
    g = reflection_lift(x1, QS)
    if data.draw(st.booleans()):
        g = g * reflection_lift(data.draw(st.sampled_from(off_segre(ctx))), QS)
    if not g.is_identity():
        _assert_matches_enumeration(g, ctx)


@pytest.mark.parametrize("ctx", [F4, F5, F8, F9, F25], ids=str)
def test_sigma_twin_of_a_scalar_fixes_a_conic(ctx):
    """(A (x) B) sigma with AB scalar fixes the q + 1 points (u, Bu): a
    conic, with no full line, so OTHER; and no sigma-coset element is
    special, the determinant test reading det = -lambda^2."""
    one, zero = ctx.one(), ctx.zero()
    B = [[zero, one], [one, one]]
    A = [[-one, one], [one, zero]]          # B^-1, so AB = I
    cls = _assert_matches_enumeration(_kron(ctx, A, B, twin=True), ctx)
    assert cls.kind == "OTHER" and len(cls.fixed_points) == ctx.order + 1
    assert not cls.pso_verified and cls.lines == []


def test_verified_other_raises(monkeypatch):
    """The cross-check behind pso_verified: a sigma-twin fixing a conic,
    reported special by a patched determinant test, raises."""
    one, zero = F5.one(), F5.zero()
    ident = [[one, zero], [zero, one]]
    swap = _kron(F5, ident, ident, twin=True)
    assert classify_fixed_points(swap, F5).kind == "OTHER"
    monkeypatch.setattr(constructions, "pso_membership", lambda g, Q: (True, one, True))
    with pytest.raises(VerificationFailure, match="verified special element"):
        classify_fixed_points(swap, F5)


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
    singular = data.draw(st.booleans())
    if singular:
        # the last row a combination of two others
        s, t = data.draw(st.sampled_from(elems)), data.draw(st.sampled_from(elems))
        rows[3] = [s * a + t * b for a, b in zip(rows[0], rows[1])]
    det = _det4(ctx, _matrix_logs(ctx, rows))      # on log codes
    if singular:
        assert det == ctx.zech.Z
    assert FieldElem(ctx, ctx.zech.exp[det]) == det_laplace(ctx, rows)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([F3, F4, F5, F9]), st.data())
def test_pgl_algebra_matches_fieldelem_oracles(ctx, data):
    """Products (every field), det, the identity test and reflections
    (odd characteristic) on log codes against FieldElem arithmetic."""
    elems = ctx.elements_sorted()
    row = st.lists(st.sampled_from(elems), min_size=4, max_size=4)

    def element():
        if data.draw(st.booleans()):
            # a nonzero scalar matrix, the identity of PGL
            c = data.draw(st.sampled_from(elems[1:]))
            rows = [[c if i == j else ctx.zero() for j in range(4)] for i in range(4)]
        else:
            rows = [data.draw(row) for _ in range(4)]
            assume(not det_laplace(ctx, rows).is_zero())
        return PGLElem(ctx, rows), rows

    (g, A), (h, B) = element(), element()
    assert g.key == scaled_key(A)
    assert (g * h).key == scaled_key(mat_mul(ctx, A, B))
    if ctx is F4:
        return
    assert g.det() == det_laplace(ctx, g.rows)
    zero = ctx.zero()
    assert g.is_identity() == all(
        A[i][j] == (A[0][0] if i == j else zero) for i in range(4) for j in range(4))
    Q = random_smooth_form(ctx, data.draw(st.randoms())) if ctx.n == 1 else (
        QuadricForm.segre(ctx) if data.draw(st.booleans()) else QuadricForm.identity(ctx))
    x = data.draw(st.sampled_from(enumerate_space(ctx, 3)))
    assume(not on_quadric(x, Q))
    rows = reflection_rows(x, Q)
    assert reflection_matrix(x, Q) == rows
    assert reflection_lift(x, Q).key == scaled_key(rows)


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
    assert Q.bilinear(u, u) == dense_bilinear(Q, u, u)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([F3, F5, F9, F25]), st.sampled_from(["random", "identity", "segre"]),
       st.data())
def test_on_quadric_matches_dense_form(ctx, kind, data):
    """`on_quadric` on log codes against the dense form on FieldElems, on
    every point of a random line, which meets Q in 0, 1, 2 or all points."""
    if kind == "identity":
        Q = QuadricForm.identity(ctx)
    elif kind == "segre":
        Q = QuadricForm.segre(ctx)
    else:
        Q = random_smooth_form(ctx, random.Random(data.draw(st.integers(0, 2**16))))
    a, b = data.draw(ext_points(ctx)), data.draw(ext_points(ctx))
    assume(a != b)
    for x in line_points(line_through(a, b)):
        assert on_quadric(x, Q) == dense_bilinear(Q, x.coords, x.coords).is_zero()


# -- the log-code kernels of F_{p^n} ---------------------------------------

EXT_FIELDS = [F4, F8, F9, F25, F27]


@st.composite
def ext_points(draw, ctx):
    """A point of P^3(ctx): general, on {x0 = 0} or on {x0 = x1 = 0}."""
    lead = draw(st.sampled_from([0, 0, 1, 2]))
    codes = [0] * lead + [draw(st.integers(1, ctx.order - 1))]
    codes += [draw(st.integers(0, ctx.order - 1)) for _ in range(3 - lead)]
    return ProjPoint(ctx, [FieldElem(ctx, c) for c in codes])


def _three_overlapping(draw, pool):
    """X1, X2, X3 cut from a pool of at least 4 distinct points: seven
    disjoint groups, one per nonempty subset of {X1, X2, X3}, the shared
    ones never empty."""
    pool = draw(st.permutations(list(dict.fromkeys(pool))))
    cuts = sorted(draw(st.lists(st.integers(4, len(pool)), min_size=2, max_size=2)))
    bounds = [0, 1, 2, 3, 4] + cuts + [len(pool)]
    g123, g12, g13, g23, g1, g2, g3 = (pool[a:b] for a, b in zip(bounds, bounds[1:]))
    X1 = draw(st.permutations(g123 + g12 + g13 + g1))
    X2 = draw(st.permutations(g123 + g12 + g23 + g2))
    X3 = draw(st.permutations(g123 + g13 + g23 + g3))
    return X1, X2, X3


@st.composite
def ext_overlapping_sets(draw):
    """X1, X2, X3 over an extension field, cut by `_three_overlapping`
    from a pool of points on a few lines (some inside {x0 = 0} or
    {x0 = x1 = 0}) and scattered points."""
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
    return _three_overlapping(draw, pool)


@settings(max_examples=120, deadline=None)
@given(ext_overlapping_sets())
def test_log_kernels_match_fieldelem_oracle(sets):
    X1, X2, X3 = sets
    assert set(X1) & set(X2) & set(X3)
    total, per_line = brute_triples_on_points(X1, X2, X3)
    for kernel in ("brute", "hash"):
        got = count_collinear_triples(X1, X2, X3, kernel)
        assert (got.total, got.by_line) == (total, per_line), kernel
    for X in (X1, X2, X3, X1 + [x for x in X2 if x not in X1]):
        if len(X) >= 2:
            rep = line_concentration(X)
            assert (rep.max_count, rep.witness) == line_concentration_by_lines(X)


# -- the prime-field brute kernel's first-minor filter -------------------------

@st.composite
def prime_filter_sets(draw):
    """X1, X2, X3 over a prime field, cut by `_three_overlapping` from a
    pool that reaches each branch of `_count_brute_int`'s filter on
    pi(x) = (x0, x1, x2): e3 = [0:0:0:1], where pi is 0 and every pair's
    code is 0; points on lines through e3, whose pi are multiples of one
    another (code 0 against each other); points on {x0 = 0} and on
    {x0 = x1 = 0}; lines through two points; and, half the time, every
    point on one plane through e3, where the filter keeps every X3 point
    off the line through v1 and e3."""
    ctx = draw(st.sampled_from([F2, F3, F5, F7, F101]))
    p = ctx.p
    coord = st.integers(0, p - 1)
    if draw(st.booleans()):
        base = draw(st.tuples(coord, coord, coord)), draw(st.tuples(coord, coord, coord))
        vec = st.tuples(coord, coord, coord).map(
            lambda t: [(t[0] * a + t[1] * b) % p for a, b in zip(*base)] + [t[2]])
    else:
        lead = st.sampled_from([0, 0, 1, 2])
        vec = st.tuples(lead, coord, coord, coord, coord).map(
            lambda t: [0] * t[0] + list(t[1:5 - t[0]]))
    point = vec.filter(any).map(lambda x: ProjPoint(ctx, x))
    e3 = ProjPoint(ctx, [0, 0, 0, 1])
    pool = [e3]
    for _ in range(draw(st.integers(1, 3))):
        u, v = draw(point), draw(st.one_of(point, st.just(e3)))
        if u != v:
            pool += [u, v]
            for t in draw(st.lists(coord, max_size=5)):
                pool.append(ProjPoint(ctx, [(a + t * b) % p for a, b in
                                            zip(u.key, v.key)]))
    pool += draw(st.lists(point, min_size=4, max_size=10))
    assume(len(set(pool)) >= 4)
    return _three_overlapping(draw, pool)


@settings(max_examples=300, deadline=None)
@given(prime_filter_sets())
def test_prime_brute_kernel_matches_fieldelem_oracle(sets):
    """The int kernel runs only three minor tests on the points its filter
    keeps, so a kept point off the plane of e3, v1 and v2 can be miscounted
    and a dropped hit is lost: either shows as a count unlike the rank
    test's on `FieldElem`s."""
    X1, X2, X3 = sets
    total, per_line = brute_triples_on_points(X1, X2, X3)
    got = count_collinear_triples(X1, X2, X3, "brute")
    assert (got.total, got.by_line) == (total, per_line)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(EXT_FIELDS), st.data())
def test_log_line_key_matches_line_through(ctx, data):
    u = data.draw(ext_points(ctx))
    v = data.draw(ext_points(ctx).filter(lambda x: x != u))
    key_of, [[a, b]] = _keyed(ctx, PointSet([u, v]))
    assert key_of(a, b) == key_of(b, a) == line_through(u, v).key


# -- the quadric involution check on log codes --------------------------------

QUADRIC_FIELDS = [F3, F5, F7, FieldCtx(11), FieldCtx(13), F9, F25, F27]


@st.composite
def quadric_case(draw):
    """(Q, S, X): a Segre, identity or random smooth form over an odd
    field; X, points of Q found on a few lines (through points with
    leading zeros often, so the line may stay inside {x0 = 0}); S, points
    off Q, one of them in the tangent plane of an x (<s, x> = 0, so
    gamma_s(x) = x)."""
    ctx = draw(st.sampled_from(QUADRIC_FIELDS))
    kind = draw(st.sampled_from(["segre", "identity", "random"]))
    if kind == "segre":
        Q = QuadricForm.segre(ctx)
    elif kind == "identity":
        Q = QuadricForm.identity(ctx)
    else:
        entry = st.integers(0, ctx.order - 1).map(lambda c: FieldElem(ctx, c))
        upper = {(i, j): draw(entry) for i in range(4) for j in range(i, 4)}
        Q = QuadricForm(ctx, [[upper[min(i, j), max(i, j)] for j in range(4)]
                              for i in range(4)])
        assume(Q.is_smooth())
    point = ext_points(ctx)
    X = []
    for _ in range(draw(st.integers(1, 4))):
        a, b = draw(point), draw(point)
        if a != b:
            line = [b] + [ProjPoint(ctx, [u + t * v for u, v in zip(a.coords, b.coords)])
                          for t in ctx.elements_sorted()]
            X += [x for x in line if on_quadric(x, Q)][:draw(st.integers(1, 4))]
    assume(X)
    S = [s for s in draw(st.lists(point, min_size=1, max_size=5)) if not on_quadric(s, Q)]
    # s = <x, u> r - <x, r> u has <x, s> = 0
    x = draw(st.sampled_from(X))
    r, u = draw(point), draw(point)
    v = [Q.bilinear(x.coords, u.coords) * a - Q.bilinear(x.coords, r.coords) * b
         for a, b in zip(r.coords, u.coords)]
    if any(not c.is_zero() for c in v) and not Q.bilinear(v, v).is_zero():
        S.append(ProjPoint(ctx, v))
    assume(S)
    S, X = (list(dict.fromkeys(Y)) for Y in (S, X))     # point sets: no repeats
    return Q, draw(st.permutations(S)), draw(st.permutations(X))


@settings(max_examples=150, deadline=None)
@given(quadric_case())
def test_involution_check_matches_gamma_x_oracle(case):
    Q, S, X = case
    for s, images in zip(S, _involution_images(Q, S, X)):
        assert images == involution_images(Q, s, X)
    assert check_quadric_involutions(Q, S, X) == (
        len(S) * len(X), count_collinear_triples(X, X, S, "brute").total)


@pytest.mark.parametrize("ctx", [F5, F9, F25], ids=str)
def test_involution_check_tangent_and_leading_zeros(ctx):
    # the Segre form is 2(x0 x3 - x1 x2): X is on it and S is off it, and
    # <[1:0:0:1], [0:0:1:0]> = 0 (tangent)
    Q = QuadricForm.segre(ctx)
    X = [ProjPoint(ctx, c) for c in ([0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1])]
    S = [ProjPoint(ctx, c) for c in ([1, 0, 0, 1], [0, 1, 1, 0], [1, 1, 1, 0])]
    assert any(Q.bilinear(s.coords, x.coords).is_zero() for s in S for x in X)
    for s, images in zip(S, _involution_images(Q, S, X)):
        assert images == involution_images(Q, s, X)


@pytest.mark.parametrize("ctx", [F3, F5, F9], ids=str)
@pytest.mark.parametrize("form", ["identity", "segre"])
def test_involution_count_on_the_whole_quadric(ctx, form):
    """X is every point of Q, so every image is in X and the triples are
    the pairs off the tangent planes (<s, x> != 0, so gamma_s(x) != x)."""
    Q = getattr(QuadricForm, form)(ctx)
    space = enumerate_space(ctx, 3)
    X = [p for p in space if on_quadric(p, Q)]
    S = [p for p in space if not on_quadric(p, Q)][::7][:20]
    tangent = sum(Q.bilinear(s.coords, x.coords).is_zero() for s in S for x in X)
    assert 0 < tangent < len(S) * len(X)
    count = check_quadric_involutions(Q, S, X)
    assert count == (len(S) * len(X), len(S) * len(X) - tangent)
    assert count.triples == count_collinear_triples(X, X, S, "brute").total


def test_involution_check_errors(monkeypatch):
    from orchardlab import groups

    Q = QuadricForm.segre(F5)
    on = ProjPoint(F5, [0, 0, 1, 0])
    off = ProjPoint(F5, [1, 0, 0, 1])
    with pytest.raises(PointOnQuadric, match="lies on the quadric"):
        check_quadric_involutions(Q, [off, on], [on])
    with pytest.raises(PointOffQuadric, match="is not on the quadric"):
        check_quadric_involutions(Q, [off], [on, off])
    with pytest.raises(MixedContexts):
        check_quadric_involutions(Q, [ProjPoint(F7, [1, 0, 0, 1])], [on])
    for ctx in (FieldCtx(2), F4):
        with pytest.raises(CharTwo):
            check_quadric_involutions(QuadricForm.identity(ctx), [], [])
    assert check_quadric_involutions(Q, [], [on]) == (0, 0)
    # entries 2 x0 x3 - x1 x2 - x2 x1 give the Segre form's values, but
    # B s read off them is not the polar form: with that reflection vector
    # for the centre s, y leaves Q, and the pair fails by name
    bent = SimpleNamespace(ctx=F5, entries=((0, 3, F5.elem(2)),) + Q.entries[1:3])
    x, s = ProjPoint(F5, [1, 1, 1, 1]), ProjPoint(F5, [1, 0, 0, 2])
    assert Q.bilinear(x.coords, x.coords) == F5.zero()
    reflection_vector = groups._reflection_vector

    def bent_at_s(form, centre, v):
        return reflection_vector(bent if centre == s else form, centre, v)

    monkeypatch.setattr(groups, "_reflection_vector", bent_at_s)
    assert check_quadric_involutions(Q, [off, s], [on]) == (2, 0)
    with pytest.raises(VerificationFailure, match=re.escape(f"failed at ({s}, {x})")):
        check_quadric_involutions(Q, [off, s], [on, x])


def test_shared_quadric_forms_are_immutable():
    """identity and segre make one form per field, and it cannot change."""
    for ctx in (F2, F5, F9):
        for make in (QuadricForm.identity, QuadricForm.segre):
            Q = make(ctx)
            assert make(ctx) is Q and Q.ctx is ctx
            for name in ("ctx", "B", "entries"):
                with pytest.raises(AttributeError):
                    setattr(Q, name, getattr(Q, name))
                with pytest.raises(AttributeError):
                    delattr(Q, name)
    assert QuadricForm.segre(F5) is not QuadricForm.identity(F5)
    assert QuadricForm.segre(F5) is not QuadricForm.segre(F7)


def test_involution_check_guard(monkeypatch):
    """More than PAIR_PRODUCT_CAP pairs raise TooLarge before any pair is
    checked: the centre on Q is never reached and F_1013's tables are
    never built."""
    from orchardlab import groups

    monkeypatch.setattr(groups, "PAIR_PRODUCT_CAP", 5)
    ctx = FieldCtx(1013)
    Q = QuadricForm.segre(ctx)
    X = [ProjPoint(ctx, c) for c in ([1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0])]
    S = [ProjPoint(ctx, [1, 0, 0, 1]), X[0]]
    with pytest.raises(TooLarge):
        check_quadric_involutions(Q, S, X)
    assert "zech" not in ctx.__dict__
    # at the cap the pass runs, and stops at the centre on Q
    monkeypatch.setattr(groups, "PAIR_PRODUCT_CAP", 6)
    with pytest.raises(PointOnQuadric):
        check_quadric_involutions(Q, S, X)


def test_involution_check_builds_no_elements_per_pair(monkeypatch):
    """On F_9, all 100 Segre points against 40 points off the quadric:
    FieldElem constructions stay O(|X| + |S|), not one per pair."""
    Q = QuadricForm.segre(F9)
    X = [p for p in enumerate_space(F9, 3) if on_quadric(p, Q)]
    S = off_segre(F9)[:40]
    triples = count_collinear_triples(X, X, S, "brute").total
    calls = 0
    init = FieldElem.__init__

    def counting_init(self, ctx, code):
        nonlocal calls
        calls += 1
        init(self, ctx, code)

    monkeypatch.setattr(FieldElem, "__init__", counting_init)
    assert check_quadric_involutions(Q, S, X) == (4000, triples)
    assert calls <= 2 * (len(X) + len(S))


# -- the unrolled generator powers of the Zech arrays -------------------------

@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (5, 2),
                                 (5, 3), (7, 4), (11, 2)])
def test_zech_powers_match_matrix_loop(p, n):
    ctx = FieldCtx(p, n)
    assert ctx.zech.exp[:ctx.order - 1] == zech_powers_by_matrix(ctx)


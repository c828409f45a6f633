"""Brute-force oracles for the closed forms and int paths in `src/`, and
the test helpers that no subcommand runs.

Each oracle is the scan or formula its fast path replaced, kept here to
check that path (see test_oracles.py):

- `pair_stabilizer_scan`: the q^3 scan of G_a^2 x| G_m for an element
  fixing two points of {x0 = 0}, for `incidence._pair_stabilizer_nontrivial`;
- `family_membership`: the `ProjPoint` check of every family triple
  through `family_triple`, for the closed form of
  `constructions.verify_example` (collinearity on the 3x3 grid of (t, z),
  membership by the exponent sum of (i, j));
- `fixed_points_by_enumeration`: Fix(g) as the Segre points g fixes,
  for `constructions.classify_fixed_points`;
- `orthogonal_by_triple_sums`: M^T B M by 16 triple products an entry,
  for `groups.is_orthogonal_mod_scalar`;
- `det_laplace`: the recursive Laplace determinant, for `projgeom._det4`
  and `PGLElem.det`;
- `mat_mul`, `scaled_key` and `reflection_rows`: the 4x4 product, the
  projective scaling and the reflection v - 2<v, x>/<x, x> x on
  `FieldElem`s, for the log-code `PGLElem.__mul__`, `PGLElem` keys and
  `groups.reflection_lift`/`reflection_matrix`;
- `brute_triples_on_points`: the rank test on `FieldElem` lifts with
  `line_through` line keys, for the log-code kernels of F_{p^n};
- `line_concentration_by_lines`: the points of X on each `line_through`
  line, for `incidence.line_concentration`;
- `full_lines_by_scan`: every `line_through` line of a point set checked
  point by point, for the ruling lines of
  `constructions.classify_fixed_points`;
- `dense_bilinear`: the 16-term sum of a quadric's bilinear form, for
  the sparse `QuadricForm.bilinear`;
- `involution_images`: `groups.gamma_x` and `projgeom.collinear` on
  `FieldElem`s per pair, for `groups.check_quadric_involutions`;
- `zech_powers_by_matrix`: the generator powers by one matrix-vector
  product of lists per element, for the unrolled step that builds
  `field.ZechTables`;
- `least_root_by_scan`: the least code whose square is a, for the
  log-parity root of `FieldCtx.sqrt`;
- `pencil_scan`: the count on every plane of the pencil, for
  `incidence.pencil_plane_concentration`;
- `oracle_convolve`, `oracle_reverse`, `oracle_l2_sq`, `oracle_decompose`
  and `oracle_flattening`: measures as dicts of group elements to
  `Fraction` masses, for the integer-keyed measures and `bsg.decompose`.

The helpers, one copy each, build what the tests feed the library:
`affine_group_elements` (all of G_a^2 x| G_m), `affine_element` (one
element by its place in key order), `mulclose` (a capped
closure), `segre_quadric_points`, `pencil_planes` (in the order
`incidence.pencil_plane_concentration` takes them), `family_triple` (one
triple of the extremal example), `random_measure`, `random_smooth_form`,
`on_line` (the rank test of a point against a line's basis),
`line_points` (the q + 1 points of a line), `line_from_key` (the
checked `ProjLine` of a kernel's line key), `indexed_measure` (weights
on the first elements in key order) and `delta` (a point mass).
"""

import operator
from fractions import Fraction
from typing import Dict, List

from orchardlab.field import FieldCtx, FieldElem, _poly_mulmod, inv
from orchardlab.groups import AffElem, PGLElem, aff_act, aff_compose, aff_inverse, gamma_x, segre
from orchardlab.incidence import VerificationFailure
from orchardlab.measures import GroupMeasure
from orchardlab.projgeom import (
    ProjLine,
    ProjPlane,
    ProjPoint,
    QuadricForm,
    collinear,
    enumerate_space,
    line_through,
    matrix_rank,
)


# -- helpers -------------------------------------------------------------

def affine_group_elements(ctx: FieldCtx) -> List[AffElem]:
    """The full group G_a^2 x| G_m over a small field."""
    return [
        AffElem(ctx, a, b, c)
        for a in ctx.elements()
        for b in ctx.elements()
        for c in ctx.elements()
        if not c.is_zero()
    ]


def affine_element(ctx: FieldCtx, index: int) -> AffElem:
    """The index-th affine group element in `AffElem.key` order: a and b
    run over the element codes, c over the nonzero ones.  The CLI's
    draws once built each atom this way; they now take its key by
    `AffineGroupOps.index_key`."""
    ab, c = divmod(index, ctx.order - 1)
    a, b = divmod(ab, ctx.order)
    return AffElem(ctx, FieldElem(ctx, a), FieldElem(ctx, b), FieldElem(ctx, c + 1))


def mulclose(gens, compose, identity, cap: int = 10**6):
    """(elements, truncated): the closure of gens under compose, cut off
    once it holds more than cap elements."""
    els = {identity}
    els.update(gens)
    frontier = list(els)
    while frontier:
        new = []
        for g in gens:
            for h in frontier:
                c = compose(g, h)
                if c not in els:
                    els.add(c)
                    new.append(c)
                    if len(els) > cap:
                        return els, True
        frontier = new
    return els, False


def segre_quadric_points(ctx: FieldCtx) -> List[ProjPoint]:
    """All (q+1)^2 points of the Segre quadric, via the parametrization."""
    line = enumerate_space(ctx, 1)
    return [segre(u, w) for u in line for w in line]


def pencil_planes(P1: ProjPlane, P2: ProjPlane) -> List[ProjPlane]:
    """All q + 1 planes containing the line P1 ^ P2: P1, then t*P1 + P2
    for t in `ctx.elements()`; P1 != P2."""
    ctx = P1.ctx
    d1, d2 = P1.dual, P2.dual
    return [P1] + [
        ProjPlane(ctx, [a * t + b for a, b in zip(d1, d2)]) for t in ctx.elements()
    ]


def family_triple(cfg, i: int, j: int, t: int, z: int):
    """The parametric collinear triple of the example `cfg` for one index
    tuple, as points (verify_example checks them in closed form)."""
    ctx = cfg.ctx
    d = ctx.elem(cfg.d)
    di, dj, dij = d**i, d**j, d**(i + j)
    te, ze = ctx.elem(t), ctx.elem(z)
    x1 = ProjPoint(ctx, [ctx.zero(), dj, ze, ze - 1])
    x2 = ProjPoint(ctx, [-dij, ctx.zero(), ze - te * dj, ze - 1 - te * dj])
    x3 = ProjPoint(ctx, [di, ctx.one(), te, te])
    return x1, x2, x3


def random_measure(group, elements, rng, max_support=8):
    """A probability measure on 1 to max_support of the elements, with
    random integer weights from 1 to 20."""
    support = rng.sample(elements, rng.randint(1, max_support))
    weights = [rng.randint(1, 20) for _ in support]
    total = sum(weights)
    return GroupMeasure(
        group, {g: Fraction(w, total) for g, w in zip(support, weights)}
    )


def indexed_measure(group, weights, den) -> GroupMeasure:
    """The measure with mass w / den on the i-th element in key order,
    for the i-th weight w (built by key, with no element)."""
    return GroupMeasure.from_numerators(
        group, {group.index_key(i): w for i, w in enumerate(weights)}, den)


def delta(group, g) -> GroupMeasure:
    """The probability measure with all its mass on g."""
    return GroupMeasure.from_numerators(group, {group.key(g): 1}, 1)


def on_line(line: ProjLine, p: ProjPoint) -> bool:
    """Whether p lies on the line: its basis plus p has rank 2."""
    return matrix_rank([*line.basis, p.coords]) == 2


def line_points(line: ProjLine) -> List[ProjPoint]:
    """All q + 1 points of the line: its first basis row u, then
    t u + v for t in `ctx.elements()`."""
    ctx = line.ctx
    u, v = line.basis
    return [ProjPoint(ctx, u)] + [
        ProjPoint(ctx, [a * t + b for a, b in zip(u, v)]) for t in ctx.elements()
    ]


def line_from_key(ctx: FieldCtx, key) -> ProjLine:
    """The line of a line key, the flat 8-tuple of codes of its two basis
    rows; raises GeometryError when the rows do not have rank 2."""
    rows = [[FieldElem(ctx, c) for c in key[:4]], [FieldElem(ctx, c) for c in key[4:]]]
    return ProjLine(ctx, rows)


def random_smooth_form(ctx, rng):
    """A random smooth quadric form over a prime field."""
    while True:
        rows = [[0] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(i, 4):
                v = rng.randrange(ctx.p)
                rows[i][j] = v
                rows[j][i] = v
        form = QuadricForm(ctx, rows)
        if form.is_smooth():
            return form


# -- oracles -------------------------------------------------------------


def pair_stabilizer_scan(ctx: FieldCtx, p: ProjPoint, q: ProjPoint) -> bool:
    """Scan all (a, b, c) != (0, 0, 1) for one fixing both points."""
    identity = AffElem.identity(ctx)
    for a in ctx.elements():
        for b in ctx.elements():
            for c in ctx.elements():
                if c.is_zero():
                    continue
                g = AffElem(ctx, a, b, c)
                if g == identity:
                    continue
                if aff_act(g, p) == p and aff_act(g, q) == q:
                    return True
    return False


def family_membership(cfg):
    """(in-set count, first index outside) of the family triples, built
    as `ProjPoint`s; a triple that is not collinear, or repeats a point,
    raises VerificationFailure."""
    sets = (set(cfg.X1), set(cfg.X2), set(cfg.X3))
    in_sets = 0
    first_outside = None
    for idx in cfg.family:
        x1, x2, x3 = family_triple(cfg, *idx)
        if not collinear(x1, x2, x3):
            raise VerificationFailure(f"family triple {idx} is not collinear")
        if x1 == x2 or x1 == x3 or x2 == x3:
            raise VerificationFailure(f"family triple {idx} has repeated points")
        if x1 in sets[0] and x2 in sets[1] and x3 in sets[2]:
            in_sets += 1
        elif first_outside is None:
            first_outside = idx
    return in_sets, first_outside


def fixed_points_by_enumeration(g: PGLElem, ctx: FieldCtx):
    """The points of x1*x4 = x2*x3 that g fixes, sorted by key."""
    fixed = [pt for pt in set(segre_quadric_points(ctx)) if g.act(pt) == pt]
    fixed.sort(key=lambda p: p.key)
    return fixed


def orthogonal_by_triple_sums(M: PGLElem, Q: QuadricForm):
    """(M^T B M = lambda * B, lambda), each entry of M^T B M summed over
    its 16 triple products; lambda is the ratio at the first nonzero
    entry of B."""
    ctx = M.ctx
    zero = ctx.zero()
    B = Q.B
    prod = [
        [
            sum(
                (M.rows[k][i] * B[k][l] * M.rows[l][j] for k in range(4) for l in range(4)),
                zero,
            )
            for j in range(4)
        ]
        for i in range(4)
    ]
    lam = None
    for i in range(4):
        for j in range(4):
            if not B[i][j].is_zero():
                cand = prod[i][j] / B[i][j]
                if lam is None:
                    lam = cand
                elif cand != lam:
                    return False, None
            elif not prod[i][j].is_zero():
                return False, None
    if lam is None or lam.is_zero():
        return False, None
    return True, lam


def det_laplace(ctx: FieldCtx, rows):
    """Determinant by recursive Laplace expansion along the first row."""
    def det(mat):
        n = len(mat)
        if n == 1:
            return mat[0][0]
        acc = ctx.zero()
        sign = ctx.one()
        for j in range(n):
            if not mat[0][j].is_zero():
                minor = [
                    [mat[i][k] for k in range(n) if k != j] for i in range(1, n)
                ]
                acc = acc + sign * mat[0][j] * det(minor)
            sign = -sign
        return acc

    return det([list(r) for r in rows])


def mat_mul(ctx: FieldCtx, A, B):
    """A B for square matrices of FieldElems, each entry a sum of products."""
    zero = ctx.zero()
    n = len(A)
    return [
        [sum((A[i][k] * B[k][j] for k in range(n)), zero) for j in range(n)]
        for i in range(n)
    ]


def scaled_key(rows):
    """The int codes of a nonzero matrix of FieldElems divided by its
    first nonzero entry, row by row: the key of its `PGLElem`."""
    s = inv(next(x for row in rows for x in row if not x.is_zero()))
    return tuple(tuple((x * s).code for x in row) for row in rows)


def reflection_rows(x: ProjPoint, Q: QuadricForm):
    """The rows of v -> v - 2 <v, x>/<x, x> x in the bilinear form of Q,
    from the images of the basis vectors (its columns)."""
    ctx = x.ctx
    vx = x.coords
    two_over = ctx.elem(2) / Q.bilinear(vx, vx)
    images = []
    for i in range(4):
        basis = [ctx.one() if j == i else ctx.zero() for j in range(4)]
        coeff = two_over * Q.bilinear(basis, vx)
        images.append([basis[j] - coeff * vx[j] for j in range(4)])
    return [[images[j][i] for j in range(4)] for i in range(4)]


def brute_triples_on_points(X1, X2, X3):
    """(total, counts by line key) of the ordered, pairwise distinct,
    collinear triples: the four 3x3 minors of the stacked lifts per
    triple, the line of a hit pair from `line_through`."""
    per_line: Dict[tuple, int] = {}
    total = 0
    for p1 in X1:
        a = p1.coords
        for p2 in X2:
            if p1 == p2:
                continue
            b = p2.coords
            m01 = a[0] * b[1] - a[1] * b[0]
            m02 = a[0] * b[2] - a[2] * b[0]
            m03 = a[0] * b[3] - a[3] * b[0]
            m12 = a[1] * b[2] - a[2] * b[1]
            m13 = a[1] * b[3] - a[3] * b[1]
            m23 = a[2] * b[3] - a[3] * b[2]
            hits = 0
            for p3 in X3:
                c = p3.coords
                if (
                    (c[0] * m12 - c[1] * m02 + c[2] * m01).is_zero()
                    and (c[0] * m13 - c[1] * m03 + c[3] * m01).is_zero()
                    and (c[0] * m23 - c[2] * m03 + c[3] * m02).is_zero()
                    and (c[1] * m23 - c[2] * m13 + c[3] * m12).is_zero()
                    and p3 != p1
                    and p3 != p2
                ):
                    hits += 1
            if hits:
                total += hits
                key = line_through(p1, p2).key
                per_line[key] = per_line.get(key, 0) + hits
    return total, per_line


def line_concentration_by_lines(X):
    """(max |X ^ line|, the largest key of a line reaching it) over the
    lines `line_through` spans on pairs of X, which has two points or more."""
    members: Dict[tuple, set] = {}
    for i, p in enumerate(X):
        for q in X[i + 1:]:
            members.setdefault(line_through(p, q).key, set()).update((p, q))
    best = max(len(m) for m in members.values())
    return best, max(k for k, m in members.items() if len(m) == best)


def full_lines_by_scan(points):
    """The lines all of whose q+1 points lie in the set, from
    `line_through` on each pair of the points sorted by key, first seen
    first."""
    pts = set(points)
    found = []
    seen = set()
    ordered = sorted(pts, key=lambda p: p.key)
    for i, a in enumerate(ordered):
        for b in ordered[i + 1:]:
            line = line_through(a, b)
            if line.key in seen:
                continue
            seen.add(line.key)
            if all(x in pts for x in line_points(line)):
                found.append(line)
    return found


def dense_bilinear(Q: QuadricForm, u, v):
    """u^T B v summed over all 16 entries of B."""
    acc = Q.ctx.zero()
    for i in range(4):
        for j in range(4):
            acc = acc + u[i] * Q.B[i][j] * v[j]
    return acc


def involution_images(Q: QuadricForm, s: ProjPoint, X):
    """The keys of gamma_s(x) for x in X, each checked as the CLI once
    did: on the line s--x, and sent back to x by gamma_s."""
    out = []
    for x in X:
        y = gamma_x(s, x, Q)
        if not (collinear(s, x, y) and gamma_x(s, y, Q) == x):
            raise VerificationFailure(f"quadric involution failed at ({s}, {x})")
        out.append(y.key)
    return out


def zech_powers_by_matrix(ctx: FieldCtx) -> List[int]:
    """The int codes of g^0, ..., g^(q-2) for g = `ctx._primitive_element()`
    (n > 1), one list matrix-vector product per power."""
    p, n, q = ctx.p, ctx.n, ctx.order
    m = list(ctx.modulus)
    g = ctx._primitive_element()
    cols = [_poly_mulmod(g, [0] * j + [1], m, p) for j in range(n)]
    rows = [[col[k] for col in cols] for k in range(n)]
    powers = []
    cur = [1] + [0] * (n - 1)
    for _ in range(q - 1):
        code = 0
        for d in cur:
            code = code * p + d
        powers.append(code)
        cur = [sum(map(operator.mul, cur, row)) % p for row in rows]
    return powers


def least_root_by_scan(ctx: FieldCtx, a):
    """The element of least code whose square is a, or None when a is not
    a square."""
    return next((r for r in ctx.elements_sorted() if r * r == a), None)


def pencil_scan(X3, P1, P2):
    """Oracle: count X3 on every plane of the pencil, first max wins."""
    best = -1
    witness = None
    for plane in pencil_planes(P1, P2):
        hit = sum(1 for x in X3 if plane.contains(x))
        if hit > best:
            best, witness = hit, plane
    return best, witness


# -- measures as {element: Fraction} -------------------------------------

def oracle_convolve(f, h):
    out = {}
    for y, fy in f.items():
        for z, hz in h.items():
            x = aff_compose(y, z)
            out[x] = out.get(x, Fraction(0)) + fy * hz
    return out


def oracle_reverse(f):
    return {aff_inverse(g): m for g, m in f.items()}


def oracle_l2_sq(f):
    return sum((m * m for m in f.values()), Fraction(0))


def oracle_decompose(f, K):
    M = 16 * Fraction(K)
    l2 = oracle_l2_sq(f)
    hi, lo = M * l2, l2 / (M * M)
    heavy, diffuse, structured, boundary = {}, {}, {}, set()
    for g, m in f.items():
        if m >= hi:
            heavy[g] = m
            if m == hi:
                boundary.add(g)
        elif m <= lo:
            diffuse[g] = m
            if m == lo:
                boundary.add(g)
        else:
            structured[g] = m
    return heavy, diffuse, structured, boundary


def oracle_flattening(f, m_max):
    """(support, l2_sq, linf, ratio_sq) per m, as flattening_report."""
    powers = [oracle_convolve(oracle_reverse(f), f)]
    for _ in range(m_max + 1):
        powers.append(oracle_convolve(powers[-1], powers[-1]))
    rows = []
    for cur, nxt in zip(powers, powers[1:]):
        l2 = oracle_l2_sq(cur)
        rows.append((len(cur), l2, max(cur.values()), oracle_l2_sq(nxt) / l2))
    return rows

"""Builders for the explicit configurations: the extremal three-plane
point sets, quadric diagonalization over quadratic extensions, the
change of variables onto the Segre quadric, and the fixed-point
classifier for special orthogonal elements acting on it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .field import FieldCtx, FieldElem, adjoin_sqrt, inv, least_primitive_root
from .groups import (
    CharTwo,
    GroupError,
    IdentityElement,
    NotOnQuadricGroup,
    PGLElem,
    _congruence_value,
    _mat_mul,
    is_orthogonal_mod_scalar,
)
from .incidence import (
    VerificationFailure,
    _line_from_key,
    _line_pair_counts,
    count_collinear_triples,
    line_concentration,
)
from .projgeom import (
    ProjLine,
    ProjPoint,
    QuadricForm,
    _det4,
    _rref2,
)


class DegenerateParameters(Exception):
    pass


class SingularForm(Exception):
    pass


class NoSqrtMinusOne(Exception):
    pass


# -- the extremal three-plane configuration --------------------------------

@dataclass
class ExampleConfig:
    p: int
    k: Fraction
    N: int
    d: int                      # least generator of the multiplicative group
    ctx: FieldCtx
    X1: List[ProjPoint]
    X2: List[ProjPoint]
    X3: List[ProjPoint]
    family: List[Tuple[int, int, int, int]]   # (i, j, t, z) index tuples

    def family_triple(self, i: int, j: int, t: int, z: int):
        """The parametric collinear triple for one index tuple, as points
        (verify_example checks the same triples on ints mod p)."""
        ctx = self.ctx
        di = _gen_power(ctx, self.d, i)
        dj = _gen_power(ctx, self.d, j)
        dij = _gen_power(ctx, self.d, i + j)
        te, ze = ctx.elem(t), ctx.elem(z)
        x1 = ProjPoint(ctx, [ctx.zero(), dj, ze, ze - 1])
        x2 = ProjPoint(ctx, [-dij, ctx.zero(), ze - te * dj, ze - 1 - te * dj])
        x3 = ProjPoint(ctx, [di, ctx.one(), te, te])
        return x1, x2, x3


def _gen_power(ctx: FieldCtx, d: int, e: int) -> FieldElem:
    base = ctx.elem(d)
    return base**e if e >= 0 else inv(base) ** (-e)


def build_example(p: int, k) -> ExampleConfig:
    """The three point sets on the planes {x0=0}, {x1=0}, {x2=x3}:

        X1 = [0 : d^i : t : t-1],  X2 = [-d^i : 0 : t : t-1],
        X3 = [d^i : 1 : t : t],    i in [-N, N], t in F_p,

    with d the least generator of F_p^* and N = floor(p^(1/k)).  Exponent
    collisions inside [-N, N] (that is 2N+1 > p-1) are an error.
    """
    k = Fraction(k)
    if k <= 1:
        raise DegenerateParameters("k must exceed 1")
    if p == 2:
        raise DegenerateParameters("p must be an odd prime")
    N = _floor_root(p, k)
    if 2 * N + 1 > p - 1:
        raise DegenerateParameters(
            f"2N+1 = {2 * N + 1} exceeds p-1 = {p - 1}: generator powers collide"
        )
    ctx = FieldCtx(p)
    d = least_primitive_root(p)
    powers = [ _gen_power(ctx, d, i) for i in range(-N, N + 1) ]
    if len(set(powers)) != 2 * N + 1:
        raise DegenerateParameters("generator powers collide inside [-N, N]")
    X1, X2, X3 = [], [], []
    for di in powers:
        for t in range(p):
            te = ctx.elem(t)
            X1.append(ProjPoint(ctx, [ctx.zero(), di, te, te - 1]))
            X2.append(ProjPoint(ctx, [-di, ctx.zero(), te, te - 1]))
            X3.append(ProjPoint(ctx, [di, ctx.one(), te, te]))
    for name, X in (("X1", X1), ("X2", X2), ("X3", X3)):
        if len(set(X)) != (2 * N + 1) * p:
            raise DegenerateParameters(f"{name} has fewer points than expected")
    family = [
        (i, j, t, z)
        for i in range(-N, N + 1)
        for j in range(-N, N + 1)
        for t in range(p)
        for z in range(p)
    ]
    return ExampleConfig(p=p, k=k, N=N, d=d, ctx=ctx, X1=X1, X2=X2, X3=X3, family=family)


def _floor_root(p: int, k: Fraction) -> int:
    """floor(p^(1/k)) for rational k > 1, by integer comparison."""
    n = 1
    while (n + 1) ** k.numerator <= p**k.denominator:
        n += 1
    return n


@dataclass
class ExampleReport:
    family_count: int
    all_collinear: bool
    all_pairwise_distinct: bool
    in_sets_count: int
    in_sets_all: bool
    first_outside: Optional[Tuple[int, int, int, int]]
    triple_total: int
    triple_total_at_least_family: bool
    max_lines: Dict[str, int]
    dichotomy_ok: bool
    sizes: Dict[str, int]

    def as_dict(self) -> dict:
        out = dict(self.__dict__)
        out["first_outside"] = (
            list(self.first_outside) if self.first_outside else None
        )
        return out


def verify_example(cfg: ExampleConfig) -> ExampleReport:
    """Check the asserted properties of the configuration.

    Collinearity of every parametric triple, their pairwise distinctness
    and the per-line concentration dichotomy are hard assertions: a
    failure raises VerificationFailure.  Membership of the middle point
    in X2 can genuinely fail for index pairs whose exponent sum escapes
    [-N, N] modulo p-1, so membership is reported, not asserted; the
    triple count is reported against the family size the same way.

    The family triples are those of `cfg.family_triple`, worked out on
    ints mod p: generator powers come from one table, points are scaled
    to their `ProjPoint.key` through an inverse table, collinearity is
    the vanishing of the four 3x3 minors and membership is a lookup in
    the sets of keys of X1, X2, X3.
    """
    p = cfg.p
    power = [pow(cfg.d, e, p) for e in range(p - 1)]      # d^e at e mod p-1
    inverse = [0] + [pow(a, p - 2, p) for a in range(1, p)]
    keys1, keys2, keys3 = ({x.key for x in X} for X in (cfg.X1, cfg.X2, cfg.X3))
    in_sets = 0
    first_outside = None
    for idx in cfg.family:
        i, j, t, z = idx
        di, dj, dij = power[i % (p - 1)], power[j % (p - 1)], power[(i + j) % (p - 1)]
        x1 = _key_mod_p(p, inverse, (0, dj, z, z - 1))
        x2 = _key_mod_p(p, inverse, (-dij, 0, z - t * dj, z - 1 - t * dj))
        x3 = _key_mod_p(p, inverse, (di, 1, t, t))
        if not _collinear_mod_p(p, x1, x2, x3):
            raise VerificationFailure(f"family triple {idx} is not collinear")
        if x1 == x2 or x1 == x3 or x2 == x3:
            raise VerificationFailure(f"family triple {idx} has repeated points")
        if x1 in keys1 and x2 in keys2 and x3 in keys3:
            in_sets += 1
        elif first_outside is None:
            first_outside = idx
    count = count_collinear_triples(cfg.X1, cfg.X2, cfg.X3, kernel="hash",
                                    collect_by_line=False)
    max_lines = {}
    dichotomy_ok = True
    bound = max(2 * cfg.N + 1, cfg.p)
    for name, X in (("X1", cfg.X1), ("X2", cfg.X2), ("X3", cfg.X3)):
        report = line_concentration(X)
        max_lines[name] = report.max_count
        if report.max_count > bound:
            dichotomy_ok = False
    if not dichotomy_ok:
        raise VerificationFailure(
            f"line concentration exceeds max(2N+1, p) = {bound}"
        )
    return ExampleReport(
        family_count=len(cfg.family),
        all_collinear=True,
        all_pairwise_distinct=True,
        in_sets_count=in_sets,
        in_sets_all=in_sets == len(cfg.family),
        first_outside=first_outside,
        triple_total=count.total,
        triple_total_at_least_family=count.total >= len(cfg.family),
        max_lines=max_lines,
        dichotomy_ok=dichotomy_ok,
        sizes={"X1": len(keys1), "X2": len(keys2), "X3": len(keys3)},
    )


def _key_mod_p(p: int, inverse: List[int], v) -> Tuple[int, ...]:
    """The `ProjPoint.key` over F_p of a nonzero int vector (each family
    point has a generator power among its entries): reduced mod p and
    scaled by inverse[] so that its first nonzero entry is 1."""
    v = [c % p for c in v]
    s = inverse[next(c for c in v if c)]
    return tuple(c * s % p for c in v)


def _collinear_mod_p(p: int, a, b, c) -> bool:
    """Whether three int 4-vectors span at most a plane mod p: each of the
    four 3x3 minors, expanded along a through the 2x2 minors of b, c,
    vanishes."""
    m01 = b[0] * c[1] - b[1] * c[0]
    m02 = b[0] * c[2] - b[2] * c[0]
    m03 = b[0] * c[3] - b[3] * c[0]
    m12 = b[1] * c[2] - b[2] * c[1]
    m13 = b[1] * c[3] - b[3] * c[1]
    m23 = b[2] * c[3] - b[3] * c[2]
    return not (
        (a[1] * m23 - a[2] * m13 + a[3] * m12) % p
        or (a[0] * m23 - a[2] * m03 + a[3] * m02) % p
        or (a[0] * m13 - a[1] * m03 + a[3] * m01) % p
        or (a[0] * m12 - a[1] * m02 + a[2] * m01) % p
    )


# -- quadric normalization ---------------------------------------------------

@dataclass
class QuadricNormalization:
    source: QuadricForm
    target_tag: str                      # "identity" or "segre"
    ctx: FieldCtx                        # final field, after extensions
    extensions: List[str]                # descriptors of each extension step
    transform: List[List[FieldElem]]     # M with M^T B M = scalar * target
    scalar: FieldElem
    verified: bool
    embed_source: Callable = lambda x: x  # source field into final field


def _embed_matrix(rows, embed):
    return [[embed(x) for x in row] for row in rows]


def _compose_embeds(embeds: Sequence[Callable]) -> Callable:
    def run(x):
        for e in embeds:
            x = e(x)
        return x

    return run


def diagonalize_quadric(B: QuadricForm) -> QuadricNormalization:
    """Produce M with M^T B M = I exactly, adjoining square roots as
    needed (one quadratic extension suffices: after it, every base-field
    residue class is a square)."""
    ctx = B.ctx
    if ctx.p == 2:
        raise CharTwo("diagonalization divides by 2")
    if not B.is_smooth():
        raise SingularForm("the form is singular")
    mat = [list(row) for row in B.B]
    trans = [[ctx.one() if i == j else ctx.zero() for j in range(4)] for i in range(4)]

    def add_col(dst, src, factor):
        # column operation and the matching row operation keep congruence
        for r in range(4):
            mat[r][dst] = mat[r][dst] + factor * mat[r][src]
        for c in range(4):
            mat[dst][c] = mat[dst][c] + factor * mat[src][c]
        for r in range(4):
            trans[r][dst] = trans[r][dst] + factor * trans[r][src]

    def swap_cols(i, j):
        for r in range(4):
            mat[r][i], mat[r][j] = mat[r][j], mat[r][i]
        mat[i], mat[j] = mat[j], mat[i]
        for r in range(4):
            trans[r][i], trans[r][j] = trans[r][j], trans[r][i]

    for i in range(4):
        if mat[i][i].is_zero():
            pivot = next(
                (j for j in range(i + 1, 4) if not mat[j][j].is_zero()), None
            )
            if pivot is not None:
                swap_cols(i, pivot)
            else:
                j = next(
                    (j for j in range(i + 1, 4) if not mat[i][j].is_zero()), None
                )
                if j is None:
                    raise SingularForm("zero row encountered; form is singular")
                add_col(i, j, ctx.one())  # diagonal becomes 2*mat[i][j] != 0
        pivot_val = mat[i][i]
        for j in range(i + 1, 4):
            if not mat[i][j].is_zero():
                add_col(j, i, -mat[i][j] / pivot_val)

    extensions: List[str] = []
    embeds: List[Callable] = []
    diag = [mat[i][i] for i in range(4)]
    for i in range(4):
        entry = diag[i]
        root = ctx.try_sqrt(entry)
        if root is None:
            ctx, embed, root = adjoin_sqrt(ctx, entry)
            extensions.append(ctx.descriptor())
            embeds.append(embed)
            diag = [embed(x) for x in diag]
            trans = _embed_matrix(trans, embed)
        scale = inv(root)
        for r in range(4):
            trans[r][i] = trans[r][i] * scale
        diag[i] = diag[i] * scale * scale

    # re-verify on the final field
    embed_all = _compose_embeds(embeds)
    B_final = _embed_matrix([list(row) for row in B.B], embed_all)
    product = _congruence_value(ctx, trans, B_final)
    identity_ok = all(
        product[i][j] == (ctx.one() if i == j else ctx.zero())
        for i in range(4)
        for j in range(4)
    )
    if not identity_ok:
        raise VerificationFailure("diagonalization product is not the identity")
    return QuadricNormalization(
        source=B,
        target_tag="identity",
        ctx=ctx,
        extensions=extensions,
        transform=trans,
        scalar=ctx.one(),
        verified=True,
        embed_source=embed_all,
    )


def to_segre_form(ctx: FieldCtx) -> QuadricNormalization:
    """The substitution x1 = x+z, x2 = ix-iz, x3 = w-y, x4 = iw+iy, which
    carries the sum of four squares to 4*(xz - yw); needs i = sqrt(-1)."""
    if ctx.p == 2:
        raise CharTwo("substitution divides by 2")
    i_root = ctx.try_sqrt(-ctx.one())
    if i_root is None:
        raise NoSqrtMinusOne(f"{ctx} has no square root of -1")
    one, zero = ctx.one(), ctx.zero()
    ii = i_root
    T = [
        [one, zero, zero, one],
        [ii, zero, zero, -ii],
        [zero, -one, one, zero],
        [zero, ii, ii, zero],
    ]
    # T^T T = 4 * (matrix of x1*x4 - x2*x3); QuadricForm.segre is doubled
    prod = _congruence_value(ctx, T, QuadricForm.identity(ctx).B)
    seg = QuadricForm.segre(ctx).B
    scalar = ctx.elem(2)  # prod == 2 * seg because seg is the doubled form
    ok = all(
        prod[i][j] == scalar * seg[i][j] for i in range(4) for j in range(4)
    )
    if not ok:
        raise VerificationFailure("substitution identity failed")
    return QuadricNormalization(
        source=QuadricForm.identity(ctx),
        target_tag="segre",
        ctx=ctx,
        extensions=[],
        transform=T,
        scalar=ctx.elem(4),   # against the plain form x1*x4 - x2*x3
        verified=True,
    )


def normalize_to_segre(B: QuadricForm) -> QuadricNormalization:
    """Compose diagonalization with the Segre substitution: M with
    M^T B M = scalar * (doubled Segre matrix), over at most two
    quadratic extensions."""
    diag = diagonalize_quadric(B)
    ctx = diag.ctx
    extensions = list(diag.extensions)
    trans = diag.transform
    embeds = [diag.embed_source]
    if ctx.try_sqrt(-ctx.one()) is None:
        ctx, embed, _ = adjoin_sqrt(ctx, -ctx.one())
        extensions.append(ctx.descriptor())
        trans = _embed_matrix(trans, embed)
        embeds.append(embed)
    seg = to_segre_form(ctx)
    M = _mat_mul(ctx, trans, seg.transform)
    embed_all = _compose_embeds(embeds)
    B_final = _embed_matrix([list(row) for row in B.B], embed_all)
    product = _congruence_value(ctx, M, B_final)
    seg_rows = QuadricForm.segre(ctx).B
    scalar = ctx.elem(2)
    ok = all(
        product[i][j] == scalar * seg_rows[i][j]
        for i in range(4)
        for j in range(4)
    )
    if not ok:
        raise VerificationFailure("composite normalization failed")
    return QuadricNormalization(
        source=B,
        target_tag="segre",
        ctx=ctx,
        extensions=extensions,
        transform=M,
        scalar=ctx.elem(4),
        verified=True,
        embed_source=embed_all,
    )


# -- fixed points on the Segre quadric ---------------------------------------

@dataclass
class FixClassification:
    kind: str                  # FINITE | ONE_LINE | TWO_LINES | OTHER
    fixed_points: List[ProjPoint]
    lines: List[ProjLine]
    pso_verified: bool         # orthogonal mod scalar with det = lambda^2
    scalar: Optional[FieldElem]


def pso_membership(g: PGLElem, Q: QuadricForm) -> Tuple[bool, Optional[FieldElem], bool]:
    """(preserves Q mod scalar, witness, special part).

    Special means det(M) = lambda^2, which is invariant under rescaling
    M; det(M) = -lambda^2 is the non-special coset.  The outcome is
    conclusive in odd characteristic."""
    ok, lam = is_orthogonal_mod_scalar(g, Q)
    if not ok:
        return False, None, False
    det = g.det()
    return True, lam, det == lam * lam


def classify_fixed_points(g: PGLElem, ctx: FieldCtx) -> FixClassification:
    """Classify Fix(g) on the quadric x1*x4 = x2*x3.

    A point is fixed when its lift is an eigenvector of the matrix M of
    g, so Fix(g) is the union, over the eigenvalues lambda in F_q of M, of
    the points of P(ker(M - lambda I)) on the quadric; the points are
    sorted by key.

    Accepts elements preserving the quadric mod scalar; pso_verified
    records whether the determinant test certifies the special part.
    For a verified element an OTHER outcome is impossible and raises.
    """
    if g.ctx is not ctx:
        raise GroupError("mixed contexts")
    if g.is_identity():
        raise IdentityElement("fixed points of the identity are everything")
    Q = QuadricForm.segre(ctx)
    preserves, lam, special = pso_membership(g, Q)
    if not preserves:
        raise NotOnQuadricGroup("element does not preserve the quadric")
    fixed = []
    for value in ctx.elements():
        shifted = [
            [x - value if i == j else x for j, x in enumerate(row)]
            for i, row in enumerate(g.rows)
        ]
        if _det4(ctx, shifted).is_zero():
            fixed.extend(
                pt for pt in _projective_span(ctx, _nullspace(ctx, shifted))
                if pt.coords[0] * pt.coords[3] == pt.coords[1] * pt.coords[2]
            )
    fixed.sort(key=lambda p: p.key)
    kind, lines = _classify_point_set(ctx, fixed)
    if kind == "OTHER" and special:
        raise VerificationFailure(
            "a verified special element fixed a set that is neither small "
            "nor a union of at most two lines"
        )
    return FixClassification(
        kind=kind,
        fixed_points=fixed,
        lines=lines,
        pso_verified=special,
        scalar=lam,
    )


def _nullspace(ctx: FieldCtx, rows) -> List[List[FieldElem]]:
    """A basis of the kernel of a square matrix, one vector per free
    column of its reduced row-echelon form."""
    rref, rank = _rref2(ctx, rows)
    pivots = [next(c for c, x in enumerate(row) if not x.is_zero()) for row in rref[:rank]]
    basis = []
    for free in (c for c in range(len(rows)) if c not in pivots):
        v = [ctx.zero()] * len(rows)
        v[free] = ctx.one()
        for row, col in zip(rref, pivots):
            v[col] = -row[free]
        basis.append(v)
    return basis


def _projective_span(ctx: FieldCtx, basis) -> List[ProjPoint]:
    """The points of P(span of the independent vectors in basis), each
    once: one for each coefficient vector whose first nonzero entry is 1."""
    out = []
    elems = list(ctx.elements())
    for lead in range(len(basis)):
        for free in itertools.product(elems, repeat=len(basis) - lead - 1):
            v = list(basis[lead])
            for coeff, u in zip(free, basis[lead + 1:]):
                v = [a + coeff * b for a, b in zip(v, u)]
            out.append(ProjPoint(ctx, v))
    return out


def _classify_point_set(ctx, fixed):
    if len(fixed) <= 4:
        return "FINITE", []
    lines = _full_lines_within(ctx, fixed)
    covered = set()
    for line in lines:
        covered.update(line.points())
    if covered == set(fixed):
        if len(lines) == 1:
            return "ONE_LINE", lines
        if len(lines) == 2:
            return "TWO_LINES", lines
    return "OTHER", lines


def _full_lines_within(ctx, points) -> List[ProjLine]:
    """Lines all of whose q+1 points belong to the given set: those that
    get (q+1)q/2 of its pairs, in the order of their first pair with the
    points sorted by key."""
    ordered = sorted(set(points), key=lambda p: p.key)
    full = (ctx.order + 1) * ctx.order // 2
    return [
        _line_from_key(ctx, key)
        for key, pairs in _line_pair_counts(ctx, ordered).items()
        if pairs == full
    ]

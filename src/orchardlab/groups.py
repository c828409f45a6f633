"""The two group-action encodings of collinear triples.

For three planes: central projection through an off-plane point gives a
bijection between two planes, and composing two such projections acts on
the first plane as an element (a, b, c) of the group G_a^2 x| G_m, with

    (a, b, c) * [0 : u1 : u2 : u3] = [0 : c*u1 : u2 + a*u1 : u3 + b*u1].

For a smooth quadric: a point x off the quadric induces the involution
sending y to the second intersection of the line x--y with the quadric;
its linear lift is the reflection fixing the hyperplane orthogonal to x.
`gamma_x` computes one image on `FieldElem`s; `check_quadric_involutions`
checks many centres and points on Zech log codes (see `field.ZechTables`),
building no element per pair, and counts triples from the checked images.

Projective linear elements (`PGLElem`) keep their 4x4 matrix as rows of
the same log codes.  Products, determinants, the identity test, the
test M^T B M = lambda B over the nonzero entries of B and the reflection
lifts all run on codes, prime fields included; the rows of FieldElems
are decoded only when read (`PGLElem.rows`).
"""

from __future__ import annotations

from functools import cached_property
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .errors import OrchardError, VerificationFailure
from .field import FieldCtx, FieldElem, inv
from .projgeom import (
    PAIR_PRODUCT_CAP,
    Canonical,
    MixedContexts,
    NotOnSegreQuadric,
    PointSet,
    ProjPlane,
    ProjPoint,
    QuadricForm,
    StdThreePlaneFrame,
    TooLarge,
    _det4,
    _entry_logs,
    _matrix_logs,
    _require_p3,
    line_through,
    meet_line_plane,
    on_quadric,
)


class GroupError(OrchardError):
    pass


class BadCenter(GroupError):
    pass


class PointOffPlane(GroupError):
    pass


class OnExcludedPlane(GroupError):
    pass


class NotApplicable(GroupError):
    pass


class PointOnQuadric(GroupError):
    pass


class PointOffQuadric(GroupError):
    pass


class CharTwo(GroupError):
    pass


class Singular(GroupError):
    pass


class IdentityElement(GroupError):
    pass


class NotOnQuadricGroup(GroupError):
    pass


# -- the affine group G_a^2 x| G_m ---------------------------------------

class AffElem(Canonical):
    """Element (a, b, c) with c != 0 of G_a^2 x| G_m."""

    __slots__ = ("a", "b", "c")

    def __init__(self, ctx: FieldCtx, a, b, c):
        a, b, c = ctx.elem(a), ctx.elem(b), ctx.elem(c)
        if c.is_zero():
            raise GroupError("third component must be invertible")
        self.ctx = ctx
        self.a, self.b, self.c = a, b, c
        self.key = (a.code, b.code, c.code)

    def __repr__(self):
        return f"({self.a},{self.b},{self.c})"

    def is_identity(self) -> bool:
        return self.a.is_zero() and self.b.is_zero() and self.c.is_one()

    def text(self) -> str:
        return ";".join(e.text() for e in (self.a, self.b, self.c))

    @staticmethod
    def parse(ctx: FieldCtx, text: str) -> "AffElem":
        parts = text.split(";")
        if len(parts) != 3:
            raise GroupError(f"bad affine element text {text!r}")
        return AffElem(ctx, *(FieldElem.parse(ctx, s) for s in parts))

    @staticmethod
    def identity(ctx: FieldCtx) -> "AffElem":
        return AffElem(ctx, 0, 0, 1)


def aff_compose(g: AffElem, h: AffElem) -> AffElem:
    """Composition acting as g after h: (a'+a*c', b'+b*c', c*c').

    The law is fixed by requiring aff_act(aff_compose(g, h), p) ==
    aff_act(g, aff_act(h, p)) for all p; a test pins exactly that.
    """
    if g.ctx is not h.ctx:
        raise GroupError("mixed contexts")
    return AffElem(
        g.ctx, h.a + g.a * h.c, h.b + g.b * h.c, g.c * h.c
    )


def aff_inverse(g: AffElem) -> AffElem:
    ci = inv(g.c)
    return AffElem(g.ctx, -g.a * ci, -g.b * ci, ci)


def aff_commutator(g: AffElem, h: AffElem) -> AffElem:
    """[g, h] = g^-1 h^-1 g h."""
    return aff_compose(
        aff_inverse(g), aff_compose(aff_inverse(h), aff_compose(g, h))
    )


def aff_act(g: AffElem, p: ProjPoint) -> ProjPoint:
    """The star action on the plane {x0 = 0}."""
    if p.ctx is not g.ctx:
        raise GroupError("mixed contexts")
    if not p.coords[0].is_zero():
        raise PointOffPlane(f"{p} is not on x0 = 0")
    _, u1, u2, u3 = p.coords
    return ProjPoint(
        g.ctx, [g.ctx.zero(), g.c * u1, u2 + g.a * u1, u3 + g.b * u1]
    )


def aff_centralizer_member(h: AffElem, g: AffElem) -> bool:
    """Whether h = (x, y, z) centralizes g = (a, b, m), m != 1, via the
    closed form x = a(z-1)/(m-1), y = b(z-1)/(m-1)."""
    if h.ctx is not g.ctx:
        raise GroupError("mixed contexts")
    if g.c.is_one():
        raise NotApplicable("closed form needs third component != 1")
    ratio = (h.c - 1) / (g.c - 1)
    return h.a == g.a * ratio and h.b == g.b * ratio


def eta(x: ProjPoint, p_from: ProjPlane, p_to: ProjPlane, a: ProjPoint) -> ProjPoint:
    """Central projection through x from one plane to another."""
    if p_from.contains(x) or p_to.contains(x):
        raise BadCenter(f"center {x} lies on a plane")
    if not p_from.contains(a):
        raise PointOffPlane(f"{a} is not on the source plane")
    if p_to.contains(a):
        return a
    return meet_line_plane(line_through(a, x), p_to)


def gamma_xy(x: ProjPoint, y: ProjPoint) -> AffElem:
    """The element of G_a^2 x| G_m acting as eta_y^-1 o eta_x in the
    standard frame: (c'a - c, d'a - d, b'a) after writing x = [a:1:c:d]
    and y = [1:b':c':d']."""
    ctx = x.ctx
    frame = StdThreePlaneFrame(ctx)
    if not frame.off_both(x):
        raise OnExcludedPlane(f"{x} lies on an excluded plane")
    if not frame.off_both(y):
        raise OnExcludedPlane(f"{y} lies on an excluded plane")
    sx = inv(x.coords[1])
    a, c, d = x.coords[0] * sx, x.coords[2] * sx, x.coords[3] * sx
    sy = inv(y.coords[0])
    bp, cp, dp = y.coords[1] * sy, y.coords[2] * sy, y.coords[3] * sy
    return AffElem(ctx, cp * a - c, dp * a - d, bp * a)


def eta_composed(x: ProjPoint, y: ProjPoint, a: ProjPoint) -> ProjPoint:
    """Geometric oracle for gamma_xy: eta_y^-1(eta_x(a)) on P1."""
    frame = StdThreePlaneFrame(x.ctx)
    b = eta(x, frame.P1, frame.P2, a)
    return eta(y, frame.P2, frame.P1, b)


# -- projective linear elements ------------------------------------------

# the entries of the identity form (log 1 is 0), whose form on u, v is u . v
_DOT = tuple((k, k, 0) for k in range(4))


def _mat_mul(ctx: FieldCtx, A, B):
    """A B for a 4x4 matrix A and a matrix B with four rows, both of log
    codes (see `projgeom._det4`)."""
    form = ctx.zech.form
    cols = tuple(zip(*B))
    return tuple(tuple(form(_DOT, row, col) for col in cols) for row in A)


def _matrix_elems(ctx: FieldCtx, M) -> List[List[FieldElem]]:
    """The FieldElems of a matrix of log codes over ctx."""
    exp = ctx.zech.exp
    return [[FieldElem(ctx, exp[x]) for x in row] for row in M]


def _congruence_ratio(M, Q: QuadricForm, target: QuadricForm) -> Optional[int]:
    """The log code of the lambda != 0 with M^T B M = lambda T, for a 4x4
    matrix M of log codes, B the matrix of Q and T that of target, over
    one field; None when there is none.  Each entry of M^T B M sums over
    the nonzero entries of B alone, and lambda is the ratio at the first
    nonzero entry of T in row order."""
    ctx = Q.ctx
    t = ctx.zech
    red, Z = t.red, t.Z
    entries = _entry_logs(Q)
    cols = tuple(zip(*M))
    lam = None
    for ci, trow in zip(cols, _matrix_logs(ctx, target.B)):
        for cj, tij in zip(cols, trow):
            acc = t.form(entries, ci, cj)
            if tij == Z:
                if acc != Z:
                    return None
                continue
            cand = red[acc + (Z >> 1) - tij]    # acc / tij; Z / 2 is q - 1
            if lam is None:
                lam = cand
            elif cand != lam:
                return None
    return None if lam in (None, Z) else lam


class PGLElem(Canonical):
    """Invertible 4x4 matrix mod scalars; first nonzero entry scaled to 1.

    The matrix is kept as `logs`, its rows of Zech log codes (see
    `field.ZechTables`), on which products, determinants and the identity
    test run; `key` holds the rows of int codes and `rows` the rows of
    FieldElems, decoded on first access."""

    def __init__(self, ctx: FieldCtx, rows):
        rows = tuple(tuple(ctx.elem(x) for x in row) for row in rows)
        if len(rows) != 4 or any(len(r) != 4 for r in rows):
            raise GroupError("matrix must be 4x4")
        logs = _matrix_logs(ctx, rows)
        if _det4(ctx, logs) == ctx.zech.Z:
            raise Singular("matrix is singular")
        self._set_logs(ctx, logs)

    @classmethod
    def _of_logs(cls, ctx: FieldCtx, M) -> "PGLElem":
        """The element of an invertible 4x4 matrix of log codes, such as a
        product of elements, made without a FieldElem or a det check."""
        g = cls.__new__(cls)
        g._set_logs(ctx, M)
        return g

    def _set_logs(self, ctx: FieldCtx, M):
        t = ctx.zech
        exp, flat = t.exp, t.scaled([x for row in M for x in row])
        self.ctx = ctx
        self.logs = tuple(flat[i:i + 4] for i in (0, 4, 8, 12))
        self.key = tuple(tuple(exp[x] for x in row) for row in self.logs)

    @cached_property
    def rows(self) -> Tuple[Tuple[FieldElem, ...], ...]:
        return tuple(tuple(FieldElem(self.ctx, c) for c in row) for row in self.key)

    def __repr__(self):
        return f"PGL{self.rows}"

    def is_identity(self) -> bool:
        Z = self.ctx.zech.Z
        return all(
            x == (0 if i == j else Z)           # log 1 is 0
            for i, row in enumerate(self.logs) for j, x in enumerate(row)
        )

    def __mul__(self, other: "PGLElem") -> "PGLElem":
        if self.ctx is not other.ctx:
            raise GroupError("mixed contexts")
        return PGLElem._of_logs(self.ctx, _mat_mul(self.ctx, self.logs, other.logs))

    def act(self, p: ProjPoint) -> ProjPoint:
        """The image of a point of P^3 over the same field."""
        ctx = self.ctx
        if p.ctx is not ctx:
            raise GroupError("mixed contexts")
        _require_p3(p)
        log, exp, *_ = ctx.zech
        image = _mat_mul(ctx, self.logs, [[log[c]] for c in p.key])
        return ProjPoint(ctx, [FieldElem(ctx, exp[x]) for (x,) in image])

    def det(self) -> FieldElem:
        return FieldElem(self.ctx, self.ctx.zech.exp[_det4(self.ctx, self.logs)])


def is_orthogonal_mod_scalar(
    M: PGLElem, Q: QuadricForm
) -> Tuple[bool, Optional[FieldElem]]:
    """Test M^T B M = lambda * B on log codes; returns the witness lambda
    when true, the ratio at the first nonzero entry of B in row order."""
    if M.ctx is not Q.ctx:
        raise GroupError("mixed contexts")
    lam = _congruence_ratio(M.logs, Q, Q)
    if lam is None:
        return False, None
    return True, FieldElem(M.ctx, M.ctx.zech.exp[lam])


def _reflection_vector(Q: QuadricForm, x: ProjPoint, v) -> List[int]:
    """The log codes of w = (-2/<x, x>) B x, for x off Q with log codes v:
    the reflection in x sends u to u + (w . u) x (see `gamma_x`).  Raises
    PointOnQuadric for x on Q."""
    ctx = Q.ctx
    t = ctx.zech
    red, Z = t.red, t.Z
    entries = _entry_logs(Q)
    bx = [t.total(red[b + v[j]] for i, j, b in entries if i == k) for k in range(4)]
    qx = t.form(entries, v, v)
    if qx == Z:
        raise PointOnQuadric(f"{x} lies on the quadric")
    minus_two = red[t.log[ctx.elem(2).code] + t.m1]
    c = red[minus_two + (Z >> 1) - qx]          # Z / 2 is q - 1
    return [red[c + b] for b in bx]


def _reflection_logs(x: ProjPoint, Q: QuadricForm):
    """The log codes of the rows of `reflection_matrix(x, Q)`."""
    ctx = x.ctx
    if ctx.p == 2:
        raise CharTwo("reflections need characteristic != 2")
    if Q.ctx is not ctx:
        raise GroupError("mixed contexts")
    _require_p3(x)
    log, _, red, zech, Z, _ = ctx.zech
    v = [log[c] for c in x.key]
    w = _reflection_vector(Q, x, v)
    # entry (i, j) is [i = j] + v_i w_j; adding 1 (log code 0) to t is
    # red[zech[t + Z]]
    return tuple(
        tuple(red[zech[red[vi + wj] + Z]] if i == j else red[vi + wj]
              for j, wj in enumerate(w))
        for i, vi in enumerate(v)
    )


def reflection_matrix(x: ProjPoint, Q: QuadricForm):
    """Rows of the exact linear involution v -> v - 2 <v, x>/<x, x> x in
    the bilinear form of Q; it negates the lift of x and fixes its
    orthogonal hyperplane, and satisfies M^T B M = B on the nose."""
    return _matrix_elems(x.ctx, _reflection_logs(x, Q))


def reflection_lift(x: ProjPoint, Q: QuadricForm) -> PGLElem:
    """reflection_matrix as a canonical projective element, formed on log
    codes from the point's codes and the nonzero entries of Q."""
    return PGLElem._of_logs(x.ctx, _reflection_logs(x, Q))


def gamma_x(x: ProjPoint, y: ProjPoint, Q: QuadricForm) -> ProjPoint:
    """Second intersection of the line x--y with the quadric.

    Along v_y + s*v_x the form evaluates to s*(2<x,y> + s<x,x>), so the
    two roots are s = 0 (y itself) and s = -2<x,y>/<x,x>; a vanishing
    cross term means the tangent case and y is returned.
    """
    ctx = x.ctx
    if ctx.p == 2:
        raise CharTwo("quadric involutions need characteristic != 2")
    _require_p3(x, y)
    qx = Q.bilinear(x.coords, x.coords)
    if qx.is_zero():
        raise PointOnQuadric(f"{x} lies on the quadric")
    if not on_quadric(y, Q):
        raise PointOffQuadric(f"{y} is not on the quadric")
    cross = Q.bilinear(x.coords, y.coords)
    if cross.is_zero():
        return y
    s = -(ctx.elem(2) * cross) / qx
    return ProjPoint(ctx, [a + s * b for a, b in zip(y.coords, x.coords)])


def _involution_images(Q: QuadricForm, S: Sequence[ProjPoint], X: Sequence[ProjPoint]):
    """For each centre s of S in turn, the list of the int-code keys of
    y = gamma_s(x) (see `gamma_x`) for x in X, each checked on log codes:
    y lies on Q, (s, x, y) passes the four 3x3 minor tests of
    `incidence._count_brute_generic` and gamma_s(y) is x.  gamma_s(v) is
    the point of v + t s, t = -2<s, v>/<s, s>, with t read off B s, which
    is formed once per centre from the sparse `QuadricForm.entries`.
    Raises CharTwo in characteristic 2, what `PointSet` raises for S or X
    when it is not one, MixedContexts for a set over another field than
    Q, PointOffQuadric for an x off Q, PointOnQuadric for an s on Q, and
    VerificationFailure at the first pair that fails a check."""
    ctx = Q.ctx
    if ctx.p == 2:
        raise CharTwo("quadric involutions need characteristic != 2")
    S, X = PointSet.of(S), PointSet.of(X)
    if S and S.ctx is not ctx or X and X.ctx is not ctx:
        raise MixedContexts("point set from a different field")
    t = ctx.zech
    _, exp, red, zech, Z, m1 = t
    q1 = Z >> 1                     # q - 1: x * y^-1 has log red[x + q1 - y]
    entries = _entry_logs(Q)

    def image(s, w, v):
        # gamma_s(v) scaled to a first nonzero entry 1, or None for 0;
        # w is (-2/<s, s>) B s, so v + (sum_i v_i w_i) s
        v0, v1, v2, v3 = v
        w0, w1, w2, w3 = w
        c = red[v0 + w0]
        for u in (red[v1 + w1], red[v2 + w2], red[v3 + w3]):
            c = red[c + zech[u - c + Z]]
        s0, s1, s2, s3 = s
        v0 = red[v0 + zech[red[c + s0] - v0 + Z]]
        v1 = red[v1 + zech[red[c + s1] - v1 + Z]]
        v2 = red[v2 + zech[red[c + s2] - v2 + Z]]
        v3 = red[v3 + zech[red[c + s3] - v3 + Z]]
        lead = v0 if v0 != Z else v1 if v1 != Z else v2 if v2 != Z else v3
        if lead == Z:
            return None
        k = q1 - lead
        return red[v0 + k], red[v1 + k], red[v2 + k], red[v3 + k]

    def rank_two(a, b, c):
        # the minors m_ij of (a, b), then c_i m_jk + c_k m_ij = c_j m_ik
        a0, a1, a2, a3 = a
        b0, b1, b2, b3 = b
        m01, m02, m03, m12, m13, m23 = [
            red[x + zech[red[y + m1] - x + Z]]
            for x, y in (
                (red[a0 + b1], red[a1 + b0]), (red[a0 + b2], red[a2 + b0]),
                (red[a0 + b3], red[a3 + b0]), (red[a1 + b2], red[a2 + b1]),
                (red[a1 + b3], red[a3 + b1]), (red[a2 + b3], red[a3 + b2]),
            )
        ]
        c0, c1, c2, c3 = c
        return all(
            red[x + zech[red[y] - x + Z]] == red[z]
            for x, y, z in (
                (red[c0 + m12], c2 + m01, c1 + m02), (red[c0 + m13], c3 + m01, c1 + m03),
                (red[c0 + m23], c3 + m02, c2 + m03), (red[c1 + m23], c3 + m12, c2 + m13),
            )
        )

    form = t.form
    for x, v in zip(X, X.logs):
        if form(entries, v, v) != Z:
            raise PointOffQuadric(f"{x} is not on the quadric")
    for s, sv in zip(S, S.logs):
        w = _reflection_vector(Q, s, sv)
        images = []
        for x, xv in zip(X, X.logs):
            y = image(sv, w, xv)
            if not (
                y and form(entries, y, y) == Z and rank_two(sv, xv, y)
                and image(sv, w, y) == xv
            ):
                raise VerificationFailure(f"quadric involution failed at ({s}, {x})")
            images.append((exp[y[0]], exp[y[1]], exp[y[2]], exp[y[3]]))
        yield images


class InvolutionCount(NamedTuple):
    pairs: int
    triples: int


def check_quadric_involutions(
    Q: QuadricForm, S: Sequence[ProjPoint], X: Sequence[ProjPoint]
) -> InvolutionCount:
    """Check, for every centre s of S (off the quadric Q) and every point
    x of X (on Q), that y = gamma_s(x) is on Q and on the line s--x and
    that gamma_s(y) = x; returns the pairs checked and the collinear
    triples of X x X x S, one per pair whose y is in X and is not x
    (exact: s is off Q and the characteristic odd, so the line s--x
    meets Q in x and y only).  On Zech log codes: tables once per field,
    B s once per centre.  Raises TooLarge when |S| |X| exceeds
    PAIR_PRODUCT_CAP, before any pair, then CharTwo, MixedContexts,
    PointOffQuadric, PointOnQuadric or VerificationFailure (see
    `_involution_images`)."""
    if len(S) * len(X) > PAIR_PRODUCT_CAP:
        raise TooLarge(f"{len(S)} x {len(X)} involution pairs exceed the counting guard")
    in_x = {x.key for x in X}
    pairs = triples = 0
    for images in _involution_images(Q, S, X):
        pairs += len(images)
        triples += sum(y != x.key and y in in_x for x, y in zip(X, images))
    return InvolutionCount(pairs, triples)


# -- the Segre map --------------------------------------------------------

def segre(u: ProjPoint, w: ProjPoint) -> ProjPoint:
    """([x:y], [w:z]) -> [xw : xz : yw : yz], landing on x1*x4 = x2*x3."""
    if u.ctx is not w.ctx:
        raise GroupError("mixed contexts")
    if len(u.key) != 2 or len(w.key) != 2:
        raise GroupError("both factors must be points of P^1")
    x, y = u.coords
    a, b = w.coords
    return ProjPoint(u.ctx, [x * a, x * b, y * a, y * b])


def segre_inverse(p: ProjPoint) -> Tuple[ProjPoint, ProjPoint]:
    """Factor a point of the quadric x1*x4 = x2*x3 through P^1 x P^1."""
    _require_p3(p)
    ctx = p.ctx
    c1, c2, c3, c4 = p.coords
    if c1 * c4 != c2 * c3:
        raise NotOnSegreQuadric(f"{p} does not satisfy x1*x4 = x2*x3")
    if not (c1.is_zero() and c3.is_zero()):
        first = ProjPoint(ctx, [c1, c3])
    else:
        first = ProjPoint(ctx, [c2, c4])
    if not (c1.is_zero() and c2.is_zero()):
        second = ProjPoint(ctx, [c1, c2])
    else:
        second = ProjPoint(ctx, [c3, c4])
    return first, second


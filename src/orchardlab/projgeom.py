"""Canonical points, lines, planes and quadrics in P^3 (and P^1) over a
finite field.

Every object is stored in a unique canonical form so that structural
equality and hashing are the containment test: points and plane duals
scale their first nonzero coordinate to 1, lines keep a reduced
row-echelon basis.  This is what makes the counting kernels a matter of
dictionary lookups.  The one equality and hash live in `Canonical`,
which points, lines and planes here and the group elements of `groups`
subclass.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import product
from typing import Iterable, List, Sequence, Tuple

from .errors import OrchardError
from .field import FieldCtx, FieldElem, FieldError, inv

ENUMERATION_CAP = 10**8
# the most pairs one pass may visit (incidence's kernels and censuses,
# the quadric involution check)
PAIR_PRODUCT_CAP = 10**8


class GeometryError(OrchardError):
    pass


class ZeroVector(GeometryError):
    pass


class EqualPoints(GeometryError):
    pass


class LineInPlane(GeometryError):
    pass


class MixedContexts(GeometryError):
    pass


class TooLarge(GeometryError):
    pass


class NotOnSegreQuadric(GeometryError):
    pass


class Canonical:
    """An object held in its canonical form: its field `ctx` and `key`, a
    tuple of int codes (or of rows of them) unique to it in that field.
    Equal means the same class, the same field and the same key; the hash
    is the key's."""

    __slots__ = ("ctx", "key")

    def __eq__(self, other):
        return (
            isinstance(other, type(self))
            and self.ctx is other.ctx
            and self.key == other.key
        )

    def __hash__(self):
        return hash(self.key)


def _as_elems(ctx: FieldCtx, coords) -> Tuple[FieldElem, ...]:
    return tuple(ctx.elem(c) for c in coords)


class ProjPoint(Canonical):
    """A projective point; first nonzero coordinate normalized to 1."""

    __slots__ = ("coords",)

    def __init__(self, ctx: FieldCtx, coords: Sequence):
        coords = _as_elems(ctx, coords)
        pivot = next((c for c in coords if not c.is_zero()), None)
        if pivot is None:
            raise ZeroVector("all coordinates zero")
        if not pivot.is_one():
            scale = inv(pivot)
            coords = tuple(c * scale for c in coords)
        self.ctx = ctx
        self.coords = coords
        self.key = tuple(c.code for c in coords)

    def __repr__(self):
        return "[" + ":".join(c.text() for c in self.coords) + "]"

    def text(self) -> str:
        return ":".join(c.text() for c in self.coords)

    @staticmethod
    def parse(ctx: FieldCtx, text: str) -> "ProjPoint":
        return ProjPoint(ctx, [FieldElem.parse(ctx, c) for c in text.split(":")])


def _rref2(rows: List[List[FieldElem]]):
    """Reduced row-echelon form of a small matrix, returned with rank."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0])
    pivot_row = 0
    for col in range(ncols):
        hit = next(
            (r for r in range(pivot_row, len(rows)) if not rows[r][col].is_zero()),
            None,
        )
        if hit is None:
            continue
        rows[pivot_row], rows[hit] = rows[hit], rows[pivot_row]
        if not rows[pivot_row][col].is_one():
            scale = inv(rows[pivot_row][col])
            rows[pivot_row] = [x * scale for x in rows[pivot_row]]
        for r in range(len(rows)):
            if r != pivot_row and not rows[r][col].is_zero():
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
        if pivot_row == len(rows):
            break
    return rows, pivot_row


def matrix_rank(rows) -> int:
    _, rank = _rref2([list(r) for r in rows])
    return rank


class ProjLine(Canonical):
    """A line in P^3 as the row span of a canonical RREF 2x4 basis; its
    key is the flat 8-tuple of the basis codes."""

    __slots__ = ("basis",)

    def __init__(self, ctx: FieldCtx, rows):
        rref, rank = _rref2([list(r) for r in rows])
        if rank != 2:
            raise GeometryError("line basis must have rank 2")
        basis = tuple(tuple(r) for r in rref[:2])
        self.ctx = ctx
        self.basis = basis
        self.key = tuple(e.code for row in basis for e in row)

    def __repr__(self):
        return f"Line{self.basis}"


class ProjPlane(Canonical):
    """A plane in P^3 by its canonical dual vector."""

    __slots__ = ("dual",)

    def __init__(self, ctx: FieldCtx, dual: Sequence):
        pt = ProjPoint(ctx, dual)  # reuse the same canonicalization
        self.ctx = ctx
        self.dual = pt.coords
        self.key = pt.key

    def __repr__(self):
        return "Plane(" + ":".join(c.text() for c in self.dual) + ")"

    def contains(self, p: ProjPoint) -> bool:
        if p.ctx is not self.ctx:
            raise MixedContexts("point from a different field")
        acc = self.ctx.zero()
        for d, c in zip(self.dual, p.coords):
            acc = acc + d * c
        return acc.is_zero()


class StdThreePlaneFrame:
    """The fixed frame P1 = {x0 = 0}, P2 = {x1 = 0}."""

    def __init__(self, ctx: FieldCtx):
        self.ctx = ctx
        self.P1 = ProjPlane(ctx, [1, 0, 0, 0])
        self.P2 = ProjPlane(ctx, [0, 1, 0, 0])

    def off_both(self, x: ProjPoint) -> bool:
        return not (self.P1.contains(x) or self.P2.contains(x))


def line_through(p: ProjPoint, q: ProjPoint) -> ProjLine:
    """The unique line through two distinct points."""
    if p.ctx is not q.ctx:
        raise MixedContexts("points from different fields")
    if p == q:
        raise EqualPoints("points coincide")
    return ProjLine(p.ctx, [list(p.coords), list(q.coords)])


def collinear(p: ProjPoint, q: ProjPoint, r: ProjPoint) -> bool:
    """Rank test: the three lifts span a subspace of dimension <= 2.

    Repeated points therefore count as collinear; distinctness is the
    caller's concern.
    """
    if p.ctx is not q.ctx or q.ctx is not r.ctx:
        raise MixedContexts("points from different fields")
    return matrix_rank([p.coords, q.coords, r.coords]) <= 2


def meet_line_plane(line: ProjLine, plane: ProjPlane) -> ProjPoint:
    """The unique intersection point of a line not contained in the plane."""
    ctx = line.ctx
    if plane.ctx is not ctx:
        raise MixedContexts("plane from a different field")
    u, v = line.basis
    zero = ctx.zero()
    du = sum((d * c for d, c in zip(plane.dual, u)), zero)
    dv = sum((d * c for d, c in zip(plane.dual, v)), zero)
    if du.is_zero() and dv.is_zero():
        raise LineInPlane("line lies in the plane")
    # s*u + t*v with s*du + t*dv = 0
    coords = [dv * a - du * b for a, b in zip(u, v)]
    return ProjPoint(ctx, coords)


def enumerate_space(ctx: FieldCtx, dim: int) -> List[ProjPoint]:
    """All canonical points of P^dim, each once, in key order: a point
    with more leading zeros has the smaller key, and the free coordinates
    after the leading 1 run through code order."""
    if dim not in (1, 3):
        raise GeometryError("only P^1 and P^3 are supported")
    if ctx.order ** (dim + 1) > ENUMERATION_CAP:
        raise TooLarge("projective space too large to enumerate")
    elems = ctx.elements_sorted()
    zero, one = ctx.zero(), ctx.one()
    return [
        ProjPoint(ctx, [zero] * lead + [one, *free])
        for lead in range(dim, -1, -1)
        for free in product(elems, repeat=dim - lead)
    ]


class QuadricForm:
    """A quadric in P^3 via its symmetric 4x4 matrix B.  The nonzero
    entries of B, as (i, j, B[i][j]) in row order, are kept once, so the
    forms sum over them alone (the Segre form has 4 of 16).  A form is
    immutable, so `identity` and `segre` make one form per field that
    every caller shares."""

    __slots__ = ("ctx", "B", "entries")

    def __init__(self, ctx: FieldCtx, rows):
        B = tuple(tuple(ctx.elem(x) for x in row) for row in rows)
        if len(B) != 4 or any(len(r) != 4 for r in B):
            raise GeometryError("quadric matrix must be 4x4")
        for i in range(4):
            for j in range(4):
                if B[i][j] != B[j][i]:
                    raise GeometryError("quadric matrix must be symmetric")
        entries = tuple(
            (i, j, b) for i, row in enumerate(B) for j, b in enumerate(row)
            if not b.is_zero()
        )
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError(f"QuadricForm is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"QuadricForm is immutable: cannot delete {name!r}")

    def bilinear(self, u, v) -> FieldElem:
        acc = self.ctx.zero()
        for i, j, b in self.entries:
            acc = acc + u[i] * b * v[j]
        return acc

    def det(self) -> FieldElem:
        ctx = self.ctx
        return FieldElem(ctx, ctx.zech.exp[_det4(ctx, _matrix_logs(ctx, self.B))])

    def is_smooth(self) -> bool:
        return not self.det().is_zero()

    @staticmethod
    @lru_cache(maxsize=None)            # one form per interned field
    def identity(ctx: FieldCtx) -> "QuadricForm":
        one = ctx.one()
        zero = ctx.zero()
        return QuadricForm(
            ctx, [[one if i == j else zero for j in range(4)] for i in range(4)]
        )

    @staticmethod
    @lru_cache(maxsize=None)
    def segre(ctx: FieldCtx) -> "QuadricForm":
        """Symmetric matrix of 2*(x1*x4 - x2*x3); doubling avoids halves."""
        z = ctx.zero()
        o = ctx.one()
        return QuadricForm(
            ctx,
            [[z, z, z, o], [z, z, -o, z], [z, -o, z, z], [o, z, z, z]],
        )


def _require_p3(*points: ProjPoint) -> None:
    """Raise GeometryError for the first point that is not in P^3."""
    for x in points:
        if len(x.key) != 4:
            raise GeometryError(f"{x} is not a point of P^3: it has {len(x.key)} coordinates")


def on_quadric(p: ProjPoint, Q: QuadricForm) -> bool:
    """Whether p lies on Q, the zero set of Q(p) = sum_{i<j} B_ij p_i p_j
    + (1/2) sum_i B_ii p_i^2, on log codes (see `_entry_logs`).  In odd
    characteristic that is the zero set of p^T B p = 2 Q(p).  Over F_(2^n)
    Q(p) is the sum over i < j, and a form with a nonzero diagonal, which
    has no half, raises `groups.CharTwo`."""
    if p.ctx is not Q.ctx:
        raise MixedContexts("point from a different field")
    _require_p3(p)
    t = p.ctx.zech
    entries = _entry_logs(Q)
    if p.ctx.p == 2:
        if any(i == j for i, j, _ in entries):
            from .groups import CharTwo
            raise CharTwo("a form with a nonzero diagonal divides by 2")
        entries = [(i, j, b) for i, j, b in entries if i < j]
    v = [t.log[c] for c in p.key]
    return t.form(entries, v, v) == t.Z


# -- 4x4 matrices on Zech log codes ------------------------------------------
#
# A matrix is four rows of log codes (see `field.ZechTables`): with Z the
# code of 0, the product of codes x, y is red[x + y] and their sum
# red[x + zech[y - x + Z]], and -x is red[x + l(-1)].

def _matrix_logs(ctx: FieldCtx, rows) -> Tuple[Tuple[int, ...], ...]:
    """The log codes of a matrix of FieldElems over ctx."""
    log = ctx.zech.log
    return tuple(tuple(log[x.code] for x in row) for row in rows)


def _entry_logs(Q: QuadricForm):
    """The nonzero entries (i, j, b) of Q's matrix with b as a log code,
    the entries `ZechTables.form` takes."""
    log = Q.ctx.zech.log
    return [(i, j, log[b.code]) for i, j, b in Q.entries]


def _det4(ctx: FieldCtx, M) -> int:
    """The log code of the determinant of a 4x4 matrix of log codes, by
    the Laplace expansion along its top two rows: the sum of the six
    products of a 2x2 minor of rows 0, 1 with the complementary minor of
    rows 2, 3, signed."""
    t = ctx.zech
    red, minus, m1 = t.red, t.minus, t.m1
    a, b, c, d = M
    return t.total(
        # (a_i b_j - a_j b_i)(c_k d_l - c_l d_k), signed
        red[red[minus(red[a[i] + b[j]], red[a[j] + b[i]])
                + minus(red[c[k] + d[l]], red[c[l] + d[k]])] + sign]
        for i, j, k, l, sign in (
            (0, 1, 2, 3, 0), (0, 2, 1, 3, m1), (0, 3, 1, 2, 0),
            (1, 2, 0, 3, 0), (1, 3, 0, 2, m1), (2, 3, 0, 1, 0),
        )
    )


# -- point sets ---------------------------------------------------------

class PointSet(tuple):
    """An immutable sequence of distinct points of P^3 over one field ctx
    (None when empty), with their code tuples `keys` (`ProjPoint.key`)
    and Zech log-code tuples `logs` (see `field.ZechTables`, built on first
    use).  Raises MixedContexts, GeometryError (not in P^3) or EqualPoints
    with `index`, the first bad point's position.  Equal to a list or
    tuple of the same points in the same order."""

    def __new__(cls, points=()):
        self = super().__new__(cls, points)
        self.ctx = ctx = self[0].ctx if self else None
        self.keys = keys = tuple(x.key for x in self)
        seen = set()
        for index, (x, key) in enumerate(zip(self, keys)):
            if x.ctx is not ctx:
                exc = MixedContexts(f"{x} is over another field than the set")
            elif len(key) != 4:
                exc = GeometryError(f"{x} is not a point of P^3: it has {len(key)} coordinates")
            elif key in seen:
                exc = EqualPoints(f"{x} repeats a point of the set")
            else:
                seen.add(key)
                continue
            exc.index = index
            raise exc
        return self

    @classmethod
    def of(cls, points) -> "PointSet":
        """points itself when it is a PointSet, else PointSet(points)."""
        return points if isinstance(points, PointSet) else cls(points)

    @cached_property
    def logs(self) -> Tuple[Tuple[int, ...], ...]:
        log = self.ctx.zech.log if self else None
        return tuple(tuple(log[c] for c in key) for key in self.keys)

    def __eq__(self, other):
        return tuple.__eq__(self, tuple(other) if isinstance(other, list) else other)

    __ne__ = object.__ne__      # the negation of __eq__, not tuple's
    __hash__ = tuple.__hash__


class PointSetFormatError(GeometryError):
    pass


def load_point_set(path, allow_dup: bool = False):
    """Read a point-set file, `field <descriptor>` then one point of P^3
    per line, as (ctx, PointSet).

    Coordinates are colon-separated; each coordinate is a comma-separated
    coefficient list (a bare integer for prime fields).  `#` starts a
    comment.  Duplicate canonical points are an error unless allow_dup.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    ctx = None
    points, linenos, seen = [], [], set()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ctx is None:
            if not line.startswith("field "):
                raise PointSetFormatError(
                    f"{path}:{lineno}: first line must declare `field <descriptor>`"
                )
            try:
                ctx = FieldCtx.from_descriptor(line[len("field "):])
            except FieldError as exc:
                raise PointSetFormatError(f"{path}:{lineno}: {exc}") from exc
            continue
        try:
            pt = ProjPoint.parse(ctx, line)
        except (FieldError, GeometryError, ValueError) as exc:
            raise PointSetFormatError(f"{path}:{lineno}: {exc}") from exc
        if allow_dup and pt in seen:
            continue
        seen.add(pt)
        points.append(pt)
        linenos.append(lineno)
    if ctx is None:
        raise PointSetFormatError(f"{path}: missing field declaration")
    try:
        return ctx, PointSet(points)
    except GeometryError as exc:
        raise PointSetFormatError(f"{path}:{linenos[exc.index]}: {exc}") from exc


def save_point_set(path, ctx: FieldCtx, points: Iterable[ProjPoint]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"field {ctx.descriptor()}\n")
        for p in points:
            fh.write(p.text() + "\n")
